"""Parity of the packed n-gram codes with the per-value n-gram transforms.

An n-gram view of :class:`~repro.er.predicates.SimilarityCache` codes each
gram as one int64 (:func:`~repro.er.predicates._gram_codes`) instead of
slicing it out as a string.  The per-value ``_ngrams`` tuples counted by
:meth:`TokenCounts.of` are the oracle: the counts from the codes must equal
theirs field by field, byte for byte.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data.citations import ER_ATTRIBUTE_PAIRS, generate_citation_pairs, pairs_to_table
from repro.er.predicates import _PairView, _gram_codes
from repro.er.similarity import TokenCounts
from repro.er.transforms import _ngrams

FIELDS = ("left_size", "right_size", "shared", "dot", "left_square", "right_square")

#: Values whose coding is easy to get wrong: precomposed and decomposed
#: accents, lone surrogates, NULs (numpy's ``U`` dtype drops a trailing one),
#: the largest code point, case folding that changes the length, empty and
#: all-space values, and every length up to and just past ``n``.
EDGE_VALUES = [
    "", " ", "   \t\n ", "a", "A", "ab", "abc", "abcd", "a b", " a  b ", "_", "a_",
    "caf\u00e9", "cafe\u0301", "\u00e9", "e\u0301", "\u0130", "\u00df",
    "\ud800", "\udfff", "a\ud800", "\U00010000", "\U00010000\ud800",
    "\x00", "\x00\x00", "a\x00", "\x00a", "ab\x00", "\x00\x00\x00",
    "\U0010ffff", "\U0010ffff\U0010ffff", "\U0010ffff\U0010ffff\U0010ffff",
    "\U0010ffff" * 4, "\U0001f600x",
]


def _coded_counts(left, right, n):
    return TokenCounts.from_codes(
        len(left),
        *_gram_codes(np.array(left, dtype=object), n),
        *_gram_codes(np.array(right, dtype=object), n),
    )


def _oracle_counts(left, right, n):
    return TokenCounts.of(
        [_ngrams(str(value), n) for value in left],
        [_ngrams(str(value), n) for value in right],
    )


def assert_same_counts(coded, oracle):
    for field in FIELDS:
        assert getattr(coded, field).tobytes() == getattr(oracle, field).tobytes(), field


def assert_codes_name_tokens(values, n):
    """Each value's codes are its ``_ngrams`` tokens, one code per token."""
    owner, codes = _gram_codes(np.array(values, dtype=object), n)
    code_of: dict[str, int] = {}
    for index, value in enumerate(values):
        tokens = _ngrams(str(value), n)
        mine = codes[owner == index].tolist()
        assert len(mine) == len(tokens), value
        # A value's full grams are coded in position order.
        for token, code in zip(tokens, mine):
            assert code_of.setdefault(token, code) == code, (value, token)
    assert len(set(code_of.values())) == len(code_of)


@pytest.mark.parametrize("n", [2, 3])
class TestEdgeValues:
    def test_codes_are_a_bijection_with_tokens(self, n):
        assert_codes_name_tokens(EDGE_VALUES, n)

    def test_counts_match_the_oracle(self, n):
        left = EDGE_VALUES
        for shift in (0, 1, 5):
            right = EDGE_VALUES[shift:] + EDGE_VALUES[:shift]
            assert_same_counts(_coded_counts(left, right, n), _oracle_counts(left, right, n))

    def test_numbers_code_their_string_form(self, n):
        left = [1999.0, 2000.5, 7.0, 0.0, -3.0, 1e21, float("inf")]
        right = [1999.0, 2001.0, 7.0, 1.0, 3.0, 1e21, 1999.0]
        assert_codes_name_tokens(left, n)
        assert_same_counts(_coded_counts(left, right, n), _oracle_counts(left, right, n))

    def test_no_values(self, n):
        assert_same_counts(_coded_counts([], [], n), _oracle_counts([], [], n))
        owner, codes = _gram_codes(np.array([], dtype=object), n)
        assert owner.dtype == codes.dtype == np.int64
        assert len(owner) == len(codes) == 0


def test_every_citation_ngram_view_counts_as_its_tokens():
    table = pairs_to_table(generate_citation_pairs(300, seed=11))
    views = 0
    for _, left, right in ER_ATTRIBUTE_PAIRS:
        for transform in ("2grams", "3grams"):
            view = _PairView.of(table, left, right, transform)
            # ``left``/``right`` are the per-value tokens, built through the
            # transform; the view's counts come from the packed codes.
            assert_same_counts(view.token_counts, TokenCounts.of(view.left, view.right))
            views += 1
    assert views == 8


# Small alphabets make shared grams likely; the rest mixes in every kind of
# code point the coding has to keep apart.
_texts = st.one_of(
    st.text(alphabet="ab _", max_size=8),
    st.text(
        alphabet=st.sampled_from(
            ["a", "A", " ", "\t", "\u00e9", "e", "\u0301", "\u0130", "\ud800", "\udfff",
             "\x00", "\U0010ffff", "\U0001f600", "_"]
        ),
        max_size=10,
    ),
    st.text(max_size=6),
)
_values = st.one_of(_texts, st.floats(allow_nan=False), st.integers(1900, 2100))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(_values, _values), max_size=12), st.sampled_from([2, 3]))
def test_random_columns_count_as_their_tokens(pairs, n):
    left = [a for a, _ in pairs]
    right = [b for _, b in pairs]
    assert_codes_name_tokens(left + right, n)
    assert_same_counts(_coded_counts(left, right, n), _oracle_counts(left, right, n))
