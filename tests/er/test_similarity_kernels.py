"""Parity of the batched edit-distance and Smith-Waterman kernels.

The column kernels in :mod:`repro.er.similarity` must reproduce the
row-at-a-time programs of :mod:`repro.er.reference` byte for byte: every
score column is compared with ``tobytes()``, never with a tolerance.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.er import reference, similarity
from repro.er.similarity import (
    edit_scores,
    edit_similarity,
    smith_waterman_scores,
    smith_waterman_similarity,
)

#: Smith-Waterman ``(match_score, mismatch_penalty, gap_penalty)`` settings,
#: the default first.  The positive penalties make padded cells score higher
#: than real ones, so only a kernel that ignores padding keeps parity.
SW_PARAMS = [
    (2, -1, -1), (3, -2, -2), (1, 0, 0), (5, -3, -1), (2, -1, -4), (2, 1, 1), (0, -1, -1),
]


def _sw_kwargs(params):
    match, mismatch, gap = params
    return {"match_score": match, "mismatch_penalty": mismatch, "gap_penalty": gap}


def assert_parity(left, right):
    """Both kernels equal the reference on every pair, byte for byte."""
    expected = np.array([reference.edit_similarity(a, b) for a, b in zip(left, right)])
    assert edit_scores(left, right).tobytes() == expected.tobytes()
    for params in SW_PARAMS:
        kwargs = _sw_kwargs(params)
        expected = np.array(
            [reference.smith_waterman_similarity(a, b, **kwargs) for a, b in zip(left, right)]
        )
        assert smith_waterman_scores(left, right, **kwargs).tobytes() == expected.tobytes(), params


class TestEdgeCases:
    def test_empty_and_equal_strings(self):
        left = ["", "", "abc", "", "same", "x" * 40, "abcabc"]
        right = ["", "abc", "", "abc", "same", "x" * 40, "abcabc"]
        assert_parity(left, right)
        assert edit_similarity("", "") == 0.0
        assert edit_similarity("same", "same") == 1.0
        assert smith_waterman_similarity("same", "same") == 1.0

    def test_one_character_strings(self):
        left = ["a", "a", "a", "b", "a", "abcdef"]
        right = ["a", "b", "abcdef", "a", "", "f"]
        assert_parity(left, right)

    def test_non_ascii_code_points(self):
        # Combining marks, astral-plane characters, CJK, NUL and lone
        # surrogates: each is one code point, and none can make the
        # code-point encoding raise.
        texts = [
            "café", "café", "日本語のテキスト", "日本", "\U0001f600 smile",
            "smile \U0001f600", "\x00a\x00", "a\x00", "\ud800", "x\udfffy", "𐀀",
            "ΑΒΓ", "αβγ",
        ]
        left = [a for a in texts for _ in texts]
        right = [b for _ in texts for b in texts]
        assert_parity(left, right)

    def test_token_tuples_are_joined(self):
        assert edit_scores([("ab", "cd")], ["ab cd"]).tolist() == [1.0]
        assert_parity([("ab", "cd"), ()], ["ab cx", ("q",)])

    def test_chunks_with_widely_differing_lengths(self, monkeypatch):
        # Small chunks, so many chunks mix one-character strings with long
        # ones, and pairs leave the row sweep at very different rows.
        monkeypatch.setattr(similarity, "_CHUNK", 7)
        rng = np.random.default_rng(3)
        lengths = [0, 1, 2, 3, 30, 70, 110]

        def text():
            size = int(rng.choice(lengths))
            return "".join(rng.choice(list("abcdé"), size=size))

        left = [text() for _ in range(120)]
        right = [text() for _ in range(120)]
        assert_parity(left, right)

    def test_padding_never_reaches_a_score(self, monkeypatch):
        # Pad with a code point the strings contain: padded cells now match
        # real characters, and the scores must still not change.
        monkeypatch.setattr(similarity, "_PAD", ord("a"))
        left = ["a", "ab", "aaaa", "ba", "a" * 25, "bab"]
        right = ["aaaaaaaaaa", "a", "aa", "aaaaab", "b", "a" * 30]
        assert_parity(left, right)

    def test_default_chunk_spans_several_chunks(self):
        rng = np.random.default_rng(4)
        alphabet = list("ab ")
        left = ["".join(rng.choice(alphabet, size=int(n))) for n in rng.integers(0, 12, 1100)]
        right = ["".join(rng.choice(alphabet, size=int(n))) for n in rng.integers(0, 12, 1100)]
        assert len(left) > 2 * similarity._CHUNK
        assert_parity(left, right)

    def test_scalar_calls_are_one_pair_columns(self):
        pairs = [("kitten", "sitting"), ("approximate queries", "approximate joins")]
        for a, b in pairs:
            assert edit_similarity(a, b) == reference.edit_similarity(a, b)
            for params in SW_PARAMS:
                kwargs = _sw_kwargs(params)
                assert smith_waterman_similarity(a, b, **kwargs) == (
                    reference.smith_waterman_similarity(a, b, **kwargs)
                )

    def test_registry_routes_through_the_kernels(self):
        left, right = ["kitten", "", "database"], ["sitting", "x", "data"]
        oracles = {
            "edit": reference.edit_similarity,
            "smith_waterman": reference.smith_waterman_similarity,
        }
        for name, oracle in oracles.items():
            scores = similarity.pairwise_scores(similarity.get_similarity(name), left, right)
            expected = np.array([oracle(a, b) for a, b in zip(left, right)])
            assert scores.tobytes() == expected.tobytes()

    def test_empty_column(self):
        assert edit_scores([], []).shape == (0,)
        assert smith_waterman_scores([], []).shape == (0,)


# Small alphabets make matches (and so non-trivial alignments) likely.
_texts = st.one_of(
    st.text(alphabet="ab", max_size=12),
    st.text(alphabet="abcé日\U0001f600 ", max_size=20),
    st.text(max_size=8),
)


@settings(max_examples=60, deadline=None)
@given(
    pairs=st.lists(st.tuples(_texts, _texts), max_size=40),
    params=st.tuples(
        st.integers(-2, 4), st.integers(-3, 2), st.integers(-3, 2)
    ),
)
def test_kernels_match_reference(pairs, params):
    left = [a for a, _ in pairs]
    right = [b for _, b in pairs]
    expected = np.array([reference.edit_similarity(a, b) for a, b in pairs])
    assert edit_scores(left, right).tobytes() == expected.tobytes()
    kwargs = _sw_kwargs(params)
    expected = np.array(
        [reference.smith_waterman_similarity(a, b, **kwargs) for a, b in pairs]
    )
    assert smith_waterman_scores(left, right, **kwargs).tobytes() == expected.tobytes()
