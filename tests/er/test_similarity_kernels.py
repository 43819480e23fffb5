"""Parity of the batched similarity kernels.

The column kernels in :mod:`repro.er.similarity` must reproduce the
one-pair-at-a-time programs of :mod:`repro.er.reference` byte for byte:
every score column is compared with ``tobytes()``, never with a tolerance.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.data.citations import generate_citation_pairs, pairs_to_table
from repro.er import reference, similarity
from repro.er.predicates import SimilarityCache, SimilarityPredicateSpec
from repro.er.similarity import (
    SIMILARITIES,
    TokenCounts,
    edit_similarity,
    jaro_scores,
    numeric_diff_scores,
    smith_waterman_scores,
    smith_waterman_similarity,
)
from repro.er.transforms import get_transform

#: Every registry similarity's oracle.
ORACLES = {
    "edit": reference.edit_similarity,
    "smith_waterman": reference.smith_waterman_similarity,
    "jaro": reference.jaro_similarity,
    "jaccard": reference.jaccard_similarity,
    "cosine": reference.cosine_similarity,
    "overlap": reference.overlap_similarity,
    "diff": reference.numeric_diff_similarity,
}

#: Smith-Waterman ``(match_score, mismatch_penalty, gap_penalty)`` settings,
#: the default first.  The positive penalties make padded cells score higher
#: than real ones, so only a kernel that ignores padding keeps parity.
SW_PARAMS = [
    (2, -1, -1), (3, -2, -2), (1, 0, 0), (5, -3, -1), (2, -1, -4), (2, 1, 1), (0, -1, -1),
]


def _sw_kwargs(params):
    match, mismatch, gap = params
    return {"match_score": match, "mismatch_penalty": mismatch, "gap_penalty": gap}


def _oracle_column(oracle, left, right, **kwargs):
    return np.array([oracle(a, b, **kwargs) for a, b in zip(left, right)], dtype=float)


def assert_parity(left, right):
    """Every kernel equals its oracle on every pair, byte for byte."""
    for name, oracle in ORACLES.items():
        scores = SIMILARITIES[name].column(left, right)
        assert scores.tobytes() == _oracle_column(oracle, left, right).tobytes(), name
    for params in SW_PARAMS:
        kwargs = _sw_kwargs(params)
        expected = _oracle_column(reference.smith_waterman_similarity, left, right, **kwargs)
        assert smith_waterman_scores(left, right, **kwargs).tobytes() == expected.tobytes(), params


def _cross(texts):
    """Every ordered pair of ``texts``, as two aligned columns."""
    return [a for a in texts for _ in texts], [b for _ in texts for b in texts]


class TestEdgeCases:
    def test_empty_and_equal_strings(self):
        left = ["", "", "abc", "", "same", "x" * 40, "abcabc"]
        right = ["", "abc", "", "abc", "same", "x" * 40, "abcabc"]
        assert_parity(left, right)
        assert edit_similarity("", "") == 0.0
        assert edit_similarity("same", "same") == 1.0
        assert smith_waterman_similarity("same", "same") == 1.0
        assert jaro_scores(["", "same", "same"], ["", "same", ""]).tolist() == [0.0, 1.0, 0.0]

    def test_one_character_strings(self):
        left = ["a", "a", "a", "b", "a", "abcdef"]
        right = ["a", "b", "abcdef", "a", "", "f"]
        assert_parity(left, right)

    def test_non_ascii_code_points(self):
        # Combining marks, astral-plane characters, CJK, NUL and lone
        # surrogates: each is one code point, and none can make the
        # code-point encoding raise.
        texts = [
            "cafe\u0301", "caf\u00e9", "日本語のテキスト", "日本", "\U0001f600 smile",
            "smile \U0001f600", "\x00a\x00", "a\x00", "\ud800", "x\udfffy", "𐀀",
            "ΑΒΓ", "αβγ",
        ]
        assert_parity(*_cross(texts))

    def test_token_tuples_are_joined(self):
        assert SIMILARITIES["edit"].column([("ab", "cd")], ["ab cd"]).tolist() == [1.0]
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
        # real characters, and the scores must still not change.  The
        # shorter strings span both edit-distance kernels: the bit-vector
        # one up to 64 code points, the row DP beyond.
        monkeypatch.setattr(similarity, "_PAD", ord("a"))
        left = ["a", "ab", "aaaa", "ba", "a" * 25, "bab", "b" * 64, "ab" * 33, "b" * 70]
        right = ["aaaaaaaaaa", "a", "aa", "aaaaab", "b", "a" * 30, "ba" * 40, "b" * 90, "ba" * 35]
        assert_parity(left, right)

    def test_the_word_boundary(self):
        # Shorter strings of 63, 64 and 65 code points, with astral and
        # lone-surrogate code points, in one chunk: the pairs on either side
        # of the word boundary take different edit-distance kernels.
        left, right = [], []
        for length in (63, 64, 65):
            for fill in ("ab", "\U0001f600a", "\ud800b\udfff"):
                text = (fill * length)[:length]
                for other in (text[::-1], text[1:] + "\U0001f600", "x" + text, "ab" * 40):
                    left += [text, other]
                    right += [other, text]
        assert_parity(left, right)

    def test_the_bit_kernel_serves_up_to_64_code_points(self, monkeypatch):
        served = []
        bits = similarity._levenshtein_bits
        monkeypatch.setattr(
            similarity, "_levenshtein_bits",
            lambda a, b, a_len, b_len: served.extend(a_len.tolist()) or bits(a, b, a_len, b_len),
        )
        left = ["a" * n for n in (80, 64, 1, 65, 63)]
        right = ["ab" * 35] * len(left)
        expected = _oracle_column(reference.edit_similarity, left, right)
        assert SIMILARITIES["edit"].column(left, right).tobytes() == expected.tobytes()
        assert served == [1, 63, 64]

    def test_default_chunk_spans_several_chunks(self):
        rng = np.random.default_rng(4)
        alphabet = list("ab ")
        left = ["".join(rng.choice(alphabet, size=int(n))) for n in rng.integers(0, 12, 1100)]
        right = ["".join(rng.choice(alphabet, size=int(n))) for n in rng.integers(0, 12, 1100)]
        assert len(left) > 2 * similarity._CHUNK
        assert_parity(left, right)

    def test_scalar_calls_are_one_pair_columns(self):
        pairs = [
            ("kitten", "sitting"), ("approximate queries", "approximate joins"),
            ("1999", "2001"), ("a b a", "a c"),
        ]
        for a, b in pairs:
            for name, oracle in ORACLES.items():
                assert SIMILARITIES[name](a, b) == oracle(a, b), name
            for params in SW_PARAMS:
                kwargs = _sw_kwargs(params)
                assert smith_waterman_similarity(a, b, **kwargs) == (
                    reference.smith_waterman_similarity(a, b, **kwargs)
                )

    def test_registry_routes_through_the_kernels(self):
        left, right = ["kitten", "", "database", "2001"], ["sitting", "x", "data", "1999"]
        for name, oracle in ORACLES.items():
            scores = similarity.pairwise_scores(similarity.get_similarity(name), left, right)
            assert scores.tobytes() == _oracle_column(oracle, left, right).tobytes(), name

    def test_empty_column(self):
        for name, function in SIMILARITIES.items():
            assert function.column([], []).shape == (0,), name


class TestJaro:
    def test_short_strings_have_a_zero_window(self):
        # Up to three characters the match window is 0: only aligned
        # characters match, so "ab" and "ba" share nothing.
        texts = ["a", "b", "ab", "ba", "aa", "abc", "cab", "bca", "acb", "aab", "aba"]
        assert_parity(*_cross(texts))
        assert jaro_scores(["ab"], ["ba"]).tolist() == [0.0]

    def test_transposition_heavy_pairs_both_ways(self):
        pairs = [
            ("martha", "marhta"), ("dwayne", "duane"), ("dixon", "dicksonx"),
            ("abcdefgh", "badcfehg"), ("abcdefgh", "hgfedcba"), ("aabbccdd", "abababcd"),
            ("jellyfish", "smellyfish"), ("crate", "trace"), ("abcabcabc", "cbacbacba"),
            ("aaaab", "baaaa"), ("ab" * 20, "ba" * 20), ("abcd" * 9, "dcba" * 9),
            ("zyxwvutsrq", "qrstuvwxyz"), ("transposition", "tarnspositoin"),
        ]
        left = [a for a, _ in pairs] + [b for _, b in pairs]
        right = [b for _, b in pairs] + [a for a, _ in pairs]
        assert_parity(left, right)

    def test_matches_at_the_window_edge(self):
        # A character exactly at the window's edge, and one step beyond it,
        # on either side.
        left, right = [], []
        for length in range(4, 24):
            window = length // 2 - 1
            for shift in (window, window + 1):
                text = "".join(chr(ord("a") + k % 26) for k in range(length))
                lone = "-" * shift + "x" + "-" * (length - 1 - shift)
                left += [text, "x" + "-" * (length - 1)]
                right += [text[shift:] + "#" * shift, lone]
        assert_parity(left, right)
        assert_parity(right, left)

    def test_token_tuples_are_joined(self):
        left = [("ab", "cd"), ("martha",), (), ("a", "b", "c")]
        right = ["ab cd", ("marhta",), ("x",), "c b a"]
        expected = _oracle_column(reference.jaro_similarity, left, right)
        assert jaro_scores(left, right).tobytes() == expected.tobytes()
        assert jaro_scores([("ab", "cd")], ["ab cd"]).tolist() == [1.0]


class TestTokenSimilarities:
    def test_repeated_tokens_are_multisets(self):
        left = [("a", "a", "b"), ("a",) * 5, ("x", "y", "x", "y"), ("a", "b"), ("a", "a")]
        right = [("a",), ("a", "a"), ("y", "x"), ("b", "b", "b", "a"), ("b", "b")]
        assert_parity(left, right)
        # Cosine counts repeats; Jaccard and overlap compare sets.
        assert SIMILARITIES["jaccard"](("a", "a", "b"), ("a", "b")) == 1.0
        assert SIMILARITIES["cosine"](("a", "a", "b"), ("a", "b")) < 1.0

    def test_strings_are_split(self):
        left = ["a b a", "  spaced   out ", "", "x", "one two three"]
        right = [("a", "b"), "out spaced", "x", "", "three two one one"]
        assert_parity(left, right)
        assert SIMILARITIES["jaccard"].column(["a b"], [("a", "b")]).tolist() == [1.0]

    def test_empty_tokens_and_empty_sides(self):
        left = [(), ("",), ("", ""), ("a",), (), ("", "a")]
        right = [(), ("",), ("",), (), ("a",), ("a", "")]
        assert_parity(left, right)

    def test_non_ascii_tokens_and_lone_surrogates(self):
        texts = [
            "caf\u00e9 au lait", "cafe\u0301 au lait", "caf\u00e9", "cafe\u0301", "日本 語",
            "\ud800 x", "x \udfff", "\U0001f600 \U0001f600",
        ]
        left, right = _cross(texts)
        assert_parity(left, right)
        assert_parity([tuple(a) for a in left], [tuple(b) for b in right])

    def test_the_cache_scores_every_token_similarity_from_one_coding(self, monkeypatch):
        codings = []
        from_codes = TokenCounts.from_codes.__func__
        monkeypatch.setattr(
            TokenCounts, "from_codes",
            classmethod(lambda cls, *codes: codings.append(1) or from_codes(cls, *codes)),
        )
        table = pairs_to_table(generate_citation_pairs(150, seed=5))
        cache = SimilarityCache(table)
        left, right = table.column("title_l").tolist(), table.column("title_r").tolist()
        for transform in ("2grams", "3grams", "space"):
            tokens = get_transform(transform)
            for name in ("jaccard", "cosine", "overlap"):
                spec = SimilarityPredicateSpec("title", "title_l", "title_r", transform, name, 0.5)
                expected = [
                    0.0 if a is None or b is None else ORACLES[name](tokens(a), tokens(b))
                    for a, b in zip(left, right)
                ]
                assert cache.scores(spec).tobytes() == np.array(expected).tobytes(), name
        assert len(codings) == 3


class TestNumericDiff:
    def test_non_numbers_and_non_finite_values_score_zero(self):
        left = ["1999", "nan", "abc", "inf", "inf", "-inf", "1e400", "", ("19", "99"), "2000"]
        right = ["2001", "1999", "1999", "inf", "1999", "1999", "1", "1999", "1999", " 2002 "]
        assert_parity(left, right)
        assert numeric_diff_scores(["nan", "inf"], ["1", "inf"]).tolist() == [0.0, 0.0]

    def test_numbers_and_scales(self):
        left = [1999, 2000.5, "1_999", "2e3"]
        right = [2000, 1990, "1999", "1998"]
        for scale in (5.0, 1.0, 0.5, 3):
            scores = numeric_diff_scores(left, right, scale=scale)
            expected = _oracle_column(reference.numeric_diff_similarity, left, right, scale=scale)
            assert scores.tobytes() == expected.tobytes(), scale


# Small alphabets make matches (and so non-trivial alignments) likely.
_texts = st.one_of(
    st.text(alphabet="ab", max_size=12),
    # Around the 64-code-point word of the bit-vector edit distance.
    st.text(alphabet="ab\U0001f600", min_size=60, max_size=70),
    st.text(alphabet="abcé日\U0001f600 ", max_size=20),
    st.text(max_size=8),
)
_tokens = st.lists(st.text(alphabet="abc", max_size=3), max_size=8).map(tuple)


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
    for name, oracle in ORACLES.items():
        scores = SIMILARITIES[name].column(left, right)
        assert scores.tobytes() == _oracle_column(oracle, left, right).tobytes(), name
    kwargs = _sw_kwargs(params)
    expected = _oracle_column(reference.smith_waterman_similarity, left, right, **kwargs)
    assert smith_waterman_scores(left, right, **kwargs).tobytes() == expected.tobytes()


@settings(max_examples=60, deadline=None)
@given(pairs=st.lists(st.tuples(_tokens, _tokens), max_size=40))
def test_token_kernels_match_reference(pairs):
    left = [a for a, _ in pairs]
    right = [b for _, b in pairs]
    for name in ("jaccard", "cosine", "overlap", "jaro"):
        scores = SIMILARITIES[name].column(left, right)
        assert scores.tobytes() == _oracle_column(ORACLES[name], left, right).tobytes(), name
