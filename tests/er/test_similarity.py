"""Tests for the similarity functions and transforms."""

import pytest

from repro.core.exceptions import ApexError
from repro.er.similarity import (
    SIMILARITIES,
    cosine_similarity,
    edit_similarity,
    get_similarity,
    jaccard_similarity,
    jaro_similarity,
    numeric_diff_similarity,
    overlap_similarity,
    pairwise_scores,
    smith_waterman_similarity,
)
from repro.er.transforms import TRANSFORMS, get_transform


class TestTransforms:
    def test_identity_normalises(self):
        transform = get_transform("identity")
        assert transform("  Hello   World  ") == "hello world"

    def test_2grams(self):
        grams = get_transform("2grams")("abcd")
        assert grams == ("ab", "bc", "cd")

    def test_3grams_short_string(self):
        assert get_transform("3grams")("ab") == ("ab",)

    def test_space_tokenisation(self):
        assert get_transform("space")("A quick  fox") == ("a", "quick", "fox")

    def test_none_input(self):
        assert get_transform("2grams")(None) == ()
        assert get_transform("identity")(None) == ""

    def test_unknown_transform(self):
        with pytest.raises(ApexError):
            get_transform("bogus")

    def test_registry_flags(self):
        assert TRANSFORMS["identity"].tokenizing is False
        assert TRANSFORMS["space"].tokenizing is True


class TestEditSimilarity:
    def test_identical(self):
        assert edit_similarity("databases", "databases") == 1.0

    def test_completely_different(self):
        assert edit_similarity("aaaa", "bbbb") == 0.0

    def test_single_typo(self):
        assert edit_similarity("database", "databose") == pytest.approx(1 - 1 / 8)

    def test_empty_scores_zero(self):
        assert edit_similarity("", "abc") == 0.0
        assert edit_similarity("", "") == 0.0

    def test_symmetry(self):
        assert edit_similarity("kitten", "sitting") == edit_similarity("sitting", "kitten")

    def test_range(self):
        assert 0.0 <= edit_similarity("abcdef", "xyz") <= 1.0


class TestJaro:
    def test_identical(self):
        assert jaro_similarity("martha", "martha") == 1.0

    def test_known_value(self):
        # classic JARO example: MARTHA vs MARHTA = 0.944...
        assert jaro_similarity("martha", "marhta") == pytest.approx(0.9444, abs=1e-3)

    def test_disjoint(self):
        assert jaro_similarity("abc", "xyz") == 0.0

    def test_empty(self):
        assert jaro_similarity("", "abc") == 0.0


class TestSmithWaterman:
    def test_identical(self):
        assert smith_waterman_similarity("align", "align") == 1.0

    def test_substring_match(self):
        assert smith_waterman_similarity("database systems", "database") == 1.0

    def test_unrelated(self):
        assert smith_waterman_similarity("aaaa", "bbbb") == 0.0

    def test_range(self):
        value = smith_waterman_similarity("approximate queries", "approximate joins")
        assert 0.0 < value < 1.0


class TestTokenSimilarities:
    def test_jaccard(self):
        assert jaccard_similarity(("a", "b"), ("b", "c")) == pytest.approx(1 / 3)
        assert jaccard_similarity(("a",), ("a",)) == 1.0
        assert jaccard_similarity((), ("a",)) == 0.0

    def test_cosine(self):
        assert cosine_similarity(("a", "b"), ("a", "b")) == pytest.approx(1.0)
        assert cosine_similarity(("a",), ("b",)) == 0.0

    def test_cosine_multiset(self):
        # repeated tokens weight the vector
        assert cosine_similarity(("a", "a", "b"), ("a",)) > cosine_similarity(("a", "b"), ("b", "c"))

    def test_overlap(self):
        assert overlap_similarity(("a", "b", "c"), ("a", "b")) == 1.0
        assert overlap_similarity(("a", "b"), ("b", "c", "d")) == pytest.approx(0.5)

    def test_string_inputs_are_tokenised(self):
        assert jaccard_similarity("a b", "a c") == pytest.approx(1 / 3)


class TestNumericDiff:
    def test_equal_years(self):
        assert numeric_diff_similarity("1999", "1999") == 1.0

    def test_one_year_apart(self):
        assert numeric_diff_similarity(1999, 2000) == pytest.approx(0.8)

    def test_far_apart(self):
        assert numeric_diff_similarity(1990, 2010) == 0.0

    def test_non_numeric(self):
        assert numeric_diff_similarity("abc", "1999") == 0.0


class TestRegistry:
    def test_all_registered(self):
        assert set(SIMILARITIES) == {
            "edit", "smith_waterman", "jaro", "jaccard", "cosine", "overlap", "diff"
        }

    def test_get_similarity(self):
        assert get_similarity("jaccard").token_based
        assert not get_similarity("edit").token_based
        with pytest.raises(ApexError):
            get_similarity("bogus")

    def test_pairwise_scores(self):
        scores = pairwise_scores(get_similarity("jaccard"), [("a",), ("b",)], [("a",), ("c",)])
        assert scores.tolist() == [1.0, 0.0]

    def test_pairwise_scores_length_mismatch(self):
        with pytest.raises(ApexError):
            pairwise_scores(get_similarity("jaccard"), [("a",)], [])

    def test_all_similarities_bounded(self):
        samples = [
            ("scalable databases", "scalable database"),
            ("alice smith", "a. smith"),
            ("", "x"),
            ("1999", "2001"),
        ]
        for name, similarity in SIMILARITIES.items():
            for left, right in samples:
                value = similarity(left, right)
                assert 0.0 <= value <= 1.0, name
