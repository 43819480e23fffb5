"""Tests for similarity predicates, the score cache and boolean formulas."""

import hashlib

import numpy as np
import pytest

from repro.core.exceptions import ApexError
from repro.data.citations import (
    CITATION_PAIR_SCHEMA,
    ER_ATTRIBUTE_PAIRS,
    generate_citation_pairs,
    pairs_to_table,
)
from repro.data.table import Table
from repro.er import predicates, reference
from repro.er.predicates import (
    _PREDICATE_IDENTITY_VERSION,
    BooleanFormula,
    SimilarityCache,
    SimilarityPredicateSpec,
    enumerate_thresholds,
)
from repro.er.transforms import DEFAULT_TRANSFORM_NAMES, get_transform
from repro.mechanisms.base import Mechanism
from repro.queries.query import WorkloadCountingQuery
from repro.queries.workload import Workload


@pytest.fixture()
def title_spec() -> SimilarityPredicateSpec:
    return SimilarityPredicateSpec(
        attribute="title",
        left_column="title_l",
        right_column="title_r",
        transform="2grams",
        similarity="jaccard",
        threshold=0.6,
    )


@pytest.fixture()
def cache(citation_table) -> SimilarityCache:
    return SimilarityCache(citation_table)


class TestSimilarityCache:
    def test_scores_shape_and_range(self, cache, title_spec, citation_table):
        scores = cache.scores(title_spec)
        assert scores.shape == (len(citation_table),)
        assert (scores >= 0).all() and (scores <= 1).all()

    def test_scores_cached_across_thresholds(self, cache, title_spec):
        first = cache.scores(title_spec)
        other_threshold = SimilarityPredicateSpec(
            attribute="title", left_column="title_l", right_column="title_r",
            transform="2grams", similarity="jaccard", threshold=0.9,
        )
        second = cache.scores(other_threshold)
        assert first is second
        assert cache.cached_keys() == [("title", "2grams", "jaccard")]

    def test_mask_respects_threshold(self, cache, title_spec):
        loose = cache.mask(title_spec)
        strict_spec = SimilarityPredicateSpec(
            attribute="title", left_column="title_l", right_column="title_r",
            transform="2grams", similarity="jaccard", threshold=0.95,
        )
        strict = cache.mask(strict_spec)
        assert strict.sum() <= loose.sum()

    def test_null_values_score_zero(self, cache):
        spec = SimilarityPredicateSpec(
            attribute="venue", left_column="venue_l", right_column="venue_r",
            transform="space", similarity="jaccard", threshold=0.0,
        )
        scores = cache.scores(spec)
        nulls = cache.table.is_null("venue_l") | cache.table.is_null("venue_r")
        assert (scores[nulls] == 0).all()

    def test_predicate_wraps_mask(self, cache, title_spec, citation_table):
        predicate = cache.predicate(title_spec)
        mask = predicate.evaluate(citation_table)
        assert np.array_equal(mask, cache.mask(title_spec))
        assert not predicate.supports_domain_analysis

    def test_predicate_on_other_table_rejected(self, cache, title_spec, toy_table):
        predicate = cache.predicate(title_spec)
        with pytest.raises(ApexError):
            predicate.evaluate(toy_table)

    def test_matches_score_higher(self, cache, title_spec, citation_table):
        scores = cache.scores(title_spec)
        labels = np.array([v == "MATCH" for v in citation_table.column("label")])
        assert scores[labels].mean() > scores[~labels].mean() + 0.3


def _spec(attribute="title", transform="2grams", similarity="jaccard", threshold=0.6):
    return SimilarityPredicateSpec(
        attribute=attribute,
        left_column=f"{attribute}_l",
        right_column=f"{attribute}_r",
        transform=transform,
        similarity=similarity,
        threshold=threshold,
    )


class TestTableScopedMasks:
    """A predicate's mask is a function of (spec, table), never of the cache."""

    @staticmethod
    def _counts_through_shared_matrix(n_first, n_second):
        # Two pair tables with one schema and equal predicates, so the
        # second analysis is served the first table's matrix (built from the
        # first cache's predicates) by the memo.  The counts are the ones a
        # release reads over that shared structural matrix.
        specs = [_spec(), _spec("authors", "space", "edit", 0.5)]
        counts, matrices = [], []
        for n_pairs, seed in ((n_first, 1), (n_second, 2)):
            table = pairs_to_table(generate_citation_pairs(n_pairs, seed=seed))
            cache = SimilarityCache(table)
            formula = BooleanFormula.disjunction(specs)
            workload = Workload(
                [cache.predicate(spec) for spec in specs] + [formula.predicate(cache)],
                ["title", "authors", "either"],
            )
            query = WorkloadCountingQuery(workload, sensitivity=3.0)
            matrix = query.workload_matrix(table.schema)
            matrices.append(matrix)
            truth = [int(cache.mask(spec).sum()) for spec in specs]
            truth.append(int(formula.evaluate(cache).sum()))
            answered = Mechanism._true_counts(query, matrix, table.snapshot())
            counts.append((answered.tolist(), truth))
        assert matrices[0] is matrices[1]
        return counts

    def test_equal_sized_tables_answer_for_themselves(self):
        for answered, truth in self._counts_through_shared_matrix(500, 500):
            assert answered == truth

    def test_unequal_sized_tables_answer_for_themselves(self):
        for answered, truth in self._counts_through_shared_matrix(500, 300):
            assert answered == truth

    def test_other_table_is_scored_not_read_from_cache(self):
        first = pairs_to_table(generate_citation_pairs(200, seed=1))
        second = pairs_to_table(generate_citation_pairs(200, seed=2))
        spec = _spec()
        mask = SimilarityCache(first).predicate(spec).evaluate(second)
        assert np.array_equal(mask, SimilarityCache(second).mask(spec))

    def test_snapshot_at_the_cached_version_reads_the_column(self, citation_table):
        cache = SimilarityCache(citation_table)
        spec = _spec()
        mask = cache.predicate(spec).evaluate(citation_table.snapshot())
        assert np.array_equal(mask, cache.mask(spec))
        assert cache.cached_keys() == [spec.key()]

    def test_same_table_after_an_append(self):
        table = pairs_to_table(generate_citation_pairs(200, seed=4))
        cache = SimilarityCache(table)
        spec = _spec()
        before = cache.mask(spec)
        table.append_rows(pairs_to_table(generate_citation_pairs(60, seed=5)).to_rows())
        after = cache.predicate(spec).evaluate(table)
        assert after.shape == (260,)
        assert np.array_equal(after, SimilarityCache(table).mask(spec))
        assert np.array_equal(after[:200], before)
        # The cache stays pinned to the version it was built for.
        assert len(cache.table) == 200
        assert np.array_equal(cache.mask(_spec(threshold=0.3)), cache.scores(spec) > 0.3)


class TestSharedTransforms:
    def test_each_view_is_transformed_once(self, citation_table, monkeypatch):
        coded = []
        gram_codes = predicates._gram_codes
        monkeypatch.setattr(
            predicates, "_gram_codes",
            lambda values, n: coded.append(len(values)) or gram_codes(values, n),
        )
        cache = SimilarityCache(citation_table)
        non_null = ~(citation_table.is_null("title_l") | citation_table.is_null("title_r"))
        cache.scores(_spec(similarity="cosine"))
        assert sum(coded) == 2 * int(non_null.sum())
        cache.scores(_spec(similarity="jaccard"))
        cache.scores(_spec(similarity="overlap"))
        assert sum(coded) == 2 * int(non_null.sum())


class TestPairViewRows:
    def test_null_masks_are_the_per_value_null_test(self, citation_table):
        for name in citation_table.schema.attribute_names:
            per_value = [
                value is None or (isinstance(value, float) and np.isnan(value))
                for value in citation_table.column(name)
            ]
            assert np.array_equal(citation_table.null_mask(name), per_value), name
        assert citation_table.null_mask("year_l").any()
        assert citation_table.null_mask("year_r").any()

    def test_a_view_holds_the_pairs_with_two_values(self, citation_table):
        view = predicates._PairView.of(citation_table, "year_l", "year_r", "2grams")
        both = ~(citation_table.is_null("year_l") | citation_table.is_null("year_r"))
        assert np.array_equal(view.rows, np.flatnonzero(both))
        assert view.left_values.tolist() == citation_table.column("year_l")[both].tolist()
        assert view.right_values.tolist() == citation_table.column("year_r")[both].tolist()


#: Every similarity's one-pair oracle.
_ORACLES = {
    "edit": reference.edit_similarity,
    "smith_waterman": reference.smith_waterman_similarity,
    "jaro": reference.jaro_similarity,
    "jaccard": reference.jaccard_similarity,
    "cosine": reference.cosine_similarity,
    "overlap": reference.overlap_similarity,
    "diff": reference.numeric_diff_similarity,
}


def _repeated_pairs_table(n_rows=400, seed=3):
    """A pair table drawn from a small pool of values: most pairs repeat.

    Either side may be NULL, and the years include ``0.0`` and ``-0.0``,
    which compare equal but transform to different strings.
    """
    rng = np.random.default_rng(seed)
    records = [r for pair in generate_citation_pairs(3, seed=seed) for r in (pair.left, pair.right)]
    pools = {
        "title": [r.title for r in records][:5],
        "authors": [r.authors for r in records][:5],
        "venue": ["VLDB", "vldb ", "SIGMOD Conference", "\U0001f600 ICDE \ud800"],
        "year": [0.0, -0.0, 1999.0, 2001.0],
    }
    rows = []
    for _ in range(n_rows):
        row = {"label": "MATCH"}
        for logical, pool in pools.items():
            for side in ("_l", "_r"):
                null = rng.random() < 0.1
                row[logical + side] = None if null else pool[rng.integers(len(pool))]
        rows.append(row)
    return Table.from_rows(CITATION_PAIR_SCHEMA, rows)


class TestDistinctPairs:
    def test_columns_equal_the_per_row_oracle(self):
        # Every similarity with each transform the cleaners pair it with, on
        # every attribute: the character similarities score the years too,
        # where 0.0 and -0.0 read "0.0" and "-0.0".
        table = _repeated_pairs_table()
        cache = SimilarityCache(table)
        distinct_shares = []
        for logical, left_column, right_column in ER_ATTRIBUTE_PAIRS:
            left, right = table.column(left_column), table.column(right_column)
            nulls = table.null_mask(left_column) | table.null_mask(right_column)
            combos = [(name, "identity") for name in ("edit", "smith_waterman", "jaro", "diff")]
            combos += [
                (name, transform)
                for name in ("jaccard", "cosine", "overlap")
                for transform in DEFAULT_TRANSFORM_NAMES
            ]
            for name, transform in combos:
                tokens = get_transform(transform)
                expected = [
                    0.0 if null else _ORACLES[name](tokens(a), tokens(b))
                    for a, b, null in zip(left, right, nulls)
                ]
                scores = cache.scores(_spec(logical, transform, name, 0.5))
                assert scores.tobytes() == np.array(expected).tobytes(), (logical, transform, name)
            view = predicates._PairView.of(table, left_column, right_column, "identity")
            distinct_shares.append(len(view.distinct[0]) / len(view.rows))
        # The pools make most non-NULL pairs repeats of another.
        assert max(distinct_shares) < 0.25

    def test_a_character_kernel_scores_each_distinct_pair_once(self, citation_table, monkeypatch):
        scored = []
        pairwise_scores = predicates.pairwise_scores
        monkeypatch.setattr(
            predicates, "pairwise_scores",
            lambda similarity, left, right: scored.append(len(left))
            or pairwise_scores(similarity, left, right),
        )
        non_null = ~(citation_table.is_null("venue_l") | citation_table.is_null("venue_r"))
        pairs = zip(
            citation_table.column("venue_l")[non_null].tolist(),
            citation_table.column("venue_r")[non_null].tolist(),
        )
        distinct = len(set(pairs))
        assert distinct < int(non_null.sum()) // 2
        SimilarityCache(citation_table).scores(_spec("venue", "identity", "edit"))
        assert scored == [distinct]


#: SHA-256 of every score column of a seeded 300-pair citation table, per
#: :data:`repro.er.predicates._PREDICATE_IDENTITY_VERSION`.  The engine's
#: memos and disk tiers trust ``(description, version)`` as a predicate's
#: identity, so a change that moves any score must fail here until the
#: version is bumped and the new digests are pinned under the new version.
PINNED_SCORE_DIGESTS = {
    1: {
        "edit(identity(title))": "ee57b91fdc6faee3d5ae5fdd4b29193ff79a6af73007a169000835c1fdee7f18",
        "smith_waterman(identity(title))": "7042729f93c3d11a647e0276097578bbc747c2f0216a63db2755f201155177e9",
        "jaro(identity(title))": "60af14cd0ae2dfff41195e964760639d2efc26be9a69500986077665916dec2c",
        "jaccard(2grams(title))": "d826ac258ae6c03f3b02428fdbdb62770447a27813f48c594f9e0ce4b2e6fe8c",
        "jaccard(3grams(title))": "2599c431032648aec551664deab8e4d4f8f807cbe65e519bf96d48ccdee27ff2",
        "jaccard(space(title))": "f98db2c6b47b2cfc6e65ec5da7b380a9bc5d03a57df2aabbd338eab31d9771d8",
        "cosine(2grams(title))": "8a34d582f68391f47696b56fcb52eab39fa701bc284a5f2fec050b2b18d51cf6",
        "cosine(3grams(title))": "dbf65f84fe8748c380326ba91c9296ca9b9f8f2e00dfb1bca80c7efe7e4ae3c5",
        "cosine(space(title))": "e5fbbfb1422677e39323ade07a640f5b8e499a3be4dc9cfa853b3d2a69688748",
        "overlap(2grams(title))": "237a920187d2be43c2d042818633e4b4a57aeb4fa08767123498fab94c211195",
        "overlap(3grams(title))": "a2070a7d00f5100fa7681b059a5bd34dbea24a24fe78e48df4c9942e6be55f79",
        "overlap(space(title))": "42478d10dcb7f608319f8cc19885076e2b568837087912be73fb8b30125398ca",
        "edit(identity(authors))": "f2193772fc27b3764493b015a89ac6838fd4493f353741a4249d15e4d5334e02",
        "smith_waterman(identity(authors))": "25f8d7d1b566e72caabb22d221190fc199db4467c6073589d91789fd7202f191",
        "jaro(identity(authors))": "52caca3e2558a6221b280f376c3ae175d8cf131b4f7316ec4453829bd8941824",
        "jaccard(2grams(authors))": "825132b176e837162a0593fbdc3bb83fc597f831de38dd63d58c22335e268d3e",
        "jaccard(3grams(authors))": "c2b9978defd869cd202c0c5f5235df2701ed3ad018eda6353f16e3583e6490e4",
        "jaccard(space(authors))": "a9a8d75c094208e5f2cf24d6f6117d9ab6d139fde3a2414069d30751a86a25a0",
        "cosine(2grams(authors))": "bc167171dbfc1394431aecbfe42c123e511ef06ccd11fc161a798fe6aceee4d0",
        "cosine(3grams(authors))": "45948a87c8fef1db7f7be995000d1e64c1ad33d1e9e4f2f151129c00792b6e94",
        "cosine(space(authors))": "1091f151c0657eb66e970f99cb99d6fb5539c564d438a0430e572a857c62b95a",
        "overlap(2grams(authors))": "ddf560d09b12f1f39bf1a1504678d1001f461b451183328c0008b386c833a1e9",
        "overlap(3grams(authors))": "22b8593fe20b49819459c874ce0489fc0023486bca215cf5da1444ee718a1898",
        "overlap(space(authors))": "03aae4b5fe3984ed8c0affcdc5839ac5cc98b6f1160a64c4448b5c6fef68d029",
        "edit(identity(venue))": "88f5a96b1dcdd42ec97620a76a9565e08ee3609a5b44ddf8c4c1e61900ceceee",
        "smith_waterman(identity(venue))": "76d0f06a7eb5f352caf79aec0ea78089c3c6cc9d4af905c34e25a4fadfa9b155",
        "jaro(identity(venue))": "ffa52022df18a93475ed17a8a2795900397630487230e45a51229e360ea4d670",
        "jaccard(2grams(venue))": "c3d477d3c47bc82a24a91281204d38eb05587fb7ddfc0c372b62d89ffdc69f96",
        "jaccard(3grams(venue))": "c0f3a59e7aea3e2617435467428ad52b64fbb57aa938f89d896c31718c686764",
        "jaccard(space(venue))": "d02973eaecded42049ed45e76d834afd3d111a95f68678793d7e6706a614e83d",
        "cosine(2grams(venue))": "1b73abc265438a7a1b23cdcc765f5bee71c9c503a99a3adf678a5153c5b02c48",
        "cosine(3grams(venue))": "1acc85d1cf33b4f6ef022c2177478d31c2502ef4fcbbd66918f181165aaaa286",
        "cosine(space(venue))": "0e001758a3ebe3a605cff6253ecec0f421e291307bb46c4fb9b54d8e9eefac75",
        "overlap(2grams(venue))": "4a1b5c5b32eda0138b44538f14b341523631ebb80ea1ccb9076a9168a3c97230",
        "overlap(3grams(venue))": "c77d526fb58b880b2f13346fd84bdf7264b7ef782ea9ec5e7aae26de554f5dcf",
        "overlap(space(venue))": "644c443bde2dca4be5bf259642ad20cbf2e9fa931e57a259c4b1858b35892224",
        "diff(identity(year))": "320c5a6e681e773b764b27c6cc67bf93fd466c0293a5307e91478aa76e9fe678",
    },
}


def test_score_columns_are_pinned_to_the_identity_version():
    cache = SimilarityCache(pairs_to_table(generate_citation_pairs(300, seed=11)))
    digests = {}
    for logical, _, _ in ER_ATTRIBUTE_PAIRS:
        if logical == "year":
            combos = [("diff", "identity")]
        else:
            combos = [(name, "identity") for name in ("edit", "smith_waterman", "jaro")]
            combos += [
                (name, transform)
                for name in ("jaccard", "cosine", "overlap")
                for transform in DEFAULT_TRANSFORM_NAMES
            ]
        for name, transform in combos:
            scores = cache.scores(_spec(logical, transform, name, 0.5))
            digests[f"{name}({transform}({logical}))"] = hashlib.sha256(
                scores.tobytes()
            ).hexdigest()
    assert digests == PINNED_SCORE_DIGESTS[_PREDICATE_IDENTITY_VERSION]


class TestBooleanFormula:
    def test_empty_disjunction_matches_nothing(self, cache, citation_table):
        assert BooleanFormula.disjunction().evaluate(cache).sum() == 0

    def test_empty_conjunction_matches_everything(self, cache, citation_table):
        assert BooleanFormula.conjunction_of().evaluate(cache).sum() == len(citation_table)

    def test_disjunction_grows_coverage(self, cache, title_spec):
        authors_spec = SimilarityPredicateSpec(
            attribute="authors", left_column="authors_l", right_column="authors_r",
            transform="space", similarity="jaccard", threshold=0.6,
        )
        one = BooleanFormula.disjunction([title_spec])
        two = one.with_predicate(authors_spec)
        assert two.evaluate(cache).sum() >= one.evaluate(cache).sum()
        assert len(two) == 2

    def test_conjunction_shrinks_coverage(self, cache, title_spec):
        authors_spec = SimilarityPredicateSpec(
            attribute="authors", left_column="authors_l", right_column="authors_r",
            transform="space", similarity="jaccard", threshold=0.3,
        )
        one = BooleanFormula.conjunction_of([title_spec])
        two = one.with_predicate(authors_spec)
        assert two.evaluate(cache).sum() <= one.evaluate(cache).sum()

    def test_describe(self, title_spec):
        formula = BooleanFormula.disjunction([title_spec])
        assert "jaccard(2grams(title)) > 0.60" in formula.describe()
        assert BooleanFormula.disjunction().describe() == "FALSE"
        assert BooleanFormula.conjunction_of().describe() == "TRUE"

    def test_predicate_view(self, cache, title_spec, citation_table):
        formula = BooleanFormula.disjunction([title_spec])
        predicate = formula.predicate(cache)
        assert predicate.evaluate(citation_table).sum() == formula.evaluate(cache).sum()

    def test_is_empty(self, title_spec):
        assert BooleanFormula.disjunction().is_empty
        assert not BooleanFormula.disjunction([title_spec]).is_empty


class TestEnumerateThresholds:
    def test_descending_by_default(self):
        values = enumerate_thresholds(0.2, 0.8, 4)
        assert values == sorted(values, reverse=True)
        assert values[0] == 0.8 and values[-1] == 0.2

    def test_ascending(self):
        values = enumerate_thresholds(0.2, 0.8, 3, descending=False)
        assert values == sorted(values)

    def test_single_threshold_is_midpoint(self):
        assert enumerate_thresholds(0.2, 0.8, 1) == [0.5]

    def test_validation(self):
        with pytest.raises(ApexError):
            enumerate_thresholds(0.9, 0.2, 3)
        with pytest.raises(ApexError):
            enumerate_thresholds(0.1, 0.9, 0)
