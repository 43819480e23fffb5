"""One structural workload matrix per ``(L, sensitivity)``.

A structural matrix is the ``L x L`` identity with a declared sensitivity,
so its value is fixed by ``(L, sensitivity)``: the matrix memo keys it by
``("structural", L, sensitivity)`` and every workload of that size and
effective sensitivity gets the same object, whatever its predicates, names
or schema.  The entity-resolution screening queries (one opaque similarity
predicate and a label test, declared sensitivity 1) then stop building a
matrix per query.

A shared matrix cannot count rows for any one workload, so it counts none:
``partition_histogram`` raises, and every release over it reads the query's
own counts from ``Workload.true_answers``.  Pinned here against
:mod:`repro.queries.reference`, query by query on one snapshot, so a release
that counted through the shared matrix (and so answered one query with
another's counts) fails.
"""

import numpy as np
import pytest

from repro.core.accuracy import AccuracySpec
from repro.core.engine import APExEngine
from repro.core.exceptions import QueryError
from repro.er.predicates import SimilarityCache, SimilarityPredicateSpec
from repro.mechanisms.laplace import LaplaceMechanism
from repro.mechanisms.multi_poking import MultiPokingMechanism
from repro.mechanisms.reference import multi_poking_release
from repro.mechanisms.registry import MechanismRegistry
from repro.mechanisms.strategy_mechanism import StrategyMechanism
from repro.queries.predicates import And, Comparison, Not
from repro.queries.query import IcebergCountingQuery, QueryKind, WorkloadCountingQuery
from repro.queries.reference import reference_mask
from repro.queries.workload import Workload, clear_matrix_cache, matrix_cache_stats

#: Loose enough that the Laplace noise stays far below the gap between the
#: two screens' counts, tight enough that swapped counts break the bound.
ACCURACY = AccuracySpec(alpha=20.0, beta=1e-3)


@pytest.fixture(autouse=True)
def cold_matrix_memo():
    clear_matrix_cache()
    yield
    clear_matrix_cache()


def _spec(attribute: str, threshold: float) -> SimilarityPredicateSpec:
    return SimilarityPredicateSpec(
        attribute=attribute,
        left_column=f"{attribute}_l",
        right_column=f"{attribute}_r",
        transform="2grams",
        similarity="jaccard",
        threshold=threshold,
    )


def screens(table) -> tuple[Workload, Workload]:
    """Two ER-shaped single-predicate workloads: other predicates, other names."""
    cache = SimilarityCache(table)
    matches = And(
        [cache.predicate(_spec("title", 0.6)), Comparison("label", "==", "MATCH")]
    )
    non_matches = And(
        [Not(cache.predicate(_spec("authors", 0.4))), Comparison("label", "==", "NON-MATCH")]
    )
    return Workload([matches], ["title-matches"]), Workload([non_matches], ["authors-misses"])


def reference_counts(workload: Workload, table) -> np.ndarray:
    return np.array(
        [reference_mask(p, table).sum() for p in workload.predicates], dtype=float
    )


class TestOneMatrixPerValue:
    def test_screens_with_other_predicates_and_names_share_one_matrix(self, citation_table):
        first, second = screens(citation_table)
        queries = [
            WorkloadCountingQuery(first, sensitivity=1.0),
            IcebergCountingQuery(second, threshold=5.0, sensitivity=1.0),
            WorkloadCountingQuery(Workload(second.predicates, ["renamed"]), sensitivity=1.0),
        ]
        matrices = [query.workload_matrix(citation_table.schema) for query in queries]
        # No schema, or a disjointness hint, gives the same value as well.
        matrices.append(queries[0].workload_matrix(None))
        matrices.append(WorkloadCountingQuery(first, disjoint=True).workload_matrix(None))
        assert all(matrix is matrices[0] for matrix in matrices)
        assert matrix_cache_stats()["built"] <= 1
        assert not matrices[0].exact and matrices[0].sensitivity == 1.0
        assert matrices[0].cache_token == ("structural", 1, 1.0)

    def test_other_size_or_sensitivity_is_another_matrix(self, citation_table):
        first, second = screens(citation_table)
        two = Workload(first.predicates + second.predicates)
        one = first.analyze(citation_table.schema, sensitivity=1.0)
        assert two.analyze(citation_table.schema, sensitivity=1.0) is not one
        assert first.analyze(citation_table.schema, sensitivity=2.0) is not one
        # No schema: the conservative sensitivity L, the same value as declaring it.
        assert two.analyze(None) is two.analyze(citation_table.schema, sensitivity=2.0)
        assert matrix_cache_stats()["built"] == 4

    def test_shared_matrix_counts_no_rows(self, citation_table):
        first, _ = screens(citation_table)
        matrix = first.analyze(citation_table.schema, sensitivity=1.0)
        with pytest.raises(QueryError, match="counts no rows"):
            matrix.partition_histogram(citation_table)
        with pytest.raises(QueryError, match="counts no rows"):
            matrix.true_answers(citation_table)


class TestReleasesCountTheirOwnWorkload:
    @pytest.mark.parametrize(
        "mechanism",
        [
            LaplaceMechanism(name="WCQ-LM", kinds=frozenset({QueryKind.WCQ})),
            StrategyMechanism(mc_samples=500, name="WCQ-SM"),
        ],
        ids=["WCQ-LM", "WCQ-SM"],
    )
    def test_wcq_answers_each_screen_within_alpha(self, citation_table, mechanism):
        snapshot = citation_table.snapshot()
        expected = [reference_counts(w, snapshot) for w in screens(citation_table)]
        # The screens' counts are far apart, so one answered with the
        # other's counts misses its own by far more than alpha.
        assert abs(expected[0][0] - expected[1][0]) > 10 * ACCURACY.alpha
        for seed in range(5):
            for workload, truth in zip(screens(citation_table), expected):
                query = WorkloadCountingQuery(workload, sensitivity=1.0)
                translation = mechanism.translate(query, ACCURACY, snapshot.schema)
                result = mechanism.release(
                    query, ACCURACY, translation, snapshot, np.random.default_rng(seed)
                )
                assert np.abs(result.noisy_counts - truth).max() <= ACCURACY.alpha
        assert matrix_cache_stats()["built"] <= 1

    def test_icq_mpm_matches_the_float_loop_oracle_bit_for_bit(self, citation_table):
        snapshot = citation_table.snapshot()
        mechanism = MultiPokingMechanism()
        accuracy = AccuracySpec(alpha=0.02 * len(snapshot), beta=0.05)
        for workload in screens(citation_table):
            count = float(reference_counts(workload, snapshot)[0])
            for threshold in (0.0, count, count + 3.0):
                query = IcebergCountingQuery(workload, threshold=threshold, sensitivity=1.0)
                translation = mechanism.translate(query, accuracy, snapshot.schema)
                for seed in range(6):
                    rng, oracle_rng = (np.random.default_rng(seed) for _ in range(2))
                    result = mechanism.release(query, accuracy, translation, snapshot, rng)
                    expected = multi_poking_release(
                        mechanism, query, accuracy, translation, snapshot, oracle_rng
                    )
                    assert result.value == expected.value
                    assert result.epsilon_spent == expected.epsilon_spent
                    noisy = result.metadata["internal_noisy_differences"]
                    reference = expected.metadata["internal_noisy_differences"]
                    assert noisy.tobytes() == reference.tobytes()
                    assert rng.bit_generator.state == oracle_rng.bit_generator.state
        assert matrix_cache_stats()["built"] <= 1

    def test_engine_screens_share_the_matrix_and_answer_for_themselves(self, citation_table):
        registry = MechanismRegistry(
            [LaplaceMechanism(name="WCQ-LM", kinds=frozenset({QueryKind.WCQ}))]
        )
        engine = APExEngine(citation_table, budget=1e6, registry=registry, seed=3)
        for workload in screens(citation_table) * 2:
            query = WorkloadCountingQuery(workload, sensitivity=1.0)
            engine.preview_cost(query, ACCURACY)
            result = engine.explore(query, ACCURACY)
            truth = reference_counts(workload, citation_table)
            assert np.abs(np.asarray(result.answer) - truth).max() <= ACCURACY.alpha
            np.testing.assert_array_equal(query.true_counts(citation_table), truth)
        assert matrix_cache_stats()["built"] == 1
