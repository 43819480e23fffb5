"""Multi-shard evaluation matches the single-shard reference semantics.

A table grown by appends holds several row shards.  Predicate masks,
workload membership and domain analysis over it are required to be
bit-identical to the row-at-a-time / cell-at-a-time reference
implementations in :mod:`repro.queries.reference` on the equivalent flat
table, including SQL NULL handling and inclusive/exclusive interval bounds,
whatever the shard layout.
"""

import numpy as np
import pytest

from repro.data.schema import (
    Attribute,
    CategoricalDomain,
    NumericDomain,
    Schema,
)
from repro.data.table import Table
from repro.queries.predicates import (
    And,
    Between,
    Comparison,
    In,
    IsNull,
    Not,
    Or,
)
from repro.queries.reference import reference_domain_matrix, reference_mask
from repro.queries.workload import Workload, WorkloadMatrix


def parity_schema() -> Schema:
    return Schema(
        [
            Attribute("state", CategoricalDomain(("CA", "NY", "TX", "WA")), nullable=True),
            Attribute("kind", CategoricalDomain(("gold", "silver")), nullable=True),
            Attribute("score", NumericDomain(0, 100), nullable=True),
        ],
        name="ShardParity",
    )


def random_rows(rng: np.random.Generator, n: int) -> list[dict]:
    states = ("CA", "NY", "TX", "WA")
    kinds = ("gold", "silver")
    rows = []
    for _ in range(n):
        rows.append(
            {
                "state": None if rng.random() < 0.15 else states[rng.integers(4)],
                "kind": None if rng.random() < 0.1 else kinds[rng.integers(2)],
                "score": None if rng.random() < 0.2 else float(rng.integers(0, 101)),
            }
        )
    return rows


def sharded_and_flat(rng: np.random.Generator, shard_sizes=(40, 25, 35)):
    """One table appended chunk by chunk plus its single-shard equivalent."""
    schema = parity_schema()
    chunks = [random_rows(rng, n) for n in shard_sizes]
    table = Table.from_rows(schema, chunks[0])
    for chunk in chunks[1:]:
        table.append_rows(chunk)
    flat = Table.from_rows(schema, [row for chunk in chunks for row in chunk])
    return table, flat


#: Shard layouts the parity tests run over; every append keeps its own
#: shard.
SHARD_LAYOUTS = {
    "one-shard": (100,),
    "three-shards": (40, 25, 35),
    "one-row-appends": (40,) + (1,) * 60,
}


@pytest.fixture(params=list(SHARD_LAYOUTS))
def layout(request) -> tuple[int, ...]:
    return SHARD_LAYOUTS[request.param]


EDGE_PREDICATES = [
    Comparison("state", "==", "CA"),
    Comparison("state", "!=", "CA"),
    In("state", ["NY", "TX"]),
    IsNull("score"),
    IsNull("score", negated=True),
    Between("score", 10.0, 50.0, low_inclusive=True, high_inclusive=True),
    Between("score", 10.0, 50.0, low_inclusive=False, high_inclusive=False),
    Comparison("score", ">=", 50.0),
    Comparison("score", ">", 50.0),
    Comparison("score", "==", 50.0),
    And([Comparison("kind", "==", "gold"), Between("score", 0.0, 25.0)]),
    Or([IsNull("state"), Comparison("score", "<", 5.0)]),
    Not(Or([Comparison("state", "==", "TX"), IsNull("kind")])),
]


def reference_membership(workload: Workload, flat: Table) -> np.ndarray:
    return np.column_stack([reference_mask(p, flat) for p in workload.predicates])


class TestShardMaskParity:
    def test_edge_predicates_bit_identical(self, layout):
        rng = np.random.default_rng(42)
        table, flat = sharded_and_flat(rng, layout)
        assert table.n_shards == len(layout)
        for predicate in EDGE_PREDICATES:
            expected = reference_mask(predicate, flat)
            actual = predicate.evaluate(table)
            assert np.array_equal(expected, actual), predicate.describe()

    def test_workload_evaluate_matches_flat_membership(self, layout):
        rng = np.random.default_rng(7)
        table, flat = sharded_and_flat(rng, layout)
        assert table.n_shards == len(layout)
        workload = Workload(EDGE_PREDICATES)
        expected = reference_membership(workload, flat)
        assert np.array_equal(workload.evaluate(table), expected)
        assert np.array_equal(
            workload.true_answers(table), expected.sum(axis=0).astype(float)
        )

    def test_evaluation_after_append_includes_new_rows(self):
        rng = np.random.default_rng(9)
        table, flat = sharded_and_flat(rng)
        workload = Workload(EDGE_PREDICATES)
        workload.evaluate(table)  # warm the masks of the old version
        extra = random_rows(rng, 30)
        table.append_rows(extra)
        grown_flat = Table.from_rows(parity_schema(), flat.to_rows() + extra)
        assert np.array_equal(
            workload.evaluate(table), reference_membership(workload, grown_flat)
        )
        for predicate in EDGE_PREDICATES:
            assert np.array_equal(
                predicate.evaluate(table), reference_mask(predicate, grown_flat)
            ), predicate.describe()

    def test_function_predicates_see_every_shard_at_once(self):
        """An opaque callable may compute cross-row state (here: a mean), so
        it must be evaluated over all rows of a multi-shard table at once."""
        from repro.queries.predicates import FunctionPredicate

        rng = np.random.default_rng(13)
        table, flat = sharded_and_flat(rng)
        assert table.n_shards > 1

        def above_global_mean(t):
            scores = t.numeric_values("score")
            return scores > np.nanmean(scores)

        predicate = FunctionPredicate(
            "score > mean(score)", above_global_mean, attributes=("score",)
        )
        expected = predicate.evaluate(flat)
        in_workload = Workload(
            [predicate, Comparison("state", "==", "CA")]
        ).evaluate(table)
        assert np.array_equal(predicate.evaluate(table), expected)
        assert np.array_equal(in_workload[:, 0], expected)

    def test_straddling_mutation_cannot_reach_a_pinned_evaluation(self):
        """A mutation landing during a mask evaluation is invisible to it:
        evaluation pins the table's snapshot up front, computes entirely
        over the pinned shards, and caches unconditionally under the pinned
        token -- a snapshot-scoped evaluation is never discarded."""
        from repro.core.exceptions import SnapshotError
        from repro.queries.predicates import FunctionPredicate

        rng = np.random.default_rng(17)
        table, _ = sharded_and_flat(rng)
        n_before = len(table)
        appended = []

        def append_mid_evaluation(t):
            assert t.is_snapshot  # evaluation always sees the pinned view
            with pytest.raises(SnapshotError):
                t.append_rows(random_rows(rng, 10))  # snapshots are immutable
            if not appended:  # mutate the *live* table mid-evaluation
                appended.append(table.append_rows(random_rows(rng, 10)))
            return np.ones(len(t), dtype=bool)

        predicate = FunctionPredicate("straddler", append_mid_evaluation)
        v0 = table.version_token
        snapshot = table.snapshot()
        mask = predicate.evaluate(table)
        # The mask describes exactly the pinned (pre-append) version...
        assert len(mask) == n_before
        assert table.version_token != v0
        assert len(table) == n_before + 10
        # ...and it IS cached under the pinned token (admission is
        # unconditional for snapshot-scoped evaluations), while the new
        # version cannot serve it.
        assert snapshot.version_token == v0
        assert snapshot.cached_mask(predicate) is mask
        assert table.cached_mask(predicate) is None
        # A fresh evaluation pins the grown version and caches under it.
        again = predicate.evaluate(table)
        assert len(again) == n_before + 10
        assert table.cached_mask(predicate) is again


def assert_analysis_matches_reference(workload: Workload, schema: Schema) -> None:
    expected_matrix, expected_partitions = reference_domain_matrix(workload, schema)
    analysis = WorkloadMatrix.from_domain_analysis(workload, schema)
    assert np.array_equal(analysis.matrix, expected_matrix)
    assert [(p.signature, p.description) for p in analysis.partitions] == [
        (p.signature, p.description) for p in expected_partitions
    ]


class TestDomainAnalysisParity:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_workloads_bit_identical(self, seed):
        from tests.queries.test_vectorized_parity import (
            parity_schema as reference_schema,
            random_predicate,
        )

        rng = np.random.default_rng(500 + seed)
        workload = Workload(
            [random_predicate(rng) for _ in range(int(rng.integers(3, 9)))]
        )
        assert_analysis_matches_reference(workload, reference_schema())

    @pytest.mark.parametrize("seed", range(4))
    def test_forced_multi_chunk_parity(self, monkeypatch, seed):
        """Tiny chunks: keeping each signature's first-seen cell across the
        ascending chunks must reproduce the reference's first-occurrence
        descriptions exactly."""
        import repro.queries.workload as workload_module

        from tests.queries.test_vectorized_parity import (
            parity_schema as reference_schema,
            random_predicate,
        )

        monkeypatch.setattr(workload_module, "_CELL_BUDGET", 1)
        monkeypatch.setattr(workload_module, "_MIN_CHUNK_CELLS", 5)
        rng = np.random.default_rng(321 + seed)
        workload = Workload([random_predicate(rng) for _ in range(8)])
        assert_analysis_matches_reference(workload, reference_schema())
