"""Pinned answers of every registry mechanism, on every release path.

A mechanism answers through ``release`` on an admitted translation; its
``run`` (pin, translate, release) and ``APExEngine.explore`` both
reach that one method.  Each answer ``(value, noisy_counts, epsilon_spent,
epsilon_upper)`` is digested and compared with the digest recorded for the
same seed, so a refactor of the mechanism layer that changes a single
noise draw, a noise scale or an epsilon fails here.  The digests round
counts to 1e-6 and epsilons to 1e-12 so they do not depend on the last bit
of a BLAS product; within one process the paths are also compared exactly.
"""

import hashlib

import numpy as np
import pytest

from repro.core.accuracy import AccuracySpec
from repro.core.engine import APExEngine, ExplorationResult
from repro.core.translator import AccuracyTranslator
from repro.mechanisms.registry import MechanismRegistry, default_registry
from repro.mechanisms.strategy_mechanism import reset_search_stats, search_stats
from repro.queries.builders import histogram_workload, point_workload, prefix_workload
from repro.queries.query import (
    IcebergCountingQuery,
    QueryKind,
    TopKCountingQuery,
    WorkloadCountingQuery,
)
from repro.queries.workload import clear_matrix_cache
from repro.store import ArtifactStore

MC_SAMPLES = 500
SEED = 2024

#: Digests of each mechanism's answer with ``default_rng(SEED)`` noise.
PINNED = {
    "WCQ-LM": "b0aef82a0fb022b2f3ecdb9d6ebf0807c9dc31dd51e75134c41a92823a744227",
    "WCQ-SM": "9756a75042d04b0512f84b694405d692bfdcd60621e8e303f014550ec66629f9",
    "ICQ-LM": "ea757209badedb736947350c53f3bdaa47db49a81b598143f58d586a42a7a01f",
    "ICQ-SM": "97f627272548ce13ef2d7242c42ed276cd01f30aa9ca9113d00a20f855297f80",
    "ICQ-MPM": "9a5a98b30752f16eac365e9c57274d9a5beb8cafb9248608ac6ca9d0319fd04e",
    "TCQ-LM": "0623596031ca33ffd4d831165ed18595c926da0173e2572be9b54cbf461377b2",
    "TCQ-LTM": "9a5d3b9773ac01bce658d4549175cdd4dcabaad7cf0ffd2b9374c1b3e6e79cec",
}


def query_for(kind: QueryKind, n_rows: int):
    if kind is QueryKind.WCQ:
        return WorkloadCountingQuery(
            prefix_workload("capital_gain", [250.0 * i for i in range(1, 21)]),
            name="prefix-20",
        )
    if kind is QueryKind.ICQ:
        return IcebergCountingQuery(
            histogram_workload("capital_gain", start=0, stop=5000, bins=20),
            threshold=0.1 * n_rows,
            name="iceberg-20",
        )
    return TopKCountingQuery(
        point_workload("age", [float(a) for a in range(17, 91)]), k=5, name="age-top5"
    )


def case(name: str, n_rows: int):
    """The mechanism named ``name`` from a fresh registry, and its query."""
    mechanism = default_registry(mc_samples=MC_SAMPLES).get(name)
    (kind,) = mechanism.supported_kinds
    return mechanism, query_for(kind, n_rows), AccuracySpec(alpha=0.08 * n_rows, beta=5e-4)


def answer(result) -> tuple:
    """``(value, noisy_counts, epsilon_spent, epsilon_upper)`` of a mechanism
    or exploration result."""
    value = result.answer if isinstance(result, ExplorationResult) else result.value
    return value, result.noisy_counts, result.epsilon_spent, result.epsilon_upper


def digest(result) -> str:
    value, noisy_counts, epsilon_spent, epsilon_upper = answer(result)
    if isinstance(value, np.ndarray):
        value = np.round(value, 6).tolist()
    if noisy_counts is not None:
        noisy_counts = np.round(noisy_counts, 6).tolist()
    text = repr((value, noisy_counts, round(epsilon_spent, 12), round(epsilon_upper, 12)))
    return hashlib.sha256(text.encode()).hexdigest()


def assert_same_answer(left, right) -> None:
    """Exact (unrounded) equality of two answers."""
    for mine, theirs in zip(answer(left), answer(right)):
        if isinstance(mine, np.ndarray):
            assert np.array_equal(mine, theirs)
        else:
            assert mine == theirs


@pytest.mark.parametrize("name", sorted(PINNED))
class TestPinnedAnswers:
    def test_run(self, adult_small, name):
        mechanism, query, accuracy = case(name, len(adult_small))
        result = mechanism.run(query, accuracy, adult_small, rng=np.random.default_rng(SEED))
        assert result.mechanism == name
        assert digest(result) == PINNED[name]

    def test_explore(self, adult_small, name):
        mechanism, query, accuracy = case(name, len(adult_small))
        engine = APExEngine(
            adult_small, budget=1e6, registry=MechanismRegistry([mechanism]), seed=SEED
        )
        result = engine.explore(query, accuracy)
        assert result.mechanism == name
        assert digest(result) == PINNED[name]
        assert_same_answer(
            result,
            mechanism.run(query, accuracy, adult_small, rng=np.random.default_rng(SEED)),
        )

    def test_release_on_a_stored_translation(self, adult_small, name, tmp_path):
        """A translation loaded from the store -- no search, no translate in
        this process -- releases the same answer at the admitted epsilon."""
        store = ArtifactStore(str(tmp_path / "store"))
        mechanism, query, accuracy = case(name, len(adult_small))
        snapshot = adult_small.snapshot()
        AccuracyTranslator(MechanismRegistry([mechanism]), store=store).translations(
            query, accuracy, snapshot.schema
        )

        clear_matrix_cache()
        reset_search_stats()
        mechanism, query, accuracy = case(name, len(adult_small))
        translator = AccuracyTranslator(MechanismRegistry([mechanism]), store=store)
        ((_, translation),) = translator.translations(query, accuracy, snapshot.schema)
        assert translator.cache_stats["disk_hits"] == 1
        result = mechanism.release(
            query, accuracy, translation, snapshot, np.random.default_rng(SEED)
        )
        assert search_stats()["searches"] == 0
        assert digest(result) == PINNED[name]
        assert result.epsilon_spent <= result.epsilon_upper == translation.epsilon_upper
        assert_same_answer(
            result,
            mechanism.run(query, accuracy, adult_small, rng=np.random.default_rng(SEED)),
        )
