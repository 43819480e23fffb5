"""ICQ-MPM's float poke loop against its numpy oracle, bit for bit.

:meth:`MultiPokingMechanism.release` runs the pokes on Python floats;
:func:`repro.mechanisms.reference.multi_poking_release` is the array loop it
replaced.  From the same generator state both must select the same bins,
spend the same epsilon after the same number of pokes, hold byte-identical
noisy differences, and leave the generator in the same state (the engine's
generator is shared by later requests, so one extra or reordered draw would
change every later answer).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.accuracy import AccuracySpec
from repro.mechanisms.multi_poking import MultiPokingMechanism
from repro.mechanisms.noise import relax_floats, relax_laplace_noise
from repro.mechanisms.reference import multi_poking_release
from repro.queries.builders import histogram_workload
from repro.queries.predicates import FunctionPredicate
from repro.queries.query import IcebergCountingQuery
from repro.queries.workload import Workload

WORKLOAD_SIZES = (1, 2, 8, 47, 300)
POKE_COUNTS = (1, 2, 10)
THRESHOLDS = ("zero", "true-count", "mean", "far-above")


def _workload(size: int) -> Workload:
    return histogram_workload("age", start=0, stop=100, bins=size)


def _threshold(kind: str, counts: np.ndarray) -> float:
    if kind == "zero":
        return 0.0
    if kind == "true-count":
        return float(counts[len(counts) // 2])
    if kind == "mean":
        return float(counts.mean())
    return float(counts.max()) * 10.0 + 1000.0


def _assert_parity(mechanism, query, accuracy, table, seed: int) -> None:
    snapshot = table.snapshot()
    translation = mechanism.translate(query, accuracy, snapshot.schema)
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    result = mechanism.release(query, accuracy, translation, snapshot, rng)
    expected = multi_poking_release(
        mechanism, query, accuracy, translation, snapshot, oracle_rng
    )
    assert result.value == expected.value
    assert result.epsilon_spent == expected.epsilon_spent
    assert result.metadata["pokes_used"] == expected.metadata["pokes_used"]
    noisy = result.metadata["internal_noisy_differences"]
    reference = expected.metadata["internal_noisy_differences"]
    assert noisy.dtype == reference.dtype == np.float64
    assert noisy.tobytes() == reference.tobytes()
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


@pytest.mark.parametrize("threshold", THRESHOLDS)
@pytest.mark.parametrize("n_pokes", POKE_COUNTS)
@pytest.mark.parametrize("size", WORKLOAD_SIZES)
def test_seeded_grid_matches_numpy_loop(adult_small, size, n_pokes, threshold):
    workload = _workload(size)
    counts = workload.evaluate(adult_small).sum(axis=0)
    query = IcebergCountingQuery(workload, threshold=_threshold(threshold, counts))
    mechanism = MultiPokingMechanism(n_pokes=n_pokes)
    accuracy = AccuracySpec(alpha=0.02 * len(adult_small), beta=0.05)
    for seed in range(8):
        _assert_parity(mechanism, query, accuracy, adult_small, seed)


def test_function_predicate_bin_matches_numpy_loop(adult_small):
    """The entity-resolution shape: one opaque predicate, threshold at its count."""
    predicate = FunctionPredicate(
        "age-over-40", lambda table: table.numeric_values("age") > 40, ["age"]
    )
    count = float(predicate.evaluate(adult_small).sum())
    query = IcebergCountingQuery(Workload([predicate]), threshold=count)
    accuracy = AccuracySpec(alpha=0.01 * len(adult_small), beta=0.05)
    for seed in range(20):
        _assert_parity(MultiPokingMechanism(), query, accuracy, adult_small, seed)


@settings(max_examples=40, deadline=None)
@given(
    size=st.sampled_from(WORKLOAD_SIZES),
    n_pokes=st.integers(1, 12),
    threshold_fraction=st.floats(0.0, 1.5),
    alpha_fraction=st.floats(0.002, 0.2),
    beta=st.floats(0.001, 0.3),
    seed=st.integers(0, 2**32 - 1),
)
def test_random_cases_match_numpy_loop(
    adult_small, size, n_pokes, threshold_fraction, alpha_fraction, beta, seed
):
    workload = _workload(size)
    counts = workload.evaluate(adult_small).sum(axis=0)
    query = IcebergCountingQuery(
        workload, threshold=threshold_fraction * float(counts.max())
    )
    accuracy = AccuracySpec(alpha=alpha_fraction * len(adult_small), beta=beta)
    _assert_parity(MultiPokingMechanism(n_pokes=n_pokes), query, accuracy, adult_small, seed)


class TestRelaxWrapper:
    """``relax_laplace_noise`` is a thin array/scalar wrapper over ``relax_floats``."""

    @pytest.mark.parametrize("size", WORKLOAD_SIZES)
    def test_array_matches_float_core(self, size):
        values = np.random.default_rng(size).laplace(scale=4.0, size=size)
        rng, core_rng = np.random.default_rng(1), np.random.default_rng(1)
        refined = relax_laplace_noise(values, 4.0, 1.5, rng)
        expected = relax_floats(values.tolist(), 4.0, 1.5, core_rng)
        assert isinstance(refined, np.ndarray)
        assert refined.tobytes() == np.array(expected).tobytes()
        assert rng.bit_generator.state == core_rng.bit_generator.state

    @pytest.mark.parametrize("value", [0.0, -3.25, 0.5, 40.0])
    def test_scalar_matches_float_core(self, value):
        rng, core_rng = np.random.default_rng(2), np.random.default_rng(2)
        refined = relax_laplace_noise(value, 2.0, 0.5, rng)
        assert isinstance(refined, float)
        assert refined == relax_floats([value], 2.0, 0.5, core_rng)[0]
        assert rng.bit_generator.state == core_rng.bit_generator.state

    def test_equal_scales_copy_without_drawing(self):
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        values = [1.0, -2.0]
        refined = relax_floats(values, 1.0, 1.0, rng)
        assert refined == values and refined is not values
        assert rng.bit_generator.state == before
