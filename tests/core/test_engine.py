"""Tests for the APEx engine (Algorithm 1)."""

import numpy as np
import pytest

from repro.core.accuracy import AccuracySpec
from repro.core.engine import APExEngine
from repro.core.exceptions import ApexError
from repro.core.translator import SelectionMode
from repro.mechanisms.registry import default_registry
from repro.queries.builders import histogram_workload, point_workload
from repro.queries.query import (
    IcebergCountingQuery,
    TopKCountingQuery,
    WorkloadCountingQuery,
)


@pytest.fixture()
def engine(adult_small) -> APExEngine:
    return APExEngine(
        adult_small, budget=2.0, seed=0, registry=default_registry(mc_samples=500)
    )


@pytest.fixture()
def wcq() -> WorkloadCountingQuery:
    return WorkloadCountingQuery(
        histogram_workload("capital_gain", start=0, stop=5000, bins=10), name="wcq"
    )


class TestConstruction:
    def test_requires_table(self):
        with pytest.raises(ApexError):
            APExEngine("not a table", budget=1.0)  # type: ignore[arg-type]

    def test_mode_from_string(self, adult_small):
        engine = APExEngine(adult_small, budget=1.0, mode="pessimistic")
        assert engine.mode is SelectionMode.PESSIMISTIC

    def test_budget_accessors(self, engine):
        assert engine.budget == 2.0
        assert engine.budget_spent == 0.0
        assert engine.budget_remaining == 2.0
        assert not engine.exhausted


class TestExplore:
    def test_wcq_answer_shape_and_accounting(self, engine, adult_small, wcq):
        accuracy = AccuracySpec(alpha=0.05 * len(adult_small))
        result = engine.explore(wcq, accuracy)
        assert not result.denied
        assert isinstance(result.answer, np.ndarray)
        assert result.epsilon_spent > 0
        assert engine.budget_spent == pytest.approx(result.epsilon_spent)
        assert result.budget_remaining == pytest.approx(2.0 - result.epsilon_spent)

    def test_icq_and_tcq_answers_are_bin_lists(self, engine, adult_small):
        accuracy = AccuracySpec(alpha=0.05 * len(adult_small))
        icq = IcebergCountingQuery(
            histogram_workload("capital_gain", start=0, stop=5000, bins=10),
            threshold=0.1 * len(adult_small),
        )
        tcq = TopKCountingQuery(point_workload("sex", ["M", "F"]), k=1)
        assert isinstance(engine.explore(icq, accuracy).answer, list)
        assert isinstance(engine.explore(tcq, accuracy).answer, list)

    def test_denial_when_budget_too_small(self, adult_small, wcq):
        engine = APExEngine(adult_small, budget=1e-6, seed=0)
        accuracy = AccuracySpec(alpha=0.05 * len(adult_small))
        result = engine.explore(wcq, accuracy)
        assert result.denied
        assert result.answer is None
        assert engine.budget_spent == 0.0
        assert not result  # falsy when denied

    def test_sequence_respects_budget(self, adult_small, wcq):
        accuracy = AccuracySpec(alpha=0.05 * len(adult_small))
        engine = APExEngine(adult_small, budget=0.1, seed=0)
        answered, denied = 0, 0
        for _ in range(50):
            result = engine.explore(wcq, accuracy)
            if result.denied:
                denied += 1
            else:
                answered += 1
        assert answered >= 1 and denied >= 1
        assert engine.budget_spent <= engine.budget + 1e-9
        assert engine.transcript().is_valid(engine.budget)

    def test_metadata_contains_candidates(self, engine, adult_small, wcq):
        accuracy = AccuracySpec(alpha=0.05 * len(adult_small))
        result = engine.explore(wcq, accuracy)
        assert "WCQ-LM" in result.metadata["candidates"]
        assert "WCQ-SM" in result.metadata["candidates"]

    def test_reproducible_with_seed(self, adult_small, wcq):
        accuracy = AccuracySpec(alpha=0.05 * len(adult_small))
        a = APExEngine(adult_small, budget=1.0, seed=7).explore(wcq, accuracy)
        b = APExEngine(adult_small, budget=1.0, seed=7).explore(wcq, accuracy)
        assert np.allclose(a.answer, b.answer)

    def test_charges_actual_loss_for_data_dependent_mechanism(self, adult_small):
        engine = APExEngine(adult_small, budget=2.0, seed=0)
        accuracy = AccuracySpec(alpha=0.05 * len(adult_small))
        icq = IcebergCountingQuery(
            histogram_workload("capital_gain", start=0, stop=5000, bins=10),
            threshold=2.0 * len(adult_small),  # far from all counts: MPM stops early
        )
        result = engine.explore(icq, accuracy)
        assert result.mechanism == "ICQ-MPM"
        assert result.epsilon_spent < result.epsilon_upper
        assert engine.budget_spent == pytest.approx(result.epsilon_spent)


class TestExploreText:
    def test_text_query_with_inline_accuracy(self, engine, adult_small):
        result = engine.explore_text(
            "BIN D ON COUNT(*) WHERE W = {capital_gain BETWEEN 0 AND 1000} "
            f"ERROR {0.05 * len(adult_small)} CONFIDENCE 0.9995;"
        )
        assert not result.denied
        assert len(result.answer) == 1

    def test_text_query_with_explicit_accuracy(self, engine, adult_small):
        result = engine.explore_text(
            "BIN D ON COUNT(*) WHERE W = {sex = 'M', sex = 'F'};",
            AccuracySpec(alpha=0.05 * len(adult_small)),
        )
        assert not result.denied

    def test_text_query_without_accuracy_rejected(self, engine):
        with pytest.raises(ApexError):
            engine.explore_text("BIN D ON COUNT(*) WHERE W = {sex = 'M'};")


class TestPreviewCost:
    def test_preview_costs_nothing(self, engine, adult_small, wcq):
        accuracy = AccuracySpec(alpha=0.05 * len(adult_small))
        costs = engine.preview_cost(wcq, accuracy)
        assert set(costs) == {"WCQ-LM", "WCQ-SM"}
        assert engine.budget_spent == 0.0

    def test_preview_bounds_ordered(self, engine, adult_small, wcq):
        accuracy = AccuracySpec(alpha=0.05 * len(adult_small))
        for lower, upper in engine.preview_cost(wcq, accuracy).values():
            assert lower <= upper


class TestTranscript:
    def test_transcript_records_everything(self, adult_small, wcq):
        engine = APExEngine(adult_small, budget=0.05, seed=0)
        accuracy = AccuracySpec(alpha=0.05 * len(adult_small))
        for _ in range(5):
            engine.explore(wcq, accuracy)
        transcript = engine.transcript()
        assert len(transcript) == 5
        assert transcript.is_valid(engine.budget)
        assert transcript.total_epsilon() == pytest.approx(engine.budget_spent)
