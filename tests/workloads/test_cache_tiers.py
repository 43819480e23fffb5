"""Predicted cache-tier outcomes over generated streams.

The generator's contract is that its drift knob *predicts* the engine's
memo-hierarchy behaviour: a preserve-mode stream never changes a domain
fingerprint, so after warmup every structurally repeated preview is
answered by the token tier (the matrix is re-tagged, zero rebuilds); a drift-mode
stream changes exactly the scheduled attribute's fingerprint, so queries
referencing that attribute rebuild on exactly the scheduled periods while
everything else keeps revalidating.  These tests assert the engine's
counters against the schedule, not against observed behaviour.
"""

from repro.core.accuracy import AccuracySpec
from repro.core.engine import APExEngine
from repro.mechanisms.registry import default_registry
from repro.mechanisms.strategy_mechanism import reset_search_stats, search_stats
from repro.queries.predicates import Between, Comparison
from repro.queries.query import WorkloadCountingQuery
from repro.queries.workload import Workload, clear_matrix_cache
from repro.workloads import GeneratorConfig, MicrosimulationGenerator
from repro.workloads.population import (
    INCOME_CAP,
    OCCUPATION_CODES,
    REGION_CODES,
)

MC_SAMPLES = 100


def make_query(kind: str) -> WorkloadCountingQuery:
    if kind == "region":
        predicates = [Comparison("region", "==", code) for code in REGION_CODES]
    elif kind == "occupation":
        predicates = [
            Comparison("occupation", "==", code) for code in OCCUPATION_CODES[:12]
        ]
    else:
        step = INCOME_CAP / 5
        predicates = [
            Between("income", i * step, (i + 1) * step) for i in range(5)
        ]
    return WorkloadCountingQuery(Workload(predicates), name=f"{kind}-wcq")


KINDS = ("region", "occupation", "income")


def stream_engine(config: GeneratorConfig):
    clear_matrix_cache()
    reset_search_stats()
    generator = MicrosimulationGenerator(config)
    table = generator.build_table()
    engine = APExEngine(
        table,
        budget=config.budget,
        registry=default_registry(mc_samples=MC_SAMPLES),
        seed=3,
    )
    accuracy = AccuracySpec(alpha=0.2 * config.total_rows(), beta=1e-3)
    return generator, table, engine, accuracy


class TestPreserveStream:
    def test_zero_rebuilds_after_warmup(self):
        config = GeneratorConfig(
            seed=5, initial_rows=600, periods=5, rows_per_period=150
        )
        generator, table, engine, accuracy = stream_engine(config)
        for kind in KINDS:
            engine.preview_cost(make_query(kind), accuracy)
        warm = engine.cache_stats()["translations"]
        assert warm["built"] == len(KINDS)
        searches_after_warmup = search_stats()["searches"]

        periods = 0
        for batch in generator.batches():
            table.append_rows(list(batch.rows))
            for kind in KINDS:
                engine.preview_cost(make_query(kind), accuracy)
            periods += 1
            stats = engine.cache_stats()["translations"]
            # Zero rebuilds after warmup: every post-append preview was
            # answered by the token tier, never recomputed.
            assert stats["built"] == len(KINDS)
            assert stats["token"] == periods * len(KINDS)
        assert search_stats()["searches"] == searches_after_warmup


class TestDriftStream:
    def test_rebuilds_exactly_on_the_scheduled_periods(self):
        config = GeneratorConfig(
            seed=5,
            initial_rows=600,
            periods=6,
            rows_per_period=150,
            drift="drift",
            drift_every=2,
        )
        plan = {event.period: event for event in config.drift_plan()}
        assert plan, "the scenario needs at least one drift period"
        generator, table, engine, accuracy = stream_engine(config)
        for kind in KINDS:
            engine.preview_cost(make_query(kind), accuracy)

        expected_built = len(KINDS)
        expected_token = 0
        for batch in generator.batches():
            table.append_rows(list(batch.rows))
            event = plan.get(batch.period)
            for kind in KINDS:
                engine.preview_cost(make_query(kind), accuracy)
            # Only the query over the drifted attribute rebuilds; the other
            # two attributes' fingerprints are untouched and revalidate.
            if event is not None:
                assert batch.changes_fingerprint
                expected_built += 1
                expected_token += len(KINDS) - 1
            else:
                expected_token += len(KINDS)
            stats = engine.cache_stats()["translations"]
            assert stats["built"] == expected_built, f"period {batch.period}"
            assert stats["token"] == expected_token

    def test_income_queries_never_rebuild_under_categorical_drift(self):
        # Numeric fingerprints are declared-shape only, so a stream that
        # drifts categorical codes leaves income queries on the
        # token path for the whole run.
        config = GeneratorConfig(
            seed=9,
            initial_rows=500,
            periods=4,
            rows_per_period=120,
            drift="drift",
            drift_every=1,
        )
        generator, table, engine, accuracy = stream_engine(config)
        engine.preview_cost(make_query("income"), accuracy)
        for batch in generator.batches():
            table.append_rows(list(batch.rows))
            engine.preview_cost(make_query("income"), accuracy)
        stats = engine.cache_stats()["translations"]
        assert stats["built"] == 1
        assert stats["token"] == config.periods
