"""Cache-tier outcomes over generated streams.

Drift shapes the data only.  A preserve-mode stream appends already-observed
values and a drift-mode stream introduces declared but unobserved codes on
schedule; neither changes anything a translation reads (the query and the
declared schema), so after warmup every structurally repeated preview is a
memo hit on both: zero translation builds, zero matrix builds and zero
WCQ-SM searches.  The drift periods are checked against the schedule, so
the stream really did introduce new codes while nothing was rebuilt.
"""

from repro.core.accuracy import AccuracySpec
from repro.core.engine import APExEngine
from repro.mechanisms.registry import default_registry
from repro.mechanisms.strategy_mechanism import reset_search_stats, search_stats
from repro.queries.predicates import Between, Comparison
from repro.queries.query import WorkloadCountingQuery
from repro.queries.workload import Workload, clear_matrix_cache, matrix_cache_stats
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
        matrices_after_warmup = matrix_cache_stats()["built"]

        periods = 0
        for batch in generator.batches():
            table.append_rows(list(batch.rows))
            for kind in KINDS:
                engine.preview_cost(make_query(kind), accuracy)
            periods += 1
            stats = engine.cache_stats()["translations"]
            # Zero rebuilds after warmup: every post-append preview was
            # answered by the memo, never recomputed.
            assert stats["built"] == len(KINDS)
            assert stats["misses"] == len(KINDS)
            assert stats["hits"] == periods * len(KINDS)
        assert search_stats()["searches"] == searches_after_warmup
        assert matrix_cache_stats()["built"] == matrices_after_warmup


class TestDriftStream:
    def test_zero_rebuilds_on_the_scheduled_drift_periods_too(self):
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
        searches_after_warmup = search_stats()["searches"]
        matrices_after_warmup = matrix_cache_stats()["built"]

        drifted = 0
        for batch in generator.batches():
            table.append_rows(list(batch.rows))
            # The schedule predicts which periods introduce a new code.
            assert batch.changes_fingerprint == (batch.period in plan)
            drifted += batch.changes_fingerprint
            for kind in KINDS:
                engine.preview_cost(make_query(kind), accuracy)
            stats = engine.cache_stats()["translations"]
            assert stats["built"] == len(KINDS), f"period {batch.period}"
            assert stats["misses"] == len(KINDS)
            assert stats["hits"] == batch.period * len(KINDS)
        assert drifted == len(plan)
        assert search_stats()["searches"] == searches_after_warmup
        assert matrix_cache_stats()["built"] == matrices_after_warmup

    def test_income_queries_never_rebuild_under_categorical_drift(self):
        # A stream that drifts categorical codes leaves income queries on
        # the exact path for the whole run.
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
        assert stats["hits"] == config.periods
