"""Translation-tier accounting under ``mixed`` drift.

One query referencing *both* categorical attributes streams through a
``mixed`` run with an artifact store attached.  Drift shapes the data only:
the translation reads the query and the declared schema, so after the cold
preview every period -- scheduled drift, numeric widening or neither -- is
an exact hit:

* ``built`` = 1 (cold) and ``token`` = 0 for the whole run;
* ``hits`` = one per period;
* ``disk_writes`` = 1 (the cold list) and ``disk_hits`` = 0 in-process;
* zero matrix builds and zero WCQ-SM searches after warm-up.
"""

from repro.core.accuracy import AccuracySpec
from repro.core.engine import APExEngine
from repro.mechanisms.registry import default_registry
from repro.mechanisms.strategy_mechanism import reset_search_stats, search_stats
from repro.queries.predicates import Comparison
from repro.queries.query import WorkloadCountingQuery
from repro.queries.workload import Workload, clear_matrix_cache, matrix_cache_stats
from repro.store import ArtifactStore
from repro.workloads import GeneratorConfig, MicrosimulationGenerator
from repro.workloads.population import OCCUPATION_CODES, REGION_CODES


def make_query() -> WorkloadCountingQuery:
    predicates = [Comparison("region", "==", code) for code in REGION_CODES[:8]]
    predicates += [
        Comparison("occupation", "==", code) for code in OCCUPATION_CODES[:8]
    ]
    return WorkloadCountingQuery(Workload(predicates), name="panel-mix")


def test_mixed_drift_builds_nothing_after_warmup(tmp_path):
    clear_matrix_cache()
    reset_search_stats()
    config = GeneratorConfig(
        seed=17,
        initial_rows=500,
        periods=6,
        rows_per_period=120,
        drift="mixed",
        drift_every=2,
    )
    schedule = config.drift_schedule()
    widening = config.widening_schedule()
    assert any(schedule) and any(widening)

    generator = MicrosimulationGenerator(config)
    table = generator.build_table()
    store = ArtifactStore(str(tmp_path))
    engine = APExEngine(
        table,
        budget=config.budget,
        registry=default_registry(mc_samples=100),
        seed=3,
        store=store,
    )
    accuracy = AccuracySpec(alpha=0.2 * config.total_rows(), beta=1e-3)
    engine.preview_cost(make_query(), accuracy)
    matrices, searches = matrix_cache_stats()["built"], search_stats()["searches"]

    for batch in generator.batches():
        table.append_rows(list(batch.rows))
        engine.preview_cost(make_query(), accuracy)
        stats = engine.cache_stats()["translations"]
        assert stats["built"] == 1, f"period {batch.period}"
        assert stats["token"] == 0, f"period {batch.period}"
        assert stats["hits"] == batch.period, f"period {batch.period}"
        assert stats["disk_hits"] == 0
        assert stats["disk_writes"] == 1

    # Scheduled drift and widening periods alike: nothing was rebuilt.
    assert matrix_cache_stats()["built"] == matrices
    assert search_stats()["searches"] == searches


def test_widening_periods_build_nothing_for_income_queries(tmp_path):
    # The widening drift touches the *income* data itself; an income query
    # still reads only the declared income domain, so it is never rebuilt.
    from repro.queries.predicates import Between
    from repro.workloads.population import INCOME_CAP

    clear_matrix_cache()
    reset_search_stats()
    config = GeneratorConfig(
        seed=17,
        initial_rows=400,
        periods=4,
        rows_per_period=100,
        drift="mixed",
        drift_every=2,
    )
    generator = MicrosimulationGenerator(config)
    table = generator.build_table()
    engine = APExEngine(
        table,
        budget=config.budget,
        registry=default_registry(mc_samples=100),
        seed=3,
        store=ArtifactStore(str(tmp_path)),
    )
    accuracy = AccuracySpec(alpha=0.2 * config.total_rows(), beta=1e-3)
    step = INCOME_CAP / 4
    query = lambda: WorkloadCountingQuery(  # noqa: E731
        Workload([Between("income", i * step, (i + 1) * step) for i in range(4)]),
        name="income-wcq",
    )
    engine.preview_cost(query(), accuracy)
    widened_periods = 0
    for batch in generator.batches():
        table.append_rows(list(batch.rows))
        engine.preview_cost(query(), accuracy)
        widened_periods += int(batch.widened)
    assert widened_periods > 0
    stats = engine.cache_stats()["translations"]
    assert stats["built"] == 1
    assert stats["hits"] == config.periods
