"""Microbenchmarks for the vectorized engine and the concurrent service.

Two suites live here.  The **engine suite** (``BENCH_1``) backs the perf
claims of the array-native rewrite with three measurements, each against the
preserved seed-semantics baselines in :mod:`repro.queries.reference`:

* **mask evaluation** -- evaluate a 64-predicate workload over a 100k-row
  table, reference (per-row Python loops for categorical conditions) vs
  vectorized (interned codes + cached columnar artifacts), cold and warm;
* **domain analysis** -- build the exact workload matrix over a >=10k-cell
  domain, reference (``itertools.product`` cell loop) vs vectorized (chunked
  broadcasting + packed-signature dedupe), with a parity assertion;
* **translation caching** -- two ``preview_cost`` calls for structurally
  identical queries; the second must hit the translation memo and re-use the
  memoised workload matrix without rebuilding it.

The **service suite** (``BENCH_2``) measures the concurrent multi-analyst
layer of :mod:`repro.service`:

* **concurrent budget stress** -- N threads hammer one
  :class:`~repro.service.ExplorationService` with interleaved
  ``preview_cost``/``explore`` against a deliberately tight shared budget;
  the payload records that the total charged epsilon stayed within ``B`` and
  that the merged transcript passes the Theorem 6.2 validity check;
* **request batching** -- N threads concurrently issue a structurally
  identical cold ``preview_cost``; the batcher must coalesce them so the
  workload matrix is built exactly once, and the payload compares the
  batched wall-clock against the unbatched one-build-per-thread baseline.

The **shards suite** (``BENCH_3``) measures the sharded, versioned table
backend and the :class:`~repro.core.parallel.ParallelExecutor`:

* **sharded domain analysis** -- the chunk-parallel exact matrix build at
  ``N`` workers against the single-shard seed-reference cell loop (the same
  baseline convention as BENCH_1's ``domain_analysis.speedup``), with a
  parity assertion and a per-worker scaling table (``cpu_count`` is recorded:
  thread scaling is only visible on multi-core hosts -- numpy releases the
  GIL, but one core is one core);
* **sharded mask evaluation** -- shard-parallel workload evaluation over a
  multi-shard table, parity-checked against the reference masks on the
  equivalent single-shard table, plus the *incremental append* win: after
  ``append_rows`` only the new shard is evaluated (old shard views keep
  their warm masks), measured against a cold full re-evaluation;
* **streaming invalidation** -- a service-level scenario: ``append_rows``
  lands between two structurally identical ``preview_cost`` calls and the
  payload records that the second call misses every version-keyed cache
  (translation memo, workload-matrix memo) and that post-append true counts
  match the reference semantics on the grown data -- no stale artifact
  survives the mutation.

The **snapshots suite** (``BENCH_4``) measures the snapshot-isolated read
path, shard compaction and the shared category dictionary:

* **wait-free reads** -- a reader pinning a snapshot per read while a
  background thread appends chunks; the payload records zero reader errors
  (the pre-snapshot engine raised shape-check errors here), that a pinned
  snapshot re-reads bit-for-bit identically after every append, and that
  pinned counts match the row-at-a-time reference semantics;
* **compaction** -- cold shard-parallel workload evaluation over a
  deliberately fragmented layout (auto-compaction off, many tiny appends)
  before and after ``Table.compact()``, with the layout-only contract
  pinned: same version token, bit-identical counts, fewer shards;
* **shared interning** -- post-append dictionary encoding: per-shard
  interning plus concatenation vs an honest full re-intern of the grown
  column from scratch.

The **store suite** (``BENCH_5``) measures the persistent artifact store
and the domain-fingerprint revalidation layer (:mod:`repro.store`):

* **warm start** -- one cold ``preview_cost`` persisting its artifacts,
  then a fresh interpreter (a subprocess) pointed at the same store
  directory answering the structurally identical preview with zero matrix
  builds and zero Monte-Carlo searches, bit-identical to the cold result;
* **domain revalidation** -- structurally identical previews around a
  domain-preserving append (fingerprint tier re-tags: zero rebuilds) and a
  domain-changing append (fingerprint miss: conservative rebuild).

``run_microbenchmarks`` / ``run_service_microbenchmarks`` /
``run_shard_microbenchmarks`` / ``run_snapshot_microbenchmarks`` /
``run_store_microbenchmarks`` collect each suite into one JSON-serialisable
payload; the ``python -m repro.bench`` entry point (and
``benchmarks/run_bench.py``) writes them to ``BENCH_1.json`` ...
``BENCH_5.json``.  All seeds are fixed, so CI can smoke every suite with
``--quick``.
"""

from __future__ import annotations

import math
import time
from typing import Callable

import numpy as np

from repro.core.accuracy import AccuracySpec
from repro.core.engine import APExEngine
from repro.data.schema import (
    Attribute,
    CategoricalDomain,
    NumericDomain,
    Schema,
)
from repro.data.table import Table
from repro.mechanisms.registry import default_registry
from repro.queries.predicates import (
    And,
    Between,
    Comparison,
    In,
    IsNull,
    Not,
    Or,
    Predicate,
)
from repro.queries.query import WorkloadCountingQuery
from repro.bench.reporting import bench_payload_header
from repro.queries.reference import reference_domain_matrix, reference_mask
from repro.queries.workload import (
    Workload,
    WorkloadMatrix,
    _attribute_atoms,
    clear_matrix_cache,
)

__all__ = [
    "bench_schema",
    "build_bench_table",
    "build_bench_workload",
    "bench_mask_evaluation",
    "bench_domain_analysis",
    "bench_translation_cache",
    "bench_concurrent_budget",
    "bench_request_batching",
    "bench_sharded_domain_analysis",
    "bench_sharded_mask_evaluation",
    "bench_streaming_invalidation",
    "bench_wait_free_reads",
    "bench_compaction",
    "bench_shared_interning",
    "bench_store_warm_start",
    "bench_domain_revalidation",
    "run_microbenchmarks",
    "run_service_microbenchmarks",
    "run_shard_microbenchmarks",
    "run_snapshot_microbenchmarks",
    "run_store_microbenchmarks",
]

_REGIONS = tuple(f"region-{i:02d}" for i in range(12))
_CHANNELS = ("web", "store", "phone", "mail", "app", "kiosk", "partner", "other")


def bench_schema() -> Schema:
    """The fixed four-attribute schema used by every microbenchmark."""
    return Schema(
        [
            Attribute("region", CategoricalDomain(_REGIONS), nullable=True),
            Attribute("channel", CategoricalDomain(_CHANNELS), nullable=True),
            Attribute("amount", NumericDomain(0, 10_000), nullable=True),
            Attribute("age", NumericDomain(0, 100, integral=True)),
        ],
        name="Bench",
    )


def build_bench_table(n_rows: int, seed: int = 20190501) -> Table:
    """A randomized table with NULLs in both categorical and numeric columns."""
    schema = bench_schema()
    rng = np.random.default_rng(seed)
    region = np.array(
        [_REGIONS[i] for i in rng.integers(0, len(_REGIONS), n_rows)], dtype=object
    )
    region[rng.random(n_rows) < 0.05] = None
    channel = np.array(
        [_CHANNELS[i] for i in rng.integers(0, len(_CHANNELS), n_rows)], dtype=object
    )
    channel[rng.random(n_rows) < 0.03] = None
    amount = rng.uniform(0, 10_000, n_rows)
    amount[rng.random(n_rows) < 0.04] = np.nan
    age = rng.integers(0, 101, n_rows).astype(float)
    return Table(
        schema,
        {"region": region, "channel": channel, "amount": amount, "age": age},
    )


def build_bench_workload(n_predicates: int = 64, n_amount_cuts: int = 40) -> Workload:
    """A structured 64-predicate workload mixing every predicate type.

    The amount axis is cut at ``n_amount_cuts`` constants so the exact domain
    analysis enumerates well over 10k candidate cells
    (13 region atoms x 9 channel atoms x ~2*cuts amount atoms x age atoms).
    """
    cuts = [round(10_000 * (i + 1) / (n_amount_cuts + 1), 2) for i in range(n_amount_cuts)]
    predicates: list[Predicate] = []
    i = 0
    while len(predicates) < n_predicates:
        region = _REGIONS[i % len(_REGIONS)]
        channel = _CHANNELS[i % len(_CHANNELS)]
        low = cuts[i % (len(cuts) - 1)]
        high = cuts[(i % (len(cuts) - 1)) + 1]
        kind = i % 6
        if kind == 0:
            predicates.append(Comparison("region", "==", region))
        elif kind == 1:
            predicates.append(
                And([Comparison("channel", "==", channel), Between("amount", low, high)])
            )
        elif kind == 2:
            predicates.append(
                In("region", [_REGIONS[(i + j) % len(_REGIONS)] for j in range(3)])
            )
        elif kind == 3:
            predicates.append(
                Or([IsNull("amount"), Comparison("amount", ">", high)])
            )
        elif kind == 4:
            predicates.append(
                Not(Or([Comparison("region", "==", region), IsNull("channel")]))
            )
        else:
            predicates.append(
                And([Comparison("age", ">=", float(10 + (i % 8) * 10)),
                     Comparison("channel", "!=", channel)])
            )
        i += 1
    return Workload(predicates[:n_predicates])


def _best_of(repeats: int, fn: Callable[[], object]) -> float:
    """Minimum wall-clock seconds of ``repeats`` invocations of ``fn``."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def bench_mask_evaluation(
    table: Table, workload: Workload, repeats: int = 3
) -> dict[str, object]:
    """Reference vs vectorized evaluation of every workload mask."""

    def run_reference() -> None:
        for predicate in workload.predicates:
            reference_mask(predicate, table)

    def run_vectorized_cold() -> None:
        table.clear_caches()
        for predicate in workload.predicates:
            predicate.evaluate(table)

    def run_vectorized_warm() -> None:
        for predicate in workload.predicates:
            predicate.evaluate(table)

    # Parity before timing: identical masks, including NULL handling.
    table.clear_caches()
    for predicate in workload.predicates:
        expected = reference_mask(predicate, table)
        actual = predicate.evaluate(table)
        if not np.array_equal(expected, actual):
            raise AssertionError(
                f"vectorized mask diverges from reference for "
                f"{predicate.describe()!r}"
            )

    reference_seconds = _best_of(repeats, run_reference)
    vectorized_cold = _best_of(repeats, run_vectorized_cold)
    table.clear_caches()
    for predicate in workload.predicates:
        predicate.evaluate(table)
    vectorized_warm = _best_of(repeats, run_vectorized_warm)
    return {
        "n_rows": len(table),
        "n_predicates": workload.size,
        "reference_seconds": reference_seconds,
        "vectorized_cold_seconds": vectorized_cold,
        "vectorized_warm_seconds": vectorized_warm,
        "speedup_cold": reference_seconds / max(vectorized_cold, 1e-12),
        "speedup_warm": reference_seconds / max(vectorized_warm, 1e-12),
    }


def bench_domain_analysis(
    workload: Workload, schema: Schema, repeats: int = 2
) -> dict[str, object]:
    """Reference vs vectorized exact domain analysis (with parity check)."""
    reference_matrix, reference_partitions = reference_domain_matrix(workload, schema)
    vectorized = WorkloadMatrix.from_domain_analysis(workload, schema)
    if not np.array_equal(reference_matrix, vectorized.matrix):
        raise AssertionError("vectorized domain analysis diverges from reference")
    if [p.signature for p in reference_partitions] != [
        p.signature for p in vectorized.partitions
    ]:
        raise AssertionError("vectorized partitions diverge from reference")

    atoms = _attribute_atoms(workload, schema)
    n_cells = math.prod(len(v) for v in atoms.values()) if atoms else 1

    reference_seconds = _best_of(
        repeats, lambda: reference_domain_matrix(workload, schema)
    )
    vectorized_seconds = _best_of(
        repeats, lambda: WorkloadMatrix.from_domain_analysis(workload, schema)
    )
    return {
        "n_predicates": workload.size,
        "n_cells": int(n_cells),
        "n_partitions": vectorized.n_partitions,
        "sensitivity": vectorized.sensitivity,
        "reference_seconds": reference_seconds,
        "vectorized_seconds": vectorized_seconds,
        "speedup": reference_seconds / max(vectorized_seconds, 1e-12),
        "parity": True,
    }


def bench_translation_cache(
    table: Table, workload: Workload, mc_samples: int = 2_000
) -> dict[str, object]:
    """Two ``preview_cost`` calls of structurally identical queries.

    The second must be answered from the translation memo, re-using the
    memoised workload matrix (no rebuild) and the strategy mechanism's cached
    epsilon search.
    """
    clear_matrix_cache()
    engine = APExEngine(
        table, budget=10.0, registry=default_registry(mc_samples=mc_samples), seed=7
    )
    accuracy = AccuracySpec(alpha=0.05 * len(table), beta=5e-4)
    first_query = WorkloadCountingQuery(workload, name="bench-wcq")
    second_query = WorkloadCountingQuery(workload, name="bench-wcq")

    start = time.perf_counter()
    first_costs = engine.preview_cost(first_query, accuracy)
    first_seconds = time.perf_counter() - start
    stats_after_first = engine.cache_stats()

    start = time.perf_counter()
    second_costs = engine.preview_cost(second_query, accuracy)
    second_seconds = time.perf_counter() - start
    stats_after_second = engine.cache_stats()

    translation_hits = (
        stats_after_second["translations"]["hits"]
        - stats_after_first["translations"]["hits"]
    )
    matrix_misses = (
        stats_after_second["workload_matrices"]["misses"]
        - stats_after_first["workload_matrices"]["misses"]
    )
    matrix_reused = (
        first_query.workload_matrix(table.schema)
        is second_query.workload_matrix(table.schema)
    )
    if first_costs != second_costs:
        raise AssertionError("cached preview_cost changed the translation answer")
    return {
        "first_preview_seconds": first_seconds,
        "second_preview_seconds": second_seconds,
        "speedup": first_seconds / max(second_seconds, 1e-12),
        "translation_cache_hit": translation_hits > 0,
        "matrix_rebuilt_on_second_call": matrix_misses > 0,
        "matrix_reused": bool(matrix_reused),
        "costs": {name: list(pair) for name, pair in first_costs.items()},
    }


def bench_concurrent_budget(
    table: Table,
    *,
    n_threads: int = 8,
    rounds_per_thread: int = 3,
    mc_samples: int = 500,
    target_answers: float = 6.5,
    journal: object | None = None,
) -> dict[str, object]:
    """N threads hammer one service with mixed preview/explore requests.

    The shared budget is sized to roughly ``target_answers`` explores, so the
    threads race each other into denial territory -- the adversarial case for
    admission control.  The payload records the two safety invariants the
    service exists to protect: total charged epsilon within ``B`` and a
    Theorem 6.2-valid merged transcript.

    ``journal`` (a :class:`~repro.reliability.journal.LedgerJournal`) turns
    on write-ahead accounting; the reliability suite runs this benchmark
    with and without one to price the WAL's fsync on the hot path.
    """
    import threading

    from repro.queries.builders import histogram_workload
    from repro.service import BudgetPolicy, ExplorationService

    alpha = max(0.01 * len(table), 1.0)
    accuracy = AccuracySpec(alpha=alpha, beta=5e-4)

    def query_for(thread_index: int) -> WorkloadCountingQuery:
        bins = 8 + 2 * (thread_index % 4)
        return WorkloadCountingQuery(
            histogram_workload("amount", start=0, stop=10_000, bins=bins),
            name=f"stress-hist-{bins}",
        )

    # Size B from the cheapest mechanism's worst case for the base query.
    scratch = APExEngine(
        table, budget=1e9, registry=default_registry(mc_samples=mc_samples), seed=0
    )
    costs = scratch.preview_cost(query_for(0), accuracy)
    epsilon_unit = min(upper for _, upper in costs.values())
    budget = target_answers * epsilon_unit

    service = ExplorationService(
        table,
        budget=budget,
        policy=BudgetPolicy.FIRST_COME,
        registry=default_registry(mc_samples=mc_samples),
        seed=11,
        batch_window=0.0,
        journal=journal,
    )
    for i in range(n_threads):
        service.register_analyst(f"stress-{i:02d}")

    barrier = threading.Barrier(n_threads)
    errors: list[str] = []

    def hammer(thread_index: int) -> None:
        analyst = f"stress-{thread_index:02d}"
        query = query_for(thread_index)
        try:
            barrier.wait()
            for _ in range(rounds_per_thread):
                service.preview_cost(analyst, query, accuracy)
                service.explore(analyst, query, accuracy)
        except Exception as exc:  # noqa: BLE001 - reported in the payload
            errors.append(f"{analyst}: {type(exc).__name__}: {exc}")

    threads = [
        threading.Thread(target=hammer, args=(i,), name=f"bench-stress-{i}")
        for i in range(n_threads)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall_seconds = time.perf_counter() - start

    merged = service.merged_transcript()
    spent = merged.total_epsilon()
    n_requests = n_threads * rounds_per_thread * 2
    return {
        "n_threads": n_threads,
        "rounds_per_thread": rounds_per_thread,
        "n_requests": n_requests,
        "budget": budget,
        "epsilon_spent": spent,
        "within_budget": bool(spent <= budget + 1e-9),
        "transcript_valid": bool(service.validate()),
        "answered": len(merged.answered()),
        "denied": len(merged.denied()),
        "errors": errors,
        "wall_seconds": wall_seconds,
        "requests_per_second": n_requests / max(wall_seconds, 1e-12),
    }


def bench_request_batching(
    table: Table,
    workload: Workload,
    *,
    n_threads: int = 8,
    mc_samples: int = 500,
    window: float = 0.01,
) -> dict[str, object]:
    """Concurrent identical cold previews must build the workload matrix once.

    First measures one cold ``preview_cost`` (matrix build plus mechanism
    translation) as the per-request baseline, then clears every memo and has
    ``n_threads`` threads issue structurally identical previews through the
    service's batching front door simultaneously.  The matrix-memo miss
    counter pins down how many builds actually happened.
    """
    import threading

    from repro.queries.workload import matrix_cache_stats
    from repro.service import ExplorationService

    accuracy = AccuracySpec(alpha=0.05 * len(table), beta=5e-4)

    def make_query() -> WorkloadCountingQuery:
        # Re-create the workload so every thread holds a structurally equal
        # but distinct object, as independent analysts would.
        return WorkloadCountingQuery(
            Workload(list(workload.predicates), list(workload.names)),
            name="batch-wcq",
        )

    # Cold single-request baseline.
    clear_matrix_cache()
    baseline_engine = APExEngine(
        table, budget=10.0, registry=default_registry(mc_samples=mc_samples), seed=3
    )
    start = time.perf_counter()
    baseline_engine.preview_cost(make_query(), accuracy)
    cold_seconds = time.perf_counter() - start

    # Batched concurrent run, fully cold again.
    clear_matrix_cache()
    service = ExplorationService(
        table,
        budget=10.0,
        registry=default_registry(mc_samples=mc_samples),
        seed=5,
        batch_window=window,
    )
    for i in range(n_threads):
        service.register_analyst(f"batch-{i:02d}")
    misses_before = matrix_cache_stats()["misses"]
    barrier = threading.Barrier(n_threads)
    durations = [0.0] * n_threads
    previews: list[dict[str, tuple[float, float]] | None] = [None] * n_threads

    def ask(thread_index: int) -> None:
        query = make_query()
        barrier.wait()
        begin = time.perf_counter()
        previews[thread_index] = service.preview_cost(
            f"batch-{thread_index:02d}", query, accuracy
        )
        durations[thread_index] = time.perf_counter() - begin

    threads = [
        threading.Thread(target=ask, args=(i,), name=f"bench-batch-{i}")
        for i in range(n_threads)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    batched_wall = time.perf_counter() - start

    matrix_builds = matrix_cache_stats()["misses"] - misses_before
    if any(p != previews[0] for p in previews):
        raise AssertionError("coalesced previews returned different answers")
    stats = service.stats()["batching"]
    return {
        "n_threads": n_threads,
        "window_seconds": window,
        "cold_preview_seconds": cold_seconds,
        "unbatched_estimate_seconds": cold_seconds * n_threads,
        "batched_wall_seconds": batched_wall,
        "speedup_vs_unbatched": (cold_seconds * n_threads) / max(batched_wall, 1e-12),
        "matrix_builds": int(matrix_builds),
        "matrix_built_exactly_once": bool(matrix_builds == 1),
        "computed_flights": stats["computed"],
        "coalesced_requests": stats["coalesced"],
        "max_request_seconds": max(durations),
    }


def bench_sharded_domain_analysis(
    workload: Workload,
    schema: Schema,
    *,
    workers: int = 4,
    repeats: int = 2,
) -> dict[str, object]:
    """Chunk-parallel exact domain analysis vs the single-shard references.

    Parity first: the matrix, partition signatures and descriptions produced
    with the executor must be bit-identical to the seed-reference cell loop.
    The headline ``speedup`` follows BENCH_1's convention -- the parallel
    build at ``workers`` workers against the single-shard reference
    implementation; ``scaling`` additionally reports the vectorized build at
    1/2/``workers`` workers so thread scaling (or the lack of it on a
    single-core host -- see ``cpu_count``) is measured rather than assumed.
    """
    import os

    from repro.core.parallel import ParallelExecutor

    reference_matrix, reference_partitions = reference_domain_matrix(workload, schema)
    with ParallelExecutor(workers) as executor:
        parallel = WorkloadMatrix.from_domain_analysis(
            workload, schema, executor=executor
        )
        if not np.array_equal(reference_matrix, parallel.matrix):
            raise AssertionError(
                "parallel domain analysis diverges from the reference matrix"
            )
        if [(p.signature, p.description) for p in reference_partitions] != [
            (p.signature, p.description) for p in parallel.partitions
        ]:
            raise AssertionError(
                "parallel domain-analysis partitions diverge from the reference"
            )

        atoms = _attribute_atoms(workload, schema)
        n_cells = math.prod(len(v) for v in atoms.values()) if atoms else 1

        reference_seconds = _best_of(
            repeats, lambda: reference_domain_matrix(workload, schema)
        )
        sequential_seconds = _best_of(
            repeats, lambda: WorkloadMatrix.from_domain_analysis(workload, schema)
        )
        scaling: dict[str, float] = {}
        for n_workers in sorted({1, 2, workers}):
            with ParallelExecutor(n_workers) as scaled:
                scaling[str(n_workers)] = _best_of(
                    repeats,
                    lambda: WorkloadMatrix.from_domain_analysis(
                        workload, schema, executor=scaled
                    ),
                )
        parallel_seconds = scaling[str(workers)]
    return {
        "n_predicates": workload.size,
        "n_cells": int(n_cells),
        "n_partitions": parallel.n_partitions,
        "workers": workers,
        "cpu_count": os.cpu_count(),
        "reference_seconds": reference_seconds,
        "sequential_vectorized_seconds": sequential_seconds,
        "parallel_seconds": parallel_seconds,
        "speedup": reference_seconds / max(parallel_seconds, 1e-12),
        "speedup_baseline": "single-shard reference cell loop (BENCH_1 convention)",
        "parallel_vs_sequential_vectorized": (
            sequential_seconds / max(parallel_seconds, 1e-12)
        ),
        "worker_scaling_seconds": scaling,
        "parity": True,
    }


def bench_sharded_mask_evaluation(
    *,
    n_rows: int = 100_000,
    n_shards: int = 4,
    append_rows: int = 10_000,
    workers: int = 4,
    n_predicates: int = 64,
    n_amount_cuts: int = 40,
    seed: int = 20190501,
) -> dict[str, object]:
    """Shard-parallel workload evaluation and the incremental-append win.

    Builds an ``n_shards``-shard table by repeated ``append_columns``,
    parity-checks the shard-parallel masks against the reference evaluation
    on the equivalent single-shard table, then appends one more chunk and
    measures re-evaluation: the old shards' views keep their warm masks, so
    only the new chunk is evaluated.

    The headline **isolates mask re-evaluation**: a sequential pass that
    evaluates every predicate over every shard view (the unit the warm-mask
    reuse operates on), warm old shards vs every mask LRU dropped -- with
    columnar artifacts and the shared category dictionary warm in both
    cases.  (The pre-PR-5 baseline was a cold evaluation of a fresh flat
    table, which conflated the measurement with dictionary interning --
    free since the shared-dictionary work; and the end-to-end
    ``workload.evaluate`` path is dominated on a single-core host by
    thread-pool dispatch and mask concatenation, identical in both paths,
    which drowned the warm-mask win.)  The end-to-end warm re-evaluation
    and a full cold evaluation of the grown flat data are still reported
    (``incremental_after_append_seconds``, ``grown_mask_reeval_seconds``,
    ``grown_cold_seconds``) for context.
    """
    from repro.core.parallel import ParallelExecutor
    from repro.queries.predicates import evaluate_sharded

    workload = build_bench_workload(n_predicates, n_amount_cuts=n_amount_cuts)
    schema = bench_schema()
    chunk = max(n_rows // n_shards, 1)
    # Snapshot each piece's columns up front: the sharded table and the flat
    # reference are built from the same immutable chunks.
    chunks = [
        {
            name: build_bench_table(chunk, seed=seed + i).column(name)
            for name in schema.attribute_names
        }
        for i in range(n_shards)
    ]
    table = Table(schema, dict(chunks[0]))
    for columns in chunks[1:]:
        table.append_columns(columns)
    flat = Table(
        schema,
        {
            name: np.concatenate([columns[name] for columns in chunks])
            for name in schema.attribute_names
        },
    )

    with ParallelExecutor(workers) as executor:
        # Parity: shard-parallel masks == reference masks on the flat table.
        for predicate in workload.predicates:
            expected = reference_mask(predicate, flat)
            actual = evaluate_sharded(predicate, table, executor)
            if not np.array_equal(expected, actual):
                raise AssertionError(
                    f"sharded mask diverges from reference for "
                    f"{predicate.describe()!r}"
                )

        def run_sharded_cold() -> None:
            table.clear_caches()
            for view in table.shard_tables():
                view.clear_caches()
            workload.evaluate(table, executor)

        def run_flat_cold() -> None:
            flat.clear_caches()
            workload.evaluate(flat)

        sharded_cold = _best_of(2, run_sharded_cold)
        flat_cold = _best_of(2, run_flat_cold)

        # Incremental append: warm every shard view, append one chunk, and
        # re-evaluate -- only the new shard pays.
        workload.evaluate(table, executor)
        extra = build_bench_table(append_rows, seed=seed + n_shards)
        table.append_columns(
            {name: extra.column(name) for name in table.schema.attribute_names}
        )
        start = time.perf_counter()
        workload.evaluate(table, executor)
        incremental_seconds = time.perf_counter() - start

        # Isolated baseline: the same grown, sharded table with every mask
        # LRU dropped (table-level combined masks and the per-shard view
        # masks) but columnar artifacts and the shared dictionary warm --
        # a pure full mask re-evaluation.
        def run_grown_mask_reeval() -> None:
            table.mask_cache.clear()
            for view in table.shard_tables():
                view.mask_cache.clear()
            workload.evaluate(table, executor)

        grown_mask_reeval = _best_of(2, run_grown_mask_reeval)

        grown_flat = flat.concat(extra)

        def run_grown_cold() -> None:
            grown_flat.clear_caches()
            workload.evaluate(grown_flat)

        grown_cold = _best_of(2, run_grown_cold)

        # The isolated measurement: evaluate every predicate over every
        # shard view, sequentially (no pool dispatch, no concatenation) --
        # the exact layer the warm-mask reuse operates on.  Old shards'
        # views answer from their mask LRUs; only the appended shard's view
        # computes.  The baseline is the same loop with every mask LRU
        # dropped (columnar artifacts and dictionary stay warm).
        views = table.shard_tables()

        def eval_all_views() -> None:
            for predicate in workload.predicates:
                for view in views:
                    predicate.evaluate(view)

        def drop_view_masks() -> None:
            for view in views:
                view.mask_cache.clear()

        extra_2 = build_bench_table(append_rows, seed=seed + n_shards + 1)
        eval_all_views()  # warm every current shard view
        table.append_columns(
            {name: extra_2.column(name) for name in table.schema.attribute_names}
        )
        views = table.shard_tables()  # old views stay warm, one new view
        start = time.perf_counter()
        eval_all_views()
        incremental_mask_seconds = time.perf_counter() - start

        def run_full_mask_reeval() -> None:
            drop_view_masks()
            eval_all_views()

        full_mask_reeval = _best_of(2, run_full_mask_reeval)

        # The incremental result must still be exact on the grown data.
        incremental_counts = workload.true_answers(table, executor)
        expected_counts = np.array(
            [
                reference_mask(p, grown_flat.concat(extra_2)).sum()
                for p in workload.predicates
            ],
            dtype=float,
        )
        if not np.array_equal(incremental_counts, expected_counts):
            raise AssertionError("incremental sharded counts diverge from reference")

    return {
        "n_rows": len(flat),
        "n_shards": n_shards,
        "append_rows": append_rows,
        "n_predicates": workload.size,
        "workers": workers,
        "sharded_cold_seconds": sharded_cold,
        "single_shard_cold_seconds": flat_cold,
        "incremental_after_append_seconds": incremental_seconds,
        "grown_mask_reeval_seconds": grown_mask_reeval,
        "grown_cold_seconds": grown_cold,
        "incremental_mask_seconds": incremental_mask_seconds,
        "full_mask_reeval_seconds": full_mask_reeval,
        "incremental_speedup": full_mask_reeval
        / max(incremental_mask_seconds, 1e-12),
        "incremental_speedup_baseline": (
            "sequential per-shard-view mask evaluation with every mask LRU "
            "dropped (columnar artifacts and dictionary warm); end-to-end "
            "workload.evaluate timings reported alongside"
        ),
        "parity": True,
    }


def bench_streaming_invalidation(
    table: Table, workload: Workload, *, mc_samples: int = 500
) -> dict[str, object]:
    """Append rows between two identical previews; no stale artifact survives.

    The adversarial scenario for every cache this stack grew: a structurally
    identical ``preview_cost`` before and after ``append_rows``.  The payload
    pins (a) the warm repeat *before* the append hits the translation memo,
    (b) the repeat *after* the append misses the exact version-scoped key
    (no stale hit) and -- the append being domain-preserving -- is answered
    by the revalidation tier with **zero** rebuilds and an identical cost
    preview, and (c) post-append true counts (data-dependent, version-keyed)
    equal the reference row-at-a-time semantics on the grown data.
    """
    from repro.service import ExplorationService

    clear_matrix_cache()
    service = ExplorationService(
        table,
        budget=10.0,
        registry=default_registry(mc_samples=mc_samples),
        seed=13,
        batch_window=0.0,
    )
    service.register_analyst("stream")
    accuracy = AccuracySpec(alpha=0.05 * len(table), beta=5e-4)

    def make_query() -> WorkloadCountingQuery:
        return WorkloadCountingQuery(
            Workload(list(workload.predicates), list(workload.names)),
            name="stream-wcq",
        )

    def snapshot() -> tuple[int, int, int]:
        stats = service.stats()
        return (
            stats["translations"]["hits"],
            stats["translations"]["revalidated"],
            stats["workload_matrices"]["built"],
        )

    start = time.perf_counter()
    first_costs = service.preview_cost("stream", make_query(), accuracy)
    cold_seconds = time.perf_counter() - start
    hits_0, revalidated_0, built_0 = snapshot()

    start = time.perf_counter()
    service.preview_cost("stream", make_query(), accuracy)
    warm_seconds = time.perf_counter() - start
    hits_1, revalidated_1, built_1 = snapshot()

    n_before = len(table)
    extra = build_bench_table(max(len(table) // 10, 100), seed=99)
    service.append_rows(
        "default",
        [extra.row(i) for i in range(min(len(extra), 2_000))],
    )

    start = time.perf_counter()
    post_costs = service.preview_cost("stream", make_query(), accuracy)
    post_append_seconds = time.perf_counter() - start
    hits_2, revalidated_2, built_2 = snapshot()

    query = make_query()
    post_counts = query.true_counts(table)
    expected = np.array(
        [reference_mask(p, table).sum() for p in workload.predicates], dtype=float
    )
    counts_match = bool(np.array_equal(post_counts, expected))

    return {
        "n_rows_before": n_before,
        "n_rows_after": len(table),
        "table_version": table.version_token.ordinal,
        "cold_preview_seconds": cold_seconds,
        "warm_preview_seconds": warm_seconds,
        "post_append_preview_seconds": post_append_seconds,
        "warm_repeat_hit_translation_memo": bool(hits_1 > hits_0),
        "warm_repeat_rebuilt": bool(built_1 > built_0),
        "post_append_hit_exact_key": bool(hits_2 > hits_1),
        "post_append_revalidated": bool(revalidated_2 > revalidated_1),
        "post_append_rebuilt": bool(built_2 > built_1),
        "post_append_costs_identical": bool(post_costs == first_costs),
        "post_append_counts_match_reference": counts_match,
        "no_stale_reuse": bool(
            hits_1 > hits_0  # warm repeat is served by the exact memo...
            and built_1 == built_0  # ...without rebuilding anything
            and hits_2 == hits_1  # the post-append request misses the exact key
            and revalidated_2 > revalidated_1  # ...revalidates (domains kept)
            and built_2 == built_1  # ...with zero rebuilds
            and post_costs == first_costs  # ...and an identical preview
            and counts_match  # data-dependent counts track the grown table
        ),
    }


def bench_wait_free_reads(
    *,
    n_rows: int = 100_000,
    n_appends: int = 40,
    rows_per_append: int = 500,
    append_interval_seconds: float = 0.003,
    n_predicates: int = 32,
    n_amount_cuts: int = 20,
    seed: int = 20190501,
) -> dict[str, object]:
    """A reader hammering snapshots while a background appender grows the table.

    The adversarial scenario for the snapshot read path: ``append_rows``
    lands *during* evaluation, not between requests.  The appender paces its
    chunks by ``append_interval_seconds`` (modelling a stream that arrives
    over time, and guaranteeing genuine interleaving even on fast hosts);
    the reader pins a snapshot per read and counts the workload.  The
    payload records that no read ever failed (the pre-snapshot engine raised
    shape-check errors here), that a pinned snapshot re-read after all
    appends is bit-for-bit identical to its first read, and that the pinned
    counts match the row-at-a-time reference semantics for the pinned rows.
    """
    import threading

    workload = build_bench_workload(n_predicates, n_amount_cuts=n_amount_cuts)
    table = build_bench_table(n_rows, seed=seed)
    append_source = build_bench_table(rows_per_append * n_appends, seed=seed + 1)
    append_chunks = [
        {
            name: append_source.column(name)[
                i * rows_per_append : (i + 1) * rows_per_append
            ]
            for name in table.schema.attribute_names
        }
        for i in range(n_appends)
    ]

    pinned = table.snapshot()
    pinned_first = workload.true_answers(pinned).copy()

    errors: list[str] = []
    reads = 0
    read_seconds: list[float] = []
    stop = threading.Event()

    def appender() -> None:
        try:
            for chunk in append_chunks:
                table.append_columns(dict(chunk))
                if append_interval_seconds:
                    time.sleep(append_interval_seconds)
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(f"appender: {exc!r}")
        finally:
            stop.set()

    thread = threading.Thread(target=appender)
    wall_start = time.perf_counter()
    thread.start()
    try:
        while not stop.is_set():
            start = time.perf_counter()
            try:
                snap = table.snapshot()
                counts = workload.true_answers(snap)
                if len(counts) != workload.size:
                    errors.append("reader: short counts vector")
            except BaseException as exc:
                errors.append(f"reader: {exc!r}")
                break
            read_seconds.append(time.perf_counter() - start)
            reads += 1
    finally:
        thread.join()
    wall_seconds = time.perf_counter() - wall_start

    pinned_again = workload.true_answers(pinned)
    pinned_stable = bool(np.array_equal(pinned_first, pinned_again))
    reference_counts = np.array(
        [reference_mask(p, pinned).sum() for p in workload.predicates],
        dtype=float,
    )
    pinned_matches_reference = bool(np.array_equal(pinned_first, reference_counts))

    return {
        "n_rows_start": n_rows,
        "n_rows_end": len(table),
        "n_appends": n_appends,
        "rows_per_append": rows_per_append,
        "append_interval_seconds": append_interval_seconds,
        "n_predicates": workload.size,
        "reads_completed": reads,
        "wall_seconds": wall_seconds,
        "mean_read_seconds": (
            sum(read_seconds) / len(read_seconds) if read_seconds else 0.0
        ),
        "max_read_seconds": max(read_seconds, default=0.0),
        "reader_errors": errors,
        "wait_free": bool(not errors),
        "pinned_reread_identical": pinned_stable,
        "pinned_matches_reference": pinned_matches_reference,
        "final_n_shards": table.n_shards,
    }


def bench_compaction(
    *,
    n_rows: int = 100_000,
    n_appends: int = 150,
    rows_per_append: int = 100,
    n_predicates: int = 32,
    n_amount_cuts: int = 20,
    workers: int = 4,
    seed: int = 20190501,
) -> dict[str, object]:
    """Cold shard-parallel evaluation before and after :meth:`Table.compact`.

    Builds a deliberately fragmented table (auto-compaction off, many tiny
    appends), measures a cold shard-parallel workload evaluation over the
    fragmented layout, compacts, and measures again.  The payload pins that
    compaction changed only the layout: same version token, bit-identical
    counts, fewer shards.
    """
    from repro.core.parallel import ParallelExecutor

    workload = build_bench_workload(n_predicates, n_amount_cuts=n_amount_cuts)
    base = build_bench_table(n_rows, seed=seed)
    table = Table(
        base.schema,
        {name: base.column(name) for name in base.schema.attribute_names},
        auto_compact=False,
    )
    extra = build_bench_table(rows_per_append * n_appends, seed=seed + 1)
    for i in range(n_appends):
        table.append_columns(
            {
                name: extra.column(name)[
                    i * rows_per_append : (i + 1) * rows_per_append
                ]
                for name in table.schema.attribute_names
            }
        )

    def run_cold(executor) -> float:
        table.clear_caches()
        for view in table.shard_tables():
            view.clear_caches()
        start = time.perf_counter()
        workload.evaluate(table, executor)
        return time.perf_counter() - start

    with ParallelExecutor(workers) as executor:
        shards_before = table.n_shards
        fragmented_seconds = min(run_cold(executor) for _ in range(2))
        counts_before = workload.true_answers(table, executor).copy()
        version_before = table.version_token

        compacted = table.compact()
        shards_after = table.n_shards
        compacted_seconds = min(run_cold(executor) for _ in range(2))
        counts_after = workload.true_answers(table, executor)

    return {
        "n_rows": len(table),
        "n_appends": n_appends,
        "rows_per_append": rows_per_append,
        "n_predicates": workload.size,
        "workers": workers,
        "compacted": bool(compacted),
        "n_shards_before": shards_before,
        "n_shards_after": shards_after,
        "fragmented_cold_seconds": fragmented_seconds,
        "compacted_cold_seconds": compacted_seconds,
        "speedup": fragmented_seconds / max(compacted_seconds, 1e-12),
        "version_token_unchanged": bool(table.version_token == version_before),
        "parity": bool(np.array_equal(counts_before, counts_after)),
    }


def bench_shared_interning(
    *,
    n_rows: int = 200_000,
    append_rows: int = 1_000,
    seed: int = 20190501,
) -> dict[str, object]:
    """Post-append dictionary encoding: per-shard interning vs full re-intern.

    Before the shared append-only dictionary, every version advance dropped
    the interned category codes and the next categorical predicate re-ran
    the Python interning loop over the *whole* column.  Now old shards keep
    their code arrays and only the appended shard is interned, so the
    post-append cost is ``O(append_rows)`` plus one concatenation.  The
    baseline is measured honestly: a fresh table over the same grown column,
    interned from scratch.
    """
    table = build_bench_table(n_rows, seed=seed)
    extra = build_bench_table(append_rows, seed=seed + 1)
    column = "region"

    table.category_codes(column)  # warm the per-shard codes
    table.append_columns(
        {name: extra.column(name) for name in table.schema.attribute_names}
    )
    start = time.perf_counter()
    incremental_codes, incremental_index = table.category_codes(column)
    incremental_seconds = time.perf_counter() - start

    flat = Table(
        table.schema,
        {name: table.column(name) for name in table.schema.attribute_names},
    )
    start = time.perf_counter()
    full_codes, full_index = flat.category_codes(column)
    full_seconds = time.perf_counter() - start

    # Codes may be numbered differently; the decoded values must agree.
    incremental_inverse = {c: v for v, c in incremental_index.items()}
    full_inverse = {c: v for v, c in full_index.items()}
    parity = len(incremental_codes) == len(full_codes) and all(
        incremental_inverse.get(int(a)) == full_inverse.get(int(b))
        for a, b in zip(incremental_codes, full_codes)
    )

    return {
        "n_rows": n_rows,
        "append_rows": append_rows,
        "column": column,
        "incremental_seconds": incremental_seconds,
        "full_reintern_seconds": full_seconds,
        "speedup": full_seconds / max(incremental_seconds, 1e-12),
        "parity": bool(parity),
    }


def bench_store_warm_start(
    *,
    n_rows: int = 20_000,
    n_predicates: int = 64,
    n_amount_cuts: int = 12,
    mc_samples: int = 500,
    seed: int = 20190501,
) -> dict[str, object]:
    """Cold vs warm-start ``preview_cost`` across two processes.

    The parent runs one cold preview with an :class:`~repro.store.ArtifactStore`
    attached (building the matrix and the translation list, both persisted
    to disk, and running the WCQ-SM epsilon search), then spawns a **fresh
    interpreter** (:mod:`repro.bench.store_worker`) pointed at the same
    store directory.  The payload pins the acceptance criterion of the
    store: the restarted process answers the structurally identical preview
    with zero matrix builds and zero Monte-Carlo searches, bit-identical to
    the cold result.
    """
    import json
    import os
    import shutil
    import subprocess
    import sys
    import tempfile

    import repro
    from repro.mechanisms.strategy_mechanism import reset_search_stats, search_stats
    from repro.store import ArtifactStore

    store_dir = tempfile.mkdtemp(prefix="repro-store-bench-")
    try:
        clear_matrix_cache()
        reset_search_stats()
        table = build_bench_table(n_rows, seed=seed)
        workload = build_bench_workload(n_predicates, n_amount_cuts=n_amount_cuts)
        engine = APExEngine(
            table,
            budget=10.0,
            registry=default_registry(mc_samples=mc_samples),
            seed=7,
            store=ArtifactStore(store_dir),
        )
        accuracy = AccuracySpec(alpha=0.05 * len(table), beta=5e-4)
        query = WorkloadCountingQuery(workload, name="bench-wcq")

        start = time.perf_counter()
        cold_costs = engine.preview_cost(query, accuracy)
        cold_seconds = time.perf_counter() - start
        start = time.perf_counter()
        engine.preview_cost(query, accuracy)
        warm_memory_seconds = time.perf_counter() - start
        cold_searches = search_stats()["searches"]

        # The restart: a fresh interpreter sharing only the store directory.
        env = dict(os.environ)
        package_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env["PYTHONPATH"] = package_root + os.pathsep + env.get("PYTHONPATH", "")
        completed = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.bench.store_worker",
                "--store",
                store_dir,
                "--rows",
                str(n_rows),
                "--predicates",
                str(n_predicates),
                "--amount-cuts",
                str(n_amount_cuts),
                "--mc-samples",
                str(mc_samples),
                "--seed",
                str(seed),
            ],
            capture_output=True,
            text=True,
            env=env,
            timeout=600,
        )
        if completed.returncode != 0:
            raise AssertionError(
                f"store worker failed: {completed.stderr.strip()[:2000]}"
            )
        worker = json.loads(completed.stdout)

        # JSON round-trip preserves float bits exactly, so equality here is
        # bit-identity of every (epsilon_lower, epsilon_upper) pair.
        cold_costs_json = json.loads(
            json.dumps({name: list(pair) for name, pair in cold_costs.items()})
        )
        bit_identical = cold_costs_json == worker["costs"]

        return {
            "n_rows": n_rows,
            "n_predicates": n_predicates,
            "mc_samples": mc_samples,
            "cold_preview_seconds": cold_seconds,
            "warm_memory_preview_seconds": warm_memory_seconds,
            "warm_start_preview_seconds": worker["preview_seconds"],
            "warm_start_speedup": cold_seconds
            / max(worker["preview_seconds"], 1e-12),
            "cold_mc_searches": cold_searches,
            "restart_matrix_builds": worker["matrix_builds"],
            "restart_mc_searches": worker["mc_searches"],
            "restart_translation_builds": worker["translation_builds"],
            "restart_disk_hits": worker["translation_disk_hits"]
            + worker["matrix_disk_hits"],
            "zero_rebuild_restart": bool(
                worker["matrix_builds"] == 0 and worker["mc_searches"] == 0
            ),
            "bit_identical": bool(bit_identical),
        }
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)


def bench_domain_revalidation(
    *,
    n_rows: int = 20_000,
    n_predicates: int = 64,
    n_amount_cuts: int = 12,
    mc_samples: int = 500,
    seed: int = 20190501,
) -> dict[str, object]:
    """Revalidate vs rebuild around domain-preserving/-changing appends.

    The table observes only the first six of the twelve declared regions,
    so both kinds of append are legal data.  A structurally identical
    ``preview_cost`` after a *domain-preserving* append must be answered by
    the fingerprint tier (re-tag: zero matrix builds, zero searches); after
    an append that introduces a previously unobserved region the fingerprint
    changes and the conservative rebuild runs.  The payload records both
    paths and the revalidate-vs-rebuild latency ratio.
    """
    from repro.mechanisms.strategy_mechanism import reset_search_stats, search_stats

    clear_matrix_cache()
    reset_search_stats()
    schema = bench_schema()
    rng = np.random.default_rng(seed)
    base = build_bench_table(n_rows, seed=seed)
    region = np.array(
        [_REGIONS[i] for i in rng.integers(0, 6, n_rows)], dtype=object
    )
    region[rng.random(n_rows) < 0.05] = None
    columns = {name: base.column(name) for name in schema.attribute_names}
    columns["region"] = region
    table = Table(schema, columns)

    engine = APExEngine(
        table, budget=10.0, registry=default_registry(mc_samples=mc_samples), seed=7
    )
    accuracy = AccuracySpec(alpha=0.05 * len(table), beta=5e-4)
    workload = build_bench_workload(n_predicates, n_amount_cuts=n_amount_cuts)

    def make_query() -> WorkloadCountingQuery:
        return WorkloadCountingQuery(
            Workload(list(workload.predicates), list(workload.names)),
            name="reval-wcq",
        )

    def counters() -> tuple[int, int, int]:
        stats = engine.cache_stats()
        return (
            stats["translations"]["revalidated"],
            stats["workload_matrices"]["built"],
            search_stats()["searches"],
        )

    def append(region_value: str, n: int = 50) -> None:
        table.append_rows(
            [
                {"region": region_value, "channel": "web", "amount": 5.0, "age": 30.0}
                for _ in range(n)
            ]
        )

    start = time.perf_counter()
    first_costs = engine.preview_cost(make_query(), accuracy)
    cold_seconds = time.perf_counter() - start
    revalidated_0, built_0, searches_0 = counters()

    append(_REGIONS[3])  # already observed: domain-preserving
    start = time.perf_counter()
    preserved_costs = engine.preview_cost(make_query(), accuracy)
    revalidated_seconds = time.perf_counter() - start
    revalidated_1, built_1, searches_1 = counters()

    append(_REGIONS[6])  # declared but never observed: domain-changing
    start = time.perf_counter()
    engine.preview_cost(make_query(), accuracy)
    rebuild_seconds = time.perf_counter() - start
    revalidated_2, built_2, searches_2 = counters()

    return {
        "n_rows": n_rows,
        "n_predicates": n_predicates,
        "mc_samples": mc_samples,
        "cold_preview_seconds": cold_seconds,
        "revalidated_preview_seconds": revalidated_seconds,
        "rebuild_preview_seconds": rebuild_seconds,
        "revalidate_vs_rebuild_speedup": rebuild_seconds
        / max(revalidated_seconds, 1e-12),
        "preserving_append_revalidated": bool(revalidated_1 > revalidated_0),
        "preserving_append_rebuilt": bool(
            built_1 > built_0 or searches_1 > searches_0
        ),
        "preserving_costs_identical": bool(preserved_costs == first_costs),
        "changing_append_rebuilt": bool(built_2 > built_1),
        "changing_append_revalidated": bool(revalidated_2 > revalidated_1),
    }


def bench_wal_overhead(
    *,
    n_rows: int = 20_000,
    n_threads: int = 8,
    rounds_per_thread: int = 3,
    mc_samples: int = 500,
    seed: int = 20190501,
) -> dict[str, object]:
    """The write-ahead journal's cost on the concurrent budget-stress path.

    Runs :func:`bench_concurrent_budget` twice over identical tables -- once
    bare, once with every reserve/commit/release fsync'd through a
    :class:`~repro.reliability.journal.LedgerJournal` -- and reports both
    throughputs plus the overhead ratio.  Both runs must stay within budget
    with a Theorem 6.2-valid transcript; the WAL buys durability, never
    correctness, so the gate is that it costs bounded throughput and
    changes no safety answer.
    """
    import os
    import shutil
    import tempfile

    from repro.reliability.journal import LedgerJournal

    table = build_bench_table(n_rows, seed=seed)
    common = dict(
        n_threads=n_threads,
        rounds_per_thread=rounds_per_thread,
        mc_samples=mc_samples,
    )
    wal_off = bench_concurrent_budget(table, **common)

    tmp_dir = tempfile.mkdtemp(prefix="repro-bench-wal-")
    try:
        journal = LedgerJournal(os.path.join(tmp_dir, "ledger.wal"))
        wal_on = bench_concurrent_budget(table, journal=journal, **common)
        journal_stats = journal.stats()
        journal.close()
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)

    off_rps = float(wal_off["requests_per_second"])
    on_rps = float(wal_on["requests_per_second"])
    return {
        "n_rows": n_rows,
        "n_threads": n_threads,
        "n_requests": wal_off["n_requests"],
        "wal_off": wal_off,
        "wal_on": wal_on,
        "journal_records": journal_stats["appended_records"],
        "wal_off_requests_per_second": off_rps,
        "wal_on_requests_per_second": on_rps,
        "throughput_ratio": on_rps / max(off_rps, 1e-12),
        "safety_preserved": bool(
            wal_off["within_budget"]
            and wal_on["within_budget"]
            and wal_off["transcript_valid"]
            and wal_on["transcript_valid"]
            and not wal_on["errors"]
        ),
    }


def bench_recovery_latency(
    *,
    n_queries: int = 500,
    inflight: int = 8,
    seed: int = 20190501,
) -> dict[str, object]:
    """Cold-start recovery: scan, replay and adopt an N-record journal.

    Writes a journal shaped like a long-lived service's (``n_queries``
    reserve+commit pairs plus ``inflight`` unresolved reservations), then
    times a fresh :class:`~repro.reliability.journal.LedgerJournal` open
    (scan + checksum + replay) and the pool adoption that rebuilds the
    merged transcript.  The payload pins the recovered books: exact
    committed spend, conservative in-flight surcharge, valid transcript.
    """
    import os
    import shutil
    import tempfile

    from repro.reliability.journal import LedgerJournal
    from repro.service.budget import SharedBudgetPool

    rng = np.random.default_rng(seed)
    tmp_dir = tempfile.mkdtemp(prefix="repro-bench-recovery-")
    try:
        path = os.path.join(tmp_dir, "ledger.wal")
        committed = 0.0
        inflight_eps = 0.0
        with LedgerJournal(path, sync=False) as journal:
            for i in range(n_queries):
                upper = float(rng.uniform(0.001, 0.003))
                spent = float(rng.uniform(0.0005, upper))
                rid = journal.append(
                    "reserve", eps_upper=upper, query=f"q{i}", kind="wcq"
                )
                journal.append(
                    "commit",
                    rid=rid,
                    eps_upper=upper,
                    eps_spent=spent,
                    query=f"q{i}",
                    kind="wcq",
                    mechanism="LM",
                )
                committed += spent
            for i in range(inflight):
                upper = float(rng.uniform(0.001, 0.003))
                journal.append(
                    "reserve", eps_upper=upper, query=f"inflight{i}", kind="wcq"
                )
                inflight_eps += upper

        start = time.perf_counter()
        reopened = LedgerJournal(path)
        open_seconds = time.perf_counter() - start
        recovery = reopened.recovery

        budget = recovery.spent * 2.0
        pool = SharedBudgetPool(budget)
        start = time.perf_counter()
        entries = pool.adopt_recovery(recovery)
        adopt_seconds = time.perf_counter() - start
        reopened.close()

        n_records = len(recovery.records)
        return {
            "n_records": n_records,
            "n_queries": n_queries,
            "inflight": inflight,
            "open_seconds": open_seconds,
            "adopt_seconds": adopt_seconds,
            "recovery_seconds": open_seconds + adopt_seconds,
            "records_per_second": n_records
            / max(open_seconds + adopt_seconds, 1e-12),
            "recovered_entries": entries,
            "committed_exact": bool(abs(recovery.committed_epsilon - committed) == 0.0),
            "inflight_conservative": bool(
                abs(recovery.inflight_epsilon - inflight_eps) == 0.0
            ),
            "transcript_valid": bool(pool.merged_transcript.is_valid(budget)),
        }
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)


def bench_reliability_exerciser(
    *,
    seeds: tuple[int, ...] = (2, 3, 5, 8),
    n_ops: int = 6,
    n_rows: int = 300,
    mc_samples: int = 120,
) -> dict[str, object]:
    """A bounded property-based sweep: random histories, real kill -9 crashes.

    Each seed runs :func:`repro.reliability.exerciser.run_history` -- real
    subprocesses, armed crash failpoints, torn journal tails -- and the
    payload aggregates the per-seed verdicts.  ``all_ok`` is the gate.
    """
    import os
    import shutil
    import tempfile

    from repro.reliability.exerciser import run_history

    tmp_dir = tempfile.mkdtemp(prefix="repro-bench-exerciser-")
    reports = []
    try:
        start = time.perf_counter()
        for seed in seeds:
            reports.append(
                run_history(
                    seed,
                    work_dir=os.path.join(tmp_dir, f"seed-{seed}"),
                    n_ops=n_ops,
                    n_rows=n_rows,
                    mc_samples=mc_samples,
                )
            )
        wall_seconds = time.perf_counter() - start
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
    return {
        "seeds": list(seeds),
        "n_ops": n_ops,
        "histories": len(reports),
        "crashes": sum(1 for r in reports if r["crashed"]),
        "torn_tails": sum(1 for r in reports if r["corrupt_tail"]),
        "violations": [v for r in reports for v in r["violations"]],
        "all_ok": all(r["ok"] for r in reports),
        "wall_seconds": wall_seconds,
        "reports": reports,
    }


def run_store_microbenchmarks(
    quick: bool = False, seed: int = 20190501
) -> dict[str, object]:
    """Run the artifact-store suite; returns the BENCH_5 payload."""
    n_rows = 20_000 if quick else 100_000
    n_amount_cuts = 12 if quick else 40
    mc_samples = 300 if quick else 1_000
    warm_start = bench_store_warm_start(
        n_rows=n_rows,
        n_amount_cuts=n_amount_cuts,
        mc_samples=mc_samples,
        seed=seed,
    )
    revalidation = bench_domain_revalidation(
        n_rows=n_rows,
        n_amount_cuts=n_amount_cuts,
        mc_samples=mc_samples,
        seed=seed,
    )
    return {
        **bench_payload_header(5, quick=quick, seed=seed),
        "store_warm_start": warm_start,
        "domain_revalidation": revalidation,
    }


def run_snapshot_microbenchmarks(
    quick: bool = False, seed: int = 20190501
) -> dict[str, object]:
    """Run the snapshot/compaction/interning suite; returns the BENCH_4 payload."""
    n_rows = 20_000 if quick else 100_000
    n_amount_cuts = 10 if quick else 20
    wait_free = bench_wait_free_reads(
        n_rows=n_rows,
        n_appends=15 if quick else 40,
        rows_per_append=200 if quick else 500,
        n_amount_cuts=n_amount_cuts,
        seed=seed,
    )
    compaction = bench_compaction(
        n_rows=n_rows,
        n_appends=60 if quick else 150,
        rows_per_append=20 if quick else 100,
        n_amount_cuts=n_amount_cuts,
        seed=seed,
    )
    interning = bench_shared_interning(
        n_rows=40_000 if quick else 200_000,
        append_rows=500 if quick else 1_000,
        seed=seed,
    )
    return {
        **bench_payload_header(4, quick=quick, seed=seed),
        "wait_free_reads": wait_free,
        "compaction": compaction,
        "shared_interning": interning,
    }


def run_shard_microbenchmarks(
    quick: bool = False, seed: int = 20190501
) -> dict[str, object]:
    """Run the sharded/versioned-backend suite and return the BENCH_3 payload."""
    n_rows = 20_000 if quick else 100_000
    n_amount_cuts = 12 if quick else 40
    mc_samples = 300 if quick else 1_000
    # The mask scenario runs at 4x the base size (per the ROADMAP item:
    # vectorized per-shard evaluation is so fast that at 25k rows/shard the
    # per-call fixed costs rival the numpy work and hide the warm-mask win).
    mask_rows = 80_000 if quick else 400_000
    append = 2_000 if quick else 10_000

    workload = build_bench_workload(64, n_amount_cuts=n_amount_cuts)
    schema = bench_schema()
    domain = bench_sharded_domain_analysis(
        workload, schema, workers=4, repeats=1 if quick else 2
    )
    masks = bench_sharded_mask_evaluation(
        n_rows=mask_rows,
        n_shards=4,
        append_rows=append,
        workers=4,
        n_amount_cuts=n_amount_cuts,
        seed=seed,
    )
    table = build_bench_table(n_rows, seed=seed)
    streaming = bench_streaming_invalidation(table, workload, mc_samples=mc_samples)
    return {
        **bench_payload_header(3, quick=quick, seed=seed),
        "sharded_domain_analysis": domain,
        "sharded_mask_evaluation": masks,
        "streaming_invalidation": streaming,
    }


def run_service_microbenchmarks(
    quick: bool = False, seed: int = 20190501
) -> dict[str, object]:
    """Run the concurrency/batching suite and return the BENCH_2 payload."""
    n_rows = 20_000 if quick else 100_000
    n_amount_cuts = 12 if quick else 40
    mc_samples = 300 if quick else 1_000
    n_threads = 8
    rounds = 2 if quick else 3

    table = build_bench_table(n_rows, seed=seed)
    workload = build_bench_workload(64, n_amount_cuts=n_amount_cuts)
    stress = bench_concurrent_budget(
        table,
        n_threads=n_threads,
        rounds_per_thread=rounds,
        mc_samples=mc_samples,
    )
    batching = bench_request_batching(
        table, workload, n_threads=n_threads, mc_samples=mc_samples
    )
    return {
        **bench_payload_header(2, quick=quick, seed=seed),
        "concurrent_budget_stress": stress,
        "request_batching": batching,
    }


def run_reliability_microbenchmarks(
    quick: bool = False, seed: int = 20190501
) -> dict[str, object]:
    """Run the crash-safety suite; returns the BENCH_6 payload.

    Three measurements: the write-ahead journal's throughput cost on the
    PR 2 budget-stress scenario (WAL on vs off), cold-start recovery latency
    over a long journal, and a bounded property-based exerciser sweep with
    real SIGKILL crashes.
    """
    n_rows = 10_000 if quick else 20_000
    mc_samples = 200 if quick else 500
    wal = bench_wal_overhead(
        n_rows=n_rows,
        n_threads=8,
        rounds_per_thread=2 if quick else 3,
        mc_samples=mc_samples,
        seed=seed,
    )
    recovery = bench_recovery_latency(
        n_queries=200 if quick else 2_000,
        inflight=8,
        seed=seed,
    )
    exerciser = bench_reliability_exerciser(
        seeds=(2, 3) if quick else (2, 3, 5, 8, 13),
        n_ops=5 if quick else 8,
        n_rows=300,
        mc_samples=120,
    )
    return {
        **bench_payload_header(6, quick=quick, seed=seed),
        "wal_overhead": wal,
        "recovery_latency": recovery,
        "exerciser": exerciser,
    }


def run_microbenchmarks(quick: bool = False, seed: int = 20190501) -> dict[str, object]:
    """Run the full microbenchmark suite and return the BENCH payload."""
    n_rows = 20_000 if quick else 100_000
    n_amount_cuts = 12 if quick else 40
    repeats = 2 if quick else 3
    mc_samples = 500 if quick else 2_000

    table = build_bench_table(n_rows, seed=seed)
    workload = build_bench_workload(64, n_amount_cuts=n_amount_cuts)
    mask_results = bench_mask_evaluation(table, workload, repeats=repeats)
    domain_results = bench_domain_analysis(workload, table.schema, repeats=repeats)
    translation_results = bench_translation_cache(
        table, workload, mc_samples=mc_samples
    )
    return {
        **bench_payload_header(1, quick=quick, seed=seed),
        "mask_evaluation": mask_results,
        "domain_analysis": domain_results,
        "translation_cache": translation_results,
    }
