"""Subprocess worker for the artifact-store warm-start scenario.

``python -m repro.bench.store_worker --store DIR ...`` simulates a service
restart: a **fresh interpreter** rebuilds the same synthetic table and
workload from their seeds (so the schema and the query structure match the
previous process's), attaches the :class:`~repro.store.ArtifactStore` at ``DIR``,
runs one structurally identical ``preview_cost``, and prints a JSON report
to stdout:

* ``preview_seconds`` -- wall-clock of the warm-start preview;
* ``matrix_builds`` / ``mc_searches`` -- how many exact-domain enumerations
  and Monte-Carlo epsilon searches the fresh process had to run (the
  acceptance criterion is **zero** of each);
* ``translation_builds`` / ``translation_disk_hits`` -- translation lists
  computed, and loaded from disk instead;
* ``costs`` -- the full preview, for bit-identical comparison against the
  cold process's answer.

``tests/store/test_cross_process.py`` drives this module; keeping it
importable (rather than an inline ``-c`` script) keeps the restart scenario
identical to the one the parent process builds from the same fixtures.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.bench.fixtures import build_bench_table, build_bench_workload
from repro.core.accuracy import AccuracySpec
from repro.core.engine import APExEngine
from repro.mechanisms.registry import default_registry
from repro.mechanisms.strategy_mechanism import search_stats
from repro.queries.query import WorkloadCountingQuery
from repro.queries.workload import matrix_cache_stats
from repro.store import ArtifactStore


def run_warm_start(
    store_dir: str,
    *,
    n_rows: int,
    n_predicates: int,
    n_amount_cuts: int,
    mc_samples: int,
    seed: int,
) -> dict[str, object]:
    """One warm-start ``preview_cost`` in this (presumed fresh) process."""
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
    costs = engine.preview_cost(query, accuracy)
    preview_seconds = time.perf_counter() - start

    stats = engine.cache_stats()
    return {
        "preview_seconds": preview_seconds,
        "matrix_builds": stats["workload_matrices"]["built"],
        "translation_builds": stats["translations"]["built"],
        "translation_disk_hits": stats["translations"]["disk_hits"],
        "mc_searches": search_stats()["searches"],
        "costs": {name: list(pair) for name, pair in costs.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.bench.store_worker")
    parser.add_argument("--store", required=True, help="artifact store directory")
    parser.add_argument("--rows", type=int, default=20_000)
    parser.add_argument("--predicates", type=int, default=64)
    parser.add_argument("--amount-cuts", type=int, default=12)
    parser.add_argument("--mc-samples", type=int, default=500)
    parser.add_argument("--seed", type=int, default=20190501)
    args = parser.parse_args(argv)
    report = run_warm_start(
        args.store,
        n_rows=args.rows,
        n_predicates=args.predicates,
        n_amount_cuts=args.amount_cuts,
        mc_samples=args.mc_samples,
        seed=args.seed,
    )
    json.dump(report, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
