"""Subprocess worker: fresh-process probes for generated workloads.

``python -m repro.workloads.worker`` runs one of two probes in a **fresh
interpreter** and prints a JSON report to stdout:

* ``--probe warm-start`` -- the named-opaque-predicate restart scenario:
  rebuild the generator's initial population from its config, attach the
  :class:`~repro.store.ArtifactStore` at ``--store``, re-create the
  :func:`~repro.workloads.scripts.named_screen_workload` (same declared
  predicate identities), and run one ``preview_cost``.  Because the
  predicates declare ``(name, version)`` identities, the report's
  acceptance shape is zero Monte-Carlo searches / zero translation builds
  with the disk tier answering instead -- the same criterion the exact
  workloads meet in ``repro.bench.store_worker``.
* ``--probe stream`` -- regenerate the full stream (initial rows plus every
  period batch plus the emitted replay script) and print a digest of the
  canonical JSON.  Two fresh interpreters printing the same digest is the
  bit-exact determinism property pinned by ``tests/property``.

Keeping both probes importable keeps the restart and determinism scenarios
identical between the parent process that seeds them and the fresh
interpreters ``tests/workloads`` and ``tests/property`` spawn.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

from repro.core.accuracy import AccuracySpec
from repro.core.engine import APExEngine
from repro.mechanisms.registry import default_registry
from repro.mechanisms.strategy_mechanism import search_stats
from repro.queries.query import WorkloadCountingQuery
from repro.store import ArtifactStore
from repro.workloads.config import GeneratorConfig
from repro.workloads.population import MicrosimulationGenerator, generate_stream
from repro.workloads.scripts import emit_script_payload, named_screen_workload


def run_named_warm_start(
    store_dir: str,
    config: GeneratorConfig,
    *,
    n_screens: int = 6,
    mc_samples: int = 300,
) -> dict[str, object]:
    """One warm-start preview of the named-screen workload in this process."""
    generator = MicrosimulationGenerator(config)
    table = generator.build_table()
    engine = APExEngine(
        table,
        budget=config.budget,
        registry=default_registry(mc_samples=mc_samples),
        seed=config.seed,
        store=ArtifactStore(store_dir),
    )
    accuracy = AccuracySpec(alpha=0.1 * len(table), beta=1e-3)
    query = WorkloadCountingQuery(
        named_screen_workload(n_screens), name="income-screens", disjoint=True
    )
    start = time.perf_counter()
    costs = engine.preview_cost(query, accuracy)
    preview_seconds = time.perf_counter() - start
    stats = engine.cache_stats()
    return {
        "probe": "warm-start",
        "preview_seconds": preview_seconds,
        "translation_builds": stats["translations"]["built"],
        "translation_disk_hits": stats["translations"]["disk_hits"],
        "mc_searches": search_stats()["searches"],
        "costs": {name: list(pair) for name, pair in costs.items()},
    }


def stream_digest(config: GeneratorConfig) -> dict[str, object]:
    """Digest of the fully realised stream (population + batches + script)."""
    initial, batches = generate_stream(config)
    payload = {
        "initial": initial,
        "batches": [
            {
                "period": batch.period,
                "rows": list(batch.rows),
                "introduces": {k: list(v) for k, v in batch.introduces.items()},
                "changes_fingerprint": batch.changes_fingerprint,
                "widened": batch.widened,
            }
            for batch in batches
        ],
        "script": emit_script_payload(config),
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return {
        "probe": "stream",
        "rows": len(initial) + sum(len(b.rows) for b in batches),
        "sha256": hashlib.sha256(canonical.encode("utf-8")).hexdigest(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.workloads.worker")
    parser.add_argument(
        "--probe", choices=("warm-start", "stream"), default="warm-start"
    )
    parser.add_argument(
        "--config-json",
        required=True,
        help="GeneratorConfig as an inline JSON object",
    )
    parser.add_argument("--store", help="artifact store directory (warm-start)")
    parser.add_argument("--screens", type=int, default=6)
    parser.add_argument("--mc-samples", type=int, default=300)
    args = parser.parse_args(argv)
    config = GeneratorConfig.from_json(json.loads(args.config_json))
    if args.probe == "warm-start":
        if not args.store:
            parser.error("--probe warm-start requires --store")
        report = run_named_warm_start(
            args.store,
            config,
            n_screens=args.screens,
            mc_samples=args.mc_samples,
        )
    else:
        report = stream_digest(config)
    json.dump(report, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
