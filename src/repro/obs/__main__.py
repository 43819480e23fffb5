"""``python -m repro.obs``: run a small replay and export what it observed.

A smoke-sized demonstration of the observability surface: spin up an
:class:`~repro.service.exploration.ExplorationService` over the synthetic
Adult table, replay the built-in multi-analyst workload with a tracer
installed, then emit

* the service's flat metric view (:meth:`ExplorationService.as_metrics`)
  -- Prometheus text (default) or JSON
  (``--format json``) -- on stdout or to ``--output``;
* optionally, the sampled span trees as a Chrome trace-event file
  (``--trace-out trace.json``; open in ``chrome://tracing`` or Perfetto).

::

    python -m repro.obs                               # prometheus text
    python -m repro.obs --format json --output m.json
    python -m repro.obs --trace-out trace.json --sample-rate 1.0
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.data.adult import generate_adult
from repro.obs.export import prometheus_text, write_chrome_trace
from repro.obs.tracing import Tracer, install_tracer
from repro.service.exploration import ExplorationService
from repro.service.replay import default_script, replay


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Replay a small workload and export metrics/traces.",
    )
    parser.add_argument(
        "--format",
        choices=("prometheus", "json"),
        default="prometheus",
        help="metrics output format",
    )
    parser.add_argument(
        "--analysts", type=int, default=3, help="number of concurrent analysts"
    )
    parser.add_argument(
        "--rows", type=int, default=2_000, help="rows of the synthetic Adult table"
    )
    parser.add_argument(
        "--budget", type=float, default=6.0, help="owner's total privacy budget B"
    )
    parser.add_argument(
        "--sample-rate",
        type=float,
        default=1.0,
        help="head-sampling probability for traces (0 disables, 1 keeps all)",
    )
    parser.add_argument("--seed", type=int, default=0, help="base RNG seed")
    parser.add_argument(
        "--output", default=None, help="write the metrics dump to this path"
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        help="write sampled span trees as a Chrome trace-event JSON file",
    )
    args = parser.parse_args(argv)

    tables = {"adult": generate_adult(n_rows=args.rows, seed=args.seed)}
    service = ExplorationService(tables, budget=args.budget, seed=args.seed)

    tracer = Tracer(args.sample_rate, seed=args.seed)
    previous = install_tracer(tracer)
    try:
        scripts = default_script(args.analysts, adult_rows=args.rows)
        replay(service, scripts)
    finally:
        install_tracer(previous)

    metrics = service.as_metrics()
    if args.format == "json":
        dump = json.dumps(metrics, indent=2, sort_keys=True) + "\n"
    else:
        dump = prometheus_text(metrics)
    if args.output is not None:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(dump)
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(dump)

    if args.trace_out is not None:
        n_events = write_chrome_trace(args.trace_out, tracer.drain())
        print(f"wrote {args.trace_out} ({n_events} trace events)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
