"""``python -m repro.workloads``: generate (and optionally replay) a stream.

Emits a multi-analyst replay script for a seeded microsimulation stream and,
with ``--replay``, hosts the generated population in an
:class:`~repro.service.ExplorationService` and replays the whole run in one
command -- the ``generator`` ops stream the per-period append batches while
the analyst threads interleave their query mixes::

    python -m repro.workloads --out stream.json          # emit the script
    python -m repro.workloads --drift mixed --replay     # generate + replay
    python -m repro.workloads --periods 20 \\
        --rows-per-period 50000 --replay                 # ~1M-row streaming run

Exit status mirrors ``python -m repro.service``: non-zero when a replayed
request hard-errors or the merged transcript fails validation.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.workloads.config import DRIFT_MODES, GeneratorConfig
from repro.workloads.population import MicrosimulationGenerator
from repro.workloads.scripts import emit_script_payload, write_script


def build_config(args: argparse.Namespace) -> GeneratorConfig:
    if args.config is not None:
        return GeneratorConfig.from_file(args.config)
    return GeneratorConfig(
        seed=args.seed,
        initial_rows=args.initial_rows,
        periods=args.periods,
        rows_per_period=args.rows_per_period,
        drift=args.drift,
        drift_every=args.drift_every,
        analysts=args.analysts,
        queries_per_analyst=args.queries_per_analyst,
        budget=args.budget,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.workloads",
        description="Generate a longitudinal microsimulation workload stream.",
    )
    parser.add_argument("--config", default=None, help="GeneratorConfig JSON file")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--initial-rows", type=int, default=5_000)
    parser.add_argument("--periods", type=int, default=8)
    parser.add_argument("--rows-per-period", type=int, default=1_000)
    parser.add_argument("--drift", choices=DRIFT_MODES, default="preserve")
    parser.add_argument("--drift-every", type=int, default=3)
    parser.add_argument("--analysts", type=int, default=3)
    parser.add_argument("--queries-per-analyst", type=int, default=4)
    parser.add_argument("--budget", type=float, default=50.0)
    parser.add_argument("--out", default=None, help="write the replay script here")
    parser.add_argument(
        "--replay",
        action="store_true",
        help="host the generated population and replay the script now",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        help="with --replay: write the run's span trees as a Chrome "
        "trace-event JSON file (open in chrome://tracing or Perfetto)",
    )
    args = parser.parse_args(argv)
    config = build_config(args)

    schedule = config.drift_schedule()
    print(
        f"stream: {config.describe()} "
        f"({sum(schedule)} code-introducing periods of {config.periods})"
    )
    if args.out is not None:
        write_script(config, args.out)
        print(f"wrote {args.out}")
    if not args.replay:
        if args.out is None:
            json.dump(emit_script_payload(config), sys.stdout, indent=2)
            sys.stdout.write("\n")
        return 0

    # Imported lazily: emitting a script should not pull in the service.
    from repro.service.exploration import ExplorationService
    from repro.service.replay import AnalystScript, ScriptRequest, replay

    generator = MicrosimulationGenerator(config)
    service = ExplorationService(
        {config.table: generator.build_table()},
        budget=config.budget,
        seed=config.seed,
    )
    payload = emit_script_payload(config)
    scripts = [
        AnalystScript(
            analyst=spec["name"],
            table=spec["table"],
            requests=tuple(
                ScriptRequest(
                    op=r["op"],
                    text=r.get("text", ""),
                    generator=r.get("generator"),
                )
                for r in spec["requests"]
            ),
        )
        for spec in payload["analysts"]
    ]
    tracer = None
    if args.trace_out is not None:
        from repro.obs.tracing import Tracer, install_tracer

        tracer = Tracer(1.0, keep_traces=4096, seed=config.seed)
        previous = install_tracer(tracer)
    try:
        report = replay(service, scripts)
    finally:
        if tracer is not None:
            install_tracer(previous)
    if tracer is not None:
        from repro.obs.export import write_chrome_trace

        n_events = write_chrome_trace(args.trace_out, tracer.drain())
        print(f"wrote {args.trace_out} ({n_events} trace events)")
    errors = [o for o in report.outcomes if o.error]
    appended = [o for o in report.outcomes if o.op == "generator"]
    answered = sum(
        1
        for o in report.outcomes
        if o.op == "explore" and not o.denied and not o.error
    )
    print(
        f"replayed {len(scripts)} analysts: {len(appended)} generator periods, "
        f"{answered} explores answered, {len(errors)} errors"
    )
    print(
        f"  privacy spent: {report.epsilon_spent:.4f} of {report.budget}; "
        f"transcript valid: {report.transcript_valid}"
    )
    for outcome in errors:
        print(f"  ERROR {outcome.analyst}: {outcome.error}", file=sys.stderr)
    if errors:
        return 2
    return 0 if report.transcript_valid else 1


if __name__ == "__main__":
    sys.exit(main())
