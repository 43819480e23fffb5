"""``python -m repro.service``: replay a multi-analyst workload concurrently.

Spins up an :class:`~repro.service.ExplorationService` over the synthetic
Adult and/or NYTaxi tables, replays a multi-analyst workload script (the
built-in mix, or a JSON script via ``--script``) with one thread per analyst,
and reports the merged transcript together with its Theorem 6.2 validity
verdict::

    python -m repro.service                          # 4 analysts on Adult
    python -m repro.service --analysts 8 --tables adult taxi
    python -m repro.service --policy fixed-share --budget 4.0
    python -m repro.service --script my_workload.json --output report.json

Exit status is non-zero when the merged transcript fails validation or the
total charged epsilon exceeds the owner budget -- the two invariants the
concurrent service exists to protect.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.data.adult import generate_adult
from repro.data.nytaxi import generate_nytaxi
from repro.service.exploration import ExplorationService
from repro.service.replay import default_script, load_script, replay

_TOLERANCE = 1e-9


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Replay a concurrent multi-analyst exploration workload.",
    )
    parser.add_argument(
        "--analysts", type=int, default=4, help="number of concurrent analysts"
    )
    parser.add_argument(
        "--budget", type=float, default=10.0, help="owner's total privacy budget B"
    )
    parser.add_argument(
        "--policy",
        choices=("first-come", "fixed-share"),
        default="first-come",
        help="how B is split across analysts",
    )
    parser.add_argument(
        "--tables",
        nargs="+",
        choices=("adult", "taxi"),
        default=["adult"],
        help="which synthetic tables to host",
    )
    parser.add_argument(
        "--adult-rows", type=int, default=32_561, help="rows of the Adult table"
    )
    parser.add_argument(
        "--taxi-rows", type=int, default=50_000, help="rows of the NYTaxi table"
    )
    parser.add_argument(
        "--script", default=None, help="JSON replay script (see repro.service.replay)"
    )
    parser.add_argument("--seed", type=int, default=0, help="base RNG seed")
    parser.add_argument(
        "--output", default=None, help="write the full JSON report to this path"
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        help="write the replay's span trees as a Chrome trace-event JSON file "
        "(open in chrome://tracing or Perfetto)",
    )
    args = parser.parse_args(argv)

    tables = {}
    if "adult" in args.tables:
        tables["adult"] = generate_adult(n_rows=args.adult_rows, seed=args.seed)
    if "taxi" in args.tables:
        tables["taxi"] = generate_nytaxi(n_rows=args.taxi_rows, seed=args.seed)

    if args.script is not None:
        scripts = load_script(args.script)
    else:
        scripts = default_script(
            args.analysts,
            tables=tuple(args.tables),
            adult_rows=args.adult_rows,
            taxi_rows=args.taxi_rows,
        )

    service = ExplorationService(
        tables,
        budget=args.budget,
        policy=args.policy,
        # Fixed shares are sized from the workload actually being replayed,
        # which for --script may differ from --analysts.
        max_analysts=len(scripts) if args.policy == "fixed-share" else None,
        seed=args.seed,
    )

    tracer = None
    if args.trace_out is not None:
        from repro.obs.tracing import Tracer, install_tracer

        tracer = Tracer(1.0, keep_traces=4096, seed=args.seed)
        previous = install_tracer(tracer)
    try:
        report = replay(service, scripts)
    finally:
        if tracer is not None:
            install_tracer(previous)

    errors = [o for o in report.outcomes if o.error]
    answered = sum(
        1
        for o in report.outcomes
        if o.op == "explore" and not o.denied and not o.error
    )
    denied = sum(1 for o in report.outcomes if o.op == "explore" and o.denied)
    previews = sum(1 for o in report.outcomes if o.op == "preview" and not o.error)
    print(
        f"replayed {len(scripts)} analysts over {sorted(tables)} "
        f"(policy={args.policy}, B={args.budget})"
    )
    print(
        f"  explores answered: {answered}, denied: {denied}, previews: {previews}, "
        f"errors: {len(errors)}"
    )
    print(
        f"  privacy spent: {report.epsilon_spent:.4f} of {report.budget} "
        f"(remaining {service.budget_remaining:.4f})"
    )
    for kind, agg in report.latency.items():
        print(
            f"  latency[{kind}]: n={agg['count']:.0f}, "
            f"mean={agg['mean_seconds'] * 1000:.2f}ms, "
            f"max={agg['max_seconds'] * 1000:.2f}ms"
        )
    print(f"  merged transcript valid (Theorem 6.2): {report.transcript_valid}")
    for outcome in errors:
        print(f"  ERROR {outcome.analyst}: {outcome.error}", file=sys.stderr)

    if args.output is not None:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(report.to_json(), fh, indent=2)
        print(f"wrote {args.output}")

    if tracer is not None:
        from repro.obs.export import write_chrome_trace

        n_events = write_chrome_trace(args.trace_out, tracer.drain())
        print(f"wrote {args.trace_out} ({n_events} trace events)")

    overspent = report.epsilon_spent > report.budget + _TOLERANCE
    if overspent:
        print("BUDGET VIOLATION: total epsilon exceeds B", file=sys.stderr)
    if errors:
        return 2
    return 0 if (report.transcript_valid and not overspent) else 1


if __name__ == "__main__":
    sys.exit(main())
