"""Subprocess worker driven by the reliability exerciser and crash tests.

``python -m repro.reliability.crash_worker --journal PATH --ops JSON ...``
stands up a real :class:`~repro.service.ExplorationService` over the
deterministic bench table, attaches the write-ahead
:class:`~repro.reliability.journal.LedgerJournal` at ``PATH`` (recovering
whatever a previous incarnation left there), arms any failpoints named in
``REPRO_FAILPOINTS``, and executes a scripted list of operations.  After
each operation completes it prints **one JSON line to stdout and flushes
it** -- that line is the operation's *acknowledgement*.  When the process
is killed mid-script (by an armed ``crash`` failpoint or an external
``kill -9``), the parent knows exactly which operations were acknowledged
before the crash and can check the recovery invariants:

* every acknowledged, answered explore's ``epsilon_spent`` must be covered
  by the next incarnation's recovered spend (**no under-counting**);
* recovered spend never exceeds the budget ``B`` and the recovered merged
  transcript passes the Theorem 6.2 validity check;
* given identical seeds/scripts, two incarnations recovering from copies
  of the same journal produce **bit-identical** acknowledgement streams.

Supported operations (``--ops`` is a JSON list of objects):

==============  ================================================================
``op``          fields
==============  ================================================================
``explore``     ``analyst``, ``bins`` (histogram width), ``alpha_frac``
                (alpha as a fraction of the table size), ``name``, and an
                optional ``attribute`` (default ``amount``) whose histogram
                range is taken from the table schema's declared domain
``preview``     same fields as ``explore``; costs no privacy
``append``      ``n`` rows appended to the table, generated from ``seed``
``append_rows`` ``rows``: explicit ``{attribute: value}`` dicts to append
                (how generated microsimulation batches reach the worker)
``crash``       ``os.kill(SIGKILL)`` -- an unconditional scripted crash
==============  ================================================================

By default the worker hosts the deterministic bench table;
``--workloads-config`` (a :class:`~repro.workloads.config.GeneratorConfig`
JSON object) hosts a generated microsimulation population instead, so the
exerciser can crash-test the engine under generated longitudinal streams.

A final ``{"event": "done", ...}`` line carries the incarnation's closing
books (total spent, transcript validity, ledger-invariant check) so a
*cleanly finished* worker can be audited too.  Keeping this scenario in an
importable module (rather than inline ``-c`` scripts) keeps it identical
across the exerciser and the crash-recovery tests.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

from repro.core.accuracy import AccuracySpec
from repro.core.exceptions import ApexError
from repro.mechanisms.registry import default_registry
from repro.queries.builders import histogram_workload
from repro.queries.query import WorkloadCountingQuery
from repro.reliability.faults import arm_from_env
from repro.reliability.journal import LedgerJournal
from repro.store import ArtifactStore

__all__ = ["run_script", "main"]

#: Exit code for a script that ran to completion (distinct from crash kills).
EXIT_OK = 0


def _emit(payload: dict[str, object]) -> None:
    """One acknowledgement line, durable in the pipe before we move on."""
    sys.stdout.write(json.dumps(payload, sort_keys=True))
    sys.stdout.write("\n")
    sys.stdout.flush()


def _append_rows(n: int, seed: int) -> list[dict[str, object]]:
    """Deterministic rows matching the bench schema (amount/age/region/channel)."""
    import numpy as np

    rng = np.random.default_rng(seed)
    regions = ["north", "south", "east", "west"]
    channels = ["web", "store", "phone"]
    rows: list[dict[str, object]] = []
    for _ in range(n):
        rows.append(
            {
                "region": regions[int(rng.integers(0, len(regions)))],
                "channel": channels[int(rng.integers(0, len(channels)))],
                "amount": float(rng.uniform(0, 10_000)),
                "age": float(rng.integers(0, 101)),
            }
        )
    return rows


def run_script(
    journal_path: str,
    ops: list[dict[str, object]],
    *,
    budget: float,
    n_rows: int,
    seed: int,
    mc_samples: int,
    store_dir: str | None = None,
    request_deadline: float | None = None,
    workloads_config: dict | None = None,
    trace_out: str | None = None,
) -> int:
    """Execute ``ops`` against a journaled service; ack each op on stdout.

    With ``trace_out``, every request is traced (full sampling) and the span
    trees are dumped as a Chrome trace-event file when the incarnation ends
    -- cleanly or by a propagating error.  A SIGKILL mid-script writes
    nothing (nothing can), but the *recovery* incarnations of a history
    always finish, so a failing history still yields causally-ordered
    traces of the runs that exposed it.
    """
    from repro.bench.fixtures import build_bench_table
    from repro.service import ExplorationService

    arm_from_env()
    tracer = None
    if trace_out is not None:
        from repro.obs.tracing import Tracer, install_tracer

        tracer = Tracer(1.0, keep_traces=4096, seed=seed)
        install_tracer(tracer)
    if workloads_config is not None:
        from repro.workloads import GeneratorConfig, MicrosimulationGenerator

        table = MicrosimulationGenerator(
            GeneratorConfig.from_json(workloads_config)
        ).build_table()
    else:
        table = build_bench_table(n_rows, seed=seed)
    journal = LedgerJournal(journal_path)
    service = ExplorationService(
        table,
        budget=budget,
        registry=default_registry(mc_samples=mc_samples),
        seed=seed,
        store=None if store_dir is None else ArtifactStore(store_dir),
        journal=journal,
        request_deadline=request_deadline,
    )
    recovery = journal.recovery
    _emit(
        {
            "event": "recovered",
            "spent": service.budget_spent,
            "records": len(recovery.records),
            "truncated_bytes": recovery.truncated_bytes,
            "valid": service.validate(),
        }
    )

    analysts: set[str] = set()

    def _handle(analyst: str):
        if analyst not in analysts:
            service.register_analyst(analyst)
            analysts.add(analyst)
        return analyst

    try:
        for index, op in enumerate(ops):
            kind = str(op["op"])
            ack: dict[str, object] = {"event": "ack", "index": index, "op": kind}
            if kind in ("explore", "preview"):
                analyst = _handle(str(op.get("analyst", "a0")))
                bins = int(op.get("bins", 8))
                alpha_frac = float(op.get("alpha_frac", 0.05))
                name = str(op.get("name", f"q-{index}"))
                attribute = str(op.get("attribute", "amount"))
                domain = table.schema[attribute].domain
                query = WorkloadCountingQuery(
                    histogram_workload(
                        attribute,
                        start=float(domain.low),
                        stop=float(domain.high),
                        bins=bins,
                    ),
                    name=name,
                )
                accuracy = AccuracySpec(
                    alpha=max(alpha_frac * len(table), 1.0), beta=5e-4
                )
                if kind == "preview":
                    costs = service.preview_cost(analyst, query, accuracy)
                    ack["costs"] = {
                        mech: [float(lo), float(hi)]
                        for mech, (lo, hi) in costs.items()
                    }
                else:
                    try:
                        result = service.explore(analyst, query, accuracy)
                    except ApexError as exc:
                        # Denials-by-exception (e.g. exhausted share) still
                        # ack: the op completed, it just spent nothing.
                        ack["error"] = type(exc).__name__
                        ack["epsilon_spent"] = 0.0
                    else:
                        ack["denied"] = bool(result.denied)
                        ack["epsilon_spent"] = float(result.epsilon_spent)
                        counts = (
                            result.noisy_counts
                            if result.noisy_counts is not None
                            else result.answer
                        )
                        if counts is not None:
                            ack["answer"] = [float(v) for v in counts]
            elif kind == "append":
                version = service.append_rows(
                    "default",
                    _append_rows(
                        int(op.get("n", 50)), int(op.get("seed", seed + index))
                    ),
                )
                ack["version"] = version.ordinal
            elif kind == "append_rows":
                rows = [dict(row) for row in op.get("rows", ())]
                if not rows:
                    raise ApexError("an append_rows op needs a non-empty 'rows' list")
                version = service.append_rows("default", rows)
                ack["version"] = version.ordinal
                ack["rows"] = len(rows)
            elif kind == "crash":
                _emit({"event": "crashing", "index": index})
                os.kill(os.getpid(), signal.SIGKILL)
            else:
                raise ApexError(f"unknown scripted op {kind!r}")
            ack["spent_total"] = service.budget_spent
            _emit(ack)

        service.assert_invariants()
        _emit(
            {
                "event": "done",
                "spent": service.budget_spent,
                "valid": service.validate(),
                "journal": journal.stats(),
            }
        )
        journal.close()
        return EXIT_OK
    finally:
        if tracer is not None:
            from repro.obs.export import write_chrome_trace

            write_chrome_trace(trace_out, tracer.drain())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.reliability.crash_worker")
    parser.add_argument("--journal", required=True, help="write-ahead journal path")
    parser.add_argument("--ops", required=True, help="JSON list of scripted ops")
    parser.add_argument("--budget", type=float, default=2.0)
    parser.add_argument("--rows", type=int, default=800)
    parser.add_argument("--seed", type=int, default=20190501)
    parser.add_argument("--mc-samples", type=int, default=200)
    parser.add_argument("--store", default=None, help="artifact store directory")
    parser.add_argument("--deadline", type=float, default=None)
    parser.add_argument(
        "--workloads-config",
        default=None,
        help="GeneratorConfig JSON: host a generated population instead of "
        "the bench table",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        help="dump this incarnation's span trees as a Chrome trace-event "
        "JSON file at exit",
    )
    args = parser.parse_args(argv)
    ops = json.loads(args.ops)
    if not isinstance(ops, list):
        raise SystemExit("--ops must be a JSON list")
    workloads_config = (
        None if args.workloads_config is None else json.loads(args.workloads_config)
    )
    if workloads_config is not None and not isinstance(workloads_config, dict):
        raise SystemExit("--workloads-config must be a JSON object")
    return run_script(
        args.journal,
        ops,
        budget=args.budget,
        n_rows=args.rows,
        seed=args.seed,
        mc_samples=args.mc_samples,
        store_dir=args.store,
        request_deadline=args.deadline,
        workloads_config=workloads_config,
        trace_out=args.trace_out,
    )


if __name__ == "__main__":
    sys.exit(main())
