"""Subprocess worker driven by the reliability exerciser and crash tests.

``python -m repro.reliability.crash_worker --journal PATH --ops JSON ...``
stands up a real :class:`~repro.service.ExplorationService` over the
deterministic bench table (or, with ``--workloads-config``, a generated
microsimulation population), attaches the write-ahead
:class:`~repro.reliability.journal.LedgerJournal` at ``PATH`` (recovering
whatever a previous incarnation left there), arms any failpoints named in
``REPRO_FAILPOINTS`` and runs the scripted operations.  It prints a
``recovered`` line, then after each operation **one flushed JSON line**, its
*acknowledgement*, and on a clean finish a ``done`` line with the closing
books.  The parent knows exactly which operations were acknowledged before
a ``kill -9``; the budget oracle
(:func:`~repro.reliability.reference.audit_incarnation`) judges the
journal against those lines.

``--ops`` is a JSON list of requests in the replay format of
:mod:`repro.service.replay` (``docs/architecture.md``, "Replay script
format"), each with an ``analyst`` field (default ``a0``) and run through
:func:`~repro.service.replay.run_request`, so an ack carries the request's
outcome.  The one worker-only op is ``{"op": "crash"}``: an unconditional
``os.kill(SIGKILL)``.  Keeping this scenario in an importable module (rather
than inline ``-c`` scripts) keeps it identical across the exerciser and the
crash-recovery tests.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

from repro.mechanisms.registry import default_registry
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


def run_script(
    journal_path: str,
    ops: list[dict[str, object]],
    *,
    budget: float,
    n_rows: int,
    seed: int,
    mc_samples: int,
    store_dir: str | None = None,
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
    from repro.service.replay import GeneratorPool, ScriptRequest, run_request

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
    generators = GeneratorPool()
    try:
        for index, op in enumerate(ops):
            if op["op"] == "crash":
                _emit({"event": "crashing", "index": index})
                os.kill(os.getpid(), signal.SIGKILL)
            analyst = str(op.get("analyst", "a0"))
            if analyst not in analysts:
                service.register_analyst(analyst)
                analysts.add(analyst)
            outcome = run_request(
                service, analyst, "default", ScriptRequest.from_json(op), generators
            )
            ack = {
                "event": "ack",
                "index": index,
                **outcome.to_json(),
                "spent_total": service.budget_spent,
            }
            _emit({key: value for key, value in ack.items() if value is not None})

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
    parser.add_argument(
        "--ops", required=True, help="JSON list of replay requests (and crash ops)"
    )
    parser.add_argument("--budget", type=float, default=2.0)
    parser.add_argument("--rows", type=int, default=800)
    parser.add_argument("--seed", type=int, default=20190501)
    parser.add_argument("--mc-samples", type=int, default=200)
    parser.add_argument("--store", default=None, help="artifact store directory")
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
        workloads_config=workloads_config,
        trace_out=args.trace_out,
    )


if __name__ == "__main__":
    sys.exit(main())
