"""Property-based history exerciser: random ops, real crashes, checked recovery.

:func:`run_history` is the reliability subsystem's acceptance engine.  From
one integer seed it derives a random but **reproducible** scenario:

1. a script of :mod:`repro.service.replay` requests (WCQ, ICQ and TCQ
   explores and previews, streaming appends) across a few analyst sessions;
2. a *fault plan* -- either a scripted ``kill -9``, or a crash failpoint
   armed (via ``REPRO_FAILPOINTS``) at one of the accounting-critical sites
   in :data:`~repro.reliability.faults.FAILPOINT_SITES`, sometimes after a
   few survivable hits; optionally, garbage appended to the journal tail
   after the crash (a torn last write);
3. a first worker incarnation (:mod:`repro.reliability.crash_worker`, a
   real subprocess) that runs the script until the fault kills it -- or to
   completion when the fault never fires;
4. a second incarnation over the **same journal path** that recovers and
   runs a post-crash script.

The report records every violation of:

* **the budget oracle** -- each incarnation's journal and acknowledgements
  pass :func:`~repro.reliability.reference.audit_incarnation`
  (``reliability/reference.py``);
* **transcript validity** -- the product's own Theorem 6.2 check holds on
  recovery and at shutdown (incarnation 2 runs ``assert_invariants``
  before exiting);
* **deterministic recovery** -- incarnation 2 runs *twice*, over
  byte-for-byte copies of the post-crash journal (and artifact store), and
  the two acknowledgement streams, noisy answers included, must be
  bit-identical.  Post-recovery appends are part of the replayed script,
  so snapshot-pinned answers surviving concurrent table mutation is
  covered by the same bit-identity check.

The tests (``tests/reliability/test_exerciser.py``) drive this module with
bounded seed sets; CI runs them as a named gate.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys

from repro.bench.fixtures import bench_rows, bench_schema
from repro.reliability.faults import ENV_VAR
from repro.reliability.journal import read_journal
from repro.reliability.reference import audit_incarnation
from repro.workloads.config import GeneratorConfig
from repro.workloads.scripts import query_templates

__all__ = [
    "generate_script",
    "run_history",
    "run_worker",
]

#: Failpoint sites where a crash is most likely to catch the books mid-flight.
CRASH_SITES = (
    "journal.append.before_write",
    "journal.append.before_fsync",
    "journal.append.after_fsync",
    "ledger.charge.before_journal",
    "ledger.charge.after_journal",
    "engine.explore.after_reserve",
    "engine.explore.after_run",
    "service.explore.admitted",
)


def _bench_templates(n_rows: int) -> list[str]:
    """WCQ, ICQ and TCQ query texts over ``bench_schema()``'s domains."""
    schema = bench_schema()
    tail = f"ERROR {max(0.06 * n_rows, 1.0):g} CONFIDENCE 0.9995;"
    amount = ", ".join(
        f"amount BETWEEN {low} AND {low + 1250}" for low in range(0, 10_000, 1250)
    )
    age = ", ".join(f"age BETWEEN {low} AND {low + 20}" for low in range(0, 100, 20))
    regions = ", ".join(f"region = '{v}'" for v in schema["region"].domain.values)
    channels = ", ".join(f"channel = '{v}'" for v in schema["channel"].domain.values)
    return [
        f"BIN D ON COUNT(*) WHERE W = {{{amount}}} {tail}",
        f"BIN D ON COUNT(*) WHERE W = {{{age}}} {tail}",
        f"BIN D ON COUNT(*) WHERE W = {{{regions}}} "
        f"HAVING COUNT(*) > {n_rows // 25} {tail}",
        f"BIN D ON COUNT(*) WHERE W = {{{channels}}} "
        f"ORDER BY COUNT(*) LIMIT 3 {tail}",
    ]


def generate_script(
    rng: random.Random,
    n_ops: int,
    *,
    n_rows: int = 400,
    workloads_config: dict | None = None,
) -> list[dict[str, object]]:
    """A random mixed-op script over up to three analyst sessions.

    Every op is a :mod:`repro.service.replay` request plus an ``analyst``.
    Explores and previews draw their query text from a template list:
    :func:`~repro.workloads.scripts.query_templates` for the generated
    population of ``workloads_config``, else WCQ/ICQ/TCQ texts over the
    ``n_rows``-row bench table.  Appends are ``append_rows`` batches drawn
    like the bench table or, for a population, ``generator`` ops that
    consume the stream's periods in order; once the periods are exhausted
    a would-be append is dropped, so such a script may hold fewer than
    ``n_ops`` operations.
    """
    if workloads_config is None:
        templates = _bench_templates(n_rows)
    else:
        config = GeneratorConfig.from_json(workloads_config)
        templates = query_templates(config)
        periods = iter(range(1, config.periods + 1))
    analysts = [f"a{i}" for i in range(rng.randint(1, 3))]
    script: list[dict[str, object]] = []
    for _ in range(n_ops):
        roll = rng.random()
        if roll < 0.75:
            script.append(
                {
                    "op": "explore" if roll < 0.55 else "preview",
                    "analyst": rng.choice(analysts),
                    "text": rng.choice(templates),
                }
            )
        elif workloads_config is None:
            rows = bench_rows(rng.randint(10, 120), seed=rng.randint(0, 2**31))
            script.append({"op": "append_rows", "rows": rows})
        else:
            period = next(periods, None)
            if period is not None:
                generator = {"config": workloads_config, "period": period}
                script.append({"op": "generator", "generator": generator})
    return script


def run_worker(
    journal_path: str,
    ops: list[dict[str, object]],
    *,
    budget: float,
    n_rows: int,
    seed: int,
    mc_samples: int,
    store_dir: str | None = None,
    failpoints: str | None = None,
    workloads_config: dict | None = None,
    trace_out: str | None = None,
    timeout: float = 300.0,
) -> tuple[int, list[dict[str, object]], str, list[str]]:
    """One crash-worker incarnation: ``(returncode, acked lines, stderr,
    violations)``, the last from the budget oracle's audit of its journal."""
    import repro

    before = len(read_journal(journal_path)[0])

    env = dict(os.environ)
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = package_root + os.pathsep + env.get("PYTHONPATH", "")
    if failpoints:
        env[ENV_VAR] = failpoints
    else:
        env.pop(ENV_VAR, None)
    config = None if workloads_config is None else json.dumps(workloads_config)
    options = {
        "--journal": journal_path,
        "--ops": json.dumps(ops),
        "--budget": repr(budget),
        "--rows": n_rows,
        "--seed": seed,
        "--mc-samples": mc_samples,
        "--store": store_dir,
        "--workloads-config": config,
        "--trace-out": trace_out,
    }
    argv = [sys.executable, "-m", "repro.reliability.crash_worker"]
    for flag, value in options.items():
        if value is not None:
            argv += [flag, str(value)]
    completed = subprocess.run(
        argv, capture_output=True, text=True, env=env, timeout=timeout
    )
    events: list[dict[str, object]] = []
    for line in completed.stdout.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            events.append(json.loads(line))
        except json.JSONDecodeError:
            # A crash can tear the last stdout line exactly like a torn
            # journal write; an unparseable tail is simply not an ack.
            continue
    records, _ = read_journal(journal_path)
    violations = audit_incarnation(records, events, budget=budget, before=before)
    return completed.returncode, events, completed.stderr, violations


def run_history(
    seed: int,
    *,
    work_dir: str,
    n_ops: int = 10,
    budget: float = 2.0,
    n_rows: int = 400,
    mc_samples: int = 150,
    use_store: bool = False,
    workloads_config: dict | None = None,
) -> dict[str, object]:
    """One full generate / run / crash / recover / check cycle for ``seed``.

    Returns a report dict whose ``violations`` list is empty iff every
    invariant held; callers assert on ``report["violations"] == []`` so a
    failure message carries the whole scenario (seed, fault plan, books).
    For a *failing* history the report's ``trace_files`` lists the Chrome
    trace-event dumps of the two recovery incarnations (kept under
    ``work_dir``); clean histories delete them and report an empty list.

    With ``workloads_config`` the scenario runs over a generated
    microsimulation stream instead of the bench table: :func:`generate_script`
    draws the population's query templates and ``generator`` appends, and
    both incarnations host the config's population (the second rebuilds
    the same initial population from the config's seed, as a restarted
    service would).
    """
    rng = random.Random(seed)
    os.makedirs(work_dir, exist_ok=True)
    journal_path = os.path.join(work_dir, "ledger.wal")
    store_dir = os.path.join(work_dir, "store") if use_store else None

    scripts = dict(n_rows=n_rows, workloads_config=workloads_config)
    script = generate_script(rng, n_ops, **scripts)
    post_script = generate_script(rng, max(2, n_ops // 2), **scripts)

    # -- fault plan ------------------------------------------------------------
    fault_kind = rng.choice(["failpoint", "scripted", "none"])
    failpoints = None
    if fault_kind == "failpoint":
        site = rng.choice(CRASH_SITES)
        count = rng.randint(1, 3)
        failpoints = f"{site}=crash:{count}"
    elif fault_kind == "scripted":
        script.insert(rng.randint(0, len(script)), {"op": "crash"})
    corrupt_tail = rng.random() < 0.4

    common = dict(
        budget=budget,
        n_rows=n_rows,
        seed=seed,
        mc_samples=mc_samples,
        workloads_config=workloads_config,
    )
    violations: list[str] = []

    returncode, events, stderr, audit = run_worker(
        journal_path, script, store_dir=store_dir, failpoints=failpoints, **common
    )
    violations += [f"incarnation 1: {v}" for v in audit]
    crashed = returncode != 0
    if returncode not in (0, -9):
        # A SIGKILL (rc -9) is the *planned* failure mode; any other nonzero
        # exit is the worker tripping over a real bug -- surface it.
        violations.append(
            f"incarnation 1 died abnormally: rc={returncode} {stderr.strip()!r}"
        )
    if fault_kind == "scripted" and returncode != -9:
        violations.append(f"scripted crash never fired (rc={returncode})")

    if corrupt_tail and os.path.exists(journal_path):
        with open(journal_path, "ab") as handle:
            handle.write(rng.randbytes(rng.randint(1, 40)))

    # -- recovery, twice over byte-identical copies ---------------------------
    streams: list[list[dict[str, object]]] = []
    trace_files: list[str] = []
    for copy in ("r1", "r2"):
        copy_dir = os.path.join(work_dir, copy)
        os.makedirs(copy_dir, exist_ok=True)
        copy_journal = os.path.join(copy_dir, "ledger.wal")
        if os.path.exists(journal_path):
            shutil.copy2(journal_path, copy_journal)
        copy_store = None
        if store_dir is not None:
            copy_store = os.path.join(copy_dir, "store")
            if os.path.isdir(store_dir):
                shutil.copytree(store_dir, copy_store, dirs_exist_ok=True)
        # Recovery incarnations always run to completion, so (unlike the
        # possibly SIGKILL'd incarnation 1) their traces are always written;
        # a failing history keeps them for post-mortem, a clean one doesn't.
        copy_trace = os.path.join(copy_dir, "trace.json")
        rc2, events2, stderr2, audit = run_worker(
            copy_journal,
            post_script,
            store_dir=copy_store,
            trace_out=copy_trace,
            **common,
        )
        if os.path.exists(copy_trace):
            trace_files.append(copy_trace)
        violations += [f"({copy}) {v}" for v in audit]
        streams.append(events2)
        if rc2 != 0:
            violations.append(
                f"recovery incarnation ({copy}) failed: rc={rc2} {stderr2.strip()!r}"
            )
            continue
        recovered = next((e for e in events2 if e.get("event") == "recovered"), None)
        if recovered is None:
            violations.append(f"({copy}) emitted no recovery report")
        elif not recovered["valid"]:
            violations.append(f"({copy}) recovered transcript is invalid")
        done = next((e for e in events2 if e.get("event") == "done"), None)
        if done is None:
            violations.append(f"({copy}) never reached a clean shutdown")
        elif not done["valid"]:
            violations.append(f"({copy}) final transcript is invalid")

    if len(streams) == 2 and streams[0] != streams[1]:
        violations.append(
            "recovery is nondeterministic: the two incarnations over "
            "identical journals diverged"
        )

    if not violations:
        for path in trace_files:
            try:
                os.remove(path)
            except OSError:
                pass
        trace_files = []

    return {
        "seed": seed,
        "fault": failpoints or fault_kind,
        "workloads": workloads_config is not None,
        "corrupt_tail": corrupt_tail,
        "crashed": crashed,
        "incarnation1_events": len(events),
        "trace_files": trace_files,
        "violations": violations,
        "ok": not violations,
    }
