"""End-to-end APEx benchmark: one command per workload.

    python3 benchmarks/e2e/run.py --workload cold_translate --seed 1 --seconds 12 --trace 0

Runs the workload's rounds one after another, each in a fresh interpreter
with a pinned environment (``rounds.py``), pools their normalized samples,
prints every metric by name and unit, writes the full payload under
``benchmarks/e2e/out/``, and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs one untraced and one traced round and reports the
per-layer metrics.  The command exits non-zero when any check fails, and
exits 2 without a result when the checkout holds no ``src/repro``.
See ``README.md`` for the metric catalog and the method.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from measure import REF_NOMINAL_S, Block, percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT = HERE / "out"
WORKLOADS = ("cold_translate", "warm_replay", "append_stream", "er_clean")
ROUNDS = 3
SMOKE_ROUNDS = 2
#: Environment every round runs under.  One BLAS thread keeps a request's
#: BLAS work inside its own thread's CPU time.
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
#: A whole run, priming included, must end within this many seconds.
RUN_DEADLINE_S = 170.0


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="End-to-end APEx benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True,
                        help="nominal CPU seconds of the timed phase, over all rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own self-tests")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no src/repro under {ROOT}; run from a full checkout", file=sys.stderr)
        return 2
    catalog = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    deadline = time.monotonic() + RUN_DEADLINE_S
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    rounds = []
    try:
        store = _primed_store(args, deadline) if args.workload == "warm_replay" else None
        plan = [(0, 0), (0, 1)] if args.trace else [
            (r, 0) for r in range(SMOKE_ROUNDS if args.smoke else ROUNDS)
        ]
        tag = f"{args.workload}-s{args.seed}" + ("-trace" if args.trace else "") + (
            "-smoke" if args.smoke else "")
        for round_index, traced in plan:
            rounds.append(_run_round(
                args, round_index, traced, work, store, deadline,
                chrome=OUT / f"{tag}.chrome.json" if traced else None,
            ))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    payload = build_payload(args, rounds)
    (OUT / f"{tag}.json").write_text(json.dumps(payload) + "\n", encoding="utf-8")
    wanted = catalog["per_layer" if args.trace else "end_to_end"]
    metrics = payload["layer_metrics" if args.trace else "metrics"]
    result = report(payload, metrics, wanted)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _run_round(args, round_index, traced, work, store, deadline, chrome) -> dict:
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    if store is not None:
        shutil.copytree(store, work / "store")
    out = work / "round.json"
    command = _round_command(args, work) + [
        "--round", str(round_index),
        "--seconds", repr(args.seconds / ROUNDS),
        "--trace", str(traced),
        "--out", str(out),
    ]
    if chrome is not None:
        command += ["--chrome-out", str(chrome)]
    started = time.perf_counter()
    _spawn(command, deadline)
    record = json.loads(out.read_text(encoding="utf-8"))
    record["subprocess_wall_s"] = time.perf_counter() - started
    return record


def _round_command(args, work: Path) -> list[str]:
    command = [sys.executable, str(HERE / "rounds.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--work-dir", str(work)]
    return command + (["--smoke"] if args.smoke else [])


def _spawn(command: list[str], deadline: float) -> None:
    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    timeout = max(1.0, deadline - time.monotonic())
    # subprocess.run kills the child and waits for it on timeout.
    subprocess.run(command, env=env, cwd=ROOT, check=True, timeout=timeout,
                   stdout=sys.stderr)


def _primed_store(args, deadline: float) -> Path:
    """The warm_replay artifact store, primed once per source tree.

    Priming only translates the fixed Table 1 queries over the fixed
    tables, so its result depends on the code alone; it is cached under a
    digest of ``src/repro`` and ``rounds.py`` and copied into every round.
    """
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")) + [HERE / "rounds.py"]:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    key = digest.hexdigest()[:16] + ("-smoke" if args.smoke else "")
    primed = OUT / f"primed-{key}"
    if not primed.is_dir():
        staging = OUT / f"priming-{os.getpid()}"
        shutil.rmtree(staging, ignore_errors=True)
        try:
            _spawn(_round_command(args, staging) + ["--prime", "--seconds", "1"], deadline)
            os.replace(staging / "store", primed)
        finally:
            shutil.rmtree(staging, ignore_errors=True)
    return primed


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def build_payload(args, rounds: list[dict]) -> dict:
    measured = [r for r in rounds if not r["traced"]]
    payload = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "host": host_info(),
        "ref_nominal_s": REF_NOMINAL_S,
        "rounds": [_round_summary(r) for r in rounds],
        "metrics": end_to_end(measured),
        "extra": extra_metrics(measured),
        "counters": [r["counters"] for r in measured],
        "answer_digests": [r["quality"]["answer_digest"] for r in measured],
        "ops": _ops(rounds),
        "checks": [r["checks"] for r in rounds],
    }
    traced = [r for r in rounds if r["traced"]]
    if traced:
        payload["layers"] = traced[0]["layers"]
        payload["layer_metrics"] = layer_metrics(measured[0], traced[0])
    return payload


def _blocks(rounds: list[dict]):
    return [Block.from_json(b) for r in rounds for b in r["blocks"]]


def _pooled(rounds: list[dict], kind: str, normalized: bool) -> list[float]:
    values: list[float] = []
    for block in _blocks(rounds):
        values.extend(block.normalized(kind) if normalized else block.samples.get(kind, []))
    return values


def end_to_end(rounds: list[dict]) -> dict[str, dict[str, float]]:
    """Every end-to-end metric as ``{"value": normalized, "raw": raw}``."""
    blocks = _blocks(rounds)
    setups = [[Block.from_json(b) for b in r["setup"]["blocks"]] for r in rounds]
    ops = sum(block.ops for block in blocks)
    quality = {key: sum(r["quality"][key] for r in rounds)
               for key in ("eps_sum", "eps_answers", "f1_sum", "f1_count")}
    attempted = sum(r["ops"]["attempted"] for r in rounds)
    failed = sum(r["ops"]["failed"] for r in rounds)
    metrics = {
        "setup_s": (
            statistics.median(sum(b.cpu_s * b.factor for b in steps) for steps in setups),
            statistics.median(sum(b.cpu_s for b in steps) for steps in setups),
        ),
        "requests_per_cpu_s": (
            ops / sum(b.cpu_s * b.factor for b in blocks),
            ops / sum(b.cpu_s for b in blocks),
        ),
    }
    for kind in ("preview", "explore"):
        for q in (50, 90):
            metrics[f"{kind}_p{q}_ms"] = (
                percentile(_pooled(rounds, kind, True), q) * 1e3,
                percentile(_pooled(rounds, kind, False), q) * 1e3,
            )
    exact = {
        "eps_per_answer": quality["eps_sum"] / max(quality["eps_answers"], 1),
        "answer_f1_mean": quality["f1_sum"] / max(quality["f1_count"], 1),
        "failed_share": failed / max(attempted, 1),
    }
    out = {name: {"value": value, "raw": raw} for name, (value, raw) in metrics.items()}
    out.update({name: {"value": value, "raw": value} for name, value in exact.items()})
    return out


def extra_metrics(rounds: list[dict]) -> dict[str, float]:
    """Numbers kept in the payload but not gated: sample counts, update cost."""
    out: dict[str, float] = {}
    for kind in ("preview", "explore", "append"):
        samples = _pooled(rounds, kind, True)
        out[f"{kind}_samples"] = len(samples)
        if kind == "append" and samples:
            out["append_p50_ms"] = percentile(samples, 50) * 1e3
            out["append_p90_ms"] = percentile(samples, 90) * 1e3
    out["denied_expected"] = sum(r["ops"]["denied_expected"] for r in rounds)
    return out


def layer_metrics(untraced: dict, traced: dict) -> dict[str, float]:
    """Per-layer metrics: shares from the traced round, counts from the untraced."""
    timed = traced["layers"]["timed"]
    out = dict(timed["shares"])
    out.update(untraced["counters"])

    def norm_cpu(record: dict) -> float:
        return sum(b.cpu_s * b.factor for b in map(Block.from_json, record["blocks"]))

    out["trace.unattributed_share"] = timed["unattributed_share"]
    out["trace.request_ms"] = timed["root_ms_per_op"]
    out["trace.overhead"] = norm_cpu(traced) / norm_cpu(untraced) - 1.0
    return out


def _ops(rounds: list[dict]) -> dict:
    return {
        "attempted": sum(r["ops"]["attempted"] for r in rounds),
        "failed": sum(r["ops"]["failed"] for r in rounds),
        "denied_expected": sum(r["ops"]["denied_expected"] for r in rounds),
        "errors": [e for r in rounds for e in r["ops"]["errors"]][:20],
    }


def _round_summary(record: dict) -> dict:
    """A round without its per-request samples (those stay in the metrics)."""
    blocks = [{k: v for k, v in b.items() if k != "samples"} for b in record["blocks"]]
    return {
        "round": record["round"],
        "traced": record["traced"],
        "size": record["size"],
        "setup": record["setup"],
        "blocks": blocks,
        "ref_series": record["ref_series"],
        "round_cpu_s": record["round_cpu_s"],
        "round_wall_s": record["round_wall_s"],
        "subprocess_wall_s": record["subprocess_wall_s"],
    }


def host_info() -> dict:
    """What a later reader needs to tell host drift from a regression."""
    import numpy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    try:
        filesystem = subprocess.run(
            ["stat", "-f", "-c", "%T", str(OUT)], capture_output=True, text=True,
            timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        filesystem = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "env": PINNED_ENV,
        "run_dir_filesystem": filesystem,
        "journal_sync": True,
    }


def report(payload: dict, metrics: dict, wanted: list[dict]) -> dict:
    """Print every wanted metric with its unit; return the result line."""
    ops = payload["ops"]
    problems = list(ops["errors"])
    if payload.get("layers"):
        layers = payload["layers"]
        if layers["dropped_traces"]:
            problems.append(f"tracer ring dropped {layers['dropped_traces']} traces")
        if layers["timed"]["identity_error"] > 0.01:
            problems.append("layer self times do not sum to the traced request time")
    values = {}
    for spec in wanted:
        name, unit = spec["name"], spec["unit"]
        if name not in metrics:
            problems.append(f"metric {name} was not measured")
            continue
        entry = metrics[name]
        value = entry["value"] if isinstance(entry, dict) else entry
        raw = f"  (raw {entry['raw']:.6g})" if isinstance(entry, dict) else ""
        print(f"{payload['workload']:15s} {name:40s} {value:14.6g} {unit}{raw}")
        values[name] = {"value": value, "unit": unit}
    for problem in problems:
        print(f"FAILED: {problem}")
    return {
        "correct": not problems and ops["failed"] == 0,
        "attempted": ops["attempted"],
        "failed": ops["failed"],
        "metrics": values,
    }


if __name__ == "__main__":
    sys.exit(main())
