"""Do two sets of benchmark payloads agree within the benchmark's bounds?

    python3 benchmarks/e2e/agree.py SET_A_DIR SET_B_DIR

Each directory holds payloads written by ``run.py --trace 0`` (any file
name ending in ``.json``).  For every workload and end-to-end metric this
prints each set's median and quartiles, normalized and raw, and whether
the set medians agree within the metric's bound from ``BENCHMARK.json``.
It also says whether the exact metrics (quality and counters) are
identical across all runs, which they must be when every run used the
same seed.  Exits 1 when any median pair disagrees or an exact metric
differs between same-seed runs.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
#: Counters that may differ between runs of one seed, by workload.  On
#: warm_replay they depend on how the analyst threads interleave: whether two
#: identical previews meet in the batcher (and so how many translation
#: lookups happen), and how many commits one drain combines.  On er_clean the
#: matrix memo overflows, and what it evicts depends on object addresses: it
#: keys schemas and opaque predicates by identity, and its striped LRU picks
#: a key's stripe by hash.
UNREPEATABLE = {
    "warm_replay": frozenset({
        "service.batch_coalesced",
        "core.translation_hit_share",
        "service.commit_batch_max",
    }),
    "er_clean": frozenset({"queries.matrix_built", "queries.matrix_revalidated"}),
}


def load(directory: Path) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {}
    for path in sorted(directory.glob("*.json")):
        payload = json.loads(path.read_text(encoding="utf-8"))
        if payload.get("trace") == 0 and "metrics" in payload:
            runs.setdefault(payload["workload"], []).append(payload)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def compare(set_a: dict[str, list[dict]], set_b: dict[str, list[dict]], specs: list[dict]) -> bool:
    agree = True
    for workload in sorted(set(set_a) | set(set_b)):
        runs_a, runs_b = set_a.get(workload, []), set_b.get(workload, [])
        if not runs_a or not runs_b:
            print(f"{workload}: missing from one set")
            agree = False
            continue
        print(f"{workload}  (A: {len(runs_a)} runs, B: {len(runs_b)} runs)")
        for spec in specs:
            name, bound = spec["name"], spec["bound"]
            line = [f"  {name:20s}"]
            medians = []
            for runs in (runs_a, runs_b):
                norm = quartiles([r["metrics"][name]["value"] for r in runs])
                raw = quartiles([r["metrics"][name]["raw"] for r in runs])
                medians.append(norm[1])
                line.append(f"{norm[1]:11.5g} [{norm[0]:.5g}, {norm[2]:.5g}] raw {raw[1]:.5g} [{raw[0]:.5g}, {raw[2]:.5g}]")
            change = (medians[1] - medians[0]) / medians[0] if medians[0] else 0.0
            ok = abs(change) <= bound
            agree &= ok
            line.append(f"{change * 100:+6.2f}% vs bound {bound * 100:.0f}% {'ok' if ok else 'DISAGREE'}")
            print("  |  ".join(line))
        agree &= exact_identical(runs_a + runs_b)
    return agree


def exact_metrics(run: dict) -> dict:
    """The numbers of a payload that two runs of one seed must repeat exactly."""
    out = {name: run["metrics"][name]["value"]
           for name in ("eps_per_answer", "answer_f1_mean", "failed_share")}
    out["attempted"] = run["ops"]["attempted"]
    out["answer_digests"] = run["answer_digests"]
    unrepeatable = UNREPEATABLE.get(run["workload"], frozenset())
    for index, counters in enumerate(run["counters"]):
        out.update({f"round{index}.{k}": v for k, v in counters.items()
                    if k not in unrepeatable})
    return out


def exact_identical(runs: list[dict]) -> bool:
    """Quality metrics and counters must repeat exactly across same-seed runs."""
    if len({r["seed"] for r in runs}) != 1:
        print("  exact metrics: runs use different seeds, identity not required")
        return True
    reference = exact_metrics(runs[0])
    differing = sorted({key for run in runs[1:] for key, value in exact_metrics(run).items()
                        if reference.get(key) != value})
    print(f"  exact metrics and counters: {'identical' if not differing else 'DIFFER: ' + ', '.join(differing)}")
    return not differing


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    catalog = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    agree = compare(load(Path(argv[0])), load(Path(argv[1])), catalog["end_to_end"])
    print("sets agree" if agree else "sets DISAGREE")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
