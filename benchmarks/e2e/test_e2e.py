"""Self-tests of the end-to-end benchmark (opt-in: ``python -m pytest benchmarks/e2e``).

The command-level tests run ``run.py --smoke`` (tiny inputs, two rounds)
on every workload; the rest test the checker and the normalization math
directly.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from agree import exact_metrics
from checks import AnswerChecker, binomial_upper_quantile, transcript_problems
from measure import REF_NOMINAL_S, Block
from run import OUT, ROOT, WORKLOADS

from repro.core.accounting import Transcript, TranscriptEntry
from repro.core.accuracy import AccuracySpec
from repro.data.adult import generate_adult
from repro.queries.builders import histogram_workload
from repro.queries.query import IcebergCountingQuery, WorkloadCountingQuery

CATALOG = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RUN = [sys.executable, str(ROOT / "benchmarks" / "e2e" / "run.py")]


def _run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed), "--seconds", "1",
               "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    tag = f"{workload}-s{seed}" + ("-trace" if trace else "") + "-smoke"
    payload = json.loads((OUT / f"{tag}.json").read_text(encoding="utf-8"))
    return {"stdout": proc.stdout, "result": json.loads(proc.stdout.splitlines()[-1]),
            "payload": payload}


def _workload_runs(workload: str) -> dict:
    # Sequential per workload: same-seed runs overwrite one payload file.
    return {
        "first": _run(workload, 1, 0),
        "again": _run(workload, 1, 0),
        "other_seed": _run(workload, 2, 0),
        "trace": _run(workload, 1, 1),
    }


@pytest.fixture(scope="module")
def runs() -> dict[str, dict]:
    with ThreadPoolExecutor(max_workers=2) as pool:
        return dict(zip(WORKLOADS, pool.map(_workload_runs, WORKLOADS)))


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(runs, workload, trace, section):
    run = runs[workload]["trace" if trace else "first"]
    assert run["result"]["correct"] and run["result"]["failed"] == 0
    assert run["result"]["attempted"] >= 1
    metrics = run["result"]["metrics"]
    assert set(metrics) == {spec["name"] for spec in CATALOG[section]}
    for spec in CATALOG[section]:
        assert metrics[spec["name"]]["unit"] == spec["unit"]
        assert math.isfinite(metrics[spec["name"]]["value"])
        printed = [line for line in run["stdout"].splitlines()
                   if line.split()[1:2] == [spec["name"]]]
        assert printed and printed[0].split()[3] == spec["unit"], spec["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_metrics_repeat_with_the_seed_and_change_with_another(runs, workload):
    first, again, other = (runs[workload][key]["payload"] for key in ("first", "again", "other_seed"))
    assert exact_metrics(first) == exact_metrics(again)
    assert exact_metrics(first) != exact_metrics(other)


def test_layer_self_times_add_up_to_the_traced_request_time(runs):
    for workload in WORKLOADS:
        layers = runs[workload]["trace"]["payload"]["layers"]
        assert layers["dropped_traces"] == 0
        assert layers["timed"]["identity_error"] <= 0.01
        shares = runs[workload]["trace"]["result"]["metrics"]
        total = sum(v["value"] for k, v in shares.items()
                    if "_share" in k and k != "core.translation_hit_share")
        assert total == pytest.approx(1.0, abs=0.01), workload


def test_checker_rejects_a_forged_alpha_violating_wcq_vector():
    table = generate_adult(500, seed=3)
    query = WorkloadCountingQuery(
        histogram_workload("age", start=0, stop=100, bins=10), name="ages")
    accuracy = AccuracySpec(alpha=5.0, beta=1e-3)
    truth = query.true_counts(table)
    checker = AnswerChecker()
    for _ in range(20):
        assert checker.check(query, accuracy, truth + 1.0, table)[0]
    assert checker.excess_misses() == 0
    forged = truth.copy()
    forged[3] += 50.0
    for _ in range(3):
        checker.check(query, accuracy, forged, table)
    assert checker.wcq_misses == 3
    assert checker.allowance() < 3 and checker.excess_misses() > 0


def test_checker_rejects_an_icq_answer_naming_a_non_bin():
    table = generate_adult(500, seed=3)
    query = IcebergCountingQuery(
        histogram_workload("age", start=0, stop=100, bins=10), threshold=20.0, name="old")
    accuracy = AccuracySpec(alpha=5.0, beta=1e-3)
    checker = AnswerChecker()
    passed, f1 = checker.check(query, accuracy, query.true_answer(table), table)
    assert passed and f1 == 1.0
    passed, _ = checker.check(query, accuracy, [query.bin_names()[0], "age in [500, 600)"], table)
    assert not passed and "non-bins" in checker.problems[-1]


def test_checker_rejects_an_invalid_transcript():
    accuracy = AccuracySpec(alpha=1.0, beta=1e-3)

    def entry(index, spent, upper):
        return TranscriptEntry(index=index, query_name=f"q{index}", query_kind="WCQ",
                               accuracy=accuracy, mechanism="WCQ-LM", epsilon_upper=upper,
                               epsilon_spent=spent, denied=False)

    valid, overspent = Transcript(), Transcript()
    valid.append(entry(0, 0.4, 0.5))
    assert transcript_problems(valid, budget=1.0, spent=0.4) == []
    overspent.append(entry(0, 0.6, 0.6))
    overspent.append(entry(1, 0.6, 0.6))
    assert transcript_problems(overspent, budget=1.0, spent=1.2)


def test_binomial_allowance_is_the_upper_quantile():
    assert binomial_upper_quantile(0, 0.01) == 0
    # P[X <= 3] = 0.9982 < 0.999 <= P[X <= 4] = 0.99983
    assert binomial_upper_quantile(1000, 5e-4) == 4
    draws = np.random.default_rng(0).binomial(1000, 5e-4, size=200_000)
    assert np.mean(draws <= binomial_upper_quantile(1000, 5e-4)) >= 0.999


def test_a_block_at_twice_nominal_has_its_samples_halved_and_raw_kept():
    block = Block(ref_before=2 * REF_NOMINAL_S, ref_after=2 * REF_NOMINAL_S)
    for seconds in (0.010, 0.030):
        block.add("explore", seconds)
    assert block.factor == pytest.approx(0.5)
    assert block.normalized("explore") == pytest.approx([0.005, 0.015])
    restored = Block.from_json(json.loads(json.dumps(block.to_json())))
    assert restored.samples["explore"] == [0.010, 0.030]
    assert restored.normalized("explore") == pytest.approx([0.005, 0.015])
    uneven = Block(ref_before=REF_NOMINAL_S, ref_after=3 * REF_NOMINAL_S)
    assert uneven.factor == pytest.approx(0.5)


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "benchmarks" / "e2e", tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "cold_translate",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
