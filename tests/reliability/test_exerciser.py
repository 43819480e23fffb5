"""The property-based history exerciser over a bounded seed set.

Each seed derives a full random scenario (ops, crash plan, optional torn
tail) and checks every recovery invariant; a failure message carries the
whole report so the scenario can be replayed from its seed.  CI runs the
same seeds as a named gate.
"""

import json
import random

import pytest

from repro.bench.fixtures import bench_rows, bench_schema, build_bench_table
from repro.queries.parser import parse_query
from repro.queries.query import QueryKind
from repro.reliability.exerciser import CRASH_SITES, generate_script, run_history
from repro.service import ExplorationService
from repro.service.replay import GeneratorPool, ScriptRequest, run_request
from repro.workloads import GeneratorConfig

SEEDS = [2, 3, 5]


@pytest.mark.parametrize("seed", SEEDS)
def test_history_invariants_hold(seed, tmp_path):
    report = run_history(
        seed,
        work_dir=str(tmp_path / f"seed-{seed}"),
        n_ops=6,
        n_rows=300,
        mc_samples=120,
    )
    assert report["ok"], json.dumps(report, indent=2, default=str)


def test_generated_scripts_are_reproducible():
    a = generate_script(random.Random(7), 20)
    b = generate_script(random.Random(7), 20)
    assert a == b
    ops = {op["op"] for op in a}
    assert "explore" in ops  # the generator must actually explore


def test_crash_sites_are_registered():
    from repro.reliability.faults import FAILPOINT_SITES

    for site in CRASH_SITES:
        assert site in FAILPOINT_SITES


def query_kinds(script):
    return {
        parse_query(op["text"])[0].kind
        for op in script
        if op["op"] in ("explore", "preview")
    }


def test_scripts_draw_wcq_icq_and_tcq_texts():
    population = GeneratorConfig(seed=31, initial_rows=250, periods=3).to_json()
    bench = generate_script(random.Random(0), 20)
    generated = generate_script(random.Random(0), 20, workloads_config=population)
    everything = {QueryKind.WCQ, QueryKind.ICQ, QueryKind.TCQ}
    assert query_kinds(bench) == everything
    assert query_kinds(generated) == everything
    assert {op["op"] for op in bench} >= {"explore", "preview", "append_rows"}
    assert {op["op"] for op in generated} >= {"explore", "preview", "generator"}


def test_bench_rows_lie_in_the_declared_domains():
    schema = bench_schema()
    rows = bench_rows(2_000, seed=5)
    assert len(rows) == 2_000
    assert all(schema.validate_row(row) == [] for row in rows)
    # NULLs come through as None, never as NaN.
    assert any(row["amount"] is None for row in rows)
    # The same draw as the bench table of that seed.
    table = build_bench_table(2_000, seed=5)
    assert [row["region"] for row in rows] == list(table.column("region"))
    assert [row["age"] for row in rows] == list(table.column("age"))


def test_region_iceberg_explores_after_an_exerciser_append():
    script = generate_script(random.Random(0), 20)
    append = next(op for op in script if op["op"] == "append_rows")
    icq = next(
        op["text"]
        for op in script
        if op["op"] != "append_rows"
        and parse_query(op["text"])[0].kind is QueryKind.ICQ
    )
    assert "region = " in icq
    service = ExplorationService(build_bench_table(400), budget=5.0, seed=1)
    service.register_analyst("a0")
    generators = GeneratorPool()
    grown = run_request(
        service, "a0", "default", ScriptRequest.from_json(append), generators
    )
    assert grown.error is None
    outcome = run_request(
        service, "a0", "default", ScriptRequest("explore", icq), generators
    )
    assert outcome.error is None and not outcome.denied
    assert outcome.mechanism == "ICQ-MPM"
