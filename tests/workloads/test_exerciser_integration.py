"""Generated microsimulation streams driving the reliability exerciser."""

import random

from repro.reliability.exerciser import generate_script, run_history, run_worker
from repro.workloads import GeneratorConfig
from repro.workloads.scripts import query_templates


def workloads_config() -> dict:
    return GeneratorConfig(
        seed=31,
        initial_rows=250,
        periods=3,
        rows_per_period=60,
        drift="mixed",
        drift_every=2,
        budget=4.0,
    ).to_json()


def population_script(seed: int, n_ops: int, config: dict) -> list[dict]:
    return generate_script(random.Random(seed), n_ops, workloads_config=config)


class TestScriptGeneration:
    def test_appends_consume_periods_in_order(self):
        config = workloads_config()
        script = population_script(4, 30, config)
        appends = [op for op in script if op["op"] == "generator"]
        assert appends, "30 ops should roll at least one append"
        # Each generator op names the next period of the one configured
        # stream; the worker test below checks what each period appended.
        assert [op["generator"]["period"] for op in appends] == list(
            range(1, len(appends) + 1)
        )
        assert len(appends) <= GeneratorConfig.from_json(config).periods
        assert all(op["generator"]["config"] == config for op in appends)

    def test_queries_target_the_generated_schema(self):
        config = workloads_config()
        script = population_script(7, 25, config)
        queries = [op for op in script if op["op"] in ("explore", "preview")]
        assert queries
        templates = query_templates(GeneratorConfig.from_json(config))
        assert all(op["text"] in templates for op in queries)

    def test_same_seed_generates_the_same_script(self):
        config = workloads_config()
        assert population_script(11, 20, config) == population_script(
            11, 20, config
        )


class TestWorkerRuns:
    def test_worker_hosts_the_generated_population(self, tmp_path):
        config = workloads_config()
        script = population_script(2, 8, config)
        returncode, events, stderr, violations = run_worker(
            str(tmp_path / "ledger.wal"),
            script,
            budget=4.0,
            n_rows=0,
            seed=31,
            mc_samples=100,
            workloads_config=config,
        )
        assert returncode == 0, stderr
        assert violations == []
        done = [e for e in events if e.get("event") == "done"]
        assert len(done) == 1 and done[0]["valid"]
        acks = [e for e in events if e.get("event") == "ack"]
        assert len(acks) == len(script)
        assert all("error" not in ack for ack in acks)
        # Generator acks append the stream's periods in order, each a
        # non-empty batch whose drift effect follows the configured schedule.
        appended = [ack["query"] for ack in acks if ack["op"] == "generator"]
        assert appended, "8 ops should roll at least one append"
        schedule = GeneratorConfig.from_json(config).drift_schedule()
        for period, name in enumerate(appended, start=1):
            assert name.startswith(f"generator[p{period}: ")
            assert " 0 rows" not in name
            effect = "drift" if schedule[period - 1] else "preserve"
            assert name.endswith(f", {effect}]")

    def test_run_history_smoke(self, tmp_path):
        report = run_history(
            5,
            work_dir=str(tmp_path),
            n_ops=8,
            budget=4.0,
            n_rows=0,
            mc_samples=100,
            workloads_config=workloads_config(),
        )
        assert report["workloads"] is True
        assert report["violations"] == []
