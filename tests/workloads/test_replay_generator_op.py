"""The replay ``generator`` op: script emission, loading, end-to-end replay."""

import json

import pytest

from repro.core.exceptions import ApexError
from repro.mechanisms.registry import default_registry
from repro.service import ExplorationService
from repro.service.replay import (
    ScriptRequest,
    load_script,
    replay,
    scripts_from_payload,
)
from repro.workloads import GeneratorConfig, MicrosimulationGenerator
from repro.workloads.scripts import (
    STREAM_OWNER,
    emit_script_payload,
    query_templates,
    write_script,
)


def tiny_config(**overrides) -> GeneratorConfig:
    base = dict(
        seed=21,
        initial_rows=300,
        periods=3,
        rows_per_period=80,
        analysts=2,
        queries_per_analyst=3,
        budget=30.0,
    )
    base.update(overrides)
    return GeneratorConfig(**base)


def make_service(config: GeneratorConfig) -> ExplorationService:
    table = MicrosimulationGenerator(config).build_table()
    return ExplorationService(
        {config.table: table},
        budget=config.budget,
        registry=default_registry(mc_samples=100),
        seed=config.seed,
    )


class TestPayloadShape:
    def test_owner_carries_one_generator_op_per_period(self):
        config = tiny_config()
        payload = emit_script_payload(config)
        owner = payload["analysts"][0]
        assert owner["name"] == STREAM_OWNER
        assert [r["op"] for r in owner["requests"]] == ["generator"] * config.periods
        assert [r["generator"]["period"] for r in owner["requests"]] == [1, 2, 3]
        assert all(
            r["generator"]["config"] == config.to_json() for r in owner["requests"]
        )

    def test_analysts_rotate_templates_and_ops(self):
        config = tiny_config()
        payload = emit_script_payload(config)
        templates = query_templates(config)
        queriers = payload["analysts"][1:]
        assert len(queriers) == config.analysts
        for i, analyst in enumerate(queriers):
            assert analyst["table"] == config.table
            assert len(analyst["requests"]) == config.queries_per_analyst
            for j, request in enumerate(analyst["requests"]):
                assert request["text"] == templates[(i + j) % len(templates)]
                assert request["op"] == ("preview" if (i + j) % 2 == 0 else "explore")

    def test_emission_is_deterministic(self):
        config = tiny_config()
        assert emit_script_payload(config) == emit_script_payload(tiny_config())
        assert emit_script_payload(config) != emit_script_payload(
            tiny_config(seed=99)
        )


class TestScriptIO:
    def test_write_then_load_round_trips(self, tmp_path):
        config = tiny_config()
        path = str(tmp_path / "script.json")
        payload = write_script(config, path)
        with open(path, "r", encoding="utf-8") as fh:
            assert json.load(fh) == payload
        scripts = load_script(path)
        assert [s.analyst for s in scripts] == [
            a["name"] for a in payload["analysts"]
        ]
        owner = scripts[0]
        assert all(r.op == "generator" for r in owner.requests)
        assert all(
            r.generator["config"] == config.to_json() for r in owner.requests
        )

    def test_generator_request_requires_a_config(self):
        with pytest.raises(ApexError):
            ScriptRequest("generator")
        with pytest.raises(ApexError):
            ScriptRequest("generator", generator={"period": 1})
        # With a config it constructs fine.
        ScriptRequest("generator", generator={"config": tiny_config().to_json()})


class TestReplay:
    def test_end_to_end_replay_runs_every_period(self, tmp_path):
        config = tiny_config()
        path = str(tmp_path / "script.json")
        write_script(config, path)
        scripts = load_script(path)
        service = make_service(config)
        report = replay(service, scripts)

        errors = [o for o in report.outcomes if o.error]
        assert errors == []
        assert report.transcript_valid
        generated = [o for o in report.outcomes if o.op == "generator"]
        assert len(generated) == config.periods
        # Periods landed in order on the owner thread, each appending a batch.
        assert [o.query_name.split(":")[0] for o in generated] == [
            f"generator[p{p}" for p in range(1, config.periods + 1)
        ]
        assert len(service.tables[config.table]) == config.total_rows()

    def test_exhausted_stream_surfaces_as_a_request_error(self):
        config = tiny_config(analysts=1, queries_per_analyst=1)
        payload = emit_script_payload(config)
        owner = payload["analysts"][0]
        # One more generator op than the config has periods.
        owner["requests"].append(dict(owner["requests"][-1]))
        service = make_service(config)
        report = replay(service, scripts_from_payload(payload))
        errors = [o for o in report.outcomes if o.error]
        assert len(errors) == 1
        assert "exhausted" in errors[0].error
        assert errors[0].query_name == "generator[next period]"
        # Everything before the overrun still ran.
        assert (
            len([o for o in report.outcomes if o.op == "generator" and not o.error])
            == config.periods
        )
