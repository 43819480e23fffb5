"""The replay machinery and the ``python -m repro.service`` CLI."""

import json

import pytest

from repro.core.exceptions import ApexError
from repro.service import ExplorationService, default_script, load_script, replay
from repro.service.__main__ import main
from repro.service.replay import AnalystScript, ScriptRequest, scripts_from_payload
from tests.service.util import small_table


class TestScripts:
    def test_default_script_round_robins_tables(self):
        scripts = default_script(4, tables=("adult", "taxi"))
        assert [s.table for s in scripts] == ["adult", "taxi", "adult", "taxi"]
        assert all(s.requests for s in scripts)

    def test_default_script_rejects_unknown_table(self):
        with pytest.raises(ApexError):
            default_script(1, tables=("mystery",))

    def test_script_request_validates_op(self):
        with pytest.raises(ApexError):
            ScriptRequest(op="drop", text="BIN D ...;")

    def test_load_script_round_trip(self, tmp_path):
        payload = {
            "analysts": [
                {
                    "name": "alice",
                    "table": "adult",
                    "requests": [
                        {"op": "preview", "text": "BIN D ON COUNT(*) ... ;"}
                    ],
                }
            ]
        }
        path = tmp_path / "script.json"
        path.write_text(json.dumps(payload))
        scripts = load_script(str(path))
        assert scripts[0].analyst == "alice"
        assert scripts[0].requests[0].op == "preview"

    def test_payload_keeps_every_request_field(self, tmp_path):
        requests = [
            {"op": "append_rows", "rows": [{"age": 41}, {"age": 17}]},
            {"op": "generator", "generator": {"config": {"seed": 3}}},
            {"op": "explore", "text": "BIN D ON COUNT(*) ... ;"},
        ]
        payload = {"analysts": [{"name": "owner", "requests": requests}]}
        (script,) = scripts_from_payload(payload)
        assert script.table == "adult"
        assert [r.op for r in script.requests] == ["append_rows", "generator", "explore"]
        assert script.requests[0].rows == ({"age": 41}, {"age": 17})
        assert script.requests[1].generator == {"config": {"seed": 3}}
        path = tmp_path / "script.json"
        path.write_text(json.dumps(payload))
        assert load_script(str(path)) == [script]

    def test_load_script_rejects_empty(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("{}")
        with pytest.raises(ApexError):
            load_script(str(path))


class TestReplay:
    def test_replay_merges_and_validates(self):
        table = small_table(2_000)
        service = ExplorationService({"bench": table}, budget=5.0, seed=0)
        text = (
            "BIN D ON COUNT(*) WHERE W = {"
            "  amount BETWEEN 0 AND 5000, amount BETWEEN 5000 AND 10000"
            "} ERROR 200 CONFIDENCE 0.9995;"
        )
        scripts = [
            AnalystScript(
                analyst=f"a{i}",
                table="bench",
                requests=(
                    ScriptRequest("preview", text),
                    ScriptRequest("explore", text),
                ),
            )
            for i in range(4)
        ]
        report = replay(service, scripts)
        assert report.transcript_valid
        assert report.epsilon_spent <= report.budget + 1e-9
        assert len(report.outcomes) == 8
        assert not [o for o in report.outcomes if o.error]
        payload = report.to_json()
        assert payload["transcript_valid"] is True
        assert len(payload["outcomes"]) == 8


class TestCli:
    def test_cli_replays_and_writes_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(
            [
                "--analysts",
                "3",
                "--adult-rows",
                "2000",
                "--budget",
                "8.0",
                "--seed",
                "1",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "merged transcript valid (Theorem 6.2): True" in captured
        payload = json.loads(out.read_text())
        assert payload["transcript_valid"] is True
        assert payload["epsilon_spent"] <= payload["budget"] + 1e-9

    def test_cli_fixed_share_sizes_shares_from_script(self, tmp_path, capsys):
        """--script analyst count wins over --analysts for fixed shares."""
        text = (
            "BIN D ON COUNT(*) WHERE W = {"
            "  age BETWEEN 20 AND 40, age BETWEEN 40 AND 60"
            "} ERROR 160 CONFIDENCE 0.9995;"
        )
        payload = {
            "analysts": [
                {
                    "name": f"a{i}",
                    "table": "adult",
                    "requests": [{"op": "explore", "text": text}],
                }
                for i in range(5)  # more analysts than the default --analysts 4
            ]
        }
        path = tmp_path / "script.json"
        path.write_text(json.dumps(payload))
        code = main(
            [
                "--script",
                str(path),
                "--policy",
                "fixed-share",
                "--adult-rows",
                "2000",
                "--budget",
                "10.0",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "replayed 5 analysts" in out
        assert "errors: 0" in out

    def test_cli_fixed_share(self, capsys):
        code = main(
            [
                "--analysts",
                "2",
                "--adult-rows",
                "1500",
                "--policy",
                "fixed-share",
                "--budget",
                "6.0",
            ]
        )
        assert code == 0
        assert "policy=fixed-share" in capsys.readouterr().out
