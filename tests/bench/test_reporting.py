"""Tests for the reporting helpers."""

import math

from repro.bench.reporting import (
    format_records,
    format_table,
    records_to_csv,
    report,
    summarize_by,
)


RECORDS = [
    {"query": "QW1", "alpha": 0.02, "epsilon": 0.5},
    {"query": "QW1", "alpha": 0.02, "epsilon": 0.7},
    {"query": "QW1", "alpha": 0.08, "epsilon": 0.1},
    {"query": "QW2", "alpha": 0.02, "epsilon": 2.0},
]


class TestFormatTable:
    def test_alignment_and_headers(self):
        text = format_table([[1, "abc"], [22, "d"]], ["num", "text"])
        lines = text.splitlines()
        assert lines[0].startswith("num")
        assert len(lines) == 4
        assert all("|" in line for line in lines if "-+-" not in line)

    def test_float_formatting(self):
        text = format_table([[0.000123456, 1234.5678, 0.5]], ["a", "b", "c"])
        assert "0.0001235" in text
        assert "1235" in text
        assert "0.5" in text

    def test_nan_and_zero(self):
        text = format_table([[float("nan"), 0.0]], ["a", "b"])
        assert "nan" in text and "0" in text


class TestFormatRecords:
    def test_empty(self):
        assert format_records([]) == "(no records)"

    def test_columns_default_to_keys(self):
        text = format_records(RECORDS)
        assert "query" in text and "epsilon" in text

    def test_column_subset(self):
        text = format_records(RECORDS, columns=["query"])
        assert "epsilon" not in text


class TestCsv:
    def test_round_trip_shape(self):
        csv = records_to_csv(RECORDS)
        lines = csv.strip().splitlines()
        assert lines[0] == "query,alpha,epsilon"
        assert len(lines) == 5

    def test_empty(self):
        assert records_to_csv([]) == ""


class TestSummarize:
    def test_grouping(self):
        summary = summarize_by(RECORDS, ["query", "alpha"], "epsilon")
        assert len(summary) == 3
        qw1_002 = next(s for s in summary if s["query"] == "QW1" and s["alpha"] == 0.02)
        assert qw1_002["count"] == 2
        assert qw1_002["median"] == 0.6
        assert qw1_002["mean"] == 0.6
        assert qw1_002["min"] == 0.5 and qw1_002["max"] == 0.7

    def test_single_value_quantiles(self):
        summary = summarize_by(RECORDS, ["query"], "epsilon")
        qw2 = next(s for s in summary if s["query"] == "QW2")
        assert qw2["q25"] == qw2["q75"] == 2.0

    def test_missing_value_key_skipped(self):
        records = RECORDS + [{"query": "QW3", "alpha": 0.02}]
        summary = summarize_by(records, ["query"], "epsilon")
        assert all(s["query"] != "QW3" for s in summary)

    def test_quartiles_interpolate(self):
        records = [{"g": "x", "v": float(i)} for i in range(1, 6)]
        summary = summarize_by(records, ["g"], "v")[0]
        assert summary["median"] == 3.0
        assert summary["q25"] == 2.0
        assert summary["q75"] == 4.0
        assert not math.isnan(summary["mean"])


class TestReport:
    def test_report_prints_summary(self, capsys):
        records = [
            {"group": "a", "value": 1.0},
            {"group": "a", "value": 3.0},
            {"group": "b", "value": 2.0},
        ]
        report("demo", records, ["group"], "value")
        out = capsys.readouterr().out
        assert "=== demo ===" in out
        assert "median" in out
