"""``python -m repro.obs``: the exported names and the trace dump."""

import json

from repro.obs import metric_name_is_valid
from repro.obs.__main__ import main


def test_json_export_and_trace_dump(tmp_path):
    metrics_path = tmp_path / "metrics.json"
    trace_path = tmp_path / "trace.json"
    status = main(
        [
            "--format", "json",
            "--rows", "500",
            "--analysts", "2",
            "--output", str(metrics_path),
            "--trace-out", str(trace_path),
        ]
    )
    assert status == 0

    metrics = json.loads(metrics_path.read_text())
    assert metrics
    assert all(metric_name_is_valid(name) for name in metrics)
    assert list(metrics) == sorted(metrics)
    for family in (
        "repro_pool_",
        "repro_batcher_",
        "repro_translations_",
        "repro_matrix_",
        "repro_reliability_",
        'repro_table_rows{table="adult"}',
        "repro_session_spent{analyst=",
        'repro_latency_count{kind="explore"}',
        'repro_latency_count{kind="preview_cost"}',
    ):
        assert any(name.startswith(family) for name in metrics), family
    assert metrics['repro_latency_count{kind="explore"}'] > 0

    events = json.loads(trace_path.read_text())["traceEvents"]
    assert isinstance(events, list) and events
    assert all("ph" in event and "name" in event for event in events)
