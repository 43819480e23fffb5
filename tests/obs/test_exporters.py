"""Exporter battery: Prometheus text, Chrome trace events."""

import json

import pytest

from repro.obs import (
    MetricNameError,
    chrome_trace_events,
    install_tracer,
    prometheus_text,
    root_span,
    span,
    write_chrome_trace,
)
from repro.obs.tracing import Tracer

METRICS = {
    "repro_test_total": 3.0,
    "repro_test_level": 0.125,
    'repro_test_seconds_count{kind="explore"}': 1.0,
}


class TestPrometheusText:
    def test_lines_are_sorted_and_newline_terminated(self):
        text = prometheus_text(METRICS)
        lines = text.splitlines()
        assert text.endswith("\n")
        assert lines == sorted(lines)
        assert "repro_test_total 3" in lines

    def test_whole_floats_render_as_integers(self):
        text = prometheus_text(METRICS)
        assert "repro_test_total 3" in text.splitlines()
        assert "repro_test_level 0.125" in text.splitlines()

    def test_labelled_names_keep_their_label_block(self):
        text = prometheus_text(METRICS)
        assert 'repro_test_seconds_count{kind="explore"} 1' in text.splitlines()

    def test_empty_mapping_renders_empty(self):
        assert prometheus_text({}) == ""

    def test_off_scheme_name_is_rejected(self):
        with pytest.raises(MetricNameError):
            prometheus_text({**METRICS, "NotValid": 1.0})

    def test_service_metrics_render_one_line_per_series(self):
        from repro.mechanisms.registry import default_registry
        from repro.service import ExplorationService
        from tests.service.util import small_table

        service = ExplorationService(
            small_table(256),
            budget=1.0,
            registry=default_registry(mc_samples=50),
            seed=0,
        )
        service.register_analyst("a-0")
        metrics = service.as_metrics()
        lines = prometheus_text(metrics).splitlines()
        assert len(lines) == len(metrics)
        for line in lines:
            name, value = line.rsplit(" ", 1)
            assert float(value) == metrics[name]
        assert any(line.startswith("repro_pool_") for line in lines)


def _traced_request(tracer: Tracer) -> list[list[dict]]:
    previous = install_tracer(tracer)
    try:
        with root_span("service.request", analyst="a0"):
            with span("engine.translate", cache_tier="built"):
                pass
    finally:
        install_tracer(previous)
    return tracer.drain()


class TestChromeTraceEvents:
    def test_spans_become_complete_events_rebased_to_zero(self):
        traces = _traced_request(Tracer(1.0, seed=0))
        events = chrome_trace_events(traces)
        complete = [e for e in events if e["ph"] == "X"]
        assert len(complete) == 2
        assert min(e["ts"] for e in complete) == 0
        assert all(
            isinstance(e["ts"], int) and isinstance(e["dur"], int)
            for e in complete
        )
        by_name = {e["name"]: e for e in complete}
        assert by_name["engine.translate"]["args"]["cache_tier"] == "built"
        assert by_name["engine.translate"]["cat"] == "engine"
        assert by_name["service.request"]["args"]["parent_id"] is None
        # pid groups by request: both spans share the trace's lane.
        assert by_name["service.request"]["pid"] == by_name["engine.translate"]["pid"]

    def test_coalesce_edges_become_flow_event_pairs(self):
        leader = {
            "trace_id": 1,
            "span_id": 10,
            "parent_id": None,
            "name": "batch.leader",
            "start": 0.0,
            "end": 0.002,
            "thread_id": 111,
            "attributes": {},
        }
        follower = {
            "trace_id": 2,
            "span_id": 20,
            "parent_id": None,
            "name": "batch.follower",
            "start": 0.001,
            "end": 0.002,
            "thread_id": 222,
            "attributes": {"batch.leader_trace": 1, "batch.leader_span": 10},
        }
        events = chrome_trace_events([[leader], [follower]])
        starts = [e for e in events if e["ph"] == "s"]
        finishes = [e for e in events if e["ph"] == "f"]
        assert len(starts) == 1 and len(finishes) == 1
        assert starts[0]["id"] == finishes[0]["id"] == 10
        assert starts[0]["pid"] == 1 and finishes[0]["pid"] == 2
        assert finishes[0]["bp"] == "e"

    def test_follower_without_leader_still_emits_the_finish(self):
        follower = {
            "trace_id": 2,
            "span_id": 20,
            "parent_id": None,
            "name": "batch.follower",
            "start": 0.001,
            "end": 0.002,
            "thread_id": 222,
            "attributes": {"batch.leader_trace": 1, "batch.leader_span": 99},
        }
        events = chrome_trace_events([[follower]])
        assert [e["ph"] for e in events] == ["X", "f"]

    def test_empty_input_yields_no_events(self):
        assert chrome_trace_events([]) == []
        assert chrome_trace_events([[]]) == []


class TestWriteChromeTrace:
    def test_writes_viewer_loadable_payload(self, tmp_path):
        traces = _traced_request(Tracer(1.0, seed=0))
        path = tmp_path / "trace.json"
        count = write_chrome_trace(str(path), traces)
        payload = json.loads(path.read_text())
        assert payload["displayTimeUnit"] == "ms"
        assert len(payload["traceEvents"]) == count == 2
