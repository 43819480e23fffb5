"""Exporters: Prometheus text and Chrome trace-event dumps.

* :func:`prometheus_text` -- the text exposition format scrapers expect.
  The names of a flat ``as_metrics()`` mapping already carry their label
  block (``repro_lru_hits{cache="translation"}``), so the mapping maps 1:1
  onto exposition lines (``python -m repro.obs --format json`` dumps the
  same mapping as JSON);
* :func:`chrome_trace_events` / :func:`write_chrome_trace` -- sampled span
  trees as Chrome trace-event JSON (load in ``chrome://tracing`` or
  Perfetto).  Spans become complete (``"ph": "X"``) events; batcher
  coalesce edges -- follower spans annotated with ``batch.leader_span`` --
  become flow arrows (``"ph": "s"`` at the leader, ``"ph": "f"`` at the
  follower) so a coalesced burst reads as one fan-in in the viewer.

Span timestamps are ``time.perf_counter()`` values; the Chrome exporter
rebases them so the earliest span in the dump sits at ``ts=0`` and
everything is in integer microseconds, as the trace-event spec expects.
"""

from __future__ import annotations

import json
from typing import Any, Iterable, Mapping

from repro.obs.registry import MetricNameError, metric_name_is_valid

__all__ = [
    "chrome_trace_events",
    "prometheus_text",
    "write_chrome_trace",
]


def prometheus_text(metrics: Mapping[str, float]) -> str:
    """Render a flat ``{metric_name: value}`` mapping as Prometheus text.

    Series are sorted by name so successive scrapes diff cleanly.  A name
    off the ``repro_<subsystem>_<name>{labels}`` scheme raises
    :class:`~repro.obs.registry.MetricNameError`.
    """
    lines = []
    for name in sorted(metrics):
        if not metric_name_is_valid(name):
            raise MetricNameError(
                f"metric name {name!r} does not match the scheme "
                "repro_<subsystem>_<name>{labels}"
            )
        value = float(metrics[name])
        rendered = repr(value) if value != int(value) else str(int(value))
        lines.append(f"{name} {rendered}")
    return "\n".join(lines) + ("\n" if lines else "")


def chrome_trace_events(
    traces: Iterable[list[dict[str, Any]]]
) -> list[dict[str, Any]]:
    """Convert finished traces (lists of span dicts) to trace-event objects.

    Each span becomes one complete event; ``pid`` is the trace id (so the
    viewer groups each request into its own lane) and ``tid`` the OS thread.
    Coalesce edges are emitted as flow-event pairs keyed by the leader's
    span id.
    """
    spans: list[dict[str, Any]] = []
    for trace in traces:
        spans.extend(trace)
    if not spans:
        return []
    origin = min(s["start"] for s in spans)

    def _us(stamp: float) -> int:
        return int(round((stamp - origin) * 1_000_000))

    events: list[dict[str, Any]] = []
    leader_sites: dict[int, dict[str, Any]] = {}
    followers: list[dict[str, Any]] = []
    for entry in spans:
        end = entry["end"] if entry["end"] is not None else entry["start"]
        event = {
            "ph": "X",
            "name": entry["name"],
            "cat": entry["name"].split(".", 1)[0],
            "pid": entry["trace_id"],
            "tid": entry["thread_id"],
            "ts": _us(entry["start"]),
            "dur": max(_us(end) - _us(entry["start"]), 0),
            "args": {
                "span_id": entry["span_id"],
                "parent_id": entry["parent_id"],
                **entry["attributes"],
            },
        }
        events.append(event)
        leader_sites[entry["span_id"]] = event
        if "batch.leader_span" in entry["attributes"]:
            followers.append(event)
    for event in followers:
        leader_id = event["args"]["batch.leader_span"]
        leader = leader_sites.get(leader_id)
        if leader is not None:
            events.append(
                {
                    "ph": "s",
                    "id": leader_id,
                    "name": "batch.coalesce",
                    "cat": "batch",
                    "pid": leader["pid"],
                    "tid": leader["tid"],
                    "ts": leader["ts"],
                }
            )
        events.append(
            {
                "ph": "f",
                "bp": "e",
                "id": leader_id,
                "name": "batch.coalesce",
                "cat": "batch",
                "pid": event["pid"],
                "tid": event["tid"],
                "ts": event["ts"],
            }
        )
    return events


def write_chrome_trace(
    path: str, traces: Iterable[list[dict[str, Any]]]
) -> int:
    """Write traces as a Chrome trace-event JSON file; returns the event count."""
    events = chrome_trace_events(traces)
    payload = {"traceEvents": events, "displayTimeUnit": "ms"}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    return len(events)
