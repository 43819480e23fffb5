"""Per-layer attribution of traced requests.

The program's own spans (``repro.obs.tracing``) cover the service, engine,
batcher, matrix build, Monte-Carlo search and mechanism run.  The layers
that have no span yet are timed from outside: :func:`layer_wrappers`
replaces a handful of public methods with wrappers that open a
``tracing.span`` around the original call.  :class:`LayerTable` then turns
finished traces into self time per layer, where a span's self time is its
duration minus the part of it that its child spans cover.  Self time of a
trace's root span is time that falls under no layer span: "unattributed".
"""

from __future__ import annotations

import contextlib
import functools
from collections import defaultdict
from typing import Any, Iterable, Iterator

from repro.data.table import Table
from repro.er.predicates import SimilarityCache
from repro.mechanisms.strategies import StrategyMatrix
from repro.obs import tracing
from repro.queries.workload import Workload, WorkloadMatrix
from repro.reliability.journal import LedgerJournal
from repro.store import ArtifactStore

#: Public methods timed from outside, as ``(owner, method, span name)``.
WRAPPED_METHODS = (
    (StrategyMatrix, "supports", "bench.strategy_build"),
    (StrategyMatrix, "reconstruction", "bench.strategy_build"),
    (WorkloadMatrix, "partition_histogram", "bench.partition_histogram"),
    (Workload, "evaluate", "bench.workload_evaluate"),
    (Table, "append_rows", "bench.append_rows"),
    (Table, "snapshot", "bench.snapshot"),
    (Table, "domain_stamp", "bench.snapshot"),
    (ArtifactStore, "load", "bench.store_load"),
    (ArtifactStore, "save", "bench.store_save"),
    (LedgerJournal, "append", "bench.journal_append"),
    (SimilarityCache, "scores", "bench.similarity"),
)

#: Span name -> layer key.  ``mechanism.run`` is keyed per mechanism.
SPAN_LAYERS = {
    "service.admission": "service.admission",
    "service.snapshot_pin": "service.admission",
    "batch.leader": "service.batch",
    "batch.follower": "service.batch",
    "engine.explore": "core.engine",
    "engine.preview_cost": "core.engine",
    "engine.translate": "core.translate",
    "engine.reserve": "core.reserve",
    "engine.commit": "core.commit",
    "wcqsm.search": "mechanisms.wcqsm_search",
    "workload.matrix_build": "queries.matrix_build",
    "bench.strategy_build": "mechanisms.strategy_build",
    "bench.partition_histogram": "queries.partition_histogram",
    "bench.workload_evaluate": "queries.workload_evaluate",
    "bench.append_rows": "data.append_rows",
    "bench.snapshot": "data.snapshot",
    "bench.store_load": "store.load",
    "bench.store_save": "store.save",
    "bench.journal_append": "reliability.journal_append",
    "bench.similarity": "er.similarity",
}

MECHANISMS = ("WCQ-LM", "WCQ-SM", "ICQ-LM", "ICQ-SM", "ICQ-MPM", "TCQ-LM", "TCQ-LTM")

#: Every layer key a table reports, in report order (plus "unattributed").
LAYER_KEYS = tuple(dict.fromkeys(SPAN_LAYERS.values())) + tuple(
    f"mechanisms.run.{name}" for name in MECHANISMS
)


def metric_name(layer: str, kind: str) -> str:
    """``service.admission`` -> ``service.admission_share`` (or ``_ms``);
    ``mechanisms.run.WCQ-LM`` -> ``mechanisms.run_share.WCQ-LM``."""
    if layer.startswith("mechanisms.run."):
        return f"mechanisms.run_{kind}.{layer[len('mechanisms.run.'):]}"
    return f"{layer}_{kind}"


@contextlib.contextmanager
def layer_wrappers() -> Iterator[None]:
    """Open a ``tracing.span`` around every method in :data:`WRAPPED_METHODS`."""
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in WRAPPED_METHODS]
    for (owner, attr, name), (_, _, original) in zip(WRAPPED_METHODS, originals):
        setattr(owner, attr, _spanned(original, name))
    try:
        yield
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)


def _spanned(function: Any, name: str) -> Any:
    @functools.wraps(function)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        with tracing.span(name):
            return function(*args, **kwargs)

    return wrapper


def _layer_of(entry: dict[str, Any]) -> str:
    if entry["name"] == "mechanism.run":
        return f"mechanisms.run.{entry['attributes'].get('mechanism', 'unknown')}"
    return SPAN_LAYERS.get(entry["name"], f"unmapped.{entry['name']}")


def _covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    cursor = start
    for low, high in sorted(intervals):
        low, high = max(low, cursor), min(high, end)
        if high > low:
            total += high - low
            cursor = high
    return total


class LayerTable:
    """Self time per layer, summed over traces (seconds at nominal speed)."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.root_s = 0.0
        self.traces = 0

    def add_traces(self, traces: Iterable[list[dict[str, Any]]], factor: float) -> None:
        for trace in traces:
            self.traces += 1
            ids = {entry["span_id"] for entry in trace}
            children: dict[int, list[tuple[float, float]]] = defaultdict(list)
            for entry in trace:
                if entry["parent_id"] in ids:
                    children[entry["parent_id"]].append((entry["start"], _end(entry)))
            for entry in trace:
                start, end = entry["start"], _end(entry)
                own = (end - start) - _covered(children[entry["span_id"]], start, end)
                if entry["parent_id"] in ids:
                    self.self_s[_layer_of(entry)] += own * factor
                else:
                    self.self_s["unattributed"] += own * factor
                    self.root_s += (end - start) * factor

    def identity_error(self) -> float:
        """|sum of self times - root time| / root time (0 by construction
        unless spans escape their parents, e.g. overlapping children)."""
        if self.root_s <= 0.0:
            return 0.0
        return abs(sum(self.self_s.values()) - self.root_s) / self.root_s

    def to_json(self, ops: int) -> dict[str, Any]:
        keys = list(LAYER_KEYS) + sorted(
            key for key in self.self_s if key not in LAYER_KEYS and key != "unattributed"
        )
        per_op = 1e3 / max(ops, 1)
        return {
            "traces": self.traces,
            "ops": ops,
            "root_ms_per_op": self.root_s * per_op,
            "unattributed_share": self._share("unattributed"),
            "identity_error": self.identity_error(),
            "layers": {
                key: {"ms_per_op": self.self_s.get(key, 0.0) * per_op, "share": self._share(key)}
                for key in keys
            },
            "shares": {metric_name(key, "share"): self._share(key) for key in keys},
        }

    def _share(self, key: str) -> float:
        return self.self_s.get(key, 0.0) / self.root_s if self.root_s > 0 else 0.0


def _end(entry: dict[str, Any]) -> float:
    return entry["end"] if entry["end"] is not None else entry["start"]
