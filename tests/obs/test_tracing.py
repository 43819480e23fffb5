"""Tracing battery: tree shape, sampling, propagation, service span chains."""

import threading

import pytest

from repro.obs.tracing import (
    Tracer,
    annotate,
    current_span,
    get_tracer,
    install_tracer,
    root_span,
    span,
    span_tree,
)


@pytest.fixture
def tracer():
    installed = Tracer(1.0, keep_traces=32, seed=0)
    previous = install_tracer(installed)
    yield installed
    install_tracer(previous)


@pytest.fixture
def no_tracer():
    previous = install_tracer(None)
    yield
    install_tracer(previous)


class TestSpanTreeShape:
    def test_nested_spans_form_one_tree(self, tracer):
        with root_span("svc.request", analyst="a0") as root:
            with span("svc.step_one") as one:
                with span("svc.inner") as inner:
                    pass
            with span("svc.step_two") as two:
                pass
        (trace,) = tracer.drain()
        by_name = {s["name"]: s for s in trace}
        assert by_name["svc.request"]["parent_id"] is None
        assert by_name["svc.step_one"]["parent_id"] == root.span_id
        assert by_name["svc.inner"]["parent_id"] == one.span_id
        assert by_name["svc.step_two"]["parent_id"] == root.span_id
        assert by_name["svc.request"]["attributes"] == {"analyst": "a0"}
        assert {one.span_id, two.span_id, inner.span_id} <= {
            s["span_id"] for s in trace
        }
        # Spans publish in completion order; the root always lands last.
        assert trace[-1]["name"] == "svc.request"

    def test_span_tree_helper_orders_by_depth_and_start(self, tracer):
        with root_span("svc.request"):
            with span("svc.a"):
                with span("svc.a_child"):
                    pass
            with span("svc.b"):
                pass
        (trace,) = tracer.drain()
        walked = [(depth, s["name"]) for depth, s in span_tree(trace)]
        assert walked == [
            (0, "svc.request"),
            (1, "svc.a"),
            (2, "svc.a_child"),
            (1, "svc.b"),
        ]

    def test_nested_entry_points_degrade_to_one_tree(self, tracer):
        """Stacked root_span calls (a caller's own request over service over
        engine) must produce a single trace, not three."""
        with root_span("caller.request"):
            with root_span("service.explore"):
                with root_span("engine.explore"):
                    pass
        traces = tracer.drain()
        assert len(traces) == 1
        names = {s["name"] for s in traces[0]}
        assert names == {"caller.request", "service.explore", "engine.explore"}
        stats = tracer.stats()
        assert stats["roots_started"] == 1.0
        assert stats["roots_sampled"] == 1.0

    def test_exception_stamps_error_attribute(self, tracer):
        with pytest.raises(RuntimeError):
            with root_span("svc.request"):
                with span("svc.boom"):
                    raise RuntimeError("kaput")
        (trace,) = tracer.drain()
        by_name = {s["name"]: s for s in trace}
        assert by_name["svc.boom"]["attributes"]["error"] == "RuntimeError"
        assert by_name["svc.request"]["attributes"]["error"] == "RuntimeError"
        assert all(s["end"] is not None for s in trace)

    def test_annotate_targets_the_current_span(self, tracer):
        with root_span("svc.request"):
            with span("svc.translate"):
                annotate("cache_tier", "built")
            annotate("outcome", "answered")
        (trace,) = tracer.drain()
        by_name = {s["name"]: s for s in trace}
        assert by_name["svc.translate"]["attributes"] == {"cache_tier": "built"}
        assert by_name["svc.request"]["attributes"] == {"outcome": "answered"}


class TestSamplingAndDisabledPath:
    def test_no_tracer_means_shared_noop(self, no_tracer):
        assert get_tracer() is None
        handle = root_span("svc.request")
        assert handle is span("svc.child")
        with handle as entered:
            assert entered is None
        annotate("key", "value")  # must not raise
        assert current_span() is None

    def test_zero_rate_counts_roots_but_keeps_nothing(self, no_tracer):
        tracer = Tracer(0.0, seed=0)
        install_tracer(tracer)
        for _ in range(5):
            with root_span("svc.request"):
                with span("svc.child"):
                    pass
        assert tracer.drain() == []
        stats = tracer.stats()
        assert stats["roots_started"] == 5.0
        assert stats["roots_sampled"] == 0.0

    def test_head_sampling_keeps_whole_traces(self, no_tracer):
        tracer = Tracer(0.5, seed=7)
        install_tracer(tracer)
        for _ in range(40):
            with root_span("svc.request"):
                with span("svc.child"):
                    pass
        traces = tracer.drain()
        stats = tracer.stats()
        assert 0 < len(traces) < 40
        assert stats["roots_sampled"] == float(len(traces))
        # A kept trace is always complete: sampling is decided at the root.
        for trace in traces:
            assert {s["name"] for s in trace} == {"svc.request", "svc.child"}

    def test_invalid_sample_rate_rejected(self):
        with pytest.raises(ValueError):
            Tracer(1.5)

    def test_ring_is_bounded(self, no_tracer):
        tracer = Tracer(1.0, keep_traces=4, seed=0)
        install_tracer(tracer)
        for i in range(10):
            with root_span("svc.request", index=i):
                pass
        traces = tracer.drain()
        assert len(traces) == 4
        assert [t[0]["attributes"]["index"] for t in traces] == [6, 7, 8, 9]


class TestThreadLocalContext:
    """The current span is per thread: a request's trace holds the spans of
    the thread that serves it, and nothing leaks across threads."""

    def test_worker_thread_span_outside_a_request_is_a_noop(self, tracer):
        seen = []

        def work():
            seen.append(current_span())
            with span("svc.worker") as handle:
                seen.append(handle)

        with root_span("svc.request") as root:
            worker = threading.Thread(target=work)
            worker.start()
            worker.join()
            assert current_span() is root
        (trace,) = tracer.drain()
        assert seen == [None, None]
        assert [s["name"] for s in trace] == ["svc.request"]

    def test_worker_thread_root_starts_its_own_trace(self, tracer):
        def work():
            with root_span("svc.worker_request"):
                with span("svc.worker_child"):
                    pass

        with root_span("svc.request"):
            worker = threading.Thread(target=work)
            worker.start()
            worker.join()
        traces = tracer.drain()
        assert len(traces) == 2
        by_root = {
            next(s["name"] for s in t if s["parent_id"] is None): t for t in traces
        }
        assert set(by_root) == {"svc.request", "svc.worker_request"}
        assert [s["name"] for s in by_root["svc.request"]] == ["svc.request"]
        worker_trace = by_root["svc.worker_request"]
        assert {s["name"] for s in worker_trace} == {
            "svc.worker_request",
            "svc.worker_child",
        }
        assert len({s["thread_id"] for s in worker_trace}) == 1
        assert (
            worker_trace[0]["trace_id"] != by_root["svc.request"][0]["trace_id"]
        )

    def test_service_explore_on_a_worker_thread_is_one_trace(self, tracer):
        """An explore served on a pool thread opens its root span there; the
        engine entry point nests beneath it on the same thread."""
        from tests.service.util import small_table

        service = _traced_service(small_table(256))
        query, accuracy = _trace_query()
        results = []
        worker = threading.Thread(
            target=lambda: results.append(service.explore("a-0", query, accuracy))
        )
        worker.start()
        worker.join()
        assert len(results) == 1 and not results[0].denied
        (trace,) = tracer.drain()
        by_name = {s["name"]: s for s in trace}
        root = by_name["service.explore"]
        assert root["parent_id"] is None
        assert root["attributes"]["analyst"] == "a-0"
        assert by_name["engine.explore"]["parent_id"] == root["span_id"]
        assert all(s["trace_id"] == root["trace_id"] for s in trace)
        assert root["thread_id"] != threading.get_ident()
        assert {s["thread_id"] for s in trace} == {root["thread_id"]}


#: ``cache_tier`` span label -> translator counter that one such span bumps.
_TIER_COUNTERS = {
    "exact": "hits",
    "token": "token",
    "disk": "disk_hits",
    "built": "built",
}


def _traced_service(table, store=None):
    from repro.mechanisms.registry import default_registry
    from repro.service import ExplorationService

    service = ExplorationService(
        table,
        budget=10.0,
        registry=default_registry(mc_samples=50),
        seed=0,
        store=store,
    )
    service.register_analyst("a-0")
    return service


def _trace_query():
    from repro.core.accuracy import AccuracySpec
    from repro.queries.builders import histogram_workload
    from repro.queries.query import WorkloadCountingQuery

    query = WorkloadCountingQuery(
        histogram_workload("amount", start=0, stop=10_000, bins=4),
        name="trace-q",
    )
    return query, AccuracySpec(alpha=8.0, beta=1e-3)


def _traced_preview(service, tracer, query=None):
    """One traced preview: its spans and its ``engine.translate`` tier labels.

    Every label must be exactly one bump of the matching translator
    counter, so the span labels and ``stats()["translations"]`` agree.
    """
    default, accuracy = _trace_query()
    query = query or default
    before = dict(service.stats()["translations"])
    service.preview_cost("a-0", query, accuracy)
    after = dict(service.stats()["translations"])
    (trace,) = tracer.drain()
    labels = [
        s["attributes"]["cache_tier"]
        for s in trace
        if s["name"] == "engine.translate"
    ]
    for tier, counter in _TIER_COUNTERS.items():
        assert labels.count(tier) == after[counter] - before[counter], tier
    return trace, labels


class TestServiceSpans:
    def test_cold_preview_produces_the_acceptance_chain(self, tracer):
        from tests.service.util import small_table

        service = _traced_service(small_table(256))
        query, accuracy = _trace_query()
        trace, labels = _traced_preview(service, tracer)
        names = {s["name"] for s in trace}
        assert {
            "service.preview_cost",
            "service.admission",
            "service.snapshot_pin",
            "engine.preview_cost",
            "engine.translate",
            "workload.matrix_build",
            "wcqsm.search",
        } <= names
        assert labels == ["built"]

        service.explore("a-0", query, accuracy)
        (trace,) = tracer.drain()
        names = {s["name"] for s in trace}
        assert {
            "service.explore",
            "service.admission",
            "service.snapshot_pin",
            "engine.explore",
            "engine.translate",
            "engine.reserve",
            "mechanism.run",
            "engine.commit",
        } <= names
        translate = next(s for s in trace if s["name"] == "engine.translate")
        assert translate["attributes"]["cache_tier"] == "exact"

    def test_cache_tier_labels_match_counters_on_every_tier(self, tracer, tmp_path):
        from repro.queries.workload import clear_matrix_cache
        from repro.store import ArtifactStore
        from tests.service.util import small_table

        clear_matrix_cache()
        store = ArtifactStore(str(tmp_path))
        service = _traced_service(small_table(256), store=store)
        assert _traced_preview(service, tracer)[1] == ["built"]
        assert _traced_preview(service, tracer)[1] == ["exact"]
        # Translation reads no row: the post-append preview is an exact hit.
        rows = [
            {"region": "region-00", "channel": "web", "amount": 50.0 * i, "age": 30.0}
            for i in range(32)
        ]
        service.append_rows("default", rows)
        assert _traced_preview(service, tracer)[1] == ["exact"]
        # The same bins under other names: the exact key misses, and the
        # memoised matrix's token answers.
        from repro.queries.query import WorkloadCountingQuery
        from repro.queries.workload import Workload

        query, _ = _trace_query()
        renamed = WorkloadCountingQuery(
            Workload(query.workload.predicates, [f"bin-{i}" for i in range(query.workload_size)])
        )
        assert _traced_preview(service, tracer, renamed)[1] == ["token"]
        # A fresh service over the same store answers from disk.
        clear_matrix_cache()
        restarted = _traced_service(small_table(256), store=store)
        assert _traced_preview(restarted, tracer)[1] == ["disk"]
