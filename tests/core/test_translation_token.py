"""The translator's memo key: key safety and memo-order regressions.

The translator memoises one translation list per
``(Query.translation_key(schema), alpha, beta)`` (at the registry's
generation), so it hands one query the list computed for another whenever
their keys are equal.  A key that omits an input ``translate`` reads would
hand one workload another workload's epsilon: a privacy bug, not a cache
bug.  Three checks pin the key:

* it names the matrix ``translate`` reads: it equals
  ``(kind, workload_matrix(schema).cache_token)`` (plus TCQ ``k``), is
  computed without touching the matrix memo, and is ``None`` exactly when
  the workload is unhashable (a hypothesis test);
* queries with equal keys get field-equal *fresh* translations from every
  registry mechanism, however their predicates, names and ICQ thresholds
  differ (a hypothesis test);
* a read audit proxies the query and its matrix during each ``translate``
  and fails on any attribute read outside the key.  A mechanism that starts
  reading, say, the ICQ threshold must extend ``translation_key`` first.

The rest pins the tier order memo -> disk -> translate: a query over an
already-memoised matrix is a memo hit, a post-append preview of the same
query object needs no matrix-memo lookup (even after an append that
introduces a declared but unobserved value), a fresh but equal query after
an append is answered by the memo, not the disk, and a list loaded from disk
answers every query over its matrix without building one.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core.accuracy import AccuracySpec
from repro.core.engine import APExEngine
from repro.core.exceptions import TranslationError
from repro.core.translator import AccuracyTranslator
from repro.mechanisms.laplace import LaplaceMechanism
from repro.mechanisms.registry import default_registry
from repro.mechanisms.strategy_mechanism import reset_search_stats
from repro.queries.predicates import Comparison, FunctionPredicate
from repro.queries.query import (
    IcebergCountingQuery,
    QueryKind,
    TopKCountingQuery,
    WorkloadCountingQuery,
)
from repro.queries.workload import Workload, clear_matrix_cache, matrix_cache_stats
from repro.store import ArtifactStore
from tests.store.test_schema_keys import (
    make_schema,
    make_table,
    make_workload,
    preserving_rows,
)

MC_SAMPLES = 64
ACCURACY = AccuracySpec(alpha=20.0, beta=1e-3)

#: What ``translate`` may read of a query.  ``workload_matrix`` hands out the
#: audited matrix; ``sensitivity`` and ``workload_size`` are that matrix's
#: ``||W||_1`` and row count, so all three are functions of its values.
QUERY_READS = frozenset({"kind", "k", "workload_matrix", "sensitivity", "workload_size"})
#: What ``translate`` may read of a matrix: its values, named by ``cache_token``.
MATRIX_READS = frozenset({"cache_token", "matrix", "sensitivity", "n_partitions", "shape"})

CUTS = (10.0, 50.0, 90.0)
SCORE_CUTS = [Comparison("score", ">", cut) for cut in CUTS]
SCHEMA = make_schema()


@pytest.fixture(autouse=True)
def _fresh_process_wide_caches():
    clear_matrix_cache()
    reset_search_stats()
    yield


def make_query(kind, predicates, names, *, threshold=0.0, k=1, **overrides):
    workload = Workload(predicates, names)
    if kind is QueryKind.ICQ:
        return IcebergCountingQuery(workload, threshold, **overrides)
    if kind is QueryKind.TCQ:
        return TopKCountingQuery(workload, k, **overrides)
    return WorkloadCountingQuery(workload, **overrides)


def outcome(mechanism, query, accuracy):
    """Every field of one translation, or the error it raised."""
    try:
        result = mechanism.translate(query, accuracy, SCHEMA)
    except TranslationError as exc:
        return ("error", str(exc))
    return (result.mechanism, result.epsilon_upper, result.epsilon_lower, dict(result.details))


def memo_key(query, accuracy):
    return (query.translation_key(SCHEMA), accuracy.alpha, accuracy.beta)


@st.composite
def query_pairs(draw):
    """A query and a variant with other names and ICQ threshold that differs
    in at most one more input: its predicates, its structural override or
    its ``k``."""
    kind = draw(st.sampled_from(list(QueryKind)))
    size = draw(st.integers(1, 3))
    overrides = st.sampled_from([{}, {"disjoint": True}, {"sensitivity": 2.5}])

    def predicates():
        op = draw(st.sampled_from([">", "=="]))
        return [Comparison("score", op, cut) for cut in draw(st.permutations(CUTS))[:size]]

    fresh = (predicates, lambda: draw(st.integers(1, size)), lambda: draw(overrides))
    first = [make() for make in fresh]
    second = list(first)
    varied = draw(st.sampled_from([None, 0, 1, 2]))
    if varied is not None:
        second[varied] = fresh[varied]()
    queries = tuple(
        make_query(
            kind,
            predicates,
            [f"{prefix}{i}" for i in range(size)],
            threshold=threshold,
            k=k,
            **options,
        )
        for (predicates, k, options), prefix, threshold in (
            (first, "a", 5.0),
            (second, "b", 50.0),
        )
    )
    accuracy = AccuracySpec(
        alpha=draw(st.floats(1.0, 200.0)), beta=draw(st.floats(1e-4, 0.3))
    )
    return queries, accuracy


def fresh_outcomes(query, accuracy):
    """Every registry mechanism's translation of ``query``, from a registry
    of its own, so no mechanism memo is shared with another query."""
    return [
        outcome(mechanism, query, accuracy)
        for mechanism in default_registry(mc_samples=MC_SAMPLES).for_query(query)
    ]


class _ReadAudit:
    """Delegates attribute reads to ``target``, recording each read outside
    ``allowed`` in ``violations``.  A query's ``workload_matrix`` comes back
    audited against :data:`MATRIX_READS`."""

    def __init__(self, target, allowed, violations):
        self._target, self._allowed, self._violations = target, allowed, violations

    @property
    def __class__(self):  # isinstance() checks see the target's type
        return type(self._target)

    def __getattr__(self, name):
        if name not in self._allowed:
            self._violations.append(f"{type(self._target).__name__}.{name}")
        value = getattr(self._target, name)
        if name == "workload_matrix":
            return lambda *args, **kwargs: _ReadAudit(
                value(*args, **kwargs), MATRIX_READS, self._violations
            )
        return value


#: Opaque (identity-hashed), so its workloads are analysed structurally.
OPAQUE = FunctionPredicate("opaque", lambda table: np.ones(len(table), dtype=bool), ["score"])
#: A list constant makes a predicate, and so its workload, unhashable.
UNHASHABLE = Comparison("score", "==", [10.0])
STRUCTURED = [
    *(Comparison("score", op, cut) for op in (">", "==") for cut in CUTS),
    Comparison("state", "==", "CA"),
]


@st.composite
def keyed_queries(draw):
    """A query of any kind, override, predicates, names and ICQ threshold,
    and the schema (or ``None``) it is keyed against."""
    kind = draw(st.sampled_from(list(QueryKind)))
    predicates = draw(st.lists(st.sampled_from(STRUCTURED), min_size=1, max_size=3))
    extra = draw(st.sampled_from([None, None, OPAQUE, UNHASHABLE]))
    if extra is not None:
        predicates.insert(draw(st.integers(0, len(predicates))), extra)
    names = draw(
        st.none()
        | st.lists(st.text("ab", max_size=2), min_size=len(predicates), max_size=len(predicates))
    )
    query = make_query(
        kind,
        predicates,
        names,
        threshold=draw(st.floats(-10.0, 100.0)),
        k=draw(st.integers(1, len(predicates))),
        **draw(st.sampled_from([{}, {}, {"disjoint": True}, {"disjoint": False}, {"sensitivity": 2.5}])),
    )
    return query, draw(st.sampled_from([None, SCHEMA, SCHEMA]))


def matrix_memo_lookups():
    stats = matrix_cache_stats()
    return stats["hits"], stats["misses"], stats["built"]


class TestKeySafety:
    @settings(max_examples=200, deadline=None)
    @given(keyed_queries())
    def test_the_key_names_the_matrix_without_building_it(self, drawn):
        query, schema = drawn
        before = matrix_memo_lookups()
        key = query.translation_key(schema)
        assert matrix_memo_lookups() == before
        assert (key is None) == (query.workload.structure_key is None)
        if key is None:
            return
        expected = (query.kind, query.workload_matrix(schema).cache_token)
        if query.kind is QueryKind.TCQ:
            expected += (query.k,)
        assert key == expected and hash(key) == hash(expected)
        # Warm, the key still reads no memo.
        before = matrix_memo_lookups()
        assert query.translation_key(schema) == key
        assert matrix_memo_lookups() == before

    @settings(max_examples=100, deadline=None)
    @given(query_pairs())
    def test_equal_keys_get_field_equal_fresh_translations(self, pair):
        (first, second), accuracy = pair
        assume(memo_key(first, accuracy) == memo_key(second, accuracy))
        assert fresh_outcomes(first, accuracy) == fresh_outcomes(second, accuracy)

    @pytest.mark.parametrize(
        "first, second",
        [
            (
                make_query(QueryKind.TCQ, SCORE_CUTS, None, k=1),
                make_query(QueryKind.TCQ, SCORE_CUTS, None, k=2),
            ),
            (
                make_query(QueryKind.WCQ, SCORE_CUTS, None),
                make_query(QueryKind.WCQ, [Comparison("score", "==", cut) for cut in CUTS], None),
            ),
            (
                make_query(QueryKind.ICQ, SCORE_CUTS, None),
                make_query(QueryKind.ICQ, SCORE_CUTS, None, sensitivity=2.5),
            ),
        ],
        ids=["k", "predicates", "override"],
    )
    def test_an_input_that_changes_a_translation_changes_the_key(self, first, second):
        assert fresh_outcomes(first, ACCURACY) != fresh_outcomes(second, ACCURACY)
        assert memo_key(first, ACCURACY) != memo_key(second, ACCURACY)

    def test_every_translate_reads_only_the_key(self):
        violations = []
        queries = [
            make_query(kind, SCORE_CUTS, None, threshold=5.0, k=2, **overrides)
            for kind in QueryKind
            for overrides in ({}, {"disjoint": True})
        ]
        for query in queries:
            for mechanism in default_registry(mc_samples=MC_SAMPLES).for_query(query):
                audited = _ReadAudit(query, QUERY_READS, violations)
                try:
                    mechanism.translate(audited, ACCURACY, SCHEMA)
                except TranslationError:
                    pass
        assert violations == []

    def test_the_audit_catches_a_read_outside_the_key(self):
        class ThresholdReading(LaplaceMechanism):
            def translate(self, query, accuracy, schema=None):
                query.threshold  # an input the memo key does not carry
                return super().translate(query, accuracy, schema)

        violations = []
        query = make_query(QueryKind.ICQ, SCORE_CUTS, None, threshold=5.0)
        mechanism = ThresholdReading(name="ICQ-LM", kinds=frozenset({QueryKind.ICQ}))
        mechanism.translate(
            _ReadAudit(query, QUERY_READS, violations), ACCURACY, SCHEMA
        )
        assert violations == ["IcebergCountingQuery.threshold"]


class TestTierOrder:
    def test_another_threshold_is_a_memo_hit_on_the_matrix_key(self):
        translator = AccuracyTranslator(default_registry(mc_samples=MC_SAMPLES))

        def iceberg(threshold):
            return IcebergCountingQuery(make_workload(), threshold)

        translator.translations(iceberg(5.0), ACCURACY, SCHEMA)
        built = matrix_cache_stats()["built"]
        # Another threshold has another structure but the same matrix, so
        # the same memo key: no matrix build, no translation.
        translator.translations(iceberg(50.0), ACCURACY, SCHEMA)
        stats = translator.cache_stats
        assert (stats["hits"], stats["built"], stats["coalesced"]) == (1, 1, 0)
        assert matrix_cache_stats()["built"] == built

    def test_same_query_after_append_needs_no_matrix_lookup_even_on_drift(self):
        table = make_table(make_schema())
        engine = APExEngine(
            table, budget=1e6, registry=default_registry(mc_samples=MC_SAMPLES), seed=5
        )
        query = WorkloadCountingQuery(make_workload(), name="q")
        engine.preview_cost(query, ACCURACY)

        def lookups():
            stats = matrix_cache_stats()
            return stats["hits"] + stats["misses"]

        before = lookups()
        table.append_rows(preserving_rows())
        engine.preview_cost(query, ACCURACY)
        engine.explore(query, ACCURACY)
        assert lookups() == before
        stats = engine.cache_stats()["translations"]
        assert (stats["hits"], stats["misses"], stats["built"]) == (2, 1, 1)

        # "TX" is declared but was never observed: the matrix already has
        # its column, so nothing is looked up or built.
        table.append_rows([{"state": "TX", "score": 1.0}])
        engine.preview_cost(query, ACCURACY)
        assert lookups() == before
        assert matrix_cache_stats()["built"] == 1
        assert engine.cache_stats()["translations"]["built"] == 1

    def test_fresh_query_after_append_hits_the_memo_not_disk(self, tmp_path):
        table = make_table(make_schema())
        engine = APExEngine(
            table,
            budget=1e6,
            registry=default_registry(mc_samples=MC_SAMPLES),
            seed=5,
            store=ArtifactStore(str(tmp_path)),
        )
        engine.preview_cost(WorkloadCountingQuery(make_workload(), name="q"), ACCURACY)
        table.append_rows(preserving_rows())
        engine.preview_cost(WorkloadCountingQuery(make_workload(), name="q"), ACCURACY)
        stats = engine.cache_stats()["translations"]
        assert (stats["hits"], stats["misses"], stats["disk_hits"], stats["built"]) == (1, 1, 0, 1)

    def test_a_disk_hit_answers_every_query_over_its_matrix(self, tmp_path):
        def structural(op):
            predicates = [Comparison("score", op, 10.0), Comparison("score", op, 20.0)]
            return WorkloadCountingQuery(Workload(predicates), sensitivity=2.0)

        def translator():
            return AccuracyTranslator(
                default_registry(mc_samples=MC_SAMPLES), store=ArtifactStore(str(tmp_path))
            )

        warm = translator()
        first = warm.translations(structural(">"), ACCURACY, SCHEMA)
        # Other predicates, the same structural matrix (one per (L,
        # sensitivity)): the memo answers before the disk, with the matrix
        # evicted, and writes nothing.
        clear_matrix_cache()
        early = warm.translations(structural(">="), ACCURACY, SCHEMA)
        stats = warm.cache_stats
        assert (stats["hits"], stats["built"], stats["disk_hits"], stats["disk_writes"]) == (
            1, 1, 0, 1,
        )
        assert early == first
        assert matrix_cache_stats()["built"] == 0

        restarted = translator()
        reloaded = restarted.translations(structural(">"), ACCURACY, SCHEMA)
        assert [result for _, result in reloaded] == [result for _, result in first]
        # The loaded list is memoised under the matrix key: a query the disk
        # never saw is a memo hit, and no matrix is ever built.
        again = restarted.translations(structural("<"), ACCURACY, SCHEMA)
        assert again == reloaded
        stats = restarted.cache_stats
        assert (stats["hits"], stats["disk_hits"], stats["built"]) == (1, 1, 0)
        assert matrix_cache_stats()["built"] == 0
