"""Each workload hashes its structure and walks its predicates once.

``Workload.__init__`` keeps the referenced-attribute set and one pre-hashed
``(predicates, names)`` key; ``Query.cache_key``, the matrix memo key and the
exact matrix token reuse them.  Pinned here:

* a warm request re-hashes no predicate and asks none for its attributes
  (before the key was kept, every memo probe re-hashed all ``L``
  predicates: 300 calls per warm engine request on an ``L = 100`` query);
* key equality is exactly the equality of the old flat tuples, rebuilt here
  as the oracle, and ``attributes()`` is the old per-predicate union;
* the cached hash never travels: a workload unpickled from a process with
  another ``PYTHONHASHSEED`` still finds an equal local workload's entry.
"""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.queries import build_benchmark
from repro.core.accuracy import AccuracySpec
from repro.core.engine import APExEngine
from repro.mechanisms.registry import default_registry
from repro.queries.predicates import (
    And,
    Between,
    Comparison,
    FunctionPredicate,
    In,
    IsNull,
    Not,
    Or,
    Predicate,
)
from repro.queries.query import (
    IcebergCountingQuery,
    TopKCountingQuery,
    WorkloadCountingQuery,
)
from repro.queries.workload import Workload, _IdKey, _structural_token
from repro.service.exploration import ExplorationService

ROOT = Path(__file__).resolve().parents[2]


# -- warm requests re-hash nothing ------------------------------------------------


def _predicate_classes() -> list[type]:
    out, stack = [], [Predicate]
    while stack:
        cls = stack.pop()
        out.append(cls)
        stack.extend(cls.__subclasses__())
    return out


@pytest.fixture
def calls(monkeypatch):
    """Count every predicate ``__hash__`` and ``attributes()`` call."""
    counts = {"hash": 0, "attributes": 0}

    def counting(name, method):
        def wrapper(self, *args):
            counts[name] += 1
            return method(self, *args)

        return wrapper

    for cls in _predicate_classes():
        if "__hash__" in vars(cls) and cls.__hash__ is not None:
            monkeypatch.setattr(cls, "__hash__", counting("hash", cls.__hash__))
        if "attributes" in vars(cls):
            monkeypatch.setattr(cls, "attributes", counting("attributes", cls.attributes))
    return counts


@pytest.fixture(scope="module")
def bench():
    return build_benchmark(adult_rows=2_000, nytaxi_rows=2_000, seed=0)


def _accuracy(table) -> AccuracySpec:
    return AccuracySpec(alpha=0.08 * len(table), beta=5e-4)


def _counting(calls, request) -> dict[str, int]:
    calls.update(hash=0, attributes=0)
    request()
    return dict(calls)


@pytest.mark.parametrize("name", ["QW1", "QW4", "QI1", "QI2", "QT1", "QT2"])
def test_warm_engine_requests_rehash_no_predicate(bench, calls, name):
    entry = bench[name]
    table = bench.table_for(entry)
    assert entry.query.workload_size == 100
    engine = APExEngine(
        table, budget=1e9, registry=default_registry(mc_samples=200), seed=0
    )
    accuracy = _accuracy(table)
    engine.preview_cost(entry.query, accuracy)
    engine.explore(entry.query, accuracy)
    zero = {"hash": 0, "attributes": 0}
    assert _counting(calls, lambda: engine.preview_cost(entry.query, accuracy)) == zero
    assert _counting(calls, lambda: engine.explore(entry.query, accuracy)) == zero


def test_warm_service_preview_rehashes_no_predicate(bench, calls):
    entry = bench["QW1"]
    table = bench.table_for(entry)
    service = ExplorationService(
        table, budget=1e9, registry=default_registry(mc_samples=200), seed=0
    )
    service.register_analyst("alice")
    accuracy = _accuracy(table)
    service.preview_cost("alice", entry.query, accuracy)
    preview = lambda: service.preview_cost("alice", entry.query, accuracy)  # noqa: E731
    assert _counting(calls, preview) == {"hash": 0, "attributes": 0}


# -- equality is the old flat key's -------------------------------------------------

#: A small pool, so drawn pairs are often equal; ``40`` and ``40.0`` are equal
#: but distinct constants, and two ``And``s equal but distinct objects.
_POOL = [
    Comparison("age", ">=", 40),
    Comparison("age", ">=", 40.0),
    Comparison("workclass", "==", "Private"),
    Between("age", 10, 20),
    In("workclass", ["Private", "State-gov"]),
    IsNull("title"),
    Not(Comparison("age", "<", 30)),
    And([Comparison("sex", "==", "Male"), Or([IsNull("title"), Between("hours", 0, 40)])]),
    And([Comparison("sex", "==", "Male"), Or([IsNull("title"), Between("hours", 0, 40)])]),
    FunctionPredicate("similar", len, ["title", "name"], version="v1"),
]

predicate_lists = st.lists(st.sampled_from(_POOL), min_size=1, max_size=4)
name_lists = st.lists(st.sampled_from(["a", "b"]), min_size=4, max_size=4)


@st.composite
def workloads(draw):
    preds = draw(predicate_lists)
    names = draw(st.none() | name_lists)
    return Workload(preds, None if names is None else names[: len(preds)])


@st.composite
def queries(draw):
    workload = draw(workloads())
    options = dict(
        disjoint=draw(st.sampled_from([None, True, False])),
        sensitivity=draw(st.sampled_from([None, 1.0, 2])),
    )
    kind = draw(st.sampled_from(["WCQ", "ICQ", "TCQ"]))
    if kind == "ICQ":
        return IcebergCountingQuery(workload, draw(st.sampled_from([5, 5.0, 7])), **options)
    if kind == "TCQ":
        return TopKCountingQuery(workload, draw(st.integers(1, workload.size)), **options)
    return WorkloadCountingQuery(workload, **options)


SCHEMAS = [object(), object()]


def old_cache_key(query, schema) -> tuple:
    """``Query.cache_key`` as it was: the structure spelled out flat."""
    workload = query.workload
    key = (
        query.kind.value,
        workload.predicates,
        workload.names,
        query._disjoint,
        query._sensitivity_override,
        None if schema is None else _IdKey(schema),
    )
    if isinstance(query, IcebergCountingQuery):
        return key + (query.threshold,)
    if isinstance(query, TopKCountingQuery):
        return key + (query.k,)
    return key


def old_attributes(workload) -> frozenset[str]:
    out: frozenset[str] = frozenset()
    for pred in workload.predicates:
        out = out | pred.attributes()
    return out


contexts = st.sampled_from([None] + SCHEMAS)


@settings(max_examples=300, deadline=None)
@given(queries(), queries(), contexts, contexts)
def test_cache_key_equality_matches_the_flat_key(first, second, at_first, at_second):
    new = first.cache_key(at_first), second.cache_key(at_second)
    old = old_cache_key(first, at_first), old_cache_key(second, at_second)
    assert (new[0] == new[1]) == (old[0] == old[1])
    if new[0] == new[1]:
        assert hash(new[0]) == hash(new[1])
    assert new[0] == first.cache_key(at_first)


@settings(max_examples=200, deadline=None)
@given(workloads(), workloads(), st.sampled_from(SCHEMAS))
def test_memo_keys_and_tokens_match_their_flat_forms(first, second, schema):
    old = lambda w: (w.predicates, w.names, _IdKey(schema), None, None)  # noqa: E731
    new = [w._analysis_key(schema, None, None) for w in (first, second)]
    assert (new[0] == new[1]) == (old(first) == old(second))
    # The exact matrix token keys on the predicates alone.
    tokens = [_structural_token(w, schema) for w in (first, second)]
    assert (tokens[0] == tokens[1]) == (first.predicates == second.predicates)
    if tokens[0] == tokens[1]:
        assert hash(tokens[0]) == hash(tokens[1])


@given(workloads())
def test_attributes_is_the_per_predicate_union(workload):
    assert workload.attributes() == old_attributes(workload)


def test_unhashable_predicate_disables_every_key():
    workload = Workload([Comparison("tags", "==", ["a", "b"])])
    assert workload.structure_key is None
    assert WorkloadCountingQuery(workload).cache_key(None) is None
    assert workload._analysis_key(None, None, None) is None
    assert workload.attributes() == frozenset({"tags"})


# -- the cached hash never travels ----------------------------------------------------


def _workloads() -> list[Workload]:
    return [
        Workload(_POOL[:-1], names=[f"bin-{i}" for i in range(len(_POOL) - 1)]),
        Workload([Comparison("workclass", "==", "Private"), IsNull("title")]),
    ]


def test_copies_rebuild_the_hash():
    for workload in _workloads():
        key = workload.structure_key
        for clone in (
            copy.copy(workload),
            copy.deepcopy(workload),
            pickle.loads(pickle.dumps(workload)),
        ):
            assert clone.structure_key == key and hash(clone.structure_key) == hash(key)
            assert clone.attributes() == workload.attributes()
        clone = pickle.loads(pickle.dumps(key))
        assert clone == key and clone._hash == hash(clone.value)


def test_pickle_from_a_process_with_another_hash_seed():
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    script = (
        "import pickle, sys\n"
        "from tests.queries.test_workload_key import _workloads\n"
        "workloads = _workloads()\n"
        "hashes = [hash(w.structure_key) for w in workloads]\n"
        "sys.stdout.buffer.write(pickle.dumps((workloads, hashes)))\n"
    )
    path = f"{ROOT / 'src'}{os.pathsep}{ROOT}"
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
    payload = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, check=True
    ).stdout
    remote, remote_hashes = pickle.loads(payload)
    for workload, remote_hash, local in zip(remote, remote_hashes, _workloads()):
        # The premise: the other process hashed this structure differently.
        assert remote_hash != hash(local.structure_key)
        assert hash(workload.structure_key) == hash(local.structure_key)
        assert {local.structure_key: "entry"}[workload.structure_key] == "entry"
        query, twin = WorkloadCountingQuery(workload), WorkloadCountingQuery(local)
        assert {twin.cache_key(None): "entry"}[query.cache_key(None)] == "entry"
