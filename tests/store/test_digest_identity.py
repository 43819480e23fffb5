"""The one-pass key encoder is byte-identical to the recursive canonical form.

``repro.store.fingerprint`` writes canonical JSON text directly.  The
recursive ``old_canonical`` below (the form the text used to be dumped
from) is kept here as the oracle: every digest must equal the SHA-256 of
``json.dumps(old_canonical(x), separators=(",", ":"))``, and the golden
digests pin real translation keys and a domain fingerprint, so a store
written before the encoder changed keeps hitting.
"""

import dataclasses
import enum
import gc
import hashlib
import json
import sys
import threading
from typing import Mapping

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.queries import build_benchmark
from repro.core.accuracy import AccuracySpec
from repro.core.translator import AccuracyTranslator
from repro.data.schema import Attribute, CategoricalDomain, NumericDomain, Schema
from repro.mechanisms.registry import default_registry
from repro.queries.parser import parse_query
from repro.store import canonical_form, stable_digest
from repro.store import fingerprint
from repro.workloads.config import GeneratorConfig
from repro.workloads.population import MicrosimulationGenerator
from repro.workloads.scripts import query_templates
from tests.store.test_fingerprint import make_table


class _Uncanonical(Exception):
    pass


def old_canonical(obj: object) -> object:
    """The recursive canonical form the key text used to be dumped from."""
    if obj is None:
        return ["z"]
    if isinstance(obj, bool):
        return ["b", obj]
    if isinstance(obj, int):
        return ["i", str(obj)]
    if isinstance(obj, float):
        return ["f", obj.hex()]
    if isinstance(obj, str):
        return ["s", obj]
    if isinstance(obj, bytes):
        return ["y", obj.hex()]
    if isinstance(obj, enum.Enum):
        return ["e", type(obj).__name__, old_canonical(obj.value)]
    if isinstance(obj, (tuple, list)):
        return ["t", [old_canonical(item) for item in obj]]
    if isinstance(obj, (set, frozenset)):
        items = [old_canonical(item) for item in obj]
        items.sort(key=lambda form: json.dumps(form, separators=(",", ":")))
        return ["S", items]
    if isinstance(obj, Mapping):
        items = [[old_canonical(k), old_canonical(v)] for k, v in obj.items()]
        items.sort(key=lambda pair: json.dumps(pair[0], separators=(",", ":")))
        return ["m", items]
    hook = getattr(type(obj), "__stable_identity__", None)
    if hook is not None and not isinstance(obj, type):
        identity = obj.__stable_identity__()
        if identity is None:
            raise _Uncanonical(type(obj).__name__)
        return [
            "I",
            f"{type(obj).__module__}.{type(obj).__qualname__}",
            old_canonical(identity),
        ]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = [
            old_canonical(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
            if not f.name.startswith("_")
        ]
        return ["d", f"{type(obj).__module__}.{type(obj).__qualname__}", fields]
    raise _Uncanonical(type(obj).__name__)


def old_text(obj: object) -> str | None:
    try:
        form = old_canonical(obj)
    except _Uncanonical:
        return None
    return json.dumps(form, separators=(",", ":"), ensure_ascii=True)


def new_text(obj: object) -> str | None:
    try:
        return fingerprint._encode(obj)
    except fingerprint._Uncanonical:
        return None


def assert_identical(obj: object) -> None:
    expected = old_text(obj)
    assert new_text(obj) == expected
    if expected is None:
        assert stable_digest(obj) is None
        with pytest.raises(TypeError):
            canonical_form(obj)
    else:
        assert stable_digest(obj) == hashlib.sha256(expected.encode()).hexdigest()
        assert json.dumps(canonical_form(obj), separators=(",", ":")) == expected


# -- value zoo ------------------------------------------------------------------


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class Color(enum.Enum):
    RED = "red"
    BLUE = ("b", 2)


class Label(str):
    pass


@dataclasses.dataclass(frozen=True)
class Pair:
    left: object
    right: object
    _derived: object = None


@dataclasses.dataclass(frozen=True)
class Named:
    """Has both a stable identity and dataclass fields: the hook wins."""

    name: object
    hidden: object = "fields are not encoded"

    def __stable_identity__(self):
        return self.name


class Opaque:
    def __stable_identity__(self):
        return None


SPECIAL_FLOATS = [0.0, -0.0, float("nan"), float("inf"), -float("inf"), 0.1 + 0.2, 5e-324]
SPECIAL_STRINGS = [
    "",
    'quote " and \\ backslash',
    "\n\t\x00\x1f\x7f",
    "café ☃ \U0001f600",
    "\ud800",
    "a\udfffb",
]

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(10**40), 10**40),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(SPECIAL_FLOATS),
    st.floats(allow_nan=True).map(np.float64),
    st.sampled_from(list(Level) + list(Color)),
    st.text(),
    st.sampled_from(SPECIAL_STRINGS),
    st.text().map(Label),
    st.binary(max_size=16),
)

def hashable_container(kind_and_items):
    kind, items = kind_and_items
    if kind == "tuple":
        return tuple(items)
    if kind == "frozenset":
        return frozenset(items)
    return Named(tuple(items))


def container(kind_items_keys):
    kind, items, keys = kind_items_keys
    if kind == "list":
        return items
    if kind == "tuple":
        return tuple(items)
    if kind == "set":
        return set(keys)
    if kind == "frozenset":
        return frozenset(keys)
    if kind == "dict":
        return dict(zip(keys, items))
    if kind == "pair":
        return Pair(items, keys, _derived=object())
    return (Opaque(), *items)


# Each extension names ``children`` once: nested strategy reprs stay small.
hashables = st.recursive(
    scalars,
    lambda children: st.tuples(
        st.sampled_from(["tuple", "frozenset", "named"]), st.lists(children, max_size=4)
    ).map(hashable_container),
    max_leaves=12,
)

values = st.recursive(
    hashables,
    lambda children: st.tuples(
        st.sampled_from(["list", "tuple", "set", "frozenset", "dict", "pair", "opaque"]),
        st.lists(children, max_size=4),
        st.lists(hashables, max_size=4),
    ).map(container),
    max_leaves=25,
)


class TestEncoderParity:
    @settings(max_examples=400, deadline=None)
    @given(values)
    def test_text_equals_the_recursive_form(self, value):
        assert_identical(value)

    @pytest.mark.parametrize("value", SPECIAL_FLOATS + SPECIAL_STRINGS, ids=repr)
    def test_special_scalars(self, value):
        assert_identical(value)
        assert_identical((value, [value], {value: value}))

    def test_subclasses_take_their_old_branch(self):
        for value in (np.float64(0.5), np.float64("nan"), Level.HIGH, Label("xé")):
            assert_identical(value)
        assert fingerprint._encode(np.float64(0.5)) == fingerprint._encode(0.5)
        assert fingerprint._encode(Level.HIGH)[:5] == '["i",'  # int before Enum

    def test_equal_text_mapping_keys_keep_insertion_order(self):
        nans = [float("nan"), float("nan")]  # distinct keys, equal text
        assert_identical({nans[0]: "first", nans[1]: "second"})
        assert_identical({nans[1]: "second", nans[0]: "first"})

    def test_hooks_and_underscore_fields(self):
        assert_identical(Pair(1, "a", _derived=object()))  # skipped field
        assert_identical(Named(("v", 2)))
        assert_identical(Named(Opaque()))
        assert new_text((1, Opaque())) is None
        assert new_text(Pair) is None  # a class is not a value
        assert new_text(object()) is None

    def test_schemas_and_predicates(self):
        from repro.queries.predicates import And, Between, Comparison, In

        schema = make_table().schema
        assert_identical(schema)
        assert_identical(
            ("k", schema, And([Between("score", 1.0, 2.0), In("state", ["CA", "NY"])]),
             Comparison("state", "==", "CA"))
        )


# -- golden digests ---------------------------------------------------------------

#: Translation-list store keys of the twelve Table 1 queries (2,000-row
#: tables, seed 0, alpha = 0.08 |D|, beta = 5e-4, mc_samples = 200).
TABLE1_KEYS = {
    "QW1": "3d321386563ae083b8303566f09e38c7349f71e8d9d59ea995d63f1f403e0309",
    "QW2": "54d7d11fa00135567b501bff4e5b0983a360ed8de9183363a8369b0a77f77f9b",
    "QW3": "6ce1fdd6f9a18f909b68a186bb78d32039a3f92f495fd14f90347ae81fd07b9d",
    "QW4": "5b97d48d0f3c4b72435182f50ed843568f2e6d9320ed9762eaac5b0f5dd0c2a8",
    "QI1": "2b07651296e2d4d9294eaa74a54988503bccb06e3d89c78de1b4fb504ad7746d",
    "QI2": "c2929c852abd907ea9ab79f4a2b934c2ce19a19857aab2ad936c0402e00bfee9",
    "QI3": "7d5bdb44b28248443aa18ca70ed4bc94ed764b82ce9d81ab99db496b2ae035d4",
    "QI4": "cc04f9f35754ad6a1f30e865b243979c34c9a3db1cbb66aacc331a5b37e79c16",
    "QT1": "ea0b95815110927b00058f629289000367f7d035de24c6e665525c06df9b63fc",
    "QT2": "e8203a6d6710aeea7b88fd5be35a5707ec265eb12941db71db098595a02b80b3",
    "QT3": "5773d31370ce5c96e8519f9d64b9c05a43b7c9cf3afec4065197cef367c45e21",
    "QT4": "e73a6138b8010a7c8912dbe3e36878fb870990d700eb53090c6a17f33a3f8f5d",
}

#: Store keys of the five ``append_stream`` query templates (seed 2,
#: 500 initial rows, mixed drift, mc_samples = 200).
APPEND_TEMPLATE_KEYS = [
    "e6a8667d027180bd1aba3f9cda7db656a06b7d82c284949797aa45b73ca3414a",
    "fc2f4577c6432a3777b192ef0756011bca72fc22a5c5338f0acbbddcfd252065",
    "a62169a563ae7ec803411376dc08795c902dc883118683ea7c9c544f715da035",
    "6f41a5becd2d9959a190504f1a8f3da79101dfa3867664df33b87764d8eb9910",
    "dab6f04ec61ba38d7e6bbb347ac71caee94084b0a13cc7c2a8072361bb31ac5d",
]

#: ``make_table().domain_fingerprint("state")`` (categorical: observed values).
STATE_FINGERPRINT = "ed93407041ecbd40721bf92422d5a532a6b354d443db1035e3cb17478821208e"


class TestGoldenDigests:
    @pytest.fixture(scope="class")
    def store_key(self):
        registry = default_registry(mc_samples=200)
        translator = AccuracyTranslator(registry=registry)

        def key(query, accuracy, table):
            snapshot = table.snapshot()
            stamp = snapshot.domain_stamp(query.workload.attributes())
            return translator._store_digest(
                query, accuracy, snapshot.schema, stamp, registry.for_query(query)
            )

        return key

    def test_table1_translation_keys(self, store_key):
        bench = build_benchmark(adult_rows=2_000, nytaxi_rows=2_000, seed=0)
        keys = {}
        for entry in bench:
            table = bench.table_for(entry)
            accuracy = AccuracySpec(alpha=0.08 * len(table), beta=5e-4)
            keys[entry.name] = store_key(entry.query, accuracy, table)
        assert keys == TABLE1_KEYS

    def test_append_stream_template_keys(self, store_key):
        config = GeneratorConfig(
            seed=2, initial_rows=500, periods=2, rows_per_period=50, drift="mixed"
        )
        table = MicrosimulationGenerator(config).build_table()
        keys = [
            store_key(*parse_query(text), table) for text in query_templates(config)
        ]
        assert keys == APPEND_TEMPLATE_KEYS

    def test_categorical_domain_fingerprint(self):
        assert make_table().domain_fingerprint("state") == STATE_FINGERPRINT


# -- the per-schema text memo ----------------------------------------------------------


def one_column_schema(low, high, name="R") -> Schema:
    return Schema([Attribute("x", NumericDomain(low, high))], name=name)


class TestSchemaTextMemo:
    def test_equal_but_distinct_schemas_keep_their_own_text(self):
        ints, floats = one_column_schema(0, 100), one_column_schema(0.0, 100.0)
        assert ints == floats and hash(ints) == hash(floats)
        first, second = fingerprint._encode(ints), fingerprint._encode(floats)
        assert first != second
        assert first == old_text(ints) and second == old_text(floats)
        # Both memoized, each under its own identity.
        assert fingerprint._encode(ints) == first
        assert fingerprint._encode(floats) == second

    def test_memo_hit_is_the_memoized_text(self):
        schema = make_table().schema
        text = fingerprint._encode(schema)
        assert fingerprint._text_memo[id(schema)][1] is text
        assert fingerprint._encode(schema) is text

    def test_entry_dropped_when_the_schema_is_collected(self):
        before = len(fingerprint._text_memo)
        for index in range(50):
            fingerprint._encode(one_column_schema(0, index + 1))
        gc.collect()
        assert len(fingerprint._text_memo) <= before

    def test_reused_id_never_returns_stale_text(self):
        # Fresh schemas of different content, each collected before the
        # next is built: CPython typically hands the next one the same id.
        for index in range(50):
            schema = one_column_schema(0, index + 1, name=f"S{index}")
            assert fingerprint._encode(schema) == old_text(schema)
            del schema
            gc.collect()

    def test_identity_check_rejects_an_entry_for_another_object(self):
        schema, other = one_column_schema(0, 7), one_column_schema(0, 8)
        stale = fingerprint._encode(other)
        fingerprint._text_memo[id(schema)] = fingerprint._text_memo[id(other)]
        try:
            assert fingerprint._encode(schema) == old_text(schema) != stale
        finally:
            fingerprint._text_memo.pop(id(schema), None)

    def test_threads_encoding_one_fresh_schema_agree(self):
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for round_index in range(5):
                schema = Schema(
                    [
                        Attribute(
                            "state",
                            CategoricalDomain(tuple(f"s{i}" for i in range(200 + round_index))),
                        ),
                        Attribute("score", NumericDomain(0, 1000)),
                    ]
                )
                barrier = threading.Barrier(8)
                texts: list[str] = []

                def encode() -> None:
                    barrier.wait(timeout=10)
                    texts.append(fingerprint._encode(("key", schema)))

                threads = [threading.Thread(target=encode) for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10)
                    assert not thread.is_alive()
                assert len(texts) == 8 and set(texts) == {old_text(("key", schema))}
        finally:
            sys.setswitchinterval(previous)
