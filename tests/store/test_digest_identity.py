"""The one-pass key encoder is byte-identical to the recursive canonical form.

``repro.store.fingerprint`` writes canonical JSON text directly.  The
recursive ``old_canonical`` below (the form the text used to be dumped
from) is kept here as the oracle: every digest must equal the SHA-256 of
``json.dumps(old_canonical(x), separators=(",", ":"))``, and the golden
digests pin real translation keys and one nested schema-attribute tuple, so
a store written before the encoder changed keeps hitting.
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
#: tables, seed 0, alpha = 0.08 |D|, beta = 5e-4, mc_samples = 200).  The
#: keys read the schema, never the rows.
TABLE1_KEYS = {
    "QW1": "668cecc4884d52511a1bc97dd184edb542759cc695ab8be54c4dbeaa3ae8f9f9",
    "QW2": "395e74cf4be438c9147866c99e1b03c04c9367e29fe57049819f1dbaa3f589e7",
    "QW3": "40fab1540413e4d678eff9f6e46659517219d58575d26afb71b0f55473cb285d",
    "QW4": "63d4fb55149c23f392aba83170ba0a0dd10cf5bacdaac884ffece391c6a56524",
    "QI1": "49a6073e37a82c7d26f51fc288f4b9423471b44b8ddb12545faf7219089defd7",
    "QI2": "7ed338edbe2319372647c98345c23eedb8a4e34923710ba753ed7e5fd2ffc102",
    "QI3": "3cd1a8f6ff8229e6d6e7f2a6ad84de6a79ef76f8beecd6b652a0a7e28fae57d6",
    "QI4": "9d15614e77284440268db63fda6f32fdae3d9bc1f1ccd150d2d8937a6a82188a",
    "QT1": "165d26bef6dc63065252d21df4f08581d3b0e8e22192ffd3d6a4f831082858eb",
    "QT2": "75abc1d0bb2b4c4d28dddaa8b8671bacf10416431ec2faf1993ea0dd5148c360",
    "QT3": "67d819b73d49ecaf05c73ebb9f8acd57485e8a44fbf5a484c51d0b15a6b724e3",
    "QT4": "b3623d4ae6b65c2edeb00fe3bd4800f938e6797ddd8dbd283f4cc326ec7aaf17",
}

#: Store keys of the five ``append_stream`` query templates (seed 2,
#: 500 initial rows, mixed drift, mc_samples = 200).
APPEND_TEMPLATE_KEYS = [
    "bcca43ff3bbe51d7ea75e767b3c3150f9f758dd6c74f072e6b6a2d3f994664ed",
    "bc58492e2e4aeeed8c4b3015507d9a8993cc85ea058f69405f942304f816a262",
    "5a3b26274fc645bfa1ca5f76bbeb37a86ea318d1c1ce9b7fe533e80e701df991",
    "c0dd26b422dc664c334498f0317094b15c31d99479194d5ccc6d1b614be5bc90",
    "5dcd1cd4e167f96a5c1feec31d1b8c24406ec20f0e5da7dd3a39f970aa12bfcb",
]

#: ``("domain", attribute, observed values)`` for ``make_table()``'s
#: categorical ``state``: a schema attribute nested in a tuple.
STATE_FINGERPRINT = "ed93407041ecbd40721bf92422d5a532a6b354d443db1035e3cb17478821208e"


class TestGoldenDigests:
    @pytest.fixture(scope="class")
    def store_key(self):
        registry = default_registry(mc_samples=200)
        translator = AccuracyTranslator(registry=registry)

        def key(query, accuracy, table):
            return translator._store_digest(
                query, accuracy, table.schema, registry.for_query(query)
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

    def test_attribute_tuple_digest(self):
        state = make_table().schema["state"]
        assert stable_digest(("domain", state, ("CA", "NY"))) == STATE_FINGERPRINT


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
