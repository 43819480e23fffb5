"""Leaf vectors: one array comparison per condition, byte for byte the
per-atom ``evaluate_cell`` loop.

Exact domain analysis builds each atomic condition's truth value per atom of
its attribute (its *leaf vector*) as one numpy expression over that
attribute's atom arrays.  :func:`repro.queries.reference.reference_leaf_vectors`
keeps the per-atom loop it replaced; the two must agree byte for byte --
errors included -- on the cold benchmark templates, the Table 1 queries, the
generated replay templates and random workloads, and the matrices built from
them must equal :func:`repro.queries.reference.reference_domain_matrix`.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.queries import build_benchmark
from repro.core.exceptions import PredicateError
from repro.data.adult import ADULT_SCHEMA
from repro.data.nytaxi import NYTAXI_SCHEMA
from repro.data.schema import Attribute, CategoricalDomain, NumericDomain, Schema
from repro.data.table import Table
from repro.queries.builders import (
    cumulative_histogram_workload,
    histogram_workload,
    point_workload,
    prefix_workload,
)
from repro.queries.parser import parse_predicate, parse_query
from repro.queries.predicates import And, Between, Comparison, In, IsNull, Not, Or
from repro.queries.reference import reference_domain_matrix, reference_leaf_vectors
from repro.queries.workload import (
    Workload,
    WorkloadMatrix,
    _attribute_atoms,
    _leaf_vectors,
)
from repro.workloads.config import GeneratorConfig
from repro.workloads.population import population_schema
from repro.workloads.scripts import query_templates


def outcome(build, workload, atoms):
    """``("ok", vectors)`` or ``("error", type, message)`` of one builder."""
    try:
        return ("ok", build(workload, atoms))
    except Exception as exc:  # noqa: BLE001 - the type is part of the outcome
        return ("error", type(exc), str(exc))


def assert_leaf_parity(workload: Workload, schema: Schema) -> int:
    """Leaf vectors equal the oracle's byte for byte; returns the leaf count."""
    atoms = _attribute_atoms(workload, schema)
    got = outcome(_leaf_vectors, workload, atoms)
    expected = outcome(reference_leaf_vectors, workload, atoms)
    if expected[0] == "error":
        assert got == expected
        return 0
    assert got[0] == "ok", got
    vectors, reference = got[1], expected[1]
    assert vectors.keys() == reference.keys()
    for key, vector in vectors.items():
        assert vector.dtype == np.bool_ and vector.flags.c_contiguous
        assert vector.tobytes() == reference[key].tobytes()
    return len(vectors)


def assert_matrix_parity(workload: Workload, schema: Schema) -> None:
    expected_matrix, expected_partitions = reference_domain_matrix(workload, schema)
    analysis = WorkloadMatrix.from_domain_analysis(workload, schema)
    np.testing.assert_array_equal(analysis.matrix, expected_matrix)
    assert [(p.signature, p.description) for p in analysis.partitions] == [
        (p.signature, p.description) for p in expected_partitions
    ]


def cold_template_workloads(bins: int) -> list[tuple[str, Workload, Schema]]:
    """The five cold-structure templates of the end-to-end benchmark."""
    out = []
    for stop in (250.0 * 8, 250.0 * 40):
        out.append(("histogram", histogram_workload(
            "capital_gain", start=0, stop=stop, bins=bins), ADULT_SCHEMA))
        out.append(("cumulative", cumulative_histogram_workload(
            "capital_gain", start=0, stop=stop, bins=bins), ADULT_SCHEMA))
        out.append(("prefix", prefix_workload(
            "capital_gain", [stop * (j + 1) / bins for j in range(bins)]), ADULT_SCHEMA))
    for attribute in ("trip_distance", "fare_amount", "total_amount"):
        for stop in (5.0, 40.0):
            out.append((attribute, histogram_workload(
                attribute, start=0, stop=stop, bins=bins), NYTAXI_SCHEMA))
    for start in (17.0, 40.0):
        out.append(("age points", point_workload(
            "age", [start + j for j in range(bins)]), ADULT_SCHEMA))
    return out


def table1_exact_workloads() -> list[tuple[str, Workload, Schema]]:
    bench = build_benchmark(adult_rows=50, nytaxi_rows=50)
    out = []
    for entry in bench:
        schema = bench.table_for(entry).schema
        if entry.query.workload_matrix(schema).exact:
            out.append((entry.name, entry.query.workload, schema))
    return out


def replay_template_workloads() -> list[tuple[str, Workload, Schema]]:
    schema = population_schema()
    return [
        (f"template-{i}", parse_query(text)[0].workload, schema)
        for i, text in enumerate(query_templates(GeneratorConfig()))
    ]


NAMED_WORKLOADS = [
    pytest.param(workload, schema, id=f"cold-{bins}-{i}-{name}")
    for bins in (8, 47)
    for i, (name, workload, schema) in enumerate(cold_template_workloads(bins))
] + [
    pytest.param(workload, schema, id=f"table1-{name}")
    for name, workload, schema in table1_exact_workloads()
] + [
    pytest.param(workload, schema, id=f"replay-{name}")
    for name, workload, schema in replay_template_workloads()
]


class TestNamedWorkloads:
    def test_table1_has_ten_exact_queries(self):
        assert len(table1_exact_workloads()) == 10

    @pytest.mark.parametrize("workload, schema", NAMED_WORKLOADS)
    def test_leaf_vectors_match_the_oracle(self, workload, schema):
        assert assert_leaf_parity(workload, schema) > 0

    @pytest.mark.parametrize("workload, schema", NAMED_WORKLOADS)
    def test_matrix_matches_the_reference_analysis(self, workload, schema):
        assert_matrix_parity(workload, schema)


# ---------------------------------------------------------------------------
# Random workloads
# ---------------------------------------------------------------------------

CATEGORIES = ("a", "b", "c")
#: Category constants, some absent from the domain (and one that numpy's
#: fixed-width strings would truncate).
CATEGORY_CONSTANTS = CATEGORIES + ("zz", "", "a\x00")
OPS = ("==", "!=", "<", "<=", ">", ">=")

#: Shared constants make cuts coincide with each other and with the domain
#: bounds, so point atoms and inclusive/exclusive edges actually occur.
numbers = st.one_of(
    st.sampled_from([-5.0, 0.0, 1.0, 2.5, 10.0, 50.0, 100.0]),
    st.floats(-200, 200, allow_nan=False, allow_infinity=False),
    st.sampled_from([math.nan, math.inf, -math.inf]),
)


@st.composite
def random_schema(draw) -> Schema:
    low = draw(st.sampled_from([-math.inf, -5.0, 0.0]))
    high = draw(st.sampled_from([10.0, 100.0, math.inf]))
    return Schema(
        [
            Attribute("num", NumericDomain(low, high), nullable=draw(st.booleans())),
            Attribute("cat", CategoricalDomain(CATEGORIES), nullable=draw(st.booleans())),
        ]
    )


@st.composite
def numeric_leaf(draw):
    kind = draw(st.sampled_from(["comparison", "between", "in", "null"]))
    if kind == "comparison":
        return Comparison("num", draw(st.sampled_from(OPS)), draw(numbers))
    if kind == "between":
        low, high = draw(numbers), draw(numbers)
        if low > high:
            low, high = high, low
        return Between(
            "num", low, high,
            low_inclusive=draw(st.booleans()), high_inclusive=draw(st.booleans()),
        )
    if kind == "in":
        return In("num", draw(st.lists(st.sampled_from(CATEGORY_CONSTANTS), min_size=1, max_size=3)))
    return IsNull("num", negated=draw(st.booleans()))


@st.composite
def category_leaf(draw, allow_errors: bool):
    kinds = ["comparison", "in", "null"] + (["between"] if allow_errors else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "comparison":
        ops = OPS if allow_errors else ("==", "!=")
        value = draw(st.one_of(st.sampled_from(CATEGORY_CONSTANTS), numbers))
        return Comparison("cat", draw(st.sampled_from(ops)), value)
    if kind == "in":
        return In("cat", draw(st.lists(st.sampled_from(CATEGORY_CONSTANTS), min_size=1, max_size=3)))
    if kind == "between":
        return Between("cat", 0.0, 1.0)
    return IsNull("cat", negated=draw(st.booleans()))


@st.composite
def random_predicate(draw, allow_errors: bool, depth: int = 2):
    leaf = st.one_of(numeric_leaf(), category_leaf(allow_errors))
    if depth == 0 or draw(st.booleans()):
        return draw(leaf)
    combinator = draw(st.sampled_from(["not", "and", "or"]))
    if combinator == "not":
        return Not(draw(random_predicate(allow_errors, depth - 1)))
    children = draw(
        st.lists(random_predicate(allow_errors, depth - 1), min_size=2, max_size=3)
    )
    return And(children) if combinator == "and" else Or(children)


class TestRandomWorkloads:
    @settings(max_examples=300, deadline=None)
    @given(
        schema=random_schema(),
        predicates=st.lists(random_predicate(allow_errors=True), min_size=1, max_size=6),
    )
    def test_leaf_vectors_and_errors_match_the_oracle(self, schema, predicates):
        assert_leaf_parity(Workload(predicates), schema)

    @settings(max_examples=100, deadline=None)
    @given(
        schema=random_schema(),
        predicates=st.lists(random_predicate(allow_errors=False), min_size=1, max_size=5),
    )
    def test_matrix_matches_the_reference_analysis(self, schema, predicates):
        assert_matrix_parity(Workload(predicates), schema)

    def test_shared_leaf_gets_one_vector(self):
        leaf = Comparison("num", "<", 5.0)
        workload = Workload([leaf, Not(leaf), And([leaf, IsNull("cat")])])
        schema = Schema([
            Attribute("num", NumericDomain(0, 10)),
            Attribute("cat", CategoricalDomain(CATEGORIES)),
        ])
        assert assert_leaf_parity(workload, schema) == 2


# ---------------------------------------------------------------------------
# Errors and quoted numeric constants
# ---------------------------------------------------------------------------

CAT_SCHEMA = Schema(
    [
        Attribute("cat", CategoricalDomain(CATEGORIES)),
        Attribute("num", NumericDomain(0, 100)),
    ]
)


class TestErrorParity:
    @pytest.mark.parametrize(
        "leaf, message",
        [
            (
                Comparison("cat", "<", "x"),
                "operator '<' cannot be evaluated on categorical cell value",
            ),
            (
                Between("cat", 0.0, 1.0),
                "BETWEEN on attribute 'cat' requires a numeric cell",
            ),
        ],
    )
    def test_categorical_misuse_raises_the_cell_error(self, leaf, message):
        workload = Workload([Comparison("num", "<", 5.0), leaf])
        with pytest.raises(PredicateError) as raised:
            workload.analyze(CAT_SCHEMA)
        assert str(raised.value) == message
        atoms = _attribute_atoms(workload, CAT_SCHEMA)
        with pytest.raises(PredicateError, match=message):
            reference_leaf_vectors(workload, atoms)

    def test_first_failing_condition_raises(self):
        workload = Workload([Between("cat", 0.0, 1.0), Comparison("cat", ">", "a")])
        atoms = _attribute_atoms(workload, CAT_SCHEMA)
        assert outcome(_leaf_vectors, workload, atoms) == outcome(
            reference_leaf_vectors, workload, atoms
        )

    def test_unparsable_numeric_constant_raises_value_error(self):
        predicate = Comparison("num", "<", "thirty")
        table = Table.from_rows(CAT_SCHEMA, [{"cat": "a", "num": 1.0}])
        with pytest.raises(ValueError):
            predicate.evaluate(table)
        with pytest.raises(ValueError):
            Workload([predicate]).analyze(CAT_SCHEMA)


class TestQuotedNumericConstant:
    SCHEMA = Schema([Attribute("age", NumericDomain(0, 100))])

    @pytest.mark.parametrize("op", OPS)
    def test_exact_answer_equals_the_mask_count(self, op):
        table = Table.from_rows(self.SCHEMA, [{"age": float(a)} for a in range(100)])
        predicate = parse_predicate(f"age {op} '30'")
        assert predicate == Comparison("age", op, "30")
        workload = Workload([predicate])
        matrix = workload.analyze(self.SCHEMA)
        assert matrix.exact
        np.testing.assert_array_equal(
            matrix.true_answers(table), [np.count_nonzero(predicate.evaluate(table))]
        )
