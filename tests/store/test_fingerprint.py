"""Process-stable digests: the disk keys of the artifact store.

A disk key must mean the same in every process, so the store digests are
content-stable: no ``hash()`` salting, no object identity.  Keys cover the
declared schema, never the data (``tests/queries/test_no_stale_reuse.py``
pins that an append leaves every data-independent key unchanged).
"""

import numpy as np
import pytest

from repro.data.schema import (
    Attribute,
    CategoricalDomain,
    NumericDomain,
    Schema,
    TextDomain,
)
from repro.data.table import Table
from repro.queries.predicates import And, Between, Comparison, FunctionPredicate, In
from repro.store import canonical_form, stable_digest


def make_schema() -> Schema:
    return Schema(
        [
            Attribute("state", CategoricalDomain(("CA", "NY", "TX")), nullable=True),
            Attribute("score", NumericDomain(0, 100), nullable=True),
            Attribute("note", TextDomain()),
        ],
        name="FP",
    )


def make_table(schema=None) -> Table:
    schema = schema or make_schema()
    rows = [
        {"state": ("CA", "NY")[i % 2], "score": float(i % 7), "note": f"n{i}"}
        for i in range(50)
    ]
    return Table.from_rows(schema, rows)


class TestStableDigest:
    def test_digest_is_content_stable(self):
        schema = make_schema()
        predicates = (
            Comparison("state", "==", "CA"),
            And([Between("score", 1.0, 2.0), In("state", ["CA", "NY"])]),
        )
        d1 = stable_digest(("matrix", predicates, schema, 0.05))
        d2 = stable_digest(
            (
                "matrix",
                (
                    Comparison("state", "==", "CA"),
                    And([Between("score", 1.0, 2.0), In("state", ["CA", "NY"])]),
                ),
                make_schema(),
                0.05,
            )
        )
        assert d1 == d2 and len(d1) == 64

    def test_digest_distinguishes_content(self):
        base = (Comparison("state", "==", "CA"),)
        assert stable_digest(base) != stable_digest((Comparison("state", "==", "NY"),))
        assert stable_digest((0.05,)) != stable_digest((0.050000001,))
        assert stable_digest((1,)) != stable_digest((1.0,))
        assert stable_digest((True,)) != stable_digest((1,))

    def test_opaque_objects_disable_the_digest(self):
        opaque = FunctionPredicate("f", lambda table: np.zeros(len(table), bool))
        assert stable_digest(("translation", (opaque,))) is None
        with pytest.raises(TypeError):
            canonical_form(opaque)

    def test_float_encoding_is_exact(self):
        form = canonical_form(0.1 + 0.2)
        assert form == ["f", (0.1 + 0.2).hex()]
