"""Domain fingerprints and process-stable digests.

The revalidation layer's soundness rests on two properties pinned here:
fingerprints are pure functions of (schema, data at one version) -- equal
across processes, equal across domain-preserving mutations, different after
domain-changing ones -- and the store digests are content-stable (no
``hash()`` salting, no object identity).
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
from repro.data.table import DomainStamp, Table
from repro.queries.predicates import And, Between, Comparison, FunctionPredicate, In
from repro.store import canonical_form, stable_digest
from tests.data.test_compaction import append_uncompacted


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


class TestDomainFingerprint:
    def test_pure_function_of_schema_and_data(self):
        schema = make_schema()
        a, b = make_table(schema), make_table(schema)
        for name in ("state", "score", "note"):
            assert a.domain_fingerprint(name) == b.domain_fingerprint(name)

    def test_distinct_per_attribute(self):
        table = make_table()
        assert table.domain_fingerprint("state") != table.domain_fingerprint("score")

    def test_domain_preserving_append_keeps_fingerprints(self):
        table = make_table()
        before = {n: table.domain_fingerprint(n) for n in ("state", "score", "note")}
        table.append_rows([{"state": "CA", "score": 3.0, "note": "zzz"}])
        for name, fingerprint in before.items():
            assert table.domain_fingerprint(name) == fingerprint

    def test_new_categorical_value_changes_fingerprint(self):
        table = make_table()
        before = table.domain_fingerprint("state")
        score_before = table.domain_fingerprint("score")
        table.append_rows([{"state": "TX", "score": 1.0, "note": "x"}])
        assert table.domain_fingerprint("state") != before
        # Numeric fingerprints depend on the declared bounds only.
        assert table.domain_fingerprint("score") == score_before

    def test_first_null_changes_categorical_fingerprint(self):
        schema = make_schema()
        rows = [{"state": "CA", "score": 1.0, "note": "a"}] * 5
        table = Table.from_rows(schema, rows)
        before = table.domain_fingerprint("state")
        table.append_rows([{"state": None, "score": 1.0, "note": "a"}])
        assert table.domain_fingerprint("state") != before

    def test_text_fingerprint_ignores_values(self):
        table = make_table()
        before = table.domain_fingerprint("note")
        table.append_rows([{"state": "CA", "score": 1.0, "note": "never-seen"}])
        assert table.domain_fingerprint("note") == before

    def test_snapshot_shares_fingerprints_and_pins_them(self):
        table = make_table()
        snap = table.snapshot()
        before = snap.domain_fingerprint("state")
        table.append_rows([{"state": "TX", "score": 1.0, "note": "x"}])
        assert snap.domain_fingerprint("state") == before
        assert table.domain_fingerprint("state") != before

    def test_refresh_recomputes_fingerprints(self):
        table = make_table()
        before = table.domain_fingerprint("state")
        table.refresh([{"state": "TX", "score": 1.0, "note": "x"}])
        assert table.domain_fingerprint("state") != before

    def test_compaction_preserves_fingerprints(self):
        table = Table(
            make_schema(),
            {
                "state": np.array(["CA"] * 100, dtype=object),
                "score": np.ones(100),
                "note": np.array(["n"] * 100, dtype=object),
            },
        )
        append_uncompacted(
            table,
            ([{"state": "NY", "score": float(i), "note": "m"}] for i in range(10)),
        )
        before = table.domain_fingerprint("state")
        assert table.compact()
        assert table.domain_fingerprint("state") == before


class TestDomainStamp:
    def test_equality_covers_version_and_fingerprints(self):
        table = make_table()
        s1 = table.domain_stamp(["state", "score"])
        s2 = table.domain_stamp(["score", "state"])  # order-insensitive
        assert s1 == s2 and hash(s1) == hash(s2)
        table.append_rows([{"state": "CA", "score": 1.0, "note": "x"}])
        s3 = table.domain_stamp(["state", "score"])
        assert s3 != s1  # version advanced
        assert s3.fingerprints == s1.fingerprints  # ...but domains preserved
        assert s3.domain_key == s1.domain_key

    def test_unknown_attributes_are_skipped(self):
        table = make_table()
        stamp = table.domain_stamp(["state", "no-such-column"])
        assert [name for name, _ in stamp.fingerprints] == ["state"]
        assert isinstance(stamp, DomainStamp)


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
