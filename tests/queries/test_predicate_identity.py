"""Declared stable identity for opaque predicates, and the bare-predicate bypass.

Two contracts are pinned here:

* a :class:`~repro.queries.predicates.FunctionPredicate` constructed with
  ``version=`` compares, hashes and canonicalises by ``(name, version,
  attributes)`` -- so re-created instances hit every in-memory memo and the
  artifact-store disk tier persists translation lists and Monte-Carlo
  searches derived from it (the ER screening-loop scenario);
* a bare ``FunctionPredicate`` (no declared version) keeps today's
  conservative behaviour: identity-based equality, no process-stable content
  form, and therefore a fully disabled disk tier.  This is the regression
  guard for the "opaque predicates bypass the store" invariant.
"""

import numpy as np
import pytest

from repro.core.accuracy import AccuracySpec
from repro.core.engine import APExEngine
from repro.core.exceptions import PredicateError
from repro.data.schema import Attribute, CategoricalDomain, NumericDomain, Schema
from repro.data.table import Table
from repro.mechanisms.registry import default_registry
from repro.mechanisms.strategy_mechanism import reset_search_stats, search_stats
from repro.queries.predicates import FunctionPredicate
from repro.queries.query import WorkloadCountingQuery
from repro.queries.workload import Workload, clear_matrix_cache
from repro.store import ArtifactStore
from repro.store.fingerprint import canonical_form, stable_digest


def _mask_every(k):
    return lambda table: np.arange(len(table)) % k == 0


def make_table(n_rows: int = 200) -> Table:
    schema = Schema(
        [
            Attribute("score", NumericDomain(0.0, 1.0)),
            Attribute("label", CategoricalDomain(("match", "nonmatch"))),
        ],
        name="Pairs",
    )
    rng = np.random.default_rng(11)
    return Table(
        schema,
        {
            "score": rng.uniform(0.0, 1.0, n_rows),
            "label": np.array(
                ["match" if v else "nonmatch" for v in rng.integers(0, 2, n_rows)],
                dtype=object,
            ),
        },
    )


def named_workload(version=1) -> Workload:
    predicates = [
        FunctionPredicate(
            f"screen-{i}",
            _mask_every(i + 2),
            attributes=("score",),
            version=version,
        )
        for i in range(4)
    ]
    return Workload(predicates)


class TestDeclaredIdentity:
    def test_equal_by_name_version_attributes(self):
        a = FunctionPredicate("p", _mask_every(2), attributes=("score",), version=1)
        b = FunctionPredicate("p", _mask_every(3), attributes=("score",), version=1)
        assert a == b and hash(a) == hash(b)

    def test_version_name_and_attributes_all_join_the_identity(self):
        base = FunctionPredicate("p", _mask_every(2), attributes=("score",), version=1)
        assert base != FunctionPredicate("p", _mask_every(2), attributes=("score",), version=2)
        assert base != FunctionPredicate("q", _mask_every(2), attributes=("score",), version=1)
        assert base != FunctionPredicate("p", _mask_every(2), attributes=(), version=1)

    def test_declared_predicates_canonicalise(self):
        a = FunctionPredicate("p", _mask_every(2), attributes=("score",), version=1)
        b = FunctionPredicate("p", _mask_every(5), attributes=("score",), version=1)
        digest = stable_digest(("translation", (a,)))
        assert digest is not None
        assert digest == stable_digest(("translation", (b,)))
        bumped = FunctionPredicate("p", _mask_every(2), attributes=("score",), version=2)
        assert stable_digest(("translation", (bumped,))) != digest

    def test_named_predicate_never_equals_bare(self):
        fn = _mask_every(2)
        named = FunctionPredicate("p", fn, attributes=("score",), version=1)
        bare = FunctionPredicate("p", fn, attributes=("score",))
        assert named != bare and bare != named

    def test_version_must_be_str_or_int(self):
        with pytest.raises(PredicateError):
            FunctionPredicate("p", _mask_every(2), version=1.5)  # type: ignore[arg-type]

    def test_equal_identity_shares_cached_masks(self):
        # Declaring a version is a *promise* that (name, version, attributes)
        # determines the mask; the versioned mask LRU takes the promise at
        # its word, so a same-identity instance with a different callable is
        # served the cached mask.  This is the documented contract, pinned.
        table = make_table(64)
        a = FunctionPredicate("p", _mask_every(2), attributes=("score",), version=1)
        b = FunctionPredicate("p", _mask_every(3), attributes=("score",), version=1)
        mask_a = a.evaluate(table)
        mask_b = b.evaluate(table)
        assert np.array_equal(mask_a, mask_b)


class TestBareOpaqueRegression:
    def test_bare_predicates_keep_identity_semantics(self):
        fn = _mask_every(2)
        a = FunctionPredicate("f", fn)
        b = FunctionPredicate("f", fn)
        assert a != b and a == a
        assert hash(a) != hash(b) or a is b

    def test_bare_predicates_have_no_stable_digest(self):
        bare = FunctionPredicate("f", _mask_every(2))
        assert stable_digest(("translation", (bare,))) is None
        with pytest.raises(TypeError):
            canonical_form(bare)

    def test_bare_workload_bypasses_the_disk_tier(self, tmp_path):
        clear_matrix_cache()
        reset_search_stats()
        table = make_table()
        store = ArtifactStore(str(tmp_path))
        predicates = [
            FunctionPredicate(f"opaque-{i}", _mask_every(i + 2), attributes=("score",))
            for i in range(4)
        ]

        def preview(preds):
            engine = APExEngine(
                table,
                budget=10.0,
                registry=default_registry(mc_samples=120),
                seed=3,
                store=store,
            )
            query = WorkloadCountingQuery(Workload(list(preds)), name="bare", disjoint=True)
            accuracy = AccuracySpec(alpha=0.2 * len(table), beta=1e-3)
            engine.preview_cost(query, accuracy)
            return engine.cache_stats()

        stats_cold = preview(predicates)
        assert stats_cold["translations"]["built"] == 1
        assert stats_cold["translations"]["disk_writes"] == 0
        assert search_stats()["disk_writes"] == 0

        # A second engine (fresh translator) over the same store must rebuild:
        # nothing was persisted, and nothing is loadable.
        stats_again = preview(
            [
                FunctionPredicate(f"opaque-{i}", _mask_every(i + 2), attributes=("score",))
                for i in range(4)
            ]
        )
        assert stats_again["translations"]["built"] == 1
        assert stats_again["translations"]["disk_hits"] == 0
        assert search_stats()["disk_hits"] == 0


class TestNamedDiskTier:
    def test_named_workload_reaches_the_disk_tier(self, tmp_path):
        clear_matrix_cache()
        reset_search_stats()
        table = make_table()
        store = ArtifactStore(str(tmp_path))
        accuracy = AccuracySpec(alpha=0.2 * len(table), beta=1e-3)

        def preview(engine):
            query = WorkloadCountingQuery(
                named_workload(), name="screen", disjoint=True
            )
            return engine.preview_cost(query, accuracy)

        cold_engine = APExEngine(
            table,
            budget=10.0,
            registry=default_registry(mc_samples=120),
            seed=3,
            store=store,
        )
        cold_costs = preview(cold_engine)
        cold_stats = cold_engine.cache_stats()
        assert cold_stats["translations"]["built"] == 1
        assert cold_stats["translations"]["disk_writes"] >= 1

        # A fresh engine (fresh translator, re-created predicate instances,
        # cleared process memos) must answer entirely from disk.
        clear_matrix_cache()
        searches_before = search_stats()["searches"]
        warm_engine = APExEngine(
            table,
            budget=10.0,
            registry=default_registry(mc_samples=120),
            seed=3,
            store=store,
        )
        warm_costs = preview(warm_engine)
        warm_stats = warm_engine.cache_stats()
        assert warm_stats["translations"]["built"] == 0
        assert warm_stats["translations"]["disk_hits"] == 1
        assert search_stats()["searches"] == searches_before
        assert warm_costs == cold_costs
