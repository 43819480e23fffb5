"""The artifact store belongs to the translator, its one reader.

A translator built with ``store=`` consults its disk tier for every request
whose query has a process-stable digest; no table enters the key.  An
engine hands its ``store`` to the translator it builds, and refuses a
``store`` that disagrees with an external translator's.
"""

import numpy as np
import pytest

from repro.core.engine import APExEngine
from repro.core.exceptions import ApexError
from repro.core.translator import AccuracyTranslator
from repro.mechanisms.registry import default_registry
from repro.mechanisms.strategy_mechanism import reset_search_stats, search_stats
from repro.queries.predicates import FunctionPredicate
from repro.queries.query import WorkloadCountingQuery
from repro.queries.workload import Workload, clear_matrix_cache, matrix_cache_stats
from repro.service import ExplorationService
from repro.store import ArtifactStore
from tests.store.test_schema_keys import (
    ACCURACY,
    make_schema,
    make_table,
    make_workload,
)


@pytest.fixture(autouse=True)
def _fresh_process_wide_caches():
    clear_matrix_cache()
    reset_search_stats()
    yield


class TestTranslatorDiskTier:
    def test_warm_start_needs_no_table(self, tmp_path):
        schema = make_schema()
        query = WorkloadCountingQuery(make_workload(), name="q")
        cold = AccuracyTranslator(
            default_registry(mc_samples=200), store=ArtifactStore(tmp_path / "store")
        )
        built = cold.translations(query, ACCURACY, schema)
        assert cold.cache_stats["built"] == 1
        assert cold.cache_stats["disk_writes"] == 1

        # A fresh translator over the same directory, as after a restart.
        clear_matrix_cache()
        reset_search_stats()
        warm = AccuracyTranslator(
            default_registry(mc_samples=200), store=ArtifactStore(tmp_path / "store")
        )
        loaded = warm.translations(query, ACCURACY, schema)
        assert warm.cache_stats["disk_hits"] == 1
        assert warm.cache_stats["built"] == 0
        assert matrix_cache_stats()["built"] == 0
        assert search_stats()["searches"] == 0
        assert [(m.name, t) for m, t in loaded] == [(m.name, t) for m, t in built]

    def test_a_query_without_a_stable_digest_skips_the_disk_tier(self, tmp_path):
        schema = make_schema()
        store = ArtifactStore(tmp_path / "store")
        translator = AccuracyTranslator(default_registry(mc_samples=200), store=store)
        # A bare function predicate hashes by identity: memoisable in
        # process, but it has no content form a restarted process could match.
        opaque = FunctionPredicate(
            "opaque", lambda table: np.ones(len(table), dtype=bool), attributes=("score",)
        )
        translator.translations(
            WorkloadCountingQuery(Workload([opaque]), name="q", disjoint=True),
            ACCURACY,
            schema,
        )
        assert translator.cache_stats["built"] == 1
        assert translator.cache_stats["disk_writes"] == 0
        assert store.stats()["writes"] == 0


class TestEngineStoreWiring:
    def test_engine_hands_its_store_to_its_translator(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        engine = APExEngine(make_table(make_schema()), budget=1.0, store=store)
        assert engine.store is store
        assert engine.cache_stats()["store"] == store.stats()

    def test_external_translator_supplies_the_store(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        translator = AccuracyTranslator(store=store)
        table = make_table(make_schema())
        assert APExEngine(table, budget=1.0, translator=translator).store is store
        same = APExEngine(table, budget=1.0, translator=translator, store=store)
        assert same.store is store

    def test_a_different_store_beside_an_external_translator_is_refused(self, tmp_path):
        table = make_table(make_schema())
        ours = ArtifactStore(tmp_path / "ours")
        theirs = ArtifactStore(tmp_path / "theirs")
        with pytest.raises(ApexError, match="store"):
            APExEngine(
                table, budget=1.0, translator=AccuracyTranslator(store=theirs), store=ours
            )
        with pytest.raises(ApexError, match="store"):
            APExEngine(table, budget=1.0, translator=AccuracyTranslator(), store=ours)

    def test_service_sessions_share_the_translators_store(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        service = ExplorationService(make_table(make_schema()), budget=1.0, store=store)
        handle = service.register_analyst("a-0")
        assert handle.engine.store is store
        assert service.stats()["store"] == store.stats()
