"""Tests for the shared bounded LRU used by the engine's cache layers."""

import pytest

from repro.core.lru import LRUCache


def counters(cache, *fields):
    stats = cache.stats()
    return {field: stats[field] for field in fields}


class TestLRUCache:
    def test_get_put_and_counters(self):
        cache = LRUCache(4)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert counters(cache, "hits", "misses", "size") == {
            "hits": 1,
            "misses": 1,
            "size": 1,
        }

    def test_eviction_is_least_recently_used(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a"; "b" is now the LRU entry
        cache.put("c", 3)
        assert "b" not in cache
        assert cache.get("a") == 1
        assert cache.get("c") == 3

    def test_len_and_clear(self):
        cache = LRUCache(8)
        for i in range(5):
            cache.put(i, i)
        assert len(cache) == 5
        cache.clear()
        assert len(cache) == 0
        assert counters(cache, "hits", "misses", "size") == {
            "hits": 0,
            "misses": 0,
            "size": 0,
        }

    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError):
            LRUCache(0)

    def test_counters_conserve_inserts_against_evictions(self):
        cache = LRUCache(2)
        for key in ("a", "b", "a", "c"):
            cache.put(key, 1)
        assert cache.stats() == {
            "hits": 0,
            "misses": 0,
            "puts": 4,
            "inserts": 3,
            "evictions": 1,
            "size": 2,
        }

    def test_matrix_memo_evicts_exactly_the_lru_identity_key(self):
        """The matrix memo keys schemas and opaque predicates by identity
        (``_IdKey`` hashes by address).  Eviction must still pick exactly
        the least recently used key, or what a run evicts -- and so its
        build counters -- would depend on object addresses."""
        from repro.queries import workload

        cache = workload._MATRIX_CACHE
        workload.clear_matrix_cache()
        try:
            keys = [workload._IdKey(object()) for _ in range(cache.max_entries + 1)]
            for index, key in enumerate(keys[:-1]):
                cache.put(key, index)
            assert cache.get(keys[0]) == 0  # refresh: keys[1] is now the LRU
            cache.put(keys[-1], -1)
            assert keys[1] not in cache
            assert all(key in cache for key in keys if key is not keys[1])
            assert cache.stats()["evictions"] == 1
        finally:
            workload.clear_matrix_cache()

    def test_mask_budget_scales_with_rows(self):
        from repro.data.table import (
            MASK_CACHE_BYTE_BUDGET,
            MASK_CACHE_MAX_ENTRIES,
        )
        from repro.queries.predicates import Comparison

        from tests.queries.test_vectorized_parity import random_table
        import numpy as np

        table = random_table(np.random.default_rng(0), n_rows=500)
        Comparison("kind", "==", "gold").evaluate(table)
        assert table.mask_cache.max_entries == min(
            MASK_CACHE_MAX_ENTRIES, max(16, MASK_CACHE_BYTE_BUDGET // 500)
        )
        assert len(table.mask_cache) == 1
