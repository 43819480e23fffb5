"""A bounded, thread-safe LRU mapping with hit/miss counters.

Three hot-path caches (per-table predicate masks, the workload-matrix memo,
the translator's translation memo) need the same behavior: bounded size,
least-recently-used eviction, and counters for observability.  One
implementation keeps them from drifting apart.

Every operation holds one ``threading.Lock`` around one ``OrderedDict``, so
eviction is exact global LRU and every ``stats()`` snapshot satisfies
``inserts - evictions == size``.  Staleness is excluded by key
construction, not by locking: every key of a data-dependent value embeds
its ``TableVersion``, every data-independent value is keyed by what it
reads (query structure and schema), and values are pure functions of their
keys (see ``docs/consistency.md``).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Generic, Hashable, TypeVar

__all__ = ["LRUCache"]

V = TypeVar("V")


class LRUCache(Generic[V]):
    """Bounded ``key -> value`` mapping with LRU eviction and counters.

    ``get`` counts a hit or miss (hits refresh recency); ``put`` inserts
    and evicts the least recently used entry once the cache is over
    capacity.  Values must not be ``None`` (a ``None`` return from ``get``
    means *miss*).

    Thread-safe.  Single operations are linearizable; a get-miss-then-put
    sequence may still race with another thread computing the same entry
    -- both compute, one value wins, and (values being pure functions of
    the key) either outcome is correct.

    :param max_entries: capacity; the LRU entry is evicted beyond it.
    """

    def __init__(self, max_entries: int) -> None:
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = int(max_entries)
        self._lock = threading.Lock()
        self._entries: OrderedDict[Hashable, V] = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._puts = 0
        self._inserts = 0
        self._evictions = 0

    def get(self, key: Hashable) -> V | None:
        """Look up ``key``, refreshing its recency; ``None`` means miss."""
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return value

    def put(self, key: Hashable, value: V) -> V:
        """Insert ``key -> value``, evicting the LRU entry when full."""
        with self._lock:
            entries = self._entries
            before = len(entries)
            entries[key] = value
            self._puts += 1
            if len(entries) != before:
                self._inserts += 1
            if len(entries) > self.max_entries:
                entries.popitem(last=False)
                self._evictions += 1
        return value

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def clear(self) -> None:
        """Drop every entry and reset every counter."""
        with self._lock:
            self._entries.clear()
            self._hits = self._misses = 0
            self._puts = self._inserts = self._evictions = 0

    def stats(self) -> dict[str, int]:
        """A snapshot of every counter, taken under the lock.

        ``puts`` counts every put call, ``inserts`` only those that added a
        key rather than overwriting one, so ``inserts - evictions == size``.
        """
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "puts": self._puts,
                "inserts": self._inserts,
                "evictions": self._evictions,
                "size": len(self._entries),
            }
