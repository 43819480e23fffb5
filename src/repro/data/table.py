"""A column-oriented in-memory table with sharded, versioned, snapshot storage.

The mechanisms in APEx only ever need two things from the sensitive dataset:

* evaluate workload predicates over the rows (producing boolean masks), and
* count rows per workload partition (producing the histogram vector ``x``).

``Table`` therefore stores one numpy array per attribute and exposes exactly
those operations plus the usual conveniences (row access, filtering, sampling,
construction from row dicts).  Numeric NULLs are represented as ``NaN`` and
categorical/text NULLs as ``None``.

Storage is a list of immutable **row shards** (one frozen column-chunk
:class:`Shard` per chunk) behind the existing columnar API:
:meth:`Table.column` lazily concatenates the shard chunks.  Shards are the
unit of incremental work: after an append only the new shard is interned
and histogrammed.  :attr:`Table.shards`,
:meth:`Table.shard_category_codes`, :meth:`Table.shard_sorted_values` and
:meth:`Table.shard_rows` are the per-shard read surface; exact workload
matrices keep one histogram per shard read (weakly keyed by the shard, one
store per matrix value) and sum them per snapshot.

Tables are *versioned*, not frozen: :meth:`Table.append_rows` adds a new
shard and :meth:`Table.refresh` replaces the contents wholesale.  Both
advance the table's :attr:`Table.version_token` -- an immutable, hashable
:class:`TableVersion` that uniquely identifies one state of one table.  Every
cache keyed on "this table's data" anywhere in the stack (the predicate-mask
LRU below, the partition-histogram and true-count caches) incorporates the
version token, so a mutation can never resurrect a stale artifact:
post-append lookups simply miss and recompute against the grown table.
The full contract -- which cache keys on what, and which regression test
pins it -- is tabulated in ``docs/consistency.md``.

Three mechanisms ride on the shard structure:

**Snapshots.** :meth:`Table.snapshot` returns a :class:`TableSnapshot`: an
immutable table view that pins the shard list *and* the version token at the
moment of the call.  Shards are frozen, so the snapshot is zero-copy, and a
reader holding it is completely isolated from concurrent ``append_rows`` /
``refresh`` -- the wait-free read path every evaluation consumer
(:meth:`repro.queries.predicates.Predicate.evaluate`,
:meth:`repro.queries.workload.Workload.evaluate`,
:meth:`repro.core.engine.APExEngine.explore`) routes through.  Snapshots are
memoised per version: every reader admitted at the same version shares one
snapshot object, which is what keeps the identity-keyed data caches
(true counts, partition histograms) warm across requests.

**Compaction.** Streaming appends accumulate shards; many tiny shards
degrade evaluation through per-shard fixed costs.  :meth:`Table.compact`
(automatic after every ``append_columns``) merges adjacent undersized shards
when the table has more than :data:`COMPACT_MAX_SHARDS` shards or a shard
other than the newest holds less than :data:`COMPACT_MIN_FRACTION` of the
rows.  The newest shard is the open end the next append extends; every
other undersized run is merged into a neighbour, so one pass always leaves
a layout the policy accepts.
Compaction rewrites the physical layout only: row order, contents and the
version token are unchanged (so every version-keyed cache stays valid),
untouched shards keep their interned codes, and snapshots taken earlier
keep their own pinned shard lists.

**Shared category dictionary.** Categorical columns are dictionary-encoded
once per *shard* against a per-table, append-only ``value -> code`` index
shared by the table and its snapshots.  A shard is interned in two C-level
passes (new values in first-occurrence order, then one code lookup per
row), and after an append the parent concatenates the per-shard code
arrays instead of re-interning the whole column; refresh and compaction
keep the index (codes are only ever added, never renumbered), so a value's
code is stable for the table's lifetime.

**Ingest.** :meth:`Table.append_rows` gathers each attribute's values from
the row dicts, then coerces the column in one numpy pass when every value
has an exact ``int``/``float``/``None`` (numeric) or ``str``/``None``
(text, categorical) type; other values take a per-value loop with the same
result.

**Domains are declared, not observed.**  Nothing here describes a
table's domain beyond its declared :class:`~repro.data.schema.Schema`.
Workload matrices, accuracy translations and WCQ-SM's Monte-Carlo search
read only the query and the declared domains, so the memo layers key them
by ``(query structure, schema)`` and an append never touches them; only
the data-dependent caches below (masks, histograms, true counts, columnar
views) key on the version token (see ``docs/consistency.md``).

Within one version the storage is immutable: shard arrays are frozen at
construction (``writeable = False``; the table takes ownership of the arrays
it is given -- copy first if you need to keep mutating yours) and every
cached array is returned read-only, so in-place mutation that would bypass
the version protocol fails loudly.  Per-version derived artifacts (null
masks, float views, concatenated category codes, materialised concatenations,
predicate masks) are computed lazily and dropped on every version advance.
"""

from __future__ import annotations

import itertools
import math
import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.core.exceptions import SchemaError, SnapshotError
from repro.core.lru import LRUCache
from repro.data.schema import AttributeKind, Schema
from repro.store.fingerprint import hash_once

__all__ = ["Shard", "Table", "TableSnapshot", "TableVersion"]

#: Byte budget of the per-table predicate-mask LRU (masks are one byte per
#: row, so the entry cap is ``budget // n_rows``): bounded memory regardless
#: of table size.
MASK_CACHE_BYTE_BUDGET = 64 * 1024 * 1024
#: Entry-count ceiling of the mask LRU (reached only by small tables).
MASK_CACHE_MAX_ENTRIES = 4096

#: Compaction trigger: merge shards once the table has more than this many.
COMPACT_MAX_SHARDS = 64
#: Compaction trigger: merge shards once a shard other than the newest holds
#: less than this fraction of the table's rows.
COMPACT_MIN_FRACTION = 0.01

#: How many recent versions' snapshots a table memoises.  Bounding the memo
#: keeps identity-keyed data caches (true counts, histograms) warm across a
#: few quick version flips without letting the table itself pin every old
#: shard list forever; evicted snapshots keep working for readers that hold
#: them, they just stop being handed out (and stop being pinned by the
#: table).  See ``docs/consistency.md`` ("Snapshot lifetime").
SNAPSHOT_MEMO_MAX_ENTRIES = 4

#: Process-wide source of unique table identities (the first half of every
#: :class:`TableVersion`); an ever-increasing counter can never alias the way
#: a recycled ``id()`` could.
_TABLE_UIDS = itertools.count()


@hash_once
@dataclass(frozen=True)
class TableVersion:
    """Immutable identity of one state of one table.

    ``table_uid`` is unique per :class:`Table` instance for the process
    lifetime, ``ordinal`` counts that table's mutations.  Tokens are
    hashable and totally ordered within a table, so they slot directly into
    cache keys; equal tokens guarantee "same table object, same contents".
    A :class:`TableSnapshot` carries the token of the version it pinned, so
    artifacts derived through a snapshot are addressable under exactly the
    same keys as live-table reads admitted at that version.
    """

    table_uid: int
    ordinal: int

    def advanced(self) -> "TableVersion":
        """The token of the next version of the same table."""
        return TableVersion(self.table_uid, self.ordinal + 1)


@dataclass(eq=False)
class Shard:
    """One immutable row chunk plus its lazily derived per-shard artifacts.

    ``columns`` maps attribute name to a frozen storage array; ``codes``
    holds per-column ``int32`` dictionary codes interned against the owning
    table's shared category index.  Shard objects are shared freely between
    a table, its snapshots and its compacted descendants -- the arrays are
    read-only, and ``codes`` only ever gains entries (guarded by the
    table's intern lock), so sharing can never observe a torn state.

    ``eq=False`` keeps identity hashing, so a shard can key a cache weakly:
    exact :class:`~repro.queries.workload.WorkloadMatrix` objects keep the
    histogram of every shard read in a ``WeakKeyDictionary`` per value
    token, not per matrix, so a matrix rebuilt with equal value reads no
    shard again.  Those entries die with the shard, so a shard merged away
    by compaction (and no longer pinned by any snapshot) drops out, and the
    merged shard is histogrammed afresh on first read.

    ``sorted_values`` holds per-column read-only ``float64`` copies of a
    numeric column in ascending order (NaN last), filled on first touch by
    :meth:`Table.shard_sorted_values` for exact matrices that reference
    that one attribute.  Like ``codes`` it never goes stale and survives
    ``clear_caches``; unlike ``codes``, compaction does not carry it over,
    so a merged shard sorts once on its first touch.
    """

    columns: dict[str, np.ndarray]
    n_rows: int
    codes: dict[str, np.ndarray] = field(default_factory=dict)
    sorted_values: dict[str, np.ndarray] = field(default_factory=dict)


class Table:
    """A set of rows conforming to a :class:`~repro.data.schema.Schema`.

    Derivation methods (:meth:`filter`, :meth:`sample`, :meth:`take`) return
    new tables; in-place growth goes through :meth:`append_rows` /
    :meth:`refresh`, which advance :attr:`version_token`.  Wait-free readers
    pin a :class:`TableSnapshot` via :meth:`snapshot`.

    :param schema: the table's schema; every column chunk is validated
        against it.
    :param columns: mapping of attribute name to storage array.  The table
        takes ownership and freezes the arrays (``writeable = False``).
    """

    def __init__(self, schema: Schema, columns: Mapping[str, np.ndarray]) -> None:
        self._schema = schema
        shard = self._freeze_shard(columns)
        self._shards: list[Shard] = [shard]
        self._n_rows = shard.n_rows
        self._version = TableVersion(next(_TABLE_UIDS), 0)
        #: Orders mutation (shard append + version advance) and lazy
        #: materialisation; per-version reads stay lock-free.
        self._mutation_lock = threading.RLock()
        #: Guards shard-level lazy derivation (dictionary interning, sorted
        #: numeric copies).  Shared with snapshots, and deliberately
        #: separate from the mutation lock so a reader interning a large
        #: shard never blocks an appender.
        self._intern_lock = threading.Lock()
        #: The shared append-only ``column -> (value -> code)`` dictionary.
        #: Created once per table lineage and *never* rebound: codes are
        #: stable for the lifetime of the table, so per-shard code arrays
        #: survive appends, refreshes and compaction unchanged.
        self._category_index: dict[str, dict[str, int]] = {}
        # Lazy per-version caches (dropped on every version advance).
        self._materialized: dict[str, np.ndarray] = dict(shard.columns)
        self._null_masks: dict[str, np.ndarray] = {}
        self._float_values: dict[str, np.ndarray] = {}
        self._category_codes: dict[str, tuple[np.ndarray, dict[str, int]]] = {}
        self._mask_cache: LRUCache[np.ndarray] = LRUCache(
            self._mask_cache_capacity()
        )
        #: Bounded memo of recent versions' snapshots (newest last); the
        #: current version's entry is what :meth:`snapshot` hands out.
        self._snapshots: "OrderedDict[TableVersion, TableSnapshot]" = OrderedDict()
        self._snapshot_stats = {"created": 0, "evicted": 0, "closed": 0}
        self._closed = False

    def _mask_cache_capacity(self) -> int:
        """Entry cap keeping the mask LRU within its byte budget at ``n_rows``."""
        return max(
            16,
            min(
                MASK_CACHE_MAX_ENTRIES,
                MASK_CACHE_BYTE_BUDGET // max(self._n_rows, 1),
            ),
        )

    def _freeze_shard(self, columns: Mapping[str, np.ndarray]) -> Shard:
        """Validate one column-chunk against the schema and freeze its arrays."""
        shard: dict[str, np.ndarray] = {}
        n_rows: int | None = None
        for attr in self._schema.attributes:
            if attr.name not in columns:
                raise SchemaError(f"missing column {attr.name!r}")
            col = np.asarray(columns[attr.name])
            if n_rows is None:
                n_rows = len(col)
            elif len(col) != n_rows:
                raise SchemaError(
                    f"column {attr.name!r} has {len(col)} rows, expected {n_rows}"
                )
            # The per-version caches assume the stored data never changes;
            # freezing the storage makes any later in-place write fail loudly.
            col.flags.writeable = False
            shard[attr.name] = col
        extra = set(columns) - set(self._schema.attribute_names)
        if extra:
            raise SchemaError(f"columns not present in schema: {sorted(extra)}")
        return Shard(columns=shard, n_rows=n_rows or 0)

    def _ensure_open(self) -> None:
        """Live tables are always open; closed snapshots override to raise."""

    # -- construction --------------------------------------------------------

    @classmethod
    def from_rows(
        cls, schema: Schema, rows: Iterable[Mapping[str, object]]
    ) -> "Table":
        """Build a table from an iterable of ``{attribute: value}`` dicts.

        Missing keys become NULL (``NaN`` for numeric attributes, ``None``
        otherwise).
        """
        return cls(schema, _rows_to_columns(schema, rows))

    @classmethod
    def empty(cls, schema: Schema) -> "Table":
        """A table with zero rows."""
        return cls.from_rows(schema, [])

    # -- versioning, shards and snapshots -------------------------------------

    @property
    def version_token(self) -> TableVersion:
        """The immutable token identifying this table's current state.

        Advances on every :meth:`append_rows` / :meth:`refresh` (but *not*
        on :meth:`compact`, which changes layout, never contents); any cache
        keyed by this token can never serve an artifact derived from a
        different state of the data.
        """
        return self._version

    @property
    def is_snapshot(self) -> bool:
        """Whether this table is an immutable pinned-version snapshot."""
        return False

    @property
    def n_shards(self) -> int:
        """Number of row shards currently backing the table."""
        return len(self._shards)

    @property
    def shard_sizes(self) -> tuple[int, ...]:
        """Row count of each shard, in storage order."""
        with self._mutation_lock:
            return tuple(shard.n_rows for shard in self._shards)

    @property
    def shards(self) -> tuple[Shard, ...]:
        """The row shards backing this version, in row order.

        Read it from a snapshot so the list describes one version.  A
        shard's ``columns`` are frozen arrays and ``n_rows`` its row count;
        :meth:`shard_category_codes`, :meth:`shard_sorted_values` and
        :meth:`shard_rows` read the rest.
        """
        with self._mutation_lock:
            self._ensure_open()
            return tuple(self._shards)

    def snapshot(self) -> "TableSnapshot":
        """Pin the current shard list and version token for wait-free reading.

        Returns an immutable :class:`TableSnapshot` sharing this table's
        frozen shard arrays (zero-copy), its per-version derived artifacts
        and its mask LRU.  A reader evaluating against the snapshot is
        completely isolated from concurrent :meth:`append_rows` /
        :meth:`refresh`: it neither blocks, nor fails on shape checks, nor
        observes rows from a newer version.

        Snapshots are memoised per version in a bounded per-lineage memo
        (:data:`SNAPSHOT_MEMO_MAX_ENTRIES` most recent versions): until the
        next mutation every call returns the *same* object, so all readers
        admitted at one version share one snapshot identity (which keeps the
        identity-keyed true-count and histogram caches warm across
        requests), and a handful of recent versions stay warm for stragglers
        without the table pinning every old shard list.  Evicted snapshots
        keep answering for readers that hold them.  Long-lived holders
        should :meth:`TableSnapshot.close` their handle when done;
        :meth:`snapshot_cache_stats` reports the memo counters.  Taking a
        snapshot of a snapshot returns the snapshot itself.
        """
        snap = self._snapshots.get(self._version)
        if snap is not None:
            return snap
        with self._mutation_lock:
            snap = self._snapshots.get(self._version)
            if snap is not None:
                return snap
            snap = TableSnapshot(self)
            self._snapshots[self._version] = snap
            self._snapshot_stats["created"] += 1
            while len(self._snapshots) > SNAPSHOT_MEMO_MAX_ENTRIES:
                self._snapshots.popitem(last=False)
                self._snapshot_stats["evicted"] += 1
            return snap

    def open_snapshot(self) -> "TableSnapshot":
        """A private, caller-owned snapshot of the current version.

        Unlike :meth:`snapshot`, the returned object is *not* memoised and
        is never handed to any other reader, so the caller may safely
        :meth:`TableSnapshot.close` it (releasing the pinned shard list and
        poisoning further reads) whenever it is done -- the pattern for
        long-lived analytics handles held across many table versions.  It
        shares the frozen shards, derived artifacts and mask LRU of the
        version exactly like a memoised snapshot, so it costs nothing
        extra.  Use ``with table.open_snapshot() as snap: ...`` for
        explicitly scoped holders.
        """
        with self._mutation_lock:
            snap = TableSnapshot(self)
            snap._owned = True
            self._snapshot_stats["created"] += 1
        return snap

    def snapshot_cache_stats(self) -> dict[str, int]:
        """Counters of the bounded per-lineage snapshot memo.

        ``live`` is the number of snapshots the table currently pins (at
        most :data:`SNAPSHOT_MEMO_MAX_ENTRIES`); ``created`` counts
        :meth:`snapshot`/:meth:`open_snapshot` calls that minted an object;
        ``evicted`` counts memo entries dropped by the bound; ``closed``
        counts explicit :meth:`TableSnapshot.close` calls on this lineage.
        """
        with self._mutation_lock:
            return {
                "live": len(self._snapshots),
                "max_entries": SNAPSHOT_MEMO_MAX_ENTRIES,
                **self._snapshot_stats,
            }

    def append_rows(self, rows: Iterable[Mapping[str, object]]) -> TableVersion:
        """Append rows as a new shard and advance the version token.

        Missing keys become NULL, exactly as in :meth:`from_rows`.  Returns
        the new :attr:`version_token`.  Every per-version cache (and every
        external cache keyed by the token) misses afterwards; readers that
        pinned a :meth:`snapshot` before the append keep answering for their
        version, untouched.

        :param rows: iterable of ``{attribute: value}`` dicts.
        :returns: the advanced :class:`TableVersion`.
        """
        return self.append_columns(_rows_to_columns(self._schema, rows))

    def append_columns(self, columns: Mapping[str, np.ndarray]) -> TableVersion:
        """Append a pre-built column chunk as a new shard (see ``append_rows``).

        When the compaction policy fires (more than
        :data:`COMPACT_MAX_SHARDS` shards, or a shard other than the newest
        under :data:`COMPACT_MIN_FRACTION` of the rows), adjacent small shards
        are merged before returning -- contents and the just-advanced version
        token are unchanged by that merge.

        A zero-row chunk is validated like any other, then ignored: no shard
        is added and the current token is returned unchanged, so an empty
        append neither drops the per-version caches nor leaves behind a
        0-row shard that would trip the compaction policy on every later
        append.
        """
        shard = self._freeze_shard(columns)
        if shard.n_rows == 0:
            return self._version
        with self._mutation_lock:
            self._shards.append(shard)
            self._n_rows += shard.n_rows
            self._advance_version_locked()
            if self._needs_compaction_locked():
                self._compact_locked()
        return self._version

    def refresh(self, rows: Iterable[Mapping[str, object]]) -> TableVersion:
        """Replace the table contents wholesale and advance the version token.

        Models a base-table reload (new extract, corrected data): the schema
        stays, every row and every derived artifact is dropped.  The shared
        category dictionary is retained -- it is append-only, so codes of
        vanished values simply match nothing.
        """
        columns = _rows_to_columns(self._schema, rows)
        shard = self._freeze_shard(columns)
        with self._mutation_lock:
            self._shards = [shard]
            self._n_rows = shard.n_rows
            self._advance_version_locked()
        return self._version

    def _advance_version_locked(self) -> None:
        """Bump the token and drop every per-version cache (mutation lock held)."""
        self._version = self._version.advanced()
        self._materialized = (
            dict(self._shards[0].columns) if len(self._shards) == 1 else {}
        )
        self._null_masks = {}
        self._float_values = {}
        self._category_codes = {}
        # Versioned keys already make old entries unreachable; a fresh LRU
        # frees the memory immediately and re-derives the entry cap from the
        # new row count, keeping the byte budget honest as the table grows.
        # Snapshots of the previous version keep the old LRU (their masks
        # stay warm for in-flight readers) and stay in the bounded snapshot
        # memo until evicted by newer versions.
        self._mask_cache = LRUCache(self._mask_cache_capacity())

    # -- compaction ------------------------------------------------------------

    def compact(self) -> bool:
        """Merge small or over-numerous shards into larger ones.

        Purely a physical-layout rewrite: row order, contents and the
        version token are unchanged, so every cache keyed on the token (or
        on the table's per-version artifacts) remains valid.  Shards large
        enough to stand alone are kept untouched -- their interned code
        arrays are reused as-is -- and merged shards inherit concatenated
        code arrays wherever every constituent was already interned.
        Snapshots taken before the call keep their own pinned shard lists.

        :returns: ``True`` when the layout changed, ``False`` when the
            table was already compact.
        """
        with self._mutation_lock:
            return self._compact_locked()

    def _needs_compaction_locked(self) -> bool:
        """Whether the compaction policy fires for the current shard layout.

        The newest shard is exempt from the size test: the next append
        either runs on from it or leaves it behind, and then it is tested.
        """
        if len(self._shards) <= 1:
            return False
        if len(self._shards) > COMPACT_MAX_SHARDS:
            return True
        smallest = min(shard.n_rows for shard in self._shards[:-1])
        return smallest < self._compact_threshold_locked()

    def _compact_threshold_locked(self) -> int:
        """Rows below which a shard counts as "small" for the policy."""
        return max(1, math.ceil(max(self._n_rows, 1) * COMPACT_MIN_FRACTION))

    def _compact_locked(self) -> bool:
        """Greedy adjacent-run merge (mutation lock held); order-preserving.

        Afterwards every shard but the newest reaches the threshold and at
        most :data:`COMPACT_MAX_SHARDS` remain, so the policy is quiet until
        the next append.
        """
        shards = self._shards
        if len(shards) <= 1:
            return False
        threshold = self._compact_threshold_locked()
        if len(shards) > COMPACT_MAX_SHARDS:
            threshold = max(
                threshold, math.ceil(self._n_rows / COMPACT_MAX_SHARDS)
            )
        groups: list[list[Shard]] = []
        sizes: list[int] = []
        current: list[Shard] = []
        current_rows = 0
        for shard in shards:
            if shard.n_rows >= threshold:
                # Large enough to stand alone: close any open small run and
                # keep this shard untouched (its codes stay warm).
                if current:
                    groups.append(current)
                    sizes.append(current_rows)
                    current, current_rows = [], 0
                groups.append([shard])
                sizes.append(shard.n_rows)
                continue
            current.append(shard)
            current_rows += shard.n_rows
            if current_rows >= threshold:
                groups.append(current)
                sizes.append(current_rows)
                current, current_rows = [], 0
        if current:
            groups.append(current)
            sizes.append(current_rows)
        # A small run a large shard closed (so not the newest) would stay
        # small forever: fold it into its smaller neighbour.  Both
        # neighbours reach the threshold, so the merged group does too.
        for i in range(len(groups) - 2, -1, -1):
            if sizes[i] >= threshold:
                continue
            j = i + 1 if i == 0 or sizes[i + 1] < sizes[i - 1] else i - 1
            self._fold_groups(groups, sizes, min(i, j))
        while len(groups) > COMPACT_MAX_SHARDS:
            # Hard bound: fold the adjacent pair with the fewest rows.
            i = min(range(len(groups) - 1), key=lambda j: sizes[j] + sizes[j + 1])
            self._fold_groups(groups, sizes, i)
        if all(len(group) == 1 for group in groups):
            return False
        self._shards = [
            group[0] if len(group) == 1 else self._merge_shards(group)
            for group in groups
        ]
        # Readers admitted from now on must see the merged layout: drop the
        # memoised snapshot so the next snapshot() call re-pins.  Snapshots
        # already handed out keep their (equivalent) pre-compact shard lists,
        # and the new snapshot shares the same version token and mask LRU, so
        # nothing version-keyed goes cold.
        self._snapshots.pop(self._version, None)
        return True

    @staticmethod
    def _fold_groups(groups: list[list[Shard]], sizes: list[int], i: int) -> None:
        """Merge group ``i + 1`` into group ``i``, keeping ``sizes`` in step."""
        groups[i : i + 2] = [groups[i] + groups[i + 1]]
        sizes[i : i + 2] = [sizes[i] + sizes[i + 1]]

    def _merge_shards(self, group: Sequence[Shard]) -> Shard:
        """Concatenate adjacent shards into one, carrying over interned codes.

        The carry-over is an optimisation only, so the intern lock is taken
        *non-blocking*: a reader mid-way through interning a large shard
        must never stall an auto-compacting appender (which holds the
        mutation lock here -- blocking would serialize admission behind the
        reader's interning pass).  When the lock is busy the merged shard
        simply starts with no codes and re-interns lazily on first use.
        Sorted numeric copies and per-matrix histograms are never carried:
        a merged shard sorts and histograms afresh on first touch.
        """
        columns: dict[str, np.ndarray] = {}
        for name in self._schema.attribute_names:
            col = np.concatenate([shard.columns[name] for shard in group])
            col.flags.writeable = False
            columns[name] = col
        codes: dict[str, np.ndarray] = {}
        if self._intern_lock.acquire(blocking=False):
            try:
                interned_everywhere = set(group[0].codes)
                for shard in group[1:]:
                    interned_everywhere &= set(shard.codes)
                for name in interned_everywhere:
                    merged = np.concatenate(
                        [shard.codes[name] for shard in group]
                    )
                    merged.flags.writeable = False
                    codes[name] = merged
            finally:
                self._intern_lock.release()
        return Shard(
            columns=columns,
            n_rows=sum(shard.n_rows for shard in group),
            codes=codes,
        )

    # -- basic accessors ------------------------------------------------------

    @property
    def schema(self) -> Schema:
        return self._schema

    def __len__(self) -> int:
        return self._n_rows

    @property
    def n_rows(self) -> int:
        return self._n_rows

    def _column_data(self, name: str) -> np.ndarray:
        """The full (cross-shard) frozen storage array of one attribute."""
        col = self._materialized.get(name)
        if col is not None:
            return col
        if name not in self._schema:
            raise SchemaError(
                f"table has no column {name!r}; "
                f"known columns: {list(self._schema.attribute_names)}"
            )
        with self._mutation_lock:
            self._ensure_open()
            col = self._materialized.get(name)
            if col is not None:
                return col
            if len(self._shards) == 1:
                col = self._shards[0].columns[name]
            else:
                col = np.concatenate(
                    [shard.columns[name] for shard in self._shards]
                )
                col.flags.writeable = False
            self._materialized[name] = col
            return col

    def column(self, name: str) -> np.ndarray:
        """The values of one attribute as a numpy array (read-only view)."""
        col = self._column_data(name)
        view = col.view()
        view.flags.writeable = False
        return view

    def __getitem__(self, name: str) -> np.ndarray:
        return self.column(name)

    def row(self, index: int) -> dict[str, object]:
        """One row as a plain dict (NULLs become ``None``)."""
        if not -self._n_rows <= index < self._n_rows:
            raise IndexError(f"row index {index} out of range for {self._n_rows} rows")
        out: dict[str, object] = {}
        for attr in self._schema.attributes:
            value = self._column_data(attr.name)[index]
            if attr.kind is AttributeKind.NUMERIC:
                fval = float(value)
                out[attr.name] = None if np.isnan(fval) else fval
            else:
                out[attr.name] = value if value is not None else None
        return out

    def iter_rows(self) -> Iterator[dict[str, object]]:
        for i in range(self._n_rows):
            yield self.row(i)

    def to_rows(self) -> list[dict[str, object]]:
        return list(self.iter_rows())

    # -- null handling and columnar caches ------------------------------------

    def is_null(self, name: str) -> np.ndarray:
        """Boolean mask marking NULL values of the named attribute.

        The mask is computed once per column per version and cached; the
        returned array is read-only.
        """
        return self.null_mask(name)

    def null_mask(self, name: str) -> np.ndarray:
        """Cached, read-only NULL mask of the named attribute."""
        cached = self._null_masks.get(name)
        if cached is not None:
            return cached
        attr = self._schema[name]
        col = self._column_data(name)
        if attr.kind is AttributeKind.NUMERIC:
            mask = np.isnan(self.numeric_values(name))
        else:
            mask = np.fromiter(
                (v is None for v in col), dtype=bool, count=len(col)
            )
        mask.flags.writeable = False
        self._null_masks[name] = mask
        return mask

    def numeric_values(self, name: str) -> np.ndarray:
        """The named column as a cached, read-only float array.

        For numeric attributes this is (at most) one conversion per table
        version; non-numeric columns raise whatever ``astype(float)`` raises,
        matching direct conversion of :meth:`column`.
        """
        cached = self._float_values.get(name)
        if cached is not None:
            return cached
        col = self._column_data(name)
        values = col if col.dtype == np.float64 else col.astype(float)
        view = values.view()
        view.flags.writeable = False
        self._float_values[name] = view
        return view

    def category_codes(self, name: str) -> tuple[np.ndarray, dict[str, int]]:
        """Dictionary-encode an object (categorical/text) column.

        Returns ``(codes, index)`` where ``codes`` is a read-only ``int32``
        array with NULL encoded as ``-1`` and ``index`` maps distinct values
        to codes.  Encoding is **per shard** against the table's shared
        append-only dictionary: each shard is interned at most once in its
        lifetime, and the per-version result here is a concatenation of the
        per-shard code arrays -- after an append only the new shard is
        interned.  ``index`` is the live shared dictionary: it may
        contain values that no current row carries (from refreshed-away rows
        or sibling shards), which is harmless -- their codes match nothing --
        and callers must treat it as read-only.
        """
        cached = self._category_codes.get(name)
        if cached is not None:
            return cached
        if name not in self._schema:
            raise SchemaError(
                f"table has no column {name!r}; "
                f"known columns: {list(self._schema.attribute_names)}"
            )
        with self._mutation_lock:
            # Capture a (shard list, per-version cache) pair that belongs to
            # one version: an append rebinding the caches mid-read cannot
            # make us publish codes for version N+1 under version N's dict.
            self._ensure_open()
            shards = list(self._shards)
            per_version = self._category_codes
        index = self._category_index.setdefault(name, {})
        parts = [self._shard_codes(shard, name, index) for shard in shards]
        if len(parts) == 1:
            codes = parts[0]
        elif parts:
            codes = np.concatenate(parts)
            codes.flags.writeable = False
        else:  # zero shards never happens, but keep the dtype contract
            codes = np.empty(0, dtype=np.int32)
        per_version[name] = (codes, index)
        return codes, index

    def _shard_codes(
        self, shard: Shard, name: str, index: dict[str, int]
    ) -> np.ndarray:
        """The shard's code array under the shared dictionary (intern once).

        The shard's unseen non-NULL values join ``index`` in first-occurrence
        order (``dict.fromkeys``), which assigns exactly the codes a
        row-by-row walk would; one ``np.fromiter`` over ``index.get`` then
        maps every row, NULL to ``-1``.
        """
        codes = shard.codes.get(name)
        if codes is not None:
            return codes
        with self._intern_lock:
            codes = shard.codes.get(name)
            if codes is not None:
                return codes
            values = shard.columns[name].tolist()
            for value in dict.fromkeys(values):
                if value is not None and value not in index:
                    index[value] = len(index)
            out = np.fromiter(
                map(index.get, values, itertools.repeat(-1)),
                np.int32,
                count=len(values),
            )
            out.flags.writeable = False
            shard.codes[name] = out
            return out

    def shard_category_codes(
        self, shard: Shard, name: str
    ) -> tuple[np.ndarray, dict[str, int]]:
        """One shard's slice of :meth:`category_codes`: its read-only
        ``int32`` codes (NULL is ``-1``) and the live shared dictionary.

        The shard is interned at most once in its lifetime, under the
        table lineage's dictionary, so the codes mean the same in every
        table, snapshot and compacted layout that holds the shard.
        """
        index = self._category_index.setdefault(name, {})
        return self._shard_codes(shard, name, index), index

    def shard_sorted_values(self, shard: Shard, name: str) -> np.ndarray:
        """One shard's numeric column as read-only sorted ``float64`` values.

        NaN (NULL) sorts last.  The copy is made once in the shard's
        lifetime and shared by every table, snapshot and matrix reading the
        shard.  The sort runs outside the intern lock (it is the slow part,
        and ``_merge_shards`` only ever tries that lock); racers publish
        through ``setdefault`` under it, so all of them get one array.
        """
        values = shard.sorted_values.get(name)
        if values is not None:
            return values
        values = np.sort(np.asarray(shard.columns[name], dtype=float))
        values.flags.writeable = False
        with self._intern_lock:
            return shard.sorted_values.setdefault(name, values)

    def shard_rows(self, shard: Shard, rows: np.ndarray) -> "Table":
        """A new table holding the rows at ``rows`` of one shard."""
        return Table(
            self._schema, {name: col[rows] for name, col in shard.columns.items()}
        )

    def domain_stamp(self, attributes: Iterable[str]) -> TableVersion:
        """Vestigial: the version token.

        Nothing in the package calls this.  It stays only while the
        end-to-end benchmark's layer table wraps the name, and goes with
        that wrapper row.
        """
        return self._version

    @property
    def mask_cache(self) -> LRUCache[np.ndarray]:
        """The per-table LRU of evaluated predicate masks (see predicates.py).

        Entries are keyed by ``(version_token, predicate)`` -- see
        :meth:`mask_key` -- so a mask evaluated before an append can never be
        served afterwards.  The current version's snapshot shares this LRU
        object, so snapshot-scoped evaluations and live-table reads at the
        same version warm each other.
        """
        return self._mask_cache

    def mask_key(
        self, predicate: object, version: TableVersion | None = None
    ) -> tuple[TableVersion, object]:
        """The versioned mask-LRU key of one predicate.

        ``version`` defaults to the current token; evaluation paths pass the
        token of the snapshot they evaluated, so a mask can only ever be
        stored under the version it describes.
        """
        return (version if version is not None else self._version, predicate)

    def cached_mask(
        self, predicate: object, version: TableVersion | None = None
    ) -> np.ndarray | None:
        """The memoised mask of ``predicate`` at the given version, if any."""
        return self._mask_cache.get(self.mask_key(predicate, version))

    def cache_mask(
        self,
        predicate: object,
        mask: np.ndarray,
        version: TableVersion | None = None,
    ) -> np.ndarray:
        """Freeze and insert one predicate mask into the LRU (versioned key).

        Evaluation routes through snapshots, so the mask is always a pure
        function of ``(version, predicate)`` and admission is unconditional;
        inserting under an old token is harmless (the key is unreachable at
        newer versions).
        """
        mask.flags.writeable = False
        return self._mask_cache.put(self.mask_key(predicate, version), mask)

    def clear_caches(self) -> None:
        """Drop every lazily built per-version cache (benchmarks use this).

        Purely a recompute trigger: the version token does *not* advance
        (the data is unchanged, so externally cached artifacts stay valid).
        The memoised snapshot is dropped so the next reader re-derives its
        artifacts cold.  The shared category dictionary and the per-shard
        code arrays are retained -- they are append-only facts about the
        data, never renumbered, so "cold" runs still share them (build a
        fresh ``Table`` to measure interning itself).  So are the per-shard
        sorted numeric columns, and the per-shard histograms exact workload
        matrices keep: they live per matrix value, keyed by the immutable
        shard (build a fresh ``Table``, or call
        :func:`~repro.queries.workload.clear_matrix_cache`, to measure the
        histogram pass).
        """
        with self._mutation_lock:
            self._null_masks.clear()
            self._float_values.clear()
            self._category_codes.clear()
            self._mask_cache.clear()
            self._materialized = (
                dict(self._shards[0].columns) if len(self._shards) == 1 else {}
            )
            self._snapshots.pop(self._version, None)

    def null_count(self, name: str) -> int:
        return int(self.is_null(name).sum())

    # -- derived tables -------------------------------------------------------

    def filter(self, mask: np.ndarray) -> "Table":
        """A new table containing only rows where ``mask`` is True."""
        mask = np.asarray(mask, dtype=bool)
        if len(mask) != self._n_rows:
            raise SchemaError(
                f"mask has length {len(mask)}, table has {self._n_rows} rows"
            )
        columns = {
            name: self._column_data(name)[mask]
            for name in self._schema.attribute_names
        }
        return Table(self._schema, columns)

    def take(self, indices: Sequence[int]) -> "Table":
        """A new table containing the rows at ``indices`` (in that order)."""
        idx = np.asarray(indices, dtype=int)
        columns = {
            name: self._column_data(name)[idx]
            for name in self._schema.attribute_names
        }
        return Table(self._schema, columns)

    def sample(self, n: int, rng: np.random.Generator | int | None = None) -> "Table":
        """Uniform sample of ``n`` rows without replacement."""
        if n < 0:
            raise ValueError("sample size must be non-negative")
        if n > self._n_rows:
            raise ValueError(
                f"cannot sample {n} rows from a table with {self._n_rows} rows"
            )
        generator = _as_generator(rng)
        idx = generator.choice(self._n_rows, size=n, replace=False)
        return self.take(idx)

    def head(self, n: int = 5) -> "Table":
        return self.take(np.arange(min(n, self._n_rows)))

    def project(self, names: Sequence[str]) -> "Table":
        """A new table restricted to the named attributes."""
        schema = self._schema.project(names)
        columns = {name: self._column_data(name) for name in names}
        return Table(schema, columns)

    def concat(self, other: "Table") -> "Table":
        """Rows of ``self`` followed by rows of ``other`` (same schema)."""
        if other.schema.attribute_names != self._schema.attribute_names:
            raise SchemaError("cannot concatenate tables with different schemas")
        columns = {
            name: np.concatenate(
                [self._column_data(name), other._column_data(name)]
            )
            for name in self._schema.attribute_names
        }
        return Table(self._schema, columns)

    # -- counting -------------------------------------------------------------

    def count(self, mask: np.ndarray | None = None) -> int:
        """Number of rows, optionally restricted to ``mask``."""
        if mask is None:
            return self._n_rows
        mask = np.asarray(mask, dtype=bool)
        if len(mask) != self._n_rows:
            raise SchemaError(
                f"mask has length {len(mask)}, table has {self._n_rows} rows"
            )
        return int(mask.sum())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Table(schema={self._schema.name!r}, rows={self._n_rows}, "
            f"shards={len(self._shards)}, version={self._version.ordinal}, "
            f"attributes={list(self._schema.attribute_names)})"
        )


class TableSnapshot(Table):
    """An immutable view of one :class:`Table` version (see :meth:`Table.snapshot`).

    Shares the parent's frozen shard objects (zero-copy), its per-version
    derived artifacts, its mask LRU and its category dictionary, and pins
    the parent's :attr:`version_token` forever -- so everything derived
    through the snapshot is addressable under exactly the keys a live read
    admitted at that version would use, and the straddled-mutation guards of
    the old read path are vacuous: a snapshot-scoped evaluation is *always*
    cacheable.

    Mutators (:meth:`append_rows`, :meth:`append_columns`, :meth:`refresh`,
    :meth:`compact`) raise :class:`~repro.core.exceptions.SnapshotError`;
    derivations (:meth:`Table.filter`, :meth:`Table.take`, ...) still return
    fresh mutable tables.
    """

    def __init__(self, parent: Table) -> None:
        # Called by Table.snapshot() with the parent's mutation lock held,
        # so the (shards, n_rows, version, caches) capture is consistent.
        self._schema = parent._schema
        self._shards = list(parent._shards)
        self._n_rows = parent._n_rows
        self._version = parent._version
        self._mutation_lock = threading.RLock()
        self._intern_lock = parent._intern_lock
        self._category_index = parent._category_index
        # Copy the per-version dicts (cheap: a handful of columns): the
        # arrays inside are shared, while later lazy fills stay local so the
        # parent rebinding its dicts on a version advance is never observed
        # mid-read through the snapshot.
        self._materialized = dict(parent._materialized)
        self._null_masks = dict(parent._null_masks)
        self._float_values = dict(parent._float_values)
        self._category_codes = dict(parent._category_codes)
        # The mask LRU is shared *by reference* (it locks internally): masks
        # evaluated through the snapshot serve live-table readers at the
        # same version and vice versa.  After the parent advances, it swaps
        # in a fresh LRU while this snapshot keeps the old one warm.
        self._mask_cache = parent._mask_cache
        self._snapshots = OrderedDict()
        self._snapshot_stats = {"created": 0, "evicted": 0, "closed": 0}
        self._closed = False
        self._detached = False
        #: True for snapshots minted by :meth:`Table.open_snapshot`: the
        #: caller owns the object exclusively, so close() may gut it.
        self._owned = False
        self._parent_ref: "weakref.ref[Table] | None" = weakref.ref(parent)

    @property
    def is_snapshot(self) -> bool:
        return True

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` released this snapshot's pinned state."""
        return self._closed

    def snapshot(self) -> "TableSnapshot":
        """Snapshots are already pinned; returns ``self``."""
        self._ensure_open()
        return self

    def close(self) -> None:
        """Release this handle's pin; how much is released depends on ownership.

        For an **owned** snapshot (:meth:`Table.open_snapshot` -- the
        long-lived analytics pattern) the pinned shard list is dropped so
        old shards can be garbage-collected, and any further read through
        this object raises :class:`~repro.core.exceptions.SnapshotError`.

        For a **shared** snapshot (handed out by :meth:`Table.snapshot`,
        where every reader admitted at one version holds the *same*
        object), close() only evicts the memo entry -- the table stops
        handing the snapshot out and stops pinning it, while readers that
        already hold it keep working untouched.  Gutting a shared object
        would fail other readers' in-flight evaluations, so it is never
        done.

        Closing is idempotent either way.  Owned snapshots work as context
        managers (``with table.open_snapshot() as snap: ...`` closes on
        exit).
        """
        if self._closed or self._detached:
            return
        parent = self._parent_ref() if self._parent_ref is not None else None
        if parent is not None:
            with parent._mutation_lock:
                if parent._snapshots.get(self._version) is self:
                    del parent._snapshots[self._version]
                parent._snapshot_stats["closed"] += 1
        if not self._owned:
            self._detached = True
            return
        with self._mutation_lock:
            self._closed = True
            self._shards = []
            self._materialized = {}
            self._null_masks = {}
            self._float_values = {}
            self._category_codes = {}
            self._mask_cache = LRUCache(16)

    def __enter__(self) -> "TableSnapshot":
        self._ensure_open()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _ensure_open(self) -> None:
        if self._closed:
            raise SnapshotError(
                f"snapshot of version {self._version.ordinal} is closed; "
                "pin a fresh snapshot from the live table"
            )

    def _refuse_mutation(self, operation: str) -> None:
        raise SnapshotError(
            f"cannot {operation} a TableSnapshot (pinned at version "
            f"{self._version.ordinal}); mutate the live Table instead"
        )

    def append_rows(self, rows: Iterable[Mapping[str, object]]) -> TableVersion:
        self._refuse_mutation("append rows to")

    def append_columns(self, columns: Mapping[str, np.ndarray]) -> TableVersion:
        self._refuse_mutation("append columns to")

    def refresh(self, rows: Iterable[Mapping[str, object]]) -> TableVersion:
        self._refuse_mutation("refresh")

    def compact(self) -> bool:
        self._refuse_mutation("compact")

    def clear_caches(self) -> None:
        """Drop the snapshot's own lazy caches (cold-run helper).

        Detaches from the shared mask LRU (clearing it would also chill the
        live table and sibling readers) and rebinds fresh local dicts; the
        pinned shard data itself is immutable and stays.
        """
        with self._mutation_lock:
            self._null_masks = {}
            self._float_values = {}
            self._category_codes = {}
            self._materialized = (
                dict(self._shards[0].columns) if len(self._shards) == 1 else {}
            )
            self._mask_cache = LRUCache(self._mask_cache_capacity())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TableSnapshot(schema={self._schema.name!r}, rows={self._n_rows}, "
            f"shards={len(self._shards)}, version={self._version.ordinal})"
        )


def _rows_to_columns(
    schema: Schema, rows: Iterable[Mapping[str, object]]
) -> dict[str, np.ndarray]:
    """Coerce row dicts into one storage array per schema attribute."""
    rows = list(rows)
    columns: dict[str, np.ndarray] = {}
    for attr in schema.attributes:
        values = [row.get(attr.name) for row in rows]
        columns[attr.name] = _coerce_column(attr.kind, values)
    return columns


#: Exact value types whose column numpy converts in one C-level pass, with
#: the same result as the per-value loop (``None`` becomes NaN).
_NUMERIC_FAST_TYPES = frozenset({int, float, type(None)})
#: Exact value types a text column stores unchanged (``str(v) is v``).
_TEXT_FAST_TYPES = frozenset({str, type(None)})


def _coerce_column(kind: AttributeKind, values: list[object]) -> np.ndarray:
    """Build the storage array for one attribute from python values.

    Columns whose values all have an exact fast-path type are converted in
    one pass; anything else (``bool``, numpy scalars, ``Decimal``, strings
    in a numeric column, ``str`` subclasses) takes the per-value loop.
    Both give the same array, and the same error.  A stored text value is
    always an exact ``str``, so hashing it under the intern lock runs no
    user code.
    """
    types = set(map(type, values))
    if kind is AttributeKind.NUMERIC:
        if types <= _NUMERIC_FAST_TYPES:
            return np.array(values, dtype=float)
        out = np.empty(len(values), dtype=float)
        for i, value in enumerate(values):
            out[i] = np.nan if value is None else float(value)  # type: ignore[arg-type]
        return out
    col = np.empty(len(values), dtype=object)
    if types <= _TEXT_FAST_TYPES:
        col[:] = values
        return col
    for i, value in enumerate(values):
        col[i] = None if value is None else str(value)
    return col


def _as_generator(rng: np.random.Generator | int | None) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)
