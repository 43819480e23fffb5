"""Workloads, domain partitioning and the matrix representation.

Section 5 of the paper represents a workload counting query by a matrix
``W`` of shape ``L x |dom_W(R)|``: the full domain is partitioned so that each
predicate is a union of partitions, the data becomes a histogram ``x`` over
the partitions, and the true answers are ``W @ x``.  The workload sensitivity
``||W||_1`` (maximum column L1 norm) drives the noise scale of every
mechanism.

Two analysis paths are provided:

* **exact domain analysis** -- for workloads whose predicates are structured
  comparisons over categorical / numeric attributes.  Per-attribute elementary
  atoms are derived from the constants appearing in the workload (plus the
  categorical domain values), the cross-product of atoms forms candidate
  domain cells, and cells are grouped by their predicate signature.  This is
  data independent and yields the exact matrix and sensitivity.

  The enumeration is fully vectorized.  Each referenced attribute's atoms
  become arrays once (NULL flag, interval flag, interval representative,
  category code), and each atomic condition's *leaf vector* -- its truth
  value per atom -- is one array comparison over them.  The predicate AST is
  then combined over chunks of the cell cross-product by numpy broadcasting /
  fancy indexing, and partitions are deduplicated with ``np.unique`` over
  bit-packed signature rows.  No per-atom or per-cell Python loop remains,
  which is what allows :data:`MAX_DOMAIN_CELLS` to sit in the millions.
* **structural analysis** -- fallback for workloads containing opaque
  predicates (e.g. string-similarity predicates in the entity-resolution case
  study).  The matrix is the identity over predicates and the sensitivity is
  either declared by the caller (``disjoint=True`` => 1) or conservatively set
  to ``L``.  Its value is fixed by ``(L, sensitivity)``, so one matrix object
  serves every such workload and holds none of them: it counts no rows, and
  a release counts a structural workload with :meth:`Workload.true_answers`.

An exact matrix keeps the analysis's atoms and per-atom leaf vectors, and
reads the data through them, one table shard at a time:
:meth:`WorkloadMatrix.partition_histogram` maps each row of a shard to its
atom once per referenced attribute (a code -> atom lookup for categorical
values, one ``np.searchsorted`` over the atom boundaries for numbers, NULL
to the NULL atom), sums the atom offsets into one flat cell index and counts
the cells with ``np.bincount``.  Only the occupied cells get a signature,
from the leaf vectors.  A row whose value is no atom (outside the declared
domain, a NULL with no NULL atom, a categorical value the workload never
names) takes its signature from the predicate masks of just those rows
instead, so it lands in the same partition, or raises the same
:class:`QueryError`, as a row-at-a-time evaluation would.  Shards are
immutable and ``x`` is additive over disjoint rows, so each shard's
histogram is kept (weakly keyed by the shard) and a snapshot's ``x`` is the
sum over its shards.  A table's shard list only grows at its end, so the
next snapshot's ``x`` is the last read's plus the shards appended since:
after an append only the new shard is read and added.
The true counts of an exact matrix are ``W @ x`` (exact in float64: counts
stay below ``2**53``).

Because the exploration strategies (and the APEx relaxation loops in
particular) re-ask structurally identical workloads many times,
:meth:`Workload.analyze` memoises matrices in a module-level LRU: an exact
matrix keyed by its value token (predicates + schema identity, without
the names), a structural one by its value token ``("structural", L,
sensitivity)``; see :func:`matrix_cache_stats`.  No table version enters a
key: a matrix reads only the predicates and the schema's *declared* domains,
and a frozen schema object never changes, so a matrix stays valid across
every append and refresh of every table with that schema.  Only the
data-dependent caches a matrix carries (the summed histogram of the last
snapshot read, the per-shard histograms) name the data they describe.
Matrices are not persisted: a restarted process is served by the
translation lists on disk (``docs/store.md``).
``matrix_cache_stats()`` reports ``built`` alongside the LRU counters, and
``histogram_rows``/``histogram_shards`` for the per-shard histograms.
"""

from __future__ import annotations

import math
import threading
import weakref
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from repro.core.exceptions import PredicateError, QueryError
from repro.core.lru import LRUCache
from repro.data.schema import AttributeKind, Schema
from repro.data.table import Shard, Table, TableVersion
from repro.obs import Counter, tracing
from repro.queries.predicates import (
    And,
    Between,
    CellValue,
    Comparison,
    FalsePredicate,
    In,
    Interval,
    IsNull,
    Not,
    Or,
    Predicate,
    TruePredicate,
    _apply_op,
)

__all__ = [
    "Workload",
    "WorkloadMatrix",
    "DomainPartition",
    "matrix_cache_stats",
    "clear_matrix_cache",
]

#: Hard cap on the number of candidate domain cells enumerated by the exact
#: analysis; beyond this the workload must use structural analysis.  The
#: vectorized enumeration streams the cross product in bounded chunks, so for
#: the analysis the cap is a compute guard.  It also bounds the one transient
#: of an exact histogram that grows with the domain: the per-cell
#: ``np.bincount`` of ``n_cells + 1`` int64 counters (64 MB at the cap).
MAX_DOMAIN_CELLS = 8_000_000

#: Target number of (cell, predicate) booleans materialised per enumeration
#: chunk; the per-chunk cell count is ``max(_MIN_CHUNK_CELLS, _CELL_BUDGET // L)``.
_CELL_BUDGET = 1 << 24
#: Floor on the per-chunk cell count (tests shrink it to force multi-chunk runs).
_MIN_CHUNK_CELLS = 4096


class _IdKey:
    """Identity-based dict key that keeps its referent alive.

    Used to key caches by "this exact schema object" without the id-reuse
    hazard of a raw ``id()`` (the strong reference pins the object, so its id
    cannot be recycled while the key is held).
    """

    __slots__ = ("obj",)

    def __init__(self, obj: object) -> None:
        self.obj = obj

    def __hash__(self) -> int:
        return id(self.obj)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _IdKey) and other.obj is self.obj


class _StructureKey:
    """A hashable value with its hash computed once, for memo keys.

    Tuples do not keep their hash, so a key holding a workload's ``L``
    predicates re-hashes all of them on every dict probe.  This wrapper
    hashes its value in ``__init__`` (raising :class:`TypeError` when the
    value is unhashable) and answers every later probe from the stored
    number.  Equality is the value's own, tried by identity first, so a key
    equals another exactly when their values are equal.  A hash derived from
    strings depends on the process's ``PYTHONHASHSEED``, so pickles and copies
    carry the value alone and rebuild the hash where they land.
    """

    __slots__ = ("value", "_hash")

    def __init__(self, value: object) -> None:
        self.value = value
        self._hash = hash(value)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, _StructureKey) and self.value == other.value
        )

    def __reduce__(self) -> tuple:
        return (_StructureKey, (self.value,))


#: Process-wide LRU of :class:`WorkloadMatrix`, keyed by value: exact
#: matrices by predicates and schema identity (:func:`_structural_token`),
#: structural ones by ``("structural", L, sensitivity)`` (see
#: :meth:`Workload._analysis_key`).
_MATRIX_CACHE: "LRUCache[WorkloadMatrix]" = LRUCache(128)

#: Counters of the tiers beneath the exact-key LRU and of the per-shard
#: histogram pass (see matrix_cache_stats).  Service threads bump them
#: concurrently, so each is a locked :class:`~repro.obs.Counter` rather
#: than a bare ``int``.
_MATRIX_TIER_STATS = {
    key: Counter()
    for key in ("built", "histogram_rows", "histogram_shards")
}


def matrix_cache_stats() -> dict[str, int]:
    """Counters of the workload-matrix memo hierarchy.

    ``hits``/``misses``/``size`` describe the LRU and ``built`` counts the
    analyses that actually ran.  ``revalidated`` is always 0: the tier it
    counted is gone, and the key stays only for readers of the old shape.
    ``histogram_shards`` counts the per-shard histograms exact matrices
    computed and ``histogram_rows`` the rows of those shards, read by either
    the one-attribute counts or the row pass (an append of k rows costs k,
    not the table).  Workloads that differ only in names share one exact
    matrix, so they share its entries too; a matrix built again after an
    eviction reads every shard afresh.
    """
    tiers = {key: int(counter.value()) for key, counter in _MATRIX_TIER_STATS.items()}
    return {**_MATRIX_CACHE.stats(), **tiers, "revalidated": 0}


def clear_matrix_cache() -> None:
    """Drop every memoised workload matrix and reset every counter."""
    _MATRIX_CACHE.clear()
    for counter in _MATRIX_TIER_STATS.values():
        counter.reset()


class Workload:
    """An ordered collection of named predicates ``{phi_1, ..., phi_L}``."""

    def __init__(
        self,
        predicates: Sequence[Predicate],
        names: Sequence[str] | None = None,
    ) -> None:
        preds = list(predicates)
        if not preds:
            raise QueryError("a workload needs at least one predicate")
        if names is None:
            names = [p.describe() for p in preds]
        names = [str(n) for n in names]
        if len(names) != len(preds):
            raise QueryError(
                f"{len(names)} names provided for {len(preds)} predicates"
            )
        self._predicates = tuple(preds)
        self._names = tuple(names)
        # Immutable facts the memo keys and the domain analysis need, so
        # they are derived here once instead of per probe.
        self._attributes: frozenset[str] = frozenset().union(
            *(pred.attributes() for pred in preds)
        )
        self._supports_domain_analysis = all(
            pred.supports_domain_analysis for pred in preds
        )
        try:
            key: _StructureKey | None = _StructureKey((self._predicates, self._names))
        except TypeError:
            key = None
        self._structure_key = key
        #: The predicates alone as one pre-hashed key, made on the first
        #: exact-matrix memo probe (see :func:`_structural_token`).
        self._predicates_key: _StructureKey | None = None

    # -- container protocol ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._predicates)

    def __iter__(self):
        return iter(self._predicates)

    def __getitem__(self, index: int) -> Predicate:
        return self._predicates[index]

    @property
    def predicates(self) -> tuple[Predicate, ...]:
        return self._predicates

    @property
    def names(self) -> tuple[str, ...]:
        return self._names

    @property
    def size(self) -> int:
        """The workload size ``L``."""
        return len(self._predicates)

    def name_of(self, index: int) -> str:
        return self._names[index]

    def index_of(self, name: str) -> int:
        try:
            return self._names.index(name)
        except ValueError as exc:
            raise QueryError(f"workload has no predicate named {name!r}") from exc

    def attributes(self) -> frozenset[str]:
        """All attributes referenced anywhere in the workload."""
        return self._attributes

    @property
    def structure_key(self) -> _StructureKey | None:
        """``(predicates, names)`` as one pre-hashed key, or ``None``.

        ``None`` when a predicate is unhashable; every memo keyed on the
        workload structure is then skipped.  Structured predicates hash by
        value; opaque function predicates hash by identity, which still
        caches correctly for re-used predicate objects (the
        entity-resolution strategies intern theirs).

        The key names translation lists on disk.  Matrices, and the
        translation lists in memory, are keyed by value
        (:meth:`_analysis_key`): an exact matrix by the predicates alone and
        the schema, a structural one by ``(L, sensitivity)``, whose counts
        come from :meth:`true_answers`, not from the matrix.
        """
        return self._structure_key

    @property
    def supports_domain_analysis(self) -> bool:
        """True when every predicate is structured (exact analysis applies)."""
        return self._supports_domain_analysis

    # -- evaluation -------------------------------------------------------------

    def evaluate(self, table: Table) -> np.ndarray:
        """Boolean membership matrix of shape ``(n_rows, L)``.

        All predicates evaluate against **one** pinned snapshot of the table
        (taken up front), so the columns always describe a single version
        even while ``append_rows`` runs concurrently.
        """
        table = table.snapshot()
        membership = np.empty((len(table), self.size), dtype=bool)
        for i, pred in enumerate(self._predicates):
            membership[:, i] = pred.evaluate(table)
        return membership

    def true_answers(self, table: Table) -> np.ndarray:
        """True counts ``c_phi_i(D)`` for every predicate, as a float vector.

        Counts each predicate's (cached) mask on one pinned snapshot.
        """
        table = table.snapshot()
        return np.array(
            [np.count_nonzero(pred.evaluate(table)) for pred in self._predicates],
            dtype=float,
        )

    # -- analysis ---------------------------------------------------------------

    def analyze(
        self,
        schema: Schema | None = None,
        *,
        disjoint: bool | None = None,
        sensitivity: float | None = None,
    ) -> "WorkloadMatrix":
        """Compute the matrix representation of this workload.

        Parameters
        ----------
        schema:
            Required for exact domain analysis (structured predicates).
        disjoint:
            Declare that the predicates are mutually exclusive (sensitivity 1)
            and skip the exact domain enumeration.
        sensitivity:
            An explicit sensitivity override; also skips the exact domain
            enumeration (useful for huge cross-attribute workloads such as the
            QT2/QT4 benchmarks, where the sensitivity is known structurally).

        Results are memoised: analysing a workload with equal predicates
        (whatever their names) over the same schema object returns the
        previously built exact matrix without re-deriving it, whatever the
        tables with that schema hold, and every workload analysed
        structurally with the same ``L`` and effective sensitivity gets one
        shared matrix.  The memo key is :meth:`_analysis_key`, which is also
        the matrix's :attr:`~WorkloadMatrix.cache_token`.
        """
        key = self._analysis_key(schema, disjoint, sensitivity)
        if key is not None:
            cached = _MATRIX_CACHE.get(key)
            if cached is not None:
                tracing.annotate("matrix_tier", "exact")
                return cached
        structural = self._structural_key(schema, disjoint, sensitivity)
        with tracing.span("workload.matrix_build", exact=structural is None):
            if structural is None:
                assert schema is not None
                matrix = WorkloadMatrix.from_domain_analysis(self, schema)
            else:
                matrix = WorkloadMatrix.from_structure(self.size, structural[2])
        _MATRIX_TIER_STATS["built"].inc()
        tracing.annotate("matrix_tier", "built")
        if key is not None:
            _MATRIX_CACHE.put(key, matrix)
        return matrix

    def _structural_key(
        self, schema: Schema | None, disjoint: bool | None, sensitivity: float | None
    ) -> tuple | None:
        """``("structural", L, sensitivity)`` when :meth:`analyze` builds the
        structural matrix (the override, 1 when disjoint, else ``L``), or
        ``None`` when it runs the exact domain analysis."""
        if sensitivity is None:
            if disjoint is None and schema is not None and self.supports_domain_analysis:
                return None
            sensitivity = 1.0 if disjoint else self.size
        return ("structural", self.size, float(sensitivity))

    def _analysis_key(
        self,
        schema: Schema | None,
        disjoint: bool | None,
        sensitivity: float | None,
    ) -> tuple | None:
        """Hashable memo key for :meth:`analyze`; ``None`` disables caching.

        Everything an analysis reads, so every key is a value token and
        workloads of equal value share one matrix object.  An exact matrix
        reads the predicates and the schema (by identity, so
        equal-but-distinct schemas never share), never the names: its key is
        :func:`_structural_token`.  A structural matrix reads only ``L`` and
        the effective sensitivity, so its key is
        ``("structural", L, sensitivity)``.  The key is computed without
        building or probing anything; it is the built matrix's
        :attr:`~WorkloadMatrix.cache_token` and the value part of
        :meth:`~repro.queries.query.Query.translation_key`.
        """
        if self._structure_key is None:
            return None
        structural = self._structural_key(schema, disjoint, sensitivity)
        return structural or _structural_token(self, schema)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Workload(size={self.size})"


@dataclass(frozen=True)
class DomainPartition:
    """One partition of ``dom_W(R)``: a predicate signature plus a description."""

    signature: tuple[bool, ...]
    description: str = ""

    @property
    def weight(self) -> int:
        """Number of workload predicates covering this partition."""
        return int(sum(self.signature))


class WorkloadMatrix:
    """The matrix form ``W`` of a workload together with its partitioning.

    Attributes
    ----------
    matrix:
        ``L x P`` 0/1 matrix; row ``i`` marks the partitions whose tuples
        satisfy predicate ``phi_i``.
    partitions:
        The ``P`` domain partitions (signatures).
    sensitivity:
        ``||W||_1``, the maximum column L1 norm (monotonically, the largest
        number of predicates any single tuple can satisfy).
    """

    def __init__(
        self,
        workload: Workload | None,
        matrix: np.ndarray,
        partitions: Sequence[DomainPartition],
        *,
        exact: bool,
    ) -> None:
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2:
            raise QueryError("workload matrix must be two-dimensional")
        if workload is not None and matrix.shape[0] != workload.size:
            raise QueryError(
                f"matrix has {matrix.shape[0]} rows, workload has {workload.size} "
                "predicates"
            )
        if matrix.shape[1] != len(partitions):
            raise QueryError(
                f"matrix has {matrix.shape[1]} columns, {len(partitions)} partitions "
                "were provided"
            )
        #: Exact matrices only: the workload whose predicates code the rows.
        self._workload = workload
        self._matrix = matrix
        self._partitions = tuple(partitions)
        self._exact = exact
        #: ``(weakref(snapshot), version, histogram, answers or None,
        #: n_shards, weakref(last shard))`` of the last snapshot read; the
        #: last two let the next read add only the shards after them.
        self._data_cache: (
            tuple[
                weakref.ref[Table],
                TableVersion,
                np.ndarray,
                np.ndarray | None,
                int,
                weakref.ref[Shard],
            ]
            | None
        ) = None
        self._partition_keys: tuple[np.ndarray, np.ndarray] | None = None
        # Exact matrices only: the schema the atoms derive from, the
        # analysis's (atoms, leaf vectors), and the per-attribute row coders
        # built from them on the first histogram.
        self._schema: Schema | None = None
        self._domain: (
            tuple[dict[str, list[CellValue]], dict[int, np.ndarray]] | None
        ) = None
        self._coders: list[tuple[_RowCoder, _ShardCounter | None]] | None = None
        #: Exact matrices only: each shard's histogram as its occupied
        #: ``(partition ids, counts)``, at most ``min(P, rows)`` of each per
        #: shard.  Weak keys: an entry dies with its shard.  ``_shard_lock``
        #: guards every access and is a leaf (nothing is computed under it).
        self._shard_histograms: (
            "weakref.WeakKeyDictionary[Shard, tuple[np.ndarray, np.ndarray]]"
        ) = weakref.WeakKeyDictionary()
        self._shard_lock = threading.Lock()
        self._cache_token: object = ("id", _IdKey(self))
        if matrix.size:
            self._sensitivity = float(np.abs(matrix).sum(axis=0).max())
        else:
            self._sensitivity = 0.0

    # -- constructors -----------------------------------------------------------

    @classmethod
    def from_domain_analysis(
        cls,
        workload: Workload,
        schema: Schema,
    ) -> "WorkloadMatrix":
        """Exact, data-independent matrix via vectorized domain-cell enumeration.

        Each atomic condition's leaf vector is one array comparison over its
        attribute's atom arrays (interval representatives, category codes,
        NULL flags), then the predicate ASTs are combined over the cell
        cross-product by indexing those per-attribute vectors with broadcast
        cell coordinates;
        signatures are deduplicated chunk by chunk with bit packing and
        ``np.unique``.  Semantics (including which cell describes each
        partition: the first one in cross-product order) match the original
        per-cell enumeration.

        The matrix's :attr:`cache_token` names its values by the predicates
        and the schema object, so every consumer keyed by it (the
        translation memo, the WCQ-SM search and strategy memos) serves every
        version of every table with that schema.  :meth:`Workload.analyze` memoises it under
        the same value, so workloads that differ only in names share it.
        """
        if not workload.supports_domain_analysis:
            raise QueryError(
                "workload contains opaque predicates; use structural analysis"
            )
        atoms = _attribute_atoms(workload, schema)
        n_cells = math.prod(len(v) for v in atoms.values()) if atoms else 1
        if n_cells > MAX_DOMAIN_CELLS:
            raise QueryError(
                f"domain analysis would enumerate {n_cells} cells "
                f"(limit {MAX_DOMAIN_CELLS}); use structural analysis instead"
            )
        leaf_vectors = _leaf_vectors(workload, atoms)
        partitions = _enumerate_partitions(workload, atoms, leaf_vectors)
        matrix = _signatures_to_matrix(workload.size, partitions)
        instance = cls(workload, matrix, partitions, exact=True)
        instance._schema = schema
        instance._domain = (atoms, leaf_vectors)
        token = _structural_token(workload, schema)
        if token is not None:
            instance._cache_token = token
        return instance

    @classmethod
    def from_structure(cls, size: int, sensitivity: float) -> "WorkloadMatrix":
        """The ``size x size`` identity with a declared sensitivity.

        Its value is fixed by ``(size, sensitivity)``, so it holds no
        workload: :meth:`Workload.analyze` shares one object among every
        workload of that size and effective sensitivity, and the matrix
        counts no rows (a release counts a structural workload's predicates
        with :meth:`Workload.true_answers`).
        """
        if sensitivity <= 0:
            raise QueryError("an explicit sensitivity must be positive")
        partitions = [
            DomainPartition(signature=tuple(i == j for j in range(size)))
            for i in range(size)
        ]
        instance = cls(None, np.eye(size), partitions, exact=False)
        instance._sensitivity = float(sensitivity)
        instance._cache_token = ("structural", size, instance._sensitivity)
        return instance

    # -- accessors -------------------------------------------------------------

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def partitions(self) -> tuple[DomainPartition, ...]:
        return self._partitions

    @property
    def n_partitions(self) -> int:
        return len(self._partitions)

    @property
    def sensitivity(self) -> float:
        """The L1 sensitivity ``||W||_1`` of the workload."""
        return self._sensitivity

    @property
    def exact(self) -> bool:
        """True when the matrix came from exact domain analysis."""
        return self._exact

    @property
    def cache_token(self) -> object:
        """Hashable token identifying this matrix's *values*.

        Two matrices with equal tokens have identical ``matrix`` contents and
        sensitivity, so derived artifacts (strategy translations, Monte-Carlo
        epsilon searches) can be shared between them.  Falls back to an
        identity token when the workload structure is not hashable.
        """
        return self._cache_token

    @property
    def shape(self) -> tuple[int, int]:
        return self._matrix.shape  # type: ignore[return-value]

    # -- data-facing operations --------------------------------------------------

    def partition_histogram(self, table: Table) -> np.ndarray:
        """The histogram ``x`` of ``table`` over the workload partitions.

        Each row is assigned to the partition matching its predicate
        signature; rows satisfying no predicate fall outside ``dom_W(R)`` and
        are ignored (they contribute to no count).

        An exact matrix never evaluates a predicate over the rows, and reads
        each table shard at most once in the shard's lifetime.  The
        histogram of a snapshot is the sum of its shards' histograms, which
        are kept as occupied ``(partition id, count)`` pairs in a
        ``WeakKeyDictionary`` keyed by the immutable shard (an entry dies
        with its shard); one ``np.bincount`` adds them up.  A table's shard
        list only grows at its end, so when a snapshot holds the last read's
        last shard at the same position, its first shards are the ones that
        read summed: the sum starts from that histogram and adds only the
        shards after them.  An append of k rows therefore reads k rows and
        sums one shard, whatever the table's history.  Counts stay integers
        below ``2**53``, so either sum is exact and bit-identical to the
        other.  Any other snapshot -- an older one, one after a refresh, one
        of another table with the schema -- sums all its shards' entries.

        A missing entry starts from the count of each domain cell in that
        shard alone; :data:`MAX_DOMAIN_CELLS` bounds that ``n_cells + 1``
        counter array (the last slot counts rows in no atom).  When the
        workload references one attribute, the counts take no pass over the
        rows: a numeric shard's atom endpoints are searched, left and right,
        in its sorted values (:meth:`Table.shard_sorted_values
        <repro.data.table.Table.shard_sorted_values>`, made once per shard),
        the differences being the open- and point-atom counts and the NaN
        tail the NULL count; a categorical shard's codes are counted once
        and mapped through the dictionary-code -> atom lookup.  Otherwise,
        or when such counts find rows in no atom, the row pass codes the
        shard: each referenced attribute maps every row to an atom, through
        the same lookup for categorical values and one ``np.searchsorted``
        over the atom endpoints for numbers (a value equal to a cut is its
        point atom, any other value the open atom around it), NULL (code -1,
        NaN) to the NULL atom; the atoms' offsets (atom index times
        row-major stride) sum to one flat cell index per row, and
        ``np.bincount`` counts the cells.  Only the occupied cells get a
        signature, from the analysis's per-atom leaf vectors.  Rows that map
        to no atom -- a value outside the declared domain, a NULL where no
        NULL atom exists, a categorical value that is no atom -- take their
        signatures from the predicate masks of a table of just those rows of
        the shard.  Signatures are packed little-endian into
        ``ceil(L / 64)`` ``uint64`` words and found among the ``P``
        partition codes (the columns of :attr:`matrix`, packed and sorted
        once per matrix) by binary search.  A non-zero signature matching
        no partition means values outside the declared domains:
        :class:`QueryError`, and the shard's entry is not kept.  A
        structural matrix is shared by every workload of its size and
        sensitivity, so it has no rows to count: :class:`QueryError`.

        Evaluation pins the table's snapshot up front, so the histogram
        always describes exactly one version even under concurrent appends,
        and caching is unconditional.  Besides the per-shard entries, the
        summed histogram is cached per (snapshot, version token), held
        through a weak reference: snapshots are memoised per version, so
        repeated reads at one version hit; identity can never alias a
        recycled ``id()``; the version token makes a histogram computed
        before ``append_rows`` unservable afterwards; and a matrix parked in
        the module-level memo does not pin a discarded table (and its mask
        cache) in memory.  The matrix itself serves every version, so this
        one entry is all it keeps of any table's data besides the per-shard
        histograms.
        """
        if not self._exact:
            raise QueryError(
                "a structural matrix counts no rows; count the workload with "
                "Workload.true_answers"
            )
        table = table.snapshot()
        cached = self._cached(table)
        if cached is not None:
            return cached[2]
        histogram = self._atom_histogram(table)
        # The snapshot's version never advances, so the histogram is a pure
        # function of (snapshot, version) and admission is unconditional.
        self._data_cache = _data_entry(table, histogram, None)
        return histogram

    def true_answers(self, table: Table) -> np.ndarray:
        """True per-predicate counts ``W @ x``, cached beside the histogram.

        The counts are integers below ``2**53``, so the float64 product is
        exact: it equals counting each predicate's rows.  Exact matrices
        only, like :meth:`partition_histogram`.
        """
        table = table.snapshot()
        cached = self._cached(table)
        if cached is not None and cached[3] is not None:
            return cached[3]
        histogram = self.partition_histogram(table)
        answers = self._matrix @ histogram
        self._data_cache = _data_entry(table, histogram, answers)
        return answers

    def _cached(self, snapshot: Table) -> tuple | None:
        """The data-cache entry for ``snapshot`` at its version, if any."""
        cached = self._data_cache
        if (
            cached is not None
            and cached[0]() is snapshot
            and cached[1] == snapshot.version_token
        ):
            return cached
        return None

    def _atom_histogram(self, table: Table) -> np.ndarray:
        """The exact histogram: the sum of the snapshot's shard histograms,
        continued from the last read when that read summed a prefix of them
        (see :meth:`partition_histogram`)."""
        shards = table.shards
        start, base = 0, None
        cached = self._data_cache
        if cached is not None:
            n, last = cached[4], cached[5]
            if len(shards) >= n and shards[n - 1] is last():
                start, base = n, cached[2]
        if start == len(shards):
            return base
        entries = [self._shard_histogram(table, shard) for shard in shards[start:]]
        added = np.bincount(
            np.concatenate([ids for ids, _ in entries]),
            weights=np.concatenate([counts for _, counts in entries]),
            minlength=self.n_partitions,
        )
        return added if base is None else base + added

    def _shard_histogram(
        self, table: Table, shard: Shard
    ) -> tuple[np.ndarray, np.ndarray]:
        """One shard's ``(partition ids, counts)``, computed once per shard."""
        with self._shard_lock:
            entry = self._shard_histograms.get(shard)
        if entry is not None:
            return entry
        # Computed outside the lock: two readers racing on a new shard may
        # both code it, and both results are equal.
        entry = self._code_shard(table, shard)
        _MATRIX_TIER_STATS["histogram_shards"].inc()
        _MATRIX_TIER_STATS["histogram_rows"].inc(shard.n_rows)
        with self._shard_lock:
            return self._shard_histograms.setdefault(shard, entry)

    def _code_shard(self, table: Table, shard: Shard) -> tuple[np.ndarray, np.ndarray]:
        """One shard's occupied partitions (see ``partition_histogram``)."""
        schema, workload = self._schema, self._workload
        # from_domain_analysis sets all three on every exact matrix.
        assert schema is not None and workload is not None and self._domain is not None
        atoms, leaf_vectors = self._domain
        names = list(atoms)
        sizes = [len(atoms[name]) for name in names]
        strides = _strides(sizes)
        n_cells = math.prod(sizes)
        if self._coders is None:
            self._coders = [
                _atom_coder(workload, schema, name, atoms[name], stride, n_cells)
                for name, stride in zip(names, strides)
            ]
        # Per-cell counts; index n_cells stands for "no atom".  One attribute
        # is counted without a row pass; rows with no atom need the rows.
        counts = None
        if len(self._coders) == 1 and self._coders[0][1] is not None:
            counts = self._coders[0][1](table, shard)
        if counts is None or counts[n_cells]:
            flat = np.zeros(shard.n_rows, dtype=np.int64)
            for coded, _ in self._coders:
                flat += coded(table, shard)
            np.minimum(flat, n_cells, out=flat)
            counts = np.bincount(flat, minlength=n_cells + 1)
        occupied = np.flatnonzero(counts[:n_cells])
        coordinates = {
            name: occupied // strides[j] % sizes[j] for j, name in enumerate(names)
        }
        signatures = np.stack(
            [
                _evaluate_over_cells(
                    pred, coordinates, leaf_vectors, atoms, names, len(occupied)
                )
                for pred in workload.predicates
            ],
            axis=1,
        )
        weights = counts[occupied]
        if counts[n_cells]:
            rows = np.flatnonzero(flat == n_cells)
            signatures = np.concatenate(
                [signatures, workload.evaluate(table.shard_rows(shard, rows))]
            )
            weights = np.concatenate([weights, np.ones(len(rows), dtype=weights.dtype)])
        histogram = self._count_signatures(signatures, weights)
        ids = np.flatnonzero(histogram)
        return ids, histogram[ids]

    def _count_signatures(self, signatures: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Sum ``weights`` per partition by each signature row's packed code."""
        if self._partition_keys is None:
            keys = _signature_keys(_pack_signatures(self._matrix.T != 0))
            order = np.argsort(keys)
            self._partition_keys = (keys[order], order)
        sorted_keys, partition_of = self._partition_keys
        nonzero = signatures.any(axis=1)
        signatures, weights = signatures[nonzero], weights[nonzero]
        keys = _signature_keys(_pack_signatures(signatures))
        slots = np.searchsorted(sorted_keys, keys)
        matched = slots < len(sorted_keys)
        matched[matched] = sorted_keys[slots[matched]] == keys[matched]
        if not matched.all():
            signature = tuple(bool(v) for v in signatures[np.argmin(matched)])
            raise QueryError(
                "a row matched a predicate signature that the exact domain "
                "analysis did not enumerate; the table contains values outside "
                f"the declared attribute domains: signature={signature}"
            )
        return np.bincount(
            partition_of[slots], weights=weights, minlength=self.n_partitions
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WorkloadMatrix(L={self.shape[0]}, partitions={self.shape[1]}, "
            f"sensitivity={self.sensitivity}, exact={self._exact})"
        )


# ---------------------------------------------------------------------------
# Exact domain analysis helpers
# ---------------------------------------------------------------------------


def _data_entry(
    snapshot: Table, histogram: np.ndarray, answers: np.ndarray | None
) -> tuple:
    """A :attr:`WorkloadMatrix._data_cache` entry for ``snapshot``."""
    shards = snapshot.shards
    return (
        weakref.ref(snapshot),
        snapshot.version_token,
        histogram,
        answers,
        len(shards),
        weakref.ref(shards[-1]),
    )


def _structural_token(workload: Workload, schema: Schema) -> tuple | None:
    """Hashable ``("exact", predicates, schema)`` token shared by equal exact
    analyses.

    Names do not change the matrix, so the token keys on the predicates
    alone.  It is the exact matrix's memo key and its
    :attr:`WorkloadMatrix.cache_token`.  The predicates are hashed once per
    workload, on its first probe: racing first probes build equal keys.
    """
    if workload.structure_key is None:
        return None
    key = workload._predicates_key
    if key is None:
        key = workload._predicates_key = _StructureKey(workload.predicates)
    return ("exact", key, _IdKey(schema))


def _enumerate_partitions(
    workload: Workload,
    atoms: "dict[str, list[CellValue]]",
    leaf_vectors: Mapping[int, np.ndarray],
) -> list[DomainPartition]:
    """Vectorized signature enumeration over the atom cross-product.

    Streams the cross-product in ascending chunks (bounded by
    :data:`_CELL_BUDGET` booleans at a time), evaluates every predicate over
    each chunk by fancy indexing per-leaf atom vectors, bit-packs the
    resulting signature rows and deduplicates them with ``np.unique``.  The
    first chunk to produce a signature keeps it, so partition descriptions
    come from the first cell (in cross-product order) carrying each
    signature, matching the original ``itertools.product`` enumeration.
    """
    attr_names = list(atoms)
    if not attr_names:
        cell: dict[str, CellValue] = {}
        signature = tuple(
            bool(pred.evaluate_cell(cell)) for pred in workload.predicates
        )
        if not any(signature):
            return []
        return [DomainPartition(signature=signature, description=_describe_cell(cell))]

    sizes = [len(atoms[name]) for name in attr_names]
    n_cells = math.prod(sizes)
    strides = _strides(sizes)

    chunk_cells = max(_MIN_CHUNK_CELLS, _CELL_BUDGET // max(workload.size, 1))
    # signature bytes -> (signature tuple, first flat cell index)
    found: dict[bytes, tuple[tuple[bool, ...], int]] = {}
    for start in range(0, n_cells, chunk_cells):
        end = min(start + chunk_cells, n_cells)
        flat = np.arange(start, end, dtype=np.int64)
        coordinates = {
            name: (flat // strides[j]) % sizes[j]
            for j, name in enumerate(attr_names)
        }
        columns = [
            _evaluate_over_cells(
                pred, coordinates, leaf_vectors, atoms, attr_names, end - start
            )
            for pred in workload.predicates
        ]
        signatures = np.ascontiguousarray(np.stack(columns, axis=1))
        keep = signatures.any(axis=1)
        if not keep.any():
            continue
        signatures = signatures[keep]
        flat = flat[keep]
        packed = np.packbits(signatures, axis=1)
        # np.unique's return_index is the first occurrence, i.e. the minimal
        # flat index within the chunk; chunks run in ascending cell order, so
        # the first chunk to see a signature holds its minimal cell overall.
        _, first_rows = np.unique(packed, axis=0, return_index=True)
        for row in first_rows:
            found.setdefault(
                packed[row].tobytes(),
                (tuple(signatures[row].tolist()), int(flat[row])),
            )

    partitions = []
    for signature, cell_index in found.values():
        cell = {
            name: atoms[name][(cell_index // strides[j]) % sizes[j]]
            for j, name in enumerate(attr_names)
        }
        partitions.append(
            DomainPartition(signature=signature, description=_describe_cell(cell))
        )
    partitions.sort(key=lambda p: p.signature, reverse=True)
    return partitions


def _strides(sizes: Sequence[int]) -> list[int]:
    """Row-major strides: flat cell order equals ``itertools.product`` order
    (the last attribute varies fastest)."""
    strides = [1] * len(sizes)
    for j in range(len(sizes) - 2, -1, -1):
        strides[j] = strides[j + 1] * sizes[j + 1]
    return strides


def _leaf_vectors(
    workload: Workload, atoms: "dict[str, list[CellValue]]"
) -> dict[int, np.ndarray]:
    """Every atomic condition's truth value per atom, keyed by condition id."""
    arrays: dict[str, _AtomArrays] = {}
    out: dict[int, np.ndarray] = {}
    for pred in workload.predicates:
        _collect_leaf_vectors(pred, atoms, arrays, out)
    return out


def _collect_leaf_vectors(
    predicate: Predicate,
    atoms: "dict[str, list[CellValue]]",
    arrays: dict[str, "_AtomArrays"],
    out: dict[int, np.ndarray],
) -> None:
    """Build every atomic condition's leaf vector over its attribute's atom
    arrays, which are built on first use."""
    if isinstance(predicate, (And, Or)):
        for child in predicate.children:
            _collect_leaf_vectors(child, atoms, arrays, out)
    elif isinstance(predicate, Not):
        _collect_leaf_vectors(predicate.child, atoms, arrays, out)
    elif isinstance(predicate, (Comparison, Between, In, IsNull)):
        if id(predicate) in out:
            return
        attribute = predicate.attribute
        if attribute not in arrays:
            arrays[attribute] = _atom_arrays(atoms[attribute])
        out[id(predicate)] = _leaf_vector(predicate, arrays[attribute])
    # Unknown predicate kinds fall back to per-cell evaluation downstream.


class _AtomArrays(NamedTuple):
    """One attribute's atoms as parallel arrays (see :func:`_atom_arrays`)."""

    is_null: np.ndarray
    is_interval: np.ndarray
    #: ``Interval.representative()`` of each interval atom, NaN elsewhere.
    representative: np.ndarray
    #: Each ``str`` atom's code in ``code_of``, -1 elsewhere.
    category: np.ndarray
    #: Empty when the attribute has no category atom.
    code_of: dict[str, int]
    any_interval: bool


def _atom_arrays(atom_list: Sequence[CellValue]) -> _AtomArrays:
    """The atoms of one attribute as arrays, for :func:`_leaf_vector`.

    Category atoms are compared through integer codes (one per distinct
    string), so no numpy string array, with its truncation of trailing NULs,
    is involved.
    """
    n = len(atom_list)
    code_of: dict[str, int] = {}
    is_interval = np.fromiter(
        (isinstance(a, Interval) for a in atom_list), dtype=bool, count=n
    )
    category = np.fromiter(
        (code_of.setdefault(a, len(code_of)) if isinstance(a, str) else -1 for a in atom_list),
        dtype=np.int64,
        count=n,
    )
    return _AtomArrays(
        is_null=np.fromiter((a is None for a in atom_list), dtype=bool, count=n),
        is_interval=is_interval,
        representative=np.fromiter(
            (a.representative() if isinstance(a, Interval) else math.nan for a in atom_list),
            dtype=float,
            count=n,
        ),
        category=category,
        code_of=code_of,
        any_interval=bool(is_interval.any()),
    )


def _leaf_vector(
    leaf: "Comparison | Between | In | IsNull", atoms: _AtomArrays
) -> np.ndarray:
    """``leaf.evaluate_cell`` over every atom, as one array expression.

    A condition is constant over each atom (atoms are cut at every workload
    constant), so an interval atom is decided by its representative, as
    ``evaluate_cell`` decides it.  NULL atoms satisfy only ``IS NULL``.  The
    errors ``evaluate_cell`` raises on a category atom are raised here too.
    """
    if isinstance(leaf, IsNull):
        return ~atoms.is_null if leaf.negated else atoms.is_null.copy()
    if isinstance(leaf, In):
        allowed = [atoms.code_of[v] for v in leaf.values if v in atoms.code_of]
        return np.isin(atoms.category, allowed)
    representative = atoms.representative
    if isinstance(leaf, Between):
        if atoms.code_of:
            raise PredicateError(
                f"BETWEEN on attribute {leaf.attribute!r} requires a numeric cell"
            )
        # Interval.contains term by term (a NaN bound excludes nothing).
        outside = (representative < leaf.low) | (representative > leaf.high)
        if not leaf.low_inclusive:
            outside |= representative == leaf.low
        if not leaf.high_inclusive:
            outside |= representative == leaf.high
        return atoms.is_interval & ~outside
    # evaluate_cell converts the constant only on an interval atom, so a
    # categorical attribute never sees float('<category>') raise.
    if atoms.any_interval:
        target = float(leaf.value)  # type: ignore[arg-type]
        out = atoms.is_interval & _apply_op(representative, leaf.op, target)
    else:
        out = np.zeros(len(representative), dtype=bool)
    if atoms.code_of:
        code = atoms.code_of.get(str(leaf.value), -2)
        if leaf.op == "==":
            out |= atoms.category == code
        elif leaf.op == "!=":
            out |= (atoms.category >= 0) & (atoms.category != code)
        else:
            raise PredicateError(
                f"operator {leaf.op!r} cannot be evaluated on categorical cell value"
            )
    return out


#: ``(table, shard) -> int64`` cell offset of every row of the shard.
_RowCoder = Callable[[Table, Shard], np.ndarray]
#: ``(table, shard) -> float64`` count of each cell in the shard, with the
#: rows in no atom counted last (at index ``n_cells``).
_ShardCounter = Callable[[Table, Shard], np.ndarray]


def _atom_coder(
    workload: Workload,
    schema: Schema,
    name: str,
    atom_list: Sequence[CellValue],
    stride: int,
    n_cells: int,
) -> tuple[_RowCoder, _ShardCounter | None]:
    """The row coder and, where one exists, the shard counter of ``name``.

    The row coder maps every ``name`` value in one shard of ``table`` to its
    ``int64`` cell offset (atom index times ``stride``), with ``n_cells``
    for a value that is no atom.  Categorical rows go through a lookup over
    the shard's dictionary codes, numeric rows through one
    ``np.searchsorted`` over the atom endpoints, and text rows to the
    attribute's one non-NULL atom -- but only when the workload tests the
    attribute for NULL alone, since row evaluation of any other condition
    on text differs from its evaluation on that atom.  NULL goes to the
    NULL atom if there is one.

    The shard counter, used when ``name`` is the only attribute (so the
    offset is the cell), returns the ``n_cells + 1`` cell counts the row
    coder's offsets would ``bincount`` to, without a per-row pass: the
    numeric endpoints are searched in the shard's sorted values, and the
    categorical codes are counted once and mapped through the lookup.
    Text has no counter.
    """
    kind = schema[name].kind
    null = next((i * stride for i, a in enumerate(atom_list) if a is None), n_cells)

    if kind is AttributeKind.CATEGORICAL:
        values = {a: i * stride for i, a in enumerate(atom_list) if a is not None}

        def lookup_of(table: Table, shard: Shard) -> tuple[np.ndarray, np.ndarray]:
            """The shard's codes plus one, and the offset of each: NULL
            (code -1) first, then every code interned so far."""
            codes, index = table.shard_category_codes(shard, name)
            # The dictionary is shared and append-only, so it may grow while
            # this reads it.  Every code in ``codes`` was interned before
            # ``size`` is read; a value interned since is no row here.
            size = len(index)
            lookup = np.full(size + 1, n_cells, dtype=np.int64)
            lookup[0] = null
            for value, offset in values.items():
                code = index.get(value, size)  # type: ignore[arg-type]
                if code < size:
                    lookup[code + 1] = offset
            return codes + 1, lookup

        def coded(table: Table, shard: Shard) -> np.ndarray:
            codes, lookup = lookup_of(table, shard)
            return lookup[codes]

        def counted(table: Table, shard: Shard) -> np.ndarray:
            codes, lookup = lookup_of(table, shard)
            per_code = np.bincount(codes, minlength=len(lookup))
            return np.bincount(lookup, weights=per_code, minlength=n_cells + 1)

        return coded, counted

    elif kind is AttributeKind.NUMERIC:
        # Slot 2j is the open gap (edges[j - 1], edges[j]) and slot 2j + 1
        # the point edges[j].  The atoms partition the line, so an open
        # atom's endpoints are adjacent edges.  +inf is always an edge, so
        # only NaN searches past the last one, into the final (NULL) slot.
        edges = sorted(
            {x for a in atom_list if isinstance(a, Interval) for x in (a.low, a.high)}
            | {math.inf}
        )
        position = {x: j for j, x in enumerate(edges)}
        slots = np.full(2 * len(edges) + 1, n_cells, dtype=np.int64)
        slots[-1] = null
        for i, atom in enumerate(atom_list):
            if not isinstance(atom, Interval):
                continue
            if atom.is_point:
                slots[2 * position[atom.low] + 1] = i * stride
            elif not (atom.low_inclusive or atom.high_inclusive):
                slots[2 * position[atom.high]] = i * stride
        edge_array = np.array(edges)
        edge_or_nan = np.append(edge_array, np.nan)

        def coded(table: Table, shard: Shard) -> np.ndarray:
            values = np.asarray(shard.columns[name], dtype=float)
            slot = np.searchsorted(edge_array, values)
            return slots[2 * slot + (edge_or_nan[slot] == values)]

        def counted(table: Table, shard: Shard) -> np.ndarray:
            values = table.shard_sorted_values(shard, name)
            valid = int(np.searchsorted(values, np.nan))  # NaN sorts last
            left = np.searchsorted(values[:valid], edge_array, "left")
            right = np.searchsorted(values[:valid], edge_array, "right")
            per_slot = np.empty(len(slots), dtype=np.int64)
            per_slot[0:-1:2] = left - np.append(0, right[:-1])  # open gaps
            per_slot[1::2] = right - left  # points
            per_slot[-1] = len(values) - valid  # NaN
            return np.bincount(slots, weights=per_slot, minlength=n_cells + 1)

        return coded, counted

    else:
        null_only = all(
            isinstance(cond, IsNull)
            for pred in workload.predicates
            for cond in pred.atomic_comparisons()
            if name in cond.attributes()
        )
        present = 0 if null_only else n_cells  # the non-NULL atom is atom 0

        def coded(table: Table, shard: Shard) -> np.ndarray:
            col = shard.columns[name]
            is_null = np.fromiter((v is None for v in col), dtype=bool, count=len(col))
            return np.where(is_null, null, present)

        return coded, None


def _evaluate_over_cells(
    predicate: Predicate,
    coordinates: Mapping[str, np.ndarray],
    leaf_vectors: Mapping[int, np.ndarray],
    atoms: "dict[str, list[CellValue]]",
    attr_names: Sequence[str],
    n: int,
) -> np.ndarray:
    """Boolean vector of ``predicate`` over one chunk of domain cells."""
    if isinstance(predicate, And):
        mask = _evaluate_over_cells(
            predicate.children[0], coordinates, leaf_vectors, atoms, attr_names, n
        )
        for child in predicate.children[1:]:
            mask = mask & _evaluate_over_cells(
                child, coordinates, leaf_vectors, atoms, attr_names, n
            )
        return mask
    if isinstance(predicate, Or):
        mask = _evaluate_over_cells(
            predicate.children[0], coordinates, leaf_vectors, atoms, attr_names, n
        )
        for child in predicate.children[1:]:
            mask = mask | _evaluate_over_cells(
                child, coordinates, leaf_vectors, atoms, attr_names, n
            )
        return mask
    if isinstance(predicate, Not):
        return ~_evaluate_over_cells(
            predicate.child, coordinates, leaf_vectors, atoms, attr_names, n
        )
    if isinstance(predicate, TruePredicate):
        return np.ones(n, dtype=bool)
    if isinstance(predicate, FalsePredicate):
        return np.zeros(n, dtype=bool)
    vector = leaf_vectors.get(id(predicate))
    if vector is not None:
        attribute = next(iter(predicate.attributes()))
        return vector[coordinates[attribute]]
    # Exotic Predicate subclass: evaluate cell by cell (correct but slow).
    out = np.empty(n, dtype=bool)
    for i in range(n):
        cell = {
            name: atoms[name][int(coordinates[name][i])] for name in attr_names
        }
        out[i] = bool(predicate.evaluate_cell(cell))
    return out


def _attribute_atoms(
    workload: Workload, schema: Schema
) -> dict[str, list[CellValue]]:
    """Elementary per-attribute cell values induced by the workload.

    Categorical attributes contribute one atom per domain value (plus NULL if
    referenced by an ``IS NULL`` condition); numeric attributes are cut at
    every constant appearing in a comparison, yielding elementary intervals.
    Attributes never mentioned by the workload are omitted entirely -- they
    cannot influence any predicate signature.
    """
    referenced = workload.attributes()
    atoms: dict[str, list[CellValue]] = {}
    for name in sorted(referenced):
        attribute = schema[name]
        conditions = [
            cond
            for pred in workload.predicates
            for cond in pred.atomic_comparisons()
            if name in cond.attributes()
        ]
        needs_null = attribute.nullable or any(
            isinstance(c, IsNull) for c in conditions
        )
        if attribute.kind is AttributeKind.CATEGORICAL:
            values: list[CellValue] = list(attribute.domain.values)  # type: ignore[union-attr]
            # Constants referenced by the workload but absent from the domain
            # still form valid (empty-on-any-data) cells; include them so the
            # signature space is complete.
            for cond in conditions:
                if isinstance(cond, Comparison) and not cond.is_numeric:
                    if str(cond.value) not in values:
                        values.append(str(cond.value))
                elif isinstance(cond, In):
                    for v in cond.values:
                        if v not in values:
                            values.append(v)
        elif attribute.kind is AttributeKind.NUMERIC:
            values = _numeric_atoms(name, conditions, attribute)
        else:
            # Text attributes only appear through IS NULL conditions in the
            # structured benchmarks; represent them by a single non-null atom.
            values = [Interval(-math.inf, math.inf)]
        if needs_null:
            values = list(values) + [None]
        atoms[name] = values
    return atoms


def _numeric_atoms(
    name: str, conditions: Sequence[Predicate], attribute
) -> list[CellValue]:
    """Cut the numeric line at every constant referenced for this attribute."""
    cuts: set[float] = set()
    domain = attribute.domain
    low = getattr(domain, "low", -math.inf)
    high = getattr(domain, "high", math.inf)
    for cond in conditions:
        if isinstance(cond, Comparison):
            # The conversion row evaluation applies, so a quoted constant
            # cuts where it compares (and an unparsable one raises the same
            # ValueError).
            cuts.add(float(cond.value))  # type: ignore[arg-type]
        elif isinstance(cond, Between):
            cuts.add(float(cond.low))
            cuts.add(float(cond.high))
    cuts = {c for c in cuts if math.isfinite(c) and low <= c <= high}
    sorted_cuts = sorted(cuts)
    atoms: list[CellValue] = []
    edges = [low] + sorted_cuts + [high]
    for left, right in zip(edges[:-1], edges[1:]):
        if left < right:
            atoms.append(Interval(left, right, low_inclusive=False, high_inclusive=False))
    for cut in sorted_cuts:
        atoms.append(Interval(cut, cut, low_inclusive=True, high_inclusive=True))
    if math.isfinite(low):
        atoms.append(Interval(low, low, low_inclusive=True, high_inclusive=True))
    if math.isfinite(high):
        atoms.append(Interval(high, high, low_inclusive=True, high_inclusive=True))
    if not atoms:
        atoms.append(Interval(low, high, low_inclusive=True, high_inclusive=True))
    # Deduplicate point atoms that may coincide with the domain bounds.
    unique: list[CellValue] = []
    seen: set[tuple[float, float]] = set()
    for atom in atoms:
        assert isinstance(atom, Interval)
        key = (atom.low, atom.high)
        if key not in seen:
            seen.add(key)
            unique.append(atom)
    return unique


def _describe_cell(cell: Mapping[str, CellValue]) -> str:
    parts = []
    for name, value in cell.items():
        if value is None:
            parts.append(f"{name} IS NULL")
        elif isinstance(value, Interval):
            parts.append(f"{name} in {value!r}")
        else:
            parts.append(f"{name} = {value!r}")
    return " AND ".join(parts)


def _pack_signatures(signatures: np.ndarray) -> np.ndarray:
    """Pack the rows of an ``(n, L)`` bool array into ``(n, ceil(L / 64))``
    little-endian ``uint64`` words; bit ``i`` of a row's code is column ``i``."""
    packed = np.packbits(signatures, axis=1, bitorder="little")
    n_words = -(-signatures.shape[1] // 64)
    padded = np.zeros((signatures.shape[0], 8 * n_words), dtype=np.uint8)
    padded[:, : packed.shape[1]] = packed
    return padded.view("<u8")


def _signature_keys(codes: np.ndarray) -> np.ndarray:
    """One sortable, searchable key per row of packed codes.

    A single word is its own key; several words are viewed as one raw-bytes
    ``void`` scalar, which numpy orders and compares bytewise.
    """
    if codes.shape[1] == 1:
        return codes[:, 0]
    row = np.dtype((np.void, codes.itemsize * codes.shape[1]))
    return np.ascontiguousarray(codes).view(row)[:, 0]


def _signatures_to_matrix(
    n_predicates: int, partitions: Iterable[DomainPartition]
) -> np.ndarray:
    partitions = list(partitions)
    if not partitions:
        return np.zeros((n_predicates, 0), dtype=float)
    signatures = np.array([p.signature for p in partitions], dtype=float)
    return np.ascontiguousarray(signatures.T)
