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

  The enumeration is fully vectorized: each atomic condition is evaluated once
  per atom of its attribute (a tiny boolean vector), the predicate AST is then
  combined over chunks of the cell cross-product by numpy broadcasting /
  fancy indexing, and partitions are deduplicated with ``np.unique`` over
  bit-packed signature rows.  No per-cell Python loop remains, which is what
  allows :data:`MAX_DOMAIN_CELLS` to sit in the millions.
* **structural analysis** -- fallback for workloads containing opaque
  predicates (e.g. string-similarity predicates in the entity-resolution case
  study).  The matrix is the identity over predicates and the sensitivity is
  either declared by the caller (``disjoint=True`` => 1) or conservatively set
  to ``L``.

Because the exploration strategies (and the APEx relaxation loops in
particular) re-ask structurally identical workloads many times,
:meth:`Workload.analyze` memoises matrices in a module-level LRU keyed by the
workload structure (predicates + names + schema identity + overrides + table
version token); see :func:`matrix_cache_stats`.  The version token is what
keeps the memo honest under table growth: an ``append_rows`` advances the
token, so the next analysis for that table misses instead of resurrecting a
matrix derived for the previous state.

The memo is **three-tiered** when the caller passes a
:class:`~repro.data.table.DomainStamp` (what every engine entry point does)
instead of a bare token: a miss on the exact (version-scoped) key falls
through to a *revalidation* tier keyed by the stamp's domain fingerprints --
exact domain analysis is a pure function of the workload structure and the
referenced attribute domains, so a mutation that provably preserved those
domains re-tags the existing matrix for the new version instead of
re-enumerating millions of cells -- and then to the stamp's optional
:class:`~repro.store.ArtifactStore`, so a fresh process warm-starts from a
previous run's disk cache.  ``matrix_cache_stats()`` reports
``built``/``revalidated``/``disk_hits`` alongside the LRU counters; the
full contract lives in ``docs/store.md``.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.core.exceptions import PredicateError, QueryError
from repro.core.lru import LRUCache
from repro.data.schema import AttributeKind, Schema
from repro.data.table import DomainStamp, Table, TableVersion
from repro.obs import Counter, tracing
from repro.store.fingerprint import stable_digest
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
#: vectorized enumeration streams the cross product in bounded chunks, so the
#: cap is a compute guard, not a memory guard.
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


#: Process-wide LRU of :class:`WorkloadMatrix` keyed by workload structure
#: plus the exact table version (or stamp) the analysis was requested for.
_MATRIX_CACHE: "LRUCache[WorkloadMatrix]" = LRUCache(128)

#: Revalidation tier: the same matrices keyed by workload structure plus the
#: *domain fingerprints* only -- version-free, so a domain-preserving
#: mutation finds the existing matrix here and re-tags it for its new
#: version instead of rebuilding.
_MATRIX_DOMAIN_CACHE: "LRUCache[WorkloadMatrix]" = LRUCache(128)

#: Counters of the tiers beneath the exact-key LRU (see matrix_cache_stats).
#: Service threads bump them concurrently, so each is a locked
#: :class:`~repro.obs.Counter` rather than a bare ``int``.
_MATRIX_TIER_STATS = {
    key: Counter() for key in ("built", "revalidated", "disk_hits", "disk_writes")
}


def matrix_cache_stats() -> dict[str, int]:
    """Counters of the workload-matrix memo hierarchy.

    ``hits``/``misses``/``size`` describe the exact (version-scoped) LRU;
    ``revalidated`` counts matrices re-tagged for a new version via the
    domain-fingerprint tier, ``disk_hits``/``disk_writes`` the artifact
    store, and ``built`` the analyses that actually enumerated (the only
    counter that costs real work).
    """
    tiers = {key: int(counter.value()) for key, counter in _MATRIX_TIER_STATS.items()}
    return {**_MATRIX_CACHE.stats(), **tiers}


def clear_matrix_cache() -> None:
    """Drop every memoised workload matrix and reset every counter."""
    _MATRIX_CACHE.clear()
    _MATRIX_DOMAIN_CACHE.clear()
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
        out: frozenset[str] = frozenset()
        for pred in self._predicates:
            out = out | pred.attributes()
        return out

    @property
    def supports_domain_analysis(self) -> bool:
        return all(p.supports_domain_analysis for p in self._predicates)

    # -- evaluation -------------------------------------------------------------

    def evaluate(self, table: Table) -> np.ndarray:
        """Boolean membership matrix of shape ``(n_rows, L)``.

        All predicates evaluate against **one** pinned snapshot of the table
        (taken up front), so the stacked masks always describe a single
        version even while ``append_rows`` runs concurrently.
        """
        table = table.snapshot()
        masks = [pred.evaluate(table) for pred in self._predicates]
        if not masks:
            return np.zeros((len(table), 0), dtype=bool)
        return np.column_stack(masks)

    def true_answers(self, table: Table) -> np.ndarray:
        """True counts ``c_phi_i(D)`` for every predicate, as a float vector."""
        return self.evaluate(table).sum(axis=0).astype(float)

    # -- analysis ---------------------------------------------------------------

    def analyze(
        self,
        schema: Schema | None = None,
        *,
        disjoint: bool | None = None,
        sensitivity: float | None = None,
        version: TableVersion | DomainStamp | None = None,
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
        version:
            The :attr:`~repro.data.table.Table.version_token` of the table
            the analysis is performed for -- or, preferably, a
            :class:`~repro.data.table.DomainStamp` minted by
            :meth:`~repro.data.table.Table.domain_stamp`.  Part of the memo
            key either way: after ``append_rows``/``refresh`` a structurally
            identical analysis misses the exact key.  With a stamp, the miss
            falls through to the revalidation tier (same domain
            fingerprints: re-tag, don't rebuild) and then to the stamp's
            :class:`~repro.store.ArtifactStore` (cross-process warm start)
            before anything is re-enumerated.

        Results are memoised per workload structure: analysing a
        structurally identical workload (equal predicates and names, same
        schema object, same overrides, same table version) returns the
        previously built matrix without re-deriving it.
        """
        key = self._analysis_key(schema, disjoint, sensitivity, version)
        if key is not None:
            cached = _MATRIX_CACHE.get(key)
            if cached is not None:
                tracing.annotate("matrix_tier", "exact")
                return cached
        stamp = version if isinstance(version, DomainStamp) else None
        domain_key = None
        if key is not None and stamp is not None:
            domain_key = self._analysis_key(
                schema, disjoint, sensitivity, stamp.domain_key
            )
            cached = _MATRIX_DOMAIN_CACHE.get(domain_key)
            if cached is not None:
                # Same workload, same referenced domains, different version:
                # the enumeration would reproduce this matrix bit for bit, so
                # re-tag it for the new version instead of rebuilding.
                _MATRIX_TIER_STATS["revalidated"].inc()
                tracing.annotate("matrix_tier", "revalidated")
                _MATRIX_CACHE.put(key, cached)
                return cached
        structural_hint = disjoint is not None or sensitivity is not None
        exact = (
            self.supports_domain_analysis
            and schema is not None
            and not structural_hint
        )
        store = stamp.store if stamp is not None else None
        store_digest = None
        if exact and stamp is not None and store is not None:
            store_digest = self._store_digest(schema, disjoint, sensitivity, stamp)
        if store_digest is not None:
            payload = store.load("matrix", store_digest)  # type: ignore[union-attr]
            matrix = self._matrix_from_payload(payload, schema, version)
            if matrix is not None:
                _MATRIX_TIER_STATS["disk_hits"].inc()
                tracing.annotate("matrix_tier", "disk")
                if key is not None:
                    _MATRIX_CACHE.put(key, matrix)
                if domain_key is not None:
                    _MATRIX_DOMAIN_CACHE.put(domain_key, matrix)
                return matrix
        with tracing.span("workload.matrix_build", exact=exact):
            if exact:
                matrix = WorkloadMatrix.from_domain_analysis(
                    self, schema, version=version
                )
            else:
                matrix = WorkloadMatrix.from_structure(
                    self, disjoint=bool(disjoint), sensitivity=sensitivity
                )
        _MATRIX_TIER_STATS["built"].inc()
        tracing.annotate("matrix_tier", "built")
        if key is not None:
            _MATRIX_CACHE.put(key, matrix)
        if domain_key is not None:
            _MATRIX_DOMAIN_CACHE.put(domain_key, matrix)
        if store_digest is not None and matrix.exact:
            if store.save("matrix", store_digest, _matrix_payload(matrix)):  # type: ignore[union-attr]
                _MATRIX_TIER_STATS["disk_writes"].inc()
        return matrix

    def _store_digest(
        self,
        schema: Schema | None,
        disjoint: bool | None,
        sensitivity: float | None,
        stamp: DomainStamp,
    ) -> str | None:
        """Process-stable disk key of this exact analysis, or ``None``.

        Covers the workload structure, the schema *content* (declared
        domains, not object identity), the analysis overrides and the
        stamp's domain fingerprints -- everything the matrix is a function
        of, and nothing process-local.
        """
        return stable_digest(
            (
                "matrix",
                self._predicates,
                self._names,
                schema,
                disjoint,
                sensitivity,
                stamp.fingerprints,
            )
        )

    def _matrix_from_payload(
        self,
        payload: object,
        schema: Schema | None,
        version: object,
    ) -> "WorkloadMatrix | None":
        """Rebuild a :class:`WorkloadMatrix` from its store payload.

        Any shape/content mismatch (a hash collision would be astronomically
        unlikely, a half-migrated store less so) returns ``None`` so the
        caller rebuilds from scratch.
        """
        if not isinstance(payload, dict):
            return None
        try:
            matrix = np.asarray(payload["matrix"], dtype=float)
            descriptions = list(payload["descriptions"])
            if matrix.ndim != 2 or matrix.shape[0] != self.size:
                return None
            if len(descriptions) != matrix.shape[1]:
                return None
            partitions = [
                DomainPartition(
                    signature=tuple(bool(v) for v in matrix[:, j]),
                    description=str(descriptions[j]),
                )
                for j in range(matrix.shape[1])
            ]
            instance = WorkloadMatrix(self, matrix, partitions, exact=True)
        except (KeyError, TypeError, ValueError, QueryError):
            return None
        token = None if schema is None else _structural_token(self, schema)
        if token is not None:
            instance._cache_token = ("exact",) + token + (version,)
        return instance

    def _analysis_key(
        self,
        schema: Schema | None,
        disjoint: bool | None,
        sensitivity: float | None,
        version: object | None,
    ) -> tuple | None:
        """Hashable memo key for :meth:`analyze`; ``None`` disables caching.

        Structured predicates hash by value; opaque function predicates hash
        by identity, which still caches correctly for re-used predicate
        objects (the entity-resolution strategies intern theirs).
        """
        try:
            hash(self._predicates)
        except TypeError:
            return None
        return (
            self._predicates,
            self._names,
            None if schema is None else _IdKey(schema),
            disjoint,
            sensitivity,
            version,
        )

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
        workload: Workload,
        matrix: np.ndarray,
        partitions: Sequence[DomainPartition],
        *,
        exact: bool,
    ) -> None:
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2:
            raise QueryError("workload matrix must be two-dimensional")
        if matrix.shape[0] != workload.size:
            raise QueryError(
                f"matrix has {matrix.shape[0]} rows, workload has {workload.size} "
                "predicates"
            )
        if matrix.shape[1] != len(partitions):
            raise QueryError(
                f"matrix has {matrix.shape[1]} columns, {len(partitions)} partitions "
                "were provided"
            )
        self._workload = workload
        self._matrix = matrix
        self._partitions = tuple(partitions)
        self._exact = exact
        self._histogram_cache: (
            tuple[weakref.ref[Table], TableVersion, np.ndarray] | None
        ) = None
        self._partition_keys: tuple[np.ndarray, np.ndarray] | None = None
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
        *,
        version: TableVersion | DomainStamp | None = None,
    ) -> "WorkloadMatrix":
        """Exact, data-independent matrix via vectorized domain-cell enumeration.

        Each atomic condition is evaluated once per atom of its attribute,
        then the predicate ASTs are combined over the cell cross-product by
        indexing those per-attribute vectors with broadcast cell coordinates;
        signatures are deduplicated chunk by chunk with bit packing and
        ``np.unique``.  Semantics (including which cell describes each
        partition: the first one in cross-product order) match the original
        per-cell enumeration.

        ``version`` stamps the matrix's :attr:`cache_token` with the table
        state the analysis was requested for, so version-aware consumers
        (the WCQ-SM Monte-Carlo search in particular) never share artifacts
        across table mutations.
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
        partitions = _enumerate_partitions(workload, atoms)
        matrix = _signatures_to_matrix(workload.size, partitions)
        instance = cls(workload, matrix, partitions, exact=True)
        token = _structural_token(workload, schema)
        if token is not None:
            instance._cache_token = ("exact",) + token + (version,)
        return instance

    @classmethod
    def from_structure(
        cls,
        workload: Workload,
        *,
        disjoint: bool = False,
        sensitivity: float | None = None,
    ) -> "WorkloadMatrix":
        """Identity matrix over predicates with a declared/conservative sensitivity."""
        size = workload.size
        partitions = [
            DomainPartition(
                signature=tuple(i == j for j in range(size)),
                description=workload.name_of(i),
            )
            for i in range(size)
        ]
        matrix = np.eye(size)
        instance = cls(workload, matrix, partitions, exact=False)
        if sensitivity is not None:
            if sensitivity <= 0:
                raise QueryError("an explicit sensitivity must be positive")
            instance._sensitivity = float(sensitivity)
        elif disjoint:
            instance._sensitivity = 1.0
        else:
            instance._sensitivity = float(size)
        # Every structural matrix with the same size and sensitivity is the
        # same identity matrix, so downstream strategy translations can be
        # shared between them regardless of which predicates produced it.
        instance._cache_token = ("structural", size, instance._sensitivity)
        return instance

    # -- accessors -------------------------------------------------------------

    @property
    def workload(self) -> Workload:
        return self._workload

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

        For an exact matrix, signatures are packed little-endian into
        ``ceil(L / 64)`` ``uint64`` words (bit ``i`` is predicate ``i``).
        The ``P`` partition codes (the columns of :attr:`matrix`) are packed
        and sorted once per matrix; each row's code is found among them by
        binary search -- on the word itself for ``L <= 64``, on the words'
        raw bytes beyond -- and counted with ``np.bincount``, so the ``n``
        rows are never sorted.  A non-zero row code matching no partition
        means values outside the declared domains: :class:`QueryError`.  A
        structural matrix is the identity over predicates, so its histogram
        is the membership column sums.

        Evaluation pins the table's snapshot up front, so the histogram
        always describes exactly one version even under concurrent appends,
        and caching is unconditional.  The histogram is cached per
        (snapshot, version token), held through a weak reference: snapshots
        are memoised per version, so repeated reads at one version hit;
        identity can never alias a recycled ``id()``; the version token
        makes a histogram computed before ``append_rows`` unservable
        afterwards; and a matrix parked in the module-level memo does not
        pin a discarded table (and its mask cache) in memory.
        """
        table = table.snapshot()
        version = table.version_token
        cached = self._histogram_cache
        if cached is not None and cached[0]() is table and cached[1] == version:
            return cached[2]
        membership = self._workload.evaluate(table)
        if self._exact:
            histogram = self._exact_histogram(membership)
        else:
            histogram = membership.sum(axis=0).astype(float)
        # The snapshot's version never advances, so the histogram is a pure
        # function of (snapshot, version) and admission is unconditional.
        self._histogram_cache = (weakref.ref(table), version, histogram)
        return histogram

    def _exact_histogram(self, membership: np.ndarray) -> np.ndarray:
        """Count the rows of ``membership`` per partition by packed code."""
        if self._partition_keys is None:
            keys = _signature_keys(_pack_signatures(self._matrix.T != 0))
            order = np.argsort(keys)
            self._partition_keys = (keys[order], order)
        sorted_keys, partition_of = self._partition_keys
        codes = _pack_signatures(membership)
        rows = np.flatnonzero(codes.any(axis=1))
        keys = _signature_keys(codes[rows])
        slots = np.searchsorted(sorted_keys, keys)
        matched = slots < len(sorted_keys)
        matched[matched] = sorted_keys[slots[matched]] == keys[matched]
        if not matched.all():
            signature = tuple(bool(v) for v in membership[rows[np.argmin(matched)]])
            raise QueryError(
                "a row matched a predicate signature that the exact domain "
                "analysis did not enumerate; the table contains values outside "
                f"the declared attribute domains: signature={signature}"
            )
        counts = np.bincount(partition_of[slots], minlength=self.n_partitions)
        return counts.astype(float)

    def true_answers(self, table: Table) -> np.ndarray:
        """True per-predicate counts (equals ``matrix @ partition_histogram``)."""
        return self._workload.true_answers(table)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WorkloadMatrix(L={self.shape[0]}, partitions={self.shape[1]}, "
            f"sensitivity={self.sensitivity}, exact={self._exact})"
        )


# ---------------------------------------------------------------------------
# Exact domain analysis helpers
# ---------------------------------------------------------------------------


def _matrix_payload(matrix: "WorkloadMatrix") -> dict[str, object]:
    """The artifact-store payload of one exact matrix.

    Signatures are *not* stored: an exact matrix is 0/1 and its columns are
    the partition signatures in order, so they are reconstructed from the
    matrix itself (`Workload._matrix_from_payload`).
    """
    return {
        "matrix": np.asarray(matrix.matrix, dtype=float),
        "descriptions": [p.description for p in matrix.partitions],
        "exact": bool(matrix.exact),
    }


def _structural_token(workload: Workload, schema: Schema) -> tuple | None:
    """Hashable (predicates, schema) token shared by equal exact analyses."""
    try:
        hash(workload.predicates)
    except TypeError:
        return None
    return (workload.predicates, _IdKey(schema))


def _enumerate_partitions(
    workload: Workload,
    atoms: "dict[str, list[CellValue]]",
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
    # Row-major strides so that flat order equals itertools.product order
    # (last attribute varies fastest).
    strides = [1] * len(sizes)
    for j in range(len(sizes) - 2, -1, -1):
        strides[j] = strides[j + 1] * sizes[j + 1]

    leaf_vectors: dict[int, np.ndarray] = {}
    for pred in workload.predicates:
        _collect_leaf_vectors(pred, atoms, leaf_vectors)

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
                (tuple(bool(v) for v in signatures[row]), int(flat[row])),
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


def _collect_leaf_vectors(
    predicate: Predicate,
    atoms: "dict[str, list[CellValue]]",
    out: dict[int, np.ndarray],
) -> None:
    """Evaluate every atomic condition once per atom of its attribute."""
    if isinstance(predicate, (And, Or)):
        for child in predicate.children:
            _collect_leaf_vectors(child, atoms, out)
    elif isinstance(predicate, Not):
        _collect_leaf_vectors(predicate.child, atoms, out)
    elif isinstance(predicate, (TruePredicate, FalsePredicate)):
        pass
    elif isinstance(predicate, (Comparison, Between, In, IsNull)):
        if id(predicate) in out:
            return
        attribute = next(iter(predicate.attributes()))
        atom_list = atoms[attribute]
        out[id(predicate)] = np.fromiter(
            (bool(predicate.evaluate_cell({attribute: atom})) for atom in atom_list),
            dtype=bool,
            count=len(atom_list),
        )
    # Unknown predicate kinds fall back to per-cell evaluation downstream.


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
        if isinstance(cond, Comparison) and cond.is_numeric:
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
