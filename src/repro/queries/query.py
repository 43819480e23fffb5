"""The three exploration query types: WCQ, ICQ and TCQ.

Section 3.1 of the paper defines one declarative query shape with two optional
clauses.  We model it as three concrete classes sharing a common base:

* :class:`WorkloadCountingQuery` (WCQ) -- returns a vector of bin counts.
* :class:`IcebergCountingQuery` (ICQ) -- ``HAVING COUNT(*) > c``; returns the
  identifiers of bins whose count exceeds ``c``.
* :class:`TopKCountingQuery` (TCQ) -- ``ORDER BY COUNT(*) LIMIT k``; returns
  the identifiers of the ``k`` bins with the largest counts.

Each query knows how to compute its *exact* (non-private) answer, which the
benchmark harness uses to measure empirical error, and exposes the workload so
mechanisms can build the matrix representation.
"""

from __future__ import annotations

import enum
import weakref
from typing import Sequence

import numpy as np

from repro.core.exceptions import QueryError
from repro.data.schema import Schema
from repro.data.table import Table, TableVersion
from repro.queries.workload import Workload, WorkloadMatrix, _IdKey

__all__ = [
    "QueryKind",
    "Query",
    "WorkloadCountingQuery",
    "IcebergCountingQuery",
    "TopKCountingQuery",
]


class QueryKind(enum.Enum):
    """The query type tags used by the accuracy translator."""

    WCQ = "WCQ"
    ICQ = "ICQ"
    TCQ = "TCQ"


class Query:
    """Base class for the three exploration query types."""

    kind: QueryKind

    def __init__(
        self,
        workload: Workload,
        *,
        name: str | None = None,
        disjoint: bool | None = None,
        sensitivity: float | None = None,
    ) -> None:
        if not isinstance(workload, Workload):
            raise QueryError("queries must be constructed from a Workload")
        self._workload = workload
        self._name = name or self.__class__.__name__
        self._disjoint = disjoint
        self._sensitivity_override = sensitivity
        #: ``(matrix, schema)`` of the last matrix this query used.
        self._matrix_memo: tuple[WorkloadMatrix, Schema | None] | None = None
        self._true_counts_cache: (
            tuple[weakref.ref[Table], TableVersion, np.ndarray] | None
        ) = None

    # -- accessors -------------------------------------------------------------

    @property
    def workload(self) -> Workload:
        return self._workload

    @property
    def name(self) -> str:
        return self._name

    @property
    def workload_size(self) -> int:
        """The number of predicates ``L``."""
        return self._workload.size

    def bin_names(self) -> tuple[str, ...]:
        return self._workload.names

    # -- matrix representation ---------------------------------------------------

    def workload_matrix(self, schema: Schema | None = None) -> WorkloadMatrix:
        """The (cached) matrix representation of the query workload.

        The matrix reads only the predicates and ``schema``'s declared
        domains, so both the per-query memo here and the module-level matrix
        memo key on the schema object alone: one matrix serves every version
        of every table with that schema.
        """
        return self.memoised_matrix(schema) or self.build_matrix(schema)

    def memoised_matrix(self, schema: Schema | None) -> WorkloadMatrix | None:
        """The memoised matrix for ``schema``, or ``None``; never builds.

        This query's own memo answers the schema object it was built for
        without a memo lookup.  On a miss the matrix memo is probed.
        """
        memo = self._matrix_memo
        if memo is not None and memo[1] is schema:
            return memo[0]
        matrix = self._workload.memoised(schema, self._disjoint, self._sensitivity_override)
        if matrix is not None:
            self._matrix_memo = (matrix, schema)
        return matrix

    def build_matrix(self, schema: Schema | None) -> WorkloadMatrix:
        """Build and memoise the matrix without probing any memo first."""
        matrix = self._workload.build(schema, self._disjoint, self._sensitivity_override)
        self._matrix_memo = (matrix, schema)
        return matrix

    def translation_key(self, matrix: WorkloadMatrix) -> tuple:
        """What accuracy translation reads of this query over ``matrix``.

        Queries with equal keys get equal translations, so a subclass whose
        translations read a parameter appends it (TCQ ``k``).
        """
        return (self.kind, matrix.cache_token)

    def cache_key(self, schema: Schema | None = None) -> tuple | None:
        """Hashable structural identity of this query, or ``None``.

        Two queries with equal keys have the same kind, predicates, names,
        analysis overrides and (identity-wise) schema, so accuracy-to-privacy
        translations computed for one are valid for the other, at every
        version of every table with that schema.  Subclasses append their
        own parameters (ICQ threshold, TCQ k).  Predicates and names enter
        as the workload's
        :attr:`~repro.queries.workload.Workload.structure_key`, hashed once
        per workload, so probing a memo with this key costs O(1) in ``L``.
        """
        structure = self._workload.structure_key
        if structure is None:
            return None
        return (
            self.kind.value,
            structure,
            self._disjoint,
            self._sensitivity_override,
            None if schema is None else _IdKey(schema),
        )

    def sensitivity(self, schema: Schema | None = None) -> float:
        """The workload sensitivity ``||W||_1``."""
        return self.workload_matrix(schema).sensitivity

    # -- exact answers -------------------------------------------------------------

    def true_counts(self, table: Table) -> np.ndarray:
        """Exact per-bin counts on ``table`` (no privacy).

        Counting pins the table's snapshot up front, so the counts describe
        exactly one version even while ``append_rows`` runs concurrently --
        and caching is unconditional.  The result is cached per (snapshot
        identity, version token): mechanisms and the benchmark harness
        evaluate the same query on the same table many times (once per noise
        draw), and the predicate evaluation dominates the cost; snapshots
        are memoised per version, so same-version repeats hit, while an
        ``append_rows`` advances the token and grown tables recount instead
        of serving stale totals.
        """
        table = table.snapshot()
        version = table.version_token
        cache = self._true_counts_cache
        if cache is not None and cache[0]() is table and cache[1] == version:
            return cache[2]
        counts = self._workload.true_answers(table)
        self._true_counts_cache = (weakref.ref(table), version, counts)
        return counts

    def true_answer(self, table: Table):
        """The exact query answer (type depends on the query kind)."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self._name!r}, L={self.workload_size})"


class WorkloadCountingQuery(Query):
    """WCQ: ``BIN D ON COUNT(*) WHERE W = {phi_1, ..., phi_L}``."""

    kind = QueryKind.WCQ

    def true_answer(self, table: Table) -> np.ndarray:
        return self.true_counts(table)


class IcebergCountingQuery(Query):
    """ICQ: WCQ plus ``HAVING COUNT(*) > c``; the answer is a set of bin ids."""

    kind = QueryKind.ICQ

    def __init__(
        self,
        workload: Workload,
        threshold: float,
        *,
        name: str | None = None,
        disjoint: bool | None = None,
        sensitivity: float | None = None,
    ) -> None:
        super().__init__(
            workload, name=name, disjoint=disjoint, sensitivity=sensitivity
        )
        if not np.isfinite(threshold):
            raise QueryError("the ICQ threshold c must be finite")
        self._threshold = float(threshold)

    @property
    def threshold(self) -> float:
        """The HAVING threshold ``c``."""
        return self._threshold

    def cache_key(self, schema: Schema | None = None) -> tuple | None:
        base = super().cache_key(schema)
        return None if base is None else base + (self._threshold,)

    def true_answer(self, table: Table) -> list[str]:
        counts = self.true_counts(table)
        names = self.bin_names()
        return [names[i] for i in range(len(names)) if counts[i] > self._threshold]

    def select_by_counts(self, counts: Sequence[float]) -> list[str]:
        """Bin ids whose (possibly noisy) counts exceed the threshold."""
        names = self.bin_names()
        return [
            names[i] for i, count in enumerate(counts) if count > self._threshold
        ]


class TopKCountingQuery(Query):
    """TCQ: WCQ plus ``ORDER BY COUNT(*) LIMIT k``; the answer is a set of bin ids."""

    kind = QueryKind.TCQ

    def __init__(
        self,
        workload: Workload,
        k: int,
        *,
        name: str | None = None,
        disjoint: bool | None = None,
        sensitivity: float | None = None,
    ) -> None:
        super().__init__(
            workload, name=name, disjoint=disjoint, sensitivity=sensitivity
        )
        if not isinstance(k, (int, np.integer)) or k <= 0:
            raise QueryError(f"k must be a positive integer, got {k!r}")
        if k > workload.size:
            raise QueryError(
                f"k={k} exceeds the workload size L={workload.size}"
            )
        self._k = int(k)

    @property
    def k(self) -> int:
        """The number of bins to report."""
        return self._k

    def cache_key(self, schema: Schema | None = None) -> tuple | None:
        base = super().cache_key(schema)
        return None if base is None else base + (self._k,)

    def translation_key(self, matrix: WorkloadMatrix) -> tuple:
        return super().translation_key(matrix) + (self._k,)

    def true_answer(self, table: Table) -> list[str]:
        counts = self.true_counts(table)
        return self.select_by_counts(counts)

    def select_by_counts(self, counts: Sequence[float]) -> list[str]:
        """The k bin ids with the largest (possibly noisy) counts."""
        counts = np.asarray(counts, dtype=float)
        if len(counts) != self.workload_size:
            raise QueryError(
                f"expected {self.workload_size} counts, got {len(counts)}"
            )
        order = np.argsort(-counts, kind="stable")[: self._k]
        names = self.bin_names()
        return [names[i] for i in order]

    def kth_largest_count(self, table: Table) -> float:
        """The true k-th largest count ``c_k`` (used by the accuracy measure)."""
        counts = np.sort(self.true_counts(table))[::-1]
        return float(counts[self._k - 1])
