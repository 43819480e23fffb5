"""Similarity predicates and boolean formulas over pair tables.

A similarity predicate ``p = (A, t, sim, theta)`` returns True for a pair
``(r1, r2)`` when ``sim(t(r1.A), t(r2.A)) > theta`` (Section 8.1).  The
blocking task learns a *disjunction* of such predicates; the matching task a
*conjunction*.

Because the exploration strategies evaluate many predicates that share the
same ``(A, t, sim)`` triple (only the threshold differs), the expensive part
-- computing the similarity score of every pair -- is cached per table in
:class:`SimilarityCache`.  A score column is computed in one call of the
similarity's column kernel (:func:`~repro.er.similarity.pairwise_scores`)
over a transformed view of the two columns; each ``(left column, right
column, transform)`` view is built once and shared by every similarity that
scores it, and cosine, Jaccard and overlap also share one coding of the
view's tokens (:class:`~repro.er.similarity.TokenCounts`).  A view scores
each distinct pair of values once (a venue column repeats most pairs).  A
2grams or 3grams view codes each gram as one packed integer
(:func:`_gram_codes`).

Predicates plug into the APEx query language as
:class:`~repro.queries.predicates.FunctionPredicate` instances, so the engine
treats them like any other (opaque) predicate.  Their masks are scoped by
table: a predicate evaluated on the cache's table (at the version the cache
pinned) reads the cached column, and on any other table it scores that
table.  That keeps the declared ``(description, version)`` identity honest
when an engine memo hands one table's matrix, built from equal predicates,
to another table with the same schema.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.core.exceptions import ApexError
from repro.data.table import Table
from repro.er.similarity import TokenCounts, TokenInput, get_similarity, pairwise_scores
from repro.er.transforms import Transform, _normalise, get_transform
from repro.queries.predicates import FunctionPredicate, Predicate

__all__ = ["SimilarityPredicateSpec", "SimilarityCache", "BooleanFormula"]

#: Identity version declared on every similarity :class:`FunctionPredicate`.
#: A spec's ``describe()`` string (attribute, transform, similarity,
#: threshold) fully determines the mask semantics, so ``(description,
#: version)`` is a faithful content identity and the engine's disk tiers may
#: persist artifacts derived from these predicates.  Bump this whenever the
#: similarity/transform implementations change behaviour.
_PREDICATE_IDENTITY_VERSION = 1


@dataclass(frozen=True)
class SimilarityPredicateSpec:
    """One similarity predicate ``sim(t(A_left), t(A_right)) > threshold``."""

    attribute: str
    left_column: str
    right_column: str
    transform: str
    similarity: str
    threshold: float

    def describe(self) -> str:
        return (
            f"{self.similarity}({self.transform}({self.attribute})) > "
            f"{self.threshold:.2f}"
        )

    def key(self) -> tuple[str, str, str]:
        """The cache key shared by all thresholds of the same score column."""
        return (self.attribute, self.transform, self.similarity)


class SimilarityCache:
    """Caches per-pair similarity scores for one pair table at one version.

    The cache is keyed by ``(attribute, transform, similarity)``; thresholds
    are applied lazily, so evaluating dozens of candidate predicates that only
    differ in ``theta`` costs a single pass over the data.  Each ``(left
    column, right column, transform)`` view is transformed once and shared by
    every similarity scored over it.

    The cache pins a snapshot of the table it is built for, so every column
    it scores reads the same rows.  A predicate it hands out is a function of
    ``(spec, table)``: on a table at the pinned version it reads the cached
    column, on any other table (or the same table after an append) it scores
    that table afresh.
    """

    def __init__(self, table: Table) -> None:
        self._table = table.snapshot()
        self._scores: dict[tuple[str, str, str], np.ndarray] = {}
        self._views: dict[tuple[str, str, str], _PairView] = {}
        # The predicates declare a stable identity (description + version),
        # so downstream caches recognise re-asked conditions by value;
        # interning still saves rebuilding one closure per re-asked spec.
        self._spec_predicates: dict[SimilarityPredicateSpec, Predicate] = {}
        self._formula_predicates: dict["BooleanFormula", Predicate] = {}

    @property
    def table(self) -> Table:
        """The pinned snapshot of the table the cache scores."""
        return self._table

    def scores(self, spec: SimilarityPredicateSpec) -> np.ndarray:
        """The similarity score of every pair for the spec's score column."""
        key = spec.key()
        cached = self._scores.get(key)
        if cached is None:
            view_key = (spec.left_column, spec.right_column, spec.transform)
            view = self._views.get(view_key)
            if view is None:
                view = self._views[view_key] = _PairView.of(self._table, *view_key)
            cached = self._scores[key] = view.scores(spec.similarity)
        return cached

    def mask(
        self, spec: SimilarityPredicateSpec, table: Table | None = None
    ) -> np.ndarray:
        """Boolean mask of the pairs of ``table`` satisfying the predicate.

        ``table`` defaults to the cache's own.  A table at the cache's
        version reads the cached column; any other table is scored afresh.
        """
        if table is None or table.version_token == self._table.version_token:
            return self.scores(spec) > spec.threshold
        view = _PairView.of(table, spec.left_column, spec.right_column, spec.transform)
        return view.scores(spec.similarity) > spec.threshold

    def predicate(self, spec: SimilarityPredicateSpec) -> Predicate:
        """The spec as an APEx query predicate (opaque function predicate).

        Interned: the same spec always yields the same predicate object.
        """
        cached = self._spec_predicates.get(spec)
        if cached is None:
            cached = FunctionPredicate(
                spec.describe(),
                lambda table, spec=spec: self.mask(spec, table),
                attributes=(spec.left_column, spec.right_column),
                version=_PREDICATE_IDENTITY_VERSION,
            )
            self._spec_predicates[spec] = cached
        return cached

    def formula_predicate(self, formula: "BooleanFormula") -> Predicate:
        """One interned predicate object per distinct formula."""
        cached = self._formula_predicates.get(formula)
        if cached is None:
            cached = FunctionPredicate(
                formula.describe(),
                lambda table, formula=formula: formula.evaluate(self, table),
                attributes=frozenset(
                    column
                    for spec in formula.specs
                    for column in (spec.left_column, spec.right_column)
                ),
                version=_PREDICATE_IDENTITY_VERSION,
            )
            self._formula_predicates[formula] = cached
        return cached

    def cached_keys(self) -> list[tuple[str, str, str]]:
        return list(self._scores)


@dataclass(frozen=True, eq=False)
class _PairView:
    """One transformed ``(left column, right column)`` view of a pair table.

    Only pairs with two non-NULL values are scored (``rows``); the others
    score 0 under every similarity.  The view keeps those pairs' raw values
    and interns them on first use into the distinct ``(left, right)`` pairs
    (:attr:`distinct`) plus an ``inverse`` index from each pair to its
    distinct one.  Every similarity is a pure function of the two values, so
    a view scores each distinct pair once and scatters the scores back.  The
    token similarities share one :class:`~repro.er.similarity.TokenCounts`
    of the distinct pairs, which an n-gram view counts from packed integer
    gram codes (:func:`_gram_codes`), and the per-value transformed tokens or
    strings are built only when a character similarity scores the view.
    """

    n_rows: int
    rows: np.ndarray
    transform: Transform
    left_values: np.ndarray
    right_values: np.ndarray

    @classmethod
    def of(
        cls, table: Table, left_column: str, right_column: str, transform_name: str
    ) -> "_PairView":
        # A stored text value is an exact str or None and a numeric NULL is
        # NaN, so the cached NULL masks are the per-value NULL test.
        nulls = table.null_mask(left_column) | table.null_mask(right_column)
        rows = np.flatnonzero(~nulls)
        return cls(
            len(table),
            rows,
            get_transform(transform_name),
            table.column(left_column)[rows],
            table.column(right_column)[rows],
        )

    @functools.cached_property
    def distinct(self) -> tuple[list[str], list[str], np.ndarray]:
        """The distinct pairs' left and right values, and ``inverse``.

        ``inverse[k]`` is the index of pair ``k``'s distinct pair.  A
        transform reads a value as ``str(value)``, so the pairs are keyed
        by their values' strings: ``0.0`` and ``-0.0`` stay apart.
        """
        ids: dict[tuple[str, str], int] = {}
        keys = zip(map(str, self.left_values.tolist()), map(str, self.right_values.tolist()))
        inverse = np.fromiter(
            (ids.setdefault(key, len(ids)) for key in keys),
            dtype=np.int64,
            count=len(self.rows),
        )
        return [left for left, _ in ids], [right for _, right in ids], inverse

    @functools.cached_property
    def left(self) -> list[TokenInput]:
        return list(map(self.transform, self.distinct[0]))

    @functools.cached_property
    def right(self) -> list[TokenInput]:
        return list(map(self.transform, self.distinct[1]))

    @functools.cached_property
    def token_counts(self) -> TokenCounts:
        n = _GRAM_SIZES.get(self.transform)
        if n is None:
            return TokenCounts.of(self.left, self.right)
        left, right, _ = self.distinct
        return TokenCounts.from_codes(
            len(left), *_gram_codes(left, n), *_gram_codes(right, n)
        )

    def scores(self, similarity_name: str) -> np.ndarray:
        similarity = get_similarity(similarity_name)
        if similarity.from_counts is not None:
            scored = similarity.from_counts(self.token_counts)
        else:
            scored = pairwise_scores(similarity, self.left, self.right)
        _, _, inverse = self.distinct
        values = np.zeros(self.n_rows)
        values[self.rows] = scored[inverse]
        return values


#: The n-gram transforms by gram size.  Their views code each gram as one
#: integer instead of slicing it out as a string.
_GRAM_SIZES = {get_transform("2grams"): 2, get_transform("3grams"): 3}
#: Every code point is below 2**21, so three fit in a non-negative int64.
_POINT_BITS = 21


def _gram_codes(values: Sequence[object], n: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``n``-gram tokens of ``values`` as int64 codes (``n`` <= 3).

    Returns each token's value index and its code; two tokens of
    :func:`~repro.er.transforms._ngrams` are equal exactly when their codes
    are.  A full gram packs its code points 21 bits apiece, first point
    highest (``c0 << 42 | c1 << 21 | c2``), so its code is non-negative.  A
    normalised value shorter than ``n`` is one token; it is coded
    ``-1 - (packed << 2 | length)``, negative and tagged with its length, so
    it never equals a full gram or a short token of another length.
    """
    texts = [_normalise(str(value)).replace(" ", "_") for value in values]
    lengths = np.fromiter(map(len, texts), dtype=np.int64, count=len(texts))
    # surrogatepass: a lone surrogate is a code point like any other.
    flat = "".join(texts).encode("utf-32-le", "surrogatepass")
    points = np.frombuffer(flat, dtype="<u4").astype(np.int64)
    value_of = np.repeat(np.arange(len(texts)), lengths)
    ends = np.cumsum(lengths)
    # A gram starts at every point with at least n points left in its value.
    starts = max(len(points) - n + 1, 0)
    full = (np.repeat(ends, lengths) - np.arange(len(points)))[:starts] >= n
    packed = points[:starts].copy()
    for k in range(1, n):
        packed <<= _POINT_BITS
        packed |= points[k : starts + k]
    short = np.flatnonzero((lengths > 0) & (lengths < n))
    first = (ends - lengths)[short]
    prefix = points[first]
    for k in range(1, n - 1):
        longer = lengths[short] > k
        prefix[longer] = prefix[longer] << _POINT_BITS | points[first[longer] + k]
    return (
        np.concatenate((value_of[:starts][full], short)),
        np.concatenate((packed[full], -1 - (prefix << 2 | lengths[short]))),
    )


@dataclass(frozen=True)
class BooleanFormula:
    """A conjunction or disjunction of similarity predicates.

    The empty disjunction matches nothing; the empty conjunction matches
    everything -- the natural identities for growing blocking (OR) and
    matching (AND) formulas predicate by predicate.
    """

    specs: tuple[SimilarityPredicateSpec, ...]
    conjunction: bool = False

    @classmethod
    def disjunction(
        cls, specs: Iterable[SimilarityPredicateSpec] = ()
    ) -> "BooleanFormula":
        return cls(tuple(specs), conjunction=False)

    @classmethod
    def conjunction_of(
        cls, specs: Iterable[SimilarityPredicateSpec] = ()
    ) -> "BooleanFormula":
        return cls(tuple(specs), conjunction=True)

    def with_predicate(self, spec: SimilarityPredicateSpec) -> "BooleanFormula":
        """A new formula extended by one predicate."""
        return BooleanFormula(self.specs + (spec,), conjunction=self.conjunction)

    @property
    def is_empty(self) -> bool:
        return not self.specs

    def __len__(self) -> int:
        return len(self.specs)

    def evaluate(
        self, cache: SimilarityCache, table: Table | None = None
    ) -> np.ndarray:
        """Boolean mask of the pairs captured by the formula.

        ``table`` defaults to the cache's own (see :meth:`SimilarityCache.mask`).
        """
        n_rows = len(table if table is not None else cache.table)
        if not self.specs:
            if self.conjunction:
                return np.ones(n_rows, dtype=bool)
            return np.zeros(n_rows, dtype=bool)
        masks = [cache.mask(spec, table) for spec in self.specs]
        combined = masks[0].copy()
        for mask in masks[1:]:
            combined = (combined & mask) if self.conjunction else (combined | mask)
        return combined

    def predicate(self, cache: SimilarityCache) -> Predicate:
        """The formula as an APEx query predicate (interned per formula)."""
        return cache.formula_predicate(self)

    def describe(self) -> str:
        if not self.specs:
            return "FALSE" if not self.conjunction else "TRUE"
        connector = " AND " if self.conjunction else " OR "
        return connector.join(spec.describe() for spec in self.specs)


def enumerate_thresholds(
    low: float, high: float, count: int, *, descending: bool = True
) -> Sequence[float]:
    """``count`` thresholds evenly spaced in ``[low, high]`` (c4 of the cleaner model)."""
    if count <= 0:
        raise ApexError("the number of thresholds must be positive")
    if not 0.0 <= low < high <= 1.0:
        raise ApexError("thresholds must satisfy 0 <= low < high <= 1")
    if count == 1:
        values = [round((low + high) / 2.0, 4)]
    else:
        step = (high - low) / (count - 1)
        values = [round(low + i * step, 4) for i in range(count)]
    return sorted(values, reverse=descending)
