"""Boolean predicate algebra over table rows.

A workload ``W = {phi_1, ..., phi_L}`` is a list of predicates; each predicate
maps a row of the sensitive table to ``True``/``False`` and thereby defines a
bin ``b_i = {r in D | phi_i(r) = 1}`` (Section 3.1 of the paper).

Two evaluation modes are supported:

* **row evaluation** (:meth:`Predicate.evaluate`) -- vectorised evaluation
  over a :class:`~repro.data.table.Table`, producing a boolean mask.  This is
  what mechanisms use to obtain true counts.  Evaluation is array-native end
  to end: numeric comparisons run over the table's cached float views,
  categorical conditions compare interned ``int32`` codes
  (:meth:`~repro.data.table.Table.category_codes`), and every evaluated mask
  is memoised in the table's per-predicate LRU so the mechanisms' repeated
  evaluations of the same condition are free.  Cached masks are read-only;
  copy before mutating.
* **cell evaluation** (:meth:`Predicate.evaluate_cell`) -- evaluation over a
  *domain cell* (one categorical value, or one elementary numeric interval per
  attribute).  This is what the workload-to-matrix transformation uses to
  partition the full domain ``dom(R)`` into ``dom_W(R)`` and to compute the
  sensitivity ``||W||_1`` *without looking at the data*.

NULL semantics follow SQL: comparisons involving NULL are ``False`` and only
``IS NULL`` matches them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.core.exceptions import PredicateError
from repro.data.schema import AttributeKind
from repro.data.table import Table

__all__ = [
    "Interval",
    "CellValue",
    "evaluate_sharded",
    "Predicate",
    "Comparison",
    "Between",
    "In",
    "IsNull",
    "And",
    "Or",
    "Not",
    "TruePredicate",
    "FalsePredicate",
    "FunctionPredicate",
]

_COMPARISON_OPS = ("==", "!=", "<", "<=", ">", ">=")


@dataclass(frozen=True)
class Interval:
    """A half-open or closed numeric interval used as an elementary domain atom.

    ``[low, high)`` by default; the bounds may be infinite.  Cell evaluation of
    a comparison against an interval requires the comparison to be constant
    over the whole interval -- which holds by construction because atoms are
    cut exactly at the constants appearing in the workload.
    """

    low: float
    high: float
    low_inclusive: bool = True
    high_inclusive: bool = False

    def __post_init__(self) -> None:
        if self.low > self.high:
            raise PredicateError(f"empty interval [{self.low}, {self.high}]")

    @property
    def is_point(self) -> bool:
        return self.low == self.high

    def contains(self, value: float) -> bool:
        if value < self.low or value > self.high:
            return False
        if value == self.low and not self.low_inclusive:
            return False
        if value == self.high and not self.high_inclusive:
            return False
        return True

    def representative(self) -> float:
        """A point inside the interval (used to evaluate comparisons)."""
        if self.is_point:
            return self.low
        if math.isinf(self.low) and math.isinf(self.high):
            return 0.0
        if math.isinf(self.low):
            return self.high - 1.0
        if math.isinf(self.high):
            return self.low + 1.0
        return (self.low + self.high) / 2.0

    def __repr__(self) -> str:
        lo = "[" if self.low_inclusive else "("
        hi = "]" if self.high_inclusive else ")"
        return f"{lo}{self.low}, {self.high}{hi}"


#: The value an attribute takes inside one domain cell: either a concrete
#: categorical value (``str``), a numeric :class:`Interval`, or ``None``
#: meaning the NULL cell.
CellValue = str | Interval | None


class Predicate:
    """Abstract base class of all predicates."""

    #: Whether :meth:`evaluate_cell` is meaningful for this predicate.  Only
    #: predicates built from structured comparisons support the exact domain
    #: partitioning; opaque :class:`FunctionPredicate` instances do not.
    supports_domain_analysis: bool = True

    def evaluate(self, table: Table) -> np.ndarray:
        """Boolean mask of rows of ``table`` satisfying the predicate.

        Evaluation is **snapshot-scoped**: the table's current
        :class:`~repro.data.table.TableSnapshot` is pinned up front and the
        mask is computed entirely over its frozen shards, so a concurrent
        ``append_rows``/``refresh`` can neither fail the evaluation on a
        shape check nor leak newer rows into the result -- the mask always
        describes exactly the pinned version.  That also makes caching
        unconditional: the mask is memoised in the (shared) predicate-mask
        LRU keyed by the snapshot's version token plus the predicate itself
        (value equality for structured predicates, identity for
        :class:`FunctionPredicate`), and a mask evaluated before an append
        can never be served afterwards.  The returned array is read-only.
        """
        snapshot = table.snapshot()
        version = snapshot.version_token
        mask = snapshot.cached_mask(self, version)
        if mask is not None:
            return mask
        mask = self._evaluate_mask(snapshot)
        return snapshot.cache_mask(self, mask, version)

    def _evaluate_mask(self, table: Table) -> np.ndarray:
        """Uncached mask computation; implemented by every concrete predicate."""
        raise NotImplementedError

    def evaluate_cell(self, cell: Mapping[str, CellValue]) -> bool:
        """Whether every tuple in the given domain cell satisfies the predicate."""
        raise NotImplementedError

    def attributes(self) -> frozenset[str]:
        """Names of the attributes this predicate refers to."""
        raise NotImplementedError

    def atomic_comparisons(self) -> tuple["Comparison | Between | In | IsNull", ...]:
        """The atomic conditions appearing anywhere inside the predicate."""
        raise NotImplementedError

    def describe(self) -> str:
        """Human-readable rendering, used as the bin identifier."""
        raise NotImplementedError

    # -- composition sugar ----------------------------------------------------

    def __and__(self, other: "Predicate") -> "Predicate":
        return And([self, other])

    def __or__(self, other: "Predicate") -> "Predicate":
        return Or([self, other])

    def __invert__(self) -> "Predicate":
        return Not(self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.describe()})"


@dataclass(frozen=True, repr=False)
class Comparison(Predicate):
    """``attribute OP constant`` for OP in ``== != < <= > >=``."""

    attribute: str
    op: str
    value: float | str

    def __post_init__(self) -> None:
        if self.op not in _COMPARISON_OPS:
            raise PredicateError(
                f"unknown comparison operator {self.op!r}; expected one of "
                f"{_COMPARISON_OPS}"
            )

    @property
    def is_numeric(self) -> bool:
        return isinstance(self.value, (int, float)) and not isinstance(self.value, bool)

    def _evaluate_mask(self, table: Table) -> np.ndarray:
        attr = table.schema[self.attribute]
        if attr.kind is AttributeKind.NUMERIC:
            values = table.numeric_values(self.attribute)
            target = float(self.value)  # type: ignore[arg-type]
            with np.errstate(invalid="ignore"):
                mask = _apply_op(values, self.op, target)
            return mask & ~table.null_mask(self.attribute)
        # categorical / text: only equality-style comparisons are meaningful;
        # compare interned codes instead of Python strings (NULL is code -1,
        # an absent constant is code -2, so NULLs never match either way).
        if self.op not in ("==", "!="):
            raise PredicateError(
                f"operator {self.op!r} is not supported on non-numeric attribute "
                f"{self.attribute!r}"
            )
        codes, index = table.category_codes(self.attribute)
        target_code = index.get(str(self.value), -2)
        if self.op == "==":
            return codes == target_code
        return (codes != target_code) & (codes >= 0)

    def evaluate_cell(self, cell: Mapping[str, CellValue]) -> bool:
        value = cell.get(self.attribute)
        if value is None:
            return False
        if isinstance(value, Interval):
            return bool(_apply_op(value.representative(), self.op, float(self.value)))  # type: ignore[arg-type]
        if self.op == "==":
            return value == str(self.value)
        if self.op == "!=":
            return value != str(self.value)
        raise PredicateError(
            f"operator {self.op!r} cannot be evaluated on categorical cell value"
        )

    def attributes(self) -> frozenset[str]:
        return frozenset({self.attribute})

    def atomic_comparisons(self) -> tuple["Comparison", ...]:
        return (self,)

    def describe(self) -> str:
        if self.is_numeric:
            value = f"{float(self.value):g}"
        else:
            value = f"'{self.value}'"
        op = "=" if self.op == "==" else self.op
        return f"{self.attribute} {op} {value}"


@dataclass(frozen=True, repr=False)
class Between(Predicate):
    """``low <= attribute < high`` (bounds configurable on both ends)."""

    attribute: str
    low: float
    high: float
    low_inclusive: bool = True
    high_inclusive: bool = False

    def __post_init__(self) -> None:
        if self.low > self.high:
            raise PredicateError(
                f"BETWEEN range is empty: low={self.low} > high={self.high}"
            )

    @property
    def interval(self) -> Interval:
        return Interval(self.low, self.high, self.low_inclusive, self.high_inclusive)

    def _evaluate_mask(self, table: Table) -> np.ndarray:
        values = table.numeric_values(self.attribute)
        with np.errstate(invalid="ignore"):
            lower = values >= self.low if self.low_inclusive else values > self.low
            upper = values <= self.high if self.high_inclusive else values < self.high
        return lower & upper & ~np.isnan(values)

    def evaluate_cell(self, cell: Mapping[str, CellValue]) -> bool:
        value = cell.get(self.attribute)
        if value is None:
            return False
        if not isinstance(value, Interval):
            raise PredicateError(
                f"BETWEEN on attribute {self.attribute!r} requires a numeric cell"
            )
        return self.interval.contains(value.representative())

    def attributes(self) -> frozenset[str]:
        return frozenset({self.attribute})

    def atomic_comparisons(self) -> tuple["Between", ...]:
        return (self,)

    def describe(self) -> str:
        lo = "<=" if self.low_inclusive else "<"
        hi = "<=" if self.high_inclusive else "<"
        return f"{self.low} {lo} {self.attribute} {hi} {self.high}"


@dataclass(frozen=True, repr=False)
class In(Predicate):
    """``attribute IN (v1, v2, ...)`` over categorical values."""

    attribute: str
    values: tuple[str, ...]

    def __init__(self, attribute: str, values: Iterable[str]) -> None:
        object.__setattr__(self, "attribute", attribute)
        object.__setattr__(self, "values", tuple(str(v) for v in values))
        if not self.values:
            raise PredicateError("IN list must not be empty")

    def _evaluate_mask(self, table: Table) -> np.ndarray:
        if table.schema[self.attribute].kind is AttributeKind.NUMERIC:
            # The IN list holds strings, which never equal a float value, so
            # the match is empty by construction -- and interning a numeric
            # column's codes would build a dict of every distinct float.
            return np.zeros(len(table), dtype=bool)
        codes, index = table.category_codes(self.attribute)
        allowed = [index[v] for v in self.values if v in index]
        if not allowed:
            return np.zeros(len(table), dtype=bool)
        if len(allowed) == 1:
            return codes == allowed[0]
        return np.isin(codes, np.asarray(allowed, dtype=codes.dtype))

    def evaluate_cell(self, cell: Mapping[str, CellValue]) -> bool:
        value = cell.get(self.attribute)
        if value is None or isinstance(value, Interval):
            return False
        return value in self.values

    def attributes(self) -> frozenset[str]:
        return frozenset({self.attribute})

    def atomic_comparisons(self) -> tuple["In", ...]:
        return (self,)

    def describe(self) -> str:
        rendered = ", ".join(f"'{v}'" for v in self.values)
        return f"{self.attribute} IN ({rendered})"


@dataclass(frozen=True, repr=False)
class IsNull(Predicate):
    """``attribute IS NULL`` (or ``IS NOT NULL`` when ``negated=True``)."""

    attribute: str
    negated: bool = False

    def _evaluate_mask(self, table: Table) -> np.ndarray:
        nulls = table.null_mask(self.attribute)
        return ~nulls if self.negated else nulls

    def evaluate_cell(self, cell: Mapping[str, CellValue]) -> bool:
        is_null_cell = cell.get(self.attribute) is None
        return (not is_null_cell) if self.negated else is_null_cell

    def attributes(self) -> frozenset[str]:
        return frozenset({self.attribute})

    def atomic_comparisons(self) -> tuple["IsNull", ...]:
        return (self,)

    def describe(self) -> str:
        return f"{self.attribute} IS {'NOT ' if self.negated else ''}NULL"


@dataclass(frozen=True, repr=False)
class And(Predicate):
    """Conjunction of child predicates."""

    children: tuple[Predicate, ...]

    def __init__(self, children: Sequence[Predicate]) -> None:
        flattened: list[Predicate] = []
        for child in children:
            if isinstance(child, And):
                flattened.extend(child.children)
            else:
                flattened.append(child)
        if not flattened:
            raise PredicateError("AND requires at least one child predicate")
        object.__setattr__(self, "children", tuple(flattened))

    @property
    def supports_domain_analysis(self) -> bool:  # type: ignore[override]
        return all(c.supports_domain_analysis for c in self.children)

    def _evaluate_mask(self, table: Table) -> np.ndarray:
        mask = self.children[0].evaluate(table)
        for child in self.children[1:]:
            mask = mask & child.evaluate(table)
        return mask

    def evaluate_cell(self, cell: Mapping[str, CellValue]) -> bool:
        return all(child.evaluate_cell(cell) for child in self.children)

    def attributes(self) -> frozenset[str]:
        return frozenset().union(*(c.attributes() for c in self.children))

    def atomic_comparisons(self) -> tuple[Predicate, ...]:
        out: list[Predicate] = []
        for child in self.children:
            out.extend(child.atomic_comparisons())
        return tuple(out)

    def describe(self) -> str:
        return " AND ".join(
            f"({c.describe()})" if isinstance(c, Or) else c.describe()
            for c in self.children
        )


@dataclass(frozen=True, repr=False)
class Or(Predicate):
    """Disjunction of child predicates."""

    children: tuple[Predicate, ...]

    def __init__(self, children: Sequence[Predicate]) -> None:
        flattened: list[Predicate] = []
        for child in children:
            if isinstance(child, Or):
                flattened.extend(child.children)
            else:
                flattened.append(child)
        if not flattened:
            raise PredicateError("OR requires at least one child predicate")
        object.__setattr__(self, "children", tuple(flattened))

    @property
    def supports_domain_analysis(self) -> bool:  # type: ignore[override]
        return all(c.supports_domain_analysis for c in self.children)

    def _evaluate_mask(self, table: Table) -> np.ndarray:
        mask = self.children[0].evaluate(table)
        for child in self.children[1:]:
            mask = mask | child.evaluate(table)
        return mask

    def evaluate_cell(self, cell: Mapping[str, CellValue]) -> bool:
        return any(child.evaluate_cell(cell) for child in self.children)

    def attributes(self) -> frozenset[str]:
        return frozenset().union(*(c.attributes() for c in self.children))

    def atomic_comparisons(self) -> tuple[Predicate, ...]:
        out: list[Predicate] = []
        for child in self.children:
            out.extend(child.atomic_comparisons())
        return tuple(out)

    def describe(self) -> str:
        return " OR ".join(c.describe() for c in self.children)


@dataclass(frozen=True, repr=False)
class Not(Predicate):
    """Negation of a child predicate."""

    child: Predicate

    @property
    def supports_domain_analysis(self) -> bool:  # type: ignore[override]
        return self.child.supports_domain_analysis

    def _evaluate_mask(self, table: Table) -> np.ndarray:
        return ~self.child.evaluate(table)

    def evaluate_cell(self, cell: Mapping[str, CellValue]) -> bool:
        return not self.child.evaluate_cell(cell)

    def attributes(self) -> frozenset[str]:
        return self.child.attributes()

    def atomic_comparisons(self) -> tuple[Predicate, ...]:
        return self.child.atomic_comparisons()

    def describe(self) -> str:
        return f"NOT ({self.child.describe()})"


@dataclass(frozen=True, repr=False)
class TruePredicate(Predicate):
    """Matches every row (the ``COUNT(*)`` bin with no condition)."""

    def _evaluate_mask(self, table: Table) -> np.ndarray:
        return np.ones(len(table), dtype=bool)

    def evaluate_cell(self, cell: Mapping[str, CellValue]) -> bool:
        return True

    def attributes(self) -> frozenset[str]:
        return frozenset()

    def atomic_comparisons(self) -> tuple[Predicate, ...]:
        return ()

    def describe(self) -> str:
        return "TRUE"


@dataclass(frozen=True, repr=False)
class FalsePredicate(Predicate):
    """Matches no row."""

    def _evaluate_mask(self, table: Table) -> np.ndarray:
        return np.zeros(len(table), dtype=bool)

    def evaluate_cell(self, cell: Mapping[str, CellValue]) -> bool:
        return False

    def attributes(self) -> frozenset[str]:
        return frozenset()

    def atomic_comparisons(self) -> tuple[Predicate, ...]:
        return ()

    def describe(self) -> str:
        return "FALSE"


class FunctionPredicate(Predicate):
    """A predicate defined by an arbitrary row-mask callable.

    Used by the entity-resolution case study, where bins are defined by string
    similarity conditions (``jaccard(2grams(title), 2grams(title')) > 0.7``)
    that cannot be analysed over a finite attribute domain.  Such predicates
    do not support exact domain partitioning; workloads containing them fall
    back to a structural sensitivity bound (see
    :meth:`repro.queries.workload.Workload.analyze`).

    **Identity.** A bare function predicate is identified by the *object*:
    equality and hashing are identity-based, and it has no process-stable
    content form, so every disk-tier key containing it degrades to ``None``
    and the artifact store is (conservatively) bypassed.  Passing
    ``version=`` declares a **stable identity**: the caller promises that
    ``(name, version, attributes)`` uniquely determines the callable's
    behaviour, across predicate instances *and across processes*.  A
    declared predicate compares and hashes by that triple (so re-created
    instances hit every in-memory memo) and canonicalises through
    :func:`repro.store.fingerprint.stable_digest` (so translation lists
    derived from it persist in, and warm-start from, the
    :class:`~repro.store.ArtifactStore`).  Bump ``version`` whenever the
    function's semantics change; reusing a ``(name, version)`` pair for a
    different behaviour silently serves the old cached artifacts.
    """

    supports_domain_analysis = False

    def __init__(
        self,
        name: str,
        fn: Callable[[Table], np.ndarray],
        attributes: Iterable[str] = (),
        *,
        version: str | int | None = None,
    ) -> None:
        if not callable(fn):
            raise PredicateError("FunctionPredicate requires a callable")
        if version is not None and not isinstance(version, (str, int)):
            raise PredicateError(
                "a declared FunctionPredicate version must be a string or int"
            )
        self._name = name
        self._fn = fn
        self._attributes = frozenset(attributes)
        self._version = version

    def _evaluate_mask(self, table: Table) -> np.ndarray:
        raw = self._fn(table)
        mask = np.asarray(raw, dtype=bool)
        if mask is raw:
            # The callable may hold on to (and later mutate) the array it
            # returned; take a copy so the table's mask cache can freeze it.
            mask = mask.copy()
        if mask.shape != (len(table),):
            raise PredicateError(
                f"function predicate {self._name!r} returned a mask of shape "
                f"{mask.shape}, expected ({len(table)},)"
            )
        return mask

    def evaluate_cell(self, cell: Mapping[str, CellValue]) -> bool:
        raise PredicateError(
            f"function predicate {self._name!r} does not support domain analysis"
        )

    def attributes(self) -> frozenset[str]:
        return self._attributes

    def atomic_comparisons(self) -> tuple[Predicate, ...]:
        return (self,)

    def describe(self) -> str:
        return self._name

    @property
    def version(self) -> str | int | None:
        """The declared identity version, or ``None`` for a bare predicate."""
        return self._version

    def __stable_identity__(self) -> tuple | None:
        """Content identity for :mod:`repro.store.fingerprint`, or ``None``.

        ``None`` (no declared version) keeps the predicate uncanonicalisable
        and therefore keeps every disk key containing it disabled.
        """
        if self._version is None:
            return None
        return (self._name, self._version, self._attributes)

    def __eq__(self, other: object) -> bool:
        if self._version is None:
            return self is other
        return (
            type(other) is type(self)
            and other._version is not None  # type: ignore[attr-defined]
            and self.__stable_identity__() == other.__stable_identity__()  # type: ignore[attr-defined]
        )

    def __hash__(self) -> int:
        if self._version is None:
            return id(self)
        return hash(("FunctionPredicate", self._name, self._version, self._attributes))


def evaluate_sharded(
    predicate: Predicate,
    table: Table,
    executor: "ParallelExecutor | None" = None,
) -> np.ndarray:
    """Evaluate ``predicate`` shard-parallel and concatenate the partial masks.

    The table's current snapshot is pinned first (wait-free against
    concurrent appends), then each of its row shards is evaluated as its own
    single-shard view (:meth:`~repro.data.table.Table.shard_tables`), fanning
    the numpy work out over ``executor``'s threads; the concatenated mask is
    bit-identical to :meth:`Predicate.evaluate` on the whole table and is
    memoised in the shared versioned mask LRU.  Falls back to the sequential
    path when the table has one shard or no executor is available
    (``executor`` argument, else the process default from
    :mod:`repro.core.parallel`).

    Shard views keep their own caches, so after an ``append_rows`` only the
    new shard pays for evaluation -- the old shards' masks are still warm.

    Only row-local predicates may be split: an opaque
    :class:`FunctionPredicate` callable sees a whole table and may compute
    cross-row state (a mean, a rank), so splitting it per shard would
    silently change its result.  ``supports_domain_analysis`` is the
    row-locality witness (it is ``False`` exactly when an opaque node
    appears anywhere in the predicate tree); such predicates fall back to
    whole-table evaluation.
    """
    from repro.core.parallel import get_default_executor

    if executor is None:
        executor = get_default_executor()
    snapshot = table.snapshot()
    version = snapshot.version_token
    cached = snapshot.cached_mask(predicate, version)
    if cached is not None:
        return cached
    shards = snapshot.shard_tables()
    if (
        executor is None
        or len(shards) <= 1
        or not predicate.supports_domain_analysis
    ):
        return predicate.evaluate(snapshot)
    parts = executor.map(predicate.evaluate, shards)
    mask = np.concatenate(parts)
    return snapshot.cache_mask(predicate, mask, version)


def _apply_op(values: np.ndarray | float, op: str, target: float) -> np.ndarray | bool:
    if op == "==":
        return values == target
    if op == "!=":
        return values != target
    if op == "<":
        return values < target
    if op == "<=":
        return values <= target
    if op == ">":
        return values > target
    if op == ">=":
        return values >= target
    raise PredicateError(f"unknown comparison operator {op!r}")
