"""Attribute domains and single-table relational schemas.

APEx (Section 2) assumes a single-table schema ``R(A1, ..., Ad)`` whose
attribute domains are public.  Mechanisms never look at the raw data directly;
they only consume histograms over a *discretized* domain derived from the
query workload, so the only thing a domain has to support is

* describing the set (or range) of legal values, and
* producing a canonical finite discretization (categories, or numeric bins)
  that workload builders can partition.

Three domain kinds cover everything in the paper's evaluation:

* :class:`CategoricalDomain` -- a finite set of values (e.g. ``state``,
  ``sex``, ``workclass``).
* :class:`NumericDomain` -- a (possibly unbounded above) numeric range
  (e.g. ``age``, ``capital_gain``, ``trip_distance``).
* :class:`TextDomain` -- free text, used only by the entity-resolution case
  study (titles, author lists); text attributes are never aggregated directly,
  only through similarity predicates.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.core.exceptions import SchemaError

__all__ = [
    "AttributeKind",
    "CategoricalDomain",
    "NumericDomain",
    "TextDomain",
    "Attribute",
    "Schema",
]


class AttributeKind(enum.Enum):
    """Broad type of an attribute, used for validation and dtype selection."""

    CATEGORICAL = "categorical"
    NUMERIC = "numeric"
    TEXT = "text"


@dataclass(frozen=True)
class CategoricalDomain:
    """A finite, ordered set of allowed values.

    Parameters
    ----------
    values:
        The allowed values, in a stable order.  Order matters only for
        deterministic iteration (e.g. building one bin per category).
    """

    values: tuple[str, ...]

    def __init__(self, values: Iterable[str]) -> None:
        vals = tuple(str(v) for v in values)
        if not vals:
            raise SchemaError("a categorical domain needs at least one value")
        if len(set(vals)) != len(vals):
            raise SchemaError("categorical domain values must be unique")
        object.__setattr__(self, "values", vals)

    @property
    def kind(self) -> AttributeKind:
        return AttributeKind.CATEGORICAL

    @property
    def size(self) -> int:
        """Number of distinct values in the domain."""
        return len(self.values)

    @property
    def value_index(self) -> dict[str, int]:
        """A cached ``value -> position`` map for O(1) membership and lookup."""
        index = self.__dict__.get("_value_index")
        if index is None:
            index = {value: i for i, value in enumerate(self.values)}
            object.__setattr__(self, "_value_index", index)
        return index

    def __contains__(self, value: object) -> bool:
        return str(value) in self.value_index

    def index_of(self, value: str) -> int:
        """Position of ``value`` in the domain (raises if absent)."""
        index = self.value_index.get(str(value))
        if index is None:
            raise SchemaError(f"value {value!r} not in categorical domain")
        return index


@dataclass(frozen=True)
class NumericDomain:
    """A numeric range ``[low, high]``; ``high`` may be ``math.inf``.

    ``integral=True`` restricts the domain to integers (e.g. ``age``,
    ``passenger_count``); continuous attributes such as ``trip_distance``
    leave it ``False``.
    """

    low: float = 0.0
    high: float = math.inf
    integral: bool = False

    def __post_init__(self) -> None:
        if math.isnan(self.low) or math.isnan(self.high):
            raise SchemaError("numeric domain bounds must not be NaN")
        if self.low > self.high:
            raise SchemaError(
                f"numeric domain low ({self.low}) must not exceed high ({self.high})"
            )

    @property
    def kind(self) -> AttributeKind:
        return AttributeKind.NUMERIC

    @property
    def bounded(self) -> bool:
        """True if both ends of the range are finite."""
        return math.isfinite(self.low) and math.isfinite(self.high)

    def __contains__(self, value: object) -> bool:
        try:
            x = float(value)  # type: ignore[arg-type]
        except (TypeError, ValueError):
            return False
        if math.isnan(x):
            return False
        if self.integral and x != int(x):
            return False
        return self.low <= x <= self.high

    def bin_edges(self, n_bins: int, high: float | None = None) -> list[float]:
        """Equal-width bin edges covering ``[low, high]``.

        ``high`` overrides the domain upper bound (required when the domain is
        unbounded above).  Returns ``n_bins + 1`` edges.
        """
        if n_bins <= 0:
            raise SchemaError("n_bins must be positive")
        upper = self.high if high is None else high
        if not math.isfinite(upper):
            raise SchemaError(
                "cannot derive bin edges for an unbounded domain without an "
                "explicit upper bound"
            )
        if upper <= self.low:
            raise SchemaError("upper bound must exceed the domain lower bound")
        width = (upper - self.low) / n_bins
        return [self.low + i * width for i in range(n_bins + 1)]


@dataclass(frozen=True)
class TextDomain:
    """Free-form text; only used through similarity predicates (Section 8)."""

    max_length: int | None = None

    @property
    def kind(self) -> AttributeKind:
        return AttributeKind.TEXT

    def __contains__(self, value: object) -> bool:
        if not isinstance(value, str):
            return False
        if self.max_length is not None and len(value) > self.max_length:
            return False
        return True


Domain = CategoricalDomain | NumericDomain | TextDomain


@dataclass(frozen=True)
class Attribute:
    """A named attribute together with its (public) domain."""

    name: str
    domain: Domain
    nullable: bool = False

    def __post_init__(self) -> None:
        if not self.name or not self.name.strip():
            raise SchemaError("attribute name must be non-empty")

    @property
    def kind(self) -> AttributeKind:
        return self.domain.kind

    def validate(self, value: object) -> bool:
        """Whether ``value`` is a legal value for this attribute."""
        if value is None:
            return self.nullable
        return value in self.domain


@dataclass(frozen=True)
class Schema:
    """An ordered collection of attributes describing a single table."""

    attributes: tuple[Attribute, ...]
    name: str = "R"
    _by_name: dict[str, Attribute] = field(
        default_factory=dict, repr=False, compare=False
    )
    _attribute_names: tuple[str, ...] = field(
        default=(), repr=False, compare=False
    )

    def __init__(self, attributes: Sequence[Attribute], name: str = "R") -> None:
        attrs = tuple(attributes)
        if not attrs:
            raise SchemaError("a schema needs at least one attribute")
        names = [a.name for a in attrs]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise SchemaError(f"duplicate attribute names in schema: {dupes}")
        object.__setattr__(self, "attributes", attrs)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_by_name", {a.name: a for a in attrs})
        object.__setattr__(self, "_attribute_names", tuple(names))

    # -- lookup ------------------------------------------------------------

    @property
    def attribute_names(self) -> tuple[str, ...]:
        return self._attribute_names

    def __contains__(self, name: object) -> bool:
        return name in self._by_name

    def __len__(self) -> int:
        return len(self.attributes)

    def __getitem__(self, name: str) -> Attribute:
        try:
            return self._by_name[name]
        except KeyError as exc:
            raise SchemaError(
                f"schema {self.name!r} has no attribute {name!r}; "
                f"known attributes: {list(self.attribute_names)}"
            ) from exc

    def attribute(self, name: str) -> Attribute:
        """Alias of ``schema[name]`` for readability at call sites."""
        return self[name]

    # -- derived views ------------------------------------------------------

    def categorical_attributes(self) -> tuple[Attribute, ...]:
        return tuple(
            a for a in self.attributes if a.kind is AttributeKind.CATEGORICAL
        )

    def numeric_attributes(self) -> tuple[Attribute, ...]:
        return tuple(a for a in self.attributes if a.kind is AttributeKind.NUMERIC)

    def text_attributes(self) -> tuple[Attribute, ...]:
        return tuple(a for a in self.attributes if a.kind is AttributeKind.TEXT)

    def project(self, names: Sequence[str]) -> "Schema":
        """A new schema containing only ``names`` (in the given order)."""
        return Schema([self[n] for n in names], name=self.name)

    def validate_row(self, row: dict[str, object]) -> list[str]:
        """Return the names of attributes whose value in ``row`` is invalid.

        Missing attributes are treated as NULL and are only valid when the
        attribute is nullable.  Extra keys in ``row`` are reported as well.
        """
        problems: list[str] = []
        for attr in self.attributes:
            value = row.get(attr.name)
            if not attr.validate(value):
                problems.append(attr.name)
        for key in row:
            if key not in self._by_name:
                problems.append(key)
        return problems
