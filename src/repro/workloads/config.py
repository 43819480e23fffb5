"""Generator configuration and the predictable drift schedule.

The whole point of the workload generator is that its effect on the engine's
domain fingerprints is *known before a single row is generated*: categorical
fingerprints change exactly when a batch introduces a declared-but-unobserved
code, and numeric/text fingerprints never change (they are declared-shape
only).  So the drift schedule lives here, computed purely from the config --
:meth:`GeneratorConfig.drift_plan` says which period introduces which new
code, and the generator's emitted batches are *required* to match it.  Tests
and benchmarks assert cache-tier counters against this plan, not against
whatever the data happened to do.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Mapping

from repro.core.exceptions import ApexError

__all__ = ["DRIFT_MODES", "DriftEvent", "GeneratorConfig"]

#: The drift knob's positions.  ``preserve``: every batch stays inside the
#: observed categorical domains (fingerprints never change).  ``drift``:
#: declared-but-unobserved categorical codes are introduced on the
#: ``drift_every`` schedule.  ``mixed``: the same categorical schedule, plus
#: data-only numeric widening (income climbs toward the declared cap) on the
#: in-between periods -- which must *not* change fingerprints.
DRIFT_MODES = ("preserve", "drift", "mixed")


@dataclass(frozen=True)
class DriftEvent:
    """One scheduled fingerprint change: ``period`` first observes ``value``."""

    period: int
    attribute: str
    value: str


@dataclass(frozen=True)
class GeneratorConfig:
    """Everything that determines a generated stream, bit for bit.

    Two configs that compare equal produce identical populations, append
    batches and replay scripts -- in the same process or across fresh
    interpreters (the property suite pins this with subprocesses).
    """

    seed: int = 7
    initial_rows: int = 5_000
    periods: int = 8
    rows_per_period: int = 1_000
    drift: str = "preserve"
    #: In ``drift``/``mixed`` mode, every ``drift_every``-th period
    #: introduces one previously unobserved categorical code.
    drift_every: int = 3
    analysts: int = 3
    queries_per_analyst: int = 4
    table: str = "population"
    budget: float = 50.0

    def __post_init__(self) -> None:
        if self.drift not in DRIFT_MODES:
            raise ApexError(
                f"unknown drift mode {self.drift!r}; expected one of {DRIFT_MODES}"
            )
        for name in ("initial_rows", "periods", "rows_per_period", "drift_every",
                     "analysts", "queries_per_analyst"):
            if getattr(self, name) <= 0:
                raise ApexError(f"GeneratorConfig.{name} must be positive")
        if self.budget <= 0:
            raise ApexError("GeneratorConfig.budget must be positive")

    # -- the drift schedule --------------------------------------------------

    def drift_plan(self) -> tuple[DriftEvent, ...]:
        """The scheduled fingerprint changes, computed from the config alone.

        Every ``drift_every``-th period (periods are 1-based) consumes the
        next code from the pool of declared-but-unobserved categorical
        values, alternating between the ``region`` and ``occupation``
        attributes so the drift spreads over the schema.  Once the pool is
        exhausted the remaining periods are preserve periods.
        """
        if self.drift == "preserve":
            return ()
        from repro.workloads.population import unobserved_code_pool

        pool = unobserved_code_pool()
        events: list[DriftEvent] = []
        consumed = 0
        for period in range(1, self.periods + 1):
            if period % self.drift_every != 0:
                continue
            if consumed >= len(pool):
                break
            attribute, value = pool[consumed]
            events.append(DriftEvent(period=period, attribute=attribute, value=value))
            consumed += 1
        return tuple(events)

    def drift_schedule(self) -> tuple[bool, ...]:
        """Per-period prediction: does period ``p`` change a fingerprint?

        Index 0 is period 1.  This is the contract the generator's
        ``PeriodBatch.changes_fingerprint`` flags must reproduce exactly.
        """
        changing = {event.period for event in self.drift_plan()}
        return tuple(period in changing for period in range(1, self.periods + 1))

    def widening_schedule(self) -> tuple[bool, ...]:
        """Per-period prediction: does period ``p`` widen numeric ranges?

        Only ``mixed`` mode widens, and only on periods that do not already
        carry a categorical drift event -- widening is the data-only drift
        whose *absence* from the fingerprints the test battery pins.
        """
        if self.drift != "mixed":
            return tuple(False for _ in range(self.periods))
        changing = {event.period for event in self.drift_plan()}
        return tuple(
            period not in changing for period in range(1, self.periods + 1)
        )

    def total_rows(self) -> int:
        """Upper bound on rows streamed: initial table plus every batch."""
        return self.initial_rows + self.periods * self.rows_per_period

    # -- (de)serialisation ---------------------------------------------------

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, payload: Mapping) -> "GeneratorConfig":
        known = {f: payload[f] for f in cls.__dataclass_fields__ if f in payload}
        unknown = sorted(set(payload) - set(cls.__dataclass_fields__))
        if unknown:
            raise ApexError(f"unknown GeneratorConfig fields: {unknown}")
        return cls(**known)

    @classmethod
    def from_file(cls, path: str) -> "GeneratorConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))

    def describe(self) -> str:
        return (
            f"seed={self.seed} initial={self.initial_rows} "
            f"periods={self.periods}x{self.rows_per_period} drift={self.drift}"
        )
