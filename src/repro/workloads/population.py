"""A seeded liam2-style microsimulation over a synthetic population.

The generator keeps an in-memory population (age, sex, region, occupation,
income) and evolves it one simulated period at a time with the classic
microsimulation transitions -- ageing, mortality rising with age, births,
regional migration, multiplicative income dynamics.  Each period emits a
**panel batch**: the period's newborn individuals plus a re-observation
sample of the survivors, shaped as ``{attribute: value}`` rows ready for
``Table.append_rows`` / the replay ``append_rows`` op.

The schema declares more categorical codes than the initial population
observes (regions 16 declared / 8 seeded, occupations 24 declared / 12
seeded), which is what makes the drift knob work: a *preserve* batch samples
strictly from codes already emitted, so it observes no new code; a *drift*
period assigns the next declared-but-unobserved code (from
:func:`unobserved_code_pool`, on the config's schedule) to a slice of its
rows.  Numeric widening (``mixed`` mode) pushes incomes toward the declared
cap -- legal data, different distribution, no new code.

Everything is driven by one ``numpy`` PCG64 generator seeded from the
config, and every emitted value is a native Python scalar, so two equal
configs produce bit-identical batches in any interpreter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping

import numpy as np

from repro.core.exceptions import ApexError
from repro.data.schema import (
    Attribute,
    CategoricalDomain,
    NumericDomain,
    Schema,
)
from repro.data.table import Table
from repro.workloads.config import GeneratorConfig

__all__ = [
    "REGION_CODES",
    "OCCUPATION_CODES",
    "SEX_CODES",
    "INCOME_CAP",
    "MAX_AGE",
    "SEEDED_REGIONS",
    "SEEDED_OCCUPATIONS",
    "population_schema",
    "unobserved_code_pool",
    "PeriodBatch",
    "MicrosimulationGenerator",
    "generate_stream",
]

#: Declared categorical domains.  The *seeded* prefix of each is what the
#: initial population draws from; the remainder is the drift reservoir.
REGION_CODES = tuple(f"region-{i:02d}" for i in range(16))
OCCUPATION_CODES = tuple(f"occ-{i:02d}" for i in range(24))
SEX_CODES = ("female", "male")
SEEDED_REGIONS = 8
SEEDED_OCCUPATIONS = 12

#: Declared income range.  The initial population sits well below the cap
#: (see ``_BASE_INCOME_SCALE``); ``mixed``-mode widening climbs toward it.
INCOME_CAP = 500_000.0
_BASE_INCOME_SCALE = 120_000.0

MAX_AGE = 120


def population_schema() -> Schema:
    """The public single-table schema of the synthetic population panel."""
    return Schema(
        [
            Attribute("age", NumericDomain(0, MAX_AGE, integral=True)),
            Attribute("sex", CategoricalDomain(SEX_CODES)),
            Attribute("region", CategoricalDomain(REGION_CODES)),
            Attribute("occupation", CategoricalDomain(OCCUPATION_CODES)),
            Attribute("income", NumericDomain(0.0, INCOME_CAP)),
        ],
        name="Population",
    )


def unobserved_code_pool() -> tuple[tuple[str, str], ...]:
    """Declared-but-unseeded ``(attribute, code)`` pairs, in drift order.

    The pool alternates region and occupation codes so a long drift schedule
    spreads new codes over both attributes; its order is part of
    the deterministic contract between :meth:`GeneratorConfig.drift_plan`
    and the generator.
    """
    regions = [("region", code) for code in REGION_CODES[SEEDED_REGIONS:]]
    occupations = [
        ("occupation", code) for code in OCCUPATION_CODES[SEEDED_OCCUPATIONS:]
    ]
    pool: list[tuple[str, str]] = []
    for i in range(max(len(regions), len(occupations))):
        if i < len(regions):
            pool.append(regions[i])
        if i < len(occupations):
            pool.append(occupations[i])
    return tuple(pool)


@dataclass(frozen=True)
class PeriodBatch:
    """One period's append batch, with the new codes it is *predicted* to bring.

    :ivar period: 1-based simulated period number.
    :ivar rows: the ``{attribute: value}`` dicts to append, in order.
    :ivar introduces: per attribute, the categorical codes this batch
        observes for the first time in the stream (empty on preserve
        periods).
    :ivar changes_fingerprint: whether this batch introduces a declared but
        unobserved code -- true exactly when ``introduces`` is non-empty.
        (The name predates schema-keyed memos, under which such a batch
        rebuilds nothing; tests check the flag against the schedule.)
    :ivar widened: whether this period applied data-only numeric widening
        (``mixed`` mode); widening must *not* set ``changes_fingerprint``.
    """

    period: int
    rows: tuple[dict, ...]
    introduces: Mapping[str, tuple[str, ...]]
    changes_fingerprint: bool
    widened: bool = False


class MicrosimulationGenerator:
    """Deterministic population evolution plus drift-aware batch emission."""

    def __init__(self, config: GeneratorConfig) -> None:
        self._config = config
        self._schema = population_schema()
        self._rng = np.random.default_rng(config.seed)
        self._income_scale = _BASE_INCOME_SCALE
        # Person-level state arrays (the living population).
        n = config.initial_rows
        self._age = self._rng.integers(0, 95, n).astype(np.int64)
        self._sex = self._rng.integers(0, len(SEX_CODES), n).astype(np.int64)
        self._region = self._rng.integers(0, SEEDED_REGIONS, n).astype(np.int64)
        self._occupation = self._rng.integers(0, SEEDED_OCCUPATIONS, n).astype(
            np.int64
        )
        self._income = np.clip(
            self._rng.gamma(2.0, self._income_scale / 2.0, n), 0.0, INCOME_CAP
        )
        # Codes already emitted into the stream (indices into the declared
        # domains).  Preserve periods sample strictly from these, so they
        # provably observe no new code.
        self._emitted_regions = sorted(set(self._region.tolist()))
        self._emitted_occupations = sorted(set(self._occupation.tolist()))
        self._initial_rows = self._materialise_rows(np.arange(n))
        self._plan = {
            event.period: event for event in config.drift_plan()
        }
        self._widening = config.widening_schedule()

    # -- public API ----------------------------------------------------------

    @property
    def config(self) -> GeneratorConfig:
        return self._config

    def schema(self) -> Schema:
        return self._schema

    def initial_rows(self) -> list[dict]:
        """The period-0 population as append-ready rows."""
        return [dict(row) for row in self._initial_rows]

    def build_table(self) -> Table:
        """The initial population as a :class:`Table` (period 0)."""
        return Table(
            self._schema,
            {
                "age": np.array(
                    [row["age"] for row in self._initial_rows], dtype=float
                ),
                "sex": np.array(
                    [row["sex"] for row in self._initial_rows], dtype=object
                ),
                "region": np.array(
                    [row["region"] for row in self._initial_rows], dtype=object
                ),
                "occupation": np.array(
                    [row["occupation"] for row in self._initial_rows], dtype=object
                ),
                "income": np.array(
                    [row["income"] for row in self._initial_rows], dtype=float
                ),
            },
        )

    def batches(self) -> Iterator[PeriodBatch]:
        """Evolve the population and yield one batch per configured period."""
        for period in range(1, self._config.periods + 1):
            yield self._step(period)

    # -- the simulation step -------------------------------------------------

    def _step(self, period: int) -> PeriodBatch:
        rng = self._rng
        # Ageing and mortality: the hazard rises steeply with age, and
        # everybody at the age cap leaves the population.
        self._age = self._age + 1
        hazard = 0.002 + 0.25 * (self._age / MAX_AGE) ** 4
        survivors = (rng.random(len(self._age)) >= hazard) & (self._age <= MAX_AGE)
        self._keep(survivors)

        # Births: newborns inherit a parent's region, draw an occupation
        # from the emitted pool, and start with no income.
        n_births = max(1, int(round(0.02 * len(self._age))))
        parent = rng.integers(0, max(len(self._age), 1), n_births)
        birth_region = (
            self._region[parent]
            if len(self._age)
            else rng.integers(0, SEEDED_REGIONS, n_births)
        )
        self._age = np.concatenate([self._age, np.zeros(n_births, dtype=np.int64)])
        self._sex = np.concatenate(
            [self._sex, rng.integers(0, len(SEX_CODES), n_births)]
        )
        self._region = np.concatenate([self._region, birth_region])
        self._occupation = np.concatenate(
            [
                self._occupation,
                np.asarray(self._emitted_occupations)[
                    rng.integers(0, len(self._emitted_occupations), n_births)
                ],
            ]
        )
        self._income = np.concatenate([self._income, np.zeros(n_births)])

        # Migration: a slice of the population resamples its region from the
        # emitted pool; occupations churn similarly.
        movers = rng.random(len(self._age)) < 0.03
        self._region[movers] = np.asarray(self._emitted_regions)[
            rng.integers(0, len(self._emitted_regions), int(movers.sum()))
        ]
        switchers = rng.random(len(self._age)) < 0.02
        self._occupation[switchers] = np.asarray(self._emitted_occupations)[
            rng.integers(0, len(self._emitted_occupations), int(switchers.sum()))
        ]

        # Income dynamics: multiplicative noise around the period's scale.
        widened = bool(self._widening[period - 1])
        if widened:
            # Data-only drift: push the income distribution toward the
            # declared cap.  Legal values, new territory, no new code.
            self._income_scale = min(self._income_scale * 1.6, INCOME_CAP / 2.0)
        working = self._age >= 18
        drift_factor = np.exp(rng.normal(0.0, 0.05, len(self._income)))
        self._income = np.where(
            working,
            np.clip(
                np.maximum(self._income, 0.1 * self._income_scale) * drift_factor,
                0.0,
                INCOME_CAP,
            ),
            0.0,
        )
        if widened:
            boosted = rng.random(len(self._income)) < 0.05
            self._income[boosted & working] = np.clip(
                self._income[boosted & working] * 2.5, 0.0, INCOME_CAP
            )

        # Emit the panel batch: newborns first, then a re-observation sample
        # of survivors, capped at rows_per_period.
        target = self._config.rows_per_period
        newborn_indices = np.arange(len(self._age) - n_births, len(self._age))
        n_resample = max(target - len(newborn_indices), 0)
        resampled = rng.choice(
            len(self._age), size=min(n_resample, len(self._age)), replace=False
        )
        indices = np.concatenate([newborn_indices, np.sort(resampled)])[:target]

        # Drift injection: on a scheduled period, the planned code is
        # assigned to a slice of the batch *before* materialising rows.
        introduces: dict[str, tuple[str, ...]] = {}
        event = self._plan.get(period)
        if event is not None:
            n_drift = max(1, len(indices) // 50)
            chosen = indices[
                rng.choice(len(indices), size=n_drift, replace=False)
            ]
            if event.attribute == "region":
                code = REGION_CODES.index(event.value)
                self._region[chosen] = code
                self._emitted_regions = sorted(
                    set(self._emitted_regions) | {code}
                )
            else:
                code = OCCUPATION_CODES.index(event.value)
                self._occupation[chosen] = code
                self._emitted_occupations = sorted(
                    set(self._emitted_occupations) | {code}
                )
            introduces[event.attribute] = (event.value,)

        rows = self._materialise_rows(indices)
        return PeriodBatch(
            period=period,
            rows=rows,
            introduces=introduces,
            changes_fingerprint=bool(introduces),
            widened=widened,
        )

    # -- helpers -------------------------------------------------------------

    def _keep(self, mask: np.ndarray) -> None:
        self._age = self._age[mask]
        self._sex = self._sex[mask]
        self._region = self._region[mask]
        self._occupation = self._occupation[mask]
        self._income = self._income[mask]

    def _materialise_rows(self, indices: np.ndarray) -> tuple[dict, ...]:
        rows = []
        for i in indices:
            rows.append(
                {
                    "age": int(self._age[i]),
                    "sex": SEX_CODES[int(self._sex[i])],
                    "region": REGION_CODES[int(self._region[i])],
                    "occupation": OCCUPATION_CODES[int(self._occupation[i])],
                    "income": round(float(self._income[i]), 2),
                }
            )
        return tuple(rows)


def generate_stream(config: GeneratorConfig) -> tuple[list[dict], list[PeriodBatch]]:
    """Convenience: the initial rows and every period batch, fully realised."""
    generator = MicrosimulationGenerator(config)
    initial = generator.initial_rows()
    batches = list(generator.batches())
    schedule = config.drift_schedule()
    actual = tuple(batch.changes_fingerprint for batch in batches)
    if actual != schedule:
        raise ApexError(
            "generator drift outcome diverged from the configured schedule: "
            f"planned {schedule}, emitted {actual}"
        )
    return initial, batches
