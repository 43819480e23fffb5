"""The seeded synthetic table and workload shared by tests and workers.

One four-attribute schema (two nullable categoricals, a nullable numeric and
an integral numeric), a randomized table over it and a structured workload
mixing every predicate type.  Both builders are deterministic in their
arguments, so two processes that call them with the same seed and sizes see
equal tables, equal schemas and structurally equal workloads --
the property the cross-process warm-start worker
(:mod:`repro.bench.store_worker`), the crash worker
(:mod:`repro.reliability.crash_worker`) and the service tests rely on.
"""

from __future__ import annotations

import numpy as np

from repro.data.schema import (
    Attribute,
    CategoricalDomain,
    NumericDomain,
    Schema,
)
from repro.data.table import Table
from repro.queries.predicates import (
    And,
    Between,
    Comparison,
    In,
    IsNull,
    Not,
    Or,
    Predicate,
)
from repro.queries.workload import Workload

__all__ = [
    "bench_schema",
    "build_bench_table",
    "build_bench_workload",
]

_REGIONS = tuple(f"region-{i:02d}" for i in range(12))
_CHANNELS = ("web", "store", "phone", "mail", "app", "kiosk", "partner", "other")


def bench_schema() -> Schema:
    """The fixed four-attribute schema of the bench table and workload."""
    return Schema(
        [
            Attribute("region", CategoricalDomain(_REGIONS), nullable=True),
            Attribute("channel", CategoricalDomain(_CHANNELS), nullable=True),
            Attribute("amount", NumericDomain(0, 10_000), nullable=True),
            Attribute("age", NumericDomain(0, 100, integral=True)),
        ],
        name="Bench",
    )


def build_bench_table(n_rows: int, seed: int = 20190501) -> Table:
    """A randomized table with NULLs in both categorical and numeric columns."""
    schema = bench_schema()
    rng = np.random.default_rng(seed)
    region = np.array(
        [_REGIONS[i] for i in rng.integers(0, len(_REGIONS), n_rows)], dtype=object
    )
    region[rng.random(n_rows) < 0.05] = None
    channel = np.array(
        [_CHANNELS[i] for i in rng.integers(0, len(_CHANNELS), n_rows)], dtype=object
    )
    channel[rng.random(n_rows) < 0.03] = None
    amount = rng.uniform(0, 10_000, n_rows)
    amount[rng.random(n_rows) < 0.04] = np.nan
    age = rng.integers(0, 101, n_rows).astype(float)
    return Table(
        schema,
        {"region": region, "channel": channel, "amount": amount, "age": age},
    )


def build_bench_workload(n_predicates: int = 64, n_amount_cuts: int = 40) -> Workload:
    """A structured 64-predicate workload mixing every predicate type.

    The amount axis is cut at ``n_amount_cuts`` constants so the exact domain
    analysis enumerates well over 10k candidate cells
    (13 region atoms x 9 channel atoms x ~2*cuts amount atoms x age atoms).
    """
    cuts = [round(10_000 * (i + 1) / (n_amount_cuts + 1), 2) for i in range(n_amount_cuts)]
    predicates: list[Predicate] = []
    i = 0
    while len(predicates) < n_predicates:
        region = _REGIONS[i % len(_REGIONS)]
        channel = _CHANNELS[i % len(_CHANNELS)]
        low = cuts[i % (len(cuts) - 1)]
        high = cuts[(i % (len(cuts) - 1)) + 1]
        kind = i % 6
        if kind == 0:
            predicates.append(Comparison("region", "==", region))
        elif kind == 1:
            predicates.append(
                And([Comparison("channel", "==", channel), Between("amount", low, high)])
            )
        elif kind == 2:
            predicates.append(
                In("region", [_REGIONS[(i + j) % len(_REGIONS)] for j in range(3)])
            )
        elif kind == 3:
            predicates.append(
                Or([IsNull("amount"), Comparison("amount", ">", high)])
            )
        elif kind == 4:
            predicates.append(
                Not(Or([Comparison("region", "==", region), IsNull("channel")]))
            )
        else:
            predicates.append(
                And([Comparison("age", ">=", float(10 + (i % 8) * 10)),
                     Comparison("channel", "!=", channel)])
            )
        i += 1
    return Workload(predicates[:n_predicates])
