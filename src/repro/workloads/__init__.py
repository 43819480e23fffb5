"""Longitudinal workload generation: microsimulation streams with drift.

This package turns the engine's streaming machinery into something that can
be exercised at scale without shipping a real longitudinal dataset: a
seeded, deterministic liam2-style microsimulation
(:class:`~repro.workloads.population.MicrosimulationGenerator`) evolves a
synthetic population over simulated periods (births, deaths, ageing,
migration, income dynamics) and emits

* per-period **append batches** whose new categorical codes are *planned
  in advance* by the drift knob
  (:attr:`~repro.workloads.config.GeneratorConfig.drift`):
  ``preserve`` keeps every batch inside the already-observed categorical
  domains, ``drift`` introduces declared-but-unobserved codes on a fixed
  schedule, ``mixed`` adds data-only numeric widening in between; and
* **multi-analyst replay scripts** (the :mod:`repro.service.replay` JSON
  format, extended with a ``generator`` op) whose query mixes come from
  parameterised structure templates, so a million-row streaming run is one
  ``python -m repro.workloads`` command.

Every batch carries its predicted ``changes_fingerprint`` flag (true when
it introduces a declared but unobserved code).  Drift shapes the data only:
the engine keys translations, matrices and searches by the query and the
declared schema, so the test battery in ``tests/workloads`` asserts that
preserve and drift streams alike rebuild nothing after warmup, while the
drift periods follow the schedule.
"""

from repro.workloads.config import DRIFT_MODES, GeneratorConfig
from repro.workloads.population import (
    MicrosimulationGenerator,
    PeriodBatch,
    population_schema,
)
from repro.workloads.scripts import (
    emit_script_payload,
    named_screen_workload,
    write_script,
)

__all__ = [
    "DRIFT_MODES",
    "GeneratorConfig",
    "MicrosimulationGenerator",
    "PeriodBatch",
    "population_schema",
    "emit_script_payload",
    "named_screen_workload",
    "write_script",
]
