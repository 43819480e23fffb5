"""Benchmark substrate: the paper's query benchmark, harness and reporting.

* :mod:`repro.bench.queries` -- the 12 exploration queries of Table 1
  (QW1-QW4, QI1-QI4, QT1-QT4) built against the synthetic Adult and NYTaxi
  tables.
* :mod:`repro.bench.harness` -- experiment runners that regenerate the series
  behind every table and figure of the paper's evaluation (Figures 2-7,
  Table 2).
* :mod:`repro.bench.reporting` -- plain-text rendering of the results in the
  shape the paper reports them.
* :mod:`repro.bench.fixtures` -- the seeded synthetic table and workload
  shared by the test suite and the subprocess workers.

Performance is measured end to end by ``benchmarks/e2e`` (see
``docs/benchmarks.md``), not by this package.
"""

from repro.bench.queries import (
    BenchmarkQuery,
    QueryBenchmark,
    build_benchmark,
)
from repro.bench.harness import (
    ERExperimentConfig,
    ExperimentConfig,
    clear_run_timings,
    last_run_timings,
    run_figure2,
    run_figure3,
    run_figure4a,
    run_figure4b,
    run_figure4c,
    run_figure5,
    run_figure6,
    run_figure7,
    run_table2,
)
from repro.bench.reporting import (
    format_records,
    format_table,
    records_to_csv,
    report,
    summarize_by,
)

__all__ = [
    "BenchmarkQuery",
    "QueryBenchmark",
    "build_benchmark",
    "ExperimentConfig",
    "ERExperimentConfig",
    "run_figure2",
    "run_figure3",
    "run_figure4a",
    "run_figure4b",
    "run_figure4c",
    "run_figure5",
    "run_figure6",
    "run_figure7",
    "run_table2",
    "format_table",
    "format_records",
    "records_to_csv",
    "summarize_by",
    "report",
    "last_run_timings",
    "clear_run_timings",
]
