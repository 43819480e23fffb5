"""Shared fixtures for the service tests: a small synthetic table."""

from repro.bench.fixtures import build_bench_table
from repro.data.table import Table


def small_table(n_rows: int = 2_000, seed: int = 20190501) -> Table:
    """A small randomized table (amount/age/region/channel, with NULLs)."""
    return build_bench_table(n_rows, seed=seed)
