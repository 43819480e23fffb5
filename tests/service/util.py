"""Shared helpers for the service tests: a small table and a thread runner."""

import threading

from repro.bench.fixtures import build_bench_table
from repro.data.table import Table


def small_table(n_rows: int = 2_000, seed: int = 20190501) -> Table:
    """A small randomized table (amount/age/region/channel, with NULLs)."""
    return build_bench_table(n_rows, seed=seed)


def run_threads(worker, args):
    """Run ``worker(arg)`` on one thread per ``arg``, released together by a
    barrier; fails if any thread raised or is still alive after 60 s."""
    args = list(args)
    barrier = threading.Barrier(len(args))
    errors = []

    def wrapped(arg):
        barrier.wait()
        try:
            worker(arg)
        except Exception as exc:  # noqa: BLE001 - surfaced via assertion below
            errors.append(f"thread {arg}: {type(exc).__name__}: {exc}")

    threads = [threading.Thread(target=wrapped, args=(arg,)) for arg in args]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()
    assert errors == []
