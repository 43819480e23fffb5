"""The shared Monte-Carlo noise array grows exactly once per missing block.

Service and executor threads run WCQ-SM/ICQ-SM searches of different sizes
concurrently, and every search slices the one process-wide standard-Laplace
array of its ``(seed, n_samples)``.  Eight threads each request a different
row count here, with aggressive preemption: every slice must equal a fresh
draw, and the array must end with exactly the largest count -- a double
growth or a lost block would leave it longer or break the continuation.
"""

import sys
import threading

import numpy as np
import pytest

from repro.mechanisms.strategy_mechanism import _NOISE, _standard_laplace

SEED = 424242
N_SAMPLES = 509
ROWS = (5, 31, 12, 47, 3, 26, 40, 19)


@pytest.fixture(autouse=True)
def aggressive_preemption():
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(old)


def test_concurrent_growth_matches_fresh_draws():
    _NOISE.pop((SEED, N_SAMPLES), None)
    start = threading.Barrier(len(ROWS))
    slices: dict[int, np.ndarray] = {}

    def body(rows):
        start.wait(timeout=30)
        for _ in range(5):
            slices[rows] = _standard_laplace(SEED, rows, N_SAMPLES)

    threads = [threading.Thread(target=body, args=(rows,)) for rows in ROWS]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads)

    for rows in ROWS:
        fresh = np.random.default_rng(SEED).laplace(0.0, 1.0, size=(rows, N_SAMPLES))
        assert np.array_equal(slices[rows], fresh)
    assert len(_NOISE[(SEED, N_SAMPLES)][1]) == max(ROWS)
    _NOISE.pop((SEED, N_SAMPLES), None)
