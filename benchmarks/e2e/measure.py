"""Timing primitives of the end-to-end benchmark.

Every timing the benchmark reports is CPU time, normalized by a fixed
reference kernel so that host contention (which a shared VM bills as CPU
time) cancels out:

* :class:`ReferenceKernel` -- ~20 ms of pure-Python arithmetic, dict
  updates, ``np.sort``, a small matmul, a random gather and ``np.unique``,
  timed with ``time.thread_time``.  It runs on the driving thread between
  blocks, never while a request is in flight.
* :class:`Block` -- one unit of measured work (a fraction of a second, or
  one cold request) bracketed by a kernel run before and after.  Its samples are
  scaled by ``REF_NOMINAL_S / mean(ref_before, ref_after)``, so normalized
  values read as seconds at nominal host speed; raw values are kept.
* :class:`BlockTimer` -- runs the brackets and measures each block's
  process CPU time.
"""

from __future__ import annotations

import contextlib
import threading
import time
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

#: Median reference-kernel time (seconds) on the 2-vCPU container the
#: benchmark was calibrated on.  A constant: changing it rescales every
#: normalized timing, so it changes only together with the baseline.
REF_NOMINAL_S = 0.0187

_LOOP_ITERATIONS = 60_000


class ReferenceKernel:
    """A fixed CPU workload whose duration tracks the host's current speed.

    Contention from other tenants slows memory-bound work more than work
    that stays in the core's caches, so beside interpreted arithmetic the
    kernel gathers at random from a 4 MB array and runs ``np.unique``, as
    the program's mask and histogram code does.  Measured over eight seeds
    per workload, this mix left a third less spread in the normalized
    timings than the arithmetic, sort and matmul alone.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._array = rng.random(120_000)
        self._matrix = rng.random((128, 128))
        self._large = rng.random(500_000)
        self._indices = rng.integers(0, len(self._large), 200_000)
        self._codes = rng.integers(0, 50_000, 50_000)
        #: Every measurement taken, in order (seconds of thread CPU time).
        self.series: list[float] = []

    def measure(self) -> float:
        """Run the kernel once; return (and record) its thread CPU time."""
        start = time.thread_time()
        acc = 0
        table: dict[int, int] = {}
        for i in range(_LOOP_ITERATIONS):
            acc = (acc * 31 + i) % 1_000_003
            table[i & 1023] = acc
        ordered = np.sort(self._array)
        product = self._matrix @ self._matrix
        gathered = self._large[self._indices].sum() + self._large[self._large > 0.5].sum()
        distinct = np.unique(self._codes)
        elapsed = time.thread_time() - start
        self._sink = (acc, float(ordered[0]), float(product[0, 0]), float(gathered), len(distinct))
        self.series.append(elapsed)
        return elapsed


@dataclass
class Block:
    """One bracketed unit of work and the raw samples taken inside it."""

    ref_before: float
    ref_after: float = float("nan")
    cpu_s: float = 0.0
    wall_s: float = 0.0
    #: Raw per-request thread CPU seconds, by request class.
    samples: dict[str, list[float]] = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def add(self, kind: str, seconds: float) -> None:
        with self._lock:
            self.samples.setdefault(kind, []).append(seconds)

    @property
    def factor(self) -> float:
        """Scale from raw to nominal-host seconds for everything in the block."""
        return REF_NOMINAL_S / ((self.ref_before + self.ref_after) / 2.0)

    def normalized(self, kind: str) -> list[float]:
        return [value * self.factor for value in self.samples.get(kind, [])]

    @property
    def ops(self) -> int:
        return sum(len(values) for values in self.samples.values())

    def to_json(self) -> dict:
        return {
            "ref_before": self.ref_before,
            "ref_after": self.ref_after,
            "factor": self.factor,
            "cpu_s": self.cpu_s,
            "wall_s": self.wall_s,
            "samples": {kind: list(values) for kind, values in self.samples.items()},
        }

    @classmethod
    def from_json(cls, payload: dict) -> "Block":
        return cls(
            ref_before=payload["ref_before"],
            ref_after=payload["ref_after"],
            cpu_s=payload["cpu_s"],
            wall_s=payload["wall_s"],
            samples={k: list(v) for k, v in payload.get("samples", {}).items()},
        )


class BlockTimer:
    """Bracket blocks with reference-kernel runs and time their process CPU."""

    def __init__(self, kernel: ReferenceKernel) -> None:
        self._kernel = kernel
        self._ref = kernel.measure()
        self.blocks: list[Block] = []

    @contextlib.contextmanager
    def block(self) -> Iterator[Block]:
        block = Block(ref_before=self._ref)
        cpu0, wall0 = time.process_time(), time.perf_counter()
        try:
            yield block
        finally:
            block.cpu_s = time.process_time() - cpu0
            block.wall_s = time.perf_counter() - wall0
            block.ref_after = self._ref = self._kernel.measure()
            self.blocks.append(block)


#: Below this many samples percentiles use the Harrell-Davis estimator.
SMALL_SAMPLE = 100


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100); NaN when empty.

    With fewer than :data:`SMALL_SAMPLE` samples (cold structures) a plain
    p90 jumps between neighbouring samples as noise reorders them, so the
    Harrell-Davis estimate is used: a Beta(p(n+1), (1-p)(n+1))-weighted
    average of all order statistics, which moves smoothly.  With more
    samples the plain (linear) percentile is already steady, and smoothing
    would reach across the cliffs of lumpy distributions (cache hits next
    to rebuilds a hundred times slower).
    """
    ordered = np.sort(np.asarray(values, dtype=float))
    n = len(ordered)
    if n < 2:
        return float(ordered[0]) if n else float("nan")
    if n >= SMALL_SAMPLE:
        return float(np.percentile(ordered, q))
    p = q / 100.0
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    # The Beta(a, b) CDF at i/n, by integrating its density on a fine grid.
    grid = np.linspace(0.0, 1.0, 100_001)
    inner = grid[1:-1]
    log_density = (a - 1.0) * np.log(inner) + (b - 1.0) * np.log1p(-inner)
    density = np.concatenate([[0.0], np.exp(log_density - log_density.max()), [0.0]])
    cdf = np.concatenate([[0.0], np.cumsum((density[1:] + density[:-1]) / 2.0)])
    cdf /= cdf[-1]
    weights = np.diff(np.interp(np.arange(n + 1) / n, grid, cdf))
    return float(weights @ ordered)
