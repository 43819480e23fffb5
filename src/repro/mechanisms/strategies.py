"""Strategy matrices for the matrix (strategy-based) mechanism.

The strategy-based mechanism (Section 5.2) answers a *strategy* workload ``A``
with Laplace noise and reconstructs the analyst workload ``W`` as
``W A^+ (A x + noise)``.  A good strategy has low sensitivity ``||A||_1`` while
letting the rows of ``W`` be reconstructed from few rows of ``A``.

Following the paper we ship the strategies used in its evaluation:

* the identity strategy (equivalent to plain Laplace on the histogram), and
* the hierarchical ``H2`` strategy (a binary tree of interval counts), which
  is what APEx uses for every query in Section 7.

Strategies are represented by :class:`StrategyMatrix`, which holds the
pseudo-inverse ``A^+`` and derives the reconstruction matrix ``W A^+`` needed
at run time, checking in the same product that ``W`` is reconstructible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.exceptions import MechanismError

__all__ = [
    "StrategyMatrix",
    "identity_strategy",
    "hierarchical_strategy",
    "workload_as_strategy",
]

#: Absolute tolerance of the ``W A^+ A == W`` reconstructibility check.
_RECONSTRUCTION_ATOL = 1e-6


@dataclass(frozen=True, eq=False)
class StrategyMatrix:
    """A strategy matrix ``A`` together with its pseudo-inverse ``A^+``.

    Immutable: ``A`` is copied and ``A^+`` computed once, at construction,
    and both arrays are read-only, so a strategy shared between workloads
    and threads is never written after it is published.

    Attributes
    ----------
    matrix:
        The ``l x P`` strategy matrix ``A`` (rows are strategy queries over the
        ``P`` workload partitions).
    name:
        Human-readable strategy name (``"identity"``, ``"H2"``, ...).
    pseudo_inverse:
        The Moore-Penrose pseudo-inverse ``A^+``.
    """

    matrix: np.ndarray
    name: str = "strategy"
    pseudo_inverse: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        matrix = np.array(self.matrix, dtype=float)
        if matrix.ndim != 2:
            raise MechanismError("a strategy matrix must be two-dimensional")
        if matrix.shape[0] == 0 or matrix.shape[1] == 0:
            raise MechanismError("a strategy matrix must be non-empty")
        pseudo_inverse = np.linalg.pinv(matrix)
        matrix.flags.writeable = False
        pseudo_inverse.flags.writeable = False
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "pseudo_inverse", pseudo_inverse)

    @property
    def n_queries(self) -> int:
        """Number of strategy queries (rows of ``A``)."""
        return self.matrix.shape[0]

    @property
    def n_partitions(self) -> int:
        return self.matrix.shape[1]

    @property
    def sensitivity(self) -> float:
        """``||A||_1``: the maximum column L1 norm."""
        return float(np.abs(self.matrix).sum(axis=0).max())

    def reconstruction(self, workload_matrix: np.ndarray) -> np.ndarray | None:
        """``W A^+``, which maps noisy strategy answers back to workload
        answers, or ``None`` when ``W`` cannot be reconstructed exactly
        (``W A^+ A != W``)."""
        workload_matrix = np.asarray(workload_matrix, dtype=float)
        if workload_matrix.shape[1] != self.n_partitions:
            raise MechanismError(
                f"workload has {workload_matrix.shape[1]} partitions, strategy "
                f"has {self.n_partitions}"
            )
        reconstruction = workload_matrix @ self.pseudo_inverse
        if not np.allclose(
            reconstruction @ self.matrix, workload_matrix, atol=_RECONSTRUCTION_ATOL
        ):
            return None
        return reconstruction

    def supports(self, workload_matrix: np.ndarray) -> bool:
        """Whether ``W`` can be reconstructed exactly, i.e. ``W A^+ A == W``."""
        workload_matrix = np.asarray(workload_matrix, dtype=float)
        return (
            workload_matrix.shape[1] == self.n_partitions
            and self.reconstruction(workload_matrix) is not None
        )


def identity_strategy(n_partitions: int) -> StrategyMatrix:
    """The identity strategy: one noisy count per partition."""
    if n_partitions <= 0:
        raise MechanismError("n_partitions must be positive")
    return StrategyMatrix(np.eye(n_partitions), name="identity")


def hierarchical_strategy(n_partitions: int, branching: int = 2) -> StrategyMatrix:
    """The hierarchical strategy ``H_b`` (``H2`` for ``branching=2``).

    The strategy contains one row per node of a ``branching``-ary tree whose
    leaves are the workload partitions: the root counts everything, each child
    counts its contiguous block of partitions, down to the leaves.  Every
    partition is counted once per level, so the sensitivity equals the number
    of tree levels, roughly ``log_b(n) + 1``.
    """
    if n_partitions <= 0:
        raise MechanismError("n_partitions must be positive")
    if branching < 2:
        raise MechanismError("branching factor must be at least 2")
    rows: list[np.ndarray] = []
    # Each level holds a list of (start, end) blocks covering [0, n).
    blocks: list[tuple[int, int]] = [(0, n_partitions)]
    while blocks:
        next_blocks: list[tuple[int, int]] = []
        for start, end in blocks:
            row = np.zeros(n_partitions)
            row[start:end] = 1.0
            rows.append(row)
            width = end - start
            if width <= 1:
                continue
            # Split the block into up to ``branching`` children of near-equal size.
            child_size = -(-width // branching)  # ceil division
            cursor = start
            while cursor < end:
                next_blocks.append((cursor, min(cursor + child_size, end)))
                cursor += child_size
        blocks = next_blocks
    matrix = np.vstack(rows)
    return StrategyMatrix(matrix, name=f"H{branching}")


def workload_as_strategy(workload_matrix: np.ndarray, name: str = "workload") -> StrategyMatrix:
    """Use the workload itself as the strategy (useful as a baseline/ablation)."""
    return StrategyMatrix(np.asarray(workload_matrix, dtype=float), name=name)
