"""Correctness checks applied to every answer the benchmark receives.

* A WCQ answer's max ``|noisy - true|`` over its bins must be at most
  ``alpha``.  The mechanisms promise this with probability ``1 - beta`` per
  answer, so up to the 99.9% upper quantile of ``Binomial(n, beta)`` of the
  ``n`` answers may miss; only misses beyond that allowance are failures.
* An ICQ/TCQ answer must be a subset of the query's bin names; its F1
  against the true bin set feeds ``answer_f1_mean``.
* The transcript must pass the paper's validity check (Definition 6.1 /
  Theorem 6.2) and its spend must stay within the owner's budget.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.core.accounting import Transcript
from repro.er.metrics import f1_sets
from repro.queries.query import QueryKind

MISS_QUANTILE = 0.999


def binomial_upper_quantile(n: int, p: float, q: float = MISS_QUANTILE) -> int:
    """Smallest ``k`` with ``P[Binomial(n, p) <= k] >= q``."""
    if n <= 0 or p <= 0.0:
        return 0
    if p >= 1.0:
        return n
    pmf = (1.0 - p) ** n
    cdf = pmf
    k = 0
    ratio = p / (1.0 - p)
    while cdf < q and k < n:
        pmf *= (n - k) / (k + 1) * ratio
        k += 1
        cdf += pmf
    return k


class AnswerChecker:
    """Accumulates per-answer check outcomes; thread-safe."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.wcq_answers = 0
        self.wcq_misses = 0
        self.max_beta = 0.0
        self.problems: list[str] = []

    def check(self, query, accuracy, answer, truth_table) -> tuple[bool, float | None]:
        """Check one answer against the exact answer on ``truth_table``.

        ``truth_table`` must be the version the request was admitted at.
        Returns ``(passed, f1)``; ``f1`` is ``None`` for WCQ answers.  A WCQ
        miss is only counted here -- whether it fails depends on how many
        misses the whole run saw (:meth:`excess_misses`).
        """
        if query.kind is QueryKind.WCQ:
            truth = np.asarray(query.true_counts(truth_table), dtype=float)
            noisy = np.asarray(answer, dtype=float)
            if noisy.shape != truth.shape:
                return self._fail(f"{query.name}: answer shape {noisy.shape} != {truth.shape}")
            miss = bool(np.max(np.abs(noisy - truth)) > accuracy.alpha)
            with self._lock:
                self.wcq_answers += 1
                self.wcq_misses += int(miss)
                self.max_beta = max(self.max_beta, float(accuracy.beta))
            return True, None
        reported = list(answer)
        unknown = set(reported) - set(query.bin_names())
        if unknown:
            return self._fail(f"{query.name}: answer names non-bins {sorted(unknown)[:3]}")
        return True, f1_sets(reported, query.true_answer(truth_table))

    def allowance(self) -> int:
        return binomial_upper_quantile(self.wcq_answers, self.max_beta)

    def excess_misses(self) -> int:
        """WCQ misses beyond the binomial allowance (each one a failure)."""
        return max(0, self.wcq_misses - self.allowance())

    def _fail(self, problem: str) -> tuple[bool, None]:
        with self._lock:
            self.problems.append(problem)
        return False, None


def transcript_problems(transcript: Transcript, budget: float, spent: float) -> list[str]:
    """Why a transcript breaks the budget contract (empty when it holds)."""
    problems = []
    if not transcript.is_valid(budget):
        problems.append("transcript fails the Theorem 6.2 validity check")
    if spent > budget * (1.0 + 1e-12):
        problems.append(f"spent {spent!r} exceeds the budget {budget!r}")
    return problems
