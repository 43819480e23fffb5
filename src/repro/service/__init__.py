"""Concurrent multi-analyst exploration service over the APEx engine.

This package turns the single-analyst :class:`~repro.core.engine.APExEngine`
into a thread-safe server: an :class:`ExplorationService` owns the sensitive
tables and the owner's total privacy budget ``B``, mints per-analyst ledgers
under a :class:`BudgetPolicy` (equal fixed shares, or first-come over the
whole budget), serializes admission control and charging through one budget
book (a :class:`~repro.core.accounting.PrivacyLedger` holding every
analyst's account) so concurrent ``explore`` calls can never jointly
overspend ``B``, and shares one translator, which coalesces concurrent
identical cold translations so one workload-matrix build serves every
concurrent duplicate.

The merged, cross-analyst transcript is maintained in commit order and can be
checked with the paper's Theorem 6.2 machinery at any time
(:meth:`ExplorationService.validate`).

``python -m repro.service`` replays a multi-analyst workload script against
the synthetic Adult / NYTaxi tables; see :mod:`repro.service.replay`.
"""

from repro.service.budget import BudgetPolicy, SessionLedger
from repro.service.exploration import AnalystSessionHandle, ExplorationService
from repro.service.replay import (
    AnalystScript,
    ReplayReport,
    RequestOutcome,
    ScriptRequest,
    default_script,
    load_script,
    replay,
)

__all__ = [
    "AnalystScript",
    "AnalystSessionHandle",
    "BudgetPolicy",
    "ExplorationService",
    "ReplayReport",
    "RequestOutcome",
    "ScriptRequest",
    "SessionLedger",
    "default_script",
    "load_script",
    "replay",
]
