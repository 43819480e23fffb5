"""Exception hierarchy for the APEx reproduction.

Every error raised by the library derives from :class:`ApexError` so callers
can catch library failures with a single ``except`` clause while still being
able to distinguish the individual failure modes.
"""

from __future__ import annotations


class ApexError(Exception):
    """Base class for all errors raised by this library."""


class SchemaError(ApexError):
    """A schema or attribute-domain definition is invalid or inconsistent."""


class PredicateError(ApexError):
    """A predicate references unknown attributes or uses invalid operands."""


class QueryError(ApexError):
    """A query is malformed (e.g. ICQ without a threshold, TCQ with k <= 0)."""


class SnapshotError(ApexError):
    """A mutation was attempted on an immutable :class:`TableSnapshot`.

    Snapshots pin one version of a table for wait-free reading; writes must
    go to the live ``Table`` (``append_rows`` / ``refresh``), never to a
    snapshot handle.
    """


class ParseError(QueryError):
    """The SQL-like query text could not be parsed."""

    def __init__(self, message: str, position: int | None = None) -> None:
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class AccuracyError(ApexError):
    """An accuracy requirement (alpha, beta) is out of its valid range."""


class TranslationError(ApexError):
    """No mechanism could translate the accuracy requirement for a query."""


class MechanismError(ApexError):
    """A mechanism was invoked with inputs it does not support."""


class BudgetExceededError(ApexError):
    """Answering the query would exceed the data owner's privacy budget.

    The engine never raises it for a query it cannot afford: it *denies*
    the query (``ExplorationResult(denied=True)``).  Only the ledger's
    :meth:`~repro.core.accounting.PrivacyLedger.charge` raises it, for a
    charge made without a reservation whose worst case the analyst's
    headroom cannot admit.
    """

    def __init__(self, message: str, required: float, remaining: float) -> None:
        super().__init__(message)
        self.required = required
        self.remaining = remaining


class FaultInjected(ApexError):
    """An armed failpoint (:mod:`repro.reliability.faults`) fired.

    Only ever raised by fault-injection tests and the history exerciser;
    production code never arms failpoints.
    """


class JournalCorruptError(ApexError):
    """The write-ahead ledger journal is corrupt *before* its tail.

    A torn or rotted **tail** (the last, partially written records of a
    crashed process) is expected and is truncated silently on recovery.
    Corruption in the *middle* of the journal -- a bad record followed by
    valid ones -- cannot come from a torn write; truncating there would
    silently drop committed privacy spend recorded after it (an
    *under*-count, the one failure accounting must never have), so recovery
    refuses to proceed and surfaces this error instead.
    """


class LedgerInvariantError(ApexError):
    """A privacy-ledger internal invariant was violated.

    Raised by :meth:`~repro.core.accounting.PrivacyLedger.assert_invariants`
    when ``spent + reserved > B``, the reserved total disagrees with the set
    of active reservations (an orphaned or double-counted reservation), or
    the transcript's committed epsilon disagrees with ``spent``.  Any of
    these means an accounting bug, never analyst misuse.
    """


class RequestTimeoutError(ApexError):
    """A request exceeded its deadline and was aborted.

    The abort is cooperative (checked between the translation, mechanism
    run and charge steps) and always releases the request's budget
    reservation before raising, so a timed-out explore costs no privacy.
    """

    def __init__(self, message: str, *, elapsed: float, deadline: float) -> None:
        super().__init__(message)
        self.elapsed = elapsed
        self.deadline = deadline


class StoreLockTimeout(ApexError):
    """The artifact store's advisory file lock could not be acquired in time.

    Raised instead of blocking indefinitely on a cross-process ``flock``;
    callers degrade past it (skip the eviction pass, keep serving) rather
    than hanging the request path on a stuck sibling process.
    """

