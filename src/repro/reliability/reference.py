"""The budget oracle: Definition 6.1 with per-analyst caps, one step at a time.

:class:`ReferenceLedger` is written as plainly as possible (a HISTEX-style
oracle, like ``queries/reference.py`` and ``mechanisms/reference.py``), and
every budget history is judged by it: live ledgers through
:func:`replay_transcript` and :func:`replay_journal`
(``tests/service/test_reference_ledger.py``), and each crash-worker
incarnation through :func:`audit_incarnation` (the ``kill -9`` exerciser and
the crash-recovery tests).  The audit reads a journal only as
:func:`~repro.reliability.journal.read_journal` parses it, never through
:class:`~repro.reliability.journal.JournalRecovery`, so a recovery bug
cannot blind it.  Not imported by the service.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Iterable, Mapping, Sequence

#: Slack of every admission and every spend comparison.
TOL = 1e-12


class ReferenceLedger:
    """Definition 6.1 with per-analyst caps, one operation at a time.

    A worst-case loss ``u`` is admitted for analyst ``a`` only when it fits
    both the owner's ``B`` and ``a``'s cap, net of everything spent and
    everything held by admitted, unfinished runs.  A charge keeps only the
    actual loss; a denial costs nothing.
    """

    def __init__(self, budget: float, caps: Mapping[Any, float]) -> None:
        self.budget = budget
        self.caps = dict(caps)
        self.spent = dict.fromkeys(self.caps, 0.0)
        self.held: dict[object, tuple[Any, float]] = {}  # token -> (analyst, u)
        self.denials = 0

    @property
    def total_spent(self) -> float:
        return sum(self.spent.values())

    def remaining(self, analyst: Any) -> float:
        held = list(self.held.values())
        book = self.budget - self.total_spent - sum(u for _, u in held)
        own = self.caps[analyst] - self.spent[analyst]
        own -= sum(u for owner, u in held if owner == analyst)
        return max(min(book, own), 0.0)

    def reserve(self, token: object, analyst: Any, eps_upper: float) -> bool:
        if eps_upper > self.remaining(analyst) + TOL:
            return False
        self.held[token] = (analyst, eps_upper)
        return True

    def release(self, token: object) -> None:
        del self.held[token]

    def charge(self, token: object, eps_spent: float) -> None:
        analyst, eps_upper = self.held.pop(token)
        assert 0.0 <= eps_spent <= eps_upper + TOL
        self.spent[analyst] += eps_spent

    def deny(self, analyst: Any) -> None:
        assert analyst in self.caps
        self.denials += 1

    def accepts(self, analyst: Any, eps_upper: float, eps_spent: float) -> bool:
        """Admit and charge one answered entry; ``False`` (nothing charged)
        for a worst case it cannot admit or a loss outside ``[0, eps_upper]``."""
        token = object()
        if not 0.0 <= eps_spent <= eps_upper + TOL:
            return False
        if not self.reserve(token, analyst, eps_upper):
            return False
        self.charge(token, eps_spent)
        return True


def replay_transcript(reference: ReferenceLedger, entries: Iterable[Any]) -> list[str]:
    """Feed transcript entries in order; one violation per refused entry."""
    violations = []
    for entry in entries:
        if entry.denied:
            if entry.epsilon_spent != 0.0:
                violations.append(f"a denial spends {entry.epsilon_spent}: {entry}")
            reference.deny(entry.analyst)
        elif not reference.accepts(entry.analyst, entry.epsilon_upper, entry.epsilon_spent):
            violations.append(f"the reference refuses {entry}")
    return violations


def replay_journal(reference: ReferenceLedger, records: Iterable[Mapping]) -> list[str]:
    """Feed journal records in order; one violation per refused commit."""
    violations = []
    for record in records:
        analyst = record.get("analyst")
        if record["op"] == "deny":
            reference.deny(analyst)
        elif record["op"] == "commit" and not reference.accepts(
            analyst, record["eps_upper"], record["eps_spent"]
        ):
            remaining = reference.remaining(analyst)
            violations.append(f"the reference refuses {dict(record)} ({remaining} left)")
    return violations


def audit_incarnation(
    records: Sequence[Mapping], events: Iterable[Mapping], *, budget: float, before: int = 0
) -> list[str]:
    """Judge one crash-worker incarnation; returns its violations.

    ``records`` is its journal as ``read_journal`` parses it after the worker
    exited, of which the first ``before`` existed when it started; ``events``
    is its acknowledgement stream.  Analysts come first, so each cap is ``B``.

    1. Every commit is admitted, in journal order, with ``eps_spent <= eps_upper``.
    2. The multiset of answered explores' ``(analyst, mechanism,
       epsilon_spent)`` is contained in this incarnation's commits, compared
       exactly (JSON round-trips floats bit for bit).
    3. ``recovered`` reports the reference's total over the first ``before``
       records and ``done`` its total over all of them, within :data:`TOL`.
    4. Each ack's ``spent_total`` is the reference's running total at it.
    """
    reference = ReferenceLedger(budget, {r.get("analyst"): budget for r in records})
    violations = replay_journal(reference, records[:before])
    totals = [reference.total_spent]  # after each of this incarnation's commits
    journaled: Counter = Counter()
    for record in records[before:]:
        violations += replay_journal(reference, [record])
        if record["op"] == "commit":
            journaled[record.get("analyst"), record.get("mechanism"), record["eps_spent"]] += 1
            totals.append(reference.total_spent)
    acked: Counter = Counter()
    for event in events:
        explore = event["event"] == "ack" and event["op"] == "explore"
        if explore and not event["denied"] and event.get("error") is None:
            acked[event["analyst"], event["mechanism"], event["epsilon_spent"]] += 1
        spent = event.get("spent_total", event.get("spent"))
        if spent is None:
            continue
        expected = totals[min(sum(acked.values()), len(totals) - 1)]
        if event["event"] == "done":
            expected = reference.total_spent
        if abs(spent - expected) > TOL:
            where = " ".join(str(event[k]) for k in ("event", "index") if k in event)
            violations.append(f"{where} reports {spent} spent, the journal {expected}")
    if acked - journaled:
        violations.append(f"acked explores missing from the journal: {list(acked - journaled)}")
    return violations
