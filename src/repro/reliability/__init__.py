"""Crash safety and fault tolerance for the exploration service.

The privacy budget is the one piece of state this system must never lose
track of: a crash that forgets committed spend would let a restarted
service overspend the owner budget ``B`` and void the paper's end-to-end
guarantee.  This package makes "budget never overspent, transcript always
valid" hold *across* process crashes, and makes that claim testable:

* :mod:`repro.reliability.journal` -- a write-ahead ledger journal: an
  append-only, fsync'd, checksummed record of every commit and denial,
  written by the ledger **before** the in-memory state mutates and before
  the answer is released, with crash recovery that replays the commits
  exactly;
* :mod:`repro.reliability.faults` -- a failpoint framework: named injection
  sites threaded through the accounting core, the artifact store and the
  service layer, no-op when disarmed, armable in-process or via an
  environment variable for subprocess crash tests;
* :mod:`repro.reliability.deadline` -- per-request deadlines with a
  cooperative timeout abort that releases budget reservations;
* :mod:`repro.reliability.exerciser` -- a property-based history exerciser
  that generates interleavings of explores / previews / appends /
  crashes / corruptions against real killed-and-restarted
  subprocesses (:mod:`repro.reliability.crash_worker`), judges every
  incarnation's journal and acknowledgements with the budget oracle, and
  checks Theorem 6.2 transcript validity and deterministic recovery;
* :mod:`repro.reliability.reference` -- the budget oracle: Definition 6.1
  with per-analyst caps (``ReferenceLedger``), one step at a time, and the
  audit of one crash-worker incarnation against it.

The full contract (WAL record format, recovery semantics, failpoint catalog,
degradation modes) is documented in ``docs/reliability.md``.
"""

from repro.reliability.deadline import Deadline
from repro.reliability.faults import (
    FAILPOINT_SITES,
    arm,
    arm_from_env,
    armed,
    disarm,
    disarm_all,
    fail_point,
    fault_stats,
    reset_fault_stats,
)
from repro.reliability.journal import (
    JournalRecord,
    JournalRecovery,
    LedgerJournal,
    read_journal,
)
from repro.reliability.retry import retry_with_backoff

__all__ = [
    "Deadline",
    "FAILPOINT_SITES",
    "JournalRecord",
    "JournalRecovery",
    "LedgerJournal",
    "arm",
    "arm_from_env",
    "armed",
    "disarm",
    "disarm_all",
    "fail_point",
    "fault_stats",
    "read_journal",
    "reset_fault_stats",
    "retry_with_backoff",
]
