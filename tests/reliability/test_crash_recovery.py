"""kill -9 mid-explore, restart over the same journal: the acceptance test.

A real subprocess (:mod:`repro.reliability.crash_worker`) is SIGKILL'd at an
armed failpoint; a second incarnation over the same WAL directory must keep
the merged transcript Theorem 6.2-valid and -- given identical seeds --
produce bit-identical answers across repeated recoveries.  Every incarnation
is audited by the budget oracle (``reliability/reference.py``): its journal
and acknowledgements must pass ``audit_incarnation``.  Scripts are replay
requests (``repro.service.replay``) with an ``analyst`` field.
"""

import json
import shutil

import pytest

from repro.bench.fixtures import bench_schema
from repro.reliability.exerciser import run_worker

BUDGET = 1.5
COMMON = dict(budget=BUDGET, n_rows=400, seed=20190501, mc_samples=150)

TAIL = "ERROR 20 CONFIDENCE 0.9995;"
AMOUNT = ", ".join(
    f"amount BETWEEN {low} AND {low + 1250}" for low in range(0, 10_000, 1250)
)
SCHEMA = bench_schema()
REGIONS = ", ".join(f"region = '{v}'" for v in SCHEMA["region"].domain.values)
CHANNELS = ", ".join(f"channel = '{v}'" for v in SCHEMA["channel"].domain.values)
WCQ = f"BIN D ON COUNT(*) WHERE W = {{{AMOUNT}}} {TAIL}"
ICQ = f"BIN D ON COUNT(*) WHERE W = {{{REGIONS}}} HAVING COUNT(*) > 16 {TAIL}"
TCQ = f"BIN D ON COUNT(*) WHERE W = {{{CHANNELS}}} ORDER BY COUNT(*) LIMIT 3 {TAIL}"

SCRIPT = [
    {"op": "explore", "analyst": "a0", "text": WCQ},
    {"op": "explore", "analyst": "a0", "text": WCQ},
]


def events_of(kind, events):
    return [e for e in events if e.get("event") == kind]


def run_audited(journal, ops, failpoints=None, budget=BUDGET):
    """One worker incarnation; returns its events.

    It must be SIGKILL'd exactly when a crash failpoint is armed, and its
    journal and acks must pass the budget oracle.
    """
    books = dict(COMMON, budget=budget, failpoints=failpoints)
    rc, events, stderr, violations = run_worker(journal, ops, **books)
    assert rc == (-9 if failpoints else 0), f"rc={rc} {stderr!r}"
    assert violations == []
    return events


class TestKillNineMidExplore:
    @pytest.fixture()
    def crashed_journal(self, tmp_path):
        """A journal left behind by a worker killed between run and charge."""
        journal = str(tmp_path / "ledger.wal")
        events = run_audited(journal, SCRIPT, "engine.explore.after_run=crash:1")
        # It died inside the first explore: nothing was ever acknowledged.
        assert events_of("ack", events) == []
        return journal

    def test_unanswered_explore_recovers_nothing_and_is_valid(
        self, crashed_journal
    ):
        events = run_audited(crashed_journal, [])
        recovered = events_of("recovered", events)[0]
        # The mechanism ran but its loss was never committed, so no answer
        # left the process: nothing is journaled and nothing is owed.
        assert recovered["spent"] == 0.0
        assert recovered["records"] == 0
        assert recovered["valid"]

    def test_repeated_recovery_is_bit_identical(self, crashed_journal, tmp_path):
        copies = []
        for name in ("r1", "r2"):
            copy = str(tmp_path / f"{name}.wal")
            shutil.copy2(crashed_journal, copy)
            copies.append(run_audited(copy, SCRIPT))
        # Same journal, same seed, same script => identical acknowledgement
        # streams, noisy answers included.
        assert json.dumps(copies[0], sort_keys=True) == json.dumps(
            copies[1], sort_keys=True
        )
        answers = [
            e["answer"]
            for e in events_of("ack", copies[0])
            if e.get("op") == "explore" and "answer" in e
        ]
        assert answers, "recovery should still answer at least one explore"

    def test_no_overspend_across_crash_boundary(self, crashed_journal):
        events = run_audited(crashed_journal, SCRIPT)
        assert events_of("done", events)[0]["valid"]


class TestCrashDuringJournalAppend:
    @pytest.mark.parametrize(
        "site",
        [
            "journal.append.before_write",
            "journal.append.before_fsync",
            "journal.append.after_fsync",
        ],
    )
    def test_any_append_crash_recovers_cleanly(self, tmp_path, site):
        journal = str(tmp_path / "ledger.wal")
        run_audited(journal, SCRIPT, f"{site}=crash:1")
        events = run_audited(journal, [])
        assert events_of("recovered", events)[0]["valid"]


class TestCrashInsidePoolCommit:
    def test_pool_commit_crash_recovers_conservatively(self, tmp_path):
        """SIGKILL after the commit record hit the WAL but before the book
        applied it (the instant the old pool-mirror failpoint marked), so
        recovery must charge the unacked op (the safe direction) and stay
        valid."""
        journal = str(tmp_path / "ledger.wal")
        events = run_audited(journal, SCRIPT, "ledger.charge.after_journal=crash:1")
        # The book applies the commit after the journal but before the ack.
        assert events_of("ack", events) == []
        recovered = events_of("recovered", run_audited(journal, []))[0]
        assert recovered["valid"]
        assert 0.0 < recovered["spent"] <= BUDGET
        # Recovered spend is at least the journaled charge: never an
        # under-count across the crash boundary.
        assert events_of("done", run_audited(journal, SCRIPT))[0]["valid"]


class TestCorruptedTailOnStartup:
    def test_garbage_tail_never_fails_startup(self, tmp_path):
        journal = str(tmp_path / "ledger.wal")
        run_audited(journal, [{"op": "explore", "analyst": "a0", "text": WCQ}])
        with open(journal, "ab") as handle:
            handle.write(b"\x00\xffgarbage torn write")
        recovered = events_of("recovered", run_audited(journal, []))[0]
        assert recovered["truncated_bytes"] > 0
        assert recovered["valid"]


class TestCrashMidIcqMpmCharge:
    """kill -9 inside ICQ-MPM's data-dependent charge, after an acked TCQ."""

    MIXED = [
        {"op": "explore", "analyst": "a0", "text": ICQ},
        {"op": "explore", "analyst": "a0", "text": TCQ},
    ]
    MIXED_BUDGET = 3.0

    def test_recovery_is_valid_conservative_and_bit_identical(self, tmp_path):
        journal = str(tmp_path / "ledger.wal")
        budget = self.MIXED_BUDGET
        (tcq,) = events_of("ack", run_audited(journal, self.MIXED[1:], budget=budget))
        assert tcq["mechanism"].startswith("TCQ-") and tcq["epsilon_spent"] > 0
        acked = tcq["epsilon_spent"]

        # The next incarnation's first charge is the ICQ-MPM explore's: the
        # commit is durable when the process dies, so nothing is acked.
        failpoint = "ledger.charge.after_journal=crash:1"
        events = run_audited(journal, self.MIXED, failpoint, budget=budget)
        assert events_of("ack", events) == []

        streams = []
        for name in ("r1", "r2"):
            copy = str(tmp_path / f"{name}.wal")
            shutil.copy2(journal, copy)
            streams.append(run_audited(copy, self.MIXED, budget=budget))
        assert json.dumps(streams[0], sort_keys=True) == json.dumps(
            streams[1], sort_keys=True
        )

        recovered = events_of("recovered", streams[0])[0]
        assert recovered["valid"]
        icq, tcq_again = events_of("ack", streams[0])
        assert icq["mechanism"] == "ICQ-MPM"
        # Same seed, same data: the rerun draws the noise the killed run
        # drew, so it charges exactly what that run journaled.
        assert recovered["spent"] == pytest.approx(acked + icq["epsilon_spent"])
        assert icq["answer"] and all(
            name.startswith("region = ") for name in icq["answer"]
        )
        assert len(tcq_again["answer"]) == 3
        assert all(name.startswith("channel = ") for name in tcq_again["answer"])
        assert events_of("done", streams[0])[0]["valid"]
