"""kill -9 mid-explore, restart over the same journal: the acceptance test.

A real subprocess (:mod:`repro.reliability.crash_worker`) is SIGKILL'd at an
armed failpoint; a second incarnation over the same WAL directory must
recover every journaled commit (never under-count), keep the merged
transcript Theorem 6.2-valid, and -- given identical seeds -- produce
bit-identical answers across repeated recoveries.
"""

import json
import shutil

import pytest

from repro.reliability.exerciser import run_worker

BUDGET = 1.5
COMMON = dict(budget=BUDGET, n_rows=400, seed=20190501, mc_samples=150)

SCRIPT = [
    {"op": "explore", "analyst": "a0", "name": "q1"},
    {"op": "explore", "analyst": "a0", "name": "q2"},
]


def events_of(kind, events):
    return [e for e in events if e.get("event") == kind]


class TestKillNineMidExplore:
    @pytest.fixture()
    def crashed_journal(self, tmp_path):
        """A journal left behind by a worker killed between run and charge."""
        journal = str(tmp_path / "ledger.wal")
        rc, events, stderr = run_worker(
            journal,
            SCRIPT,
            failpoints="engine.explore.after_run=crash:1",
            **COMMON,
        )
        assert rc == -9, f"worker should have been SIGKILL'd: rc={rc} {stderr!r}"
        # It died inside the first explore: nothing was ever acknowledged.
        assert events_of("ack", events) == []
        return journal

    def test_unanswered_explore_recovers_nothing_and_is_valid(
        self, crashed_journal
    ):
        rc, events, stderr = run_worker(crashed_journal, [], **COMMON)
        assert rc == 0, stderr
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
            rc, events, stderr = run_worker(copy, SCRIPT, **COMMON)
            assert rc == 0, stderr
            copies.append(events)
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
        rc, events, stderr = run_worker(crashed_journal, SCRIPT, **COMMON)
        assert rc == 0, stderr
        for event in events:
            spent = event.get("spent_total", event.get("spent"))
            if spent is not None:
                assert float(spent) <= BUDGET + 1e-9
        done = events_of("done", events)[0]
        assert done["valid"]


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
        rc, events, stderr = run_worker(
            journal, SCRIPT, failpoints=f"{site}=crash:1", **COMMON
        )
        assert rc == -9, f"rc={rc} {stderr!r}"
        acked = sum(
            float(e.get("epsilon_spent", 0.0))
            for e in events_of("ack", events)
            if e.get("op") == "explore"
        )
        rc2, events2, stderr2 = run_worker(journal, [], **COMMON)
        assert rc2 == 0, stderr2
        recovered = events_of("recovered", events2)[0]
        assert recovered["valid"]
        assert recovered["spent"] + 1e-9 >= acked  # no under-count
        assert recovered["spent"] <= BUDGET + 1e-9


class TestCrashInsidePoolCommit:
    def test_pool_commit_crash_recovers_conservatively(self, tmp_path):
        """SIGKILL after the commit record hit the WAL but before the book
        applied it (the instant the old pool-mirror failpoint marked), so
        recovery must charge the unacked op (the safe direction) and stay
        valid."""
        journal = str(tmp_path / "ledger.wal")
        rc, events, stderr = run_worker(
            journal,
            SCRIPT,
            failpoints="ledger.charge.after_journal=crash:1",
            **COMMON,
        )
        assert rc == -9, f"rc={rc} {stderr!r}"
        # The book applies the commit after the journal but before the ack.
        assert events_of("ack", events) == []
        rc2, events2, stderr2 = run_worker(journal, [], **COMMON)
        assert rc2 == 0, stderr2
        recovered = events_of("recovered", events2)[0]
        assert recovered["valid"]
        assert 0.0 < recovered["spent"] <= BUDGET
        # Recovered spend is at least the journaled charge: never an
        # under-count across the crash boundary.
        rc3, events3, stderr3 = run_worker(journal, SCRIPT, **COMMON)
        assert rc3 == 0, stderr3
        done = events_of("done", events3)[0]
        assert done["valid"]


class TestCorruptedTailOnStartup:
    def test_garbage_tail_never_fails_startup(self, tmp_path):
        journal = str(tmp_path / "ledger.wal")
        rc, events, stderr = run_worker(
            journal,
            [{"op": "explore", "analyst": "a0", "name": "q1"}],
            **COMMON,
        )
        assert rc == 0, stderr
        with open(journal, "ab") as handle:
            handle.write(b"\x00\xffgarbage torn write")
        rc2, events2, stderr2 = run_worker(journal, [], **COMMON)
        assert rc2 == 0, stderr2
        recovered = events_of("recovered", events2)[0]
        assert recovered["truncated_bytes"] > 0
        assert recovered["valid"]
