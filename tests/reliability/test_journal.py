"""The write-ahead journal: framing, torn tails, corruption, recovery math."""

import os

import pytest

from repro.core.accounting import PrivacyLedger
from repro.core.exceptions import ApexError, JournalCorruptError
from repro.reliability.journal import (
    JournalRecovery,
    LedgerJournal,
    _encode,
    read_journal,
)


def journal_path(tmp_path) -> str:
    return str(tmp_path / "ledger.wal")


class TestRoundTrip:
    def test_append_then_reopen_replays_exactly(self, tmp_path):
        # Every append is fsync'd; closing and reopening replays it exactly.
        path = journal_path(tmp_path)
        with LedgerJournal(path) as journal:
            journal.append("commit", eps_upper=0.5, eps_spent=0.3, query="q1")
            journal.append("deny", query="q2")
        recovery = LedgerJournal(path).recovery
        assert len(recovery.records) == 2
        assert len(recovery.committed) == 1
        assert len(recovery.denials) == 1
        assert recovery.spent == 0.3
        assert recovery.truncated_bytes == 0

    def test_floats_roundtrip_bit_identical(self, tmp_path):
        path = journal_path(tmp_path)
        eps = 0.1 + 0.2  # a float with no short decimal representation
        with LedgerJournal(path) as journal:
            journal.append("commit", eps_spent=eps, eps_upper=eps)
        recovery = LedgerJournal(path).recovery
        assert recovery.spent == eps  # exact, not approximate

    def test_seq_strictly_increasing_across_restarts(self, tmp_path):
        path = journal_path(tmp_path)
        with LedgerJournal(path) as journal:
            first = journal.append("deny", query="a")
        with LedgerJournal(path) as journal:
            second = journal.append("deny", query="b")
        assert second > first

    def test_unknown_op_rejected(self, tmp_path):
        with LedgerJournal(journal_path(tmp_path)) as journal:
            for op in ("frobnicate", "reserve", "release"):
                with pytest.raises(ApexError, match="unknown journal op"):
                    journal.append(op)

    def test_append_after_close_rejected(self, tmp_path):
        journal = LedgerJournal(journal_path(tmp_path))
        journal.close()
        with pytest.raises(ApexError, match="closed"):
            journal.append("deny")


class TestTornTail:
    def test_torn_tail_is_truncated(self, tmp_path):
        path = journal_path(tmp_path)
        with LedgerJournal(path) as journal:
            journal.append("commit", eps_spent=0.2, eps_upper=0.2)
        with open(path, "ab") as handle:
            handle.write(b"deadbeef {\"torn\": tr")  # no newline, bad json
        records, truncated = read_journal(path)
        assert len(records) == 1
        assert truncated > 0
        # repair=True physically truncates; the reopened journal is clean
        recovery = LedgerJournal(path).recovery
        assert recovery.truncated_bytes > 0
        assert read_journal(path) == ([r for r in recovery.records], 0) or (
            read_journal(path)[1] == 0
        )

    def test_bitflipped_tail_is_truncated(self, tmp_path):
        path = journal_path(tmp_path)
        with LedgerJournal(path) as journal:
            journal.append("commit", eps_spent=0.2, eps_upper=0.2)
            journal.append("commit", eps_spent=0.1, eps_upper=0.1)
        blob = open(path, "rb").read()
        flipped = blob[:-5] + bytes([blob[-5] ^ 0xFF]) + blob[-4:]
        with open(path, "wb") as handle:
            handle.write(flipped)
        records, truncated = read_journal(path)
        assert len(records) == 1  # the damaged last record is dropped
        assert truncated > 0

    def test_mid_file_corruption_refuses_to_truncate(self, tmp_path):
        path = journal_path(tmp_path)
        with LedgerJournal(path) as journal:
            journal.append("commit", eps_spent=0.2, eps_upper=0.2)
            journal.append("commit", eps_spent=0.1, eps_upper=0.1)
        blob = open(path, "rb").read()
        first_end = blob.index(b"\n") + 1
        # Corrupt the FIRST record; the second stays valid -> not a torn tail.
        damaged = b"x" * (first_end - 1) + blob[first_end - 1 :]
        with open(path, "wb") as handle:
            handle.write(damaged)
        with pytest.raises(JournalCorruptError, match="mid-file corruption"):
            read_journal(path)
        with pytest.raises(JournalCorruptError):
            LedgerJournal(path)  # opening must also refuse, not silently drop

    def test_sequence_regression_is_corruption(self, tmp_path):
        path = journal_path(tmp_path)
        with open(path, "wb") as handle:
            handle.write(_encode({"op": "deny", "seq": 5}))
            handle.write(_encode({"op": "deny", "seq": 3}))
        with pytest.raises(JournalCorruptError, match="regressed"):
            read_journal(path)

    def test_missing_file_is_empty_recovery(self, tmp_path):
        assert read_journal(str(tmp_path / "nope.wal")) == ([], 0)


class TestRecoveryMath:
    def test_older_reserve_release_journal_recovers_commits_only(self):
        # Journals written before reservations stopped being journaled carry
        # reserve/release records and a commit ``rid``: replay ignores them.
        # The unresolved reserve (seq 3) released no answer, so costs nothing.
        records = [
            {"op": "reserve", "seq": 1, "eps_upper": 0.5, "query": "q1"},
            {"op": "commit", "seq": 2, "rid": 1, "eps_spent": 0.3,
             "eps_upper": 0.5, "query": "q1"},
            {"op": "reserve", "seq": 3, "eps_upper": 0.4, "query": "q2"},
            {"op": "reserve", "seq": 4, "eps_upper": 0.2, "query": "q3"},
            {"op": "release", "seq": 5, "rid": 4},
        ]
        recovery = JournalRecovery.from_records(records)
        assert recovery.spent == 0.3
        assert [r["seq"] for r in recovery.committed] == [2]
        assert len(recovery.records) == 5
        ledger = PrivacyLedger(1.0)
        assert ledger.adopt_recovery(recovery) == 1
        assert [e.query_name for e in ledger.transcript] == ["q1"]
        assert ledger.spent == 0.3
        assert ledger.transcript.is_valid(1.0)

    def test_denials_cost_nothing(self):
        recovery = JournalRecovery.from_records(
            [{"op": "deny", "seq": 1, "query": "q"}]
        )
        assert recovery.spent == 0.0
        assert len(recovery.denials) == 1

    def test_unknown_ops_preserved_but_ignored(self):
        recovery = JournalRecovery.from_records(
            [{"op": "future-op", "seq": 1, "eps_spent": 9.0}]
        )
        assert recovery.spent == 0.0
        assert len(recovery.records) == 1


class TestDurability:
    def test_stats_counters(self, tmp_path):
        path = journal_path(tmp_path)
        with LedgerJournal(path) as journal:
            journal.append("deny")
            stats = journal.stats()
        assert stats["appended_records"] == 1
        assert stats["recovered_records"] == 0
        reopened = LedgerJournal(path)
        assert reopened.stats()["recovered_records"] == 1
        assert os.path.exists(reopened.path)
