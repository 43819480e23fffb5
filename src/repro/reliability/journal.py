"""The write-ahead ledger journal: durable privacy accounting.

:class:`~repro.core.accounting.PrivacyLedger`'s books live in process
memory; a crash would silently forget the committed spend, letting a
restarted service overspend the owner budget ``B``.  :class:`LedgerJournal`
closes that hole with the classic database move: an append-only, fsync'd,
checksummed log written **before** the in-memory mutation it records.

Record format
-------------

One record per line::

    <crc32 of payload, 8 hex chars> <canonical JSON payload>\\n

The payload is ``json.dumps(..., sort_keys=True)`` of a flat object that
always carries ``seq`` (strictly increasing) and ``op`` (``commit`` /
``deny``), plus the op's fields (``eps_upper`` / ``eps_spent`` carry the
losses; ``query`` / ``kind`` / ``mechanism`` / ``alpha`` / ``beta`` /
``analyst`` let recovery reconstruct transcript entries).  JSON round-trips
floats exactly, so recovered epsilons are bit-identical to what was charged.

Write-ahead ordering and what each crash point means
----------------------------------------------------

A ``commit`` is appended and fsync'd inside
:meth:`~repro.core.accounting.PrivacyLedger.charge`, before the ledger
mutates and before the answer is returned to anyone:

* crash before the append -- no answer left the process; nothing is owed;
* crash between append and mutation (or before the answer is acked) --
  recovery charges the exact loss of an answer nobody may have seen, which
  is the safe direction;
* crash after mutation -- journal and memory agree.

Reservations are never journaled: one that dies with its process released
nothing.

Recovery semantics (:class:`JournalRecovery`)
---------------------------------------------

Commits replay exactly and denials replay as free entries, in journal
order; any other op (e.g. the ``reserve`` / ``release`` records older
journals carry) is kept in ``records`` but ignored.  A torn or rotted
**tail** (the partially written last records of a crashed process) fails
its checksum and is truncated; corruption *before* valid records cannot
come from a torn write and raises
:class:`~repro.core.exceptions.JournalCorruptError` instead of silently
dropping the committed spend recorded after it.
"""

from __future__ import annotations

import json
import os
import threading
import zlib
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from repro.core.exceptions import ApexError, JournalCorruptError
from repro.reliability.faults import fail_point

__all__ = ["JournalRecord", "JournalRecovery", "LedgerJournal", "read_journal"]

#: Journal ops understood by recovery.  Unknown ops in a valid record are
#: preserved in ``records`` but ignored by the replay.
OPS = ("commit", "deny")

#: A parsed journal record: the payload object, as written.
JournalRecord = Mapping[str, Any]


def _encode(payload: Mapping[str, Any]) -> bytes:
    data = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    crc = zlib.crc32(data) & 0xFFFFFFFF
    return b"%08x " % crc + data + b"\n"


def _decode(line: bytes) -> dict[str, Any] | None:
    """The payload of one complete line, or ``None`` when it fails the gate."""
    if len(line) < 10 or line[8:9] != b" ":
        return None
    try:
        declared = int(line[:8], 16)
    except ValueError:
        return None
    data = line[9:]
    if zlib.crc32(data) & 0xFFFFFFFF != declared:
        return None
    try:
        payload = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, ValueError):
        return None
    if not isinstance(payload, dict):
        return None
    seq = payload.get("seq")
    if not isinstance(seq, int) or not isinstance(payload.get("op"), str):
        return None
    return payload


def read_journal(
    path: str, *, repair: bool = False
) -> tuple[list[dict[str, Any]], int]:
    """Parse a journal file; return ``(records, truncated_bytes)``.

    Scans record by record.  The first bad record (checksum, JSON or framing
    failure, or a missing trailing newline) ends the scan: if *everything*
    from there to EOF is also bad, it is a torn tail -- ``truncated_bytes``
    reports its size and, with ``repair=True``, the file is physically
    truncated back to the last good record.  If any *valid* record follows
    the bad one, the damage is mid-file rot, not a torn write, and
    :class:`~repro.core.exceptions.JournalCorruptError` is raised (see the
    module docstring for why truncating there would be unsound).
    """
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except FileNotFoundError:
        return [], 0

    records: list[dict[str, Any]] = []
    offset = 0
    good_end = 0
    last_seq: int | None = None
    bad_at: int | None = None
    while offset < len(blob):
        newline = blob.find(b"\n", offset)
        if newline < 0:
            bad_at = offset  # unterminated final record: torn write
            break
        payload = _decode(blob[offset:newline])
        if payload is None:
            bad_at = offset
            break
        if last_seq is not None and payload["seq"] <= last_seq:
            # A sequence regression means interleaved writers or replayed
            # blocks -- not a torn tail; refuse rather than guess.
            raise JournalCorruptError(
                f"journal {path!r}: sequence regressed from {last_seq} to "
                f"{payload['seq']} at byte {offset}"
            )
        last_seq = payload["seq"]
        records.append(payload)
        offset = newline + 1
        good_end = offset

    if bad_at is not None:
        # Torn tail iff no complete valid record exists after the bad one.
        rest = blob[bad_at:]
        search = 0
        while True:
            newline = rest.find(b"\n", search)
            if newline < 0:
                break
            if _decode(rest[search:newline]) is not None:
                raise JournalCorruptError(
                    f"journal {path!r}: corrupt record at byte {bad_at} is "
                    f"followed by valid records -- mid-file corruption, "
                    f"refusing to truncate committed history"
                )
            search = newline + 1
        if repair:
            with open(path, "r+b") as handle:
                handle.truncate(good_end)
        return records, len(blob) - good_end
    return records, 0


@dataclass(frozen=True)
class JournalRecovery:
    """What a replayed journal says the ledger state is.

    :ivar records: every valid record, in journal order (unknown ops too).
    :ivar committed: the ``commit`` records, in commit order.
    :ivar denials: the ``deny`` records, in order.
    :ivar spent: the exact replayed spend, summed over ``committed``.
    :ivar truncated_bytes: size of the torn tail dropped during the scan
        (``0`` for a clean shutdown).
    """

    records: tuple[JournalRecord, ...]
    committed: tuple[JournalRecord, ...]
    denials: tuple[JournalRecord, ...]
    spent: float
    truncated_bytes: int

    @property
    def empty(self) -> bool:
        return not self.records

    @classmethod
    def from_records(
        cls, records: Iterable[JournalRecord], truncated_bytes: int = 0
    ) -> "JournalRecovery":
        """Replay parsed records into the recovered accounting state."""
        records = tuple(records)
        committed = tuple(r for r in records if r["op"] == "commit")
        # Left-to-right like the ledger's running total (Python 3.12's sum()
        # compensates, which would not match it bit for bit).
        spent = 0.0
        for record in committed:
            spent += float(record.get("eps_spent", 0.0))
        return cls(
            records=records,
            committed=committed,
            denials=tuple(r for r in records if r["op"] == "deny"),
            spent=spent,
            truncated_bytes=truncated_bytes,
        )


class LedgerJournal:
    """An append-only, fsync'd, checksummed ledger journal on one file.

    Opening the journal scans (and, for a torn tail, repairs) whatever a
    previous process left behind; the replayed state is available as
    :attr:`recovery` and must be adopted by exactly one ledger
    (:meth:`~repro.core.accounting.PrivacyLedger.adopt_recovery`) before
    new operations are journaled.  Appends are thread-safe; the journal is
    single-writer by design -- one service process owns one journal file
    (the sharded/multi-process story goes through one journal per process).

    :param path: the journal file (created if missing; parent directories
        are created too).  Every append is fsync'd.
    """

    def __init__(self, path: str) -> None:
        self._path = os.path.abspath(str(path))
        self._lock = threading.Lock()
        parent = os.path.dirname(self._path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        records, truncated = read_journal(self._path, repair=True)
        self._recovery = JournalRecovery.from_records(records, truncated)
        self._next_seq = (records[-1]["seq"] + 1) if records else 1
        self._appended = 0
        self._handle = open(self._path, "ab")
        # Make the (possibly just-created, possibly just-truncated) file
        # itself durable before the first record relies on it.
        os.fsync(self._handle.fileno())
        self._fsync_dir(parent)

    # -- accessors ---------------------------------------------------------------

    @property
    def path(self) -> str:
        return self._path

    @property
    def recovery(self) -> JournalRecovery:
        """The state replayed from whatever was on disk when we opened."""
        return self._recovery

    def stats(self) -> dict[str, int]:
        """Counters: records recovered, records appended, torn bytes dropped."""
        with self._lock:
            return {
                "recovered_records": len(self._recovery.records),
                "truncated_bytes": self._recovery.truncated_bytes,
                "appended_records": self._appended,
                "next_seq": self._next_seq,
            }

    # -- append ------------------------------------------------------------------

    def append(self, op: str, **fields: Any) -> int:
        """Durably append one record; returns its ``seq``.

        The record is on disk and fsync'd before this returns -- callers
        mutate in-memory state only *after* that, which is the whole
        write-ahead contract.
        """
        if op not in OPS:
            raise ApexError(f"unknown journal op {op!r}; expected one of {OPS}")
        with self._lock:
            if self._handle.closed:
                raise ApexError(f"journal {self._path!r} is closed")
            seq = self._next_seq
            self._next_seq += 1
            line = _encode({"op": op, "seq": seq, **fields})
            fail_point("journal.append.before_write")
            self._handle.write(line)
            self._handle.flush()
            fail_point("journal.append.before_fsync")
            os.fsync(self._handle.fileno())
            fail_point("journal.append.after_fsync")
            self._appended += 1
            return seq

    def close(self) -> None:
        with self._lock:
            if not self._handle.closed:
                self._handle.close()

    def __enter__(self) -> "LedgerJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @staticmethod
    def _fsync_dir(parent: str) -> None:
        """Best-effort fsync of the containing directory (entry durability)."""
        try:
            fd = os.open(parent or ".", os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(fd)
        except OSError:
            pass
        finally:
            os.close(fd)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LedgerJournal(path={self._path!r})"
