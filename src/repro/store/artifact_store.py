"""A content-addressed, disk-backed artifact cache shared across processes.

The engine's accuracy-to-privacy translation lists, which include WCQ-SM's
Monte-Carlo epsilon searches, are pure functions of (workload structure,
attribute domains, alpha, beta).  :class:`ArtifactStore` persists them
under content digests (:mod:`repro.store.fingerprint`) so a *restarted*
process, or a sibling process on the same machine, warm-starts instead of
re-translating.

Design constraints, all stdlib-only:

* **atomic publication** -- payloads are written to a temporary file in the
  target directory and ``os.replace``-d into place, so a reader can never
  observe a half-written artifact; concurrent writers of the same key both
  produce valid files and the last rename wins;
* **corruption safety** -- every file carries a magic header and a SHA-256
  checksum of its payload; a truncated, torn or bit-flipped file fails
  verification, is deleted best-effort, and the caller silently rebuilds
  (a cache must never turn disk rot into a wrong answer);
* **cross-process exclusion** -- eviction rescans and :meth:`clear`
  serialize on an advisory file lock (``fcntl.flock`` where available,
  no-op otherwise; reads and writes themselves need no lock thanks to
  atomic renames).
  Acquisition is bounded: instead of blocking indefinitely on a stuck
  sibling process, a :class:`~repro.core.exceptions.StoreLockTimeout` is
  raised after ``lock_timeout`` seconds, and the internal callers (the
  eviction pass) degrade past it -- skip the pass, count it, keep serving;
* **bounded footprint** -- the store is LRU-evicted by file mtime (bumped
  on every hit) whenever a write pushes it over ``max_bytes``.  The check
  is O(1): a running byte total, seeded by one scan at construction and
  grown by every successful save, never underestimates this process's
  writes; only when it passes the cap is the directory rescanned (under
  the file lock, counting sibling processes' writes) and evicted down to
  80% of the cap.  Siblings' writes since this process's last scan can
  therefore overshoot the cap until the next rescan;
* **fault tolerance** -- transient IO failures are retried with exponential
  backoff (``io_retries``); a persistent streak of failures trips a
  degradation gate that bypasses the disk tier entirely (loads miss, saves
  no-op -- the in-memory memo tiers above keep the engine correct) until a
  cooldown expires and the disk is re-probed.  Corruption-triggered
  rebuilds are no longer silent: each evicted artifact is named in a
  ``logging`` warning and counted in ``corrupt_loads``;
* **observability** -- per-process hit/miss/write/corrupt/evict/retry/
  degradation counters via :meth:`stats`, surfaced through
  ``APExEngine.cache_stats()``.

Payloads are serialized with :mod:`pickle`.  The store directory is trusted
local cache state (same trust domain as the process's own memory); the
checksum guards against *corruption*, not against an adversary who can
already write arbitrary files as this user.
"""

from __future__ import annotations

import hashlib
import logging
import os
import pickle
import tempfile
import threading
import time

from repro.core.exceptions import StoreLockTimeout
from repro.reliability.faults import fail_point
from repro.reliability.retry import retry_with_backoff

__all__ = ["ArtifactStore", "DEFAULT_STORE_DIR"]

logger = logging.getLogger("repro.store")

#: Conventional store location (git-ignored); pass any path to override.
DEFAULT_STORE_DIR = ".repro-store"

#: File format marker; bump when the on-disk layout changes so old caches
#: read as misses instead of unpickling garbage.
_MAGIC = b"repro-store/1\n"

#: Default size cap (bytes) before LRU eviction kicks in.
_DEFAULT_MAX_BYTES = 256 * 1024 * 1024

#: Eviction target: shrink to this fraction of the cap so each eviction
#: pass buys headroom instead of re-triggering on the next write.
_EVICT_TO_FRACTION = 0.8

try:  # POSIX advisory locking; Windows/exotic platforms fall back to no-op.
    import fcntl
except ImportError:  # pragma: no cover - platform-dependent
    fcntl = None  # type: ignore[assignment]


class _FileLock:
    """Advisory cross-process lock on one file (no-op without ``fcntl``).

    Acquisition is non-blocking with retry: rather than parking forever in
    ``flock`` behind a stuck or dead-slow sibling process, the lock is
    polled every ``interval`` seconds until ``timeout`` elapses, then
    :class:`~repro.core.exceptions.StoreLockTimeout` is raised.
    ``timeout=None`` restores the old block-forever behaviour.
    """

    def __init__(
        self,
        path: str,
        *,
        timeout: float | None = 5.0,
        interval: float = 0.02,
    ) -> None:
        self._path = path
        self._timeout = timeout
        self._interval = interval
        self._handle = None

    def __enter__(self) -> "_FileLock":
        if fcntl is None:
            return self
        fail_point("store.lock.acquire")
        handle = open(self._path, "a+b")
        try:
            if self._timeout is None:
                fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            else:
                deadline = time.monotonic() + self._timeout
                while True:
                    try:
                        fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
                        break
                    except OSError:
                        if time.monotonic() >= deadline:
                            raise StoreLockTimeout(
                                f"could not acquire the store lock "
                                f"{self._path!r} within {self._timeout:.3g}s "
                                "-- another process holds it"
                            ) from None
                        time.sleep(self._interval)
        except BaseException:
            handle.close()
            raise
        self._handle = handle
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._handle is not None:
            try:
                fcntl.flock(self._handle.fileno(), fcntl.LOCK_UN)
            finally:
                self._handle.close()
                self._handle = None


class ArtifactStore:
    """Persist derived artifacts under ``(kind, content digest)`` keys.

    :param root: directory holding the cache (created if missing).  One
        store directory may be shared by any number of processes.
    :param max_bytes: size cap; a write that pushes the store past it
        evicts least-recently-used artifacts down to 80% of the cap.
    :param lock_timeout: seconds to wait for the eviction/clear file lock
        before raising :class:`StoreLockTimeout` (``None`` blocks forever).
    :param io_retries: transient-``OSError`` retries per load/save attempt.
    :param retry_base_delay: first backoff sleep; doubles per retry.
    :param degrade_after: consecutive hard IO failures before the disk tier
        is bypassed entirely (``0`` disables the gate).
    :param degrade_cooldown: seconds the gate stays closed before the disk
        is probed again.

    Thread-safe; every method may also race freely with other processes on
    the same directory (see the module docstring for the protocol).
    """

    def __init__(
        self,
        root: str,
        *,
        max_bytes: int = _DEFAULT_MAX_BYTES,
        lock_timeout: float | None = 5.0,
        io_retries: int = 2,
        retry_base_delay: float = 0.005,
        degrade_after: int = 4,
        degrade_cooldown: float = 30.0,
    ) -> None:
        if max_bytes <= 0:
            raise ValueError("max_bytes must be positive")
        if io_retries < 0:
            raise ValueError("io_retries must be >= 0")
        if degrade_after < 0:
            raise ValueError("degrade_after must be >= 0")
        self._root = os.path.abspath(str(root))
        os.makedirs(self._root, exist_ok=True)
        self._max_bytes = int(max_bytes)
        self._lock_path = os.path.join(self._root, ".lock")
        self._lock_timeout = lock_timeout
        self._io_retries = int(io_retries)
        self._retry_base_delay = float(retry_base_delay)
        self._degrade_after = int(degrade_after)
        self._degrade_cooldown = float(degrade_cooldown)
        self._stats_lock = threading.Lock()
        with self._stats_lock:
            #: Running artifact byte total: an upper bound on this process's
            #: view of the store, exact after each rescan.
            self._bytes = sum(size for _, size, _ in self._iter_files())
        self._fail_streak = 0
        self._degraded_until: float | None = None
        self._stats = {
            "hits": 0,
            "misses": 0,
            "writes": 0,
            "corrupt": 0,
            "corrupt_loads": 0,
            "evicted": 0,
            "io_errors": 0,
            "io_retries": 0,
            "lock_timeouts": 0,
            "degraded_skips": 0,
        }

    # -- accessors ---------------------------------------------------------------

    @property
    def root(self) -> str:
        """Absolute path of the store directory."""
        return self._root

    @property
    def max_bytes(self) -> int:
        return self._max_bytes

    def stats(self) -> dict[str, int]:
        """This process's hit/miss/write/corrupt/evict counters plus size.

        The size figures come from one directory walk per call; fine for
        observability polling, but do not put this on a per-request path.
        """
        with self._stats_lock:
            out = dict(self._stats)
            degraded = (
                self._degraded_until is not None
                and time.monotonic() < self._degraded_until
            )
        out["degraded"] = int(degraded)
        entries = 0
        disk_bytes = 0
        for _, size, _ in self._iter_files():
            entries += 1
            disk_bytes += size
        out["disk_bytes"] = disk_bytes
        out["entries"] = entries
        return out

    def disk_bytes(self) -> int:
        """Total bytes currently held by artifact files."""
        return sum(size for _, size, _ in self._iter_files())

    # -- load / save -------------------------------------------------------------

    def load(self, kind: str, digest: str) -> object | None:
        """The artifact stored under ``(kind, digest)``, or ``None``.

        ``None`` covers both absence and corruption: a file that fails the
        magic/checksum/unpickle gate is counted in ``corrupt`` (and
        ``corrupt_loads``), named in a warning, removed best-effort, and
        reported as a miss so the caller rebuilds.  Transient read errors
        are retried with backoff; a persistent failure streak trips the
        degradation gate and subsequent loads miss without touching disk.
        """
        path = self._path(kind, digest)
        if not self._disk_available():
            self._count("misses")
            return None

        def _read_blob() -> bytes | None:
            fail_point("store.load.read")
            try:
                with open(path, "rb") as handle:
                    return handle.read()
            except FileNotFoundError:
                return None

        try:
            blob = retry_with_backoff(
                _read_blob,
                retries=self._io_retries,
                base_delay=self._retry_base_delay,
                on_retry=self._on_io_retry,
            )
        except OSError:
            self._record_io_failure()
            self._count("misses")
            return None
        self._record_io_success()
        if blob is None:
            self._count("misses")
            return None
        payload = self._verify(blob)
        if payload is None:
            self._evict_corrupt(kind, digest, path, "checksum/header verification")
            return None
        try:
            value = pickle.loads(payload)
        except Exception:
            self._evict_corrupt(kind, digest, path, "unpickling")
            return None
        try:  # bump mtime: the eviction order is least-recently-*used*
            os.utime(path)
        except OSError:
            pass
        self._count("hits")
        return value

    def save(self, kind: str, digest: str, artifact: object) -> bool:
        """Persist ``artifact`` under ``(kind, digest)``; ``False`` on failure.

        Failures (unpicklable artifact, full disk, permission trouble) are
        swallowed: the store is an accelerator, never a correctness
        dependency, so the caller keeps its freshly built in-memory value
        either way.  Transient ``OSError`` failures are retried with
        backoff; while the degradation gate is tripped, saves no-op.
        """
        path = self._path(kind, digest)
        if not self._disk_available():
            return False
        try:
            payload = pickle.dumps(artifact, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            return False
        blob = (
            _MAGIC
            + hashlib.sha256(payload).hexdigest().encode("ascii")
            + b"\n"
            + payload
        )
        directory = os.path.dirname(path)

        def _write_blob() -> None:
            fail_point("store.save.write")
            os.makedirs(directory, exist_ok=True)
            fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(blob)
                os.replace(tmp_path, path)
            except BaseException:
                try:
                    os.remove(tmp_path)
                except OSError:
                    pass
                raise

        try:
            retry_with_backoff(
                _write_blob,
                retries=self._io_retries,
                base_delay=self._retry_base_delay,
                on_retry=self._on_io_retry,
            )
        except OSError:
            self._record_io_failure()
            return False
        self._record_io_success()
        with self._stats_lock:
            self._stats["writes"] += 1
            # An overwrite counts its key again: an overestimate, no stat.
            self._bytes += len(blob)
        self._evict_if_needed()
        return True

    def clear(self) -> None:
        """Remove every artifact (the lock file and directories stay).

        Raises :class:`StoreLockTimeout` if the cross-process lock cannot
        be acquired within ``lock_timeout`` -- an explicit purge that
        silently did nothing would be worse than a typed failure.
        """
        with _FileLock(self._lock_path, timeout=self._lock_timeout):
            seen = self._running_bytes()
            for path, _, _ in self._iter_files():
                try:
                    os.remove(path)
                except OSError:
                    pass
            self._sweep_stale_tmp_locked(max_age_seconds=0.0)
            self._rebase_bytes(seen, 0)

    # -- internals ---------------------------------------------------------------

    def _path(self, kind: str, digest: str) -> str:
        if not digest or not all(c in "0123456789abcdef" for c in digest):
            raise ValueError(f"malformed artifact digest: {digest!r}")
        safe_kind = "".join(c if c.isalnum() or c in "-_" else "_" for c in kind)
        return os.path.join(self._root, safe_kind, digest[:2], digest + ".bin")

    @staticmethod
    def _verify(blob: bytes) -> bytes | None:
        """The checksum-verified payload of one file, or ``None``."""
        if not blob.startswith(_MAGIC):
            return None
        rest = blob[len(_MAGIC) :]
        newline = rest.find(b"\n")
        if newline != 64:  # sha256 hex digest length
            return None
        declared = rest[:newline]
        payload = rest[newline + 1 :]
        actual = hashlib.sha256(payload).hexdigest().encode("ascii")
        if actual != declared:
            return None
        return payload

    def _iter_files(self):
        """Yield ``(path, size, mtime)`` for every artifact file."""
        for dirpath, _, filenames in os.walk(self._root):
            for filename in filenames:
                if not filename.endswith(".bin"):
                    continue
                path = os.path.join(dirpath, filename)
                try:
                    status = os.stat(path)
                except OSError:
                    continue
                yield path, status.st_size, status.st_mtime

    def _running_bytes(self) -> int:
        with self._stats_lock:
            return self._bytes

    def _rebase_bytes(self, seen: int, total: int) -> None:
        """Replace the ``seen`` running total with a rescan's ``total``.

        Saves that landed after ``seen`` was read stay counted on top (a
        save inside the scan window counts twice: an overestimate).
        """
        with self._stats_lock:
            self._bytes += total - seen

    def _evict_if_needed(self) -> None:
        """LRU-evict (by mtime) down to 80% of the cap when over it.

        O(1) while the running total is under the cap.  Over it, the store
        is rescanned under the file lock -- the rescan is where sibling
        processes' writes are counted -- and the total is reset to what
        the rescan found.  A lock-acquisition timeout skips the pass
        (counted in ``lock_timeouts``) and leaves the total over the cap,
        so the next save retries: whichever sibling holds the lock is
        evicting on our behalf, and a late eviction never threatens
        correctness.
        """
        if self._running_bytes() <= self._max_bytes:
            return
        try:
            lock = _FileLock(self._lock_path, timeout=self._lock_timeout)
            lock.__enter__()
        except StoreLockTimeout:
            self._count("lock_timeouts")
            return
        try:
            seen = self._running_bytes()
            files = list(self._iter_files())  # re-scan under the lock
            total = sum(size for _, size, _ in files)
            target = int(self._max_bytes * _EVICT_TO_FRACTION)
            if total <= self._max_bytes:
                target = total  # an overestimated total: nothing to evict
            for path, size, _ in sorted(files, key=lambda item: item[2]):
                if total <= target:
                    break
                try:
                    os.remove(path)
                except OSError:
                    continue
                total -= size
                self._count("evicted")
            self._sweep_stale_tmp_locked()
            self._rebase_bytes(seen, total)
        finally:
            lock.__exit__(None, None, None)

    def _sweep_stale_tmp_locked(self, max_age_seconds: float = 3600.0) -> None:
        """Delete orphaned ``.tmp`` files left by crashed writers (lock held).

        A writer killed between ``mkstemp`` and ``os.replace`` leaks its
        temporary file; those never become artifacts, are invisible to the
        size accounting, and would otherwise accumulate forever.  Only
        files older than ``max_age_seconds`` are swept so an in-flight
        writer's temp file is never yanked from under it.
        """
        cutoff = time.time() - max_age_seconds
        for dirpath, _, filenames in os.walk(self._root):
            for filename in filenames:
                if not filename.endswith(".tmp"):
                    continue
                path = os.path.join(dirpath, filename)
                try:
                    if os.stat(path).st_mtime <= cutoff:
                        os.remove(path)
                except OSError:
                    continue

    def _count(self, key: str) -> None:
        with self._stats_lock:
            self._stats[key] += 1

    def _evict_corrupt(self, kind: str, digest: str, path: str, stage: str) -> None:
        """Count, log and best-effort remove one corrupt artifact file."""
        logger.warning(
            "evicting corrupt artifact kind=%s digest=%s (failed %s); "
            "the caller will rebuild it",
            kind,
            digest,
            stage,
        )
        self._count("corrupt")
        self._count("corrupt_loads")
        self._count("misses")
        try:
            os.remove(path)
        except OSError:
            pass

    # -- degradation gate --------------------------------------------------------

    def _disk_available(self) -> bool:
        """Whether the disk tier should be touched at all right now."""
        if self._degrade_after <= 0:
            return True
        with self._stats_lock:
            if self._degraded_until is None:
                return True
            if time.monotonic() >= self._degraded_until:
                # Cooldown expired: re-probe the disk with a clean streak.
                self._degraded_until = None
                self._fail_streak = 0
                return True
            self._stats["degraded_skips"] += 1
            return False

    def _record_io_failure(self) -> None:
        with self._stats_lock:
            self._stats["io_errors"] += 1
            self._fail_streak += 1
            tripped = (
                self._degrade_after > 0
                and self._fail_streak >= self._degrade_after
                and self._degraded_until is None
            )
            if tripped:
                self._degraded_until = time.monotonic() + self._degrade_cooldown
        if tripped:
            logger.warning(
                "artifact store %s: %d consecutive IO failures; bypassing "
                "the disk tier for %.3gs (in-memory tiers keep serving)",
                self._root,
                self._degrade_after,
                self._degrade_cooldown,
            )

    def _record_io_success(self) -> None:
        with self._stats_lock:
            self._fail_streak = 0

    def _on_io_retry(self, attempt: int, exc: BaseException) -> None:
        self._count("io_retries")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ArtifactStore(root={self._root!r}, max_bytes={self._max_bytes})"
