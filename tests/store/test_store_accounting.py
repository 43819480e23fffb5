"""ArtifactStore's running byte total: O(1) saves under the cap.

A save adds its blob length to a running total seeded by one scan at
construction; only a total over the cap rescans the directory (under the
file lock, which is where other processes' writes are counted) and evicts.
These tests pin that contract by counting directory walks and stats, not
by timing.
"""

import os

import pytest

from repro.store import ArtifactStore, stable_digest

try:
    import fcntl
except ImportError:  # pragma: no cover - POSIX-only tests below
    fcntl = None


def key(index: int) -> str:
    digest = stable_digest(("accounting", index))
    assert digest is not None
    return digest


def payload(index: int) -> bytes:
    return bytes([index % 251]) * 900


class CountWalks:
    """Counts ``os.walk`` calls and ``os.stat`` calls on artifact files."""

    def __init__(self, monkeypatch) -> None:
        self.walks = 0
        self.artifact_stats = 0
        real_walk, real_stat = os.walk, os.stat

        def walk(*args, **kwargs):
            self.walks += 1
            return real_walk(*args, **kwargs)

        def stat(path, *args, **kwargs):
            if str(path).endswith(".bin"):
                self.artifact_stats += 1
            return real_stat(path, *args, **kwargs)

        monkeypatch.setattr(os, "walk", walk)
        monkeypatch.setattr(os, "stat", stat)


class TestRunningTotal:
    def test_seeded_by_one_scan_at_construction(self, tmp_path):
        first = ArtifactStore(tmp_path / "s", max_bytes=1_000_000)
        for index in range(5):
            assert first.save("kind", key(index), payload(index))
        second = ArtifactStore(tmp_path / "s", max_bytes=1_000_000)
        assert second._bytes == second.disk_bytes() == first.disk_bytes()

    def test_save_under_the_cap_walks_nothing(self, tmp_path, monkeypatch):
        store = ArtifactStore(tmp_path / "s", max_bytes=1_000_000)
        for index in range(20):  # an existing store to (not) walk
            store.save("kind", key(index), payload(index))
        counter = CountWalks(monkeypatch)
        for index in range(20, 40):
            assert store.save("kind", key(index), payload(index))
        assert counter.walks == 0
        assert counter.artifact_stats == 0
        assert store.stats()["evicted"] == 0

    def test_save_grows_total_by_blob_length(self, tmp_path):
        store = ArtifactStore(tmp_path / "s", max_bytes=1_000_000)
        store.save("kind", key(0), payload(0))
        assert store._bytes == store.disk_bytes()
        store.save("kind", key(1), payload(1))
        assert store._bytes == store.disk_bytes()

    def test_overwrites_only_overestimate(self, tmp_path):
        store = ArtifactStore(tmp_path / "s", max_bytes=1_000_000)
        for _ in range(4):
            assert store.save("kind", key(0), payload(0))
            assert store._bytes >= store.disk_bytes()
        assert store._bytes == 4 * store.disk_bytes()

    def test_overestimate_rescans_without_evicting(self, tmp_path):
        # Overwrites push the count over the cap while the disk holds one
        # file: the rescan corrects the total and evicts nothing.
        store = ArtifactStore(tmp_path / "s", max_bytes=3_000)
        for _ in range(4):  # the fourth count (~4,000 bytes) passes the cap
            assert store.save("kind", key(0), payload(0))
        assert store.load("kind", key(0)) == payload(0)
        assert store.stats()["evicted"] == 0
        assert store._bytes == store.disk_bytes()

    def test_over_the_cap_rescans_and_evicts(self, tmp_path):
        store = ArtifactStore(tmp_path / "s", max_bytes=8_000)
        for index in range(30):
            store.save("kind", key(index), payload(index))
            assert store.disk_bytes() <= 8_000
            assert store._bytes >= store.disk_bytes()
        assert store.stats()["evicted"] > 0

    def test_clear_resets_the_total(self, tmp_path):
        store = ArtifactStore(tmp_path / "s", max_bytes=1_000_000)
        for index in range(5):
            store.save("kind", key(index), payload(index))
        assert store._bytes > 0
        store.clear()
        assert store._bytes == 0 == store.disk_bytes()
        store.save("kind", key(0), payload(0))
        assert store._bytes == store.disk_bytes()


class TestSiblingWriters:
    def test_rescan_counts_the_other_instances_writes(self, tmp_path):
        # Two instances on one directory stand in for two processes: each
        # counts only its own saves until a rescan.
        cap = 10_000
        first = ArtifactStore(tmp_path / "shared", max_bytes=cap)
        second = ArtifactStore(tmp_path / "shared", max_bytes=cap)
        for index in range(8):
            assert second.save("kind", key(index), payload(index))
        sibling_bytes = second._bytes
        assert sibling_bytes <= cap  # the sibling never rescanned
        index = 100
        while first._bytes + 1_000 <= cap:
            assert first.save("kind", key(index), payload(index))
            index += 1
        # The overshoot is bounded by the sibling's writes since our scan.
        assert cap < first.disk_bytes() <= first._bytes + sibling_bytes
        assert first.stats()["evicted"] == 0
        first.save("kind", key(index), payload(index))  # over: rescan
        assert first.stats()["evicted"] > 0
        assert first.disk_bytes() <= cap
        assert first._bytes == first.disk_bytes()


@pytest.mark.skipif(fcntl is None, reason="needs fcntl advisory locks")
class TestLockTimeoutRetry:
    def test_next_save_after_a_skipped_eviction_evicts(self, tmp_path):
        store = ArtifactStore(
            tmp_path / "s", max_bytes=3_000, lock_timeout=0.05, retry_base_delay=0.001
        )
        holder = open(os.path.join(store.root, ".lock"), "a+b")
        fcntl.flock(holder.fileno(), fcntl.LOCK_EX)
        try:
            for index in range(4):
                assert store.save("kind", key(index), payload(index))
        finally:
            fcntl.flock(holder.fileno(), fcntl.LOCK_UN)
            holder.close()
        stats = store.stats()
        assert stats["lock_timeouts"] >= 1 and stats["evicted"] == 0
        assert store.disk_bytes() > 3_000
        assert store._bytes > 3_000  # still over: the next save retries
        assert store.save("kind", key(4), payload(4))
        assert store.stats()["evicted"] > 0
        assert store.disk_bytes() <= 3_000
