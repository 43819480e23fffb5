"""Exact histograms of pinned snapshots stay exact while appends grow the
shared category dictionary.

An exact matrix maps categorical rows to atoms through a lookup over the
table's dictionary codes.  That dictionary is shared by the table and its
snapshots, append-only, and extended by every append that brings a new
value.  Here an appender adds rows carrying never-seen categorical values
(and interns them at once) while reader threads histogram freshly pinned
snapshots, with aggressive preemption.  Every histogram must equal the
row-at-a-time reference on its snapshot.

The matrix keeps one histogram per shard it has read, and snapshots sum
them.  In the second test the appender's small appends also trigger
compaction, so readers see shards merged away and merged shards read
afresh; every access to the per-shard entries must hold the matrix's own
lock, not lean on the GIL.

Exact matrices of equal value share those entries and their lock.  In the
third test two matrices whose workloads differ only in names histogram the
same fresh shards from racing threads: both must give the reference
histogram, through the one guarded store.

A one-attribute numeric matrix counts a shard from the shard's sorted
column, which the first reader sorts and publishes.  In the last test
eight threads read one fresh shard at once: every histogram must be exact,
and every thread must get the one published array.
"""

import sys
import threading
import weakref

import numpy as np
import pytest

from repro.data.schema import Attribute, CategoricalDomain, NumericDomain, Schema
from repro.data.table import Table
from repro.queries.predicates import Comparison, In
from repro.queries.reference import reference_partition_histogram
from repro.queries.builders import prefix_workload
from repro.queries.workload import (
    _SHARD_HISTOGRAM_CACHE,
    Workload,
    WorkloadMatrix,
    _structural_token,
    clear_matrix_cache,
)

VALUES = tuple(f"v{i:02d}" for i in range(300))
SCHEMA = Schema(
    [
        Attribute("cat", CategoricalDomain(VALUES), nullable=True),
        Attribute("num", NumericDomain(0, 100)),
    ]
)
READERS = 2


@pytest.fixture(autouse=True)
def aggressive_preemption():
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(old)


def rows(values, n, rng):
    return [
        {"cat": values[rng.integers(len(values))], "num": float(rng.integers(0, 101))}
        for _ in range(n)
    ]


def test_snapshot_histograms_stay_exact_while_appends_add_categorical_values():
    rng = np.random.default_rng(0)
    table = Table.from_rows(SCHEMA, rows(VALUES[:4] + (None,), 50, rng))
    workload = Workload(
        [Comparison("cat", "==", v) for v in VALUES[::40]]
        + [In("cat", VALUES[1::7]), Comparison("num", "<", 50.0)]
    )
    matrix = workload.analyze(SCHEMA)
    assert matrix.exact
    start = threading.Barrier(READERS + 1)
    done = threading.Event()
    seen: dict = {}
    seen_lock = threading.Lock()
    errors: list[BaseException] = []

    def appender():
        try:
            start.wait(timeout=30)
            for value in VALUES[4:]:
                table.append_rows(rows((value,), 2, rng))
                table.category_codes("cat")  # intern the new value right away
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)
        finally:
            done.set()

    def reader():
        try:
            start.wait(timeout=30)
            while not done.is_set():
                # A private snapshot misses the histogram cache every time.
                snapshot = table.open_snapshot()
                histogram = matrix.partition_histogram(snapshot)
                with seen_lock:
                    # Keep the first snapshot of each version for the
                    # reference, and every histogram taken at that version.
                    entry = seen.setdefault(snapshot.version_token, (snapshot, []))
                    entry[1].append(histogram)
                if entry[0] is not snapshot:
                    snapshot.close()
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    threads = [threading.Thread(target=appender)]
    threads += [threading.Thread(target=reader) for _ in range(READERS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    assert len(seen) > 1
    for snapshot, histograms in seen.values():
        expected = reference_partition_histogram(matrix, snapshot)
        for histogram in histograms:
            np.testing.assert_array_equal(histogram, expected)


class OwnedLock:
    """A context-manager lock that records which thread holds it."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.owner: int | None = None

    def __enter__(self) -> "OwnedLock":
        self._lock.acquire()
        self.owner = threading.get_ident()
        return self

    def __exit__(self, *exc_info) -> None:
        self.owner = None
        self._lock.release()


class GuardedEntries(weakref.WeakKeyDictionary):
    """Per-shard entries that count accesses made without ``lock`` held."""

    def __init__(self, lock: OwnedLock) -> None:
        super().__init__()
        self.lock = lock
        self.accesses = 0
        self.unguarded = 0

    def _check(self) -> None:
        self.accesses += 1
        if self.lock.owner != threading.get_ident():
            self.unguarded += 1

    def get(self, key, default=None):
        self._check()
        return super().get(key, default)

    def setdefault(self, key, default=None):
        self._check()
        return super().setdefault(key, default)

    def __getitem__(self, key):
        self._check()
        return super().__getitem__(key)

    def __setitem__(self, key, value):
        self._check()
        super().__setitem__(key, value)

    def __contains__(self, key):
        self._check()
        return super().__contains__(key)


def test_shard_sums_stay_exact_while_appends_compact_and_grow_the_dictionary():
    rng = np.random.default_rng(1)
    table = Table.from_rows(SCHEMA, rows(VALUES[:4] + (None,), 300, rng))
    workload = Workload(
        [Comparison("cat", "==", v) for v in VALUES[::40]]
        + [In("cat", VALUES[1::7]), Comparison("num", "<", 50.0)]
    )
    matrix = workload.analyze(SCHEMA)
    lock = OwnedLock()
    matrix._shard_lock = lock
    matrix._shard_histograms = entries = GuardedEntries(lock)
    start = threading.Barrier(READERS + 1)
    done = threading.Event()
    seen: dict = {}
    seen_lock = threading.Lock()
    errors: list[BaseException] = []
    merges = []

    def appender():
        try:
            start.wait(timeout=30)
            for i, value in enumerate(VALUES[4:160]):
                shards = table.n_shards
                table.append_rows(rows((value,), 1 + i % 3, rng))
                if table.n_shards <= shards:
                    merges.append(i)
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)
        finally:
            done.set()

    def reader():
        try:
            start.wait(timeout=30)
            while not done.is_set():
                snapshot = table.open_snapshot()
                histogram = matrix.partition_histogram(snapshot)
                with seen_lock:
                    entry = seen.setdefault(snapshot.version_token, (snapshot, []))
                    entry[1].append(histogram)
                if entry[0] is not snapshot:
                    snapshot.close()
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    threads = [threading.Thread(target=appender)]
    threads += [threading.Thread(target=reader) for _ in range(READERS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    assert merges and len(seen) > 1
    assert entries.accesses > 0 and entries.unguarded == 0
    for snapshot, histograms in seen.values():
        expected = reference_partition_histogram(matrix, snapshot)
        for histogram in histograms:
            np.testing.assert_array_equal(histogram, expected)


def test_equal_matrices_under_two_names_share_one_guarded_store():
    rng = np.random.default_rng(3)
    table = Table.from_rows(SCHEMA, rows(VALUES[:4] + (None,), 20_000, rng))
    workload = Workload(
        [Comparison("cat", "==", v) for v in VALUES[::40]]
        + [In("cat", VALUES[1::7]), Comparison("num", "<", 50.0)]
    )
    renamed = Workload(workload.predicates, [f"bin-{i}" for i in range(workload.size)])

    clear_matrix_cache()
    lock = OwnedLock()
    entries = GuardedEntries(lock)
    _SHARD_HISTOGRAM_CACHE.put(_structural_token(workload, SCHEMA), (entries, lock))
    try:
        first = workload.analyze(SCHEMA)
        table.append_rows(rows(VALUES[4:5], 500, rng))  # a value not yet seen
        second = renamed.analyze(SCHEMA)
        assert first is not second and first.cache_token == second.cache_token
        assert first._shard_histograms is entries and second._shard_histograms is entries
        assert first._shard_lock is lock and second._shard_lock is lock
        start = threading.Barrier(2 * READERS)
        histograms: list[np.ndarray] = []
        errors: list[BaseException] = []

        def reader(matrix):
            try:
                start.wait(timeout=30)
                histograms.append(matrix.partition_histogram(table.open_snapshot()))
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [
            threading.Thread(target=reader, args=(matrix,))
            for matrix in (first, second) * READERS
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        expected = reference_partition_histogram(second, table)
        assert len(histograms) == 2 * READERS
        for histogram in histograms:
            np.testing.assert_array_equal(histogram, expected)
        assert len(entries) == table.n_shards
        assert entries.accesses > 0 and entries.unguarded == 0
    finally:
        clear_matrix_cache()


def test_first_touch_of_a_shard_publishes_one_sorted_array(monkeypatch):
    threads_n = 8
    rng = np.random.default_rng(2)
    n = 200_000  # long enough a sort that the threads overlap in it
    table = Table(
        SCHEMA,
        {
            "cat": np.array(rng.choice(VALUES[:3], n), dtype=object),
            "num": rng.integers(0, 101, n).astype(float),
        },
    )
    shard = table.shards[0]
    workload = prefix_workload("num", [10.0 * i for i in range(1, 10)])
    expected = reference_partition_histogram(workload.analyze(SCHEMA), table)
    assert not shard.sorted_values
    received: dict[int, list[np.ndarray]] = {}
    sorted_values = Table.shard_sorted_values

    def recording(self, shard, name):
        values = sorted_values(self, shard, name)
        received.setdefault(threading.get_ident(), []).append(values)
        return values

    monkeypatch.setattr(Table, "shard_sorted_values", recording)
    start = threading.Barrier(threads_n)
    histograms: list[np.ndarray] = []
    errors: list[BaseException] = []

    def reader():
        try:
            # A matrix per thread, so no thread reuses another's histogram.
            matrix = WorkloadMatrix.from_domain_analysis(workload, SCHEMA)
            start.wait(timeout=30)
            histograms.append(matrix.partition_histogram(table.open_snapshot()))
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    threads = [threading.Thread(target=reader) for _ in range(threads_n)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    assert len(histograms) == threads_n
    for histogram in histograms:
        np.testing.assert_array_equal(histogram, expected)
    published = shard.sorted_values["num"]
    assert len(received) == threads_n
    assert all(v is published for held in received.values() for v in held)
