"""APX003 good fixture: one consistent order, RLock re-entry allowed."""

import threading


class Outer:
    def __init__(self, inner: "Inner"):
        self._lock = threading.RLock()
        self._inner = inner

    def op(self):
        with self._lock:
            self.helper()

    def helper(self):
        with self._lock:  # RLock re-entry by the holder: reentrant, fine
            self._inner.op()  # always Outer._lock -> Inner._lock


class Inner:
    def __init__(self):
        self._lock = threading.Lock()

    def op(self):
        with self._lock:
            pass


class Combiner:
    """A combiner whose election lock is only try-acquired: no edge."""

    def __init__(self):
        self._election = threading.Lock()
        self._books = threading.Lock()

    def combine(self):
        if self._election.acquire(blocking=False):  # trylock: no edge
            try:
                with self._books:
                    pass
            finally:
                self._election.release()
