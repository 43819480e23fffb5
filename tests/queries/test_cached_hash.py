"""Structural hashes cached on frozen predicates and version tokens.

Predicates and :class:`TableVersion` keep their hash on the object after its
first use (:func:`repro.store.fingerprint.hash_once`).
Pinned here: the cached value is the structural one, equality is unchanged,
a bare :class:`FunctionPredicate` still hashes by identity, and a cached hash
never travels through ``pickle`` or ``copy`` -- string hashes are salted per
process, so an object unpickled from a process with another
``PYTHONHASHSEED`` must still find the dict entry of an equal local object.
"""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np

from repro.data.table import TableVersion
from repro.queries.predicates import (
    And,
    Between,
    Comparison,
    FunctionPredicate,
    In,
    IsNull,
    Not,
    Or,
    TruePredicate,
)

ROOT = Path(__file__).resolve().parents[2]


def _keys():
    predicate = And(
        [
            Comparison("workclass", "==", "Private"),
            Or([IsNull("title"), Comparison("age", ">=", 40)]),
        ]
    )
    members = In("title", ["a1b2", "c3d4"])
    named = FunctionPredicate("jaccard>0.7", len, ["title"], version="v1")
    return [predicate, members, named]


def _structural_hash(obj) -> int:
    """The hash the class computed before caching: its fields as a tuple."""
    if isinstance(obj, FunctionPredicate):
        return hash(("FunctionPredicate", obj.describe(), obj.version, obj.attributes()))
    return hash(tuple(getattr(obj, name) for name in obj.__dataclass_fields__))


class TestCachedValue:
    def test_hash_is_the_structural_hash(self):
        objects = _keys() + [
            Between("age", 10, 20),
            In("workclass", ["Private", "State-gov"]),
            Not(Comparison("age", "<", 30)),
            TruePredicate(),
            TableVersion(1, 2),
        ]
        for obj in objects:
            assert hash(obj) == _structural_hash(obj)
            assert obj.__dict__["_hash"] == _structural_hash(obj)
            assert hash(obj) == _structural_hash(obj)

    def test_equality_is_unchanged(self):
        first, second = _keys(), _keys()
        for a, b in zip(first, second):
            hash(a)
            assert a == b and hash(a) == hash(b)
        assert Comparison("age", ">=", 40) == Comparison("age", ">=", 40.0)
        assert hash(Comparison("age", ">=", 40)) == hash(Comparison("age", ">=", 40.0))
        assert Comparison("age", ">=", 40) != Comparison("age", ">", 40)

    def test_bare_function_predicate_keeps_identity(self):
        mask = lambda table: np.ones(len(table), dtype=bool)  # noqa: E731
        first, second = FunctionPredicate("p", mask), FunctionPredicate("p", mask)
        assert hash(first) == id(first)
        assert first == first and first != second
        assert {first: 1}.get(second) is None


class TestCacheNeverTravels:
    def test_copies_recompute(self):
        for obj in _keys():
            hash(obj)
            for clone in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
                assert "_hash" not in clone.__dict__
                assert clone == obj and hash(clone) == hash(obj)

    def test_pickle_from_a_process_with_another_hash_seed(self):
        seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        script = (
            "import pickle, sys\n"
            "from tests.queries.test_cached_hash import _keys\n"
            "objects = _keys()\n"
            "hashes = [hash(obj) for obj in objects]\n"
            "sys.stdout.buffer.write(pickle.dumps((objects, hashes)))\n"
        )
        path = f"{ROOT / 'src'}{os.pathsep}{ROOT}"
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        payload = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, check=True
        ).stdout
        remote, remote_hashes = pickle.loads(payload)
        for obj, remote_hash, fresh in zip(remote, remote_hashes, _keys()):
            # The premise: the other process hashed these objects differently.
            assert remote_hash != hash(fresh)
            assert hash(obj) == hash(fresh)
            assert {fresh: "entry"}[obj] == "entry"
