"""Process-stable content digests for artifact-store keys.

Disk keys must survive interpreter restarts, so they cannot rely on Python's
per-process ``hash()`` (salted for strings) or on object identity.  This
module encodes the value objects that appear in cache keys -- predicates
(frozen dataclasses), schemas, workload name tuples, accuracy floats,
mechanism signatures -- as deterministic canonical JSON text and digests it
with SHA-256.

The canonical form is structural, driven by :mod:`dataclasses` metadata
rather than by importing every predicate class (which would invert the
package dependency graph):

* scalars encode with an explicit type tag (``float`` via ``float.hex`` so
  the digest is exact, not repr-rounded);
* tuples/lists/sets/mappings encode recursively (sets and mappings sorted
  by their encoded text);
* frozen dataclasses encode as ``[qualified type name, [field values...]]``,
  skipping underscore-prefixed fields (derived lookup tables such as
  ``Schema._by_name``);
* enums encode as ``[class name, value]``;
* objects exposing a ``__stable_identity__()`` method encode as
  ``[qualified type name, identity form]``.  The hook is how opaque-but-named
  values (a :class:`~repro.queries.predicates.FunctionPredicate` with a
  declared ``version=``) join disk keys without this module importing their
  classes; returning ``None`` from the hook means "no stable identity" and
  keeps the value uncanonicalisable.

Anything else -- opaque callables, bare :class:`FunctionPredicate` instances
and friends -- makes the whole key *uncanonicalisable*:
:func:`stable_digest` returns ``None`` and the caller simply skips the disk
tier, exactly as the in-memory memos skip unhashable keys.

One encoder writes the canonical text directly, in one pass: the exact
builtin types take a fast path, every other type walks the ``isinstance``
chain above in order (so ``np.float64`` encodes as a float and an
``IntEnum`` as an int).  The text of each :class:`~repro.data.schema.Schema`
-- the largest component of every translation key -- is memoized by object
identity, held weakly: a frozen schema's text never goes stale, and two
equal schemas still encode independently (``NumericDomain(0, 100)`` and
``NumericDomain(0.0, 100.0)`` compare equal but digest differently).

The in-process counterpart, :func:`hash_once`, keeps an immutable key
object's ordinary ``hash()`` on the object after its first use.  That value
is salted per process, so it is dropped whenever the object is pickled or
copied.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import weakref
from collections.abc import Mapping
from json.encoder import encode_basestring_ascii as _quote
from operator import itemgetter

__all__ = ["stable_digest", "canonical_form", "hash_once"]

#: Dataclasses whose encoded text is memoized per instance (by identity).
#: Named rather than imported: ``repro.data`` depends on this module.
_MEMOIZED_TYPES = frozenset({"repro.data.schema.Schema"})


class _Uncanonical(Exception):
    """Raised internally when a key component has no stable content form."""


def canonical_form(obj: object) -> object:
    """A JSON-serialisable, content-deterministic form of ``obj``.

    Raises :class:`TypeError` when ``obj`` (or anything inside it) has no
    stable content representation; use :func:`stable_digest` for the
    ``None``-on-failure variant.
    """
    try:
        return json.loads(_encode(obj))
    except _Uncanonical as exc:
        raise TypeError(str(exc)) from None


def stable_digest(obj: object) -> str | None:
    """SHA-256 hex digest of ``obj``'s canonical form; ``None`` if unstable."""
    try:
        text = _encode(obj)
    except _Uncanonical:
        return None
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def _encode(obj: object) -> str:
    """The canonical JSON text of ``obj`` (compact separators, ASCII only)."""
    kind = type(obj)
    if kind is str:
        return '["s",' + _quote(obj) + "]"
    if kind is tuple or kind is list:
        return '["t",[' + ",".join([_encode(item) for item in obj]) + "]]"
    if kind is float:
        return '["f","' + obj.hex() + '"]'
    if kind is int:
        return '["i","' + str(obj) + '"]'
    if obj is None:
        return '["z"]'
    if kind is bool:
        return '["b",true]' if obj else '["b",false]'
    return _encode_other(obj)


def _encode_other(obj: object) -> str:
    """Every non-builtin type, through the ``isinstance`` chain in order.

    The chain's branch is a function of the exact type, so a type that
    once reached the dataclass branch goes straight there next time.
    """
    memo = _text_memo.get(id(obj))
    if memo is not None and memo[0]() is obj:
        return memo[1]
    layout = _layouts.get(type(obj))
    if layout is not None:
        return _encode_dataclass(obj, layout)
    # ``bool`` cannot be subclassed, so every bool took the fast path.
    if isinstance(obj, int):
        return '["i",' + _quote(str(obj)) + "]"
    if isinstance(obj, float):
        return '["f",' + _quote(obj.hex()) + "]"
    if isinstance(obj, str):
        return '["s",' + _quote(obj) + "]"
    if isinstance(obj, bytes):
        return '["y","' + obj.hex() + '"]'
    if isinstance(obj, enum.Enum):
        return (
            '["e",' + _quote(type(obj).__name__) + "," + _encode(obj.value) + "]"
        )
    if isinstance(obj, (tuple, list)):
        return '["t",[' + ",".join([_encode(item) for item in obj]) + "]]"
    if isinstance(obj, (set, frozenset)):
        return '["S",[' + ",".join(sorted([_encode(item) for item in obj])) + "]]"
    if isinstance(obj, Mapping):
        # Sorted by key text alone (a stable sort), as the pair order was.
        pairs = [(_encode(k), _encode(v)) for k, v in obj.items()]
        pairs.sort(key=itemgetter(0))
        return (
            '["m",[' + ",".join(["[" + k + "," + v + "]" for k, v in pairs]) + "]]"
        )
    hook = getattr(type(obj), "__stable_identity__", None)
    if hook is not None and not isinstance(obj, type):
        identity = obj.__stable_identity__()
        if identity is None:
            raise _Uncanonical(
                f"{type(obj).__name__} declares no stable identity"
            )
        name = _quote(_qualified_name(type(obj)))
        return '["I",' + name + "," + _encode(identity) + "]"
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _encode_dataclass(obj, _dataclass_layout(type(obj)))
    raise _Uncanonical(
        f"{type(obj).__name__} has no process-stable content form"
    )


def _encode_dataclass(obj: object, layout: tuple[str, tuple[str, ...], bool]) -> str:
    head, names, memoized = layout
    text = head + ",".join([_encode(getattr(obj, name)) for name in names]) + "]]"
    if memoized:
        _remember(obj, text)
    return text


def _qualified_name(cls: type) -> str:
    return f"{cls.__module__}.{cls.__qualname__}"


#: Per dataclass type: (text up to the field list, public field names,
#: whether instances' texts are memoized).
_layouts: dict[type, tuple[str, tuple[str, ...], bool]] = {}


def _dataclass_layout(cls: type) -> tuple[str, tuple[str, ...], bool]:
    name = _qualified_name(cls)
    names = tuple(f.name for f in dataclasses.fields(cls) if not f.name.startswith("_"))
    layout = ('["d",' + _quote(name) + ",[", names, name in _MEMOIZED_TYPES)
    _layouts[cls] = layout
    return layout


#: ``id(obj) -> (weak reference to obj, encoded text)``.  Keyed by identity,
#: never by equality; a hit must pass the ``is`` check, so an id reused
#: after collection can never return another object's text.
_text_memo: dict[int, tuple[weakref.ref, str]] = {}


def _remember(obj: object, text: str) -> None:
    key = id(obj)

    def forget(ref: weakref.ref, key: int = key) -> None:
        entry = _text_memo.get(key)
        if entry is not None and entry[0] is ref:
            _text_memo.pop(key, None)

    _text_memo[key] = (weakref.ref(obj, forget), text)


def hash_once(cls: type) -> type:
    """Class decorator: compute an immutable object's hash once, on first use.

    Wraps the class's own ``__hash__`` (for a frozen dataclass, the generated
    structural one), so the value is unchanged, and leaves ``__eq__`` alone.
    The value lives on the object itself, as its ``_hash`` attribute (set
    through ``object.__setattr__``, not ``__dict__``, so the instance keeps
    its compact attribute storage), never in a table keyed by equality:
    equal objects may differ in ways a shared entry would hide.  Frozen objects cannot change, so the cached
    value is never stale.  A hash derived from strings depends on the
    process's ``PYTHONHASHSEED``, so ``__getstate__`` leaves the value out of
    every pickle and copy; the receiving object recomputes it on first use.
    """
    structural = cls.__hash__

    def __hash__(self) -> int:
        value = getattr(self, "_hash", None)
        if value is None:
            value = structural(self)
            object.__setattr__(self, "_hash", value)
        return value

    def __getstate__(self) -> dict:
        state = self.__dict__
        if "_hash" in state:
            state = {k: v for k, v in state.items() if k != "_hash"}
        return state

    cls.__hash__ = __hash__  # type: ignore[method-assign]
    cls.__getstate__ = __getstate__  # type: ignore[attr-defined]
    return cls
