"""String transformations used by similarity predicates.

A similarity predicate is a tuple ``(A, t, sim, theta)`` (Section 8.1): the
attribute value is first passed through a transformation ``t`` and the
similarity function then compares the transformed values.  The paper's
transformation set ``T`` is ``{2grams, 3grams, SpaceTokenization}``; we add an
identity transform because the character-based similarities (edit, Jaro,
Smith-Waterman) operate on the raw string.

A transform maps a raw attribute value to either a string (character-based
view) or a tuple of tokens (set-based view); similarity functions declare
which view they expect.

These per-value functions are the public single-value API.  They are also
the oracle of the column path: :class:`~repro.er.predicates.SimilarityCache`
counts a whole 2grams/3grams view from packed integer gram codes
(:func:`repro.er.predicates._gram_codes`) without slicing the grams out as
strings, and ``tests/er/test_token_coding.py`` holds those counts equal to
the ones of :func:`_ngrams`'s tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.exceptions import ApexError

__all__ = ["Transform", "TRANSFORMS", "get_transform", "DEFAULT_TRANSFORM_NAMES"]


@dataclass(frozen=True)
class Transform:
    """A named value transformation.

    ``tokenizing`` is True when the output is a token tuple (n-grams, word
    tokens); character-based similarities should be paired with
    non-tokenizing transforms and vice versa, but every combination is still
    well defined (token tuples are joined back into strings when needed).
    """

    name: str
    fn: Callable[[str], str | tuple[str, ...]]
    tokenizing: bool

    def __call__(self, value: object) -> str | tuple[str, ...]:
        if value is None:
            return () if self.tokenizing else ""
        return self.fn(str(value))


def _normalise(text: str) -> str:
    return " ".join(text.lower().split())


def _identity(text: str) -> str:
    return _normalise(text)


def _ngrams(text: str, n: int) -> tuple[str, ...]:
    cleaned = _normalise(text).replace(" ", "_")
    if not cleaned:
        return ()
    if len(cleaned) <= n:
        return (cleaned,)
    return tuple(cleaned[i : i + n] for i in range(len(cleaned) - n + 1))


def _space_tokenize(text: str) -> tuple[str, ...]:
    return tuple(_normalise(text).split())


TRANSFORMS: dict[str, Transform] = {
    "identity": Transform("identity", _identity, tokenizing=False),
    "2grams": Transform("2grams", lambda s: _ngrams(s, 2), tokenizing=True),
    "3grams": Transform("3grams", lambda s: _ngrams(s, 3), tokenizing=True),
    "space": Transform("space", _space_tokenize, tokenizing=True),
}

#: The paper's transformation set ``T`` (identity is the implicit "no
#: transformation" choice used with character-based similarities).
DEFAULT_TRANSFORM_NAMES = ("2grams", "3grams", "space")


def get_transform(name: str) -> Transform:
    """Look up a transform by name (raises a helpful error for typos)."""
    try:
        return TRANSFORMS[name]
    except KeyError as exc:
        raise ApexError(
            f"unknown transform {name!r}; available: {sorted(TRANSFORMS)}"
        ) from exc
