"""Reference (row-at-a-time) edit-distance and Smith-Waterman similarities.

:mod:`repro.er.similarity` scores whole columns of string pairs with one
batched integer dynamic program per similarity, solving each DP row's
left-to-right dependency in closed form.  This module preserves the original
scalar programs **unchanged** -- one Python loop per cell -- as the oracle of
the parity battery in ``tests/er/test_similarity_kernels.py``: the batched
kernels must produce byte-identical scores.

Nothing in the production path imports this module.
"""

from __future__ import annotations

from repro.er.similarity import TokenInput, _as_string


def edit_similarity(left: TokenInput, right: TokenInput) -> float:
    """Normalised Levenshtein similarity: ``1 - distance / max_length``."""
    a, b = _as_string(left), _as_string(right)
    if not a and not b:
        return 0.0
    if not a or not b:
        return 0.0
    distance = _levenshtein(a, b)
    return 1.0 - distance / max(len(a), len(b))


def _levenshtein(a: str, b: str) -> int:
    if a == b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, char_a in enumerate(a, start=1):
        current = [i]
        for j, char_b in enumerate(b, start=1):
            insert_cost = current[j - 1] + 1
            delete_cost = previous[j] + 1
            substitute_cost = previous[j - 1] + (char_a != char_b)
            current.append(min(insert_cost, delete_cost, substitute_cost))
        previous = current
    return previous[-1]


def smith_waterman_similarity(
    left: TokenInput,
    right: TokenInput,
    *,
    match_score: int = 2,
    mismatch_penalty: int = -1,
    gap_penalty: int = -1,
) -> float:
    """Normalised Smith-Waterman local-alignment similarity.

    The raw local alignment score is divided by the best possible score of the
    shorter string, giving a value in ``[0, 1]``.
    """
    a, b = _as_string(left), _as_string(right)
    if not a or not b:
        return 0.0
    rows, cols = len(a) + 1, len(b) + 1
    previous = [0] * cols
    best = 0
    for i in range(1, rows):
        current = [0] * cols
        char_a = a[i - 1]
        for j in range(1, cols):
            diagonal = previous[j - 1] + (
                match_score if char_a == b[j - 1] else mismatch_penalty
            )
            up = previous[j] + gap_penalty
            left_score = current[j - 1] + gap_penalty
            value = max(0, diagonal, up, left_score)
            current[j] = value
            if value > best:
                best = value
        previous = current
    normaliser = match_score * min(len(a), len(b))
    return best / normaliser if normaliser else 0.0
