"""Reference (one pair at a time) similarity functions.

:mod:`repro.er.similarity` scores whole columns of pairs with batched numpy
kernels: bit-vector column sweeps (or, beyond 64 code points, an integer
dynamic program) per chunk for edit distance, one integer dynamic program per
chunk for Smith-Waterman, match sweeps per chunk for Jaro, coded token counts
for Jaccard, cosine and overlap, and one array expression for ``diff``.  This
module preserves the original scalar programs **unchanged** -- Python loops
over characters, sets and ``Counter``s -- as the oracle of the parity battery
in ``tests/er/test_similarity_kernels.py``: the kernels must produce
byte-identical scores.

Nothing in the production path imports this module.
"""

from __future__ import annotations

import math
from collections import Counter

from repro.er.similarity import TokenInput, _as_string, _as_tokens


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


def jaro_similarity(left: TokenInput, right: TokenInput) -> float:
    """The Jaro string similarity."""
    a, b = _as_string(left), _as_string(right)
    if not a or not b:
        return 0.0
    if a == b:
        return 1.0
    match_window = max(len(a), len(b)) // 2 - 1
    match_window = max(match_window, 0)
    a_matched = [False] * len(a)
    b_matched = [False] * len(b)
    matches = 0
    for i, char_a in enumerate(a):
        start = max(0, i - match_window)
        end = min(i + match_window + 1, len(b))
        for j in range(start, end):
            if b_matched[j] or b[j] != char_a:
                continue
            a_matched[i] = True
            b_matched[j] = True
            matches += 1
            break
    if matches == 0:
        return 0.0
    transpositions = 0
    j = 0
    for i, matched in enumerate(a_matched):
        if not matched:
            continue
        while not b_matched[j]:
            j += 1
        if a[i] != b[j]:
            transpositions += 1
        j += 1
    transpositions //= 2
    return (
        matches / len(a) + matches / len(b) + (matches - transpositions) / matches
    ) / 3.0


def jaccard_similarity(left: TokenInput, right: TokenInput) -> float:
    """Jaccard similarity of the token sets."""
    set_a, set_b = set(_as_tokens(left)), set(_as_tokens(right))
    if not set_a or not set_b:
        return 0.0
    union = len(set_a | set_b)
    return len(set_a & set_b) / union if union else 0.0


def cosine_similarity(left: TokenInput, right: TokenInput) -> float:
    """Cosine similarity of the token frequency vectors."""
    counts_a, counts_b = Counter(_as_tokens(left)), Counter(_as_tokens(right))
    if not counts_a or not counts_b:
        return 0.0
    dot = sum(counts_a[token] * counts_b[token] for token in counts_a.keys() & counts_b.keys())
    norm_a = math.sqrt(sum(v * v for v in counts_a.values()))
    norm_b = math.sqrt(sum(v * v for v in counts_b.values()))
    if norm_a == 0 or norm_b == 0:
        return 0.0
    return dot / (norm_a * norm_b)


def overlap_similarity(left: TokenInput, right: TokenInput) -> float:
    """Overlap coefficient: ``|A & B| / min(|A|, |B|)``."""
    set_a, set_b = set(_as_tokens(left)), set(_as_tokens(right))
    if not set_a or not set_b:
        return 0.0
    return len(set_a & set_b) / min(len(set_a), len(set_b))


def numeric_diff_similarity(
    left: TokenInput, right: TokenInput, *, scale: float = 5.0
) -> float:
    """Similarity of two numbers: ``max(0, 1 - |a - b| / scale)``.

    Used for the publication year; a difference of ``scale`` or more scores 0.
    """
    try:
        a = float(_as_string(left))
        b = float(_as_string(right))
    except (TypeError, ValueError):
        return 0.0
    return max(0.0, 1.0 - abs(a - b) / scale)
