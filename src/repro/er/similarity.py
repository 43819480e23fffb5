"""Similarity functions for entity resolution.

The paper's similarity set ``S`` is ``{Edit, SmithWater, Jaro, Cosine,
Jaccard, Overlap, Diff}`` (Table 3).  All functions return a score in
``[0, 1]`` where 1 means identical; missing values score 0 against anything.

Character-based functions (edit distance, Jaro, Smith-Waterman) compare raw
strings; token-based functions (Jaccard, cosine, overlap) compare token
multisets produced by a tokenizing transform; ``diff`` compares numbers (used
for the publication year).

:func:`pairwise_scores` scores a whole column of aligned pairs, which is how
:class:`~repro.er.predicates.SimilarityCache` calls every similarity.  Edit distance and
Smith-Waterman score a column through one batched integer dynamic program
(:func:`edit_scores`, :func:`smith_waterman_scores`) that sweeps a chunk of
pairs a row at a time in numpy, with each row's left-to-right dependency in
closed form; their scalar functions are one-pair calls of the same kernel,
and the original row-at-a-time programs are the test oracle in
:mod:`repro.er.reference`.  Jaro and the token similarities loop over the
pairs.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.core.exceptions import ApexError

__all__ = [
    "SimilarityFunction",
    "SIMILARITIES",
    "get_similarity",
    "edit_similarity",
    "edit_scores",
    "jaro_similarity",
    "smith_waterman_similarity",
    "smith_waterman_scores",
    "jaccard_similarity",
    "cosine_similarity",
    "overlap_similarity",
    "numeric_diff_similarity",
]

TokenInput = str | tuple[str, ...]
ColumnKernel = Callable[[Sequence[TokenInput], Sequence[TokenInput]], np.ndarray]


def _as_string(value: TokenInput) -> str:
    if isinstance(value, tuple):
        return " ".join(value)
    return value


def _as_tokens(value: TokenInput) -> tuple[str, ...]:
    if isinstance(value, tuple):
        return value
    return tuple(value.split())


def edit_similarity(left: TokenInput, right: TokenInput) -> float:
    """Normalised Levenshtein similarity: ``1 - distance / max_length``."""
    return float(edit_scores([left], [right])[0])


def edit_scores(
    left: Sequence[TokenInput], right: Sequence[TokenInput]
) -> np.ndarray:
    """:func:`edit_similarity` of every aligned pair, in one batched DP."""
    pairs, _, longer, distance = _align(left, right, _levenshtein_rows)
    scores = np.zeros(len(left))
    scores[pairs] = 1.0 - distance / longer
    return scores


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
    scores = smith_waterman_scores(
        [left],
        [right],
        match_score=match_score,
        mismatch_penalty=mismatch_penalty,
        gap_penalty=gap_penalty,
    )
    return float(scores[0])


def smith_waterman_scores(
    left: Sequence[TokenInput],
    right: Sequence[TokenInput],
    *,
    match_score: int = 2,
    mismatch_penalty: int = -1,
    gap_penalty: int = -1,
) -> np.ndarray:
    """:func:`smith_waterman_similarity` of every aligned pair, in one batched DP."""
    kernel = functools.partial(
        _smith_waterman_rows,
        match=match_score,
        mismatch=mismatch_penalty,
        gap=gap_penalty,
    )
    pairs, shorter, _, best = _align(left, right, kernel)
    normaliser = match_score * shorter
    scores = np.zeros(len(left))
    scores[pairs] = np.divide(
        best, normaliser, out=np.zeros(len(pairs)), where=normaliser != 0
    )
    return scores


# -- the batched alignment kernel ---------------------------------------------
#
# Both programs fill an integer table row by row.  A row's cells depend on
# the row above (the diagonal and "up" moves) and on the cell to their left
# through a linear gap ``g``: ``cur[j] = best(t[j], cur[j - 1] + g)``, where
# ``t[j]`` is the best of the moves from the row above.  That recurrence has a
# closed form -- ``cur[j] - g*j`` is the cumulative best of ``t[j] - g*j`` --
# so one row of a whole chunk of pairs is a handful of numpy calls over a
# ``(chunk, longer + 1)`` array.  Everything stays in integers, and the final
# float formula is the scalar one, so every score is bit-identical to the
# row-at-a-time programs kept in :mod:`repro.er.reference`.
#
# Both programs are symmetric in their arguments, so each pair's shorter
# string sweeps the rows (fewer rows, fewer numpy calls).  Pairs are sorted by
# (shorter, longer) length and cut into chunks; strings are coded as int code
# points and padded to the chunk's widest.  Padding never reaches a result:
# a pair leaves the sweep after its last real row, so its padded rows are
# never compared, and padded columns lie right of its real cells, which the
# left-to-right dependency never carries back (Smith-Waterman masks them out
# of its best cell).  ``tests/er/test_similarity_kernels.py`` pins this by
# padding with a code point that does match.

#: Pairs swept together: enough to amortise each numpy call, few enough that
#: a chunk's rows stay in cache.
_CHUNK = 512
_PAD = -1


def _align(
    left: Sequence[TokenInput],
    right: Sequence[TokenInput],
    kernel: Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Run a row kernel over every pair of two non-empty strings.

    Returns those pairs' indices, their shorter and longer lengths and the
    kernel's integer result per pair; a pair with an empty side scores 0.
    """
    a = [_as_string(value) for value in left]
    b = [_as_string(value) for value in right]
    len_a = np.fromiter(map(len, a), dtype=np.int64, count=len(a))
    len_b = np.fromiter(map(len, b), dtype=np.int64, count=len(b))
    pairs = np.flatnonzero((len_a > 0) & (len_b > 0))
    shorter = np.minimum(len_a, len_b)[pairs]
    longer = np.maximum(len_a, len_b)[pairs]
    swapped = (len_a > len_b).tolist()
    result = np.empty(len(pairs), dtype=np.int64)
    order = np.lexsort((longer, shorter))
    for start in range(0, len(order), _CHUNK):
        chunk = order[start : start + _CHUNK]
        members = pairs[chunk].tolist()
        rows = [b[k] if swapped[k] else a[k] for k in members]
        columns = [a[k] if swapped[k] else b[k] for k in members]
        result[chunk] = kernel(
            _code_points(rows, shorter[chunk]),
            _code_points(columns, longer[chunk]),
            shorter[chunk],
            longer[chunk],
        )
    return pairs, shorter, longer, result


def _code_points(strings: list[str], lengths: np.ndarray) -> np.ndarray:
    """The strings as rows of int code points, padded with :data:`_PAD`."""
    codes = np.full((len(strings), int(lengths.max())), _PAD, dtype=np.int64)
    # surrogatepass: a lone surrogate is a code point like any other.
    flat = "".join(strings).encode("utf-32-le", "surrogatepass")
    codes[np.arange(codes.shape[1]) < lengths[:, None]] = np.frombuffer(flat, "<u4")
    return codes


def _levenshtein_rows(
    a: np.ndarray, b: np.ndarray, a_len: np.ndarray, b_len: np.ndarray
) -> np.ndarray:
    """Edit distance of each row pair; ``a_len`` ascends."""
    n, width = b.shape
    j = np.arange(width + 1)
    previous = np.tile(j, (n, 1))
    distance = np.empty(n, dtype=np.int64)
    done = 0
    for i in range(1, int(a_len[-1]) + 1):
        finished = int(np.searchsorted(a_len, i))
        if finished > done:
            distance[done:finished] = previous[
                np.arange(finished - done), b_len[done:finished]
            ]
            previous = previous[finished - done :]
            done = finished
        current = np.empty_like(previous)
        current[:, 0] = i
        substitute = previous[:, :-1] + (a[done:, i - 1, None] != b[done:])
        np.minimum(substitute, previous[:, 1:] + 1, out=current[:, 1:])
        # Insertions: cur[j] = min(t[j], cur[j - 1] + 1).
        current -= j
        np.minimum.accumulate(current, axis=1, out=current)
        current += j
        previous = current
    distance[done:] = previous[np.arange(n - done), b_len[done:]]
    return distance


def _smith_waterman_rows(
    a: np.ndarray,
    b: np.ndarray,
    a_len: np.ndarray,
    b_len: np.ndarray,
    *,
    match: int,
    mismatch: int,
    gap: int,
) -> np.ndarray:
    """Best local-alignment score of each row pair; ``a_len`` ascends."""
    n, width = b.shape
    j = np.arange(width + 1)
    slope = -gap * j
    real = j <= b_len[:, None]
    previous = np.zeros((n, width + 1), dtype=np.int64)
    # Each pair's best cell so far, per column; the padded columns are
    # masked out when the pair leaves the sweep.
    peak = np.zeros_like(previous)
    best = np.empty(n, dtype=np.int64)
    done = 0
    for i in range(1, int(a_len[-1]) + 1):
        finished = int(np.searchsorted(a_len, i))
        if finished > done:
            best[done:finished] = np.where(
                real[done:finished], peak[: finished - done], 0
            ).max(axis=1)
            previous = previous[finished - done :]
            peak = peak[finished - done :]
            done = finished
        current = np.empty_like(previous)
        current[:, 0] = 0
        body = current[:, 1:]
        step = np.where(a[done:, i - 1, None] == b[done:], match, mismatch)
        np.maximum(previous[:, :-1] + step, previous[:, 1:] + gap, out=body)
        np.maximum(body, 0, out=body)
        # Gaps along the row: cur[j] = max(t[j], cur[j - 1] + gap).
        current += slope
        np.maximum.accumulate(current, axis=1, out=current)
        current -= slope
        np.maximum(peak, current, out=peak)
        previous = current
    best[done:] = np.where(real[done:], peak, 0).max(axis=1)
    return best


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


@dataclass(frozen=True)
class SimilarityFunction:
    """A named similarity function plus the input view it expects.

    ``column``, when set, scores a whole column of aligned pairs at once
    (see :func:`pairwise_scores`).
    """

    name: str
    fn: Callable[[TokenInput, TokenInput], float]
    token_based: bool
    column: ColumnKernel | None = None

    def __call__(self, left: TokenInput, right: TokenInput) -> float:
        return self.fn(left, right)


SIMILARITIES: dict[str, SimilarityFunction] = {
    "edit": SimilarityFunction(
        "edit", edit_similarity, token_based=False, column=edit_scores
    ),
    "smith_waterman": SimilarityFunction(
        "smith_waterman",
        smith_waterman_similarity,
        token_based=False,
        column=smith_waterman_scores,
    ),
    "jaro": SimilarityFunction("jaro", jaro_similarity, token_based=False),
    "jaccard": SimilarityFunction("jaccard", jaccard_similarity, token_based=True),
    "cosine": SimilarityFunction("cosine", cosine_similarity, token_based=True),
    "overlap": SimilarityFunction("overlap", overlap_similarity, token_based=True),
    "diff": SimilarityFunction("diff", numeric_diff_similarity, token_based=False),
}


def get_similarity(name: str) -> SimilarityFunction:
    """Look up a similarity function by name."""
    try:
        return SIMILARITIES[name]
    except KeyError as exc:
        raise ApexError(
            f"unknown similarity {name!r}; available: {sorted(SIMILARITIES)}"
        ) from exc


def pairwise_scores(
    similarity: SimilarityFunction,
    left_values: Sequence[TokenInput],
    right_values: Sequence[TokenInput],
) -> np.ndarray:
    """Similarity score for each aligned pair of values, as a float array.

    Uses the similarity's column kernel when it has one, else scores the
    pairs one by one.
    """
    if len(left_values) != len(right_values):
        raise ApexError("pairwise_scores requires equally long value sequences")
    if similarity.column is not None:
        return similarity.column(left_values, right_values)
    return np.fromiter(
        map(similarity.fn, left_values, right_values),
        dtype=float,
        count=len(left_values),
    )
