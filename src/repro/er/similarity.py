"""Similarity functions for entity resolution.

The paper's similarity set ``S`` is ``{Edit, SmithWater, Jaro, Cosine,
Jaccard, Overlap, Diff}`` (Table 3).  All functions return a score in
``[0, 1]`` where 1 means identical; missing values score 0 against anything.

Character-based functions (edit distance, Jaro, Smith-Waterman) compare raw
strings; token-based functions (Jaccard, cosine, overlap) compare token
multisets produced by a tokenizing transform; ``diff`` compares numbers (used
for the publication year).

:func:`pairwise_scores` scores a whole column of aligned pairs, which is how
:class:`~repro.er.predicates.SimilarityCache` calls every similarity.  Every
similarity has a numpy column kernel; its scalar function is a one-pair call
of that kernel, and the original one-pair programs are the test oracle in
:mod:`repro.er.reference`.  Edit distance (:func:`edit_scores`) runs Hyyrö's
bit-parallel algorithm over a chunk of pairs a column at a time when the
shorter string has at most 64 code points, and a batched integer dynamic
program beyond.  Smith-Waterman (:func:`smith_waterman_scores`) always runs
the dynamic program, which sweeps a chunk of pairs a row at a time with each
row's left-to-right dependency in closed form.  Jaro (:func:`jaro_scores`)
sweeps a chunk's left strings a position at a time, matching by candidate
masks.  Jaccard, cosine and overlap read exact per-pair counts from one
coding of a column's tokens (:class:`TokenCounts`), and ``diff`` is one array
expression.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
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
    "jaro_scores",
    "smith_waterman_similarity",
    "smith_waterman_scores",
    "TokenCounts",
    "jaccard_similarity",
    "cosine_similarity",
    "overlap_similarity",
    "numeric_diff_similarity",
    "numeric_diff_scores",
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


# -- the batched alignment kernels --------------------------------------------
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
#
# Edit distance has a faster form when the shorter string fits one word
# (Hyyrö, "A bit-vector algorithm for computing Levenshtein and Damerau edit
# distances", 2003, after Myers, JACM 1999).  Adjacent cells differ by
# -1, 0 or +1, so a column of the table is two bit-vectors of its vertical
# deltas, bit i for row i + 1, and the next column is ~15 ``uint64``
# operations on ``(chunk,)`` arrays.  Each column's match mask (``Peq``) is
# one broadcast equality packed to bits.  Bit i of every operation depends
# only on bits <= i (``+`` and ``<<`` carry upwards), so the padded rows
# (bits >= m) never reach bit m - 1, row m, whose horizontal deltas sum to
# the distance; a pair adds only its own columns' deltas.  Pairs whose
# shorter string is longer than a word (rare 65-character venues) keep the
# row DP.

#: Pairs swept together: enough to amortise each numpy call, few enough that
#: a chunk's rows stay in cache.
_CHUNK = 512
_PAD = -1
#: Code points per machine word: the longest row string the bit-vector edit
#: distance takes.
_WORD = 64


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
    codes = np.full((len(strings), int(lengths.max())), _PAD, dtype=np.int32)
    # surrogatepass: a lone surrogate is a code point like any other.
    flat = "".join(strings).encode("utf-32-le", "surrogatepass")
    codes[np.arange(codes.shape[1]) < lengths[:, None]] = np.frombuffer(flat, "<u4")
    return codes


def _levenshtein_rows(
    a: np.ndarray, b: np.ndarray, a_len: np.ndarray, b_len: np.ndarray
) -> np.ndarray:
    """Edit distance of each row pair; ``a_len`` ascends.

    The pairs whose row string fits one word (a prefix, as ``a_len``
    ascends) take the bit-vector kernel, the rest the row DP.
    """
    distance = np.empty(len(a_len), dtype=np.int64)
    fit = int(np.searchsorted(a_len, _WORD, side="right"))
    if fit:
        width = int(b_len[:fit].max())
        distance[:fit] = _levenshtein_bits(
            a[:fit, :_WORD], b[:fit, :width], a_len[:fit], b_len[:fit]
        )
    if fit < len(a_len):
        distance[fit:] = _levenshtein_dp(a[fit:], b[fit:], a_len[fit:], b_len[fit:])
    return distance


def _levenshtein_bits(
    a: np.ndarray, b: np.ndarray, a_len: np.ndarray, b_len: np.ndarray
) -> np.ndarray:
    """Edit distance of each row pair; no row string exceeds :data:`_WORD`."""
    n, width = b.shape
    one = np.uint64(1)
    # peq[j, k] has bit i set where a[k, i] == b[k, j].  It is built a word
    # of columns at a time, which bounds the unpacked equality's size.
    word = np.full((n, _WORD), _PAD, dtype=a.dtype)
    word[:, : a.shape[1]] = a
    peq = np.empty((width, n), dtype="<u8")
    for start in range(0, width, _WORD):
        columns = b.T[start : start + _WORD, :, None]
        equal = np.equal(columns, word, out=np.empty((len(columns), n, _WORD), dtype=bool))
        packed = np.packbits(equal, axis=None, bitorder="little")
        peq[start : start + _WORD] = packed.view("<u8").reshape(len(columns), n)
    # The vertical deltas +1 (pv) and -1 (mv) of the current column, and
    # each column's horizontal deltas +1 (up[j]) and -1 (down[j]).  Column 0
    # is D[i][0] = i: every vertical delta is +1.
    up = np.empty_like(peq)
    down = np.empty_like(peq)
    pv = np.full(n, ~np.uint64(0))
    mv = np.zeros(n, dtype=np.uint64)
    for eq, ph, mh in zip(peq, up, down):
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        np.bitwise_or(mv, ~(xh | pv), out=ph)
        np.bitwise_and(pv, xh, out=mh)
        # Row 0 is D[0][j] = j: its horizontal delta is +1 in every column.
        shifted = ph << one | one
        pv = mh << one | ~(xv | shifted)
        mv = shifted & xv
    # D[m][n] is m plus row m's deltas over the pair's own columns.
    top = one << (a_len - 1).astype(np.uint64)
    live = np.arange(width)[:, None] < b_len
    rises = np.count_nonzero(((up & top) != 0) & live, axis=0)
    falls = np.count_nonzero(((down & top) != 0) & live, axis=0)
    return a_len + rises - falls


def _levenshtein_dp(
    a: np.ndarray, b: np.ndarray, a_len: np.ndarray, b_len: np.ndarray
) -> np.ndarray:
    """Edit distance of each row pair by the row DP; ``a_len`` ascends."""
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
    return float(jaro_scores([left], [right])[0])


def jaro_scores(left: Sequence[TokenInput], right: Sequence[TokenInput]) -> np.ndarray:
    """:func:`jaro_similarity` of every aligned pair, in batched match sweeps."""
    a = [_as_string(value) for value in left]
    b = [_as_string(value) for value in right]
    len_a = np.fromiter(map(len, a), dtype=np.int64, count=len(a))
    len_b = np.fromiter(map(len, b), dtype=np.int64, count=len(b))
    equal = np.fromiter(map(operator.eq, a, b), dtype=bool, count=len(a))
    filled = (len_a > 0) & (len_b > 0)
    scores = np.zeros(len(a))
    scores[filled & equal] = 1.0
    pairs = np.flatnonzero(filled & ~equal)
    order = pairs[np.lexsort((len_b[pairs], len_a[pairs]))]
    for start in range(0, len(order), _CHUNK):
        chunk = order[start : start + _CHUNK]
        members = chunk.tolist()
        scores[chunk] = _jaro_rows(
            _code_points([a[k] for k in members], len_a[chunk]),
            _code_points([b[k] for k in members], len_b[chunk]),
            len_a[chunk],
            len_b[chunk],
        )
    return scores


# -- the batched Jaro kernel --------------------------------------------------
#
# The scalar program walks the left string and gives each character the first
# unmatched equal character of the right string inside the match window.  A
# chunk of pairs takes that step together, one left position at a time: a
# boolean candidate mask over the right strings' positions (unmatched, equal
# code point, inside the pair's window and both lengths) and ``argmax`` for
# its first hit.  The left string stays the row string, as in the scalar
# program.  Transpositions compare the matched characters in order: each row
# matched as many left as right positions, so the row-major flats of the two
# sides line up.  The counts are integers and the final float formula is the
# scalar one, so every score is bit-identical to :mod:`repro.er.reference`.


def _jaro_rows(
    a: np.ndarray, b: np.ndarray, a_len: np.ndarray, b_len: np.ndarray
) -> np.ndarray:
    """Jaro similarity of each row pair of unequal strings; ``a_len`` ascends."""
    n, width = b.shape
    window = np.maximum(np.maximum(a_len, b_len) // 2 - 1, 0)
    j = np.arange(width)
    b_free = j < b_len[:, None]
    a_matched = np.zeros(a.shape, dtype=bool)
    for i in range(int(a_len[-1])):
        # Rows whose left string is longer than i, a suffix as a_len ascends.
        live = int(np.searchsorted(a_len, i, side="right"))
        candidate = b[live:] == a[live:, i, None]
        candidate &= b_free[live:]
        candidate &= np.abs(j - i) <= window[live:, None]
        first = candidate.argmax(axis=1)
        rows = np.flatnonzero(candidate[np.arange(n - live), first])
        b_free[rows + live, first[rows]] = False
        a_matched[rows + live, i] = True
    b_matched = ~b_free & (j < b_len[:, None])
    matches = a_matched.sum(axis=1)
    transposed = a[a_matched] != b[b_matched]
    transpositions = np.bincount(np.nonzero(a_matched)[0][transposed], minlength=n) // 2
    hit = matches > 0
    m, t = matches[hit], transpositions[hit]
    scores = np.zeros(n)
    scores[hit] = (m / a_len[hit] + m / b_len[hit] + (m - t) / m) / 3.0
    return scores


# -- the token kernels --------------------------------------------------------


@dataclass(frozen=True)
class TokenCounts:
    """Exact integer statistics of every pair of a column of token pairs.

    Cosine, Jaccard and overlap all read these, so a column's tokens are
    coded once for the three (:class:`~repro.er.predicates.SimilarityCache`
    keeps them on its transformed view).  :meth:`from_codes` counts from
    int64 token codes (the n-gram views pack each gram into one), and
    :meth:`of` interns string tokens into such codes.  Each side's tokens
    are keyed as sorted unique ``pair * vocabulary + token id`` with counts;
    the statistics are integers below 2**53 (stored as float where a
    weighted ``bincount`` sums them), so the kernels' final float operations
    are the scalar formulas' and every score is bit-identical.
    """

    #: Distinct tokens per pair on each side.
    left_size: np.ndarray
    right_size: np.ndarray
    #: Distinct tokens per pair on both sides.
    shared: np.ndarray
    #: Sum over the shared tokens of their left count times right count.
    dot: np.ndarray
    #: Sum of the squared token counts per pair on each side.
    left_square: np.ndarray
    right_square: np.ndarray

    @classmethod
    def of(
        cls, left: Sequence[TokenInput], right: Sequence[TokenInput]
    ) -> "TokenCounts":
        n = len(left)
        # A token's code is the running index of its first occurrence on
        # either side: one ``setdefault`` pass interns a side.
        ids: dict[str, int] = {}
        first_seen = itertools.count()
        sides = []
        for values in (left, right):
            tokens = list(map(_as_tokens, values))
            sizes = np.fromiter(map(len, tokens), dtype=np.int64, count=n)
            sides.append(np.repeat(np.arange(n), sizes))
            flat = itertools.chain.from_iterable(tokens)
            sides.append(
                np.fromiter(
                    map(ids.setdefault, flat, first_seen),
                    dtype=np.int64,
                    count=int(sizes.sum()),
                )
            )
        return cls.from_codes(n, *sides)

    @classmethod
    def from_codes(
        cls,
        n: int,
        pair_a: np.ndarray,
        codes_a: np.ndarray,
        pair_b: np.ndarray,
        codes_b: np.ndarray,
    ) -> "TokenCounts":
        """The counts of ``n`` pairs from each side's integer token codes.

        ``codes_a[k]`` is one token of pair ``pair_a[k]`` on the left side
        (likewise ``_b`` on the right); two tokens are equal exactly when
        their int64 codes are, and the codes' order within a pair is free.
        The codes are ranked into ids below the vocabulary size, so the
        counts do not depend on how the codes were assigned.
        """
        tokens, ids = np.unique(np.concatenate((codes_a, codes_b)), return_inverse=True)
        ids_a, ids_b = ids[: len(codes_a)], ids[len(codes_a) :]
        vocabulary = max(len(tokens), 1)
        keys_a, counts_a = np.unique(pair_a * vocabulary + ids_a, return_counts=True)
        keys_b, counts_b = np.unique(pair_b * vocabulary + ids_b, return_counts=True)
        common, in_a, in_b = np.intersect1d(
            keys_a, keys_b, assume_unique=True, return_indices=True
        )
        pair_a, pair_b, pair_common = (
            keys_a // vocabulary, keys_b // vocabulary, common // vocabulary
        )
        return cls(
            np.bincount(pair_a, minlength=n),
            np.bincount(pair_b, minlength=n),
            np.bincount(pair_common, minlength=n),
            np.bincount(pair_common, weights=counts_a[in_a] * counts_b[in_b], minlength=n),
            np.bincount(pair_a, weights=counts_a * counts_a, minlength=n),
            np.bincount(pair_b, weights=counts_b * counts_b, minlength=n),
        )

    def _scored(self, numerator: np.ndarray, denominator: np.ndarray) -> np.ndarray:
        """``numerator / denominator`` where both sides have tokens, else 0."""
        scores = np.zeros(len(self.shared))
        filled = (self.left_size > 0) & (self.right_size > 0)
        scores[filled] = numerator[filled] / denominator[filled]
        return scores

    def jaccard(self) -> np.ndarray:
        union = self.left_size + self.right_size - self.shared
        return self._scored(self.shared, union)

    def cosine(self) -> np.ndarray:
        norms = np.sqrt(self.left_square) * np.sqrt(self.right_square)
        return self._scored(self.dot, norms)

    def overlap(self) -> np.ndarray:
        return self._scored(self.shared, np.minimum(self.left_size, self.right_size))


def jaccard_similarity(left: TokenInput, right: TokenInput) -> float:
    """Jaccard similarity of the token sets."""
    return float(TokenCounts.of([left], [right]).jaccard()[0])


def cosine_similarity(left: TokenInput, right: TokenInput) -> float:
    """Cosine similarity of the token frequency vectors."""
    return float(TokenCounts.of([left], [right]).cosine()[0])


def overlap_similarity(left: TokenInput, right: TokenInput) -> float:
    """Overlap coefficient: ``|A & B| / min(|A|, |B|)``."""
    return float(TokenCounts.of([left], [right]).overlap()[0])


# -- numbers ------------------------------------------------------------------


def numeric_diff_similarity(
    left: TokenInput, right: TokenInput, *, scale: float = 5.0
) -> float:
    """Similarity of two numbers: ``max(0, 1 - |a - b| / scale)``.

    Used for the publication year; a difference of ``scale`` or more scores 0.
    """
    return float(numeric_diff_scores([left], [right], scale=scale)[0])


def numeric_diff_scores(
    left: Sequence[TokenInput], right: Sequence[TokenInput], *, scale: float = 5.0
) -> np.ndarray:
    """:func:`numeric_diff_similarity` of every aligned pair.

    A value that does not parse as a number reads as NaN, and ``np.fmax``
    (unlike ``np.maximum``) scores a NaN 0, as the scalar ``max(0.0, nan)``
    does.
    """
    a = np.fromiter(map(_as_number, left), dtype=float, count=len(left))
    b = np.fromiter(map(_as_number, right), dtype=float, count=len(right))
    with np.errstate(invalid="ignore"):
        return np.fmax(0.0, 1.0 - np.abs(a - b) / scale)


def _as_number(value: TokenInput) -> float:
    try:
        return float(_as_string(value))
    except (TypeError, ValueError):
        return math.nan


@dataclass(frozen=True)
class SimilarityFunction:
    """A named similarity function plus the input view it expects.

    A string or numeric similarity scores a column of aligned pairs with its
    ``kernel``.  A token-based one scores it from the column's
    :class:`TokenCounts` (``from_counts``), so that one coding of a column
    can serve all three.  Calling the function scores one pair.
    """

    name: str
    kernel: ColumnKernel | None = None
    from_counts: Callable[[TokenCounts], np.ndarray] | None = None

    @property
    def token_based(self) -> bool:
        """Whether the similarity compares token multisets, not strings."""
        return self.from_counts is not None

    def column(self, left: Sequence[TokenInput], right: Sequence[TokenInput]) -> np.ndarray:
        """Score every aligned pair of a column (see :func:`pairwise_scores`)."""
        if self.from_counts is not None:
            return self.from_counts(TokenCounts.of(left, right))
        if self.kernel is None:
            raise ApexError(f"similarity {self.name!r} has no column kernel")
        return self.kernel(left, right)

    def __call__(self, left: TokenInput, right: TokenInput) -> float:
        return float(self.column([left], [right])[0])


SIMILARITIES: dict[str, SimilarityFunction] = {
    "edit": SimilarityFunction("edit", edit_scores),
    "smith_waterman": SimilarityFunction("smith_waterman", smith_waterman_scores),
    "jaro": SimilarityFunction("jaro", jaro_scores),
    "jaccard": SimilarityFunction("jaccard", from_counts=TokenCounts.jaccard),
    "cosine": SimilarityFunction("cosine", from_counts=TokenCounts.cosine),
    "overlap": SimilarityFunction("overlap", from_counts=TokenCounts.overlap),
    "diff": SimilarityFunction("diff", numeric_diff_scores),
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
    """Similarity score for each aligned pair of values, as a float array."""
    if len(left_values) != len(right_values):
        raise ApexError("pairwise_scores requires equally long value sequences")
    return similarity.column(left_values, right_values)
