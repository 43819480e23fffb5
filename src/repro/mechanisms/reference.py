"""Reference implementations kept as test oracles.

**Gradual-release refinement (scalar, segment search).**
:func:`repro.mechanisms.noise.relax_laplace_noise` samples the conditional of
Koufogiannis et al. (2015) in one closed-form pass over all elements.  This
module preserves the original per-element sampler **unchanged** -- it builds
the two or three segments of the piecewise-exponential density, picks one by
its log-space mass and inverts that segment's truncated-exponential CDF -- as
the oracle of the distributional contract in ``tests/mechanisms/test_noise.py``:
on a grid of old noise values, the moved part of the closed form must match
this sampler in a two-sample KS test.

**ICQ-MPM's poke loop on numpy arrays.**
:meth:`repro.mechanisms.multi_poking.MultiPokingMechanism.release` runs its
pokes on Python floats.  :func:`multi_poking_release` keeps the array form it
replaced, unchanged, as the oracle of ``tests/mechanisms/test_mpm_parity.py``:
for the same generator state both must return the same selection, epsilon,
poke count and noisy-difference bytes, and leave the generator in the same
state.

**The refinement kernel before its flat-draw rewrite.**
:func:`relax_floats` is :func:`repro.mechanisms.noise.relax_floats` as it
stood when it drew ``rng.random((L, 3))`` and read it row by row, with
builtin ``abs``/``max`` and attribute lookups of ``math``, frozen verbatim.
``tests/mechanisms/test_relax_kernel_parity.py`` requires the production
kernel to return the same bytes and leave the generator in the same state,
and :func:`multi_poking_release` refines through it, so a bit change in the
production kernel fails the MPM parity grid too instead of moving product
and oracle together.

**WCQ-SM's Monte-Carlo epsilon search with its own draw and a full sort.**
:meth:`repro.mechanisms.strategy_mechanism.StrategyMechanism._search` slices
a shared draw, memoises strategies per size, takes ``|R Z|`` in place and
reads its order statistic with a partition.  :func:`strategy_search_epsilon`
keeps the search as it stood before those changes: build the factory's
strategy, fall back to the identity when ``W A^+ A != W``, draw
``default_rng(seed).laplace(0, 1, (l, N))`` afresh, sort the per-sample
maximum errors and read rank ``N - k - 1``, clamped to the Chebyshev bound.
``tests/mechanisms/test_search_parity.py`` requires the production epsilon
to have the same bytes.

Nothing in the production path imports this module.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.accuracy import AccuracySpec
from repro.core.exceptions import MechanismError
from repro.data.table import TableSnapshot
from repro.mechanisms.base import MechanismResult, TranslationResult
from repro.mechanisms.multi_poking import MultiPokingMechanism
from repro.mechanisms.noise import laplace_noise
from repro.mechanisms.strategies import identity_strategy
from repro.mechanisms.strategy_mechanism import StrategyFactory, _accepted_failures
from repro.queries.query import IcebergCountingQuery


def _relax_single(
    y: float, b_old: float, b_new: float, rng: np.random.Generator
) -> float:
    if b_new == b_old:
        return y
    stay_probability = (b_new / b_old) * math.exp(-abs(y) * (1.0 / b_new - 1.0 / b_old))
    if rng.random() < stay_probability:
        return y
    return _sample_product_density(y, b_new, b_old, rng)


def _sample_product_density(
    y: float, b_new: float, b_old: float, rng: np.random.Generator
) -> float:
    """Sample from the density proportional to ``exp(-|x|/b_new - |y-x|/b_old)``.

    The log-density is piecewise linear with break points at 0 and ``y``; the
    three (or two) segments are sampled exactly via their analytic masses and
    truncated-exponential inverse CDFs.  All segment masses are carried in log
    space, anchored at each segment's own maximum, so the computation stays
    finite even when ``|y|`` is enormous relative to the scales.
    """
    breakpoints = sorted({0.0, y})
    edges = [-math.inf] + breakpoints + [math.inf]
    segments = [(lo, hi) for lo, hi in zip(edges[:-1], edges[1:]) if lo < hi]

    def log_density(x: float) -> float:
        return -abs(x) / b_new - abs(y - x) / b_old

    def slope(lower: float, upper: float) -> float:
        probe = upper - 1.0 if math.isinf(lower) else (
            lower + 1.0 if math.isinf(upper) else (lower + upper) / 2.0
        )
        sign_x = 1.0 if probe > 0 else -1.0
        sign_yx = 1.0 if (y - probe) > 0 else -1.0
        return -sign_x / b_new + sign_yx / b_old

    log_reference = max(log_density(point) for point in breakpoints)

    # One descriptor per segment: (lower, upper, slope, anchor, log_mass).
    descriptors: list[tuple[float, float, float, float, float]] = []
    for lower, upper in segments:
        s = slope(lower, upper)
        # The density peaks at the end the slope points towards; that end is
        # always finite (the slope points away from the infinite tails).
        anchor = upper if s >= 0 else lower
        log_peak = log_density(anchor) - log_reference
        rate = abs(s)
        if math.isinf(lower) or math.isinf(upper):
            log_integral = -math.log(rate)
        else:
            width = upper - lower
            decay = rate * width
            if decay <= 0.0 or rate < 1e-15:
                log_integral = math.log(width) if width > 0 else -math.inf
            else:
                # -expm1(-decay) stays positive for arbitrarily small decay
                log_integral = math.log(-math.expm1(-decay)) - math.log(rate)
        descriptors.append((lower, upper, s, anchor, log_peak + log_integral))

    max_log_mass = max(d[4] for d in descriptors)
    weights = [math.exp(d[4] - max_log_mass) for d in descriptors]
    total = sum(weights)
    pick = rng.random() * total
    cumulative = 0.0
    chosen = descriptors[-1]
    for descriptor, weight in zip(descriptors, weights):
        cumulative += weight
        if pick <= cumulative:
            chosen = descriptor
            break
    return _sample_segment_towards_anchor(chosen, rng)


def _sample_segment_towards_anchor(
    descriptor: tuple[float, float, float, float, float],
    rng: np.random.Generator,
) -> float:
    """Sample within one segment whose density decays away from its anchor end."""
    lower, upper, s, anchor, _ = descriptor
    rate = abs(s)
    u = rng.random()
    if math.isinf(lower) or math.isinf(upper):
        distance = -math.log(max(u, 1e-300)) / rate
    else:
        width = upper - lower
        decay = rate * width
        if rate < 1e-15 or decay <= 0.0:
            return lower + u * width
        distance = -math.log1p(u * math.expm1(-decay)) / rate
    if anchor == upper:
        return anchor - distance
    return anchor + distance


def multi_poking_release(
    mechanism: MultiPokingMechanism,
    query: IcebergCountingQuery,
    accuracy: AccuracySpec,
    translation: TranslationResult,
    snapshot: TableSnapshot,
    rng: np.random.Generator,
) -> MechanismResult:
    """``mechanism.release`` with the pokes on numpy arrays."""
    alpha, beta = accuracy.alpha, accuracy.beta
    m = mechanism.n_pokes
    matrix = query.workload_matrix(snapshot.schema)
    sensitivity = matrix.sensitivity
    workload_size = query.workload_size
    epsilon_max = translation.epsilon_upper

    names = query.bin_names()
    counts = (
        matrix.true_answers(snapshot)
        if matrix.exact
        else query.workload.true_answers(snapshot)
    )
    true_differences = counts - query.threshold
    log_term = math.log(m * workload_size / (2.0 * beta))

    epsilon_i = epsilon_max / m
    scale_i = sensitivity / epsilon_i
    noise = laplace_noise(scale_i, workload_size, rng)
    noisy_differences = true_differences + noise

    for poke in range(m - 1):
        alpha_i = sensitivity * log_term / epsilon_i
        confidently_above = (noisy_differences - alpha_i) / alpha >= -1.0
        confidently_below = (noisy_differences + alpha_i) / alpha <= 1.0
        if bool(np.all(confidently_above | confidently_below)):
            selected = [names[j] for j in np.flatnonzero(confidently_above)]
            return mechanism._result(
                selected, epsilon_i, epsilon_max, noisy_differences, query, poke + 1
            )
        epsilon_next = epsilon_i + epsilon_max / m
        scale_next = sensitivity / epsilon_next
        noise = np.array(relax_floats(noise.tolist(), scale_i, scale_next, rng))
        noisy_differences = true_differences + noise
        epsilon_i = epsilon_next
        scale_i = scale_next

    selected = [names[j] for j in np.flatnonzero(noisy_differences > 0.0)]
    return mechanism._result(
        selected, epsilon_max, epsilon_max, noisy_differences, query, m
    )


def relax_floats(
    values: list[float],
    scale_old: float,
    scale_new: float,
    rng: np.random.Generator,
) -> list[float]:
    """:func:`relax_laplace_noise` on a list of Python floats; returns a new list.

    The closed form of the module docstring, per element: cheaper than numpy
    ufunc dispatch at the workload sizes ICQ-MPM refines (one to a few
    hundred bins).  Draws ``rng.random((len(values), 3))`` once, unless the
    scales are equal (then nothing is drawn).
    """
    if scale_new <= 0 or scale_old <= 0:
        raise MechanismError("Laplace scales must be positive")
    if scale_new > scale_old:
        raise MechanismError(
            f"refinement requires scale_new ({scale_new}) <= scale_old ({scale_old})"
        )
    out = list(values)
    if scale_new == scale_old:
        return out
    ratio = scale_new / scale_old
    d = 1.0 / scale_new - 1.0 / scale_old
    r = 1.0 / scale_new + 1.0 / scale_old
    tail = 1.0 / r
    for index, (y, (stay, segment, v)) in enumerate(
        zip(values, rng.random((len(values), 3)).tolist())
    ):
        a = abs(y)
        em1 = math.expm1(-d * a)
        e = 1.0 + em1
        if stay < ratio * e:
            continue
        middle = -em1 / d
        pick = segment * (tail + middle + e * tail)
        # random() is in [0, 1): clamp so v == 0 cannot reach log(0)
        v = max(v, 1e-300)
        if pick < tail:
            x = math.log(v) / r
        elif pick < tail + middle:
            x = -math.log1p(v * em1) / d
        else:
            x = a - math.log(v) / r
        out[index] = x if y >= 0.0 else -x
    return out


def strategy_search_epsilon(
    strategy_factory: StrategyFactory,
    workload_matrix: np.ndarray,
    alpha: float,
    beta: float,
    *,
    n_samples: int,
    seed: int,
) -> float:
    """The WCQ-SM epsilon for ``W`` at ``(alpha, beta)``, searched from scratch."""
    n_partitions = workload_matrix.shape[1]
    strategy = strategy_factory(n_partitions)
    reconstruction = workload_matrix @ np.linalg.pinv(strategy.matrix)
    if not np.allclose(reconstruction @ strategy.matrix, workload_matrix, atol=1e-6):
        strategy = identity_strategy(n_partitions)
        reconstruction = workload_matrix @ np.linalg.pinv(strategy.matrix)
    frobenius = float(np.linalg.norm(reconstruction, ord="fro"))
    chebyshev_upper = strategy.sensitivity * frobenius / (alpha * math.sqrt(beta / 2.0))
    noise = np.random.default_rng(seed).laplace(
        0.0, 1.0, size=(reconstruction.shape[1], n_samples)
    )
    maxima = np.sort(np.abs(reconstruction @ noise).max(axis=0))
    allowed = _accepted_failures(n_samples, beta)
    order_statistic = maxima[n_samples - allowed - 1] if allowed >= 0 else math.inf
    return float(min(strategy.sensitivity * order_statistic / alpha, chebyshev_upper))
