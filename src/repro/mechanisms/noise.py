"""Noise primitives: Laplace sampling, tail bounds, and gradual release.

Besides plain Laplace sampling this module implements the *noise refinement*
step of Koufogiannis et al. ("Gradual release of sensitive data under
differential privacy", 2015) that the multi-poking mechanism (Algorithm 4 of
the APEx paper) relies on: given a noise value drawn from ``Lap(b_old)`` it
produces a correlated sample whose marginal distribution is ``Lap(b_new)``
with ``b_new < b_old``, such that releasing both values costs only the privacy
of the *less* noisy one.

The refinement uses the exact conditional distribution.  Writing
``q = (b_new / b_old)^2`` and ``y`` for the old noise value, the old noise can
be decomposed as ``old = new + V`` where ``V`` is 0 with probability ``q`` and
``Lap(b_old)`` otherwise (a characteristic-function identity).  Conditioning
on ``old = y`` therefore gives

* an atom at ``new = y`` with probability
  ``q * f_new(y) / f_old(y) = (b_new/b_old) * exp(-|y| (1/b_new - 1/b_old))``,
* a continuous part with density proportional to
  ``f_new(x) * f_old(y - x)`` -- a piecewise exponential with break points at
  ``0`` and ``y`` that we sample exactly.

The continuous part has a closed form.  Take ``y >= 0`` (a negative ``y`` is
the mirror image) and write ``a = |y|``, ``d = 1/b_new - 1/b_old``,
``r = 1/b_new + 1/b_old``, ``em1 = expm1(-d a)`` and ``e = 1 + em1``.  The
stay probability above is ``(b_new/b_old) * e``.  Relative to
``exp(-a/b_old)`` the three segments carry the masses

* ``x < 0``: ``1/r``, with inverse CDF ``x = log(v)/r``;
* ``0 <= x <= a``: ``-em1/d``, with inverse CDF ``x = -log1p(v em1)/d``;
* ``x > a``: ``e/r``, with inverse CDF ``x = a - log(v)/r``;

for ``v`` uniform on ``(0, 1]``.  ``expm1``/``log1p`` keep the middle segment
precise as ``b_new/b_old -> 1``, and all three masses stay finite for any
``|y|``, so the sampler needs no log-space bookkeeping: three uniforms per
element (stay, segment, position), read flat from one ``rng.random(3 L)``
call.  :func:`relax_floats` runs it on a list of Python floats, the form
ICQ-MPM's poke loop keeps its noise in; :func:`relax_laplace_noise` wraps it
for arrays and scalars.  :mod:`repro.mechanisms.reference` keeps the test
oracles: the original segment-search sampler, and the row-draw kernel this
one must match bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.exceptions import MechanismError

__all__ = [
    "laplace_noise",
    "laplace_tail_bound",
    "laplace_scale_for_tail",
    "laplace_max_error_bound",
    "relax_laplace_noise",
    "relax_floats",
]


def laplace_noise(
    scale: float, size: int | tuple[int, ...], rng: np.random.Generator
) -> np.ndarray:
    """Samples from the Laplace distribution with the given scale ``b``."""
    if scale <= 0:
        raise MechanismError(f"Laplace scale must be positive, got {scale}")
    return rng.laplace(loc=0.0, scale=scale, size=size)


def laplace_tail_bound(scale: float, threshold: float) -> float:
    """``Pr[|Lap(b)| > t] = exp(-t / b)`` for ``t >= 0``."""
    if scale <= 0:
        raise MechanismError(f"Laplace scale must be positive, got {scale}")
    if threshold < 0:
        return 1.0
    return math.exp(-threshold / scale)


def laplace_scale_for_tail(threshold: float, probability: float) -> float:
    """The largest scale ``b`` with ``Pr[|Lap(b)| > threshold] <= probability``."""
    if threshold <= 0:
        raise MechanismError("threshold must be positive")
    if not 0 < probability < 1:
        raise MechanismError("probability must lie strictly between 0 and 1")
    return threshold / math.log(1.0 / probability)


def laplace_max_error_bound(scale: float, count: int, beta: float) -> float:
    """The value ``alpha`` with ``Pr[max of `count` |Lap(b)| >= alpha] <= beta``.

    Uses the exact independent-maximum expression
    ``1 - (1 - exp(-alpha/b))^count = beta``.
    """
    if count <= 0:
        raise MechanismError("count must be positive")
    if not 0 < beta < 1:
        raise MechanismError("beta must lie strictly between 0 and 1")
    per_query = 1.0 - (1.0 - beta) ** (1.0 / count)
    return scale * math.log(1.0 / per_query)


def relax_laplace_noise(
    noise: np.ndarray | float,
    scale_old: float,
    scale_new: float,
    rng: np.random.Generator,
) -> np.ndarray | float:
    """Refine Laplace noise from scale ``scale_old`` down to ``scale_new``.

    Given ``noise`` distributed as ``Lap(scale_old)``, returns values whose
    marginal distribution is ``Lap(scale_new)`` (``scale_new <= scale_old``)
    and which are maximally correlated with the input, so that the pair
    ``(noise, refined)`` only leaks the privacy of the refined value
    (Koufogiannis et al. 2015, Theorems 9-10).  An array/scalar wrapper over
    :func:`relax_floats`: a Python or numpy scalar comes back as a ``float``,
    an array as an array of its own shape, refined in C order.
    """
    if np.isscalar(noise):
        return relax_floats([float(noise)], scale_old, scale_new, rng)[0]
    values = np.asarray(noise, dtype=float)
    out = relax_floats(values.ravel().tolist(), scale_old, scale_new, rng)
    return np.array(out, dtype=float).reshape(values.shape)


def relax_floats(
    values: list[float],
    scale_old: float,
    scale_new: float,
    rng: np.random.Generator,
) -> list[float]:
    """:func:`relax_laplace_noise` on a list of Python floats; returns a new list.

    The closed form of the module docstring, per element: cheaper than numpy
    ufunc dispatch at the workload sizes ICQ-MPM refines (one to a few
    hundred bins).  Draws ``rng.random(3 * len(values))`` once, read flat as
    (stay, segment, position) triples, unless the scales are equal (then
    nothing is drawn).
    """
    if scale_new <= 0 or scale_old <= 0:
        raise MechanismError("Laplace scales must be positive")
    if scale_new > scale_old:
        raise MechanismError(
            f"refinement requires scale_new ({scale_new}) <= scale_old ({scale_old})"
        )
    if scale_new == scale_old:
        return list(values)
    ratio = scale_new / scale_old
    d = 1.0 / scale_new - 1.0 / scale_old
    r = 1.0 / scale_new + 1.0 / scale_old
    tail = 1.0 / r
    expm1, log, log1p = math.expm1, math.log, math.log1p
    out: list[float] = []
    append = out.append
    uniforms = iter(rng.random(3 * len(values)).tolist())
    for y, stay, segment, v in zip(values, uniforms, uniforms, uniforms):
        # abs() except at y = -0.0: a = -0.0 flips the sign of a zero em1, which no result sees
        a = y if y >= 0.0 else -y
        em1 = expm1(-d * a)
        e = 1.0 + em1
        if stay < ratio * e:
            append(y)
            continue
        middle = -em1 / d
        pick = segment * (tail + middle + e * tail)
        # random() is in [0, 1): clamp so v == 0 cannot reach log(0)
        v = v if v >= 1e-300 else 1e-300
        if pick < tail:
            x = log(v) / r
        elif pick < tail + middle:
            x = -log1p(v * em1) / d
        else:
            x = a - log(v) / r
        append(x if y >= 0.0 else -x)
    return out
