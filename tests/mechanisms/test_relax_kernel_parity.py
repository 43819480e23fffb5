"""The refinement kernel against its frozen row-draw form, bit for bit.

:func:`repro.mechanisms.noise.relax_floats` draws ``rng.random(3 L)`` and
reads it flat; :func:`repro.mechanisms.reference.relax_floats` is the kernel
it replaced, which drew ``rng.random((L, 3))`` and read it row by row.  For
the same generator state both must return byte-identical values and leave the
generator in the same state: ICQ-MPM's released bins and every later answer
from the engine's shared generator depend on both.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mechanisms import reference
from repro.mechanisms.noise import relax_floats

# the sign of a zero, overflowing exp(-d |y|) and very large |y|
SPECIAL_VALUES = (0.0, -0.0, 1e9, -1e9)
# 1.0 is equal scales, which must not draw
RATIOS = (1.0, 1.0 - 1e-9, 0.99, 0.5, 0.1, 0.01)


def _values(size: int, scale: float, special_share: float, seed: int) -> list[float]:
    rng = np.random.default_rng(seed)
    values = rng.laplace(0.0, scale, size)
    special = rng.random(size) < special_share
    values[special] = rng.choice(SPECIAL_VALUES, int(special.sum()))
    return values.tolist()


def _assert_same(values, scale_old, scale_new, seed) -> None:
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    before = rng.bit_generator.state
    refined = relax_floats(values, scale_old, scale_new, rng)
    expected = reference.relax_floats(values, scale_old, scale_new, oracle_rng)
    assert len(refined) == len(expected) == len(values)
    assert np.array(refined, dtype=float).tobytes() == np.array(expected, dtype=float).tobytes()
    assert rng.bit_generator.state == oracle_rng.bit_generator.state
    if scale_new == scale_old:
        assert refined == values and refined is not values
        assert rng.bit_generator.state == before


@settings(max_examples=150, deadline=None)
@given(
    size=st.integers(0, 400),
    scale_old=st.floats(0.01, 1e4),
    ratio=st.one_of(st.sampled_from(RATIOS), st.floats(0.01, 1.0 - 1e-9)),
    special_share=st.sampled_from([0.0, 0.1, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_random_cases_match_row_draw_kernel(size, scale_old, ratio, special_share, seed):
    values = _values(size, scale_old, special_share, seed)
    _assert_same(values, scale_old, scale_old * ratio, seed)


@pytest.mark.parametrize("ratio", RATIOS)
@pytest.mark.parametrize("size", [0, 1, 3, 100, 400])
def test_seeded_grid_matches_row_draw_kernel(size, ratio):
    for seed in range(4):
        values = _values(size, 4.0, 0.2, seed)
        _assert_same(values, 4.0, 4.0 * ratio, seed + 100)


class _ScriptedGenerator:
    """Repeats one (stay, segment, position) triple for every element, for a
    flat draw of ``3 L`` as for a row draw of ``(L, 3)``."""

    def __init__(self, triple: tuple[float, float, float]) -> None:
        self._triple = np.array(triple)

    def random(self, size):
        return np.resize(self._triple, size)


@pytest.mark.parametrize("y", [0.3, -0.3, 0.0, -0.0, 1e9, -1e9])
@pytest.mark.parametrize("segment", [0.0, 0.5, 0.999])
def test_zero_position_matches_on_each_branch(y, segment):
    """``Generator.random`` may return exactly 0.0: both kernels clamp it the
    same way on the left tail (segment 0.0), the middle segment (0.5, when
    ``y`` is small enough to give it mass) and the right tail (0.999)."""
    triple = (0.999, segment, 0.0)
    values = [y, y]
    refined = relax_floats(values, 2.0, 1.0, _ScriptedGenerator(triple))
    expected = reference.relax_floats(values, 2.0, 1.0, _ScriptedGenerator(triple))
    assert np.isfinite(refined).all()
    assert np.array(refined).tobytes() == np.array(expected).tobytes()
