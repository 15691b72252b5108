"""Property-based tests for noise-margin extraction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sram.butterfly import ButterflyCurves
from repro.sram.margins import abscissae_increasing, lobe_margins


def random_vtc(rng, points=81, vdd=1.0):
    """A random monotone-decreasing rail-to-something curve."""
    drops = rng.random(points - 1)
    drops = drops / drops.sum() * rng.uniform(0.6, 1.0) * vdd
    curve = vdd - np.concatenate([[0.0], np.cumsum(drops)])
    return np.clip(curve, 0.0, vdd)


class TestSwapSymmetry:
    @given(st.integers(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_swapping_inverters_swaps_lobes(self, seed):
        """Exchanging the two inverters reflects the butterfly across the
        diagonal, so the lobe margins must swap exactly."""
        rng = np.random.default_rng(seed)
        grid = np.linspace(0.0, 1.0, 81)
        vtc_a = random_vtc(rng)[None, :]
        vtc_b = random_vtc(rng)[None, :]
        direct = lobe_margins(ButterflyCurves(grid=grid, vtc_a=vtc_a,
                                              vtc_b=vtc_b, vdd=1.0))
        swapped = lobe_margins(ButterflyCurves(grid=grid, vtc_a=vtc_b,
                                               vtc_b=vtc_a, vdd=1.0))
        assert direct[0][0] == pytest.approx(swapped[1][0], abs=1e-9)
        assert direct[1][0] == pytest.approx(swapped[0][0], abs=1e-9)

    @given(st.integers(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_margins_bounded_by_supply(self, seed):
        """No embedded square can exceed the supply square."""
        rng = np.random.default_rng(seed)
        grid = np.linspace(0.0, 1.0, 81)
        curves = ButterflyCurves(grid=grid,
                                 vtc_a=random_vtc(rng)[None, :],
                                 vtc_b=random_vtc(rng)[None, :], vdd=1.0)
        rnm0, rnm1 = lobe_margins(curves)
        assert abs(rnm0[0]) <= 1.0 + 1e-9
        assert abs(rnm1[0]) <= 1.0 + 1e-9

    @given(st.integers(0, 500))
    @settings(max_examples=20, deadline=None)
    def test_identical_inverters_give_equal_lobes(self, seed):
        rng = np.random.default_rng(seed)
        grid = np.linspace(0.0, 1.0, 81)
        vtc = random_vtc(rng)[None, :]
        rnm0, rnm1 = lobe_margins(ButterflyCurves(
            grid=grid, vtc_a=vtc, vtc_b=vtc, vdd=1.0))
        assert rnm0[0] == pytest.approx(rnm1[0], abs=1e-9)


def smooth_raise(rng, points, step):
    """A random pointwise raise >= 0 that moves less than ``step`` per
    node, so a non-increasing curve stays below one grid step of rise."""
    walk = np.cumsum(rng.uniform(-0.9, 0.9, points) * step)
    return np.maximum(walk - walk.min() * rng.random(), 0.0) \
        * rng.uniform(0.0, 1.0)


class TestMonotoneInEachCurve:
    """The lemma the label cascade's margin enclosure rests on: raising
    ``vtc_b`` pointwise never lowers lobe 0 and never raises lobe 1,
    and raising ``vtc_a`` does the reverse (up to float rounding)."""

    ROUNDING = 1e-13

    @given(st.integers(0, 10_000), st.sampled_from(["vtc_a", "vtc_b"]))
    @settings(max_examples=60, deadline=None)
    def test_raising_a_curve_moves_the_lobes_apart(self, seed, side):
        rng = np.random.default_rng(seed)
        points, rows = 41, 8
        grid = np.linspace(0.0, 1.0, points)
        vtc_a = np.array([random_vtc(rng, points) for _ in range(rows)])
        vtc_b = np.array([random_vtc(rng, points) for _ in range(rows)])
        base = ButterflyCurves(grid=grid, vtc_a=vtc_a, vtc_b=vtc_b,
                               vdd=1.0)
        raise_ = np.array([smooth_raise(rng, points, grid[1])
                           for _ in range(rows)])
        raised = ButterflyCurves(grid=grid, vtc_a=vtc_a, vtc_b=vtc_b,
                                 vdd=1.0)
        setattr(raised, side, getattr(base, side) + raise_)
        assert np.all(abscissae_increasing(raised))
        before0, before1 = lobe_margins(base, 32)
        after0, after1 = lobe_margins(raised, 32)
        # raising vtc_b opens lobe 0 and closes lobe 1; vtc_a mirrors it
        sign = 1.0 if side == "vtc_b" else -1.0
        assert np.all(sign * (after0 - before0) >= -self.ROUNDING)
        assert np.all(sign * (before1 - after1) >= -self.ROUNDING)


class TestLevelsConvergence:
    def test_more_levels_refine_the_margin(self, paper_evaluator):
        """The level scan only ever under-estimates the true maximum, so
        refining levels must not decrease the margin by more than the
        discretisation step."""
        solver = paper_evaluator.solver
        curves = solver.solve(np.zeros((1, 6)))
        coarse = lobe_margins(curves, levels=16)[0][0]
        fine = lobe_margins(curves, levels=512)[0][0]
        assert fine == pytest.approx(coarse, abs=0.02)
        # piecewise-linear interpolation noise is sub-0.1 mV; beyond that
        # refinement must not lose margin
        assert fine >= coarse - 1e-4
