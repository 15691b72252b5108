"""Tests for noise-margin extraction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sram.butterfly import ButterflyCurves
from repro.sram.margins import (
    abscissae_increasing,
    batched_interp,
    lobe_margins,
    max_square_reference,
    static_noise_margin,
)


def ideal_inverter_curves(vdd=1.0, trip=0.5, points=601, low=0.0):
    """Sharp (step-like) inverter VTCs with known SNM = min(trip, vdd-trip)
    for a symmetric pair."""
    grid = np.linspace(0.0, vdd, points)
    steepness = 1000.0
    vtc = low + (vdd - low) / (1.0 + np.exp(steepness * (grid - trip)))
    return ButterflyCurves(grid=grid, vtc_a=vtc[None, :], vtc_b=vtc[None, :],
                           vdd=vdd)


class TestBatchedInterp:
    @given(st.integers(0, 1000))
    @settings(max_examples=30)
    def test_matches_numpy_interp(self, seed):
        rng = np.random.default_rng(seed)
        x = np.sort(rng.uniform(0, 1, size=(1, 20)), axis=1)
        y = rng.normal(size=(1, 20))
        xq = rng.uniform(0, 1, size=7)
        ours = batched_interp(x, y, xq)[0]
        reference = np.interp(xq, x[0], y[0])
        assert np.allclose(ours, reference, atol=1e-12)

    def test_clamped_extrapolation(self):
        x = np.array([[0.0, 1.0]])
        y = np.array([[10.0, 20.0]])
        out = batched_interp(x, y, np.array([-5.0, 5.0]))
        assert out[0, 0] == 10.0
        assert out[0, 1] == 20.0

    def test_per_row_queries(self):
        x = np.array([[0.0, 1.0], [0.0, 2.0]])
        y = np.array([[0.0, 1.0], [0.0, 2.0]])
        xq = np.array([[0.5], [1.0]])
        out = batched_interp(x, y, xq)
        assert out[0, 0] == pytest.approx(0.5)
        assert out[1, 0] == pytest.approx(1.0)

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="B, G"):
            batched_interp(np.zeros((2, 3)), np.zeros((3, 2)), np.zeros(1))
        with pytest.raises(ValueError, match="xq"):
            batched_interp(np.zeros((2, 3)), np.zeros((2, 3)),
                           np.zeros((3, 1)))

    def test_duplicate_abscissae_do_not_crash(self):
        x = np.array([[0.0, 0.5, 0.5, 1.0]])
        y = np.array([[0.0, 1.0, 2.0, 3.0]])
        out = batched_interp(x, y, np.array([0.5]))
        assert np.isfinite(out[0, 0])


def _bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a).tobytes()


class TestCountingPath:
    """Sorted shared queries take the O(B * (G + K)) counting path; it
    must return the broadcast path's bits on any input."""

    @staticmethod
    def both_paths(x, y, xq):
        shared = batched_interp(x, y, xq)
        per_row = batched_interp(x, y,
                                 np.broadcast_to(xq, (x.shape[0], xq.size)))
        return shared, per_row

    @given(st.integers(0, 10_000), st.integers(2, 40), st.integers(1, 70),
           st.sampled_from(["sorted", "shuffled", "ties", "on-samples"]))
    @settings(max_examples=120, deadline=None)
    def test_bit_identical_to_broadcast(self, seed, g, k, kind):
        rng = np.random.default_rng(seed)
        b = int(rng.integers(1, 6))
        x = rng.uniform(-1.0, 1.0, size=(b, g))
        if kind == "sorted":
            x = np.sort(x, axis=1)
        elif kind == "ties":
            # coarse rounding makes repeated abscissae within a row
            x = np.round(np.sort(x, axis=1) * 4.0) / 4.0
        y = rng.normal(size=(b, g))
        xq = np.sort(rng.uniform(-1.2, 1.2, size=k))
        if kind == "on-samples":
            xq = np.sort(rng.choice(x.ravel(), size=k))
        shared, per_row = self.both_paths(x, y, xq)
        assert _bits(shared) == _bits(per_row)

    @pytest.mark.parametrize("g, k", [(2, 1), (2, 5), (9, 1)])
    def test_smallest_shapes(self, g, k):
        rng = np.random.default_rng(g * 10 + k)
        x = rng.normal(size=(4, g))
        y = rng.normal(size=(4, g))
        xq = np.sort(rng.normal(size=k))
        shared, per_row = self.both_paths(x, y, xq)
        assert shared.shape == (4, k)
        assert _bits(shared) == _bits(per_row)

    def test_duplicate_queries_and_nan_samples(self):
        x = np.array([[0.0, np.nan, 0.5, 1.0], [1.0, 0.0, 0.5, 0.5]])
        y = np.arange(8.0).reshape(2, 4)
        xq = np.array([0.0, 0.5, 0.5, 1.0])
        shared, per_row = self.both_paths(x, y, xq)
        assert _bits(shared) == _bits(per_row)

    def test_margins_use_the_counting_path(self, monkeypatch):
        import repro.sram.margins as margins

        calls = []
        original = margins._counts_sorted
        monkeypatch.setattr(margins, "_counts_sorted",
                            lambda x, xq: calls.append(1)
                            or original(x, xq))
        lobe_margins(ideal_inverter_curves(points=61), 64)
        assert len(calls) == 4

    def test_per_row_and_unsorted_queries_keep_the_broadcast(
            self, monkeypatch):
        import repro.sram.margins as margins

        def forbidden(x, xq):
            raise AssertionError("counting path used")

        monkeypatch.setattr(margins, "_counts_sorted", forbidden)
        x = np.array([[0.0, 1.0], [0.0, 2.0]])
        y = np.array([[0.0, 1.0], [0.0, 2.0]])
        batched_interp(x, y, np.array([[0.5], [1.0]]))
        out = batched_interp(x, y, np.array([1.0, 0.5]))
        assert out[0].tolist() == [1.0, 0.5]


class TestIdealCurves:
    def test_symmetric_ideal_snm(self):
        """Two ideal inverters with trip at vdd/2 embed a vdd/2 square."""
        curves = ideal_inverter_curves(vdd=1.0, trip=0.5)
        rnm0, rnm1 = lobe_margins(curves)
        assert rnm0[0] == pytest.approx(0.5, abs=0.02)
        assert rnm1[0] == pytest.approx(0.5, abs=0.02)

    def test_skewed_trip_shrinks_one_lobe(self):
        curves = ideal_inverter_curves(vdd=1.0, trip=0.3)
        rnm0, rnm1 = lobe_margins(curves)
        # trip at 0.3: the stored-0 lobe is bounded by the small trip
        assert rnm0[0] == pytest.approx(0.3, abs=0.03)

    def test_degenerate_inverter_negative_margin(self):
        """A latch stuck in one state: inverter B's output pinned high
        and inverter A's output pinned low leaves a healthy stored-'0'
        lobe but no stored-'1' eye at all."""
        grid = np.linspace(0, 1, 101)
        stuck_high = np.full((1, 101), 0.95)
        stuck_low = np.full((1, 101), 0.05)
        curves = ButterflyCurves(grid=grid, vtc_a=stuck_low,
                                 vtc_b=stuck_high, vdd=1.0)
        rnm0, rnm1 = lobe_margins(curves)
        assert rnm0[0] > 0.0
        assert rnm1[0] < 0.0

    def test_min_is_static_noise_margin(self):
        curves = ideal_inverter_curves(trip=0.3)
        rnm0, rnm1 = lobe_margins(curves)
        assert static_noise_margin(curves)[0] == pytest.approx(
            min(rnm0[0], rnm1[0]))

    def test_levels_validation(self):
        with pytest.raises(ValueError, match="levels"):
            lobe_margins(ideal_inverter_curves(), levels=4)


class TestAgainstReference:
    def test_batched_matches_reference_implementation(self, paper_cell):
        from repro.sram.butterfly import ReadButterflySolver

        solver = ReadButterflySolver(paper_cell, grid_points=101)
        rng = np.random.default_rng(3)
        shifts = rng.normal(scale=0.03, size=(4, 6))
        curves = solver.solve(shifts)
        rnm0, rnm1 = lobe_margins(curves, levels=256)
        for i in range(4):
            curve_b = np.column_stack([curves.grid, curves.vtc_b[i]])
            curve_a = np.column_stack([curves.vtc_a[i], curves.grid])
            ref0 = max_square_reference(curve_b, curve_a, 0, curves.vdd)
            ref1 = max_square_reference(curve_b, curve_a, 1, curves.vdd)
            assert rnm0[i] == pytest.approx(ref0, abs=1e-3)
            assert rnm1[i] == pytest.approx(ref1, abs=1e-3)

    def test_reference_lobe_validation(self):
        with pytest.raises(ValueError, match="lobe"):
            max_square_reference(np.zeros((3, 2)), np.zeros((3, 2)), 2, 1.0)


class TestCellMargins:
    def test_nominal_margins_equal_by_symmetry(self, paper_evaluator):
        rnm0, rnm1 = paper_evaluator.margins(np.zeros((1, 6)))
        assert rnm0[0] == pytest.approx(rnm1[0], abs=1e-6)

    def test_mirror_swaps_lobes(self, paper_evaluator, rng):
        from repro.config import MIRROR_PERMUTATION

        x = rng.normal(size=(6, 6))
        rnm0, rnm1 = paper_evaluator.margins(x)
        m0, m1 = paper_evaluator.margins(x[:, list(MIRROR_PERMUTATION)])
        assert np.allclose(rnm0, m1, atol=1e-9)
        assert np.allclose(rnm1, m0, atol=1e-9)

    def test_large_driver_shift_fails_cell(self, paper_evaluator):
        x = np.zeros((1, 6))
        x[0, 1] = 8.0   # D1 massively weakened
        x[0, 4] = -2.0  # D2 strengthened -> asymmetric
        assert paper_evaluator.cell_margin(x)[0] < \
            paper_evaluator.cell_margin(np.zeros((1, 6)))[0]


class TestOneLobe:
    def test_bits_match_both_lobe_extraction(self, paper_evaluator, rng):
        curves = paper_evaluator.solver.solve(
            paper_evaluator.space.to_physical(rng.normal(size=(40, 6))))
        both = lobe_margins(curves, 64)
        for lobe in (0, 1):
            [one] = lobe_margins(curves, 64, (lobe,))
            assert _bits(one) == _bits(both[lobe])

    def test_validation(self, paper_evaluator):
        curves = paper_evaluator.solver.solve(np.zeros((1, 6)))
        with pytest.raises(ValueError, match="lobes"):
            lobe_margins(curves, lobes=(2,))


class TestAbscissaeIncreasing:
    def test_monotone_vtcs_pass(self, paper_evaluator, rng):
        curves = paper_evaluator.solver.solve(
            paper_evaluator.space.to_physical(rng.normal(size=(20, 6))))
        assert np.all(abscissae_increasing(curves))

    @pytest.mark.parametrize("side", ["vtc_a", "vtc_b"])
    def test_a_grid_step_rise_fails_only_its_row(self, side):
        grid = np.linspace(0.0, 1.0, 11)
        step = grid[1] - grid[0]
        flat = np.full((3, 11), 0.5)
        raised = flat.copy()
        raised[1, 6] += 1.01 * step     # rises just over one grid step
        raised[2, 6] += 0.99 * step     # rises just under one
        curves = ButterflyCurves(grid=grid, vtc_a=flat, vtc_b=flat,
                                 vdd=1.0)
        setattr(curves, side, raised)
        assert abscissae_increasing(curves).tolist() == [True, False,
                                                         True]
