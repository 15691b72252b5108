"""Fused (2B, G) bisection and active-lane compaction: bit-identity
against the per-side legacy path, resume compatibility across the
fusion boundary, and the device-eval accounting invariant."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sram.butterfly import ReadButterflySolver


@pytest.fixture()
def shifts(rng):
    return rng.normal(scale=0.05, size=(48, 6))


def solver_pair(cell, **kw):
    fused = ReadButterflySolver(cell, grid_points=21, batched=True, **kw)
    legacy = ReadButterflySolver(cell, grid_points=21, batched=False,
                                 **kw)
    return fused, legacy


class TestFusionBitIdentity:
    def test_solve_matches_per_side(self, paper_cell, shifts):
        fused, legacy = solver_pair(paper_cell)
        a = fused.solve(shifts)
        b = legacy.solve(shifts)
        assert np.array_equal(a.vtc_a, b.vtc_a)
        assert np.array_equal(a.vtc_b, b.vtc_b)

    def test_state_matches_per_side(self, paper_cell, shifts):
        fused, legacy = solver_pair(paper_cell,
                                    bisection_iterations=12)
        curves_f, state_f = fused.solve_with_state(shifts)
        curves_l, state_l = legacy.solve_with_state(shifts)
        assert np.array_equal(curves_f.vtc_a, curves_l.vtc_a)
        assert np.array_equal(curves_f.vtc_b, curves_l.vtc_b)
        for got, want in zip(state_f.side_a + state_f.side_b,
                             state_l.side_a + state_l.side_b):
            assert np.array_equal(got, want)

    def test_resume_crosses_the_fusion_boundary(self, paper_cell,
                                                shifts):
        # coarse per-side state resumed by a fused solver (and the
        # other way round) must land on the full fused solve exactly
        coarse_fused, coarse_legacy = solver_pair(
            paper_cell, bisection_iterations=12)
        exact_fused, exact_legacy = solver_pair(paper_cell)
        want = exact_fused.solve(shifts)
        _, state = coarse_legacy.solve_with_state(shifts)
        resumed = exact_fused.resume(shifts, state)
        assert np.array_equal(resumed.vtc_a, want.vtc_a)
        assert np.array_equal(resumed.vtc_b, want.vtc_b)
        _, state = coarse_fused.solve_with_state(shifts)
        resumed = exact_legacy.resume(shifts, state)
        assert np.array_equal(resumed.vtc_a, want.vtc_a)
        assert np.array_equal(resumed.vtc_b, want.vtc_b)

    @pytest.mark.parametrize("batched", [True, False])
    def test_resume_in_stages_matches_full_solve(self, paper_cell,
                                                 shifts, batched):
        coarse = ReadButterflySolver(paper_cell, grid_points=21,
                                     bisection_iterations=8,
                                     batched=batched)
        exact = ReadButterflySolver(paper_cell, grid_points=21,
                                    batched=batched)
        want = exact.solve(shifts)
        mid_want = ReadButterflySolver(paper_cell, grid_points=21,
                                       bisection_iterations=16,
                                       batched=batched).solve(shifts)
        before = exact.model_evals
        _, state = coarse.solve_with_state(shifts)
        exact.resume(shifts, state, 12)
        assert state.iterations == 12
        mid = exact.resume(shifts, state, 16)
        assert state.iterations == 16
        assert np.array_equal(mid.vtc_a, mid_want.vtc_a)
        assert np.array_equal(mid.vtc_b, mid_want.vtc_b)
        full = exact.resume(shifts, state)
        assert state.iterations == 40
        assert np.array_equal(full.vtc_a, want.vtc_a)
        assert np.array_equal(full.vtc_b, want.vtc_b)
        # staged resumes cost exactly the from-scratch solve
        assert coarse.model_evals + exact.model_evals - before \
            == 2 * want.vtc_a.size * 40

    def test_resume_depth_bounds(self, paper_cell, shifts):
        coarse = ReadButterflySolver(paper_cell, grid_points=21,
                                     bisection_iterations=12)
        exact = ReadButterflySolver(paper_cell, grid_points=21)
        _, state = coarse.solve_with_state(shifts)
        with pytest.raises(ValueError, match="cannot resume"):
            exact.resume(shifts, state, 10)
        with pytest.raises(ValueError, match="cannot resume"):
            exact.resume(shifts, state, 41)

    @pytest.mark.parametrize("batched", [True, False])
    @pytest.mark.parametrize("depth", [1, 4, 8])
    def test_shallow_state_on_the_full_solver(self, paper_cell, shifts,
                                              batched, depth):
        """A depth-``k`` solve on the 40-step solver is the first ``k``
        steps of the full solve: its state resumes to the same bits at
        the from-scratch cost."""
        solver = ReadButterflySolver(paper_cell, grid_points=21,
                                     batched=batched)
        want = solver.solve(shifts)
        before = solver.model_evals
        _, state = solver.solve_with_state(shifts, depth)
        assert state.iterations == depth
        assert solver.model_evals - before \
            == 2 * want.vtc_a.size * depth
        full = solver.resume(shifts, state)
        assert np.array_equal(full.vtc_a, want.vtc_a)
        assert np.array_equal(full.vtc_b, want.vtc_b)
        assert solver.model_evals - before == 2 * want.vtc_a.size * 40

    def test_solve_with_state_depth_bounds(self, paper_cell, shifts):
        solver = ReadButterflySolver(paper_cell, grid_points=21)
        for depth in (0, 41):
            with pytest.raises(ValueError, match="depth"):
                solver.solve_with_state(shifts, depth)

    def test_fused_eval_count_matches_legacy(self, paper_cell, shifts):
        fused, legacy = solver_pair(paper_cell)
        fused.solve(shifts)
        legacy.solve(shifts)
        assert fused.model_evals == legacy.model_evals
        assert fused.model_evals == \
            2 * shifts.shape[0] * 40 * fused.grid.size


class TestCompaction:
    DEEP = 96

    def deep_pair(self, cell):
        compacting = ReadButterflySolver(cell, grid_points=21,
                                         bisection_iterations=self.DEEP)
        plain = ReadButterflySolver(cell, grid_points=21,
                                    bisection_iterations=self.DEEP,
                                    compaction_depth=10 ** 6)
        return compacting, plain

    def test_deep_solve_bit_identical_with_retirement(self, paper_cell,
                                                      shifts):
        compacting, plain = self.deep_pair(paper_cell)
        a = compacting.solve(shifts)
        b = plain.solve(shifts)
        assert np.array_equal(a.vtc_a, b.vtc_a)
        assert np.array_equal(a.vtc_b, b.vtc_b)
        # at 96 steps the brackets collapse to adjacent floats long
        # before the end, so retirement must actually have fired
        assert compacting.evals_saved > 0
        assert plain.evals_saved == 0

    def test_eval_accounting_invariant(self, paper_cell, shifts):
        compacting, plain = self.deep_pair(paper_cell)
        compacting.solve(shifts)
        plain.solve(shifts)
        # work done plus work skipped is the fixed-budget total
        assert compacting.model_evals + compacting.evals_saved \
            == plain.model_evals
        assert plain.model_evals == \
            2 * shifts.shape[0] * self.DEEP * plain.grid.size

    def test_standard_depth_never_compacts(self, paper_cell, shifts):
        solver = ReadButterflySolver(paper_cell, grid_points=21)
        solver.solve(shifts)
        assert solver.evals_saved == 0

    def test_state_keeping_solves_stay_full_size(self, paper_cell,
                                                 shifts):
        solver = ReadButterflySolver(paper_cell, grid_points=21,
                                     bisection_iterations=self.DEEP)
        curves, state = solver.solve_with_state(shifts)
        assert solver.evals_saved == 0
        assert state.side_a[0].shape == (shifts.shape[0],
                                         solver.grid.size)
        plain = self.deep_pair(paper_cell)[1]
        want = plain.solve(shifts)
        assert np.array_equal(curves.vtc_a, want.vtc_a)
        assert np.array_equal(curves.vtc_b, want.vtc_b)


class TestEvaluatorBitIdentity:
    def test_margins_invariant_under_batching_knob(self, paper_cell,
                                                   paper_space, rng):
        from repro.sram.evaluator import CellEvaluator

        x = rng.normal(size=(40, 6))
        batched = CellEvaluator(paper_cell, paper_space, grid_points=21)
        legacy = CellEvaluator(paper_cell, paper_space, grid_points=21,
                               batched=False)
        for got, want in zip(batched.margins(x), legacy.margins(x)):
            assert np.array_equal(got, want)
