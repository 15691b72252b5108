"""Depth-cascade labelling: bit-identity, per-depth error bounds, and
counter parity across backends."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.naive import NaiveMonteCarlo
from repro.experiments.setup import paper_setup
from repro.perf import BatchPlanner, PerfConfig, build_evaluator
from repro.perf.adaptive import (CASCADE_DEPTHS, AdaptiveMarginEvaluator,
                                 margin_guard_band)
from repro.perf.cache import LEVELS, SolveCache
from repro.runtime import ExecutionConfig
from repro.sram.butterfly import ReadButterflySolver

from .test_adaptive import mixed_batch


@pytest.fixture(scope="module")
def exact(paper_cell, paper_space):
    return build_evaluator(paper_cell, paper_space,
                           perf=PerfConfig.exact())


def boundary_points(exact, which, rng, n_rays=12):
    """Points planted at every distance scale from the failure boundary.

    Bisects random rays on the exact margin down to float resolution,
    then sits points at relative offsets 1e-2 ... 1e-12 either side of
    the crossing, plus the crossing itself, so every cascade depth
    sees rows it cannot settle.
    """
    directions = rng.standard_normal((n_rays, 6))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    lo, hi = np.zeros(n_rays), np.full(n_rays, 10.0)
    select = {"cell": exact.cell_margin, "lobe0": exact.lobe0_margin}
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        failed = select[which](directions * mid[:, None]) < 0.0
        hi = np.where(failed, mid, hi)
        lo = np.where(failed, lo, mid)
    radius = 0.5 * (lo + hi)
    scales = [1.0] + [1.0 + sign * 10.0 ** -e
                      for e in (2, 4, 6, 8, 10, 12) for sign in (-1, 1)]
    return np.vstack([directions * (radius * s)[:, None] for s in scales])


@pytest.fixture(scope="module", params=["cell", "lobe0"])
def planted(request, exact):
    which = request.param
    x = boundary_points(exact, which, np.random.default_rng(77))
    return which, x


class TestLabelIdentity:
    @pytest.mark.parametrize("label_batch", [1, 7, 64, None, 4096])
    @pytest.mark.parametrize("which", ["cell", "lobe0"])
    def test_mixed_batch_matches_exact(self, paper_cell, paper_space,
                                       exact, label_batch, which):
        x = mixed_batch(np.random.default_rng(5), 300)
        fast = build_evaluator(paper_cell, paper_space,
                               perf=PerfConfig(label_batch=label_batch))
        assert np.array_equal(fast.failure_labels(x, which),
                              exact.failure_labels(x, which))

    @pytest.mark.parametrize("label_batch", [1, 13, None])
    def test_planted_boundary_matches_exact(self, paper_cell, paper_space,
                                            exact, planted, label_batch):
        which, x = planted
        fast = build_evaluator(paper_cell, paper_space,
                               perf=PerfConfig(label_batch=label_batch))
        assert np.array_equal(fast.failure_labels(x, which),
                              exact.failure_labels(x, which))

    def test_planted_points_reach_float_resolution(self, exact, planted):
        which, x = planted
        margin = {"cell": exact.cell_margin,
                  "lobe0": exact.lobe0_margin}[which](x)
        assert np.min(np.abs(margin)) < 1e-12

    def test_planted_points_walk_every_level(self, paper_cell,
                                             paper_space, planted):
        """Near-boundary rows must be carried down to the exact depth,
        each level storing its margins under its own cache tag."""
        which, x = planted
        fast = AdaptiveMarginEvaluator(paper_cell, paper_space)
        fast.cache = SolveCache(fast.solve_fingerprint())
        fast.failure_labels(x, which)
        stored = np.bincount(fast.cache.state()["levels"],
                             minlength=len(LEVELS))
        for _, tag, _ in fast.cascade:
            assert stored[LEVELS.index(tag)] > 0, tag
        # rows thin out with depth
        per_level = [stored[LEVELS.index(tag)]
                     for _, tag, _ in fast.cascade]
        assert per_level == sorted(per_level, reverse=True)
        assert per_level[0] == x.shape[0]


class TestCascadeShape:
    def test_default_levels(self, paper_cell, paper_space):
        fast = build_evaluator(paper_cell, paper_space)
        depths = [depth for depth, _, _ in fast.cascade]
        assert depths == [8, *CASCADE_DEPTHS, 40]
        bands = [band for _, _, band in fast.cascade]
        assert bands[0] == fast.guard_band
        assert bands[:-1] == sorted(bands[:-1], reverse=True)
        assert bands[-1] == -np.inf

    def test_deeper_screen_skips_shallower_levels(self, paper_cell,
                                                  paper_space):
        fast = AdaptiveMarginEvaluator(paper_cell, paper_space,
                                       coarse_iterations=16)
        assert [d for d, _, _ in fast.cascade] == [16, 20, 24, 32, 40]

    def test_every_cascade_depth_has_a_cache_level(self):
        for depth in CASCADE_DEPTHS:
            assert f"depth-{depth}" in LEVELS


class TestPerDepthErrorBound:
    @pytest.mark.parametrize("depth", [8, *CASCADE_DEPTHS])
    def test_error_within_band_over_safety(self, paper_cell, paper_space,
                                           exact, depth):
        """``|m_k - m_40| <= margin_guard_band(k) / guard_safety``.

        The measured headroom of the analytic bound (safety 1) is about
        3x at every depth; docs/PERFORMANCE.md tabulates it.
        """
        rng = np.random.default_rng(depth)
        x = mixed_batch(rng, 400)
        e0, e1 = exact.margins(x)
        solver = ReadButterflySolver(paper_cell, grid_points=61,
                                     bisection_iterations=depth)
        k0, k1 = exact._margins_at(x, solver, "exact")
        worst = max(np.max(np.abs(k0 - e0)), np.max(np.abs(k1 - e1)),
                    np.max(np.abs(np.minimum(k0, k1)
                                  - np.minimum(e0, e1))))
        safety = PerfConfig().guard_safety
        bound = margin_guard_band(exact.vdd, depth, 40, safety) / safety
        print(f"depth {depth}: worst |m_k - m_40| {worst:.3e} V, "
              f"bound {bound:.3e} V, headroom {bound / worst:.1f}x")
        assert worst <= bound
        # the error really shrinks with depth as the analysis says
        assert worst > bound / 100.0


class TestCascadeCost:
    def test_resume_never_repeats_work(self, paper_cell, paper_space,
                                       planted):
        """A row's total bisection steps equal the depth it settled at:
        resuming levels never re-solve from scratch on a cold cache."""
        which, x = planted
        fast = AdaptiveMarginEvaluator(paper_cell, paper_space)
        fast.cache = SolveCache(fast.solve_fingerprint())
        fast.failure_labels(x, which)
        levels = np.bincount(fast.cache.state()["levels"],
                             minlength=len(LEVELS))
        reached = {depth: levels[LEVELS.index(tag)]
                   for depth, tag, _ in fast.cascade}
        depths = sorted(reached)
        steps = sum((depth - prev) * reached[depth]
                    for prev, depth in zip([0] + depths, depths))
        grid = fast.solver.grid.size
        assert fast.device_model_evals == 2 * grid * steps

    def test_partially_cached_levels_still_match(self, paper_cell,
                                                 paper_space, exact,
                                                 planted):
        """Rows whose shallower level was a cache hit have no brackets
        and re-solve from scratch next to resumed rows; the mixed level
        must label exactly like the exact path."""
        which, x = planted
        fast = AdaptiveMarginEvaluator(paper_cell, paper_space)
        fast.cache = SolveCache(fast.solve_fingerprint())
        fast._margins_at(x[::2], fast.coarse_solver, "coarse")
        assert np.array_equal(fast.failure_labels(x, which),
                              exact.failure_labels(x, which))

    def test_warm_cache_replays_without_solving(self, paper_cell,
                                                paper_space, planted):
        which, x = planted
        fast = AdaptiveMarginEvaluator(paper_cell, paper_space)
        fast.cache = SolveCache(fast.solve_fingerprint())
        labels = fast.failure_labels(x, which)
        evals = fast.device_model_evals
        assert np.array_equal(fast.failure_labels(x, which), labels)
        assert fast.device_model_evals == evals

    def test_screen_counters(self, paper_cell, paper_space, rng):
        fast = AdaptiveMarginEvaluator(
            paper_cell, paper_space, planner=BatchPlanner(max_batch=50))
        x = mixed_batch(rng, 200)
        fast.failure_labels(x, "cell")
        assert fast.screened + fast.refined == x.shape[0]
        assert fast.screened > 0.9 * x.shape[0]


@pytest.mark.slow
class TestBackendParity:
    def test_serial_and_process_counters_match(self):
        def run(backend):
            setup = paper_setup(alpha=0.3,
                                perf=PerfConfig(cache_entries=0))
            estimator = NaiveMonteCarlo(
                setup.space, setup.indicator, setup.rtn_model, seed=601,
                execution=ExecutionConfig(backend=backend, workers=2,
                                          chunk_size=700))
            result = estimator.run(n_samples=3000)
            return result, setup.evaluator.perf_stats()

        serial, serial_stats = run("serial")
        process, process_stats = run("process")
        assert process.pfail == serial.pfail
        for key in ("device_model_evals", "screened", "refined"):
            assert process_stats[key] == serial_stats[key], key
        assert serial_stats["device_model_evals"] > 0
