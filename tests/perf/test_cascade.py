"""Enclosure-cascade labelling: bit-identity, soundness of the margin
enclosure at every depth, and counter parity across backends."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.naive import NaiveMonteCarlo
from repro.experiments.setup import paper_setup
from repro.perf import BatchPlanner, PerfConfig, build_evaluator
from repro.perf.adaptive import (CASCADE_DEPTHS, CRITERION_LOBES,
                                 SETTLE_DELTA, AdaptiveMarginEvaluator,
                                 bound_tag, corner_margin)
from repro.perf.cache import LEVELS, SolveCache
from repro.runtime import ExecutionConfig
from repro.sram.margins import abscissae_increasing

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
    select = {"cell": exact.cell_margin, "lobe0": exact.lobe0_margin,
              "lobe1": lambda x: exact.margins(x)[1]}
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


def level_tag(depth: int) -> str:
    """Cache tag a row reaching cascade ``depth`` is stored under."""
    return "exact" if depth == 40 else bound_tag(depth, 0)


def reached_per_depth(fast) -> dict[int, int]:
    """Rows that reached each cascade depth, from the cache's tags."""
    stored = np.bincount(fast.cache.state()["levels"],
                         minlength=len(LEVELS))
    return {depth: int(stored[LEVELS.index(level_tag(depth))])
            for depth in fast.cascade}


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
        each level storing its bounds under its own cache tag."""
        which, x = planted
        fast = AdaptiveMarginEvaluator(paper_cell, paper_space)
        fast.cache = SolveCache(fast.solve_fingerprint())
        fast.failure_labels(x, which)
        reached = reached_per_depth(fast)
        for depth, n in reached.items():
            assert n > 0, depth
        # rows thin out with depth
        per_level = list(reached.values())
        assert per_level == sorted(per_level, reverse=True)
        assert per_level[0] == x.shape[0]


class TestCascadeShape:
    def test_default_levels(self, paper_cell, paper_space):
        fast = build_evaluator(paper_cell, paper_space)
        assert fast.cascade == (4, 8, 12, 16, 20, 24, 32, 40)
        assert fast.cascade == (*CASCADE_DEPTHS,
                                fast.solver.bisection_iterations)

    def test_schedule_is_a_constant(self, paper_cell, paper_space):
        """No configuration changes the schedule: every evaluator the
        perf policies build walks the same depths."""
        for perf in (PerfConfig(), PerfConfig(cache_entries=0),
                     PerfConfig(batched=False), PerfConfig(label_batch=7)):
            fast = build_evaluator(paper_cell, paper_space, perf=perf)
            assert fast.cascade == (*CASCADE_DEPTHS, 40)

    def test_every_cascade_depth_has_a_cache_level(self):
        for depth in CASCADE_DEPTHS:
            for lobe in (0, 1):
                assert bound_tag(depth, lobe) in LEVELS

    def test_cache_levels_are_only_appended(self):
        assert LEVELS[:7] == ("exact", "coarse", "depth-12", "depth-16",
                              "depth-20", "depth-24", "depth-32")


def lobe_bounds(state, evaluator, which):
    """Full ``(lower, upper)`` enclosure of criterion ``which``."""
    lobes = (1,) if which == "lobe1" else CRITERION_LOBES[which]
    bounds = [[corner_margin(state, evaluator.solver.grid, evaluator.vdd,
                             evaluator.margin_levels, lobe, bound)
               for bound in ("lower", "upper")] for lobe in lobes]
    return tuple(np.minimum.reduce(list(side)) for side in zip(*bounds))


def criterion_margin(exact, x, which):
    e0, e1 = exact.margins(x)
    return {"cell": np.minimum(e0, e1), "lobe0": e0, "lobe1": e1}[which]


@pytest.fixture(scope="module")
def depth_states(exact):
    """Brackets at every depth 1..32 of a mixed and the planted batches.

    One bisection resumed a step at a time, so each depth's brackets are
    exactly the ones a from-scratch solve to that depth produces.
    """
    batches = {"mixed": mixed_batch(np.random.default_rng(21), 300)}
    for which in ("cell", "lobe0", "lobe1"):
        batches[f"planted-{which}"] = boundary_points(
            exact, which, np.random.default_rng(78))
    states = {}
    for name, x in batches.items():
        dvth = exact.space.to_physical(x)
        _, state = exact.solver.solve_with_state(dvth, 1)
        for depth in range(1, 33):
            if depth > 1:
                exact.solver.resume(dvth, state, depth)
            states[name, depth] = state.rows(np.arange(x.shape[0]))
    return batches, states


class TestEnclosureSoundness:
    @pytest.mark.parametrize("depth", range(1, 33))
    @pytest.mark.parametrize("which", ["cell", "lobe0", "lobe1"])
    @pytest.mark.parametrize("batch", ["mixed", "planted"])
    def test_exact_margin_inside_enclosure(self, exact, depth_states,
                                           batch, which, depth):
        """``lower <= m_40 <= upper`` at every depth, with the corner
        precondition holding on every row (no infinite bound)."""
        batches, states = depth_states
        name = batch if batch == "mixed" else f"planted-{which}"
        x = batches[name]
        margin = criterion_margin(exact, x, which)
        if batch == "planted":
            assert np.min(np.abs(margin)) < 1e-12
        lower, upper = lobe_bounds(states[name, depth], exact, which)
        assert np.all(np.isfinite(lower) & np.isfinite(upper))
        assert np.all(lower <= margin) and np.all(margin <= upper)
        # a settled row's label is the exact sign
        assert np.all(margin[lower > SETTLE_DELTA] > 0.0)
        assert np.all(margin[upper < -SETTLE_DELTA] < 0.0)

    def test_enclosure_tightens_with_depth(self, exact, depth_states):
        batches, states = depth_states
        widths = []
        for depth in (4, 8, 12, 16):
            lower, upper = lobe_bounds(states["mixed", depth], exact,
                                       "lobe0")
            widths.append(float(np.median(upper - lower)))
        # four more steps shrink a bracket 16-fold
        for wide, narrow in zip(widths, widths[1:]):
            assert 8.0 < wide / narrow < 32.0

    @pytest.mark.parametrize("batch", ["mixed", "planted-cell"])
    def test_exact_curves_meet_the_precondition(self, exact, depth_states,
                                                batch):
        """The converged VTCs never rise a grid step either, so the
        enclosure argument covers the path from corners to them."""
        batches, _ = depth_states
        curves = exact.solver.solve(exact.space.to_physical(batches[batch]))
        assert np.all(abscissae_increasing(curves))


class TestCascadeCost:
    def test_resume_never_repeats_work(self, paper_cell, paper_space,
                                       planted):
        """A row's total bisection steps equal the depth it settled at:
        resuming levels never re-solve from scratch on a cold cache."""
        which, x = planted
        fast = AdaptiveMarginEvaluator(paper_cell, paper_space)
        fast.cache = SolveCache(fast.solve_fingerprint())
        fast.failure_labels(x, which)
        reached = reached_per_depth(fast)
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
        half = fast.space.to_physical(x[::2])
        fast._level_bounds(half, CASCADE_DEPTHS[0],
                           CRITERION_LOBES[which], None,
                           np.zeros(half.shape[0], dtype=bool))
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

    def test_cached_bounds_answer_only_their_lobe(self, paper_cell,
                                                  paper_space, exact,
                                                  planted):
        """Bounds stored for a lobe-0 label cannot settle a cell label:
        the cell criterion misses on lobe 1 and solves again."""
        _, x = planted
        fast = AdaptiveMarginEvaluator(paper_cell, paper_space)
        fast.cache = SolveCache(fast.solve_fingerprint())
        fast.failure_labels(x, "lobe0")
        stored = fast.cache.state()["levels"]
        assert not np.any(stored == LEVELS.index(bound_tag(4, 1)))
        evals = fast.device_model_evals
        assert np.array_equal(fast.failure_labels(x, "cell"),
                              exact.failure_labels(x, "cell"))
        assert fast.device_model_evals > evals
        stored = fast.cache.state()["levels"]
        assert np.sum(stored == LEVELS.index(bound_tag(4, 1))) == len(x)

    def test_screen_counters(self, paper_cell, paper_space, rng):
        fast = AdaptiveMarginEvaluator(
            paper_cell, paper_space, planner=BatchPlanner(max_batch=50))
        fast.cache = SolveCache(fast.solve_fingerprint())
        x = mixed_batch(rng, 200)
        fast.failure_labels(x, "cell")
        assert fast.screened + fast.refined == x.shape[0]
        reached = reached_per_depth(fast)
        assert fast.refined == reached[8]
        # more than 90% settle by depth 8, the retired screen's depth
        assert x.shape[0] - reached[12] > 0.9 * x.shape[0]


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
