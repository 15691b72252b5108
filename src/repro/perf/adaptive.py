"""Adaptive-resolution margin evaluation: the depth cascade.

Every estimate funnels through
:meth:`~repro.sram.butterfly.ReadButterflySolver.solve`, which spends a
fixed ``2 x bisection_iterations x grid_points`` device-model
evaluations per sample no matter how far the sample sits from the
failure boundary.  For *labelling* (the only thing the estimators
consume in bulk) that is wasted work: a label needs only the margin's
sign, and a sample far from the boundary settles its sign after a few
bisection steps.

:class:`AdaptiveMarginEvaluator` therefore labels each row at the
shallowest bisection depth that provably settles its sign.  It screens
every batch at a shallow depth (8 by default) on the **same** voltage
grid and margin levels as the exact solve, then walks the rows still
inside the guard band down a fixed schedule of deeper levels
(:data:`CASCADE_DEPTHS`, then the exact depth 40).  At depth ``k`` a
row is settled once its margin lies outside
``margin_guard_band(vdd, k, 40, guard_safety)``.  The band is derived
from the bisection error bound, so every label is **bit-identical** to
the exact path's (proof sketch below and in ``docs/PERFORMANCE.md``):

* after ``k`` bisection steps on ``[0, vdd]`` every VTC node voltage is
  within ``eps_k = vdd * 2**-(k+1)`` of the converged value;
* in the 45-degree-rotated margin frame both butterfly curves are
  (approximately) 1-Lipschitz -- ``|du/dv| = |(1+y')/(1-y')| <= 1`` for
  a monotone-decreasing VTC -- so perturbing a curve by ``eps`` in sup
  norm moves each interpolated cut by at most ``(1+L) * eps/sqrt(2)``
  with ``L ~ 1``;
* the lobe margin is a max over cut levels of the two-curve gap over
  ``sqrt(2)``, and both max and min (the cell-level margin) are
  1-Lipschitz in sup norm, giving
  ``|margin_k - margin_exact| <= 3 * (eps_k + eps_exact)``.

``guard_band`` multiplies that bound by a safety factor (default 2) to
cover the clamped-extrapolation corner of the interpolator and the
residual non-monotonicity of an unconverged bisection.  A depth-``k``
margin beyond its band provably has the exact margin's sign; a row
inside it moves to the next level.  No level starts over: bisection is
deterministic, so the first ``k`` steps of any deeper solve reproduce
the depth-``k`` brackets exactly, and each level *resumes* from the
previous level's brackets.  A row that reaches depth 40 therefore
carries exactly the exact path's bits, and a row settled earlier pays
only the depth its sign needed.  :meth:`margins` (the float-valued API
used by boundary refinement, cross-entropy and the analyses) always
returns exact values -- adaptivity accelerates labelling only.
"""

from __future__ import annotations

from repro.perf.cache import SolveCache
from repro.rng import stable_seed
from repro.sram.butterfly import BisectionState, ReadButterflySolver
from repro.sram.cell import SramCell
from repro.sram.evaluator import CellEvaluator
from repro.sram.margins import lobe_margins
from repro.variability.space import VariabilitySpace

import numpy as np

#: intermediate bisection depths of the label cascade, between the
#: screening depth and the exact depth.  Four more steps shrink a
#: level's guard band 16-fold, so most rows left open at one level
#: settle at the next; the wider last gaps serve the rare rows that
#: sit within millivolts of the boundary.
CASCADE_DEPTHS = (12, 16, 20, 24, 32)


def margin_guard_band(vdd: float, coarse_iterations: int,
                      exact_iterations: int, safety: float = 2.0) -> float:
    """Safe settling threshold on margins of a shallower solve [V].

    ``3 * (eps_k + eps_exact)`` with ``k = coarse_iterations`` per the
    error analysis above, widened by ``safety``; a depth-``k`` margin
    whose magnitude exceeds this has the same sign as the exact margin.
    The cascade evaluates it once per level.
    """
    if safety < 1.0:
        raise ValueError("safety must be >= 1")
    eps = vdd * (2.0 ** -(coarse_iterations + 1)
                 + 2.0 ** -(exact_iterations + 1))
    return safety * 3.0 * eps


class AdaptiveMarginEvaluator(CellEvaluator):
    """Cell evaluator with depth-cascade labelling.

    Drop-in replacement for :class:`~repro.sram.evaluator.CellEvaluator`
    (built by :func:`repro.perf.build_evaluator` when the
    :class:`~repro.perf.config.PerfConfig` enables adaptivity).  Margins
    stay exact; only :meth:`failure_labels` takes the cascade, and its
    labels match the exact path bit for bit by the guard-band argument
    in the module docstring.

    Parameters
    ----------
    coarse_iterations:
        Bisection depth of the screening solve, the cascade's first
        level (exact path: 40).
    guard_safety:
        Multiplier on the analytic error bound; >= 1.
    cache:
        Optional :class:`~repro.perf.cache.SolveCache` shared with the
        exact path (every cascade depth stores its margins under its
        own level tag, so resolutions never mix).
    """

    def __init__(self, cell: SramCell, space: VariabilitySpace,
                 vdd: float | None = None, grid_points: int = 61,
                 margin_levels: int = 64, max_batch: int | None = None,
                 cache: SolveCache | None = None,
                 coarse_iterations: int = 8, guard_safety: float = 2.0,
                 batched: bool = True, array_backend=None, planner=None):
        super().__init__(cell, space, vdd=vdd, grid_points=grid_points,
                         margin_levels=margin_levels, max_batch=max_batch,
                         cache=cache, batched=batched,
                         array_backend=array_backend, planner=planner)
        # Same grid and margin levels as the exact solver: the guard
        # band only bounds the bisection-depth error, so the screening
        # pass must not introduce any other discretisation difference.
        # The resolved array backend is shared so a fallback is decided
        # once per evaluator.
        self.coarse_solver = ReadButterflySolver(
            cell, vdd=vdd, grid_points=grid_points,
            bisection_iterations=coarse_iterations,
            batched=batched, array_backend=self.solver.backend)
        exact = self.solver.bisection_iterations
        self.guard_band = margin_guard_band(self.vdd, coarse_iterations,
                                            exact, guard_safety)
        #: ``(depth, cache level, guard band)`` per cascade level; the
        #: exact level settles every row, so its band is -inf
        self.cascade = (
            ((coarse_iterations, "coarse", self.guard_band),)
            + tuple((depth, f"depth-{depth}",
                     margin_guard_band(self.vdd, depth, exact,
                                       guard_safety))
                    for depth in CASCADE_DEPTHS
                    if coarse_iterations < depth < exact)
            + ((exact, "exact", -np.inf),))
        self.screened = 0
        self.refined = 0

    # ------------------------------------------------------------------
    def failure_labels(self, x: np.ndarray, which: str = "cell"
                       ) -> np.ndarray:
        """Fail labels, bit-identical to ``CellEvaluator``'s exact path.

        Screens the whole batch at the coarse depth, then walks the rows
        still inside their level's guard band down the cascade, each
        level *resuming* the previous level's bisection (see
        :meth:`~repro.sram.butterfly.ReadButterflySolver.resume`), so a
        row pays only the depth its sign actually needs.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != 6:
            raise ValueError(f"x must have shape (B, 6), got {x.shape}")
        labels = np.empty(x.shape[0], dtype=bool)
        for start, stop in self.planner.plan(x.shape[0],
                                             self.solve_row_bytes):
            labels[start:stop] = self._label_chunk(x[start:stop], which)
        return labels

    def _label_chunk(self, chunk: np.ndarray, which: str) -> np.ndarray:
        dvth = self.space.to_physical(chunk)
        labels = np.empty(dvth.shape[0], dtype=bool)
        # chunk rows whose sign is still open; `state` holds the
        # previous level's brackets of the open rows flagged in
        # `bracketed`, in row order
        rows = np.arange(dvth.shape[0])
        state = None
        bracketed = np.zeros(rows.size, dtype=bool)
        for level, (depth, tag, band) in enumerate(self.cascade):
            m0, m1, state, bracketed = self._level_margins(
                dvth[rows], depth, tag, state, bracketed)
            margin = self._select_margin(m0, m1, which)
            labels[rows] = margin < 0.0
            open_ = np.abs(margin) <= band
            if level == 0:
                self.refined += int(open_.sum())
                self.screened += int(rows.size - open_.sum())
            if not open_.any():
                break
            if state is not None:
                state = state.rows(open_[bracketed])
            rows = rows[open_]
            bracketed = bracketed[open_]
        return labels

    def _level_margins(self, dvth, depth, tag, state, bracketed):
        """Lobe margins of ``dvth`` at bisection depth ``depth``.

        Cache hits under ``tag`` return the stored floats.  Missed rows
        resume from their brackets where they have them and solve from
        scratch otherwise (rows whose previous level was a cache hit);
        every branch yields the same bits, so which one a row takes is
        purely a cost matter.  Returns the margins plus the brackets at
        ``depth`` of the solved rows and the mask of those rows.
        """
        n = dvth.shape[0]
        if self.cache is None:
            m0, m1 = np.empty(n), np.empty(n)
            solved = np.ones(n, dtype=bool)
        else:
            hit, m0, m1 = self.cache.lookup(tag, dvth)
            solved = ~hit
        warm = solved & bracketed
        cold = solved & ~bracketed
        parts = []
        if warm.any():
            warm_state = state.rows(warm[bracketed])
            curves = self.solver.resume(dvth[warm], warm_state, depth)
            m0[warm], m1[warm] = lobe_margins(curves, self.margin_levels)
            parts.append((np.flatnonzero(warm), warm_state))
        if cold.any():
            curves, cold_state = self.coarse_solver.solve_with_state(
                dvth[cold])
            if depth > cold_state.iterations:
                curves = self.solver.resume(dvth[cold], cold_state, depth)
            m0[cold], m1[cold] = lobe_margins(curves, self.margin_levels)
            parts.append((np.flatnonzero(cold), cold_state))
        if self.cache is not None and solved.any():
            self.cache.store(tag, dvth[solved], m0[solved], m1[solved])
        return m0, m1, _merge(parts), solved

    def _local_perf_stats(self) -> dict:
        stats = super()._local_perf_stats()
        stats["screened"] = self.screened
        stats["refined"] = self.refined
        return stats

    def _fingerprint_seed(self) -> int:
        # Coarse-level cache entries depend on the screening depth, so
        # it participates in the fingerprint; adaptive and plain
        # evaluators therefore never share a cache file.
        return stable_seed(super()._fingerprint_seed(), "coarse",
                           self.coarse_solver.bisection_iterations)

    @property
    def device_model_evals(self) -> int:
        return super().device_model_evals + self.coarse_solver.model_evals

    @property
    def evals_saved(self) -> int:
        return super().evals_saved + self.coarse_solver.evals_saved


def _merge(parts: list[tuple[np.ndarray, BisectionState]]
           ) -> BisectionState | None:
    """One bracket state, in row order, from per-group states."""
    if len(parts) < 2:
        return parts[0][1] if parts else None
    order = np.argsort(np.concatenate([index for index, _ in parts]))
    lo_a, hi_a, lo_b, hi_b = (
        np.concatenate(arrays) for arrays in
        zip(*(state.side_a + state.side_b for _, state in parts)))
    merged = BisectionState((lo_a, hi_a), (lo_b, hi_b),
                            parts[0][1].iterations)
    return merged.rows(order)
