"""Adaptive-resolution margin evaluation: the enclosure cascade.

Every estimate funnels through
:meth:`~repro.sram.butterfly.ReadButterflySolver.solve`, which spends a
fixed ``2 x bisection_iterations x grid_points`` device-model
evaluations per sample no matter how far the sample sits from the
failure boundary.  For *labelling* (the only thing the estimators
consume in bulk) that is wasted work: a label needs only the margin's
sign, and a sample far from the boundary settles its sign after a few
bisection steps.

:class:`AdaptiveMarginEvaluator` therefore labels each row at the
shallowest bisection depth whose brackets *prove* its sign.  It screens
every batch at depth 4 on the **same** solver, voltage grid and margin
levels as the exact solve, then resumes the rows it could not settle
down a fixed schedule (:data:`CASCADE_DEPTHS`, then the exact depth
40).  At depth ``k`` each row gets an exact enclosure
``lower <= m_40 <= upper`` of its depth-40 margin; the row settles once
``lower > SETTLE_DELTA`` (pass) or ``upper < -SETTLE_DELTA`` (fail).
The argument (in full in ``docs/PERFORMANCE.md``):

* **nesting** -- bisection brackets only shrink, and the exact solve's
  curves are the midpoints of its depth-40 brackets, so they lie
  pointwise inside every shallower level's ``[lo, hi]``;
* **monotonicity** -- the lobe-0 margin never falls when ``vtc_b``
  rises and never rises when ``vtc_a`` rises (lobe 1 is the reverse):
  in the 45-degree frame raising a VTC moves each cut's crossing
  outward, and clamped ends follow the end node;
* **corners** -- so the lobe margins of the corner pairs
  ``(vtc_a=hi_a, vtc_b=lo_b)`` and ``(lo_a, hi_b)`` bound each lobe's
  exact margin from below and above.

Two conditions keep this airtight and are *checked*, not assumed: each
corner curve must rise less than one grid step from node to node
(:func:`~repro.sram.margins.abscissae_increasing`; a row failing it
gets the infinite enclosure and does not settle at that level), and
``SETTLE_DELTA`` sits far above the interpolation's rounding.  A row
that reaches depth 40 takes the exact path's mid-bracket margin, so
every label is **bit-identical** to the exact path's.  No level starts
over: each resumes the previous level's brackets (see
:meth:`~repro.sram.butterfly.ReadButterflySolver.resume`), so a row pays
only the depth its sign needed.  :meth:`margins` (the float-valued API
used by boundary refinement, cross-entropy and the analyses) always
returns exact values -- adaptivity accelerates labelling only.
"""

from __future__ import annotations

from repro.perf.cache import SolveCache
from repro.rng import stable_seed
from repro.sram.butterfly import BisectionState, ButterflyCurves
from repro.sram.cell import SramCell
from repro.sram.evaluator import CellEvaluator
from repro.sram.margins import abscissae_increasing, lobe_margins
from repro.variability.space import VariabilitySpace

import numpy as np

#: bisection depths of the label cascade before the exact depth.  Depth
#: 4 settles >= 99% of bulk samples; four more steps shrink the
#: enclosure about 16-fold, and the wider last gap serves the rare rows
#: within microvolts of the boundary.
CASCADE_DEPTHS = (4, 8, 12, 16, 20, 24, 32)

#: settling margin [V] on the enclosure: far above the ~1e-15 V
#: rounding of the rotation and interpolation, far below any margin an
#: estimate could distinguish from zero
SETTLE_DELTA = 1e-12

#: margin lobes each label criterion reads
CRITERION_LOBES = {"lobe0": (0,), "cell": (0, 1)}


def bound_tag(depth: int, lobe: int) -> str:
    """Cache level of one lobe's ``(lower, upper)`` bound at ``depth``."""
    return f"bound-{depth}-lobe{lobe}"


def corner_margin(state: BisectionState, grid: np.ndarray, vdd: float,
                  levels: int, lobe: int, bound: str,
                  rows: np.ndarray | slice = slice(None)) -> np.ndarray:
    """One bound on one lobe's converged margin, for ``rows`` of ``state``.

    Raising ``vtc_a`` lowers lobe 0 and raises lobe 1, raising ``vtc_b``
    does the reverse, so the corner pair ``(vtc_a=hi_a, vtc_b=lo_b)`` of
    the brackets gives lobe 0's ``"lower"`` and lobe 1's ``"upper"``
    bound, and ``(lo_a, hi_b)`` the other two.  Any curve pair inside
    the brackets -- in particular the exact solve's -- has its margin
    within these bounds up to interpolation rounding.  Rows whose corner
    curves rise a full grid step somewhere get the infinite bound.
    """
    (lo_a, hi_a), (lo_b, hi_b) = state.side_a, state.side_b
    vtc_a, vtc_b = ((hi_a, lo_b) if (lobe == 0) == (bound == "lower")
                    else (lo_a, hi_b))
    curves = ButterflyCurves(grid=grid, vtc_a=vtc_a[rows],
                             vtc_b=vtc_b[rows], vdd=vdd)
    fallback = -np.inf if bound == "lower" else np.inf
    return np.where(abscissae_increasing(curves),
                    lobe_margins(curves, levels, (lobe,))[0], fallback)


def margin_bounds(state: BisectionState, grid: np.ndarray, vdd: float,
                  levels: int, lobes: tuple[int, ...]
                  ) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Enclosure ``{lobe: (lower, upper)}`` of each lobe's exact margin.

    Lower bounds are computed for every row; upper bounds only for rows
    whose criterion lower bound (the minimum over ``lobes``) does not
    already prove a pass.  The rest get ``inf``, a valid if loose bound
    that no settling decision reads.
    """
    lower = {lobe: corner_margin(state, grid, vdd, levels, lobe, "lower")
             for lobe in lobes}
    undecided = np.minimum.reduce(list(lower.values())) <= SETTLE_DELTA
    bounds = {}
    for lobe in lobes:
        upper = np.full(undecided.size, np.inf)
        if undecided.any():
            upper[undecided] = corner_margin(state, grid, vdd, levels,
                                             lobe, "upper", undecided)
        bounds[lobe] = (lower[lobe], upper)
    return bounds


class AdaptiveMarginEvaluator(CellEvaluator):
    """Cell evaluator with enclosure-cascade labelling.

    Drop-in replacement for :class:`~repro.sram.evaluator.CellEvaluator`
    (built by :func:`repro.perf.build_evaluator` when the
    :class:`~repro.perf.config.PerfConfig` enables adaptivity).  Margins
    stay exact; only :meth:`failure_labels` takes the cascade, and its
    labels match the exact path bit for bit by the enclosure argument
    in the module docstring.  A shared
    :class:`~repro.perf.cache.SolveCache` stores each level's bounds
    under a per-depth, per-lobe tag (:func:`bound_tag`) and the exact
    level's margins under ``"exact"``, so resolutions never mix.
    """

    def __init__(self, cell: SramCell, space: VariabilitySpace,
                 vdd: float | None = None, grid_points: int = 61,
                 margin_levels: int = 64, max_batch: int | None = None,
                 cache: SolveCache | None = None, batched: bool = True,
                 array_backend=None, planner=None):
        super().__init__(cell, space, vdd=vdd, grid_points=grid_points,
                         margin_levels=margin_levels, max_batch=max_batch,
                         cache=cache, batched=batched,
                         array_backend=array_backend, planner=planner)
        #: bisection depths the cascade visits, ending at the exact one
        self.cascade = CASCADE_DEPTHS + (self.solver.bisection_iterations,)
        self.screened = 0
        self.refined = 0

    # ------------------------------------------------------------------
    def failure_labels(self, x: np.ndarray, which: str = "cell"
                       ) -> np.ndarray:
        """Fail labels, bit-identical to ``CellEvaluator``'s exact path.

        Screens the whole batch at the first cascade depth, then walks
        the rows whose enclosure still straddles zero down the cascade,
        each level *resuming* the previous level's bisection, so a row
        pays only the depth its sign actually needs.
        """
        if which not in CRITERION_LOBES:
            raise ValueError(
                f"which must be 'lobe0' or 'cell', got {which!r}")
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
        for depth in self.cascade[:-1]:
            lower, upper, state, bracketed = self._level_bounds(
                dvth[rows], depth, CRITERION_LOBES[which], state,
                bracketed)
            failed = upper < -SETTLE_DELTA
            labels[rows] = failed
            open_ = ~(failed | (lower > SETTLE_DELTA))
            if depth == self.cascade[0]:
                self.refined += int(open_.sum())
                self.screened += int(rows.size - open_.sum())
            if not open_.any():
                return labels
            if state is not None:
                state = state.rows(open_[bracketed])
            rows = rows[open_]
            bracketed = bracketed[open_]
        m0, m1 = self._exact_margins(dvth[rows], state, bracketed)
        labels[rows] = self._select_margin(m0, m1, which) < 0.0
        return labels

    def _solve(self, dvth, depth, state, bracketed, solved):
        """Brackets at ``depth`` (and curves) of the ``solved`` rows.

        Rows with brackets resume from them; the rest (rows whose
        previous level was a cache hit, and every row at the first
        level) solve from scratch.  Both branches yield the same bits,
        so which one a row takes is purely a cost matter.  Returns the
        curves and brackets of the solved rows in row order.
        """
        warm = solved & bracketed
        cold = solved & ~bracketed
        parts = []
        if warm.any():
            warm_state = state.rows(warm[bracketed])
            curves = self.solver.resume(dvth[warm], warm_state, depth)
            parts.append((np.flatnonzero(warm), curves, warm_state))
        if cold.any():
            curves, cold_state = self.solver.solve_with_state(dvth[cold],
                                                              depth)
            parts.append((np.flatnonzero(cold), curves, cold_state))
        return _merge(parts)

    def _level_bounds(self, dvth, depth, lobes, state, bracketed):
        """Margin enclosure of ``dvth`` at bisection depth ``depth``.

        A row hits the cache only when every lobe the criterion reads
        has a bound stored under this depth; missed rows are solved and
        their bounds stored per lobe.  Returns the criterion's
        ``(lower, upper)`` plus the brackets of the solved rows and the
        mask of those rows.
        """
        found = {}
        if self.cache is None:
            solved = np.ones(dvth.shape[0], dtype=bool)
        else:
            solved = np.zeros(dvth.shape[0], dtype=bool)
            for lobe in lobes:
                hit, low, high = self.cache.lookup(bound_tag(depth, lobe),
                                                   dvth)
                found[lobe] = (low, high)
                solved |= ~hit
        new_state = None
        if solved.any():
            _, new_state = self._solve(dvth, depth, state, bracketed,
                                       solved)
            bounds = margin_bounds(new_state, self.solver.grid, self.vdd,
                                   self.margin_levels, lobes)
            for lobe, (low, high) in bounds.items():
                if self.cache is None:
                    found[lobe] = (low, high)
                    continue
                self.cache.store(bound_tag(depth, lobe), dvth[solved],
                                 low, high)
                found[lobe][0][solved] = low
                found[lobe][1][solved] = high
        # cell margin = min over lobes, so its enclosure is the min of
        # the lobes' lower and the min of their upper bounds
        lower = np.minimum.reduce([found[lobe][0] for lobe in lobes])
        upper = np.minimum.reduce([found[lobe][1] for lobe in lobes])
        return lower, upper, new_state, solved

    def _exact_margins(self, dvth, state, bracketed):
        """Exact lobe margins, resuming the brackets rows carry."""
        n = dvth.shape[0]
        if self.cache is None:
            m0, m1 = np.empty(n), np.empty(n)
            solved = np.ones(n, dtype=bool)
        else:
            hit, m0, m1 = self.cache.lookup("exact", dvth)
            solved = ~hit
        if solved.any():
            curves, _ = self._solve(dvth, self.cascade[-1], state,
                                    bracketed, solved)
            m0[solved], m1[solved] = lobe_margins(curves,
                                                  self.margin_levels)
            if self.cache is not None:
                self.cache.store("exact", dvth[solved], m0[solved],
                                 m1[solved])
        return m0, m1

    def _local_perf_stats(self) -> dict:
        stats = super()._local_perf_stats()
        stats["screened"] = self.screened
        stats["refined"] = self.refined
        return stats

    def _fingerprint_seed(self) -> int:
        # Bound-level cache entries depend on the cascade's depths and
        # settling rule, so both participate in the fingerprint;
        # adaptive and plain evaluators therefore never share a cache
        # file, and caches of an earlier settling rule never load.
        return stable_seed(super()._fingerprint_seed(), "enclosure",
                           self.cascade, SETTLE_DELTA)


def _merge(parts: list[tuple[np.ndarray, ButterflyCurves, BisectionState]]
           ) -> tuple[ButterflyCurves, BisectionState]:
    """One curve batch and bracket state, in row order, from groups."""
    if len(parts) == 1:
        return parts[0][1:]
    order = np.argsort(np.concatenate([index for index, _, _ in parts]))
    curves = [c for _, c, _ in parts]
    merged_curves = ButterflyCurves(
        grid=curves[0].grid,
        vtc_a=np.concatenate([c.vtc_a for c in curves])[order],
        vtc_b=np.concatenate([c.vtc_b for c in curves])[order],
        vdd=curves[0].vdd)
    lo_a, hi_a, lo_b, hi_b = (
        np.concatenate(arrays) for arrays in
        zip(*(state.side_a + state.side_b for _, _, state in parts)))
    merged = BisectionState((lo_a, hi_a), (lo_b, hi_b),
                            parts[0][2].iterations)
    return merged_curves, merged.rows(order)
