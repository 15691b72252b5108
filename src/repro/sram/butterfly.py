"""Vectorised read-condition butterfly curves.

This is the Monte-Carlo hot path.  For a batch of mismatched cells it
computes both half-cell voltage transfer curves (VTCs) under read bias
(wordline high, both bitlines precharged to VDD) by bisection on the output
node's current balance, which is strictly monotone in the node voltage
because every device conducts more toward its own rail as the node moves
away from it.  All arithmetic is numpy-broadcast over
``(batch, grid)`` arrays; no Python-level loop over samples.

One full butterfly (two VTCs) for a batch of B cells costs
``2 * n_bisection * grid`` vectorised device-model evaluations, giving
~1e4-1e5 cell evaluations per second -- enough to run the naive-Monte-Carlo
reference experiments of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sram.cell import SramCell
from repro.spice.model import IdsWorkspace
from repro.xp import ArrayBackend, resolve_backend
from repro.xp import generic as xp_generic


@dataclass
class ButterflyCurves:
    """Butterfly curves for a batch of cells.

    Attributes
    ----------
    grid:
        Shared input-voltage grid, shape (G,).
    vtc_a:
        Inverter A output: Q as a function of QB = ``grid``; shape (B, G).
    vtc_b:
        Inverter B output: QB as a function of Q = ``grid``; shape (B, G).
    vdd:
        Supply voltage the curves were computed at.
    """

    grid: np.ndarray
    vtc_a: np.ndarray
    vtc_b: np.ndarray
    vdd: float

    @property
    def batch_size(self) -> int:
        return self.vtc_a.shape[0]


@dataclass
class BisectionState:
    """Bracket arrays of a partially-converged butterfly solve.

    ``side_a``/``side_b`` hold the ``(lo, hi)`` bracket pair, each of
    shape (B, G), after ``iterations`` bisection steps.  Because
    bisection is deterministic, a deeper solver can
    :meth:`~ReadButterflySolver.resume` from these brackets and land on
    exactly the curves its own from-scratch solve would produce.
    """

    side_a: tuple[np.ndarray, np.ndarray]
    side_b: tuple[np.ndarray, np.ndarray]
    iterations: int

    def rows(self, index: np.ndarray) -> "BisectionState":
        """Bracket copies for a row subset (fancy indexing copies)."""
        return BisectionState(
            (self.side_a[0][index], self.side_a[1][index]),
            (self.side_b[0][index], self.side_b[1][index]),
            self.iterations)


class ReadButterflySolver:
    """Batch butterfly solver for one cell design at one supply voltage.

    Parameters
    ----------
    cell:
        The :class:`~repro.sram.cell.SramCell` (device models + geometry).
    vdd:
        Supply voltage [V]; defaults to the cell's.
    grid_points:
        Number of input-voltage samples per VTC.
    bisection_iterations:
        Bisection refinement steps; 40 gives ~1e-12 V node accuracy.
    """

    def __init__(self, cell: SramCell, vdd: float | None = None,
                 grid_points: int = 101, bisection_iterations: int = 40,
                 batched: bool = True,
                 array_backend: "str | ArrayBackend | None" = None,
                 compaction_depth: int = 48):
        if grid_points < 8:
            raise ValueError(f"grid_points must be >= 8, got {grid_points}")
        if bisection_iterations < 8:
            raise ValueError("bisection_iterations must be >= 8")
        self.cell = cell
        self.vdd = float(cell.vdd if vdd is None else vdd)
        if self.vdd <= 0:
            raise ValueError(f"vdd must be positive, got {self.vdd}")
        self.grid = np.linspace(0.0, self.vdd, grid_points)
        self.bisection_iterations = bisection_iterations
        #: fuse both butterfly sides into one (2B, G) bisection when the
        #: cell is side-symmetric (halves the Python-level step count;
        #: bit-identical because every step op is elementwise over rows)
        self.batched = bool(batched)
        self.backend = (array_backend if isinstance(array_backend,
                                                    ArrayBackend)
                        else resolve_backend(array_backend))
        #: bisection depth beyond which rows whose brackets have
        #: collapsed to adjacent floats are retired from the batch; the
        #: default sits above the standard 40-step solve so the check
        #: costs nothing there, while deep solves (>= ~53 steps, where
        #: brackets reach the float64 ulp) stop paying device evals for
        #: converged cells.  Retirement is bit-identical: once
        #: ``mid == lo`` or ``mid == hi`` at every grid point, every
        #: future midpoint of that row equals the current one.
        self.compaction_depth = int(compaction_depth)
        #: cumulative device-model (Ids) evaluation count, in units of
        #: one device triplet at one (sample, grid) point -- the perf
        #: reports' core "did we actually do less work" metric.
        self.model_evals = 0
        #: device-model evaluations skipped by active-lane compaction
        self.evals_saved = 0
        # device index triplets (load, driver, access) in DEVICE_ORDER
        self._sides = ((0, 1, 2), (3, 4, 5))
        self._side_names = (("L1", "D1", "A1"), ("L2", "D2", "A2"))
        self._symmetric = self._sides_symmetric()

    def _sides_symmetric(self) -> bool:
        """Whether L1/D1/A1 and L2/D2/A2 share params and geometry.

        True for every cell built from a role-based
        :class:`~repro.config.CellGeometry`; the guard keeps side fusion
        honest should a future cell type break the symmetry.
        """
        for name_a, name_b in zip(*self._side_names):
            model_a = self.cell.model(name_a)
            model_b = self.cell.model(name_b)
            if (model_a.params != model_b.params
                    or model_a.w_nm != model_b.w_nm
                    or model_a.l_nm != model_b.l_nm):
                return False
        return True

    # ------------------------------------------------------------------
    def solve(self, delta_vth: np.ndarray) -> ButterflyCurves:
        """Compute both VTCs for a batch of shift vectors.

        Parameters
        ----------
        delta_vth:
            Per-device threshold shifts [V], shape (B, 6) following
            :data:`repro.config.DEVICE_ORDER`.
        """
        delta_vth = self._check_shifts(delta_vth)
        if self.batched and self._symmetric:
            vtc_a, vtc_b = self._solve_fused(delta_vth)
        else:
            vtc_a = self._solve_side(0, delta_vth)
            vtc_b = self._solve_side(1, delta_vth)
        return ButterflyCurves(grid=self.grid, vtc_a=vtc_a, vtc_b=vtc_b,
                               vdd=self.vdd)

    def solve_with_state(self, delta_vth: np.ndarray,
                         depth: int | None = None
                         ) -> tuple[ButterflyCurves, BisectionState]:
        """:meth:`solve` to ``depth`` steps, returning the brackets too.

        ``depth`` defaults to this solver's full depth; a shallower
        solve runs the first ``depth`` steps of the full one, so the
        returned state can :meth:`resume` the bisection later instead
        of re-solving from scratch (the adaptive evaluator's label
        cascade).
        """
        delta_vth = self._check_shifts(delta_vth)
        depth = self.bisection_iterations if depth is None else int(depth)
        if not 1 <= depth <= self.bisection_iterations:
            raise ValueError(
                f"depth must be in [1, {self.bisection_iterations}], "
                f"got {depth}")
        if self.batched and self._symmetric:
            (vtc_a, vtc_b), (side_a, side_b) = self._solve_fused(
                delta_vth, iterations=depth, keep_state=True)
        else:
            vtc_a, side_a = self._solve_side(0, delta_vth,
                                             iterations=depth,
                                             keep_state=True)
            vtc_b, side_b = self._solve_side(1, delta_vth,
                                             iterations=depth,
                                             keep_state=True)
        curves = ButterflyCurves(grid=self.grid, vtc_a=vtc_a, vtc_b=vtc_b,
                                 vdd=self.vdd)
        return curves, BisectionState(side_a, side_b, depth)

    def resume(self, delta_vth: np.ndarray, state: BisectionState,
               depth: int | None = None) -> ButterflyCurves:
        """Continue a shallower solve to ``depth`` bisection steps.

        ``depth`` defaults to this solver's full depth.  The first
        ``state.iterations`` steps of a from-scratch solve compute
        exactly the brackets ``state`` holds (same initial interval,
        same deterministic comparisons), so the returned curves are
        bit-identical to a from-scratch ``depth``-step solve -- at full
        depth, to ``solve(delta_vth)`` -- at the cost of only the
        remaining steps.  ``state`` is advanced in place: afterwards it
        holds the brackets at ``depth``, so a deeper call can resume
        again from it.
        """
        delta_vth = self._check_shifts(delta_vth)
        depth = self.bisection_iterations if depth is None else int(depth)
        if not state.iterations <= depth <= self.bisection_iterations:
            raise ValueError(
                f"cannot resume a {state.iterations}-step solve to depth "
                f"{depth} with a {self.bisection_iterations}-step solver")
        extra = depth - state.iterations
        if self.batched and self._symmetric:
            start = (np.concatenate([state.side_a[0], state.side_b[0]]),
                     np.concatenate([state.side_a[1], state.side_b[1]]))
            (vtc_a, vtc_b), (side_a, side_b) = self._solve_fused(
                delta_vth, start=start, iterations=extra,
                depth_done=state.iterations, keep_state=True)
        else:
            vtc_a, side_a = self._solve_side(
                0, delta_vth, start=state.side_a, iterations=extra,
                depth_done=state.iterations, keep_state=True)
            vtc_b, side_b = self._solve_side(
                1, delta_vth, start=state.side_b, iterations=extra,
                depth_done=state.iterations, keep_state=True)
        state.side_a, state.side_b = side_a, side_b
        state.iterations = depth
        return ButterflyCurves(grid=self.grid, vtc_a=vtc_a, vtc_b=vtc_b,
                               vdd=self.vdd)

    def solve_side(self, side: int, delta_vth: np.ndarray,
                   bl_voltage: float | None = None,
                   wl_voltage: float | None = None) -> np.ndarray:
        """VTC of one half cell only; shape (B, G).

        ``bl_voltage``/``wl_voltage`` override the read-condition defaults
        (both at VDD); this is how the hold and write analyses in
        :mod:`repro.sram.static` reuse the solver:

        * hold: ``wl_voltage = 0`` (access gated off);
        * write: ``bl_voltage = 0`` on the driven side.
        """
        if side not in (0, 1):
            raise ValueError(f"side must be 0 or 1, got {side}")
        return self._solve_side(side, self._check_shifts(delta_vth),
                                bl_voltage=bl_voltage,
                                wl_voltage=wl_voltage)

    # ------------------------------------------------------------------
    def _check_shifts(self, delta_vth) -> np.ndarray:
        delta_vth = np.atleast_2d(np.asarray(delta_vth, dtype=float))
        if delta_vth.ndim != 2 or delta_vth.shape[1] != 6:
            raise ValueError(
                f"delta_vth must have shape (B, 6), got {delta_vth.shape}")
        return delta_vth

    def _node_current(self, side_names, vin, vout, dv_load, dv_driver,
                      dv_access, bl, wl):
        """Net current *into* the half-cell output node.

        Monotone decreasing in ``vout``: the pull-up contributions shrink
        and the pull-down grows as the node rises.
        """
        load, driver, access = (self.cell.model(n) for n in side_names)
        vdd = self.vdd
        # pMOS load: drain at the node; current into node = -Ids.
        i_load = -load.ids(vin, vout, vdd, dv_load)
        # nMOS driver: drain at the node; current into node = -Ids.
        i_driver = -driver.ids(vin, vout, 0.0, dv_driver)
        # access nMOS between the bitline and the node; gate at WL.  The
        # model handles either current direction (source/drain swap), so a
        # low bitline correctly discharges the node during writes.
        i_access = access.ids(wl, bl, vout, dv_access)
        return i_load + i_driver + i_access

    def _solve_side(self, side: int, delta_vth: np.ndarray,
                    bl_voltage: float | None = None,
                    wl_voltage: float | None = None,
                    start: tuple[np.ndarray, np.ndarray] | None = None,
                    iterations: int | None = None,
                    depth_done: int = 0, keep_state: bool = False):
        names = self._side_names[side]
        idx = self._sides[side]
        models = tuple(self.cell.model(n) for n in names)
        dv_load = delta_vth[:, idx[0], None]
        dv_driver = delta_vth[:, idx[1], None]
        dv_access = delta_vth[:, idx[2], None]
        return self._bisect(models, dv_load, dv_driver, dv_access,
                            bl_voltage, wl_voltage, start, iterations,
                            depth_done, keep_state)

    def _solve_fused(self, delta_vth: np.ndarray,
                     start: tuple[np.ndarray, np.ndarray] | None = None,
                     iterations: int | None = None,
                     depth_done: int = 0, keep_state: bool = False):
        """Both sides as one (2B, G) bisection; rows [:B] are side A.

        Valid only for side-symmetric cells (checked at construction):
        with identical device models, stacking side B's shift columns
        under side A's gives per-row results bit-identical to the two
        sequential solves, because every bisection op is elementwise
        over rows.
        """
        batch = delta_vth.shape[0]
        idx_a, idx_b = self._sides
        dv_load = np.concatenate(
            [delta_vth[:, idx_a[0]], delta_vth[:, idx_b[0]]])[:, None]
        dv_driver = np.concatenate(
            [delta_vth[:, idx_a[1]], delta_vth[:, idx_b[1]]])[:, None]
        dv_access = np.concatenate(
            [delta_vth[:, idx_a[2]], delta_vth[:, idx_b[2]]])[:, None]
        models = tuple(self.cell.model(n) for n in self._side_names[0])
        result = self._bisect(models, dv_load, dv_driver, dv_access,
                              None, None, start, iterations, depth_done,
                              keep_state)
        if keep_state:
            mid, (lo, hi) = result
            return ((mid[:batch], mid[batch:]),
                    ((lo[:batch], hi[:batch]), (lo[batch:], hi[batch:])))
        return result[:batch], result[batch:]

    def _bisect(self, models, dv_load, dv_driver, dv_access,
                bl_voltage, wl_voltage, start, iterations, depth_done,
                keep_state):
        """Shared bisection engine over an (N, G) bracket block.

        Runs ``iterations`` steps (default: the full depth) from the
        brackets ``start``, which already encode ``depth_done`` steps
        (0 for a from-scratch solve).

        Maintains the invariant ``0 <= lo <= mid <= hi <= vdd`` (the
        initial brackets span ``[0, vdd]`` and every update replaces an
        endpoint with the midpoint), which is what licenses the
        swap-free ``assume_ordered`` device evaluation below.
        """
        bl = self.vdd if bl_voltage is None else float(bl_voltage)
        wl = self.vdd if wl_voltage is None else float(wl_voltage)
        batch = dv_load.shape[0]
        grid_size = self.grid.size
        vin = self.grid[None, :]
        if start is None:
            lo = np.zeros((batch, grid_size))
            hi = np.full((batch, grid_size), self.vdd)
        else:
            lo, hi = start  # resumed brackets, consumed by the solve
        steps = (self.bisection_iterations if iterations is None
                 else iterations)
        if not self.backend.native_numpy:
            return self._bisect_generic(models, vin, lo, hi, dv_load,
                                        dv_driver, dv_access, bl, wl,
                                        steps, keep_state)

        load, driver, access = models
        # The node stays inside [0, vdd]: the pMOS load and nMOS driver
        # are always source/drain-ordered after polarity mirroring, and
        # the access device is whenever the bitline is at or above the
        # bracket ceiling (reads and holds; writes drive a bitline low
        # and take the general swap path).
        access_ordered = bl >= self.vdd
        kernels = self.backend.kernels
        workspace = IdsWorkspace(lo.shape)
        i_load = np.empty(lo.shape)
        i_driver = np.empty(lo.shape)
        i_access = np.empty(lo.shape)
        mid = np.empty_like(lo)
        above = np.empty(lo.shape, dtype=bool)
        below = np.empty(lo.shape, dtype=bool)
        # Active-lane compaction: collect retired rows into `final`,
        # tracked by their original row index.  Disabled for state-
        # keeping solves, whose brackets must stay full-size.
        compacting = (not keep_state
                      and depth_done + steps > self.compaction_depth)
        final = np.empty_like(lo) if compacting else None
        alive = np.arange(batch) if compacting else None
        n_active = batch

        def views():
            return (mid[:n_active], above[:n_active], below[:n_active],
                    i_load[:n_active], i_driver[:n_active],
                    i_access[:n_active])

        mid_v, above_v, below_v, i_load_v, i_driver_v, i_access_v = \
            views()
        for step in range(steps):
            np.add(lo, hi, out=mid_v)
            mid_v *= 0.5
            if compacting and depth_done + step >= self.compaction_depth:
                # A row retires once mid equals lo or hi at every grid
                # point: the bracket update then either keeps both
                # endpoints or collapses onto mid, so every later
                # midpoint -- and the final (lo + hi) / 2 -- is this mid.
                np.equal(mid_v, lo, out=above_v)
                np.equal(mid_v, hi, out=below_v)
                np.logical_or(above_v, below_v, out=above_v)
                frozen = above_v.all(axis=1)
                if frozen.any():
                    final[alive[frozen]] = mid_v[frozen]
                    self.evals_saved += (int(frozen.sum())
                                         * (steps - step) * grid_size)
                    keep = ~frozen
                    alive = alive[keep]
                    lo = lo[keep]
                    hi = hi[keep]
                    dv_load = dv_load[keep]
                    dv_driver = dv_driver[keep]
                    dv_access = dv_access[keep]
                    n_active = lo.shape[0]
                    workspace.shrink(n_active)
                    (mid_v, above_v, below_v, i_load_v, i_driver_v,
                     i_access_v) = views()
                    if n_active == 0:
                        break
                    np.add(lo, hi, out=mid_v)
                    mid_v *= 0.5
            # in-place node current, same op order as _node_current
            load.ids_into(vin, mid_v, self.vdd, dv_load, out=i_load_v,
                          workspace=workspace, assume_ordered=True,
                          kernels=kernels)
            np.negative(i_load_v, out=i_load_v)
            driver.ids_into(vin, mid_v, 0.0, dv_driver, out=i_driver_v,
                            workspace=workspace, assume_ordered=True,
                            kernels=kernels)
            np.negative(i_driver_v, out=i_driver_v)
            access.ids_into(wl, bl, mid_v, dv_access, out=i_access_v,
                            workspace=workspace,
                            assume_ordered=access_ordered,
                            kernels=kernels)
            np.add(i_load_v, i_driver_v, out=i_load_v)
            np.add(i_load_v, i_access_v, out=i_load_v)
            np.greater(i_load_v, 0.0, out=above_v)
            np.logical_not(above_v, out=below_v)
            np.copyto(lo, mid_v, where=above_v)
            np.copyto(hi, mid_v, where=below_v)
            self.model_evals += n_active * grid_size
        if n_active:
            np.add(lo, hi, out=mid_v)
            mid_v *= 0.5
        if compacting:
            if n_active:
                final[alive] = mid_v
            result = final
        else:
            result = mid
        if keep_state:
            return result, (lo, hi)
        return result

    def _bisect_generic(self, models, vin, lo, hi, dv_load, dv_driver,
                        dv_access, bl, wl, steps, keep_state):
        """Bisection through the pluggable array namespace.

        Inputs are converted at this boundary and results converted
        back, so estimator code above the solver never sees foreign
        array types.  The program (see :mod:`repro.xp.generic`) applies
        the same operations in the same order as the native path; with
        a numpy-backed namespace it is bit-identical, and for real
        device backends any deviation is bounded by the namespace's own
        elementwise kernels (documented tolerance).
        """
        xp = self.backend.xp
        mid, lo_out, hi_out = xp_generic.bisect(
            xp, models, xp.asarray(vin), xp.asarray(lo), xp.asarray(hi),
            xp.asarray(dv_load), xp.asarray(dv_driver),
            xp.asarray(dv_access), self.vdd, bl, wl, steps)
        self.model_evals += steps * lo.shape[0] * self.grid.size
        result = np.asarray(mid)
        if keep_state:
            return result, (np.asarray(lo_out), np.asarray(hi_out))
        return result
