"""Noise-margin extraction: Seevinck's maximum embedded square.

The read noise margin of a lobe is the side of the largest square that fits
inside the corresponding eye of the butterfly plot (Seevinck, List, Lohstroh
1987).  A square with axis-parallel sides inscribed in a lobe touches the
two curves at *opposite corners*, which lie on a line of slope +1; rotating
the plane by 45 degrees turns those lines into verticals, so the margin is

.. math::

    \\mathrm{RNM} = \\max_v \\;
        \\frac{u_\\mathrm{outer}(v) - u_\\mathrm{inner}(v)}{\\sqrt 2}

where ``(u, v) = ((x+y)/sqrt2, (y-x)/sqrt2)`` and each curve is a function
``u(v)`` (both VTCs are monotone, so ``v`` is a valid parameter).  The
signed maximum is **negative when the lobe has collapsed**, which is
exactly the failure criterion and gives a margin that varies continuously
through zero -- a property the boundary bisection in
:mod:`repro.core.boundary` relies on.

Lobe 0 (upper-left eye, around the stored-"0" point Q=0/QB=VDD) lives at
``v > 0``; lobe 1 is its mirror image at ``v < 0``.
"""

from __future__ import annotations

import numpy as np

from repro.sram.butterfly import ButterflyCurves

_SQRT2 = float(np.sqrt(2.0))


def batched_interp(x: np.ndarray, y: np.ndarray, xq: np.ndarray) -> np.ndarray:
    """Row-wise linear interpolation with clamped extrapolation.

    Parameters
    ----------
    x:
        Sample abscissae, shape (B, G), strictly increasing along axis 1.
    y:
        Sample ordinates, shape (B, G).
    xq:
        Query abscissae, shape (K,) shared across rows or (B, K) per row.
        Sorted shared queries (every :func:`lobe_margins` call) take an
        O(B * (G log K + K)) counting path; it returns the same bits as
        the O(B * G * K) comparison the other shapes use.

    Returns
    -------
    (B, K) interpolated values; queries outside the sample range clamp to
    the endpoint values.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 or x.shape != y.shape:
        raise ValueError(
            f"x and y must both be (B, G), got {x.shape} and {y.shape}")
    xq = np.asarray(xq, dtype=float)
    if xq.ndim == 1 and bool(np.all(xq[1:] >= xq[:-1])):
        counts = _counts_sorted(x, xq)
        xq = np.broadcast_to(xq, (x.shape[0], xq.size))
    else:
        if xq.ndim == 1:
            xq = np.broadcast_to(xq, (x.shape[0], xq.size))
        if xq.ndim != 2 or xq.shape[0] != x.shape[0]:
            raise ValueError(
                f"xq must be (K,) or (B, K), got {xq.shape} for "
                f"B={x.shape[0]}")
        counts = np.sum(x[:, :, None] <= xq[:, None, :], axis=1)

    # Count of samples <= query -> right-bracket index in [1, G-1].
    idx = np.clip(counts, 1, x.shape[1] - 1)
    x0 = np.take_along_axis(x, idx - 1, axis=1)
    x1 = np.take_along_axis(x, idx, axis=1)
    y0 = np.take_along_axis(y, idx - 1, axis=1)
    y1 = np.take_along_axis(y, idx, axis=1)
    span = x1 - x0
    t = np.where(span > 0, (xq - x0) / np.where(span > 0, span, 1.0), 0.0)
    t = np.clip(t, 0.0, 1.0)
    return y0 + t * (y1 - y0)


def _counts_sorted(x: np.ndarray, xq: np.ndarray) -> np.ndarray:
    """``count[b, k] = #{g : x[b, g] <= xq[k]}`` for sorted ``xq``.

    The same integers as the ``(B, G, K)`` broadcast comparison, in
    O(B * (G log K + K)) work: sample ``x[b, g]`` is ``<=`` exactly the
    queries from ``searchsorted(xq, x[b, g], side="left")`` on, so a
    per-row histogram of those first indices, cumulated over ``k``,
    counts every (sample, query) pair the comparison would.  Nothing
    assumes ``x`` is sorted along a row, and NaN samples land past the
    last query, matching ``nan <= q`` being false.
    """
    batch, n_queries = x.shape[0], xq.size
    first = np.searchsorted(xq, x, side="left")
    first += (n_queries + 1) * np.arange(batch)[:, None]
    hist = np.bincount(first.ravel(), minlength=batch * (n_queries + 1))
    return np.cumsum(hist.reshape(batch, n_queries + 1), axis=1)[:, :-1]


def _rotated(curve_x: np.ndarray, curve_y: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray]:
    """Return (v, u) coordinates of curve points."""
    u = (curve_x + curve_y) / _SQRT2
    v = (curve_y - curve_x) / _SQRT2
    return v, u


def lobe_margins(curves: ButterflyCurves, levels: int = 96
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Signed read noise margins of both lobes for a batch of cells.

    Parameters
    ----------
    curves:
        Butterfly curves from
        :class:`~repro.sram.butterfly.ReadButterflySolver`.
    levels:
        Number of 45-degree cut levels scanned per lobe.

    Returns
    -------
    ``(rnm0, rnm1)`` arrays of shape (B,): the margins of the stored-"0"
    lobe (upper-left) and the stored-"1" lobe (lower-right).  Negative
    values mean the lobe has collapsed (read failure for that state).
    """
    if levels < 8:
        raise ValueError(f"levels must be >= 8, got {levels}")
    grid = curves.grid
    batch = curves.batch_size

    # Curve B points: (q, qb) = (grid, vtc_b); v decreases along the grid.
    v_b, u_b = _rotated(np.broadcast_to(grid, (batch, grid.size)),
                        curves.vtc_b)
    # Curve A points: (q, qb) = (vtc_a, grid); v increases along the grid.
    v_a, u_a = _rotated(curves.vtc_a,
                        np.broadcast_to(grid, (batch, grid.size)))

    # batched_interp needs increasing abscissae: flip curve B.
    v_b = v_b[:, ::-1]
    u_b = u_b[:, ::-1]

    vmax = curves.vdd / _SQRT2
    vq0 = np.linspace(0.0, vmax, levels)
    vq1 = np.linspace(-vmax, 0.0, levels)

    gap0 = (batched_interp(v_b, u_b, vq0) - batched_interp(v_a, u_a, vq0))
    gap1 = (batched_interp(v_a, u_a, vq1) - batched_interp(v_b, u_b, vq1))

    rnm0 = gap0.max(axis=1) / _SQRT2
    rnm1 = gap1.max(axis=1) / _SQRT2
    return rnm0, rnm1


def static_noise_margin(curves: ButterflyCurves, levels: int = 96
                        ) -> np.ndarray:
    """Cell-level read noise margin: the worse of the two lobes, (B,)."""
    rnm0, rnm1 = lobe_margins(curves, levels)
    return np.minimum(rnm0, rnm1)


def max_square_reference(curve_b_xy: np.ndarray, curve_a_xy: np.ndarray,
                          lobe: int, vdd: float, resolution: int = 400
                          ) -> float:
    """Independent single-cell reference implementation (tests only).

    Uses ``np.interp`` on sorted rotated point lists rather than the batched
    interpolation above, so it exercises a separate code path.

    Parameters
    ----------
    curve_b_xy, curve_a_xy:
        Dense (N, 2) point lists of the two butterfly curves in the
        (Q, QB) plane.
    lobe:
        0 for the upper-left eye, 1 for the lower-right.
    """
    if lobe not in (0, 1):
        raise ValueError(f"lobe must be 0 or 1, got {lobe}")
    vb, ub = _rotated(curve_b_xy[:, 0], curve_b_xy[:, 1])
    va, ua = _rotated(curve_a_xy[:, 0], curve_a_xy[:, 1])
    vmax = vdd / _SQRT2
    cuts = (np.linspace(0.0, vmax, resolution) if lobe == 0
            else np.linspace(-vmax, 0.0, resolution))
    order_b = np.argsort(vb)
    order_a = np.argsort(va)
    ub_q = np.interp(cuts, vb[order_b], ub[order_b])
    ua_q = np.interp(cuts, va[order_a], ua[order_a])
    gap = (ub_q - ua_q) if lobe == 0 else (ua_q - ub_q)
    return float(gap.max() / _SQRT2)
