"""Kernel smoothing machinery.

The Epanechnikov kernel, and one windowed local-polynomial kernel over rows
of curves (``_row_fits``) that makes every kernel fit of the pipelines:
degrees 0, 1 and 2, values or slopes, leave-one-out or not, over the
kernel's compact-support windows, never a dense (evaluation x grid) weight
matrix.  On it sit the Nadaraya-Watson fits of the registered curves
(``nadaraya_watson_rows``), the leave-one-out bandwidth choice
(``_loocv_rows``) and its default candidate ladders; next to it, the
monotone smoothing of warp maps (``monotone_through_knots``).  A fit's
window, kernel weights, moments and row of the inverse moment matrix are
computed once per distinct (grid, bandwidth, evaluation point) row: once
for all the curves that share a grid, a row of evaluation points and a
row of bandwidths, otherwise once per curve.  Every solve is elementwise
arithmetic on its own window, with no BLAS or LAPACK call, so each curve
gets the bits it would get alone, at any thread count.
"""

from __future__ import annotations

import numpy as np
from scipy.interpolate import PchipInterpolator

from .errors import EmptyWindow
from .variation import searchsorted_rows

_CELL_BUDGET = 1 << 18  # bandwidths x eval points x window width per chunk of one curve
_BLOCK_BUDGET = 1 << 15  # window points per block of _row_fits; smaller blocks than
# _CELL_BUDGET stay in cache and keep the peak memory of a sample down
_LOO_BLOCK_FITS = 1 << 15  # fits per row block of _loo_errors: enough curves to share
# each window geometry, with arrays over (rows, bandwidths, points) of one block's size
_MIN_BANDWIDTH = 2.0 * np.finfo(float).max ** -0.25  # about 1.73e-77.  On [0, 1] |u| <= 1/h,
# and a degree-2 fit forms u^4 at every padded window point: at max ** -0.25 itself
# h^-4 rounds past the largest float; at twice that it stays 16 times below it


def epanechnikov(u) -> np.ndarray:
    """The Epanechnikov kernel 3/4 (1 - u^2) on |u| < 1, zero outside."""
    u = np.asarray(u, dtype=float)
    return np.where(np.abs(u) < 1.0, 0.75 * (1.0 - u * u), 0.0)


def suggested_min_bandwidths(grids, eval_points) -> np.ndarray:
    """Smallest bandwidth for which every window of a curve is nonempty, one
    per curve, with one row of ``eval_points`` each.

    ``grids`` holds one sorted grid shared by every curve, or one per curve,
    padded past its last point with +inf.
    """
    size = np.count_nonzero(grids < np.inf, axis=1)[:, None]
    rows = np.arange(eval_points.shape[0])[:, None] if grids.shape[0] > 1 else 0
    idx = searchsorted_rows(grids, eval_points)
    left = np.abs(eval_points - grids[rows, np.clip(idx - 1, 0, size - 1)])
    right = np.abs(grids[rows, np.clip(idx, 0, size - 1)] - eval_points)
    return np.minimum(left, right).max(axis=1) * (1.0 + 1e-9)


def _row_fits(grids, values, bandwidths, eval_points, degrees, deriv_order=0, loo=False):
    """Local polynomial fits of many curves over the kernel's compact-support windows.

    ``grids`` holds one sorted grid shared by every curve, or one per curve,
    padded past its last point with +inf; ``values`` (n, L) is padded with
    any finite value.  ``bandwidths`` (n, K) holds one row per curve, each
    in [_MIN_BANDWIDTH, 1] (ValueError otherwise: every bandwidth of the
    pipelines passes here), and ``eval_points`` (n, m) one per curve or one
    shared by all.  Returns an array of shape (len(degrees), n, K, m) whose
    entry [d, i, k] holds, at each of curve i's evaluation points, the
    deriv_order coefficient (scaled back to the time axis) of the weighted
    least-squares fit of degree degrees[d] with bandwidth bandwidths[i, k]
    (Fan & Gijbels 1996, ch. 3), for deriv_order 0 or 1; nan marks a window
    with fewer than degree + 1 positively weighted points or a singular
    moment matrix S.  Degree 0 is the Nadaraya-Watson average, with the
    weights normalized before the dot product so a single-point window
    returns its value exactly.  With ``loo`` a grid point coinciding with
    the evaluation point gets weight 0.

    A fit has two halves.  Its window, kernel weights w, products w u^p,
    moments s_p, the row of S^-1 it needs and determined-window mask depend
    on the grid, the bandwidth and the evaluation point alone
    (``_window_geometry``); the gather of y, the sums t_p = sum (w u^p) y
    and their dot product with that row depend on the curve
    (``_curve_fits``).  With one shared grid and one shared row of
    evaluation points, the first half is computed once per distinct
    bandwidth row and reused by every curve that has that row (the
    leave-one-out pass, the derivative pass); otherwise once per curve.

    Each fit has the same bits whatever the other curves, their order and
    the other degrees: sums over a window associate by its padded length,
    and a curve's padding depends on its own windows alone.  Its evaluation
    points are taken _CELL_BUDGET // (K x its widest window) at a time, and
    each such chunk is padded to its widest window over the K bandwidths.
    Cells of one padded width run together in blocks of at most
    _BLOCK_BUDGET window points, curves x cells where curves share them, and
    every S is solved on its own, elementwise.
    """
    h = np.asarray(bandwidths, dtype=float)
    if not ((h >= _MIN_BANDWIDTH) & (h <= 1.0)).all():
        raise ValueError(f"bandwidth must lie in [{_MIN_BANDWIDTH:.3g}, 1]")
    n, K = h.shape
    rows, m = np.shape(eval_points)
    shared = rows == 1 and grids.shape[0] == 1
    if shared:  # one geometry per distinct bandwidth row, with the curves that have it
        h, of = np.unique(h, axis=0, return_inverse=True)
        members = [np.flatnonzero(of.ravel() == k)[:, None] for k in range(h.shape[0])]
    G, L = h.shape[0], values.shape[1]
    e = np.broadcast_to(np.asarray(eval_points, dtype=float), (G, m))
    size = np.broadcast_to(np.count_nonzero(grids < np.inf, axis=1), G)
    # [lo, lo + width) per (geometry, bandwidth, eval point), widened by one
    # index on each side so rounding in e +- h never drops a point the kernel weights
    edge = (e[:, None, :] - h[:, :, None]).reshape(G, -1)
    lo = np.maximum(searchsorted_rows(grids, edge, "right") - 1, 0).reshape(G, K, m)
    edge = (e[:, None, :] + h[:, :, None]).reshape(G, -1)
    width = np.minimum(searchsorted_rows(grids, edge, "left") + 1, size[:, None]).reshape(G, K, m) - lo
    del edge  # the (curves x bandwidths x points) arrays set the peak memory of a large sample
    widest = width.max(axis=1)
    step = np.maximum(_CELL_BUDGET // (K * np.maximum(widest.max(axis=1, initial=0), 1)), 1)
    chunk = (np.arange(m) // step[:, None] + m * np.arange(G)[:, None]).ravel()
    pad = np.zeros(G * m, dtype=width.dtype)
    np.maximum.at(pad, chunk, widest.ravel())
    pad = pad[chunk]
    del widest, chunk
    out = np.empty((len(degrees), n, K, m))
    for p in np.unique(pad):
        cells = np.flatnonzero(pad == p)
        per_block = max(_BLOCK_BUDGET // (K * p), 1)
        # a block of shared cells stays in one geometry row, so its curves share it
        for part in np.split(cells, np.flatnonzero(np.diff(cells // m)) + 1) if shared else [cells]:
            for start in range(0, part.size, per_block):
                g, j = np.divmod(part[start:start + per_block], m)
                idx = lo[g, :, j][..., None] + np.arange(p)
                np.minimum(idx, size[g][:, None, None] - 1, out=idx)
                geometry = _window_geometry(
                    grids.ravel()[idx + g[:, None, None] * L if grids.shape[0] > 1 else idx],
                    e[g, j][:, None], h[g], width[g, :, j], degrees, deriv_order, loo,
                )
                curves = members[g[0]] if shared else g
                per_fit = max(_BLOCK_BUDGET // (g.size * K * p), 1) if shared else g.size
                for first in range(0, curves.shape[0], per_fit):
                    i = curves[first:first + per_fit]
                    # flat gathers are faster than [row, idx]
                    y = values.ravel()[idx + i[..., None, None] * L]
                    fits = _curve_fits(geometry, y, degrees)
                    out[:, i, :, j] = np.stack(fits, axis=-2)
    return out


def _window_geometry(g, e, h, width, degrees, deriv_order, loo):
    """The half of the fits in windows g, padded to one width, that no curve enters.

    The first ``width`` points of a window count; ``e``, ``h`` and ``width``
    broadcast to g.shape[:-1].  Returns the products w u^p (p <= the top
    degree; none for degree 0 alone) and, per degree, its fits' normalized
    weights (degree 0) or row deriv_order of S^-1 / h^deriv_order (degree
    >= 1), each with the mask of the windows that determine them: degree + 1
    positively weighted points and a nonsingular S.
    """
    u = g - e[..., None]
    u /= h[..., None]
    w = epanechnikov(u)
    w *= np.arange(g.shape[-1]) < width[..., None]  # drop the clipped padding
    if loo:
        w[g == e[..., None]] = 0.0
    s, wu = [w.sum(axis=-1)], []
    top = max(degrees)
    if top:
        wu.append(w)
        npts = np.count_nonzero(w > 0.0, axis=-1)
        # moments s_p = sum w u^p (p <= 2d).  A point at |u| just below 1
        # weighs ~1e-16 and can make S near singular; products formed in the
        # order of the dense reference in tests/oracles.py round like it
        # there, so both pick the same LOO bandwidths.
        up = u.copy()
        for p in range(1, 2 * top + 1):
            wup = w * up
            s.append(wup.sum(axis=-1))
            if p <= top:
                wu.append(wup)
            if p < 2 * top:
                up *= u
    fit = {}
    for degree in set(degrees):
        if degree == 0:
            with np.errstate(invalid="ignore", divide="ignore"):
                fit[0] = w / s[0][..., None], s[0] > 0.0
        else:
            row, ok = _inverse_row(s, degree, deriv_order)
            ok &= npts > degree
            # factorial(deriv_order) is 1 for orders 0 and 1; undo the bandwidth scaling.
            # nan in an undetermined window keeps its inf - inf out of the sums
            fit[degree] = [np.where(ok, x / h**deriv_order, np.nan) for x in row], ok
    return wu, fit


def _inverse_row(s, degree, deriv_order):
    """Row deriv_order of S^-1 for the moment matrices S[p, q] = s[p + q] of
    degree 1 or 2, and the mask of the windows where S is not singular.

    Gaussian elimination on e_deriv_order, elementwise over the windows and
    without pivoting: S = sum w v v^T with v = (1, u, .., u^degree) is
    positive semidefinite, so elimination needs no row exchange to be
    backward stable, and a zero pivot marks a singular S.  (The cofactor
    form of S^-1 is not: on ill-conditioned windows it misses a pivoted LU
    solve by several times 100 eps cond(S).)
    """
    n = degree + 1
    # [S | e_deriv_order] made upper triangular, then solved upwards in its last column
    a = [[s[p + q] for q in range(n)] + [float(p == deriv_order)] for p in range(n)]
    with np.errstate(invalid="ignore", divide="ignore"):
        for k in range(n):
            for i in range(k + 1, n):
                m = a[i][k] / a[k][k]
                for j in range(k + 1, n + 1):
                    a[i][j] = a[i][j] - m * a[k][j]
        for k in reversed(range(n)):
            for j in range(k + 1, n):
                a[k][n] = a[k][n] - a[k][j] * a[j][n]
            a[k][n] = a[k][n] / a[k][k]
    return [row[n] for row in a], np.logical_and.reduce([row[k] != 0.0 for k, row in enumerate(a)])


def _curve_fits(geometry, y, degrees):
    """Fits of each degree from window values y and the geometry of their windows.

    ``y`` has the windows' shape, with any leading axes of curves sharing
    them; nan marks an undetermined window.
    """
    wu, fit = geometry
    t = [np.sum(wp * y, axis=-1) for wp in wu]  # t_p = sum (w u^p) y
    fits = []
    for degree in degrees:
        a, ok = fit[degree]  # the normalized weights (degree 0), or a row of S^-1
        if degree == 0:
            out = np.sum(a * y, axis=-1)
        else:
            out = sum(x * tp for x, tp in zip(a, t))
        np.copyto(out, np.nan, where=~ok)
        fits.append(out)
    return fits


def nadaraya_watson_rows(grids, values, bandwidths, eval_points):
    """Kernel-weighted averages of many curves: row i of the result is curve i's.

    ``grids`` holds one sorted grid shared by every curve, or one per curve,
    padded past its last point with +inf; ``values`` (n, L) is padded with
    any finite value.  ``bandwidths`` has one entry and ``eval_points`` one
    row per curve.  Each fit has the bits the curve gets alone.  Raises
    EmptyWindow for the first curve with an evaluation point that has no
    grid point strictly within one bandwidth (the kernel vanishes at |u| = 1).
    """
    e = np.asarray(eval_points, dtype=float)
    h = np.asarray(bandwidths, dtype=float)[:, None]
    out = _row_fits(grids, values, h, e, [0])[0, :, 0]
    empty = np.isnan(out)
    if empty.any():
        i, j = np.unravel_index(np.argmax(empty), out.shape)  # first curve, first window
        own = grids[i:i + 1] if grids.shape[0] > 1 else grids
        raise EmptyWindow(float(e[i, j]), float(suggested_min_bandwidths(own, e[i:i + 1])[0]))
    return out


def _loocv_rows(grids, values, candidates, degrees):
    """Leave-one-out bandwidths of many curves, one row of sorted ``candidates`` each.

    Arguments are as for _loo_errors.  Each curve gets, per degree, the
    candidate minimizing its leave-one-out squared prediction error;
    candidates whose windows are underdetermined anywhere are skipped, and
    ties break toward the smaller bandwidth (under-smoothing).  Returns the
    chosen bandwidths, (len(degrees), n), and a mask of the curves for
    which some degree skipped every candidate.
    """
    errs = _loo_errors(grids, values, candidates, degrees)
    best = np.argmin(errs, axis=-1)[..., None]  # first minimum: the smaller bandwidth wins ties
    chosen = np.take_along_axis(np.broadcast_to(candidates, errs.shape), best, axis=-1)[..., 0]
    failed = (np.take_along_axis(errs, best, axis=-1)[..., 0] == np.inf).any(axis=0)
    return chosen, failed


def _loo_errors(grids, values, candidates, degrees):
    """Leave-one-out squared prediction errors of many curves: (len(degrees), n, K).

    ``grids`` and ``values`` are laid out as for _row_fits; ``candidates``
    (n, K) holds each curve's bandwidths.  A skipped candidate (an
    underdetermined window) has error inf.  Curves run in blocks of
    _LOO_BLOCK_FITS // (K x points) rows, each reduced to its errors at
    once, so no prediction array of the whole sample is formed; on a shared
    grid a block's curves share each window's weights and moments.  Each
    error is summed over its curve's own points and has the bits of its
    curve's pass alone.
    """
    n, K = candidates.shape
    size = np.count_nonzero(np.broadcast_to(grids, values.shape) < np.inf, axis=1)
    # each curve is predicted at its own grid points; a padded row repeats its last
    eval_points = np.minimum(grids, np.where(grids < np.inf, grids, -np.inf).max(axis=1, keepdims=True))
    errs = np.empty((len(degrees), n, K))
    rows = max(_LOO_BLOCK_FITS // (K * grids.shape[1]), 1)
    for start in range(0, n, rows):
        b = slice(start, start + rows)
        own = slice(None) if grids.shape[0] == 1 else b
        preds = _row_fits(grids[own], values[b], candidates[b], eval_points[own], degrees, loo=True)
        sq = (preds - values[b, None]) ** 2
        for s in np.unique(size[b]):
            r = np.flatnonzero(size[b] == s)
            errs[:, start + r] = sq[:, r, :, :s].sum(axis=-1)
    return np.where(errs < np.inf, errs, np.inf)  # nan: a skipped candidate


def _loocv_ladders(gaps, count: int = 12) -> np.ndarray:
    """Default leave-one-out candidates of curves with largest grid gaps ``gaps``, one row each.

    Each row is ``count`` log-spaced candidates from 2.5 gaps up to about
    0.25.  Both ends are an odd number of half gaps: the top is 0.25
    rounded down to whole gaps, plus half a gap.  A candidate of a whole
    number of gaps would put a leave-one-out neighbour on a uniform grid at
    |u| = 1 to within an ulp, where its kernel weight is rounding noise;
    boundary fits of degree 1 and 2 are then near singular, and the noise
    can pick the bandwidth.  When 2.5 gaps reach the top the ladder is that
    one value, at most 1, repeated ``count`` times; the leave-one-out choice
    is that of the value alone.
    """
    lo = 2.5 * gaps
    hi = (np.floor(0.25 / gaps) + 0.5) * gaps
    ladders = np.repeat(np.minimum(lo, 1.0)[:, None], count, axis=1)
    more = lo < hi
    ladders[more] = np.exp(np.linspace(np.log(lo[more]), np.log(hi[more]), count, axis=1))
    return ladders


def monotone_through_knots(knot_values, n_out: int = 1024):
    """Monotone cubic smoothing of warps through equispaced knots, one row per warp.

    A shape-preserving (Fritsch-Carlson type) cubic interpolant through the
    knot values, made nondecreasing first, keeps every output nondecreasing
    and endpoint-preserving.  Returns the dense grid of ``n_out`` points
    plus the knots, and one row of smoothed samples per warp; each row has
    the bits of a warp smoothed alone.
    """
    knots = np.linspace(0.0, 1.0, knot_values.shape[1])
    kv = np.maximum.accumulate(knot_values, axis=1)
    interp = PchipInterpolator(knots, kv, axis=1)
    t_out = np.unique(np.concatenate((np.linspace(0.0, 1.0, n_out), knots)))
    v_out = interp(t_out)
    v_out = np.clip(np.maximum.accumulate(v_out, axis=1), 0.0, 1.0)
    v_out[:, 0], v_out[:, -1] = kv[:, 0], kv[:, -1]
    return t_out, v_out
