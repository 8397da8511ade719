"""Kernel smoothing machinery.

Epanechnikov kernel, Nadaraya-Watson regression, local polynomial
regression (values and first derivatives), leave-one-out bandwidth
selection, and monotone smoothing of warp maps.  Every kernel fit runs
through one local-polynomial routine over the kernel's compact-support
windows, never a dense (evaluation x grid) weight matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import PchipInterpolator

from .errors import AllCandidatesSingular, EmptyWindow, SingularFit
from .variation import DiscreteCurve, searchsorted_rows

_CELL_BUDGET = 1 << 18  # cap on bandwidths x eval points x window width per pass
_BLOCK_BUDGET = 1 << 16  # window points per block of nadaraya_watson_rows; smaller
# blocks than _CELL_BUDGET stay in cache and keep the peak memory of a sample down


@dataclass(frozen=True)
class KernelSpec:
    """Symmetric nonnegative kernel supported on [-1,1]."""

    family: str = "epanechnikov"

    def __post_init__(self):
        if self.family != "epanechnikov":
            raise ValueError(f"unknown kernel family {self.family!r}")

    def __call__(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        return np.where(np.abs(u) < 1.0, 0.75 * (1.0 - u * u), 0.0)


EPANECHNIKOV = KernelSpec()


@dataclass(frozen=True)
class SmootherConfig:
    """Bandwidth, polynomial degree, and derivative order of one smoother."""

    bandwidth: float
    degree: int = 0
    deriv_order: int = 0
    kernel: KernelSpec = EPANECHNIKOV

    def __post_init__(self):
        if not (0 < self.bandwidth <= 1.0):
            raise ValueError("bandwidth must lie in (0, 1]")
        if self.degree not in (0, 1, 2):
            raise ValueError("degree must be 0, 1 or 2")
        if self.deriv_order not in (0, 1):
            raise ValueError("deriv_order must be 0 or 1")
        if self.deriv_order >= self.degree and not (
            self.degree == 0 and self.deriv_order == 0
        ):
            raise ValueError("need deriv_order < degree (or degree 0, deriv 0)")


def suggested_min_bandwidth(grid: np.ndarray, eval_points: np.ndarray) -> float:
    """Smallest bandwidth for which every evaluation window is nonempty."""
    eval_points = np.asarray(eval_points, dtype=float)
    return float(suggested_min_bandwidths(grid[None], eval_points.reshape(1, -1))[0])


def suggested_min_bandwidths(grids, eval_points) -> np.ndarray:
    """suggested_min_bandwidth of every curve, one row of ``eval_points`` each.

    ``grids`` holds one sorted grid shared by every curve, or one per curve,
    padded past its last point with +inf.
    """
    size = np.count_nonzero(grids < np.inf, axis=1)[:, None]
    rows = np.arange(eval_points.shape[0])[:, None] if grids.shape[0] > 1 else 0
    idx = searchsorted_rows(grids, eval_points)
    left = np.abs(eval_points - grids[rows, np.clip(idx - 1, 0, size - 1)])
    right = np.abs(grids[rows, np.clip(idx, 0, size - 1)] - eval_points)
    return np.minimum(left, right).max(axis=1) * (1.0 + 1e-9)


def _windowed_fits(grid, values, bandwidths, eval_points, degrees, deriv_order=0,
                   loo=False, kernel=EPANECHNIKOV):
    """Local polynomial fits over the kernel's compact-support windows.

    Returns an array of shape (len(degrees), len(bandwidths), len(eval_points))
    whose entry [d, k] holds, at each evaluation point, the deriv_order
    coefficient (scaled back to the time axis) of the weighted least-squares
    fit of degree degrees[d] with bandwidth bandwidths[k] (Fan & Gijbels 1996,
    ch. 3); nan marks a window with fewer than degree + 1 positively weighted
    points.  Degree 0 is the Nadaraya-Watson average, with the weights
    normalized before the dot product so a single-point window returns its
    value exactly.  With ``loo`` a grid point coinciding with the evaluation
    point gets weight 0.  All degrees share one pass over the windows, and
    each gets the same bits as a fit of that degree alone.
    """
    h = np.asarray(bandwidths, dtype=float).reshape(-1, 1)
    e = np.asarray(eval_points, dtype=float)
    # [lo, lo + width) per (bandwidth, eval point), widened by one index on each
    # side so rounding in e +- h never drops a point the kernel weights
    lo = np.maximum(np.searchsorted(grid, e - h, "right") - 1, 0)
    width = np.minimum(np.searchsorted(grid, e + h, "left") + 1, grid.size) - lo
    out = np.empty((len(degrees),) + lo.shape)
    step = max(1, _CELL_BUDGET // (h.size * max(int(width.max(initial=0)), 1)))
    for start in range(0, e.size, step):
        cols = slice(start, start + step)
        idx = lo[:, cols, None] + np.arange(int(width[:, cols].max(initial=0)))
        np.minimum(idx, grid.size - 1, out=idx)
        out[:, :, cols] = _fit_chunk(
            grid[idx], values[idx], e[cols], h, width[:, cols],
            degrees, deriv_order, loo, kernel,
        )
    return out


def _windowed_fit(grid, values, bandwidths, eval_points, degree, deriv_order=0,
                  loo=False, kernel=EPANECHNIKOV):
    """_windowed_fits for one degree: shape (len(bandwidths), len(eval_points))."""
    return _windowed_fits(
        grid, values, bandwidths, eval_points, [degree], deriv_order, loo, kernel
    )[0]


def _fit_chunk(g, y, e, h, width, degrees, deriv_order, loo, kernel):
    """Fits from windows g, y padded to one width; the first ``width`` points count.

    ``e``, ``h`` and ``width`` broadcast to the shape of the fits, g.shape[:-1].
    """
    u = g - e[..., None]
    u /= h[..., None]
    w = kernel(u)
    w *= np.arange(g.shape[-1]) < width[..., None]  # drop the clipped padding
    if loo:
        w[g == e[..., None]] = 0.0
    s = [w.sum(axis=-1)]
    top = max(degrees)
    if top:
        npts = np.count_nonzero(w > 0.0, axis=-1)
        # moments s_p = sum w u^p (p <= 2d) and t_p = sum (w u^p) y (p <= d).  A
        # point at |u| just below 1 weighs ~1e-16 and can make S near singular;
        # products formed in the order of the dense reference in tests/oracles.py
        # round like it there, so both pick the same LOO bandwidths.
        wu = w * y
        t = [wu.sum(axis=-1)]
        up = u.copy()
        for p in range(1, 2 * top + 1):
            np.multiply(w, up, out=wu)
            s.append(wu.sum(axis=-1))
            if p <= top:
                wu *= y
                t.append(wu.sum(axis=-1))
            if p < 2 * top:
                up *= u
    fits = []
    for degree in degrees:
        if degree == 0:
            with np.errstate(invalid="ignore", divide="ignore"):
                fit = np.sum(w / s[0][..., None] * y, axis=-1)
            fit[s[0] <= 0.0] = np.nan
        else:
            fit = _solve_moments(s, t, npts, degree, deriv_order, h)
        fits.append(fit)
    return fits


def _solve_moments(s, t, npts, degree, deriv_order, h):
    """Fit of one degree >= 1 from the window moments; nan where underdetermined."""
    S = np.empty(npts.shape + (degree + 1, degree + 1))
    for p in range(degree + 1):
        for q in range(degree + 1):
            S[..., p, q] = s[p + q]
    b = np.stack(t[: degree + 1], axis=-1)
    ok = npts >= degree + 1
    coef = np.full(b.shape, np.nan)
    if ok.any():
        try:
            coef[ok] = np.linalg.solve(S[ok], b[ok][..., None])[..., 0]
        except np.linalg.LinAlgError:
            for i in zip(*np.nonzero(ok)):
                try:
                    coef[i] = np.linalg.solve(S[i], b[i])
                except np.linalg.LinAlgError:
                    ok[i] = False
    # factorial(deriv_order) is 1 for orders 0 and 1; undo the bandwidth scaling
    fit = coef[..., deriv_order] / h**deriv_order
    fit[~ok] = np.nan
    return fit


def nadaraya_watson(curve: DiscreteCurve, cfg: SmootherConfig, eval_points) -> np.ndarray:
    """Kernel-weighted average of curve values at each evaluation point.

    Raises EmptyWindow when some evaluation point has no grid point strictly
    within one bandwidth (the kernel vanishes at |u| = 1).
    """
    if cfg.degree != 0:
        raise ValueError("nadaraya_watson requires degree 0")
    eval_points = np.asarray(eval_points, dtype=float)
    return nadaraya_watson_rows(
        curve.grid[None], curve.values[None], [cfg.bandwidth],
        eval_points.reshape(1, -1), cfg.kernel,
    ).reshape(eval_points.shape)


def nadaraya_watson_rows(grids, values, bandwidths, eval_points, kernel=EPANECHNIKOV):
    """nadaraya_watson for many curves at once: row i of the result is curve i's.

    ``grids`` holds one sorted grid shared by every curve, or one per curve,
    padded past its last point with +inf; ``values`` (n, L) is padded with
    any finite value.  ``bandwidths`` has one entry and ``eval_points`` one
    row per curve.  Each fit has the bits nadaraya_watson gives the curve
    alone: a cell is padded to the window width that its curve's own pass
    pads it to, and cells of one width run together in blocks of at most
    _BLOCK_BUDGET window points.  Raises EmptyWindow for the first curve
    with an empty window.
    """
    h = np.asarray(bandwidths, dtype=float)
    e = np.asarray(eval_points, dtype=float)
    if not ((h > 0.0) & (h <= 1.0)).all():
        raise ValueError("bandwidth must lie in (0, 1]")
    n, m = e.shape
    size = np.count_nonzero(grids < np.inf, axis=1)
    lo = np.maximum(searchsorted_rows(grids, e - h[:, None], "right") - 1, 0)
    width = np.minimum(searchsorted_rows(grids, e + h[:, None], "left") + 1, size[:, None]) - lo
    # a curve alone is fitted `step` evaluation points at a time, each chunk
    # padded to its widest window (_windowed_fits); sums over the padding
    # associate by its length, so each cell keeps its chunk's
    step = np.maximum(_CELL_BUDGET // np.maximum(width.max(axis=1), 1), 1)
    chunk = (np.arange(m) // step[:, None] + m * np.arange(n)[:, None]).ravel()
    pad = np.zeros(n * m, dtype=width.dtype)
    np.maximum.at(pad, chunk, width.ravel())
    pad = pad[chunk]
    out = np.empty(n * m)
    for p in np.unique(pad):
        cells = np.flatnonzero(pad == p)
        per_block = max(_BLOCK_BUDGET // p, 1)
        for start in range(0, cells.size, per_block):
            c = cells[start:start + per_block]
            row = (c // m)[:, None]
            grid_row = row if grids.shape[0] > 1 else 0
            idx = lo.flat[c][:, None] + np.arange(p)
            np.minimum(idx, size[grid_row] - 1, out=idx)
            g, y = grids[grid_row, idx], values[row, idx]
            out[c] = _fit_chunk(g, y, e.flat[c], h[row[:, 0]], width.flat[c], [0], 0, False, kernel)[0]
    out = out.reshape(n, m)
    empty = np.isnan(out)
    if empty.any():
        i = int(np.argmax(empty.any(axis=1)))
        grid = grids[i if grids.shape[0] > 1 else 0]
        raise EmptyWindow(
            float(e[i, np.argmax(empty[i])]),
            suggested_min_bandwidth(grid[grid < np.inf], e[i]),
        )
    return out


def local_poly(curve: DiscreteCurve, cfg: SmootherConfig, eval_points) -> np.ndarray:
    """Local polynomial estimate of the curve (deriv 0) or its slope (deriv 1).

    Raises SingularFit with the offending evaluation point when a window is
    underdetermined.
    """
    eval_points = np.asarray(eval_points, dtype=float)
    out = _windowed_fit(
        curve.grid, curve.values, [cfg.bandwidth], eval_points,
        cfg.degree, cfg.deriv_order, kernel=cfg.kernel,
    )[0]
    singular = np.isnan(out)
    if singular.any():
        raise SingularFit(float(eval_points[int(np.argmax(singular))]))
    return out


def loocv_bandwidths(curve: DiscreteCurve, degrees, candidates) -> list:
    """loocv_bandwidth for each of ``degrees``, from one pass over the windows."""
    candidates = sorted(float(h) for h in candidates)
    if not candidates:
        raise AllCandidatesSingular("no candidate bandwidths given")
    for degree in degrees:
        for h in candidates:
            SmootherConfig(bandwidth=h, degree=degree)  # rejects out-of-range candidates
    preds = _windowed_fits(curve.grid, curve.values, candidates, curve.grid, degrees, loo=True)
    errs = np.sum((preds - curve.values) ** 2, axis=-1)
    errs = np.where(errs < np.inf, errs, np.inf)  # nan: a skipped candidate
    chosen = []
    for row in errs:
        best = int(np.argmin(row))  # first minimum: the smaller bandwidth wins ties
        if row[best] == np.inf:
            raise AllCandidatesSingular("every candidate bandwidth left a singular window")
        chosen.append(candidates[best])
    return chosen


def loocv_bandwidth(curve: DiscreteCurve, degree: int, candidates) -> float:
    """Candidate bandwidth minimizing leave-one-out squared prediction error.

    Candidates whose leave-one-out windows are underdetermined anywhere are
    skipped; ties break toward the smaller bandwidth (under-smoothing).
    """
    return loocv_bandwidths(curve, [degree], candidates)[0]


def default_loocv_candidates(curve: DiscreteCurve, count: int = 12) -> np.ndarray:
    """Log-spaced candidates from 2.5 largest grid gaps up to about 0.25.

    Both ends are an odd number of half gaps: the top is 0.25 rounded down
    to whole gaps, plus half a gap.  A candidate of a whole number of gaps
    would put a leave-one-out neighbour on a uniform grid at |u| = 1 to
    within an ulp, where its kernel weight is rounding noise; boundary fits
    of degree 1 and 2 are then near singular, and the noise can pick the
    bandwidth.
    """
    gap = curve.max_gap
    lo = 2.5 * gap
    hi = (np.floor(0.25 / gap) + 0.5) * gap
    if lo >= hi:
        return np.array([min(lo, 1.0)])
    return np.exp(np.linspace(np.log(lo), np.log(hi), count))


def monotone_smooth_warp(sample_t, sample_v, n_knots: int = 11, n_out: int = 1024):
    """Monotone cubic smoothing of warp samples through equispaced knots.

    Knot values come from linear interpolation of the input samples; a
    shape-preserving (Fritsch-Carlson type) cubic interpolant through the
    knots guarantees the output is nondecreasing and endpoint-preserving.
    Returns (t, v) samples of the smoothed map on a dense grid.
    """
    sample_t = np.asarray(sample_t, dtype=float)
    sample_v = np.asarray(sample_v, dtype=float)
    if n_knots < 2:
        raise ValueError("need at least 2 knots")
    kv = np.interp(np.linspace(0.0, 1.0, n_knots), sample_t, sample_v)
    kv[0], kv[-1] = sample_v[0], sample_v[-1]
    t_out, v_out = monotone_through_knots(kv[None], n_out)
    return t_out, v_out[0]


def monotone_through_knots(knot_values, n_out: int = 1024):
    """monotone_smooth_warp from its knot values, one row per warp.

    Returns the dense grid and one row of smoothed samples per warp; each
    row has the bits of a warp smoothed alone.
    """
    knots = np.linspace(0.0, 1.0, knot_values.shape[1])
    kv = np.maximum.accumulate(knot_values, axis=1)
    interp = PchipInterpolator(knots, kv, axis=1)
    t_out = np.unique(np.concatenate((np.linspace(0.0, 1.0, n_out), knots)))
    v_out = interp(t_out)
    v_out = np.clip(np.maximum.accumulate(v_out, axis=1), 0.0, 1.0)
    v_out[:, 0], v_out[:, -1] = kv[:, 0], kv[:, -1]
    return t_out, v_out
