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
from .variation import DiscreteCurve

_CELL_BUDGET = 1 << 18  # cap on bandwidths x eval points x window width per pass


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
    idx = np.searchsorted(grid, eval_points)
    left = np.abs(eval_points - grid[np.clip(idx - 1, 0, grid.size - 1)])
    right = np.abs(grid[np.clip(idx, 0, grid.size - 1)] - eval_points)
    nearest = np.minimum(left, right)
    return float(nearest.max()) * (1.0 + 1e-9)


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
        out[:, :, cols] = _fit_chunk(
            grid, values, h, e[cols], lo[:, cols], width[:, cols],
            degrees, deriv_order, loo, kernel,
        )
    return out


def _windowed_fit(grid, values, bandwidths, eval_points, degree, deriv_order=0,
                  loo=False, kernel=EPANECHNIKOV):
    """_windowed_fits for one degree: shape (len(bandwidths), len(eval_points))."""
    return _windowed_fits(
        grid, values, bandwidths, eval_points, [degree], deriv_order, loo, kernel
    )[0]


def _fit_chunk(grid, values, h, e, lo, width, degrees, deriv_order, loo, kernel):
    """_windowed_fits on one slice of evaluation points, windows padded to one width."""
    offsets = np.arange(int(width.max(initial=0)))
    idx = lo[..., None] + offsets  # (bandwidth, eval, window)
    np.minimum(idx, grid.size - 1, out=idx)
    g = grid[idx]
    y = values[idx]
    u = g - e[:, None]
    u /= h[..., None]
    w = kernel(u)
    w *= offsets < width[..., None]  # drop the clipped padding
    if loo:
        w[g == e[:, None]] = 0.0
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
    out = _windowed_fit(
        curve.grid, curve.values, [cfg.bandwidth], eval_points, 0, kernel=cfg.kernel
    )[0]
    empty = np.isnan(out)
    if empty.any():
        bad = eval_points[int(np.argmax(empty))]
        raise EmptyWindow(float(bad), suggested_min_bandwidth(curve.grid, eval_points))
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
    """Log-spaced candidates from twice the largest grid gap up to 0.25."""
    lo = 2.0 * curve.max_gap
    hi = 0.25
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
    knots = np.linspace(0.0, 1.0, n_knots)
    kv = np.interp(knots, sample_t, sample_v)
    kv[0], kv[-1] = sample_v[0], sample_v[-1]
    kv = np.maximum.accumulate(kv)
    interp = PchipInterpolator(knots, kv)
    t_out = np.unique(np.concatenate((np.linspace(0.0, 1.0, n_out), knots)))
    v_out = interp(t_out)
    v_out = np.clip(np.maximum.accumulate(v_out), 0.0, 1.0)
    v_out[0], v_out[-1] = kv[0], kv[-1]
    return t_out, v_out
