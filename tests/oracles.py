"""Reference implementations the tests compare the library against.

* Dense (evaluation x grid) kernel smoothers.  They build the full
  Epanechnikov weight matrix between every evaluation point and every grid
  point: simple and obviously correct, but O(eval x grid) per fit.  The
  library computes the same fits over compact-support windows.
* The default leave-one-out ladder of one curve from its formula, and a
  step CDF built from jump sizes.  The library builds every curve's ladder
  at once and every variation CDF from its cumulative increments.
* The per-curve windowed pass: one curve's fits for many bandwidths and
  degrees over its compact-support windows, chunk by chunk, each window's
  weights and moments built together with the curve's sums, and the
  leave-one-out choice and local polynomial fit built on it.  The library
  runs one windowed kernel over the rows of a whole sample, padding each
  row as this pass pads its curve, and builds a window's weights and
  moments once for every curve that shares its grid, bandwidth and point.
* The pairwise warp oracle, which averages all pairwise alignment maps
  instead of going through the mean-quantile template.
* The dense mean-quantile table: every input evaluated at every point of
  the breakpoint union, each row sorted and summed in float.  O(points x n)
  memory; the library sums exactly over breakpoint events instead.
* ``mean_quantile``, the exact mean of a list of quantile functions: their
  breakpoints laid out flat for the library's ``mean_quantile_flat``, which
  the pipelines call with every curve's levels at once.
* ``digit_mean_divmod``, the long division of exact digit sums by n with
  one ``np.divmod`` per digit and fresh arrays for every step;
  ``mean_quantile_float_digits``, the exact sweep with its digit rows in
  float and its start indices in int64; and ``wasserstein2_unique``, the
  2-Wasserstein distance of two quantile functions evaluated at the
  ``np.unique`` of their breakpoints.  The library writes every digit and
  every step into a fixed few narrower buffers.
* ``windows_whole``, every kernel window's first index and width searched
  over the whole sample's edges at once in int64; ``z_statistic_whole``,
  the z-statistic over one derivative array of the whole sample.  The
  library takes both a block of rows at a time.
* The per-step loop that inverts a quantile function into a step CDF.
* ``SineWarp``, a one-frequency analytic warp for hand-built test samples.
* The per-curve simulator: each warp inverted by its own 52-step bisection
  on its own forward map, one curve at a time.  The library bisects every
  (warp, point) cell of a sample at once.
* The per-curve registration pipelines: every curve's variation CDF,
  quantile, warp, boundary extension, smoothed warp and kernel fit built
  on its own, one curve at a time.  The library runs each stage once over
  (curves x points) arrays.
* The per-curve diagnostics: the z-statistic, FPCA scores and errors
  against the truth, each curve's derivative, integrals, warps and truth
  warps taken on their own.  The library sums along the rows of one
  (curves x points) array.
* The per-curve rate check: each replicate's template from every curve's
  own variation CDF and quantile, averaged by ``mean_quantile``.  The
  library builds it with the registration pipelines' batched template.
* The per-cell CSV writers and readers: every float formatted by its own
  ``"%.17g"`` and parsed by its own ``float()``, every row through a
  ``csv`` row, and each curve's warp rows sorted as Python tuples.  The
  library formats and parses a block of rows at a time.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from scipy.interpolate import PchipInterpolator

from dataclasses import replace
from itertools import repeat
from pathlib import Path

from varireg.dataio import InputFormatError, _names_its_file
from varireg.diagnostics import RateCheckResult, RegistrationReport, rate_grid_size
from varireg.errors import (
    AllCandidatesSingular,
    EmptySample,
    EmptyWindow,
    GridMismatch,
    NonMonotoneInput,
    SingularFit,
    ZeroVariation,
)
from varireg.fpca import cross_sectional_mean, row_eigenpairs, row_scores, trapezoid_weights
from varireg.registration import (
    OUTPUT_GRID_CAP,
    WARP_GRID_CAP,
    RegisterOptions,
    NoisyOptions,
    RegistrationResult,
    WarpMap,
)
from varireg.simulate import (
    _BISECT_ITERS,
    AnalyticWarp,
    IdentityWarp,
    SineMixtureWarp,
    TruthBundle,
    make_truth_bundle,
    sample_latent,
    sample_warp,
    substream,
    true_variation_cdf,
)
from varireg.smoothing import _CELL_BUDGET, epanechnikov, suggested_min_bandwidths
from varireg.variation import (
    DiscreteCurve,
    QuantileFn,
    StepCdf,
    closed_grid,
    discrete_variation_cdf,
    generalized_inverse,
    mean_quantile_flat,
    quantile_to_cdf,
    searchsorted_rows,
    wasserstein2,
)


def windows_whole(grids, e, h, size) -> tuple:
    """smoothing._windows with each edge array over every (row, bandwidth,
    point) cell at once, in int64."""
    G, K, m = h.shape[0], h.shape[1], e.shape[1]
    lo = searchsorted_rows(grids, (e[:, None, :] - h[:, :, None]).reshape(G, -1), "right") - 1
    width = searchsorted_rows(grids, (e[:, None, :] + h[:, :, None]).reshape(G, -1), "left") + 1
    lo = np.maximum(lo, 0).reshape(G, K, m)
    return lo, np.minimum(width, size[:, None]).reshape(G, K, m) - lo


def min_bandwidth(grid, eval_points) -> float:
    """Smallest bandwidth for which every window of one curve on ``grid`` is nonempty."""
    e = np.asarray(eval_points, dtype=float).reshape(1, -1)
    return float(suggested_min_bandwidths(grid[None], e)[0])


def loocv_ladder(gap, count=12) -> np.ndarray:
    """The default leave-one-out candidates of a curve whose largest grid gap is ``gap``.

    ``count`` log-spaced values from 2.5 gaps to 0.25 rounded down to whole
    gaps, plus half a gap; when 2.5 gaps reach that top, the one value
    2.5 gaps, at most 1.
    """
    lo = 2.5 * gap
    hi = (np.floor(0.25 / gap) + 0.5) * gap
    if lo >= hi:
        return np.array([min(lo, 1.0)])
    return np.exp(np.linspace(np.log(lo), np.log(hi), count))


def step_cdf_from_jumps(locations, sizes) -> StepCdf:
    """A StepCdf from jump locations and nonnegative sizes, normalized to 1.

    Zero-size jumps are dropped so the level sequence is strictly
    increasing (the first location of each level is kept, which is what the
    ">=" generalized inverse needs).
    """
    locations = np.asarray(locations, dtype=float)
    sizes = np.asarray(sizes, dtype=float)
    if (sizes < 0).any():
        raise ValueError("jump sizes must be nonnegative")
    cum = np.cumsum(sizes)
    total = cum[-1]
    if total <= 0:
        raise ZeroVariation("all jump sizes are zero")
    levels = cum / total
    keep = np.diff(levels, prepend=0.0) > 0
    return StepCdf(locations[keep], levels[keep])


def epanechnikov_where(u) -> np.ndarray:
    """The Epanechnikov kernel 3/4 (1 - u^2) as a select on |u| < 1, zero elsewhere (nan included)."""
    u = np.asarray(u, dtype=float)
    return np.where(np.abs(u) < 1.0, 0.75 * (1.0 - u * u), 0.0)


def dense_nadaraya_watson(curve, h, eval_points) -> np.ndarray:
    """Kernel-weighted average; EmptyWindow where no grid point is in range."""
    eval_points = np.asarray(eval_points, dtype=float)
    w = epanechnikov((eval_points[:, None] - curve.grid[None, :]) / h)
    wsum = w.sum(axis=1)
    if (wsum <= 0.0).any():
        bad = eval_points[int(np.argmax(wsum <= 0.0))]
        raise EmptyWindow(float(bad), min_bandwidth(curve.grid, eval_points))
    # normalize first so a single-point window returns its value exactly
    return (w / wsum[:, None]) @ curve.values


def dense_local_poly_chunk(grid, values, h, degree, deriv_order, chunk, loo=False):
    """Weighted LS fit of ``degree`` with bandwidth h centered at each point of chunk.

    Returns the deriv_order coefficient scaled back to the time axis, or nan
    where the window is underdetermined.  With ``loo`` the weight of a grid
    point coinciding exactly with the eval point is zeroed (leave-one-out).
    """
    d = degree
    u = (grid[None, :] - chunk[:, None]) / h
    w = epanechnikov(u)
    if loo:
        w = np.where(grid[None, :] == chunk[:, None], 0.0, w)
    npts = (w > 0.0).sum(axis=1)
    # moment matrices S[p,q] = sum w u^{p+q} in the scaled variable
    powers = [np.sum(w * u**p, axis=1) for p in range(2 * d + 1)]
    rhs = [np.sum(w * u**p * values[None, :], axis=1) for p in range(d + 1)]
    S = np.empty((chunk.size, d + 1, d + 1))
    for p in range(d + 1):
        for qq in range(d + 1):
            S[:, p, qq] = powers[p + qq]
    b = np.stack(rhs, axis=1)
    ok = npts >= d + 1
    coef = np.full((chunk.size, d + 1), np.nan)
    if ok.any():
        try:
            coef[ok] = np.linalg.solve(S[ok], b[ok][..., None])[..., 0]
        except np.linalg.LinAlgError:
            for i in np.nonzero(ok)[0]:
                try:
                    coef[i] = np.linalg.solve(S[i], b[i])
                except np.linalg.LinAlgError:
                    ok[i] = False
    # factorial(deriv_order) is 1 for orders 0 and 1; undo the bandwidth scaling
    result = coef[:, deriv_order] / h**deriv_order
    result[~ok] = np.nan
    return result


def dense_local_poly(curve, h, degree, deriv_order, eval_points) -> np.ndarray:
    """Local polynomial value or slope; SingularFit at the first bad point."""
    eval_points = np.asarray(eval_points, dtype=float)
    res = dense_local_poly_chunk(curve.grid, curve.values, h, degree, deriv_order, eval_points)
    if np.isnan(res).any():
        raise SingularFit(float(eval_points[int(np.argmax(np.isnan(res)))]))
    return res


def dense_loocv_predictions(curve, degree, h):
    """Leave-one-out predictions at the grid points, or None when skipped."""
    if degree == 0:
        u = (curve.grid[None, :] - curve.grid[:, None]) / h
        w = epanechnikov(u)
        np.fill_diagonal(w, 0.0)
        wsum = w.sum(axis=1)
        if (wsum <= 0.0).any():
            return None
        return (w @ curve.values) / wsum
    preds = dense_local_poly_chunk(curve.grid, curve.values, h, degree, 0, curve.grid, loo=True)
    return None if np.isnan(preds).any() else preds


def dense_loocv_bandwidth(curve, degree, candidates) -> float:
    """Candidate minimizing the LOO squared error; ties go to the smaller one."""
    candidates = sorted(float(h) for h in candidates)
    if not candidates:
        raise AllCandidatesSingular("no candidate bandwidths given")
    best_h, best_err = None, np.inf
    for h in candidates:
        preds = dense_loocv_predictions(curve, degree, h)
        if preds is None:
            continue
        err = float(np.sum((preds - curve.values) ** 2))
        if err < best_err:
            best_h, best_err = h, err
    if best_h is None:
        raise AllCandidatesSingular("every candidate bandwidth left a singular window")
    return best_h


def _fit_chunk(g, y, e, h, width, degrees, deriv_order, loo):
    """Fits from windows g, y padded to one width; the first ``width`` points count.

    ``e``, ``h`` and ``width`` broadcast to the shape of the fits, g.shape[:-1].
    Every window's weights and moments are built with its curve's sums, and
    each fit is solved on its own in closed form.
    """
    u = g - e[..., None]
    u /= h[..., None]
    w = epanechnikov(u)
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
    """Fit of one degree >= 1 from the window moments; nan where underdetermined.

    Each window on its own: row deriv_order of S^-1, for the moment matrix
    S[p, q] = s[p + q], by Gaussian elimination without pivoting on
    e_deriv_order, dotted with t.  A window needs degree + 1 positively
    weighted points and nonzero pivots.
    """
    e = [float(p == deriv_order) for p in range(degree + 1)]
    with np.errstate(divide="ignore", invalid="ignore"):
        m1 = s[1] / s[0]
        p1 = s[2] - m1 * s[1]  # the second pivot
        if degree == 1:
            x1 = (e[1] - m1 * e[0]) / p1
            x = [(e[0] - s[1] * x1) / s[0], x1]
            pivots = [s[0], p1]
        else:
            m2 = s[2] / s[0]
            a12, a21, a22 = s[3] - m1 * s[2], s[3] - m2 * s[1], s[4] - m2 * s[2]
            m = a21 / p1
            p2 = a22 - m * a12  # the third pivot
            z1 = e[1] - m1 * e[0]
            x2 = ((e[2] - m2 * e[0]) - m * z1) / p2
            x1 = (z1 - a12 * x2) / p1
            x = [((e[0] - s[1] * x1) - s[2] * x2) / s[0], x1, x2]
            pivots = [s[0], p1, p2]
    ok = npts >= degree + 1
    for pivot in pivots:
        ok &= pivot != 0.0
    # factorial(deriv_order) is 1 for orders 0 and 1; undo the bandwidth scaling
    x = [np.where(ok, xp / h**deriv_order, np.nan) for xp in x]
    fit = sum(x[p] * t[p] for p in range(degree + 1))
    fit[~ok] = np.nan
    return fit


def per_curve_windowed_fits(grid, values, bandwidths, eval_points, degrees, deriv_order=0, loo=False):
    """Local polynomial fits of one curve over the kernel's compact-support windows.

    Returns an array of shape (len(degrees), len(bandwidths), len(eval_points))
    of the fits the library's row kernel makes, nan where a window is
    underdetermined.  The evaluation points are taken
    _CELL_BUDGET // (bandwidths x widest window) at a time, each chunk padded
    to its widest window.
    """
    h = np.asarray(bandwidths, dtype=float).reshape(-1, 1)
    e = np.asarray(eval_points, dtype=float)
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
            degrees, deriv_order, loo,
        )
    return out


def per_curve_windowed_fit(grid, values, bandwidths, eval_points, degree, deriv_order=0, loo=False):
    """per_curve_windowed_fits for one degree: shape (len(bandwidths), len(eval_points))."""
    return per_curve_windowed_fits(grid, values, bandwidths, eval_points, [degree], deriv_order, loo)[0]


def per_curve_local_poly(curve, h, degree, deriv_order, eval_points) -> np.ndarray:
    """One curve's local polynomial fit (deriv 0) or slope (deriv 1) from the
    per-curve windowed pass; SingularFit at the first underdetermined window."""
    eval_points = np.asarray(eval_points, dtype=float)
    out = per_curve_windowed_fit(curve.grid, curve.values, [h], eval_points, degree, deriv_order)[0]
    singular = np.isnan(out)
    if singular.any():
        raise SingularFit(float(eval_points[int(np.argmax(singular))]))
    return out


def per_curve_loocv_bandwidths(curve, degrees, candidates) -> list:
    """One curve's leave-one-out bandwidth for each of ``degrees`` from the
    per-curve windowed pass: the candidate of least squared prediction error,
    skipping those with an underdetermined window; ties go to the smaller."""
    candidates = sorted(float(h) for h in candidates)
    preds = per_curve_windowed_fits(curve.grid, curve.values, candidates, curve.grid, degrees, loo=True)
    errs = np.sum((preds - curve.values) ** 2, axis=-1)
    errs = np.where(errs < np.inf, errs, np.inf)  # nan: a skipped candidate
    chosen = []
    for row in errs:
        best = int(np.argmin(row))
        if row[best] == np.inf:
            raise AllCandidatesSingular("every candidate bandwidth left a singular window")
        chosen.append(candidates[best])
    return chosen


def pairwise_warp_oracle(cdfs, i: int, grid) -> WarpMap:
    """Warp of curve i by averaging all pairwise alignment maps.

    Builds g_ji(t) = Q_j(F_i(t)) for every j, averages pointwise, inverts by
    the generalized inverse, and samples on ``grid``.  Agrees with the
    mean-quantile warp up to step discretization; used for equivalence
    testing.
    """
    cdfs = list(cdfs)
    if not cdfs:
        raise EmptySample("no variation CDFs given")
    target = cdfs[i]
    quantiles = [generalized_inverse(c) for c in cdfs]
    # mean pairwise map: cadlag step in t, jumping at target's jump points
    levels = target.cum_values
    table = np.empty((levels.size, len(quantiles)))
    for j, q in enumerate(quantiles):
        table[:, j] = q(levels)
    table.sort(axis=1)
    gbar = table.sum(axis=1) / len(quantiles)
    gbar = np.maximum.accumulate(gbar)

    grid = closed_grid(grid)
    idx = np.searchsorted(gbar, grid, side="left")
    # beyond the largest mean level the warp stays at the last location, the
    # same convention the template CDF induces in the mean-quantile warp
    v = target.jump_locations[np.minimum(idx, gbar.size - 1)]
    return per_curve_boundary_extend(grid, v, float(target.jump_locations[-1]))


def mean_quantile(qs) -> QuantileFn:
    """Pointwise mean of quantile functions, exact per step (mean_quantile_flat).

    The result steps on the union of every input's breakpoints.
    """
    qs = list(qs)
    if not qs:
        raise EmptySample("mean_quantile needs at least one quantile function")
    return mean_quantile_flat(*flat_quantiles(qs))


def flat_quantiles(qs) -> tuple:
    """(points, index, locations, firsts): quantile functions ``qs`` laid
    out flat, as mean_quantile_flat takes them."""
    sizes = [q.breakpoints.size - 1 for q in qs]
    points, index = np.unique(
        np.concatenate([[0.0]] + [q.breakpoints[1:] for q in qs]), return_inverse=True
    )
    return points, index[1:], np.concatenate([q.values[1:] for q in qs]), np.cumsum([0] + sizes[:-1])


def mean_quantile_float_digits(points, index, locations, firsts) -> QuantileFn:
    """mean_quantile_flat with every digit row held in float and int64 start
    indices, on a fresh rest array (``locations`` is left as it is); the
    quotient by digit_mean_divmod."""
    n = len(firsts)
    starts = np.empty_like(index)
    np.add(index[:-1], 1, out=starts[1:])
    starts[firsts] = 1
    exponent = np.frexp(np.min(locations, initial=1.0, where=locations > 0.0))[1]
    sums = np.zeros((-(-(53 - exponent) // 31), points.size), dtype=np.int64)
    rest = locations * 2.0**31
    digit, change = np.empty_like(rest), np.empty(rest.shape, dtype=np.int64)
    for total in sums:
        np.subtract(rest, np.floor(rest, out=digit), out=rest)
        rest *= 2.0**31
        # whole digits of at most 2**31 subtract exactly in float
        np.subtract(digit[1:], digit[:-1], out=change[1:], casting="unsafe")
        change[firsts] = digit[firsts]
        np.add.at(total, starts, change)
    vals = np.maximum.accumulate(digit_mean_divmod(np.cumsum(sums, axis=1), n))
    return QuantileFn(points, np.clip(vals, 0.0, 1.0))


def digit_mean_divmod(sums, n) -> np.ndarray:
    """Exact base-2**31 digit sums (one row per digit) over n, as floats.

    Carries, then long division by n two digits past the sums', with
    np.divmod; the quotient's digits are added in float from the least
    significant up.  Overwrites ``sums``.
    """
    bits = 31
    for k in range(sums.shape[0] - 1, 0, -1):
        sums[k - 1] += sums[k] >> bits
        sums[k] &= 2**bits - 1
    rem, extra, out = 0, [], 0.0
    for row in sums:
        row[:], rem = np.divmod(rem * 2**bits + row, n)
    for _ in range(2):
        digit, rem = np.divmod(rem * 2**bits, n)
        extra.append(digit)
    for k, digit in reversed(list(enumerate([*sums, *extra], 1))):
        out = np.ldexp(digit.astype(float), -bits * k) + out
    return out


def wasserstein2_unique(f, g) -> float:
    """2-Wasserstein distance of two StepCdf or QuantileFn, each taken as a
    QuantileFn and evaluated on the np.unique of both breakpoint lists."""
    qf, qg = (generalized_inverse(x) if isinstance(x, StepCdf) else x for x in (f, g))
    points = np.unique(np.concatenate((qf.breakpoints, qg.breakpoints)))
    d = qf(points[1:]) - qg(points[1:])
    return float(np.sqrt(np.sum(np.diff(points) * (d * d))))


def mean_quantile_oracle(qs) -> QuantileFn:
    """Pointwise mean of quantile functions from the dense (points x n) table.

    Each row is sorted before the float sum, so the result is bit-identical
    under permutation of ``qs``; its rounding error is at most
    (n - 1) * eps * max|value| per point.
    """
    qs = list(qs)
    if not qs:
        raise EmptySample("mean_quantile needs at least one quantile function")
    points = closed_grid(np.concatenate([q.breakpoints for q in qs]))
    table = np.empty((points.size, len(qs)))
    for j, q in enumerate(qs):
        table[:, j] = q(points)
    table.sort(axis=1)
    vals = table.sum(axis=1) / len(qs)
    vals = np.maximum.accumulate(vals)
    vals = np.clip(vals, 0.0, 1.0)
    vals[0] = 0.0
    return QuantileFn(points, vals)


def quantile_to_cdf_oracle(q: QuantileFn) -> StepCdf:
    """Generalized inverse of a step quantile function, one step at a time."""
    locs = []
    levels = []
    for j in range(1, q.breakpoints.size):
        if locs and q.values[j] == locs[-1]:
            levels[-1] = q.breakpoints[j]
        else:
            locs.append(q.values[j])
            levels.append(q.breakpoints[j])
    if locs[0] <= 0.0:
        raise ValueError("quantile maps positive mass to location 0; not a CDF on (0,1]")
    return StepCdf(np.array(locs), np.array(levels))


class SineWarp(AnalyticWarp):
    """t + amplitude * sin(frequency * pi * t); fixes the endpoints."""

    def __init__(self, amplitude: float, frequency: int):
        self.amplitude = float(amplitude)
        self.frequency = int(frequency)
        if abs(amplitude) * frequency * math.pi >= 1.0:
            raise ValueError("amplitude too large for monotonicity")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = t + self.amplitude * np.sin(self.frequency * np.pi * t)
        return np.clip(out, 0.0, 1.0)


def per_warp_forward(warp, t):
    """One warp at ``t``: a SineMixtureWarp by its formula, subtracting one
    component w*sin(pi*k*t)/(|k|*pi*beta) at a time and skipping k = 0; any
    other warp by its own ``__call__``."""
    if not isinstance(warp, SineMixtureWarp):
        return warp(t)
    t = np.asarray(t, dtype=float)
    out = t.copy()
    for k, w in zip(warp.ks, warp.weights):
        if k != 0:
            out = out - w * np.sin(np.pi * k * t) / (abs(k) * np.pi * warp.beta)
    out = np.clip(out, 0.0, 1.0)
    return out if out.ndim else float(out)


def per_curve_inverse(warp, t):
    """One warp's inverse at ``t``: bisection on ``per_warp_forward``."""
    t = np.asarray(t, dtype=float)
    if isinstance(warp, IdentityWarp):
        return t
    lo = np.zeros_like(t)
    hi = np.ones_like(t)
    for _ in range(_BISECT_ITERS):
        mid = (lo + hi) / 2.0
        above = per_warp_forward(warp, mid) >= t
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
    out = (lo + hi) / 2.0
    return out if out.ndim else float(out)


def per_curve_truth_bundle(cfg, warp_cfg, n, seed, stream_offset=0) -> TruthBundle:
    """make_truth_bundle one curve at a time, without the template fields.

    Curve i draws coefficients, warp and noise from substream
    (seed, stream_offset + i) and is observed through ``per_curve_inverse``.
    """
    if n < 1:
        raise EmptySample("need n >= 1 simulated curves")
    grid = np.linspace(0.0, 1.0, cfg.grid_size)
    latent, observed, warps, coefs = [], [], [], []
    for i in range(n):
        rng = substream(seed, stream_offset + i)
        draw = sample_latent(cfg, rng)
        warp = sample_warp(warp_cfg, rng) if warp_cfg is not None else IdentityWarp()
        values = draw(per_curve_inverse(warp, grid))
        if cfg.noise_halfwidth > 0:
            values = values + cfg.noise_halfwidth * (2.0 * rng.random(grid.size) - 1.0)
        latent.append(DiscreteCurve(grid, draw(grid)))
        observed.append(DiscreteCurve(grid, values))
        warps.append(warp)
        coefs.append(draw.coefficients)
    return TruthBundle(
        grid=grid,
        latent=latent,
        observed=observed,
        warps=warps,
        coefficients=np.array(coefs),
        noise_halfwidth=cfg.noise_halfwidth,
    )


# --- per-curve registration ---------------------------------------------------


def per_curve_boundary_extend(sample_t, sample_v, last_grid_point=None) -> WarpMap:
    """One warp's raw samples as a WarpMap on [0,1], step by step: pinned at
    its last grid point below 1 and continued linearly to (1,1)."""
    t = np.asarray(sample_t, dtype=float)
    v = np.asarray(sample_v, dtype=float).copy()
    if t.shape != v.shape or t.ndim != 1 or t.size == 0:
        raise ValueError("need matching 1-d sample arrays")
    if not (np.diff(v) >= -1e-9).all():
        raise NonMonotoneInput("warp samples decrease by more than tolerance")
    v = np.maximum.accumulate(v)
    v = np.clip(v, 0.0, 1.0)
    t_r = last_grid_point
    if t_r is not None and t_r < 1.0:
        keep = t <= t_r
        t, v = t[keep], v[keep]
        v = np.minimum(v, t_r)
        if t.size and t[-1] == t_r:
            v[-1] = t_r
        else:
            t = np.concatenate((t, [t_r]))
            v = np.concatenate((v, [t_r]))
        t = np.concatenate((t, [1.0]))
        v = np.concatenate((v, [1.0]))
    elif t[-1] < 1.0:
        t = np.concatenate((t, [1.0]))
        v = np.concatenate((v, [1.0]))
    else:
        v[-1] = 1.0
        v = np.minimum(v, 1.0)
    if t[0] > 0.0:
        t = np.concatenate(([0.0], t))
        v = np.concatenate(([0.0], v))
    else:
        v[0] = 0.0
    return WarpMap(t, v)


def per_curve_estimate_warps(cdfs, grid=None):
    """estimate_warps_discrete with one quantile, warp and inverse per curve."""
    cdfs = list(cdfs)
    if not cdfs:
        raise EmptySample("no variation CDFs given")
    quantiles = [generalized_inverse(c) for c in cdfs]
    template_quantile = mean_quantile(quantiles)
    template_cdf = quantile_to_cdf(template_quantile)
    if grid is None:
        grid = closed_grid(np.concatenate([c.jump_locations for c in cdfs]), WARP_GRID_CAP)
    else:
        grid = closed_grid(grid)
    warps, inverse_warps = [], []
    for cdf, q in zip(cdfs, quantiles):
        t_r = float(cdf.jump_locations[-1])
        v = q(template_cdf(grid))
        warps.append(per_curve_boundary_extend(grid, v, t_r))
        v_inv = template_quantile(cdf(grid))
        inverse_warps.append(per_curve_boundary_extend(grid, v_inv, t_r))
    return template_cdf, template_quantile, warps, inverse_warps


def per_curve_nadaraya_watson(curve, h, eval_points) -> np.ndarray:
    """Windowed Nadaraya-Watson fit of one curve, from the per-curve windowed pass."""
    eval_points = np.asarray(eval_points, dtype=float)
    out = per_curve_windowed_fit(curve.grid, curve.values, [h], eval_points, 0)[0]
    empty = np.isnan(out)
    if empty.any():
        bad = eval_points[int(np.argmax(empty))]
        raise EmptyWindow(float(bad), min_bandwidth(curve.grid, eval_points))
    return out


def per_curve_smooth_warp(sample_t, sample_v, n_knots, n_out=1024):
    """One warp smoothed through ``n_knots`` equispaced knots by a monotone cubic."""
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


def _per_curve_noiseless(curves, options, bandwidth_rule, regime):
    curves = list(curves)
    if not curves:
        raise EmptySample("no curves to register")
    summaries = [discrete_variation_cdf(c, curve_id=i) for i, c in enumerate(curves)]
    warp_grid = closed_grid(np.concatenate([c.grid for c in curves]), WARP_GRID_CAP)
    template_cdf, template_q, warps, inverse_warps = per_curve_estimate_warps(
        [s.cdf for s in summaries], warp_grid
    )
    if options.smooth_warps:
        warps = [
            WarpMap(*per_curve_smooth_warp(w.sample_t, w.sample_v, options.n_knots))
            for w in warps
        ]
    output_grid = _per_curve_output_grid(curves, options.output_grid)
    eval_points = [warp(output_grid) for warp in warps]
    bandwidths = [bandwidth_rule(c, e) for c, e in zip(curves, eval_points)]
    registered = []
    for curve, e, h in zip(curves, eval_points, bandwidths):
        registered.append(DiscreteCurve(output_grid, per_curve_nadaraya_watson(curve, h, e)))
    meta = {
        "bandwidths": [float(h) for h in bandwidths],
        "smooth_warps": bool(options.smooth_warps),
        "n_knots": int(options.n_knots),
        "boundary_knots_appended": any(
            float(s.cdf.jump_locations[-1]) < 1.0 for s in summaries
        ),
        "output_grid_size": int(output_grid.size),
    }
    return RegistrationResult(
        warps=warps,
        inverse_warps=inverse_warps,
        template_cdf=template_cdf,
        template_quantile=template_q,
        registered=registered,
        mean=cross_sectional_mean(registered),
        regime=regime,
        metadata=meta,
    )


def _per_curve_output_grid(curves, override):
    if override is not None:
        return closed_grid(override)
    return closed_grid(np.concatenate([c.grid for c in curves]), OUTPUT_GRID_CAP)


def per_curve_register_discrete(sample, options=None) -> RegistrationResult:
    """register_discrete one curve at a time."""
    options = options or RegisterOptions()
    if options.bandwidth is not None:
        rule = lambda c, e: float(options.bandwidth)
    else:
        rule = lambda c, e: min(max(1.1 * c.max_gap, min_bandwidth(c.grid, e)), 1.0)
    return _per_curve_noiseless(sample, options, rule, "discrete")


def per_curve_register_complete(sample, output_grid=None) -> RegistrationResult:
    """register_complete one curve at a time."""
    options = RegisterOptions(smooth_warps=False, output_grid=output_grid)
    rule = lambda c, e: min(max(0.505 * c.max_gap, min_bandwidth(c.grid, e)), 1.0)
    return _per_curve_noiseless(sample, options, rule, "complete")


def widened_bandwidth(grid, eval_points, h, degree) -> float:
    """A curve's leave-one-out bandwidth ``h`` for fits of ``degree`` at
    ``eval_points``: where some of them lie past an end of ``grid`` and a
    window holds fewer than degree + 1 grid points within h, 1.25 times the
    largest distance from a point to its (degree + 1)-th nearest grid
    point, at most 1."""
    e = np.asarray(eval_points, dtype=float)
    if grid[0] <= e.min() and e.max() <= grid[-1]:
        return h
    reach = float(np.sort(np.abs(grid[None, :] - e[:, None]), axis=1)[:, degree].max())
    return min(reach * 1.25, 1.0) if reach >= h else h


def per_curve_register_noisy(sample, opts=None) -> RegistrationResult:
    """register_noisy with each curve's derivative CDF, warp and fit on its own."""
    opts = opts or NoisyOptions()
    curves = list(sample)
    if not curves:
        raise EmptySample("no curves to register")
    for c in curves:
        if c.grid.size < 10:
            raise ValueError("noisy pipeline needs at least 10 points per curve")
    deriv_grid = np.linspace(0.0, 1.0, opts.deriv_grid_size)
    prepared = []
    for i, curve in enumerate(curves):
        if opts.h1 is None:
            h1, h2 = per_curve_loocv_bandwidths(curve, (2, 1), loocv_ladder(curve.max_gap))
            h1 = widened_bandwidth(curve.grid, deriv_grid, h1, 2)
        else:
            h1, h2 = float(opts.h1), float(opts.h2)
        deriv = np.abs(per_curve_local_poly(curve, h1, 2, 1, deriv_grid))
        cell = (deriv[:-1] + deriv[1:]) / 2.0 * np.diff(deriv_grid)
        total = float(np.sum(cell))
        if total <= 1e-12 * max(float(np.abs(curve.values).max()), 1.0):
            raise ZeroVariation(
                "estimated derivative integrates to (numerically) zero", curve_id=i
            )
        prepared.append((h1, h2, step_cdf_from_jumps(deriv_grid[1:], cell)))
    template_cdf, template_q, warps, inverse_warps = per_curve_estimate_warps(
        [p[2] for p in prepared], deriv_grid
    )
    output_grid = _per_curve_output_grid(curves, opts.output_grid)
    registered = []
    for k, (curve, warp, (h1, h2, cdf)) in enumerate(zip(curves, warps, prepared)):
        if opts.h1 is None:
            h2 = widened_bandwidth(curve.grid, warp(output_grid), h2, 1)
            prepared[k] = (h1, h2, cdf)
        registered.append(
            DiscreteCurve(output_grid, per_curve_local_poly(curve, h2, 1, 0, warp(output_grid)))
        )
    meta = {
        "h1": [float(p[0]) for p in prepared],
        "h2": [float(p[1]) for p in prepared],
        "auto_bandwidth": opts.h1 is None,
        "deriv_grid_size": int(opts.deriv_grid_size),
        "boundary_knots_appended": False,
        "output_grid_size": int(output_grid.size),
    }
    return RegistrationResult(
        warps=warps,
        inverse_warps=inverse_warps,
        template_cdf=template_cdf,
        template_quantile=template_q,
        registered=registered,
        mean=cross_sectional_mean(registered),
        regime="noisy",
        metadata=meta,
    )


# --- per-curve diagnostics ----------------------------------------------------


def _trapz(values, grid) -> float:
    return float(np.sum(trapezoid_weights(grid) * values))


def per_curve_scores(curves, eigenfunction, grid) -> np.ndarray:
    """scores one curve at a time."""
    grid = np.asarray(grid, dtype=float)
    w = trapezoid_weights(grid)
    return np.array([float(np.sum(w * c.values * eigenfunction)) for c in curves])


def per_curve_z_statistic(curves, mean_mode="auto", info=None) -> np.ndarray:
    """z_statistic with each curve's derivative and integrals taken on their own."""
    if mean_mode not in ("auto", "force_zero_deriv"):
        raise ValueError("mean_mode must be 'auto' or 'force_zero_deriv'")
    curves = list(curves)
    grid = curves[0].grid
    for c in curves[1:]:
        if not np.array_equal(c.grid, grid):
            raise GridMismatch("curves are not on a common grid")

    derivs = [np.gradient(c.values, grid) for c in curves]
    denoms = np.array([_trapz(np.abs(d), grid) for d in derivs])
    scale = float(denoms.max()) if denoms.size else 0.0
    if scale <= 0.0:
        raise ZeroVariation("all curves are (numerically) constant")
    for i, d in enumerate(denoms):
        if d <= 1e-12 * scale:
            raise ZeroVariation(curve_id=i)

    def tv(d, r):
        # total variation distance between the densities |d|/int|d| and |r|/int|r|
        mass = _trapz(np.abs(d), grid)
        if mass == 0.0:
            return 0.0
        return min(_trapz(np.abs(np.abs(d) / mass - np.abs(r) / _trapz(np.abs(r), grid)), grid), 2.0)

    mu = cross_sectional_mean(curves) if len(curves) >= 2 else curves[0]
    mu_deriv = np.gradient(mu.values, grid)
    if mean_mode == "auto" and _trapz(np.abs(mu_deriv), grid) >= 1e-8 * scale:
        z = np.array([tv(d, mu_deriv) for d in derivs])
        branch = "mean_deriv"
    else:
        eig = row_eigenpairs(np.stack([c.values for c in curves]), grid, 2)
        phis = [f for f, lam in zip(eig.eigenfunctions, eig.eigenvalues) if lam > 0.0]
        dphis = [np.gradient(f, grid) for f in phis]
        if not phis or _trapz(np.abs(dphis[0]), grid) == 0.0:
            z = np.zeros(len(curves))
            branch = "zero_mean_degenerate"
        else:
            centered = [DiscreteCurve(grid, c.values - mu.values) for c in curves]
            s = [per_curve_scores(centered, f, grid) for f in phis]
            z = np.array([
                tv(sum(s[k][i] * dphis[k] for k in range(len(phis))), dphis[0])
                for i in range(len(curves))
            ])
            branch = "zero_mean"
    if info is not None:
        info["branch"] = branch
    return z


def z_statistic_whole(curves, mean_mode="auto", info=None) -> np.ndarray:
    """z_statistic with every derivative and distance of the sample taken
    over one (curves x points) array, and the mean after the checks."""
    if mean_mode not in ("auto", "force_zero_deriv"):
        raise ValueError("mean_mode must be 'auto' or 'force_zero_deriv'")
    curves = list(curves)
    grid = curves[0].grid
    for c in curves[1:]:
        if not np.array_equal(c.grid, grid):
            raise GridMismatch("curves are not on a common grid")
    x = np.stack([c.values for c in curves])
    w = trapezoid_weights(grid)

    def integral(rows):
        return np.sum(w * rows, axis=-1)

    def distance(d, r):
        d, r = np.abs(d), np.abs(r)
        mass = integral(d)
        d = d / np.where(mass > 0.0, mass, 1.0)[:, None] - r / integral(r)
        return np.where(mass > 0.0, np.minimum(integral(np.abs(d)), 2.0), 0.0)

    derivs = np.gradient(x, grid, axis=1)
    denoms = integral(np.abs(derivs))
    scale = float(denoms.max())
    if scale <= 0.0:
        raise ZeroVariation("all curves are (numerically) constant")
    flat = denoms <= 1e-12 * scale
    if flat.any():
        raise ZeroVariation(curve_id=int(np.argmax(flat)))
    mu = cross_sectional_mean(curves).values if len(curves) >= 2 else x[0]
    mu_deriv = np.gradient(mu, grid)
    if mean_mode == "auto" and integral(np.abs(mu_deriv)) >= 1e-8 * scale:
        z, branch = distance(derivs, mu_deriv), "mean_deriv"
    else:
        eig = row_eigenpairs(x, grid, 2)
        phi = eig.eigenfunctions[eig.eigenvalues > 0.0]
        dphi = np.gradient(phi, grid, axis=1)
        if phi.shape[0] == 0 or integral(np.abs(dphi[0])) == 0.0:
            z, branch = np.zeros(len(curves)), "zero_mean_degenerate"
        else:
            centered = x - mu
            projected = sum(row_scores(centered, f, grid)[:, None] * df for f, df in zip(phi, dphi))
            z, branch = distance(projected, dphi[0]), "zero_mean"
    if info is not None:
        info["branch"] = branch
    return z


def per_curve_truth_errors(warp_pairs, registered, latent, mean) -> tuple:
    """truth_errors from (estimated, true) warp samples and curves, one curve at a time."""
    warp_errs = np.array([float(np.abs(est - true).max()) for est, true in warp_pairs])
    w = trapezoid_weights(mean.grid)
    rel_errs = np.empty(len(latent))
    for i, (x_hat, x_true) in enumerate(zip(registered, latent)):
        denom = math.sqrt(float(np.sum(w * x_true.values * x_true.values)))
        num = math.sqrt(float(np.sum(w * (x_hat.values - x_true.values) ** 2)))
        rel_errs[i] = num / max(denom, 1e-300)
    true_mean = cross_sectional_mean(latent)
    return warp_errs, rel_errs, float(np.abs(mean.values - true_mean.values).max())


def per_curve_evaluate_against_truth(result, truth) -> RegistrationReport:
    """evaluate_against_truth with every warp, truth warp and truth curve on its own."""
    if result.n != truth.n:
        raise GridMismatch("result and truth have different sample sizes")
    out_grid = result.output_grid
    dense = np.unique(np.concatenate((np.linspace(0.0, 1.0, 2049), out_grid)))
    warp_pairs = (
        (w(dense), np.asarray(truth.warps[i](dense))) for i, w in enumerate(result.warps)
    )
    latent = [
        DiscreteCurve(out_grid, np.interp(out_grid, truth.grid, c.values)) for c in truth.latent
    ]
    warp_errs, rel_errs, mean_sup = per_curve_truth_errors(
        warp_pairs, result.registered, latent, result.mean
    )
    dw2 = None
    if truth.f_phi is not None:
        dw2 = wasserstein2(result.template_cdf, truth.f_phi) ** 2
    m = min(3, result.n) if result.n >= 2 else 1
    ratios = None
    if result.n >= 2:
        eig = row_eigenpairs(np.stack([c.values for c in result.registered]), out_grid, m)
        ratios = eig.explained_ratios
    info = {}
    try:
        z = per_curve_z_statistic(result.registered, info=info) if result.n >= 2 else None
    except ZeroVariation:
        z = None
    flags = {"z_branch": info.get("branch")}
    return RegistrationReport(
        explained_ratios=ratios,
        z_stats=z,
        dW2_template_to_target=dw2,
        warp_sup_errors=warp_errs,
        curve_rel_L2_errors=rel_errs,
        mean_sup_error=mean_sup,
        flags=flags,
    )


def per_curve_rate_check(model_cfg, warp_cfg, ns, reps, seed, dense_r=10000) -> RateCheckResult:
    """rate_check with each replicate's template built curve by curve."""
    ns = sorted(int(n) for n in ns)
    if not ns or ns[0] < 2 or reps < 1:
        raise ValueError("need sample sizes >= 2 and reps >= 1")
    target_q = generalized_inverse(true_variation_cdf(model_cfg, dense_r))
    means = np.empty(len(ns))
    ses = np.empty(len(ns))
    grid_sizes = []
    for a, n in enumerate(ns):
        r = rate_grid_size(n)
        grid_sizes.append(r)
        cfg = replace(model_cfg, grid_size=r)
        vals = np.empty(reps)
        for b in range(reps):
            bundle = make_truth_bundle(
                cfg, warp_cfg, n, seed, stream_offset=(a << 40) | (b << 20), dense_r=64
            )
            quantiles = [
                generalized_inverse(discrete_variation_cdf(c).cdf) for c in bundle.observed
            ]
            vals[b] = wasserstein2(mean_quantile(quantiles), target_q) ** 2
        means[a] = vals.mean()
        ses[a] = vals.std(ddof=1) / math.sqrt(reps) if reps > 1 else 0.0
    floor = (1.0 / (grid_sizes[-1] - 1)) ** 2
    if warp_cfg is None or means[-1] < 2.0 * floor:
        return RateCheckResult(ns, grid_sizes, means, ses, slope=None, flag="at_discretization_floor")
    slope = float(np.polyfit(np.log(np.asarray(ns, dtype=float)), np.log(means), 1)[0])
    return RateCheckResult(ns, grid_sizes, means, ses, slope=slope)


def per_cell_fmt(x: float) -> str:
    return format(float(x), ".17g")


def _per_cell_fmts(values) -> list:
    """per_cell_fmt(x) for every entry x of ``values``, without a Python call per entry."""
    return ["%.17g" % x for x in np.asarray(values, dtype=float).tolist()]


def _per_cell_parse_float(text, line):
    try:
        return float(text)
    except ValueError:
        raise InputFormatError(f"not a number: {text!r}", line) from None


@_names_its_file
def per_cell_read_curves_csv(path):
    """Read curves from wide or long CSV.

    Returns (curve_ids, curves, rescale) where rescale is None or
    (offset, scale) recording an affine map applied to bring times into
    [0,1].
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InputFormatError("empty file", 1) from None
        header = [h.strip() for h in header]
        if not header:
            raise InputFormatError("missing header", 1)
        rows = [(idx, row) for idx, row in enumerate(reader, start=2) if row and any(row)]

    if len(header) >= 3 and [h.lower() for h in header[:3]] == ["curve_id", "t", "value"]:
        return _per_cell_curves_from_long(rows)
    if header[0].lower() == "t" and len(header) >= 2:
        return _per_cell_curves_from_wide(header, rows)
    raise InputFormatError(
        "header must be 'curve_id,t,value' (long) or 't,<curve>,...' (wide)", 1
    )


def _per_cell_rescale_times(all_t):
    if not all_t:
        raise InputFormatError("no data rows")
    for t, line in all_t:
        if not math.isfinite(t):
            raise InputFormatError("time must be finite", line)
    lo = min(t for t, _ in all_t)
    hi = max(t for t, _ in all_t)
    if 0.0 <= lo and hi <= 1.0:
        return None
    if hi == lo:
        raise InputFormatError("cannot rescale a single time point")
    if hi - lo == math.inf:
        raise InputFormatError("time span overflows a float; cannot rescale onto [0,1]")
    return (lo, hi - lo)


def _per_cell_curves_from_wide(header, rows):
    ids = header[1:]
    if len(set(ids)) != len(ids):
        raise InputFormatError("duplicate curve columns", 1)
    t = []
    cols = [[] for _ in ids]
    for line, row in rows:
        if len(row) != len(header):
            raise InputFormatError(f"expected {len(header)} fields, got {len(row)}", line)
        t.append((_per_cell_parse_float(row[0], line), line))
        for j, cell in enumerate(row[1:]):
            cols[j].append(_per_cell_parse_float(cell, line))
    rescale = _per_cell_rescale_times(t)
    grid = np.array([x for x, _ in t])
    if rescale is not None:
        grid = (grid - rescale[0]) / rescale[1]
    order = np.argsort(grid)
    grid = grid[order]
    if not (np.diff(grid) > 0).all():
        dup_pos = int(np.argmin(np.diff(grid) > 0))
        raise InputFormatError("duplicate time point", t[order[dup_pos + 1]][1])
    curves = []
    for j in range(len(ids)):
        vals = np.array(cols[j])[order]
        try:
            curves.append(DiscreteCurve(grid, vals))
        except ValueError as exc:
            raise InputFormatError(f"curve {ids[j]!r}: {exc}") from None
    return ids, curves, rescale


def _per_cell_curves_from_long(rows):
    by_id = {}
    all_t = []
    for line, row in rows:
        if len(row) != 3:
            raise InputFormatError(f"expected 3 fields, got {len(row)}", line)
        cid = row[0].strip()
        t = _per_cell_parse_float(row[1], line)
        v = _per_cell_parse_float(row[2], line)
        by_id.setdefault(cid, []).append((t, v, line))
        all_t.append((t, line))
    rescale = _per_cell_rescale_times(all_t)
    ids = list(by_id.keys())  # first-appearance order
    curves = []
    for cid in ids:
        pts = by_id[cid]
        t = np.array([p[0] for p in pts])
        v = np.array([p[1] for p in pts])
        if rescale is not None:
            t = (t - rescale[0]) / rescale[1]
        order = np.argsort(t)
        t, v = t[order], v[order]
        if (np.diff(t) <= 0).any():
            dup_pos = int(np.argmin(np.diff(t) > 0))
            raise InputFormatError(
                f"curve {cid!r}: duplicate time point", pts[order[dup_pos + 1]][2]
            )
        try:
            curves.append(DiscreteCurve(t, v))
        except ValueError as exc:
            raise InputFormatError(f"curve {cid!r}: {exc}") from None
    return ids, curves, rescale


def per_cell_write_rows(path, header, rows):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def per_cell_write_wide_csv(path, ids, grid, value_columns):
    per_cell_write_rows(path, ["t"] + list(ids), zip(_per_cell_fmts(grid), *map(_per_cell_fmts, value_columns)))


def per_cell_write_long_csv(path, ids, curves):
    rows = []
    for cid, curve in zip(ids, curves):
        rows += zip(repeat(cid), _per_cell_fmts(curve.grid), _per_cell_fmts(curve.values))
    per_cell_write_rows(path, ["curve_id", "t", "value"], rows)


def per_cell_write_warps_csv(path, ids, warp_values, inverse_warp_values, grid):
    """One row per curve and grid point; the value arrays are sampled on ``grid``."""
    t = _per_cell_fmts(grid)
    rows = []
    for cid, wv, iv in zip(ids, warp_values, inverse_warp_values):
        rows += zip(repeat(cid), t, _per_cell_fmts(wv), _per_cell_fmts(iv))
    per_cell_write_rows(path, ["curve_id", "t", "warp_value", "inverse_warp_value"], rows)


def _per_cell_read_table(path, header):
    """Yield the data rows of the CSV file ``path`` as (line number, fields).

    Raises InputFormatError, with the line number, for an empty file, a
    header other than ``header``, or a row with another number of fields.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        first = next(reader, None)
        if first is None:
            raise InputFormatError("empty file", 1)
        if [h.strip() for h in first] != header:
            raise InputFormatError(f"header is not {','.join(header)!r}", 1)
        for line, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise InputFormatError(f"expected {len(header)} fields, got {len(row)}", line)
            yield line, row


@_names_its_file
def per_cell_read_warps_csv(path):
    header = ["curve_id", "t", "warp_value", "inverse_warp_value"]
    parsed = [(line, row[0], [_per_cell_parse_float(cell, line) for cell in row[1:]])
              for line, row in _per_cell_read_table(path, header)]
    data = {}
    for line, cid, cells in parsed:  # every cell a number first, then every cell finite
        for name, x in zip(header[1:], cells):
            if not math.isfinite(x):
                raise InputFormatError(f"{name} must be finite", line)
        data.setdefault(cid, []).append(tuple(cells))
    out = {}
    for cid, pts in data.items():
        arr = np.array(sorted(pts))
        out[cid] = (arr[:, 0], arr[:, 1], arr[:, 2])
    return out


def per_cell_write_mean_csv(path, mean_curve):
    per_cell_write_rows(path, ["t", "value"], zip(_per_cell_fmts(mean_curve.grid), _per_cell_fmts(mean_curve.values)))


@_names_its_file
def per_cell_read_mean_csv(path) -> DiscreteCurve:
    grid, vals = [], []
    for line, row in _per_cell_read_table(path, ["t", "value"]):
        grid.append(_per_cell_parse_float(row[0], line))
        vals.append(_per_cell_parse_float(row[1], line))
    return DiscreteCurve(np.array(grid), np.array(vals))


def per_cell_write_eigen_csv(path, grid, eigenfunctions):
    header = ["t"] + [f"phi_{j + 1}" for j in range(eigenfunctions.shape[0])]
    per_cell_write_rows(path, header, zip(_per_cell_fmts(grid), *map(_per_cell_fmts, eigenfunctions)))


def per_cell_write_scores_csv(path, ids, score_matrix):
    header = ["curve_id"] + [f"score_{j + 1}" for j in range(score_matrix.shape[1])]
    per_cell_write_rows(path, header, zip(ids, *map(_per_cell_fmts, score_matrix.T)))


def per_cell_write_template_csv(path, cdf):
    rows = zip(_per_cell_fmts(cdf.jump_locations), _per_cell_fmts(cdf.cum_values))
    per_cell_write_rows(path, ["jump_location", "cum_value"], rows)


@_names_its_file
def per_cell_read_template_csv(path):
    locs, cums = [], []
    for line, row in _per_cell_read_table(path, ["jump_location", "cum_value"]):
        locs.append(_per_cell_parse_float(row[0], line))
        cums.append(_per_cell_parse_float(row[1], line))
    return StepCdf(np.array(locs), np.array(cums))
