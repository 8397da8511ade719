"""Reference implementations the tests compare the library against.

* Dense (evaluation x grid) kernel smoothers.  They build the full
  Epanechnikov weight matrix between every evaluation point and every grid
  point: simple and obviously correct, but O(eval x grid) per fit.  The
  library computes the same fits over compact-support windows.
* The pairwise warp oracle, which averages all pairwise alignment maps
  instead of going through the mean-quantile template.
* The dense mean-quantile table: every input evaluated at every point of
  the breakpoint union, each row sorted and summed in float.  O(points x n)
  memory; the library sums exactly over breakpoint events instead.
* The per-step loop that inverts a quantile function into a step CDF.
* ``SineWarp``, a one-frequency analytic warp for hand-built test samples.
* The per-curve simulator: each warp inverted by its own 52-step bisection
  on its own forward map, one curve at a time.  The library bisects every
  (warp, point) cell of a sample at once.
"""

from __future__ import annotations

import math

import numpy as np

from varireg.errors import AllCandidatesSingular, EmptySample, EmptyWindow, SingularFit
from varireg.registration import WarpMap, boundary_extend
from varireg.simulate import (
    _BISECT_ITERS,
    AnalyticWarp,
    IdentityWarp,
    TruthBundle,
    sample_latent,
    sample_warp,
    substream,
)
from varireg.smoothing import SmootherConfig, suggested_min_bandwidth
from varireg.variation import (
    DiscreteCurve,
    QuantileFn,
    StepCdf,
    closed_grid,
    generalized_inverse,
)


def dense_nadaraya_watson(curve, cfg, eval_points) -> np.ndarray:
    """Kernel-weighted average; EmptyWindow where no grid point is in range."""
    if cfg.degree != 0:
        raise ValueError("nadaraya_watson requires degree 0")
    eval_points = np.asarray(eval_points, dtype=float)
    w = cfg.kernel((eval_points[:, None] - curve.grid[None, :]) / cfg.bandwidth)
    wsum = w.sum(axis=1)
    if (wsum <= 0.0).any():
        bad = eval_points[int(np.argmax(wsum <= 0.0))]
        raise EmptyWindow(float(bad), suggested_min_bandwidth(curve.grid, eval_points))
    # normalize first so a single-point window returns its value exactly
    return (w / wsum[:, None]) @ curve.values


def dense_local_poly_chunk(grid, values, cfg, chunk, loo=False):
    """Weighted LS fit of degree cfg.degree centered at each point of chunk.

    Returns the deriv_order coefficient scaled back to the time axis, or nan
    where the window is underdetermined.  With ``loo`` the weight of a grid
    point coinciding exactly with the eval point is zeroed (leave-one-out).
    """
    d = cfg.degree
    u = (grid[None, :] - chunk[:, None]) / cfg.bandwidth
    w = cfg.kernel(u)
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
    k = cfg.deriv_order
    result = coef[:, k] / cfg.bandwidth**k
    result[~ok] = np.nan
    return result


def dense_local_poly(curve, cfg, eval_points) -> np.ndarray:
    """Local polynomial value or slope; SingularFit at the first bad point."""
    eval_points = np.asarray(eval_points, dtype=float)
    res = dense_local_poly_chunk(curve.grid, curve.values, cfg, eval_points)
    if np.isnan(res).any():
        raise SingularFit(float(eval_points[int(np.argmax(np.isnan(res)))]))
    return res


def dense_loocv_predictions(curve, degree, h):
    """Leave-one-out predictions at the grid points, or None when skipped."""
    cfg = SmootherConfig(bandwidth=h, degree=degree, deriv_order=0)
    if degree == 0:
        u = (curve.grid[None, :] - curve.grid[:, None]) / h
        w = cfg.kernel(u)
        np.fill_diagonal(w, 0.0)
        wsum = w.sum(axis=1)
        if (wsum <= 0.0).any():
            return None
        return (w @ curve.values) / wsum
    preds = dense_local_poly_chunk(curve.grid, curve.values, cfg, curve.grid, loo=True)
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
    return boundary_extend(grid, v, float(target.jump_locations[-1]))


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


def per_curve_inverse(warp, t):
    """One warp's inverse at ``t``: bisection on its own ``__call__``."""
    t = np.asarray(t, dtype=float)
    if isinstance(warp, IdentityWarp):
        return t
    lo = np.zeros_like(t)
    hi = np.ones_like(t)
    for _ in range(_BISECT_ITERS):
        mid = (lo + hi) / 2.0
        above = warp(mid) >= t
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
