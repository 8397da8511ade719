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
* The per-curve registration pipelines: every curve's variation CDF,
  quantile, warp, boundary extension, smoothed warp and kernel fit built
  on its own, one curve at a time.  The library runs each stage once over
  (curves x points) arrays.
* The per-curve diagnostics: the z-statistic, FPCA scores and errors
  against the truth, each curve's derivative, integrals, warps and truth
  warps taken on their own.  The library sums along the rows of one
  (curves x points) array.
"""

from __future__ import annotations

import math

import numpy as np

from scipy.interpolate import PchipInterpolator

from varireg.diagnostics import Z_CLAMP_TOL, RegistrationReport
from varireg.errors import (
    AllCandidatesSingular,
    EmptySample,
    EmptyWindow,
    GridMismatch,
    NonMonotoneInput,
    SingularFit,
    ZeroVariation,
)
from varireg.fpca import (
    covariance_matrix,
    cross_sectional_mean,
    leading_eigenpairs,
    trapezoid_weights,
)
from varireg.registration import (
    OUTPUT_GRID_CAP,
    WARP_GRID_CAP,
    RegisterOptions,
    NoisyOptions,
    RegistrationResult,
    WarpMap,
    boundary_extend,
)
from varireg.simulate import (
    _BISECT_ITERS,
    AnalyticWarp,
    IdentityWarp,
    TruthBundle,
    sample_latent,
    sample_warp,
    substream,
)
from varireg.smoothing import (
    SmootherConfig,
    _windowed_fit,
    default_loocv_candidates,
    local_poly,
    loocv_bandwidths,
    suggested_min_bandwidth,
)
from varireg.variation import (
    DiscreteCurve,
    QuantileFn,
    StepCdf,
    closed_grid,
    compose_quantile_cdf,
    discrete_variation_cdf,
    generalized_inverse,
    mean_quantile,
    quantile_to_cdf,
    wasserstein2,
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


# --- per-curve registration ---------------------------------------------------


def per_curve_boundary_extend(sample_t, sample_v, last_grid_point=None) -> WarpMap:
    """boundary_extend of one warp, step by step."""
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
        v = compose_quantile_cdf(q, template_cdf, grid)
        warps.append(per_curve_boundary_extend(grid, v, t_r))
        v_inv = compose_quantile_cdf(template_quantile, cdf, grid)
        inverse_warps.append(per_curve_boundary_extend(grid, v_inv, t_r))
    return template_cdf, template_quantile, warps, inverse_warps


def per_curve_nadaraya_watson(curve, cfg, eval_points) -> np.ndarray:
    """Windowed Nadaraya-Watson fit of one curve, as local_poly's pass makes it."""
    eval_points = np.asarray(eval_points, dtype=float)
    out = _windowed_fit(
        curve.grid, curve.values, [cfg.bandwidth], eval_points, 0, kernel=cfg.kernel
    )[0]
    empty = np.isnan(out)
    if empty.any():
        bad = eval_points[int(np.argmax(empty))]
        raise EmptyWindow(float(bad), suggested_min_bandwidth(curve.grid, eval_points))
    return out


def per_curve_smooth_warp(sample_t, sample_v, n_knots, n_out=1024):
    """monotone_smooth_warp of one warp."""
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
        cfg = SmootherConfig(bandwidth=h, degree=0, deriv_order=0)
        registered.append(DiscreteCurve(output_grid, per_curve_nadaraya_watson(curve, cfg, e)))
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
        rule = lambda c, e: min(max(1.1 * c.max_gap, suggested_min_bandwidth(c.grid, e)), 1.0)
    return _per_curve_noiseless(sample, options, rule, "discrete")


def per_curve_register_complete(sample, output_grid=None) -> RegistrationResult:
    """register_complete one curve at a time."""
    options = RegisterOptions(smooth_warps=False, output_grid=output_grid)
    return _per_curve_noiseless(
        sample, options, lambda c, e: min(0.505 * c.max_gap, 1.0), "complete"
    )


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
        if opts.auto:
            h1, h2 = loocv_bandwidths(curve, (2, 1), default_loocv_candidates(curve))
        else:
            h1, h2 = float(opts.h1), float(opts.h2)
        cfg1 = SmootherConfig(bandwidth=h1, degree=2, deriv_order=1)
        deriv = np.abs(local_poly(curve, cfg1, deriv_grid))
        cell = (deriv[:-1] + deriv[1:]) / 2.0 * np.diff(deriv_grid)
        total = float(np.sum(cell))
        if total <= 1e-12 * max(float(np.abs(curve.values).max()), 1.0):
            raise ZeroVariation(
                "estimated derivative integrates to (numerically) zero", curve_id=i
            )
        prepared.append((h1, h2, StepCdf.from_jumps(deriv_grid[1:], cell)))
    template_cdf, template_q, warps, inverse_warps = per_curve_estimate_warps(
        [p[2] for p in prepared], deriv_grid
    )
    output_grid = _per_curve_output_grid(curves, opts.output_grid)
    registered = []
    for curve, warp, (_, h2, _) in zip(curves, warps, prepared):
        cfg2 = SmootherConfig(bandwidth=h2, degree=1, deriv_order=0)
        registered.append(
            DiscreteCurve(output_grid, local_poly(curve, cfg2, warp(output_grid)))
        )
    meta = {
        "h1": [float(p[0]) for p in prepared],
        "h2": [float(p[1]) for p in prepared],
        "auto_bandwidth": bool(opts.auto),
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
            raise GridMismatch("z_statistic needs a common grid")

    derivs = [np.gradient(c.values, grid) for c in curves]
    denoms = np.array([_trapz(np.abs(d), grid) for d in derivs])
    scale = float(denoms.max()) if denoms.size else 0.0
    if scale <= 0.0:
        raise ZeroVariation("all curves are (numerically) constant")
    for i, d in enumerate(denoms):
        if d <= 1e-12 * scale:
            raise ZeroVariation(curve_id=i)

    mu = cross_sectional_mean(curves) if len(curves) >= 2 else curves[0]
    mu_deriv = np.gradient(mu.values, grid)
    mu_mass = _trapz(np.abs(mu_deriv), grid)
    use_zero_mean = mean_mode == "force_zero_deriv" or mu_mass < 1e-8 * scale

    if not use_zero_mean:
        raw = np.array(
            [2.0 * _trapz(np.abs(d - mu_deriv), grid) / dn for d, dn in zip(derivs, denoms)]
        )
        branch = "mean_deriv"
    else:
        kernel = covariance_matrix(curves)
        eig = leading_eigenpairs(kernel, grid, 2)
        gamma = np.sqrt(eig.eigenvalues)
        if gamma[0] <= 0.0:
            raw = np.zeros(len(curves))
            branch = "zero_mean_degenerate"
        else:
            centered = [DiscreteCurve(grid, c.values - mu.values) for c in curves]
            s1 = per_curve_scores(centered, eig.eigenfunctions[0], grid)
            s2 = (
                per_curve_scores(centered, eig.eigenfunctions[1], grid)
                if eig.eigenvalues.size > 1
                else np.zeros(len(curves))
            )
            eta = float(gamma[1] / gamma[0]) if gamma.size > 1 and gamma[1] > 0 else 0.0
            y1 = s1 / gamma[0]
            y2 = s2 / gamma[1] if eta > 0 else np.zeros_like(s2)
            d1 = np.gradient(eig.eigenfunctions[0], grid)
            d2 = (
                np.gradient(eig.eigenfunctions[1], grid)
                if eig.eigenvalues.size > 1
                else np.zeros_like(grid)
            )
            mass2 = _trapz(np.abs(d2), grid)
            raw = np.empty(len(curves))
            for i in range(len(curves)):
                num = 2.0 * eta * abs(y2[i]) * mass2
                den = _trapz(np.abs(y1[i] * d1 + eta * y2[i] * d2), grid)
                raw[i] = 0.0 if num == 0.0 else num / max(den, 1e-300)
            branch = "zero_mean"

    clamped = raw > 2.0 + Z_CLAMP_TOL
    values = np.clip(raw, 0.0, 2.0)
    if info is not None:
        info["branch"] = branch
        info["clamped"] = clamped
        info["raw_max"] = float(raw.max()) if raw.size else 0.0
    return values


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
        eig = leading_eigenpairs(covariance_matrix(result.registered), out_grid, m)
        ratios = eig.explained_ratios
    info = {}
    try:
        z = per_curve_z_statistic(result.registered, info=info) if result.n >= 2 else None
    except ZeroVariation:
        z = None
    flags = {"z_branch": info.get("branch"), "z_clamped_any": bool(np.any(info.get("clamped", False)))}
    return RegistrationReport(
        explained_ratios=ratios,
        z_stats=z,
        dW2_template_to_target=dw2,
        warp_sup_errors=warp_errs,
        curve_rel_L2_errors=rel_errs,
        mean_sup_error=mean_sup,
        flags=flags,
    )
