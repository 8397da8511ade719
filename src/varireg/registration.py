"""Registration pipelines for warped functional data.

Warp maps are estimated by composing each curve's local-variation quantile
with the sample's mean-quantile CDF; no tuning parameter enters the warp
estimation itself.  Three observation regimes share the machinery:

* ``register_discrete`` -- noiseless point evaluations; smoothing only to
  evaluate the registered curves between grid points.
* ``register_complete`` -- densely observed curves; the discrete pipeline in
  its single-nearest-point limit.
* ``register_noisy`` -- measurement error; local polynomial pre-smoothing
  supplies the derivative-based variation CDFs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EmptySample, NonMonotoneInput
from .fpca import cross_sectional_mean
from .smoothing import (
    SmootherConfig,
    default_loocv_candidates,
    local_poly,
    loocv_bandwidths,
    monotone_smooth_warp,
    nadaraya_watson,
)
from .variation import (
    DiscreteCurve,
    QuantileFn,
    StepCdf,
    closed_grid,
    compose_quantile_cdf,
    discrete_variation_cdf,
    generalized_inverse,
    mean_quantile,
    quantile_to_cdf,
)

WARP_GRID_CAP = 4096
OUTPUT_GRID_CAP = 1024
_MONOTONE_SLACK = 1e-9


@dataclass(frozen=True)
class WarpMap:
    """Monotone map of [0,1] with fixed endpoints, stored as samples.

    Evaluation interpolates linearly between samples.
    """

    sample_t: np.ndarray
    sample_v: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.sample_t, dtype=float)
        v = np.asarray(self.sample_v, dtype=float)
        if t.ndim != 1 or t.shape != v.shape or t.size < 2:
            raise ValueError("need matching 1-d sample arrays of length >= 2")
        if not (np.diff(t) > 0).all():
            raise ValueError("sample_t must be strictly increasing")
        if t[0] != 0.0 or t[-1] != 1.0:
            raise ValueError("sample_t must start at 0 and end at 1")
        if (np.diff(v) < 0).any():
            raise NonMonotoneInput("sample_v must be nondecreasing")
        if v[0] != 0.0 or v[-1] != 1.0:
            raise ValueError("sample_v must run from 0 to 1")
        object.__setattr__(self, "sample_t", t)
        object.__setattr__(self, "sample_v", v)

    def __call__(self, t):
        t_arr = np.asarray(t, dtype=float)
        out = np.interp(np.clip(t_arr, 0.0, 1.0), self.sample_t, self.sample_v)
        return out if t_arr.ndim else float(out)


@dataclass
class RegistrationResult:
    """Warps, registered curves, template, and mean for one run."""

    warps: list
    inverse_warps: list
    template_cdf: StepCdf
    template_quantile: QuantileFn
    registered: list
    mean: DiscreteCurve
    regime: str
    metadata: dict = field(default_factory=dict)

    @property
    def output_grid(self) -> np.ndarray:
        return self.mean.grid

    @property
    def n(self) -> int:
        return len(self.registered)


@dataclass(frozen=True)
class RegisterOptions:
    """Options for the noiseless pipelines."""

    bandwidth: float = None       # None: 1.1 x per-curve max grid gap
    smooth_warps: bool = False
    n_knots: int = 11
    output_grid: np.ndarray = None
    threads: int = 1              # accepted; no effect (runs serially)


@dataclass(frozen=True)
class NoisyOptions:
    """Options for the measurement-error pipeline."""

    h1: float = None              # derivative step (local quadratic)
    h2: float = None              # curve step (local linear)
    auto: bool = True             # choose h1, h2 by leave-one-out CV
    deriv_grid_size: int = 512
    output_grid: np.ndarray = None
    threads: int = 1              # accepted; no effect (runs serially)

    def __post_init__(self):
        if not self.auto and (self.h1 is None or self.h2 is None):
            raise ValueError("h1 and h2 are required when auto is off")
        if self.h1 is not None and not self.h1 > 0:
            raise ValueError("h1 must be positive")
        if self.h2 is not None and not self.h2 > 0:
            raise ValueError("h2 must be positive")
        if self.deriv_grid_size < 16:
            raise ValueError("deriv_grid_size too small")


def boundary_extend(sample_t, sample_v, last_grid_point=None) -> WarpMap:
    """Turn raw warp samples into a WarpMap on all of [0,1].

    When the observed grid stops short of 1 the estimated warp is only
    defined up to that point; the map is pinned there and continued linearly
    to (1,1).  (0,0) is always enforced, float overshoots are clamped, and
    sub-tolerance monotonicity wiggles are flattened; genuinely decreasing
    samples raise NonMonotoneInput.
    """
    t = np.asarray(sample_t, dtype=float)
    v = np.asarray(sample_v, dtype=float).copy()
    if t.shape != v.shape or t.ndim != 1 or t.size == 0:
        raise ValueError("need matching 1-d sample arrays")
    if (np.diff(v) < -_MONOTONE_SLACK).any():
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


def estimate_warps_discrete(cdfs, grid=None):
    """Warp and registration maps from per-curve variation CDFs.

    Returns (template_cdf, template_quantile, warps, inverse_warps).  The
    template quantile is the pointwise mean of the per-curve quantiles and
    the template CDF is its generalized inverse; warp i composes curve i's
    quantile with the template CDF, and the inverse warp composes the
    template quantile with curve i's CDF.  ``grid`` fixes where the warp
    maps are sampled (default: union of all jump locations, capped).
    """
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
        warps.append(boundary_extend(grid, v, t_r))
        v_inv = compose_quantile_cdf(template_quantile, cdf, grid)
        inverse_warps.append(boundary_extend(grid, v_inv, t_r))
    return template_cdf, template_quantile, warps, inverse_warps


def _default_output_grid(curves, override):
    if override is not None:
        return closed_grid(override)
    return closed_grid(np.concatenate([c.grid for c in curves]), OUTPUT_GRID_CAP)


def _register_noiseless(curves, options, bandwidth_rule, regime):
    curves = list(curves)
    if not curves:
        raise EmptySample("no curves to register")
    summaries = [discrete_variation_cdf(c, curve_id=i) for i, c in enumerate(curves)]
    cdfs = [s.cdf for s in summaries]
    warp_grid = closed_grid(np.concatenate([c.grid for c in curves]), WARP_GRID_CAP)
    template_cdf, template_q, warps, inverse_warps = estimate_warps_discrete(
        cdfs, warp_grid
    )
    if options.smooth_warps:
        warps = [
            WarpMap(*monotone_smooth_warp(w.sample_t, w.sample_v, options.n_knots))
            for w in warps
        ]
    output_grid = _default_output_grid(curves, options.output_grid)
    bandwidths = [bandwidth_rule(c) for c in curves]
    registered = []
    for curve, warp, h in zip(curves, warps, bandwidths):
        cfg = SmootherConfig(bandwidth=h, degree=0, deriv_order=0)
        registered.append(
            DiscreteCurve(output_grid, nadaraya_watson(curve, cfg, warp(output_grid)))
        )
    mean = cross_sectional_mean(registered)
    meta = {
        "bandwidths": [float(h) for h in bandwidths],
        "smooth_warps": bool(options.smooth_warps),
        "n_knots": int(options.n_knots),
        "boundary_knots_appended": any(
            float(c.cdf.jump_locations[-1]) < 1.0 for c in summaries
        ),
        "output_grid_size": int(output_grid.size),
    }
    return RegistrationResult(
        warps=warps,
        inverse_warps=inverse_warps,
        template_cdf=template_cdf,
        template_quantile=template_q,
        registered=registered,
        mean=mean,
        regime=regime,
        metadata=meta,
    )


def register_discrete(sample, options: RegisterOptions = None) -> RegistrationResult:
    """Register noiseless, discretely observed curves (per-curve grids allowed)."""
    options = options or RegisterOptions()
    if options.bandwidth is not None:
        rule = lambda c: float(options.bandwidth)
    else:
        rule = lambda c: min(1.1 * c.max_gap, 1.0)
    return _register_noiseless(sample, options, rule, "discrete")


def register_complete(sample, output_grid=None, threads: int = 1) -> RegistrationResult:
    """Register densely observed curves.

    Realized as the fine-grid limit of the discrete pipeline: the smoothing
    bandwidth is forced into the single-nearest-point regime and warps stay
    raw.  Intended for dense grids (r >= 500 recommended).  ``threads`` is
    accepted and has no effect.
    """
    options = RegisterOptions(
        smooth_warps=False, output_grid=output_grid, threads=threads
    )
    rule = lambda c: min(0.505 * c.max_gap, 1.0)
    return _register_noiseless(sample, options, rule, "complete")


def register_noisy(sample, opts: NoisyOptions = None) -> RegistrationResult:
    """Register discretely observed curves contaminated by measurement error.

    Per curve: a local quadratic fit estimates the derivative on a uniform
    grid; the normalized cumulative absolute derivative (trapezoid rule)
    replaces the raw increment CDF; warps follow as in the discrete
    pipeline; a local linear fit evaluates the registered curve.
    """
    opts = opts or NoisyOptions()
    curves = list(sample)
    if not curves:
        raise EmptySample("no curves to register")
    for c in curves:
        if c.grid.size < 10:
            raise ValueError("noisy pipeline needs at least 10 points per curve")
    deriv_grid = np.linspace(0.0, 1.0, opts.deriv_grid_size)

    def _prepare(i, curve):
        if opts.auto:
            # both degrees from one pass over the leave-one-out windows
            h1, h2 = loocv_bandwidths(curve, (2, 1), default_loocv_candidates(curve))
        else:
            h1, h2 = float(opts.h1), float(opts.h2)
        cfg1 = SmootherConfig(bandwidth=h1, degree=2, deriv_order=1)
        deriv = np.abs(local_poly(curve, cfg1, deriv_grid))
        cell = (deriv[:-1] + deriv[1:]) / 2.0 * np.diff(deriv_grid)
        summary = _deriv_cdf(cell, deriv_grid, curve, i)
        return h1, h2, summary

    prepared = [_prepare(i, c) for i, c in enumerate(curves)]
    cdfs = [p[2] for p in prepared]
    template_cdf, template_q, warps, inverse_warps = estimate_warps_discrete(
        cdfs, deriv_grid
    )
    output_grid = _default_output_grid(curves, opts.output_grid)
    registered = []
    for curve, warp, (_, h2, _) in zip(curves, warps, prepared):
        cfg2 = SmootherConfig(bandwidth=h2, degree=1, deriv_order=0)
        registered.append(
            DiscreteCurve(output_grid, local_poly(curve, cfg2, warp(output_grid)))
        )
    mean = cross_sectional_mean(registered)
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
        mean=mean,
        regime="noisy",
        metadata=meta,
    )


def _deriv_cdf(cell_masses, deriv_grid, curve, curve_id) -> StepCdf:
    from .errors import ZeroVariation

    total = float(np.sum(cell_masses))
    scale = float(np.abs(curve.values).max())
    if total <= 1e-12 * max(scale, 1.0):
        raise ZeroVariation(
            "estimated derivative integrates to (numerically) zero", curve_id=curve_id
        )
    return StepCdf.from_jumps(deriv_grid[1:], cell_masses)
