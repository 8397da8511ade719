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

Every stage of every regime works on the whole sample at once, one row
per curve: the leave-one-out bandwidths and derivative fits of the noisy
regime, the variation levels, the template, the warps and their boundary
extension, and the kernel evaluation of the registered curves.  A row's
arithmetic depends on that row alone, so each curve gets the bits it
would get alone, under any order of the sample.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AllCandidatesSingular, EmptySample, NonMonotoneInput, SingularFit, ZeroVariation
from .fpca import sorted_row_mean
from .smoothing import (
    _loocv_ladders,
    _loocv_rows,
    _reach,
    _row_fits,
    monotone_through_knots,
    nadaraya_watson_rows,
    suggested_min_bandwidths,
)
from .variation import (
    DiscreteCurve,
    QuantileFn,
    StepCdf,
    closed_grid,
    cumulative_variation,
    mean_quantile_flat,
    quantile_to_cdf,
    searchsorted_rows,
    unchecked,
)

WARP_GRID_CAP = 4096
OUTPUT_GRID_CAP = 1024
_MONOTONE_SLACK = 1e-9


def _check_warp_samples(t, v):
    """WarpMap's checks on rows of samples ``v``, all taken at ``t``."""
    if not (np.diff(t) > 0).all():
        raise ValueError("sample_t must be strictly increasing")
    if t[0] != 0.0 or t[-1] != 1.0:
        raise ValueError("sample_t must start at 0 and end at 1")
    if not (np.diff(v, axis=1) >= 0).all():
        raise NonMonotoneInput("sample_v must be nondecreasing")
    if not ((v[:, 0] == 0.0) & (v[:, -1] == 1.0)).all():
        raise ValueError("sample_v must run from 0 to 1")


@dataclass(frozen=True)
class WarpMap:
    """Monotone map of [0,1] with fixed endpoints, stored as samples.

    Evaluation interpolates linearly between samples; a point past either
    end of [0,1] takes that end's value.
    """

    sample_t: np.ndarray
    sample_v: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.sample_t, dtype=float)
        v = np.asarray(self.sample_v, dtype=float)
        if t.ndim != 1 or t.shape != v.shape or t.size < 2:
            raise ValueError("need matching 1-d sample arrays of length >= 2")
        _check_warp_samples(t, v[None])
        object.__setattr__(self, "sample_t", t)
        object.__setattr__(self, "sample_v", v)

    def __call__(self, t):
        t_arr = np.asarray(t, dtype=float)
        out = np.interp(t_arr, self.sample_t, self.sample_v)
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

    bandwidth: float = None       # None: 1.1 x per-curve max grid gap, widened if short
    smooth_warps: bool = False
    n_knots: int = 11
    output_grid: np.ndarray = None
    threads: int = 1              # accepted; no effect (runs serially)


@dataclass(frozen=True)
class NoisyOptions:
    """Options for the measurement-error pipeline."""

    h1: float = None              # derivative step (local quadratic); None with h2: leave-one-out
    h2: float = None              # curve step (local linear); None with h1: leave-one-out
    deriv_grid_size: int = 512
    output_grid: np.ndarray = None
    threads: int = 1              # accepted; no effect (runs serially)

    def __post_init__(self):
        if (self.h1 is None) != (self.h2 is None):
            raise ValueError("give both h1 and h2, or neither to choose them by leave-one-out")
        if self.h1 is not None and not self.h1 > 0:
            raise ValueError("h1 must be positive")
        if self.h2 is not None and not self.h2 > 0:
            raise ValueError("h2 must be positive")
        if self.deriv_grid_size < 16:
            raise ValueError("deriv_grid_size too small")


def _extend_rows(t, v, t_r) -> list:
    """Raw warp samples, one row of ``v`` per warp, all taken at ``t``, as
    WarpMaps on all of [0,1].

    t_r[i] is row i's last grid point (+inf for none).  Where the observed
    grid stops short of 1 the estimated warp is only defined up to that
    point; the map is pinned there and continued linearly to (1,1).  (0,0)
    is always enforced, float overshoots are clamped, and sub-tolerance
    monotonicity wiggles are flattened, in ``v`` itself; decreasing (or nan)
    samples raise NonMonotoneInput.  The rows whose grid does not stop
    short of 1 share one sample_t and are checked together.
    """
    if not (np.diff(v, axis=1) >= -_MONOTONE_SLACK).all():
        raise NonMonotoneInput("warp samples decrease by more than tolerance")
    np.clip(np.maximum.accumulate(v, axis=1, out=v), 0.0, 1.0, out=v)
    cut = t_r < 1.0
    maps = [None] * v.shape[0]
    for i in np.flatnonzero(cut):
        maps[i] = _cut_warp(t, v[i], t_r[i])
    if t[-1] < 1.0:
        t = np.append(t, 1.0)
        v = np.column_stack((v, np.ones(v.shape[0])))
    else:
        v[:, -1] = 1.0
    if t[0] > 0.0:
        t = np.insert(t, 0, 0.0)
        v = np.column_stack((np.zeros(v.shape[0]), v))
    else:
        v[:, 0] = 0.0
    if not cut.all():
        _check_warp_samples(t, v)
    for i in np.flatnonzero(~cut):
        maps[i] = unchecked(WarpMap, sample_t=t, sample_v=v[i])
    return maps


def _cut_warp(t, v, t_r) -> WarpMap:
    """One row's warp pinned at its last grid point t_r < 1, then linear to (1,1)."""
    keep = t <= t_r
    t, v = t[keep], np.minimum(v[keep], t_r)
    if t.size and t[-1] == t_r:
        v[-1] = t_r
    else:
        t, v = np.append(t, t_r), np.append(v, t_r)
    t, v = np.append(t, 1.0), np.append(v, 1.0)
    if t[0] > 0.0:
        t, v = np.insert(t, 0, 0.0), np.insert(v, 0, 0.0)
    else:
        v[0] = 0.0
    return WarpMap(t, v)


def _template(cum, locs):
    """The mean-quantile template of curves with cumulative jumps ``cum``.

    Row i of ``cum`` holds curve i's cumulative jump sizes at its jump
    locations, row i of ``locs`` (or its one row, shared by all); a jump of
    size 0 repeats the level before it.  ``cum`` is normalized in place into
    the curves' variation CDF levels.  Returns (template_quantile, where
    each level is first reached, the index of each such level in the
    template's breakpoints).
    """
    cum /= cum[:, -1:].copy()
    keep = np.diff(cum, axis=1, prepend=0.0) > 0
    per_curve = np.count_nonzero(keep, axis=1)
    points, index = np.unique(np.concatenate(([0.0], cum[keep])), return_inverse=True)
    index = index[1:]
    template_q = mean_quantile_flat(
        points, index, np.broadcast_to(locs, cum.shape)[keep], np.cumsum(per_curve) - per_curve
    )
    return template_q, keep, index


def _warp_maps(cum, locs, grid):
    """The template, warps and inverse warps of curves with cumulative jumps ``cum``.

    ``cum`` and ``locs`` are as for _template, which normalizes ``cum`` in
    place.  Every warp and inverse warp is sampled at ``grid``, then
    extended to all of [0,1] (_extend_rows).  Returns (template_cdf,
    template_quantile, warps, inverse_warps, each curve's last jump location).
    """
    template_q, keep, index = _template(cum, locs)
    template_cdf = quantile_to_cdf(template_q)
    n, m = cum.shape
    rows = np.arange(n)[:, None]
    all_locs = np.broadcast_to(locs, cum.shape)
    last = all_locs[rows[:, 0], m - 1 - np.argmax(keep[:, ::-1], axis=1)]
    # inverse warp i is Q(F_i(t)): F_i(t) is a level of the template's
    # breakpoints, and its value there is at the level's index, carried over
    # repeated levels
    at = np.zeros((n, m + 1), dtype=index.dtype)
    at[:, 1:][keep] = index
    del keep, index
    np.maximum.accumulate(at, axis=1, out=at)
    inverse = template_q.values[at[rows, searchsorted_rows(locs, grid, "right")]]
    del at
    # warp i is Q_i(F(t)): where curve i first reaches the template level F(t)
    level = template_cdf(grid)
    warp = np.where(level > 0.0, all_locs[rows, searchsorted_rows(cum, level)], 0.0)
    return template_cdf, template_q, _extend_rows(grid, warp, last), _extend_rows(grid, inverse, last), last


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
    # padding repeats a CDF's last level, 1: jumps of size 0 at +inf
    locs, levels = _stack([c.jump_locations for c in cdfs], [c.cum_values for c in cdfs])
    grid = closed_grid(locs[locs < np.inf], WARP_GRID_CAP) if grid is None else closed_grid(grid)
    return _warp_maps(levels, locs, grid)[:4]


def _stack(grids, values):
    """Rows of samples, ``values[i]`` taken at ``grids[i]``, as (rows, L) arrays.

    A grid shared by every row is one row; otherwise each row has its own,
    padded past its last point with +inf (grid) and its last value (values).
    """
    grid = grids[0]
    if all(g is grid or np.array_equal(g, grid) for g in grids):
        return grid[None], np.stack(values)
    sizes = np.array([v.size for v in values])
    valid = np.arange(sizes.max()) < sizes[:, None]
    padded_grids = np.full(valid.shape, np.inf)
    padded_grids[valid] = np.concatenate(grids)
    padded = np.empty(valid.shape)
    padded[valid] = np.concatenate(values)
    padded[~valid] = np.repeat([v[-1] for v in values], sizes.max() - sizes)
    return padded_grids, padded


def _max_gaps(grids, n):
    """The largest grid gap of each of n curves, their grids laid out as by _stack."""
    with np.errstate(invalid="ignore"):  # inf - inf in the padding
        gaps = np.where(grids[:, 1:] < np.inf, np.diff(grids, axis=1), 0.0)
    return np.broadcast_to(gaps.max(axis=1), n)


def _evaluate(warps, x) -> np.ndarray:
    """Every warp at points ``x``: one row per warp, a point past either end
    of [0,1] taken at that end."""
    return np.stack([np.interp(x, w.sample_t, w.sample_v) for w in warps])


def _smooth(warps, n_knots) -> list:
    """Every warp smoothed through ``n_knots`` equispaced knots
    (monotone_through_knots), as WarpMaps on one shared grid.

    Knot values come from linear interpolation of each warp's samples.
    """
    if n_knots < 2:
        raise ValueError("need at least 2 knots")
    knot_values = _evaluate(warps, np.linspace(0.0, 1.0, n_knots))
    # every WarpMap runs from exactly 0 to exactly 1
    knot_values[:, 0], knot_values[:, -1] = 0.0, 1.0
    t, v = monotone_through_knots(knot_values)
    _check_warp_samples(t, v)
    return [unchecked(WarpMap, sample_t=t, sample_v=row) for row in v]


def _register_noiseless(curves, options, gap_factor, regime):
    curves = list(curves)
    if not curves:
        raise EmptySample("no curves to register")
    grids, values = _stack([c.grid for c in curves], [c.values for c in curves])
    points = grids[grids < np.inf]
    warp_grid = closed_grid(points, WARP_GRID_CAP)
    template_cdf, template_q, warps, inverse_warps, last = _warp_maps(
        cumulative_variation(values), grids[:, 1:], warp_grid
    )
    if options.smooth_warps:
        warps = _smooth(warps, options.n_knots)
    output_grid = _default_output_grid(points, options.output_grid)
    eval_points = _evaluate(warps, output_grid)
    if options.bandwidth is not None:
        bandwidths = np.full(len(curves), float(options.bandwidth))
    else:
        # gap_factor x each curve's largest grid gap, widened where that leaves a
        # window empty.  Between a curve's first and last grid points its windows
        # always hold a point: at 1.1 gaps (discrete) its neighbours, at 0.505
        # (complete) its single nearest point.
        h = np.minimum(gap_factor * _max_gaps(grids, len(curves)), 1.0)
        bandwidths = _widen_short(h, grids, eval_points)
    fits = nadaraya_watson_rows(grids, values, bandwidths, eval_points)
    meta = {
        "bandwidths": [float(h) for h in bandwidths],
        "smooth_warps": bool(options.smooth_warps),
        "n_knots": int(options.n_knots),
        "boundary_knots_appended": bool((last < 1.0).any()),
    }
    return _result(template_cdf, template_q, warps, inverse_warps, output_grid, fits, regime, meta)


def _result(template_cdf, template_q, warps, inverse_warps, output_grid, fits, regime, meta):
    """A pipeline's RegistrationResult from its template, warps and fits.

    Row i of ``fits`` holds curve i registered on ``output_grid``.
    """
    meta["output_grid_size"] = int(output_grid.size)
    return RegistrationResult(
        warps, inverse_warps, template_cdf, template_q,
        DiscreteCurve.batch(output_grid, fits), sorted_row_mean(output_grid, fits), regime, meta,
    )


def _default_output_grid(points, override):
    if override is not None:
        return closed_grid(override)
    return closed_grid(points, OUTPUT_GRID_CAP)


def register_discrete(sample, options: RegisterOptions = None) -> RegistrationResult:
    """Register noiseless, discretely observed curves (per-curve grids allowed)."""
    return _register_noiseless(sample, options or RegisterOptions(), 1.1, "discrete")


def _widen_short(h, grids, eval_points, degree=0):
    """Bandwidths ``h`` with each curve evaluated past either end of its own
    grid (a grid that stops short of the others') widened to at least
    suggested_min_bandwidths of ``degree``, at most 1.  For degree 1 or 2
    only a curve with a window of fewer than degree + 1 grid points is
    widened, so every fit that its h determines keeps it.  Every other curve
    keeps its ``h``.
    """
    last = np.where(grids < np.inf, grids, -np.inf).max(axis=1)
    out = (eval_points.min(axis=1) < grids[:, 0]) | (eval_points.max(axis=1) > last)
    if out.any():
        own, e = grids[out] if grids.shape[0] > 1 else grids, eval_points[out]
        need = np.minimum(np.maximum(h[out], suggested_min_bandwidths(own, e, degree)), 1.0)
        h[out] = np.where(_reach(own, e, degree + 1) >= h[out], need, h[out]) if degree else need
    return h


def register_complete(sample, output_grid=None, threads: int = 1) -> RegistrationResult:
    """Register densely observed curves.

    Realized as the fine-grid limit of the discrete pipeline: the smoothing
    bandwidth is forced into the single-nearest-point regime and warps stay
    raw; a curve whose grid stops short of the others' is widened as in
    register_discrete.  Intended for dense grids (r >= 500 recommended).
    ``threads`` is accepted and has no effect.
    """
    options = RegisterOptions(output_grid=output_grid, threads=threads)
    return _register_noiseless(sample, options, 0.505, "complete")


def register_noisy(sample, opts: NoisyOptions = None) -> RegistrationResult:
    """Register discretely observed curves contaminated by measurement error.

    Over the rows of the sample at once, one per curve: leave-one-out picks
    each curve's h1 and h2 from its default ladder where ``opts`` gives
    neither; a local quadratic fit estimates the derivative on a uniform
    grid; the normalized cumulative absolute derivative (trapezoid rule)
    replaces the raw increment CDF; warps follow as in the discrete
    pipeline; a local linear fit evaluates the registered curve.  The lowest-index failing curve
    raises what it raises alone: AllCandidatesSingular, SingularFit or
    ZeroVariation, in that order.
    """
    opts = opts or NoisyOptions()
    curves = list(sample)
    if not curves:
        raise EmptySample("no curves to register")
    grids, values = _stack([c.grid for c in curves], [c.values for c in curves])
    if (np.count_nonzero(grids < np.inf, axis=1) < 10).any():
        raise ValueError("noisy pipeline needs at least 10 points per curve")
    n = len(curves)
    deriv_grid = np.linspace(0.0, 1.0, opts.deriv_grid_size)
    if opts.h1 is None:
        # both degrees from one pass over the leave-one-out windows
        ladders = _loocv_ladders(_max_gaps(grids, n))
        (h1, h2), failed = _loocv_rows(grids, values, ladders, (2, 1))
        # a curve evaluated past its own grid may need wider fits than its ladder holds
        h1 = _widen_short(h1, grids, np.broadcast_to(deriv_grid, (n, deriv_grid.size)), 2)
    else:
        h1, h2 = np.full(n, float(opts.h1)), np.full(n, float(opts.h2))
        failed = np.zeros(n, dtype=bool)
    deriv = np.abs(_row_fits(grids, values, h1[:, None], deriv_grid[None], [2], 1)[0, :, 0])
    singular = np.isnan(deriv)
    cell = (deriv[:, :-1] + deriv[:, 1:]) / 2.0 * np.diff(deriv_grid)
    del deriv  # only the cells are alive while the template is built
    flat = cell.sum(axis=1) <= 1e-12 * np.maximum(np.abs(values).max(axis=1), 1.0)
    bad = failed | singular.any(axis=1) | flat
    if bad.any():
        i = int(np.argmax(bad))
        if failed[i]:
            raise AllCandidatesSingular("every candidate bandwidth left a singular window")
        if singular[i].any():
            raise SingularFit(float(deriv_grid[np.argmax(singular[i])]))
        raise ZeroVariation("estimated derivative integrates to (numerically) zero", curve_id=i)
    # every curve's variation CDF jumps on deriv_grid[1:]
    template_cdf, template_q, warps, inverse_warps, _ = _warp_maps(
        np.cumsum(cell, axis=1, out=cell), deriv_grid[None, 1:], deriv_grid
    )
    output_grid = _default_output_grid(grids[grids < np.inf], opts.output_grid)
    eval_points = _evaluate(warps, output_grid)
    h2 = _widen_short(h2, grids, eval_points, 1) if opts.h1 is None else h2
    fits = _row_fits(grids, values, h2[:, None], eval_points, [1])[0, :, 0]
    singular = np.isnan(fits)
    if singular.any():  # first curve, first window
        raise SingularFit(float(eval_points.flat[np.argmax(singular)]))
    meta = {
        "h1": h1.tolist(),
        "h2": h2.tolist(),
        "auto_bandwidth": opts.h1 is None,
        "deriv_grid_size": int(opts.deriv_grid_size),
        "boundary_knots_appended": False,
    }
    return _result(template_cdf, template_q, warps, inverse_warps, output_grid, fits, "noisy", meta)
