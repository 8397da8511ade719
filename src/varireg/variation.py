"""Step-function algebra for local-variation distributions.

A curve observed on a grid induces a distribution on [0,1]: the normalized
cumulative sum of its absolute increments.  This module provides the exact
piecewise machinery around such distributions: cadlag step CDFs, their
generalized inverses (quantile functions), pointwise quantile means,
compositions, and the 2-Wasserstein distance.  Every quantile function is a
left-continuous step function: a step CDF's generalized inverse is one, and
so is a pointwise mean of them.  All integration is exact per segment, never
by quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptySample, ZeroVariation

# Bits per integer digit in mean_quantile's exact sums.
_DIGIT_BITS = 31

# Relative threshold below which a curve's total variation counts as zero.
ZERO_VARIATION_RTOL = 1e-12


def _as_float_array(x) -> np.ndarray:
    a = np.asarray(x, dtype=float)
    if a.ndim != 1:
        raise ValueError("expected a 1-d array")
    return a


def thin_index(size: int, cap: int) -> np.ndarray:
    """Indices of at most ``cap`` of ``size`` points, spread uniformly, ends kept."""
    return np.unique(np.round(np.linspace(0, size - 1, cap)).astype(int))


def closed_grid(points, cap=None) -> np.ndarray:
    """Sorted unique ``points``, thinned to ``cap`` by thin_index, plus 0 and 1."""
    points = np.unique(np.asarray(points, dtype=float))
    if cap is not None and points.size > cap:
        points = points[thin_index(points.size, cap)]
    if points[0] != 0.0:
        points = np.concatenate(([0.0], points))
    if points[-1] != 1.0:
        points = np.concatenate((points, [1.0]))
    return points


@dataclass(frozen=True)
class DiscreteCurve:
    """One functional observation: values on a sorted grid in [0,1]."""

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        grid = _as_float_array(self.grid)
        values = _as_float_array(self.values)
        if grid.size < 3:
            raise ValueError("grid must have at least 3 points")
        if grid.size != values.size:
            raise ValueError("grid and values must have equal length")
        if not (np.diff(grid) > 0).all():
            raise ValueError("grid must be strictly increasing")
        if grid[0] < 0.0 or grid[-1] > 1.0:
            raise ValueError("grid must lie in [0,1]")
        if not np.isfinite(values).all():
            raise ValueError("values must be finite")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    @property
    def max_gap(self) -> float:
        return float(np.diff(self.grid).max())


@dataclass(frozen=True)
class StepCdf:
    """Cadlag nondecreasing step function from [0,1] onto [0,1].

    ``jump_locations`` are strictly increasing abscissae in (0,1];
    ``cum_values`` are the post-jump levels, strictly increasing and ending
    at 1.  Evaluation is cadlag: F(t) = cum_values[k] on
    [jump_locations[k], jump_locations[k+1]) and F(t) = 0 before the first
    jump.
    """

    jump_locations: np.ndarray
    cum_values: np.ndarray

    def __post_init__(self):
        locs = _as_float_array(self.jump_locations)
        cums = _as_float_array(self.cum_values)
        if locs.size == 0 or locs.size != cums.size:
            raise ValueError("need equally many jump locations and levels")
        if not (np.diff(locs) > 0).all():
            raise ValueError("jump locations must be strictly increasing")
        if locs[0] <= 0.0 or locs[-1] > 1.0:
            raise ValueError("jump locations must lie in (0,1]")
        if not (np.diff(cums) > 0).all() or cums[0] <= 0.0:
            raise ValueError("cumulative levels must be strictly increasing from > 0")
        if cums[-1] != 1.0:
            raise ValueError("last cumulative level must equal 1.0")
        object.__setattr__(self, "jump_locations", locs)
        object.__setattr__(self, "cum_values", cums)

    def __call__(self, t) -> np.ndarray | float:
        t_arr = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.jump_locations, t_arr, side="right") - 1
        out = np.where(idx < 0, 0.0, self.cum_values[np.maximum(idx, 0)])
        return out if t_arr.ndim else float(out)

    @classmethod
    def from_jumps(cls, locations, sizes) -> "StepCdf":
        """Build from jump locations and nonnegative sizes; normalizes to 1.

        Zero-size jumps are dropped so the level sequence is strictly
        increasing (first location of each level is kept, which is what the
        ">=" generalized inverse needs).
        """
        locations = _as_float_array(locations)
        sizes = _as_float_array(sizes)
        if (sizes < 0).any():
            raise ValueError("jump sizes must be nonnegative")
        cum = np.cumsum(sizes)
        total = cum[-1]
        if total <= 0:
            raise ZeroVariation("all jump sizes are zero")
        levels = cum / total
        keep = np.diff(levels, prepend=0.0) > 0
        return cls(locations[keep], levels[keep])


@dataclass(frozen=True)
class QuantileFn:
    """Left-continuous nondecreasing step function on [0,1] with values in [0,1].

    Step j covers (breakpoints[j-1], breakpoints[j]] and takes values[j]
    there; ``breakpoints`` start at 0 and end at 1, and ``values[0]`` is the
    value at 0, which must be 0.
    """

    breakpoints: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        bp = _as_float_array(self.breakpoints)
        vals = _as_float_array(self.values)
        if bp.size < 2 or bp.size != vals.size:
            raise ValueError("need matching breakpoints and values, at least 2")
        if not (np.diff(bp) > 0).all():
            raise ValueError("breakpoints must be strictly increasing")
        if bp[0] != 0.0 or bp[-1] != 1.0:
            raise ValueError("breakpoints must start at 0 and end at 1")
        if (np.diff(vals) < 0).any():
            raise ValueError("values must be nondecreasing")
        if vals[0] != 0.0:
            raise ValueError("value at 0 must be 0")
        if vals[-1] > 1.0:
            raise ValueError("values must lie in [0,1]")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)

    def __call__(self, t) -> np.ndarray | float:
        t_arr = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.breakpoints, np.clip(t_arr, 0.0, 1.0), side="left")
        out = self.values[np.minimum(idx, self.values.size - 1)]
        return out if t_arr.ndim else float(out)


@dataclass(frozen=True)
class VariationSummary:
    """Total variation of a curve together with its normalized local CDF."""

    total_variation: float
    cdf: StepCdf

    def __post_init__(self):
        if not (self.total_variation > 0):
            raise ValueError("total variation must be positive")


def discrete_variation_cdf(curve: DiscreteCurve, curve_id=None) -> VariationSummary:
    """Normalized cumulative absolute-increment distribution of a curve.

    The CDF jumps at each grid point t_{j+1} by |v_{j+1} - v_j| divided by
    the total absolute increment; it is 0 before the second grid point and
    1 from the last one on.

    Raises ZeroVariation for (numerically) constant curves.
    """
    diffs = np.abs(np.diff(curve.values))
    cum = np.cumsum(diffs)
    total = float(cum[-1])
    scale = float(np.abs(curve.values).max())
    if total <= ZERO_VARIATION_RTOL * scale or total <= 0.0:
        raise ZeroVariation(curve_id=curve_id)
    levels = cum / total
    keep = np.diff(levels, prepend=0.0) > 0
    cdf = StepCdf(curve.grid[1:][keep], levels[keep])
    return VariationSummary(total_variation=total, cdf=cdf)


def generalized_inverse(cdf: StepCdf) -> QuantileFn:
    """Pointwise generalized inverse G^-(t) = inf{u : G(u) >= t}.

    The result is a left-continuous step quantile: on each level interval
    (c_{j-1}, c_j] it equals the first location where G reaches c_j, and
    G^-(0) = 0.
    """
    bp = np.concatenate(([0.0], cdf.cum_values))
    vals = np.concatenate(([0.0], cdf.jump_locations))
    return QuantileFn(bp, vals)


def mean_quantile(qs) -> QuantileFn:
    """Pointwise arithmetic mean of quantile functions, exact per step.

    The result steps on the union of every input's breakpoints.  The sum over
    inputs is exact: a sweep adds each input's changes, in base-2**31 integer
    digits, at the points where they happen.  The mean is a fixed function of
    that sum, so it is bit-identical under permutation of ``qs`` and within
    one ulp of the exact mean.  Time is O(N log N) and memory O(N) in the
    number N of breakpoints of all inputs together.
    """
    qs = list(qs)
    if not qs:
        raise EmptySample("mean_quantile needs at least one quantile function")
    points = np.unique(np.concatenate([q.breakpoints for q in qs]))

    # On `points`, an input takes level j + 1 from index
    # searchsorted(points, b[j], "right") on.  Level 0 is 0 for every input, so
    # the change into it (a reset from the previous input's last level) goes
    # to a spare slot at the end.
    levels = np.concatenate([q.values for q in qs])
    starts = np.concatenate(
        [np.r_[points.size, np.searchsorted(points, q.breakpoints[:-1], side="right")] for q in qs]
    )
    # every level is a multiple of 2**(e - 53), e the exponent of the smallest
    # positive one, so this many base-2**31 digits hold each level exactly
    exponent = np.frexp(np.min(levels, initial=1.0, where=levels > 0.0))[1]
    digits = np.empty((-(-(53 - exponent) // _DIGIT_BITS), levels.size), dtype=np.int64)
    rest = levels * 2.0**_DIGIT_BITS
    for row in digits:
        row[:] = np.floor(rest)
        rest = (rest - row) * 2.0**_DIGIT_BITS
    sums = np.zeros((digits.shape[0], points.size + 1), dtype=np.int64)
    for total, row in zip(sums, digits):
        np.add.at(total, starts, np.diff(row, prepend=0))
    vals = _digit_mean(np.cumsum(sums[:, :-1], axis=1), len(qs))
    vals = np.maximum.accumulate(vals)  # guard float wiggles
    return QuantileFn(points, np.clip(vals, 0.0, 1.0))


def _digit_mean(sums: np.ndarray, n: int) -> np.ndarray:
    """Exact base-2**31 digit sums (one row per digit) over n, as floats.

    After the carries, long division by n runs two digits past the sums';
    adding the quotient's digits in float from the least significant up is
    faithful (within one ulp).
    """
    for k in range(sums.shape[0] - 1, 0, -1):
        sums[k - 1] += sums[k] >> _DIGIT_BITS
        sums[k] &= 2**_DIGIT_BITS - 1
    quotient, rem, out = [], 0, 0.0
    for row in [*sums, 0, 0]:
        digit, rem = np.divmod(rem * 2**_DIGIT_BITS + row, n)
        quotient.append(digit)
    for k, digit in reversed(list(enumerate(quotient, 1))):
        out = np.ldexp(digit.astype(float), -_DIGIT_BITS * k) + out
    return out


def quantile_to_cdf(q: QuantileFn) -> StepCdf:
    """Generalized inverse of a quantile function, as a cadlag StepCdf.

    Exact: each step contributes a jump of its probability mass at its
    value.
    """
    levels, locs = q.breakpoints[1:], q.values[1:]
    # merge duplicate locations (flat quantile stretches): the level after all
    # mass at a location has landed is the last one recorded there
    keep = np.concatenate((locs[1:] != locs[:-1], [True]))
    locs, levels = locs[keep], levels[keep]
    if locs[0] <= 0.0:
        raise ValueError("quantile maps positive mass to location 0; not a CDF on (0,1]")
    return StepCdf(locs, levels)


def compose_quantile_cdf(q: QuantileFn, cdf: StepCdf, eval_points) -> np.ndarray:
    """Samples of t -> Q(F(t)) at ``eval_points``; nondecreasing in t."""
    eval_points = _as_float_array(eval_points)
    return np.asarray(q(cdf(eval_points)))


def as_quantile(obj) -> QuantileFn:
    if isinstance(obj, QuantileFn):
        return obj
    if isinstance(obj, StepCdf):
        return generalized_inverse(obj)
    raise TypeError(f"cannot interpret {type(obj).__name__} as a quantile function")


def wasserstein2(f, g) -> float:
    """2-Wasserstein distance between two distributions on [0,1].

    Arguments may be StepCdf or QuantileFn.  Computes
    sqrt(int_0^1 (F^-(u) - G^-(u))^2 du) exactly: the quantile difference is
    constant on each step of the merged breakpoint partition.
    """
    qf = as_quantile(f)
    qg = as_quantile(g)
    points = np.unique(np.concatenate((qf.breakpoints, qg.breakpoints)))
    d = qf(points[1:]) - qg(points[1:])
    return float(np.sqrt(np.sum(np.diff(points) * (d * d))))
