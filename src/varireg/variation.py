"""Step-function algebra for local-variation distributions.

A curve observed on a grid induces a distribution on [0,1]: the normalized
cumulative sum of its absolute increments.  This module provides the exact
piecewise machinery around such distributions: cadlag step CDFs, their
generalized inverses (quantile functions), pointwise quantile means, and
the 2-Wasserstein distance.  Every quantile function is a
left-continuous step function: a step CDF's generalized inverse is one, and
so is a pointwise mean of them.  All integration is exact per segment, never
by quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ZeroVariation

# Bits per integer digit in mean_quantile_flat's exact sums.
_DIGIT_BITS = 31
# Entries that wasserstein2 and _digit_mean take at a time.
_LOOKUP_BLOCK = 1 << 16

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


def searchsorted_rows(a, v, side="left") -> np.ndarray:
    """np.searchsorted(a[i], v[i], side) for every row i of the float arrays ``a`` and ``v``.

    ``a`` holds sorted rows: one row shared by every row of ``v``, or one row
    each, a short row padded with +inf.  ``v`` holds a row of queries per row
    of ``a``, or one sorted row of queries shared by all of them.
    """
    if a.shape[0] == 1:
        return np.searchsorted(a[0], v, side)
    if v.ndim == 1:
        # a[i, l] counts toward every query from the first one it does not
        # exceed (side "right") or precede (side "left") on: sum a histogram
        first = np.searchsorted(v, a, "left" if side == "right" else "right")
        first += np.arange(a.shape[0])[:, None] * (v.size + 1)
        hits = np.bincount(first.ravel(), minlength=a.shape[0] * (v.size + 1))
        return np.cumsum(hits.reshape(a.shape[0], -1)[:, :-1], axis=1)
    return np.stack([np.searchsorted(row, q, side) for row, q in zip(a, v)])


def unchecked(cls, **fields):
    """An instance of frozen dataclass ``cls`` built without ``__post_init__``.

    For fields the caller has already checked, for a whole batch at once.
    """
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


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
        if not (grid[1:] > grid[:-1]).all():  # np.diff may overflow
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

    @classmethod
    def batch(cls, grid, rows) -> list:
        """One curve per row of ``rows``, all on ``grid``, checked once for all."""
        first = cls(grid, rows[0])
        if not np.isfinite(rows).all():
            raise ValueError("values must be finite")
        return [first] + [unchecked(cls, grid=first.grid, values=r) for r in rows[1:]]


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
        if not (locs[1:] > locs[:-1]).all():  # np.diff may overflow
            raise ValueError("jump locations must be strictly increasing")
        if locs[0] <= 0.0 or locs[-1] > 1.0:
            raise ValueError("jump locations must lie in (0,1]")
        if not (cums[1:] > cums[:-1]).all() or cums[0] <= 0.0:
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
        if not (bp[1:] > bp[:-1]).all():  # np.diff may overflow
            raise ValueError("breakpoints must be strictly increasing")
        if bp[0] != 0.0 or bp[-1] != 1.0:
            raise ValueError("breakpoints must start at 0 and end at 1")
        if not (vals[1:] >= vals[:-1]).all():
            raise ValueError("values must be nondecreasing")
        if vals[0] != 0.0:
            raise ValueError("value at 0 must be 0")
        if not vals[-1] <= 1.0:
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


def cumulative_variation(values) -> np.ndarray:
    """Cumulative absolute increments of each row of ``values``.

    Raises ZeroVariation for the first (numerically) constant row, with its
    row index as curve_id.
    """
    cum = np.cumsum(np.abs(np.diff(values, axis=1)), axis=1)
    total = cum[:, -1]
    flat = (total <= ZERO_VARIATION_RTOL * np.abs(values).max(axis=1)) | (total <= 0.0)
    bad = flat | (total == np.inf)
    if bad.any():
        i = int(np.argmax(bad))
        if flat[i]:
            raise ZeroVariation(curve_id=i)
        raise ValueError(f"total variation of curve {i} overflows")
    return cum


def discrete_variation_cdf(curve: DiscreteCurve, curve_id=None) -> VariationSummary:
    """Normalized cumulative absolute-increment distribution of a curve.

    The CDF jumps at each grid point t_{j+1} by |v_{j+1} - v_j| divided by
    the total absolute increment; it is 0 before the second grid point and
    1 from the last one on.

    Raises ZeroVariation for (numerically) constant curves.
    """
    try:
        cum = cumulative_variation(curve.values[None])[0]
    except ZeroVariation:
        raise ZeroVariation(curve_id=curve_id) from None
    total = float(cum[-1])
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


def mean_quantile_flat(points, index, locations, firsts) -> QuantileFn:
    """Pointwise arithmetic mean of step quantile functions, exact per step,
    given as flat arrays.

    Input k owns entries firsts[k] up to firsts[k + 1].  Entry j has level
    points[index[j]] and location locations[j]: the input takes that
    location on the levels above the previous entry's, up to its own (above
    0 for the input's first entry).  ``points`` are sorted, unique, fewer
    than 2**31, and run from 0 to 1, which every input's last level must
    reach.

    The result steps on ``points``.  The sum over inputs is exact: a sweep
    adds each input's changes, in base-2**31 integer digits, at the points
    where they happen.  The mean is a fixed function of that sum, so it is
    bit-identical under permutation of the inputs and within one ulp of the
    exact mean.  Time is O(N log N) and memory O(N) in the number N of
    entries.  Besides its inputs the sweep holds the digit sums, one row of
    int64 per digit over ``points``, and three arrays over the entries: where
    each change starts (int32), each location's current digit (uint32) and
    its change (int64); the rest of every location is worked out in
    ``locations``, which this overwrites.  _digit_mean then holds two more
    rows over ``points``.
    """
    n = len(firsts)
    # an input takes entry j's location from the point after its previous
    # level on; the sums are integers, so the order of the additions is free
    starts = np.empty(index.shape, dtype=np.int32)
    np.add(index[:-1], 1, out=starts[1:])
    starts[firsts] = 1
    # every location is a multiple of 2**(e - 53), e the exponent of the
    # smallest positive one, so this many base-2**31 digits hold each exactly
    exponent = np.frexp(np.min(locations, initial=1.0, where=locations > 0.0))[1]
    sums = np.zeros((-(-(53 - exponent) // _DIGIT_BITS), points.size), dtype=np.int64)
    rest = np.multiply(locations, 2.0**_DIGIT_BITS, out=locations)
    # a digit lies in [0, 2**31], 2**31 itself at a location of 1.0
    digit, change = np.empty(rest.shape, dtype=np.uint32), np.empty(rest.shape, dtype=np.int64)
    for total in sums:  # one digit of every location at a time
        rest -= np.floor(rest, out=digit, casting="unsafe")
        rest *= 2.0**_DIGIT_BITS
        np.subtract(digit[1:], digit[:-1], out=change[1:], dtype=np.int64)
        change[firsts] = digit[firsts]
        np.add.at(total, starts, change)
    del starts, rest, digit, change
    vals = _digit_mean(np.cumsum(sums, axis=1, out=sums), n)
    np.maximum.accumulate(vals, out=vals)  # guard float wiggles
    return QuantileFn(points, np.clip(vals, 0.0, 1.0, out=vals))


def _digit_mean(sums: np.ndarray, n: int) -> np.ndarray:
    """Exact base-2**31 digit sums (one row per digit) over n, as floats.

    After the carries, long division by n runs two digits past the sums';
    adding the quotient's digits in float from the least significant up is
    faithful (within one ulp).  Each digit sum is overwritten by its
    quotient digit.  Besides ``sums`` this holds two rows of its size: the
    remainder and a shifted row, which hold the last two quotient digits
    and then, viewed as floats, the result and one term of it.
    """
    rem, shift = np.zeros_like(sums[0]), np.empty_like(sums[0])
    for k in range(sums.shape[0] - 1, 0, -1):
        sums[k - 1] += np.right_shift(sums[k], _DIGIT_BITS, out=shift)
        sums[k] &= 2**_DIGIT_BITS - 1
    for row in sums:
        np.divmod(np.add(np.multiply(rem, 2**_DIGIT_BITS, out=shift), row, out=shift), n, out=(row, rem))
    # the two digits past the sums': the first into shift, the second into rem
    np.divmod(np.multiply(rem, 2**_DIGIT_BITS, out=shift), n, out=(shift, rem))
    np.floor_divide(np.multiply(rem, 2**_DIGIT_BITS, out=rem), n, out=rem)
    # the result goes into rem's row and each term into shift's, as floats,
    # a block at a time: a ufunc that overwrites its operand with another
    # dtype copies it first, here one block's.  The last digit's term starts
    # the result (0 + x is x)
    out, term = rem.view(float), shift.view(float)
    for b in range(0, out.size, _LOOKUP_BLOCK):
        part = slice(b, b + _LOOKUP_BLOCK)
        np.ldexp(rem[part], -_DIGIT_BITS * (sums.shape[0] + 2), out=out[part])
        for k, digit in reversed(list(enumerate([*sums, shift], 1))):
            out[part] += np.ldexp(digit[part], -_DIGIT_BITS * k, out=term[part])
    return out


def quantile_to_cdf(q: QuantileFn) -> StepCdf:
    """Generalized inverse of a quantile function, as a cadlag StepCdf.

    Exact: each step contributes a jump of its probability mass at its
    value.  Where no two steps share a value, the result's arrays are views
    of the quantile's (its values and breakpoints past the first).
    """
    levels, locs = q.breakpoints[1:], q.values[1:]
    # merge duplicate locations (flat quantile stretches): the level after all
    # mass at a location has landed is the last one recorded there
    keep = np.append(locs[1:] != locs[:-1], True)
    if not keep.all():
        locs, levels = locs[keep], levels[keep]
    if locs[0] <= 0.0:
        raise ValueError("quantile maps positive mass to location 0; not a CDF on (0,1]")
    return StepCdf(locs, levels)


def _steps(obj):
    """(levels, values) of a distribution on [0,1]: its quantile takes
    values[j] on the levels above levels[j - 1] (above 0 for j = 0) up to
    levels[j].  Views of a StepCdf's or a QuantileFn's arrays."""
    if isinstance(obj, StepCdf):
        return obj.cum_values, obj.jump_locations
    if isinstance(obj, QuantileFn):
        return obj.breakpoints[1:], obj.values[1:]
    raise TypeError(f"cannot interpret {type(obj).__name__} as a quantile function")


def wasserstein2(f, g) -> float:
    """2-Wasserstein distance between two distributions on [0,1].

    Arguments may be StepCdf or QuantileFn.  Computes
    sqrt(int_0^1 (F^-(u) - G^-(u))^2 du) exactly: the quantile difference is
    constant on each step of the merged level partition.  Besides the
    arguments this holds three arrays over the merged levels: the levels,
    the squared difference and the step widths, and the steps of at most
    _LOOKUP_BLOCK levels at a time.
    """
    (lf, vf), (lg, vg) = _steps(f), _steps(g)
    # both level lists end at 1: merge the shorter into the longer
    longer, shorter = (lf, lg) if lf.size >= lg.size else (lg, lf)
    at = np.searchsorted(longer, shorter)
    new = longer[at] != shorter
    levels = np.insert(longer, at[new], shorter[new])
    # every level lies in (0, 1], on the step that ends at or above it; the
    # steps of a block of levels at a time keep the index arrays short
    d = np.empty_like(levels)
    for b in range(0, d.size, _LOOKUP_BLOCK):
        part = levels[b:b + _LOOKUP_BLOCK]
        np.subtract(vf[np.searchsorted(lf, part)], vg[np.searchsorted(lg, part)], out=d[b:b + _LOOKUP_BLOCK])
    d *= d
    width = np.empty_like(levels)
    width[0] = levels[0]
    np.subtract(levels[1:], levels[:-1], out=width[1:])
    d *= width
    return float(np.sqrt(np.sum(d)))
