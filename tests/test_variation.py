import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from varireg import variation
from varireg.errors import EmptySample, ZeroVariation
from varireg.variation import (
    DiscreteCurve,
    QuantileFn,
    StepCdf,
    _digit_mean,
    discrete_variation_cdf,
    generalized_inverse,
    mean_quantile_flat,
    quantile_to_cdf,
    searchsorted_rows,
    wasserstein2,
)

from conftest import random_step_cdf
from oracles import (
    digit_mean_divmod,
    flat_quantiles,
    mean_quantile,
    mean_quantile_float_digits,
    mean_quantile_oracle,
    quantile_to_cdf_oracle,
    wasserstein2_unique,
)


# --- independent oracles -------------------------------------------------

def oracle_variation(grid, values):
    """Enumerate the defining sum: jump at t_{j+1} of size |v_{j+1}-v_j|/TV."""
    diffs = [abs(values[j + 1] - values[j]) for j in range(len(values) - 1)]
    total = sum(diffs)
    jumps = [(grid[j + 1], d / total) for j, d in enumerate(diffs) if d > 0]
    return total, jumps


def oracle_inverse(cdf: StepCdf, t: float) -> float:
    """inf{u : G(u) >= t} by direct scan over the jump locations."""
    if t <= 0:
        return 0.0
    for loc, cum in zip(cdf.jump_locations, cdf.cum_values):
        if cum >= t:
            return float(loc)
    return 1.0


# --- discrete_variation_cdf ----------------------------------------------

def test_variation_cdf_vee_curve():
    curve = DiscreteCurve([0.0, 0.5, 1.0], [1.0, 0.0, 1.0])
    summary = discrete_variation_cdf(curve)
    total, jumps = oracle_variation(curve.grid, curve.values)
    assert summary.total_variation == total == 2.0
    assert np.allclose(summary.cdf.jump_locations, [loc for loc, _ in jumps])
    np.testing.assert_allclose(np.diff(summary.cdf.cum_values, prepend=0.0), [0.5, 0.5])
    assert summary.cdf(0.4) == 0.0
    assert summary.cdf(0.5) == 0.5
    assert summary.cdf(1.0) == 1.0


def test_variation_cdf_identity_line():
    r = 41
    grid = np.linspace(0.0, 1.0, r)
    summary = discrete_variation_cdf(DiscreteCurve(grid, grid))
    jumps = np.diff(summary.cdf.cum_values, prepend=0.0)
    np.testing.assert_allclose(jumps, np.full(r - 1, 1.0 / (r - 1)))
    t = np.linspace(0.0, 1.0, 200)
    assert np.abs(summary.cdf(t) - t).max() <= 1.0 / (r - 1) + 1e-12


def test_variation_cdf_constant_raises():
    with pytest.raises(ZeroVariation):
        discrete_variation_cdf(DiscreteCurve([0.0, 0.5, 1.0], [2.0, 2.0, 2.0]))


def test_variation_cdf_near_constant_raises():
    values = 5.0 + np.array([0.0, 1e-14, 0.0, 1e-14])
    with pytest.raises(ZeroVariation):
        discrete_variation_cdf(DiscreteCurve([0.0, 0.3, 0.6, 1.0], values))


def test_variation_cdf_matches_oracle_random(rng):
    for _ in range(50):
        r = int(rng.integers(4, 30))
        grid = np.unique(np.concatenate(([0.0, 1.0], rng.random(r))))
        values = rng.standard_normal(grid.size)
        total, jumps = oracle_variation(grid, values)
        if total == 0:
            continue
        summary = discrete_variation_cdf(DiscreteCurve(grid, values))
        assert summary.total_variation == pytest.approx(total, rel=1e-15)
        locs = np.array([loc for loc, _ in jumps])
        sizes = np.array([s for _, s in jumps])
        np.testing.assert_array_equal(summary.cdf.jump_locations, locs)
        np.testing.assert_allclose(
            np.diff(summary.cdf.cum_values, prepend=0.0), sizes, rtol=0, atol=1e-15
        )


def test_affine_invariance_bit_identical(rng):
    # exact float transforms: integer values, power-of-two scale, integer shift
    for _ in range(100):
        r = int(rng.integers(4, 25))
        grid = np.unique(np.concatenate(([0.0, 1.0], rng.random(r))))
        values = rng.integers(-500, 500, size=grid.size).astype(float)
        if np.abs(np.diff(values)).sum() == 0:
            values[0] += 1.0
        a = float(2.0 ** rng.integers(-3, 6)) * (-1.0 if rng.random() < 0.5 else 1.0)
        b = float(rng.integers(-1000, 1000))
        base = discrete_variation_cdf(DiscreteCurve(grid, values))
        scaled = discrete_variation_cdf(DiscreteCurve(grid, a * values + b))
        np.testing.assert_array_equal(base.cdf.jump_locations, scaled.cdf.jump_locations)
        np.testing.assert_array_equal(base.cdf.cum_values, scaled.cdf.cum_values)


# --- generalized_inverse ---------------------------------------------------

def test_inverse_single_jump():
    cdf = StepCdf([0.5], [1.0])
    q = generalized_inverse(cdf)
    assert q(0.0) == 0.0
    for t in (1e-9, 0.3, 0.999, 1.0):
        assert q(t) == 0.5


def test_inverse_two_jumps():
    cdf = StepCdf([0.25, 0.75], [0.5, 1.0])
    q = generalized_inverse(cdf)
    assert q(0.2) == 0.25
    assert q(0.5) == 0.25
    assert q(0.50000001) == 0.75
    assert q(1.0) == 0.75


def test_inverse_identity_like():
    r = 101
    grid = np.linspace(0.0, 1.0, r)
    cdf = discrete_variation_cdf(DiscreteCurve(grid, grid)).cdf
    q = generalized_inverse(cdf)
    t = np.linspace(0.0, 1.0, 333)
    assert np.abs(q(t) - t).max() <= 1.0 / (r - 1) + 1e-12


def test_inverse_matches_scan_oracle(rng):
    for _ in range(50):
        cdf = random_step_cdf(rng)
        q = generalized_inverse(cdf)
        for t in rng.random(20):
            assert q(t) == oracle_inverse(cdf, t)
        assert q(1.0) == oracle_inverse(cdf, 1.0)


@given(st.integers(0, 2**32 - 1))
def test_galois_laws(seed):
    rng = np.random.default_rng(seed)
    cdf = random_step_cdf(rng)
    q = generalized_inverse(cdf)
    t = np.linspace(0.0, 1.0, 37)
    u = np.linspace(0.0, 1.0, 41)
    assert (np.asarray(cdf(q(t))) >= t - 0.0).all()
    assert (np.asarray(q(cdf(u))) <= u + 0.0).all()


# --- searchsorted_rows ------------------------------------------------------

@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(["one_shared_row", "shared_sorted_queries", "per_row_queries"]),
    st.sampled_from(["left", "right"]),
)
def test_searchsorted_rows_is_np_searchsorted_row_by_row(seed, layout, side):
    rng = np.random.default_rng(seed)
    levels = np.linspace(0.0, 1.0, 9)  # few values, so queries tie with the rows' entries
    n = 1 if layout == "one_shared_row" else int(rng.integers(2, 7))
    sizes = rng.integers(1, 10, n)
    a = np.full((n, sizes.max() + rng.integers(0, 3)), np.inf)  # short rows padded with +inf
    for i, size in enumerate(sizes):
        a[i, :size] = np.sort(rng.choice(levels, size))
    queries = np.concatenate((levels, [-1.0, 2.0, np.inf]))
    m = int(rng.integers(1, 15))
    if layout == "one_shared_row":  # any number of query rows against the one row
        v = rng.choice(queries, (int(rng.integers(1, 4)), m))
        np.testing.assert_array_equal(searchsorted_rows(a, v, side), np.searchsorted(a[0], v, side))
        return
    v = np.sort(rng.choice(queries, m)) if layout == "shared_sorted_queries" else rng.choice(queries, (n, m))
    got = searchsorted_rows(a, v, side)
    assert got.shape == (n, m)
    for i in range(n):
        np.testing.assert_array_equal(got[i], np.searchsorted(a[i], v if v.ndim == 1 else v[i], side))


# --- mean_quantile ----------------------------------------------------------

def test_mean_single_and_idempotent(rng):
    cdf = random_step_cdf(rng)
    q = generalized_inverse(cdf)
    one = mean_quantile([q])
    two = mean_quantile([q, q])
    t = np.linspace(0.0, 1.0, 200)
    np.testing.assert_array_equal(one(t), q(t))
    np.testing.assert_array_equal(two(t), q(t))


def test_mean_empty_raises():
    with pytest.raises(EmptySample):
        mean_quantile([])


def test_mean_sandwich_step_inputs(rng):
    for _ in range(30):
        qs = [generalized_inverse(random_step_cdf(rng)) for _ in range(4)]
        mean = mean_quantile(qs)
        t = np.linspace(0.0, 1.0, 101)
        vals = np.stack([q(t) for q in qs])
        m = mean(t)
        assert (m >= vals.min(axis=0) - 1e-12).all()
        assert (m <= vals.max(axis=0) + 1e-12).all()


def test_mean_permutation_invariant_bits(rng):
    qs = [generalized_inverse(random_step_cdf(rng)) for _ in range(5)]
    a = mean_quantile(qs)
    b = mean_quantile(qs[::-1])
    np.testing.assert_array_equal(a.breakpoints, b.breakpoints)
    np.testing.assert_array_equal(a.values, b.values)


# Breakpoints and levels drawn partly from small shared pools, so that inputs
# share breakpoints, repeat levels (flat stretches) and reach tiny values.
_breaks = st.one_of(
    st.sampled_from([0.125, 0.25, 0.5, 0.75, 1.0 / 3.0]),
    st.floats(1e-9, 1.0 - 1e-9),
)
_levels = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-300, 1e-12, 0.1, 0.25, 0.5, 1.0]),
    st.floats(0.0, 1.0),
)


@st.composite
def quantile_fns(draw):
    bp = np.unique([0.0, 1.0, *draw(st.lists(_breaks, max_size=8))])
    vals = np.sort(draw(st.lists(_levels, min_size=bp.size, max_size=bp.size)))
    vals[0] = 0.0
    return QuantileFn(bp, vals)


@st.composite
def quantile_samples(draw):
    qs = draw(st.lists(quantile_fns(), min_size=1, max_size=6))
    repeats = draw(st.lists(st.integers(0, len(qs) - 1), max_size=3))
    return qs + [qs[i] for i in repeats]


@given(quantile_samples())
def test_mean_matches_dense_oracle(qs):
    mean = mean_quantile(qs)
    ref = mean_quantile_oracle(qs)
    np.testing.assert_array_equal(mean.breakpoints, ref.breakpoints)
    # the oracle's own rounding bound for a float sum of n addends
    top = np.max([np.asarray(q(ref.breakpoints)) for q in qs], axis=0)
    bound = (len(qs) - 1) * np.finfo(float).eps * top
    assert (np.abs(mean.values - ref.values) <= bound).all()


@given(quantile_samples())
def test_mean_within_one_ulp_of_exact(qs):
    mean = mean_quantile(qs)
    table = [np.asarray(q(mean.breakpoints)) for q in qs]
    for k, v in enumerate(mean.values):
        exact = sum(Fraction(float(col[k])) for col in table) / len(qs)
        assert Fraction(float(np.nextafter(v, -1.0))) <= exact
        assert exact <= Fraction(float(np.nextafter(v, 2.0)))


@given(quantile_samples(), st.randoms(use_true_random=False))
def test_mean_permutation_bits_mixed(qs, random):
    shuffled = list(qs)
    random.shuffle(shuffled)
    a = mean_quantile(qs)
    b = mean_quantile(shuffled)
    np.testing.assert_array_equal(a.breakpoints, b.breakpoints)
    np.testing.assert_array_equal(a.values, b.values)


@given(quantile_fns())
@example(QuantileFn([0.0, 0.5, 1.0], [0.0, 1e-12, 1e-12]))
@example(QuantileFn([0.0, 0.25, 0.5, 1.0], [0.0, 5e-324, 1e-300, 1.0]))
def test_mean_of_power_of_two_copies_is_exact(q):
    for m in (1, 2, 4, 8):
        np.testing.assert_array_equal(mean_quantile([q] * m).values, q.values)


@st.composite
def flat_samples(draw):
    """n in {1, 2, 1000} quantile functions, each one of up to six drawn
    ones, laid out flat as mean_quantile_flat takes them."""
    qs = draw(st.lists(quantile_fns(), min_size=1, max_size=6))
    n = draw(st.sampled_from([1, 2, 1000]))
    pick = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(0, len(qs), n)
    return flat_quantiles([qs[i] for i in pick])


@given(flat_samples())
# a location of exactly 1.0 is a digit of exactly 2**31
@example(flat_quantiles([QuantileFn([0.0, 1.0], [0.0, 1.0])]))
@example(flat_quantiles([QuantileFn([0.0, 0.5, 1.0], [0.0, 5e-324, 1.0]), QuantileFn([0.0, 1.0], [0.0, 1.0])]))
@example(flat_quantiles([QuantileFn([0.0, 0.25, 1.0], [0.0, 1e-300, 1.0])] * 1000))
def test_mean_quantile_flat_matches_float_digit_sweep(flat):
    """The narrow sweep buffers have the bits of float digit rows and int64 starts."""
    points, index, locations, firsts = flat
    got = mean_quantile_flat(points, index, locations.copy(), firsts)
    want = mean_quantile_float_digits(points, index, locations, firsts)
    assert got.breakpoints.tobytes() == want.breakpoints.tobytes()
    assert got.values.tobytes() == want.values.tobytes()


# --- quantile_to_cdf --------------------------------------------------------

def _inversion(fn, q):
    try:
        cdf = fn(q)
    except ValueError as err:
        return str(err)
    return cdf.jump_locations, cdf.cum_values


@given(quantile_fns())
@example(QuantileFn([0.0, 0.25, 1.0], [0.0, 0.0, 1.0]))
@example(QuantileFn([0.0, 0.5, 0.75, 1.0], [0.0, 0.5, 0.5, 1.0]))
def test_quantile_to_cdf_matches_loop(q):
    got = _inversion(quantile_to_cdf, q)
    ref = _inversion(quantile_to_cdf_oracle, q)
    if isinstance(ref, str):
        assert got == ref
    else:
        np.testing.assert_array_equal(got[0], ref[0])
        np.testing.assert_array_equal(got[1], ref[1])


def test_quantile_to_cdf_views_the_quantile_unless_a_location_repeats():
    q = QuantileFn([0.0, 0.25, 0.5, 1.0], [0.0, 0.2, 0.6, 1.0])
    cdf = quantile_to_cdf(q)
    assert np.shares_memory(cdf.jump_locations, q.values) and np.shares_memory(cdf.cum_values, q.breakpoints)
    # a flat stretch: its levels merge into a copy
    q = QuantileFn([0.0, 0.25, 0.5, 1.0], [0.0, 0.6, 0.6, 1.0])
    cdf = quantile_to_cdf(q)
    assert not np.shares_memory(cdf.jump_locations, q.values)
    assert not np.shares_memory(cdf.cum_values, q.breakpoints)
    assert cdf.jump_locations.tolist() == [0.6, 1.0] and cdf.cum_values.tolist() == [0.5, 1.0]


@pytest.mark.parametrize(
    "values",
    [[0.0, math.nan, 0.5], [0.0, 0.5, math.nan], [0.0, math.nan, math.nan], [0.0, 0.5, math.inf]],
)
def test_quantile_rejects_nan_and_infinite_values(values):
    with pytest.raises(ValueError):
        QuantileFn([0.0, 0.5, 1.0], values)


def test_quantile_to_cdf_constant():
    q = QuantileFn([0.0, 1.0], [0.0, 0.5])
    cdf = quantile_to_cdf(q)
    np.testing.assert_array_equal(cdf.jump_locations, [0.5])
    np.testing.assert_array_equal(cdf.cum_values, [1.0])


def test_quantile_to_cdf_round_trip_single_jump():
    cdf = StepCdf([0.37], [1.0])
    back = quantile_to_cdf(generalized_inverse(cdf))
    np.testing.assert_array_equal(back.jump_locations, cdf.jump_locations)
    np.testing.assert_array_equal(back.cum_values, cdf.cum_values)


def test_quantile_to_cdf_round_trip_random(rng):
    for _ in range(50):
        cdf = random_step_cdf(rng)
        back = quantile_to_cdf(generalized_inverse(cdf))
        np.testing.assert_array_equal(back.jump_locations, cdf.jump_locations)
        np.testing.assert_array_equal(back.cum_values, cdf.cum_values)


# --- wasserstein2 -----------------------------------------------------------

def test_wasserstein_identical(rng):
    cdf = random_step_cdf(rng)
    assert wasserstein2(cdf, cdf) == 0.0


def test_wasserstein_point_masses():
    a, b = 0.2, 0.9
    fa = StepCdf([a], [1.0])
    fb = StepCdf([b], [1.0])
    assert wasserstein2(fa, fb) == pytest.approx(abs(a - b), abs=1e-15)


@given(quantile_fns(), quantile_fns())
def test_wasserstein_matches_exact_step_sum(qf, qg):
    # the squared distance summed in exact rationals over the merged steps
    points = sorted({Fraction(float(b)) for q in (qf, qg) for b in q.breakpoints})
    exact = sum(
        (b - a) * (Fraction(qf(float(b))) - Fraction(qg(float(b)))) ** 2
        for a, b in zip(points, points[1:])
    )
    assert wasserstein2(qf, qg) ** 2 == pytest.approx(float(exact), rel=1e-13, abs=1e-300)


def test_wasserstein_riemann_oracle(rng):
    # exact segment integration vs a dense Riemann sum
    for _ in range(10):
        f = random_step_cdf(rng)
        g = random_step_cdf(rng)
        u = (np.arange(200_000) + 0.5) / 200_000
        qf = generalized_inverse(f)
        qg = generalized_inverse(g)
        riemann = math.sqrt(np.mean((np.asarray(qf(u)) - np.asarray(qg(u))) ** 2))
        assert wasserstein2(f, g) == pytest.approx(riemann, abs=2e-3)


def test_wasserstein_pseudometric(rng):
    for _ in range(25):
        f, g, h = (random_step_cdf(rng) for _ in range(3))
        dfg = wasserstein2(f, g)
        dgf = wasserstein2(g, f)
        assert dfg == dgf  # bitwise symmetry
        assert dfg <= wasserstein2(f, h) + wasserstein2(h, g) + 1e-12
        assert wasserstein2(f, f) == 0.0


def test_wasserstein_zero_iff_equal_quantiles(rng):
    f = random_step_cdf(rng)
    g = StepCdf(f.jump_locations + 1e-4, f.cum_values)
    assert wasserstein2(f, g) > 0.0


@st.composite
def digit_sums(draw):
    """(sums, n): cumulative base-2**31 digit sums of n inputs, one row per
    digit, each entry 0, its largest value n * (2**31 - 1) or between: rows
    at their largest carry through every digit."""
    n = draw(st.sampled_from([1, 2, 3, 1000, 2**20 + 1]))
    top = n * (2**31 - 1)
    entry = st.one_of(st.sampled_from([0, top, 2**31, top - 1]), st.integers(0, top))
    digits, size = draw(st.integers(1, 3)), draw(st.integers(1, 12))
    rows = draw(st.lists(st.lists(entry, min_size=size, max_size=size), min_size=digits, max_size=digits))
    return np.array(rows, dtype=np.int64), n


@given(digit_sums())
@example((np.full((3, 2), 2**31 - 1, dtype=np.int64), 1))
@example((np.full((3, 4), (2**20 + 1) * (2**31 - 1), dtype=np.int64), 2**20 + 1))
@example((np.zeros((2, 3), dtype=np.int64), 3))
# adding the quotient digits from the most significant down rounds these differently
@example((np.array([[57982366], [138529289]], dtype=np.int64), 2))
@example((np.array([[13491041775], [1673425039722]], dtype=np.int64), 1000))
def test_digit_mean_matches_divmod_form(case):
    """The buffered long division has the bits of one np.divmod per digit."""
    sums, n = case
    got, want = sums.copy(), sums.copy()
    assert _digit_mean(got, n).tobytes() == digit_mean_divmod(want, n).tobytes()
    assert got.tobytes() == want.tobytes()  # both leave the quotient digits in the sums


@st.composite
def distribution_pairs(draw):
    """(f, g) as StepCdf or QuantileFn: independent, sharing levels, one a
    single step, identical, or one level list far shorter than the other."""
    kind = draw(st.sampled_from(["independent", "shared_levels", "one_step", "identical", "short_long"]))
    f = draw(quantile_fns())
    if kind == "short_long":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        bp = np.unique(np.concatenate(([0.0, 1.0], rng.random(draw(st.integers(200, 600))))))
        vals = np.sort(rng.random(bp.size))
        vals[0] = 0.0
        f = QuantileFn(bp, vals)
    if kind == "shared_levels":
        vals = np.sort(draw(st.lists(_levels, min_size=f.values.size, max_size=f.values.size)))
        g = QuantileFn(f.breakpoints, np.concatenate(([0.0], vals[1:])))
    elif kind in ("one_step", "short_long"):
        g = QuantileFn([0.0, 1.0], [0.0, draw(_levels)])
    elif kind == "identical":
        g = f
    else:
        g = draw(quantile_fns())
    # a quantile with no flat stretch and value 0 at 0 alone is also a step CDF
    as_cdf = [q if q.values[1] == 0.0 or (np.diff(q.values[1:]) == 0).any() or not draw(st.booleans())
              else quantile_to_cdf(q) for q in (f, g)]
    return tuple(as_cdf)


@given(distribution_pairs(), st.sampled_from([1, 3, 1 << 16]))
def test_wasserstein_matches_unique_form(pair, block):
    """Merging the level lists by insertion and reading each step directly,
    a block of levels at a time, has the bits of evaluating both quantiles
    on the np.unique of their breakpoints, in either argument order."""
    f, g = pair
    with mock.patch.object(variation, "_LOOKUP_BLOCK", block):
        for x, y in ((f, g), (g, f), (f, f)):
            assert wasserstein2(x, y) == wasserstein2_unique(x, y)


def test_wasserstein_refuses_other_types():
    with pytest.raises(TypeError):
        wasserstein2(StepCdf([1.0], [1.0]), np.array([0.5]))


# --- composition Q(F(t)) ----------------------------------------------------

def test_compose_identity_like():
    r = 201
    grid = np.linspace(0.0, 1.0, r)
    cdf = discrete_variation_cdf(DiscreteCurve(grid, grid)).cdf
    q = generalized_inverse(cdf)
    pts = np.linspace(0.0, 1.0, 101)
    out = q(cdf(pts))
    assert np.abs(out - pts).max() <= 1.0 / (r - 1) + 1e-12
    assert (np.diff(out) >= 0).all()


def test_compose_galois_bound(rng):
    for _ in range(20):
        cdf = random_step_cdf(rng)
        q = generalized_inverse(cdf)
        pts = np.linspace(0.0, 1.0, 157)
        out = q(cdf(pts))
        gaps = np.diff(np.concatenate(([0.0], cdf.jump_locations, [1.0])))
        assert (out <= pts + 1e-15).all()  # G^-(G(u)) <= u
        assert np.abs(out - pts).max() <= gaps.max() + 1e-12


def test_compose_case_analysis():
    cdf = StepCdf([0.5], [1.0])
    q = QuantileFn([0.0, 1.0], [0.0, 0.3])
    pts = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    out = q(cdf(pts))
    np.testing.assert_array_equal(out, [0.0, 0.0, 0.3, 0.3, 0.3])


# --- invariants -------------------------------------------------------------

@given(st.integers(0, 2**32 - 1))
def test_monotonicity_closure(seed):
    rng = np.random.default_rng(seed)
    cdf = random_step_cdf(rng)
    q = generalized_inverse(cdf)
    assert (np.diff(q.values) >= 0).all()
    back = quantile_to_cdf(q)
    assert (np.diff(back.cum_values) > 0).all()
    assert back.cum_values[-1] == 1.0
    mean = mean_quantile([q, generalized_inverse(random_step_cdf(rng))])
    assert (np.diff(mean.values) >= 0).all()
