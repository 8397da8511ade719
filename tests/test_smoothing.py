from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from varireg import smoothing
from varireg.errors import AllCandidatesSingular, EmptyWindow, SingularFit
from varireg.registration import WarpMap, _smooth
from varireg.simulate import LatentModelConfig, WarpLawConfig, make_truth_bundle
from varireg.smoothing import (
    _BLOCK_BUDGET,
    _FOLD_WIDTH,
    _loo_errors,
    _loocv_ladders,
    _loocv_rows,
    _row_fits,
    epanechnikov,
    nadaraya_watson_rows,
    suggested_min_bandwidths,
)
from varireg.registration import _stack
from varireg.variation import DiscreteCurve

import oracles
from conftest import random_curve
from oracles import (
    dense_local_poly,
    dense_local_poly_chunk,
    dense_loocv_bandwidth,
    dense_loocv_predictions,
    dense_nadaraya_watson,
    epanechnikov_where,
    loocv_ladder,
    per_curve_loocv_bandwidths,
    per_curve_windowed_fit,
    per_curve_windowed_fits,
    windows_whole,
)

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


# --- one curve through the row code the pipelines run --------------------------

def nadaraya_watson(curve, h, eval_points):
    """Curve's Nadaraya-Watson fit at ``eval_points`` from nadaraya_watson_rows."""
    e = np.asarray(eval_points, dtype=float)
    fit = nadaraya_watson_rows(curve.grid[None], curve.values[None], [h], e.reshape(1, -1))
    return fit.reshape(e.shape)


def local_poly(curve, h, degree, deriv_order, eval_points):
    """Curve's local polynomial fit (deriv 0) or slope (deriv 1) from _row_fits;
    SingularFit at the first underdetermined window."""
    e = np.asarray(eval_points, dtype=float)
    out = _row_fits(curve.grid[None], curve.values[None], [[h]], e.reshape(1, -1), [degree], deriv_order)
    singular = np.isnan(out)
    if singular.any():
        raise SingularFit(float(e.flat[np.argmax(singular)]))
    return out.reshape(e.shape)


def loocv_bandwidths(curve, degrees, candidates):
    """Curve's leave-one-out bandwidth for each of ``degrees``, from _loocv_rows."""
    rows = np.array([sorted(candidates)], dtype=float)
    chosen, failed = _loocv_rows(curve.grid[None], curve.values[None], rows, degrees)
    if failed[0]:
        raise AllCandidatesSingular("every candidate bandwidth left a singular window")
    return chosen[:, 0].tolist()


def default_ladder(curve):
    """The distinct candidates of curve's default leave-one-out ladder (_loocv_ladders)."""
    return np.unique(_loocv_ladders(np.array([curve.max_gap]))[0])


def test_kernel_shape():
    u = np.linspace(-1.5, 1.5, 10001)
    k = epanechnikov(u)
    assert (k >= 0).all()
    np.testing.assert_allclose(k, epanechnikov(-u))
    assert (k[np.abs(u) >= 1.0] == 0).all()
    # composite trapezoid on a quadratic carries error (b-a)h^2|f''|/12 ~ 1e-8
    support = np.linspace(-1.0, 1.0, 10_000)
    integral = np.trapezoid(epanechnikov(support), support)
    assert integral == pytest.approx(1.0, abs=2e-8)


def test_kernel_matches_the_select_form_bit_for_bit():
    # fmax(3/4 (1 - u^2), 0) against np.where(|u| < 1, ...): the same bits at
    # the support's edge, on either side of it by one ulp, at signed zeros,
    # subnormals, overflowing squares, infinities and nan (0 in both)
    tiny = np.finfo(float).smallest_subnormal
    special = np.array([
        0.0, 1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0), tiny, 1e-310, 1e200, np.inf, np.nan,
        np.finfo(float).max, 0.5, 1e-8,
    ])
    u = np.concatenate((special, -special, np.random.default_rng(13).uniform(-1.5, 1.5, 10**6)))
    with np.errstate(over="ignore"):  # 1e200^2 overflows in both forms
        got, want = epanechnikov(u), epanechnikov_where(u)
    assert got.tobytes() == want.tobytes()
    assert epanechnikov(0.5).shape == () and epanechnikov(0.5) == 0.5625


@pytest.mark.parametrize("p", range(1, _FOLD_WIDTH + 1))
def test_numpy_sums_a_short_row_as_the_slot_fold(p):
    # _row_fits lays windows padded to p < _FOLD_WIDTH points out slot-major and
    # sums them over the slot axis.  That keeps the bits of the row layout
    # because numpy sums a row that short as a left-to-right fold from +0, and
    # an outer axis as the same fold over vectors.  From _FOLD_WIDTH points up
    # a row is summed pairwise, which the fold does not reproduce.
    rng = np.random.default_rng(p)
    x = rng.standard_normal((2000, 3, p)) * 10.0 ** rng.integers(-12, 12, (2000, 3, p))
    x[rng.random(x.shape) < 0.1] = 0.0
    x[rng.random(x.shape) < 0.1] = -0.0
    x[:5] = -0.0  # rows of negative zeros alone sum to +0
    fold = np.zeros(x.shape[:-1])
    for k in range(p):
        fold = fold + x[..., k]
    rows = np.sum(x, axis=-1)
    slots = np.sum(np.moveaxis(x, -1, 0).copy(), axis=0)
    if p < _FOLD_WIDTH:
        assert rows.tobytes() == fold.tobytes()
        assert slots.tobytes() == fold.tobytes()
    else:
        assert rows.tobytes() != fold.tobytes()


def test_bandwidth_outside_unit_interval_raises():
    curve = DiscreteCurve(np.linspace(0.0, 1.0, 11), np.linspace(0.0, 1.0, 11))
    with pytest.raises(ValueError, match="bandwidth"):
        local_poly(curve, 0.0, 1, 0, [0.5])


# --- Nadaraya-Watson --------------------------------------------------------

def test_nw_constant():
    grid = np.linspace(0.0, 1.0, 21)
    curve = DiscreteCurve(grid, np.full(21, 3.25))
    out = nadaraya_watson(curve, 0.13, np.linspace(0.0, 1.0, 55))
    np.testing.assert_allclose(out, 3.25, rtol=1e-14)


def test_nw_single_point_window():
    grid = np.linspace(0.0, 1.0, 11)
    values = np.sin(3 * grid) + grid
    curve = DiscreteCurve(grid, values)
    out = nadaraya_watson(curve, 0.04, grid)  # below half the gap of 0.1
    np.testing.assert_array_equal(out, values)


def test_nw_symmetric_window_mean():
    grid = np.array([0.0, 0.4, 0.5, 0.6, 1.0])
    values = np.array([9.0, 2.0, 5.0, 4.0, -3.0])
    curve = DiscreteCurve(grid, values)
    out = nadaraya_watson(curve, 0.15, np.array([0.5]))
    # symmetric neighbors at +-0.1 get equal weight; the center dominates but
    # the weighted mean of {2,5,4} with symmetric off-center weights is
    # 5*w0 + (2+4)*w1 over w0+2*w1
    w0 = epanechnikov(np.array([0.0]))[0]
    w1 = epanechnikov(np.array([0.1 / 0.15]))[0]
    expected = (5.0 * w0 + (2.0 + 4.0) * w1) / (w0 + 2 * w1)
    assert out[0] == pytest.approx(expected, rel=1e-13)


def test_nw_empty_window_error():
    grid = np.linspace(0.0, 1.0, 5)
    curve = DiscreteCurve(grid, grid)
    with pytest.raises(EmptyWindow) as err:
        nadaraya_watson(curve, 0.05, np.array([0.125]))
    assert err.value.suggested_bandwidth > 0.05


def test_nw_convex_combination(rng):
    for _ in range(20):
        curve = random_curve(rng)
        out = nadaraya_watson(curve, max(2 * curve.max_gap, 0.05), np.linspace(0.0, 1.0, 67))
        assert out.min() >= curve.values.min() - 1e-12
        assert out.max() <= curve.values.max() + 1e-12


def test_nw_translation_equivariance(rng):
    curve = random_curve(rng)
    pts = np.linspace(0.0, 1.0, 31)
    base = nadaraya_watson(curve, 0.2, pts)
    shifted = nadaraya_watson(DiscreteCurve(curve.grid, curve.values + 7.5), 0.2, pts)
    np.testing.assert_allclose(shifted, base + 7.5, rtol=0, atol=1e-12)


# --- local polynomial -------------------------------------------------------

def test_local_linear_reproduces_line():
    grid = np.linspace(0.0, 1.0, 41)
    values = 2.5 * grid - 0.7
    curve = DiscreteCurve(grid, values)
    pts = np.linspace(0.0, 1.0, 101)  # includes both boundaries
    out = local_poly(curve, 0.11, 1, 0, pts)
    np.testing.assert_allclose(out, 2.5 * pts - 0.7, atol=1e-12)


def test_local_quadratic_derivative_exact():
    grid = np.linspace(0.0, 1.0, 51)
    q = lambda t: 1.2 * t**2 - 0.4 * t + 0.3
    dq = lambda t: 2.4 * t - 0.4
    curve = DiscreteCurve(grid, q(grid))
    pts = np.linspace(0.0, 1.0, 67)
    out = local_poly(curve, 0.09, 2, 1, pts)
    np.testing.assert_allclose(out, dq(pts), atol=1e-10)


def test_local_poly_constant_derivative_zero():
    grid = np.linspace(0.0, 1.0, 25)
    curve = DiscreteCurve(grid, np.full(25, 4.0))
    out = local_poly(curve, 0.2, 2, 1, np.linspace(0.0, 1.0, 11))
    np.testing.assert_allclose(out, 0.0, atol=1e-11)


@given(st.integers(0, 2**32 - 1), st.integers(1, 2))
def test_local_poly_polynomial_reproduction(seed, degree):
    rng = np.random.default_rng(seed)
    coef = rng.standard_normal(degree + 1)
    grid = np.linspace(0.0, 1.0, 61)
    values = np.polyval(coef, grid)
    curve = DiscreteCurve(grid, values)
    pts = np.linspace(0.0, 1.0, 41)
    out = local_poly(curve, 0.08, degree, 0, pts)
    scale = max(np.abs(values).max(), 1.0)
    np.testing.assert_allclose(out, np.polyval(coef, pts), atol=1e-13 * 100 * scale)


def test_local_poly_deriv_translation_invariant(rng):
    curve = random_curve(rng, r=40)
    pts = np.linspace(0.0, 1.0, 21)
    base = local_poly(curve, 0.2, 2, 1, pts)
    shifted = local_poly(DiscreteCurve(curve.grid, curve.values + 11.0), 0.2, 2, 1, pts)
    np.testing.assert_allclose(shifted, base, atol=1e-9)


# --- LOOCV -------------------------------------------------------------------

def test_loocv_single_candidate():
    grid = np.linspace(0.0, 1.0, 31)
    curve = DiscreteCurve(grid, np.sin(2 * np.pi * grid))
    assert loocv_bandwidths(curve, [1], [0.2]) == [0.2]


def test_loocv_noiseless_prefers_small():
    grid = np.linspace(0.0, 1.0, 101)
    curve = DiscreteCurve(grid, np.sin(2 * np.pi * grid))
    candidates = [0.05, 0.1, 0.2, 0.4]
    assert loocv_bandwidths(curve, [1], candidates) == [0.05]


def test_loocv_noise_increases_bandwidth():
    grid = np.linspace(0.0, 1.0, 101)
    smooth = np.sin(2 * np.pi * grid)
    rng = np.random.default_rng(7)
    noisy = rng.standard_normal(grid.size)
    candidates = list(default_ladder(DiscreteCurve(grid, smooth)))
    h_smooth = loocv_bandwidths(DiscreteCurve(grid, smooth), [1], candidates)[0]
    h_noisy = loocv_bandwidths(DiscreteCurve(grid, noisy), [1], candidates)[0]
    assert h_noisy > h_smooth


def test_default_loocv_candidates_stay_off_the_gap_lattice():
    # a candidate of a whole number of gaps puts a neighbour on a uniform grid
    # at |u| = 1, where its kernel weight is rounding noise
    for r in range(4, 2002):
        grid = np.linspace(0.0, 1.0, r)
        curve = DiscreteCurve(grid, grid)
        for h in default_ladder(curve):
            k = int(round(h / curve.max_gap))
            for j in range(max(k - 1, 1), min(k + 2, r)):
                u = (grid[j:] - grid[:-j]) / h
                assert np.abs(u - 1.0).min() > 1e-9, (r, h, j)


def test_loocv_tie_prefers_smaller():
    # every leave-one-out window holds one neighbour under both candidates,
    # so both predict the neighbour's value exactly and their errors tie
    grid = np.array([0.0, 0.05, 0.5, 0.55, 0.95, 1.0])
    curve = DiscreteCurve(grid, np.array([1.0, -2.0, 0.5, 3.0, -1.0, 2.0]))
    assert loocv_bandwidths(curve, [0], [0.2, 0.1]) == [0.1]
    assert dense_loocv_bandwidth(curve, 0, [0.2, 0.1]) == 0.1


def test_loocv_all_singular():
    grid = np.linspace(0.0, 1.0, 11)
    curve = DiscreteCurve(grid, grid)
    with pytest.raises(AllCandidatesSingular):
        loocv_bandwidths(curve, [2], [0.01])  # window holds self only


# --- windowed kernel against the dense oracle ---------------------------------

def _jittered_grid(rng, r):
    """Irregular grid on [0,1]: interior points moved by up to 30% of a gap."""
    grid = np.linspace(0.0, 1.0, r)
    grid[1:-1] += rng.uniform(-0.3, 0.3, r - 2) / (r - 1)
    return grid


def _assert_fits_agree(new, old, grid, h, eval_points, degree, deriv_order, loo, scale):
    """Windowed fits match dense ones wherever the local fit is decided.

    Underdetermined windows must be nan in both.  Elsewhere values agree to
    1e-12 relative to the larger of the data scale and the fit, widened to
    100 eps cond(S) for ill-conditioned windows.  A near-singular window
    (cond(S) >= 1e12) is left unchecked: a grid point at |u| just below 1
    weighs ~1e-16, and whether S then rounds to exactly singular (nan) or
    not depends on summation order.  Returns whether every window was checked.
    """
    u = (grid[None, :] - eval_points[:, None]) / h
    w = epanechnikov(u)
    if loo:
        w = np.where(grid[None, :] == eval_points[:, None], 0.0, w)
    moments = [np.sum(w * u**p, axis=1) for p in range(2 * degree + 1)]
    S = np.stack(
        [np.stack([moments[p + q] for q in range(degree + 1)], axis=-1) for p in range(degree + 1)],
        axis=-2,
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = np.nan_to_num(np.linalg.cond(S), nan=np.inf)
    under = (w > 0.0).sum(axis=1) < degree + 1
    assert np.isnan(new[under]).all() and np.isnan(old[under]).all()
    posed = ~under & (cond < 1e12)
    assert not np.isnan(new[posed]).any() and not np.isnan(old[posed]).any()
    magnitude = np.maximum(scale / h**deriv_order, np.abs(old[posed]))
    tol = magnitude * np.maximum(1e-12, 1e-14 * cond[posed])
    assert (np.abs(new[posed] - old[posed]) <= tol).all()
    return bool((under | posed).all())


def _raised(fn, *args):
    try:
        fn(*args)
    except EmptyWindow as exc:
        return "EmptyWindow", exc.eval_point, exc.suggested_bandwidth
    except SingularFit as exc:
        return "SingularFit", exc.eval_point
    return None


@given(
    st.integers(0, 2**32 - 1),
    st.integers(5, 40),
    st.sampled_from([(0, 0), (1, 0), (2, 0), (2, 1)]),
    st.booleans(),
    st.one_of(st.floats(0.05, 0.49), st.floats(0.5, 8.0), st.just(1e6)),
)
# at h = 1 the window centred at 1.92 holds points at u = -0.98 .. -0.92 and
# the edge point at |u| just below 1, weight 1.7e-16: S is near singular
# (cond 1.9e8) but compared.  The cofactor form of S^-1 misses the bound there
# by 4.5x; elimination, like LU, meets it.
@example(seed=629871888, r=40, degree_deriv=(2, 1), loo=False, gaps=1e6).via("near-singular edge window")
def test_windowed_fit_matches_dense_oracle(seed, r, degree_deriv, loo, gaps):
    degree, deriv = degree_deriv
    rng = np.random.default_rng(seed)
    grid = _jittered_grid(rng, r)
    values = rng.standard_normal(r).cumsum()
    curve = DiscreteCurve(grid, values)
    # gaps < 0.5 puts h below half of every grid gap; 1e6 caps h at 1.0
    h = min(gaps * np.diff(grid).min(), 1.0)
    pts = np.concatenate((rng.random(15), grid, grid - h, grid + h))

    new = per_curve_windowed_fit(grid, values, [h], pts, degree, deriv, loo)[0]
    old = dense_local_poly_chunk(grid, values, h, degree, deriv, pts, loo)
    checked = _assert_fits_agree(new, old, grid, h, pts, degree, deriv, loo, np.abs(values).max())

    public, dense = (
        (nadaraya_watson, dense_nadaraya_watson) if degree == 0 else (local_poly, dense_local_poly)
    )
    args = (curve, h, pts) if degree == 0 else (curve, h, degree, deriv, pts)
    if checked:
        assert _raised(public, *args) == _raised(dense, *args)


@given(
    st.integers(0, 2**32 - 1),
    st.integers(5, 40),
    st.integers(0, 2),
    st.lists(st.floats(0.2, 8.0), min_size=1, max_size=6),
)
def test_loocv_matches_dense_oracle(seed, r, degree, gaps):
    rng = np.random.default_rng(seed)
    grid = _jittered_grid(rng, r)
    values = rng.standard_normal(r).cumsum()
    curve = DiscreteCurve(grid, values)
    # a factor below 0.2 / 0.4 leaves every leave-one-out window empty
    candidates = sorted(min(g / (r - 1), 1.0) for g in gaps)
    preds = per_curve_windowed_fit(grid, values, candidates, grid, degree, loo=True)
    checked = True
    for h, row in zip(candidates, preds):
        old = dense_local_poly_chunk(grid, values, h, degree, 0, grid, loo=True)
        ok = _assert_fits_agree(row, old, grid, h, grid, degree, 0, True, np.abs(values).max())
        if ok:  # the same candidates are skipped
            assert np.isnan(row).any() == (dense_loocv_predictions(curve, degree, h) is None)
        checked &= ok
    if not checked:
        return
    try:
        expected = dense_loocv_bandwidth(curve, degree, candidates)
    except AllCandidatesSingular:
        with pytest.raises(AllCandidatesSingular):
            loocv_bandwidths(curve, [degree], candidates)
        return
    assert loocv_bandwidths(curve, [degree], candidates) == [expected]


@given(
    st.integers(0, 2**32 - 1),
    st.integers(5, 40),
    st.lists(st.integers(0, 2), min_size=1, max_size=4),
    st.booleans(),
    st.lists(st.floats(0.2, 8.0), min_size=1, max_size=6),
)
def test_shared_pass_gives_each_degree_its_own_bits(seed, r, degrees, loo, gaps):
    rng = np.random.default_rng(seed)
    grid = _jittered_grid(rng, r)
    values = rng.standard_normal(r).cumsum()
    bandwidths = sorted(min(g / (r - 1), 1.0) for g in gaps)
    pts = grid if loo else np.concatenate((rng.random(15), grid))
    shared = per_curve_windowed_fits(grid, values, bandwidths, pts, degrees, loo=loo)
    for degree, fits in zip(degrees, shared):
        alone = per_curve_windowed_fit(grid, values, bandwidths, pts, degree, loo=loo)
        assert fits.tobytes() == alone.tobytes()
    if loo:
        curve = DiscreteCurve(grid, values)
        try:
            expected = [loocv_bandwidths(curve, [d], bandwidths)[0] for d in degrees]
        except AllCandidatesSingular:
            with pytest.raises(AllCandidatesSingular):
                loocv_bandwidths(curve, degrees, bandwidths)
            return
        assert loocv_bandwidths(curve, degrees, bandwidths) == expected


@pytest.mark.parametrize("noise, seed", [
    pytest.param(noise, seed, marks=() if (noise, seed) in [(0.1, 3), (0.4, 5)] else pytest.mark.slow)
    for noise in (0.1, 0.4) for seed in range(10)
])
def test_loocv_matches_dense_oracle_on_noisy_model1(noise, seed):
    # the library and the dense LU reference pick the same bandwidths from
    # the default ladder, fit for fit
    bundle = make_truth_bundle(
        LatentModelConfig("model1", grid_size=101, noise_halfwidth=noise), WarpLawConfig(), 100, seed
    )
    for curve in bundle.observed:
        candidates = default_ladder(curve)
        expected = [dense_loocv_bandwidth(curve, d, candidates) for d in (0, 1, 2)]
        for degree in (0, 1, 2):
            assert loocv_bandwidths(curve, [degree], candidates) == [expected[degree]]
        assert loocv_bandwidths(curve, (2, 1, 0), candidates) == expected[::-1]


# --- the row kernel against the per-curve pass --------------------------------


def _padded_rows(grids, values):
    """(grids, values) laid out as the row kernel takes them: one shared grid
    row, or one row per curve padded with +inf (grid) and its last value."""
    if all(g is grids[0] for g in grids):
        return grids[0][None], np.stack(values)
    width = max(g.size for g in grids)
    g_rows = np.full((len(grids), width), np.inf)
    v_rows = np.empty((len(grids), width))
    for i, (g, v) in enumerate(zip(grids, values)):
        g_rows[i, :g.size], v_rows[i, :g.size], v_rows[i, g.size:] = g, v, v[-1]
    return g_rows, v_rows


@st.composite
def row_samples(draw, max_shared=5):
    """1 to 5 random-walk curves on their own jittered grids, or 1 to
    ``max_shared`` on one."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shared = draw(st.booleans())
    n = draw(st.integers(1, max_shared if shared else 5))
    if shared:
        grids = [_jittered_grid(rng, int(rng.integers(5, 41)))] * n
    else:
        grids = [_jittered_grid(rng, int(rng.integers(5, 41))) for _ in range(n)]
    return rng, grids, [rng.standard_normal(g.size).cumsum() for g in grids]


@given(
    row_samples(max_shared=24),
    st.integers(1, 4),
    st.sampled_from([((0,), 0), ((1,), 0), ((2,), 0), ((2, 0, 1), 0), ((2,), 1)]),
    st.booleans(),
    st.booleans(),
    st.sampled_from([None, 3, 1]),
    st.sampled_from([_BLOCK_BUDGET, 256]),
)
def test_row_kernel_matches_per_curve_pass(sample, K, degrees_deriv, loo, shared_e, distinct, budget):
    # every curve's fits have the bits of its own pass, in any order of the
    # rows; on a shared grid with a shared row of evaluation points, curves
    # with equal bandwidth rows share each window's weights and moments, in
    # blocks of curves x cells (a small budget splits them)
    rng, grids, values = sample
    degrees, deriv = degrees_deriv
    n = len(grids)
    h = np.sort(np.minimum(rng.uniform(0.2, 8.0, (n, K)) / 20.0, 1.0), axis=1)
    if distinct is not None:  # rows repeat
        h = h[rng.integers(0, min(distinct, n), n)]
    # eval points between, at and beyond the grid points; with loo some coincide
    e = np.stack([np.concatenate((rng.uniform(-0.1, 1.1, 12), g[rng.integers(0, g.size, 8)]))
                  for g in grids[:1 if shared_e else n]])
    g_rows, v_rows = _padded_rows(grids, values)
    with patch.object(smoothing, "_BLOCK_BUDGET", budget):
        got = _row_fits(g_rows, v_rows, h, e, degrees, deriv, loo)
        perm = rng.permutation(n)
        g_perm = g_rows if g_rows.shape[0] == 1 else g_rows[perm]
        e_perm = e if e.shape[0] == 1 else e[perm]
        permuted = _row_fits(g_perm, v_rows[perm], h[perm], e_perm, degrees, deriv, loo)
    assert got.shape == (len(degrees), n, K, e.shape[1])
    for i in range(n):
        want = per_curve_windowed_fits(grids[i], values[i], h[i], e[i % e.shape[0]], degrees, deriv, loo)
        assert got[:, i].tobytes() == want.tobytes()
    assert permuted.tobytes() == got[:, perm].tobytes()


def _assert_windows_match_the_whole_search(grids, h, e):
    g_rows, _ = _padded_rows(grids, [np.zeros(g.size) for g in grids])
    e = np.broadcast_to(e, (h.shape[0], e.shape[1]))
    size = np.broadcast_to(np.count_nonzero(g_rows < np.inf, axis=1), h.shape[0])
    lo, width = smoothing._windows(g_rows, e, h, size)
    want_lo, want_width = windows_whole(g_rows, e, h, size)
    assert lo.dtype == width.dtype == np.int32 and lo.shape == want_lo.shape
    assert (lo == want_lo).all() and (width == want_width).all()


@given(row_samples(max_shared=24), st.integers(1, 4), st.booleans(), st.sampled_from([_BLOCK_BUDGET, 40, 1]))
def test_windows_match_the_whole_sample_search(sample, K, shared_e, budget):
    # the edges of a chunk of rows at a time, in int32, against every edge at once in int64
    rng, grids, _ = sample
    n = len(grids)
    h = np.minimum(rng.uniform(0.2, 8.0, (n, K)) / 20.0, 1.0)
    e = np.stack([np.concatenate((rng.uniform(-0.1, 1.1, 12), g[rng.integers(0, g.size, 8)]))
                  for g in grids[:1 if shared_e else n]])
    with patch.object(smoothing, "_BLOCK_BUDGET", budget):
        _assert_windows_match_the_whole_search(grids, h, e)


def test_windows_of_padded_grids_over_several_chunks():
    # 40 curves on grids of 400 to 1000 points, 2 bandwidths x 1000 points
    # each: chunks of 16 rows at the default budget
    rng = np.random.default_rng(8)
    grids = [_jittered_grid(rng, int(r)) for r in rng.integers(400, 1001, 40)]
    e = np.sort(rng.uniform(-0.05, 1.05, (40, 1000)), axis=1)
    _assert_windows_match_the_whole_search(grids, rng.uniform(0.001, 0.05, (40, 2)), e)
    # dyadic grids, evaluated at their points: every edge e -+ h is a grid point
    grids = [np.linspace(0.0, 1.0, 1025) for _ in range(40)]
    h = np.tile([2.0**-7, 0.25], (40, 1))
    _assert_windows_match_the_whole_search(grids, h, np.stack([g[::2] for g in grids]))


def test_row_kernel_drops_a_singular_shared_window():
    # a duplicated grid point: at t = 0.5 with h below a grid gap the window
    # holds two points at u = 0 and S is singular: elimination meets a zero
    # pivot, and the window is dropped for every curve that shares it
    grid = np.sort(np.append(np.linspace(0.0, 1.0, 21), 0.5))
    rng = np.random.default_rng(6)
    values = rng.standard_normal((5, grid.size)).cumsum(axis=1)
    h = np.tile([0.04, 0.2, 0.3], (5, 1))
    e = np.array([[0.0, 0.33, 0.5, 0.52, 1.0]])
    for budget in (_BLOCK_BUDGET, 16):
        with patch.object(smoothing, "_BLOCK_BUDGET", budget):
            got = _row_fits(grid[None], values, h, e, (1, 2, 0))
        for i in range(5):
            want = per_curve_windowed_fits(grid, values[i], h[i], e[0], (1, 2, 0))
            assert got[:, i].tobytes() == want.tobytes()
    assert np.isnan(got[0, :, 0, 2]).all()  # two weighted points, but S is singular
    assert not np.isnan(got[0, :, 1:]).any()


def test_loo_pass_builds_each_window_geometry_once_per_row_block(monkeypatch):
    # on a shared grid every curve has the same leave-one-out windows, weights
    # and moments: the kernel weighs no more window points for 32 curves than
    # for 4
    weighed = []
    kernel = smoothing.epanechnikov
    monkeypatch.setattr(smoothing, "epanechnikov", lambda u: weighed.append(np.size(u)) or kernel(u))
    grid = np.linspace(0.0, 1.0, 41)
    rng = np.random.default_rng(3)
    counts = []
    for n in (4, 32):
        values = np.sin(2 * np.pi * grid) + 0.1 * rng.standard_normal((n, grid.size))
        weighed.clear()
        _loo_errors(grid[None], values, _loocv_ladders(np.full(n, 1 / 40)), (2, 1))
        counts.append(sum(weighed))
    assert 0 < counts[1] < 2 * counts[0]


@pytest.mark.parametrize("shared", [True, False])
def test_row_kernel_pads_each_chunk_as_the_per_curve_pass(shared):
    # at r = 1001 and h = 0.3 a curve alone is fitted in several chunks of
    # evaluation points, each padded to its own widest window
    rng = np.random.default_rng(4)
    grids = [np.linspace(0.0, 1.0, 1001)] * 3 if shared else [
        _jittered_grid(rng, r) for r in (1001, 700, 1001)
    ]
    values = [rng.standard_normal(g.size).cumsum() for g in grids]
    h = np.array([[0.05, 0.3], [0.02, 0.25], [0.3, 0.3]])
    e = np.stack([np.sort(rng.random(1001)) for _ in grids])
    g_rows, v_rows = _padded_rows(grids, values)
    got = _row_fits(g_rows, v_rows, h, e, (2, 1))
    for i in range(3):
        want = per_curve_windowed_fits(grids[i], values[i], h[i], e[i], (2, 1))
        assert got[:, i].tobytes() == want.tobytes()


@given(
    st.integers(0, 2**32 - 1),
    st.booleans(),
    st.integers(1, 3),
    st.sampled_from([((0,), 0), ((1,), 0), ((2,), 0), ((2, 0, 1), 0), ((1,), 1), ((2,), 1)]),
    st.booleans(),
    st.booleans(),
)
def test_row_kernel_switches_layout_at_the_fold_width(seed, shared, K, degrees_deriv, loo, shared_e):
    # one curve's evaluation points in chunks padded on both sides of
    # _FOLD_WIDTH: grids dense on [0, 0.5] (about 10 points a window) and
    # sparse on [0.5, 1] (about 3), with a cell budget small enough that a
    # curve's sorted evaluation points fall into many chunks.  Chunks narrower
    # than _FOLD_WIDTH are laid out slot-major, the others by rows, and every
    # fit has the bits of the curve's own pass
    rng = np.random.default_rng(seed)
    degrees, deriv = degrees_deriv
    n = int(rng.integers(1, 5))
    dense = np.linspace(0.0, 0.5, 51)
    grids = [np.concatenate((dense[:1], dense[1:40] + rng.uniform(-0.2, 0.2, 39) / 100, dense[40:],
                             [0.6, 0.72, 0.81, 0.9, 1.0])) for _ in range(1 if shared else n)]
    grids = grids * n if shared else grids
    values = [rng.standard_normal(g.size).cumsum() for g in grids]
    h = rng.uniform(0.04, 0.06, (n, K))
    e = np.sort(np.concatenate([rng.uniform(0.0, 1.0, (1 if shared_e else n, 30)),
                                np.stack(grids[:1 if shared_e else n])[:, ::3]], axis=1), axis=1)
    layouts = []
    geometry = smoothing._window_geometry
    def spy(*args):
        layouts.append((args[-1], args[0].shape[args[-1]]))
        return geometry(*args)
    g_rows, v_rows = _padded_rows(grids, values)
    with patch.object(smoothing, "_CELL_BUDGET", 40 * K), patch.object(oracles, "_CELL_BUDGET", 40 * K), \
            patch.object(smoothing, "_window_geometry", spy):
        got = _row_fits(g_rows, v_rows, h, e, degrees, deriv, loo)
        for i in range(n):
            want = per_curve_windowed_fits(grids[i], values[i], h[i], e[i % e.shape[0]], degrees, deriv, loo)
            assert got[:, i].tobytes() == want.tobytes()
    assert {axis for axis, p in layouts if p < _FOLD_WIDTH} == {-4}
    assert {axis for axis, p in layouts if p >= _FOLD_WIDTH} == {-1}


@given(row_samples(), st.integers(1, 5), st.lists(st.integers(0, 2), min_size=1, max_size=3))
def test_loocv_rows_match_per_curve_pass(sample, K, degrees):
    # every curve's errors have the bits of its own pass, summed over its own
    # points; a row of one value repeated K times chooses as the value alone
    rng, grids, values = sample
    n = len(grids)
    candidates = np.sort(np.minimum(rng.uniform(0.2, 8.0, (n, K)) / 20.0, 1.0), axis=1)
    candidates[rng.random(n) < 0.3] = candidates[0, -1]
    rows = _padded_rows(grids, values)
    errs = _loo_errors(*rows, candidates, degrees)
    chosen, failed = _loocv_rows(*rows, candidates, degrees)
    for i in range(n):
        preds = per_curve_windowed_fits(grids[i], values[i], candidates[i], grids[i], degrees, loo=True)
        want = np.sum((preds - values[i]) ** 2, axis=-1)
        assert errs[:, i].tobytes() == np.where(want < np.inf, want, np.inf).tobytes()
        try:
            row = np.unique(candidates[i])
            want = per_curve_loocv_bandwidths(DiscreteCurve(grids[i], values[i]), degrees, row)
        except AllCandidatesSingular:
            assert failed[i]
            continue
        assert not failed[i]
        assert chosen[:, i].tolist() == want


def test_loocv_ladders_are_the_default_ladders():
    # a ladder that collapses to one value is that value repeated
    rng = np.random.default_rng(8)
    grids = [np.linspace(0.0, 1.0, r) for r in range(4, 2002)]
    grids += [np.unique(np.concatenate(([0.0, 1.0], rng.random(k)))) for k in rng.integers(2, 300, 500)]
    curves = [DiscreteCurve(g, g) for g in grids]
    ladders = _loocv_ladders(np.array([c.max_gap for c in curves]))
    assert ladders.shape == (len(curves), 12)
    collapsed = 0
    for ladder, curve in zip(ladders, curves):
        want = loocv_ladder(curve.max_gap)
        collapsed += want.size == 1
        assert ladder.tobytes() == np.broadcast_to(want, 12).tobytes()
    assert collapsed > 0


# --- monotone warp smoothing --------------------------------------------------

def monotone_smooth_warp(sample_t, sample_v, n_knots):
    """One warp smoothed as the discrete pipeline smooths every warp (_smooth)."""
    warp = _smooth([WarpMap(sample_t, sample_v)], n_knots)[0]
    return warp.sample_t, warp.sample_v


def test_monotone_smooth_identity():
    t = np.linspace(0.0, 1.0, 101)
    out_t, out_v = monotone_smooth_warp(t, t, n_knots=11)
    assert np.abs(out_v - out_t).max() <= 1e-12


def test_monotone_smooth_two_points():
    out_t, out_v = monotone_smooth_warp([0.0, 1.0], [0.0, 1.0], n_knots=11)
    assert np.abs(out_v - out_t).max() <= 1e-12


def test_monotone_smooth_close_to_analytic():
    t = np.linspace(0.0, 1.0, 101)
    warp = t - 0.1 * np.sin(2 * np.pi * t)
    out_t, out_v = monotone_smooth_warp(t, warp, n_knots=11)
    truth = out_t - 0.1 * np.sin(2 * np.pi * out_t)
    assert np.abs(out_v - truth).max() <= 0.02


@given(st.integers(0, 2**32 - 1))
def test_monotone_smooth_output_monotone(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(5, 40))
    t = np.unique(np.concatenate(([0.0, 1.0], rng.random(k))))
    increments = rng.random(t.size - 1)
    v = np.concatenate(([0.0], np.cumsum(increments)))
    v /= v[-1]
    out_t, out_v = monotone_smooth_warp(t, v, n_knots=int(rng.integers(2, 15)))
    dense = np.interp(np.linspace(0.0, 1.0, 10_000), out_t, out_v)
    assert (np.diff(dense) >= -1e-12).all()
    assert out_v[0] == 0.0 and out_v[-1] == 1.0


@given(st.integers(0, 2**32 - 1), st.booleans(), st.integers(0, 2))
def test_suggested_min_bandwidths_reach_the_nearest_points(seed, shared, degree):
    """Each curve's largest distance from an evaluation point to its
    (degree + 1)-th nearest grid point, by a full sort, times 1 + 1e-9
    (degree 0) or 1.25; on one shared grid or on padded per-curve grids,
    with points past either end of a grid."""
    rng = np.random.default_rng(seed)
    sizes = [rng.integers(3, 12) for _ in range(4)]
    grids = [np.sort(rng.choice(np.linspace(0.0, 1.0, 41), k, replace=False)) for k in sizes]
    grids = grids[:1] * 4 if shared else grids
    e = rng.random((4, rng.integers(1, 9)))
    padded, _ = _stack(grids, [np.zeros(g.size) for g in grids])
    want = [np.sort(np.abs(g[None, :] - row[:, None]), axis=1)[:, degree].max() for g, row in zip(grids, e)]
    factor = 1.0 + 1e-9 if degree == 0 else 1.25
    assert suggested_min_bandwidths(padded, e, degree).tolist() == [w * factor for w in want]
