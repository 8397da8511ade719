import numpy as np
import pytest
from hypothesis import given, strategies as st

from varireg.errors import AllCandidatesSingular, EmptyWindow, SingularFit
from varireg.simulate import LatentModelConfig, WarpLawConfig, make_truth_bundle
from varireg.smoothing import (
    EPANECHNIKOV,
    SmootherConfig,
    _windowed_fit,
    _windowed_fits,
    default_loocv_candidates,
    local_poly,
    loocv_bandwidth,
    loocv_bandwidths,
    monotone_smooth_warp,
    nadaraya_watson,
)
from varireg.variation import DiscreteCurve

from conftest import random_curve
from oracles import (
    dense_local_poly,
    dense_local_poly_chunk,
    dense_loocv_bandwidth,
    dense_loocv_predictions,
    dense_nadaraya_watson,
)


def test_kernel_shape():
    u = np.linspace(-1.5, 1.5, 10001)
    k = EPANECHNIKOV(u)
    assert (k >= 0).all()
    np.testing.assert_allclose(k, EPANECHNIKOV(-u))
    assert (k[np.abs(u) >= 1.0] == 0).all()
    # composite trapezoid on a quadratic carries error (b-a)h^2|f''|/12 ~ 1e-8
    support = np.linspace(-1.0, 1.0, 10_000)
    integral = np.trapezoid(EPANECHNIKOV(support), support)
    assert integral == pytest.approx(1.0, abs=2e-8)


def test_config_validation():
    with pytest.raises(ValueError):
        SmootherConfig(bandwidth=0.0)
    with pytest.raises(ValueError):
        SmootherConfig(bandwidth=0.1, degree=1, deriv_order=1)
    SmootherConfig(bandwidth=0.1, degree=2, deriv_order=1)


# --- Nadaraya-Watson --------------------------------------------------------

def test_nw_constant():
    grid = np.linspace(0.0, 1.0, 21)
    curve = DiscreteCurve(grid, np.full(21, 3.25))
    cfg = SmootherConfig(bandwidth=0.13)
    out = nadaraya_watson(curve, cfg, np.linspace(0.0, 1.0, 55))
    np.testing.assert_allclose(out, 3.25, rtol=1e-14)


def test_nw_single_point_window():
    grid = np.linspace(0.0, 1.0, 11)
    values = np.sin(3 * grid) + grid
    curve = DiscreteCurve(grid, values)
    cfg = SmootherConfig(bandwidth=0.04)  # below half the gap of 0.1
    out = nadaraya_watson(curve, cfg, grid)
    np.testing.assert_array_equal(out, values)


def test_nw_symmetric_window_mean():
    grid = np.array([0.0, 0.4, 0.5, 0.6, 1.0])
    values = np.array([9.0, 2.0, 5.0, 4.0, -3.0])
    curve = DiscreteCurve(grid, values)
    cfg = SmootherConfig(bandwidth=0.15)
    out = nadaraya_watson(curve, cfg, np.array([0.5]))
    # symmetric neighbors at +-0.1 get equal weight; the center dominates but
    # the weighted mean of {2,5,4} with symmetric off-center weights is
    # 5*w0 + (2+4)*w1 over w0+2*w1
    w0 = EPANECHNIKOV(np.array([0.0]))[0]
    w1 = EPANECHNIKOV(np.array([0.1 / 0.15]))[0]
    expected = (5.0 * w0 + (2.0 + 4.0) * w1) / (w0 + 2 * w1)
    assert out[0] == pytest.approx(expected, rel=1e-13)


def test_nw_empty_window_error():
    grid = np.linspace(0.0, 1.0, 5)
    curve = DiscreteCurve(grid, grid)
    cfg = SmootherConfig(bandwidth=0.05)
    with pytest.raises(EmptyWindow) as err:
        nadaraya_watson(curve, cfg, np.array([0.125]))
    assert err.value.suggested_bandwidth > 0.05


def test_nw_convex_combination(rng):
    for _ in range(20):
        curve = random_curve(rng)
        cfg = SmootherConfig(bandwidth=max(2 * curve.max_gap, 0.05))
        out = nadaraya_watson(curve, cfg, np.linspace(0.0, 1.0, 67))
        assert out.min() >= curve.values.min() - 1e-12
        assert out.max() <= curve.values.max() + 1e-12


def test_nw_translation_equivariance(rng):
    curve = random_curve(rng)
    cfg = SmootherConfig(bandwidth=0.2)
    pts = np.linspace(0.0, 1.0, 31)
    base = nadaraya_watson(curve, cfg, pts)
    shifted = nadaraya_watson(DiscreteCurve(curve.grid, curve.values + 7.5), cfg, pts)
    np.testing.assert_allclose(shifted, base + 7.5, rtol=0, atol=1e-12)


# --- local polynomial -------------------------------------------------------

def test_local_linear_reproduces_line():
    grid = np.linspace(0.0, 1.0, 41)
    values = 2.5 * grid - 0.7
    curve = DiscreteCurve(grid, values)
    cfg = SmootherConfig(bandwidth=0.11, degree=1, deriv_order=0)
    pts = np.linspace(0.0, 1.0, 101)  # includes both boundaries
    out = local_poly(curve, cfg, pts)
    np.testing.assert_allclose(out, 2.5 * pts - 0.7, atol=1e-12)


def test_local_quadratic_derivative_exact():
    grid = np.linspace(0.0, 1.0, 51)
    q = lambda t: 1.2 * t**2 - 0.4 * t + 0.3
    dq = lambda t: 2.4 * t - 0.4
    curve = DiscreteCurve(grid, q(grid))
    cfg = SmootherConfig(bandwidth=0.09, degree=2, deriv_order=1)
    pts = np.linspace(0.0, 1.0, 67)
    out = local_poly(curve, cfg, pts)
    np.testing.assert_allclose(out, dq(pts), atol=1e-10)


def test_local_poly_constant_derivative_zero():
    grid = np.linspace(0.0, 1.0, 25)
    curve = DiscreteCurve(grid, np.full(25, 4.0))
    cfg = SmootherConfig(bandwidth=0.2, degree=2, deriv_order=1)
    out = local_poly(curve, cfg, np.linspace(0.0, 1.0, 11))
    np.testing.assert_allclose(out, 0.0, atol=1e-11)


@given(st.integers(0, 2**32 - 1), st.integers(1, 2))
def test_local_poly_polynomial_reproduction(seed, degree):
    rng = np.random.default_rng(seed)
    coef = rng.standard_normal(degree + 1)
    grid = np.linspace(0.0, 1.0, 61)
    values = np.polyval(coef, grid)
    curve = DiscreteCurve(grid, values)
    cfg = SmootherConfig(bandwidth=0.08, degree=degree, deriv_order=0)
    pts = np.linspace(0.0, 1.0, 41)
    out = local_poly(curve, cfg, pts)
    scale = max(np.abs(values).max(), 1.0)
    np.testing.assert_allclose(out, np.polyval(coef, pts), atol=1e-13 * 100 * scale)


def test_local_poly_deriv_translation_invariant(rng):
    curve = random_curve(rng, r=40)
    cfg = SmootherConfig(bandwidth=0.2, degree=2, deriv_order=1)
    pts = np.linspace(0.0, 1.0, 21)
    base = local_poly(curve, cfg, pts)
    shifted = local_poly(DiscreteCurve(curve.grid, curve.values + 11.0), cfg, pts)
    np.testing.assert_allclose(shifted, base, atol=1e-9)


# --- LOOCV -------------------------------------------------------------------

def test_loocv_single_candidate():
    grid = np.linspace(0.0, 1.0, 31)
    curve = DiscreteCurve(grid, np.sin(2 * np.pi * grid))
    assert loocv_bandwidth(curve, 1, [0.2]) == 0.2


def test_loocv_noiseless_prefers_small():
    grid = np.linspace(0.0, 1.0, 101)
    curve = DiscreteCurve(grid, np.sin(2 * np.pi * grid))
    candidates = [0.05, 0.1, 0.2, 0.4]
    assert loocv_bandwidth(curve, 1, candidates) == 0.05


def test_loocv_noise_increases_bandwidth():
    grid = np.linspace(0.0, 1.0, 101)
    smooth = np.sin(2 * np.pi * grid)
    rng = np.random.default_rng(7)
    noisy = rng.standard_normal(grid.size)
    candidates = list(default_loocv_candidates(DiscreteCurve(grid, smooth)))
    h_smooth = loocv_bandwidth(DiscreteCurve(grid, smooth), 1, candidates)
    h_noisy = loocv_bandwidth(DiscreteCurve(grid, noisy), 1, candidates)
    assert h_noisy > h_smooth


def test_default_loocv_candidates_stay_off_the_gap_lattice():
    # a candidate of a whole number of gaps puts a neighbour on a uniform grid
    # at |u| = 1, where its kernel weight is rounding noise
    for r in range(4, 2002):
        grid = np.linspace(0.0, 1.0, r)
        curve = DiscreteCurve(grid, grid)
        for h in default_loocv_candidates(curve):
            k = int(round(h / curve.max_gap))
            for j in range(max(k - 1, 1), min(k + 2, r)):
                u = (grid[j:] - grid[:-j]) / h
                assert np.abs(u - 1.0).min() > 1e-9, (r, h, j)


def test_loocv_tie_prefers_smaller():
    # every leave-one-out window holds one neighbour under both candidates,
    # so both predict the neighbour's value exactly and their errors tie
    grid = np.array([0.0, 0.05, 0.5, 0.55, 0.95, 1.0])
    curve = DiscreteCurve(grid, np.array([1.0, -2.0, 0.5, 3.0, -1.0, 2.0]))
    assert loocv_bandwidth(curve, 0, [0.2, 0.1]) == 0.1
    assert dense_loocv_bandwidth(curve, 0, [0.2, 0.1]) == 0.1


def test_loocv_all_singular():
    grid = np.linspace(0.0, 1.0, 11)
    curve = DiscreteCurve(grid, grid)
    with pytest.raises(AllCandidatesSingular):
        loocv_bandwidth(curve, 2, [0.01])  # window holds self only


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
    w = EPANECHNIKOV(u)
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


def _raised(fn, curve, cfg, eval_points):
    try:
        fn(curve, cfg, eval_points)
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
def test_windowed_fit_matches_dense_oracle(seed, r, degree_deriv, loo, gaps):
    degree, deriv = degree_deriv
    rng = np.random.default_rng(seed)
    grid = _jittered_grid(rng, r)
    values = rng.standard_normal(r).cumsum()
    curve = DiscreteCurve(grid, values)
    # gaps < 0.5 puts h below half of every grid gap; 1e6 caps h at 1.0
    h = min(gaps * np.diff(grid).min(), 1.0)
    pts = np.concatenate((rng.random(15), grid, grid - h, grid + h))
    cfg = SmootherConfig(bandwidth=h, degree=degree, deriv_order=deriv)

    new = _windowed_fit(grid, values, [h], pts, degree, deriv, loo)[0]
    old = dense_local_poly_chunk(grid, values, cfg, pts, loo)
    checked = _assert_fits_agree(new, old, grid, h, pts, degree, deriv, loo, np.abs(values).max())

    public, dense = (
        (nadaraya_watson, dense_nadaraya_watson) if degree == 0 else (local_poly, dense_local_poly)
    )
    if checked:
        assert _raised(public, curve, cfg, pts) == _raised(dense, curve, cfg, pts)


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
    preds = _windowed_fit(grid, values, candidates, grid, degree, loo=True)
    checked = True
    for h, row in zip(candidates, preds):
        old = dense_local_poly_chunk(grid, values, SmootherConfig(h, degree), grid, loo=True)
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
            loocv_bandwidth(curve, degree, candidates)
        return
    assert loocv_bandwidth(curve, degree, candidates) == expected


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
    shared = _windowed_fits(grid, values, bandwidths, pts, degrees, loo=loo)
    for degree, fits in zip(degrees, shared):
        alone = _windowed_fit(grid, values, bandwidths, pts, degree, loo=loo)
        assert fits.tobytes() == alone.tobytes()
    if loo:
        curve = DiscreteCurve(grid, values)
        try:
            expected = [loocv_bandwidth(curve, d, bandwidths) for d in degrees]
        except AllCandidatesSingular:
            with pytest.raises(AllCandidatesSingular):
                loocv_bandwidths(curve, degrees, bandwidths)
            return
        assert loocv_bandwidths(curve, degrees, bandwidths) == expected


@pytest.mark.parametrize("noise, seed", [(0.1, 3), (0.4, 5)])
def test_loocv_matches_dense_oracle_on_noisy_model1(noise, seed):
    # the library and the dense reference pick the same bandwidths from the
    # default ladder, fit for fit
    bundle = make_truth_bundle(
        LatentModelConfig("model1", grid_size=101, noise_halfwidth=noise), WarpLawConfig(), 100, seed
    )
    for curve in bundle.observed:
        candidates = default_loocv_candidates(curve)
        expected = [dense_loocv_bandwidth(curve, d, candidates) for d in (0, 1, 2)]
        for degree in (0, 1, 2):
            assert loocv_bandwidth(curve, degree, candidates) == expected[degree]
        assert loocv_bandwidths(curve, (2, 1, 0), candidates) == expected[::-1]


# --- monotone warp smoothing --------------------------------------------------

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
