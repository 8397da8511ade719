import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import (
    per_curve_evaluate_against_truth,
    per_curve_rate_check,
    per_curve_scores,
    per_curve_truth_bundle,
    per_curve_truth_errors,
    per_curve_z_statistic,
    z_statistic_whole,
)
from varireg import diagnostics
from varireg.diagnostics import (
    evaluate_against_truth,
    rate_check,
    rate_grid_size,
    truth_errors,
    z_statistic,
)
from varireg.errors import VariregError, ZeroVariation
from varireg.fpca import covariance_matrix, cross_sectional_mean, leading_eigenpairs, scores
from varireg.registration import (
    RegisterOptions,
    RegistrationResult,
    WarpMap,
    register_complete,
    register_discrete,
)
from varireg.simulate import (
    LatentModelConfig,
    TruthBundle,
    WarpLawConfig,
    invert_warps,
    make_truth_bundle,
    sample_latent,
    substream,
    true_variation_cdf,
)
from varireg.variation import DiscreteCurve, discrete_variation_cdf, generalized_inverse

from test_registration import fisher_pair, linear_phi

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


# --- z_statistic ---------------------------------------------------------------

def test_z_rank1_equal_coefficients_zero():
    grid = np.linspace(0.0, 1.0, 201)
    phi = np.exp(np.cos(2 * np.pi * grid - np.pi))
    curves = [DiscreteCurve(grid, 1.7 * phi) for _ in range(5)]
    z = z_statistic(curves)
    np.testing.assert_allclose(z, 0.0, atol=1e-10)


def test_z_zero_mean_branch_eta_zero():
    # two components but the second has zero variance: every projection is a multiple of phi1, so Z = 0
    grid = np.linspace(0.0, 1.0, 201)
    phi1 = math.sqrt(2) * np.sin(np.pi * grid)
    rng = np.random.default_rng(3)
    a = rng.standard_normal(12)
    a -= a.mean()  # zero-mean scores: the sample mean is (numerically) flat
    curves = [DiscreteCurve(grid, ai * phi1) for ai in a]
    info = {}
    z = z_statistic(curves, mean_mode="force_zero_deriv", info=info)
    assert info["branch"].startswith("zero_mean")
    np.testing.assert_allclose(z, 0.0, atol=1e-8)


def test_z_zero_mean_branch_above_2048_grid_points():
    # the eigenfunctions live on the curves' whole grid, however fine
    grid = np.linspace(0.0, 1.0, 3001)
    coefs = np.random.default_rng(9).standard_normal((6, 2))
    curves = [
        DiscreteCurve(grid, a * np.sin(2 * np.pi * grid) + b * np.cos(2 * np.pi * grid))
        for a, b in coefs
    ]
    info = {}
    z = z_statistic(curves, mean_mode="force_zero_deriv", info=info)
    assert info["branch"] == "zero_mean"
    assert z.shape == (6,) and ((z >= 0.0) & (z <= 2.0)).all()
    _same(z, per_curve_z_statistic(curves, "force_zero_deriv"))


def test_z_breakdown_quadrature_oracle():
    # analytic sample from the rank-2 family; module works on a dense grid,
    # the oracle integrates analytic derivatives on 1e5+1 quadrature points
    cfg = LatentModelConfig("breakdown", c=2.0, r_scale=0.01)
    n = 50
    coefs = np.array(
        [sample_latent(cfg, substream(404, i)).coefficients for i in range(n)]
    )
    grid = np.linspace(0.0, 1.0, 2001)
    phi1 = math.sqrt(2) * np.sin(np.pi * grid)
    phi2 = math.sqrt(2) * np.cos(2 * np.pi * grid)
    curves = [DiscreteCurve(grid, c1 * phi1 + c2 * phi2) for c1, c2 in coefs]

    u = np.linspace(0.0, 1.0, 100_001)
    d1 = math.sqrt(2) * np.pi * np.cos(np.pi * u)
    d2 = -math.sqrt(2) * 2 * np.pi * np.sin(2 * np.pi * u)
    derivs = coefs[:, 0][:, None] * d1[None, :] + coefs[:, 1][:, None] * d2[None, :]
    mu_deriv = derivs.mean(axis=0)
    du = u[1] - u[0]

    def trapz(f):
        return float(np.sum((f[1:] + f[:-1]) / 2.0) * du)

    mu_density = np.abs(mu_deriv) / trapz(np.abs(mu_deriv))
    oracle = np.array(
        [trapz(np.abs(np.abs(d) / trapz(np.abs(d)) - mu_density)) for d in derivs]
    )
    z = z_statistic(curves)
    np.testing.assert_allclose(z, oracle, atol=1e-6)


@pytest.mark.parametrize("seed", range(5))
def test_z_reads_rank_one_latent_samples_as_zero(seed):
    # rank-one models: every local variation density is the mean's, so the TV is 0
    def latent(name, **kw):
        cfg = LatentModelConfig(name, grid_size=101, **kw)
        return make_truth_bundle(cfg, WarpLawConfig(), 100, seed).latent

    for name in ("model1", "model2"):
        curves = latent(name)
        for mean_mode in ("auto", "force_zero_deriv"):
            assert z_statistic(curves, mean_mode).max() <= 1e-10, (name, mean_mode)
    # a small second component departs less from rank one than a large one
    near = np.median(z_statistic(latent("breakdown", c=2.0, r_scale=0.01)))
    far = np.median(z_statistic(latent("breakdown", c=0.1, r_scale=0.3)))
    assert near < far


def test_z_range_invariant(rng):
    grid = np.linspace(0.0, 1.0, 101)
    curves = [
        DiscreteCurve(grid, np.cumsum(rng.standard_normal(grid.size)) + 5.0)
        for _ in range(8)
    ]
    z = z_statistic(curves)
    assert (z >= 0.0).all() and (z <= 2.0).all()


def test_z_degenerate_curve_raises():
    grid = np.linspace(0.0, 1.0, 21)
    curves = [DiscreteCurve(grid, grid), DiscreteCurve(grid, np.full(21, 2.0))]
    with pytest.raises(ZeroVariation):
        z_statistic(curves)


# --- evaluate_against_truth -------------------------------------------------------

def _snap_warp(grid, values):
    v = np.clip(np.maximum.accumulate(values), 0.0, 1.0)
    v[0], v[-1] = 0.0, 1.0
    return WarpMap(grid, v)


def _truth_as_result(bundle):
    grid = bundle.grid
    warps = [_snap_warp(grid, bundle.warp_values(i, grid)) for i in range(bundle.n)]
    inv = [_snap_warp(grid, row) for row in invert_warps(bundle.warps, grid)]
    return RegistrationResult(
        warps=warps,
        inverse_warps=inv,
        template_cdf=bundle.f_phi,
        template_quantile=generalized_inverse(bundle.f_phi),
        registered=list(bundle.latent),
        mean=cross_sectional_mean(bundle.latent),
        regime="discrete",
    )


def test_evaluate_truth_against_itself_zero_seeking():
    cfg = LatentModelConfig("model1", grid_size=101)
    bundle = make_truth_bundle(cfg, WarpLawConfig(), 6, seed=21)
    report = evaluate_against_truth(_truth_as_result(bundle), bundle)
    gap = 1.0 / 100
    assert report.warp_sup_errors.max() <= gap  # linear interp between samples
    assert report.curve_rel_L2_errors.max() <= 1e-12
    assert report.mean_sup_error <= 1e-12
    assert report.dW2_template_to_target <= 1e-12
    assert report.explained_ratios[0] >= 0.99


def test_evaluate_fisher_pair_warp_errors():
    r = 2001
    grid, warps_true, curves = fisher_pair(r)
    result = register_complete(curves, output_grid=grid)

    latent = [DiscreteCurve(grid, x * linear_phi(grid)) for x in (1.3, 0.8)]
    truth = TruthBundle(grid, latent, curves, warps_true, np.zeros((2, 1)))
    report = evaluate_against_truth(result, truth)
    assert report.warp_sup_errors.max() <= 2.0 / r


def test_evaluate_breakdown_c2_error_small():
    cfg = LatentModelConfig("breakdown", grid_size=101, c=2.0, r_scale=0.01)
    rels = []
    for s in range(5):
        bundle = make_truth_bundle(cfg, WarpLawConfig(), 50, seed=600 + s)
        result = register_discrete(bundle.observed)
        report = evaluate_against_truth(result, bundle)
        rels.extend(report.curve_rel_L2_errors.tolist())
    assert np.median(rels) <= 0.15


# --- batched diagnostics against their per-curve oracles ---------------------------


def _outcome(fn, *args, **kwargs):
    """fn's result, or its error as (type, message, curve_id)."""
    try:
        return fn(*args, **kwargs)
    except (VariregError, ValueError) as err:
        return (type(err), str(err), getattr(err, "curve_id", None))


def _same(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        assert isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    elif isinstance(a, dict):
        assert a.keys() == b.keys()
        for k in a:
            _same(a[k], b[k])
    else:
        assert a == b or (a != a and b != b), (a, b)


@st.composite
def common_grid_samples(draw):
    """Curves on one grid, n = 1..6: random walks of mixed scales, rank-1
    samples, +-pairs (an exactly flat mean), repeats, and constant curves."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    r = draw(st.integers(3, 30))
    if draw(st.booleans()):
        grid = np.linspace(0.0, 1.0, r)
    else:
        grid = np.unique(np.concatenate(([0.0, 1.0], rng.random(r))))
    n = draw(st.integers(1, 6))
    shape = draw(st.sampled_from(["walks", "rank1", "plus_minus", "identical", "one_constant", "constant"]))

    def walk():
        return np.cumsum(rng.standard_normal(grid.size)) * 10.0 ** rng.uniform(-2, 1)

    if shape == "walks":
        rows = [walk() for _ in range(n)]
    elif shape == "rank1":
        phi = walk()
        rows = [rng.normal(1.5, 1.0) * phi for _ in range(n)]
    elif shape == "plus_minus":
        half = [walk() for _ in range((n + 1) // 2)]
        rows = (half + [-x for x in half])[: max(n, 2)]
    elif shape == "identical":
        rows = [walk()] * n
    else:
        rows = [walk() for _ in range(n)]
        rows[int(rng.integers(0, n))] = np.full(grid.size, 2.5)
        if shape == "constant":
            rows = [np.full(grid.size, float(k)) for k in range(n)]
    return [DiscreteCurve(grid, x) for x in rows]


@given(common_grid_samples(), st.sampled_from(["auto", "force_zero_deriv"]))
def test_z_statistic_matches_per_curve_oracle(curves, mean_mode):
    info, ref_info = {}, {}
    got = _outcome(z_statistic, curves, mean_mode, info=info)
    _same(got, _outcome(per_curve_z_statistic, curves, mean_mode, info=ref_info))
    _same(info, ref_info)


@pytest.mark.parametrize(
    "mean_mode, branch",
    [("auto", "mean_deriv"), ("force_zero_deriv", "zero_mean"), ("auto", "zero_mean"),
     ("force_zero_deriv", "zero_mean_degenerate")],
)
def test_z_statistic_branches_match_per_curve_oracle(mean_mode, branch):
    grid = np.linspace(0.0, 1.0, 41)
    rng = np.random.default_rng(4)
    rows = [np.cumsum(rng.standard_normal(grid.size)) for _ in range(4)]
    rows[1] = rows[1] * 1e-3
    if branch == "zero_mean" and mean_mode == "auto":
        rows = rows[:2] + [-rows[0], -rows[1]]  # the mean is exactly 0
    if branch == "zero_mean_degenerate":
        rows = [rows[0]] * 2  # the mean is exactly the curve: covariance 0
    curves = [DiscreteCurve(grid, x) for x in rows]
    info, ref_info = {}, {}
    got = z_statistic(curves, mean_mode, info=info)
    _same(got, per_curve_z_statistic(curves, mean_mode, info=ref_info))
    _same(info, ref_info)
    assert info["branch"] == branch


@given(common_grid_samples(), st.sampled_from(["auto", "force_zero_deriv"]), st.sampled_from([1, 2, 5, None]))
def test_z_statistic_in_row_blocks_matches_the_whole_sample_form(curves, mean_mode, rows):
    info, ref_info = {}, {}
    cells = diagnostics._BLOCK_CELLS if rows is None else rows * curves[0].grid.size
    with mock.patch.object(diagnostics, "_BLOCK_CELLS", cells):
        got = _outcome(z_statistic, curves, mean_mode, info=info)
    _same(got, _outcome(z_statistic_whole, curves, mean_mode, info=ref_info))
    _same(info, ref_info)


@pytest.mark.parametrize(
    "mean_mode, branch",
    [("auto", "mean_deriv"), ("force_zero_deriv", "zero_mean"), ("auto", "zero_mean")],
)
@pytest.mark.parametrize("rows", [1, 3])
def test_z_statistic_branches_in_row_blocks_match_the_whole_sample_form(mean_mode, branch, rows):
    # 7 curves, or 6 with a flat mean for auto's zero_mean, in blocks of 1 and 3 rows
    grid = np.linspace(0.0, 1.0, 41)
    rng = np.random.default_rng(5)
    x = np.cumsum(rng.standard_normal((7, grid.size)), axis=1)
    if branch == "zero_mean" and mean_mode == "auto":
        x = np.concatenate((x[:3], -x[:3]))
    curves = [DiscreteCurve(grid, row) for row in x]
    info, ref_info = {}, {}
    with mock.patch.object(diagnostics, "_BLOCK_CELLS", rows * grid.size):
        got = z_statistic(curves, mean_mode, info=info)
    _same(got, z_statistic_whole(curves, mean_mode, info=ref_info))
    assert info == ref_info == {"branch": branch}


@given(common_grid_samples(), st.integers(0, 2**32 - 1))
def test_scores_match_per_curve_oracle(curves, seed):
    grid = curves[0].grid
    phi = np.random.default_rng(seed).standard_normal(grid.size)
    _same(scores(curves, phi, grid), per_curve_scores(curves, phi, grid))
    if len(curves) >= 2 and not np.all([np.ptp(c.values) == 0 for c in curves]):
        eig = leading_eigenpairs(covariance_matrix(curves), grid, 2)
        for f in eig.eigenfunctions:
            _same(scores(curves, f, grid), per_curve_scores(curves, f, grid))


@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 7),
    st.integers(1, 40),
    st.sampled_from([1, 7, 100, None]),
)
def test_truth_errors_match_per_curve_oracle(seed, n, width, block_cells):
    rng = np.random.default_rng(seed)
    grid = np.unique(np.concatenate(([0.0, 1.0], rng.random(int(rng.integers(1, 20))))))
    est, true = rng.random((n, width)), rng.random((n, width))
    true[: n // 2] = est[: n // 2]  # exact warps: error 0
    registered = rng.standard_normal((n, grid.size))
    latent = rng.standard_normal((n, grid.size))
    latent[0] = 0.0  # a zero truth curve: the relative error divides by 1e-300
    mean = DiscreteCurve(grid, rng.standard_normal(grid.size))
    cells = diagnostics._BLOCK_CELLS if block_cells is None else block_cells
    with mock.patch.object(diagnostics, "_BLOCK_CELLS", cells):
        got = truth_errors(lambda rows: (est[rows], true[rows]), width, registered, latent, mean)
    want = per_curve_truth_errors(
        zip(est, true),
        [DiscreteCurve(grid, x) for x in registered],
        [DiscreteCurve(grid, x) for x in latent],
        mean,
    )
    for a, b in zip(got, want, strict=True):
        _same(a, b)


def _assert_same_report(got, want):
    for field in vars(want):
        _same(getattr(got, field), getattr(want, field))


def _short_grids(curves, rng):
    """Each curve on its own subset of its grid, as read from a long CSV;
    some stop short of 1, which gives their warps their own sample points."""
    out = []
    for c in curves:
        keep = rng.random(c.grid.size) < 0.7
        keep[0] = True
        keep[-1] = rng.random() < 0.6
        if keep.sum() < 3:
            keep[:3] = True
        out.append(DiscreteCurve(c.grid[keep], c.values[keep]))
    return out


@given(
    st.integers(0, 2**16),
    st.sampled_from([1, 2, 3, 5]),
    st.sampled_from([21, 40]),
    st.booleans(),
    st.booleans(),
    st.booleans(),
)
def test_evaluate_against_truth_matches_per_curve_oracle(seed, n, r, identity, own_grids, smooth):
    cfg = LatentModelConfig("model1", grid_size=r)
    bundle = make_truth_bundle(cfg, None if identity else WarpLawConfig(), n, seed)
    curves = bundle.observed
    if own_grids:
        curves = _short_grids(curves, np.random.default_rng(seed))
    result = register_discrete(curves, RegisterOptions(smooth_warps=smooth))
    _assert_same_report(
        evaluate_against_truth(result, bundle), per_curve_evaluate_against_truth(result, bundle)
    )


def test_diagnostics_tall_match_oracle_and_permutation():
    bundle = make_truth_bundle(LatentModelConfig("model1", grid_size=201), WarpLawConfig(), 1000, 17)
    res = register_discrete(bundle.observed)
    report = evaluate_against_truth(res, bundle)
    _assert_same_report(report, per_curve_evaluate_against_truth(res, bundle))
    eig = leading_eigenpairs(covariance_matrix(res.registered), res.output_grid, 3)
    s = [scores(res.registered, f, eig.grid) for f in eig.eigenfunctions]

    perm = np.random.default_rng(3).permutation(bundle.n)
    shuffled = TruthBundle(
        bundle.grid,
        [bundle.latent[i] for i in perm],
        [bundle.observed[i] for i in perm],
        [bundle.warps[i] for i in perm],
        bundle.coefficients[perm],
        bundle.f_phi,
    )
    res_p = register_discrete(shuffled.observed)
    report_p = evaluate_against_truth(res_p, shuffled)
    for field in ("z_stats", "warp_sup_errors", "curve_rel_L2_errors"):
        _same(getattr(report_p, field), getattr(report, field)[perm])
    for field in ("explained_ratios", "dW2_template_to_target", "mean_sup_error", "flags"):
        _same(getattr(report_p, field), getattr(report, field))
    for f, row in zip(eig.eigenfunctions, s):
        _same(scores(res_p.registered, f, eig.grid), row[perm])
    _same(z_statistic(res_p.registered, "force_zero_deriv"),
          z_statistic(res.registered, "force_zero_deriv")[perm])


# --- rate_check --------------------------------------------------------------------

def test_rate_grid_size():
    assert rate_grid_size(25) == 1 + math.ceil(25**1.2)


def test_rate_check_identity_warps_flagged():
    cfg = LatentModelConfig("model1")
    out = rate_check(cfg, None, ns=[10, 20], reps=3, seed=5)
    assert out.flag == "at_discretization_floor"
    assert out.slope is None
    assert (out.means > 0).all() and np.isfinite(out.means).all()


def test_rate_check_smoke_slope():
    cfg = LatentModelConfig("model1")
    out = rate_check(cfg, WarpLawConfig(), ns=[25, 50, 100], reps=10, seed=77)
    assert out.flag is None
    assert -1.6 <= out.slope <= -0.4
    assert (out.means > 0).all()


def test_rate_check_rep_extension_stable():
    cfg = LatentModelConfig("model1")
    short = rate_check(cfg, WarpLawConfig(), ns=[25, 50], reps=6, seed=13)
    long = rate_check(cfg, WarpLawConfig(), ns=[25, 50], reps=12, seed=13)
    for a in range(2):
        se = max(short.std_errors[a], long.std_errors[a])
        assert abs(short.means[a] - long.means[a]) <= 3.0 * se


def test_rate_check_matches_per_curve_simulator(monkeypatch):
    """The batched simulator leaves the rate check's means and slope bit for bit."""
    cfg = LatentModelConfig("model1")
    got = rate_check(cfg, WarpLawConfig(), ns=[25, 50], reps=3, seed=41, dense_r=2000)

    def per_curve(cfg, warp_cfg, n, seed, stream_offset=0, dense_r=4096):
        return per_curve_truth_bundle(cfg, warp_cfg, n, seed, stream_offset)

    monkeypatch.setattr(diagnostics, "make_truth_bundle", per_curve)
    ref = rate_check(cfg, WarpLawConfig(), ns=[25, 50], reps=3, seed=41, dense_r=2000)
    assert ref.slope is not None
    assert got.means.tobytes() == ref.means.tobytes()
    assert got.std_errors.tobytes() == ref.std_errors.tobytes()
    assert got.slope == ref.slope


@pytest.mark.parametrize(
    "model, warp_cfg, ns, reps, seed",
    [("model1", WarpLawConfig(), [25, 50], 3, 41), ("model2", WarpLawConfig(), [10, 30, 60], 3, 9)],
)
def test_rate_check_matches_per_curve_template(model, warp_cfg, ns, reps, seed):
    """The batched template gives the rate check the bits of the per-curve one."""
    cfg = LatentModelConfig(model)
    got = rate_check(cfg, warp_cfg, ns, reps, seed, dense_r=2000)
    ref = per_curve_rate_check(cfg, warp_cfg, ns, reps, seed, dense_r=2000)
    assert ref.slope is not None
    assert got.means.tobytes() == ref.means.tobytes()
    assert got.std_errors.tobytes() == ref.std_errors.tobytes()
    assert got.slope == ref.slope and got.flag == ref.flag
    assert (got.ns, got.grid_sizes) == (ref.ns, ref.grid_sizes)
