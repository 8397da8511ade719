import math

import numpy as np
import pytest

from oracles import per_curve_truth_bundle
from varireg import diagnostics
from varireg.diagnostics import (
    evaluate_against_truth,
    rate_check,
    rate_grid_size,
    z_statistic,
)
from varireg.errors import ZeroVariation
from varireg.fpca import cross_sectional_mean
from varireg.registration import (
    RegistrationResult,
    WarpMap,
    register_complete,
    register_discrete,
)
from varireg.simulate import (
    LatentModelConfig,
    WarpLawConfig,
    invert_warps,
    make_truth_bundle,
    sample_latent,
    substream,
    true_variation_cdf,
)
from varireg.variation import DiscreteCurve, discrete_variation_cdf, generalized_inverse

from test_registration import fisher_pair, linear_phi


# --- z_statistic ---------------------------------------------------------------

def test_z_rank1_equal_coefficients_zero():
    grid = np.linspace(0.0, 1.0, 201)
    phi = np.exp(np.cos(2 * np.pi * grid - np.pi))
    curves = [DiscreteCurve(grid, 1.7 * phi) for _ in range(5)]
    z = z_statistic(curves)
    np.testing.assert_allclose(z, 0.0, atol=1e-10)


def test_z_zero_mean_branch_eta_zero():
    # two components but the second has zero variance: eta = 0 forces Z = 0
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

    oracle = np.array(
        [2.0 * trapz(np.abs(derivs[i] - mu_deriv)) / trapz(np.abs(derivs[i])) for i in range(n)]
    )
    z = z_statistic(curves)
    assert abs(np.median(z) - np.median(oracle)) <= 1e-3
    np.testing.assert_allclose(z, oracle, atol=5e-3)


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

    class _Bundle:
        n = 2
        f_phi = None

        def __init__(self):
            self.grid = grid
            self.latent = [
                DiscreteCurve(grid, x * linear_phi(grid)) for x in (1.3, 0.8)
            ]

        def warp_values(self, i, t):
            return warps_true[i](t)

    report = evaluate_against_truth(result, _Bundle())
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
