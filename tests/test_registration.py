import math
import tracemalloc

import numpy as np
import pytest

from varireg.errors import EmptySample, NonMonotoneInput, ZeroVariation
from varireg.fpca import cross_sectional_mean
from varireg.registration import (
    NoisyOptions,
    RegisterOptions,
    WarpMap,
    boundary_extend,
    estimate_warps_discrete,
    register_complete,
    register_discrete,
    register_noisy,
)
from varireg.simulate import (
    LatentModelConfig,
    WarpLawConfig,
    make_truth_bundle,
    substream,
)
from varireg.variation import DiscreteCurve, discrete_variation_cdf

from conftest import random_step_cdf
from oracles import SineWarp, pairwise_warp_oracle


SQRT3 = math.sqrt(3.0)


def linear_phi(t):
    return SQRT3 * (2.0 * np.asarray(t) - 1.0)


def fisher_pair(r, xi=(1.3, 0.8)):
    """Two warped copies of a strictly monotone rank-1 curve; mean warp is Id."""
    grid = np.linspace(0.0, 1.0, r)
    warps = [SineWarp(-0.1, 2), SineWarp(0.1, 2)]
    curves = [
        DiscreteCurve(grid, x * linear_phi(w.inverse(grid)))
        for x, w in zip(xi, warps)
    ]
    return grid, warps, curves


# --- boundary_extend -----------------------------------------------------------

def test_boundary_noop_when_grid_reaches_one():
    t = np.linspace(0.0, 1.0, 11)
    v = t**2
    v[-1] = 1.0
    warp = boundary_extend(t, v, 1.0)
    np.testing.assert_array_equal(warp.sample_t, t)
    np.testing.assert_array_equal(warp.sample_v, v)


def test_boundary_appends_knots():
    t = np.linspace(0.0, 0.98, 50)
    v = t.copy()
    warp = boundary_extend(t, v, 0.98)
    assert warp.sample_t[-2:].tolist() == [0.98, 1.0]
    assert warp.sample_v[-2:].tolist() == [0.98, 1.0]
    assert warp(0.99) == pytest.approx(0.99)


def test_boundary_identity_passthrough():
    t = np.linspace(0.0, 1.0, 21)
    warp = boundary_extend(t, t, 1.0)
    np.testing.assert_array_equal(warp.sample_v, t)


def test_boundary_rejects_decreasing():
    with pytest.raises(NonMonotoneInput):
        boundary_extend([0.0, 0.5, 1.0], [0.0, 0.6, 0.4], 1.0)


def test_warpmap_validation():
    with pytest.raises(ValueError):
        WarpMap(np.array([0.0, 0.5]), np.array([0.0, 0.5]))  # must end at 1


# --- estimate_warps_discrete ------------------------------------------------------

def test_identical_cdfs_give_identity_warps():
    r = 101
    grid = np.linspace(0.0, 1.0, r)
    phi = np.exp(np.cos(2 * np.pi * grid - np.pi))
    cdf = discrete_variation_cdf(DiscreteCurve(grid, phi)).cdf
    _, _, warps, inv_warps = estimate_warps_discrete([cdf] * 5, grid)
    gap = 1.0 / (r - 1)
    for w in warps + inv_warps:
        assert np.abs(w(grid) - grid).max() <= gap + 1e-12


def test_single_cdf_identity():
    r = 51
    grid = np.linspace(0.0, 1.0, r)
    cdf = discrete_variation_cdf(DiscreteCurve(grid, np.sin(3 * grid) + 2 * grid)).cdf
    _, _, warps, _ = estimate_warps_discrete([cdf], grid)
    assert np.abs(warps[0](grid) - grid).max() <= 1.0 / (r - 1) + 1e-12


def test_fisher_consistency_fine_grid():
    r = 2001
    grid, warps_true, curves = fisher_pair(r)
    cdfs = [discrete_variation_cdf(c).cdf for c in curves]
    _, _, warps, _ = estimate_warps_discrete(cdfs, grid)
    dense = np.linspace(0.0, 1.0, 4001)
    for west, wtrue in zip(warps, warps_true):
        assert np.abs(west(dense) - wtrue(dense)).max() <= 2.0 / r


def test_fisher_consistency_rate_in_r():
    errs = {}
    for r in (501, 1001, 2001):
        grid, warps_true, curves = fisher_pair(r)
        cdfs = [discrete_variation_cdf(c).cdf for c in curves]
        _, _, warps, _ = estimate_warps_discrete(cdfs, grid)
        dense = np.linspace(0.0, 1.0, 4001)
        errs[r] = max(
            np.abs(w(dense) - wt(dense)).max() for w, wt in zip(warps, warps_true)
        )
    assert errs[501] / errs[1001] == pytest.approx(2.0, rel=0.5)
    assert errs[1001] / errs[2001] == pytest.approx(2.0, rel=0.5)


def test_estimate_warps_empty():
    with pytest.raises(EmptySample):
        estimate_warps_discrete([], np.linspace(0, 1, 5))


# --- register_discrete -------------------------------------------------------------

def test_register_identical_curves():
    r = 101
    grid = np.linspace(0.0, 1.0, r)
    curve = DiscreteCurve(grid, np.exp(np.cos(2 * np.pi * grid - np.pi)))
    result = register_discrete([curve] * 4)
    gap = 1.0 / (r - 1)
    for w in result.warps:
        assert np.abs(w(grid) - grid).max() <= gap + 1e-12
    # registered values track the common curve within one grid-cell modulus
    mod = np.abs(np.diff(curve.values)).max()
    interp = np.interp(result.output_grid, grid, curve.values)
    for reg in result.registered:
        assert np.abs(reg.values - interp).max() <= 2 * mod + 1e-12


def test_register_affine_invariance_bits(rng):
    grid = np.linspace(0.0, 1.0, 41)
    curves = []
    for _ in range(5):
        values = rng.integers(-40, 40, size=grid.size).astype(float)
        values[0] += 1.0 if np.abs(np.diff(values)).sum() == 0 else 0.0
        curves.append(DiscreteCurve(grid, values))
    a, b = -4.0, 17.0  # power-of-two scale and integer shift: exact in floats
    scaled = [DiscreteCurve(grid, a * c.values + b) for c in curves]
    res1 = register_discrete(curves)
    res2 = register_discrete(scaled)
    for w1, w2 in zip(res1.warps, res2.warps):
        np.testing.assert_array_equal(w1.sample_t, w2.sample_t)
        np.testing.assert_array_equal(w1.sample_v, w2.sample_v)
    for r1, r2 in zip(res1.registered, res2.registered):
        np.testing.assert_allclose(a * r1.values + b, r2.values, rtol=0, atol=1e-10)


def test_register_permutation_equivariance(rng):
    grid = np.linspace(0.0, 1.0, 61)
    curves = [
        DiscreteCurve(grid, np.cumsum(rng.standard_normal(grid.size))) for _ in range(6)
    ]
    res = register_discrete(curves)
    perm = [3, 0, 5, 1, 4, 2]
    res_p = register_discrete([curves[i] for i in perm])
    np.testing.assert_array_equal(
        res.template_cdf.jump_locations, res_p.template_cdf.jump_locations
    )
    np.testing.assert_array_equal(res.template_cdf.cum_values, res_p.template_cdf.cum_values)
    for i, j in enumerate(perm):
        np.testing.assert_array_equal(res.warps[j].sample_v, res_p.warps[i].sample_v)
        np.testing.assert_array_equal(res.registered[j].values, res_p.registered[i].values)
    np.testing.assert_array_equal(res.mean.values, res_p.mean.values)


def test_estimate_warps_invariants_at_a_million_points():
    # n * r ~ 1e6: a (points x n) template table would need ~7.8 GB here
    cfg = LatentModelConfig("model1", grid_size=1001)
    bundle = make_truth_bundle(cfg, WarpLawConfig(), 1000, seed=23)
    cdfs = [discrete_variation_cdf(c).cdf for c in bundle.observed]
    tracemalloc.start()
    try:
        template_cdf, template_q, warps, inverse_warps = estimate_warps_discrete(cdfs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 500e6
    assert template_cdf.cum_values[-1] == 1.0
    for w in warps + inverse_warps:
        assert w.sample_v[0] == 0.0 and w.sample_v[-1] == 1.0
        assert (np.diff(w.sample_v) >= 0).all()

    perm = np.random.default_rng(5).permutation(len(cdfs))
    cdf_p, q_p, warps_p, inverse_p = estimate_warps_discrete([cdfs[i] for i in perm])
    np.testing.assert_array_equal(q_p.breakpoints, template_q.breakpoints)
    np.testing.assert_array_equal(q_p.values, template_q.values)
    np.testing.assert_array_equal(cdf_p.jump_locations, template_cdf.jump_locations)
    np.testing.assert_array_equal(cdf_p.cum_values, template_cdf.cum_values)
    for i, j in enumerate(perm):
        np.testing.assert_array_equal(warps_p[i].sample_v, warps[j].sample_v)
        np.testing.assert_array_equal(inverse_p[i].sample_v, inverse_warps[j].sample_v)


def test_register_zero_variation_curve_id():
    grid = np.linspace(0.0, 1.0, 11)
    curves = [DiscreteCurve(grid, np.sin(grid) + grid), DiscreteCurve(grid, np.full(11, 2.0))]
    with pytest.raises(ZeroVariation) as err:
        register_discrete(curves)
    assert err.value.curve_id == 1


def test_register_model1_beats_warped_mean():
    cfg = LatentModelConfig("model1", grid_size=101)
    wins = 0
    seeds = 20
    for s in range(seeds):
        bundle = make_truth_bundle(cfg, WarpLawConfig(), 50, seed=1000 + s)
        result = register_discrete(bundle.observed)
        mu = 1.5 * cfg.basis()[0](result.output_grid)
        reg_err = np.abs(result.mean.values - mu).max()
        warped_mean = cross_sectional_mean(bundle.observed)
        mu_obs = 1.5 * cfg.basis()[0](bundle.grid)
        warp_err = np.abs(warped_mean.values - mu_obs).max()
        wins += reg_err < warp_err
    assert wins >= 0.9 * seeds


def test_register_warps_monotone_random(rng):
    for _ in range(10):
        grids = [np.linspace(0.0, 1.0, int(rng.integers(20, 60))) for _ in range(4)]
        curves = [
            DiscreteCurve(g, np.cumsum(rng.standard_normal(g.size))) for g in grids
        ]
        result = register_discrete(curves)
        for w in result.warps + result.inverse_warps:
            assert (np.diff(w.sample_v) >= 0).all()
            assert w.sample_v[0] == 0.0 and w.sample_v[-1] == 1.0


def test_register_per_curve_grids():
    rng = np.random.default_rng(4)
    grids = [
        np.linspace(0.0, 1.0, 41),
        np.unique(np.concatenate(([0.0, 1.0], rng.random(50)))),
    ]
    curves = [DiscreteCurve(g, np.exp(np.cos(2 * np.pi * g - np.pi))) for g in grids]
    result = register_discrete(curves)
    assert result.n == 2
    for reg in result.registered:
        assert np.array_equal(reg.grid, result.output_grid)


def test_register_smooth_warps_monotone():
    cfg = LatentModelConfig("model1", grid_size=41)
    bundle = make_truth_bundle(cfg, WarpLawConfig(), 8, seed=3)
    result = register_discrete(bundle.observed, RegisterOptions(smooth_warps=True))
    t = np.linspace(0.0, 1.0, 5001)
    for w in result.warps:
        vals = w(t)
        assert (np.diff(vals) >= -1e-12).all()


# --- register_complete ---------------------------------------------------------------

def test_complete_fisher_pair_recovers_curves():
    r = 2001
    grid, warps_true, curves = fisher_pair(r)
    xi = (1.3, 0.8)
    result = register_complete(curves, output_grid=grid)
    max_slope = 2.0 * SQRT3 * max(xi)
    for i, (w, wt) in enumerate(zip(result.warps, warps_true)):
        assert np.abs(w(grid) - wt(grid)).max() <= 2.0 / r
        latent = xi[i] * linear_phi(grid)
        assert np.abs(result.registered[i].values - latent).max() <= 4.0 / r * max_slope


def test_complete_single_curve_passthrough():
    r = 801
    grid = np.linspace(0.0, 1.0, r)
    curve = DiscreteCurve(grid, np.cos(2 * grid) + 3 * grid)
    result = register_complete([curve], output_grid=grid)
    cell = np.abs(np.diff(curve.values)).max()
    assert np.abs(result.registered[0].values - curve.values).max() <= 2 * cell


def test_complete_common_warp_registers_to_common_scale():
    r = 1001
    grid = np.linspace(0.0, 1.0, r)
    warp = SineWarp(0.08, 2)
    xi = (1.0, 1.7, 0.6)
    curves = [DiscreteCurve(grid, x * linear_phi(warp.inverse(grid))) for x in xi]
    result = register_complete(curves, output_grid=grid)
    for i, w in enumerate(result.warps):
        assert np.abs(w(grid) - grid).max() <= 3.0 / r  # mean warp equals each warp
        obs = curves[i].values
        assert np.abs(result.registered[i].values - obs).max() <= 3.0 / r * 2 * SQRT3 * max(xi)


# --- register_noisy --------------------------------------------------------------------

def test_noisy_close_to_discrete_when_noiseless():
    cfg = LatentModelConfig("model1", grid_size=101)
    sups = []
    for s in range(20):
        bundle = make_truth_bundle(cfg, WarpLawConfig(), 50, seed=500 + s)
        res_d = register_discrete(bundle.observed)
        res_n = register_noisy(bundle.observed, NoisyOptions())
        dense = np.linspace(0.0, 1.0, 1001)
        sup = max(
            np.abs(wd(dense) - wn(dense)).max()
            for wd, wn in zip(res_d.warps, res_n.warps)
        )
        sups.append(sup)
    assert np.median(sups) <= 0.05


def test_noisy_constant_curve_degenerate():
    grid = np.linspace(0.0, 1.0, 101)
    rng = np.random.default_rng(0)
    values = 3.0 + 1e-13 * rng.standard_normal(grid.size)
    with pytest.raises(ZeroVariation):
        register_noisy([DiscreteCurve(grid, values)], NoisyOptions(h1=0.1, h2=0.1, auto=False))


def test_noisy_options_validation():
    with pytest.raises(ValueError):
        NoisyOptions(auto=False, h1=0.1)  # h2 missing


# --- pairwise oracle ---------------------------------------------------------------------

def test_pairwise_single_curve_identity():
    grid = np.linspace(0.0, 1.0, 41)
    cdf = discrete_variation_cdf(DiscreteCurve(grid, np.sin(5 * grid) + grid)).cdf
    warp = pairwise_warp_oracle([cdf], 0, grid)
    assert np.abs(warp(grid) - grid).max() <= 1.0 / 40 + 1e-12


def test_pairwise_identical_cdfs_identity(rng):
    cdf = random_step_cdf(rng)
    grid = np.linspace(0.0, 1.0, 101)
    warp = pairwise_warp_oracle([cdf] * 4, 1, grid)
    gaps = np.diff(np.concatenate(([0.0], cdf.jump_locations, [1.0])))
    assert np.abs(warp(grid) - grid).max() <= gaps.max() + 1e-12


def test_pairwise_matches_mean_quantile_warp(rng):
    # curves observed on one shared grid, as in the pairwise construction
    for _ in range(10):
        shared = np.unique(np.concatenate(([0.0, 1.0], rng.random(25))))
        cdfs = []
        for _ in range(5):
            values = rng.standard_normal(shared.size)
            cdfs.append(discrete_variation_cdf(DiscreteCurve(shared, values)).cdf)
        merged = np.unique(
            np.concatenate([c.jump_locations for c in cdfs] + [np.array([0.0, 1.0])])
        )
        tol = np.diff(merged).max() + 1e-12
        grid = np.linspace(0.0, 1.0, 257)
        _, _, warps, _ = estimate_warps_discrete(cdfs, grid)
        for i in range(5):
            oracle = pairwise_warp_oracle(cdfs, i, grid)
            assert np.abs(oracle(grid) - warps[i](grid)).max() <= tol
