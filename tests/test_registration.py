import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from varireg.cli import main
from varireg.errors import EmptySample, EmptyWindow, NonMonotoneInput, VariregError, ZeroVariation
from varireg.fpca import cross_sectional_mean
from varireg.registration import (
    NoisyOptions,
    RegisterOptions,
    WarpMap,
    _extend_rows,
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
from oracles import (
    SineWarp,
    min_bandwidth,
    pairwise_warp_oracle,
    per_curve_estimate_warps,
    per_curve_register_complete,
    per_curve_register_discrete,
    per_curve_register_noisy,
)

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


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


# --- boundary extension ------------------------------------------------------

def boundary_extend(sample_t, sample_v, last_grid_point):
    """One warp's raw samples as a WarpMap on [0,1], through _extend_rows."""
    t = np.asarray(sample_t, dtype=float)
    return _extend_rows(t, np.asarray(sample_v, dtype=float)[None], np.array([last_grid_point]))[0]


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


def test_warp_samples_reject_nan():
    t = np.array([0.0, 0.5, 1.0])
    v = np.array([0.0, np.nan, 1.0])
    with pytest.raises(NonMonotoneInput):
        WarpMap(t, v)
    with pytest.raises(NonMonotoneInput):
        boundary_extend(t, v, 1.0)
    with pytest.raises(NonMonotoneInput):
        boundary_extend(t, v, 0.5)
    with pytest.raises(NonMonotoneInput):
        _extend_rows(t, np.stack([t, v]), np.array([1.0, 1.0]))


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


def test_register_overflowing_variation_names_the_curve():
    grid = np.linspace(0.0, 1.0, 5)
    curves = [
        DiscreteCurve(grid, np.sin(grid) + grid),
        DiscreteCurve(grid, [1e308, -1e308, 0.0, 1.0, 2.0]),
    ]
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="curve 1 overflows"):
        register_discrete(curves)


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
        register_noisy([DiscreteCurve(grid, values)], NoisyOptions(h1=0.1, h2=0.1))


def test_noisy_options_validation():
    # leave-one-out chooses both bandwidths or neither
    for given in ({"h1": 0.1}, {"h2": 0.1}):
        with pytest.raises(ValueError, match="both h1 and h2"):
            NoisyOptions(**given)


def test_noisy_given_bandwidths_are_used():
    bundle = make_truth_bundle(LatentModelConfig("model1", noise_halfwidth=0.1), WarpLawConfig(), 4, seed=2)
    result = register_noisy(bundle.observed, NoisyOptions(h1=0.3, h2=0.2))
    assert result.metadata["h1"] == [0.3] * 4 and result.metadata["h2"] == [0.2] * 4
    assert result.metadata["auto_bandwidth"] is False
    loo = register_noisy(bundle.observed).metadata
    assert loo["auto_bandwidth"] is True and loo["h1"] != [0.3] * 4


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


# --- batched pipelines against the per-curve oracle --------------------------------


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _assert_same_result(res, ref):
    assert res.regime == ref.regime and res.metadata == ref.metadata
    for got, want in ((res.warps, ref.warps), (res.inverse_warps, ref.inverse_warps)):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            _same_bits(g.sample_t, w.sample_t)
            _same_bits(g.sample_v, w.sample_v)
    _same_bits(res.template_cdf.jump_locations, ref.template_cdf.jump_locations)
    _same_bits(res.template_cdf.cum_values, ref.template_cdf.cum_values)
    _same_bits(res.template_quantile.breakpoints, ref.template_quantile.breakpoints)
    _same_bits(res.template_quantile.values, ref.template_quantile.values)
    assert len(res.registered) == len(ref.registered)
    for g, w in zip(res.registered + [res.mean], ref.registered + [ref.mean]):
        _same_bits(g.grid, w.grid)
        _same_bits(g.values, w.values)


def _outcome(fn, *args):
    """What ``fn`` returns, or the error it raises with the fields naming its cause."""
    try:
        return fn(*args)
    except (VariregError, ValueError) as err:
        fields = ("curve_id", "eval_point", "suggested_bandwidth")
        return (type(err), str(err)) + tuple(getattr(err, f, None) for f in fields)


def _assert_matches_oracle(fn, oracle, *args):
    got, want = _outcome(fn, *args), _outcome(oracle, *args)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert not isinstance(got, tuple), got
        _assert_same_result(got, want)


@st.composite
def noiseless_samples(draw, min_points=3):
    """Curves on one shared grid or on their own, possibly short of [0,1].

    Values are random walks, some on integers so that curves share levels;
    some curves have flat stretches (jumps of size 0, dropped from the CDF),
    flat tails (last jump before the grid ends: the warp is extended to 1),
    or no variation at all; some curves repeat.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shared = draw(st.booleans())

    def grid():
        r = int(rng.integers(min_points, min_points + 25))
        kind = draw(st.sampled_from(["uniform", "closed", "inner"]))
        if kind == "uniform":
            return np.linspace(0.0, 1.0, r)
        inner = np.unique(np.round(rng.random(r), int(rng.integers(2, 17))))
        if kind == "closed":
            inner = np.unique(np.concatenate(([0.0, 1.0], inner)))
        return inner if inner.size >= min_points else np.linspace(0.0, 1.0, min_points)

    common = grid()
    curves = []
    for _ in range(draw(st.integers(1, 6))):
        g = common if shared else grid()
        if draw(st.booleans()):
            v = np.cumsum(rng.integers(-3, 4, g.size)).astype(float)
        else:
            v = np.cumsum(rng.standard_normal(g.size))
        shape = draw(st.sampled_from(["plain", "stretch", "tail", "both"] * 3 + ["constant"]))
        if shape in ("stretch", "both"):
            a = int(rng.integers(0, g.size - 1))
            v[a:a + int(rng.integers(2, 6))] = v[a]
        if shape in ("tail", "both"):
            k = int(rng.integers(1, max(2, g.size // 2)))
            v[g.size - k:] = v[g.size - k - 1]
        if shape == "constant":
            v[:] = 1.5
        if np.abs(np.diff(v)).sum() == 0 and shape != "constant":
            v[1] += 1.0
        curves.append(DiscreteCurve(g, v))
    for _ in range(draw(st.integers(0, 2))):
        curves.append(curves[draw(st.integers(0, len(curves) - 1))])
    return curves


register_options = st.builds(
    RegisterOptions,
    bandwidth=st.sampled_from([None, None, 0.03, 0.2, 1.0]),
    smooth_warps=st.booleans(),
    n_knots=st.integers(2, 12),
    output_grid=st.sampled_from([None, None, 3, 40]).map(
        lambda k: None if k is None else np.linspace(0.0, 1.0, k)
    ),
)


@given(noiseless_samples(), register_options)
def test_register_discrete_matches_per_curve_oracle(curves, options):
    _assert_matches_oracle(register_discrete, per_curve_register_discrete, curves, options)


@given(noiseless_samples(), st.sampled_from([None, 7, 64]))
def test_register_complete_matches_per_curve_oracle(curves, size):
    grid = None if size is None else np.linspace(0.0, 1.0, size)
    _assert_matches_oracle(register_complete, per_curve_register_complete, curves, grid)


@given(
    noiseless_samples(min_points=10),
    st.sampled_from([0.2, 0.35, 0.5]),
    st.sampled_from([0.05, 0.1, 0.3]),
    st.sampled_from([16, 40]),
    st.floats(0.0, 0.3),
    st.booleans(),
)
def test_register_noisy_matches_per_curve_oracle(curves, h1, h2, deriv_size, noise, loo):
    # with loo, neither bandwidth is given: h1 and h2 come from each curve's leave-one-out ladder
    rng = np.random.default_rng(len(curves))
    curves = [
        DiscreteCurve(c.grid, c.values + noise * rng.standard_normal(c.grid.size))
        for c in curves
    ]
    if loo:
        h1 = h2 = None
    opts = NoisyOptions(h1=h1, h2=h2, deriv_grid_size=deriv_size)
    _assert_matches_oracle(register_noisy, per_curve_register_noisy, curves, opts)


def _noisy_walks(grids, seed):
    rng = np.random.default_rng(seed)
    return [DiscreteCurve(g, np.sin(6 * g) + 0.1 * rng.standard_normal(g.size)) for g in grids]


@pytest.mark.parametrize(
    "case", ["own_grids", "constant_then_all_singular", "all_singular_then_constant"]
)
def test_register_noisy_matches_per_curve_oracle_cases(case):
    rng = np.random.default_rng(6)
    # own_grids: curve 2's largest gap of 0.5 collapses its ladder to one value
    # (1.0), and the sample runs with the other curves' ladders of 12
    grids = [np.unique(np.concatenate(([0.0, 1.0], rng.random(k)))) for k in (40, 60, 10, 80)]
    grids[2] = np.concatenate((np.linspace(0.0, 0.5, 11), [1.0]))
    curves = _noisy_walks(grids, 1)
    if case != "own_grids":
        # 10 uniform points: 2.5 gaps hold two leave-one-out neighbours at
        # t = 0, too few for the local quadratic under the one candidate
        singular = _noisy_walks([np.linspace(0.0, 1.0, 10)], 2)[0]
        constant = DiscreteCurve(grids[0], np.full(grids[0].size, 2.5))
        pair = [constant, singular] if case.startswith("constant") else [singular, constant]
        curves = curves[:1] + pair + curves[1:]
    _assert_matches_oracle(register_noisy, per_curve_register_noisy, curves, NoisyOptions())
    if case == "own_grids":
        res = register_noisy(curves)
        assert res.metadata["h1"][2] == res.metadata["h2"][2] == 1.0


def test_register_noisy_model1_matches_oracle_and_permutation():
    bundle = make_truth_bundle(
        LatentModelConfig("model1", grid_size=101, noise_halfwidth=0.1), WarpLawConfig(), 100, seed=3
    )
    res = register_noisy(bundle.observed)
    _assert_same_result(res, per_curve_register_noisy(bundle.observed))
    perm = np.random.default_rng(2).permutation(len(bundle.observed))
    res_p = register_noisy([bundle.observed[i] for i in perm])
    _same_bits(res_p.template_quantile.values, res.template_quantile.values)
    _same_bits(res_p.mean.values, res.mean.values)
    assert res_p.metadata["h1"] == [res.metadata["h1"][j] for j in perm]
    for i, j in enumerate(perm):
        _same_bits(res_p.warps[i].sample_v, res.warps[j].sample_v)
        _same_bits(res_p.registered[i].values, res.registered[j].values)


def test_register_noisy_memory_runs_in_row_blocks():
    # one leave-one-out pass over the whole sample would hold every curve's
    # predictions for all 12 candidates and both degrees (about 14 MB here)
    bundle = make_truth_bundle(
        LatentModelConfig("model1", grid_size=101, noise_halfwidth=0.1), WarpLawConfig(), 100, seed=3
    )
    register_noisy(bundle.observed[:4])
    tracemalloc.start()
    try:
        register_noisy(bundle.observed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


_NOISY_DIGEST = """
import hashlib, sys
from varireg.registration import register_noisy
from varireg.simulate import LatentModelConfig, WarpLawConfig, make_truth_bundle
cfg = LatentModelConfig("model1", grid_size=101, noise_halfwidth=0.1)
res = register_noisy(make_truth_bundle(cfg, WarpLawConfig(), 40, 3).observed)
h = hashlib.sha256(repr(res.metadata).encode())
for w in res.warps + res.inverse_warps:
    h.update(w.sample_t.tobytes() + w.sample_v.tobytes())
for c in res.registered + [res.mean]:
    h.update(c.values.tobytes())
h.update(res.template_quantile.values.tobytes())
print(h.hexdigest())
"""


def _at_blas_threads(threads, argv):
    """``python argv`` with varireg's ``src`` on the path and OpenBLAS at ``threads`` threads."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_register_noisy_same_bytes_at_one_and_two_blas_threads():
    # the noisy kernel makes no BLAS or LAPACK call; its FPCA does
    digests = [_at_blas_threads(threads, ["-c", _NOISY_DIGEST]) for threads in ("1", "2")]
    assert digests[0] == digests[1] and len(digests[0].strip()) == 64


@pytest.mark.parametrize("n, r", [(200, 1001), (1000, 201)], ids=["200x1001", "1000x201"])
def test_register_discrete_same_fpca_bytes_at_one_and_two_blas_threads(n, r, tmp_path):
    # the SVD (n < r) and the eigh (n >= r) paths, at sizes where LAPACK and
    # matmul change bits with the OpenBLAS thread count unless it is pinned
    sim = tmp_path / "sim"
    argv = ["simulate", "--model", "model1", "--n", str(n), "--r", str(r), "--seed", "7", "--out", str(sim)]
    assert main(argv) == 0
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        _at_blas_threads(threads, ["-m", "varireg", "register", str(sim / "observed.csv"), "--out", str(out)])
        outputs.append([(out / name).read_bytes() for name in ("eigen.csv", "scores.csv")])
    assert outputs[0] == outputs[1]


@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.sampled_from([None, 2, 33]))
def test_estimate_warps_matches_per_curve_oracle(seed, n, grid_size):
    rng = np.random.default_rng(seed)
    cdfs = [random_step_cdf(rng) for _ in range(n)]
    cdfs += cdfs[: int(rng.integers(0, n + 1))]
    grid = None if grid_size is None else np.linspace(0.0, 1.0, grid_size)
    got = estimate_warps_discrete(cdfs, grid)
    want = per_curve_estimate_warps(cdfs, grid)
    _same_bits(got[0].jump_locations, want[0].jump_locations)
    _same_bits(got[0].cum_values, want[0].cum_values)
    _same_bits(got[1].breakpoints, want[1].breakpoints)
    _same_bits(got[1].values, want[1].values)
    for g, w in zip(got[2] + got[3], want[2] + want[3]):
        _same_bits(g.sample_t, w.sample_t)
        _same_bits(g.sample_v, w.sample_v)


def _walk(grid, seed):
    return np.cumsum(np.random.default_rng(seed).standard_normal(grid.size))


@pytest.mark.parametrize(
    "case",
    ["single", "identical", "flat_tail", "own_grids", "zero", "empty_window", "wide_windows"],
)
def test_register_matches_per_curve_oracle_cases(case):
    # wide_windows: a curve alone is fitted in several chunks of evaluation
    # points, each padded to its own widest window
    grid = np.linspace(0.0, 1.0, 1001 if case == "wide_windows" else 31)
    own = np.unique(np.concatenate(([0.0, 1.0], np.random.default_rng(1).random(20))))
    curves = [DiscreteCurve(grid, _walk(grid, s)) for s in range(4)]
    options = RegisterOptions()
    if case == "single":
        curves = curves[:1]
    elif case == "identical":
        curves = [curves[0]] * 3
    elif case == "flat_tail":
        tail = _walk(grid, 9)
        tail[25:] = tail[24]
        curves[2] = DiscreteCurve(grid, tail)
    elif case == "own_grids":
        curves[1] = DiscreteCurve(own, _walk(own, 5))
    elif case == "zero":
        curves[1] = curves[3] = DiscreteCurve(grid, np.full(grid.size, 2.0))
    elif case == "empty_window":
        options = RegisterOptions(bandwidth=0.01)
    elif case == "wide_windows":
        curves = curves[:3]
        options = RegisterOptions(bandwidth=0.3)
    _assert_matches_oracle(register_discrete, per_curve_register_discrete, curves, options)
    _assert_matches_oracle(register_complete, per_curve_register_complete, curves)


def test_register_discrete_tall_matches_oracle_and_permutation():
    bundle = make_truth_bundle(
        LatentModelConfig("model1", grid_size=201), WarpLawConfig(), 1000, seed=11
    )
    res = register_discrete(bundle.observed)
    _assert_same_result(res, per_curve_register_discrete(bundle.observed))
    perm = np.random.default_rng(2).permutation(len(bundle.observed))
    res_p = register_discrete([bundle.observed[i] for i in perm])
    _same_bits(res_p.template_quantile.values, res.template_quantile.values)
    _same_bits(res_p.template_cdf.cum_values, res.template_cdf.cum_values)
    _same_bits(res_p.mean.values, res.mean.values)
    for i, j in enumerate(perm):
        _same_bits(res_p.warps[i].sample_v, res.warps[j].sample_v)
        _same_bits(res_p.inverse_warps[i].sample_v, res.inverse_warps[j].sample_v)
        _same_bits(res_p.registered[i].values, res.registered[j].values)


def short_grid_sample(side="end"):
    """Three curves on [0, 1] and one whose grid stops at 0.9 (or starts at 0.1)."""
    grid = np.linspace(0.0, 1.0, 51)
    short = np.linspace(0.0, 0.9, 46) if side == "end" else np.linspace(0.1, 1.0, 46)

    def f(t, a):
        return np.sin(2 * np.pi * t) + a * t

    return [DiscreteCurve(grid, f(grid, a)) for a in (0.1, 0.3, 0.5)] + [DiscreteCurve(short, f(short, 0.2))]


@pytest.mark.parametrize("side", ["end", "start"])
def test_default_bandwidth_widens_for_a_grid_short_of_the_others(side):
    # the short curve's warp runs past its grid, so its curve is evaluated
    # where 1.1 of its gaps holds no grid point
    curves = short_grid_sample(side)
    res = register_discrete(curves)
    h = res.metadata["bandwidths"]
    assert h[:3] == [min(1.1 * c.max_gap, 1.0) for c in curves[:3]]
    e = res.warps[3](res.output_grid)
    reach = 1.1 * curves[3].max_gap
    assert e.max() > 0.9 + reach if side == "end" else e.min() < 0.1 - reach
    assert h[3] == min_bandwidth(curves[3].grid, e) > 1.1 * curves[3].max_gap
    assert all(np.isfinite(c.values).all() for c in res.registered)
    # a fixed bandwidth is used as given
    with pytest.raises(EmptyWindow):
        register_discrete(curves, RegisterOptions(bandwidth=1.1 * curves[3].max_gap))


@pytest.mark.parametrize("side", ["end", "start"])
def test_register_complete_widens_for_a_grid_short_of_the_others(side):
    # the nearest-point bandwidth of 0.505 gaps leaves the short curve's
    # windows past its grid empty; only that curve is widened
    curves = short_grid_sample(side)
    res = register_complete(curves)
    h = res.metadata["bandwidths"]
    assert h[:3] == [min(0.505 * c.max_gap, 1.0) for c in curves[:3]]
    e = res.warps[3](res.output_grid)
    assert h[3] == min_bandwidth(curves[3].grid, e) > 0.505 * curves[3].max_gap
    assert all(np.isfinite(c.values).all() for c in res.registered)
    _assert_same_result(res, per_curve_register_complete(curves))
