import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from oracles import per_curve_inverse, per_curve_truth_bundle, per_warp_forward
from varireg import simulate
from varireg.errors import EmptySample, NotRankOne
from varireg.simulate import (
    MODEL_NAMES,
    CounterexampleWarp,
    IdentityWarp,
    LatentDraw,
    LatentModelConfig,
    SineMixtureWarp,
    TruthBundle,
    WarpLawConfig,
    counterexample_pair,
    evaluate_warps,
    invert_warps,
    make_truth_bundle,
    observe,
    sample_latent,
    sample_warp,
    sine_table,
    substream,
    true_variation_cdf,
)
from varireg.variation import DiscreteCurve


def test_substreams_disjoint_and_reproducible():
    a1 = substream(5, 0).random(4)
    a2 = substream(5, 0).random(4)
    b = substream(5, 1).random(4)
    np.testing.assert_array_equal(a1, a2)
    assert not np.array_equal(a1, b)


# --- warps --------------------------------------------------------------------

def test_warp_all_zero_frequencies_is_identity():
    warp = SineMixtureWarp([0, 0], [0.4, 0.6], beta=1.01)
    t = np.linspace(0.0, 1.0, 101)
    np.testing.assert_array_equal(warp(t), t)


def test_warp_slope_bound_beta():
    beta = 1.01
    cfg = WarpLawConfig(beta=beta)
    t = np.linspace(0.0, 1.0, 10_001)
    for stream in range(40):
        warp = sample_warp(cfg, substream(11, stream))
        slopes = np.diff(warp(t)) / np.diff(t)
        assert slopes.min() >= (1.0 - 1.0 / beta) - 1e-6
        assert slopes.min() > 0.0


def test_warp_inverse_correctness():
    cfg = WarpLawConfig()
    t = np.linspace(0.0, 1.0, 1001)
    for stream in range(10):
        warp = sample_warp(cfg, substream(3, stream))
        assert np.abs(warp(warp.inverse(t)) - t).max() <= 1e-10


@st.composite
def warps(draw):
    """A sine mixture with J = 2..4 (zero frequencies included), a
    counterexample warp or the identity."""
    kind = draw(st.sampled_from(["sine", "sine", "sine", "counterexample", "identity"]))
    if kind == "sine":
        J = draw(st.integers(2, 4))
        ks = draw(st.lists(st.integers(-6, 6), min_size=J, max_size=J))
        cuts = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=J - 1, max_size=J - 1)))
        beta = draw(st.floats(1.0, 4.0, exclude_min=True))
        return SineMixtureWarp(ks, np.diff([0.0, *cuts, 1.0]), beta)
    if kind == "counterexample":
        return CounterexampleWarp(draw(st.integers(1, 3)), draw(st.floats(0.25, 0.75)))
    return IdentityWarp()


unit_floats = st.floats(0.0, 1.0)
points = st.one_of(
    unit_floats,
    st.sampled_from([0.0, 1.0]),
    st.lists(unit_floats, max_size=40).map(np.array),
    st.lists(unit_floats, max_size=40).map(lambda xs: np.array([0.0, *xs, 1.0])),
)


@given(st.lists(warps(), min_size=1, max_size=6), points, st.sampled_from([1, 7, 1 << 16]))
@example(
    [
        SineMixtureWarp([0, 3], [0.5, 0.5], 1.01),
        SineMixtureWarp([-2, 0, 5, 1], [0.1, 0.2, 0.3, 0.4], 2.0),
        CounterexampleWarp(2, 0.3),
        IdentityWarp(),
        SineMixtureWarp([0, 0], [0.4, 0.6], 1.5),
    ],
    np.array([0.0, 0.3, 1.0]),
    7,
)
@example([SineMixtureWarp([1, -1, 2], [0.2, 0.3, 0.5], 1.01)], 1.0, 1)
# even frequencies fix t = 0.25 and 0.5 exactly, where the estimate is a cell edge
@example([SineMixtureWarp([2, -4], [0.5, 0.5], 1.01)], np.array([0.0, 0.25, 0.5, 1.0]), 1 << 16)
# beta so close to 1 that the certified depth is 8, and then 0 (plain bisection)
@example(
    [SineMixtureWarp([1, -3], [0.25, 0.75], 1.0 + 2.0**-40), SineMixtureWarp([2, 5], [0.5, 0.5], 1.0 + 2.0**-50)],
    np.array([0.0, 0.1, 0.5, 0.9, 1.0]),
    7,
)
# unsorted, repeated points
@example(
    [SineMixtureWarp([3, -1], [0.6, 0.4], 1.5), SineMixtureWarp([0, 2, -5], [0.2, 0.3, 0.5], 1.01)],
    np.array([0.7, 0.2, 0.7, 0.0, 0.5, 0.2, 1.0, 0.5, 0.0]),
    1 << 16,
)
def test_invert_warps_matches_per_curve_bisection(warp_list, t, block_cells):
    """Every row of the batched inverse has the bits of bisecting its warp's
    formula alone (``per_curve_inverse`` on ``per_warp_forward``), whatever
    the mix of warps and however the rows fall into blocks;
    ``AnalyticWarp.inverse`` is the one-row case."""
    with mock.patch.object(simulate, "_BLOCK_CELLS", block_cells):
        got = invert_warps(warp_list, t)
        assert got.shape == (len(warp_list), np.size(t))
        for row, warp in zip(got, warp_list):
            ref = per_curve_inverse(warp, t)
            assert row.tobytes() == np.asarray(ref, dtype=float).ravel().tobytes()
            one = warp.inverse(t)
            assert np.shape(one) == np.shape(ref)
            assert np.asarray(one).tobytes() == np.asarray(ref).tobytes()


def test_sine_stack_depth_follows_beta():
    """The certified depth is the largest d with (1 - 1/beta) * 2^-d >= 2E,
    E = (J + 4) * 2^-52, taken at the block's smallest beta."""
    def depth(*betas):
        return simulate._SineStack([SineMixtureWarp([1, -2], [0.5, 0.5], b) for b in betas]).depth

    assert (depth(1.5), depth(1.01), depth(1.0001), depth(1.0 + 2.0**-40)) == (46, 41, 35, 8)
    assert depth(1.5, 1.0001) == depth(1.0001)
    assert depth(1.0 + 2.0**-50) == depth(1.0 + 2.0**-52) == 0
    for beta in (1.5, 1.01, 1.0001, 1.0 + 2.0**-40):
        s, bound = 1.0 - 1.0 / beta, 6 * 2.0**-52
        assert s * 2.0 ** -depth(beta) >= 2 * bound > s * 2.0 ** -(depth(beta) + 1)


def test_invert_warps_certification_refuses_wrong_cells():
    """Handed the oracle's own inverse as its estimate, every cell is
    certified and none bisects from [0, 1]; moved by one cell either way or
    drawn at random, exactly the cells that moved fall back, and every row
    keeps the bits of ``per_curve_inverse``."""
    warps = [sample_warp(WarpLawConfig(), substream(5, i)) for i in range(8)]
    t = np.linspace(0.0, 1.0, 41)
    ref = np.array([per_curve_inverse(w, t) for w in warps])
    depth = simulate._SineStack(warps).depth
    scale = 2.0**depth

    def cell(x):
        return np.clip(np.ceil(np.clip(x, 0.0, 1.0) * scale) - 1.0, 0.0, scale - 1.0)

    drawn = np.random.default_rng(3).random(ref.shape)
    for estimate in (ref, ref + 1.0 / scale, ref - 1.0 / scale, drawn):
        with mock.patch.object(simulate._SineStack, "estimate", lambda self, t: estimate), \
                mock.patch.object(simulate, "_bisect", wraps=simulate._bisect) as bisect:
            got = invert_warps(warps, t)
        assert got.tobytes() == ref.tobytes()
        lost = [c.args[1].size for c in bisect.call_args_list if c.args[4] == depth]
        assert sum(lost) == (cell(estimate) != cell(ref)).sum()
    assert sum(lost) > 0.9 * ref.size


def test_make_truth_bundle_tall_shape_matches_per_curve_oracle():
    """The benchmark's tall shape (n = 1000, r = 201, seed 7): every observed
    row has the bytes of the per-curve simulator."""
    cfg = LatentModelConfig("model1", grid_size=201)
    got = make_truth_bundle(cfg, WarpLawConfig(), 1000, seed=7)
    ref = per_curve_truth_bundle(cfg, WarpLawConfig(), 1000, seed=7)
    for a, b in zip(got.observed, ref.observed, strict=True):
        assert a.values.tobytes() == b.values.tobytes()


@given(st.lists(warps(), min_size=1, max_size=6), points, st.sampled_from([1, 7, 1 << 16]))
@example(
    [SineMixtureWarp([0, 3], [0.5, 0.5], 1.01), IdentityWarp(), CounterexampleWarp(2, 0.3)],
    np.array([0.0, 0.3, 1.0]),
    7,
)
def test_evaluate_warps_matches_per_warp_calls(warp_list, t, block_cells):
    """Every row of the batched forward map has the bits of its warp's formula
    taken alone (``per_warp_forward``: one sine component at a time), in any
    blocks; the warp's own ``__call__`` and ``TruthBundle.warp_values`` are
    one-row cases."""
    with mock.patch.object(simulate, "_BLOCK_CELLS", block_cells):
        got = evaluate_warps(warp_list, t)
        bundle = TruthBundle(np.linspace(0.0, 1.0, 3), [], [], warp_list, np.zeros((0, 1)))
        assert got.shape == (len(warp_list), np.size(t))
        for i, (row, warp) in enumerate(zip(got, warp_list)):
            ref = np.asarray(per_warp_forward(warp, t), dtype=float)
            assert row.tobytes() == ref.ravel().tobytes()
            called = warp(t)
            assert np.shape(called) == np.shape(ref)
            assert np.asarray(called).tobytes() == ref.tobytes()
            one = bundle.warp_values(i, t)
            assert np.shape(one) == np.shape(ref)
            assert one.tobytes() == ref.tobytes()
        assert bundle.warp_rows(slice(1, None), t).tobytes() == got[1:].tobytes()


@given(st.lists(warps(), min_size=1, max_size=8), points, st.data())
def test_rows_from_one_sine_table_equal_evaluate_warps(warp_list, t, data):
    """Rows of any slice of the warps, read from one sine table of all of
    them, have the bits of evaluate_warps on that slice alone."""
    table = sine_table(warp_list, t)
    start = data.draw(st.integers(0, len(warp_list) - 1))
    rows = slice(start, data.draw(st.integers(start + 1, len(warp_list))))
    with mock.patch.object(simulate, "_BLOCK_CELLS", data.draw(st.sampled_from([1, 7, 1 << 16]))):
        got = evaluate_warps(warp_list[rows], t, table)
        assert got.tobytes() == evaluate_warps(warp_list[rows], t).tobytes()


def test_truth_rows_of_a_sample_from_one_sine_table():
    bundle = make_truth_bundle(LatentModelConfig("model1", grid_size=41), WarpLawConfig(), 60, seed=4)
    dense = np.linspace(0.0, 1.0, 301)
    table = sine_table(bundle.warps, dense)
    assert table[0].size < sum(w.ks.size for w in bundle.warps)  # frequencies repeat across warps
    for rows in (slice(0, 29), slice(29, 58), slice(58, 60)):
        assert evaluate_warps(bundle.warps[rows], dense, table).tobytes() == bundle.warp_rows(rows, dense).tobytes()


MODEL_PARAMS = {"breakdown": {"c": 1.0, "r_scale": 0.1, "rank": 3}}


@pytest.mark.parametrize("block_cells", [100, None], ids=["blocks_of_100", "default_blocks"])
@pytest.mark.parametrize(
    "warp_cfg",
    [WarpLawConfig(), WarpLawConfig(J=4, beta=1.5), None],
    ids=["default_law", "J4_beta1.5", "identity_warps"],
)
@pytest.mark.parametrize("noise", [0.0, 0.1])
@pytest.mark.parametrize("name", MODEL_NAMES)
def test_make_truth_bundle_matches_per_curve_oracle(name, noise, warp_cfg, block_cells):
    cfg = LatentModelConfig(name, grid_size=37, noise_halfwidth=noise, **MODEL_PARAMS.get(name, {}))
    cells = simulate._BLOCK_CELLS if block_cells is None else block_cells
    with mock.patch.object(simulate, "_BLOCK_CELLS", cells):
        got = make_truth_bundle(cfg, warp_cfg, 9, seed=21, stream_offset=5)
    ref = per_curve_truth_bundle(cfg, warp_cfg, 9, seed=21, stream_offset=5)
    for field in ("observed", "latent"):
        for a, b in zip(getattr(got, field), getattr(ref, field), strict=True):
            assert a.grid.tobytes() == b.grid.tobytes()
            assert a.values.tobytes() == b.values.tobytes()
    assert got.coefficients.tobytes() == ref.coefficients.tobytes()


def test_warp_mean_is_identity_monte_carlo():
    cfg = WarpLawConfig()
    n = 100_000
    pts = np.array([0.25, 0.5, 0.75])
    acc = np.zeros((n, 3))
    for i in range(n):
        warp = sample_warp(cfg, substream(99, i))
        acc[i] = warp(pts)
    mean = acc.mean(axis=0)
    se = acc.std(axis=0, ddof=1) / math.sqrt(n)
    assert (np.abs(mean - pts) <= 3.0 * se + 1e-12).all()


def test_warp_endpoints():
    cfg = WarpLawConfig()
    for stream in range(20):
        warp = sample_warp(cfg, substream(123, stream))
        assert warp(0.0) == 0.0
        assert abs(warp(1.0) - 1.0) <= 1e-12


# --- latent models ---------------------------------------------------------------

def test_model1_zero_coefficient_gives_zero_curve():
    cfg = LatentModelConfig("model1")
    draw = LatentDraw([0.0], cfg.basis())
    t = np.linspace(0.0, 1.0, 11)
    np.testing.assert_array_equal(draw(t), np.zeros(11))


def test_model2_phi_value():
    cfg = LatentModelConfig("model2")
    phi = cfg.basis()[0]
    assert phi(np.array([0.25]))[0] == pytest.approx(-math.sqrt(2) / 2, abs=1e-12)


def test_rank2_curve_at_zero():
    cfg = LatentModelConfig("rank2")
    draw = sample_latent(cfg, substream(7, 0))
    xi2 = draw.coefficients[1]
    assert draw(np.array([0.0]))[0] == pytest.approx(xi2 * math.sqrt(2), abs=1e-12)


def test_model1_distribution_sanity():
    n = 100_000
    draws = np.array(
        [sample_latent(LatentModelConfig("model1"), substream(31, i)).coefficients[0] for i in range(n)]
    )
    se_mean = draws.std(ddof=1) / math.sqrt(n)
    assert abs(draws.mean() - 1.5) <= 4 * se_mean
    var = draws.var(ddof=1)
    se_var = math.sqrt(2.0 / (n - 1))  # Var of sample variance for N(mu,1)
    assert abs(var - 1.0) <= 4 * se_var


def test_model2_distribution_sanity():
    n = 100_000
    draws = np.array(
        [sample_latent(LatentModelConfig("model2"), substream(32, i)).coefficients[0] for i in range(n)]
    )
    # 1 + Beta(2,2): mean 1.5, variance 1/20
    se_mean = draws.std(ddof=1) / math.sqrt(n)
    assert abs(draws.mean() - 1.5) <= 4 * se_mean
    assert draws.min() >= 1.0 and draws.max() <= 2.0
    assert draws.var(ddof=1) == pytest.approx(0.05, rel=0.05)


def test_breakdown_coefficients():
    cfg = LatentModelConfig("breakdown", c=2.0, r_scale=0.01, rank=3)
    n = 20_000
    coefs = np.array(
        [sample_latent(cfg, substream(33, i)).coefficients for i in range(n)]
    )
    assert coefs.shape[1] == 3
    assert coefs[:, 0].mean() == pytest.approx(6.0, abs=0.05)
    assert coefs[:, 1].mean() == pytest.approx(-2.0, abs=0.05)
    assert coefs[:, 1].var(ddof=1) == pytest.approx(0.01, rel=0.1)
    assert coefs[:, 2].var(ddof=1) == pytest.approx(0.0001, rel=0.1)


# --- observe -----------------------------------------------------------------------

def test_observe_identity_noiseless():
    cfg = LatentModelConfig("model1")
    draw = sample_latent(cfg, substream(1, 0))
    grid = np.linspace(0.0, 1.0, 21)
    obs = observe(draw, IdentityWarp(), grid, 0.0, substream(1, 1))
    np.testing.assert_array_equal(obs.values, draw(grid))


def test_observe_seeded_reproducible():
    cfg = LatentModelConfig("model1")
    draw = sample_latent(cfg, substream(2, 0))
    warp = sample_warp(WarpLawConfig(), substream(2, 1))
    grid = np.linspace(0.0, 1.0, 31)
    a = observe(draw, warp, grid, 0.2, substream(2, 2))
    b = observe(draw, warp, grid, 0.2, substream(2, 2))
    np.testing.assert_array_equal(a.values, b.values)


def test_observe_noise_bound():
    cfg = LatentModelConfig("model2")
    draw = sample_latent(cfg, substream(3, 0))
    warp = sample_warp(WarpLawConfig(), substream(3, 1))
    grid = np.linspace(0.0, 1.0, 101)
    clean = observe(draw, warp, grid, 0.0, substream(3, 2))
    noisy = observe(draw, warp, grid, 0.2, substream(3, 2))
    assert np.abs(noisy.values - clean.values).max() <= 0.2


# --- true variation cdf -------------------------------------------------------------

def test_true_cdf_linear_override():
    cfg = LatentModelConfig("model1")
    cdf = true_variation_cdf(cfg, 2001, phi=lambda t: t)
    t = np.linspace(0.0, 1.0, 137)
    assert np.abs(np.asarray(cdf(t)) - t).max() <= 1.0 / 2000 + 1e-12


def test_true_cdf_quadratic_override():
    cfg = LatentModelConfig("model1")
    dense_r = 4001
    cdf = true_variation_cdf(cfg, dense_r, phi=lambda t: t**2)
    t = np.linspace(0.0, 1.0, 137)
    assert np.abs(np.asarray(cdf(t)) - t**2).max() <= 2.0 / dense_r + 1e-9


def test_true_cdf_model1_quadrature_oracle():
    cfg = LatentModelConfig("model1")
    cdf = true_variation_cdf(cfg, 20_001)
    # independent oracle: 1e6-point trapezoid integration of |phi'|
    t = np.linspace(0.0, 1.0, 1_000_001)
    dphi = np.abs(-2 * np.pi * np.sin(2 * np.pi * t - np.pi) * np.exp(np.cos(2 * np.pi * t - np.pi)))
    cum = np.concatenate(([0.0], np.cumsum((dphi[1:] + dphi[:-1]) / 2.0 * np.diff(t))))
    oracle = cum / cum[-1]
    assert abs(cdf(0.5) - oracle[500_000]) <= 1e-3
    assert cdf(0.5) == pytest.approx(0.5, abs=1e-3)  # symmetry of the template
    for x in (0.1, 0.3, 0.7, 0.9):
        assert abs(cdf(x) - oracle[int(x * 1_000_000)]) <= 1e-3


def test_true_cdf_not_rank_one():
    with pytest.raises(NotRankOne):
        true_variation_cdf(LatentModelConfig("rank2"), 100)


# --- counterexample -----------------------------------------------------------------

@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("M", [2.0, 10.0])
def test_counterexample_identity(k, M):
    t = np.linspace(0.0, 1.0, 10_001)
    for stream in range(20):
        x_fn, y_fn, warp = counterexample_pair(k, M, substream(77, stream))
        lhs = y_fn(warp.inverse(t))
        assert np.abs(lhs - x_fn(t)).max() <= 1e-8


def test_counterexample_center_draw_trivial():
    x_fn, y_fn, warp = counterexample_pair(1, 2.0, substream(5, 0))
    warp.u = 0.5  # force the centered draw
    t = np.linspace(0.0, 1.0, 101)
    np.testing.assert_allclose(warp(t), t, atol=1e-15)
    # coefficient 2-4u vanishes: rebuild y with u=0.5 via the identity
    assert warp(0.0) == 0.0 and warp(1.0) == 1.0


def test_counterexample_endpoints():
    for stream in range(5):
        _, _, warp = counterexample_pair(2, 3.0, substream(6, stream))
        assert warp(0.0) == 0.0
        assert abs(warp(1.0) - 1.0) <= 1e-12


# --- truth bundles ---------------------------------------------------------------------

def test_bundle_empty_raises():
    with pytest.raises(EmptySample):
        make_truth_bundle(LatentModelConfig("model1"), WarpLawConfig(), 0, seed=1)


def test_bundle_seed_reproducible():
    cfg = LatentModelConfig("model1", grid_size=31)
    a = make_truth_bundle(cfg, WarpLawConfig(), 4, seed=9)
    b = make_truth_bundle(cfg, WarpLawConfig(), 4, seed=9)
    for ca, cb in zip(a.observed, b.observed):
        np.testing.assert_array_equal(ca.values, cb.values)
    np.testing.assert_array_equal(a.coefficients, b.coefficients)


def test_bundle_internal_consistency():
    cfg = LatentModelConfig("model1", grid_size=51)
    bundle = make_truth_bundle(cfg, WarpLawConfig(), 6, seed=10)
    for i in range(6):
        draw = LatentDraw(bundle.coefficients[i], cfg.basis())
        inv = bundle.warps[i].inverse(bundle.grid)
        np.testing.assert_allclose(
            bundle.observed[i].values, draw(inv), rtol=0, atol=1e-10
        )
