import json
from pathlib import Path

import numpy as np
import pytest

from oracles import per_curve_inverse, per_curve_scores, per_curve_truth_bundle
from varireg.cli import main
from varireg.dataio import fmt, read_curves_csv, read_warps_csv, write_warps_csv, write_wide_csv
from varireg.fpca import DENSE_SOLVE_CAP, trapezoid_weights
from varireg.simulate import LatentModelConfig, WarpLawConfig


def run(*argv):
    return main([str(a) for a in argv])


def write_wide(path, grid, columns, ids=None):
    ids = ids or [f"c{j}" for j in range(len(columns))]
    lines = ["t," + ",".join(ids)]
    for k, t in enumerate(grid):
        lines.append(",".join([fmt(t)] + [fmt(col[k]) for col in columns]))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_all_bytes(directory):
    return {
        p.name: p.read_bytes() for p in sorted(Path(directory).iterdir()) if p.is_file()
    }


def test_round_trip_exit_codes(tmp_path):
    sim = tmp_path / "sim"
    out = tmp_path / "out"
    dia = tmp_path / "dia"
    assert run("simulate", "--model", "model1", "--n", "8", "--r", "51", "--seed", "5", "--out", sim) == 0
    assert run("register", sim / "observed.csv", "--regime", "discrete", "--out", out) == 0
    assert run("diagnose", out, "--truth", sim, "--out", dia) == 0
    report = json.loads((dia / "report.json").read_text())
    assert report["n_curves"] == 8
    assert report["explained_ratios"][0] > 0.9
    assert "warp_sup_errors" in report
    assert (dia / "metrics.csv").exists()


def test_register_identical_curves_warps_near_identity(tmp_path):
    grid = np.linspace(0.0, 1.0, 41)
    phi = np.exp(np.cos(2 * np.pi * grid - np.pi))
    src = tmp_path / "in.csv"
    write_wide(src, grid, [phi, phi, phi])
    out = tmp_path / "out"
    assert run("register", src, "--out", out) == 0
    rows = (out / "warps.csv").read_text().strip().splitlines()[1:]
    gap = 1.0 / 40
    for row in rows:
        _, t, w, _ = row.split(",")
        assert abs(float(w) - float(t)) <= gap + 1e-12


def test_register_long_format_per_curve_grids(tmp_path):
    rng = np.random.default_rng(1)
    g21, g33 = np.linspace(0.0, 1.0, 21), np.linspace(0.0, 1.0, 33)
    # different sizes, different grids of one size, one shared grid
    for k, (grids, per_curve) in enumerate(
        [((g21, g33), True), ((g21, g21**1.5), True), ((g21, g21.copy()), False)]
    ):
        lines = ["curve_id,t,value"]
        for cid, grid in zip(("a", "b"), grids):
            vals = np.exp(np.cos(2 * np.pi * grid - np.pi)) + 0.01 * rng.standard_normal(grid.size)
            for t, v in zip(grid, vals):
                lines.append(f"{cid},{fmt(t)},{fmt(v)}")
        src = tmp_path / f"long{k}.csv"
        src.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / f"out{k}"
        assert run("register", src, "--out", out) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["grid_sizes"] == [g.size for g in grids]
        assert report["per_curve_grids"] is per_curve


def test_register_output_grid_size_below_three_exits_2(tmp_path, capsys):
    grid = np.linspace(0.0, 1.0, 21)
    src = tmp_path / "in.csv"
    write_wide(src, grid, [np.sin(3 * grid), np.cos(3 * grid)])
    for size in ("0", "1", "2"):
        out = tmp_path / f"out{size}"
        assert run("register", src, "--output-grid-size", size, "--out", out) == 2
        assert "--output-grid-size must be at least 3" in capsys.readouterr().err
        assert not out.exists()


def test_register_constant_curve_exit3(tmp_path, capsys):
    grid = np.linspace(0.0, 1.0, 21)
    src = tmp_path / "in.csv"
    write_wide(src, grid, [np.sin(grid) + grid, np.full(21, 2.0)], ids=["good", "flat"])
    assert run("register", src, "--out", tmp_path / "out") == 3
    assert "flat" in capsys.readouterr().err


def test_register_parse_error_line_number(tmp_path, capsys):
    src = tmp_path / "bad.csv"
    src.write_text("t,c1\n0.0,1.0\n0.5,oops\n1.0,2.0\n", encoding="utf-8")
    assert run("register", src, "--out", tmp_path / "out") == 2
    assert "line 3" in capsys.readouterr().err


def test_register_bandwidth_too_small_exit4(tmp_path, capsys):
    # the observation grid leaves [0, 0.2) uncovered, so registered curves
    # need evaluation beyond any window this bandwidth can reach
    grid = np.linspace(0.2, 1.0, 33)
    src = tmp_path / "in.csv"
    write_wide(src, grid, [np.sin(3 * grid) + grid])
    code = run("register", src, "--bandwidth", "0.05", "--out", tmp_path / "out")
    assert code == 4
    err = capsys.readouterr().err
    assert "bandwidth" in err and ">" in err


def _write_long(path, curves, ids):
    lines = ["curve_id,t,value"]
    for cid, c in zip(ids, curves):
        lines += [f"{cid},{fmt(t)},{fmt(v)}" for t, v in zip(c.grid, c.values)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_register_grid_short_of_the_others_exit0(tmp_path, capsys):
    from test_registration import short_grid_sample

    src = tmp_path / "long.csv"
    _write_long(src, short_grid_sample(), ["a", "b", "c", "short"])
    assert run("register", src, "--out", tmp_path / "out") == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    h = report["flags"]["bandwidths"]
    assert h[3] > h[0] == h[1] == h[2]
    # a fixed bandwidth is used as given
    assert run("register", src, "--bandwidth", repr(h[0]), "--out", tmp_path / "fixed") == 4
    assert "empty smoothing window" in capsys.readouterr().err


def test_diagnose_warps_on_their_own_grids(tmp_path):
    # warps.csv rows of one curve need not share the other curves' points
    sim, out, dia = tmp_path / "sim", tmp_path / "out", tmp_path / "dia"
    assert run("simulate", "--model", "model1", "--n", "5", "--r", "41", "--seed", "8", "--out", sim) == 0
    assert run("register", sim / "observed.csv", "--out", out) == 0
    warps = read_warps_csv(out / "warps.csv")
    rng = np.random.default_rng(8)
    kept = {}
    for k, (cid, (t, w, inv)) in enumerate(warps.items()):
        keep = rng.random(t.size) < 0.6
        keep[0], keep[-1] = True, k % 2 == 0
        if k % 2:
            keep &= t <= 0.5  # past its own last point a row counts no error
        kept[cid] = (t[keep], w[keep], inv[keep])
    _write_own_grid_warps(out / "warps.csv", kept)
    assert run("diagnose", out, "--truth", sim, "--out", dia) == 0
    report = json.loads((dia / "report.json").read_text())
    truth = read_warps_csv(sim / "truth_warps.csv")
    want = [
        float(np.abs(w - np.interp(t, *truth[cid][:2])).max()) for cid, (t, w, _) in kept.items()
    ]
    assert report["warp_sup_errors"] == want


def _write_own_grid_warps(path, warps):
    lines = ["curve_id,t,warp_value,inverse_warp_value"]
    for cid, (t, w, inv) in warps.items():
        lines += [f"{cid},{fmt(a)},{fmt(b)},{fmt(c)}" for a, b, c in zip(t, w, inv)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_register_time_rescaling(tmp_path):
    grid = np.linspace(0.0, 10.0, 31)  # days, not [0,1]
    src = tmp_path / "in.csv"
    vals = np.exp(np.cos(2 * np.pi * grid / 10 - np.pi))
    write_wide(src, grid, [vals, vals + 0.1])
    out = tmp_path / "out"
    assert run("register", src, "--out", out) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["time_rescale"] == {"offset": 0.0, "scale": 10.0}


def test_register_output_grid_above_dense_solve_cap(tmp_path):
    # eigen.csv is thinned to DENSE_SOLVE_CAP points; scores.csv must use that grid
    sim = tmp_path / "sim"
    out = tmp_path / "out"
    size = DENSE_SOLVE_CAP + 52
    assert run("simulate", "--model", "model1", "--n", "4", "--r", "51", "--seed", "3", "--out", sim) == 0
    assert run("register", sim / "observed.csv", "--output-grid-size", size, "--out", out) == 0
    eig = np.loadtxt(out / "eigen.csv", delimiter=",", skiprows=1)
    t, phi = eig[:, 0], eig[:, 1:]
    _, registered, _ = read_curves_csv(out / "registered.csv")
    assert registered[0].grid.size == size and t.size == DENSE_SOLVE_CAP
    keep = np.searchsorted(registered[0].grid, t)
    np.testing.assert_array_equal(registered[0].grid[keep], t)
    score_rows = (out / "scores.csv").read_text().strip().splitlines()[1:]
    got = np.array([[float(x) for x in row.split(",")[1:]] for row in score_rows])
    w = trapezoid_weights(t)
    expected = np.array([[np.sum(w * c.values[keep] * f) for f in phi.T] for c in registered])
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-14)


def test_register_scores_csv_has_per_curve_bits(tmp_path):
    sim, out = tmp_path / "sim", tmp_path / "out"
    assert run("simulate", "--model", "rank2", "--n", "6", "--r", "61", "--seed", "4", "--out", sim) == 0
    assert run("register", sim / "observed.csv", "--out", out) == 0
    eig = np.loadtxt(out / "eigen.csv", delimiter=",", skiprows=1)
    _, registered, _ = read_curves_csv(out / "registered.csv")
    score_rows = (out / "scores.csv").read_text().strip().splitlines()[1:]
    got = [[float(x) for x in row.split(",")[1:]] for row in score_rows]
    want = np.column_stack([per_curve_scores(registered, f, eig[:, 0]) for f in eig[:, 1:].T])
    assert got == want.tolist()


def test_simulate_unknown_model_exit2(tmp_path, capsys):
    assert run("simulate", "--model", "nope", "--seed", "1", "--out", tmp_path) == 2
    assert "unknown model" in capsys.readouterr().err


def test_simulate_requires_seed(tmp_path, capsys):
    assert run("simulate", "--model", "model1", "--out", tmp_path) == 2
    assert "seed" in capsys.readouterr().err


def test_simulate_deterministic_bytes(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for d in (a, b):
        assert run("simulate", "--model", "model2", "--n", "6", "--r", "41",
                   "--noise", "0.2", "--seed", "9", "--out", d) == 0
    assert read_all_bytes(a) == read_all_bytes(b)


@pytest.mark.parametrize(
    "flags, cfg, warp_cfg",
    [
        ([], LatentModelConfig("model1", grid_size=41), WarpLawConfig()),
        (
            ["--model", "breakdown", "--c", "1", "--r-scale", "0.1", "--noise", "0.1",
             "--warp-mixture-size", "3", "--beta", "1.3"],
            LatentModelConfig("breakdown", grid_size=41, noise_halfwidth=0.1, c=1.0, r_scale=0.1),
            WarpLawConfig(J=3, beta=1.3),
        ),
    ],
    ids=["model1", "breakdown_noisy_J3"],
)
def test_simulate_files_match_per_curve_oracle(flags, cfg, warp_cfg, tmp_path):
    """observed.csv, truth_latent.csv and truth_warps.csv have the bytes of
    the per-curve simulator, whose warps are inverted one at a time."""
    sim, ref = tmp_path / "sim", tmp_path / "ref"
    assert run("simulate", "--model", "model1", "--n", "12", "--r", "41", "--seed", "8",
               *flags, "--out", sim) == 0
    bundle = per_curve_truth_bundle(cfg, warp_cfg, 12, seed=8)
    ids = [f"curve_{i + 1}" for i in range(12)]
    warp_grid = np.unique(np.concatenate((bundle.grid, np.linspace(0.0, 1.0, 513))))
    write_wide_csv(ref / "observed.csv", ids, bundle.grid, [c.values for c in bundle.observed])
    write_wide_csv(ref / "truth_latent.csv", ids, bundle.grid, [c.values for c in bundle.latent])
    write_warps_csv(
        ref / "truth_warps.csv",
        ids,
        [w(warp_grid) for w in bundle.warps],
        [per_curve_inverse(w, warp_grid) for w in bundle.warps],
        warp_grid,
    )
    for name in ("observed.csv", "truth_latent.csv", "truth_warps.csv"):
        assert (sim / name).read_bytes() == (ref / name).read_bytes(), name


def test_simulate_noise_bound(tmp_path):
    noisy = tmp_path / "noisy"
    clean = tmp_path / "clean"
    for noise, d in ((0.2, noisy), (0.0, clean)):
        assert run("simulate", "--model", "model1", "--n", "5", "--r", "31",
                   "--noise", noise, "--seed", "4", "--out", d) == 0
    _, c_noisy, _ = read_curves_csv(noisy / "observed.csv")
    _, c_clean, _ = read_curves_csv(clean / "observed.csv")
    for cn, cc in zip(c_noisy, c_clean):
        assert np.abs(cn.values - cc.values).max() <= 0.2


def test_simulate_breakdown_rank_flag(tmp_path):
    out = tmp_path / "bd"
    assert run("simulate", "--model", "breakdown", "--c", "2", "--r-scale", "0.01",
               "--rank", "2", "--n", "4", "--r", "21", "--seed", "2", "--out", out) == 0
    meta = json.loads((out / "truth_meta.json").read_text())
    assert meta["rank"] == 2
    assert not (out / "truth_fphi.csv").exists()


def test_simulate_meta_records_parsed_breakdown_settings(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "breakdown", "c": "0.5", "r_scale": 1, "seed": 3}))
    out = tmp_path / "bd"
    assert run("simulate", "--config", cfg, "--n", "3", "--r", "21", "--out", out) == 0
    meta = json.loads((out / "truth_meta.json").read_text())
    assert meta["c"] == 0.5 and isinstance(meta["c"], float)
    assert meta["r_scale"] == 1.0 and isinstance(meta["r_scale"], float)
    plain = tmp_path / "m1"
    assert run("simulate", "--model", "model1", "--n", "3", "--r", "21",
               "--seed", "3", "--out", plain) == 0
    meta = json.loads((plain / "truth_meta.json").read_text())
    assert meta["c"] is None and meta["r_scale"] is None


def test_diagnose_without_truth(tmp_path):
    sim = tmp_path / "sim"
    out = tmp_path / "out"
    dia = tmp_path / "dia"
    assert run("simulate", "--model", "model1", "--n", "6", "--r", "41", "--seed", "8", "--out", sim) == 0
    assert run("register", sim / "observed.csv", "--out", out) == 0
    assert run("diagnose", out, "--out", dia) == 0
    report = json.loads((dia / "report.json").read_text())
    assert report["z_stats"] is not None
    assert report["explained_ratios"] is not None
    assert "warp_sup_errors" not in report


def test_diagnose_rate_check_field(tmp_path):
    sim = tmp_path / "sim"
    out = tmp_path / "out"
    dia = tmp_path / "dia"
    assert run("simulate", "--model", "model1", "--n", "4", "--r", "31", "--seed", "3", "--out", sim) == 0
    assert run("register", sim / "observed.csv", "--out", out) == 0
    assert run("diagnose", out, "--out", dia, "--rate-ns", "10,20", "--rate-reps", "3", "--seed", "3") == 0
    report = json.loads((dia / "report.json").read_text())
    assert "rate_check" in report
    assert "slope" in report["rate_check"]


def test_config_file_with_flag_override(tmp_path):
    sim = tmp_path / "sim"
    assert run("simulate", "--model", "model1", "--n", "5", "--r", "31", "--seed", "6", "--out", sim) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"regime": "discrete", "eigen": 2, "out": str(tmp_path / "cfgout")}))
    out = tmp_path / "flagout"
    assert run("register", sim / "observed.csv", "--config", cfg, "--out", out) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["n_eigen"] == 2
    assert (out / "report.json").exists()
    assert not (tmp_path / "cfgout").exists()


def test_csv_floats_round_trip(tmp_path):
    sim = tmp_path / "sim"
    assert run("simulate", "--model", "model1", "--n", "3", "--r", "21", "--seed", "11", "--out", sim) == 0
    ids, curves, _ = read_curves_csv(sim / "observed.csv")
    out2 = tmp_path / "resaved.csv"
    write_wide(out2, curves[0].grid, [c.values for c in curves], ids=ids)
    ids2, curves2, _ = read_curves_csv(out2)
    assert ids2 == ids
    for a, b in zip(curves, curves2):
        np.testing.assert_array_equal(a.grid, b.grid)
        np.testing.assert_array_equal(a.values, b.values)


def test_diagnose_schema_mismatch_exit2(tmp_path, capsys):
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "registered.csv").write_text("wrong,header\n1,2\n", encoding="utf-8")
    assert run("diagnose", bad) == 2
    assert "cannot read" in capsys.readouterr().err


def test_threads_env_fallback(monkeypatch):
    from varireg._parallel import resolve_threads

    monkeypatch.setenv("VARIREG_THREADS", "4")
    assert resolve_threads(None) == 4
    assert resolve_threads(2) == 2
    monkeypatch.delenv("VARIREG_THREADS")
    assert resolve_threads(None) == 1


def test_round_trip_all_models_under_budget(tmp_path):
    import time

    t0 = time.perf_counter()
    for model in ("model1", "model2", "rank2", "rank3", "breakdown"):
        base = tmp_path / model
        sim, out, dia = base / "sim", base / "out", base / "dia"
        args = ["simulate", "--model", model, "--n", "25", "--r", "101",
                "--seed", "17", "--out", sim]
        if model == "breakdown":
            args += ["--c", "2", "--r-scale", "0.1", "--rank", "2"]
        assert run(*args) == 0
        assert run("register", sim / "observed.csv", "--out", out) == 0
        assert run("diagnose", out, "--truth", sim, "--out", dia) == 0
    assert time.perf_counter() - t0 < 60.0


def test_register_noisy_regime_cli(tmp_path):
    sim = tmp_path / "sim"
    out = tmp_path / "out"
    assert run("simulate", "--model", "model1", "--n", "12", "--r", "101",
               "--noise", "0.2", "--seed", "23", "--out", sim) == 0
    assert run("register", sim / "observed.csv", "--regime", "noisy",
               "--out", out) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["regime"] == "noisy"
    assert len(report["flags"]["h1"]) == 12


def test_full_round_trip_deterministic_across_threads(tmp_path):
    outs = []
    for tag, threads in (("t1", "1"), ("t8", "8")):
        base = tmp_path / tag
        sim, out, dia = base / "sim", base / "out", base / "dia"
        assert run("simulate", "--model", "model1", "--n", "6", "--r", "41",
                   "--seed", "14", "--out", sim, "--threads", threads) == 0
        assert run("register", sim / "observed.csv", "--regime", "discrete",
                   "--out", out, "--threads", threads) == 0
        assert run("diagnose", out, "--truth", sim, "--out", dia, "--threads", threads) == 0
        outs.append(
            {**read_all_bytes(sim), **read_all_bytes(out), **read_all_bytes(dia)}
        )
    assert outs[0] == outs[1]


def test_truth_metrics_cli_matches_library_bitwise(tmp_path):
    # the CSVs round-trip 17 digits losslessly, so both paths see the same inputs
    from varireg.diagnostics import evaluate_against_truth
    from varireg.registration import register_discrete
    from varireg.simulate import LatentModelConfig, WarpLawConfig, make_truth_bundle

    sim, out, dia = tmp_path / "sim", tmp_path / "out", tmp_path / "dia"
    assert run("simulate", "--model", "model1", "--n", "8", "--r", "51", "--seed", "5", "--out", sim) == 0
    assert run("register", sim / "observed.csv", "--out", out) == 0
    assert run("diagnose", out, "--truth", sim, "--out", dia) == 0
    report = json.loads((dia / "report.json").read_text())
    bundle = make_truth_bundle(LatentModelConfig("model1", grid_size=51), WarpLawConfig(), 8, 5)
    lib = evaluate_against_truth(register_discrete(bundle.observed), bundle)
    assert report["curve_rel_L2_errors"] == lib.curve_rel_L2_errors.tolist()
    assert report["mean_sup_error"] == lib.mean_sup_error


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli_inputs")
    sim, result = base / "sim", base / "result"
    assert run("simulate", "--model", "model1", "--n", "6", "--r", "41", "--seed", "2", "--out", sim) == 0
    assert run("register", sim / "observed.csv", "--out", result) == 0
    lines = ["curve_id,t,value"]
    for cid, r in (("a", 21), ("b", 33), ("c", 40)):
        grid = np.linspace(0.0, 1.0, r)
        lines += [f"{cid},{fmt(t)},{fmt(v)}" for t, v in zip(grid, np.exp(np.cos(2 * np.pi * grid - np.pi)))]
    long_csv = base / "long.csv"
    long_csv.write_text("\n".join(lines) + "\n", encoding="utf-8")
    flat_csv = base / "flat.csv"
    grid = np.linspace(0.0, 1.0, 21)
    write_wide(flat_csv, grid, [np.sin(grid) + grid, 5.0 + 1e-14 * (np.arange(21) % 2)])
    tied_csv = base / "tied.csv"  # equal curves and flat stretches: tied variation levels
    phi = np.exp(np.cos(2 * np.pi * grid - np.pi))
    write_wide(tied_csv, grid, [phi, phi, np.minimum(phi, 2.0), np.round(phi, 1)])
    configs = {}
    for name, bad in BAD_SIMULATE_SETTINGS.items():
        configs[f"config_{name}"] = base / f"{name}.json"
        configs[f"config_{name}"].write_text(
            json.dumps({"model": "breakdown", "c": 1.0, "r_scale": 0.1, "seed": 1, **bad}),
            encoding="utf-8",
        )
    return {
        "obs": sim / "observed.csv", "result": result, "long": long_csv, "flat": flat_csv,
        "tied": tied_csv, **configs,
    }


# simulate settings in a --config file that are not numbers: exit 2, no traceback
BAD_SIMULATE_SETTINGS = {
    **{f"{key}_abc": {key: "abc"} for key in
       ("n", "r", "noise", "seed", "rank", "warp_mixture_size", "beta", "c", "r_scale")},
    "n_null": {"n": None},
    "beta_list": {"beta": [1.5]},
}


FLAG_CASES = [
    ("eigen_zero", ["register", "{obs}", "--eigen", "0"], {}, 2),
    ("eigen_negative", ["register", "{obs}", "--eigen", "-2"], {}, 2),
    ("rate_ns_not_int", ["diagnose", "{result}", "--rate-ns", "abc", "--seed", "1"], {}, 2),
    ("rate_reps_zero", ["diagnose", "{result}", "--rate-ns", "5", "--rate-reps", "0", "--seed", "1"], {}, 2),
    ("rate_model_unknown",
     ["diagnose", "{result}", "--rate-model", "nosuch", "--rate-ns", "10", "--seed", "1"], {}, 2),
    ("rate_ns_negative", ["diagnose", "{result}", "--rate-ns", "-5", "--seed", "1"], {}, 2),
    ("threads_env_not_int", ["register", "{obs}"], {"VARIREG_THREADS": "abc"}, 2),
    ("per_curve_grids", ["register", "{long}"], {}, 0),
    ("tied_levels", ["register", "{tied}", "--smooth-warps"], {}, 0),
    ("near_constant_curve", ["register", "{flat}"], {}, 3),
    ("tiny_bandwidths", ["register", "{obs}", "--regime", "noisy", "--h1", "1e-4", "--h2", "1e-4"], {}, 4),
    ("output_grid_0", ["register", "{obs}", "--output-grid-size", "0"], {}, 2),
    *[
        (f"simulate_config_{name}", ["simulate", "--config", f"{{config_{name}}}"], {}, 2)
        for name in BAD_SIMULATE_SETTINGS
    ],
    *[
        (f"output_grid_{size}", ["register", "{obs}", "--output-grid-size", str(size)], {}, 0)
        for size in (1024, 1025, 2048, 2049)  # either side of OUTPUT_GRID_CAP and DENSE_SOLVE_CAP
    ],
]


@pytest.mark.parametrize(
    "argv, env, expected", [case[1:] for case in FLAG_CASES], ids=[case[0] for case in FLAG_CASES]
)
def test_flag_combinations_exit_with_documented_codes(
    argv, env, expected, cli_inputs, tmp_path, monkeypatch
):
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    out = tmp_path / "out"
    code = main([a.format(**cli_inputs) for a in argv] + ["--out", str(out)])
    assert code in (0, 2, 3, 4)
    assert code == expected
    if code != 0:
        assert not out.exists()  # a failed run writes nothing
