import argparse
import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import per_cell_fmt as fmt, per_curve_inverse, per_curve_scores, per_curve_truth_bundle
from varireg.cli import _build_parser, main
from varireg.dataio import read_curves_csv, read_warps_csv, write_warps_csv, write_wide_csv
from varireg.fpca import trapezoid_weights
from varireg.simulate import MODEL_NAMES, LatentModelConfig, WarpLawConfig

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


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


LONG_CELL = "0." + "0" * 140000 + "5"  # over csv's field limit of 131072 characters


@pytest.mark.parametrize("text", [f"t,c1\n0.0,1.0\n{LONG_CELL},3.0\n1.0,2.0\n",
                                  f"curve_id,t,value\na,0.0,1.0\na,{LONG_CELL},3.0\na,1.0,2.0\n"],
                         ids=["wide", "long"])
def test_register_cell_over_csv_field_limit_exit2(tmp_path, capsys, text):
    src = tmp_path / "in.csv"
    src.write_text(text, encoding="utf-8")
    assert run("register", src, "--out", tmp_path / "out") == 2
    assert "error: cannot read in.csv: line 3: field larger than field limit (131072)" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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


def test_register_complete_grid_short_of_the_others_exit0(tmp_path):
    from test_registration import short_grid_sample

    src = tmp_path / "long.csv"
    _write_long(src, short_grid_sample(), ["a", "b", "c", "short"])
    assert run("register", src, "--regime", "complete", "--out", tmp_path / "out") == 0
    h = json.loads((tmp_path / "out" / "report.json").read_text())["flags"]["bandwidths"]
    assert h[3] > h[0] == h[1] == h[2]


def test_diagnose_flat_mean_above_2048_points_exit0(tmp_path):
    # curves in +/- pairs register to a (numerically) flat mean, which sends
    # the z-statistic to its zero-mean branch, on 2100 output points
    grid = np.linspace(0.0, 1.0, 41)
    rows = [np.sin(2 * np.pi * grid) + a * np.cos(2 * np.pi * grid) for a in (0.2, 0.5, 0.9)]
    src, out = tmp_path / "in.csv", tmp_path / "out"
    write_wide(src, grid, rows + [-x for x in rows])
    assert run("register", src, "--output-grid-size", "2100", "--out", out) == 0
    assert run("diagnose", out, "--out", tmp_path / "dia") == 0
    report = json.loads((tmp_path / "dia" / "report.json").read_text())
    assert report["z_branch"] == "zero_mean"
    z = np.array(report["z_stats"])
    assert z.shape == (6,) and ((z >= 0.0) & (z <= 2.0)).all()


@pytest.mark.parametrize("where", ["result", "truth"])
def test_diagnose_warps_file_missing_a_curve_exit2(tmp_path, capsys, where):
    sim, out = tmp_path / "sim", tmp_path / "out"
    assert run("simulate", "--model", "model1", "--n", "5", "--r", "41", "--seed", "8", "--out", sim) == 0
    assert run("register", sim / "observed.csv", "--out", out) == 0
    path = out / "warps.csv" if where == "result" else sim / "truth_warps.csv"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(x for x in lines if not x.startswith("curve_4,")) + "\n")
    assert run("diagnose", out, "--truth", sim, "--out", tmp_path / "dia") == 2
    err = capsys.readouterr().err
    assert path.name in err and "'curve_4'" in err
    assert not (tmp_path / "dia").exists()


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


@pytest.mark.parametrize("damage", ["empty", "short_row", "not_a_number", "over_long_cell"])
@pytest.mark.parametrize("name", ["mean.csv", "warps.csv", "template.csv", "truth_warps.csv"])
def test_diagnose_truncated_file_exit2(tmp_path, capsys, cli_inputs, name, damage):
    # an empty file, a row with one field, a cell that is not a number or a
    # cell over csv's field limit names the file and the line
    sim, out = tmp_path / "sim", tmp_path / "out"
    shutil.copytree(cli_inputs["obs"].parent, sim)
    shutil.copytree(cli_inputs["result"], out)
    path = (sim if name.startswith("truth_") else out) / name
    if damage == "empty":
        path.write_text("")
    else:
        lines = path.read_text().splitlines()
        if damage == "short_row":
            lines[3] = lines[3].split(",")[0]  # line 4 keeps its first field alone
        elif damage == "over_long_cell":
            lines[3] = lines[3].rsplit(",", 1)[0] + "," + LONG_CELL
        else:
            lines[3] += "x"  # line 4 ends in a number with an x after it
        path.write_text("\n".join(lines) + "\n")
    assert run("diagnose", out, "--truth", sim, "--out", tmp_path / "dia") == 2
    err = capsys.readouterr().err
    assert f"cannot read {name}: " + ("line 1:" if damage == "empty" else "line 4:") in err
    if damage == "not_a_number":
        assert "not a number" in err
    if damage == "over_long_cell":
        assert "line 4: field larger than field limit (131072)" in err
    assert not (tmp_path / "dia").exists()


@pytest.mark.parametrize("damage", ["empty", "not_a_number"])
def test_diagnose_without_truth_does_not_read_warps_file(tmp_path, cli_inputs, damage):
    # only the truth errors use warps.csv
    out, dia = tmp_path / "out", tmp_path / "dia"
    shutil.copytree(cli_inputs["result"], out)
    lines = (out / "warps.csv").read_text().splitlines()
    lines[3] += "x"
    (out / "warps.csv").write_text("" if damage == "empty" else "\n".join(lines) + "\n")
    assert run("diagnose", out, "--out", dia) == 0
    assert "warp_sup_errors" not in json.loads((dia / "report.json").read_text())


def _write_own_grid_warps(path, warps):
    lines = ["curve_id,t,warp_value,inverse_warp_value"]
    for cid, (t, w, inv) in warps.items():
        lines += [f"{cid},{fmt(a)},{fmt(b)},{fmt(c)}" for a, b, c in zip(t, w, inv)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.parametrize("header", ["t,curve_1,curve_2", "curve_id,t,value"])
def test_register_header_only_exit2(tmp_path, capsys, header):
    src = tmp_path / "in.csv"
    src.write_text(header + "\n", encoding="utf-8")
    assert run("register", src, "--out", tmp_path / "out") == 2
    assert "no data rows" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _metrics_by_id(directory):
    rows = (Path(directory) / "metrics.csv").read_text().splitlines()
    return {row.split(",")[0]: row for row in rows[1:]}


def test_diagnose_truth_matched_by_curve_id(tmp_path, capsys):
    # a register run on the columns of observed.csv in another order is
    # diagnosed against the same truth, curve by curve
    sim = tmp_path / "sim"
    assert run("simulate", "--model", "model1", "--n", "8", "--r", "51", "--seed", "5", "--out", sim) == 0
    lines = [row.split(",") for row in (sim / "observed.csv").read_text().splitlines()]
    order = [0] + list(np.random.default_rng(3).permutation(np.arange(1, 9)))
    shuffled = tmp_path / "shuffled.csv"
    shuffled.write_text("\n".join(",".join(row[j] for j in order) for row in lines) + "\n")
    for name, src in (("plain", sim / "observed.csv"), ("shuffled", shuffled)):
        assert run("register", src, "--out", tmp_path / name) == 0
        assert run("diagnose", tmp_path / name, "--truth", sim, "--out", tmp_path / f"{name}_dia") == 0
    plain, permuted = _metrics_by_id(tmp_path / "plain_dia"), _metrics_by_id(tmp_path / "shuffled_dia")
    assert list(permuted) == [lines[0][j] for j in order[1:]] != list(plain)
    assert permuted == plain
    # a truth whose ids are another set still exits 2
    latent = (sim / "truth_latent.csv").read_text().replace("curve_8", "curve_9")
    (sim / "truth_latent.csv").write_text(latent)
    assert run("diagnose", tmp_path / "plain", "--truth", sim, "--out", tmp_path / "bad") == 2
    assert "curve ids differ" in capsys.readouterr().err


def test_register_time_rescaling(tmp_path):
    grid = np.linspace(0.0, 10.0, 31)  # days, not [0,1]
    src = tmp_path / "in.csv"
    vals = np.exp(np.cos(2 * np.pi * grid / 10 - np.pi))
    write_wide(src, grid, [vals, vals + 0.1])
    out = tmp_path / "out"
    assert run("register", src, "--out", out) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["time_rescale"] == {"offset": 0.0, "scale": 10.0}


def test_register_eigen_and_scores_on_the_full_output_grid(tmp_path):
    # above 2048 points eigen.csv and scores.csv still use every output point
    sim = tmp_path / "sim"
    out = tmp_path / "out"
    size = 2100
    assert run("simulate", "--model", "model1", "--n", "4", "--r", "51", "--seed", "3", "--out", sim) == 0
    assert run("register", sim / "observed.csv", "--output-grid-size", size, "--out", out) == 0
    eig = np.loadtxt(out / "eigen.csv", delimiter=",", skiprows=1)
    t, phi = eig[:, 0], eig[:, 1:]
    _, registered, _ = read_curves_csv(out / "registered.csv")
    assert t.size == size and phi.shape[1] == 3
    np.testing.assert_array_equal(registered[0].grid, t)
    w = trapezoid_weights(t)
    np.testing.assert_allclose((phi.T * w) @ phi, np.eye(3), atol=1e-8)
    score_rows = (out / "scores.csv").read_text().strip().splitlines()[1:]
    got = np.array([[float(x) for x in row.split(",")[1:]] for row in score_rows])
    expected = np.array([[np.sum(w * c.values * f) for f in phi.T] for c in registered])
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-14)


def test_register_eigen_clamped_to_sample_size(tmp_path):
    # past the sample size the eigenfunctions are null directions
    sim, out = tmp_path / "sim", tmp_path / "out"
    assert run("simulate", "--model", "rank2", "--n", "4", "--r", "41", "--seed", "6", "--out", sim) == 0
    assert run("register", sim / "observed.csv", "--eigen", "10", "--out", out) == 0
    assert np.loadtxt(out / "eigen.csv", delimiter=",", skiprows=1).shape == (41, 5)
    header = (out / "scores.csv").read_text().splitlines()[0]
    assert len(header.split(",")) == 5
    report = json.loads((out / "report.json").read_text())
    assert report["n_eigen"] == 10 and len(report["explained_ratios"]) == 4


def test_register_fpca_memory_is_o_of_n_r(tmp_path):
    # a dense 5000 x 5000 covariance alone would take 200 MB
    sim, out = tmp_path / "sim", tmp_path / "out"
    assert run("simulate", "--model", "model1", "--n", "4", "--r", "51", "--seed", "3", "--out", sim) == 0
    tracemalloc.start()
    try:
        code = run("register", sim / "observed.csv", "--output-grid-size", "5000", "--out", out)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0 and peak < 100e6
    assert np.loadtxt(out / "eigen.csv", delimiter=",", skiprows=1).shape == (5000, 4)


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


def test_simulate_overflowing_coefficient_exits_2_without_warning(tmp_path):
    """A breakdown coefficient that overflows is refused before any curve is
    formed: exit 2 naming c and r_scale, with no RuntimeWarning (an error
    here) and nothing written."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "varireg", "simulate", "--model", "breakdown",
         "--c", "1e308", "--r-scale", "0.1", "--seed", "1", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
    assert "c=1e+308 and r_scale=0.1" in proc.stderr
    assert not out.exists()


_BREAKDOWN = ["simulate", "--model", "breakdown", "--n", "4", "--r", "21", "--seed", "3"]


@pytest.mark.parametrize("argv, flag, value, expected", [
    (_BREAKDOWN + ["--r-scale", "0.1"], "--c", "-1e-05", 0),
    (_BREAKDOWN + ["--c", "1"], "--r-scale", "-2.5E-3", 2),
    (["register", "{obs}"], "--bandwidth", "-1e-05", 2),
], ids=["c", "r_scale", "register_bandwidth"])
def test_negative_exponent_values_read_as_values(argv, flag, value, expected, cli_inputs, tmp_path, capsys):
    """``--flag -1e-05`` and ``--flag=-1e-05`` give the same exit code, message
    and output bytes: the spaced value is not read as a flag."""
    argv = [a.format(**cli_inputs) for a in argv]
    outcomes = []
    for name, given in (("spaced", [flag, value]), ("joined", [f"{flag}={value}"])):
        out = tmp_path / name
        try:
            code = main(argv + given + ["--out", str(out)])
        except SystemExit as exc:  # argparse's usage error
            code = exc.code
        outcomes.append((code, capsys.readouterr().err, read_all_bytes(out) if out.exists() else None))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == expected


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


def test_diagnose_without_out_keeps_the_register_report(tmp_path):
    sim, out = tmp_path / "sim", tmp_path / "run"
    assert run("simulate", "--model", "model1", "--n", "6", "--r", "41", "--seed", "8", "--out", sim) == 0
    assert run("register", sim / "observed.csv", "--out", out) == 0
    before = read_all_bytes(out)
    assert run("diagnose", out) == 0
    assert read_all_bytes(out) == before
    assert sorted(p.name for p in (out / "diagnose").iterdir()) == ["metrics.csv", "report.json"]


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


def test_register_noisy_given_bandwidths_cli(tmp_path, cli_inputs):
    out = tmp_path / "out"
    assert run("register", cli_inputs["obs"], "--regime", "noisy", "--h1", "0.3", "--h2", "0.2", "--out", out) == 0
    flags = json.loads((out / "report.json").read_text())["flags"]
    assert flags["h1"] == [0.3] * 6 and flags["h2"] == [0.2] * 6 and flags["auto_bandwidth"] is False


@pytest.mark.parametrize("flags, message", [
    (["--regime", "noisy", "--h1", "0.3"], "give both h1 and h2"),
    (["--regime", "noisy", "--h2", "0.3"], "give both h1 and h2"),
    (["--regime", "noisy", "--auto-bandwidth"], "unrecognized arguments: --auto-bandwidth"),
    (["--seed", "3"], "unrecognized arguments: --seed"),
], ids=["h1_alone", "h2_alone", "auto_bandwidth", "seed"])
def test_register_one_bandwidth_or_retired_flag_exit2(flags, message, cli_inputs, tmp_path, capsys):
    # leave-one-out runs where neither noisy bandwidth is given; register draws nothing at random
    out = tmp_path / "out"
    try:
        code = main(["register", str(cli_inputs["obs"]), *flags, "--out", str(out)])
    except SystemExit as exc:  # argparse refuses a flag the command does not take
        code = exc.code
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


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

    def bits(x):
        return None if x is None else np.asarray(x, dtype=float).tobytes()

    for model in ("model1", "rank2"):  # rank2 has no true variation CDF
        sim, out, dia = tmp_path / model / "sim", tmp_path / model / "out", tmp_path / model / "dia"
        assert run("simulate", "--model", model, "--n", "8", "--r", "51", "--seed", "5", "--out", sim) == 0
        assert run("register", sim / "observed.csv", "--out", out) == 0
        assert run("diagnose", out, "--truth", sim, "--out", dia) == 0
        report = json.loads((dia / "report.json").read_text())
        bundle = make_truth_bundle(LatentModelConfig(model, grid_size=51), WarpLawConfig(), 8, 5)
        lib = evaluate_against_truth(register_discrete(bundle.observed), bundle)
        assert (bundle.f_phi is None) == (model == "rank2")
        for key in ("explained_ratios", "z_stats", "curve_rel_L2_errors", "mean_sup_error",
                    "dW2_template_to_target"):
            assert bits(report.get(key)) == bits(getattr(lib, key)), (model, key)
        assert report["z_branch"] == lib.flags["z_branch"] is not None


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
    configs = {"config_missing": base / "missing.json"}
    for name, text in (("not_json", "{bad"), ("not_object", "[1]")):
        configs[f"config_{name}"] = base / f"{name}.json"
        configs[f"config_{name}"].write_text(text, encoding="utf-8")
    for command, settings, fixed in BAD_SETTINGS:
        for name, bad in settings.items():
            path = base / f"{command}_{name}.json"
            path.write_text(json.dumps({**fixed, **bad}), encoding="utf-8")
            configs[f"{command}_config_{name}"] = path
    return {
        "obs": sim / "observed.csv", "result": result, "sim": sim, "long": long_csv,
        "flat": flat_csv, "tied": tied_csv, **configs,
    }


# simulate settings in a --config file that its flags would refuse, such as text or a
# fraction for an int, and a misspelt key: exit 2, no traceback
BAD_SIMULATE_SETTINGS = {
    **{f"{key}_abc": {key: "abc"} for key in
       ("n", "r", "noise", "seed", "rank", "warp_mixture_size", "beta", "c", "r_scale")},
    "n_null": {"n": None},
    "n_inf": {"n": math.inf},
    "beta_list": {"beta": [1.5]},
    "out_list": {"out": [1]},
    "out_null": {"out": None},
    "misspelt_noise": {"nosie": 0.1},
    "n_fraction": {"n": 2.5},
    "threads_abc": {"threads": "abc"},
}

# register and diagnose settings of the wrong type, numbers and booleans alike
# (a boolean or any float for an int, a number or null for a path or the rate
# check's sizes), one noisy bandwidth without the other, and keys that name no
# setting: retired ones and a misspelt one
BAD_REGISTER_SETTINGS = {
    "eigen_null": {"eigen": None},
    "eigen_list": {"eigen": [2]},
    "knots_null": {"knots": None, "smooth_warps": True},
    "bandwidth_list": {"bandwidth": [0.1]},
    "output_grid_size_list": {"output_grid_size": [101]},
    "noisy_h1_abc": {"regime": "noisy", "h1": "abc"},
    "noisy_h1_list": {"regime": "noisy", "h1": [0.2]},
    "noisy_h1_alone": {"regime": "noisy", "h1": 0.3},
    "smooth_warps_false_string": {"smooth_warps": "false"},
    "input_number": {"input": 5},
    "out_number": {"out": 7},
    "out_null": {"out": None},
    "eigen_inf": {"eigen": math.inf},
    "threads_inf": {"threads": math.inf},
    "noisy_auto_bandwidth_no": {"regime": "noisy", "auto_bandwidth": "no"},
    "seed": {"seed": 3},
    "misspelt_bandwidth": {"bandwith": 0.1},
    "eigen_true": {"eigen": True},
    "eigen_fraction": {"eigen": 2.9},
    "eigen_whole_float": {"eigen": 2.0},
    "knots_fraction": {"knots": 3.9, "smooth_warps": True},
    "threads_fraction": {"threads": 2.5},
    "bandwidth_subnormal": {"bandwidth": 5e-324},
    "bandwidth_tiny": {"bandwidth": 1e-200},
    "noisy_h1_tiny": {"regime": "noisy", "h1": 1e-200, "h2": 0.3},
    "noisy_h2_tiny": {"regime": "noisy", "h1": 0.3, "h2": 1e-200},
}
BAD_DIAGNOSE_SETTINGS = {
    "rate_reps_null": {"rate_reps": None},
    "seed_list": {"seed": [1]},
    "truth_number": {"truth": 3},
    "out_null": {"out": None},
    "misspelt_rate_reps": {"rate_rep": 2},
    "threads_abc": {"threads": "abc"},
    "rate_ns_number": {"rate_ns": 5},
    "truth_null": {"truth": None},
}
BAD_SETTINGS = [
    ("simulate", BAD_SIMULATE_SETTINGS, {"model": "breakdown", "c": 1.0, "r_scale": 0.1, "seed": 1}),
    ("register", BAD_REGISTER_SETTINGS, {}),
    ("diagnose", BAD_DIAGNOSE_SETTINGS, {"rate_ns": "5", "seed": 1}),
]
# an --out flag or a positional input overrides its config key, so these cases go without
SETS_OUT = {f"{command}_config_{name}" for command, settings, _ in BAD_SETTINGS
            for name, bad in settings.items() if "out" in bad}


FLAG_CASES = [
    ("eigen_zero", ["register", "{obs}", "--eigen", "0"], {}, 2),
    ("eigen_negative", ["register", "{obs}", "--eigen", "-2"], {}, 2),
    ("rate_ns_not_int", ["diagnose", "{result}", "--rate-ns", "abc", "--seed", "1"], {}, 2),
    ("rate_reps_zero", ["diagnose", "{result}", "--rate-ns", "5", "--rate-reps", "0", "--seed", "1"], {}, 2),
    ("rate_model_unknown",
     ["diagnose", "{result}", "--rate-model", "nosuch", "--rate-ns", "10", "--seed", "1"], {}, 2),
    ("rate_ns_negative", ["diagnose", "{result}", "--rate-ns", "-5", "--seed", "1"], {}, 2),
    ("rate_model_not_rank_one",
     ["diagnose", "{result}", "--rate-ns", "5,10", "--seed", "1", "--rate-model", "rank2"], {}, 2),
    ("threads_env_not_int", ["register", "{obs}"], {"VARIREG_THREADS": "abc"}, 2),
    ("per_curve_grids", ["register", "{long}"], {}, 0),
    ("tied_levels", ["register", "{tied}", "--smooth-warps"], {}, 0),
    ("near_constant_curve", ["register", "{flat}"], {}, 3),
    ("tiny_bandwidths", ["register", "{obs}", "--regime", "noisy", "--h1", "1e-4", "--h2", "1e-4"], {}, 4),
    ("output_grid_0", ["register", "{obs}", "--output-grid-size", "0"], {}, 2),
    *[
        (f"simulate_config_{name}", ["simulate", "--config", f"{{simulate_config_{name}}}"], {}, 2)
        for name in BAD_SIMULATE_SETTINGS
    ],
    *[
        (f"register_config_{name}",
         ["register", *([] if "input" in bad else ["{obs}"]), "--config", f"{{register_config_{name}}}"],
         {}, 2)
        for name, bad in BAD_REGISTER_SETTINGS.items()
    ],
    *[
        (f"diagnose_config_{name}",
         ["diagnose", "{result}", "--config", f"{{diagnose_config_{name}}}"], {}, 2)
        for name in BAD_DIAGNOSE_SETTINGS
    ],
    *[
        (f"output_grid_{size}", ["register", "{obs}", "--output-grid-size", str(size)], {}, 0)
        for size in (1024, 1025, 2048, 2049)  # either side of OUTPUT_GRID_CAP and of 2048 points
    ],
    # a --config file that does not exist, is not JSON, or holds no JSON object
    *[
        (f"{command}_{config}", [command, *positional, "--config", f"{{{config}}}"], {}, 2)
        for command, positional in (("register", ["{obs}"]), ("simulate", []), ("diagnose", ["{result}"]))
        for config in ("config_missing", "config_not_json", "config_not_object")
    ],
]


@pytest.mark.parametrize("name, argv, env, expected", FLAG_CASES, ids=[case[0] for case in FLAG_CASES])
def test_flag_combinations_exit_with_documented_codes(
    name, argv, env, expected, cli_inputs, tmp_path, monkeypatch
):
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    monkeypatch.chdir(tmp_path)  # where a relative output directory would go
    out = [] if name in SETS_OUT else ["--out", str(tmp_path / "out")]
    code = main([a.format(**cli_inputs) for a in argv] + out)
    assert code in (0, 2, 3, 4)
    assert code == expected
    if code != 0:
        assert not any(tmp_path.iterdir())  # a failed run writes nothing


def _flag_actions(command):
    """The parser actions of ``command`` but --help and --config."""
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return [a for a in sub.choices[command]._actions if a.dest not in ("help", "config")]


def _config_keys(command):
    """The settings of ``command``: the destinations of its flags and positionals."""
    return [a.dest for a in _flag_actions(command)]


def _json_values(bound):
    """Every JSON type, numbers within ``bound`` or not finite.

    Text holds no path separator and no digit but 0: a drawn path stays in
    the run's directory or its parent (".."), and no drawn string is a large size.
    """
    scalars = st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-bound, bound),
        st.floats(-bound, bound) | st.sampled_from([math.nan, math.inf, -math.inf]),
        st.text("0.-aefin", max_size=8),
    )
    return scalars | st.lists(scalars, max_size=3) | st.dictionaries(st.text("ab", max_size=2), scalars, max_size=2)


# settings that run the pipeline on the tiny fixtures; "{...}" names a fixture path
_VALID_SETTINGS = {
    "input": st.sampled_from(["{obs}", "{long}", "{tied}", "{flat}"]),
    "regime": st.sampled_from(["complete", "discrete", "noisy"]),
    "bandwidth": st.floats(0.02, 1.0),
    "h1": st.floats(0.05, 1.0),
    "h2": st.floats(0.05, 1.0),
    "smooth_warps": st.booleans(),
    "knots": st.integers(2, 20),
    "eigen": st.integers(1, 8),
    "output_grid_size": st.integers(3, 200),
    "seed": st.integers(0, 1000),
    "out": st.sampled_from(["o", "o/p"]),
    "threads": st.integers(1, 8),
    "model": st.sampled_from(MODEL_NAMES),
    "n": st.integers(1, 6),
    "r": st.integers(3, 41),
    "noise": st.floats(0.0, 0.5),
    "c": st.floats(-3.0, 3.0),
    "r_scale": st.floats(0.01, 2.0),
    "rank": st.sampled_from([2, 3]),
    "warp_mixture_size": st.integers(2, 4),
    "beta": st.floats(1.01, 3.0),
    "result": st.just("{result}"),
    "truth": st.just("{sim}"),
    "rate_ns": st.sampled_from(["5", "5,6"]),
    "rate_reps": st.integers(1, 3),
    "rate_model": st.sampled_from(["model1", "model2"]),
}
# settings whose size multiplies the run time: simulate's n * r * warp_mixture_size
# (n = r = 1000 is thousands of times the fixtures' work) and the rate check's
# rate_reps samples per size
_SIZE_SETTINGS = {"n", "r", "warp_mixture_size", "rate_ns", "rate_reps"}


@st.composite
def _configs(draw, command):
    """A --config object for ``command``: valid settings, then up to two of its
    keys set to arbitrary JSON (ints bounded, so no run allocates gigabytes)."""
    keys = _config_keys(command)
    required = ("model", "seed") if command == "simulate" else ()
    cfg = draw(st.fixed_dictionaries(
        {k: _VALID_SETTINGS[k] for k in required},
        optional={k: _VALID_SETTINGS[k] for k in keys if k not in required},
    ))
    for key in draw(st.lists(st.sampled_from(keys), max_size=2, unique=True)):
        cfg[key] = draw(_json_values(50 if key in _SIZE_SETTINGS else 1000))
    return cfg


def _check_config_run(command, cfg, cli_inputs):
    """``varireg <command> --config`` with ``cfg`` ends in a documented exit code;
    a failed run writes nothing."""
    cfg = {k: v.format(**cli_inputs) if isinstance(v, str) and v.startswith("{") else v
           for k, v in cfg.items()}
    positional = {"register": ("input", "obs"), "diagnose": ("result", "result")}.get(command)
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        config, cwd = base / "config.json", base / "cwd"
        config.write_text(json.dumps(cfg), encoding="utf-8")
        cwd.mkdir()
        argv = [command, "--config", str(config)]
        if positional and positional[0] not in cfg:
            argv.append(str(cli_inputs[positional[1]]))
        if "out" not in cfg:
            argv += ["--out", "out"]
        before = os.getcwd()
        os.chdir(cwd)  # where a relative output directory goes
        try:
            code = main(argv)
        finally:
            os.chdir(before)
        assert code in (0, 2, 3, 4), cfg
        if code != 0:
            assert sorted(base.iterdir()) == [config, cwd] and not any(cwd.iterdir()), cfg


COMMANDS = ["register", "simulate", "diagnose"]


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("key", ["auto_bandwidth", "bandwith", "output-grid-size", "command", "config"])
def test_unknown_config_key_exits_2_and_is_named(command, key, cli_inputs, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: 1}), encoding="utf-8")
    positional = {"register": [str(cli_inputs["obs"])], "diagnose": [str(cli_inputs["result"])]}.get(command, [])
    code = main([command, *positional, "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == 2
    assert repr(key) in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == [config]  # nothing written


@pytest.mark.parametrize("command", COMMANDS)
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_config_values_exit_with_documented_codes(command, data, cli_inputs):
    _check_config_run(command, data.draw(_configs(command)), cli_inputs)


@pytest.mark.slow
@pytest.mark.parametrize("command", COMMANDS)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_config_values_exit_with_documented_codes_many_examples(command, data, cli_inputs):
    _check_config_run(command, data.draw(_configs(command)), cli_inputs)


# a junk flag value: no digit but 0, so never a large size, and no path separator
_JUNK = st.text("0.-aefin", max_size=6)


@st.composite
def _flag_argv(draw, command):
    """argv for ``command`` drawn from its parser actions: each flag or positional
    given or not, with a valid value, and now and then one of them with junk.
    ``diagnose`` always gets an --out, which would otherwise be inside the shared result."""
    actions = _flag_actions(command)
    junk = draw(st.none() | st.sampled_from([a.dest for a in actions if a.nargs != 0]))
    argv = [command]
    for action in actions:
        if not draw(st.integers(0, 3)) and not (command == "diagnose" and action.dest == "out"):
            continue
        if action.nargs == 0:  # a switch such as --smooth-warps
            argv.append(action.option_strings[0])
            continue
        value = draw(_JUNK if action.dest == junk else _VALID_SETTINGS[action.dest])
        argv += [*action.option_strings[:1], str(value)]
    return argv


def _run_in(run_dir, argv):
    """(exit code, {path under ``run_dir``: bytes}) of ``varireg`` with ``argv``, run
    from ``run_dir``/cwd: a documented exit code, no traceback, nothing written on failure."""
    cwd = run_dir / "cwd"  # an --out of ".." writes into run_dir
    cwd.mkdir(parents=True)
    err, before = io.StringIO(), os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:  # argparse's usage error
        code = exc.code
    finally:
        os.chdir(before)
    assert code in (0, 2, 3, 4), argv
    assert "Traceback" not in err.getvalue(), argv
    written = {str(p.relative_to(run_dir)): p.read_bytes() for p in run_dir.rglob("*") if p.is_file()}
    if code != 0:
        assert not written and not any(cwd.iterdir()), argv
    return code, written


def _check_flag_run(argv, cli_inputs):
    """``varireg`` with ``argv`` twice, each in a fresh directory: the same outcome,
    bytes included."""
    argv = [a.format(**cli_inputs) if a.startswith("{") else a for a in argv]
    with tempfile.TemporaryDirectory() as tmp:
        outcomes = [_run_in(Path(tmp) / run_dir, argv) for run_dir in ("a", "b")]
    assert outcomes[0] == outcomes[1], argv


@pytest.mark.parametrize("command", COMMANDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_drawn_flags_exit_with_documented_codes(command, data, cli_inputs):
    _check_flag_run(data.draw(_flag_argv(command)), cli_inputs)


@pytest.mark.slow
@pytest.mark.parametrize("command", COMMANDS)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_drawn_flags_exit_with_documented_codes_many_examples(command, data, cli_inputs):
    _check_flag_run(data.draw(_flag_argv(command)), cli_inputs)


# the settings a flags run and a --config run of each subcommand always give:
# its input, an --out (diagnose's default is inside the shared result), and
# simulate's model and seed, without which it does nothing
_ALWAYS = {"register": {"input", "out"}, "simulate": {"model", "seed", "out"}, "diagnose": {"result", "out"}}


@st.composite
def _valid_settings(draw, command):
    """Valid settings of ``command``, each of its flags and positionals given or not."""
    return {a.dest: draw(_VALID_SETTINGS[a.dest]) for a in _flag_actions(command)
            if a.dest in _ALWAYS[command] or draw(st.booleans())}


def _check_flags_match_config(command, chosen, cli_inputs):
    """``varireg <command>`` given ``chosen`` as flags and as a --config file: the
    same exit code, and the same bytes in the same places."""
    chosen = {k: v.format(**cli_inputs) if isinstance(v, str) and v.startswith("{") else v
              for k, v in chosen.items()}
    argv = [command]
    for action in _flag_actions(command):
        value = chosen.get(action.dest)
        if action.nargs == 0:  # a switch: given for true
            argv += action.option_strings[:1] if value else []
        elif action.dest in chosen:  # --c=-1e-05; test_negative_exponent_values_read_as_values has "--c -1e-05"
            argv.append(f"{action.option_strings[0]}={value}" if action.option_strings else str(value))
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(chosen), encoding="utf-8")
        by_flags = _run_in(Path(tmp) / "flags", argv)
        by_config = _run_in(Path(tmp) / "config", [command, "--config", str(config)])
    assert by_flags == by_config, chosen


@pytest.mark.parametrize("command", COMMANDS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_flags_and_config_give_the_same_run(command, data, cli_inputs):
    _check_flags_match_config(command, data.draw(_valid_settings(command)), cli_inputs)


@pytest.mark.slow
@pytest.mark.parametrize("command", COMMANDS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_flags_and_config_give_the_same_run_many_examples(command, data, cli_inputs):
    _check_flags_match_config(command, data.draw(_valid_settings(command)), cli_inputs)


# how a file of a valid `register` result may be damaged before `diagnose` reads it
RESULT_DAMAGES = ["truncate", "drop_row", "junk_cell", "permute_rows", "header"]
_JUNK_CELLS = st.sampled_from(["", "nan", "inf", "-inf", "1e999", "x", '"1"', "0,0"]) | _JUNK


@st.composite
def _damaged(draw, text):
    """``text``, a CSV file of a result, with one drawn damage."""
    header, *rows = text.splitlines(keepends=True)
    damage = draw(st.sampled_from(RESULT_DAMAGES))
    if damage == "truncate":
        return text[:draw(st.integers(0, len(text) - 1))]
    if damage == "drop_row":
        rows.pop(draw(st.integers(0, len(rows) - 1)))
    elif damage == "junk_cell":
        i = draw(st.integers(0, len(rows) - 1))
        cells = rows[i].rstrip("\n").split(",")
        cells[draw(st.integers(0, len(cells) - 1))] = draw(_JUNK_CELLS)
        rows[i] = ",".join(cells) + "\n"
    elif damage == "permute_rows":
        rows = [rows[i] for i in np.random.default_rng(draw(st.integers(0, 2**32 - 1))).permutation(len(rows))]
    else:
        cells = header.rstrip("\n").split(",")
        header = ",".join(draw(st.sampled_from([cells[::-1], cells[:-1], cells + ["x"], ["x", *cells[1:]]]))) + "\n"
    return header + "".join(rows)


def _check_damaged_result(data, cli_inputs):
    """``varireg diagnose``, with ``--truth`` or not, on a copy of a valid result with
    one file damaged, twice: a documented exit code without a traceback, nothing
    written on failure, and the same bytes both times."""
    name = data.draw(st.sampled_from(sorted(p.name for p in cli_inputs["result"].glob("*.csv"))))
    truth = ["--truth", str(cli_inputs["sim"])] if data.draw(st.booleans()) else []
    with tempfile.TemporaryDirectory() as tmp:
        result = Path(tmp) / "result"
        result.mkdir()
        for p in cli_inputs["result"].iterdir():
            if p.is_file():
                (result / p.name).write_bytes(p.read_bytes())
        (result / name).write_text(data.draw(_damaged((result / name).read_text(encoding="utf-8"))), encoding="utf-8")
        before = sorted(result.rglob("*")), read_all_bytes(result)
        outcomes = [_run_in(Path(tmp) / run_dir, ["diagnose", str(result), *truth, "--out", ".."])
                    for run_dir in ("a", "b")]
        assert (sorted(result.rglob("*")), read_all_bytes(result)) == before  # the result is only read
    assert outcomes[0] == outcomes[1], (name, truth)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_diagnose_damaged_result_exits_with_documented_codes(data, cli_inputs):
    _check_damaged_result(data, cli_inputs)


@pytest.mark.slow
@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_diagnose_damaged_result_exits_with_documented_codes_many_examples(data, cli_inputs):
    _check_damaged_result(data, cli_inputs)


# a curves file as `register` may meet it: at most 8 curves and 60 points, wide
# or long, valid or with one awkward trait
AWKWARD = ["none", "header_only", "repeated_time", "reversed_times", "unscaled_times", "nan_cell",
           "inf_cell", "empty_cell", "over_long_cell", "constant_curve", "short_grid", "one_curve"]
CELLS = {"nan_cell": "nan", "inf_cell": "-inf", "empty_cell": "", "over_long_cell": LONG_CELL}


@st.composite
def _curves_csv(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    awkward = draw(st.sampled_from(AWKWARD))
    n = 1 if awkward == "one_curve" else draw(st.integers(2, 8))
    r = 0 if awkward == "header_only" else draw(st.integers(1, 4) if awkward == "short_grid" else st.integers(10, 60))
    grid = np.linspace(0.0, 1.0, r) if draw(st.booleans()) else np.sort(rng.random(r))
    if awkward == "unscaled_times":
        grid = -3.0 + 43.0 * grid
    ids = [f"c{j}" for j in range(n)]
    values = [np.exp(np.cos(2 * np.pi * grid - np.pi)) * (1 + rng.random()) if draw(st.booleans())
              else rng.standard_normal(r).cumsum() for _ in ids]
    if awkward == "constant_curve":
        values[draw(st.integers(0, n - 1))][:] = 2.0
    if draw(st.booleans()):  # wide: one shared grid
        header = ["t"] + ids
        rows = [[fmt(t)] + [fmt(v[i]) for v in values] for i, t in enumerate(grid)]
    else:  # long: each curve on at least half of the grid
        header = ["curve_id", "t", "value"]
        rows = []
        for cid, v in zip(ids, values):
            keep = np.sort(rng.choice(r, size=draw(st.integers((r + 1) // 2, r)), replace=False))
            rows += [[cid, fmt(a), fmt(b)] for a, b in zip(grid[keep], v[keep])]
    if rows and awkward == "repeated_time":
        i = draw(st.integers(0, len(rows) - 1))
        rows.append([*rows[i][:-1], fmt(rng.random())])
    if rows and awkward in CELLS:
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(len(row) - 2 if header[0] == "curve_id" else 0, len(row) - 1))] = CELLS[awkward]
    if awkward == "reversed_times":
        rows.reverse()
    return "\n".join(",".join(row) for row in [header] + rows) + "\n"


def _rows_by_id(path):
    """The header of a result file with a curve id column, and each id's lines."""
    header, *lines = path.read_text(encoding="utf-8").splitlines()
    rows = {}
    for line in lines:
        rows.setdefault(line.split(",", 1)[0], []).append(line)
    return header, rows


def _check_register_run(text, regime, order):
    """``varireg register`` on the curves file ``text`` ends in a documented exit
    code without a traceback, writes nothing if it fails, and the same bytes twice.
    A wide file that registers is registered once more with its curve columns in
    ``order`` (a permutation of range(8), cut to the curves at hand): each curve
    keeps its rows, and the files of the whole sample keep their bytes."""
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        src = base / "in.csv"
        src.write_text(text, encoding="utf-8")
        codes = [main(["register", str(src), "--regime", regime, "--out", str(base / out)]) for out in ("a", "b")]
        assert codes[0] in (0, 2, 3, 4) and codes[0] == codes[1]
        if codes[0]:
            assert sorted(base.iterdir()) == [src]
            return
        assert read_all_bytes(base / "a") == read_all_bytes(base / "b")
        if not text.startswith("t,"):
            return
        lines = [line.split(",") for line in text.splitlines()]
        columns = [0] + [1 + j for j in order if j < len(lines[0]) - 1]
        src.write_text("".join(",".join(line[c] for c in columns) + "\n" for line in lines), encoding="utf-8")
        assert main(["register", str(src), "--regime", regime, "--out", str(base / "p")]) == 0
        one, other = read_all_bytes(base / "a"), read_all_bytes(base / "p")
        assert one.keys() == other.keys()
        for name in one.keys() - {"report.json"}:
            if name in ("warps.csv", "registered.csv", "scores.csv"):
                assert _rows_by_id(base / "a" / name) == _rows_by_id(base / "p" / name), name
            else:
                assert one[name] == other[name], name


REGIMES = st.sampled_from(["discrete", "complete", "noisy"])
# the order of a wide file's curve columns in its second run
ORDERS = st.permutations(range(8))


@settings(max_examples=60, deadline=None)
@given(_curves_csv(), REGIMES, ORDERS)
def test_register_drawn_curves_exit_with_documented_codes(text, regime, order):
    _check_register_run(text, regime, order)


@pytest.mark.slow
@settings(max_examples=1000, deadline=None)
@given(_curves_csv(), REGIMES, ORDERS)
def test_register_drawn_curves_exit_with_documented_codes_many_examples(text, regime, order):
    _check_register_run(text, regime, order)
