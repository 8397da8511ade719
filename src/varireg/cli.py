"""Command-line interface: simulate, register, diagnose.

Configuration comes from an optional flat JSON file (--config) with every
key overridable by a same-named flag; flags win.  All outputs are
deterministic given the configuration and seed, byte for byte.  ``--threads``
and ``VARIREG_THREADS`` are accepted for compatibility and have no effect.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import dataio
from ._parallel import resolve_threads
from .diagnostics import rate_check, truth_errors, z_statistic
from .errors import (
    AllCandidatesSingular,
    EmptySample,
    EmptyWindow,
    SingularFit,
    ZeroVariation,
)
from .fpca import covariance_matrix, leading_eigenpairs, row_scores
from .registration import (
    NoisyOptions,
    RegisterOptions,
    _evaluate,
    _interp_rows,
    _stack,
    register_complete,
    register_discrete,
    register_noisy,
)
from .simulate import (
    MODEL_NAMES,
    LatentModelConfig,
    WarpLawConfig,
    invert_warps,
    make_truth_bundle,
)
from .variation import DiscreteCurve, wasserstein2

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_ZERO_VARIATION = 3
EXIT_WINDOW = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="varireg",
        description="Tuning-free registration of warped functional data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    reg = sub.add_parser("register", help="register curves from a CSV file")
    reg.add_argument("input", nargs="?", help="input CSV (wide or long)")
    reg.add_argument("--config", help="flat JSON config; flags override it")
    reg.add_argument("--regime", choices=["complete", "discrete", "noisy"])
    reg.add_argument("--bandwidth", type=float, help="NW bandwidth (discrete regime)")
    reg.add_argument("--h1", type=float, help="derivative bandwidth (noisy regime)")
    reg.add_argument("--h2", type=float, help="curve bandwidth (noisy regime)")
    reg.add_argument("--auto-bandwidth", action="store_const", const=True, default=None,
                     help="choose h1/h2 by leave-one-out CV")
    reg.add_argument("--smooth-warps", action="store_const", const=True, default=None)
    reg.add_argument("--knots", type=int, help="knots for warp smoothing")
    reg.add_argument("--eigen", type=int, help="number of eigenpairs to report")
    reg.add_argument("--output-grid-size", type=int)
    reg.add_argument("--seed", type=int)
    reg.add_argument("--out", help="output directory")
    reg.add_argument("--threads", type=int)

    sim = sub.add_parser("simulate", help="draw a synthetic warped sample")
    sim.add_argument("--config", help="flat JSON config; flags override it")
    sim.add_argument("--model", help="|".join(MODEL_NAMES))
    sim.add_argument("--n", type=int, help="sample size")
    sim.add_argument("--r", type=int, help="grid size")
    sim.add_argument("--noise", type=float, help="uniform noise half-width")
    sim.add_argument("--c", type=float, help="breakdown location parameter")
    sim.add_argument("--r-scale", type=float, help="breakdown variance parameter")
    sim.add_argument("--rank", type=int, help="breakdown rank (2 or 3)")
    sim.add_argument("--warp-mixture-size", type=int, help="components per warp")
    sim.add_argument("--beta", type=float, help="warp steepness bound parameter")
    sim.add_argument("--seed", type=int)
    sim.add_argument("--out", help="output directory")
    sim.add_argument("--threads", type=int)

    dia = sub.add_parser("diagnose", help="diagnostics for a registration run")
    dia.add_argument("result", nargs="?", help="directory written by `register`")
    dia.add_argument("--config", help="flat JSON config; flags override it")
    dia.add_argument("--truth", help="directory written by `simulate`")
    dia.add_argument("--out", help="output directory (default: result dir)")
    dia.add_argument("--rate-ns", help="comma-separated sample sizes for the rate check")
    dia.add_argument("--rate-reps", type=int)
    dia.add_argument("--rate-model", help="model for the rate check (rank-1)")
    dia.add_argument("--seed", type=int)
    dia.add_argument("--threads", type=int)
    return parser


def _merge_config(args) -> dict:
    cfg = {}
    if getattr(args, "config", None):
        with open(args.config, encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise dataio.InputFormatError("config must be a flat JSON object")
        cfg.update(loaded)
    for key, value in vars(args).items():
        if key in ("command", "config"):
            continue
        if value is not None:
            cfg[key.replace("-", "_")] = value
    return cfg


def _number(cfg, key, kind, default=None):
    """``kind(cfg[key])`` for a numeric setting; ValueError naming the key if it is not one.

    An absent key takes ``default``; None is returned only where that is None.
    """
    value = cfg.get(key, default)
    if value is None and default is None:
        return None
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise ValueError(f"{key} must be a number, got {value!r}") from None


def _json_float_list(arr):
    return [float(x) for x in np.asarray(arr).ravel()] if arr is not None else None


def cmd_register(args) -> int:
    cfg = _merge_config(args)
    path = cfg.get("input")
    if not path:
        print("error: no input file given", file=sys.stderr)
        return EXIT_PARSE
    try:
        ids, curves, rescale = dataio.read_curves_csv(path)
    except (OSError, dataio.InputFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    if not curves:
        print("error: no curves in input", file=sys.stderr)
        return EXIT_PARSE

    regime = cfg.get("regime", "discrete")
    out_dir = Path(cfg.get("out", "."))
    auto = cfg.get("auto_bandwidth")
    if auto is None:
        auto = cfg.get("h1") is None or cfg.get("h2") is None
    try:
        resolve_threads(cfg.get("threads"))  # validated only; the pipelines run serially
        n_eigen = int(cfg.get("eigen", 3))
        if n_eigen < 1:
            raise ValueError(f"--eigen must be at least 1, got {n_eigen}")
        grid_override = None
        if cfg.get("output_grid_size") is not None:
            size = int(cfg["output_grid_size"])
            if size < 3:
                raise ValueError(f"--output-grid-size must be at least 3, got {size}")
            grid_override = np.linspace(0.0, 1.0, size)
        if regime == "noisy":
            opts = NoisyOptions(
                h1=cfg.get("h1"),
                h2=cfg.get("h2"),
                auto=bool(auto),
                output_grid=grid_override,
            )
            result = register_noisy(curves, opts)
        elif regime == "complete":
            result = register_complete(curves, output_grid=grid_override)
        elif regime == "discrete":
            opts = RegisterOptions(
                bandwidth=cfg.get("bandwidth"),
                smooth_warps=bool(cfg.get("smooth_warps", False)),
                n_knots=int(cfg.get("knots", 11)),
                output_grid=grid_override,
            )
            result = register_discrete(curves, opts)
        else:
            print(f"error: unknown regime {regime!r}", file=sys.stderr)
            return EXIT_PARSE
    except ZeroVariation as exc:
        cid = ids[exc.curve_id] if exc.curve_id is not None else "?"
        print(f"error: curve {cid!r} has zero variation; cannot register", file=sys.stderr)
        return EXIT_ZERO_VARIATION
    except EmptyWindow as exc:
        print(
            f"error: empty smoothing window at t={exc.eval_point:g}; "
            f"use bandwidth > {exc.suggested_bandwidth:.6g}",
            file=sys.stderr,
        )
        return EXIT_WINDOW
    except (SingularFit, AllCandidatesSingular) as exc:
        print(f"error: {exc}; increase the bandwidth", file=sys.stderr)
        return EXIT_WINDOW
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE

    grid = result.output_grid
    at = np.clip(grid, 0.0, 1.0)
    dataio.write_warps_csv(
        out_dir / "warps.csv",
        ids,
        _evaluate(result.warps, at),
        _evaluate(result.inverse_warps, at),
        grid,
    )
    dataio.write_long_csv(out_dir / "registered.csv", ids, result.registered)
    dataio.write_mean_csv(out_dir / "mean.csv", result.mean)
    dataio.write_template_csv(out_dir / "template.csv", result.template_cdf)

    ratios = None
    if len(curves) >= 2:
        m = min(n_eigen, len(grid))
        eig = leading_eigenpairs(covariance_matrix(result.registered), grid, m)
        dataio.write_eigen_csv(out_dir / "eigen.csv", eig.grid, eig.eigenfunctions)
        # score on the eigenfunctions' grid, which is thinned when grid is large
        keep = np.searchsorted(grid, eig.grid)
        on_eig_grid = np.stack([c.values for c in result.registered])[:, keep]
        score_mat = np.column_stack(
            [row_scores(on_eig_grid, eig.eigenfunctions[j], eig.grid) for j in range(m)]
        )
        dataio.write_scores_csv(out_dir / "scores.csv", ids, score_mat)
        ratios = eig.explained_ratios

    report = {
        "regime": result.regime,
        "n_curves": len(curves),
        "curve_ids": list(ids),
        "grid_sizes": [int(c.grid.size) for c in curves],
        "per_curve_grids": any(not np.array_equal(c.grid, curves[0].grid) for c in curves[1:]),
        "output_grid_size": int(grid.size),
        "n_eigen": n_eigen,
        "explained_ratios": _json_float_list(ratios),
        "time_rescale": None
        if rescale is None
        else {"offset": rescale[0], "scale": rescale[1]},
        "flags": {k: v for k, v in result.metadata.items()},
    }
    dataio.write_report_json(out_dir / "report.json", report)
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg = _merge_config(args)
    model = cfg.get("model")
    if model not in MODEL_NAMES:
        print(f"error: unknown model {model!r}; choose from {MODEL_NAMES}", file=sys.stderr)
        return EXIT_PARSE
    if cfg.get("seed") is None:
        print("error: --seed is required for simulate", file=sys.stderr)
        return EXIT_PARSE
    out_dir = Path(cfg.get("out", "."))

    try:
        seed = _number(cfg, "seed", int)
        n = _number(cfg, "n", int, 50)
        r = _number(cfg, "r", int, 101)
        noise = _number(cfg, "noise", float, 0.0)
        model_cfg = LatentModelConfig(
            name=model,
            grid_size=r,
            noise_halfwidth=noise,
            c=_number(cfg, "c", float),
            r_scale=_number(cfg, "r_scale", float),
            rank=_number(cfg, "rank", int, 2),
        )
        warp_cfg = WarpLawConfig(
            J=_number(cfg, "warp_mixture_size", int, 2),
            beta=_number(cfg, "beta", float, 1.01),
        )
        bundle = make_truth_bundle(model_cfg, warp_cfg, n, seed)
    except (ValueError, EmptySample) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE

    ids = [f"curve_{i + 1}" for i in range(n)]
    dataio.write_wide_csv(
        out_dir / "observed.csv", ids, bundle.grid, [c.values for c in bundle.observed]
    )
    dataio.write_wide_csv(
        out_dir / "truth_latent.csv", ids, bundle.grid, [c.values for c in bundle.latent]
    )
    warp_grid = np.unique(np.concatenate((bundle.grid, np.linspace(0.0, 1.0, 513))))
    dataio.write_warps_csv(
        out_dir / "truth_warps.csv",
        ids,
        bundle.warp_rows(slice(None), warp_grid),
        invert_warps(bundle.warps, warp_grid),
        warp_grid,
    )
    if bundle.f_phi is not None:
        dataio.write_template_csv(out_dir / "truth_fphi.csv", bundle.f_phi)

    meta = {
        "model": model,
        "n": n,
        "r": r,
        "noise_halfwidth": noise,
        "seed": seed,
        "rank": 1 if model_cfg.is_rank_one else (model_cfg.rank if model == "breakdown" else int(model[-1])),
        "c": model_cfg.c,
        "r_scale": model_cfg.r_scale,
        "warp_mixture_size": warp_cfg.J,
        "beta": warp_cfg.beta,
    }
    dataio.write_report_json(out_dir / "truth_meta.json", meta)
    return EXIT_OK


def _read_registered(result_dir):
    path = Path(result_dir) / "registered.csv"
    ids, curves, _ = dataio.read_curves_csv(path)
    grid = curves[0].grid
    for c in curves[1:]:
        if not np.array_equal(c.grid, grid):
            raise dataio.InputFormatError("registered curves are not on a common grid")
    return ids, curves


def cmd_diagnose(args) -> int:
    cfg = _merge_config(args)
    result_dir = cfg.get("result")
    if not result_dir:
        print("error: no result directory given", file=sys.stderr)
        return EXIT_PARSE
    result_dir = Path(result_dir)
    out_dir = Path(cfg.get("out", result_dir))
    truth_dir = cfg.get("truth")

    try:
        ids, registered = _read_registered(result_dir)
        template = dataio.read_template_csv(result_dir / "template.csv")
        warp_samples = dataio.read_warps_csv(result_dir / "warps.csv")
        mean = DiscreteCurve(*dataio.read_mean_csv(result_dir / "mean.csv"))
        if not np.array_equal(mean.grid, registered[0].grid):
            raise dataio.InputFormatError("mean.csv and registered.csv grids differ")
    except (OSError, dataio.InputFormatError, ValueError) as exc:
        print(f"error: cannot read result files: {exc}", file=sys.stderr)
        return EXIT_PARSE

    grid = registered[0].grid
    n = len(registered)
    report = {"n_curves": n}
    zinfo = {}
    z = None
    ratios = None
    if n >= 2:
        try:
            z = z_statistic(registered, info=zinfo)
        except ZeroVariation:
            z = None
        eig = leading_eigenpairs(covariance_matrix(registered), grid, min(3, n))
        ratios = eig.explained_ratios
    report["z_stats"] = _json_float_list(z)
    report["z_branch"] = zinfo.get("branch")
    report["explained_ratios"] = _json_float_list(ratios)

    warp_errs = rel_errs = None
    if truth_dir:
        truth_dir = Path(truth_dir)
        try:
            truth_ids, truth_latent, _ = dataio.read_curves_csv(truth_dir / "truth_latent.csv")
            truth_warps = dataio.read_warps_csv(truth_dir / "truth_warps.csv")
            fphi_path = truth_dir / "truth_fphi.csv"
            f_phi = dataio.read_template_csv(fphi_path) if fphi_path.exists() else None
        except (OSError, dataio.InputFormatError, ValueError) as exc:
            print(f"error: cannot read truth files: {exc}", file=sys.stderr)
            return EXIT_PARSE
        if truth_ids != ids:
            print("error: truth and result curve ids differ", file=sys.stderr)
            return EXIT_PARSE

        def warp_block(rows):
            # estimated warps on the grid of warps.csv, truth warps interpolated onto it
            t_est, w_est = _stack(*zip(*(warp_samples[cid][:2] for cid in ids[rows])))
            t_true, w_true = _stack(*zip(*(truth_warps[cid][:2] for cid in ids[rows])))
            # a row padded past its own grid repeats its last point and value
            last = np.where(t_est < np.inf, t_est, -np.inf).max(axis=1, keepdims=True)
            x = np.minimum(t_est, last)
            return w_est, _interp_rows(x if x.shape[0] > 1 else x[0], t_true, w_true)

        width = max(warp_samples[cid][0].size for cid in ids)
        latent = _interp_rows(grid, *_stack([c.grid for c in truth_latent], [c.values for c in truth_latent]))
        values = np.stack([c.values for c in registered])
        warp_errs, rel_errs, mean_sup = truth_errors(warp_block, width, values, latent, mean)
        report["warp_sup_errors"] = _json_float_list(warp_errs)
        report["curve_rel_L2_errors"] = _json_float_list(rel_errs)
        report["median_curve_rel_L2_error"] = float(np.median(rel_errs))
        report["mean_sup_error"] = mean_sup
        if f_phi is not None:
            report["dW2_template_to_target"] = float(wasserstein2(template, f_phi) ** 2)

    if cfg.get("rate_ns"):
        if cfg.get("seed") is None:
            print("error: --seed is required for the rate check", file=sys.stderr)
            return EXIT_PARSE
        try:
            ns = [int(x) for x in str(cfg["rate_ns"]).split(",") if x]
            rate = rate_check(
                LatentModelConfig(name=cfg.get("rate_model", "model1")),
                WarpLawConfig(),
                ns,
                int(cfg.get("rate_reps", 50)),
                int(cfg["seed"]),
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_PARSE
        report["rate_check"] = {
            "ns": rate.ns,
            "grid_sizes": rate.grid_sizes,
            "means": _json_float_list(rate.means),
            "std_errors": _json_float_list(rate.std_errors),
            "slope": rate.slope,
            "flag": rate.flag,
        }

    out_dir.mkdir(parents=True, exist_ok=True)
    dataio.write_report_json(out_dir / "report.json", report)
    rows = []
    for i, cid in enumerate(ids):
        rows.append(
            [
                cid,
                dataio.fmt(z[i]) if z is not None else "",
                dataio.fmt(warp_errs[i]) if warp_errs is not None else "",
                dataio.fmt(rel_errs[i]) if rel_errs is not None else "",
            ]
        )
    dataio.write_rows(
        out_dir / "metrics.csv",
        ["curve_id", "z_stat", "warp_sup_error", "curve_rel_l2_error"],
        rows,
    )
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "register":
        return cmd_register(args)
    if args.command == "simulate":
        return cmd_simulate(args)
    if args.command == "diagnose":
        return cmd_diagnose(args)
    parser.error(f"unknown command {args.command!r}")
    return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
