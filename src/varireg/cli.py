"""Command-line interface: simulate, register, diagnose.

Configuration comes from an optional flat JSON file (--config) with every
key overridable by a same-named flag; flags win.  A key that is no
flag or positional of the subcommand is refused.  All outputs are
deterministic given the configuration and seed, byte for byte.  ``--threads``
and ``VARIREG_THREADS`` are accepted for compatibility and have no effect.

The commands raise on any error; ``main`` alone maps each exception to its
message and exit code (2 parse or invalid setting, 3 zero variation, 4
smoothing window), and a failed run writes nothing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import dataio
from ._parallel import resolve_threads
from .diagnostics import rate_check, registration_report
from .errors import (
    AllCandidatesSingular,
    EmptySample,
    EmptyWindow,
    GridMismatch,
    NotRankOne,
    SingularFit,
    ZeroVariation,
)
from .fpca import _common_grid, row_eigenpairs, row_scores
from .registration import (
    NoisyOptions,
    RegisterOptions,
    _evaluate,
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
    reg.add_argument("--h1", type=float, help="derivative bandwidth (noisy regime; with --h2)")
    reg.add_argument("--h2", type=float, help="curve bandwidth (noisy regime; with --h1)")
    reg.add_argument("--smooth-warps", action="store_const", const=True, default=None)
    reg.add_argument("--knots", type=int, help="knots for warp smoothing")
    reg.add_argument("--eigen", type=int, help="number of eigenpairs to report")
    reg.add_argument("--output-grid-size", type=int)
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
    dia.add_argument("--out", help="output directory (default: <result>/diagnose)")
    dia.add_argument("--rate-ns", help="comma-separated sample sizes for the rate check")
    dia.add_argument("--rate-reps", type=int)
    dia.add_argument("--rate-model", help="model for the rate check (rank-1)")
    dia.add_argument("--seed", type=int)
    dia.add_argument("--threads", type=int)
    return parser


def _merge_config(args) -> dict:
    cfg = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            try:
                loaded = json.load(fh)
            except ValueError as exc:
                raise ValueError(f"cannot read {args.config}: {exc}") from None
        if not isinstance(loaded, dict):
            raise ValueError(f"{args.config} must hold a flat JSON object")
        # the settings are the subcommand's flags and positionals, by destination
        unknown = sorted(k for k in loaded if k in ("command", "config") or k not in vars(args))
        if unknown:
            raise ValueError(f"{args.config}: {args.command} takes no setting {', '.join(map(repr, unknown))}")
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
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{key} must be a number, got {value!r}") from None


def _boolean(cfg, key, default):
    """``cfg[key]`` for an on/off setting; ValueError naming the key if it is not a JSON boolean."""
    value = cfg.get(key, default)
    if not isinstance(value, bool):
        raise ValueError(f"{key} must be true or false, got {value!r}")
    return value


def _path(cfg, key, default=None):
    """``cfg[key]`` for a path setting; ValueError naming the key if it is not a string.

    An absent key takes ``default``; None is returned only where that is None.
    """
    value = cfg.get(key, default)
    if (value is not None or default is not None) and not isinstance(value, str):
        raise ValueError(f"{key} must be a path, got {value!r}")
    return value


def _json_float_list(arr):
    return [float(x) for x in np.asarray(arr).ravel()] if arr is not None else None


def cmd_register(args) -> None:
    cfg = _merge_config(args)
    path, out_dir = _path(cfg, "input"), Path(_path(cfg, "out", "."))
    if not path:
        raise ValueError("no input file given")
    ids, curves, rescale = dataio.read_curves_csv(path)

    regime = cfg.get("regime", "discrete")
    resolve_threads(cfg.get("threads"))  # validated only; the pipelines run serially
    n_eigen = _number(cfg, "eigen", int, 3)
    if n_eigen < 1:
        raise ValueError(f"--eigen must be at least 1, got {n_eigen}")
    grid_override = None
    size = _number(cfg, "output_grid_size", int)
    if size is not None:
        if size < 3:
            raise ValueError(f"--output-grid-size must be at least 3, got {size}")
        grid_override = np.linspace(0.0, 1.0, size)
    try:
        if regime == "noisy":
            h1, h2 = _number(cfg, "h1", float), _number(cfg, "h2", float)
            result = register_noisy(curves, NoisyOptions(h1=h1, h2=h2, output_grid=grid_override))
        elif regime == "complete":
            result = register_complete(curves, output_grid=grid_override)
        elif regime == "discrete":
            opts = RegisterOptions(
                bandwidth=_number(cfg, "bandwidth", float),
                smooth_warps=_boolean(cfg, "smooth_warps", False),
                n_knots=_number(cfg, "knots", int, 11),
                output_grid=grid_override,
            )
            result = register_discrete(curves, opts)
        else:
            raise ValueError(f"unknown regime {regime!r}")
    except ZeroVariation as exc:  # the library counts curves; the user knows their ids
        cid = ids[exc.curve_id] if exc.curve_id is not None else "?"
        raise ZeroVariation(f"curve {cid!r} has zero variation; cannot register") from None

    grid = result.output_grid
    dataio.write_warps_csv(
        out_dir / "warps.csv",
        ids,
        _evaluate(result.warps, grid),
        _evaluate(result.inverse_warps, grid),
        grid,
    )
    dataio.write_long_csv(out_dir / "registered.csv", ids, result.registered)
    dataio.write_mean_csv(out_dir / "mean.csv", result.mean)
    dataio.write_template_csv(out_dir / "template.csv", result.template_cdf)

    ratios = None
    if len(curves) >= 2:
        # at most min(--eigen, n, r) pairs: past the sample size they are null directions
        values = np.stack([c.values for c in result.registered])
        eig = row_eigenpairs(values, grid, n_eigen)
        dataio.write_eigen_csv(out_dir / "eigen.csv", grid, eig.eigenfunctions)
        score_mat = np.column_stack([row_scores(values, phi, grid) for phi in eig.eigenfunctions])
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
        "flags": dict(result.metadata),
    }
    dataio.write_report_json(out_dir / "report.json", report)


def cmd_simulate(args) -> None:
    cfg = _merge_config(args)
    model = cfg.get("model")
    if model not in MODEL_NAMES:
        raise ValueError(f"unknown model {model!r}; choose from {MODEL_NAMES}")
    if cfg.get("seed") is None:
        raise ValueError("--seed is required for simulate")

    out_dir = Path(_path(cfg, "out", "."))
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
        "rank": len(model_cfg.basis()),
        "c": model_cfg.c,
        "r_scale": model_cfg.r_scale,
        "warp_mixture_size": warp_cfg.J,
        "beta": warp_cfg.beta,
    }
    dataio.write_report_json(out_dir / "truth_meta.json", meta)


def cmd_diagnose(args) -> None:
    cfg = _merge_config(args)
    result_dir, truth_dir = _path(cfg, "result"), _path(cfg, "truth")
    if not result_dir:
        raise ValueError("no result directory given")
    result_dir = Path(result_dir)
    out_dir = Path(_path(cfg, "out", str(result_dir / "diagnose")))

    ids, registered, _ = dataio.read_curves_csv(result_dir / "registered.csv")
    grid = _common_grid(registered)
    template = dataio.read_template_csv(result_dir / "template.csv")
    mean = dataio.read_mean_csv(result_dir / "mean.csv")
    if not np.array_equal(mean.grid, grid):
        raise dataio.InputFormatError("mean.csv and registered.csv grids differ")

    def truth():
        warp_samples = dataio.read_warps_csv(result_dir / "warps.csv")  # only the truth errors use it
        truth_path = Path(truth_dir)
        truth_ids, truth_latent, _ = dataio.read_curves_csv(truth_path / "truth_latent.csv")
        truth_warps = dataio.read_warps_csv(truth_path / "truth_warps.csv")
        fphi_path = truth_path / "truth_fphi.csv"
        f_phi = dataio.read_template_csv(fphi_path) if fphi_path.exists() else None
        latent_by_id = dict(zip(truth_ids, truth_latent))
        if latent_by_id.keys() != set(ids):
            raise ValueError("truth and result curve ids differ")
        for name, samples in (("warps.csv", warp_samples), ("truth_warps.csv", truth_warps)):
            missing = next((cid for cid in ids if cid not in samples), None)
            if missing is not None:
                raise ValueError(f"{name} has no rows for curve {missing!r}")

        def warp_block(rows):
            # each curve's estimated warp at its own points of warps.csv, its truth warp interpolated there
            block = ids[rows]
            return (
                [warp_samples[cid][1] for cid in block],
                [np.interp(warp_samples[cid][0], *truth_warps[cid][:2]) for cid in block],
            )

        width = max(warp_samples[cid][0].size for cid in ids)
        latent = np.stack([np.interp(grid, latent_by_id[cid].grid, latent_by_id[cid].values) for cid in ids])
        return warp_block, width, latent, f_phi

    rep = registration_report(registered, mean, template, truth if truth_dir else None)
    report = {
        "n_curves": len(registered),
        "z_stats": _json_float_list(rep.z_stats),
        "explained_ratios": _json_float_list(rep.explained_ratios),
        **rep.flags,
    }
    if truth_dir:
        report["warp_sup_errors"] = _json_float_list(rep.warp_sup_errors)
        report["curve_rel_L2_errors"] = _json_float_list(rep.curve_rel_L2_errors)
        report["median_curve_rel_L2_error"] = float(np.median(rep.curve_rel_L2_errors))
        report["mean_sup_error"] = rep.mean_sup_error
        if rep.dW2_template_to_target is not None:
            report["dW2_template_to_target"] = float(rep.dW2_template_to_target)

    if cfg.get("rate_ns"):
        if cfg.get("seed") is None:
            raise ValueError("--seed is required for the rate check")
        ns = [int(x) for x in str(cfg["rate_ns"]).split(",") if x]
        rate = rate_check(
            LatentModelConfig(name=cfg.get("rate_model", "model1")),
            WarpLawConfig(),
            ns,
            _number(cfg, "rate_reps", int, 50),
            _number(cfg, "seed", int),
        )
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
    columns = (rep.z_stats, rep.warp_sup_errors, rep.curve_rel_L2_errors)
    header = ["curve_id", "z_stat", "warp_sup_error", "curve_rel_l2_error"]
    rows = ((cid, [None if v is None else v[i:i + 1] for v in columns]) for i, cid in enumerate(ids))
    dataio.write_rows(out_dir / "metrics.csv", header, rows)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # the commands are looked up at call time, so a rebound cmd_* is the one that runs
        {"register": cmd_register, "simulate": cmd_simulate, "diagnose": cmd_diagnose}[args.command](args)
        return EXIT_OK
    except ZeroVariation as exc:
        code, message = EXIT_ZERO_VARIATION, str(exc)
    except EmptyWindow as exc:
        code, message = EXIT_WINDOW, (
            f"empty smoothing window at t={exc.eval_point:g}; "
            f"use bandwidth > {exc.suggested_bandwidth:.6g}"
        )
    except (SingularFit, AllCandidatesSingular) as exc:
        code, message = EXIT_WINDOW, f"{exc}; increase the bandwidth"
    except (OSError, ValueError, dataio.InputFormatError, EmptySample, NotRankOne, GridMismatch) as exc:
        code, message = EXIT_PARSE, str(exc)
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
