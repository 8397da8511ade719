"""Command-line interface: simulate, register, diagnose.

The parser alone knows each setting's type, default and choices.  An
optional flat JSON file (--config) gives settings by the destinations of
the subcommand's flags and positionals; each value goes through its flag's
type and choices, and the checked values become the subparser's defaults,
so a flag given as well wins.  A key that is no setting of the subcommand,
or a value its flag would not take, is refused.  All outputs are
deterministic given the configuration and seed, byte for byte.  ``--threads``
and ``VARIREG_THREADS`` are accepted for compatibility and have no effect.

The commands raise on any error; ``main`` alone maps each exception to its
message and exit code (2 parse or invalid setting, 3 zero variation, 4
smoothing window), and a failed run writes nothing.
"""

from __future__ import annotations

import argparse
import json
import re
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


class _Parser(argparse.ArgumentParser):
    """An argument parser that reads every negative number as a value, ``-1e-05`` included.

    argparse takes only ``-1`` and ``-1.5`` for negative numbers, so without
    this ``--c -1e-05`` would read ``-1e-05`` as a flag; ``-inf``,
    ``-infinity`` and ``-nan`` are read in any case, as float() reads them.
    Subparsers are of the same class.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-((\d+\.?\d*|\.\d+)(e[+-]?\d+)?|inf|infinity|nan)$", re.IGNORECASE
        )


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="varireg",
        description="Tuning-free registration of warped functional data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    reg = sub.add_parser("register", help="register curves from a CSV file")
    reg.add_argument("input", nargs="?", help="input CSV (wide or long)")
    reg.add_argument("--config", help="flat JSON config; flags override it")
    reg.add_argument("--regime", choices=["complete", "discrete", "noisy"], default="discrete")
    reg.add_argument("--bandwidth", type=float, help="NW bandwidth (discrete regime)")
    reg.add_argument("--h1", type=float, help="derivative bandwidth (noisy regime; with --h2)")
    reg.add_argument("--h2", type=float, help="curve bandwidth (noisy regime; with --h1)")
    reg.add_argument("--smooth-warps", action="store_true")
    reg.add_argument("--knots", type=int, default=11, help="knots for warp smoothing")
    reg.add_argument("--eigen", type=int, default=3, help="number of eigenpairs to report")
    reg.add_argument("--output-grid-size", type=int)
    reg.add_argument("--out", default=".", help="output directory")
    reg.add_argument("--threads", type=int)

    sim = sub.add_parser("simulate", help="draw a synthetic warped sample")
    sim.add_argument("--config", help="flat JSON config; flags override it")
    sim.add_argument("--model", help="|".join(MODEL_NAMES))
    sim.add_argument("--n", type=int, default=50, help="sample size")
    sim.add_argument("--r", type=int, default=101, help="grid size")
    sim.add_argument("--noise", type=float, default=0.0, help="uniform noise half-width")
    sim.add_argument("--c", type=float, help="breakdown location parameter")
    sim.add_argument("--r-scale", type=float, help="breakdown variance parameter")
    sim.add_argument("--rank", type=int, default=2, help="breakdown rank (2 or 3)")
    sim.add_argument("--warp-mixture-size", type=int, default=2, help="components per warp")
    sim.add_argument("--beta", type=float, default=1.01, help="warp steepness bound parameter")
    sim.add_argument("--seed", type=int)
    sim.add_argument("--out", default=".", help="output directory")
    sim.add_argument("--threads", type=int)

    dia = sub.add_parser("diagnose", help="diagnostics for a registration run")
    dia.add_argument("result", nargs="?", help="directory written by `register`")
    dia.add_argument("--config", help="flat JSON config; flags override it")
    dia.add_argument("--truth", help="directory written by `simulate`")
    dia.add_argument("--out", help="output directory (default: <result>/diagnose)")
    dia.add_argument("--rate-ns", help="comma-separated sample sizes for the rate check")
    dia.add_argument("--rate-reps", type=int, default=50)
    dia.add_argument("--rate-model", default="model1", help="model for the rate check (rank-1)")
    dia.add_argument("--seed", type=int)
    dia.add_argument("--threads", type=int)
    return parser


def _apply_config(parser, args) -> None:
    """Make the settings of the --config file ``args.config`` the defaults of
    ``args.command``'s subparser, each as its flag would take it.

    A number setting takes the text of a JSON number or string through its
    flag's type, and null only where the flag has no default; an on/off
    setting takes a JSON boolean; any other setting takes a string, one of
    the flag's choices where it has them.  ValueError names every key that
    is no setting of the subcommand, or the key and value of a refused one.
    """
    command = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices[args.command]
    with open(args.config, encoding="utf-8") as fh:
        try:
            loaded = json.load(fh)
        except ValueError as exc:
            raise ValueError(f"cannot read {args.config}: {exc}") from None
    if not isinstance(loaded, dict):
        raise ValueError(f"{args.config} must hold a flat JSON object")
    # the settings are the subcommand's flags and positionals, by destination
    actions = {a.dest: a for a in command._actions if a.dest not in ("help", "config")}
    unknown = sorted(k for k in loaded if k not in actions)
    if unknown:
        raise ValueError(f"{args.config}: {args.command} takes no setting {', '.join(map(repr, unknown))}")
    command.set_defaults(**{key: _setting(actions[key], value, args.config) for key, value in loaded.items()})


def _setting(action, value, path):
    if action.nargs == 0:  # an on/off switch
        ok = isinstance(value, bool)
    elif action.type is None:
        ok = isinstance(value, str) and (action.choices is None or value in action.choices)
    else:  # a number: the flag's type of the value's text, which no list, object or boolean has
        try:
            return None if value is None and action.default is None else action.type(str(value))
        except ValueError:
            ok = False
    if ok:
        return value
    raise ValueError(f"{path}: {action.dest} cannot be {value!r}")


def _json_float_list(arr):
    return [float(x) for x in np.asarray(arr).ravel()] if arr is not None else None


def cmd_register(args) -> None:
    if not args.input:
        raise ValueError("no input file given")
    out_dir = Path(args.out)
    ids, curves, rescale = dataio.read_curves_csv(args.input)

    resolve_threads(args.threads)  # validated only; the pipelines run serially
    if args.eigen < 1:
        raise ValueError(f"--eigen must be at least 1, got {args.eigen}")
    grid_override = None
    if args.output_grid_size is not None:
        if args.output_grid_size < 3:
            raise ValueError(f"--output-grid-size must be at least 3, got {args.output_grid_size}")
        grid_override = np.linspace(0.0, 1.0, args.output_grid_size)
    try:
        if args.regime == "noisy":
            result = register_noisy(curves, NoisyOptions(h1=args.h1, h2=args.h2, output_grid=grid_override))
        elif args.regime == "complete":
            result = register_complete(curves, output_grid=grid_override)
        else:
            opts = RegisterOptions(
                bandwidth=args.bandwidth,
                smooth_warps=args.smooth_warps,
                n_knots=args.knots,
                output_grid=grid_override,
            )
            result = register_discrete(curves, opts)
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
        eig = row_eigenpairs(values, grid, args.eigen)
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
        "n_eigen": args.eigen,
        "explained_ratios": _json_float_list(ratios),
        "time_rescale": None
        if rescale is None
        else {"offset": rescale[0], "scale": rescale[1]},
        "flags": dict(result.metadata),
    }
    dataio.write_report_json(out_dir / "report.json", report)


def cmd_simulate(args) -> None:
    model_cfg = LatentModelConfig(
        name=args.model,
        grid_size=args.r,
        noise_halfwidth=args.noise,
        c=args.c,
        r_scale=args.r_scale,
        rank=args.rank,
    )
    if args.seed is None:
        raise ValueError("--seed is required for simulate")
    out_dir = Path(args.out)
    warp_cfg = WarpLawConfig(J=args.warp_mixture_size, beta=args.beta)
    bundle = make_truth_bundle(model_cfg, warp_cfg, args.n, args.seed)

    ids = [f"curve_{i + 1}" for i in range(args.n)]
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
        "model": args.model,
        "n": args.n,
        "r": args.r,
        "noise_halfwidth": args.noise,
        "seed": args.seed,
        "rank": len(model_cfg.basis()),
        "c": model_cfg.c,
        "r_scale": model_cfg.r_scale,
        "warp_mixture_size": warp_cfg.J,
        "beta": warp_cfg.beta,
    }
    dataio.write_report_json(out_dir / "truth_meta.json", meta)


def cmd_diagnose(args) -> None:
    if not args.result:
        raise ValueError("no result directory given")
    result_dir, truth_dir = Path(args.result), args.truth
    out_dir = result_dir / "diagnose" if args.out is None else Path(args.out)

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

        def arrays():
            width = max(warp_samples[cid][0].size for cid in ids)
            latent = np.stack([np.interp(grid, latent_by_id[cid].grid, latent_by_id[cid].values) for cid in ids])
            return warp_block, width, latent

        return f_phi, arrays

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

    if args.rate_ns:
        if args.seed is None:
            raise ValueError("--seed is required for the rate check")
        ns = [int(x) for x in args.rate_ns.split(",") if x]
        model = LatentModelConfig(name=args.rate_model)
        rate = rate_check(model, WarpLawConfig(), ns, args.rate_reps, args.seed)
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
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:  # the flags are parsed again over the file's settings, so they win
            _apply_config(parser, args)
            args = parser.parse_args(argv)
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
