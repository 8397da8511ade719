#!/usr/bin/env python3
"""One-shot demo: simulate a warped sample, register it, report quality.

Prints sup/L2 errors of the registered vs warped cross-sectional means, the
leading-PC explained ratios before and after registration, and median
per-curve errors against the simulated truth.
"""

import argparse

import numpy as np

from varireg.diagnostics import evaluate_against_truth
from varireg.fpca import cross_sectional_mean, row_eigenpairs
from varireg.registration import NoisyOptions, register_discrete, register_noisy
from varireg.simulate import LatentModelConfig, WarpLawConfig, make_truth_bundle


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--model", default="model1",
                    choices=["model1", "model2", "rank2", "rank3", "breakdown"])
    ap.add_argument("--n", type=int, default=50)
    ap.add_argument("--r", type=int, default=101)
    ap.add_argument("--noise", type=float, default=0.0)
    ap.add_argument("--c", type=float, default=2.0)
    ap.add_argument("--r-scale", type=float, default=0.1)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--smooth-warps", action="store_true")
    args = ap.parse_args()

    cfg = LatentModelConfig(
        args.model, grid_size=args.r, noise_halfwidth=args.noise,
        c=args.c if args.model == "breakdown" else None,
        r_scale=args.r_scale if args.model == "breakdown" else None,
    )
    bundle = make_truth_bundle(cfg, WarpLawConfig(), args.n, seed=args.seed)
    if args.noise > 0:
        result = register_noisy(bundle.observed, NoisyOptions())
    else:
        from varireg.registration import RegisterOptions

        result = register_discrete(
            bundle.observed, RegisterOptions(smooth_warps=args.smooth_warps)
        )

    report = evaluate_against_truth(result, bundle)
    warped_mean = cross_sectional_mean(bundle.observed)
    true_on_obs = cross_sectional_mean(bundle.latent)
    warp_sup = np.abs(warped_mean.values - true_on_obs.values).max()
    eig_w = row_eigenpairs(np.stack([c.values for c in bundle.observed]), bundle.grid, 3)

    print(f"model={args.model} n={args.n} r={args.r} noise={args.noise} seed={args.seed}")
    print(f"mean sup error:        registered {report.mean_sup_error:.4f}   warped {warp_sup:.4f}")
    print(f"explained ratios:      registered {np.round(report.explained_ratios, 4)}")
    print(f"                       warped     {np.round(eig_w.explained_ratios, 4)}")
    print(f"median warp sup error: {np.median(report.warp_sup_errors):.4f}")
    print(f"median rel L2 error:   {np.median(report.curve_rel_L2_errors):.4f}")
    if report.z_stats is not None:
        print(f"median Z statistic:    {np.median(report.z_stats):.4f}")


if __name__ == "__main__":
    main()
