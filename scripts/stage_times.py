#!/usr/bin/env python3
"""Median wall time of each library stage of one discrete-regime run.

Simulates a seeded model1 sample, then runs ``--repeat`` times, in the
benchmark's order, the library stages of its pipeline: ``register_discrete``
on it, ``covariance_matrix`` of the registered curves, ``leading_eigenpairs``
of that kernel, ``scores`` on each of its three eigenfunctions (one stage),
``z_statistic`` and ``evaluate_against_truth`` against the sample's truth.
No tracemalloc runs, so the times are those of the plain calls.

Prints one JSON line: the shape, seed and repeat count, and for each stage
its median time over the repeats in seconds.

    python scripts/stage_times.py --n 200 --r 1001 --seed 7 --repeat 21
"""

import argparse
import json
import statistics
import time

from varireg.diagnostics import evaluate_against_truth, z_statistic
from varireg.fpca import covariance_matrix, leading_eigenpairs, scores
from varireg.registration import register_discrete
from varireg.simulate import LatentModelConfig, WarpLawConfig, make_truth_bundle


def timed(record, name, call, *args):
    """``call(*args)``, with its wall time appended to ``record[name]``."""
    start = time.perf_counter()
    value = call(*args)
    record.setdefault(name, []).append(time.perf_counter() - start)
    return value


def all_scores(curves, eig):
    return [scores(curves, phi, eig.grid) for phi in eig.eigenfunctions]


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--n", type=int, default=200)
    ap.add_argument("--r", type=int, default=1001)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--repeat", type=int, default=21)
    args = ap.parse_args()
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")

    truth = make_truth_bundle(LatentModelConfig("model1", grid_size=args.r), WarpLawConfig(), args.n, args.seed)
    times = {}
    for _ in range(args.repeat):
        result = timed(times, "register_discrete", register_discrete, truth.observed)
        registered, grid = result.registered, result.output_grid
        kernel = timed(times, "covariance_matrix", covariance_matrix, registered)
        eig = timed(times, "leading_eigenpairs", leading_eigenpairs, kernel, grid, 3)
        timed(times, "scores", all_scores, registered, eig)
        timed(times, "z_statistic", z_statistic, registered)
        timed(times, "evaluate_against_truth", evaluate_against_truth, result, truth)
    medians = {name: round(statistics.median(t), 6) for name, t in times.items()}
    print(json.dumps({"n": args.n, "r": args.r, "seed": args.seed, "repeat": args.repeat, **medians}))


if __name__ == "__main__":
    main()
