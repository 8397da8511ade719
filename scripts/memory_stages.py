#!/usr/bin/env python3
"""Peak memory of the stages of one discrete-regime run, under tracemalloc.

Simulates a seeded model1 sample, then calls, each once and in this order,
the library stages of the benchmark's pipeline: ``register_discrete`` on
it, ``covariance_matrix`` of the registered curves, ``leading_eigenpairs``
of that kernel, ``scores`` on each of its three eigenfunctions,
``z_statistic`` and ``evaluate_against_truth`` against the sample's truth.
Around the last two it also calls ``row_eigenpairs`` on the stacked
registered curves, as ``evaluate_against_truth`` does, and after them
``wasserstein2`` between the template CDF and the true variation CDF.  As
in the benchmark, every result stays alive to the end of the run.

Prints one JSON line: ``result_mb``, the memory the registration result
keeps; for each call, the memory traced on entry and the peak over that
entry while it ran, in MB (10^6 bytes); and the highest peak of the run.
Only what each call allocates counts, so the figures repeat to a few kB
from run to run on one numpy version.

    python scripts/memory_stages.py --n 1000 --r 201 --seed 7
"""

import argparse
import gc
import json
import tracemalloc

import numpy as np

from varireg.diagnostics import evaluate_against_truth, z_statistic
from varireg.fpca import covariance_matrix, leading_eigenpairs, row_eigenpairs, scores
from varireg.registration import register_discrete
from varireg.simulate import LatentModelConfig, WarpLawConfig, make_truth_bundle
from varireg.variation import wasserstein2


def traced(record, name, call, *args):
    """``call(*args)``, with its entry and peak-over-entry memory in ``record[name]``."""
    gc.collect()
    tracemalloc.reset_peak()
    entry = tracemalloc.get_traced_memory()[0]
    value = call(*args)
    peak = tracemalloc.get_traced_memory()[1]
    record[name] = {"entry_mb": round(entry / 1e6, 3), "spike_mb": round((peak - entry) / 1e6, 3)}
    return value


def stacked_eigenpairs(curves):
    """row_eigenpairs of the curves' values, stacked as evaluate_against_truth stacks them."""
    return row_eigenpairs(np.stack([c.values for c in curves]), curves[0].grid, 3)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--n", type=int, default=1000)
    ap.add_argument("--r", type=int, default=201)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    truth = make_truth_bundle(LatentModelConfig("model1", grid_size=args.r), WarpLawConfig(), args.n, args.seed)
    stages = {}
    tracemalloc.start()
    try:
        result = traced(stages, "register_discrete", register_discrete, truth.observed)
        result_mb = round(tracemalloc.get_traced_memory()[0] / 1e6, 3)
        registered, grid = result.registered, result.output_grid
        kernel = traced(stages, "covariance_matrix", covariance_matrix, registered)
        eig = traced(stages, "leading_eigenpairs", leading_eigenpairs, kernel, grid, 3)
        kept = [
            traced(stages, f"scores_{k}", scores, registered, phi, eig.grid)
            for k, phi in enumerate(eig.eigenfunctions, 1)
        ]
        kept.append(traced(stages, "row_eigenpairs", stacked_eigenpairs, registered))
        kept.append(traced(stages, "z_statistic", z_statistic, registered))
        kept.append(traced(stages, "evaluate_against_truth", evaluate_against_truth, result, truth))
        traced(stages, "wasserstein2", wasserstein2, result.template_cdf, truth.f_phi)
    finally:
        tracemalloc.stop()
    top = max(s["entry_mb"] + s["spike_mb"] for s in stages.values())
    print(json.dumps({"n": args.n, "r": args.r, "seed": args.seed, "peak_mb": round(top, 3),
                      "result_mb": result_mb, **stages}))


if __name__ == "__main__":
    main()
