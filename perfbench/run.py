"""Benchmark of the varireg registration pipeline.

    python3 perfbench/run.py --workload wide --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the benchmark imports ``src/varireg``
from there.  One run:

1. sets up several times -- a fresh import of varireg, the seeded inputs
   and a warm-up pipeline on a few curves -- and reports the median as
   ``setup_s``;
2. makes one full-size pass before timing, under tracemalloc for
   ``peak_mem_mb`` with ``--trace 0``.  For wide and tall it feeds the
   curves shuffled and requires a bit-identical template and mean; for
   noisy_cli it requires byte-identical outputs;
3. runs the pipeline in a closed loop for ``--seconds`` (at least once),
   checking every run's outputs, and reports medians;
4. with ``--trace 1``, makes one more pass under the outside-in span
   tracer for the per-layer metrics.  For noisy_cli a last pass at
   ``--threads 1`` must give byte-identical outputs.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
details (all samples, accuracy, run metadata).  Both, plus the spans of a
traced run, are also written under ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import os

# One BLAS thread, so a workload uses at most the threads it asks for.
_ENV_AT_START = {
    k: os.environ.get(k) for k in ("VARIREG_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
}
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.interpolate  # noqa: E402,F401  (third-party import cost stays out of setup_s)

import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUP_ROUNDS = 3
MODULES = (
    "registration", "diagnostics", "cli", "fpca", "dataio",
    "simulate", "smoothing", "variation", "_parallel",
)


def load_varireg():
    """A fresh import of varireg from the checkout's ``src``."""
    for name in [k for k in sys.modules if k == "varireg" or k.startswith("varireg.")]:
        del sys.modules[name]
    importlib.import_module("varireg")
    return SimpleNamespace(
        **{name: importlib.import_module(f"varireg.{name}") for name in MODULES}
    )


def _commit():
    """HEAD's hash read from .git without running git, or None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def metadata(seed, trace):
    try:
        openblas = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
    except (KeyError, TypeError, ValueError):
        openblas = None
    return {
        "commit": _commit(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        "env_at_start": _ENV_AT_START,
        "env_used": {k: os.environ.get(k) for k in _ENV_AT_START},
        "seed": seed,
        "trace": trace,
    }


def summary(samples):
    """Median, sample count, and the highest percentile with ten samples above it."""
    xs = sorted(samples)
    out = {"median": statistics.median(xs), "count": len(xs), "samples": samples}
    if len(xs) >= 20:
        pct = int(100 * (1 - 10 / len(xs)))
        out[f"p{pct}"] = float(np.percentile(xs, pct))
    return out


def check_pass(p, wl, name):
    """Run the output checks on a pass; returns its accuracy (or None)."""
    if p.outputs is None:
        return None
    acc = wl.ideal.accuracy(p.outputs)
    p.failures.extend(checks.check(p.outputs, acc, name))
    return acc


def run(spec, seed, seconds, trace, out_dir=None):
    """One benchmark run; returns (details, result) as dicts."""
    seed = int(seed) % 2**32
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    wl = workloads.make(spec, seed, scratch)
    t_start = time.perf_counter()
    setup_tracer = Tracer()
    try:
        setup_samples = []
        for k in range(SETUP_ROUNDS):
            t0 = time.perf_counter()
            m = load_varireg()
            if trace and k == SETUP_ROUNDS - 1:
                layers.install(setup_tracer, m)
            try:
                wl.generate(m)
            finally:
                setup_tracer.restore()
            wl.warm_up(m)
            setup_samples.append(time.perf_counter() - t0)
        t_setup = time.perf_counter()
        wl.prepare_checks()

        # The first full-size pass is outside the timed loop: it warms up
        # the allocator (the first large table costs more) and, with
        # --trace 0, measures peak memory under tracemalloc.
        peak = None
        if trace:
            first = wl.run(m, alternate=True)
        else:
            tracemalloc.start()
            try:
                first = wl.run(m, alternate=True)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        t_first = time.perf_counter()

        # Closed loop for ``seconds``: start another run only if it should
        # end in time, judged by the previous one; always at least one.
        timed, accuracy = [], []
        deadline = time.perf_counter() + seconds
        while not timed or time.perf_counter() + timed[-1].pipeline_s <= deadline:
            gc.collect()  # every run starts without the last one's garbage
            p = wl.run(m)
            accuracy.append(check_pass(p, wl, spec.name))
            timed.append(p)
        t_timed = time.perf_counter()
        untraced_pipeline = statistics.median(p.pipeline_s for p in timed)
        passes = [first] + timed
        check_pass(first, wl, spec.name)
        if first.fingerprint != timed[0].fingerprint:
            first.failures.append(wl.alternate_failure)

        tracer = Tracer()
        if trace:
            layers.install(tracer, m)
            try:
                traced = wl.run(m)
            finally:
                tracer.restore()
            check_pass(traced, wl, spec.name)
            passes.append(traced)
        inv = wl.invariant_pass(m)
        if inv is not None:
            check_pass(inv, wl, spec.name)
            if inv.fingerprint != timed[0].fingerprint:
                inv.failures.append(wl.invariant_failure)
            passes.append(inv)
        t_end = time.perf_counter()
    finally:
        wl.close()

    attempted = len(passes)
    failed = sum(1 for p in passes if p.failures)
    n = spec.n
    if trace:
        per = layers.per_layer(
            tracer, wl.register_span, setup_tracer, traced.pipeline_s - untraced_pipeline
        )
        metrics = {k: {"value": float(v), "unit": u} for k, (v, u) in per.items()}
    else:
        metrics = {
            "register_s": {"value": statistics.median(p.register_s for p in timed), "unit": "s"},
            "curves_per_s": {"value": statistics.median(n / p.pipeline_s for p in timed), "unit": "1/s"},
            "peak_mem_mb": {"value": peak / 1e6, "unit": "MB"},
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "passed_frac": {"value": (attempted - failed) / attempted, "unit": "fraction"},
        }
    acc = [a for a in accuracy if a is not None]
    details = {
        "workload": spec.name,
        "n": n,
        "r": spec.r,
        "threads": spec.threads,
        "meta": metadata(seed, trace),
        "register_s": summary([p.register_s for p in timed]),
        "pipeline_s": summary([p.pipeline_s for p in timed]),
        "setup_s": summary(setup_samples),
        "accuracy": {k: statistics.median(a[k] for a in acc) for k in acc[0]} if acc else None,
        "accuracy_tolerance": {"factor": checks.ACCURACY_TOLERANCE,
                               "seed_values": checks.SEED_ACCURACY.get(spec.name)},
        "phase_s": {
            "setup": t_setup - t_start,
            "first_pass": t_first - t_setup,
            "timed": t_timed - t_first,
            "traced_and_invariant_passes": t_end - t_timed,
        },
        "failed_frac": failed / attempted,
        "failures": [f for p in passes for f in p.failures],
        "untraced_bindings": tracer.missing,
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    if out_dir is not None:
        stem = f"{spec.name}-seed{seed}-trace{int(bool(trace))}"
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / f"{stem}.json").write_text(
            json.dumps({"details": details, "result": result}, indent=1) + "\n", encoding="utf-8"
        )
        if trace:
            tracer.dump(out_dir / f"{stem}.spans.json", {"setup_spans": setup_tracer.spans})
    return details, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "varireg" / "__init__.py").is_file():
        print(f"error: no src/varireg under {ROOT}; run from a varireg checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    details, result = run(
        workloads.WORKLOADS[args.workload], args.seed, args.seconds, args.trace,
        out_dir=ROOT / ".perfbench_out",
    )
    print(json.dumps(details, default=float))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
