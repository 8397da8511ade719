"""Tiny-size self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs both workload kinds (library and CLI) at a few curves, in both trace
modes, and checks that every metric BENCHMARK.json names is printed with its
unit.  It checks that the cap flags fire on a grid finer than the caps.
Then it corrupts one output -- a decreasing warp -- and checks that the run
counts it as a failure.  Exits non-zero on the first problem.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import run  # sets the thread environment and the import path first

import checks  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "library": dataclasses.replace(workloads.WORKLOADS["wide"], name="tiny_library", n=8, r=41),
    "cli": dataclasses.replace(workloads.WORKLOADS["noisy_cli"], name="tiny_cli", n=6, r=41),
}


def _expect(cond, message):
    if not cond:
        print(f"selftest FAILED: {message}", file=sys.stderr)
        sys.exit(1)


def _decreasing_warp(reduce):
    def corrupted(*args, **kwargs):
        out = reduce(*args, **kwargs)
        out.warps[0] = out.warps[0][::-1]
        return out
    return corrupted


def main():
    _expect((run.ROOT / "src" / "varireg").is_dir(), "run from a varireg checkout")
    sys.path.insert(0, str(run.ROOT / "src"))
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for kind, tiny in TINY.items():
        for trace in (0, 1):
            _, result = run.run(tiny, seed=3, seconds=0, trace=trace)
            line = json.loads(json.dumps(result))
            _expect(set(line) == {"correct", "attempted", "failed", "metrics"},
                    f"{kind}: result keys {sorted(line)}")
            _expect(line["correct"] and line["failed"] == 0,
                    f"{kind} trace={trace}: clean run failed: {line}")
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            _expect(got == wanted[trace], f"{kind} trace={trace}: metrics {got} != {wanted[trace]}")
            print(f"ok  {kind} trace={trace}: {len(got)} metrics with units")

    # a grid finer than the warp and output caps: both flags must fire
    caps = dataclasses.replace(TINY["library"], name="tiny_caps", n=3, r=4200)
    _, result = run.run(caps, seed=3, seconds=0, trace=1)
    fired = {k: v["value"] for k, v in result["metrics"].items() if k.startswith("registration.cap_")}
    _expect(fired == {"registration.cap_WARP_GRID_CAP": 1.0, "registration.cap_OUTPUT_GRID_CAP": 1.0,
                      "registration.cap_MEAN_QUANTILE_POINT_CAP": 0.0, "registration.cap_DENSE_SOLVE_CAP": 0.0},
            f"cap flags at r=4200: {fired}")
    print("ok  library r=4200: WARP_GRID_CAP and OUTPUT_GRID_CAP flagged, no others")

    for kind, attr in (("library", "library_outputs"), ("cli", "cli_outputs")):
        original = getattr(checks, attr)
        setattr(checks, attr, _decreasing_warp(original))
        try:
            _, result = run.run(TINY[kind], seed=3, seconds=0, trace=0)
        finally:
            setattr(checks, attr, original)
        _expect(not result["correct"] and result["failed"] == result["attempted"],
                f"{kind}: a decreasing warp was not counted as a failure: {result}")
        _expect(result["metrics"]["passed_frac"]["value"] == 0.0,
                f"{kind}: passed_frac should be 0 when every pass is corrupted")
        print(f"ok  {kind}: decreasing warp counted as failure in every pass")
    print("selftest ok")


if __name__ == "__main__":
    main()
