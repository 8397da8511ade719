#!/usr/bin/env python3
"""Where the time of one noisy-regime registration and its diagnosis goes.

Simulates a seeded model1 sample, runs ``varireg register --regime noisy``
on it and then ``varireg diagnose --truth`` on the result, once each under
cProfile, and prints one JSON line: the cumulative seconds of each command,
of the leave-one-out pass (``_loo_errors``), of every windowed kernel fit
(``_row_fits``, the leave-one-out fits included) and of its two halves:
the window geometry shared by the curves (``_window_geometry``) and each
curve's sums and fits (``_curve_fits``); of the warp maps
(``_warp_maps``), of the diagnostics' ``registration_report``, and of each
``dataio.write_*`` and ``dataio.read_*`` call.  Profiling adds overhead,
so the figures are shares, not wall times.

    python scripts/noisy_stages.py --n 100 --r 101 --noise 0.1 --seed 3
"""

import argparse
import cProfile
import json
import pstats
import tempfile
from pathlib import Path

from varireg import cli

STAGES = {
    "cli.py": ["cmd_register", "cmd_diagnose"],
    "diagnostics.py": ["registration_report"],
    "smoothing.py": ["_loo_errors", "_row_fits", "_window_geometry", "_curve_fits"],
    "registration.py": ["_warp_maps"],
}


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--n", type=int, default=100)
    ap.add_argument("--r", type=int, default=101)
    ap.add_argument("--noise", type=float, default=0.1)
    ap.add_argument("--seed", type=int, default=3)
    args = ap.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        sim, out = Path(tmp) / "sim", Path(tmp) / "out"
        code = cli.main(["simulate", "--model", "model1", "--n", str(args.n), "--r", str(args.r),
                         "--noise", repr(args.noise), "--seed", str(args.seed), "--out", str(sim)])
        if code:
            raise SystemExit(code)
        profile = cProfile.Profile()
        for argv in (["register", str(sim / "observed.csv"), "--regime", "noisy", "--out", str(out)],
                     ["diagnose", str(out), "--truth", str(sim), "--out", str(out / "diagnose")]):
            code = profile.runcall(cli.main, argv)
            if code:
                raise SystemExit(code)

    seconds = {}
    for (path, _, name), (_, _, _, cumulative, _) in pstats.Stats(profile).stats.items():
        if "varireg" not in Path(path).parts:
            continue
        module = Path(path).name
        if name in STAGES.get(module, []) or (module == "dataio.py" and name.startswith(("write_", "read_"))
                                              and name != "write_rows"):
            seconds[f"{module[:-3]}.{name}"] = round(cumulative, 4)
    print(json.dumps({"n": args.n, "r": args.r, "noise": args.noise, "seed": args.seed,
                      **dict(sorted(seconds.items()))}))


if __name__ == "__main__":
    main()
