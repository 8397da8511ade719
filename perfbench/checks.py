"""Output checks and accuracy metrics, computed from outside the program.

Both the library and the CLI workloads reduce their outputs to an
``Outputs`` record of plain arrays, so one set of checks serves both.

Accuracy is measured against the sample's *ideal registration*, built from
the simulated truth alone.  For the rank-1 model a curve observed through
warp w_i has variation quantile w_i o Q_phi.  So the best template quantile
any estimator can reach with this sample is Q*(u) = mean_i w_i(Q_phi(u)),
and ``template_dw2`` compares the program's template with it.  Given the
program's own template CDF F, the ideal warp of curve i is w_i o Q_phi o F
and its ideal registered curve X_i o Q_phi o F; the warp and curve errors
compare with these.  Comparing with the population truth instead would
mostly measure the template's sampling error, which changes from seed to
seed and swamps the error the program adds (grid discretisation,
smoothing, noise handling) -- the error a faster but less exact
implementation would change.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# The seed code's accuracy: the largest value over seeds 0-9 of each workload
# (commit 0a98974).  A pass fails its check when a metric exceeds
# ACCURACY_TOLERANCE times this value.
SEED_ACCURACY = {
    "wide": {"warp_sup_err_med": 0.001144, "curve_rel_l2_med": 0.004739, "template_dw2": 2.506e-07},
    "tall": {"warp_sup_err_med": 0.005099, "curve_rel_l2_med": 0.02155, "template_dw2": 6.268e-06},
    "noisy_cli": {"warp_sup_err_med": 0.09986, "curve_rel_l2_med": 0.05009, "template_dw2": 0.0003947},
}
ACCURACY_TOLERANCE = 1.5

_DW2_LEVELS = 1 << 15  # midpoint rule for the template distance


@dataclass
class Outputs:
    """One pipeline's outputs as arrays; rows follow the truth's curve order."""

    warp_grid: np.ndarray      # shared sample points of the warps
    warps: np.ndarray          # (n, len(warp_grid))
    template_locs: np.ndarray  # template CDF jump locations
    template_cums: np.ndarray  # template CDF levels
    grid: np.ndarray           # output grid of the registered curves
    registered: np.ndarray     # (n, len(grid))
    z: np.ndarray              # z-statistics, or None when not computed


@dataclass
class Truth:
    """Simulated truth: latent curves, warps and the template's CDF."""

    grid: np.ndarray
    latent: np.ndarray         # (n, len(grid))
    warp: object               # warp(i, t) -> true warp of curve i at t
    fphi_locs: np.ndarray
    fphi_cums: np.ndarray


class Ideal:
    """The sample's ideal registration (see the module docstring)."""

    def __init__(self, truth: Truth):
        self.truth = truth
        self.u = np.concatenate(([0.0], truth.fphi_cums))
        self.q = np.concatenate(([0.0], truth.fphi_locs))
        n = truth.latent.shape[0]
        rows = np.stack([truth.warp(i, self.q) for i in range(n)])
        self.qstar = np.sort(rows, axis=0).sum(axis=0) / n

    def source_time(self, out: Outputs, s):
        """Q_phi(F(s)) for the program's own template CDF F.

        This is where curve i's ideal warp, w_i o Q_phi o F, reads the true
        warp, and where its ideal registered curve reads the latent curve.
        Taking F from the program, not F*, keeps the template's error out of
        the warp and curve errors: those then average independent per-curve
        errors, and the template is judged on its own by ``template_dw2``.
        """
        k = np.searchsorted(out.template_locs, s, side="right") - 1
        level = np.where(k < 0, 0.0, out.template_cums[np.maximum(k, 0)])
        return np.interp(level, self.u, self.q)

    def accuracy(self, out: Outputs) -> dict:
        truth = self.truth
        n = out.warps.shape[0]
        src = self.source_time(out, out.warp_grid)
        warp_err = np.array(
            [np.abs(out.warps[i] - truth.warp(i, src)).max() for i in range(n)]
        )
        src = self.source_time(out, out.grid)
        w = _trapezoid_weights(out.grid)
        rel = np.empty(n)
        for i in range(n):
            ideal = np.interp(src, truth.grid, truth.latent[i])
            num = np.sqrt(np.sum(w * (out.registered[i] - ideal) ** 2))
            rel[i] = num / max(np.sqrt(np.sum(w * ideal**2)), 1e-300)
        levels = (np.arange(_DW2_LEVELS) + 0.5) / _DW2_LEVELS
        k = np.searchsorted(out.template_cums, levels, side="left")
        q_hat = out.template_locs[np.minimum(k, out.template_locs.size - 1)]
        q_star = np.interp(levels, self.u, self.qstar)
        return {
            "warp_sup_err_med": float(np.median(warp_err)),
            "curve_rel_l2_med": float(np.median(rel)),
            "template_dw2": float(np.mean((q_hat - q_star) ** 2)),
        }


def _trapezoid_weights(grid):
    d = np.diff(grid)
    w = np.zeros(grid.size)
    w[:-1] += d / 2.0
    w[1:] += d / 2.0
    return w


def check(out: Outputs, accuracy: dict, workload: str) -> list:
    """Failed checks of one pipeline run, as short messages (empty: passed)."""
    bad = []
    if out.warp_grid[0] != 0.0 or out.warp_grid[-1] != 1.0:
        bad.append("warp sample grid does not span [0,1]")
    if (out.warps[:, 0] != 0.0).any() or (out.warps[:, -1] != 1.0).any():
        bad.append("a warp does not run from 0 to 1")
    if (np.diff(out.warps, axis=1) < 0.0).any():
        bad.append("a warp decreases")
    if out.template_cums.size == 0 or out.template_cums[-1] != 1.0:
        bad.append("template CDF does not end at 1")
    if not np.isfinite(out.registered).all():
        bad.append("a registered value is not finite")
    if out.z is None or not (np.isfinite(out.z).all() and (out.z >= 0).all() and (out.z <= 2).all()):
        bad.append("z-statistics missing or outside [0,2]")
    for key, ref in SEED_ACCURACY.get(workload, {}).items():
        if ref is not None and not accuracy[key] <= ACCURACY_TOLERANCE * ref:
            bad.append(f"{key}={accuracy[key]:.6g} exceeds {ACCURACY_TOLERANCE} x seed value {ref:.6g}")
    return bad


# ---- CLI files, read with the benchmark's own parser ----------------------


def _rows(path):
    with Path(path).open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, [row for row in reader if row]


def read_wide(path):
    """(ids, grid, values) of a wide CSV: t, then one column per curve."""
    header, rows = _rows(path)
    data = np.array(rows, dtype=float)
    return header[1:], data[:, 0], data[:, 1:].T.copy()


def read_long(path, ids, value_col=2):
    """(grid, values) of a long CSV keyed by curve id; rows in ``ids`` order."""
    _, rows = _rows(path)
    per = {}
    for row in rows:
        per.setdefault(row[0], []).append((float(row[1]), float(row[value_col])))
    grid = None
    values = []
    for cid in ids:
        pts = np.array(sorted(per[cid]))
        if grid is None:
            grid = pts[:, 0]
        elif not np.array_equal(grid, pts[:, 0]):
            raise ValueError(f"curve {cid!r} is on another grid")
        values.append(pts[:, 1])
    return grid, np.stack(values)


def read_template(path):
    _, rows = _rows(path)
    data = np.array(rows, dtype=float).reshape(-1, 2)
    return data[:, 0], data[:, 1]


def cli_truth(sim_dir) -> tuple:
    """(ids, Truth) from the files ``varireg simulate`` wrote."""
    sim_dir = Path(sim_dir)
    ids, grid, latent = read_wide(sim_dir / "truth_latent.csv")
    warp_t, warp_v = read_long(sim_dir / "truth_warps.csv", ids)
    locs, cums = read_template(sim_dir / "truth_fphi.csv")

    def warp(i, t):
        return np.interp(t, warp_t, warp_v[i])

    return ids, Truth(grid, latent, warp, locs, cums)


def cli_outputs(reg_dir, dia_dir, ids) -> Outputs:
    """Outputs of ``varireg register`` and ``varireg diagnose``."""
    reg_dir, dia_dir = Path(reg_dir), Path(dia_dir)
    warp_grid, warps = read_long(reg_dir / "warps.csv", ids)
    grid, registered = read_long(reg_dir / "registered.csv", ids)
    locs, cums = read_template(reg_dir / "template.csv")
    report = json.loads((dia_dir / "report.json").read_text(encoding="utf-8"))
    z = report.get("z_stats")
    return Outputs(
        warp_grid, warps, locs, cums, grid, registered,
        None if z is None else np.asarray(z, dtype=float),
    )


def library_truth(bundle) -> Truth:
    return Truth(
        grid=np.asarray(bundle.grid, dtype=float),
        latent=np.stack([c.values for c in bundle.latent]),
        warp=bundle.warp_values,
        fphi_locs=np.asarray(bundle.f_phi.jump_locations, dtype=float),
        fphi_cums=np.asarray(bundle.f_phi.cum_values, dtype=float),
    )


def library_outputs(result, z) -> Outputs:
    grid = np.asarray(result.output_grid, dtype=float)
    return Outputs(
        warp_grid=grid,
        warps=np.stack([np.asarray(w(grid), dtype=float) for w in result.warps]),
        template_locs=np.asarray(result.template_cdf.jump_locations, dtype=float),
        template_cums=np.asarray(result.template_cdf.cum_values, dtype=float),
        grid=grid,
        registered=np.stack([c.values for c in result.registered]),
        z=None if z is None else np.asarray(z, dtype=float),
    )
