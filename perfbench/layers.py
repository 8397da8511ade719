"""Which layer boundaries the traced run wraps, and the per-layer metrics.

Every binding below is a name a calling module imported from another layer
(or, for calls the benchmark itself makes, the callee module's own
attribute).  Counts are computed from each call's arguments and result; none
reads program internals.  README.md maps each metric to the end-to-end
metric and workload it should move.
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np

from tracer import self_times, total

_READS = ("read_curves_csv", "read_template_csv", "read_warps_csv", "read_mean_csv")
_WRITES = (
    "write_rows", "write_wide_csv", "write_long_csv", "write_warps_csv",
    "write_mean_csv", "write_eigen_csv", "write_scores_csv",
    "write_template_csv", "write_report_json",
)
CAPS = ("WARP_GRID_CAP", "OUTPUT_GRID_CAP", "MEAN_QUANTILE_POINT_CAP", "DENSE_SOLVE_CAP")


def _union_with_endpoints(arrays):
    pts = np.unique(np.concatenate([np.asarray(a, dtype=float) for a in arrays]))
    return int(pts.size + (pts[0] != 0.0) + (pts[-1] != 1.0))


def _in_window(grid, eval_points, h):
    """Grid points strictly within h of each evaluation point (kernel support)."""
    grid = np.asarray(grid, dtype=float)
    e = np.asarray(eval_points, dtype=float)
    return np.searchsorted(grid, e + h, "left") - np.searchsorted(grid, e - h, "right")


# ---- counters: (tracer, bound arguments, result) ---------------------------


def _mean_quantile(tr, a, result):
    qs = list(a["qs"])
    pieces = [q.breakpoints for q in qs]
    if a.get("eval_grid") is not None:
        pieces.append(np.clip(np.asarray(a["eval_grid"], dtype=float), 0.0, 1.0))
    points = int(result.breakpoints.size)
    tr.counts["mean_quantile_points"] += points
    tr.counts["mean_quantile_table_bytes"] += points * len(qs) * 8
    if _union_with_endpoints(pieces) > points:
        tr.counts["cap.MEAN_QUANTILE_POINT_CAP"] = 1


def _estimate_warps(tr, a, result):
    grid = a.get("grid")
    if grid is None:
        size = int(result[2][0].sample_t.size)
    else:
        size = _union_with_endpoints([grid])
    tr.counts["warp_grid_size"] = size


def _register(tr, a, result):
    curves = list(a.get("sample"))
    union = _union_with_endpoints([c.grid for c in curves])
    opts = a.get("options", a.get("opts"))
    out = int(result.output_grid.size)
    tr.counts["output_grid_size"] = out
    if getattr(opts, "output_grid", None) is None and out < union:
        tr.counts["cap.OUTPUT_GRID_CAP"] = 1
    # the noisy regime samples warps on its own derivative grid, not the union
    if result.regime != "noisy" and tr.counts["warp_grid_size"] < union:
        tr.counts["cap.WARP_GRID_CAP"] = 1


def _kernel(tr, a, result):
    grid = a["curve"].grid
    e = np.asarray(a["eval_points"], dtype=float)
    tr.counts["kernel_cells"] += e.size * grid.size
    tr.counts["kernel_nonzero"] += int(_in_window(grid, e, a["cfg"].bandwidth).sum())


def _loocv(tr, a, result):
    grid = np.asarray(a["curve"].grid, dtype=float)
    need = int(a["degree"]) + 1  # a fit of degree d needs d + 1 other points
    for h in a["candidates"]:
        others = _in_window(grid, grid, float(h)) - 1  # a point's own weight is zeroed
        tr.counts["kernel_cells"] += grid.size**2
        tr.counts["kernel_nonzero"] += int(others.sum())
        tr.counts["loocv_tried"] += 1
        if (others < need).any():
            tr.counts["loocv_skipped"] += 1


def _eigen(tr, a, result):
    size = int(np.asarray(result.grid).size)
    tr.counts["eigh_size"] = max(tr.counts["eigh_size"], size)
    if size < np.asarray(a["grid"]).size:
        tr.counts["cap.DENSE_SOLVE_CAP"] = 1


def _bytes(key):
    def after(tr, a, result):
        # writers call write_rows themselves; count each file once
        if not (tr.current() or "").startswith("dataio."):
            tr.counts[key] += os.path.getsize(a["path"])
    return after


def _thread_map(tr):
    """Wrapper factory: span around thread_map plus per-item CPU time."""

    def make(original):
        def traced(fn, items, threads=1):
            items = list(items)
            lock = threading.Lock()
            busy = [0.0]

            def timed(x):
                # CPU time of this worker thread: waiting for the GIL is not busy
                t0 = time.thread_time()
                try:
                    return fn(x)
                finally:
                    with lock:
                        busy[0] += time.thread_time() - t0

            with tr.span("parallel.thread_map") as sid:
                prev, tr.pool_parent = tr.pool_parent, sid
                t0 = time.perf_counter()
                try:
                    result = original(timed, items, threads)
                finally:
                    tr.pool_parent = prev
                wall = time.perf_counter() - t0
            width = min(int(threads), len(items)) if int(threads) > 1 else 1
            tr.counts["parallel.busy_s"] += busy[0]
            tr.counts["parallel.capacity_s"] += wall * max(width, 1)
            return result

        return traced

    return make


def install(tr, m):
    """Wrap every layer boundary of the varireg modules in namespace ``m``."""
    reg, dia, cli, fp, da = m.registration, m.diagnostics, m.cli, m.fpca, m.dataio
    for caller in (reg, dia, cli, fp):
        for attr in ("covariance_matrix", "leading_eigenpairs", "scores", "cross_sectional_mean"):
            if hasattr(caller, attr):
                tr.wrap(caller, attr, f"fpca.{attr}",
                        _eigen if attr == "leading_eigenpairs" else None)
    for attr, after in (
        ("discrete_variation_cdf", None),
        ("generalized_inverse", None),
        ("mean_quantile", _mean_quantile),
        ("quantile_to_cdf", None),
        ("compose_quantile_cdf", None),
    ):
        tr.wrap(reg, attr, f"variation.{attr}", after)
    for caller in (dia, cli):
        tr.wrap(caller, "wasserstein2", "variation.wasserstein2")
    tr.wrap(reg, "nadaraya_watson", "smoothing.nadaraya_watson", _kernel)
    tr.wrap(reg, "local_poly", "smoothing.local_poly", _kernel)
    tr.wrap(reg, "loocv_bandwidth", "smoothing.loocv_bandwidth", _loocv)
    tr.wrap_raw(reg, "thread_map", _thread_map(tr))
    tr.wrap(reg, "estimate_warps_discrete", "registration.estimate_warps_discrete", _estimate_warps)
    for caller in (reg, cli):
        for attr in ("register_discrete", "register_noisy"):
            tr.wrap(caller, attr, f"registration.{attr}", _register)
    for caller in (dia, cli):
        tr.wrap(caller, "z_statistic", "diagnostics.z_statistic")
    tr.wrap(dia, "evaluate_against_truth", "diagnostics.evaluate_against_truth")
    for attr in ("main", "cmd_register", "cmd_diagnose", "cmd_simulate"):
        tr.wrap(cli, attr, f"cli.{attr}")
    for attr in _READS:
        tr.wrap(da, attr, f"dataio.{attr}", _bytes("bytes_read"))
    for attr in _WRITES:
        tr.wrap(da, attr, f"dataio.{attr}", _bytes("bytes_written"))
    for caller in (m.simulate, cli):
        tr.wrap(caller, "make_truth_bundle", "simulate.make_truth_bundle")


def per_layer(tr, register_span, setup_tracer, overhead_s) -> dict:
    """Per-layer metrics of one traced pipeline, as {name: (value, unit)}.

    ``register_span`` names the span that register_s times; its share
    covered by child spans is ``trace.coverage``.
    """
    spans, c = tr.spans, tr.counts
    own = self_times(spans)

    def t(*names):
        return total(spans, names)

    def self_s(name):
        return sum(own[s[0]] for s in spans if s[1] == name)

    reg = [s for s in spans if s[1] == register_span]
    reg_wall = sum(s[3] - s[2] for s in reg)
    reg_self = sum(own[s[0]] for s in reg)
    cells = c["kernel_cells"]
    capacity = c["parallel.capacity_s"]
    out = {
        "variation.mean_quantile_s": (t("variation.mean_quantile"), "s"),
        "variation.quantile_to_cdf_s": (t("variation.quantile_to_cdf"), "s"),
        "variation.discrete_variation_cdf_s": (t("variation.discrete_variation_cdf"), "s"),
        "variation.mean_quantile_points": (c["mean_quantile_points"], "count"),
        "variation.mean_quantile_table_mb": (c["mean_quantile_table_bytes"] / 1e6, "MB"),
        "registration.estimate_warps_discrete_self_s": (self_s("registration.estimate_warps_discrete"), "s"),
        "registration.warp_grid_size": (c["warp_grid_size"], "count"),
        "registration.output_grid_size": (c["output_grid_size"], "count"),
    }
    for cap in CAPS:
        out[f"registration.cap_{cap}"] = (c[f"cap.{cap}"], "flag")
    out.update({
        "smoothing.nadaraya_watson_s": (t("smoothing.nadaraya_watson"), "s"),
        "smoothing.kernel_cells": (cells, "count"),
        "smoothing.kernel_nonzero_frac": (c["kernel_nonzero"] / cells if cells else 0.0, "fraction"),
        "smoothing.loocv_bandwidth_s": (t("smoothing.loocv_bandwidth"), "s"),
        "smoothing.loocv_candidates_tried": (c["loocv_tried"], "count"),
        "smoothing.loocv_candidates_skipped": (c["loocv_skipped"], "count"),
        "smoothing.local_poly_s": (t("smoothing.local_poly"), "s"),
        "parallel.thread_map_s": (t("parallel.thread_map"), "s"),
        "parallel.utilization": (c["parallel.busy_s"] / capacity if capacity else 0.0, "fraction"),
        "fpca.covariance_matrix_s": (t("fpca.covariance_matrix"), "s"),
        "fpca.leading_eigenpairs_s": (t("fpca.leading_eigenpairs"), "s"),
        "fpca.scores_s": (t("fpca.scores"), "s"),
        "fpca.eigh_size": (c["eigh_size"], "count"),
        "diagnostics.z_statistic_s": (t("diagnostics.z_statistic"), "s"),
        "diagnostics.evaluate_against_truth_s": (t("diagnostics.evaluate_against_truth"), "s"),
        "cli.diagnose_self_s": (self_s("cli.cmd_diagnose"), "s"),
        "dataio.read_s": (t(*(f"dataio.{a}" for a in _READS)), "s"),
        "dataio.write_s": (t(*(f"dataio.{a}" for a in _WRITES)), "s"),
        "dataio.bytes_read": (c["bytes_read"], "B"),
        "dataio.bytes_written": (c["bytes_written"], "B"),
        "simulate.make_truth_bundle_s": (total(setup_tracer.spans, ["simulate.make_truth_bundle"]), "s"),
        "trace.coverage": ((reg_wall - reg_self) / reg_wall if reg_wall else 0.0, "fraction"),
        "trace.overhead_s": (overhead_s, "s"),
    })
    return out
