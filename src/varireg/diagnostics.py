"""Misspecification statistics, quality metrics against ground truth, and
the Monte Carlo rate-check harness.

The misspecification statistic of a curve is the total variation distance
between its local variation density, its normalized |derivative|, and that
of a reference: the sample mean, or the leading eigenfunction when the mean
is flat.  It is 0 on a rank-one sample, where registration is identifiable,
and at most 2.

Derivatives here use finite differences, never the smoothing module, so the
diagnostics stay independent of the pipeline under test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import GridMismatch, ZeroVariation
from .fpca import _common_grid, row_eigenpairs, row_scores, sorted_row_mean, trapezoid_weights
from .registration import RegistrationResult, _evaluate, _template
from .simulate import (
    _BLOCK_CELLS,
    LatentModelConfig,
    TruthBundle,
    WarpLawConfig,
    evaluate_warps,
    make_truth_bundle,
    sine_table,
    true_variation_cdf,
)
from .variation import cumulative_variation, generalized_inverse, wasserstein2


@dataclass
class RegistrationReport:
    """Registration quality metrics; truth-dependent fields may be None."""

    explained_ratios: np.ndarray = None
    z_stats: np.ndarray = None
    dW2_template_to_target: float = None   # squared 2-Wasserstein distance
    warp_sup_errors: np.ndarray = None
    curve_rel_L2_errors: np.ndarray = None
    mean_sup_error: float = None
    flags: dict = None


def z_statistic(curves, mean_mode: str = "auto", info: dict = None) -> np.ndarray:
    """Per-curve departure from the rank-1 registerable regime, in [0, 2].

    Z_i is the total variation distance between curve i's local variation
    density and a reference one: Z_i = int | |D_i|/int|D_i| - |R'|/int|R'| |.
    With a non-flat mean (branch ``mean_deriv``), D_i = X_i' and R is the
    sorted-sum mean.  With a (numerically) flat mean, or when forced
    (branch ``zero_mean``), D_i is the derivative of curve i's centred
    projection onto the leading components, at most two, that have a
    positive eigenvalue, and R = phi1; when phi1 has no positive eigenvalue
    or phi1' no mass (``zero_mean_degenerate``), every Z_i is 0.  A curve
    whose D_i has no mass reads 0.  On a rank-one sample X_i = xi_i phi
    every Z_i is 0.  Every curve is one row of a (curves x points) array;
    each integral is a sum along its row, so a curve gets the same bits in
    any sample order.
    """
    if mean_mode not in ("auto", "force_zero_deriv"):
        raise ValueError("mean_mode must be 'auto' or 'force_zero_deriv'")
    curves = list(curves)
    grid = _common_grid(curves)
    return _row_z(np.stack([c.values for c in curves]), grid, mean_mode, info)


def _row_z(x, grid, mean_mode="auto", info=None) -> np.ndarray:
    """z_statistic of the curves whose values are the rows of ``x``, on ``grid``.

    The derivatives are taken in blocks of about _BLOCK_CELLS values, each
    block's masses and, when the mean could decide the branch, its distances
    in the same pass, so no derivative array of the whole sample exists.
    np.gradient along a row is elementwise, so a block has the bits of the
    whole array.  Besides ``x`` this holds the sorted copy that the mean
    is summed from, and then one block's arrays at a time.
    """
    w = trapezoid_weights(grid)
    step = max(1, _BLOCK_CELLS // grid.size)
    blocks = [slice(a, a + step) for a in range(0, x.shape[0], step)]

    def integral(rows):
        return np.sum(w * rows, axis=-1)

    def distance(d, mass, ref):
        """int | |d_i|/mass_i - ref | for each row |d_i| of d, worked out in d;
        0 where d_i has no mass."""
        d /= np.where(mass > 0.0, mass, 1.0)[:, None]
        d -= ref
        tv = integral(np.abs(d, out=d))
        # a TV distance lies in [0, 2]; the minimum only absorbs rounding past 2
        return np.where(mass > 0.0, np.minimum(tv, 2.0), 0.0)

    mu = sorted_row_mean(grid, x).values if x.shape[0] >= 2 else x[0]
    mu_deriv = np.abs(np.gradient(mu, grid))
    mu_mass = integral(mu_deriv)
    # the mean's density, if it has mass and may be the reference
    ref = mu_deriv / mu_mass if mean_mode == "auto" and mu_mass > 0.0 else None
    denoms, z = np.empty(x.shape[0]), np.empty(x.shape[0])
    for b in blocks:
        d = np.abs(np.gradient(x[b], grid, axis=1))
        denoms[b] = integral(d)
        if ref is not None:
            z[b] = distance(d, denoms[b], ref)
    scale = float(denoms.max())
    if scale <= 0.0:
        raise ZeroVariation("all curves are (numerically) constant")
    flat = denoms <= 1e-12 * scale
    if flat.any():
        raise ZeroVariation(curve_id=int(np.argmax(flat)))

    if ref is not None and mu_mass >= 1e-8 * scale:
        branch = "mean_deriv"
    else:
        eig = row_eigenpairs(x, grid, 2)
        phi = eig.eigenfunctions[eig.eigenvalues > 0.0]
        dphi = np.gradient(phi, grid, axis=1)
        if phi.shape[0] == 0 or integral(np.abs(dphi[0])) == 0.0:
            z, branch = np.zeros(x.shape[0]), "zero_mean_degenerate"
        else:
            ref = np.abs(dphi[0]) / integral(np.abs(dphi[0]))
            for b in blocks:
                centered = x[b] - mu
                d = np.abs(sum(row_scores(centered, f, grid)[:, None] * df for f, df in zip(phi, dphi)))
                z[b] = distance(d, integral(d), ref)
            branch = "zero_mean"
    if info is not None:
        info["branch"] = branch
    return z


def truth_errors(warp_block, width, registered, latent, mean) -> tuple:
    """Errors of a registration against its ground truth.

    ``warp_block(rows)`` returns the (estimated, true) warp samples of the
    curves in the slice ``rows``, each as rows (a 2-d array or a list), one
    per curve, at most ``width`` points each, on points the caller chooses
    for each curve.  It is called for
    consecutive blocks of about _BLOCK_CELLS samples, so no (curves x warp
    grid) array exists at once, and the L2 sums run over the same blocks of
    rows.  ``registered`` and ``latent`` hold one row
    of values per curve on the grid of the estimated ``mean``.  Returns the
    per-curve warp sup errors, the per-curve relative L2 errors under
    trapezoid weights, and the sup error of ``mean`` against the
    sorted-sum mean of ``latent``.
    """
    n = latent.shape[0]
    # rows summed along a contiguous axis have the bits of each curve alone
    registered, latent = np.ascontiguousarray(registered), np.ascontiguousarray(latent)
    w = trapezoid_weights(mean.grid)
    warp_errs, denom, num = np.empty(n), np.empty(n), np.empty(n)
    step = max(1, _BLOCK_CELLS // max(width, 1))
    for start in range(0, n, step):
        b = slice(start, start + step)
        # a block's warp samples are freed before the next block's are taken
        warp_errs[b] = [np.abs(est - true).max() for est, true in zip(*warp_block(b))]
        denom[b] = np.sqrt(np.sum(w * latent[b] * latent[b], axis=1))
        num[b] = np.sqrt(np.sum(w * (registered[b] - latent[b]) ** 2, axis=1))
    true_mean = sorted_row_mean(mean.grid, latent)
    return warp_errs, num / np.maximum(denom, 1e-300), float(np.abs(mean.values - true_mean.values).max())


def registration_report(registered, mean, template, truth=None) -> RegistrationReport:
    """The quality metrics of a registration: its ``registered`` curves, their
    ``mean``, on the same grid, and its ``template`` CDF.

    For two curves or more: the explained ratios of the three leading
    components, and the z-statistic, None for constant curves, with its
    branch in ``flags["z_branch"]``; both read one stacked array of the
    curves.  ``truth()``, if given, is called once those are done, so no
    truth array exists while the eigenproblem is solved, which keeps the
    peak memory of a wide sample down.  It returns (f_phi, arrays): the
    true variation CDF, or None where the model has none, and a function
    that builds (warp_block, width, latent), the truth arguments of
    ``truth_errors``.  The stages run in this order: the explained ratios,
    z, the template's squared 2-Wasserstein distance to f_phi, then
    ``arrays()`` and the truth errors, so the distance's merged levels and
    the truth arrays never exist at once.
    """
    values = np.stack([c.values for c in registered])
    report, info = RegistrationReport(), {}
    if len(registered) >= 2:
        report.explained_ratios = row_eigenpairs(values, mean.grid, 3).explained_ratios
        try:
            report.z_stats = _row_z(values, _common_grid(registered), info=info)
        except ZeroVariation:
            pass
    report.flags = {"z_branch": info.get("branch")}
    if truth is not None:
        f_phi, arrays = truth()
        if f_phi is not None:
            report.dW2_template_to_target = wasserstein2(template, f_phi) ** 2
        warp_block, width, latent = arrays()
        report.warp_sup_errors, report.curve_rel_L2_errors, report.mean_sup_error = truth_errors(
            warp_block, width, values, latent, mean
        )
    return report


def evaluate_against_truth(result: RegistrationResult, truth: TruthBundle) -> RegistrationReport:
    """``registration_report`` of a registration run against its ground truth.

    Truth curves are resampled to the result's output grid by linear
    interpolation; warp errors are taken in sup norm over a dense grid
    against the exact truth warps.
    """
    if result.n != truth.n:
        raise GridMismatch("result and truth have different sample sizes")
    out_grid = result.output_grid

    def truth_arrays():
        dense = np.unique(np.concatenate((np.linspace(0.0, 1.0, 2049), out_grid)))

        table = sine_table(truth.warps, dense)  # the truth warps' sines, for this call alone

        def warp_block(rows):
            return _evaluate(result.warps[rows], dense), evaluate_warps(truth.warps[rows], dense, table)

        latent = np.stack([np.interp(out_grid, c.grid, c.values) for c in truth.latent])
        return warp_block, dense.size, latent

    return registration_report(
        result.registered, result.mean, result.template_cdf, lambda: (truth.f_phi, truth_arrays)
    )


@dataclass
class RateCheckResult:
    ns: list
    grid_sizes: list
    means: np.ndarray      # Monte Carlo mean of squared template distance per n
    std_errors: np.ndarray
    slope: float = None    # log-log least-squares slope; None when flagged
    flag: str = None


def rate_grid_size(n: int) -> int:
    return 1 + math.ceil(n**1.2)


def rate_check(
    model_cfg: LatentModelConfig,
    warp_cfg: WarpLawConfig,
    ns,
    reps: int,
    seed: int,
    dense_r: int = 10000,
) -> RateCheckResult:
    """Monte Carlo check of the 1/n decay of the squared template distance.

    For each n the curves are observed on r = 1 + ceil(n^1.2) points; the
    squared 2-Wasserstein distance between the estimated and true template
    is averaged over ``reps`` seeded replicates, and a log-log slope is fit.
    Replicate (a, b) draws from substreams (seed, a*2^40 + b*2^20 + i), so
    doubling ``reps`` extends rather than reshuffles the stream.
    """
    ns = sorted(int(n) for n in ns)
    if not ns or ns[0] < 2 or reps < 1:
        raise ValueError("need sample sizes >= 2 and reps >= 1")
    f_phi = true_variation_cdf(model_cfg, dense_r)
    target_q = generalized_inverse(f_phi)
    means = np.empty(len(ns))
    ses = np.empty(len(ns))
    grid_sizes = []
    for a, n in enumerate(ns):
        r = rate_grid_size(n)
        grid_sizes.append(r)
        cfg = replace(model_cfg, grid_size=r)
        vals = np.empty(reps)
        for b in range(reps):
            bundle = make_truth_bundle(
                cfg, warp_cfg, n, seed, stream_offset=(a << 40) | (b << 20), dense_r=64
            )
            values = np.stack([c.values for c in bundle.observed])
            qbar = _template(cumulative_variation(values), bundle.grid[None, 1:])[0]
            vals[b] = wasserstein2(qbar, target_q) ** 2
        means[a] = vals.mean()
        ses[a] = vals.std(ddof=1) / math.sqrt(reps) if reps > 1 else 0.0

    # grid-ceil error alone yields ~gap^2/3; a signal below twice the
    # squared gap at the largest n is indistinguishable from that floor
    floor = (1.0 / (grid_sizes[-1] - 1)) ** 2
    if warp_cfg is None or means[-1] < 2.0 * floor:
        return RateCheckResult(ns, grid_sizes, means, ses, slope=None, flag="at_discretization_floor")
    slope = float(np.polyfit(np.log(np.asarray(ns, dtype=float)), np.log(means), 1)[0])
    return RateCheckResult(ns, grid_sizes, means, ses, slope=slope)
