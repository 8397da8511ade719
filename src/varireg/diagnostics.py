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
    make_truth_bundle,
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
    x = np.stack([c.values for c in curves])
    w = trapezoid_weights(grid)

    def integral(rows):
        return np.sum(w * rows, axis=-1)

    def distance(d, r):
        """int | |d_i|/int|d_i| - |r|/int|r| | for each row d_i of d; 0 where d_i has no mass."""
        d, r = np.abs(d), np.abs(r)
        mass = integral(d)
        tv = integral(np.abs(d / np.where(mass > 0.0, mass, 1.0)[:, None] - r / integral(r)))
        # a TV distance lies in [0, 2]; the minimum only absorbs rounding past 2
        return np.where(mass > 0.0, np.minimum(tv, 2.0), 0.0)

    derivs = np.gradient(x, grid, axis=1)
    denoms = integral(np.abs(derivs))
    scale = float(denoms.max())
    if scale <= 0.0:
        raise ZeroVariation("all curves are (numerically) constant")
    flat = denoms <= 1e-12 * scale
    if flat.any():
        raise ZeroVariation(curve_id=int(np.argmax(flat)))

    mu = sorted_row_mean(grid, x).values if len(curves) >= 2 else x[0]
    mu_deriv = np.gradient(mu, grid)
    if mean_mode == "auto" and integral(np.abs(mu_deriv)) >= 1e-8 * scale:
        z, branch = distance(derivs, mu_deriv), "mean_deriv"
    else:
        eig = row_eigenpairs(x, grid, 2)
        phi = eig.eigenfunctions[eig.eigenvalues > 0.0]
        dphi = np.gradient(phi, grid, axis=1)
        if phi.shape[0] == 0 or integral(np.abs(dphi[0])) == 0.0:
            z, branch = np.zeros(len(curves)), "zero_mean_degenerate"
        else:
            centered = x - mu
            projected = sum(row_scores(centered, f, grid)[:, None] * df for f, df in zip(phi, dphi))
            z, branch = distance(projected, dphi[0]), "zero_mean"
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
    grid) array exists at once.  ``registered`` and ``latent`` hold one row
    of values per curve on the grid of the estimated ``mean``.  Returns the
    per-curve warp sup errors, the per-curve relative L2 errors under
    trapezoid weights, and the sup error of ``mean`` against the
    sorted-sum mean of ``latent``.
    """
    step = max(1, _BLOCK_CELLS // max(width, 1))
    warp_errs = np.array([
        np.abs(est - true).max()
        for start in range(0, latent.shape[0], step)
        for est, true in zip(*warp_block(slice(start, start + step)))
    ])
    # rows summed along a contiguous axis have the bits of each curve alone
    registered, latent = np.ascontiguousarray(registered), np.ascontiguousarray(latent)
    w = trapezoid_weights(mean.grid)
    denom = np.sqrt(np.sum(w * latent * latent, axis=1))
    num = np.sqrt(np.sum(w * (registered - latent) ** 2, axis=1))
    true_mean = sorted_row_mean(mean.grid, latent)
    return warp_errs, num / np.maximum(denom, 1e-300), float(np.abs(mean.values - true_mean.values).max())


def registration_report(registered, mean, template, truth=None) -> RegistrationReport:
    """The quality metrics of a registration: its ``registered`` curves, their
    ``mean``, on the same grid, and its ``template`` CDF.

    For two curves or more: the explained ratios of the three leading
    components, and the z-statistic, None for constant curves, with its
    branch in ``flags["z_branch"]``.  ``truth()``, if given,
    is called once those are done, so no truth array exists while the
    eigenproblem is solved, which keeps the peak memory of a wide sample
    down.  It returns (warp_block, width, latent, f_phi): the truth
    arguments of ``truth_errors``, which gives the truth errors, and the
    true variation CDF, or None where the model has none, against which
    the template's squared 2-Wasserstein distance is taken.
    """
    values = np.stack([c.values for c in registered])
    report, info = RegistrationReport(), {}
    if len(registered) >= 2:
        report.explained_ratios = row_eigenpairs(values, mean.grid, 3).explained_ratios
        try:
            report.z_stats = z_statistic(registered, info=info)
        except ZeroVariation:
            pass
    report.flags = {"z_branch": info.get("branch")}
    if truth is not None:
        warp_block, width, latent, f_phi = truth()
        if f_phi is not None:
            report.dW2_template_to_target = wasserstein2(template, f_phi) ** 2
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

    def truth_rows():
        dense = np.unique(np.concatenate((np.linspace(0.0, 1.0, 2049), out_grid)))

        def warp_block(rows):
            return _evaluate(result.warps[rows], dense), truth.warp_rows(rows, dense)

        latent = np.stack([np.interp(out_grid, c.grid, c.values) for c in truth.latent])
        return warp_block, dense.size, latent, truth.f_phi

    return registration_report(result.registered, result.mean, result.template_cdf, truth_rows)


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
