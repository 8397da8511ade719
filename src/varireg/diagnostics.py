"""Misspecification statistics, quality metrics against ground truth, and
the Monte Carlo rate-check harness.

Derivatives here use finite differences, never the smoothing module, so the
diagnostics stay independent of the pipeline under test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import GridMismatch, ZeroVariation
from .fpca import (
    covariance_matrix,
    leading_eigenpairs,
    row_scores,
    sorted_row_mean,
    trapezoid_weights,
)
from .registration import RegistrationResult, _evaluate, _interp_rows
from .simulate import (
    _BLOCK_CELLS,
    LatentModelConfig,
    TruthBundle,
    WarpLawConfig,
    make_truth_bundle,
    true_variation_cdf,
)
from .variation import (
    discrete_variation_cdf,
    generalized_inverse,
    mean_quantile,
    wasserstein2,
)

Z_CLAMP_TOL = 1e-9


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
    """Per-curve departure from the rank-1 registerable regime, in [0,2].

    With a non-flat mean: Z_i = 2 * int|X_i' - mean'| / int|X_i'|.  With a
    (numerically) flat mean, or when forced, the two leading empirical
    components stand in for the population decomposition:
    Z_i = 2*eta*int|Y_i2 phi2'| / int|Y_i1 phi1' + eta Y_i2 phi2'| with
    eta the square root of the eigenvalue ratio.  Every curve is one row of
    a (curves x points) array; each integral is a sum along its row, so a
    curve gets the same bits in any sample order.
    """
    if mean_mode not in ("auto", "force_zero_deriv"):
        raise ValueError("mean_mode must be 'auto' or 'force_zero_deriv'")
    curves = list(curves)
    grid = curves[0].grid
    for c in curves[1:]:
        if c.grid is not grid and not np.array_equal(c.grid, grid):
            raise GridMismatch("z_statistic needs a common grid")
    x = np.stack([c.values for c in curves])
    w = trapezoid_weights(grid)

    def integral(rows):
        return np.sum(w * rows, axis=-1)

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
    use_zero_mean = mean_mode == "force_zero_deriv" or integral(np.abs(mu_deriv)) < 1e-8 * scale

    if not use_zero_mean:
        raw = 2.0 * integral(np.abs(derivs - mu_deriv)) / denoms
        branch = "mean_deriv"
    else:
        eig = leading_eigenpairs(covariance_matrix(curves), grid, 2)
        gamma = np.sqrt(eig.eigenvalues)
        if gamma[0] <= 0.0:
            raw = np.zeros(len(curves))
            branch = "zero_mean_degenerate"
        else:
            two = eig.eigenvalues.size > 1
            centered = x - mu
            s1 = row_scores(centered, eig.eigenfunctions[0], grid)
            s2 = row_scores(centered, eig.eigenfunctions[1], grid) if two else np.zeros(len(curves))
            eta = float(gamma[1] / gamma[0]) if gamma.size > 1 and gamma[1] > 0 else 0.0
            y1 = s1 / gamma[0]
            y2 = s2 / gamma[1] if eta > 0 else np.zeros_like(s2)
            d1 = np.gradient(eig.eigenfunctions[0], grid)
            d2 = np.gradient(eig.eigenfunctions[1], grid) if two else np.zeros_like(grid)
            num = 2.0 * eta * np.abs(y2) * integral(np.abs(d2))
            den = integral(np.abs(y1[:, None] * d1 + eta * y2[:, None] * d2))
            raw = np.where(num == 0.0, 0.0, num / np.maximum(den, 1e-300))
            branch = "zero_mean"

    clamped = raw > 2.0 + Z_CLAMP_TOL
    values = np.clip(raw, 0.0, 2.0)
    if info is not None:
        info["branch"] = branch
        info["clamped"] = clamped
        info["raw_max"] = float(raw.max()) if raw.size else 0.0
    return values


def truth_errors(warp_block, width, registered, latent, mean) -> tuple:
    """Errors of a registration against its ground truth.

    ``warp_block(rows)`` returns the (estimated, true) warp samples of the
    curves in the slice ``rows``, one row per curve, at most ``width``
    points each, on points the caller chooses.  It is called for
    consecutive blocks of about _BLOCK_CELLS samples, so no (curves x warp
    grid) array exists at once.  ``registered`` and ``latent`` hold one row
    of values per curve on the grid of the estimated ``mean``.  Returns the
    per-curve warp sup errors, the per-curve relative L2 errors under
    trapezoid weights, and the sup error of ``mean`` against the
    sorted-sum mean of ``latent``.
    """
    n = latent.shape[0]
    step = max(1, _BLOCK_CELLS // max(width, 1))
    warp_errs = np.concatenate([
        np.abs(np.subtract(*warp_block(slice(start, start + step)))).max(axis=1)
        for start in range(0, n, step)
    ])
    # rows summed along a contiguous axis have the bits of each curve alone
    registered, latent = np.ascontiguousarray(registered), np.ascontiguousarray(latent)
    w = trapezoid_weights(mean.grid)
    denom = np.sqrt(np.sum(w * latent * latent, axis=1))
    num = np.sqrt(np.sum(w * (registered - latent) ** 2, axis=1))
    true_mean = sorted_row_mean(mean.grid, latent)
    return warp_errs, num / np.maximum(denom, 1e-300), float(np.abs(mean.values - true_mean.values).max())


def evaluate_against_truth(result: RegistrationResult, truth: TruthBundle) -> RegistrationReport:
    """Fill a report by comparing a registration run to its ground truth.

    Truth curves are resampled to the result's output grid by linear
    interpolation; warp errors are taken in sup norm over a dense grid
    against the exact truth warps.  The eigenproblem is solved before any
    truth array exists, which keeps the peak memory of a wide sample down.
    """
    if result.n != truth.n:
        raise GridMismatch("result and truth have different sample sizes")
    out_grid = result.output_grid
    m = min(3, result.n) if result.n >= 2 else 1
    ratios = None
    if result.n >= 2:
        eig = leading_eigenpairs(covariance_matrix(result.registered), out_grid, m)
        ratios = eig.explained_ratios

    info = {}
    try:
        z = z_statistic(result.registered, info=info) if result.n >= 2 else None
    except ZeroVariation:
        z = None
    flags = {"z_branch": info.get("branch"), "z_clamped_any": bool(np.any(info.get("clamped", False)))}

    dw2 = None
    if truth.f_phi is not None:
        dw2 = wasserstein2(result.template_cdf, truth.f_phi) ** 2

    dense = np.unique(np.concatenate((np.linspace(0.0, 1.0, 2049), out_grid)))
    at = np.clip(dense, 0.0, 1.0)

    def warp_block(rows):
        return _evaluate(result.warps[rows], at), truth.warp_rows(rows, dense)

    latent = _interp_rows(out_grid, truth.grid[None], np.stack([c.values for c in truth.latent]))
    registered = np.stack([c.values for c in result.registered])
    warp_errs, rel_errs, mean_sup = truth_errors(warp_block, dense.size, registered, latent, result.mean)

    return RegistrationReport(
        explained_ratios=ratios,
        z_stats=z,
        dW2_template_to_target=dw2,
        warp_sup_errors=warp_errs,
        curve_rel_L2_errors=rel_errs,
        mean_sup_error=mean_sup,
        flags=flags,
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
            quantiles = [
                generalized_inverse(discrete_variation_cdf(c).cdf)
                for c in bundle.observed
            ]
            qbar = mean_quantile(quantiles)
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
