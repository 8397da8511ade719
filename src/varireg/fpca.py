"""Mean, covariance, leading eigenpairs, and scores of a registered sample.

The eigenproblem is solved under trapezoid quadrature weights on the
analysis grid, so eigenfunctions are orthonormal in the quadrature inner
product and the eigenvalue sum equals the weighted trace of the covariance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptySample, GridMismatch, NonSymmetric
from .variation import DiscreteCurve, thin_index

DENSE_SOLVE_CAP = 2048  # grids larger than this are thinned before eigh


def trapezoid_weights(grid: np.ndarray) -> np.ndarray:
    d = np.diff(grid)
    w = np.zeros(grid.size)
    w[:-1] += d / 2.0
    w[1:] += d / 2.0
    return w


def _common_grid(curves) -> np.ndarray:
    curves = list(curves)
    if not curves:
        raise EmptySample("no curves given")
    grid = curves[0].grid
    for c in curves[1:]:
        if c.grid is not grid and not np.array_equal(c.grid, grid):
            raise GridMismatch("curves are not on a common grid")
    return grid


def _canonical_matrix(curves) -> tuple[np.ndarray, np.ndarray]:
    """Stack curve values in a canonical (input-order independent) row order."""
    grid = _common_grid(curves)
    mat = np.stack([c.values for c in curves])
    order = np.lexsort(mat.T[::-1])
    return grid, mat[order]


def cross_sectional_mean(curves) -> DiscreteCurve:
    """Pointwise average of curves sharing a grid.

    The per-point reduction sorts the addends, so the result is
    bit-identical under permutation of the sample.
    """
    grid = _common_grid(curves)
    return sorted_row_mean(grid, np.stack([c.values for c in curves]))


def sorted_row_mean(grid, rows) -> DiscreteCurve:
    """cross_sectional_mean of the curves whose values are the rows of ``rows``."""
    rows = np.sort(rows, axis=0)
    return DiscreteCurve(grid, rows.sum(axis=0) / rows.shape[0])


def covariance_matrix(curves) -> np.ndarray:
    """Empirical covariance kernel on the grid, divisor 1/n, symmetrized."""
    curves = list(curves)
    if len(curves) < 2:
        raise EmptySample("covariance needs at least two curves")
    _, mat = _canonical_matrix(curves)
    mean = np.sort(mat, axis=0).sum(axis=0) / mat.shape[0]
    centered = mat - mean
    cov = centered.T @ centered / mat.shape[0]
    return (cov + cov.T) / 2.0


@dataclass(frozen=True)
class EigenDecomposition:
    """Leading eigenpairs of a covariance kernel under quadrature weights."""

    grid: np.ndarray
    eigenvalues: np.ndarray       # nonincreasing, nonnegative, length m
    eigenfunctions: np.ndarray    # shape (m, len(grid)), quadrature-orthonormal
    explained_ratios: np.ndarray  # eigenvalue / weighted trace
    trace_zero: bool = False


def _fix_sign(phi: np.ndarray, weights: np.ndarray) -> np.ndarray:
    integral = float(np.sum(weights * phi))
    if abs(integral) >= 1e-10:
        return phi if integral >= 0 else -phi
    lead = phi[int(np.argmax(np.abs(phi)))]
    return phi if lead >= 0 else -phi


def leading_eigenpairs(kernel: np.ndarray, grid, m: int) -> EigenDecomposition:
    """Top-m eigenpairs of the quadrature-weighted covariance operator.

    Solves eigh(W^1/2 K W^1/2) and maps eigenvectors back, which makes the
    eigenfunctions L2-orthonormal under the trapezoid inner product.  Sign
    convention: nonnegative integral, falling back to a positive largest
    coordinate when the integral is (numerically) zero.
    """
    grid = np.asarray(grid, dtype=float)
    kernel = np.asarray(kernel, dtype=float)
    if kernel.ndim != 2 or kernel.shape[0] != kernel.shape[1]:
        raise NonSymmetric("kernel must be a square matrix")
    if kernel.shape[0] != grid.size:
        raise GridMismatch("kernel size does not match grid")
    scale = float(np.abs(kernel).max())
    if not np.allclose(kernel, kernel.T, atol=1e-10 * max(scale, 1.0), rtol=0.0):
        raise NonSymmetric("kernel is not symmetric")
    if m < 1:
        raise ValueError("need m >= 1")

    if grid.size > DENSE_SOLVE_CAP:
        idx = thin_index(grid.size, DENSE_SOLVE_CAP)
        grid = grid[idx]
        kernel = kernel[np.ix_(idx, idx)]

    w = trapezoid_weights(grid)
    sqw = np.sqrt(w)
    sym = sqw[:, None] * kernel * sqw[None, :]
    sym = (sym + sym.T) / 2.0
    evals, evecs = np.linalg.eigh(sym)
    evals = evals[::-1]
    evecs = evecs[:, ::-1]
    trace = float(np.clip(evals, 0.0, None).sum())

    m = min(m, grid.size)
    values = np.clip(evals[:m], 0.0, None)
    funcs = np.empty((m, grid.size))
    with np.errstate(divide="ignore", invalid="ignore"):
        for j in range(m):
            phi = evecs[:, j] / sqw
            funcs[j] = _fix_sign(phi, w)
    if trace <= 0.0:
        ratios = np.zeros(m)
        return EigenDecomposition(grid, values, funcs, ratios, trace_zero=True)
    return EigenDecomposition(grid, values, funcs, values / trace)


def scores(curves, eigenfunction: np.ndarray, grid) -> np.ndarray:
    """Trapezoid inner products of each curve with one eigenfunction."""
    curves = list(curves)
    grid = np.asarray(grid, dtype=float)
    common = _common_grid(curves)
    if common.size != grid.size or not np.array_equal(common, grid):
        raise GridMismatch("curves and eigenfunction grids differ")
    return row_scores(np.stack([c.values for c in curves]), eigenfunction, grid)


def row_scores(rows, eigenfunction: np.ndarray, grid) -> np.ndarray:
    """scores of the curves whose values are the rows of ``rows``.

    Each row is summed as (w * x) * phi along its own contiguous axis, so
    it has the bits of that curve scored alone.
    """
    return np.sum(trapezoid_weights(grid) * np.ascontiguousarray(rows) * eigenfunction, axis=1)
