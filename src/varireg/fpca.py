"""Mean, covariance, leading eigenpairs, and scores of a registered sample.

The eigenproblem is solved under trapezoid quadrature weights on the
analysis grid, so eigenfunctions are orthonormal in the quadrature inner
product and the eigenvalue sum equals the weighted trace of the covariance.
A sample with fewer curves than grid points is decomposed by a thin SVD of
its centred rows, so no (grid x grid) array is formed.
``covariance_matrix`` returns a read-only ``CovarianceKernel`` that, for such
a sample, keeps those rows, so ``leading_eigenpairs`` of it takes the same
SVD: for m up to the sample size it is ``row_eigenpairs`` bit for bit at
every n.  The covariance product, ``eigh`` and the SVD run with numpy's
OpenBLAS in one thread, so their bits do not depend on the BLAS thread count.
"""

from __future__ import annotations

import ctypes
import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import EmptySample, GridMismatch, NonSymmetric
from .simulate import _BLOCK_CELLS
from .variation import DiscreteCurve

_TILE = math.isqrt(_BLOCK_CELLS)  # side of the square tiles _symmetrize averages


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


class CovarianceKernel(np.ndarray):
    """A read-only covariance matrix that, for a sample of fewer curves than
    grid points, also keeps the sample's canonical centred rows (``rows``).

    Views and copies of it keep no rows, and ufuncs and reductions of it
    return plain arrays and scalars.
    """

    def __array_finalize__(self, obj):
        self.rows = None

    def __array_wrap__(self, obj, context=None, return_scalar=False):
        obj = obj.view(np.ndarray)
        return obj[()] if return_scalar else obj


def covariance_matrix(curves) -> CovarianceKernel:
    """Empirical covariance kernel on the grid, divisor 1/n, symmetrized.

    The kernel is read-only.  With fewer curves than grid points it keeps
    their centred rows, so leading_eigenpairs of it takes their thin SVD.
    """
    curves = list(curves)
    if len(curves) < 2:
        raise EmptySample("covariance needs at least two curves")
    _common_grid(curves)
    return _row_covariance(np.stack([c.values for c in curves]))


@contextmanager
def _one_blas_thread():
    """Run the block with numpy's OpenBLAS in one thread, then restore its count.

    matmul, eigh and svd change bits with the thread count.  The thread
    calls are looked up through numpy's core extension, which links the
    OpenBLAS; a build that exports neither leaves threading alone.
    """
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        get, set_threads = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        get.argtypes, get.restype = [], ctypes.c_int
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    except (AttributeError, OSError):
        get = set_threads = lambda *count: None
    before = get()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(before)


def _lexicographic_order(rows) -> np.ndarray:
    """np.lexsort(rows.T[::-1]) of finite rows: by the first column, then the
    next, ..., ties kept in input order.

    A stable sort of the first column, then a lexsort of the rows inside each
    run of tied first values alone: one sort per column only where ties need it.
    """
    order = np.argsort(rows[:, 0], kind="stable")
    first = rows[order, 0]
    edges = np.flatnonzero(np.diff(np.concatenate(([False], first[1:] == first[:-1], [False]))))
    for a, b in zip(edges[::2], edges[1::2] + 1):  # order[a:b] ties in the first column
        order[a:b] = order[a:b][np.lexsort(rows[order[a:b]].T[::-1])]
    return order


def _centered_rows(rows) -> np.ndarray:
    """Rows in a canonical (input-order independent) order, minus their sorted-sum mean."""
    if rows.shape[0] < 2:
        raise EmptySample("covariance needs at least two curves")
    rows = rows[_lexicographic_order(rows)]
    return rows - np.sort(rows, axis=0).sum(axis=0) / rows.shape[0]


def _row_covariance(rows) -> CovarianceKernel:
    """covariance_matrix of the curves whose values are the rows of ``rows``.

    Divides and symmetrizes the product in place, so the kernel is the one
    r x r array it holds.
    """
    centered = _centered_rows(rows)
    n, r = centered.shape
    with _one_blas_thread():
        cov = centered.T @ centered
    cov /= n
    _symmetrize(cov)
    kernel = cov.view(CovarianceKernel)
    if n < r:
        centered.flags.writeable = False
        kernel.rows = centered
    kernel.flags.writeable = False
    return kernel


def _symmetrize(cov) -> None:
    """cov <- (cov + cov.T) / 2.0 in place, one pair of mirrored tiles at a time.

    An entry plus its mirror is the same sum in either order, so both tiles
    of a pair take the values of the whole-matrix expression.
    """
    r, t = cov.shape[0], _TILE
    for a in range(0, r, t):
        for b in range(a, r, t):
            mean = cov[a:a + t, b:b + t] + cov[b:b + t, a:a + t].T
            mean /= 2.0
            cov[a:a + t, b:b + t] = mean
            cov[b:b + t, a:a + t] = mean.T


def _check_symmetric(kernel) -> None:
    """Raise NonSymmetric unless np.allclose(kernel, kernel.T) with rtol 0 and
    atol 1e-10 * max(largest |entry|, 1): the same verdict, nan and inf
    included, taken over tiles of about _BLOCK_CELLS entries."""
    step = max(1, _BLOCK_CELLS // kernel.shape[0])
    tiles = range(0, kernel.shape[0], step)
    scale = float(np.max([np.abs(kernel[a:a + step]).max() for a in tiles]))
    atol = 1e-10 * max(scale, 1.0)
    if not all(np.allclose(kernel[a:a + step], kernel[:, a:a + step].T, atol=atol, rtol=0.0) for a in tiles):
        raise NonSymmetric("kernel is not symmetric")


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
    coordinate when the integral is (numerically) zero.  Returns min(m, r)
    pairs.

    A ``covariance_matrix`` of n curves on r > n grid points keeps their
    centred rows; for m <= n it is solved by their thin SVD instead, and the
    result is row_eigenpairs(rows, grid, m) bit for bit.
    """
    rows = kernel.rows if isinstance(kernel, CovarianceKernel) else None
    grid = np.asarray(grid, dtype=float)
    kernel = np.asarray(kernel, dtype=float)
    if kernel.ndim != 2 or kernel.shape[0] != kernel.shape[1]:
        raise NonSymmetric("kernel must be a square matrix")
    if kernel.shape[0] != grid.size:
        raise GridMismatch("kernel size does not match grid")
    _check_symmetric(kernel)
    if m < 1:
        raise ValueError("need m >= 1")

    w = trapezoid_weights(grid)
    sqw = np.sqrt(w)
    if rows is not None and m <= rows.shape[0]:
        evals, vectors = _thin_svd(rows * (sqw / math.sqrt(rows.shape[0])))
        return _decomposition(grid, w, sqw, evals, vectors, m)
    sym = sqw[:, None] * kernel * sqw[None, :]
    sym = (sym + sym.T) / 2.0
    with _one_blas_thread():
        evals, evecs = np.linalg.eigh(sym)
    return _decomposition(grid, w, sqw, evals[::-1], evecs[:, ::-1].T, min(m, grid.size))


def row_eigenpairs(rows, grid, m: int) -> EigenDecomposition:
    """leading_eigenpairs of the covariance of the curves whose values are the rows of ``rows``.

    With at least as many curves as grid points this is
    leading_eigenpairs(covariance_matrix(curves), grid, m), bit for bit.
    With fewer, it is the thin SVD of the centred rows, in canonical order
    and weighted by sqrt(trapezoid / n): the eigenvalues are the squared
    singular values, the right singular vectors map back to the
    eigenfunctions, and the missing eigenvalues are exactly zero.  Time is
    O(n r min(n, r)) and memory O(n r).  Returns min(m, n, r) pairs; past
    the sample size the eigenfunctions are null directions.  For m <= n,
    leading_eigenpairs(covariance_matrix(curves), grid, m) takes the same
    SVD, so the two agree bit for bit at every n.
    """
    grid = np.asarray(grid, dtype=float)
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != grid.size:
        raise GridMismatch("rows do not match the grid")
    if m < 1:
        raise ValueError("need m >= 1")
    n = rows.shape[0]
    if n >= grid.size:
        return leading_eigenpairs(_row_covariance(rows), grid, m)
    w = trapezoid_weights(grid)
    sqw = np.sqrt(w)
    evals, vectors = _thin_svd(_centered_rows(rows) * (sqw / math.sqrt(n)))
    return _decomposition(grid, w, sqw, evals, vectors, min(m, n))


def _thin_svd(weighted):
    """Nonincreasing eigenvalues of W^1/2 K W^1/2 and its eigenvectors (rows)
    from the n canonical centred rows, each weighted by sqrt(w / n): their
    squared singular values and right singular vectors."""
    with _one_blas_thread():
        _, s, vt = np.linalg.svd(weighted, full_matrices=False)
    return s * s, vt


def _decomposition(grid, w, sqw, evals, vectors, m) -> EigenDecomposition:
    """The first m pairs from nonincreasing eigenvalues of W^1/2 K W^1/2 and
    their eigenvectors (rows of ``vectors``), mapped back through 1/sqrt(w)."""
    trace = float(np.clip(evals, 0.0, None).sum())
    values = np.clip(evals[:m], 0.0, None)
    funcs = np.empty((m, grid.size))
    with np.errstate(divide="ignore", invalid="ignore"):
        for j in range(m):
            funcs[j] = _fix_sign(vectors[j] / sqw, w)
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
    it has the bits of that curve scored alone.  The rows go in blocks of
    about _BLOCK_CELLS values, so no product over the whole sample exists.
    """
    w = trapezoid_weights(grid)
    rows = np.asarray(rows)
    out = np.empty(rows.shape[0])
    step = max(1, _BLOCK_CELLS // max(rows.shape[1], 1))
    for a in range(0, rows.shape[0], step):
        block = w * np.ascontiguousarray(rows[a:a + step])
        block *= eigenfunction
        out[a:a + step] = block.sum(axis=1)
    return out
