import gc
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import covariance_whole, row_scores_whole, symmetric_whole
from varireg import fpca
from varireg.errors import EmptySample, GridMismatch, NonSymmetric
from varireg.fpca import (
    _TILE,
    CovarianceKernel,
    _check_symmetric,
    _lexicographic_order,
    _row_covariance,
    _symmetrize,
    covariance_matrix,
    cross_sectional_mean,
    leading_eigenpairs,
    row_eigenpairs,
    row_scores,
    scores,
    trapezoid_weights,
)
from varireg.variation import DiscreteCurve


def _unit_phi(grid):
    phi = np.sin(np.pi * grid) + 0.3
    w = trapezoid_weights(grid)
    return phi / np.sqrt(np.sum(w * phi * phi))


def test_mean_single_and_cancellation():
    grid = np.linspace(0.0, 1.0, 21)
    c = DiscreteCurve(grid, np.cos(grid))
    assert np.array_equal(cross_sectional_mean([c]).values, c.values)
    minus = DiscreteCurve(grid, -c.values)
    np.testing.assert_allclose(cross_sectional_mean([c, minus]).values, 0.0, atol=1e-16)


def test_mean_hand_average():
    grid = np.linspace(0.0, 1.0, 5)
    a = DiscreteCurve(grid, [1.0, 2.0, 3.0, 4.0, 5.0])
    b = DiscreteCurve(grid, [3.0, 0.0, 1.0, -4.0, 7.0])
    np.testing.assert_array_equal(
        cross_sectional_mean([a, b]).values, [2.0, 1.0, 2.0, 0.0, 6.0]
    )


def test_mean_errors():
    with pytest.raises(EmptySample):
        cross_sectional_mean([])
    grid = np.linspace(0.0, 1.0, 5)
    other = np.linspace(0.0, 1.0, 7)
    with pytest.raises(GridMismatch):
        cross_sectional_mean(
            [DiscreteCurve(grid, grid), DiscreteCurve(other, other)]
        )


def test_covariance_identical_is_zero():
    grid = np.linspace(0.0, 1.0, 31)
    c = DiscreteCurve(grid, np.sin(grid))
    cov = covariance_matrix([c, c, c])
    np.testing.assert_allclose(cov, 0.0, atol=1e-16)


def test_covariance_rank1_outer_product(rng):
    grid = np.linspace(0.0, 1.0, 41)
    phi = _unit_phi(grid)
    xi = rng.standard_normal(30) + 1.5
    curves = [DiscreteCurve(grid, x * phi) for x in xi]
    cov = covariance_matrix(curves)
    var = xi.var()  # 1/n divisor matches the covariance convention
    np.testing.assert_allclose(cov, var * np.outer(phi, phi), atol=1e-10)
    eig = leading_eigenpairs(cov, grid, 2)
    assert eig.eigenvalues[1] <= 1e-10 * eig.eigenvalues[0]


def test_covariance_two_orthogonal_components(rng):
    grid = np.linspace(0.0, 1.0, 101)
    w = trapezoid_weights(grid)
    f1 = np.sqrt(2) * np.sin(np.pi * grid)
    f2 = np.sqrt(2) * np.sin(2 * np.pi * grid)
    f1 /= np.sqrt(np.sum(w * f1 * f1))
    f2 /= np.sqrt(np.sum(w * f2 * f2))
    a = rng.standard_normal(400)
    b = 0.35 * rng.standard_normal(400)
    curves = [DiscreteCurve(grid, ai * f1 + bi * f2) for ai, bi in zip(a, b)]
    eig = leading_eigenpairs(covariance_matrix(curves), grid, 2)
    assert eig.eigenvalues[0] == pytest.approx(a.var(), rel=0.05)
    assert eig.eigenvalues[1] == pytest.approx(b.var(), rel=0.2)
    ratio = eig.explained_ratios
    assert ratio[0] == pytest.approx(a.var() / (a.var() + b.var()), rel=0.05)


def test_eigen_recovers_phi():
    grid = np.linspace(0.0, 1.0, 64)
    phi = _unit_phi(grid)
    eig = leading_eigenpairs(np.outer(phi, phi), grid, 1)
    assert eig.eigenvalues[0] == pytest.approx(1.0, abs=1e-8)
    np.testing.assert_allclose(eig.eigenfunctions[0], phi, atol=1e-8)


def test_eigen_zero_matrix():
    grid = np.linspace(0.0, 1.0, 16)
    eig = leading_eigenpairs(np.zeros((16, 16)), grid, 2)
    assert eig.trace_zero
    np.testing.assert_array_equal(eig.eigenvalues, 0.0)
    np.testing.assert_array_equal(eig.explained_ratios, 0.0)


def test_eigen_rejects_asymmetric():
    grid = np.linspace(0.0, 1.0, 8)
    bad = np.eye(8)
    bad[0, 3] = 0.5
    with pytest.raises(NonSymmetric):
        leading_eigenpairs(bad, grid, 1)


def test_eigen_orthonormal_and_trace(rng):
    grid = np.linspace(0.0, 1.0, 80)
    mat = rng.standard_normal((25, 80))
    curves = [DiscreteCurve(grid, row) for row in mat]
    cov = covariance_matrix(curves)
    m = 80
    eig = leading_eigenpairs(cov, grid, m)
    w = trapezoid_weights(grid)
    gram = (eig.eigenfunctions * w) @ eig.eigenfunctions.T
    np.testing.assert_allclose(gram, np.eye(m), atol=1e-8)
    weighted_trace = float(np.sum(w * np.diag(cov)))
    assert eig.eigenvalues.sum() == pytest.approx(weighted_trace, abs=1e-8)


def test_eigen_sign_convention_deterministic(rng):
    grid = np.linspace(0.0, 1.0, 30)
    curves = [DiscreteCurve(grid, row) for row in rng.standard_normal((12, 30))]
    e1 = leading_eigenpairs(covariance_matrix(curves), grid, 3)
    e2 = leading_eigenpairs(covariance_matrix(curves[::-1]), grid, 3)
    np.testing.assert_array_equal(e1.eigenfunctions, e2.eigenfunctions)
    w = trapezoid_weights(grid)
    for phi in e1.eigenfunctions:
        integral = np.sum(w * phi)
        assert integral >= -1e-10


def test_scores_rank1_reconstruction(rng):
    grid = np.linspace(0.0, 1.0, 120)
    phi = _unit_phi(grid)
    xi = 2.0 + rng.standard_normal(40)
    curves = [DiscreteCurve(grid, x * phi) for x in xi]
    eig = leading_eigenpairs(covariance_matrix(curves), grid, 1)
    assert eig.explained_ratios[0] >= 1.0 - 1e-8
    s = scores(curves, eig.eigenfunctions[0], grid)
    sign = np.sign(np.sum(trapezoid_weights(grid) * eig.eigenfunctions[0] * phi))
    np.testing.assert_allclose(s * sign, xi, atol=1e-8)
    recon = np.outer(s, eig.eigenfunctions[0])
    stacked = np.stack([c.values for c in curves])
    assert np.abs(recon - stacked).max() <= 1e-6 * np.abs(stacked).max()


def test_scores_orthogonal_and_zero(rng):
    grid = np.linspace(0.0, 1.0, 200)
    w = trapezoid_weights(grid)
    phi = _unit_phi(grid)
    # exactly orthogonal under the quadrature inner product
    raw = np.cos(3 * np.pi * grid)
    ortho = raw - np.sum(w * raw * phi) * phi
    curves = [DiscreteCurve(grid, ortho), DiscreteCurve(grid, np.zeros(grid.size))]
    s = scores(curves, phi, grid)
    assert abs(s[0]) <= 1e-8
    assert s[1] == 0.0


def test_scores_grid_mismatch():
    grid = np.linspace(0.0, 1.0, 10)
    with pytest.raises(GridMismatch):
        scores([DiscreteCurve(grid, grid)], np.ones(11), np.linspace(0, 1, 11))


@st.composite
def row_samples(draw):
    """(rows, grid, m) on either side of n = r: random, rank-deficient or identical rows."""
    r = draw(st.integers(3, 40))
    n = draw(st.sampled_from([2, max(2, r - 1), r, r + 1]) | st.integers(2, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = np.concatenate(([0.0], np.cumsum(rng.uniform(0.2, 1.0, r - 1))))
    grid /= grid[-1]
    kind = draw(st.sampled_from(["random", "low_rank", "identical"]))
    if kind == "random":
        rows = rng.standard_normal((n, r))
    elif kind == "low_rank":
        k = draw(st.integers(1, 3))
        rows = rng.standard_normal((n, k)) @ rng.standard_normal((k, r)) + rng.standard_normal(r)
    else:
        # integer values: the sorted-sum mean is exact, so the centred rows are 0
        rows = np.tile(rng.integers(-8, 9, r).astype(float), (n, 1))
    m = draw(st.integers(1, min(n, r)))
    return rows, grid, m


def _weighted_spectrum(rows, grid):
    """All eigenvalues of W^1/2 K W^1/2, nonincreasing."""
    sqw = np.sqrt(trapezoid_weights(grid))
    kernel = covariance_matrix(DiscreteCurve.batch(grid, rows))
    return np.linalg.eigvalsh(sqw[:, None] * kernel * sqw[None, :])[::-1]


@given(row_samples())
def test_row_eigenpairs_matches_covariance_eigh(sample):
    rows, grid, m = sample
    n, r = rows.shape
    got = row_eigenpairs(rows, grid, m)
    # np.array drops the rows a kernel of n < r curves keeps: the reference stays a dense eigh
    want = leading_eigenpairs(np.array(covariance_matrix(DiscreteCurve.batch(grid, rows))), grid, m)
    if n >= r:  # the covariance eigh itself
        np.testing.assert_array_equal(got.eigenvalues, want.eigenvalues)
        np.testing.assert_array_equal(got.eigenfunctions, want.eigenfunctions)
        np.testing.assert_array_equal(got.explained_ratios, want.explained_ratios)
    np.testing.assert_array_equal(got.grid, grid)
    assert got.eigenvalues.size == want.eigenvalues.size == m
    assert got.trace_zero == want.trace_zero
    lead = want.eigenvalues[0]
    assert np.abs(got.eigenvalues - want.eigenvalues).max() <= 1e-12 * lead
    assert np.abs(got.explained_ratios - want.explained_ratios).max() <= 1e-12
    if lead <= 0.0:
        return
    w = trapezoid_weights(grid)
    kernel = covariance_matrix(DiscreteCurve.batch(grid, rows))
    trace = float(np.sum(w * np.diag(kernel)))  # the weighted trace, not from any eigensolver
    np.testing.assert_allclose(got.explained_ratios * trace, got.eigenvalues, rtol=1e-9, atol=1e-12 * lead)
    # Both solvers are backward stable, with a backward error of a few
    # hundred ulps of lead at these sizes (forming the covariance included).
    # By Davis-Kahan an eigenvector whose eigenvalue is `gap` away from the
    # rest of the spectrum then moves by at most ~1e-13 * lead / gap in the
    # quadrature norm; 1e-10 * lead / gap leaves a wide margin.  Pairs with
    # a gap under 1e-4 * lead are not separated and are not compared.
    spectrum = _weighted_spectrum(rows, grid)
    sqw = np.sqrt(w)
    for j in range(m):
        gap = min(spectrum[j - 1] - spectrum[j] if j else np.inf,
                  spectrum[j] - spectrum[j + 1] if j + 1 < r else np.inf)
        if gap < 1e-4 * lead:
            continue
        tol = 1e-10 * lead / gap
        a, b = got.eigenfunctions[j], want.eigenfunctions[j]
        # the quadrature norm of a - b bounds the change of its integral too
        integral = abs(np.sum(w * b))
        top = np.sort(np.abs(b))[-2:]
        clear = abs(integral - 1e-10) > 2 * tol and (
            integral >= 1e-10 or top[1] - top[0] > 2 * tol / sqw.min()
        )
        diff = np.sqrt(np.sum(w * (a - b) ** 2))
        if clear:
            assert diff <= tol, (j, diff, tol)
        else:  # _fix_sign sits on a tie: the sign may go either way
            assert min(diff, np.sqrt(np.sum(w * (a + b) ** 2))) <= tol


def test_row_eigenpairs_bit_for_bit_when_n_at_least_r(rng):
    for n, r in ((1000, 201), (41, 41), (60, 7)):
        grid = np.linspace(0.0, 1.0, r)
        rows = rng.standard_normal((n, r)).cumsum(axis=1)
        got = row_eigenpairs(rows, grid, 3)
        want = leading_eigenpairs(covariance_matrix(DiscreteCurve.batch(grid, rows)), grid, 3)
        np.testing.assert_array_equal(got.eigenvalues, want.eigenvalues)
        np.testing.assert_array_equal(got.eigenfunctions, want.eigenfunctions)
        np.testing.assert_array_equal(got.explained_ratios, want.explained_ratios)


@given(row_samples(), st.randoms(use_true_random=False))
def test_row_eigenpairs_permutation_invariant(sample, random):
    rows, grid, m = sample
    order = list(range(rows.shape[0]))
    random.shuffle(order)
    a = row_eigenpairs(rows, grid, m)
    b = row_eigenpairs(rows[order], grid, m)
    np.testing.assert_array_equal(a.eigenvalues, b.eigenvalues)
    np.testing.assert_array_equal(a.eigenfunctions, b.eigenfunctions)
    np.testing.assert_array_equal(a.explained_ratios, b.explained_ratios)


@st.composite
def tied_rows(draw):
    """1 to 40 rows of 1 to 6 small integers and signed zeros, some rows repeated whole."""
    n, r = draw(st.integers(1, 40)), draw(st.integers(1, 6))
    cells = st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 2.5])
    rows = np.array(draw(st.lists(st.lists(cells, min_size=r, max_size=r), min_size=n, max_size=n)))
    copies = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n))
    for src, dst in copies:
        rows[dst] = rows[src]
    return rows


@given(tied_rows())
def test_lexicographic_order_is_lexsort(rows):
    # the first column sorted alone, then the tied runs lexsorted: the same
    # permutation as a lexsort over every column (-0.0 ties 0.0; whole ties
    # stay in input order)
    assert _lexicographic_order(rows).tolist() == np.lexsort(rows.T[::-1]).tolist()


def test_row_eigenpairs_returns_at_most_n_pairs(rng):
    grid = np.linspace(0.0, 1.0, 50)
    eig = row_eigenpairs(rng.standard_normal((4, 50)), grid, 10)
    assert eig.eigenvalues.size == 4 and eig.eigenfunctions.shape == (4, 50)
    w = trapezoid_weights(grid)
    gram = (eig.eigenfunctions[:3] * w) @ eig.eigenfunctions[:3].T
    np.testing.assert_allclose(gram, np.eye(3), atol=1e-10)


def test_row_eigenpairs_errors():
    grid = np.linspace(0.0, 1.0, 9)
    with pytest.raises(EmptySample):
        row_eigenpairs(np.ones((1, 9)), grid, 1)
    with pytest.raises(GridMismatch):
        row_eigenpairs(np.ones((3, 8)), grid, 1)
    with pytest.raises(ValueError):
        row_eigenpairs(np.eye(9)[:3], grid, 0)


def test_row_eigenpairs_memory_is_o_of_n_r():
    # a dense 5000 x 5000 covariance alone would take 200 MB
    rng = np.random.default_rng(3)
    grid = np.linspace(0.0, 1.0, 5000)
    rows = rng.standard_normal((4, 5000)).cumsum(axis=1)
    tracemalloc.start()
    try:
        eig = row_eigenpairs(rows, grid, 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 50e6
    assert eig.eigenfunctions.shape == (4, 5000)


def _assert_same_pairs(got, want):
    assert got.grid.tobytes() == want.grid.tobytes()
    assert got.eigenvalues.tobytes() == want.eigenvalues.tobytes()
    assert got.eigenfunctions.tobytes() == want.eigenfunctions.tobytes()
    assert got.explained_ratios.tobytes() == want.explained_ratios.tobytes()
    assert got.trace_zero == want.trace_zero


@given(row_samples())
def test_kernel_eigenpairs_are_row_eigenpairs_bit_for_bit(sample):
    # below n = r both take the thin SVD of the kernel's rows, from n = r both the eigh
    rows, grid, m = sample
    got = leading_eigenpairs(covariance_matrix(DiscreteCurve.batch(grid, rows)), grid, m)
    _assert_same_pairs(got, row_eigenpairs(rows, grid, m))


@pytest.mark.parametrize("n, r", [(5, 30), (29, 30), (30, 30), (40, 12)])
def test_covariance_kernel_is_read_only_and_exactly_symmetric(rng, n, r):
    grid = np.linspace(0.0, 1.0, r)
    rows = rng.standard_normal((n, r)).cumsum(axis=1)
    kernel = covariance_matrix(DiscreteCurve.batch(grid, rows))
    assert isinstance(kernel, CovarianceKernel)
    assert not kernel.flags.writeable
    with pytest.raises(ValueError):
        kernel[0, 1] = 1.0
    assert np.asarray(kernel).tobytes() == np.asarray(kernel.T).copy().tobytes()
    assert (kernel.rows is not None) == (n < r)
    if kernel.rows is not None:
        assert not kernel.rows.flags.writeable
    # a view, copy or ufunc result keeps no rows and takes the dense eigh
    dense = leading_eigenpairs(np.array(kernel), grid, 3)
    for other in (kernel.T, kernel.copy(), np.array(kernel), kernel * 1):
        assert getattr(other, "rows", None) is None
        _assert_same_pairs(leading_eigenpairs(other, grid, 3), dense)
    assert type(kernel * 1) is np.ndarray and type(kernel.sum()) is np.float64


def test_kernel_of_few_curves_gives_min_m_r_pairs_past_n(rng):
    grid = np.linspace(0.0, 1.0, 80)
    rows = rng.standard_normal((25, 80))
    kernel = covariance_matrix(DiscreteCurve.batch(grid, rows))
    assert leading_eigenpairs(kernel, grid, 25).eigenvalues.size == 25
    for m in (26, 80, 200):  # more pairs than curves: the dense eigh, as for a plain array
        eig = leading_eigenpairs(kernel, grid, m)
        assert eig.eigenvalues.size == min(m, 80)
        _assert_same_pairs(eig, leading_eigenpairs(np.array(kernel), grid, m))


@pytest.mark.parametrize("r", [1, 7, _TILE - 1, _TILE, _TILE + 1, 2 * _TILE + 3, 1001])
@pytest.mark.parametrize("few", [True, False], ids=["n_below_r", "n_above_r"])
def test_covariance_matrix_has_the_bits_of_the_whole_matrix_expression(r, few):
    rng = np.random.default_rng(r)
    n = 3 if few else r + 2
    rows = rng.standard_normal((n, r)).cumsum(axis=1) * 1e3
    # a one-point grid is no DiscreteCurve; covariance_matrix is _row_covariance of the stack
    kernel = covariance_matrix(DiscreteCurve.batch(np.linspace(0.0, 1.0, r), rows)) if r >= 3 else _row_covariance(rows)
    assert np.asarray(kernel).tobytes() == covariance_whole(rows).tobytes()


@pytest.mark.parametrize("r", [1, 7, _TILE - 1, _TILE, _TILE + 1, 2 * _TILE + 3, 1001])
def test_symmetrize_in_tiles_is_the_whole_matrix_mean(r):
    # numpy's A.T @ A is already exactly symmetric, so test the tiles on a matrix that is not
    a = np.random.default_rng(r).standard_normal((r, r))
    want = (a + a.T) / 2.0
    _symmetrize(a)
    assert a.tobytes() == want.tobytes()


def _perturbed(case):
    r = 37
    rng = np.random.default_rng(8)
    a = rng.standard_normal((r, r))
    kernel = a @ a.T
    kernel = (kernel + kernel.T) / 2.0
    atol = 1e-10 * float(np.abs(kernel).max())
    last = r - 1  # in the last tile of rows
    if case == "tiny":
        kernel *= 1e-20
        kernel[last, 2] += 5e-11  # under the atol floor of 1e-10
    elif case == "over_atol":
        kernel[last, 2] += 2.0 * atol
    elif case == "under_atol":
        kernel[last, 2] += 0.5 * atol
    elif case != "symmetric":
        value = {"nan": np.nan, "inf": np.inf, "minus_inf": -np.inf}[case.split("_", 1)[1]]
        kernel[last, 2] = value
        if case.startswith("mirrored"):
            kernel[2, last] = value
        elif case.startswith("diagonal"):
            kernel[last, 2] = kernel[2, last]
            kernel[last, last] = value
    return kernel


_CASES = ["symmetric", "tiny", "over_atol", "under_atol", "one_nan", "mirrored_nan", "diagonal_nan",
          "one_inf", "mirrored_inf", "mirrored_minus_inf", "diagonal_inf"]


# numpy warns of the nan or inf atol that a nan or inf entry makes, in both forms
@pytest.mark.filterwarnings("ignore:One of rtol or atol is not valid:RuntimeWarning")
@pytest.mark.parametrize("case", _CASES)
@pytest.mark.parametrize("cells", [1, 4 * 37, None], ids=["rows_of_1", "rows_of_4", "default_tiles"])
def test_symmetry_check_in_tiles_gives_the_whole_matrix_verdict(case, cells):
    kernel = _perturbed(case)
    symmetric = symmetric_whole(kernel)
    # an inf entry makes the atol inf, so every finite pair passes
    passes = {"symmetric", "tiny", "under_atol", "mirrored_inf", "mirrored_minus_inf", "diagonal_inf"}
    assert symmetric == (case in passes)
    with mock.patch.object(fpca, "_BLOCK_CELLS", cells or fpca._BLOCK_CELLS):
        if symmetric:
            _check_symmetric(kernel)
        else:
            with pytest.raises(NonSymmetric):
                _check_symmetric(kernel)
            with pytest.raises(NonSymmetric):
                leading_eigenpairs(kernel, np.linspace(0.0, 1.0, kernel.shape[0]), 1)


@given(
    st.integers(0, 30), st.integers(1, 50), st.sampled_from([1, 7, 64, None]),
    st.sampled_from(["C", "F", "strided"]), st.integers(0, 2**32 - 1),
)
def test_row_scores_in_blocks_match_the_whole_sample_form(n, r, cells, layout, seed):
    rng = np.random.default_rng(seed)
    grid = np.sort(rng.random(r))
    phi = rng.standard_normal(r)
    rows = rng.standard_normal((n, 2 * r)) * 10.0 ** rng.integers(-5, 6, (n, 1))
    rows = rows[:, ::2] if layout == "strided" else rows[:, :r]
    rows = np.asfortranarray(rows) if layout == "F" else np.ascontiguousarray(rows) if layout == "C" else rows
    with mock.patch.object(fpca, "_BLOCK_CELLS", cells or fpca._BLOCK_CELLS):
        got = row_scores(rows, phi, grid)
    assert got.shape == (n,)
    assert got.tobytes() == row_scores_whole(rows, phi, grid).tobytes()


def _traced_peak(call, *args):
    """(value, tracemalloc peak in bytes) of ``call(*args)`` over what exists before it."""
    gc.collect()
    tracemalloc.start()
    try:
        value = call(*args)
        return value, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def wide_peaks():
    """The FPCA calls on one 200 x 1001 sample under tracemalloc: each one's
    peak over its arguments, in MB."""
    rng = np.random.default_rng(5)
    grid = np.linspace(0.0, 1.0, 1001)
    rows = rng.standard_normal((200, 1001)).cumsum(axis=1)
    curves = DiscreteCurve.batch(grid, rows)
    kernel, cov = _traced_peak(covariance_matrix, curves)
    eig, lead = _traced_peak(leading_eigenpairs, kernel, grid, 3)
    row_eig, row = _traced_peak(row_eigenpairs, rows, grid, 3)
    _assert_same_pairs(eig, row_eig)
    _, score = _traced_peak(row_scores, rows, eig.eigenfunctions[0], grid)
    return {"covariance_matrix": cov / 1e6, "leading_eigenpairs": lead / 1e6,
            "row_eigenpairs": row / 1e6, "row_scores": score / 1e6}


# Each bound is the value measured with numpy 2.4 + 5 %.  Before the kernel
# was divided and symmetrized in place and kept its rows, covariance_matrix
# peaked at 19.31 MB and leading_eigenpairs of it, a dense 1001-point eigh,
# at 17.10 MB; row_scores over the whole sample at 3.27 MB.
@pytest.mark.parametrize("call, measured", [
    ("covariance_matrix", 12.409),
    ("leading_eigenpairs", 3.551),
    ("row_eigenpairs", 3.549),  # the thin SVD is shared; its own peak does not grow
    ("row_scores", 1.117),
])
def test_wide_fpca_peaks(wide_peaks, call, measured):
    assert wide_peaks[call] <= 1.05 * measured, wide_peaks
