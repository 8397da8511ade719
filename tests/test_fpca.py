import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from varireg.errors import EmptySample, GridMismatch, NonSymmetric
from varireg.fpca import (
    _lexicographic_order,
    covariance_matrix,
    cross_sectional_mean,
    leading_eigenpairs,
    row_eigenpairs,
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
    want = leading_eigenpairs(covariance_matrix(DiscreteCurve.batch(grid, rows)), grid, m)
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
