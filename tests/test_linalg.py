import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from helmdd.linalg import SingularMatrixError, eigenbasis, factorize, solve


def test_factorize_diagonal():
    A = sp.diags([2.0, 4.0, 8.0]).tocsr()
    F = factorize(A)
    assert solve(F, np.array([2.0, 4.0, 8.0])) == pytest.approx([1.0, 1.0, 1.0])


def laplacian_5pt(m):
    """5-point Laplacian on an m-by-m interior grid (unit spacing)."""
    T = sp.diags([-np.ones(m - 1), 2 * np.ones(m), -np.ones(m - 1)], [-1, 0, 1])
    I = sp.identity(m)
    return (sp.kron(T, I) + sp.kron(I, T)).tocsr()


def test_factorize_laplacian_vs_dense_lu():
    A = laplacian_5pt(4)
    rng = np.random.default_rng(3)
    b = rng.standard_normal(16)
    x = solve(factorize(A), b)
    expected = np.linalg.solve(A.toarray(), b)
    assert np.linalg.norm(x - expected) < 1e-12 * np.linalg.norm(expected)


def test_factorize_indefinite():
    A = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
    x = solve(factorize(A), np.array([3.0, 3.0]))
    assert x == pytest.approx([1.0, 1.0])


def test_factorize_rejects_singular():
    A = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(SingularMatrixError):
        factorize(A)


def test_factorize_rejects_near_singular_pivot():
    A = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0 + 1e-16]]))
    with pytest.raises(SingularMatrixError):
        factorize(A)


def test_factorize_rejects_nonsquare():
    with pytest.raises(ValueError):
        factorize(sp.csr_matrix(np.ones((2, 3))))


def test_solve_identity_factorization():
    F = factorize(sp.identity(5, format="csr"))
    b = np.arange(5.0)
    assert np.array_equal(solve(F, b), b)


def test_solve_repeated_is_bitwise_identical():
    A = laplacian_5pt(3)
    F = factorize(A)
    b = np.linspace(-1, 1, 9)
    x1 = solve(F, b)
    x2 = solve(F, b)
    assert np.array_equal(x1, x2)


def test_solve_complex_diagonal():
    A = sp.csr_matrix(np.array([[1j, 0], [0, 2.0]], dtype=complex))
    x = solve(factorize(A), np.array([1j, 4.0], dtype=complex))
    assert x == pytest.approx([1.0, 2.0])


def test_solve_complex_vector_on_real_factors():
    A = laplacian_5pt(4)
    rng = np.random.default_rng(5)
    b = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    x = solve(factorize(A), b)
    assert np.linalg.norm(A @ x - b) <= 1e-12 * np.linalg.norm(b)


def test_solve_dimension_mismatch():
    F = factorize(sp.identity(3, format="csr"))
    with pytest.raises(ValueError):
        solve(F, np.ones(4))


@pytest.mark.parametrize("complex_", [False, True])
def test_factorize_solve_is_left_inverse(complex_):
    from helmdd.discretization import Grid, assemble

    if complex_:
        prob = assemble(Grid(5, "sommerfeld"), 3.0, "MP2")
    else:
        prob = assemble(Grid(9, "dirichlet"), 2.0, "MP1")
    F = factorize(prob.A)
    rng = np.random.default_rng(11)
    b = rng.standard_normal(prob.A.shape[0]).astype(prob.A.dtype)
    x = solve(F, b)
    assert np.linalg.norm(prob.A @ x - b) < 1e-10 * np.linalg.norm(b)


def test_fill_stays_within_recorded_bound():
    A = laplacian_5pt(8)
    F = factorize(A)
    # fill-reducing ordering keeps the factors far from dense
    assert F.fill_nnz < 0.5 * A.shape[0] ** 2


@pytest.mark.parametrize(
    "q",
    [np.array([[1.0, 0.0], [2.0, 0.0]]), np.zeros((2, 2))],
    ids=["zero-column", "all-zero"],
)
def test_singular_eigenvectors_are_rejected_without_warning(monkeypatch, q):
    """A rank-deficient Q has a zero smallest singular value; the guard
    reports it as an infinite (or undefined) condition number, not x/0."""
    monkeypatch.setattr(scipy.linalg, "eigh", lambda T, W: (np.array([1.0, 2.0]), q))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(SingularMatrixError, match="condition number"):
            eigenbasis(np.diag([1.0, 2.0]), np.eye(2))
