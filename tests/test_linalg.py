import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from helmdd.coarse import _coarse_factors, build_focs, build_hocs, galerkin
from helmdd.decomposition import extend_max, interval_classes, partition
from helmdd.discretization import Grid, assemble
from helmdd.gmres import GmresConfig
from helmdd.harness import ExperimentConfig, run_experiment
from helmdd import linalg
from helmdd.linalg import Eigenbases, SingularMatrixError, eigenbasis, factorize, factorize_kronecker, solve
from reference import generalized_eigenbasis, kronecker_solve


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
    "module, solver, vectors, dtype",
    [
        (scipy.linalg, "eigh", np.array([[1.0, 0.0], [2.0, 0.0]]), float),
        (scipy.linalg, "eigh", np.zeros((2, 2)), float),
        (np.linalg, "eig", np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex), complex),
    ],
    ids=["zero-column", "all-zero", "complex-parallel"],
)
def test_singular_eigenvectors_are_rejected_without_warning(monkeypatch, module, solver, vectors, dtype):
    """A rank-deficient Q has a zero smallest singular value; the guard
    reports it as an infinite (or undefined) condition number, not x/0.  A
    complex pencil's reduced problem can only give parallel, nonzero columns."""
    monkeypatch.setattr(module, solver, lambda *pencil: (np.array([1.0, 2.0], dtype=dtype), vectors))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(SingularMatrixError, match="condition number"):
            eigenbasis(np.diag([1.0, 2.0]).astype(dtype), np.diag([1.0, 4.0]))


@pytest.mark.parametrize("problem", ["MP1", "MP2"])
def test_kronecker_solve_matches_per_member_products_at_every_width(problem):
    """KroneckerFactorization.solve takes its x-side products as one matrix
    product of all members' rows, which OpenBLAS may round by another kernel
    than reference.kronecker_solve's per-member products at some widths.  At
    every width n_x = 2..41 the two agree to 1e-14 of the largest entry, on
    real and complex stacks of 16 members, with the pencils of a 7-node y
    interval and an n_x-node x interval that both start at the line's first
    node or both at node 20.  With OpenBLAS 0.3.31 on AVX-512, MP1's real
    stacks differed in bytes at n_x = 17-19, 25-27 and 32-41, by at most
    8.3e-16 of the largest entry; MP2's complex products matched.  Byte
    equality at the table widths is
    test_schwarz.py::test_kronecker_solve_is_bit_identical_to_per_member_products."""
    prob = assemble(Grid(81, "dirichlet" if problem == "MP1" else "sommerfeld"), 20.0, problem)
    T, W = sp.csr_matrix(prob.T), sp.csr_matrix(prob.W)

    def basis(lo, width):
        return eigenbasis(T[lo:lo + width, lo:lo + width].toarray(), W[lo:lo + width, lo:lo + width].toarray())

    rng = np.random.default_rng(41)
    for lo in (0, 20):
        for width in range(2, 42):
            F = factorize_kronecker(basis(lo, 7), basis(lo, width), prob.k)
            real = rng.standard_normal((16, 7, width))
            for B in (real, real + 1j * rng.standard_normal(real.shape)):
                want = kronecker_solve(F, B)
                assert np.abs(F.solve(B) - want).max() <= 1e-14 * np.abs(want).max(), (lo, width, B.dtype)


def random_complex_pencil(size, seed):
    """A complex symmetric T and a real symmetric positive definite W."""
    rng = np.random.default_rng(seed)
    T = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    B = rng.standard_normal((size, size))
    return T + T.T, B @ B.T + size * np.eye(size)


def table1_coarse_level(k, kind):
    """The coarse level of table 1's MP2 cell at k (n = 4k + 1, H = 4h)."""
    prob = assemble(Grid(4 * k + 1, "sommerfeld"), float(k), "MP2")
    return galerkin((build_focs if kind == "FOCS" else build_hocs)(prob.grid, 4), prob)


def complex_pencils():
    """The complex pencils (T, W) the eigenbasis is held against."""
    for size in (2, 3, 5, 8, 13, 21, 30, 40):
        yield pytest.param(*random_complex_pencil(size, seed=size), id=f"random-{size}")
    for k in (20, 40, 100):
        for kind in ("FOCS", "HOCS"):
            cs = table1_coarse_level(k, kind)
            T0, W0 = _coarse_factors(cs.p, cs.problem)
            yield pytest.param(T0, W0, id=f"coarse-{kind}-k{k}")
        grid = Grid(4 * k + 1, "sommerfeld")
        _, blocks = interval_classes(extend_max(partition(grid, k)), assemble(grid, float(k), "MP2"))
        for c, (T, W) in enumerate(blocks):
            yield pytest.param(T, W, id=f"interval-k{k}-class{c}")


@pytest.mark.parametrize("T, W", complex_pencils())
def test_complex_eigenbasis_matches_generalized_eig(T, W):
    """numpy's Cholesky-reduced eigenproblem gives scipy's generalized eig's
    eigenvalues, unit eigenvectors and cond(Q) on random complex symmetric
    pencils and on table 1's coarse pencils and MP2 interval classes."""
    basis = eigenbasis(T, W)
    lam, q, cond = generalized_eigenbasis(T, W)
    assert np.abs(np.sort_complex(basis.lam) - np.sort_complex(lam)).max() <= 1e-10 * np.abs(lam).max()
    residual = T @ basis.q - W @ basis.q * basis.lam
    assert np.linalg.norm(residual, 2) <= 1e-13 * np.linalg.norm(T, 2) * np.linalg.norm(basis.q, 2)
    assert np.abs(np.linalg.norm(basis.q, axis=0) - 1.0).max() <= 1e-14
    sv = np.linalg.svd(basis.q, compute_uv=False)
    assert sv[0] / sv[-1] == pytest.approx(cond, rel=1e-6)


@pytest.mark.parametrize("k", [20, 40, 100])
@pytest.mark.parametrize("kind", ["FOCS", "HOCS"])
def test_coarse_solve_is_backward_stable(k, kind):
    """The coarse KroneckerFactorization.solve of table 1's MP2 cells has a
    normwise backward error of at most 1e-14 against the assembled A_0."""
    cs = table1_coarse_level(k, kind)
    A0 = cs.a0
    m = cs.p.shape[0]
    rng = np.random.default_rng(k)
    B = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    x, b = cs.factorization.solve(B).ravel(), B.ravel()
    a_norm = abs(A0).sum(axis=1).max()
    eta = np.abs(A0 @ x - b).max() / (a_norm * np.abs(x).max() + np.abs(b).max())
    assert eta <= 1e-14


@pytest.mark.parametrize("name", ["MP1-coarse", "MP1-interval", "random"])
def test_real_eigenbasis_is_scipy_eigh_byte_for_byte(name):
    """A real pencil keeps scipy.linalg.eigh's eigenpairs unchanged."""
    if name == "random":
        T, W = (P.real for P in random_complex_pencil(17, seed=7))
    else:
        grid = Grid(161, "dirichlet")
        prob = assemble(grid, 40.0, "MP1")
        if name == "MP1-coarse":
            T, W = _coarse_factors(build_hocs(grid, 4).p, prob)
        else:
            (T, W), *_ = interval_classes(extend_max(partition(grid, 40)), prob)[1]
    basis = eigenbasis(T, W)
    lam, q = scipy.linalg.eigh(T, W)
    assert basis.lam.tobytes() == lam.tobytes() and basis.q.tobytes() == q.tobytes()


def test_mp2_run_calls_no_scipy_eigensolver(monkeypatch):
    """An MP2 sweep reaches none of scipy's eigensolvers or svdvals, so
    numpy's BLAS pool is the only one a complex cell wakes."""

    def refuse(*args, **kwargs):
        raise AssertionError("an MP2 cell called scipy LAPACK")

    for name in ("eig", "eigh", "svdvals"):
        monkeypatch.setattr(scipy.linalg, name, refuse)  # the module helmdd.linalg calls through
    cfg = ExperimentConfig(
        problem="MP2", k_list=(10,), n_list=(41,), coarse_kinds=("FOCS", "HOCS"),
        preconditioners=("AS2", "SAS2", "SHS2"), gmres=GmresConfig(side="left"),
    )
    (row,) = run_experiment(cfg)
    assert all(isinstance(count, int) for count in row.iterations.values())


def test_mp1_run_calls_scipy_eigh_only(monkeypatch):
    """An MP1 sweep reaches scipy only through eigh: its eig and svdvals are
    never called, since cond(Q) comes from numpy for both kinds of pencil."""

    def refuse(*args, **kwargs):
        raise AssertionError("an MP1 cell called scipy LAPACK other than eigh")

    calls = []

    def counted_eigh(*args, eigh=scipy.linalg.eigh, **kwargs):
        calls.append(args)
        return eigh(*args, **kwargs)

    for name in ("eig", "svdvals"):
        monkeypatch.setattr(scipy.linalg, name, refuse)
    monkeypatch.setattr(scipy.linalg, "eigh", counted_eigh)
    cfg = ExperimentConfig(
        problem="MP1", k_list=(10,), n_list=(41,), coarse_kinds=("FOCS", "HOCS"),
        preconditioners=("AS2", "SAS2", "SHS2"), gmres=GmresConfig(side="left"),
    )
    (row,) = run_experiment(cfg)
    assert all(isinstance(count, int) for count in row.iterations.values())
    assert calls  # the coarse and interval pencils


def test_eigenbases_computes_each_distinct_pencil_once(monkeypatch):
    """Eigenbases returns the eigenbasis it computed for a byte-equal pencil,
    whatever array holds it, and computes one for any pencil differing in a
    byte or in dtype."""
    calls = []

    def counted_eigenbasis(T, W):
        calls.append((T.dtype, W.dtype))
        return eigenbasis(T, W)

    monkeypatch.setattr(linalg, "eigenbasis", counted_eigenbasis)
    T, W = (P.real for P in random_complex_pencil(9, seed=3))
    bases = Eigenbases()
    basis = bases(T, W)
    assert bases(T.copy(), W.copy()) is basis and len(calls) == 1
    assert bases(T.astype(complex), W) is not basis
    shifted = T.copy()
    shifted[0, 0] = np.nextafter(shifted[0, 0], np.inf)
    assert bases(shifted, W) is not basis
    assert bases(T, 2 * W) is not basis
    assert len(calls) == 4 and bases(T, W) is basis
