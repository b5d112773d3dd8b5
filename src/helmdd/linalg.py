"""Direct solvers: sparse LU and the eigenbasis of a Kronecker sum.

Matrices are scipy CSR/CSC matrices over float64 or complex128; the same
code path serves both scalar kinds. Factorization is SuperLU (LU with
partial pivoting on SuperLU's COLAMD column ordering), which handles the
indefinite symmetric systems produced by the discretization, where a
Cholesky factorization would fail.

A Kronecker sum A = T_y(x)W_x + W_y(x)T_x - k^2 W_y(x)W_x of two small
symmetric 1D pencils (T_y, W_y) and (T_x, W_x) is solved by fast
diagonalization (Lynch, Rice & Thomas, Numer. Math. 6, 1964): with
T Q = W Q Lambda and V = (W Q)^{-1} for each pencil,
A^{-1} = (Q_y(x)Q_x) D^{-1} (V_y(x)V_x), D_ij = lambda_i + mu_j - k^2.
The coarse problem is the case of two equal pencils, a large local block
the case of the pencils of its box's two 1D intervals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import SuperLU, splu

# Pivots below this fraction of the largest matrix entry, and eigenvalue sums
# D_ij below it times max |D|, are treated as singular (a resonant problem).
PIVOT_RTOL = 1e-14

# Largest accepted 2-norm cond(Q); the solve loses about 2 log10(cond(Q)) digits.
# The 207 coarse problems of tables 1-4 (k <= 200) give cond(Q) = 1.0-30.7;
# the local intervals of table 4 (MP1, W = I) give 1.0.
EIGENVECTOR_COND_LIMIT = 1e8


class SingularMatrixError(ValueError):
    """Factorization hit an (almost) exactly zero pivot."""


@dataclass
class SparseFactorization:
    """LU factors of a square sparse matrix, ready for repeated solves."""

    lu: SuperLU
    n: int
    dtype: np.dtype

    @property
    def fill_nnz(self) -> int:
        return self.lu.L.nnz + self.lu.U.nnz


def factorize(A) -> SparseFactorization:
    """LU-factorize a square sparse matrix in SuperLU's COLAMD order.

    Raises SingularMatrixError when a pivot falls below PIVOT_RTOL times
    the largest entry of A; near-singular coarse matrices are surfaced
    rather than silently perturbed, since a perturbed solve would corrupt
    iteration counts.
    """
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"matrix must be square, got {A.shape}")
    A = sp.csc_matrix(A)
    scale = np.abs(A.data).max() if A.nnz else 0.0
    if scale == 0.0:
        raise SingularMatrixError("matrix has no nonzero entries")
    try:
        lu = splu(A)
    except RuntimeError as exc:  # SuperLU reports exact singularity this way
        raise SingularMatrixError(str(exc)) from exc
    pivots = np.abs(lu.U.diagonal())
    if pivots.min() < PIVOT_RTOL * scale:
        raise SingularMatrixError(
            f"near-zero pivot {pivots.min():.3e} (matrix scale {scale:.3e})"
        )
    return SparseFactorization(lu=lu, n=A.shape[0], dtype=A.dtype)


def solve(F: SparseFactorization, b: np.ndarray) -> np.ndarray:
    """Solve A x = b using a previously computed factorization; a complex b
    on real factors is solved as its real and imaginary parts."""
    b = np.asarray(b)
    if b.shape[0] != F.n:
        raise ValueError(f"dimension mismatch: factorization is {F.n}, vector has length {b.shape[0]}")
    if np.iscomplexobj(b) and F.dtype.kind != "c":
        return F.lu.solve(b.real) + 1j * F.lu.solve(b.imag)
    return F.lu.solve(b)


@dataclass(frozen=True)
class Eigenbasis:
    """Generalized eigenpairs of a 1D pencil: T Q = W Q diag(lam), V = (W Q)^{-1}."""

    lam: np.ndarray
    q: np.ndarray
    v: np.ndarray


def eigenbasis(T, W) -> Eigenbasis:
    """Eigenbasis of dense symmetric T and real positive definite W.

    Raises SingularMatrixError when cond(Q) exceeds EIGENVECTOR_COND_LIMIT.
    The guard's singular values come from scipy's LAPACK, which just solved
    the eigenproblem: numpy's own BLAS threads, started while scipy's idle
    workers still spin, took 4-8 ms for np.linalg.cond(Q) of MP2's 101 x 101
    coarse Q at k = 100 in most fresh processes but up to 91 ms in others,
    against a steady 7-9 ms for svdvals (2 cores, both OpenBLAS at 2 threads).
    That moves the stall rather than avoiding it: np.linalg.inv(W Q) below
    then takes 1-2 ms in most such processes and 65-105 ms in some.  Its
    scipy counterpart is not bit-identical on real pencils (the two packages
    ship different OpenBLAS builds), so it stays in numpy.
    """
    lam, q = (scipy.linalg.eig if np.iscomplexobj(T) else scipy.linalg.eigh)(T, W)
    sv = scipy.linalg.svdvals(q)
    with np.errstate(divide="ignore", invalid="ignore"):  # a singular Q gives inf or nan
        cond = sv[0] / sv[-1]
    if not cond <= EIGENVECTOR_COND_LIMIT:
        raise SingularMatrixError(f"eigenvector matrix has condition number {cond:.3e}")
    # not Q^T: eig's vectors of MP2's near-equal boundary-mode eigenvalues miss Q^T W Q = I
    return Eigenbasis(lam=lam, q=q, v=np.linalg.inv(W @ q))


@dataclass(frozen=True)
class KroneckerFactorization:
    """T_y(x)W_x + W_y(x)T_x - k^2 W_y(x)W_x in the eigenbases y and x of its pencils."""

    y: Eigenbasis
    x: Eigenbasis
    d: np.ndarray  # d[i, j] = y.lam[i] + x.lam[j] - k^2

    def solve(self, B: np.ndarray) -> np.ndarray:
        """Solve A vec(X) = vec(B) for an n_y-by-n_x grid array B (row-major
        vec), or for every array of a stack B of shape (members, n_y, n_x)."""
        y, x = self.y, self.x
        return y.q @ ((y.v @ B @ x.v.T) / self.d) @ x.q.T


def factorize_kronecker(y: Eigenbasis, x: Eigenbasis, k: float) -> KroneckerFactorization:
    """Diagonalize the Kronecker sum of the pencils with eigenbases y and x.

    Raises SingularMatrixError when some |D_ij| falls below PIVOT_RTOL
    times max |D| (resonant mode (i, j)).
    """
    d = y.lam[:, None] + x.lam[None, :] - k * k
    size = np.abs(d) / max(np.abs(d).max(), 1e-300)  # an all-zero D is resonant too
    i, j = np.unravel_index(np.argmin(size), d.shape)
    if size[i, j] < PIVOT_RTOL:
        raise SingularMatrixError(f"resonant mode (i, j) = ({i}, {j})")
    return KroneckerFactorization(y=y, x=x, d=d)
