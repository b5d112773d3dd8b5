"""Direct solvers: the eigenbasis of a Kronecker sum, and sparse LU.

A Kronecker sum A = T_y(x)W_x + W_y(x)T_x - k^2 W_y(x)W_x of two small
symmetric 1D pencils (T_y, W_y) and (T_x, W_x) is solved by fast
diagonalization (Lynch, Rice & Thomas, Numer. Math. 6, 1964): with
T Q = W Q Lambda and V = (W Q)^{-1} for each pencil,
A^{-1} = (Q_y(x)Q_x) D^{-1} (V_y(x)V_x), D_ij = lambda_i + mu_j - k^2.
The coarse problem is the case of two equal pencils, a local block the case
of the pencils of its box's two 1D intervals; schwarz.LocalSolves keeps a
small block as that product, formed densely.

The eigenpairs of a real pencil (MP1: W = I) come from scipy's eigh, a
cell's one scipy call; those of a complex one (MP2: T complex symmetric, W
real positive definite) from numpy's LAPACK, as the standard eigenproblem of
C = L^{-1} T L^{-T} with W = L L^T, Q = L^{-T} Z for C's eigenvectors Z;
cond(Q) of both from numpy's singular values.  numpy's BLAS runs every
other product of a cell, GMRES included, and each package ships its own
OpenBLAS thread pool: scipy's workers keep spinning for about 100 ms after
a threaded call, and numpy BLAS work started in that window ran about 2x
slower (CHANGES.md, the MENDED on the two pools).  An MP2 cell therefore
wakes no scipy pool.  MP1 keeps scipy's eigh: numpy's eig of its pencils
moved 12 stagnating counts of tables 2-4, numpy's eigh 8 (ROADMAP).

The solve multiplies by Q and V, so its normwise backward error grows with
cond(Q_y) cond(Q_x), where LU with partial pivoting's does not.  MP1 has
W = I and cond(Q) = 1; MP2's cond(Q) grows as kappa_h = kh nears 1, past
the 0.25 at which harness.validate_config warns (measured in CHANGES.md,
the FOUND on KroneckerFactorization.solve's backward stability).

factorize and solve are sparse LU (SuperLU: LU with partial pivoting on
SuperLU's COLAMD column ordering) for scipy CSR/CSC matrices over float64
or complex128, which handles the indefinite symmetric systems of the
discretization, where a Cholesky factorization would fail.  They are the
tests' reference for the eigenbasis solves; no solver path calls them, so
factorize imports SuperLU on use and helmdd loads no scipy.sparse.linalg.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

# Pivots below this fraction of the largest matrix entry, and eigenvalue sums
# D_ij below it times max |D|, are treated as singular (a resonant problem).
PIVOT_RTOL = 1e-14

# Largest accepted 2-norm cond(Q); the solve loses about 2 log10(cond(Q)) digits.
# Tables 1-4 stay far below it (CHANGES.md, "Coarse solve in the Kronecker eigenbasis").
EIGENVECTOR_COND_LIMIT = 1e8


class SingularMatrixError(ValueError):
    """Factorization hit an (almost) exactly zero pivot."""


@dataclass
class SparseFactorization:
    """LU factors of a square sparse matrix, ready for repeated solves."""

    lu: scipy.sparse.linalg.SuperLU
    n: int
    dtype: np.dtype

    @property
    def fill_nnz(self) -> int:
        return self.lu.L.nnz + self.lu.U.nnz


def factorize(A) -> SparseFactorization:
    """LU-factorize a square sparse matrix in SuperLU's COLAMD order.

    Raises SingularMatrixError when a pivot falls below PIVOT_RTOL times
    the largest entry of A; near-singular blocks are surfaced rather than
    silently perturbed, since a perturbed solve would corrupt iteration
    counts.
    """
    from scipy.sparse.linalg import splu

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

    A real pencil is solved by scipy.linalg.eigh.  A complex T is solved by
    numpy alone (see the module docstring): with the Cholesky factor L of W,
    np.linalg.eig of L^{-1} T L^{-T} gives Lambda and Z, and Q = L^{-T} Z
    has each column scaled to unit 2-norm, as scipy.linalg.eig(T, W) returns
    them, which keeps cond(Q) at that routine's values.  cond(Q) is taken
    from numpy's singular values of Q for both kinds; a value above
    EIGENVECTOR_COND_LIMIT raises SingularMatrixError.
    """
    if np.iscomplexobj(T):
        l_inv = np.linalg.inv(np.linalg.cholesky(W))
        lam, z = np.linalg.eig(l_inv @ T @ l_inv.T)
        q = l_inv.T @ z
        q /= np.linalg.norm(q, axis=0)
    else:
        lam, q = scipy.linalg.eigh(T, W)
    sv = np.linalg.svd(q, compute_uv=False)
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

    def solve(
        self, B: np.ndarray, out: np.ndarray | None = None, work: np.ndarray | None = None
    ) -> np.ndarray:
        """Solve A vec(X) = vec(B) for an n_y-by-n_x grid array B (row-major
        vec), or for every array of a stack B of shape (members, n_y, n_x).

        X is Q_y ((V_y B V_x^T) / D) Q_x^T, evaluated left to right.  The
        products with V_y and Q_y are taken member by member, those with
        V_x^T and Q_x^T as one matrix product of all members' n_y rows.
        That changes no operation, but OpenBLAS may round a row by another
        kernel by its place in the product, so some real stack widths come
        out a few rounding errors away from per-member products (CHANGES.md,
        the MENDED on the one-GEMM x side lists them); the widths of tables
        1-4 give the same bits.

        X is written to out, which is returned; work receives the products in
        between.  Both are C-contiguous arrays of B's shape and of X's dtype,
        each allocated when not given: a caller that passes both allocates
        nothing of B's size.
        """
        y, x = self.y, self.x
        if out is None:
            out = np.empty(B.shape, np.result_type(B, y.v, x.v, self.d, y.q, x.q))
        if work is None:
            work = np.empty_like(out)
        rows = (-1, B.shape[-1])
        np.matmul(y.v, B, out=work)
        np.matmul(work.reshape(rows, copy=False), x.v.T, out=out.reshape(rows, copy=False))
        np.divide(out, self.d, out=out)
        np.matmul(y.q, out, out=work)
        np.matmul(work.reshape(rows, copy=False), x.q.T, out=out.reshape(rows, copy=False))
        return out


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
