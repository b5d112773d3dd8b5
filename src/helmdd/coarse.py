"""Coarse restriction operators and the Galerkin coarse problem.

Two coarse spaces on the coarse grid with spacing H = ratio * h:

* FOCS: rows of R_0 are bilinear hat functions centered at the coarse
  nodes, sampled at the fine nodes (1D weights 1/r, 2/r, ..., 1, ..., 1/r,
  tensorized).  Its transpose reproduces bilinear interpolation exactly.
* HOCS: rows come from the second-order rational Bezier restriction whose
  one-level 1D stencil is (1, 4, 6, 4, 1)/8 centered at every second fine
  node.  Ratios 4, 8, 16 are realized by composing the one-level stencil
  through the intermediate grids.

Both come from one 1D builder that centers a tap vector at every step-th
node of a line and composes levels: FOCS passes the hat taps 1 - |d|/r at
step r for one level, HOCS the Bezier taps at step 2 for log2(r) levels.
A CoarseSpace stores only this 1D operator P; R_0 = P(x)P is derived from
it on demand.  Stencil taps falling outside the line are dropped (zero
padding).  On Dirichlet grids the unknown set at every level consists of
the interior nodes, so coarse basis functions attached to boundary coarse
nodes are excluded, mirroring the fine-grid convention.

galerkin picks the coarse solve from the type of its second argument.  For
a HelmholtzProblem, A = T(x)W + W(x)T - k^2 W(x)W (discretization.assemble)
and R_0 = P(x)P make A_0 the same Kronecker sum of T_0 = P T P^T and
W_0 = P W P^T, solved by fast diagonalization (linalg.factorize_kronecker
with the one eigenbasis of (T_0, W_0) in both dimensions).
The sparse A_0 is assembled from (T_0, W_0) for inspection only.  For a
bare matrix A, R_0 and A_0 = R_0 A R_0^T are formed sparsely, A_0 checked
for symmetry and LU-factorized; this is the reference the structured path
is tested against.  For either solve coarse_correct applies R_0 and R_0^T
as P X P^T and P^T Y P on the grid vector reshaped to a square.

The preconditioners built on top are invariant under any invertible
rescaling of R_0 or P (it cancels in R_0^T (R_0 A R_0^T)^{-1} R_0), so the
stencil normalization is immaterial.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from . import linalg
from .discretization import Grid, HelmholtzProblem, kronecker_sum

COARSE_KINDS = ("FOCS", "HOCS")

# one-level 1D Bezier restriction stencil, centered at every second fine node
_BEZIER_TAPS = np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 8.0

# Guard for the symmetrization of the computed Galerkin product; genuine
# asymmetry beyond rounding noise indicates a broken R_0 or A.
_SYMMETRY_GUARD = 1e-12


@dataclass(frozen=True)
class CoarseSpace:
    """The fine grid, the 1D restriction P (R_0 = P(x)P) and, after galerkin,
    A_0 with its factorization."""

    grid: Grid
    p: sp.csr_matrix
    a0: sp.csr_matrix | None = None
    a0_factorization: linalg.SparseFactorization | linalg.KroneckerFactorization | None = None

    @property
    def r0(self) -> sp.csr_matrix:
        """The 2D restriction R_0 = P(x)P, formed anew on every access."""
        r0 = sp.kron(self.p, self.p, format="csr")
        r0.sort_indices()
        return r0


def _check_ratio(grid: Grid, ratio: int, powers_of_two: bool):
    if ratio < 1 or (grid.n - 1) % ratio != 0:
        raise ValueError(f"coarsening ratio {ratio} does not divide {grid.n - 1} cells")
    if powers_of_two and ratio & (ratio - 1):
        raise ValueError(f"Bezier coarse space needs a power-of-two ratio, got {ratio}")


def _restriction_1d(grid: Grid, taps: np.ndarray, step: int, levels: int) -> sp.csr_matrix:
    """1D restriction composed over levels: each level centers the odd-length
    taps at every step-th node of its line, drops the taps that fall off the
    line and, under Dirichlet, keeps only the interior rows and columns."""
    radius = len(taps) // 2
    op = sp.identity(grid.unknowns_per_dim, format="csr")
    nf = grid.n
    for _ in range(levels):
        M = (nf - 1) // step + 1
        rows = np.repeat(np.arange(M), len(taps))
        cols = step * rows + np.tile(np.arange(-radius, radius + 1), M)
        on = (cols >= 0) & (cols < nf)
        S = sp.csr_matrix((np.tile(taps, M)[on], (rows[on], cols[on])), shape=(M, nf))
        if grid.bc == "dirichlet":
            S = S[1:-1, 1:-1]
        op = S @ op
        nf = M
    return op


def build_focs(grid: Grid, ratio: int) -> CoarseSpace:
    """Linear (bilinear hat) coarse space with H = ratio * h."""
    _check_ratio(grid, ratio, powers_of_two=False)
    taps = 1.0 - np.abs(np.arange(1 - ratio, ratio)) / ratio
    return CoarseSpace(grid=grid, p=_restriction_1d(grid, taps, ratio, 1))


def build_hocs(grid: Grid, ratio: int) -> CoarseSpace:
    """Higher-order Bezier coarse space with H = ratio * h (ratio in 2,4,8,16)."""
    _check_ratio(grid, ratio, powers_of_two=True)
    return CoarseSpace(grid=grid, p=_restriction_1d(grid, _BEZIER_TAPS, 2, int(np.log2(ratio))))


def galerkin(cs: CoarseSpace, A: HelmholtzProblem | sp.csr_matrix) -> CoarseSpace:
    """Attach A_0 = R_0 A R_0^T and its factorization: the Kronecker eigenbasis
    for a HelmholtzProblem, the sparse LU of the explicit product for a matrix."""
    if isinstance(A, HelmholtzProblem):
        if A.grid != cs.grid:
            raise ValueError(f"coarse space is built on {cs.grid}, problem on {A.grid}")
        T0, W0 = ((cs.p @ F @ cs.p.T).toarray() for F in (A.T, A.W))
        T0, W0 = (T0 + T0.T) * 0.5, (W0 + W0.T) * 0.5
        a0 = kronecker_sum(T0, W0, A.k)
        basis = linalg.eigenbasis(T0, W0)
        return replace(cs, a0=a0, a0_factorization=linalg.factorize_kronecker(basis, basis, A.k))
    r0 = cs.r0
    if r0.shape[1] != A.shape[0]:
        raise ValueError(
            f"coarse operator expects {r0.shape[1]} fine unknowns, matrix has {A.shape[0]}"
        )
    B = sp.csr_matrix(r0 @ A @ r0.T)
    skew = abs(B - B.T)
    if skew.nnz and skew.max() > _SYMMETRY_GUARD * max(abs(B).max(), 1e-300):
        raise ValueError("Galerkin product lost symmetry; A is not symmetric")
    a0 = ((B + B.T) * 0.5).tocsr()
    a0.sort_indices()
    return replace(cs, a0=a0, a0_factorization=linalg.factorize(a0))


def coarse_correct(cs: CoarseSpace, r: np.ndarray) -> np.ndarray:
    """Apply the coarse-level correction R_0^T A_0^{-1} R_0 to a fine vector."""
    if cs.a0_factorization is None:
        raise ValueError("coarse matrix not factorized; call galerkin() first")
    p, m = cs.p, cs.p.shape[1]
    # on row-major grid arrays R_0 x is P X P^T and R_0^T y is P^T Y P
    B = (p @ (p @ r.reshape(m, m)).T).T
    if isinstance(cs.a0_factorization, linalg.SparseFactorization):
        Y = linalg.solve(cs.a0_factorization, B.ravel()).reshape(B.shape)
    else:
        Y = cs.a0_factorization.solve(B)
    return (p.T @ (p.T @ Y).T).T.ravel()
