"""Coarse restriction operators and the Galerkin coarse problem.

Two coarse spaces on the coarse grid with spacing H = ratio * h:

* FOCS: rows of R_0 are bilinear hat functions centered at the coarse
  nodes, sampled at the fine nodes (1D weights 1/r, 2/r, ..., 1, ..., 1/r,
  tensorized).  Its transpose reproduces bilinear interpolation exactly.
* HOCS: rows come from the second-order rational Bezier restriction whose
  one-level 1D stencil is (1, 4, 6, 4, 1)/8 centered at every second fine
  node.  Ratios 4, 8, 16 are realized by composing the one-level stencil
  through the intermediate grids; the 2D operator is the tensor product of
  the 1D operator with itself.

Stencil taps falling outside the unknown set are dropped (zero padding).
On Dirichlet grids the unknown set at every level consists of the interior
nodes, so coarse basis functions attached to boundary coarse nodes are
excluded, mirroring the fine-grid convention.

The coarse matrix A_0 = R_0 A R_0^T is built sparsely and factorized once;
coarse_correct applies R_0^T A_0^{-1} R_0.  Note the preconditioners built
on top are invariant under any invertible rescaling of R_0 (it cancels in
R_0^T (R_0 A R_0^T)^{-1} R_0), so the stencil normalization is immaterial.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from . import linalg
from .discretization import Grid

COARSE_KINDS = ("FOCS", "HOCS")

# Guard for the symmetrization of the computed Galerkin product; genuine
# asymmetry beyond rounding noise indicates a broken R_0 or A.
_SYMMETRY_GUARD = 1e-12


@dataclass(frozen=True)
class CoarseSpace:
    """Coarse restriction R_0 plus (after galerkin) the factorized A_0."""

    kind: str
    grid: Grid
    ratio: int
    r0: sp.csr_matrix
    a0: sp.csr_matrix | None = None
    a0_factorization: linalg.SparseFactorization | None = None

    @property
    def coarse_nodes_per_dim(self) -> int:
        return (self.grid.n - 1) // self.ratio + 1

    @property
    def coarse_size(self) -> int:
        """All-node count of the coarse grid (the |G_H| bookkeeping figure)."""
        return self.coarse_nodes_per_dim**2

    @property
    def num_coarse_unknowns(self) -> int:
        return self.r0.shape[0]

    @property
    def a0_nnz(self) -> int:
        if self.a0 is None:
            raise ValueError("coarse matrix not built; call galerkin() first")
        return self.a0.nnz


def _check_ratio(grid: Grid, ratio: int, powers_of_two: bool):
    if ratio < 1 or (grid.n - 1) % ratio != 0:
        raise ValueError(f"coarsening ratio {ratio} does not divide {grid.n - 1} cells")
    if powers_of_two and ratio & (ratio - 1):
        raise ValueError(f"Bezier coarse space needs a power-of-two ratio, got {ratio}")


def _hat_1d(grid: Grid, ratio: int) -> sp.csr_matrix:
    """1D hat-function sampling matrix (coarse nodes x fine unknowns)."""
    n, r = grid.n, ratio
    M = (n - 1) // r + 1
    rows, cols, vals = [], [], []
    for J in range(M):
        for d in range(-r + 1, r):
            i = r * J + d
            if 0 <= i < n:
                rows.append(J)
                cols.append(i)
                vals.append(1.0 - abs(d) / r)
    P = sp.csr_matrix((vals, (rows, cols)), shape=(M, n))
    if grid.bc == "dirichlet":
        P = P[1:-1, 1:-1]
    return P


def _bezier_1d(grid: Grid, ratio: int) -> sp.csr_matrix:
    """1D Bezier restriction, one-level stencils composed across levels."""
    weights = np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 8.0
    dirichlet = grid.bc == "dirichlet"
    op = None
    nf = grid.n
    for _ in range(int(round(np.log2(ratio)))):
        M = (nf + 1) // 2
        rows, cols, vals = [], [], []
        if dirichlet:
            # unknowns are the interior nodes of each level's grid
            for I in range(1, M - 1):
                for d in range(-2, 3):
                    i = 2 * I + d
                    if 1 <= i <= nf - 2:
                        rows.append(I - 1)
                        cols.append(i - 1)
                        vals.append(weights[d + 2])
            S = sp.csr_matrix((vals, (rows, cols)), shape=(M - 2, nf - 2))
        else:
            for I in range(M):
                for d in range(-2, 3):
                    i = 2 * I + d
                    if 0 <= i < nf:
                        rows.append(I)
                        cols.append(i)
                        vals.append(weights[d + 2])
            S = sp.csr_matrix((vals, (rows, cols)), shape=(M, nf))
        op = S if op is None else S @ op
        nf = M
    op.sum_duplicates()
    return op


def _tensor_square(P1: sp.csr_matrix) -> sp.csr_matrix:
    R0 = sp.kron(P1, P1, format="csr")
    R0.sort_indices()
    return R0


def build_focs(grid: Grid, ratio: int) -> CoarseSpace:
    """Linear (bilinear hat) coarse space with H = ratio * h."""
    _check_ratio(grid, ratio, powers_of_two=False)
    return CoarseSpace(kind="FOCS", grid=grid, ratio=ratio, r0=_tensor_square(_hat_1d(grid, ratio)))


def build_hocs(grid: Grid, ratio: int) -> CoarseSpace:
    """Higher-order Bezier coarse space with H = ratio * h (ratio in 2,4,8,16)."""
    _check_ratio(grid, ratio, powers_of_two=True)
    return CoarseSpace(kind="HOCS", grid=grid, ratio=ratio, r0=_tensor_square(_bezier_1d(grid, ratio)))


def galerkin(cs: CoarseSpace, A: sp.csr_matrix) -> CoarseSpace:
    """Attach the factorized Galerkin matrix A_0 = R_0 A R_0^T."""
    if cs.r0.shape[1] != A.shape[0]:
        raise ValueError(
            f"coarse operator expects {cs.r0.shape[1]} fine unknowns, matrix has {A.shape[0]}"
        )
    r0 = cs.r0.astype(A.dtype)
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
    return cs.r0.T @ linalg.solve(cs.a0_factorization, cs.r0 @ r)
