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
R_0 is the tensor product P(x)P of the 1D operator P with itself.  Stencil
taps falling outside the line are dropped (zero padding).  On Dirichlet
grids the unknown set at every level consists of the interior nodes, so
coarse basis functions attached to boundary coarse nodes are excluded,
mirroring the fine-grid convention.

The coarse matrix A_0 = R_0 A R_0^T is built sparsely and factorized once;
coarse_correct applies R_0^T A_0^{-1} R_0.  Note the preconditioners built
on top are invariant under any invertible rescaling of R_0 (it cancels in
R_0^T (R_0 A R_0^T)^{-1} R_0), so the stencil normalization is immaterial.
galerkin stores R_0 in the scalar type of A, so the applies multiply it
with vectors of that type without converting it each time.

A_0 is a stencil matrix on the row-major grid of coarse unknowns
(coarse_nodes_per_dim - 2 per side under Dirichlet, coarse_nodes_per_dim
under Sommerfeld).  Its radius r is the largest |dx| or |dy| between two
coupled unknowns, read off A_0's sparsity pattern: 1 for FOCS (9 points),
3 for HOCS at ratio 4 (about 47 nonzeros per row).  For r >= 2 the LU
follows a geometric nested-dissection order (A. George, "Nested dissection
of a regular finite element mesh", SIAM J. Numer. Anal. 10, 1973): split
the grid across its longer side by a separator w = r + 1 unknowns wide,
which leaves no coupling between the two halves, order the halves
recursively and number the separator after them; boxes no wider than
2w + 1 are numbered row by row.  FOCS (r = 1) keeps SuperLU's COLAMD
ordering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from . import linalg
from .discretization import Grid

COARSE_KINDS = ("FOCS", "HOCS")

# one-level 1D Bezier restriction stencil, centered at every second fine node
_BEZIER_TAPS = np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 8.0

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


def _tensor_square(P1: sp.csr_matrix) -> sp.csr_matrix:
    R0 = sp.kron(P1, P1, format="csr")
    R0.sort_indices()
    return R0


def build_focs(grid: Grid, ratio: int) -> CoarseSpace:
    """Linear (bilinear hat) coarse space with H = ratio * h."""
    _check_ratio(grid, ratio, powers_of_two=False)
    taps = 1.0 - np.abs(np.arange(1 - ratio, ratio)) / ratio
    P = _restriction_1d(grid, taps, ratio, 1)
    return CoarseSpace(kind="FOCS", grid=grid, ratio=ratio, r0=_tensor_square(P))


def build_hocs(grid: Grid, ratio: int) -> CoarseSpace:
    """Higher-order Bezier coarse space with H = ratio * h (ratio in 2,4,8,16)."""
    _check_ratio(grid, ratio, powers_of_two=True)
    P = _restriction_1d(grid, _BEZIER_TAPS, 2, int(np.log2(ratio)))
    return CoarseSpace(kind="HOCS", grid=grid, ratio=ratio, r0=_tensor_square(P))


def _bisect(box, w: int):
    """Split box = (x0, x1, y0, y1) across its longer side into two halves and
    the w-wide separator between them: (first, second, separator), or None
    when the box is no wider than 2w + 1."""
    x0, x1, y0, y1 = box
    if max(x1 - x0, y1 - y0) <= 2 * w + 1:
        return None
    if x1 - x0 >= y1 - y0:
        s = x0 + (x1 - x0 - w) // 2
        return (x0, s, y0, y1), (s + w, x1, y0, y1), (s, s + w, y0, y1)
    s = y0 + (y1 - y0 - w) // 2
    return (x0, x1, y0, s), (x0, x1, s + w, y1), (x0, x1, s, s + w)


def _nested_dissection(m: int, w: int) -> np.ndarray:
    """Nested-dissection order of an m-by-m row-major grid with w-wide
    separators, which decouple the halves of any stencil of radius <= w."""
    parts = []

    def row_by_row(box):
        x0, x1, y0, y1 = box
        parts.append((np.arange(y0, y1)[:, None] * m + np.arange(x0, x1)).ravel())

    def number(box):
        split = _bisect(box, w)
        if split is None:
            row_by_row(box)
            return
        first, second, separator = split
        number(first)
        number(second)
        row_by_row(separator)

    number((0, m, 0, m))
    return np.concatenate(parts)


def _stencil_radius(a0: sp.csr_matrix, m: int) -> int:
    """Largest |dx| or |dy| between coupled unknowns of an m-by-m grid matrix."""
    coo = a0.tocoo()
    dx = np.abs(coo.row % m - coo.col % m)
    dy = np.abs(coo.row // m - coo.col // m)
    return int(max(dx.max(initial=0), dy.max(initial=0)))


def galerkin(cs: CoarseSpace, A: sp.csr_matrix) -> CoarseSpace:
    """Attach R_0 cast to A's scalar type and the factorized Galerkin matrix
    A_0 = R_0 A R_0^T, in nested-dissection order when its stencil radius
    is 2 or more."""
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
    side = math.isqrt(r0.shape[0])
    radius = _stencil_radius(a0, side)
    # Separators one wider than the radius: under partial pivoting a
    # separator row pivoted into a half's elimination brings its couplings
    # along.  Measured on the HOCS matrices for k = 20..120, r + 1 kept the
    # fill at 0.76-0.98x COLAMD's, where r gave up to 1.8x.
    order = _nested_dissection(side, radius + 1) if radius >= 2 else None
    return replace(cs, r0=r0, a0=a0, a0_factorization=linalg.factorize(a0, order))


def coarse_correct(cs: CoarseSpace, r: np.ndarray) -> np.ndarray:
    """Apply the coarse-level correction R_0^T A_0^{-1} R_0 to a fine vector."""
    if cs.a0_factorization is None:
        raise ValueError("coarse matrix not factorized; call galerkin() first")
    return cs.r0.T @ linalg.solve(cs.a0_factorization, cs.r0 @ r)
