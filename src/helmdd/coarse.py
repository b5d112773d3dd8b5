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
A CoarseSpace stores only the grid and this 1D operator P.  Stencil taps
falling outside the line are dropped (zero padding).  On Dirichlet grids the
unknown set at every level consists of the interior nodes, so coarse basis
functions attached to boundary coarse nodes are excluded, mirroring the
fine-grid convention.

galerkin forms the coarse level of a space for a HelmholtzProblem.  The
problem's A = T(x)W + W(x)T - k^2 W(x)W (discretization.assemble) and
R_0 = P(x)P make A_0 = R_0 A R_0^T the same Kronecker sum of T_0 = P T P^T
and W_0 = P W P^T, solved by fast diagonalization (linalg.factorize_kronecker
with the one eigenbasis of (T_0, W_0) in both dimensions), which galerkin
takes from its eigensolver: linalg.eigenbasis, or the one linalg.Eigenbases
of a sweep layout's schwarz.LocalLayout, computing it once per distinct
pencil (on MP1, once for every k of a space).  T and W are CSR.  The
CoarseLevel it returns holds P, that factorization and the problem, none of
them optional, and is no dataclass: dataclasses.replace cannot pair a new P
with the old factorization.  A space changed with replace is a new space,
and a new call to galerkin factors it.  The level forms the sparse A_0 from
the problem on access, for inspection; no solve reads it.  coarse_correct
applies R_0 and R_0^T as P X P^T and P^T Y P on the grid vector reshaped to
a square, so R_0 is never formed.

The preconditioners built on top are invariant under any invertible
rescaling of R_0 or P (it cancels in R_0^T (R_0 A R_0^T)^{-1} R_0), so the
stencil normalization is immaterial.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import linalg
from .discretization import Grid, HelmholtzProblem, kronecker_sum

COARSE_KINDS = ("FOCS", "HOCS")

# one-level 1D Bezier restriction stencil, centered at every second fine node
_BEZIER_TAPS = np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 8.0


@dataclass(frozen=True)
class CoarseSpace:
    """The fine grid and the 1D restriction P of a coarse space, R_0 = P(x)P."""

    grid: Grid
    p: sp.csr_matrix


class CoarseLevel:
    """The factored coarse level of one problem, made by galerkin: the 1D
    restriction p, the KroneckerFactorization of A_0 = R_0 A R_0^T and the
    problem it was factored for."""

    def __init__(self, p: sp.csr_matrix, factorization: linalg.KroneckerFactorization, problem: HelmholtzProblem):
        self.p = p
        self.factorization = factorization
        self.problem = problem

    @property
    def a0(self) -> sp.csr_matrix:
        """A_0, the Kronecker sum of (T_0, W_0, k), formed anew on every access."""
        return kronecker_sum(*_coarse_factors(self.p, self.problem), self.problem.k)


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


def _coarse_factors(p: sp.csr_matrix, problem: HelmholtzProblem) -> tuple:
    """The dense 1D coarse factors (T_0, W_0) = (P T P^T, P W P^T) of problem, symmetrized."""
    T0, W0 = ((p @ F @ p.T).toarray() for F in (problem.T, problem.W))
    return (T0 + T0.T) * 0.5, (W0 + W0.T) * 0.5


def galerkin(space: CoarseSpace, problem: HelmholtzProblem, eigenbasis=linalg.eigenbasis) -> CoarseLevel:
    """The coarse level of space for problem: A_0 = R_0 A R_0^T factored in
    the Kronecker eigenbasis that eigenbasis(T_0, W_0) returns, computed anew
    by linalg.eigenbasis or kept for byte-equal pencils by a linalg.Eigenbases."""
    if not isinstance(problem, HelmholtzProblem):
        raise TypeError(f"galerkin takes a HelmholtzProblem, got {type(problem).__name__}")
    if problem.grid != space.grid:
        raise ValueError(f"coarse space is built on {space.grid}, problem on {problem.grid}")
    basis = eigenbasis(*_coarse_factors(space.p, problem))
    return CoarseLevel(space.p, linalg.factorize_kronecker(basis, basis, problem.k), problem)


def coarse_correct(level: CoarseLevel, r: np.ndarray) -> np.ndarray:
    """Apply the coarse-level correction R_0^T A_0^{-1} R_0 to a fine vector."""
    p, m = level.p, level.p.shape[1]
    # on row-major grid arrays R_0 x is P X P^T and R_0^T y is P^T Y P
    Y = level.factorization.solve((p @ (p @ r.reshape(m, m)).T).T)
    return (p.T @ (p.T @ Y).T).T.ravel()
