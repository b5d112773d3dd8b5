"""Finite-difference discretization of the 2D Helmholtz model problems.

Two model problems on the unit square, -Lap(u) - k^2 u = delta(x-1/2, y-1/2):

* MP1: homogeneous Dirichlet boundary, real indefinite symmetric system on
  the (n-2)^2 interior nodes.
* MP2: Sommerfeld radiation boundary du/dn - i*k*u = 0, complex symmetric
  (non-Hermitian) system on all n^2 nodes.

Both use the standard second-order 5-point stencil with mesh size
h = 1/(n-1).  The Sommerfeld condition is discretized by ghost-point
elimination: a central difference for du/dn combined with the PDE at the
boundary node, which doubles the inward-neighbor coefficient and adds
-2ik/h to the diagonal.  Boundary rows are then scaled by 1/2 (corners by
1/4) so that the assembled matrix is exactly symmetric; this is a row
scaling of the equations and leaves the solution unchanged.  Either 2D
matrix is then the Kronecker sum A = T(x)W + W(x)T - k^2 W(x)W of a 1D
operator T and 1D weights W (see assemble).

The point source is represented by a load of 1/h^2 at the grid node at
(1/2, 1/2), the nodal-cell approximation of a unit Dirac mass.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

# each model problem and the boundary condition its grid carries
PROBLEMS = {"MP1": "dirichlet", "MP2": "sommerfeld"}


@dataclass(frozen=True)
class Grid:
    """Uniform n-by-n node grid on the unit square.

    bc selects which nodes carry unknowns: 'dirichlet' exposes only the
    (n-2)^2 interior nodes, 'sommerfeld' all n^2 nodes.
    """

    n: int
    bc: str

    def __post_init__(self):
        # bool is an Integral subclass, and True is no node count
        if isinstance(self.n, bool) or not (isinstance(self.n, numbers.Integral) and self.n >= 3):
            raise ValueError(f"need n >= 3 grid nodes per dimension, got {self.n}")
        if self.bc not in PROBLEMS.values():
            raise ValueError(f"unknown boundary condition {self.bc!r}")

    @property
    def h(self) -> float:
        return 1.0 / (self.n - 1)

    @property
    def num_nodes(self) -> int:
        return self.n * self.n

    @property
    def unknown_lo(self) -> int:
        """First node coordinate that is an unknown (per dimension)."""
        return 1 if self.bc == "dirichlet" else 0

    @property
    def unknowns_per_dim(self) -> int:
        return self.n - 2 if self.bc == "dirichlet" else self.n

    @property
    def num_unknowns(self) -> int:
        return self.unknowns_per_dim**2

    def unknown_index(self, ix, iy):
        """Map node coordinates (ix, iy) to the unknown index (row-major in y)."""
        lo = self.unknown_lo
        return (np.asarray(iy) - lo) * self.unknowns_per_dim + (np.asarray(ix) - lo)


@dataclass(frozen=True)
class HelmholtzProblem:
    """System matrix A = T(x)W + W(x)T - k^2 W(x)W, its 1D factors and the load f."""

    grid: Grid
    k: float
    A: sp.csr_matrix
    f: np.ndarray
    T: sp.csr_matrix
    W: sp.dia_matrix


@dataclass(frozen=True)
class RegimeReport:
    """Mesh-resolution products for a (k, h, H) combination.

    kappa_h = k*h and kappa_H = k*H measure nodes per wavelength on the
    fine and coarse grid; pollution_metric = k^3 h^2 tracks the dispersion
    error of the second-order stencil.  Flags are boundary-inclusive.
    """

    kappa_h: float
    kappa_H: float
    pollution_metric: float

    _EPS = 1e-12

    @property
    def kappa_h_ok(self) -> bool:
        return self.kappa_h <= 0.25 + self._EPS

    @property
    def kappa_H_ok(self) -> bool:
        return self.kappa_H <= 1.0 + self._EPS


def regime(k: float, h: float, H: float) -> RegimeReport:
    if not all(0 < v < np.inf for v in (k, h, H)):  # also NaN
        raise ValueError("k, h, H must all be finite and positive")
    return RegimeReport(kappa_h=k * h, kappa_H=k * H, pollution_metric=k**3 * h**2)


def kronecker_sum(T, W, k: float) -> sp.csr_matrix:
    """T(x)W + W(x)T - k^2 W(x)W of the 1D factors T and W, as sorted CSR.

    The general builder, for any sparse or dense T and W.  CoarseLevel.a0
    forms A_0 with it from the coarse factors T_0 and W_0, which are not
    tridiagonal, and the tests take it as the reference for assemble.
    """
    A = sp.csr_matrix(sp.kron(T, W) + sp.kron(W, T) - k**2 * sp.kron(W, W))
    A.sort_indices()
    return A


def assemble(grid: Grid, k: float, problem: str) -> HelmholtzProblem:
    """Assemble the system matrix and point-source load vector.

    Both problems are the Kronecker sum A = T(x)W + W(x)T - k^2 W(x)W of 1D
    factors on the m unknowns of a grid line: T is the second difference
    (-1, 2, -1)/h^2 and W = I for MP1; for MP2 the ghost-point Sommerfeld
    end rows, halved, make T's end diagonal 1/h^2 - ik/h, and W halves the
    end nodes.  This keeps assembly vectorized and makes symmetry structural.

    With T tridiagonal and W = diag(w), A has five bands, at offsets -m, -1,
    0, 1 and m.  Unknown i*m + j (grid line i, node j) has the main entry
    (t_i w_j + w_i t_j) - k^2 (w_i w_j) for t = diag(T), the +-1 entries
    w_i T[j, j+-1], none where the band crosses from one grid line to the
    next, and the +-m entries T[i, i+-1] w_j.  A is filled band by band
    from these outer products, in the same floating-point operations as
    kronecker_sum(T, W, k), and is the same CSR matrix bit for bit: zero
    entries dropped, indices sorted.
    """
    if problem not in PROBLEMS:
        raise ValueError(f"unknown problem {problem!r}, expected one of {tuple(PROBLEMS)}")
    if not 0 <= k < np.inf:  # also NaN
        raise ValueError(f"wavenumber must be finite and nonnegative, got {k}")
    if grid.bc != PROBLEMS[problem]:
        raise ValueError(f"{problem} requires a {PROBLEMS[problem]} grid, got {grid.bc!r}")
    n, h, m = grid.n, grid.h, grid.unknowns_per_dim
    if problem == "MP1" and n % 2 == 0:
        raise ValueError("MP1 needs odd n so the source at (1/2, 1/2) is a grid node")
    diagonal = np.full(m, 2.0 / h**2, dtype=float if problem == "MP1" else complex)
    weights = np.ones(m)
    if problem == "MP2":
        diagonal[[0, -1]] = 1.0 / h**2 - 1j * k / h
        weights[[0, -1]] = 0.5
    off = np.full(m - 1, -1.0 / h**2)
    T, W = sp.diags([off, diagonal, off], [-1, 0, 1], format="csr"), sp.diags(weights)
    # T[j+1, j] and T[j-1, j] at node j, zero where the neighbour is off the line
    lower, upper = np.append(off, 0), np.insert(off, 0, 0)
    bands = np.empty((5, m, m), dtype=T.dtype)  # band d at grid line i, node j
    np.multiply.outer(lower, weights, out=bands[0])
    np.multiply.outer(weights, lower, out=bands[1])
    np.multiply.outer(diagonal, weights, out=bands[2])
    bands[2] += np.multiply.outer(weights, diagonal)
    bands[2] -= k**2 * np.multiply.outer(weights, weights)
    np.multiply.outer(weights, upper, out=bands[3])
    np.multiply.outer(upper, weights, out=bands[4])
    bands, offsets = bands.reshape(5, m * m), [-m, -1, 0, 1, m]
    if m == 1:  # one unknown: the +-1 and +-m offsets coincide and their bands are empty
        bands, offsets = bands[2:3], [0]
    # dia_matrix keeps A[c - offsets[d], c] at bands[d, c]
    A = sp.dia_matrix((bands, offsets), shape=(m * m, m * m)).tocsr()
    f = np.zeros(grid.num_unknowns, dtype=A.dtype)
    # node nearest (1/2, 1/2); exact center for odd n
    c = (n - 1) // 2
    f[grid.unknown_index(c, c)] = 1.0 / h**2
    return HelmholtzProblem(grid=grid, k=k, A=A, f=f, T=T, W=W)

