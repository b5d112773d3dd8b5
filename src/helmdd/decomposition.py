"""Overlapping subdomain decomposition with partition-of-unity weights.

The unit square is split into a p-by-p array of axis-aligned boxes of
(n-1)/p cells each.  partition() fixes that layout; in it every unknown
belongs to exactly one box (nodes on internal box edges go to the
lower-indexed box).  extend() grows the boxes into overlapping subdomains:

* overlap_layers = 0 keeps the disjoint owned sets,
* overlap_layers = m >= 1 takes the closed node box of the subdomain's
  cell range and grows it by a further m-1 node layers in every direction,
  clipped to the unknown set.

With this geometry the largest admissible extension under the rule that
no node may belong to more than 4 subdomains is m = H_sub/(2h) layers,
which is what max_overlap_layers() returns; extend() accepts more layers
and does not check the bound.  The diagonal weights D_i are the inverse
node multiplicities, so sum_i R_i^T D_i R_i = I holds exactly
(multiplicities in max-overlap mode are 1, 2 or 4 and the weights are
exact binary fractions).

A Decomposition stores its p overlapping 1D intervals [lo[a], hi[a]], in
unknown coordinates, plus the N node multiplicities: subdomain i = ay*p + ax
is the box of unknown rows lo[ay]..hi[ay] and columns lo[ax]..hi[ax], and
the diagonal of D_i is 1/multiplicity on that box.  A node's multiplicity is
the product of the numbers of intervals holding its row and its column.
No array of one entry per subdomain entry is stored: box() gives a
subdomain's bounds and box_indices() forms the index sets of boxes on
demand, and no other module reads lo and hi.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .discretization import Grid, HelmholtzProblem


@dataclass(frozen=True)
class Partition:
    """Nonoverlapping layout of the unknowns in p*p subdomain boxes."""

    grid: Grid
    p: int

    @property
    def cells_per_subdomain(self) -> int:
        return (self.grid.n - 1) // self.p


@dataclass(frozen=True)
class Decomposition:
    """Overlapping subdomains R_i and weights D_i, as p*p boxes of p 1D
    intervals (see the module docstring)."""

    grid: Grid
    p: int
    lo: np.ndarray
    hi: np.ndarray
    multiplicity: np.ndarray

    @property
    def num_subdomains(self) -> int:
        return self.p * self.p


def _intervals(grid: Grid, p: int, m: int):
    """Ranges [lo, hi] of the p 1D boxes for m overlap layers, in unknown
    coordinates and clipped to the unknowns; m = 0 gives the owned ranges,
    internal edges going to the lower box."""
    c = (grid.n - 1) // p
    a = np.arange(p)
    if m == 0:
        lo, hi = a * c + (a > 0), (a + 1) * c
    else:
        lo, hi = a * c - (m - 1), (a + 1) * c + (m - 1)
    first = grid.unknown_lo
    return np.maximum(lo - first, 0), np.minimum(hi - first, grid.unknowns_per_dim - 1)


def partition(grid: Grid, subdomains_per_dim: int) -> Partition:
    """Disjoint p*p box partition of the unknowns."""
    p = subdomains_per_dim
    if p < 1:
        raise ValueError(f"need at least one subdomain per dimension, got {p}")
    if (grid.n - 1) % p != 0:
        raise ValueError(f"{p} subdomains per dimension do not divide {grid.n - 1} cells")
    return Partition(grid=grid, p=p)


def max_overlap_layers(part: Partition) -> int:
    """Largest overlap keeping every node in at most 4 subdomains."""
    return part.cells_per_subdomain // 2


def extend(part: Partition, overlap_layers: int) -> Decomposition:
    """Grow the partition into overlapping subdomains with weights."""
    m = overlap_layers
    if m < 0:
        raise ValueError(f"overlap layer count must be nonnegative, got {m}")
    grid, p = part.grid, part.p
    lo, hi = _intervals(grid, p, m)
    j = np.arange(grid.unknowns_per_dim)
    count = ((lo[:, None] <= j) & (j <= hi[:, None])).sum(axis=0).astype(float)
    # products of integers of at most p: exact
    mult = np.outer(count, count).ravel()
    return Decomposition(grid=grid, p=p, lo=lo, hi=hi, multiplicity=mult)


def extend_max(part: Partition) -> Decomposition:
    """Maximum-overlap decomposition: every node lies in at most 4 subdomains."""
    return extend(part, max_overlap_layers(part))


def box(decomp: Decomposition, i: int) -> tuple:
    """((y_lo, y_hi), (x_lo, x_hi)): the first and last unknown row and
    column of subdomain i's box."""
    ay, ax = divmod(i, decomp.p)
    lo, hi = decomp.lo, decomp.hi
    return (lo[ay], hi[ay]), (lo[ax], hi[ax])


def box_indices(decomp: Decomposition, members) -> np.ndarray:
    """Unknown indices of subdomains that share one box shape, one row per
    member: its box's entries, rows outer and columns inner, in increasing
    order.  The shape is read from members[0]."""
    ay, ax = np.divmod(members, decomp.p)
    (y0, y1), (x0, x1) = box(decomp, members[0])
    rows = decomp.lo[ay, None] + np.arange(y1 - y0 + 1)
    cols = decomp.lo[ax, None] + np.arange(x1 - x0 + 1)
    return (rows[:, :, None] * decomp.grid.unknowns_per_dim + cols[:, None, :]).reshape(len(ay), -1)


def local_matrix(decomp: Decomposition, i: int, A: sp.csr_matrix) -> sp.csr_matrix:
    """Principal submatrix R_i A R_i^T of A on subdomain i."""
    idx = box_indices(decomp, [i])[0]
    return A[idx][:, idx]


def block_classes(decomp: Decomposition, problem: HelmholtzProblem) -> tuple:
    """Group the subdomains by the content of their blocks R_i A R_i^T.

    Returns (labels, representatives): labels[i] is the class of subdomain
    i, and representatives[c] is the first subdomain of class c.

    A subdomain is a box Y x X of two of the p 1D intervals, and its block
    is the Kronecker sum T_Y(x)W_X + W_Y(x)T_X - k^2 W_Y(x)W_X of the
    restrictions of the 1D factors T and W of problem
    (discretization.assemble).  Each interval is classed by the entries of T
    and W on it, compared bit for bit, and a subdomain's class is its
    (Y class, X class) pair, so every member's local_matrix equals its
    representative's.  Distinct pairs can still give equal blocks (an MP1
    box of width 1 and its transpose); they stay separate classes.
    """
    lo, hi = decomp.lo, decomp.hi
    if (hi < lo).any():
        raise ValueError("an empty subdomain has no block")
    T, W = problem.T.toarray(), problem.W.toarray()
    content: dict = {}
    interval_class = np.array([
        content.setdefault(T[a:b + 1, a:b + 1].tobytes() + W[a:b + 1, a:b + 1].tobytes(), len(content))
        for a, b in zip(lo, hi)
    ])
    # subdomain ay * p + ax is the pair (class of interval ay, class of interval ax)
    pairs = (interval_class[:, None] * len(content) + interval_class).ravel()
    _, members, label = np.unique(pairs, return_index=True, return_inverse=True)
    # number the classes by their first member, in subdomain order
    order = np.argsort(members)
    return np.argsort(order)[label.ravel()], members[order]
