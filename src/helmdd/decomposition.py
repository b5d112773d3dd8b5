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
No array of one entry per subdomain entry is stored: box_indices() forms the
index sets of boxes on demand, interval_classes() groups the intervals by
the restrictions of the 1D factors T and W to them, and no other module
reads lo and hi.
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


def box_indices(decomp: Decomposition, ys, xs) -> np.ndarray:
    """Unknown indices of the subdomains (ay, ax) for ay in ys and ax in xs,
    one row per subdomain in subdomain order: its box's entries, rows outer
    and columns inner, in increasing order.  The intervals of ys share one
    length, as do those of xs."""
    lo, hi = decomp.lo, decomp.hi
    rows = lo[ys, None] + np.arange(hi[ys[0]] - lo[ys[0]] + 1)
    cols = lo[xs, None] + np.arange(hi[xs[0]] - lo[xs[0]] + 1)
    idx = rows[:, None, :, None] * decomp.grid.unknowns_per_dim + cols[None, :, None, :]
    return idx.reshape(len(rows) * len(cols), -1)


def local_matrix(decomp: Decomposition, i: int, A: sp.csr_matrix) -> sp.csr_matrix:
    """Principal submatrix R_i A R_i^T of A on subdomain i."""
    idx = box_indices(decomp, *np.divmod([i], decomp.p))[0]
    return A[idx][:, idx]


def interval_classes(decomp: Decomposition, problem: HelmholtzProblem) -> tuple:
    """Group the p 1D intervals by the restrictions of problem's 1D factors
    T and W to them (discretization.assemble), compared bit for bit.

    Returns (classes, blocks): classes[a] is interval a's class, numbered by
    first appearance, and blocks[c] the dense (T, W) restricted to class c's
    first interval.  Subdomain ay * p + ax has the block
    T_Y(x)W_X + W_Y(x)T_X - k^2 W_Y(x)W_X of its intervals Y = ay and X = ax,
    so subdomains whose (Y class, X class) pairs agree have equal blocks.
    Distinct pairs can still give equal blocks (an MP1 box of width 1 and
    its transpose).
    """
    lo, hi = decomp.lo, decomp.hi
    if (hi < lo).any():
        raise ValueError("an empty subdomain has no block")
    T, W = problem.T.toarray(), problem.W.toarray()
    content: dict = {}  # bytes of T and W on an interval -> (its class, T and W on it)
    classes = []
    for a, b in zip(lo, hi):
        t, w = T[a:b + 1, a:b + 1], W[a:b + 1, a:b + 1]
        classes.append(content.setdefault(t.tobytes() + w.tobytes(), (len(content), (t, w)))[0])
    return np.array(classes), [block for _, block in content.values()]
