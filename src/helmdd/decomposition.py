"""Overlapping subdomain decomposition with partition-of-unity weights.

The unit square is split into a p-by-p array of axis-aligned boxes of
(n-1)/p cells each.  partition() returns the zero-overlap decomposition of
that layout: every unknown belongs to exactly one box (nodes on internal box
edges go to the lower-indexed box), with multiplicity 1.  extend() grows the
boxes into overlapping subdomains:

* overlap_layers = 0 keeps the disjoint owned sets (partition() itself),
* overlap_layers = m >= 1 takes the closed node box of the subdomain's
  cell range and grows it by a further m-1 node layers in every direction,
  clipped to the unknown set.

extend(), extend_max() and max_overlap_layers() read only the grid and p of
the decomposition they are given, so every decomposition of one layout
extends alike.  With this geometry the largest admissible extension under
the rule that no node may belong to more than 4 subdomains is m = H_sub/(2h)
layers, which is what max_overlap_layers() returns; extend() accepts more
layers and does not check the bound.  The diagonal weights D_i are the
inverse node multiplicities, so sum_i R_i^T D_i R_i = I holds exactly
(multiplicities in max-overlap mode are 1, 2 or 4 and the weights are
exact binary fractions).

A Decomposition stores its p overlapping 1D intervals [lo[a], hi[a]], in
unknown coordinates, plus the N node multiplicities: subdomain i = ay*p + ax
is the box of unknown rows lo[ay]..hi[ay] and columns lo[ax]..hi[ax], and
the diagonal of D_i is 1/multiplicity on that box.  A node's multiplicity is
the product of the numbers of intervals holding its row and its column.
No array of one entry per subdomain entry is stored: box_indices() forms the
index sets of boxes on demand, interval_pencils() restricts the 1D factors
T and W to intervals, interval_classes() groups the intervals by those
restrictions, and no other module reads lo and hi.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .discretization import Grid, HelmholtzProblem


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


def _decomposition(grid: Grid, p: int, m: int) -> Decomposition:
    """The p*p boxes of grid for m overlap layers: their 1D ranges [lo, hi],
    in unknown coordinates and clipped to the unknowns, and the node
    multiplicities.  m = 0 gives the owned ranges, internal edges going to
    the lower box."""
    c = (grid.n - 1) // p
    a = np.arange(p)
    if m == 0:
        lo, hi = a * c + (a > 0), (a + 1) * c
    else:
        lo, hi = a * c - (m - 1), (a + 1) * c + (m - 1)
    first, size = grid.unknown_lo, grid.unknowns_per_dim
    lo, hi = np.maximum(lo - first, 0), np.minimum(hi - first, size - 1)
    j = np.arange(size)
    count = ((lo[:, None] <= j) & (j <= hi[:, None])).sum(axis=0).astype(float)
    # products of integers of at most p: exact
    mult = np.outer(count, count).ravel()
    return Decomposition(grid=grid, p=p, lo=lo, hi=hi, multiplicity=mult)


def partition(grid: Grid, subdomains_per_dim: int) -> Decomposition:
    """Zero-overlap decomposition: the disjoint p*p box partition of the
    unknowns, every multiplicity 1."""
    p = subdomains_per_dim
    if p < 1:
        raise ValueError(f"need at least one subdomain per dimension, got {p}")
    if (grid.n - 1) % p != 0:
        raise ValueError(f"{p} subdomains per dimension do not divide {grid.n - 1} cells")
    return _decomposition(grid, p, 0)


def max_overlap_layers(decomp: Decomposition) -> int:
    """Largest overlap keeping every node in at most 4 subdomains."""
    return (decomp.grid.n - 1) // decomp.p // 2


def extend(decomp: Decomposition, overlap_layers: int) -> Decomposition:
    """Grow decomp's boxes into subdomains of overlap_layers layers, with weights."""
    m = overlap_layers
    if m < 0:
        raise ValueError(f"overlap layer count must be nonnegative, got {m}")
    return _decomposition(decomp.grid, decomp.p, m)


def extend_max(decomp: Decomposition) -> Decomposition:
    """Maximum-overlap decomposition: every node lies in at most 4 subdomains."""
    return extend(decomp, max_overlap_layers(decomp))


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


def _restrictions(F: sp.csr_matrix, lo, hi) -> list:
    """The dense F[a:b+1, a:b+1] of each interval [a, b], every entry read
    from the CSR matrix F at once (as its toarray() would give it, but with
    no dense copy of F)."""
    size = hi - lo + 1
    count = size * size
    ends = np.cumsum(count)
    flat = np.arange(ends[-1]) - np.repeat(ends - count, count)  # place in its interval's block
    i, j = np.divmod(flat, np.repeat(size, count))
    first = np.repeat(lo, count)
    values = np.asarray(F[first + i, first + j]).ravel()
    return [v.reshape(s, s) for v, s in zip(np.split(values, ends[:-1]), size)]


def interval_classes(decomp: Decomposition, problem: HelmholtzProblem) -> np.ndarray:
    """Group the p 1D intervals by the restrictions of problem's 1D factors
    T and W to them (discretization.assemble), compared bit for bit.

    Returns classes: classes[a] is interval a's class, numbered by first
    appearance.  Subdomain ay * p + ax has the block
    T_Y(x)W_X + W_Y(x)T_X - k^2 W_Y(x)W_X of its intervals Y = ay and X = ax,
    so subdomains whose (Y class, X class) pairs agree have equal blocks.
    Distinct pairs can still give equal blocks (an MP1 box of width 1 and
    its transpose).
    """
    if (decomp.hi < decomp.lo).any():
        raise ValueError("an empty subdomain has no block")
    content: dict = {}  # bytes of T and W on an interval -> its class
    pencils = interval_pencils(decomp, problem, np.arange(decomp.p))
    return np.array([content.setdefault(t.tobytes() + w.tobytes(), len(content)) for t, w in pencils])


def interval_pencils(decomp: Decomposition, problem: HelmholtzProblem, intervals) -> list:
    """The dense (T, W) of problem's 1D factors restricted to each of the given intervals."""
    if problem.grid != decomp.grid:
        raise ValueError(f"problem is assembled on {problem.grid}, decomposition built on {decomp.grid}")
    lo, hi = decomp.lo[intervals], decomp.hi[intervals]
    return list(zip(_restrictions(problem.T, lo, hi), _restrictions(problem.W, lo, hi)))
