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

A Decomposition stores its subdomains stacked, 8 bytes per subdomain entry
(an int64 index) plus the N node multiplicities: subdomain i = ay*p + ax is
the sorted indices[offsets[i]:offsets[i+1]], and the weights D_i, aligned
with indices, are derived from the multiplicity on demand.  extend() builds
the arrays from the p clipped 1D node ranges by broadcasting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .discretization import Grid


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
    """Overlapping subdomains R_i and weights D_i, stacked (see the module docstring)."""

    grid: Grid
    p: int
    indices: np.ndarray
    offsets: np.ndarray
    multiplicity: np.ndarray

    @property
    def num_subdomains(self) -> int:
        return self.p * self.p

    @property
    def weights(self) -> np.ndarray:
        """The diagonals of every D_i, aligned with indices."""
        return 1.0 / self.multiplicity[self.indices]


def _intervals(grid: Grid, p: int, m: int):
    """Clipped node ranges [lo, hi] of the p 1D boxes for m overlap layers;
    m = 0 gives the owned ranges, internal edges going to the lower box."""
    c = (grid.n - 1) // p
    a = np.arange(p)
    if m == 0:
        lo, hi = a * c + (a > 0), (a + 1) * c
    else:
        lo, hi = a * c - (m - 1), (a + 1) * c + (m - 1)
    first, last = grid.unknown_lo, grid.unknown_lo + grid.unknowns_per_dim - 1
    return np.maximum(lo, first), np.minimum(hi, last)


def _ranges(starts, counts) -> np.ndarray:
    """Concatenation of arange(s, s + c) over the pairs (s, c)."""
    ends = np.cumsum(counts)
    return np.arange(ends[-1]) + np.repeat(starts - ends + counts, counts)


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
    start, width = lo - grid.unknown_lo, hi - lo + 1
    # one ragged arange over the rows of every box, then one over the entries of every row
    ay, ax = np.divmod(np.arange(p * p), p)
    rows = _ranges(start[ay], width[ay])
    row_ax = np.repeat(ax, width[ay])
    indices = _ranges(rows * grid.unknowns_per_dim + start[row_ax], width[row_ax])
    offsets = np.concatenate(([0], np.cumsum(width[ay] * width[ax])))
    mult = np.bincount(indices, minlength=grid.num_unknowns).astype(float)
    return Decomposition(grid=grid, p=p, indices=indices, offsets=offsets, multiplicity=mult)


def extend_max(part: Partition) -> Decomposition:
    """Maximum-overlap decomposition: every node lies in at most 4 subdomains."""
    return extend(part, max_overlap_layers(part))


def local_matrix(decomp: Decomposition, i: int, A: sp.csr_matrix) -> sp.csr_matrix:
    """Principal submatrix R_i A R_i^T of A on subdomain i."""
    idx = decomp.indices[decomp.offsets[i]:decomp.offsets[i + 1]]
    return A[idx][:, idx]


def block_classes(decomp: Decomposition, A) -> tuple:
    """Group the subdomains by the content of their blocks R_i A R_i^T.

    Returns (labels, representatives): labels[i] is the class of subdomain
    i, and representatives[c] is the first subdomain of class c.  Two
    subdomains share a class exactly when their blocks have the same size
    and the same stored entries, compared bit for bit, so every member's
    local_matrix equals its representative's.

    All blocks are cut from one gather of the rows A[J], where J is the
    stacked indices; a single searchsorted on subdomain * N + global index
    maps each column to its local position, or drops it when it lies
    outside the subdomain.
    """
    A = sp.csr_matrix(A)
    J, offsets = decomp.indices, decomp.offsets
    sizes = np.diff(offsets)
    owner = np.repeat(np.arange(len(sizes)), sizes)
    local = np.arange(len(J)) - offsets[owner]

    # nonzeros of the stacked rows A[J], one entry per (stacked row, column)
    starts, counts = A.indptr[J], np.diff(A.indptr)[J]
    row = np.repeat(np.arange(len(J)), counts)
    nz = _ranges(starts, counts)
    cols = A.indices[nz]

    N = A.shape[1]
    keys = owner * N + J
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    wanted = owner[row] * N + cols
    pos = np.minimum(np.searchsorted(sorted_keys, wanted), len(sorted_keys) - 1)
    inside = sorted_keys[pos] == wanted
    # the entries keep A's order within each row, so equal keys mean equal blocks
    row, col, vals = row[inside], local[order[pos[inside]]], A.data[nz[inside]]

    row_nnz = np.bincount(row, minlength=len(J))
    nz_offsets = np.concatenate(([0], np.cumsum(row_nnz)))[offsets]
    labels = np.empty(len(sizes), dtype=np.int64)
    classes: dict = {}
    representatives = []
    for i in range(len(sizes)):
        a, b = nz_offsets[i], nz_offsets[i + 1]
        key = (
            row_nnz[offsets[i]:offsets[i + 1]].tobytes(),
            col[a:b].tobytes(),
            vals[a:b].tobytes(),
        )
        if key not in classes:
            classes[key] = len(representatives)
            representatives.append(i)
        labels[i] = classes[key]
    return labels, np.asarray(representatives)
