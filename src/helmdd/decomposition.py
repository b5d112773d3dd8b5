"""Overlapping subdomain decomposition with partition-of-unity weights.

The unit square is split into a p-by-p array of axis-aligned boxes of
(n-1)/p cells each.  partition() assigns every unknown to exactly one box
(nodes on internal box edges go to the lower-indexed box).  extend() grows
the boxes into overlapping subdomains:

* overlap_layers = 0 keeps the disjoint owned sets,
* overlap_layers = m >= 1 takes the closed node box of the subdomain's
  cell range and grows it by a further m-1 node layers in every direction,
  clipped to the unknown set.

With this geometry the largest admissible extension under the rule that
no node may belong to more than 4 subdomains is m = H_sub/(2h) layers,
which is what max_overlap_layers() returns.  The diagonal weights D_i are
the inverse node multiplicities, so sum_i R_i^T D_i R_i = I holds exactly
(multiplicities in max-overlap mode are 1, 2 or 4 and the weights are
exact binary fractions).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .discretization import Grid

MAX_MULTIPLICITY = 4


@dataclass(frozen=True)
class Partition:
    """Nonoverlapping assignment of unknowns to p*p subdomain boxes."""

    grid: Grid
    p: int
    index_sets: list

    @property
    def cells_per_subdomain(self) -> int:
        return (self.grid.n - 1) // self.p


@dataclass(frozen=True)
class Decomposition:
    """Overlapping subdomains: index maps R_i and weights D_i."""

    grid: Grid
    p: int
    overlap_layers: int
    index_sets: list
    weights: list
    multiplicity: np.ndarray

    @property
    def num_subdomains(self) -> int:
        return self.p * self.p

    @property
    def cells_per_subdomain(self) -> int:
        return (self.grid.n - 1) // self.p


def _owned_interval_1d(a: int, c: int, grid: Grid):
    """Node range [lo, hi] owned by 1D box a; internal edges go to the lower box."""
    lo = a * c + (1 if a > 0 else 0)
    hi = (a + 1) * c
    return max(lo, grid.unknown_lo), min(hi, grid.unknown_lo + grid.unknowns_per_dim - 1)


def _extended_interval_1d(a: int, c: int, m: int, grid: Grid):
    """Extended node range of 1D box a for m overlap layers."""
    if m == 0:
        return _owned_interval_1d(a, c, grid)
    lo = a * c - (m - 1)
    hi = (a + 1) * c + (m - 1)
    return max(lo, grid.unknown_lo), min(hi, grid.unknown_lo + grid.unknowns_per_dim - 1)


def _box_indices(grid: Grid, xint, yint) -> np.ndarray:
    """Sorted global unknown indices of the rectangle xint x yint."""
    ix = np.arange(xint[0], xint[1] + 1)
    iy = np.arange(yint[0], yint[1] + 1)
    return grid.unknown_index(ix[None, :], iy[:, None]).ravel()


def partition(grid: Grid, subdomains_per_dim: int) -> Partition:
    """Disjoint p*p box partition of the unknowns."""
    p = subdomains_per_dim
    if p < 1:
        raise ValueError(f"need at least one subdomain per dimension, got {p}")
    if (grid.n - 1) % p != 0:
        raise ValueError(f"{p} subdomains per dimension do not divide {grid.n - 1} cells")
    c = (grid.n - 1) // p
    sets = []
    for ay in range(p):
        yint = _owned_interval_1d(ay, c, grid)
        for ax in range(p):
            xint = _owned_interval_1d(ax, c, grid)
            sets.append(_box_indices(grid, xint, yint))
    return Partition(grid=grid, p=p, index_sets=sets)


def max_overlap_layers(part: Partition) -> int:
    """Largest overlap keeping every node in at most 4 subdomains."""
    return part.cells_per_subdomain // 2


def extend(part: Partition, overlap_layers: int, enforce_max_multiplicity: bool = False) -> Decomposition:
    """Grow the partition into overlapping subdomains with weights."""
    m = overlap_layers
    if m < 0:
        raise ValueError(f"overlap layer count must be nonnegative, got {m}")
    grid, p, c = part.grid, part.p, part.cells_per_subdomain
    sets = []
    for ay in range(p):
        yint = _extended_interval_1d(ay, c, m, grid)
        for ax in range(p):
            xint = _extended_interval_1d(ax, c, m, grid)
            sets.append(_box_indices(grid, xint, yint))
    mult = np.zeros(grid.num_unknowns)
    for idx in sets:
        mult[idx] += 1.0
    if enforce_max_multiplicity and mult.max() > MAX_MULTIPLICITY:
        raise ValueError(
            f"overlap {m} puts a node in {int(mult.max())} subdomains "
            f"(max-overlap mode allows {MAX_MULTIPLICITY})"
        )
    weights = [1.0 / mult[idx] for idx in sets]
    return Decomposition(
        grid=grid, p=p, overlap_layers=m, index_sets=sets, weights=weights, multiplicity=mult
    )


def extend_max(part: Partition) -> Decomposition:
    """Maximum-overlap decomposition (multiplicity bound 4 enforced)."""
    return extend(part, max_overlap_layers(part), enforce_max_multiplicity=True)


def local_matrix(decomp: Decomposition, i: int, A: sp.csr_matrix) -> sp.csr_matrix:
    """Principal submatrix R_i A R_i^T of A on subdomain i."""
    idx = decomp.index_sets[i]
    return A[idx][:, idx]


def block_classes(decomp: Decomposition, A) -> tuple:
    """Group the subdomains by the content of their blocks R_i A R_i^T.

    Returns (labels, representatives): labels[i] is the class of subdomain
    i, and representatives[c] is the first subdomain of class c.  Two
    subdomains share a class exactly when their blocks have the same size
    and the same stored entries, compared bit for bit, so every member's
    local_matrix equals its representative's.

    All blocks are cut from one gather of the rows A[J], where J stacks the
    index sets; a single searchsorted on subdomain * N + global index maps
    each column to its local position, or drops it when it lies outside the
    subdomain.
    """
    A = sp.csr_matrix(A)
    sizes = np.array([len(idx) for idx in decomp.index_sets])
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    J = np.concatenate(decomp.index_sets)
    owner = np.repeat(np.arange(len(sizes)), sizes)
    local = np.arange(len(J)) - offsets[owner]

    # nonzeros of the stacked rows A[J], one entry per (stacked row, column)
    starts, counts = A.indptr[J], np.diff(A.indptr)[J]
    row = np.repeat(np.arange(len(J)), counts)
    nz = np.arange(len(row)) - np.repeat(np.cumsum(counts) - counts - starts, counts)
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
