"""Two-level overlapping Schwarz preconditioner applications.

Three matrix-free variants over a Decomposition and a CoarseSpace, all
using exact local and coarse solves:

* AS2  (additive):        C + sum_i R_i^T (R_i A R_i^T)^{-1} R_i
* SAS2 (scaled additive): C + sum_i R_i^T D_i (R_i A R_i^T)^{-1} R_i
* SHS2 (scaled hybrid):   C + (sum_i R_i^T D_i (R_i A R_i^T)^{-1} R_i)(I - A C)

where C = R_0^T (R_0 A R_0^T)^{-1} R_0 is the coarse correction and the
factor (I - A C) deflates the coarse space out of the residual before the
local solves.  In SHS2 the coarse solve C x is computed once and shared
between the additive term and the deflation factor.

The local blocks R_i A R_i^T of the model problems repeat.  A subdomain is
a box Y x X, and its block is fixed by the 1D factors T and W of
A = T(x)W + W(x)T - k^2 W(x)W restricted to Y and to X.  Up to the maximum
overlap the 1D intervals fall into at most 3 classes of equal restrictions
(first, interior, last), so at most 9 distinct blocks remain, however many
subdomains there are.  decomposition.block_classes labels each subdomain by
its (Y class, X class) pair; LocalSolves factorizes one representative per
class and keeps its dense inverse.  The one-level term is then applied as
one gather x[G] of every subdomain's entries, one matrix product per class
with the class's inverse and one scatter-add.  The weights D_i are the inverse node
multiplicities, so sum_i R_i^T D_i y_i = D sum_i R_i^T y_i with
D = diag(1/multiplicity): the scaled variants divide the scattered sum by
the multiplicity.  The inverses take sum over classes of s_c^2 entries for
class block sizes s_c (234 KB for MP2 at k = 200).  The Decomposition holds
the stacked indices once, 8 bytes per subdomain entry (15.6 MB there, 1.95
million entries), plus the N node multiplicities (5.1 MB), and LocalSolves
keeps a class-ordered copy of the indices only (another 15.6 MB).
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .coarse import CoarseSpace, coarse_correct
from .decomposition import Decomposition, block_classes, local_matrix
from .discretization import HelmholtzProblem

PRECONDITIONER_KINDS = ("AS2", "SAS2", "SHS2")


class LocalSolves:
    """The one-level term sum_i R_i^T [D_i] (R_i A R_i^T)^{-1} R_i, batched by block class.

    labels[i] is the block class of subdomain i and factorizations[c] the
    factorization of class c's block.  One object serves every
    preconditioner kind built on the same matrix and decomposition.
    """

    def __init__(self, decomposition: Decomposition, labels, factorizations: list):
        self.num_unknowns = decomposition.grid.num_unknowns
        self.multiplicity = decomposition.multiplicity
        gather = []
        self.classes = []  # (start, stop, dense inverse) of each class's stretch of the gather
        start = 0
        for c, F in enumerate(factorizations):
            members = np.flatnonzero(labels == c)
            entries = (decomposition.offsets[members, None] + np.arange(F.n)).ravel()
            gather.append(decomposition.indices[entries])
            stop = start + len(entries)
            self.classes.append((start, stop, linalg.solve(F, np.eye(F.n))))
            start = stop
        self.gather = np.concatenate(gather)

    def add_to(self, x: np.ndarray, out: np.ndarray, weighted: bool):
        """Accumulate the one-level term applied to x into out."""
        xs = x[self.gather]
        dtype = np.result_type(xs.dtype, *(inv.dtype for *_, inv in self.classes))
        ys = np.empty(len(xs), dtype=dtype)
        for start, stop, inv in self.classes:
            s = len(inv)
            np.matmul(xs[start:stop].reshape(-1, s), inv.T, out=ys[start:stop].reshape(-1, s))
        n = self.num_unknowns
        total = np.bincount(self.gather, weights=ys.real, minlength=n)
        if np.iscomplexobj(ys):
            total = total + 1j * np.bincount(self.gather, weights=ys.imag, minlength=n)
        if weighted:
            total /= self.multiplicity
        out += total


class SchwarzPreconditioner:
    """Immutable after construction; apply() is safe for concurrent reads."""

    def __init__(
        self,
        kind: str,
        problem: HelmholtzProblem,
        decomposition: Decomposition,
        coarse_space: CoarseSpace,
        local_solves: LocalSolves | None = None,
    ):
        if kind not in PRECONDITIONER_KINDS:
            raise ValueError(f"unknown preconditioner {kind!r}, expected one of {PRECONDITIONER_KINDS}")
        if problem.grid != decomposition.grid:
            raise ValueError("problem was assembled on a different grid than the decomposition")
        if coarse_space.grid != decomposition.grid:
            raise ValueError("coarse space was built on a different grid than the decomposition")
        if coarse_space.a0_factorization is None:
            raise ValueError("coarse space is not factorized; call galerkin() first")
        self.kind = kind
        self.A = problem.A
        self.coarse_space = coarse_space
        if local_solves is None:
            labels, representatives = block_classes(decomposition, problem)
            local_solves = LocalSolves(
                decomposition,
                labels,
                [linalg.factorize(local_matrix(decomposition, i, self.A)) for i in representatives],
            )
        elif local_solves.num_unknowns != self.A.shape[0]:
            raise ValueError("local solves were built for a different number of unknowns")
        self.local_solves = local_solves

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.result_type(np.asarray(x).dtype, self.A.dtype))
        if x.shape[0] != self.A.shape[0]:
            raise ValueError(f"operator has dimension {self.A.shape[0]}, vector {x.shape[0]}")
        y = coarse_correct(self.coarse_space, x)
        r = x - self.A @ y if self.kind == "SHS2" else x
        self.local_solves.add_to(r, y, weighted=self.kind != "AS2")
        return y

    __call__ = apply
