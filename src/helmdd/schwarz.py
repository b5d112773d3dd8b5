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
its (Y class, X class) pair.  The one-level term is applied as one gather
x[G] of every subdomain's entries, one solve per class and one scatter-add.
A class takes one of two forms, chosen by kronecker_blocks:

* A block of at most DENSE_BLOCK_MAX_UNKNOWNS unknowns is LU-factorized
  from its local_matrix and kept as its dense inverse.  The class solve is
  one matrix product of its members' gathered entries with that inverse.
* A larger block is the Kronecker sum T_Y(x)W_X + W_Y(x)T_X - k^2 W_Y(x)W_X
  and is kept in the eigenbases of its two 1D pencils (linalg.eigenbasis,
  computed once per distinct interval, and linalg.factorize_kronecker).
  The class solve is one KroneckerFactorization.solve of the stack
  (members, n_Y, n_X): per member two products with n_Y x n_Y matrices,
  two with n_X x n_X ones and a division.  No LU and no dense inverse is
  formed.

The rule, 441 unknowns (a 21 x 21 box), sits at the measured crossover of
the apply time.  For one class of 65,536 gathered entries, on a 2-core
x86-64 machine with OpenBLAS at 2 threads, the dense product and the
factored solve took 0.74 and 0.65 ms on 19 x 19 boxes, 0.89 and 0.66 ms on
21 x 21 and 1.10 and 0.77 ms on 23 x 23 for real entries, and 2.4 and
3.1 ms, 3.2 and 3.2 ms, 3.8 and 3.4 ms for complex ones; repeated runs
move the crossover between 17 x 17 and 23 x 23.  On 7 x 7 boxes the
factored solve is 7 (real) to 14 (complex) times slower.  Tables 1-3 have
boxes of at most 7 x 7 and table 4 of at least 23 x 23, so any rule from
49 to 528 unknowns gives them the same forms.

The weights D_i are the inverse node multiplicities, so
sum_i R_i^T D_i y_i = D sum_i R_i^T y_i with D = diag(1/multiplicity): the
scaled variants divide the scattered sum by the multiplicity.  The dense
inverses take sum over the dense classes of s_c^2 entries for block sizes
s_c (234 KB for MP2 at k = 200).  A factored class keeps its n_Y x n_X
eigenvalue sums, and each distinct interval of n nodes 2 n^2 + n numbers:
47 KB for the 4 classes of the table 4 cell n = 257, where their dense
inverses took 17.8 MB.  The Decomposition holds the stacked indices once,
8 bytes per subdomain entry (15.6 MB for MP2 at k = 200, 1.95 million
entries), plus the N node multiplicities (5.1 MB), and LocalSolves keeps a
class-ordered copy of the indices only (another 15.6 MB).  Between applies
LocalSolves also keeps two work buffers of that length, the gathered
entries and their class products: 2 x gather length x itemsize, 15.6 MB
for MP2 at k = 100 and 62.5 MB at k = 200.  Allocated per apply, buffers
of that size are mapped and unmapped every time unless some larger freed
block has raised glibc's mmap threshold.  Complex products are scattered
by one bincount over their real and imaginary parts, through the
interleaved indices 2g, 2g + 1 (another 31.2 MB at k = 200).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from . import linalg
from .coarse import CoarseSpace, coarse_correct
from .decomposition import Decomposition, block_classes, box_bounds, local_matrix
from .discretization import HelmholtzProblem

PRECONDITIONER_KINDS = ("AS2", "SAS2", "SHS2")

# Class blocks of at most this many unknowns keep a dense inverse; larger ones
# are solved in their Kronecker eigenbasis (see the module docstring).
DENSE_BLOCK_MAX_UNKNOWNS = 441


def kronecker_blocks(
    decomposition: Decomposition, problem: HelmholtzProblem, representatives
) -> list:
    """The KroneckerFactorization of each class block with more than
    DENSE_BLOCK_MAX_UNKNOWNS unknowns, and None for the other classes.

    representatives[c] is a subdomain of class c (decomposition.block_classes).
    The block of a box Y x X is T_Y(x)W_X + W_Y(x)T_X - k^2 W_Y(x)W_X; the
    eigenbasis of each distinct 1D interval is computed once.
    """
    T, W = sp.csr_matrix(problem.T), sp.csr_matrix(problem.W)
    bases: dict = {}

    def basis(lo, hi):
        if (lo, hi) not in bases:
            bases[lo, hi] = linalg.eigenbasis(
                T[lo:hi + 1, lo:hi + 1].toarray(), W[lo:hi + 1, lo:hi + 1].toarray()
            )
        return bases[lo, hi]

    y0, x0, y1, x1 = (bound[representatives] for bound in box_bounds(decomposition))
    return [
        linalg.factorize_kronecker(basis(ya, yb), basis(xa, xb), problem.k)
        if (yb - ya + 1) * (xb - xa + 1) > DENSE_BLOCK_MAX_UNKNOWNS
        else None
        for ya, xa, yb, xb in zip(y0, x0, y1, x1)
    ]


class LocalSolves:
    """The one-level term sum_i R_i^T [D_i] (R_i A R_i^T)^{-1} R_i, batched by block class.

    labels[i] is the block class of subdomain i and factorizations[c] the
    factorization of class c's block: a KroneckerFactorization, applied as
    is, or a SparseFactorization, applied through its dense inverse.  One
    object serves every preconditioner kind built on the same problem and
    decomposition, and records both.
    """

    def __init__(
        self, decomposition: Decomposition, problem: HelmholtzProblem, labels, factorizations: list
    ):
        self.decomposition = decomposition
        self.problem = problem
        gather = []
        self.classes = []  # (start, stop, solver) of each class's stretch of the gather
        start = 0
        for c, F in enumerate(factorizations):
            members = np.flatnonzero(labels == c)
            if isinstance(F, linalg.KroneckerFactorization):
                size, solver = F.d.size, F
            else:
                size, solver = F.n, linalg.solve(F, np.eye(F.n))
            entries = (decomposition.offsets[members, None] + np.arange(size)).ravel()
            gather.append(decomposition.indices[entries])
            stop = start + len(entries)
            self.classes.append((start, stop, solver))
            start = stop
        self.gather = np.concatenate(gather)
        self._work = None  # the gathered entries and their class products, kept between applies
        self._gather_interleaved = None  # 2g, 2g+1 for each g in gather, for complex products

    def add_to(self, x: np.ndarray, out: np.ndarray, weighted: bool):
        """Accumulate the one-level term applied to x into out.

        Works in two buffers of the gather's length, allocated on the first
        call and again when x's dtype changes, so one LocalSolves must not be
        applied from two threads at once.
        """
        if self._work is None or self._work[0].dtype != x.dtype:
            dtype = np.result_type(x.dtype, self.problem.A.dtype)
            self._work = np.empty(len(self.gather), x.dtype), np.empty(len(self.gather), dtype)
        xs, ys = self._work
        np.take(x, self.gather, out=xs, mode="clip")  # "raise" would buffer out in a temporary
        for start, stop, solver in self.classes:
            if isinstance(solver, linalg.KroneckerFactorization):
                ys[start:stop] = solver.solve(xs[start:stop].reshape(-1, *solver.d.shape)).ravel()
            else:
                s = len(solver)
                np.matmul(xs[start:stop].reshape(-1, s), solver.T, out=ys[start:stop].reshape(-1, s))
        n = len(self.decomposition.multiplicity)
        if np.iscomplexobj(ys):
            # the real and imaginary parts scattered in one pass, each sum in the same order
            if self._gather_interleaved is None:
                self._gather_interleaved = (2 * self.gather[:, None] + np.arange(2)).ravel()
            total = np.bincount(
                self._gather_interleaved, weights=ys.view(np.float64), minlength=2 * n
            ).view(np.complex128)
        else:
            total = np.bincount(self.gather, weights=ys, minlength=n)
        if weighted:
            total /= self.decomposition.multiplicity
        out += total


class SchwarzPreconditioner:
    """Fixed after construction, but apply() works in its LocalSolves' buffers:
    one LocalSolves must not be applied from two threads at once."""

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
            factored = kronecker_blocks(decomposition, problem, representatives)
            local_solves = LocalSolves(decomposition, problem, labels, [
                linalg.factorize(local_matrix(decomposition, i, self.A)) if F is None else F
                for i, F in zip(representatives, factored)
            ])
        elif local_solves.problem is not problem or local_solves.decomposition is not decomposition:
            raise ValueError("local solves were built for another problem or decomposition")
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
