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
Every class block is the Kronecker sum T_Y(x)W_X + W_Y(x)T_X - k^2 W_Y(x)W_X
and is factored in the eigenbases of its two 1D pencils (linalg.eigenbasis,
computed once per distinct interval, and linalg.factorize_kronecker).  No
local block is assembled and no sparse LU is formed; the tests hold both
forms against SuperLU on the assembled blocks.  A class takes one of two
forms:

* A block of at most DENSE_BLOCK_MAX_UNKNOWNS unknowns is kept as its dense
  inverse (Q_Y(x)Q_X) D^{-1} (V_Y(x)V_X).  The class solve is one matrix
  product of its members' gathered entries with that inverse.
* A larger block is kept as its KroneckerFactorization.  The class solve is
  one KroneckerFactorization.solve of the stack (members, n_Y, n_X): per
  member two products with n_Y x n_Y matrices, for the whole class two
  products of all its members' rows with n_X x n_X matrices (one GEMM
  each), and a division, written into LocalSolves' buffers.  No dense
  inverse is formed.

The rule, 441 unknowns (a 21 x 21 box), sits at or above the measured
crossover of the apply time.  For one class of 65,536 gathered entries, on
a 2-core x86-64 machine with OpenBLAS at 2 threads, the dense product and
the factored solve took 0.59-0.68 and 0.44 ms on 19 x 19 boxes, 0.64-0.82
and 0.40-0.43 ms on 21 x 21 and 0.95-0.98 and 0.46-0.47 ms on 23 x 23 for
real entries, and 1.8-2.4 and 1.6-1.8 ms, 2.5-2.8 and 1.8 ms, 3.7-3.8 and
2.1-2.6 ms for complex ones (medians of 300 calls in each of two runs).
The crossover lies near 17 x 17; before the factored solve took its
n_X x n_X products as one GEMM per class, repeated runs put it between
17 x 17 and 23 x 23.  On 7 x 7 boxes the factored solve is 3 (real) to
5-8 (complex) times slower.  Tables 1-3 have boxes of at most 7 x 7 and
table 4 of at least 23 x 23, so any rule from 49 to 528 unknowns gives
them the same forms.

The weights D_i are the inverse node multiplicities, so
sum_i R_i^T D_i y_i = D sum_i R_i^T y_i with D = diag(1/multiplicity): the
scaled variants divide the scattered sum by the multiplicity.  The dense
inverses take sum over the dense classes of s_c^2 entries for block sizes
s_c (234 KB for MP2 at k = 200).  A factored class keeps its n_Y x n_X
eigenvalue sums, and each distinct interval of n nodes 2 n^2 + n numbers:
47 KB for the 4 classes of the table 4 cell n = 257, where their dense
inverses took 17.8 MB.  The Decomposition holds its 1D interval bounds and
the N node multiplicities (5.1 MB for MP2 at k = 200).  The only copy of
the subdomain indices is LocalSolves' class-ordered gather, 8 bytes per
subdomain entry (15.6 MB for MP2 at k = 200, 1.95 million entries),
formed class by class with decomposition.box_indices.  Between applies
LocalSolves also keeps two work buffers of that length, the gathered
entries and their class products: 2 x gather length x itemsize, 15.6 MB
for MP2 at k = 100 and 62.5 MB at k = 200.  Where some class is factored
it keeps a third, as long as the largest factored class's stretch of the
gather, for the products between the first and the last of a factored
solve: 1.5 MB of real entries for the n = 257 cell of table 4, whose
gather is 1.8 MB.  Allocated per apply, buffers of that size are mapped
and unmapped every time unless some larger freed block has raised glibc's
mmap threshold.  Complex products are scattered by one bincount over
their real and imaginary parts, through the interleaved indices 2g,
2g + 1 (another 31.2 MB at k = 200).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from . import linalg
from .coarse import CoarseSpace, coarse_correct
from .decomposition import Decomposition, block_classes, box, box_indices
from .discretization import HelmholtzProblem

PRECONDITIONER_KINDS = ("AS2", "SAS2", "SHS2")

# Class blocks of at most this many unknowns keep a dense inverse; larger ones
# are solved in their Kronecker eigenbasis (see the module docstring).
DENSE_BLOCK_MAX_UNKNOWNS = 441


class LocalSolves:
    """The one-level term sum_i R_i^T [D_i] (R_i A R_i^T)^{-1} R_i, batched by block class.

    Classes the subdomains of decomposition by their blocks of problem's A
    (decomposition.block_classes) and factors each class block in the
    eigenbases of its box's two 1D intervals, one linalg.eigenbasis per
    distinct interval.  A class of at most DENSE_BLOCK_MAX_UNKNOWNS unknowns
    keeps its dense inverse, any other its KroneckerFactorization (see the
    module docstring).  Raises linalg.SingularMatrixError on a resonant
    block.  One object serves every preconditioner kind built on the same
    problem and decomposition, and records both.
    """

    def __init__(self, decomposition: Decomposition, problem: HelmholtzProblem):
        self.decomposition = decomposition
        self.problem = problem
        labels, representatives = block_classes(decomposition, problem)
        T, W = sp.csr_matrix(problem.T), sp.csr_matrix(problem.W)
        bases: dict = {}

        def basis(lo, hi):
            if (lo, hi) not in bases:
                bases[lo, hi] = linalg.eigenbasis(
                    T[lo:hi + 1, lo:hi + 1].toarray(), W[lo:hi + 1, lo:hi + 1].toarray()
                )
            return bases[lo, hi]

        gather = []
        self.classes = []  # (start, stop, solver) of each class's stretch of the gather
        start = 0
        for c, representative in enumerate(representatives):
            y, x = box(decomposition, representative)
            F = linalg.factorize_kronecker(basis(*y), basis(*x), problem.k)
            size = F.d.size
            if size > DENSE_BLOCK_MAX_UNKNOWNS:
                solver = F
            else:  # solved for the identity's columns: 3x less rounding than kron(Q_y, Q_x) @ ...
                solver = F.solve(np.eye(size).reshape(size, *F.d.shape)).reshape(size, size).T
            gather.append(box_indices(decomposition, np.flatnonzero(labels == c)).ravel())
            stop = start + len(gather[-1])
            self.classes.append((start, stop, solver))
            start = stop
        self.gather = np.concatenate(gather)
        self._work = None  # gathered entries, class products, factored-solve scratch; kept between applies
        self._gather_interleaved = None  # 2g, 2g+1 for each g in gather, for complex products

    def add_to(self, x: np.ndarray, out: np.ndarray, weighted: bool):
        """Accumulate the one-level term applied to x into out.

        Works in two buffers of the gather's length and, for the factored
        classes, a third of the largest factored class's length, allocated
        on the first call and again when x's dtype changes, so one
        LocalSolves must not be applied from two threads at once.
        """
        if self._work is None or self._work[0].dtype != x.dtype:
            dtype = np.result_type(x.dtype, self.problem.A.dtype)
            factored = max(
                (stop - start for start, stop, solver in self.classes
                 if isinstance(solver, linalg.KroneckerFactorization)),
                default=0,
            )
            self._work = (
                np.empty(len(self.gather), x.dtype), np.empty(len(self.gather), dtype),
                np.empty(factored, dtype),
            )
        xs, ys, zs = self._work
        np.take(x, self.gather, out=xs, mode="clip")  # "raise" would buffer out in a temporary
        for start, stop, solver in self.classes:
            if isinstance(solver, linalg.KroneckerFactorization):
                stack = (-1, *solver.d.shape)
                solver.solve(
                    xs[start:stop].reshape(stack), ys[start:stop].reshape(stack),
                    zs[:stop - start].reshape(stack),
                )
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
            local_solves = LocalSolves(decomposition, problem)
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
