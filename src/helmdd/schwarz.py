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
its (Y class, X class) pair.  The one-level term is applied class by class
to chunks of the gather G of every subdomain's entries: for each chunk one
take of x[G], one batched solve and one scatter-add.
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
formed class by class with decomposition.box_indices.

LocalSolves.add_to cuts each class's stretch of the gather into chunks of
whole members: as many chunks of _CHUNK_ENTRIES // size members as the
class holds, the remainder spread over them.  A chunk's entries of x are
taken into one buffer and solved into a second (a factored solve uses a
third between its products), which np.add.at adds into one zeroed grid
vector.  ufunc.at adds in index order into zeros, as bincount did, so one
scatter serves real and complex products with the same bytes.  The buffers
are kept between applies and hold one member or fewer than
2 _CHUNK_ENTRIES entries, about _CHUNK_ENTRIES in a large class: a first
add_to leaves 1.06 MB behind for MP2 at k = 200 and 0.53 MB for MP1
(tracemalloc), where buffers as long as the gather, plus interleaved
indices 2g, 2g + 1 for a complex bincount, left 93.8 MB and 31.2 MB.  Two
complex chunk buffers take 1.06 MB and three 1.6 MB, within the 2 MB L2
cache of one core of the 2-core x86-64 machine measured.  There add_to
took 23-25 ms against 30 ms for MP2 at k = 200 and 11.5 against 13-15 ms
for MP1 (medians of 30 calls in each of two processes).  For MP1 at
k = 80, whose 2.5 MB gather fits the caches whole, it took 1.65 against
1.5 ms (medians of 300 calls in each of three processes): each chunk's
product is one more OpenBLAS call.  No chunk is a short tail: OpenBLAS picks its kernel by
the product's shape, gemv for one row and, for real entries, another
dgemm kernel for some short products, and those round a row of a dense
class product differently.  A plain run of 668-member chunks left a
108-member tail in MP1 n = 161's 49-unknown class, whose rows then moved
by rounding.  With chunks of at least _CHUNK_ENTRIES // size members the
chunked apply gives the bytes of one product per class on every layout
of tables 1-4 (OpenBLAS 0.3.31).
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

# LocalSolves.add_to cuts a class's stretch of the gather into chunks of
# _CHUNK_ENTRIES // size whole members (see the module docstring).
_CHUNK_ENTRIES = 32768


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
        self._work = None  # chunk buffers: gathered entries, class products, factored-solve scratch

    def add_to(self, x: np.ndarray, out: np.ndarray, weighted: bool):
        """Accumulate the one-level term applied to x into out.

        Walks the gather chunk by chunk (_chunks): takes the chunk's entries
        of x into a buffer, solves them into a second one (a factored class
        with a third as scratch) and adds the products into one zeroed grid
        vector with np.add.at, in gather order.  The chunk buffers are
        allocated on the first call and again when x's dtype changes, so one
        LocalSolves must not be applied from two threads at once.
        """
        if self._work is None or self._work[0].dtype != x.dtype:
            dtype = np.result_type(x.dtype, self.problem.A.dtype)
            chunks = [(hi - lo, isinstance(solver, linalg.KroneckerFactorization)) for lo, hi, solver in self._chunks()]
            longest = max(m for m, _ in chunks)
            factored = max((m for m, is_factored in chunks if is_factored), default=0)
            self._work = (np.empty(longest, x.dtype), np.empty(longest, dtype), np.empty(factored, dtype))
        xs, ys, zs = self._work
        total = np.zeros(len(self.decomposition.multiplicity), ys.dtype)
        for lo, hi, solver in self._chunks():
            gather, m = self.gather[lo:hi], hi - lo
            np.take(x, gather, out=xs[:m], mode="clip")  # "raise" would buffer out in a temporary
            if isinstance(solver, linalg.KroneckerFactorization):
                stack = (-1, *solver.d.shape)
                solver.solve(xs[:m].reshape(stack), ys[:m].reshape(stack), zs[:m].reshape(stack))
            else:
                s = len(solver)
                np.matmul(xs[:m].reshape(-1, s), solver.T, out=ys[:m].reshape(-1, s))
            np.add.at(total, gather, ys[:m])
        if weighted:
            total /= self.decomposition.multiplicity
        out += total

    def _chunks(self):
        """(lo, hi, solver) of each chunk of the gather, in gather order.

        A class's stretch is cut into as many chunks of _CHUNK_ENTRIES // size
        members (at least one) as it holds, with the remainder spread over
        them, so no chunk is a short tail (see the module docstring).
        """
        for start, stop, solver in self.classes:
            size = solver.d.size if isinstance(solver, linalg.KroneckerFactorization) else len(solver)
            members = (stop - start) // size
            count = max(members // max(_CHUNK_ENTRIES // size, 1), 1)
            for j in range(count):
                yield start + size * (members * j // count), start + size * (members * (j + 1) // count), solver


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
        if self.kind == "SHS2":
            r = self.A @ y
            np.subtract(x, r, out=r)
        else:
            r = x
        self.local_solves.add_to(r, y, weighted=self.kind != "AS2")
        return y

    __call__ = apply
