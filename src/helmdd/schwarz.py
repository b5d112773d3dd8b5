"""Two-level overlapping Schwarz preconditioner applications.

Three matrix-free variants built from the two factored levels of one
problem, the CoarseLevel that coarse.galerkin returns and the LocalSolves of
a Decomposition, all using exact local and coarse solves:

* AS2  (additive):        C + sum_i R_i^T (R_i A R_i^T)^{-1} R_i
* SAS2 (scaled additive): C + sum_i R_i^T D_i (R_i A R_i^T)^{-1} R_i
* SHS2 (scaled hybrid):   C + (sum_i R_i^T D_i (R_i A R_i^T)^{-1} R_i)(I - A C)

where C = R_0^T (R_0 A R_0^T)^{-1} R_0 is the coarse correction and the
factor (I - A C) deflates the coarse space out of the residual before the
local solves.  In SHS2 the coarse solve C x is computed once and shared
between the additive term and the deflation factor.

The local solves are built from classes of the p 1D intervals.  Subdomain
ay * p + ax is the box Y x X of intervals ay and ax, and its block
R_i A R_i^T is the Kronecker sum T_Y(x)W_X + W_Y(x)T_X - k^2 W_Y(x)W_X of
the 1D factors of A = T(x)W + W(x)T - k^2 W(x)W restricted to Y and to X.
decomposition.interval_classes groups the intervals by those restrictions.
Up to the maximum overlap there are at most 3 classes (first, interior,
last), so at most 9 distinct blocks remain, however many subdomains there
are.  LocalSolves takes one linalg.eigenbasis per interval class; its
block classes are the (Y class, X class) pairs, in the order of their first
subdomains, each factored by linalg.factorize_kronecker.  What k does not
change (the classes, the gather below and the eigenbases of the pencils
without k) is a LocalLayout, which the LocalSolves of one grid's problems
can share.  No local block is assembled and no sparse LU is formed; the
tests hold both forms against SuperLU on the assembled blocks.  A class
takes one of two forms:

* A block of at most DENSE_BLOCK_MAX_UNKNOWNS unknowns is kept as its dense
  inverse (Q_Y(x)Q_X) D^{-1} (V_Y(x)V_X).  The class solve is one matrix
  product of its members' gathered entries with that inverse.
* A larger block is kept as its KroneckerFactorization.  The class solve is
  one KroneckerFactorization.solve of the stack (members, n_Y, n_X): per
  member two products with n_Y x n_Y matrices, for the whole class two
  products of all its members' rows with n_X x n_X matrices (one GEMM
  each), and a division, written into LocalSolves' buffers.  No dense
  inverse is formed.

The one-level term is applied class by class to chunks of the gather G of
every subdomain's entries, in class order: for each chunk one take of x[G]
into a kept buffer, one batched solve into a second (a factored solve uses
a third between its products) and one np.add.at into a zeroed grid vector.
ufunc.at adds in index order into zeros, so one scatter serves real and
complex products with the same bytes.  The weights D_i are the inverse node
multiplicities, so sum_i R_i^T D_i y_i = D sum_i R_i^T y_i with
D = diag(1/multiplicity): the scaled variants divide the scattered sum by
the multiplicity.

The dense inverses take s_c^2 entries for a class of block size s_c; a
factored class keeps its n_Y x n_X eigenvalue sums, and each interval class
of n nodes 2 n^2 + n numbers.  The only copy of the subdomain indices is the
gather, 8 bytes per subdomain entry (15.6 MB for MP2 at k = 200), formed
class by class with decomposition.box_indices and held by the LocalLayout;
the chunk buffers hold one member or fewer than 2 _CHUNK_ENTRIES entries.

CHANGES.md holds the measurements behind the two constants below: the
dense/factored crossover medians in the entry that builds the local solves
from interval classes, the chunk memory and time figures in the entry that
streams the apply through chunks.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import linalg
from .coarse import CoarseLevel, coarse_correct
from .decomposition import Decomposition, box_indices, interval_classes, interval_pencils
from .discretization import HelmholtzProblem

PRECONDITIONER_KINDS = ("AS2", "SAS2", "SHS2")

# Class blocks of at most this many unknowns (a 21 x 21 box) keep a dense
# inverse; larger ones are solved in their Kronecker eigenbasis.  The rule sits
# at or above the measured crossover of the apply time, near 17 x 17.  Tables
# 1-3 have boxes of at most 7 x 7 and table 4 of at least 23 x 23, so any rule
# from 49 to 528 unknowns gives them the same forms.
DENSE_BLOCK_MAX_UNKNOWNS = 441

# LocalSolves.add_to cuts a class's stretch of the gather into chunks of
# _CHUNK_ENTRIES // size whole members (at least one), the remainder spread
# over them.  No chunk is a short tail: OpenBLAS picks its kernel by the
# product's shape (gemv for one row, and for real entries another dgemm kernel
# for some short products), and those round a dense class's rows differently.
# So the chunked apply gives the bytes of one product per class on every layout
# of tables 1-4 (OpenBLAS 0.3.31).  Three complex chunk buffers of this size
# take 1.6 MB, within a 2 MB L2 cache.
_CHUNK_ENTRIES = 32768


class LocalLayout:
    """The part of LocalSolves that k does not change, for the problems of one grid.

    Holds the interval classes of decomposition (classes[a] is interval a's
    class, as decomposition.interval_classes numbers them) and the first
    interval of each, the gather, the (start, stop, Y class, X class) of
    each block class's stretch of it, and a linalg.Eigenbases for the
    interval pencils.  The classes found for one problem hold for every
    problem on the decomposition's grid: MP1's T and W do not depend on k,
    and k sets only the diagonal of MP2's T at the two end nodes of a line,
    to 1/h^2 - ik/h, a value no other diagonal entry takes, so two
    intervals' restrictions are equal at every k or at none.
    """

    def __init__(self, decomposition: Decomposition, classes: np.ndarray):
        members = [np.flatnonzero(classes == c) for c in range(classes.max() + 1)]
        self.decomposition = decomposition
        self.firsts = [m[0] for m in members]
        self.bases = linalg.Eigenbases()
        gather, self.stretches = [], []
        start = 0
        # the block classes are the (Y class, X class) pairs, in the order of their first subdomains
        for cy, cx in itertools.product(range(len(members)), repeat=2):
            gather.append(box_indices(decomposition, members[cy], members[cx]).ravel())
            self.stretches.append((start, start + len(gather[-1]), cy, cx))
            start += len(gather[-1])
        self.gather = np.concatenate(gather)


class LocalSolves:
    """The one-level term sum_i R_i^T [D_i] (R_i A R_i^T)^{-1} R_i, batched by block class.

    Builds on layout, a LocalLayout of decomposition made for another problem
    on its grid, or, when none is given, classes the intervals of
    decomposition for problem (decomposition.interval_classes) and makes its
    own.  Takes the eigenbasis of each interval class's pencil from the
    layout's Eigenbases, and factors the block of each (Y class, X class)
    pair in the eigenbases of its two classes.  A class of at most
    DENSE_BLOCK_MAX_UNKNOWNS unknowns keeps its dense inverse, any other its
    KroneckerFactorization (see the module docstring).  Raises
    linalg.SingularMatrixError on a resonant block.  One object serves every
    preconditioner kind built on the same problem and decomposition, and
    records both.
    """

    def __init__(self, decomposition: Decomposition, problem: HelmholtzProblem, layout: LocalLayout | None = None):
        if problem.grid != decomposition.grid:
            raise ValueError(f"problem is assembled on {problem.grid}, decomposition built on {decomposition.grid}")
        if layout is None:
            classes, pencils = interval_classes(decomposition, problem)
            layout = LocalLayout(decomposition, classes)
        elif layout.decomposition is decomposition:
            pencils = interval_pencils(decomposition, problem, layout.firsts)
        else:
            raise ValueError("layout was made for another decomposition")
        self.decomposition = decomposition
        self.problem = problem
        self.layout = layout
        self.gather = layout.gather
        bases = [layout.bases(T, W) for T, W in pencils]
        self.classes = []  # (start, stop, solver) of each class's stretch of the gather
        for start, stop, cy, cx in layout.stretches:
            F = linalg.factorize_kronecker(bases[cy], bases[cx], problem.k)
            size = F.d.size
            if size > DENSE_BLOCK_MAX_UNKNOWNS:
                solver = F
            else:  # solved for the identity's columns: 3x less rounding than kron(Q_y, Q_x) @ ...
                solver = F.solve(np.eye(size).reshape(size, *F.d.shape)).reshape(size, size).T
            self.classes.append((start, stop, solver))
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
    """The two factored levels of one problem: the CoarseLevel that galerkin
    returns and the LocalSolves built for the same problem object.  Fixed
    after construction, but a call M(x) works in its LocalSolves' buffers: one
    LocalSolves must not be applied from two threads at once."""

    def __init__(self, kind: str, coarse_level: CoarseLevel, local_solves: LocalSolves):
        if kind not in PRECONDITIONER_KINDS:
            raise ValueError(f"unknown preconditioner {kind!r}, expected one of {PRECONDITIONER_KINDS}")
        if not isinstance(coarse_level, CoarseLevel):
            raise TypeError(f"coarse level must come from galerkin(), got {type(coarse_level).__name__}")
        if coarse_level.problem is not local_solves.problem:
            raise ValueError("coarse level was not factored for the local solves' problem; call galerkin() with it")
        self.kind = kind
        self.A = local_solves.problem.A
        self.coarse_level = coarse_level
        self.local_solves = local_solves

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.result_type(np.asarray(x).dtype, self.A.dtype))
        if x.shape[0] != self.A.shape[0]:
            raise ValueError(f"operator has dimension {self.A.shape[0]}, vector {x.shape[0]}")
        y = coarse_correct(self.coarse_level, x)
        if self.kind == "SHS2":
            r = self.A @ y
            np.subtract(x, r, out=r)
        else:
            r = x
        self.local_solves.add_to(r, y, weighted=self.kind != "AS2")
        return y
