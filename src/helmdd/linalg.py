"""Sparse direct factorization.

Matrices are scipy CSR/CSC matrices over float64 or complex128; the same
code path serves both scalar kinds. Factorization is SuperLU (LU with
partial pivoting on a fill-reducing column ordering), which handles the
indefinite symmetric systems produced by the discretization, where a
Cholesky factorization would fail.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import SuperLU, splu

# Pivots below this fraction of the largest matrix entry are treated as a
# singular factorization (typically a coarse problem at a resonance).
PIVOT_RTOL = 1e-14


class SingularMatrixError(ValueError):
    """Factorization hit an (almost) exactly zero pivot."""


@dataclass
class SparseFactorization:
    """LU factors of a square sparse matrix, ready for repeated solves."""

    lu: SuperLU
    n: int

    @property
    def fill_nnz(self) -> int:
        return self.lu.L.nnz + self.lu.U.nnz


def factorize(A) -> SparseFactorization:
    """LU-factorize a square sparse matrix.

    Raises SingularMatrixError when a pivot falls below PIVOT_RTOL times
    the largest entry of A; near-singular coarse matrices are surfaced
    rather than silently perturbed, since a perturbed solve would corrupt
    iteration counts.
    """
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"matrix must be square, got {A.shape}")
    A = sp.csc_matrix(A)
    scale = np.abs(A.data).max() if A.nnz else 0.0
    if scale == 0.0:
        raise SingularMatrixError("matrix has no nonzero entries")
    try:
        lu = splu(A)
    except RuntimeError as exc:  # SuperLU reports exact singularity this way
        raise SingularMatrixError(str(exc)) from exc
    pivots = np.abs(lu.U.diagonal())
    if pivots.min() < PIVOT_RTOL * scale:
        raise SingularMatrixError(
            f"near-zero pivot {pivots.min():.3e} (matrix scale {scale:.3e})"
        )
    return SparseFactorization(lu=lu, n=A.shape[0])


def solve(F: SparseFactorization, b: np.ndarray) -> np.ndarray:
    """Solve A x = b using a previously computed factorization."""
    b = np.asarray(b)
    if b.shape[0] != F.n:
        raise ValueError(f"dimension mismatch: factorization is {F.n}, vector has length {b.shape[0]}")
    return F.lu.solve(b)
