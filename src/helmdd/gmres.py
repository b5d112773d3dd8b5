"""Full (non-restarted) preconditioned GMRES with classical Gram-Schmidt
run twice.

Right preconditioning (the default) runs Arnoldi on A M^{-1} and stops on
the true relative residual ||b - A x_j|| / ||b||; the Givens-rotation
residual estimate equals that quantity in exact arithmetic, and whenever
the estimate crosses the tolerance the solution is formed and the true
residual verified before convergence is declared.  Left preconditioning
runs Arnoldi on M^{-1} A and stops on the preconditioned relative residual
||M^{-1}(b - A x_j)|| / ||M^{-1} b||, matching the convention of common
solver environments.

Each new Krylov vector w is orthogonalized against the basis V_j by
classical Gram-Schmidt run twice, always: each pass forms h = V_j^H w and
w <- w - V_j h as two block products over the whole basis.  Two passes
give orthogonality at the level of machine precision unless w is
numerically in the span of V_j, which is a breakdown (Giraud, Langou &
Rozloznik, "The loss of orthogonality in the Gram-Schmidt
orthogonalization process", Comput. Math. Appl. 50, 2005).  Breakdown is
declared when orthogonalization leaves less than 1e-14 of the norm w had
before it, a test that does not depend on the scale of the operator.

The basis V is allocated uninitialised (np.empty).  Row j + 1 is written
at step j before any step reads it, and a breakdown at step j ends the
loop before row j + 1 is read, so the solution is formed from written rows
only.  H, g and the Givens arrays are zeroed, since the solution's
triangular solve reads the lower part of H, which is never written.
Across an operator application GMRES holds the basis, b and the small
Hessenberg arrays, and no other vector of length N: r0 and q0 are dropped
once V[0] holds q0, and each w once V[j + 1] holds it.  The apply's operand
is a view of the basis under right preconditioning and A V[j] under left.
A zeroed basis would be written in full, not just in the rows used, when
the allocator serves it from the heap (measured in CHANGES.md, "GMRES
solves hold only the memory they read").
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

BREAKDOWN_THRESHOLD = 1e-14


@dataclass(frozen=True)
class GmresConfig:
    rtol: float = 1e-7
    max_iter: int = 100
    side: str = "right"

    def __post_init__(self):
        # bool is an Integral subclass, and True is no tolerance or count
        rtol, max_iter = self.rtol, self.max_iter
        if isinstance(rtol, bool) or not (isinstance(rtol, numbers.Real) and 0 < rtol < math.inf):
            raise ValueError(f"rtol must be a finite positive number, got {rtol!r}")
        if isinstance(max_iter, bool) or not (isinstance(max_iter, numbers.Integral) and max_iter >= 1):
            raise ValueError(f"max_iter must be an integer >= 1, got {max_iter!r}")
        if self.side not in ("left", "right"):
            raise ValueError(f"preconditioning side must be 'left' or 'right', got {self.side!r}")


@dataclass
class SolveReport:
    """Outcome of one GMRES solve; iterations is the Table entry."""

    iterations: int
    converged: bool
    residual_history: np.ndarray
    final_residual: float
    breakdown: bool
    x: np.ndarray


def _as_operator(op):
    if op is None:
        return lambda x: x
    if callable(op):
        return op
    return lambda x: op @ x


def gmres(A, M_inv, b: np.ndarray, cfg: GmresConfig = GmresConfig()) -> SolveReport:
    """Solve A x = b with preconditioner application M_inv (may be None).

    A and M_inv may be matrices or callables.  Returns the report; the
    solution vector is available as report.x.
    """
    apply_A = _as_operator(A)
    apply_M = _as_operator(M_inv)
    b = np.asarray(b)
    bnorm = np.linalg.norm(b)
    if not 0.0 < bnorm < math.inf:  # also NaN
        raise ValueError("right-hand side must be nonzero and finite")
    n = b.shape[0]
    left = cfg.side == "left"

    r0 = apply_M(b) if left else b
    r0norm = np.linalg.norm(r0)
    q0 = r0 / r0norm
    del r0
    # first operator application decides the working scalar kind
    w = apply_M(apply_A(q0)) if left else apply_A(apply_M(q0))
    dtype = np.result_type(q0.dtype, w.dtype)

    mi = cfg.max_iter
    V = np.empty((mi + 1, n), dtype=dtype)  # row j + 1 is written before it is read
    H = np.zeros((mi + 1, mi), dtype=dtype)  # the solution's solve reads the unwritten lower part
    givens_c = np.zeros(mi, dtype=dtype)
    givens_s = np.zeros(mi, dtype=dtype)
    g = np.zeros(mi + 1, dtype=dtype)
    V[0] = q0
    del q0
    g[0] = r0norm
    history = [1.0]

    for j in range(mi):
        if j > 0:
            w = apply_M(apply_A(V[j])) if left else apply_A(apply_M(V[j]))
            w = w.astype(dtype, copy=False)
        # classical Gram-Schmidt, twice; V_j^H w without a conjugated copy of
        # V_j (conj of a real array is a view, so real bases pay nothing)
        Vj = V[: j + 1]
        wnorm = np.linalg.norm(w)
        for _ in range(2):
            h = (Vj @ w.conj()).conj()
            H[: j + 1, j] += h
            w = w - h @ Vj
        hnext = np.linalg.norm(w)
        H[j + 1, j] = hnext
        breakdown = bool(hnext <= BREAKDOWN_THRESHOLD * wnorm)
        if not breakdown:
            V[j + 1] = w / hnext
        del w  # not held across the next operator application

        # update the QR of H with Givens rotations
        for i in range(j):
            t = givens_c[i] * H[i, j] + givens_s[i] * H[i + 1, j]
            H[i + 1, j] = -np.conj(givens_s[i]) * H[i, j] + givens_c[i] * H[i + 1, j]
            H[i, j] = t
        a, hh = H[j, j], H[j + 1, j]
        rr = np.sqrt(np.abs(a) ** 2 + np.abs(hh) ** 2)
        if rr == 0.0:
            givens_c[j], givens_s[j] = 1.0, 0.0
        elif a == 0.0:
            givens_c[j], givens_s[j] = 0.0, np.conj(hh) / rr
        else:
            givens_c[j] = np.abs(a) / rr
            givens_s[j] = (a / np.abs(a)) * np.conj(hh) / rr
        H[j, j] = givens_c[j] * a + givens_s[j] * hh
        H[j + 1, j] = 0.0
        g[j + 1] = -np.conj(givens_s[j]) * g[j]
        g[j] = givens_c[j] * g[j]

        estimate = float(np.abs(g[j + 1]) / r0norm)
        history.append(estimate)

        crossed = estimate <= cfg.rtol or breakdown  # breakdown: the basis can grow no further
        if crossed or j == mi - 1:
            Hj, gj = H[: j + 1, : j + 1], g[: j + 1]
            try:
                y = np.linalg.solve(Hj, gj)
            except np.linalg.LinAlgError:  # stagnated basis on a singular operator
                y = np.linalg.lstsq(Hj, gj, rcond=None)[0]
            x = V[: j + 1].T @ y if left else apply_M(V[: j + 1].T @ y)
            true_rel = float(np.linalg.norm(b - apply_A(x)) / bnorm)
            converged = crossed and (estimate <= cfg.rtol if left else true_rel <= cfg.rtol)
            if converged or breakdown:
                break
            # estimate crossed the tolerance but the true residual has not: keep going

    return SolveReport(
        iterations=j + 1,
        converged=converged,
        residual_history=np.asarray(history),
        final_residual=true_rel,
        breakdown=breakdown and not converged,
        x=x,
    )
