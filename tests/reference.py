"""Reference operators the tests hold the package against, formed explicitly."""

import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from helmdd import linalg
from helmdd.coarse import coarse_correct
from helmdd.decomposition import box_indices


def r0(cs):
    """The 2D restriction R_0 = P(x)P of a coarse space."""
    r0 = sp.kron(cs.p, cs.p, format="csr")
    r0.sort_indices()
    return r0


def subdomains(dec):
    """The index set of every subdomain, in subdomain order."""
    return [box_indices(dec, [ay], [ax])[0] for ay in range(dec.p) for ax in range(dec.p)]


def weights(dec):
    """The diagonal of every D_i, in subdomain order."""
    return [1.0 / dec.multiplicity[idx] for idx in subdomains(dec)]


def generalized_eigenbasis(T, W):
    """(Lambda, Q, cond(Q)) of a complex pencil (T, W) from scipy's generalized
    eig (QZ; unit 2-norm columns of Q) and scipy's svdvals."""
    lam, q = scipy.linalg.eig(T, W)
    sv = scipy.linalg.svdvals(q)
    return lam, q, sv[0] / sv[-1]


def kronecker_solve(F, B):
    """A linalg.KroneckerFactorization F applied to B, one n_y x n_y and one
    n_x x n_x product per member of a stack B for each side, each in a new array."""
    return F.y.q @ ((F.y.v @ B @ F.x.v.T) / F.d) @ F.x.q.T


def coarse_correct_lu(cs, A, r):
    """R_0^T A_0^{-1} R_0 r with A_0 = R_0 A R_0^T formed and LU-factorized;
    r may be one vector or the columns of an array."""
    R0 = r0(cs)
    return R0.T @ linalg.solve(linalg.factorize(R0 @ A @ R0.T), R0 @ r)


def reference_preconditioner(kind, A, dec, cs, coarse=coarse_correct, order=None):
    """x -> the preconditioner applied to x, with one SuperLU factorization of
    each subdomain's block, made here, solved in a plain loop over the
    subdomains, taken in the given order (subdomain order by default);
    coarse(cs, r) is the coarse correction (the package's by default)."""
    blocks = [
        (idx, w, splu(sp.csc_matrix(A[idx][:, idx])))
        for idx, w in zip(subdomains(dec), weights(dec))
    ]
    if order is not None:
        blocks = [blocks[i] for i in order]

    def apply(x):
        z = coarse(cs, x)
        r = x - A @ z if kind == "SHS2" else x
        y = z.copy()
        for idx, w, lu in blocks:
            yi = lu.solve(r[idx])
            y[idx] += yi if kind == "AS2" else w * yi
        return y

    return apply
