"""Reference operators the tests hold the package against, formed explicitly."""

import scipy.sparse as sp

from helmdd import linalg


def r0(cs):
    """The 2D restriction R_0 = P(x)P of a coarse space."""
    r0 = sp.kron(cs.p, cs.p, format="csr")
    r0.sort_indices()
    return r0


def weights(dec):
    """The diagonals of every D_i, aligned with dec.indices."""
    return 1.0 / dec.multiplicity[dec.indices]


def coarse_correct_lu(cs, A, r):
    """R_0^T A_0^{-1} R_0 r with A_0 = R_0 A R_0^T formed and LU-factorized;
    r may be one vector or the columns of an array."""
    R0 = r0(cs)
    return R0.T @ linalg.solve(linalg.factorize(R0 @ A @ R0.T), R0 @ r)
