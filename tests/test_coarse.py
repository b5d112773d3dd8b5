import itertools

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from dataclasses import replace
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helmdd import linalg
from helmdd.coarse import (
    _BEZIER_TAPS,
    _restriction_1d,
    build_focs,
    build_hocs,
    coarse_correct,
    galerkin,
)
from helmdd.discretization import Grid, assemble
from helmdd.linalg import SingularMatrixError, factorize, solve
from reference import coarse_correct_lu, r0, unknown_coords


def one_level_bezier_matrix(nf, dirichlet):
    """Dense one-level (1,4,6,4,1)/8 restriction, written out independently."""
    w = {-2: 1 / 8, -1: 4 / 8, 0: 6 / 8, 1: 4 / 8, 2: 1 / 8}
    M = (nf + 1) // 2
    S = np.zeros((M, nf))
    for I in range(M):
        for d, v in w.items():
            i = 2 * I + d
            if 0 <= i < nf:
                S[I, i] = v
    if dirichlet:
        S = S[1:-1, 1:-1]
    return S


def bezier_1d(grid, ratio):
    return _restriction_1d(grid, _BEZIER_TAPS, 2, int(np.log2(ratio)))


def hat_matrix(n, r, dirichlet):
    """Dense 1D hat sampling: entry (J, i) = max(0, 1 - |i - rJ|/r), written out independently."""
    P = np.zeros(((n - 1) // r + 1, n))
    for J in range(P.shape[0]):
        for i in range(n):
            if abs(i - r * J) < r:
                P[J, i] = 1.0 - abs(i - r * J) / r
    return P[1:-1, 1:-1] if dirichlet else P


class TestFocs:
    def test_one_dimensional_hat_weights(self):
        for ratio, bc, cells in itertools.product(range(1, 17), ("dirichlet", "sommerfeld"), (2, 3)):
            n = ratio * cells + 1
            P = hat_matrix(n, ratio, bc == "dirichlet")
            cs = build_focs(Grid(n, bc), ratio)
            assert np.array_equal(r0(cs).toarray(), np.kron(P, P)), (ratio, bc, n)
        P = hat_matrix(5, 2, dirichlet=False)
        # interior coarse node at fine node 2: weights (1/2, 1, 1/2)
        assert np.array_equal(P[1], [0.0, 0.5, 1.0, 0.5, 0.0])

    def test_linear_reproduction(self):
        g = Grid(9, "sommerfeld")
        cs = build_focs(g, 4)
        x, y = unknown_coords(g)
        field = x + y
        coarse_nodes = np.arange(0, g.n, 4) * g.h
        cx, cy = np.meshgrid(coarse_nodes, coarse_nodes, indexing="xy")
        coarse_vals = (cx + cy).ravel()
        assert np.abs(r0(cs).T @ coarse_vals - field).max() < 1e-14

    def test_dirichlet_excludes_boundary_coarse_nodes(self):
        cs = build_focs(Grid(81, "dirichlet"), 4)
        assert r0(cs).shape[0] == 19 * 19
        assert r0(cs).shape == (361, 79 * 79)

    def test_noninteger_ratio_rejected(self):
        with pytest.raises(ValueError):
            build_focs(Grid(9, "sommerfeld"), 3)


class TestHocs:
    def test_one_level_stencil_weights(self):
        S = bezier_1d(Grid(9, "sommerfeld"), 2).toarray()
        assert S[2, 2:7] == pytest.approx([0.125, 0.5, 0.75, 0.5, 0.125])

    def test_constant_restriction_weight_sum(self):
        S = bezier_1d(Grid(9, "sommerfeld"), 2)
        totals = S @ np.ones(9)
        assert totals[2] == pytest.approx(2.0)

    def test_two_level_composition_matches_explicit_product(self):
        # the taps are dyadic, so every product and sum below is exact; ratio 1 is the identity
        for ratio, bc, cells in itertools.product((1, 2, 4, 8, 16), ("dirichlet", "sommerfeld"), (1, 2, 3, 5)):
            n = ratio * cells + 1
            if n < 3:
                continue
            expected = np.eye(n - 2 if bc == "dirichlet" else n)
            nf = n
            while nf > cells + 1:
                expected = one_level_bezier_matrix(nf, bc == "dirichlet") @ expected
                nf = (nf + 1) // 2
            assert np.array_equal(bezier_1d(Grid(n, bc), ratio).toarray(), expected), (ratio, bc, n)
            R0 = r0(build_hocs(Grid(n, bc), ratio)).toarray()
            assert np.array_equal(R0, np.kron(expected, expected)), (ratio, bc, n)

    def test_boundary_taps_dropped(self):
        S = bezier_1d(Grid(9, "sommerfeld"), 2).toarray()
        # first coarse row loses its out-of-range taps; weights are not folded
        assert S[0, 0] == pytest.approx(0.75)
        assert S[0, 1] == pytest.approx(0.5)
        assert S[0, 2] == pytest.approx(0.125)
        assert S[0].sum() == pytest.approx(1.375)

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError, match="power-of-two"):
            build_hocs(Grid(13, "sommerfeld"), 6)

    def test_tensor_structure(self):
        g = Grid(17, "sommerfeld")
        cs = build_hocs(g, 4)
        P1 = bezier_1d(g, 4)
        rng = np.random.default_rng(5)
        u, v = rng.standard_normal(17), rng.standard_normal(17)
        sep = np.outer(v, u).ravel()  # index = iy*n + ix
        expected = np.outer(P1 @ v, P1 @ u).ravel()
        assert np.abs(r0(cs) @ sep - expected).max() < 1e-14


class TestGalerkin:
    def test_identity_operator(self):
        g = Grid(9, "sommerfeld")
        cs = build_focs(g, 2)
        # T = I/2, W = I and k = 0 make A = T(x)W + W(x)T - k^2 W(x)W the identity
        eye = sp.identity(g.unknowns_per_dim, format="csr")
        identity = replace(assemble(g, 1.0, "MP2"), T=0.5 * eye, W=eye, k=0.0)
        done = galerkin(cs, identity)
        expected = (r0(cs) @ r0(cs).T).toarray()
        assert np.abs(done.a0.toarray() - expected).max() < 1e-14
        ev = np.linalg.eigvalsh(done.a0.toarray())
        assert ev.min() > -1e-12

    def test_matches_dense_triple_product(self):
        g = Grid(17, "dirichlet")
        prob = assemble(g, 5.0, "MP1")
        cs = galerkin(build_hocs(g, 4), prob)
        dense = r0(cs).toarray() @ prob.A.toarray() @ r0(cs).toarray().T
        assert np.abs(cs.a0.toarray() - dense).max() < 1e-12 * np.abs(dense).max()

    def test_exact_symmetry(self):
        g = Grid(17, "sommerfeld")
        prob = assemble(g, 5.0, "MP2")
        cs = galerkin(build_hocs(g, 4), prob)
        skew = abs(cs.a0 - cs.a0.T)
        assert skew.nnz == 0 or skew.max() == 0.0

    def test_hocs_coarse_matrix_denser_than_focs(self):
        g = Grid(33, "dirichlet")
        prob = assemble(g, 5.0, "MP1")
        focs = galerkin(build_focs(g, 4), prob)
        hocs = galerkin(build_hocs(g, 4), prob)
        assert focs.a0.shape == hocs.a0.shape
        assert hocs.a0.nnz > focs.a0.nnz

    def test_bare_matrix_rejected(self):
        g = Grid(9, "sommerfeld")
        prob = assemble(g, 2.0, "MP2")
        for operator in (prob.A, sp.identity(7, format="csr")):
            with pytest.raises(TypeError, match="HelmholtzProblem"):
                galerkin(build_focs(g, 2), operator)

    def test_dimension_mismatch_rejected(self):
        cs = build_focs(Grid(9, "sommerfeld"), 2)
        with pytest.raises(ValueError):
            galerkin(cs, assemble(Grid(7, "sommerfeld"), 2.0, "MP2"))
        # same number of unknowns (961), different grid
        with pytest.raises(ValueError, match="coarse space is built on"):
            galerkin(build_focs(Grid(31, "sommerfeld"), 2), assemble(Grid(33, "dirichlet"), 5.0, "MP1"))


class TestCoarseCorrect:
    def test_zero_maps_to_zero(self):
        g = Grid(9, "dirichlet")
        prob = assemble(g, 2.0, "MP1")
        cs = galerkin(build_focs(g, 2), prob)
        out = coarse_correct(cs, np.zeros(g.num_unknowns))
        assert np.all(out == 0.0)

    def test_coarse_residual_vanishes_after_correction(self):
        g = Grid(17, "dirichlet")
        prob = assemble(g, 5.0, "MP1")
        cs = galerkin(build_hocs(g, 4), prob)
        rng = np.random.default_rng(2)
        b = rng.standard_normal(g.num_unknowns)
        lhs = r0(cs) @ (b - prob.A @ coarse_correct(cs, b))
        assert np.linalg.norm(lhs) < 1e-9 * np.linalg.norm(r0(cs) @ b)

    def test_full_space_ratio_one_is_exact_solve(self):
        g = Grid(9, "dirichlet")
        prob = assemble(g, 2.0, "MP1")
        cs = galerkin(build_focs(g, 1), prob)
        assert r0(cs).shape == (49, 49)
        rng = np.random.default_rng(4)
        r = rng.standard_normal(49)
        expected = solve(factorize(prob.A), r)
        assert np.abs(coarse_correct(cs, r) - expected).max() < 1e-10


def random_vector(rng, n, dtype):
    x = rng.standard_normal(n)
    return x + 1j * rng.standard_normal(n) if np.dtype(dtype).kind == "c" else x


@pytest.mark.parametrize("kind", ["FOCS", "HOCS"])
@pytest.mark.parametrize("problem", ["MP1", "MP2"])
def test_reference_correction_matches_explicit_r0(problem, kind):
    g = Grid(17, "dirichlet" if problem == "MP1" else "sommerfeld")
    prob = assemble(g, 5.0, problem)
    cs = galerkin((build_focs if kind == "FOCS" else build_hocs)(g, 4), prob)
    r = random_vector(np.random.default_rng(6), g.num_unknowns, prob.A.dtype)
    got = coarse_correct(cs, r)
    want = coarse_correct_lu(cs, prob.A, r)
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


@pytest.mark.parametrize("kind", ["FOCS", "HOCS"])
def test_reference_correction_of_complex_vector_on_real_matrix(kind):
    g = Grid(17, "dirichlet")
    prob = assemble(g, 5.0, "MP1")
    built = (build_focs if kind == "FOCS" else build_hocs)(g, 4)
    r = random_vector(np.random.default_rng(8), g.num_unknowns, complex)
    got = coarse_correct_lu(built, prob.A, r)
    want = coarse_correct(galerkin(built, prob), r)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("structured", [False, True], ids=["matrix", "problem"])
def test_rescaled_p_gives_same_correction(structured):
    g = Grid(17, "dirichlet")
    prob = assemble(g, 5.0, "MP1")
    space = build_hocs(g, 4)
    cs = galerkin(space, prob)
    scaled = galerkin(replace(space, p=(3.0 * space.p).tocsr()), prob)
    correct = coarse_correct if structured else (lambda cs, r: coarse_correct_lu(cs, prob.A, r))
    rng = np.random.default_rng(9)
    r = rng.standard_normal(g.num_unknowns)
    a, b = correct(cs, r), correct(scaled, r)
    assert np.abs(a - b).max() < 1e-12 * np.abs(a).max()


@st.composite
def coarse_cells(draw):
    """(problem, kind, ratio, n, k) with n = ratio * cells + 1 <= 129 and, for
    MP1, odd n and a coarse grid with an interior node."""
    problem = draw(st.sampled_from(["MP1", "MP2"]))
    kind = draw(st.sampled_from(["FOCS", "HOCS"]))
    ratio = draw(st.sampled_from([1, 2, 4, 8, 16] if kind == "HOCS" else list(range(1, 17))))
    cells = draw(st.integers(2, 128 // ratio))
    if problem == "MP1" and ratio * cells % 2:
        cells -= 1
    n = ratio * cells + 1
    k = draw(st.floats(0.5, 60.0))
    return problem, kind, ratio, n, k


@settings(max_examples=40, deadline=None)
@given(cell=coarse_cells(), seed=st.integers(0, 2**32 - 1))
@example(cell=("MP1", "FOCS", 1, 3, 4.0), seed=0)  # one unknown and A = 8 + 8 - 4^2 = 0
def test_kronecker_path_matches_sparse_lu(cell, seed):
    problem, kind, ratio, n, k = cell
    g = Grid(n, "dirichlet" if problem == "MP1" else "sommerfeld")
    prob = assemble(g, k, problem)
    built = (build_focs if kind == "FOCS" else build_hocs)(g, ratio)
    r = random_vector(np.random.default_rng(seed), g.num_unknowns, prob.A.dtype)
    try:
        a = coarse_correct_lu(built, prob.A, r)
    except SingularMatrixError:  # an exactly resonant cell must be rejected by both paths
        with pytest.raises(SingularMatrixError):
            galerkin(built, prob)
        return
    structured = galerkin(built, prob)
    assert isinstance(structured.factorization, linalg.KroneckerFactorization)
    generic = r0(built) @ prob.A @ r0(built).T
    scale = abs(generic).max()
    assert abs(structured.a0 - generic).max() <= 1e-12 * scale
    b = coarse_correct(structured, r)
    assert np.linalg.norm(a - b) <= 1e-10 * np.linalg.norm(a)


@pytest.mark.parametrize("i, j", [(0, 0), (1, 3), (4, 2)])
def test_resonant_coarse_mode_is_named(i, j):
    g = Grid(33, "dirichlet")
    built = build_hocs(g, 4)
    P, T = built.p.toarray(), assemble(g, 1.0, "MP1").T.toarray()
    lam = scipy.linalg.eigvalsh(P @ T @ P.T, P @ P.T)  # MP1's T and W = I do not depend on k
    prob = assemble(g, float(np.sqrt(lam[i] + lam[j])), "MP1")
    with pytest.raises(SingularMatrixError, match=rf"\({min(i, j)}, {max(i, j)}\)"):
        galerkin(built, prob)


def test_ill_conditioned_eigenvectors_are_rejected(monkeypatch):
    g = Grid(33, "sommerfeld")
    prob = assemble(g, 8.0, "MP2")
    monkeypatch.setattr(linalg, "EIGENVECTOR_COND_LIMIT", 1.0)
    with pytest.raises(SingularMatrixError, match="condition number"):
        galerkin(build_hocs(g, 4), prob)
