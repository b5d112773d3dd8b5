import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helmdd.discretization import (
    Grid,
    ResonantWavenumberError,
    analytical_mp1,
    assemble,
    kronecker_sum,
    regime,
)
from helmdd.linalg import factorize, solve
from reference import unknown_coords


def mp2_dense_oracle(n, k):
    """Entry-by-entry assembly: 5-point stencil, ghost-point substitution at
    the boundary (u_ghost = u_mirror + 2ikh u_center), rows scaled by the
    boundary weight so the result is symmetric."""
    h = 1.0 / (n - 1)
    A = np.zeros((n * n, n * n), dtype=complex)

    def wt(i):
        return 0.5 if i in (0, n - 1) else 1.0

    for iy in range(n):
        for ix in range(n):
            row = iy * n + ix
            w = wt(ix) * wt(iy)
            diag = 4.0 / h**2 - k**2
            for dx, dy in [(-1, 0), (1, 0), (0, -1), (0, 1)]:
                jx, jy = ix + dx, iy + dy
                if 0 <= jx < n and 0 <= jy < n:
                    A[row, jy * n + jx] += -w / h**2
                else:
                    mx, my = ix - dx, iy - dy
                    A[row, my * n + mx] += -w / h**2
                    diag += -2j * k / h
            A[row, row] += w * diag
    return A


class TestAssembleMP1:
    def test_single_unknown_laplace(self):
        prob = assemble(Grid(3, "dirichlet"), 0.0, "MP1")
        assert prob.A.shape == (1, 1)
        assert prob.A[0, 0] == pytest.approx(16.0)
        assert prob.f == pytest.approx([4.0])

    def test_single_unknown_shifted(self):
        prob = assemble(Grid(3, "dirichlet"), 1.0, "MP1")
        assert prob.A[0, 0] == pytest.approx(15.0)

    def test_real_dtype_and_size(self):
        prob = assemble(Grid(9, "dirichlet"), 5.0, "MP1")
        assert prob.A.dtype == np.float64
        assert prob.A.shape == (49, 49)

    def test_load_is_delta_at_center(self):
        g = Grid(9, "dirichlet")
        prob = assemble(g, 5.0, "MP1")
        nz = np.nonzero(prob.f)[0]
        assert list(nz) == [g.unknown_index(4, 4)]
        assert prob.f[nz[0]] == pytest.approx((9 - 1) ** 2)

    def test_even_n_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            assemble(Grid(8, "dirichlet"), 5.0, "MP1")

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            assemble(Grid(5, "dirichlet"), -1.0, "MP1")

    def test_bc_mismatch_rejected(self):
        with pytest.raises(ValueError):
            assemble(Grid(5, "sommerfeld"), 1.0, "MP1")


class TestAssembleMP2:
    def test_matches_dense_oracle(self):
        n, k = 5, 10.0
        prob = assemble(Grid(n, "sommerfeld"), k, "MP2")
        expected = mp2_dense_oracle(n, k)
        assert np.abs(prob.A.toarray() - expected).max() < 1e-12

    def test_all_nodes_are_unknowns(self):
        prob = assemble(Grid(5, "sommerfeld"), 2.0, "MP2")
        assert prob.A.shape == (25, 25)
        assert prob.A.dtype == np.complex128

    def test_imaginary_only_on_boundary_diagonals(self):
        n = 7
        g = Grid(n, "sommerfeld")
        A = assemble(g, 3.0, "MP2").A.tocoo()
        boundary = set()
        for t in range(n):
            for b in (0, n - 1):
                boundary.add(g.unknown_index(t, b))
                boundary.add(g.unknown_index(b, t))
        for r, c, v in zip(A.row, A.col, A.data):
            if v.imag != 0.0:
                assert r == c and r in boundary

    def test_interior_rows_match_mp1_stencil(self):
        n, k = 9, 4.0
        g1, g2 = Grid(n, "dirichlet"), Grid(n, "sommerfeld")
        A1 = assemble(g1, k, "MP1").A.toarray()
        A2 = assemble(g2, k, "MP2").A.toarray()
        for iy in range(1, n - 1):
            for ix in range(1, n - 1):
                r1, r2 = g1.unknown_index(ix, iy), g2.unknown_index(ix, iy)
                assert A2[r2, r2] == pytest.approx(A1[r1, r1])
                for dx, dy in [(-1, 0), (1, 0), (0, -1), (0, 1)]:
                    jx, jy = ix + dx, iy + dy
                    if 1 <= jx <= n - 2 and 1 <= jy <= n - 2:
                        c1 = g1.unknown_index(jx, jy)
                        c2 = g2.unknown_index(jx, jy)
                        assert A2[r2, c2] == pytest.approx(A1[r1, c1])


@pytest.mark.parametrize(
    "n,k,problem,bc",
    [
        (9, 5.0, "MP1", "dirichlet"),
        (13, 11.0, "MP1", "dirichlet"),
        (6, 4.0, "MP2", "sommerfeld"),
        (9, 12.0, "MP2", "sommerfeld"),
    ],
)
def test_assembled_matrix_exactly_symmetric(n, k, problem, bc):
    A = assemble(Grid(n, bc), k, problem).A
    skew = abs(A - A.T)
    assert skew.nnz == 0 or skew.max() == 0.0


def assert_same_csr(got, want):
    assert got.dtype == want.dtype
    for attr in ("indptr", "indices", "data"):
        assert getattr(got, attr).dtype == getattr(want, attr).dtype, attr
        assert getattr(got, attr).tobytes() == getattr(want, attr).tobytes(), attr
    assert got.has_sorted_indices == want.has_sorted_indices


@settings(max_examples=80, deadline=None)
@given(
    cell=st.one_of(
        st.tuples(st.just("MP1"), st.integers(1, 20).map(lambda i: 2 * i + 1)),
        st.tuples(st.just("MP2"), st.integers(3, 40)),
    ),
    k=st.floats(0.0, 80.0),
)
@example(cell=("MP1", 3), k=5.0)  # one unknown: the +-1 and +-m offsets coincide
@example(cell=("MP1", 5), k=8.0)  # the diagonal 4 * 16 - 8^2 is exactly 0
@example(cell=("MP2", 3), k=0.0)
def test_banded_assembly_matches_kronecker_sum(cell, k):
    problem, n = cell
    prob = assemble(Grid(n, "dirichlet" if problem == "MP1" else "sommerfeld"), k, problem)
    assert_same_csr(prob.A, kronecker_sum(prob.T, prob.W, k))


def test_exactly_zero_diagonal_is_dropped():
    A = assemble(Grid(5, "dirichlet"), 8.0, "MP1").A
    assert A.nnz == 24 and not A.diagonal().any()


def test_assemble_never_calls_kron(monkeypatch):
    cells = [(Grid(9, "dirichlet"), 5.0, "MP1"), (Grid(8, "sommerfeld"), 3.0, "MP2")]
    want = [kronecker_sum(prob.T, prob.W, prob.k) for prob in (assemble(*c) for c in cells)]

    def refuse(*args, **kwargs):
        raise AssertionError("sp.kron called")

    monkeypatch.setattr(sp, "kron", refuse)
    for c, A in zip(cells, want):
        assert_same_csr(assemble(*c).A, A)


class TestAnalyticalMP1:
    def test_boundary_is_exactly_zero(self):
        assert analytical_mp1(3.0, (0.0, 0.5)) == 0.0
        assert analytical_mp1(3.0, (1.0, 0.25)) == 0.0
        assert analytical_mp1(3.0, (0.3, 1.0)) == 0.0

    def test_truncation_self_consistency(self):
        u200 = analytical_mp1(1.0, (0.25, 0.25), 200)
        u400 = analytical_mp1(1.0, (0.25, 0.25), 400)
        assert abs(u200 - u400) < 1e-3

    def test_source_symmetry(self):
        k, M = 7.0, 201
        u = analytical_mp1(k, (0.3, 0.2), M)
        assert abs(analytical_mp1(k, (0.2, 0.3), M) - u) < 1e-13 * max(abs(u), 1)
        assert abs(analytical_mp1(k, (0.7, 0.2), M) - u) < 1e-13 * max(abs(u), 1)

    def test_resonant_wavenumber_rejected(self):
        with pytest.raises(ResonantWavenumberError):
            analytical_mp1(np.pi * np.sqrt(2.0), (0.3, 0.4))

    def test_point_outside_domain_rejected(self):
        with pytest.raises(ValueError):
            analytical_mp1(3.0, (1.5, 0.5))


class TestRegime:
    def test_table_fine_resolution(self):
        assert regime(20.0, 1.0 / 80, 1.0 / 20).kappa_h == pytest.approx(0.25)

    def test_table_coarse_resolution(self):
        assert regime(20.0, 1.0 / 80, 1.0 / 20).kappa_H == pytest.approx(1.0)

    def test_flags_inclusive_at_boundary(self):
        rep = regime(1.0, 1.0, 1.0)
        assert rep.pollution_metric == 1.0
        assert rep.kappa_H_ok
        assert not rep.kappa_h_ok  # kappa_h = 1 > 0.25

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            regime(0.0, 0.1, 0.2)


def test_manufactured_solution_second_order():
    """u* = sin(pi x) sin(pi y), f* = (2 pi^2 - k^2) u*: error ratio per
    refinement must sit in [3.5, 4.5]."""
    k = 3.0
    errors = []
    for n in (17, 33, 65, 129):
        g = Grid(n, "dirichlet")
        prob = assemble(g, k, "MP1")
        x, y = unknown_coords(g)
        ustar = np.sin(np.pi * x) * np.sin(np.pi * y)
        f = (2 * np.pi**2 - k**2) * ustar
        u = solve(factorize(prob.A), f)
        errors.append(np.abs(u - ustar).max())
    ratios = [errors[i] / errors[i + 1] for i in range(len(errors) - 1)]
    assert all(3.5 <= r <= 4.5 for r in ratios), ratios


def test_discrete_solution_approaches_series_oracle():
    """Error against the sine-series oracle decreases monotonically at
    probes at distance >= 0.25 from the source across three refinements."""
    k, M = 6.0, 401
    probes = [(0.25, 0.25), (0.125, 0.25), (0.75, 0.25)]
    exact = {p: analytical_mp1(k, p, M) for p in probes}
    errs = []
    for n in (9, 17, 33, 65):
        g = Grid(n, "dirichlet")
        prob = assemble(g, k, "MP1")
        u = solve(factorize(prob.A), prob.f)
        err = 0.0
        for px, py in probes:
            idx = g.unknown_index(round(px * (n - 1)), round(py * (n - 1)))
            err = max(err, abs(u[idx] - exact[(px, py)]))
        errs.append(err)
    assert all(errs[i + 1] < errs[i] for i in range(3)), errs
