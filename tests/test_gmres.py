import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from helmdd.coarse import build_hocs, galerkin
from helmdd.decomposition import extend_max, partition
from helmdd.discretization import Grid, assemble
from helmdd.gmres import GmresConfig, SolveReport, gmres
from helmdd.linalg import factorize, solve
from helmdd.schwarz import SchwarzPreconditioner


def well_conditioned_random(rng, n):
    """Random matrix with spectrum shifted safely away from zero."""
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return Q @ np.diag(rng.uniform(1.0, 2.0, n)) @ Q.T


def reference_gmres(apply_A, apply_M, b, rtol, max_iter, left):
    """Textbook GMRES as the reference path: modified Gram-Schmidt Arnoldi
    with a second full pass, and the least-squares problem
    min ||beta e_1 - H y|| solved from scratch by lstsq at every step.
    Returns the iteration count and the relative residual history."""
    op = (lambda v: apply_M(apply_A(v))) if left else (lambda v: apply_A(apply_M(v)))
    r0 = apply_M(b) if left else b
    beta = np.linalg.norm(r0)
    V = [r0 / beta]
    w = op(V[0])
    H = np.zeros((max_iter + 1, max_iter), dtype=np.result_type(V[0], w))
    history = [1.0]
    for j in range(max_iter):
        if j > 0:
            w = op(V[j])
        for _ in range(2):
            for i in range(j + 1):
                hij = np.vdot(V[i], w)
                H[i, j] += hij
                w = w - hij * V[i]
        H[j + 1, j] = np.linalg.norm(w)
        e1 = np.zeros(j + 2, dtype=H.dtype)
        e1[0] = beta
        y = np.linalg.lstsq(H[: j + 2, : j + 1], e1, rcond=None)[0]
        history.append(np.linalg.norm(e1 - H[: j + 2, : j + 1] @ y) / beta)
        if history[-1] <= rtol:
            x = np.array(V).T @ y
            if left or np.linalg.norm(b - apply_A(apply_M(x))) <= rtol * np.linalg.norm(b):
                return j + 1, np.array(history)
        V.append(w / H[j + 1, j])
    return max_iter, np.array(history)


class TestConfig:
    def test_defaults(self):
        cfg = GmresConfig()
        assert cfg.rtol == 1e-7 and cfg.max_iter == 100 and cfg.side == "right"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rtol": 0.0},
            {"rtol": -1e-3},
            {"rtol": float("nan")},
            {"rtol": float("inf")},
            {"max_iter": 0},
            {"side": "middle"},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            GmresConfig(**kwargs)


def test_identity_converges_in_one_iteration():
    b = np.array([3.0, -1.0, 2.0])
    report = gmres(np.eye(3), None, b)
    assert report.converged and report.iterations == 1
    assert np.allclose(report.x, b)


def test_random_dense_matches_direct_solve():
    rng = np.random.default_rng(12)
    A = well_conditioned_random(rng, 30)
    b = rng.standard_normal(30)
    report = gmres(A, None, b, GmresConfig(rtol=1e-9, max_iter=60))
    assert report.converged and report.iterations <= 30
    x_direct = np.linalg.solve(A, b)
    assert np.linalg.norm(report.x - x_direct) <= 1e-8 * np.linalg.norm(x_direct)


def test_residuals_match_krylov_least_squares_oracle():
    """At every step the residual equals the brute-force minimum of
    ||b - A x|| over the Krylov space, found by dense least squares."""
    rng = np.random.default_rng(23)
    n, steps = 12, 6
    A = well_conditioned_random(rng, n)
    b = rng.standard_normal(n)
    report = gmres(A, None, b, GmresConfig(rtol=1e-30, max_iter=steps))
    K = np.empty((n, steps))
    v = b.copy()
    for j in range(steps):
        K[:, j] = v / np.linalg.norm(v)
        v = A @ K[:, j]
    for j in range(1, steps + 1):
        y = np.linalg.lstsq(A @ K[:, :j], b, rcond=None)[0]
        best = np.linalg.norm(b - A @ (K[:, :j] @ y)) / np.linalg.norm(b)
        got = report.residual_history[j]
        assert abs(got - best) < 1e-10 * max(best, 1e-30)


@pytest.mark.parametrize("side", ["left", "right"])
def test_exact_preconditioner_one_iteration(side):
    rng = np.random.default_rng(3)
    A = sp.csr_matrix(well_conditioned_random(rng, 15))
    F = factorize(A)
    b = rng.standard_normal(15)
    report = gmres(A, lambda r: solve(F, r), b, GmresConfig(side=side))
    assert report.converged and report.iterations == 1


@pytest.mark.parametrize("side", ["left", "right"])
def test_iteration_count_invariant_under_rhs_scaling(side):
    rng = np.random.default_rng(31)
    A = well_conditioned_random(rng, 25)
    b = rng.standard_normal(25)
    r1 = gmres(A, None, b, GmresConfig(side=side))
    r2 = gmres(A, None, 5.0 * b, GmresConfig(side=side))
    assert r1.iterations == r2.iterations
    assert r1.converged == r2.converged


@pytest.mark.parametrize("side", ["left", "right"])
def test_iteration_count_invariant_under_operator_scaling(side):
    """Scaling A by c leaves the Krylov basis and the relative residuals
    unchanged, so no scale may look like a breakdown."""
    rng = np.random.default_rng(37)
    A = well_conditioned_random(rng, 20)
    b = rng.standard_normal(20)
    reports = {c: gmres(c * A, None, b, GmresConfig(side=side)) for c in (1e-20, 1.0, 1e20)}
    for c, report in reports.items():
        assert report.converged and not report.breakdown, c
        assert report.iterations == reports[1.0].iterations, c
        assert np.linalg.norm(b - c * A @ report.x) <= 1e-7 * np.linalg.norm(b)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(5, 40),
    is_complex=st.booleans(),
    side=st.sampled_from(["left", "right"]),
)
def test_matches_reference_gmres_on_random_systems(seed, n, is_complex, side):
    rng = np.random.default_rng(seed)
    A = well_conditioned_random(rng, n)
    M_inv = well_conditioned_random(rng, n)
    b = rng.standard_normal(n)
    if is_complex:
        A = A + 1j * 0.1 * rng.standard_normal((n, n))
        b = b + 1j * rng.standard_normal(n)
    cfg = GmresConfig(side=side)
    report = gmres(A, M_inv, b, cfg)
    iterations, history = reference_gmres(
        lambda v: A @ v, lambda v: M_inv @ v, b, cfg.rtol, cfg.max_iter, side == "left"
    )
    assert report.iterations == iterations
    # atol: lstsq's residual carries an absolute error of a few eps * beta,
    # which only shows once the Krylov space holds the exact solution
    np.testing.assert_allclose(report.residual_history, history, rtol=1e-10, atol=1e-13)


@pytest.mark.parametrize("problem, kind", [("MP2", "SHS2"), ("MP1", "AS2")])
def test_matches_reference_gmres_on_table_cells(problem, kind):
    """k = 20, n = 81, HOCS, as in the built-in tables (left preconditioning)."""
    grid = Grid(81, "dirichlet" if problem == "MP1" else "sommerfeld")
    prob = assemble(grid, 20.0, problem)
    M = SchwarzPreconditioner(
        kind, prob, extend_max(partition(grid, 20)), galerkin(build_hocs(grid, 4), prob)
    )
    cfg = GmresConfig(side="left")
    report = gmres(prob.A, M, prob.f, cfg)
    iterations, _ = reference_gmres(
        lambda v: prob.A @ v, M, prob.f, cfg.rtol, cfg.max_iter, left=True
    )
    assert report.converged
    assert report.iterations == iterations


def test_residual_history_nonincreasing():
    rng = np.random.default_rng(8)
    A = well_conditioned_random(rng, 40)
    b = rng.standard_normal(40)
    report = gmres(A, None, b, GmresConfig(rtol=1e-12, max_iter=40))
    h = report.residual_history
    assert np.all(h[1:] <= h[:-1] + 1e-12)
    assert h[0] == 1.0


def test_max_iter_reached_reports_nonconvergence():
    rng = np.random.default_rng(19)
    A = well_conditioned_random(rng, 30)
    b = rng.standard_normal(30)
    report = gmres(A, None, b, GmresConfig(rtol=1e-14, max_iter=3))
    assert not report.converged
    assert report.iterations == 3
    assert report.final_residual > 1e-14


def test_happy_breakdown_with_low_degree_operator():
    # minimal polynomial degree 2: solution is exact after two steps
    A = np.diag([2.0, 2.0, 2.0, 5.0])
    b = np.ones(4)
    report = gmres(A, None, b, GmresConfig(rtol=1e-12))
    assert report.converged and report.iterations == 2
    assert not report.breakdown
    assert np.allclose(report.x, b / np.diag(A))


def test_complex_system():
    rng = np.random.default_rng(5)
    A = well_conditioned_random(rng, 20) + 1j * 0.1 * rng.standard_normal((20, 20))
    b = rng.standard_normal(20) + 1j * rng.standard_normal(20)
    report = gmres(A, None, b, GmresConfig(rtol=1e-10, max_iter=40))
    assert report.converged
    assert np.linalg.norm(b - A @ report.x) <= 1e-9 * np.linalg.norm(b)


def test_zero_rhs_rejected():
    with pytest.raises(ValueError, match="nonzero"):
        gmres(np.eye(3), None, np.zeros(3))


def test_true_residual_reported():
    rng = np.random.default_rng(44)
    A = well_conditioned_random(rng, 10)
    b = rng.standard_normal(10)
    report = gmres(A, None, b, GmresConfig(rtol=1e-9))
    actual = np.linalg.norm(b - A @ report.x) / np.linalg.norm(b)
    assert report.final_residual == pytest.approx(actual, rel=1e-6, abs=1e-14)
    assert report.final_residual <= 1e-9


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_converges_on_random_spd_like_systems(seed):
    rng = np.random.default_rng(seed)
    A = well_conditioned_random(rng, 18)
    b = rng.standard_normal(18)
    report = gmres(A, None, b, GmresConfig(rtol=1e-8, max_iter=18))
    assert report.converged
    assert np.linalg.norm(b - A @ report.x) <= 1e-7 * np.linalg.norm(b)


def test_report_is_dataclass_with_timings():
    report = gmres(np.eye(2), None, np.ones(2))
    assert isinstance(report, SolveReport)
    assert report.wall_seconds >= 0.0
