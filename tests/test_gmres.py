import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from helmdd.coarse import build_focs, build_hocs, galerkin
from helmdd.decomposition import extend_max, partition
from helmdd.discretization import Grid, assemble
from helmdd.gmres import GmresConfig, SolveReport, gmres
from helmdd.linalg import factorize, solve
from helmdd.schwarz import LocalSolves, SchwarzPreconditioner
from reference import direct_solve


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
            {"max_iter": True},  # a bool is not a count
            {"rtol": True},
            {"max_iter": 10.0},
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
    cs = galerkin(build_hocs(grid, 4), prob)
    M = SchwarzPreconditioner(kind, cs, LocalSolves(extend_max(partition(grid, 20)), prob))
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


@pytest.mark.parametrize("entry", [0.0, np.nan, np.inf], ids=["zero", "nan", "inf"])
def test_zero_rhs_rejected(entry):
    """A zero or non-finite b is rejected before any iteration."""
    with pytest.raises(ValueError, match="nonzero"):
        gmres(np.eye(3), None, np.array([entry, 0.0, 0.0]))


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


def test_report_is_dataclass_without_timings():
    """A report holds the solve's outcome; the caller times the solve."""
    report = gmres(np.eye(2), None, np.ones(2))
    assert isinstance(report, SolveReport)
    names = [f.name for f in fields(report)]
    assert names == ["iterations", "converged", "residual_history", "final_residual", "breakdown", "x"]


@pytest.mark.parametrize("k", [20, 40, 60])
@pytest.mark.parametrize("problem", ["MP1", "MP2"])
def test_forward_error_against_direct_solve(problem, k):
    """Every solve of a table 1-2 cell (n = 4k + 1, H = 4h, left
    preconditioning) lands on the direct solution x* of the whole fine
    problem (reference.direct_solve).  From A (x - x*) = r* - r, with r and r*
    the residuals b - A x and b - A x*, the relative forward error is at most
    ||A^-1||_2 (||r|| + ||r*||) / ||x*||, and A^-1 = (Q(x)Q) D^-1 (V(x)V) gives
    ||A^-1||_2 <= (||Q||_2 ||V||_2)^2 / min |D|.  Measured: forward errors
    1.2e-8 to 3.7e-7, at least 570x below that bound."""
    grid = Grid(4 * k + 1, "dirichlet" if problem == "MP1" else "sommerfeld")
    prob = assemble(grid, float(k), problem)
    b = prob.f
    x_star, F = direct_solve(prob)
    ref_residual = np.linalg.norm(b - prob.A @ x_star)
    assert ref_residual <= 1e-12 * np.linalg.norm(b)
    basis = F.y
    a_inv = (np.linalg.norm(basis.q, 2) * np.linalg.norm(basis.v, 2)) ** 2 / np.abs(F.d).min()
    dec = extend_max(partition(grid, k))
    local_solves = LocalSolves(dec, prob)
    for builder in (build_focs, build_hocs):
        cs = galerkin(builder(grid, 4), prob)
        for kind in ("AS2", "SAS2", "SHS2"):
            M = SchwarzPreconditioner(kind, cs, local_solves)
            report = gmres(prob.A, M, b, GmresConfig(side="left"))
            assert report.converged, (builder.__name__, kind)
            error = np.linalg.norm(report.x - x_star) / np.linalg.norm(x_star)
            residual = np.linalg.norm(b - prob.A @ report.x)
            bound = a_inv * (residual + ref_residual) / np.linalg.norm(x_star)
            assert error <= bound, (builder.__name__, kind, error, bound)


def nan_filled(make):
    """np.empty or np.empty_like whose float arrays come back NaN-filled
    (NaN + NaN j when complex), so that a read of an unwritten entry shows."""

    def make_filled(*args, **kwargs):
        a = make(*args, **kwargs)
        if a.dtype.kind == "f":
            a.fill(np.nan)
        elif a.dtype.kind == "c":
            a.fill(complex(np.nan, np.nan))
        return a

    return make_filled


def report_bytes(report):
    return (
        report.iterations,
        report.converged,
        report.breakdown,
        report.final_residual,
        report.residual_history.tobytes(),
        report.x.tobytes(),
    )


def table_cell_reports(problem, n, k, ratio, cfg):
    """Reports of one cell built from scratch: every coarse space,
    preconditioner and side, sharing one LocalSolves."""
    grid = Grid(n, "dirichlet" if problem == "MP1" else "sommerfeld")
    prob = assemble(grid, k, problem)
    dec = extend_max(partition(grid, (n - 1) // ratio))
    local_solves = LocalSolves(dec, prob)
    reports = []
    for builder in (build_focs, build_hocs):
        cs = galerkin(builder(grid, ratio), prob)
        for kind in ("AS2", "SAS2", "SHS2"):
            for side in ("left", "right"):
                M = SchwarzPreconditioner(kind, cs, local_solves)
                reports.append(report_bytes(gmres(prob.A, M, prob.f, replace(cfg, side=side))))
    return reports


@pytest.mark.parametrize(
    "problem, n, k, ratio, cfg",
    [
        ("MP2", 33, 8.0, 4, GmresConfig()),
        ("MP1", 33, 8.0, 4, GmresConfig()),
        ("MP1", 33, 8.0, 16, GmresConfig()),  # 23 x 23 boxes: a factored class
        ("MP1", 33, 8.0, 4, GmresConfig(rtol=1e-12, max_iter=3)),
    ],
    ids=["mp2", "mp1", "mp1-factored", "mp1-max-iter"],
)
def test_no_unwritten_memory_is_read(monkeypatch, problem, n, k, ratio, cfg):
    """With np.empty and np.empty_like returning NaN-filled arrays, every
    report of a cell built and solved from scratch (the GMRES basis,
    LocalSolves' chunk buffers and KroneckerFactorization.solve's out and
    work among them) is byte-equal to the report of an unpatched run."""
    want = table_cell_reports(problem, n, k, ratio, cfg)
    if cfg.max_iter == 3:
        assert not any(converged for _, converged, *_ in want)
    monkeypatch.setattr(np, "empty", nan_filled(np.empty))
    monkeypatch.setattr(np, "empty_like", nan_filled(np.empty_like))
    assert table_cell_reports(problem, n, k, ratio, cfg) == want


@pytest.mark.parametrize("side", ["left", "right"])
def test_happy_breakdown_reads_no_unwritten_memory(monkeypatch, side):
    """The breakdown at the second step leaves the basis row after it unwritten."""
    A, b, cfg = np.diag([2.0, 2.0, 2.0, 5.0]), np.ones(4), GmresConfig(rtol=1e-12, side=side)
    want = report_bytes(gmres(A, None, b, cfg))
    monkeypatch.setattr(np, "empty", nan_filled(np.empty))
    monkeypatch.setattr(np, "empty_like", nan_filled(np.empty_like))
    assert report_bytes(gmres(A, None, b, cfg)) == want


@pytest.mark.parametrize("side", ["left", "right"])
def test_only_the_operand_is_live_across_an_apply(side):
    """From the third preconditioner apply of an MP2 solve on, the traced
    memory beyond the basis and LocalSolves' chunk buffers (b was allocated
    before tracing) is at most one N-vector, the apply's operand (a view of
    the basis under right preconditioning), plus the small Hessenberg and
    Givens arrays.  GMRES holds neither r0, q0 nor the previous w."""
    grid = Grid(81, "sommerfeld")
    prob = assemble(grid, 20.0, "MP2")
    cs = galerkin(build_hocs(grid, 4), prob)
    M = SchwarzPreconditioner("SHS2", cs, LocalSolves(extend_max(partition(grid, 20)), prob))
    cfg = GmresConfig(max_iter=20, side=side)
    vector = prob.A.shape[0] * 16
    basis = (cfg.max_iter + 1) * vector
    extra = []

    def traced_apply(x):
        buffers = sum(a.nbytes for a in M.local_solves._work or ())
        extra.append(tracemalloc.get_traced_memory()[0] - basis - buffers)
        return M(x)

    tracemalloc.start()
    try:
        report = gmres(prob.A, traced_apply, prob.f, cfg)
    finally:
        tracemalloc.stop()
    assert report.converged and len(extra) > 4
    # H, g, the Givens arrays and the residual history take under 16 KB here
    assert max(extra[2:]) <= vector + 32 * 1024
