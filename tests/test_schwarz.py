import contextlib
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helmdd import schwarz
from helmdd.coarse import build_focs, build_hocs, galerkin
from helmdd.decomposition import (
    extend,
    extend_max,
    interval_classes,
    local_matrix,
    max_overlap_layers,
    partition,
)
from helmdd.discretization import Grid, assemble
from helmdd.gmres import GmresConfig, gmres
from helmdd.harness import builtin_table, run_experiment
from helmdd.linalg import KroneckerFactorization, SingularMatrixError, factorize, solve
from helmdd.schwarz import LocalSolves, SchwarzPreconditioner
from reference import (
    coarse_correct_lu,
    kronecker_solve,
    r0,
    reference_preconditioner,
    subdomains,
    weights,
)


def make_instance(n, k, problem, p, coarse_kind, ratio, overlap="max"):
    grid = Grid(n, "dirichlet" if problem == "MP1" else "sommerfeld")
    prob = assemble(grid, k, problem)
    part = partition(grid, p)
    dec = extend_max(part) if overlap == "max" else extend(part, overlap)
    builder = build_focs if coarse_kind == "FOCS" else build_hocs
    cs = galerkin(builder(grid, ratio), prob)
    return prob, dec, cs


def reference_coarse_solve(A):
    """Route the preconditioner's coarse correction through the sparse-LU reference."""
    return mock.patch.object(schwarz, "coarse_correct", lambda cs, r: coarse_correct_lu(cs, A, r))


def dense_preconditioner(kind, A, dec, cs):
    """Assemble the preconditioner as an explicit dense matrix."""
    Ad = A.toarray()
    R0 = r0(cs).toarray().astype(Ad.dtype)
    C = R0.T @ np.linalg.solve(R0 @ Ad @ R0.T, R0)
    n = Ad.shape[0]
    local = np.zeros_like(Ad)
    for idx, w in zip(subdomains(dec), weights(dec)):
        Ri = np.zeros((len(idx), n), dtype=Ad.dtype)
        Ri[np.arange(len(idx)), idx] = 1.0
        inv = np.linalg.inv(Ri @ Ad @ Ri.T)
        if kind == "AS2":
            local += Ri.T @ inv @ Ri
        else:
            local += Ri.T @ np.diag(w) @ inv @ Ri
    if kind in ("AS2", "SAS2"):
        return C + local
    P0 = np.eye(n, dtype=Ad.dtype) - Ad @ C
    return C + local @ P0


ORACLE_INSTANCES = [
    (9, 2.0, "MP1", 2, "FOCS", 4),
    (9, 2.0, "MP1", 4, "HOCS", 2),
    (9, 3.0, "MP2", 2, "HOCS", 4),
    (13, 5.0, "MP2", 3, "FOCS", 4),
    (13, 5.0, "MP2", 3, "HOCS", 4),
]


@pytest.mark.parametrize("kind", ["AS2", "SAS2", "SHS2"])
@pytest.mark.parametrize("n,k,problem,p,ck,ratio", ORACLE_INSTANCES)
def test_apply_matches_dense_oracle(kind, n, k, problem, p, ck, ratio, reference_coarse=False):
    prob, dec, cs = make_instance(n, k, problem, p, ck, ratio)
    assert prob.A.shape[0] <= 200
    M = SchwarzPreconditioner(kind, prob, dec, cs)
    dense = dense_preconditioner(kind, prob.A, dec, cs)
    with reference_coarse_solve(prob.A) if reference_coarse else contextlib.nullcontext():
        got = np.column_stack([M(e) for e in np.eye(prob.A.shape[0], dtype=prob.A.dtype)])
    assert np.abs(got - dense).max() < 1e-11 * np.abs(dense).max()


@pytest.mark.parametrize("kind", ["AS2", "SAS2", "SHS2"])
@pytest.mark.parametrize("n,k,problem,p,ck,ratio", ORACLE_INSTANCES)
def test_reference_coarse_apply_matches_dense_oracle(kind, n, k, problem, p, ck, ratio):
    """The same oracle with the coarse correction taken from the sparse-LU reference."""
    test_apply_matches_dense_oracle(kind, n, k, problem, p, ck, ratio, reference_coarse=True)


def test_zero_maps_to_zero():
    prob, dec, cs = make_instance(9, 2.0, "MP1", 2, "FOCS", 4)
    M = SchwarzPreconditioner("AS2", prob, dec, cs)
    assert np.all(M(np.zeros(49)) == 0.0)


def test_linearity():
    prob, dec, cs = make_instance(9, 3.0, "MP2", 2, "HOCS", 4)
    M = SchwarzPreconditioner("SHS2", prob, dec, cs)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(81) + 1j * rng.standard_normal(81)
    y = rng.standard_normal(81) + 1j * rng.standard_normal(81)
    a, b = 0.7 - 0.2j, -1.3 + 0.5j
    lhs = M(a * x + b * y)
    rhs = a * M(x) + b * M(y)
    assert np.abs(lhs - rhs).max() < 1e-13 * np.abs(rhs).max()


def test_as2_is_symmetric_for_real_symmetric_matrix():
    prob, dec, cs = make_instance(9, 2.0, "MP1", 2, "FOCS", 4)
    dense = dense_preconditioner("AS2", prob.A, dec, cs)
    assert np.abs(dense - dense.T).max() < 1e-12 * np.abs(dense).max()


def test_degenerate_single_domain_full_coarse_is_twice_inverse():
    grid = Grid(9, "dirichlet")
    prob = assemble(grid, 2.0, "MP1")
    dec = extend(partition(grid, 1), 0)
    cs = galerkin(build_focs(grid, 1), prob)  # ratio 1: coarse space = full space
    M = SchwarzPreconditioner("AS2", prob, dec, cs)
    rng = np.random.default_rng(1)
    x = rng.standard_normal(49)
    expected = 2.0 * solve(factorize(prob.A), x)
    assert np.abs(M(x) - expected).max() < 1e-10 * np.abs(expected).max()


def test_no_overlap_makes_scaled_equal_plain():
    grid = Grid(9, "dirichlet")
    prob = assemble(grid, 2.0, "MP1")
    dec = extend(partition(grid, 2), 0)
    cs = galerkin(build_focs(grid, 4), prob)
    rng = np.random.default_rng(2)
    x = rng.standard_normal(49)
    plain = SchwarzPreconditioner("AS2", prob, dec, cs)(x)
    scaled = SchwarzPreconditioner("SAS2", prob, dec, cs)(x)
    assert np.abs(plain - scaled).max() < 1e-15 * np.abs(plain).max()


def test_full_coarse_space_makes_hybrid_exact():
    grid = Grid(9, "dirichlet")
    prob = assemble(grid, 2.0, "MP1")
    dec = extend_max(partition(grid, 2))
    cs = galerkin(build_focs(grid, 1), prob)
    M = SchwarzPreconditioner("SHS2", prob, dec, cs)
    rng = np.random.default_rng(3)
    x = rng.standard_normal(49)
    exact = solve(factorize(prob.A), x)
    assert np.abs(M(x) - exact).max() < 1e-9 * np.abs(exact).max()
    report = gmres(prob.A, M, prob.f, GmresConfig())
    assert report.converged and report.iterations == 1


def test_coarse_deflation_annihilates_coarse_residual():
    prob, dec, cs = make_instance(17, 5.0, "MP1", 4, "HOCS", 4)
    from helmdd.coarse import coarse_correct

    rng = np.random.default_rng(4)
    x = rng.standard_normal(prob.A.shape[0])
    deflated = x - prob.A @ coarse_correct(cs, x)
    assert np.linalg.norm(r0(cs) @ deflated) < 1e-9 * np.linalg.norm(r0(cs) @ x)


@pytest.mark.parametrize("kind", ["AS2", "SAS2", "SHS2"])
def test_rescaling_coarse_operator_changes_nothing(kind):
    from dataclasses import replace

    prob, dec, cs = make_instance(13, 5.0, "MP2", 3, "HOCS", 4)
    scaled = galerkin(replace(cs, p=(3.0 * cs.p).tocsr(), a0_factorization=None), prob)
    rng = np.random.default_rng(5)
    x = rng.standard_normal(prob.A.shape[0]) + 1j * rng.standard_normal(prob.A.shape[0])
    a = SchwarzPreconditioner(kind, prob, dec, cs)(x)
    b = SchwarzPreconditioner(kind, prob, dec, scaled)(x)
    assert np.abs(a - b).max() < 1e-12 * np.abs(a).max()


@pytest.mark.parametrize("kind", ["AS2", "SAS2", "SHS2"])
def test_subdomain_order_independence(kind):
    """The batched apply matches the plain loop over the subdomains taken in a
    random order: the class-ordered gather and scatter depend on no order."""
    prob, dec, cs = make_instance(17, 5.0, "MP1", 4, "HOCS", 4)
    rng = np.random.default_rng(6)
    perm = rng.permutation(dec.num_subdomains)
    x = rng.standard_normal(prob.A.shape[0])
    a = SchwarzPreconditioner(kind, prob, dec, cs)(x)
    b = reference_preconditioner(kind, prob.A, dec, cs, order=perm)(x)
    assert np.abs(a - b).max() < 1e-13 * np.abs(a).max()


@settings(max_examples=40, deadline=None)
@given(
    problem=st.sampled_from(["MP1", "MP2"]),
    p=st.integers(1, 4),
    half_cells=st.integers(1, 3),
    k=st.sampled_from([1.0, 2.5, 4.0, 6.0]),
    coarse_kind=st.sampled_from(["FOCS", "HOCS"]),
    kind=st.sampled_from(["AS2", "SAS2", "SHS2"]),
    data=st.data(),
)
def test_batched_apply_matches_loop_over_subdomains(problem, p, half_cells, k, coarse_kind, kind, data):
    assume(half_cells * p >= 2)  # a 2h coarse grid needs an interior node
    n = 2 * half_cells * p + 1
    grid = Grid(n, "dirichlet" if problem == "MP1" else "sommerfeld")
    prob = assemble(grid, k, problem)
    part = partition(grid, p)
    dec = extend(part, data.draw(st.integers(0, max_overlap_layers(part)), label="overlap"))
    builder = build_focs if coarse_kind == "FOCS" else build_hocs
    cs = galerkin(builder(grid, 2), prob)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    x = rng.standard_normal(prob.A.shape[0]).astype(prob.A.dtype)
    if np.iscomplexobj(x):
        x += 1j * rng.standard_normal(len(x))
    got = SchwarzPreconditioner(kind, prob, dec, cs)(x)
    want = reference_preconditioner(kind, prob.A, dec, cs)(x)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("kind", ["AS2", "SAS2", "SHS2"])
@pytest.mark.parametrize("problem", ["MP1", "MP2"])
def test_factored_blocks_match_loop_over_subdomains(problem, kind):
    """Boxes of 23 x 23 (MP1) and 24 x 24 (MP2) unknowns take the Kronecker path."""
    prob, dec, cs = make_instance(33, 8.0, problem, 2, "HOCS", 16)
    M = SchwarzPreconditioner(kind, prob, dec, cs)
    assert all(isinstance(solver, KroneckerFactorization) for *_, solver in M.local_solves.classes)
    reference = reference_preconditioner(kind, prob.A, dec, cs)
    rng = np.random.default_rng(7)
    for _ in range(3):
        x = rng.standard_normal(prob.A.shape[0]).astype(prob.A.dtype)
        if np.iscomplexobj(x):
            x += 1j * rng.standard_normal(len(x))
        want = reference(x)
        assert np.abs(M(x) - want).max() <= 1e-11 * np.abs(want).max()


@pytest.mark.parametrize("table", [1, 2])
def test_lu_reference_takes_the_table_counts(table):
    """GMRES preconditioned by the LU reference, SuperLU on every subdomain and
    the LU coarse correction, takes run_experiment's count, exactly, for all six
    coarse kind and preconditioner combinations of the table's (k, n) = (20, 81)."""
    cfg = builtin_table(table)
    (row,) = run_experiment(replace(cfg, k_list=(20,), n_list=(81,)), warn=lambda m: None)
    prob, dec, _ = make_instance(81, 20, cfg.problem, 20, "HOCS", cfg.coarse_ratio)
    coarse_lu = lambda cs, r: coarse_correct_lu(cs, prob.A, r)
    for ck, builder in (("FOCS", build_focs), ("HOCS", build_hocs)):
        cs = builder(dec.grid, cfg.coarse_ratio)
        for pk in cfg.preconditioners:
            M = reference_preconditioner(pk, prob.A, dec, cs, coarse=coarse_lu)
            report = gmres(prob.A, M, prob.f, cfg.gmres)
            assert (report.iterations if report.converged else "x") == row.iterations[f"{ck}_{pk}"]


@settings(max_examples=40, deadline=None)
@given(
    problem=st.sampled_from(["MP1", "MP2"]),
    cells=st.integers(8, 16),
    p=st.integers(1, 3),
    overlap=st.integers(0, 8),
    k=st.floats(0.5, 40.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(problem="MP1", cells=16, p=9, overlap=8, k=20.0, seed=0)  # table 4's near-resonant (20, 145)
@example(problem="MP1", cells=16, p=2, overlap=7, k=15.668357305354427, seed=0)
@example(problem="MP2", cells=14, p=2, overlap=0, k=28.771643701533076, seed=2)
def test_kronecker_blocks_match_sparse_lu(problem, cells, p, overlap, k, seed):
    """Every class of LocalSolves, in its production form (the dense inverse
    X up to DENSE_BLOCK_MAX_UNKNOWNS unknowns, the factored solve above) and
    again factored whatever its size, solves its local_matrix block A to a
    normwise backward error of at most 1e-14 cond(Q_y) cond(Q_x), the
    conditioning of the eigenvector matrices both forms are built from.

    The factored solve's backward error is |Ax - b| / (|A| |x| + |b|)
    (infinity norms).  A forward residual |Ax - b| / |b| grows with cond(A)
    and says nothing about the solver.  The first example's 31 x 31 class
    has min |D| / max |D| = 3.6e-6.  The second's 22 x 22 class has
    cond(A) = 1e7 and leaves |Ax - b| = 2.8e-10 |b|, where SuperLU leaves
    6.6e-11 |b|; its backward error is 6.1e-16, with W = I and so
    cond(Q) = 1.  The third's 14 x 14 MP2 class has
    cond(Q_y) cond(Q_x) = 2.6e5 and a factored backward error of 1.3e-13.

    The dense form x = X b is a matrix-vector product, whose rounding is
    bounded by |X| |b|, not by |x|, so its scale is |A| | |X| |b| | + |b|.
    Measured against |A| |x| instead, explicit inverses exceed 1e-14 on
    0.25-0.5% of random b for MP1 blocks with cond(A) near 7e3, up to
    2.5e-14 when formed by SuperLU, as much as when formed from the
    eigenpairs; against |X| |b| both stay below 7e-16.
    """
    assume(problem == "MP2" or cells * p % 2 == 0)
    grid = Grid(cells * p + 1, "dirichlet" if problem == "MP1" else "sommerfeld")
    prob = assemble(grid, k, problem)
    part = partition(grid, p)
    assume(overlap <= max_overlap_layers(part))
    dec = extend(part, overlap)
    first = np.unique(interval_classes(dec, prob)[0], return_index=True)[1]
    representatives = [ay * p + ax for ay in first for ax in first]  # each block class's first subdomain
    production = LocalSolves(dec, prob).classes
    with mock.patch.object(schwarz, "DENSE_BLOCK_MAX_UNKNOWNS", 0):
        factored = LocalSolves(dec, prob).classes
    rng = np.random.default_rng(seed)
    for i, (*_, dense_or_factored), (*_, F) in zip(representatives, production, factored):
        A_i = local_matrix(dec, i, prob.A)
        assert isinstance(dense_or_factored, np.ndarray) == (A_i.shape[0] <= 441)
        cond_q = np.linalg.cond(F.y.q) * np.linalg.cond(F.x.q)
        for solver in (dense_or_factored, F):
            b = rng.standard_normal(F.d.shape).astype(prob.A.dtype)
            if np.iscomplexobj(b):
                b += 1j * rng.standard_normal(F.d.shape)
            if isinstance(solver, KroneckerFactorization):
                x, b = solver.solve(b).ravel(), b.ravel()
                magnitude = np.abs(x)
            else:
                b = b.ravel()
                x, magnitude = solver @ b, np.abs(solver) @ np.abs(b)
            scale = abs(A_i).sum(axis=1).max() * magnitude.max() + np.abs(b).max()
            assert np.abs(A_i @ x - b).max() <= 1e-14 * cond_q * scale


def unbuffered_add_to(local_solves, x, out, weighted):
    """LocalSolves.add_to with fresh arrays and no chunks: x[gather], one
    product per dense class, the per-member reference.kronecker_solve per
    factored class, then one real bincount per part."""
    xs = x[local_solves.gather]
    ys = np.empty(len(xs), dtype=np.result_type(xs.dtype, local_solves.problem.A.dtype))
    for start, stop, solver in local_solves.classes:
        if isinstance(solver, KroneckerFactorization):
            ys[start:stop] = kronecker_solve(solver, xs[start:stop].reshape(-1, *solver.d.shape)).ravel()
        else:
            s = len(solver)
            np.matmul(xs[start:stop].reshape(-1, s), solver.T, out=ys[start:stop].reshape(-1, s))
    n = len(local_solves.decomposition.multiplicity)
    total = np.bincount(local_solves.gather, weights=ys.real, minlength=n)
    if np.iscomplexobj(ys):
        total = total + 1j * np.bincount(local_solves.gather, weights=ys.imag, minlength=n)
    if weighted:
        total /= local_solves.decomposition.multiplicity
    out += total


def assert_add_to_bit_identical(local_solves, x):
    for weighted in (False, True):
        got = np.zeros(len(x), np.result_type(x.dtype, local_solves.problem.A.dtype))
        want = got.copy()
        local_solves.add_to(x, got, weighted)
        unbuffered_add_to(local_solves, x, want, weighted)
        assert got.tobytes() == want.tobytes()


def random_vector(rng, n, dtype):
    x = rng.standard_normal(n).astype(dtype)
    if np.iscomplexobj(x):
        x += 1j * rng.standard_normal(n)
    return x


@pytest.mark.parametrize(
    "n, k, problem, p, ratio",
    [(81, 20.0, "MP2", 20, 4), (57, 14.0, "MP1", 14, 4), (33, 8.0, "MP1", 2, 16), (145, 20.0, "MP1", 9, 16)],
    ids=["table1", "table3", "table4-n33", "table4-n145"],
)
def test_kronecker_solve_is_bit_identical_to_per_member_products(n, k, problem, p, ratio):
    """KroneckerFactorization.solve, whose x-side products are one matrix
    product over all members' rows, equals reference.kronecker_solve's
    per-member products byte for byte: on the identity stack LocalSolves
    forms dense inverses from, on random stacks, real and complex, and on one
    grid array, with and without caller-given storage, for every class of a
    table layout (factored whatever its size) and for its coarse problem.
    These layouts have boxes 5 to 7, 23 and 31 nodes wide."""
    prob, dec, cs = make_instance(n, k, problem, p, "HOCS", ratio)
    with mock.patch.object(schwarz, "DENSE_BLOCK_MAX_UNKNOWNS", 0):
        classes = LocalSolves(dec, prob).classes
    rng = np.random.default_rng(n)
    members = [(stop - start) // F.d.size for start, stop, F in classes]
    for F, m in zip([F for *_, F in classes] + [cs.a0_factorization], members + [1]):
        size = F.d.size
        stacks = [np.eye(size).reshape(size, *F.d.shape)]
        stacks += [random_vector(rng, m * size, dtype).reshape(m, *F.d.shape) for dtype in (float, complex)]
        stacks += [B[0] for B in stacks[1:]]
        for B in stacks:
            want = kronecker_solve(F, B)
            assert F.solve(B).tobytes() == want.tobytes()
            out, work = np.empty_like(want), np.empty_like(want)
            assert F.solve(B, out, work) is out and out.tobytes() == want.tobytes()


def second_add_to_peak(local_solves, x):
    """The tracemalloc peak of an add_to that follows a first one."""
    out = np.zeros_like(x)
    local_solves.add_to(x, out, weighted=True)
    tracemalloc.start()
    try:
        local_solves.add_to(x, out, weighted=True)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_buffered_add_to_allocates_less_than_one_gathered_vector():
    """A second add_to reuses its buffers; x[gather] alone would take len(gather) * 16 bytes."""
    prob, dec, cs = make_instance(161, 40.0, "MP2", 40, "HOCS", 4)
    local_solves = SchwarzPreconditioner("SHS2", prob, dec, cs).local_solves
    x = random_vector(np.random.default_rng(0), prob.A.shape[0], complex)
    assert second_add_to_peak(local_solves, x) < len(local_solves.gather) * 16


def test_buffered_add_to_of_factored_classes_allocates_less_than_one_gathered_vector():
    """The same on MP1 n = 129 at H = 16h, whose four classes are all factored:
    each class solve writes into add_to's kept buffers."""
    prob, dec, cs = make_instance(129, 30.0, "MP1", 8, "HOCS", 16)
    local_solves = SchwarzPreconditioner("SHS2", prob, dec, cs).local_solves
    assert all(isinstance(solver, KroneckerFactorization) for *_, solver in local_solves.classes)
    x = random_vector(np.random.default_rng(0), prob.A.shape[0], float)
    assert second_add_to_peak(local_solves, x) < len(local_solves.gather) * x.itemsize


def test_buffered_add_to_is_bit_identical_on_mp2():
    prob, dec, cs = make_instance(161, 40.0, "MP2", 40, "HOCS", 4)
    local_solves = SchwarzPreconditioner("SHS2", prob, dec, cs).local_solves
    rng = np.random.default_rng(1)
    for _ in range(2):
        assert_add_to_bit_identical(local_solves, random_vector(rng, prob.A.shape[0], complex))


@pytest.mark.parametrize("p, ratio", [(4, 4), (2, 16)])  # dense classes; Kronecker classes
def test_buffered_add_to_is_bit_identical_across_a_dtype_switch(p, ratio):
    prob, dec, cs = make_instance(33, 8.0, "MP1", p, "HOCS", ratio)
    local_solves = SchwarzPreconditioner("SHS2", prob, dec, cs).local_solves
    rng = np.random.default_rng(2)
    for dtype in (complex, float, complex):
        assert_add_to_bit_identical(local_solves, random_vector(rng, prob.A.shape[0], dtype))


def test_first_add_to_keeps_less_than_one_gathered_vector():
    """Between applies LocalSolves keeps chunk-long buffers only, here two
    buffers of 722 members of the 49-unknown class: 1.13 MB against the
    1.24 MB of x[gather] (whole-gather buffers kept 3.7 MB)."""
    prob, dec, _ = make_instance(161, 40.0, "MP2", 40, "HOCS", 4)
    local_solves = LocalSolves(dec, prob)
    x = random_vector(np.random.default_rng(0), prob.A.shape[0], complex)
    out = np.zeros_like(x)
    tracemalloc.start()
    try:
        local_solves.add_to(x, out, weighted=True)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < len(local_solves.gather) * x.itemsize


@pytest.mark.parametrize(
    "n, k, problem, p, ratio",
    [(161, 40.0, "MP2", 40, 4), (161, 40.0, "MP1", 40, 4), (257, 30.0, "MP1", 16, 16)],
    ids=["mp2-n161", "mp1-n161", "mp1-n257-H16h"],
)
def test_chunked_add_to_is_bit_identical_to_whole_class_products(n, k, problem, p, ratio):
    """At the production chunk size, add_to equals unbuffered_add_to byte for
    byte, for real and complex x, weighted or not.  Each layout cuts its
    largest class: the dense 49-unknown one into two chunks of 722 members,
    the factored 31 x 31 one of n = 257 into five of 39 or 40."""
    prob, dec, _ = make_instance(n, k, problem, p, "HOCS", ratio)
    local_solves = LocalSolves(dec, prob)
    assert len(list(local_solves._chunks())) > len(local_solves.classes)
    rng = np.random.default_rng(n)
    for dtype in (float, complex):
        assert_add_to_bit_identical(local_solves, random_vector(rng, prob.A.shape[0], dtype))


@pytest.mark.parametrize(
    "n, k, problem, p, ratio",
    [(161, 40.0, "MP2", 40, 4), (57, 14.0, "MP1", 14, 4), (145, 20.0, "MP1", 9, 16), (257, 30.0, "MP1", 16, 16)],
    ids=["mp2-n161", "mp1-n57", "mp1-n145-H16h", "mp1-n257-H16h"],
)
@pytest.mark.parametrize("members", [1, 3])
def test_add_to_at_small_chunks_matches_whole_class_products(n, k, problem, p, ratio, members):
    """With _CHUNK_ENTRIES patched to cut the class of the largest block into
    chunks of 1 or 3 members (the others into chunks of at least as many, at
    uneven boundaries), add_to still equals unbuffered_add_to, for real and
    complex x, weighted or not.

    Where every class is factored (H = 16h) the bytes are equal:
    KroneckerFactorization.solve gives a member the same bytes in any stack
    at these box widths (test_kronecker_solve_is_bit_identical_to_per_member_products).
    A dense class's product of a short chunk is only equal to rounding,
    1e-14 of the largest entry: OpenBLAS takes gemv for one row and, for
    real entries, another dgemm kernel for some short products, and those
    round a row differently (both seen with OpenBLAS 0.3.31).  The
    production chunks, never shorter than _CHUNK_ENTRIES // size members,
    give the same bytes on these layouts.
    """
    prob, dec, _ = make_instance(n, k, problem, p, "HOCS", ratio)
    size = max(
        solver.d.size if isinstance(solver, KroneckerFactorization) else len(solver)
        for *_, solver in LocalSolves(dec, prob).classes
    )
    rng = np.random.default_rng(n)
    with mock.patch.object(schwarz, "_CHUNK_ENTRIES", members * size):
        local_solves = LocalSolves(dec, prob)
        factored = all(isinstance(solver, KroneckerFactorization) for *_, solver in local_solves.classes)
        for dtype in (float, complex):
            x = random_vector(rng, prob.A.shape[0], dtype)
            for weighted in (False, True):
                got = np.zeros(len(x), np.result_type(x.dtype, prob.A.dtype))
                want = got.copy()
                local_solves.add_to(x, got, weighted)
                unbuffered_add_to(local_solves, x, want, weighted)
                if factored:
                    assert got.tobytes() == want.tobytes()
                else:
                    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize(
    "problem, n, p, k, calls",
    [("MP2", 401, 100, 100.0, 3), ("MP1", 321, 80, 80.0, 2), ("MP1", 257, 16, 5.0, 2)],
    ids=["mp2-n401", "mp1-n321", "mp1-n257-H16h"],
)
def test_one_eigenbasis_per_interval_class(problem, n, p, k, calls):
    """LocalSolves computes linalg.eigenbasis once per class of equal 1D
    intervals on the benchmark's layouts: first, interior and last on MP2,
    whose Sommerfeld rows tell the ends apart; ends and interior on MP1."""
    grid = Grid(n, "dirichlet" if problem == "MP1" else "sommerfeld")
    prob, dec = assemble(grid, k, problem), extend_max(partition(grid, p))
    seen = []
    eigenbasis = schwarz.linalg.eigenbasis

    def counted(T, W):
        seen.append(T.tobytes() + W.tobytes())
        return eigenbasis(T, W)

    with mock.patch.object(schwarz.linalg, "eigenbasis", counted):
        LocalSolves(dec, prob)
    assert len(seen) == len(set(seen)) == calls


def test_resonant_local_block_is_rejected_by_both_paths():
    """k^2 = lambda_1 + mu_1 of an MP1 box's Y and X intervals: the factored
    20 x 25 boxes (first, interior) and the dense-inverse 9 x 11 ones."""
    for n, p, overlap, ny, nx in ((49, 3, 5, 20, 25), (33, 4, 2, 9, 11)):
        grid = Grid(n, "dirichlet")
        dec = extend(partition(grid, p), overlap)
        T = assemble(grid, 1.0, "MP1").T.toarray()  # MP1's T and W = I do not depend on k
        lam, mu = scipy.linalg.eigvalsh(T[:ny, :ny])[0], scipy.linalg.eigvalsh(T[:nx, :nx])[0]
        prob = assemble(grid, float(np.sqrt(lam + mu)), "MP1")
        first = np.unique(interval_classes(dec, prob)[0], return_index=True)[1]
        width = dec.hi - dec.lo + 1
        resonant = [ay * p + ax for ay in first for ax in first if {width[ay], width[ax]} == {ny, nx}]
        assert len(resonant) == 2
        with pytest.raises(SingularMatrixError, match=r"resonant mode \(i, j\) = \(0, 0\)"):
            LocalSolves(dec, prob)
        for i in resonant:
            with pytest.raises(SingularMatrixError):
                factorize(local_matrix(dec, i, prob.A))


def test_local_solves_from_another_problem_or_decomposition_rejected():
    grid = Grid(33, "dirichlet")
    prob5, prob20 = assemble(grid, 5.0, "MP1"), assemble(grid, 20.0, "MP1")
    dec_max, dec_one = extend_max(partition(grid, 8)), extend(partition(grid, 8), 1)
    cs = galerkin(build_hocs(grid, 4), prob5)
    for prob, dec in ((prob20, dec_one), (prob20, dec_max), (prob5, dec_one)):
        built = SchwarzPreconditioner("SHS2", prob, dec, galerkin(build_hocs(grid, 4), prob)).local_solves
        with pytest.raises(ValueError, match="another problem or decomposition"):
            SchwarzPreconditioner("SHS2", prob5, dec_max, cs, local_solves=built)
    own = SchwarzPreconditioner("SHS2", prob5, dec_max, cs).local_solves
    SchwarzPreconditioner("AS2", prob5, dec_max, cs, local_solves=own)


def test_unknown_kind_rejected():
    prob, dec, cs = make_instance(9, 2.0, "MP1", 2, "FOCS", 4)
    with pytest.raises(ValueError):
        SchwarzPreconditioner("RAS", prob, dec, cs)


def test_dimension_mismatch_rejected():
    prob, dec, cs = make_instance(9, 2.0, "MP1", 2, "FOCS", 4)
    M = SchwarzPreconditioner("AS2", prob, dec, cs)
    with pytest.raises(ValueError):
        M(np.ones(50))


def test_unfactorized_coarse_space_rejected():
    prob, dec, _ = make_instance(9, 2.0, "MP1", 2, "FOCS", 4)
    with pytest.raises(ValueError, match="galerkin"):
        SchwarzPreconditioner("AS2", prob, dec, build_focs(dec.grid, 4))


def test_coarse_space_from_another_grid_rejected():
    grid = Grid(33, "dirichlet")
    prob = assemble(grid, 5.0, "MP1")
    dec = extend_max(partition(grid, 8))
    # same number of unknowns (961) on another grid
    other_grid = Grid(31, "sommerfeld")
    same_size = galerkin(build_focs(other_grid, 2), assemble(other_grid, 5.0, "MP2"))
    smaller_grid = Grid(17, "dirichlet")
    smaller = galerkin(build_focs(smaller_grid, 2), assemble(smaller_grid, 5.0, "MP1"))
    for cs in (same_size, smaller):
        with pytest.raises(ValueError, match="different grid"):
            SchwarzPreconditioner("AS2", prob, dec, cs)


def test_problem_from_another_grid_rejected():
    grid = Grid(33, "dirichlet")
    dec = extend_max(partition(grid, 8))
    cs = galerkin(build_focs(grid, 4), assemble(grid, 5.0, "MP1"))
    # same number of unknowns (961) on another grid
    other = assemble(Grid(31, "sommerfeld"), 5.0, "MP2")
    with pytest.raises(ValueError, match="different grid"):
        SchwarzPreconditioner("AS2", other, dec, cs)


def test_reference_coarse_apply_accepts_complex_vector_on_real_matrix():
    prob, dec, cs = make_instance(17, 5.0, "MP1", 4, "HOCS", 4)
    M = SchwarzPreconditioner("SHS2", prob, dec, cs)
    x = (1 + 1j) * np.ones(prob.A.shape[0])
    with reference_coarse_solve(prob.A):
        got = M(x)
    want = M(x)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
