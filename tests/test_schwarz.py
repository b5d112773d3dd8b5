import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import splu

from helmdd import schwarz
from helmdd.coarse import build_focs, build_hocs, coarse_correct, galerkin
from helmdd.decomposition import (
    block_classes,
    extend,
    extend_max,
    local_matrix,
    max_overlap_layers,
    partition,
)
from helmdd.discretization import Grid, assemble
from helmdd.gmres import GmresConfig, gmres
from helmdd.linalg import KroneckerFactorization, SingularMatrixError, factorize, solve
from helmdd.schwarz import SchwarzPreconditioner, kronecker_blocks


def make_instance(n, k, problem, p, coarse_kind, ratio, overlap="max", structured=True):
    grid = Grid(n, "dirichlet" if problem == "MP1" else "sommerfeld")
    prob = assemble(grid, k, problem)
    part = partition(grid, p)
    dec = extend_max(part) if overlap == "max" else extend(part, overlap)
    builder = build_focs if coarse_kind == "FOCS" else build_hocs
    cs = galerkin(builder(grid, ratio), prob if structured else prob.A)
    return prob, dec, cs


def dense_preconditioner(kind, A, dec, cs):
    """Assemble the preconditioner as an explicit dense matrix."""
    Ad = A.toarray()
    R0 = cs.r0.toarray().astype(Ad.dtype)
    C = R0.T @ np.linalg.solve(R0 @ Ad @ R0.T, R0)
    n = Ad.shape[0]
    local = np.zeros_like(Ad)
    cuts = dec.offsets[1:-1]
    for idx, w in zip(np.split(dec.indices, cuts), np.split(dec.weights, cuts)):
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
def test_apply_matches_dense_oracle(kind, n, k, problem, p, ck, ratio, structured=True):
    prob, dec, cs = make_instance(n, k, problem, p, ck, ratio, structured=structured)
    assert prob.A.shape[0] <= 200
    M = SchwarzPreconditioner(kind, prob, dec, cs)
    dense = dense_preconditioner(kind, prob.A, dec, cs)
    got = np.column_stack([M.apply(e) for e in np.eye(prob.A.shape[0], dtype=prob.A.dtype)])
    assert np.abs(got - dense).max() < 1e-11 * np.abs(dense).max()


@pytest.mark.parametrize("kind", ["AS2", "SAS2", "SHS2"])
@pytest.mark.parametrize("n,k,problem,p,ck,ratio", ORACLE_INSTANCES)
def test_reference_coarse_apply_matches_dense_oracle(kind, n, k, problem, p, ck, ratio):
    """The same oracle with the coarse space factorized by the sparse-LU reference path."""
    test_apply_matches_dense_oracle(kind, n, k, problem, p, ck, ratio, structured=False)


def test_zero_maps_to_zero():
    prob, dec, cs = make_instance(9, 2.0, "MP1", 2, "FOCS", 4)
    M = SchwarzPreconditioner("AS2", prob, dec, cs)
    assert np.all(M.apply(np.zeros(49)) == 0.0)


def test_linearity():
    prob, dec, cs = make_instance(9, 3.0, "MP2", 2, "HOCS", 4)
    M = SchwarzPreconditioner("SHS2", prob, dec, cs)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(81) + 1j * rng.standard_normal(81)
    y = rng.standard_normal(81) + 1j * rng.standard_normal(81)
    a, b = 0.7 - 0.2j, -1.3 + 0.5j
    lhs = M.apply(a * x + b * y)
    rhs = a * M.apply(x) + b * M.apply(y)
    assert np.abs(lhs - rhs).max() < 1e-13 * np.abs(rhs).max()


def test_as2_is_symmetric_for_real_symmetric_matrix():
    prob, dec, cs = make_instance(9, 2.0, "MP1", 2, "FOCS", 4)
    dense = dense_preconditioner("AS2", prob.A, dec, cs)
    assert np.abs(dense - dense.T).max() < 1e-12 * np.abs(dense).max()


def test_degenerate_single_domain_full_coarse_is_twice_inverse():
    grid = Grid(9, "dirichlet")
    prob = assemble(grid, 2.0, "MP1")
    dec = extend(partition(grid, 1), 0)
    cs = galerkin(build_focs(grid, 1), prob.A)  # ratio 1: coarse space = full space
    M = SchwarzPreconditioner("AS2", prob, dec, cs)
    rng = np.random.default_rng(1)
    x = rng.standard_normal(49)
    expected = 2.0 * solve(factorize(prob.A), x)
    assert np.abs(M.apply(x) - expected).max() < 1e-10 * np.abs(expected).max()


def test_no_overlap_makes_scaled_equal_plain():
    grid = Grid(9, "dirichlet")
    prob = assemble(grid, 2.0, "MP1")
    dec = extend(partition(grid, 2), 0)
    cs = galerkin(build_focs(grid, 4), prob.A)
    rng = np.random.default_rng(2)
    x = rng.standard_normal(49)
    plain = SchwarzPreconditioner("AS2", prob, dec, cs).apply(x)
    scaled = SchwarzPreconditioner("SAS2", prob, dec, cs).apply(x)
    assert np.abs(plain - scaled).max() < 1e-15 * np.abs(plain).max()


def test_full_coarse_space_makes_hybrid_exact():
    grid = Grid(9, "dirichlet")
    prob = assemble(grid, 2.0, "MP1")
    dec = extend_max(partition(grid, 2))
    cs = galerkin(build_focs(grid, 1), prob.A)
    M = SchwarzPreconditioner("SHS2", prob, dec, cs)
    rng = np.random.default_rng(3)
    x = rng.standard_normal(49)
    exact = solve(factorize(prob.A), x)
    assert np.abs(M.apply(x) - exact).max() < 1e-9 * np.abs(exact).max()
    report = gmres(prob.A, M, prob.f, GmresConfig())
    assert report.converged and report.iterations == 1


def test_coarse_deflation_annihilates_coarse_residual():
    prob, dec, cs = make_instance(17, 5.0, "MP1", 4, "HOCS", 4)
    from helmdd.coarse import coarse_correct

    rng = np.random.default_rng(4)
    x = rng.standard_normal(prob.A.shape[0])
    deflated = x - prob.A @ coarse_correct(cs, x)
    assert np.linalg.norm(cs.r0 @ deflated) < 1e-9 * np.linalg.norm(cs.r0 @ x)


@pytest.mark.parametrize("kind", ["AS2", "SAS2", "SHS2"])
def test_rescaling_coarse_operator_changes_nothing(kind):
    from dataclasses import replace

    prob, dec, cs = make_instance(13, 5.0, "MP2", 3, "HOCS", 4)
    scaled = galerkin(replace(cs, p=(3.0 * cs.p).tocsr(), a0_factorization=None), prob)
    rng = np.random.default_rng(5)
    x = rng.standard_normal(prob.A.shape[0]) + 1j * rng.standard_normal(prob.A.shape[0])
    a = SchwarzPreconditioner(kind, prob, dec, cs).apply(x)
    b = SchwarzPreconditioner(kind, prob, dec, scaled).apply(x)
    assert np.abs(a - b).max() < 1e-12 * np.abs(a).max()


@pytest.mark.parametrize("kind", ["AS2", "SAS2", "SHS2"])
def test_subdomain_order_independence(kind):
    from dataclasses import replace as dreplace

    prob, dec, cs = make_instance(17, 5.0, "MP1", 4, "HOCS", 4)
    rng = np.random.default_rng(6)
    perm = rng.permutation(dec.num_subdomains)
    sets = np.split(dec.indices, dec.offsets[1:-1])
    # the multiplicity, and with it every D_i, does not depend on the order
    shuffled = dreplace(
        dec,
        indices=np.concatenate([sets[i] for i in perm]),
        offsets=np.concatenate(([0], np.cumsum(np.diff(dec.offsets)[perm]))),
    )
    x = rng.standard_normal(prob.A.shape[0])
    a = SchwarzPreconditioner(kind, prob, dec, cs).apply(x)
    b = SchwarzPreconditioner(kind, prob, shuffled, cs).apply(x)
    assert np.abs(a - b).max() < 1e-13 * np.abs(a).max()


def reference_apply(kind, A, dec, cs, x):
    """The preconditioner with one sparse LU solve per subdomain, in a plain loop."""
    z = coarse_correct(cs, x)
    r = x - A @ z if kind == "SHS2" else x
    y = z.copy()
    cuts = dec.offsets[1:-1]
    for idx, w in zip(np.split(dec.indices, cuts), np.split(dec.weights, cuts)):
        yi = splu(sp.csc_matrix(A[idx][:, idx])).solve(r[idx])
        y[idx] += yi if kind == "AS2" else w * yi
    return y


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
    got = SchwarzPreconditioner(kind, prob, dec, cs).apply(x)
    want = reference_apply(kind, prob.A, dec, cs, x)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("kind", ["AS2", "SAS2", "SHS2"])
@pytest.mark.parametrize("problem", ["MP1", "MP2"])
def test_factored_blocks_match_loop_over_subdomains(problem, kind):
    """Boxes of 23 x 23 (MP1) and 24 x 24 (MP2) unknowns take the Kronecker path."""
    prob, dec, cs = make_instance(33, 8.0, problem, 2, "HOCS", 16)
    M = SchwarzPreconditioner(kind, prob, dec, cs)
    assert all(isinstance(solver, KroneckerFactorization) for *_, solver in M.local_solves.classes)
    rng = np.random.default_rng(7)
    for _ in range(3):
        x = rng.standard_normal(prob.A.shape[0]).astype(prob.A.dtype)
        if np.iscomplexobj(x):
            x += 1j * rng.standard_normal(len(x))
        want = reference_apply(kind, prob.A, dec, cs, x)
        assert np.abs(M.apply(x) - want).max() <= 1e-11 * np.abs(want).max()


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
def test_kronecker_blocks_match_sparse_lu(problem, cells, p, overlap, k, seed):
    """Every class, factored whatever its size, solves its local_matrix block.

    The example's 31 x 31 class has min |D| / max |D| = 3.6e-6 and leaves a
    relative residual of 1e-12.
    """
    assume(problem == "MP2" or cells * p % 2 == 0)
    grid = Grid(cells * p + 1, "dirichlet" if problem == "MP1" else "sommerfeld")
    prob = assemble(grid, k, problem)
    part = partition(grid, p)
    assume(overlap <= max_overlap_layers(part))
    dec = extend(part, overlap)
    _, representatives = block_classes(dec, prob)
    with mock.patch.object(schwarz, "DENSE_BLOCK_MAX_UNKNOWNS", 0):
        factored = kronecker_blocks(dec, prob, representatives)
    rng = np.random.default_rng(seed)
    for i, F in zip(representatives, factored):
        A_i = local_matrix(dec, i, prob.A)
        b = rng.standard_normal(F.d.shape).astype(prob.A.dtype)
        if np.iscomplexobj(b):
            b += 1j * rng.standard_normal(F.d.shape)
        x = F.solve(b).ravel()
        assert np.linalg.norm(A_i @ x - b.ravel()) <= 1e-11 * np.linalg.norm(b)


def unbuffered_add_to(local_solves, x, out, weighted):
    """LocalSolves.add_to with fresh arrays: x[gather], then one real bincount per part."""
    xs = x[local_solves.gather]
    ys = np.empty(len(xs), dtype=np.result_type(xs.dtype, local_solves.problem.A.dtype))
    for start, stop, solver in local_solves.classes:
        if isinstance(solver, KroneckerFactorization):
            ys[start:stop] = solver.solve(xs[start:stop].reshape(-1, *solver.d.shape)).ravel()
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


def test_buffered_add_to_allocates_less_than_one_gathered_vector():
    """A second add_to reuses its buffers; x[gather] alone would take len(gather) * 16 bytes."""
    prob, dec, cs = make_instance(161, 40.0, "MP2", 40, "HOCS", 4)
    local_solves = SchwarzPreconditioner("SHS2", prob, dec, cs).local_solves
    x = random_vector(np.random.default_rng(0), prob.A.shape[0], complex)
    out = np.zeros_like(x)
    local_solves.add_to(x, out, weighted=True)
    tracemalloc.start()
    try:
        local_solves.add_to(x, out, weighted=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(local_solves.gather) * 16


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


def test_resonant_local_block_is_rejected_by_both_paths():
    """k^2 = lambda_1 + mu_1 of the 20 x 25 MP1 boxes (Y first, X interior)."""
    grid = Grid(49, "dirichlet")
    dec = extend(partition(grid, 3), 5)
    T = assemble(grid, 1.0, "MP1").T.toarray()  # MP1's T and W = I do not depend on k
    lam, mu = scipy.linalg.eigvalsh(T[:20, :20])[0], scipy.linalg.eigvalsh(T[:25, :25])[0]
    prob = assemble(grid, float(np.sqrt(lam + mu)), "MP1")
    _, representatives = block_classes(dec, prob)
    resonant = [i for i in representatives if dec.offsets[i + 1] - dec.offsets[i] == 500]
    assert len(resonant) == 2
    with pytest.raises(SingularMatrixError, match=r"resonant mode \(i, j\) = \(0, 0\)"):
        kronecker_blocks(dec, prob, representatives)
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
        M.apply(np.ones(50))


def test_unfactorized_coarse_space_rejected():
    prob, dec, _ = make_instance(9, 2.0, "MP1", 2, "FOCS", 4)
    with pytest.raises(ValueError, match="galerkin"):
        SchwarzPreconditioner("AS2", prob, dec, build_focs(dec.grid, 4))


def test_coarse_space_from_another_grid_rejected():
    grid = Grid(33, "dirichlet")
    prob = assemble(grid, 5.0, "MP1")
    dec = extend_max(partition(grid, 8))
    # same number of unknowns (961) on another grid, through the reference path
    same_size = galerkin(build_focs(Grid(31, "sommerfeld"), 2), prob.A)
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
    prob, dec, reference = make_instance(17, 5.0, "MP1", 4, "HOCS", 4, structured=False)
    structured = galerkin(build_hocs(dec.grid, 4), prob)
    x = (1 + 1j) * np.ones(prob.A.shape[0])
    got = SchwarzPreconditioner("SHS2", prob, dec, reference).apply(x)
    want = SchwarzPreconditioner("SHS2", prob, dec, structured).apply(x)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
