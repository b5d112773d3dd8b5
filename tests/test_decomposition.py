import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helmdd.decomposition import (
    extend,
    extend_max,
    interval_classes,
    local_matrix,
    max_overlap_layers,
    partition,
)
from helmdd.discretization import Grid, assemble
from helmdd.harness import builtin_table
from helmdd.linalg import KroneckerFactorization
from helmdd.schwarz import LocalSolves
from reference import subdomains, weights


def brute_force_multiplicity(decomp):
    """Recount node membership directly from the stored index sets."""
    mult = np.zeros(decomp.grid.num_unknowns, dtype=int)
    for idx in subdomains(decomp):
        for j in idx:
            mult[j] += 1
    return mult


def reference_decomposition(grid, p, m):
    """Index sets, weights and multiplicity built box by box, in a plain loop."""
    c = (grid.n - 1) // p
    first, last = grid.unknown_lo, grid.unknown_lo + grid.unknowns_per_dim - 1

    def interval(a):
        if m == 0:
            lo, hi = a * c + (1 if a > 0 else 0), (a + 1) * c
        else:
            lo, hi = a * c - (m - 1), (a + 1) * c + (m - 1)
        return max(lo, first), min(hi, last)

    sets = []
    for ay in range(p):
        ylo, yhi = interval(ay)
        for ax in range(p):
            xlo, xhi = interval(ax)
            ix, iy = np.arange(xlo, xhi + 1), np.arange(ylo, yhi + 1)
            sets.append(grid.unknown_index(ix[None, :], iy[:, None]).ravel())
    mult = np.zeros(grid.num_unknowns)
    for idx in sets:
        mult[idx] += 1.0
    return sets, [1.0 / mult[idx] for idx in sets], mult


def assert_matches_reference(dec, m):
    sets, set_weights, mult = reference_decomposition(dec.grid, dec.p, m)
    got_sets, got_weights = subdomains(dec), weights(dec)
    assert len(got_sets) == len(got_weights) == len(sets) == dec.num_subdomains
    for got, want in [*zip(got_sets, sets), *zip(got_weights, set_weights), (dec.multiplicity, mult)]:
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def test_box_layout_matches_reference_on_table_layouts():
    layouts = set()
    for which in (1, 2, 3, 4):
        cfg = builtin_table(which)
        bc = "dirichlet" if cfg.problem == "MP1" else "sommerfeld"
        layouts |= {(n, (n - 1) // cfg.coarse_ratio, bc) for _, n in cfg.cells()}
    assert len(layouts) == 46
    for n, p, bc in sorted(layouts):
        part = partition(Grid(n, bc), p)
        assert_matches_reference(extend_max(part), max_overlap_layers(part))


@settings(max_examples=60, deadline=None)
@given(
    p=st.integers(1, 8),
    cells=st.integers(1, 8),
    bc=st.sampled_from(["dirichlet", "sommerfeld"]),
    data=st.data(),
)
def test_box_layout_matches_reference(p, cells, bc, data):
    assume(cells * p >= 2)  # a grid needs n >= 3 nodes per dimension
    part = partition(Grid(cells * p + 1, bc), p)
    m = data.draw(st.integers(0, max_overlap_layers(part) + 1), label="overlap")
    assert_matches_reference(extend(part, m), m)


class TestPartition:
    def test_disjoint_cover_interior(self):
        dec = extend(partition(Grid(9, "dirichlet"), 2), 0)
        assert len(subdomains(dec)) == 4
        entries = np.concatenate(subdomains(dec))
        assert len(entries) == 49
        assert len(np.unique(entries)) == 49

    def test_table_scale_subdomain_count(self):
        dec = extend(partition(Grid(81, "sommerfeld"), 20), 0)
        assert len(subdomains(dec)) == 400

    def test_single_subdomain_is_everything(self):
        g = Grid(9, "sommerfeld")
        dec = extend(partition(g, 1), 0)
        assert np.array_equal(subdomains(dec)[0], np.arange(g.num_unknowns))

    def test_indivisible_rejected(self):
        with pytest.raises(ValueError, match="divide"):
            partition(Grid(9, "dirichlet"), 3)

    def test_internal_edges_go_to_lower_box(self):
        g = Grid(9, "sommerfeld")
        sets = subdomains(extend(partition(g, 2), 0))
        # node (4, 4) sits on both internal edges; low-index box 0 owns it
        shared = g.unknown_index(4, 4)
        assert shared in sets[0]
        assert all(shared not in s for s in sets[1:])


class TestExtend:
    def test_no_overlap_gives_identity_weights(self):
        part = partition(Grid(9, "dirichlet"), 2)
        dec = extend(part, 0)
        assert dec.multiplicity.max() == 1
        for w in weights(dec):
            assert np.all(w == 1.0)

    def test_max_overlap_central_cross(self):
        # H_sub = 4h so max overlap is 2 layers; the central cross-region
        # nodes sit in all four subdomains and get weight 1/4
        g = Grid(9, "dirichlet")
        part = partition(g, 2)
        assert max_overlap_layers(part) == 2
        dec = extend_max(part)
        center = g.unknown_index(4, 4)
        assert dec.multiplicity[center] == 4
        i0 = list(subdomains(dec)[0]).index(center)
        assert weights(dec)[0][i0] == 0.25

    def test_partition_of_unity_max_overlap(self):
        g = Grid(9, "dirichlet")
        dec = extend_max(partition(g, 2))
        total = np.zeros(g.num_unknowns)
        for idx, w in zip(subdomains(dec), weights(dec)):
            total[idx] += w
        assert np.abs(total - 1.0).max() < 1e-15

    def test_single_layer_multiplicities(self):
        dec = extend(partition(Grid(17, "dirichlet"), 4), 1)
        mult = brute_force_multiplicity(dec)
        assert set(np.unique(mult)) <= {1, 2, 4}
        assert np.array_equal(mult, dec.multiplicity.astype(int))

    def test_negative_layers_rejected(self):
        with pytest.raises(ValueError):
            extend(partition(Grid(9, "dirichlet"), 2), -1)


@pytest.mark.parametrize("bc", ["dirichlet", "sommerfeld"])
@pytest.mark.parametrize(
    "n,p,m",
    [(9, 2, 0), (9, 2, 1), (9, 2, 2), (17, 2, 1), (17, 4, 1), (17, 4, 2), (33, 4, 2), (25, 3, 2)],
)
def test_partition_of_unity_identity(n, p, m, bc):
    g = Grid(n, bc)
    dec = extend(partition(g, p), m)
    total = np.zeros(g.num_unknowns)
    for idx, w in zip(subdomains(dec), weights(dec)):
        total[idx] += w
    assert np.abs(total - 1.0).max() < 1e-15


@pytest.mark.parametrize("bc", ["dirichlet", "sommerfeld"])
@pytest.mark.parametrize("n,p", [(9, 2), (17, 4), (33, 8), (33, 4), (65, 16)])
def test_max_overlap_multiplicity_bound(n, p, bc):
    dec = extend_max(partition(Grid(n, bc), p))
    assert dec.multiplicity.max() <= 4
    assert dec.multiplicity.min() >= 1


def test_decomposition_stores_no_per_entry_array():
    """The MP2 k = 200 layout has 1,954,404 subdomain entries; the decomposition
    holds its 2 x 200 interval bounds and the 641,601 multiplicities only."""
    grid = Grid(801, "sommerfeld")
    part = partition(grid, 200)
    tracemalloc.start()
    try:
        dec = extend_max(part)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert dec.num_subdomains == 40_000
    assert held < 1.5 * 8 * grid.num_unknowns


def test_local_matrices_are_principal_submatrices():
    g = Grid(9, "dirichlet")
    prob = assemble(g, 2.0, "MP1")
    dec = extend_max(partition(g, 2))
    dense = prob.A.toarray()
    for i, idx in enumerate(subdomains(dec)):
        expected = dense[np.ix_(idx, idx)]
        assert np.array_equal(local_matrix(dec, i, prob.A).toarray(), expected)


def reference_block_classes(dec, prob, overlap):
    """The subdomain labels and first members of the block classes as first
    written: each interval keyed by the CSR arrays of T and W sliced to it,
    the intervals found by a 2D np.unique of their (lo, hi) bounds, and the
    boxes read from reference_decomposition."""
    sets, _, _ = reference_decomposition(dec.grid, dec.p, overlap)
    m = dec.grid.unknowns_per_dim
    y0, x0 = np.divmod([idx[0] for idx in sets], m)
    y1, x1 = np.divmod([idx[-1] for idx in sets], m)
    bounds = np.column_stack((np.concatenate((y0, x0)), np.concatenate((y1, x1))))
    intervals, interval_of = np.unique(bounds, axis=0, return_inverse=True)
    T, W = sp.csr_matrix(prob.T), sp.csr_matrix(prob.W)

    def restricted(M, lo, hi):
        block = M[lo:hi + 1, lo:hi + 1]
        return block.indptr.tobytes(), block.indices.tobytes(), block.data.tobytes()

    content = {}
    interval_class = np.array([
        content.setdefault(restricted(T, lo, hi) + restricted(W, lo, hi), len(content))
        for lo, hi in intervals
    ])
    y_class, x_class = interval_class[interval_of.ravel()].reshape(2, -1)
    pairs = y_class * len(content) + x_class
    _, members, label = np.unique(pairs, return_index=True, return_inverse=True)
    order = np.argsort(members)
    return np.argsort(order)[label.ravel()], members[order]


def block_labels(dec, prob):
    """The subdomain labels interval_classes implies: subdomain ay * p + ax is
    labelled classes[ay] * C + classes[ax], for C interval classes."""
    classes, blocks = interval_classes(dec, prob)
    return (classes[:, None] * len(blocks) + classes).ravel()


def assert_classes_match_reference(dec, prob, overlap):
    labels, _ = reference_block_classes(dec, prob, overlap)
    assert np.array_equal(block_labels(dec, prob), labels)


def test_block_classes_match_reference_on_table_layouts():
    """The interval classing reproduces the reference on every table layout
    of k <= 100 (at the first k of each n) and on the benchmark's cells."""
    layouts = [("MP2", 401, 100, 100.0), ("MP1", 321, 80, 80.0), ("MP1", 257, 16, 5.0)]
    for which in (1, 2, 3, 4):
        cfg = builtin_table(which)
        first_k = {}
        for k, n in cfg.cells():
            if k <= 100:
                first_k.setdefault(n, k)
        layouts += [(cfg.problem, n, (n - 1) // cfg.coarse_ratio, k) for n, k in first_k.items()]
    assert len(layouts) == 3 + 42
    for problem, n, p, k in layouts:
        grid = Grid(n, "dirichlet" if problem == "MP1" else "sommerfeld")
        part = partition(grid, p)
        assert_classes_match_reference(extend_max(part), assemble(grid, k, problem), max_overlap_layers(part))


@settings(max_examples=25, deadline=None)
@given(
    problem=st.sampled_from(["MP1", "MP2"]),
    p=st.integers(1, 6),
    cells=st.sampled_from([2, 4, 6]),
    k=st.floats(0.5, 12.0),
    data=st.data(),
)
def test_block_classes_group_identical_blocks(problem, p, cells, k, data):
    grid = Grid(cells * p + 1, "dirichlet" if problem == "MP1" else "sommerfeld")
    prob = assemble(grid, k, problem)
    part = partition(grid, p)
    overlap = data.draw(st.integers(0, max_overlap_layers(part)), label="overlap")
    dec = extend(part, overlap)
    assert_classes_match_reference(dec, prob, overlap)
    classes, blocks = interval_classes(dec, prob)
    assert len(classes) == dec.p and len(blocks) <= 3
    # numbered by first appearance, each class's block taken on its first interval
    values, first = np.unique(classes, return_index=True)
    assert np.array_equal(values, np.arange(len(blocks))) and np.array_equal(np.sort(first), first)
    T, W = prob.T.toarray(), prob.W.toarray()
    for a, (lo, hi) in enumerate(zip(dec.lo, dec.hi)):
        t, w = blocks[classes[a]]
        assert np.array_equal(t, T[lo:hi + 1, lo:hi + 1]) and np.array_equal(w, W[lo:hi + 1, lo:hi + 1])
    labels = block_labels(dec, prob)
    representatives = np.unique(labels, return_index=True)[1]
    for i in range(dec.num_subdomains):
        block = local_matrix(dec, i, prob.A)
        rep = local_matrix(dec, representatives[labels[i]], prob.A)
        assert block.shape == rep.shape
        assert np.array_equal(block.toarray(), rep.toarray())


def test_block_classes_reject_empty_subdomains():
    # one cell per box: the owned nodes of the last box row and column are boundary nodes
    grid = Grid(9, "dirichlet")
    with pytest.raises(ValueError, match="empty subdomain"):
        interval_classes(extend(partition(grid, 8), 0), assemble(grid, 2.0, "MP1"))


def test_block_classes_of_the_table_cells():
    cells = [
        ("MP2", 81, 20, 9), ("MP1", 81, 20, 4), ("MP1", 65, 4, 4),
        # the benchmark's layouts
        ("MP2", 401, 100, 9), ("MP1", 321, 80, 4), ("MP1", 257, 16, 4),
    ]
    for problem, n, p, distinct in cells:
        grid = Grid(n, "dirichlet" if problem == "MP1" else "sommerfeld")
        dec = extend_max(partition(grid, p))
        prob = assemble(grid, 10.0, problem)
        _, blocks = interval_classes(dec, prob)
        assert len(blocks) ** 2 == len(LocalSolves(dec, prob).classes) == distinct
    # every class of tables 1-3 keeps its dense inverse, every class of table 4 is factored
    for which in (1, 2, 3, 4):
        cfg = builtin_table(which)
        first_k = {}
        for k, n in cfg.cells():
            first_k.setdefault(n, k)
        for n, k in first_k.items():
            grid = Grid(n, "dirichlet" if cfg.problem == "MP1" else "sommerfeld")
            dec = extend_max(partition(grid, (n - 1) // cfg.coarse_ratio))
            prob = assemble(grid, k, cfg.problem)
            _, blocks = interval_classes(dec, prob)
            forms = [type(solver) for *_, solver in LocalSolves(dec, prob).classes]
            form = KroneckerFactorization if which == 4 else np.ndarray
            assert forms == [form] * len(blocks) ** 2, (which, n)
