import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helmdd.decomposition import (
    block_classes,
    extend,
    extend_max,
    local_matrix,
    max_overlap_layers,
    partition,
)
from helmdd.discretization import Grid, assemble


def brute_force_multiplicity(decomp):
    """Recount node membership directly from the stored index sets."""
    mult = np.zeros(decomp.grid.num_unknowns, dtype=int)
    for idx in decomp.index_sets:
        for j in idx:
            mult[j] += 1
    return mult


class TestPartition:
    def test_disjoint_cover_interior(self):
        part = partition(Grid(9, "dirichlet"), 2)
        assert len(part.index_sets) == 4
        allidx = np.concatenate(part.index_sets)
        assert len(allidx) == 49
        assert len(np.unique(allidx)) == 49

    def test_table_scale_subdomain_count(self):
        part = partition(Grid(81, "sommerfeld"), 20)
        assert len(part.index_sets) == 400

    def test_single_subdomain_is_everything(self):
        g = Grid(9, "sommerfeld")
        part = partition(g, 1)
        assert np.array_equal(part.index_sets[0], np.arange(g.num_unknowns))

    def test_indivisible_rejected(self):
        with pytest.raises(ValueError, match="divide"):
            partition(Grid(9, "dirichlet"), 3)

    def test_internal_edges_go_to_lower_box(self):
        g = Grid(9, "sommerfeld")
        part = partition(g, 2)
        # node (4, 4) sits on both internal edges; low-index box 0 owns it
        shared = g.unknown_index(4, 4)
        assert shared in part.index_sets[0]
        assert all(shared not in s for s in part.index_sets[1:])


class TestExtend:
    def test_no_overlap_gives_identity_weights(self):
        part = partition(Grid(9, "dirichlet"), 2)
        dec = extend(part, 0)
        assert dec.multiplicity.max() == 1
        for w in dec.weights:
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
        i0 = list(dec.index_sets[0]).index(center)
        assert dec.weights[0][i0] == 0.25

    def test_partition_of_unity_max_overlap(self):
        g = Grid(9, "dirichlet")
        dec = extend_max(partition(g, 2))
        total = np.zeros(g.num_unknowns)
        for idx, w in zip(dec.index_sets, dec.weights):
            total[idx] += w
        assert np.abs(total - 1.0).max() < 1e-15

    def test_single_layer_multiplicities(self):
        dec = extend(partition(Grid(17, "dirichlet"), 4), 1)
        mult = brute_force_multiplicity(dec)
        assert set(np.unique(mult)) <= {1, 2, 4}
        assert np.array_equal(mult, dec.multiplicity.astype(int))

    def test_max_multiplicity_enforced(self):
        part = partition(Grid(17, "dirichlet"), 4)
        with pytest.raises(ValueError, match="subdomains"):
            extend(part, max_overlap_layers(part) + 1, enforce_max_multiplicity=True)

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
    for idx, w in zip(dec.index_sets, dec.weights):
        total[idx] += w
    assert np.abs(total - 1.0).max() < 1e-15


@pytest.mark.parametrize("bc", ["dirichlet", "sommerfeld"])
@pytest.mark.parametrize("n,p", [(9, 2), (17, 4), (33, 8), (33, 4), (65, 16)])
def test_max_overlap_multiplicity_bound(n, p, bc):
    dec = extend_max(partition(Grid(n, bc), p))
    assert dec.multiplicity.max() <= 4
    assert dec.multiplicity.min() >= 1


def test_local_matrices_are_principal_submatrices():
    g = Grid(9, "dirichlet")
    prob = assemble(g, 2.0, "MP1")
    dec = extend_max(partition(g, 2))
    dense = prob.A.toarray()
    for i in range(dec.num_subdomains):
        idx = dec.index_sets[i]
        expected = dense[np.ix_(idx, idx)]
        assert np.array_equal(local_matrix(dec, i, prob.A).toarray(), expected)


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
    dec = extend(part, data.draw(st.integers(0, max_overlap_layers(part)), label="overlap"))
    labels, representatives = block_classes(dec, prob.A)
    assert len(labels) == dec.num_subdomains
    assert len(representatives) <= 9
    assert np.array_equal(labels[representatives], np.arange(len(representatives)))
    for i in range(dec.num_subdomains):
        block = local_matrix(dec, i, prob.A)
        rep = local_matrix(dec, representatives[labels[i]], prob.A)
        assert block.shape == rep.shape
        assert np.array_equal(block.toarray(), rep.toarray())


def test_block_classes_of_the_table_cells():
    for problem, n, p, distinct in [("MP2", 81, 20, 9), ("MP1", 81, 20, 4), ("MP1", 65, 4, 4)]:
        grid = Grid(n, "dirichlet" if problem == "MP1" else "sommerfeld")
        dec = extend_max(partition(grid, p))
        labels, representatives = block_classes(dec, assemble(grid, 10.0, problem).A)
        assert len(representatives) == distinct
        assert np.bincount(labels).sum() == dec.num_subdomains
