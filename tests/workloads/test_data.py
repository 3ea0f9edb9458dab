"""Unit tests for input generators."""

import pytest

from repro.workloads import data as gen


def csr_invariants(indptr, indices, data, rows, cols):
    assert len(indptr) == rows + 1
    assert indptr[0] == 0
    assert indptr[-1] == len(indices) == len(data)
    for i in range(rows):
        row = indices[indptr[i]:indptr[i + 1]]
        assert row == sorted(row)
        assert len(set(row)) == len(row)
        assert all(0 <= j < cols for j in row)


def test_dense_generators_deterministic():
    assert gen.dense_matrix(4, 4, seed=7) == gen.dense_matrix(4, 4, seed=7)
    assert gen.dense_vector(10, seed=3) == gen.dense_vector(10, seed=3)
    assert gen.dense_matrix(4, 4, seed=7) != gen.dense_matrix(4, 4, seed=8)


def test_random_csr_structure():
    indptr, indices, data = gen.random_csr(20, 30, 0.2, seed=1)
    csr_invariants(indptr, indices, data, 20, 30)
    nnz_per_row = [indptr[i + 1] - indptr[i] for i in range(20)]
    assert all(v == round(0.2 * 30) for v in nnz_per_row)


def test_banded_symmetric_csr_is_symmetric():
    indptr, indices, data = gen.banded_symmetric_csr(16, 4, seed=2)
    csr_invariants(indptr, indices, data, 16, 16)
    entries = {}
    for i in range(16):
        for p in range(indptr[i], indptr[i + 1]):
            entries[(i, indices[p])] = data[p]
            assert abs(i - indices[p]) <= 4  # banded
    for (i, j), val in entries.items():
        assert entries.get((j, i)) == val


def test_mesh_csr_is_planar_graph_like():
    indptr, indices, data = gen.mesh_csr(5, seed=0)
    csr_invariants(indptr, indices, data, 25, 25)
    # Bounded degree (grid + diagonals: at most 8 neighbors).
    degrees = [indptr[i + 1] - indptr[i] for i in range(25)]
    assert max(degrees) <= 8
    assert min(degrees) >= 2


def test_sparse_vector_sorted_unique():
    idx, vals = gen.sparse_vector(100, 12, seed=4)
    assert idx == sorted(idx)
    assert len(set(idx)) == 12 == len(vals)
    assert all(v > 0 for v in vals)


def test_sparse_vector_caps_nnz():
    idx, _ = gen.sparse_vector(5, 50, seed=1)
    assert len(idx) == 5


@pytest.mark.parametrize("n,k,p", [
    (32, 4, 0.1), (64, 8, 0.1), (20, 6, 0.5), (12, 11, 0.9),
    (9, 9, 0.3), (10, 4, 0.0), (10, 4, 1.0), (7, 6, 1.0), (5, 1, 0.5),
])
def test_small_world_graph_is_networkx_watts_strogatz(n, k, p):
    """The in-repo generator reproduces networkx's graph exactly (same
    construction, same random stream) for every seed."""
    nx = pytest.importorskip("networkx")
    for seed in range(12):
        g = nx.watts_strogatz_graph(n, k, p, seed=seed)
        want_ptr, want_idx = [0], []
        for u in range(n):
            want_idx.extend(sorted(g.neighbors(u)))
            want_ptr.append(len(want_idx))
        assert gen.small_world_graph(n, k, p, seed) == \
            (want_ptr, want_idx), seed


def test_small_world_graph_structure():
    indptr, indices = gen.small_world_graph(32, k=4, p=0.1, seed=3)
    assert len(indptr) == 33
    # Undirected: adjacency is symmetric.
    neigh = [set(indices[indptr[u]:indptr[u + 1]]) for u in range(32)]
    for u in range(32):
        row = indices[indptr[u]:indptr[u + 1]]
        assert row == sorted(row)
        for w in row:
            assert u in neigh[w]
    # Average degree close to k.
    assert 2 <= len(indices) / 32 <= 6
