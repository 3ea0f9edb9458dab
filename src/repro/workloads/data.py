"""Input generators for the benchmark suite.

The paper evaluates on random dense inputs plus SuiteSparse matrices
(DNVS/trdheim, DIMACS10/M6) and a navigable small-world graph for tc.
Offline we synthesize structurally similar inputs:

* ``banded_symmetric_csr`` -- trdheim is a banded symmetric FEM
  stiffness matrix; we match the banded-symmetric structure.
* ``mesh_csr`` -- M6 is a planar triangular mesh; we use a 2-D grid
  with diagonal links (planar, bounded degree).
* ``small_world_graph`` -- Watts-Strogatz, as in the paper [83]
  (networkx's construction and random stream, reimplemented: importing
  networkx costs ~0.2 s per process, a large share of sweep set-up).

All values are small integers so results are exact across machines.
"""

from __future__ import annotations

import random
from typing import Dict, List, Set, Tuple


def dense_matrix(rows: int, cols: int, seed: int = 0,
                 lo: int = 0, hi: int = 9) -> List[int]:
    rng = random.Random(seed)
    return [rng.randint(lo, hi) for _ in range(rows * cols)]


def dense_vector(n: int, seed: int = 0, lo: int = 0,
                 hi: int = 9) -> List[int]:
    rng = random.Random(seed)
    return [rng.randint(lo, hi) for _ in range(n)]


CSR = Tuple[List[int], List[int], List[int]]  # (indptr, indices, data)


def random_csr(rows: int, cols: int, density: float,
               seed: int = 0) -> CSR:
    """Uniform random sparse matrix in CSR form."""
    rng = random.Random(seed)
    indptr = [0]
    indices: List[int] = []
    data: List[int] = []
    for _ in range(rows):
        row = sorted(rng.sample(range(cols),
                                max(0, round(density * cols))))
        indices.extend(row)
        data.extend(rng.randint(1, 9) for _ in row)
        indptr.append(len(indices))
    return indptr, indices, data


def banded_symmetric_csr(n: int, bandwidth: int, fill: float = 0.6,
                         seed: int = 0) -> CSR:
    """Banded symmetric matrix (DNVS/trdheim-like FEM structure)."""
    rng = random.Random(seed)
    upper: Dict[int, Dict[int, int]] = {i: {} for i in range(n)}
    for i in range(n):
        upper[i][i] = rng.randint(1, 9)
        for j in range(i + 1, min(n, i + bandwidth + 1)):
            if rng.random() < fill:
                upper[i][j] = rng.randint(1, 9)
    indptr = [0]
    indices: List[int] = []
    data: List[int] = []
    for i in range(n):
        row = dict(upper[i])
        for j in range(max(0, i - bandwidth), i):
            if i in upper[j]:
                row[j] = upper[j][i]
        for j in sorted(row):
            indices.append(j)
            data.append(row[j])
        indptr.append(len(indices))
    return indptr, indices, data


def mesh_csr(side: int, seed: int = 0) -> CSR:
    """Adjacency-like sparse matrix of a triangulated grid
    (DIMACS10/M6-like planar mesh)."""
    rng = random.Random(seed)
    n = side * side
    neighbors: Dict[int, set] = {i: set() for i in range(n)}

    def node(r, col):
        return r * side + col

    for r in range(side):
        for col in range(side):
            u = node(r, col)
            if col + 1 < side:
                neighbors[u].add(node(r, col + 1))
                neighbors[node(r, col + 1)].add(u)
            if r + 1 < side:
                neighbors[u].add(node(r + 1, col))
                neighbors[node(r + 1, col)].add(u)
            if col + 1 < side and r + 1 < side:
                neighbors[u].add(node(r + 1, col + 1))
                neighbors[node(r + 1, col + 1)].add(u)
    indptr = [0]
    indices: List[int] = []
    data: List[int] = []
    for u in range(n):
        for w in sorted(neighbors[u]):
            indices.append(w)
            data.append(rng.randint(1, 9))
        indptr.append(len(indices))
    return indptr, indices, data


def sparse_vector(n: int, nnz: int, seed: int = 0
                  ) -> Tuple[List[int], List[int]]:
    """A sparse vector as sorted (indices, values)."""
    rng = random.Random(seed)
    nnz = min(nnz, n)
    idx = sorted(rng.sample(range(n), nnz))
    vals = [rng.randint(1, 9) for _ in idx]
    return idx, vals


def small_world_graph(n: int, k: int = 8, p: float = 0.1,
                      seed: int = 0) -> Tuple[List[int], List[int]]:
    """Watts-Strogatz navigable small world as CSR adjacency
    (sorted neighbor lists), like the paper's tc input [83].

    The graph is exactly ``networkx.watts_strogatz_graph(n, k, p,
    seed)``: a ring lattice of ``k // 2`` neighbors per side, then
    every lattice edge ``(u, u + j)``, in that function's order and
    with its draws from ``random.Random(seed)``, rewired with
    probability ``p`` to a uniformly chosen node that is neither ``u``
    nor already adjacent (tests/workloads/test_data.py pins equality).
    """
    if k > n:
        raise ValueError("k>n, choose smaller k or larger n")
    nodes = list(range(n))
    if k == n:                       # complete, not Watts-Strogatz
        adj: List[Set[int]] = [set(nodes) - {u} for u in nodes]
    else:
        rng = random.Random(seed)
        adj = [set() for _ in nodes]
        for j in range(1, k // 2 + 1):
            for u in nodes:
                v = (u + j) % n
                adj[u].add(v)
                adj[v].add(u)
        for j in range(1, k // 2 + 1):
            for u in nodes:
                v = (u + j) % n
                if rng.random() < p:
                    w = rng.choice(nodes)
                    while w == u or w in adj[u]:
                        w = rng.choice(nodes)
                        if len(adj[u]) >= n - 1:
                            break            # skip this rewiring
                    else:
                        adj[u].remove(v)
                        adj[v].remove(u)
                        adj[u].add(w)
                        adj[w].add(u)
    indptr = [0]
    indices: List[int] = []
    for u in nodes:
        indices.extend(sorted(adj[u]))
        indptr.append(len(indices))
    return indptr, indices
