"""The indexed EdgeList against plain loops over the edges.

The reference functions below are loop forms of `EdgeList.matvec`,
`matvec_row` and `inf_norm_bound` that add contributions in edge order;
the indexed backend must reproduce their results bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crffw import CrfInstance, DenseMatrix, EdgeList, RandomGrid, generate, round_bcd


def loop_matvec(backend, x):
    out = np.zeros_like(x, dtype=float)
    if len(backend.edges) == 0:
        return out
    ii, jj = backend.edges[:, 0], backend.edges[:, 1]
    np.add.at(out, ii, np.einsum("est,et->es", backend.thetas, x[jj]))
    np.add.at(out, jj, np.einsum("est,es->et", backend.thetas, x[ii]))
    return out


def loop_matvec_row(backend, i, x):
    acc = np.zeros(backend.d)
    for e, (a, b) in enumerate(backend.edges):
        if a == i:
            acc += backend.thetas[e] @ x[b]
        elif b == i:
            acc += backend.thetas[e].T @ x[a]
    return acc


def loop_inf_norm_bound(backend):
    rowsum = np.zeros((backend.n, backend.d))
    for e, (i, j) in enumerate(backend.edges):
        rowsum[i] += np.abs(backend.thetas[e]).sum(axis=1)
        rowsum[j] += np.abs(backend.thetas[e]).sum(axis=0)
    return float(rowsum.max()) if rowsum.size else 0.0


class LoopEdgeList(EdgeList):
    def matvec_row(self, i, x):
        return loop_matvec_row(self, i, x)


def random_edges(rng, kind, n):
    if kind == "none":
        return []
    if kind == "star":
        hub = int(rng.integers(n))
        return sorted((min(hub, v), max(hub, v)) for v in range(n) if v != hub)
    # Erdos-Renyi; "isolated" keeps the last third of the nodes edgeless
    p = 0.8 if kind == "dense" else 0.4
    m = n if kind == "dense" else max(1, (2 * n) // 3)
    return [(i, j) for i in range(m) for j in range(i + 1, m) if rng.uniform() < p]


def random_backend(seed, kind, n, d, log_scale, potts):
    rng = np.random.default_rng(seed)
    edges = random_edges(rng, kind, n)
    if rng.uniform() < 0.5:
        order = rng.permutation(len(edges))  # edge order need not be sorted
        edges = [edges[k] for k in order]
    if potts:
        thetas = np.repeat((1.0 - np.eye(d))[None], len(edges), axis=0)
    else:
        thetas = rng.standard_normal((len(edges), d, d))
    scales = 10.0 ** rng.uniform(-log_scale, log_scale, size=(len(edges), 1, 1))
    backend = EdgeList(n, d, np.array(edges, int).reshape(-1, 2), thetas * scales)
    x = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-log_scale, log_scale)
    return backend, x


class TestBitExactAgainstLoops:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           kind=st.sampled_from(["none", "isolated", "star", "dense"]),
           n=st.integers(1, 30), d=st.integers(1, 7),
           log_scale=st.sampled_from([0.0, 1.0, 3.0]), potts=st.booleans())
    def test_operators_equal_loop_forms(self, seed, kind, n, d, log_scale, potts):
        backend, x = random_backend(seed, kind, n, d, log_scale, potts)
        assert np.array_equal(backend.matvec(x), loop_matvec(backend, x))
        for i in range(n):
            assert np.array_equal(backend.matvec_row(i, x), loop_matvec_row(backend, i, x))
        assert backend.inf_norm_bound() == loop_inf_norm_bound(backend)

    def test_large_star(self):
        backend, x = random_backend(3, "star", 400, 3, 3.0, False)
        assert np.array_equal(backend.matvec(x), loop_matvec(backend, x))
        for i in (0, 1, 199, 399):
            assert np.array_equal(backend.matvec_row(i, x), loop_matvec_row(backend, i, x))
        assert backend.inf_norm_bound() == loop_inf_norm_bound(backend)

    def test_bcd_labels_unchanged_on_random_grid(self):
        inst = generate(RandomGrid(12, 12, 5, seed=4))
        pw = inst.pairwise
        reference = CrfInstance(inst.unary, LoopEdgeList(pw.n, pw.d, pw.edges, pw.thetas))
        x = np.random.default_rng(4).dirichlet(np.ones(5), size=144)
        assert np.array_equal(round_bcd(inst, x), round_bcd(reference, x))

    def test_index_is_linear_in_size(self):
        backend, _ = random_backend(5, "star", 300, 2, 0.0, True)
        n_slots = 2 * len(backend.edges)
        held = [v.size for v in vars(backend).values() if isinstance(v, np.ndarray)]
        held += [len(v) for v in vars(backend).values() if isinstance(v, list)]
        d2 = backend.d ** 2
        assert max(held) <= max(3 * n_slots, d2 * len(backend.edges), backend.n + 1)


class TestFirstOffenderReported:
    def test_edge_list_reports_first_bad_edge(self):
        edges = np.array([[0, 1], [1, 2], [2, 3], [0, 1], [3, 4], [5, 4], [0, 9]])
        thetas = np.zeros((len(edges), 2, 2))
        with pytest.raises(ValueError, match=r"^duplicate edge \(0, 1\)$"):
            EdgeList(10, 2, edges, thetas)
        edges[3] = [0, 2]
        with pytest.raises(ValueError, match=r"^edge \(5, 4\) violates the i < j"):
            EdgeList(10, 2, edges, thetas)
        edges[5] = [4, 5]
        with pytest.raises(ValueError, match=r"^edge \(0, 9\) out of range$"):
            EdgeList(9, 2, edges, thetas)

    def test_range_reported_before_order(self):
        with pytest.raises(ValueError, match=r"^edge \(7, 3\) out of range$"):
            EdgeList(5, 2, np.array([[0, 1], [7, 3]]), np.zeros((2, 2, 2)))

    def test_dense_reports_first_bad_node(self):
        n, d = 6, 2
        m = np.zeros((n * d, n * d))
        for node in (5, 3):
            m[node * d, node * d + 1] = m[node * d + 1, node * d] = 1.0
        with pytest.raises(ValueError, match=r"^diagonal block of node 3 is not zero$"):
            DenseMatrix(m, d)
        assert DenseMatrix(m, d, allow_diagonal_blocks=True).n_nodes == n
