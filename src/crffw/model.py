"""Pairwise CRF instances: potentials, energies, gradients.

A CRF over n nodes with d labels each is described by a unary cost matrix
u of shape (n, d) and a pairwise operator P acting on relaxed labelings
x of shape (n, d).  The continuous energy is

    E(x) = 0.5 * <x, Px> + <u, x>,

which at one-hot x equals the discrete energy

    e(s) = sum_i u[i, s_i] + sum_{ij in E} Theta_ij[s_i, s_j].

P is never materialized for the fully-connected Gaussian backend; it is
applied exactly through a cached n x n kernel matrix.

A backend is the operator P and nothing else: `n_nodes`, `n_labels`,
`matvec`, `matvec_row`, `pair_energy`, `to_dense` (refused when large)
and `spectral_norm_bound`, a certified upper bound on ||P||_2, the
Lipschitz constant L_f of the energy's gradient.

The Gaussian backend's set-up (the kernel build and the Collatz-Wielandt
products behind its L_f) maps its fixed row partitions through
`SETUP_MAP`, a per-thread map that defaults to the builtin one; a solver
run with a helper thread sets it to share them between two threads.
The partitions never depend on the map, so neither do the bits: the
kernel is built by `BLOCK`-entry row blocks, and each product `K v` is
taken as two row blocks split at the largest multiple of 8 rows at or
below n / 2 (the first is empty below 16 rows).
"""

from __future__ import annotations

import contextvars
import math

import numpy as np

from .errors import CapacityError
from .simplex import softmax_rows

MAX_DENSE_ENTRIES = 1 << 26  # to_dense() refuses larger operators (512 MiB)
# arrays sized by a count (a file header, a generator flag), not by data,
# such as a kernel build's 2 n^2 doubles: at most 2 GiB
MAX_ENTRIES = 1 << 28
BLOCK = 1 << 16  # entries per row block (one row if a row is longer)
CW_RTOL, CW_MAX_PRODUCTS = 1e-3, 100  # when the Collatz-Wielandt bound stops
# fewest entries per half of a K v product worth handing to a helper
# thread.  A hand-off costs 20-35 us, a half 0.3 ns per entry, so 10^5
# entries would repay it, but on a 2-core x86-64 VM (BLAS on one thread)
# sharing lost up to 25% at n = 700-1024 and won 25-45% from n = 1032
SHARE_ENTRIES = 600_000
# map(fn, items) for the set-up's row partitions; per thread, so only
# the thread that set it shares its set-up
SETUP_MAP = contextvars.ContextVar("SETUP_MAP", default=map)


def check_entries(count, budget, what):
    """Raise CapacityError before allocating `count` entries past `budget`."""
    if count > budget:
        raise CapacityError(f"{what} is too large")


def _float_copy(a, name):
    arr = np.array(a, dtype=float, copy=True)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


class DenseMatrix:
    """Explicit (n*d) x (n*d) symmetric pairwise matrix.

    Diagonal d x d blocks are accepted (convexified energies carry a
    symmetric diagonal correction); `pair_energy` and the brute-force
    oracle both count them.
    """

    def __init__(self, matrix, n_labels):
        matrix = _float_copy(matrix, "pairwise matrix")
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("pairwise matrix must be square")
        if n_labels < 1 or matrix.shape[0] % n_labels != 0:
            raise ValueError("matrix size must be a multiple of n_labels")
        if not np.allclose(matrix, matrix.T, atol=1e-9, rtol=0.0):
            raise ValueError("pairwise matrix must be symmetric")
        self.matrix = matrix
        self.n_labels = int(n_labels)
        self.n_nodes = matrix.shape[0] // self.n_labels
        matrix.setflags(write=False)

    def matvec(self, x):
        return (self.matrix @ x.reshape(-1)).reshape(x.shape)

    def matvec_row(self, i, x):
        d = self.n_labels
        return self.matrix[i * d:(i + 1) * d] @ x.reshape(-1)

    def pair_energy(self, labels):
        # 0.5 * <x, Px> at the one-hot point, diagonal blocks included
        idx = np.arange(self.n_nodes) * self.n_labels + labels
        return 0.5 * float(self.matrix[np.ix_(idx, idx)].sum())

    def to_dense(self):
        return self.matrix

    def spectral_norm_bound(self):
        # ||P||_2 <= ||P||_inf for a symmetric P
        if self.matrix.size == 0:
            return 0.0
        return float(np.abs(self.matrix).sum(axis=1).max())


class EdgeList:
    """Sparse pairwise potentials: edges (i, j) with i < j and d x d blocks.

    Block Theta_ij applies to x_j when accumulating row i, and its
    transpose to x_i when accumulating row j, so the implied operator is
    symmetric by construction.

    An incident-edge index built once in O(n + E) makes `matvec_row`
    cost O(degree); it adds a node's incident edges in edge order, as a
    plain loop over the edges does.  `matvec` scatters each label's
    column with one `np.bincount`, which adds in input order: per node,
    the edges where it is i and then those where it is j, each in edge
    order.  It can differ in the last bits from a loop that interleaves
    the two.
    """

    def __init__(self, n_nodes, n_labels, edges, thetas):
        self.n_nodes = int(n_nodes)
        self.n_labels = d = int(n_labels)
        edges = np.array(edges, dtype=int, copy=True).reshape(-1, 2)
        thetas = _float_copy(thetas, "edge potentials")
        if thetas.shape == (0,):  # `[]`: no blocks
            thetas = thetas.reshape(0, d, d)
        if thetas.shape[1:] != (d, d):
            raise ValueError(f"edge potentials must have shape (E, {d}, {d}), "
                             f"got {thetas.shape}")
        if thetas.shape[0] != edges.shape[0]:
            raise ValueError("edges and thetas must have the same length")
        _check_edges(edges, self.n_nodes)
        self.edges = edges
        self.thetas = thetas
        edges.setflags(write=False)
        thetas.setflags(write=False)
        ends = edges.reshape(-1)  # i0, j0, i1, j1, ...
        self._indptr = np.zeros(self.n_nodes + 1, dtype=int)
        np.cumsum(np.bincount(ends, minlength=self.n_nodes), out=self._indptr[1:])
        # each node's incident edges in edge order, as rows of (edge id,
        # neighbour, 1 if the node is the edge's i)
        edge, role = np.divmod(np.argsort(ends, kind="stable"), 2)
        self._incident = np.stack((edge, edges[edge, 1 - role], role == 0), axis=1)

    def matvec(self, x):
        n_edges = len(self.edges)
        ii, jj = self.edges[:, 0], self.edges[:, 1]
        # by label, so each bincount reads a contiguous column: column e is
        # edge e's term of row i, column E + e its term of row j.  einsum
        # writes through transposed views, keeping its (E, d) loop order,
        # which is faster at large d than a (d, E) output.
        contrib = np.empty((self.n_labels, 2 * n_edges))
        np.einsum("est,et->es", self.thetas, x[jj], out=contrib[:, :n_edges].T)
        np.einsum("est,es->et", self.thetas, x[ii], out=contrib[:, n_edges:].T)
        return _scatter_rows(self.edges.T.reshape(-1), contrib, self.n_nodes)

    def matvec_row(self, i, x):
        acc = np.zeros(self.n_labels)
        lo, hi = self._indptr[i], self._indptr[i + 1]
        for e, nb, first in self._incident[lo:hi].tolist():
            if first:
                acc += self.thetas[e] @ x[nb]
            else:
                acc += self.thetas[e].T @ x[nb]
        return acc

    def pair_energy(self, labels):
        if len(self.edges) == 0:
            return 0.0
        ii, jj = self.edges[:, 0], self.edges[:, 1]
        return float(self.thetas[np.arange(len(self.edges)), labels[ii], labels[jj]].sum())

    def to_dense(self):
        n, d = self.n_nodes, self.n_labels
        check_entries((n * d) ** 2, MAX_DENSE_ENTRIES, f"a dense operator of order {n * d}")
        P = np.zeros((n * d, n * d))
        for e, (i, j) in enumerate(self.edges):
            P[i * d:(i + 1) * d, j * d:(j + 1) * d] = self.thetas[e]
            P[j * d:(j + 1) * d, i * d:(i + 1) * d] = self.thetas[e].T
        return P

    def spectral_norm_bound(self):
        # ||P||_2 <= ||P||_inf for a symmetric P
        mags = np.abs(self.thetas)
        # rows i0, j0, i1, j1, ...: the order of a loop over the edges
        sums = np.stack((mags.sum(axis=2), mags.sum(axis=1)), axis=1)
        rowsum = _scatter_rows(self.edges.reshape(-1), sums.reshape(-1, self.n_labels).T,
                               self.n_nodes)
        return float(rowsum.max()) if rowsum.size else 0.0


def _scatter_rows(rows, columns, n):
    """(n, len(columns)) array whose row r, column s sums columns[s][k]
    over the k with rows[k] == r, added in k order from 0.0."""
    out = np.empty((n, len(columns)))
    for s, col in enumerate(columns):
        out[:, s] = np.bincount(rows, col, minlength=n)
    return out


def _row_blocks(n):
    step = max(1, BLOCK // max(n, 1))  # rows of an n-column array per block
    return (slice(lo, lo + step) for lo in range(0, n, step))


def _check_edges(edges, n):
    """Raise for the first edge, in edge order, that is out of range,
    not ordered i < j, or a repeat of an earlier edge."""
    ii, jj = edges[:, 0], edges[:, 1]
    out_of_range = (ii < 0) | (ii >= n) | (jj < 0) | (jj >= n)
    misordered = ii >= jj
    # lexsort is stable: the first copy of a pair leads its run
    order = np.lexsort((jj, ii))
    si, sj = ii[order], jj[order]
    repeat = np.zeros(len(edges), dtype=bool)
    repeat[order[1:]] = (si[1:] == si[:-1]) & (sj[1:] == sj[:-1])
    bad = np.flatnonzero(out_of_range | misordered | repeat)
    if bad.size == 0:
        return
    e = bad[0]
    i, j = ii[e], jj[e]
    if out_of_range[e]:
        raise ValueError(f"edge ({i}, {j}) out of range")
    if misordered[e]:
        raise ValueError(f"edge ({i}, {j}) violates the i < j convention")
    raise ValueError(f"duplicate edge ({i}, {j})")


class GaussianKernel:
    """Fully-connected pairwise potentials Theta_ij = k(f_i, f_j) * mu.

    Features are per-node positions (pixels) and colors in [0, 255]^3;
    the kernel is a weighted sum of a bilateral Gaussian (positions and
    colors, bandwidths `alpha` and `beta`) and a spatial Gaussian
    (bandwidth `gamma`).  Self-interactions are excluded: the cached
    kernel matrix has a zero diagonal.  The d x d compatibility matrix
    `compat` must be symmetric, otherwise the operator cannot be.
    """

    def __init__(self, positions, colors, compat, w1=1.0, w2=1.0,
                 alpha=80.0, beta=13.0, gamma=3.0):
        positions = _float_copy(positions, "positions")
        if positions.ndim != 2 or positions.shape[1] != 2:
            raise ValueError("positions must have shape (n, 2)")
        colors = _float_copy(colors, "colors")
        if colors.shape != (positions.shape[0], 3):
            raise ValueError("colors must have shape (n, 3)")
        compat = _float_copy(compat, "compat")
        if compat.ndim != 2 or compat.shape[0] != compat.shape[1]:
            raise ValueError("compat must be a square matrix")
        if not np.allclose(compat, compat.T, atol=1e-12, rtol=0.0):
            raise ValueError("compat must be symmetric")
        bandwidths = [float(v) for v in (alpha, beta, gamma)]
        # the kernel build divides by 2 v ** 2, and a float power raises past its range
        if not all(v > 0.0 and 2.0 * v * v < np.inf for v in bandwidths):
            raise ValueError("kernel bandwidths must be strictly positive, with 2 v^2 finite")
        if not np.all(np.isfinite((w1, w2))):
            raise ValueError("kernel weights must be finite")
        self.n_nodes, self.n_labels = positions.shape[0], compat.shape[0]
        self.positions = positions
        self.colors = colors
        self.compat = compat
        self.w1 = float(w1)
        self.w2 = float(w2)
        self.alpha, self.beta, self.gamma = bandwidths
        self._kernel = None
        for arr in (positions, colors, compat):
            arr.setflags(write=False)

    @property
    def kernel_matrix(self):
        """n x n kernel values with zeroed diagonal, computed once.

        Both Gram products are taken whole, one after the other (row-blocked
        ones can differ in the last bits), and turned in place, by row
        blocks mapped through `SETUP_MAP`, into squared distances and kernel
        values: the build holds 2 n^2 doubles and a scratch block per
        thread.
        """
        if self._kernel is None:
            n, feats = self.n_nodes, (self.positions, self.colors)
            check_entries(2 * n * n, MAX_ENTRIES, f"a Gaussian kernel over {n} nodes")
            sq_pos, sq_col = ((f ** 2).sum(axis=1) for f in feats)
            pos_sq, K = (f @ f.T for f in feats)
            w1, w2 = self.w1, self.w2
            two_a2, two_b2, two_g2 = (2.0 * v ** 2 for v in (self.alpha, self.beta, self.gamma))

            def finish(rows):
                # in place, with the operations and order of the one-shot
                # formula; -p / x is p / -x to the bit
                p, c = pos_sq[rows], K[rows]
                s = np.empty_like(p)
                for dist, sq in ((p, sq_pos), (c, sq_col)):
                    np.multiply(dist, 2.0, out=s)
                    np.subtract(np.add(sq[rows, None], sq, out=dist), s, out=dist)
                    np.maximum(dist, 0.0, out=dist)
                np.subtract(np.divide(p, -two_a2, out=s), np.divide(c, two_b2, out=c), out=c)
                np.multiply(w1, np.exp(c, out=c), out=c)
                np.multiply(w2, np.exp(np.divide(p, -two_g2, out=s), out=s), out=s)
                np.add(c, s, out=c)

            list(SETUP_MAP.get()(finish, _row_blocks(n)))
            np.fill_diagonal(K, 0.0)
            self._kernel = K
        return self._kernel

    def matvec(self, x):
        return self.kernel_matrix @ (x @ self.compat.T)

    def matvec_row(self, i, x):
        # O(n d + d^2): the kernel row first, then compat
        return (self.kernel_matrix[i] @ x) @ self.compat.T

    def pair_energy(self, labels):
        """0.5 * sum_ij K[i, j] compat[l_i, l_j] with no n x n temporary:
        numpy sums each row block's terms, and `math.fsum` adds the block
        sums, rounding once; past the float range numpy's sum of them gives
        +-inf or nan instead.  When n * n <= BLOCK one block holds every
        term: the result is bitwise numpy's one sum over the whole array."""
        K, n = self.kernel_matrix, self.n_nodes
        cols = self.compat[:, labels]  # cols[a, j] = compat[a, l_j]; checks the labels
        scratch = np.empty(min(n * n, max(BLOCK, n)))
        sums = []
        for rows in _row_blocks(n):
            terms = scratch[:K[rows].size].reshape(-1, n)
            # mode="raise" would copy through a buffer; `cols` checked the labels
            cols.take(labels[rows], axis=0, out=terms, mode="wrap")
            sums.append(np.multiply(terms, K[rows], out=terms).sum())
        try:
            return 0.5 * math.fsum(sums)
        except (OverflowError, ValueError):  # a total past the float range, or inf - inf
            return 0.5 * float(np.sum(sums))

    def to_dense(self):
        n, d = self.n_nodes, self.n_labels
        check_entries((n * d) ** 2, MAX_DENSE_ENTRIES, f"a dense operator of order {n * d}")
        return np.kron(self.kernel_matrix, self.compat)

    def spectral_norm_bound(self):
        """||K (x) compat||_2 = ||K||_2 ||compat||_2, with ||compat||_2 exact.

        For w1, w2 >= 0, K >= 0, and by Collatz-Wielandt the ratios
        (Kv)_i / v_i bracket rho(K) = ||K||_2 for every v > 0.  v takes
        shifted power steps v <- Kv + s v from v = 1: K's spectrum lies in
        [-min(w1 + w2, rho), rho], and s = min((w1 + w2) / 2, bound / 8)
        keeps its negative end from dominating at any kernel scale.  Each
        Kv is two row blocks (see the module docstring), mapped through
        `SETUP_MAP` when a half holds at least SHARE_ENTRIES entries.
        """
        n, d = self.n_nodes, self.n_labels
        if n == 0 or d == 0:
            return 0.0
        K = self.kernel_matrix
        # allowance for rounding in the n-term sums and the d x d norm
        scale = np.linalg.norm(self.compat, 2) * (1.0 + 4.0 * (n + d * d) * np.finfo(float).eps)
        if min(self.w1, self.w2) < 0.0:  # ||K||_2 <= ||K||_inf, by row blocks
            return float(max(np.abs(K[r]).sum(axis=1).max() for r in _row_blocks(n)) * scale)
        h = n // 2 - n // 2 % 8
        halves = slice(0, h), slice(h, n)  # the first is empty below 16 rows
        # a product too small to repay the hand-off stays on this thread
        share = SETUP_MAP.get() if h * n >= SHARE_ENTRIES else map
        v, bound, kv = np.ones(n), np.inf, np.empty(n)
        for _ in range(CW_MAX_PRODUCTS):
            list(share(lambda rows: np.matmul(K[rows], v, out=kv[rows]), halves))
            ratios = kv / v
            bound = min(bound, float(ratios.max()))
            if ratios.max() <= (1.0 + CW_RTOL) * ratios.min():
                break
            v = kv + min(0.5 * (self.w1 + self.w2), bound / 8.0) * v
            # any v > 0 certifies: rescale, and keep decaying entries positive
            np.maximum(v / v.max(), np.finfo(float).tiny, out=v)
        return float(bound * scale)


class DiagonalShift:
    """A pairwise operator plus a per-(node, label) diagonal term.

    Wraps any backend without materializing it; used by convexified
    energies, whose Hessian is the original operator shifted on the
    diagonal.  The diagonal contributes 0.5 * diag[i, s] per node at
    one-hot points.
    """

    def __init__(self, base, diag):
        diag = _float_copy(diag, "diagonal shift")
        if diag.shape != (base.n_nodes, base.n_labels):
            raise ValueError("diagonal shift shape must match the base operator")
        self.n_nodes, self.n_labels = diag.shape
        self.base = base
        self.diag = diag
        diag.setflags(write=False)

    def matvec(self, x):
        return self.base.matvec(x) + self.diag * x

    def matvec_row(self, i, x):
        return self.base.matvec_row(i, x) + self.diag[i] * x[i]

    def pair_energy(self, labels):
        diag_part = 0.5 * float(self.diag[np.arange(self.n_nodes), labels].sum())
        return self.base.pair_energy(labels) + diag_part

    def to_dense(self):
        return self.base.to_dense() + np.diag(self.diag.reshape(-1))

    def spectral_norm_bound(self):
        # ||P + D||_2 <= ||P||_2 + max |D|
        extra = float(np.abs(self.diag).max()) if self.diag.size else 0.0
        return self.base.spectral_norm_bound() + extra


class CrfInstance:
    """Immutable CRF instance: unary costs plus a pairwise backend."""

    def __init__(self, unary, pairwise):
        unary = _float_copy(unary, "unary")
        if unary.ndim != 2:
            raise ValueError("unary must be an (n, d) matrix")
        if unary.shape != (pairwise.n_nodes, pairwise.n_labels):
            raise ValueError(
                f"unary shape {unary.shape} does not match pairwise backend "
                f"({pairwise.n_nodes}, {pairwise.n_labels})")
        unary.setflags(write=False)
        self.n_nodes, self.n_labels = unary.shape
        self.unary = unary
        self.pairwise = pairwise
        self._lipschitz = None
        self._start = None
        self._convex = None  # solvers.convexify's cache

    def _check_labels(self, labels):
        labels = np.asarray(labels, dtype=int)
        if labels.shape != (self.n_nodes,):
            raise ValueError(f"labeling must have shape ({self.n_nodes},), got {labels.shape}")
        if labels.size and (labels.min() < 0 or labels.max() >= self.n_labels):
            raise ValueError("labeling contains out-of-range label indices")
        return labels

    def _check_point(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n_nodes, self.n_labels):
            raise ValueError(
                f"point must have shape ({self.n_nodes}, {self.n_labels}), got {x.shape}")
        return x

    def energy_discrete(self, labels):
        """Energy of a labeling: unary costs plus one term per edge."""
        labels = self._check_labels(labels)
        unary_part = float(self.unary[np.arange(self.n_nodes), labels].sum())
        return unary_part + self.pairwise.pair_energy(labels)

    def energy_relaxed(self, x, px=None):
        """Continuous energy 0.5 * <x, Px> + <u, x>.

        `px`, when given, is taken as Px instead of applying P again.
        """
        x = self._check_point(x)
        if px is None:
            px = self.pairwise.matvec(x)
        return float(0.5 * (x * px).sum() + (self.unary * x).sum())

    def gradient(self, x):
        """Gradient of the continuous energy: Px + u."""
        x = self._check_point(x)
        return self.pairwise.matvec(x) + self.unary

    def lipschitz_upper_bound(self):
        """Certified upper bound on the spectral norm of the pairwise
        operator (L_f): the backend's `spectral_norm_bound()`, cached."""
        if self._lipschitz is None:
            self._lipschitz = float(self.pairwise.spectral_norm_bound())
        return self._lipschitz

    def start(self):
        """The solvers' starting point x0 = softmax_rows(-u) and P x0,
        computed once and read-only."""
        if self._start is None:
            x0 = softmax_rows(-self.unary)
            px0 = self.pairwise.matvec(x0)
            x0.setflags(write=False)
            px0.setflags(write=False)
            self._start = x0, px0
        return self._start

    def one_hot(self, labels):
        """One-hot relaxed point for a labeling."""
        labels = self._check_labels(labels)
        x = np.zeros((self.n_nodes, self.n_labels))
        x[np.arange(self.n_nodes), labels] = 1.0
        return x
