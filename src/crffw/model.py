"""Pairwise CRF instances: potentials, energies, gradients.

A CRF over n nodes with d labels each is described by a unary cost matrix
u of shape (n, d) and a pairwise operator P acting on relaxed labelings
x of shape (n, d).  The continuous energy is

    E(x) = 0.5 * <x, Px> + <u, x>,

which at one-hot x equals the discrete energy

    e(s) = sum_i u[i, s_i] + sum_{ij in E} Theta_ij[s_i, s_j].

P is never materialized for the fully-connected Gaussian backend; it is
applied exactly through a cached n x n kernel matrix.
"""

from __future__ import annotations

import numpy as np


def _float_copy(a, name):
    arr = np.array(a, dtype=float, copy=True)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


class DenseMatrix:
    """Explicit (n*d) x (n*d) symmetric pairwise matrix.

    Diagonal d x d blocks must be zero (a node has no pairwise term with
    itself) unless `allow_diagonal_blocks` is set, which is needed for
    convexified energies that carry a symmetric diagonal correction.
    """

    def __init__(self, matrix, n_labels, allow_diagonal_blocks=False):
        matrix = _float_copy(matrix, "pairwise matrix")
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("pairwise matrix must be square")
        if n_labels < 1 or matrix.shape[0] % n_labels != 0:
            raise ValueError("matrix size must be a multiple of n_labels")
        if not np.allclose(matrix, matrix.T, atol=1e-9, rtol=0.0):
            raise ValueError("pairwise matrix must be symmetric")
        self.matrix = matrix
        self.d = int(n_labels)
        self.n = matrix.shape[0] // self.d
        if not allow_diagonal_blocks:
            for i in range(self.n):
                blk = matrix[i * self.d:(i + 1) * self.d, i * self.d:(i + 1) * self.d]
                if np.any(blk != 0.0):
                    raise ValueError(f"diagonal block of node {i} is not zero")
        matrix.setflags(write=False)

    @property
    def n_nodes(self):
        return self.n

    @property
    def n_labels(self):
        return self.d

    def matvec(self, x):
        return (self.matrix @ x.reshape(-1)).reshape(x.shape)

    def matvec_row(self, i, x):
        d = self.d
        return self.matrix[i * d:(i + 1) * d] @ x.reshape(-1)

    def pair_energy(self, labels):
        # 0.5 * <x, Px> at the one-hot point; the i == j terms pick up
        # diagonal-block entries, which are zero for standard instances.
        idx = np.arange(self.n) * self.d + labels
        return 0.5 * float(self.matrix[np.ix_(idx, idx)].sum())

    def iter_blocks(self):
        d = self.d
        for i in range(self.n):
            for j in range(i + 1, self.n):
                blk = self.matrix[i * d:(i + 1) * d, j * d:(j + 1) * d]
                if np.any(blk != 0.0):
                    yield i, j, blk

    def label_cost_table(self):
        # Per-(node, label) cost contributed by diagonal entries at
        # one-hot points: 0.5 * P[(i,s),(i,s)].
        return 0.5 * np.diag(self.matrix).reshape(self.n, self.d)

    def to_dense(self):
        return self.matrix

    def inf_norm_bound(self):
        if self.matrix.size == 0:
            return 0.0
        return float(np.abs(self.matrix).sum(axis=1).max())


class EdgeList:
    """Sparse pairwise potentials: edges (i, j) with i < j and d x d blocks.

    Block Theta_ij applies to x_j when accumulating row i, and its
    transpose to x_i when accumulating row j, so the implied operator is
    symmetric by construction.
    """

    def __init__(self, n_nodes, n_labels, edges, thetas):
        self.n = int(n_nodes)
        self.d = int(n_labels)
        edges = np.array(edges, dtype=int, copy=True).reshape(-1, 2)
        thetas = _float_copy(thetas, "edge potentials").reshape(-1, self.d, self.d)
        if thetas.shape[0] != edges.shape[0]:
            raise ValueError("edges and thetas must have the same length")
        seen = set()
        for i, j in edges:
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ValueError(f"edge ({i}, {j}) out of range")
            if i >= j:
                raise ValueError(f"edge ({i}, {j}) violates the i < j convention")
            if (i, j) in seen:
                raise ValueError(f"duplicate edge ({i}, {j})")
            seen.add((i, j))
        self.edges = edges
        self.thetas = thetas
        edges.setflags(write=False)
        thetas.setflags(write=False)

    @property
    def n_nodes(self):
        return self.n

    @property
    def n_labels(self):
        return self.d

    def matvec(self, x):
        out = np.zeros_like(x, dtype=float)
        if len(self.edges) == 0:
            return out
        ii, jj = self.edges[:, 0], self.edges[:, 1]
        np.add.at(out, ii, np.einsum("est,et->es", self.thetas, x[jj]))
        np.add.at(out, jj, np.einsum("est,es->et", self.thetas, x[ii]))
        return out

    def matvec_row(self, i, x):
        acc = np.zeros(self.d)
        for e, (a, b) in enumerate(self.edges):
            if a == i:
                acc += self.thetas[e] @ x[b]
            elif b == i:
                acc += self.thetas[e].T @ x[a]
        return acc

    def pair_energy(self, labels):
        if len(self.edges) == 0:
            return 0.0
        ii, jj = self.edges[:, 0], self.edges[:, 1]
        return float(self.thetas[np.arange(len(self.edges)), labels[ii], labels[jj]].sum())

    def iter_blocks(self):
        for e, (i, j) in enumerate(self.edges):
            yield int(i), int(j), self.thetas[e]

    def label_cost_table(self):
        return None

    def to_dense(self):
        n, d = self.n, self.d
        P = np.zeros((n * d, n * d))
        for e, (i, j) in enumerate(self.edges):
            P[i * d:(i + 1) * d, j * d:(j + 1) * d] = self.thetas[e]
            P[j * d:(j + 1) * d, i * d:(i + 1) * d] = self.thetas[e].T
        return P

    def inf_norm_bound(self):
        rowsum = np.zeros((self.n, self.d))
        for e, (i, j) in enumerate(self.edges):
            rowsum[i] += np.abs(self.thetas[e]).sum(axis=1)
            rowsum[j] += np.abs(self.thetas[e]).sum(axis=0)
        return float(rowsum.max()) if rowsum.size else 0.0


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
        if min(alpha, beta, gamma) <= 0.0:
            raise ValueError("kernel bandwidths must be strictly positive")
        self.positions = positions
        self.colors = colors
        self.compat = compat
        self.w1 = float(w1)
        self.w2 = float(w2)
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.gamma = float(gamma)
        self._kernel = None
        for arr in (positions, colors, compat):
            arr.setflags(write=False)

    @property
    def n_nodes(self):
        return self.positions.shape[0]

    @property
    def n_labels(self):
        return self.compat.shape[0]

    @property
    def kernel_matrix(self):
        """n x n kernel values with zeroed diagonal, computed once."""
        if self._kernel is None:
            pos_sq = self._sq_dists(self.positions)
            col_sq = self._sq_dists(self.colors)
            K = (self.w1 * np.exp(-pos_sq / (2.0 * self.alpha ** 2)
                                  - col_sq / (2.0 * self.beta ** 2))
                 + self.w2 * np.exp(-pos_sq / (2.0 * self.gamma ** 2)))
            np.fill_diagonal(K, 0.0)
            self._kernel = K
        return self._kernel

    @staticmethod
    def _sq_dists(feats):
        sq = (feats ** 2).sum(axis=1)
        out = sq[:, None] + sq[None, :] - 2.0 * (feats @ feats.T)
        np.maximum(out, 0.0, out=out)
        return out

    def matvec(self, x):
        return self.kernel_matrix @ (x @ self.compat.T)

    def matvec_row(self, i, x):
        return self.kernel_matrix[i] @ (x @ self.compat.T)

    def pair_energy(self, labels):
        # the n x n array of K[i, j] * compat[l_i, l_j], built in one
        # buffer; same values, layout and summation as the np.ix_ form
        prod = self.compat[:, labels].take(labels, axis=0)
        np.multiply(self.kernel_matrix, prod, out=prod)
        return 0.5 * float(prod.sum())

    def iter_blocks(self):
        K = self.kernel_matrix
        for i in range(self.n_nodes):
            for j in range(i + 1, self.n_nodes):
                if K[i, j] != 0.0:
                    yield i, j, K[i, j] * self.compat

    def label_cost_table(self):
        return None

    def to_dense(self):
        return np.kron(self.kernel_matrix, self.compat)

    def inf_norm_bound(self):
        row_mass = np.abs(self.kernel_matrix).sum(axis=1).max() if self.n_nodes else 0.0
        label_mass = np.abs(self.compat).sum(axis=1).max() if self.n_labels else 0.0
        return float(row_mass * label_mass)


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
        self.base = base
        self.diag = diag
        diag.setflags(write=False)

    @property
    def n_nodes(self):
        return self.base.n_nodes

    @property
    def n_labels(self):
        return self.base.n_labels

    def matvec(self, x):
        return self.base.matvec(x) + self.diag * x

    def matvec_row(self, i, x):
        return self.base.matvec_row(i, x) + self.diag[i] * x[i]

    def pair_energy(self, labels):
        diag_part = 0.5 * float(self.diag[np.arange(self.n_nodes), labels].sum())
        return self.base.pair_energy(labels) + diag_part

    def iter_blocks(self):
        yield from self.base.iter_blocks()

    def label_cost_table(self):
        table = 0.5 * self.diag
        base_table = self.base.label_cost_table()
        return table if base_table is None else table + base_table

    def to_dense(self):
        return self.base.to_dense() + np.diag(self.diag.reshape(-1))

    def inf_norm_bound(self):
        # row sums of the two parts add, so the maxima bound their sum
        extra = float(np.abs(self.diag).max()) if self.diag.size else 0.0
        return self.base.inf_norm_bound() + extra


def pairwise_matvec(backend, x):
    """Apply the pairwise operator: (Px)_i = sum_{j != i} Theta_ij x_j."""
    x = np.asarray(x, dtype=float)
    if x.shape != (backend.n_nodes, backend.n_labels):
        raise ValueError(
            f"point must have shape ({backend.n_nodes}, {backend.n_labels}), got {x.shape}")
    return backend.matvec(x)


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
        self.unary = unary
        self.pairwise = pairwise
        self._lipschitz = None

    @property
    def n_nodes(self):
        return self.unary.shape[0]

    @property
    def n_labels(self):
        return self.unary.shape[1]

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
        """Upper bound on the spectral norm of the pairwise operator.

        Minimum of a power-iteration estimate (x1.05 safety factor) and
        the row-sum infinity-norm bound; the latter branch is a
        guaranteed upper bound for the symmetric operator.
        """
        if self._lipschitz is None:
            inf_bound = self.pairwise.inf_norm_bound()
            if inf_bound == 0.0:
                self._lipschitz = 0.0
            else:
                rng = np.random.default_rng(0)
                v = rng.standard_normal((self.n_nodes, self.n_labels))
                est = 0.0
                for _ in range(100):
                    w = self.pairwise.matvec(v)
                    nrm = float(np.linalg.norm(w))
                    if nrm == 0.0:
                        break
                    new_est = nrm / float(np.linalg.norm(v))
                    v = w / nrm
                    if abs(new_est - est) <= 1e-12 * max(1.0, est):
                        est = new_est
                        break
                    est = new_est
                self._lipschitz = float(min(est * 1.05, inf_bound))
        return self._lipschitz

    def one_hot(self, labels):
        """One-hot relaxed point for a labeling."""
        labels = self._check_labels(labels)
        x = np.zeros((self.n_nodes, self.n_labels))
        x[np.arange(self.n_nodes), labels] = 1.0
        return x
