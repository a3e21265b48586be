"""Geometry of the feasible set: projections, softmax, rounding.

The feasible set is the product of n probability simplices, one per
node; points are (n, d) row-stochastic matrices.
"""

from __future__ import annotations

import math

import numpy as np

_MAX_SWEEPS = 100
_ROW_SUM_ATOL = 1e-9  # is_feasible's tolerance on each row's sum


def is_feasible(x):
    x = np.asarray(x, dtype=float)
    return bool(np.all(x >= -1e-12) and np.all(np.abs(x.sum(axis=1) - 1.0) <= _ROW_SUM_ATOL))


def project_simplex(v):
    """Euclidean projection of a vector onto the probability simplex."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("expected a nonempty vector")
    return project_feasible(v[None])[0]


@np.errstate(over="ignore")
def project_feasible(v):
    """Row-wise simplex projection of an (n, d) matrix.

    Per row max(v - gamma_k, 0), gamma_k = (a_1 + ... + a_k - 1) / k for
    the largest k with a_k > gamma_k, a_1 >= ... >= a_d the sorted row.
    A row that rounding leaves without an active set, or off sum 1, is
    projected again from max(v - max(v), -1): the same projection, as its
    threshold is at least max(v) - 1."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 2 or v.shape[1] == 0:
        raise ValueError("expected an (n, d) matrix with d >= 1")
    if not np.all(np.isfinite(v)):
        raise ValueError("input contains non-finite entries")
    d = v.shape[1]
    a = np.sort(v, axis=1)[:, ::-1]
    gammas = (np.cumsum(a, axis=1) - 1.0) / np.arange(1, d + 1)
    # the active-set condition a_k > gamma_k holds exactly for k <= k*
    k = (a > gammas).sum(axis=1) - 1
    thresh = gammas[np.arange(v.shape[0]), k]
    out = np.maximum(v - thresh[:, None], 0.0)
    redo = (k < 0) | ~(np.abs(out.sum(axis=1) - 1.0) <= 1e-9)
    if redo.any():  # the shifted rows pass: one level of recursion
        w = v[redo]
        out[redo] = project_feasible(np.maximum(w - w.max(axis=1, keepdims=True), -1.0))
    return out


def softmax_rows(v):
    """Row-wise softmax with max-shift for numerical stability."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 2:
        raise ValueError("expected an (n, d) matrix")
    shifted = v - v.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def round_nearest(x):
    """Per-node argmax decoding; ties break to the lowest label index."""
    x = np.asarray(x, dtype=float)
    return np.argmax(x, axis=1)


def round_bcd(instance, x):
    """Coordinate-descent decoding that never increases the energy.

    Sweeps nodes in ascending order, replacing each row of the working
    point by the one-hot minimizer of its node-conditional energy given
    the current (mixed) point.  Stops after a sweep with no change or
    after 100 sweeps.  Raises ValueError unless x is (n, d).
    """
    x = instance._check_point(x).copy()
    n, d = x.shape
    unary = instance.unary
    backend = instance.pairwise
    for _ in range(_MAX_SWEEPS):
        changed = False
        for i in range(n):
            cost = unary[i] + backend.matvec_row(i, x)
            s = int(np.argmin(cost))
            row = np.zeros(d)
            row[s] = 1.0
            if not np.array_equal(x[i], row):
                x[i] = row
                changed = True
        if not changed:
            break
    return np.argmax(x, axis=1)


def rounding_constant(instance):
    """Additive energy bound for nearest rounding.

    C = sqrt(n (1 - 1/d)) * (||u||_2 + sqrt(n) * ||P||_2), using the
    instance's spectral-norm upper bound for ||P||_2 (so the returned
    value upper-bounds the exact constant).
    """
    n, d = instance.n_nodes, instance.n_labels
    u_norm = float(np.linalg.norm(instance.unary))
    p_norm = instance.lipschitz_upper_bound()
    return math.sqrt(n * (1.0 - 1.0 / d)) * (u_norm + math.sqrt(n) * p_norm)
