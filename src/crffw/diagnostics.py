"""Ground-truth oracles and runtime-checkable convergence machinery.

Everything here is deliberately independent of the solver code paths:
the brute-force oracle enumerates labelings, gradients are checked by
central differences, and the per-iteration decrease bounds are evaluated
straight from the convergence-analysis table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import schedules, simplex
from .errors import CapacityError
from .regularizers import regularizer_bounds

_BRUTE_FORCE_CAP = 10_000_000
_CHUNK = 1 << 14
_FD_STEP = 1e-5  # finite_diff_gradient's central-difference step


@dataclass(frozen=True)
class OracleReport:
    optimal_labeling: np.ndarray
    optimal_energy: float
    enumerated_count: int


@dataclass(frozen=True)
class ConvergenceParams:
    """Constants entering the decrease bounds.

    omega = sigma_g / (L_f + sigma_g); diameter = sqrt(2 n) is the
    diameter of the product of n simplices (each row pair differs by at
    most sqrt(2)).
    """

    l_f: float
    sigma_g: float
    diameter: float

    @property
    def omega(self):
        if self.l_f + self.sigma_g <= 0.0:
            return 1.0
        return self.sigma_g / (self.l_f + self.sigma_g)


def feasible_set_diameter(n_nodes):
    """Diameter sqrt(2 n) of the product of n probability simplices."""
    return math.sqrt(2.0 * n_nodes)


def convergence_params(instance, reg):
    return ConvergenceParams(
        l_f=instance.lipschitz_upper_bound(),
        sigma_g=0.0 if reg is None else reg.lam,
        diameter=feasible_set_diameter(instance.n_nodes),
    )


def _decode_labelings(indices, n, d):
    # mixed-radix decoding, first node most significant -> lexicographic order
    return np.stack(np.unravel_index(indices, (d,) * n), axis=1)


def _batch_energies(unary, blocks, labelings):
    n = unary.shape[0]
    e = unary[np.arange(n)[None, :], labelings].sum(axis=1)
    for i, j, blk in blocks:
        e = e + blk[labelings[:, i], labelings[:, j]]
    return e


def brute_force_map(instance):
    """Exhaustive MAP: minimum-energy labeling, lexicographic tie-break.

    Reads P through `to_dense()`, so an operator too large to hold (an
    `EdgeList` with d = 1 and n = 9000) raises `CapacityError` at any d^n.
    """
    n, d = instance.n_nodes, instance.n_labels
    total = d ** n
    if total > _BRUTE_FORCE_CAP:
        raise CapacityError(
            f"d^n = {total} labelings exceeds the enumeration cap {_BRUTE_FORCE_CAP}")
    P = instance.pairwise.to_dense()
    # diagonal entries count half at one-hot points; each i < j block once
    unary = instance.unary + 0.5 * np.diag(P).reshape(n, d)
    blocks = [(i, j, blk) for i in range(n) for j in range(i + 1, n)
              if (blk := P[i * d:(i + 1) * d, j * d:(j + 1) * d]).any()]
    best_energy = math.inf
    best_labeling = None
    for start in range(0, total, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        labelings = _decode_labelings(idx, n, d)
        energies = _batch_energies(unary, blocks, labelings)
        j = int(np.argmin(energies))
        if energies[j] < best_energy:
            best_energy = float(energies[j])
            best_labeling = labelings[j].copy()
    # report the canonical evaluation of the winning labeling so the
    # energy matches energy_discrete bit for bit
    return OracleReport(optimal_labeling=best_labeling,
                        optimal_energy=instance.energy_discrete(best_labeling),
                        enumerated_count=total)


def finite_diff_gradient(instance, x):
    """Central-difference gradient of the continuous energy.

    The energy is a quadratic polynomial, so central differences are
    exact up to rounding; off-simplex evaluation is fine.
    """
    x = np.asarray(x, dtype=float)
    grad = np.empty_like(x)
    for i in range(x.shape[0]):
        for s in range(x.shape[1]):
            xp = x.copy()
            xm = x.copy()
            xp[i, s] += _FD_STEP
            xm[i, s] -= _FD_STEP
            grad[i, s] = (instance.energy_relaxed(xp)
                          - instance.energy_relaxed(xm)) / (2.0 * _FD_STEP)
    return grad


@dataclass(frozen=True)
class TightnessReport:
    e_star: float
    e_rounded_nearest: float
    e_rounded_bcd: float
    bound_nearest: float
    bound_bcd: float


def tightness_report(instance, x, reg=None, x_is_global_min=False):
    """Rounding-gap report against the brute-force optimum.

    Always verifies E* <= E(rounded).  When the caller certifies x as a
    global minimizer of the regularized relaxation, also verifies the
    additive upper bounds E* + M - m (+ C for nearest rounding).
    """
    report = brute_force_map(instance)
    e_star = report.optimal_energy
    m, big_m = regularizer_bounds(reg, instance.n_nodes, instance.n_labels)
    c = simplex.rounding_constant(instance)
    e_near = instance.energy_discrete(simplex.round_nearest(x))
    e_bcd = instance.energy_discrete(simplex.round_bcd(instance, x))
    out = TightnessReport(
        e_star=e_star,
        e_rounded_nearest=e_near,
        e_rounded_bcd=e_bcd,
        bound_nearest=e_star + (big_m - m) + c,
        bound_bcd=e_star + (big_m - m),
    )
    if e_near < e_star - 1e-9 or e_bcd < e_star - 1e-9:
        raise AssertionError("rounded energy below the brute-force optimum")
    if x_is_global_min:
        if e_near > out.bound_nearest + 1e-7:
            raise AssertionError("nearest-rounding additive bound violated")
        if e_bcd > out.bound_bcd + 1e-7:
            raise AssertionError("coordinate-descent rounding bound violated")
    return out


def decrease_bound(params, schedule, k, s_k):
    """Guaranteed per-iteration decrease delta_k with F_k - F_{k+1} >= delta_k.

    Row selection: concave part (L_f = 0), strongly convex regularizer
    (sigma_g > 0), or merely convex regularizer.  For schedules where
    the analysis only yields convergence to an approximate stationary
    point, the returned bound includes the corresponding slack term and
    may be negative.  Every row reads only S_k, the stepsize of `schedule`
    at iteration k (a constant-length rule's `alpha`), L_f, sigma_g and
    the diameter.
    """
    l_f, sig, omega = params.l_f, params.sigma_g, params.omega
    diam_sq = params.diameter ** 2
    if isinstance(schedule, (schedules.Adaptive, schedules.LineSearch)):
        if l_f == 0.0:
            return s_k
        if sig > 0.0:
            return omega * s_k
        try:  # s_k ** 2 raises past the float range; the product form keeps the row
            return 0.5 * min(s_k, s_k ** 2 / (l_f * diam_sq))
        except OverflowError:
            return 0.5 * min(s_k, s_k * (s_k / (l_f * diam_sq)))
    if isinstance(schedule, schedules.ConstantLength):
        a = schedule.alpha
        if l_f == 0.0:
            return (a / params.diameter) * s_k
        try:
            a_sq = a ** 2
        except OverflowError:  # a^2 past the float range: no decrease is certain
            return -math.inf
        if sig > 0.0:
            return a * math.sqrt(max(2.0 * sig * s_k, 0.0)) - 0.5 * (l_f + sig) * a_sq
        return (a / params.diameter) * s_k - 0.5 * l_f * a_sq
    if isinstance(schedule, (schedules.Constant, schedules.Harmonic,
                             schedules.HarmonicRamp, schedules.InvSqrt)):
        a = schedules.stepsize(schedule, k)
        if l_f == 0.0:
            return a * s_k
        if sig > 0.0:
            if a < 2.0 * omega:
                return a * min(1.0, 2.0 - a / omega) * s_k
            # large constant stepsize: approximate-stationarity row
            k_of_a = 0.5 * a * ((l_f + sig) * a - sig)
            return a * s_k - k_of_a * diam_sq
        return a * s_k - 0.5 * l_f * diam_sq * a ** 2
    raise ValueError(f"unsupported schedule for decrease bounds: {schedule!r}")


def vertex_regularizer_constancy(reg, n, d):
    """True iff the regularizer value is constant across one-hot points.

    Evaluates every one-hot point when d^n <= 2^16, otherwise a random
    sample of 256 of them, and allows a spread of 1e-12.
    """
    total = d ** n
    x = np.zeros((n, d))

    def value_at(labels):
        x.fill(0.0)
        x[np.arange(n), labels] = 1.0
        return 0.0 if reg is None else float(reg.value(x))

    values = []
    if total <= 65536:
        for start in range(0, total, _CHUNK):
            idx = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
            for labels in _decode_labelings(idx, n, d):
                values.append(value_at(labels))
    else:
        rng = np.random.default_rng(0)
        for _ in range(256):
            values.append(value_at(rng.integers(0, d, size=n)))
    return (max(values) - min(values)) <= 1e-12
