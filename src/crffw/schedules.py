"""Stepsize schedules for convex-combination updates x += alpha * (p - x).

Every schedule emits values in [0, 1].  The adaptive schedule trades off
the optimality measure S_k against the squared direction norm using the
curvature constants (L_f, sigma_g); line search minimizes the composite
objective along the Frank-Wolfe segment from x to p, in closed form when
it is an exact quadratic (no regularizer, or l2) and by grid plus
golden-section refinement for the entropy.  `_segment_error` bounds the
rounding error of the entropic segment function and certifies it convex;
on a certified segment the grid scan reads only the points that can win.

`decrease_bound` holds the analysis's guaranteed per-iteration decrease
for each schedule; the solver loop checks bounded steps against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .regularizers import _LOG_FLOOR, L2Regularizer

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_GRID_POINTS = 129
_U, _TINY = 2.0 ** -53, 2.0 ** -1074  # unit roundoff, least subnormal
_LOG_ULPS = 4  # assumed error of numpy's float64 log; its own tests allow 1


@dataclass(frozen=True)
class Constant:
    """alpha_k = alpha for all k, alpha in (0, 1]."""

    alpha: float

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("constant stepsize must lie in (0, 1]")


@dataclass(frozen=True)
class ConstantLength:
    """alpha_k = alpha / ||p - x||, clamped to [0, 1]."""

    alpha: float

    def __post_init__(self):
        if not 0.0 < self.alpha < math.inf:
            raise ValueError("step length must be finite and > 0")


@dataclass(frozen=True)
class Harmonic:
    """alpha_k = 2 / (k + 2)."""


@dataclass(frozen=True)
class HarmonicRamp:
    """alpha_k = k / (k + 2) (increasing toward 1; alpha_0 = 0)."""


@dataclass(frozen=True)
class InvSqrt:
    """alpha_k = min(1, 1 / sqrt(k + 1))."""


@dataclass(frozen=True)
class Adaptive:
    """alpha_k = min(1, (S_k / ||p - x||^2 + sigma_g / 2) / (L_f + sigma_g)).

    The solver loop computes L_f (the instance's spectral-norm bound) and
    sigma_g (the regularizer's strong convexity) once, as the
    ConvergenceParams it passes to the step generator; the step and the
    decrease bound of a row read that same object.
    """


@dataclass(frozen=True)
class LineSearch:
    """alpha_k = argmin over [0, 1] of the objective along the segment."""


# by CLI name; a schedule with a field takes it as "name:value"
SCHEDULES = {"constant": Constant, "constlength": ConstantLength,
             "harmonic": Harmonic, "ramp": HarmonicRamp, "invsqrt": InvSqrt,
             "adaptive": Adaptive, "linesearch": LineSearch}


def _clamp01(a):
    return min(1.0, max(0.0, float(a)))


def _quadratic_argmin(a, b):
    # minimize 0.5*a*t^2 + b*t over [0, 1]
    if a > 0.0:
        return _clamp01(-b / a)
    # concave or linear along the segment: an endpoint is optimal
    return 1.0 if (b + 0.5 * a) < 0.0 else 0.0


def _golden_section(f, lo, hi, tol=1e-10):
    c = hi - _GOLDEN * (hi - lo)
    d = lo + _GOLDEN * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > tol:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - _GOLDEN * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _GOLDEN * (hi - lo)
            fd = f(d)
    return 0.5 * (lo + hi)


def _gamma(k):
    return k * _U / (1.0 - k * _U)


def _segment_error(reg, x, direction, quad_a, quad_b, base):
    """Bound E on |computed - exact| for every value of the entropic
    f_along, or None unless the exact segment function is certified convex.

    Exact: phi(a) = 0.5 qa a^2 + qb a + r(x + a dir) - base on [0, 1],
    over the stored floats, with r(y) = lam sum y log y (0 log 0 = 0).
    Write u = 2^-53, eta = 2^-1074, gamma_k = k u / (1 - k u), N = x.size
    and A_s = |x_s| + |dir_s| >= |y_s(a)|.

    Convexity, given x >= 0 and x + dir >= 0 (exact tests: rounding keeps
    signs): y_s > 0 inside [0, 1] wherever dir_s != 0, and Cauchy-Schwarz
    on each row gives phi'' >= qa + lam sum_rows ||dir_row||_1^2 / D_row,
    D_row the larger endpoint value of the row sum of y (affine in a).
    Float sums are shrunk by a gamma covering their rounding.

    Error.  Rounding a dir_s and x_s + a dir_s moves y_s by at most
    2u(1+u) A_s + eta, so y_s log max(y_s, 1e-300) (the computed y_s >= 0
    too, by monotone rounding) by at most max(|log 1e-300|, 1 + log A)
    times that; the floor adds at most 1e-300 / e per term.  The log
    (_LOG_ULPS ulps), the products, the sum in any order (gamma_N) and the
    lam product err relative to `mass`, a bound on the sum of absolute
    terms (y log y is at most max(1/e, A log A) in size).  The scalar
    combination adds gamma_5 (|qa| / 2 + |qb| + |r| + |base|); the factor
    1 + 2^-20 covers second-order terms and this computation's rounding.
    """
    terms = x.size
    big = np.abs(x) + np.abs(direction)
    spread = float(big.sum()) * (1.0 + _gamma(terms + 1))  # >= sum A_s
    top = float(big.max()) * (1.0 + 4.0 * _U) + _TINY     # >= |y|, |computed y|
    end = x + direction
    if not (np.all(x >= 0.0) and np.all(end >= 0.0)):
        return None
    l1 = np.abs(direction).sum(axis=1)
    rows = np.maximum(x.sum(axis=1), end.sum(axis=1))
    curvature = float((l1 * l1 / rows).sum()) * (1.0 - _gamma(4 * terms + 16))
    ulps = 2.0 * _LOG_ULPS + 3.0
    slope = max(-math.log(_LOG_FLOOR), 1.0 + math.log(max(top, 1.0)))
    mass = terms * max(1.0 / math.e, top * math.log(max(top, 1.0))) * (1.0 + (ulps + 3.0) * _U)
    moved = slope * 2.0 * (1.0 + _U) * _U * spread + terms * _LOG_FLOOR
    if not (reg.lam * curvature >= -quad_a and reg.lam >= 2.0 ** -1000):
        return None
    underflow = terms * _TINY * (1e3 + 8.0 * top)  # every eta term
    e_reg = reg.lam * (moved + (ulps * _U + _gamma(terms)) * mass + underflow)
    r_max = reg.lam * (mass + underflow) * (1.0 + _gamma(terms + 2))
    e_scalar = _gamma(5) * (0.5 * abs(quad_a) + abs(quad_b) + r_max + abs(base)) + 4.0 * _TINY
    err = (e_reg + e_scalar) * (1.0 + 2.0 ** -20)
    return err if math.isfinite(err) else None


def _grid_argmin(f, f_err):
    """(i, f(i / 128)) for the least f(i / 128), lowest i on ties, as a
    full scan of the 129 grid points picks it; no point is read twice.

    With `f_err`, each value v_i is within E = f_err of a convex phi_i.
    A discrete golden-section search (moving past gaps of 2E) nears the
    least value; from the best point so far the scan walks right to the
    first r with v_r - m > 2E, m the least value read, then left alike.
    m is attained left of r (the search's other points hold values >=
    the start's), so phi_r > phi_m and convexity gives, for i > r,
    v_i >= phi_i - E >= phi_r - E >= v_r - 2E > m; likewise left of l.
    So [l, r], all read, holds the full scan's argmin.  The float test
    implies the exact one (monotone rounding, 2E a float).  A non-finite
    value voids the premise; the scan then completes.
    """
    values = {}

    def value(i):
        if i not in values:
            values[i] = f(i / (_GRID_POINTS - 1))
        return values[i]

    if f_err is not None:
        margin, lo, hi = 2.0 * f_err, 0, _GRID_POINTS - 1
        c = hi - round(_GOLDEN * hi)
        while c < lo + hi - c:  # probes c and d; each step reuses one
            d = lo + hi - c
            if value(d) - value(c) > margin:
                hi, c = d, lo + d - c
            elif value(c) - value(d) > margin:
                lo, c = c, d
            else:
                break
        start = min(values, key=lambda i: (values[i], i))
        for step in (1, -1):
            i = start + step
            while 0 <= i < _GRID_POINTS and value(i) - min(values.values()) <= margin:
                i += step
    if f_err is None or not all(map(math.isfinite, values.values())):
        for i in range(_GRID_POINTS):
            value(i)
    best = min(sorted(values), key=lambda i: (values[i], i))
    return best, values[best]


def _scan(f, f_err):
    """alpha in [0, 1] minimizing f: the grid winner, refined by golden
    section within one grid step of it."""
    best, f_best = _grid_argmin(f, f_err)
    h = 1.0 / (_GRID_POINTS - 1)
    a_best = best / (_GRID_POINTS - 1)
    lo = max(0.0, a_best - h)
    hi = min(1.0, a_best + h)
    a_ref = _golden_section(f, lo, hi)
    # keep the grid winner if refinement did not actually help
    return a_ref if f(a_ref) <= f_best else a_best


def _line_search(segment):
    x, direction, p_direction, grad, reg, r_x = segment
    quad_a = float((direction * p_direction).sum())
    quad_b = float((grad * direction).sum())
    if reg is None:
        return _quadratic_argmin(quad_a, quad_b)
    if isinstance(reg, L2Regularizer):  # r(x + a d) - r(x) = lam a (<x, d> + a <d, d> / 2)
        return _quadratic_argmin(quad_a + reg.lam * float((direction * direction).sum()),
                                 quad_b + reg.lam * float((x * direction).sum()))

    def f_along(a):
        return (0.5 * quad_a * a * a + quad_b * a
                + reg.value(x + a * direction) - r_x)

    return _scan(f_along, _segment_error(reg, x, direction, quad_a, quad_b, r_x))


def stepsize(schedule, k, s_k=None, dir_sq=None, params=None, segment=None):
    """Stepsize alpha_k in [0, 1] for iteration k under `schedule`.

    s_k:     conditional gradient norm at the current point
    dir_sq:  ||p - x||^2
    params:  the run's ConvergenceParams, read by the adaptive rule
    segment: (x, p - x, P(p - x), grad, reg, r(x)), read by line search
    """
    if isinstance(schedule, Constant):
        return schedule.alpha
    if isinstance(schedule, ConstantLength):
        if not dir_sq or dir_sq <= 0.0:
            return 1.0
        return _clamp01(schedule.alpha / math.sqrt(dir_sq))
    if isinstance(schedule, Harmonic):
        return 2.0 / (k + 2.0)
    if isinstance(schedule, HarmonicRamp):
        return k / (k + 2.0)
    if isinstance(schedule, InvSqrt):
        return min(1.0, 1.0 / math.sqrt(k + 1.0))
    if isinstance(schedule, Adaptive):
        if s_k is None or params is None:
            raise ValueError("adaptive stepsize needs S_k and ConvergenceParams")
        if not dir_sq or dir_sq <= 0.0:
            return 1.0
        sig = params.sigma_g
        denom = params.l_f + sig
        if denom <= 0.0:
            return 1.0
        return _clamp01((s_k / dir_sq + 0.5 * sig) / denom)
    if isinstance(schedule, LineSearch):
        if segment is None:
            raise ValueError("line search needs the Frank-Wolfe segment")
        return _clamp01(_line_search(segment))
    raise TypeError(f"unknown stepsize schedule: {schedule!r}")


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
    if isinstance(schedule, (Adaptive, LineSearch)):
        if l_f == 0.0:
            return s_k
        if sig > 0.0:
            return omega * s_k
        try:  # s_k ** 2 raises past the float range; the product form keeps the row
            return 0.5 * min(s_k, s_k ** 2 / (l_f * diam_sq))
        except OverflowError:
            return 0.5 * min(s_k, s_k * (s_k / (l_f * diam_sq)))
    if isinstance(schedule, ConstantLength):
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
    if isinstance(schedule, (Constant, Harmonic, HarmonicRamp, InvSqrt)):
        a = stepsize(schedule, k)
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
