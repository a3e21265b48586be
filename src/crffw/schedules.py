"""Stepsize schedules for convex-combination updates x += alpha * (p - x).

Every schedule emits values in [0, 1].  The adaptive schedule trades off
the optimality measure S_k against the squared direction norm using the
curvature constants (L_f, sigma_g); line search minimizes the composite
objective along the segment, in closed form when it is an exact
quadratic and by grid plus golden-section refinement otherwise; on a
segment certified convex the grid scan reads only the points that can win.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_GRID_POINTS = 129


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
        if not self.alpha > 0.0:
            raise ValueError("step length must be > 0")


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

    The solver loop passes L_f (the instance's spectral-norm bound) and
    sigma_g (the regularizer's strong convexity) in the StepContext, so
    the step and the decrease bound of a row read the same constants.
    """


@dataclass(frozen=True)
class LineSearch:
    """alpha_k = argmin over [0, 1] of the objective along the segment."""


# by CLI name; a schedule with a field takes it as "name:value"
SCHEDULES = {"constant": Constant, "constlength": ConstantLength,
             "harmonic": Harmonic, "ramp": HarmonicRamp, "invsqrt": InvSqrt,
             "adaptive": Adaptive, "linesearch": LineSearch}


@dataclass
class StepContext:
    """Per-iteration quantities a schedule may consume.

    s_k:          conditional gradient norm at the current point
    dir_norm_sq:  ||p - x||^2
    quad_a:       <dir, P dir> when the segment objective is quadratic
    quad_b:       <grad, dir> linear coefficient of the segment objective
    f_along:      callable alpha -> F(x + alpha * dir) for non-quadratic F
    f_err:        bound on |computed - exact| of one f_along value, set
                  only when the exact segment function is convex
    l_f, sigma_g: resolved curvature constants for the adaptive rule
    """

    s_k: Optional[float] = None
    dir_norm_sq: Optional[float] = None
    quad_a: Optional[float] = None
    quad_b: Optional[float] = None
    f_along: Optional[Callable[[float], float]] = None
    f_err: Optional[float] = None
    l_f: Optional[float] = None
    sigma_g: Optional[float] = None


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


def _line_search(ctx):
    if ctx.quad_a is not None and ctx.quad_b is not None and ctx.f_along is None:
        return _quadratic_argmin(ctx.quad_a, ctx.quad_b)
    if ctx.f_along is None:
        raise ValueError("line search needs quadratic coefficients or f_along")
    f = ctx.f_along
    best, f_best = _grid_argmin(f, ctx.f_err)
    h = 1.0 / (_GRID_POINTS - 1)
    a_best = best / (_GRID_POINTS - 1)
    lo = max(0.0, a_best - h)
    hi = min(1.0, a_best + h)
    a_ref = _golden_section(f, lo, hi)
    # keep the grid winner if refinement did not actually help
    return a_ref if f(a_ref) <= f_best else a_best


def stepsize(schedule, k, ctx=None):
    """Stepsize alpha_k in [0, 1] for iteration k under `schedule`."""
    ctx = ctx if ctx is not None else StepContext()
    if isinstance(schedule, Constant):
        return schedule.alpha
    if isinstance(schedule, ConstantLength):
        if not ctx.dir_norm_sq or ctx.dir_norm_sq <= 0.0:
            return 1.0
        return _clamp01(schedule.alpha / math.sqrt(ctx.dir_norm_sq))
    if isinstance(schedule, Harmonic):
        return 2.0 / (k + 2.0)
    if isinstance(schedule, HarmonicRamp):
        return k / (k + 2.0)
    if isinstance(schedule, InvSqrt):
        return min(1.0, 1.0 / math.sqrt(k + 1.0))
    if isinstance(schedule, Adaptive):
        l_f, sig = ctx.l_f, ctx.sigma_g
        if l_f is None or sig is None:
            raise ValueError("adaptive stepsize needs resolved L_f and sigma_g")
        if not ctx.dir_norm_sq or ctx.dir_norm_sq <= 0.0:
            return 1.0
        denom = l_f + sig
        if denom <= 0.0:
            return 1.0
        if ctx.s_k is None:
            raise ValueError("adaptive stepsize needs S_k")
        return _clamp01((ctx.s_k / ctx.dir_norm_sq + 0.5 * sig) / denom)
    if isinstance(schedule, LineSearch):
        return _clamp01(_line_search(ctx))
    raise TypeError(f"unknown stepsize schedule: {schedule!r}")
