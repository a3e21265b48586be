"""First-order MAP inference solvers over the product of simplices.

The core loop is generalized Frank-Wolfe: at each iteration a direction
point p is obtained by minimizing a linearization of the energy plus a
convex term, and the iterate moves by a convex combination

    x <- x + alpha_k * (p - x).

Direction oracles:

    vanilla:    p = per-node argmin vertex of the gradient
    l2:         p = Pi_X(-(Px + u) / lam)
    entropic:   p = softmax(-(Px + u) / lam)
    pgd:        p = Pi_X(x - (Px + u))

Entropic directions with lam = 1 and unit stepsize reproduce parallel
mean-field updates exactly.  The remaining comparison methods
(FISTA-style accelerated projections, multiplicative entropy updates,
and a two-block splitting scheme) do not fit the direction/stepsize
template, but run in the same loop: every method is a step generator
and `run_generalized_fw` owns the operator, energies, checks and trace.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import astuple, dataclass, field, fields
from typing import Optional

import numpy as np

from . import model, schedules
from .errors import Diverged
from .model import CrfInstance, DiagonalShift
from .regularizers import EntropyRegularizer, L2Regularizer, regularizer_value
from .simplex import project_feasible, round_nearest, softmax_rows

_BOUND_TOL = 1e-7
_ADMM_RHO = 1.0


# ---------------------------------------------------------------------------
# methods and config
#
# A method's `steps(unary, apply, x, px, r_x, config, params)` is a
# generator that starts at x (px = P x, r_x = r(x)), applies P only as
# `apply(v) = P v`, and yields, once per iteration,
#
#     (x, P x, r(x), alpha, s_k, step_norm)
#
# keeping its own state (momentum, duals) between iterations.  r(x) is
# 0.0 for a method without a regularizer.  `params` holds the L_f and
# sigma_g that the schedule and the loop's decrease bounds read, or is
# None for a method without a schedule.  pgm and emd read theirs with
# ||p - x||^2 = 1: alpha scales the gradient, not a convex combination.

class _Method:
    regularizer = None     # regularizer class the method takes, if any
    # the schedules it reads; a line search needs a Frank-Wolfe segment
    schedule_types = tuple(s for s in schedules.SCHEDULES.values()
                           if s is not schedules.LineSearch)
    default_schedule = schedules.Constant(1.0)
    bounded = False        # whether the decrease-bound table covers its steps


class _FrankWolfe(_Method):
    """x <- x + alpha_k (p - x); one application of P per iteration."""

    schedule_types = tuple(schedules.SCHEDULES.values())
    bounded = True

    def direction(self, grad, x, r_x, reg):
        """(p, S_k, r(p)) at x, given r_x = r(x)."""
        p = direction_point(grad, reg)
        r_p = regularizer_value(reg, p)
        return p, _gap(grad, x, p, r_x, r_p), r_p

    def steps(self, unary, apply, x, px, r_x, config, params):
        reg, sched = config.regularizer, config.schedule
        for k in itertools.count():
            grad = px + unary
            p, s_k, r_p = self.direction(grad, x, r_x, reg)
            direction = p - x
            dir_sq = float((direction ** 2).sum())
            # the one application of P per iteration; P(p - x) = Pp - Px
            pp = apply(p)
            p_direction = pp - px

            alpha = schedules.stepsize(sched, k, s_k, dir_sq, params,
                                       (x, direction, p_direction, grad, reg, r_x))

            if alpha == 1.0:
                x, px, r_x = p, pp, r_p
            else:
                x, px = x + alpha * direction, px + alpha * p_direction
                r_x = regularizer_value(reg, x)
            yield x, px, r_x, alpha, s_k, alpha * math.sqrt(dir_sq)


class VanillaFW(_FrankWolfe):
    name = "fw"


class ConvexFW(_FrankWolfe):
    name = "cfw"


class L2FW(_FrankWolfe):
    name = "l2fw"
    regularizer = L2Regularizer


class EntropicFW(_FrankWolfe):
    name = "efw"
    regularizer = EntropyRegularizer


class MeanField(_FrankWolfe):
    """Entropic Frank-Wolfe at lam = 1 with a unit step."""

    name = "mf"
    regularizer = EntropyRegularizer
    schedule_types = ()


class DampedMeanField(MeanField):
    """Mean field damped by a Constant schedule, Constant(0.5) by default."""

    name = "dmf"
    schedule_types = (schedules.Constant,)
    default_schedule = schedules.Constant(0.5)


class PGD(_FrankWolfe):
    name = "pgd"
    bounded = False  # projected-gradient directions fall outside the analysis

    def direction(self, grad, x, r_x, reg):
        s_k = _gap(grad, x, lmo_vanilla(grad))  # raises Diverged before the projection can
        return project_feasible(x - grad), s_k, 0.0


class FastPGM(_Method):
    """Accelerated projected gradient with the usual momentum sequence
    t_{k+1} = (1 + sqrt(1 + 4 t_k^2)) / 2.

    The gradient point y is not an iterate, so each iteration after the
    first applies P twice: at y, and at the new iterate for its energy.
    """

    name = "pgm"

    def steps(self, unary, apply, x, px, r_x, config, params):
        y, py, t = x, px, 1.0  # py = P y
        for k in itertools.count():
            grad = py + unary
            s_k = _gap(grad, y, lmo_vanilla(grad))
            alpha = schedules.stepsize(config.schedule, k, s_k, 1.0, params)
            x_new = project_feasible(y - alpha * grad)
            t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            y = x_new + ((t - 1.0) / t_new) * (x_new - x)
            step_norm = float(np.linalg.norm(x_new - x))
            x, t = x_new, t_new
            yield x, apply(x), 0.0, alpha, s_k, step_norm
            py = apply(y)


class EMD(_Method):
    """Multiplicative (entropy-geometry) updates, numerically stabilized.

    x_is <- (x_is + eps) * exp(-alpha_k g_is + m_i), renormalized per
    row, with m_i = alpha_k * min_s g_is so every exponent is <= 0.
    """

    name = "emd"

    def steps(self, unary, apply, x, px, r_x, config, params):
        eps = 1e-10
        for k in itertools.count():
            grad = px + unary
            s_k = _gap(grad, x, lmo_vanilla(grad))
            alpha = schedules.stepsize(config.schedule, k, s_k, 1.0, params)
            shift = alpha * grad.min(axis=1, keepdims=True)
            weights = (x + eps) * np.exp(-alpha * grad + shift)
            x_new = weights / weights.sum(axis=1, keepdims=True)
            step_norm = float(np.linalg.norm(x_new - x))
            x = x_new
            px = apply(x)
            yield x, px, 0.0, alpha, s_k, step_norm


class ADMM(_Method):
    """Two-block splitting with dual ascent at the penalty rho = 1.

    Each primal projection needs P at the half-iterate before it, which
    is also the matvec behind that half-iterate's recorded energy, so
    each half step costs one pairwise matvec and is counted (and
    recorded) as one iteration.  Both half-iterates are feasible by
    construction.
    """

    name = "admm"
    schedule_types = ()
    default_schedule = None

    def steps(self, unary, apply, point, m, r_x, config, params):
        # m is P at the last yielded point
        rho = _ADMM_RHO
        x, y, z = None, np.zeros_like(point), point
        for k in itertools.count():
            grad_at = m + unary
            s_k = _gap(grad_at, point, lmo_vanilla(grad_at))
            if k % 2 == 0:
                x = project_feasible(z - (y + 0.5 * m + unary) / rho)
                new_point = x
            else:
                z = project_feasible(x - (-y + 0.5 * m) / rho)
                y = y + rho * (x - z)
                new_point = z
            step_norm = float(np.linalg.norm(new_point - point))
            point = new_point
            m = apply(point)
            yield point, m, 0.0, math.nan, s_k, step_norm


METHODS = {m.name: m for m in (MeanField, DampedMeanField, VanillaFW, ConvexFW,
                               L2FW, EntropicFW, PGD, FastPGM, EMD, ADMM)}


@dataclass
class SolverConfig:
    """A method, its regularizer weight `lam` (1 if omitted) and schedule
    (the method's own if omitted); a setting the method does not read,
    including any `lam` for mf and dmf (entropic at lam = 1), raises."""

    method: _Method
    lam: Optional[float] = None
    schedule: object = None
    max_iters: int = 20
    decrease_bound_check: bool = False
    record_iterates: bool = False
    regularizer: object = field(init=False)

    def __post_init__(self):
        method, name = self.method, self.method.name
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.lam is not None and (method.regularizer is None
                                     or isinstance(method, MeanField)):
            raise ValueError(f"{name} takes no regularization weight")
        if self.schedule is None:
            self.schedule = method.default_schedule
        elif not isinstance(self.schedule, method.schedule_types):
            takes = [s for s, cls in schedules.SCHEDULES.items()
                     if cls in method.schedule_types]
            raise ValueError(f"{name} does not read {self.schedule!r}; "
                             f"{name} takes: {', '.join(takes) or 'none'}")
        if self.decrease_bound_check and not method.bounded:
            raise ValueError(f"{name} has no decrease bound to check")
        reg_cls = method.regularizer
        self.regularizer = None if reg_cls is None else reg_cls(
            1.0 if self.lam is None else self.lam)


def iterate_key(config):
    """Configs with equal keys produce the same iterates, bit for bit:
    same step generator and direction oracle, same convexified-or-not
    energy, equal regularizer and equal schedule.  So `mf` matches `efw`
    at lam = 1 with a unit step, and a shorter run is a prefix of a
    longer one."""
    method = type(config.method)
    return (method.steps, getattr(method, "direction", None),
            issubclass(method, ConvexFW), config.regularizer, config.schedule)


# ---------------------------------------------------------------------------
# trace types

@dataclass
class IterationRecord:
    """One row of the trace; the trace CSV's columns are these fields, in
    this order.  `time_ms` is the iteration's wall time, which leaves out
    `e_disc` when `run_generalized_fw` fills that in from its helper."""

    k: int
    alpha: float
    e_cont: float
    e_reg: float
    e_disc: float
    s_k: float
    step_norm: float
    bound_delta: float
    bound_held: Optional[bool]
    time_ms: float


@dataclass
class IterationTrace:
    """Per-iteration solver history.

    Row k describes update k: the optimality measure and stepsize are
    evaluated at the point the update started from, and the energies at
    the point it produced.  The energies of the starting point are kept
    in the initial_* fields.
    """

    initial_e_cont: float = math.nan
    initial_e_reg: float = math.nan
    records: list = field(default_factory=list)
    iterates: Optional[list] = None

    def __len__(self):
        return len(self.records)

    @property
    def e_reg(self):
        return np.array([r.e_reg for r in self.records])

    @property
    def e_disc(self):
        return np.array([r.e_disc for r in self.records])

    def write_csv(self, path, include_times=True):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(f.name for f in fields(IterationRecord)) + "\n")
            for r in self.records:
                *values, held, t = astuple(r)
                fh.write(",".join([*map(repr, values), "" if held is None else str(int(held)),
                                   repr(t) if include_times else "0.0"]) + "\n")


# ---------------------------------------------------------------------------
# building blocks

def lmo_vanilla(grad):
    """Vertex minimizing the linearized energy: per-node one-hot argmin.

    Ties break to the lowest label index; away from ties the output is
    locally constant in the gradient.  Raises Diverged when the gradient
    is not finite.
    """
    grad = np.asarray(grad, dtype=float)
    if not np.all(np.isfinite(grad)):
        raise Diverged("non-finite gradient")
    p = np.zeros_like(grad)
    p[np.arange(grad.shape[0]), np.argmin(grad, axis=1)] = 1.0
    return p


def direction_point(grad, reg):
    """Direction point p = argmin_p <grad, p> + r(p) over the feasible set.

    No regularizer: the vertex of lmo_vanilla; l2: Pi_X(-grad / lam);
    entropic: softmax(-grad / lam).  Raises Diverged when -grad / lam is
    not finite.
    """
    if reg is None:
        return lmo_vanilla(grad)
    if isinstance(reg, L2Regularizer):
        oracle = project_feasible
    elif isinstance(reg, EntropyRegularizer):
        oracle = softmax_rows
    else:
        raise TypeError(f"no direction oracle for regularizer {reg!r}")
    scaled = -grad / reg.lam
    if not np.all(np.isfinite(scaled)):
        raise Diverged("non-finite scaled gradient -grad / lam")
    return oracle(scaled)


def _gap(grad, x, p, r_x=0.0, r_p=0.0):
    return float((grad * (x - p)).sum()) + r_x - r_p


def conditional_gradient_norm(instance, x, reg=None):
    """Optimality measure S(x) >= 0, zero exactly at stationary points.

    S(x) = <grad E(x), x - p> + r(x) - r(p) with p from the direction
    oracle matching the regularizer.
    """
    x = np.asarray(x, dtype=float)
    grad = instance.gradient(x)
    p = direction_point(grad, reg)
    return _gap(grad, x, p, regularizer_value(reg, x), regularizer_value(reg, p))


def convexify(instance):
    """Equivalent instance whose relaxed energy is convex for
    nonnegative potentials.

    Shifts half the row mass of the pairwise operator onto the diagonal
    and compensates in the unaries, leaving every one-hot energy
    unchanged: with c = 0.5 * P 1, the new energy is
    0.5 x'(P + 2 diag(c))x + (u - c)'x.  Built once per instance and
    cached on it, so its start and L_f are shared by every `cfw` solve.
    Raises Diverged when c is not finite.
    """
    if instance._convex is None:
        n, d = instance.n_nodes, instance.n_labels
        c = 0.5 * instance.pairwise.matvec(np.ones((n, d)))
        if not np.all(np.isfinite(c)):
            raise Diverged("non-finite diagonal shift 0.5 * P 1 of the convexified energy")
        backend = DiagonalShift(instance.pairwise, 2.0 * c)
        instance._convex = CrfInstance(instance.unary - c, backend)
    return instance._convex


def _check_finite(trace, where, **energies):
    for name, value in energies.items():
        if not math.isfinite(value):
            raise Diverged(f"non-finite {name} {where}", trace)


# ---------------------------------------------------------------------------
# the solver loop shared by every method

def _shared_map(pool):
    """A map for `model.SETUP_MAP`: this thread runs the first half of
    the items while `pool`'s one thread runs the second; the results
    come back in order once both halves are done."""
    def shared(fn, items):
        items = list(items)
        half = (len(items) + 1) // 2
        rest = pool.submit(list, map(fn, items[half:]))
        try:
            first = list(map(fn, items[:half]))
        finally:  # the helper's half may still write to shared arrays
            wait([rest])
        return first + rest.result()
    return shared


@np.errstate(all="ignore")
def run_generalized_fw(instance, config, helper=False):
    """Run a solver; returns (point, trace).

    Raises Diverged (carrying the partial trace) on a non-finite energy
    or direction-oracle input; numpy's floating-point warnings are off,
    as these checks report what they would.  When `decrease_bound_check`
    is set, every iteration asserts the guaranteed decrease
    F_k - F_{k+1} >= delta_k - 1e-7 for the active schedule/regularizer
    combination.

    With `helper`, a thread of the run's own first shares the dense
    kernel build (its row blocks, through `model.SETUP_MAP`), then
    computes each iteration's e_disc beside the loop, which never reads
    it, and is joined when the loop ends.  The trace, point and error are
    those of a run without it (the build's row blocks are fixed, and the
    first e_disc error beats any later loop error), but `time_ms` leaves
    out e_disc, and an e_disc error surfaces after the loop.
    """
    method = config.method
    reg = config.regularizer
    # numpy's error state is per thread: the helper sets its own
    pool = (ThreadPoolExecutor(1, initializer=functools.partial(np.seterr, all="ignore"))
            if helper else None)
    trace = IterationTrace()
    futures = []  # the helper's e_disc calls, one per iteration
    try:
        setup = model.SETUP_MAP.set(map if pool is None else _shared_map(pool))
        try:
            work = convexify(instance) if isinstance(method, ConvexFW) else instance
            # L_f is estimated here, outside the iteration times
            params = None if config.schedule is None else schedules.convergence_params(work, reg)
            # builds every cache e_disc reads (the kernel), so the helper builds none
            x, px = work.start()
        finally:
            model.SETUP_MAP.reset(setup)
        r_x = regularizer_value(reg, x)
        trace.initial_e_cont = work.energy_relaxed(x, px)
        trace.initial_e_reg = trace.initial_e_cont + r_x
        if config.record_iterates:
            trace.iterates = [x.copy()]
        _check_finite(trace, "at the starting point",
                      e_cont=trace.initial_e_cont, e_reg=trace.initial_e_reg)
        f_prev = trace.initial_e_reg

        steps = method.steps(work.unary, work.pairwise.matvec, x, px, r_x, config, params)
        for k in range(config.max_iters):
            t0 = time.perf_counter()
            try:
                x, px, r_x, alpha, s_k, step_norm = next(steps)
            except Diverged as exc:
                raise Diverged(f"{exc} at iteration {k}", trace) from None
            e_cont = work.energy_relaxed(x, px)
            e_reg = e_cont + r_x
            labels = round_nearest(x)
            if pool is None:
                e_disc = work.energy_discrete(labels)
            else:
                futures.append(pool.submit(work.energy_discrete, labels))
                e_disc = math.nan
            _check_finite(trace, f"at iteration {k}", e_cont=e_cont, e_reg=e_reg)

            if method.bounded:
                delta = schedules.decrease_bound(params, config.schedule, k, s_k)
                held = (f_prev - e_reg) >= (delta - _BOUND_TOL)
            else:
                delta, held = math.nan, None
            trace.records.append(IterationRecord(
                k=k, alpha=alpha, e_cont=e_cont, e_reg=e_reg, e_disc=e_disc,
                s_k=s_k, step_norm=step_norm, bound_delta=delta, bound_held=held,
                time_ms=(time.perf_counter() - t0) * 1e3))
            if config.record_iterates:
                trace.iterates.append(x.copy())
            if config.decrease_bound_check and held is False:
                raise AssertionError(
                    f"decrease bound violated at iteration {k}: "
                    f"F_k - F_k+1 = {f_prev - e_reg:.3e} < delta_k = {delta:.3e}")
            f_prev = e_reg
    finally:
        if pool is not None:
            pool.shutdown()
        for record, e_disc in zip(trace.records, [f.result() for f in futures]):
            record.e_disc = e_disc
    return x, trace
