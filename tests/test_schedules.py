import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_instance
from crffw import (Adaptive, Constant, ConstantLength, ConvergenceParams, Harmonic,
                   InvSqrt, L2Regularizer, LineSearch, HarmonicRamp, convergence_params,
                   decrease_bound, feasible_set_diameter, schedules, stepsize)


def params(l_f, sigma_g):
    return ConvergenceParams(l_f=l_f, sigma_g=sigma_g, diameter=1.0)


def segment(quad_a, quad_b):
    """A one-entry segment without a regularizer: <d, P d> = quad_a and
    <grad, d> = quad_b."""
    one = np.ones((1, 1))
    return one, one, np.full((1, 1), quad_a), np.full((1, 1), quad_b), None, 0.0


class TestPlainSchedules:
    def test_harmonic(self):
        assert stepsize(Harmonic(), 0) == 1.0
        assert stepsize(Harmonic(), 2) == 0.5

    def test_harmonic_ramp(self):
        assert stepsize(HarmonicRamp(), 0) == 0.0
        assert stepsize(HarmonicRamp(), 2) == 0.5
        assert stepsize(HarmonicRamp(), 18) == pytest.approx(0.9)

    def test_inv_sqrt(self):
        assert stepsize(InvSqrt(), 0) == 1.0
        assert stepsize(InvSqrt(), 3) == 0.5

    def test_constant_validation(self):
        with pytest.raises(ValueError):
            Constant(0.0)
        with pytest.raises(ValueError):
            Constant(1.5)
        assert stepsize(Constant(0.3), 17) == 0.3

    def test_constant_length(self):
        assert stepsize(ConstantLength(1.0), 0, dir_sq=4.0) == 0.5
        assert stepsize(ConstantLength(10.0), 0, dir_sq=4.0) == 1.0  # clamped
        assert stepsize(ConstantLength(1.0), 0, dir_sq=0.0) == 1.0

    @pytest.mark.parametrize("alpha", [0.0, -1.0, math.inf, math.nan])
    def test_constant_length_validation(self, alpha):
        with pytest.raises(ValueError, match="step length must be finite and > 0"):
            ConstantLength(alpha)


class TestAdaptive:
    def test_formula(self):
        # (S_k / ||p - x||^2 + sigma_g / 2) / (L_f + sigma_g) = (0.5 + 0.5) / 3
        assert stepsize(Adaptive(), 0, s_k=1.0, dir_sq=2.0,
                        params=params(2.0, 1.0)) == pytest.approx(1.0 / 3.0)

    @pytest.mark.parametrize("missing", ["s_k", "params"])
    def test_needs_s_k_and_params(self, missing):
        inputs = {"s_k": 1.0, "dir_sq": 1.0, "params": params(2.0, 1.0)}
        del inputs[missing]
        with pytest.raises(ValueError, match="adaptive stepsize needs"):
            stepsize(Adaptive(), 0, **inputs)

    def test_zero_direction_returns_one(self):
        assert stepsize(Adaptive(), 0, s_k=1.0, dir_sq=0.0, params=params(2.0, 1.0)) == 1.0

    def test_concave_case_returns_one(self):
        assert stepsize(Adaptive(), 0, s_k=1.0, dir_sq=1.0, params=params(0.0, 0.0)) == 1.0

    def test_resolved_from_context(self):
        assert stepsize(Adaptive(), 0, s_k=1.0, dir_sq=1.0,
                        params=params(2.0, 1.0)) == pytest.approx(0.5)

    def test_clamped_to_one(self):
        assert stepsize(Adaptive(), 0, s_k=100.0, dir_sq=1.0, params=params(1.0, 1.0)) == 1.0


class TestLineSearch:
    def test_closed_form_interior_minimum(self):
        # 0.5*a*t^2 + b*t with minimum at 0.3: a = 1, b = -0.3
        alpha = stepsize(LineSearch(), 0, segment=segment(1.0, -0.3))
        assert alpha == pytest.approx(0.3, abs=1e-9)

    def test_closed_form_concave_segment(self):
        # concave along the segment: endpoint with the lower value wins
        assert stepsize(LineSearch(), 0, segment=segment(-1.0, 0.2)) == 1.0
        assert stepsize(LineSearch(), 0, segment=segment(-1.0, 2.0)) == 0.0

    def test_closed_form_clamping(self):
        assert stepsize(LineSearch(), 0, segment=segment(1.0, -5.0)) == 1.0
        assert stepsize(LineSearch(), 0, segment=segment(1.0, 5.0)) == 0.0

    def test_needs_the_segment(self):
        with pytest.raises(ValueError, match="^line search needs the Frank-Wolfe segment$"):
            stepsize(LineSearch(), 0, s_k=1.0, dir_sq=1.0, params=params(2.0, 1.0))

    def test_grid_golden_refinement(self):
        # smooth strictly unimodal objective with known minimizer
        target = 0.377
        alpha = schedules._scan(lambda a: (a - target) ** 2, None)
        assert alpha == pytest.approx(target, abs=1e-8)

    def test_never_worse_than_reference_alphas(self, rng):
        lam = 0.7
        reg = L2Regularizer(lam)
        for _ in range(50):
            a = float(rng.uniform(-3.0, 3.0))
            b = float(rng.uniform(-3.0, 3.0))
            base = rng.standard_normal((3, 2))
            direction = rng.standard_normal((3, 2))

            def f(alpha):
                return (0.5 * a * alpha ** 2 + b * alpha
                        + reg.value(base + alpha * direction))

            alpha_star = schedules._scan(f, None)
            assert f(alpha_star) <= f(1.0) + 1e-9
            assert f(alpha_star) <= f(0.5) + 1e-9


@pytest.mark.parametrize("call, error, message", [
    (lambda: stepsize("harmonic", 0), TypeError, "unknown stepsize schedule: 'harmonic'"),
    (lambda: decrease_bound(params(1.0, 0.0), "harmonic", 0, 1.0), ValueError,
     "unsupported schedule for decrease bounds: 'harmonic'"),
], ids=["stepsize", "decrease-bound"])
def test_rejects_unknown_schedule(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def _alphas(f, f_err):
    """(pruned, full) line-search alphas of f_along f, as float.hex."""
    pruned = schedules._scan(f, f_err)
    full = schedules._scan(f, None)
    return pruned.hex(), full.hex()


class TestPrunedScan:
    """With f_err the grid scan skips points, yet picks the full scan's alpha.

    The grid values are an integer-valued convex function plus noise in
    {-E, -E/2, 0, E/2, E}, E = 1/2, all exact in floats: so |computed -
    convex| <= E holds exactly, and the noise makes exact ties and
    near-ties.  Off the grid (the refinement) any value will do.
    """

    @settings(max_examples=400, deadline=None)
    @given(curv=st.integers(0, 3), centre=st.integers(-60, 190),
           slope=st.integers(-20, 20), kink=st.integers(0, 30),
           corner=st.integers(-10, 140), noise=st.lists(
               st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]), min_size=129, max_size=129))
    def test_same_alpha_as_full_scan(self, curv, centre, slope, kink, corner, noise):
        err = 0.5

        def f(a):
            t = a * 128.0
            exact = curv * (t - centre) ** 2 + slope * t + kink * abs(t - corner)
            return exact + err * noise[min(int(t), 128)]

        pruned, full = _alphas(f, err)
        assert pruned == full

    @settings(max_examples=100, deadline=None)
    @given(bad=st.sampled_from([math.nan, math.inf, -math.inf]),
           cut=st.integers(0, 79), centre=st.integers(0, 128))
    def test_non_finite_value_falls_back_to_full_scan(self, bad, cut, centre):
        # the search's first probe, index 79, always sees a non-finite value
        def f(a):
            t = a * 128.0
            return bad if t >= cut else (t - centre) ** 2

        pruned, full = _alphas(f, 0.5)
        assert pruned == full

    def test_flat_segment(self):
        # every grid value ties, so the scan walks the whole grid
        pruned, full = _alphas(lambda a: 3.0, 0.0)
        assert pruned == full

    def test_skips_grid_points_when_certified(self):
        seen = []

        def f(a):
            seen.append(a)
            return (a - 0.377) ** 2

        schedules._scan(f, 1e-15)
        grid = {a for a in seen if (a * 128.0).is_integer()}
        assert len(grid) <= 16
        assert len(seen) == len(set(seen))  # no point is evaluated twice


class TestDecreaseBoundTable:
    def test_strongly_convex_adaptive(self):
        params = ConvergenceParams(l_f=3.0, sigma_g=1.0, diameter=2.0)
        assert decrease_bound(params, Adaptive(), 0, 2.0) == pytest.approx(
            params.omega * 2.0)

    def test_concave_constant(self):
        params = ConvergenceParams(l_f=0.0, sigma_g=0.0, diameter=2.0)
        assert decrease_bound(params, Constant(0.25), 5, 2.0) == pytest.approx(0.5)

    def test_concave_constant_length(self):
        params = ConvergenceParams(l_f=0.0, sigma_g=0.0, diameter=2.0)
        assert decrease_bound(params, ConstantLength(0.5), 0, 4.0) == pytest.approx(1.0)

    def test_convex_constant_with_slack(self):
        params = ConvergenceParams(l_f=2.0, sigma_g=0.0, diameter=2.0)
        val = decrease_bound(params, Constant(0.5), 0, 3.0)
        assert val == pytest.approx(0.5 * 3.0 - 0.5 * 2.0 * 4.0 * 0.25)

    def test_strongly_convex_small_constant(self):
        params = ConvergenceParams(l_f=1.0, sigma_g=1.0, diameter=2.0)
        # omega = 0.5, alpha = 0.25 < 2*omega: alpha*min(1, 2 - alpha/omega)*S
        assert decrease_bound(params, Constant(0.25), 0, 4.0) == pytest.approx(1.0)

    def test_line_search_shares_adaptive_row(self):
        params = ConvergenceParams(l_f=3.0, sigma_g=1.0, diameter=2.0)
        assert decrease_bound(params, LineSearch(), 0, 2.0) == pytest.approx(
            decrease_bound(params, Adaptive(), 0, 2.0))

    def test_squares_past_the_float_range(self):
        # a float ** raises there; each row keeps its value, or -inf
        for l_f, expect in ((1e200, 0.5 * 1e160 * (1e160 / 4e200)), (1.0, 0.5e160)):
            params = ConvergenceParams(l_f=l_f, sigma_g=0.0, diameter=2.0)
            for sched in (Adaptive(), LineSearch()):
                assert decrease_bound(params, sched, 0, 1e160) == pytest.approx(expect)
        for sigma in (0.0, 1.0):
            params = ConvergenceParams(l_f=1.0, sigma_g=sigma, diameter=2.0)
            assert decrease_bound(params, ConstantLength(1e200), 0, 1.0) == -math.inf


class TestConvergenceParams:
    def test_omega_and_diameter(self, rng):
        inst = random_instance(rng, n=8)
        params = convergence_params(inst, L2Regularizer(2.0))
        assert params.sigma_g == 2.0
        assert params.omega == pytest.approx(2.0 / (params.l_f + 2.0))
        assert params.diameter == pytest.approx(math.sqrt(16.0))
        assert feasible_set_diameter(2) == pytest.approx(2.0)

    def test_omega_degenerate(self):
        assert ConvergenceParams(l_f=0.0, sigma_g=0.0, diameter=1.0).omega == 1.0
