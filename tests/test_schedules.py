import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crffw import (Adaptive, Constant, ConstantLength, Harmonic, InvSqrt,
                   L2Regularizer, LineSearch, HarmonicRamp, StepContext,
                   stepsize)


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
        ctx = StepContext(dir_norm_sq=4.0)
        assert stepsize(ConstantLength(1.0), 0, ctx) == 0.5
        assert stepsize(ConstantLength(10.0), 0, ctx) == 1.0  # clamped
        assert stepsize(ConstantLength(1.0), 0, StepContext(dir_norm_sq=0.0)) == 1.0


class TestAdaptive:
    def test_formula(self):
        # (S_k / ||p - x||^2 + sigma_g / 2) / (L_f + sigma_g) = (0.5 + 0.5) / 3
        ctx = StepContext(s_k=1.0, dir_norm_sq=2.0, l_f=2.0, sigma_g=1.0)
        assert stepsize(Adaptive(), 0, ctx) == pytest.approx(1.0 / 3.0)

    def test_zero_direction_returns_one(self):
        ctx = StepContext(s_k=1.0, dir_norm_sq=0.0, l_f=2.0, sigma_g=1.0)
        assert stepsize(Adaptive(), 0, ctx) == 1.0

    def test_concave_case_returns_one(self):
        ctx = StepContext(s_k=1.0, dir_norm_sq=1.0, l_f=0.0, sigma_g=0.0)
        assert stepsize(Adaptive(), 0, ctx) == 1.0

    def test_resolved_from_context(self):
        ctx = StepContext(s_k=1.0, dir_norm_sq=1.0, l_f=2.0, sigma_g=1.0)
        assert stepsize(Adaptive(), 0, ctx) == pytest.approx(0.5)

    def test_clamped_to_one(self):
        ctx = StepContext(s_k=100.0, dir_norm_sq=1.0, l_f=1.0, sigma_g=1.0)
        assert stepsize(Adaptive(), 0, ctx) == 1.0


class TestLineSearch:
    def test_closed_form_interior_minimum(self):
        # 0.5*a*t^2 + b*t with minimum at 0.3: a = 1, b = -0.3
        ctx = StepContext(quad_a=1.0, quad_b=-0.3)
        assert stepsize(LineSearch(), 0, ctx) == pytest.approx(0.3, abs=1e-9)

    def test_closed_form_concave_segment(self):
        # concave along the segment: endpoint with the lower value wins
        assert stepsize(LineSearch(), 0, StepContext(quad_a=-1.0, quad_b=0.2)) == 1.0
        assert stepsize(LineSearch(), 0, StepContext(quad_a=-1.0, quad_b=2.0)) == 0.0

    def test_closed_form_clamping(self):
        assert stepsize(LineSearch(), 0, StepContext(quad_a=1.0, quad_b=-5.0)) == 1.0
        assert stepsize(LineSearch(), 0, StepContext(quad_a=1.0, quad_b=5.0)) == 0.0

    def test_grid_golden_refinement(self):
        # smooth strictly unimodal objective with known minimizer
        target = 0.377
        ctx = StepContext(f_along=lambda a: (a - target) ** 2)
        assert stepsize(LineSearch(), 0, ctx) == pytest.approx(target, abs=1e-8)

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

            alpha_star = stepsize(LineSearch(), 0, StepContext(f_along=f))
            assert f(alpha_star) <= f(1.0) + 1e-9
            assert f(alpha_star) <= f(0.5) + 1e-9


def _alphas(f, f_err):
    """(pruned, full) line-search alphas of f_along f, as float.hex."""
    pruned = stepsize(LineSearch(), 0, StepContext(f_along=f, f_err=f_err))
    full = stepsize(LineSearch(), 0, StepContext(f_along=f))
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

        stepsize(LineSearch(), 0, StepContext(f_along=f, f_err=1e-15))
        grid = {a for a in seen if (a * 128.0).is_integer()}
        assert len(grid) <= 16
        assert len(seen) == len(set(seen))  # no point is evaluated twice
