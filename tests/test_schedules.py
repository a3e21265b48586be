import pytest

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
