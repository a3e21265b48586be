import numpy as np
import pytest

from conftest import potts_pair, random_feasible, random_instance
from crffw import (CrfInstance, EdgeList, L2Regularizer, brute_force_map,
                   finite_diff_gradient, project_feasible, tightness_report)


class TestFiniteDiffGradient:
    def test_zero_pairwise(self, rng):
        u = rng.standard_normal((3, 2))
        inst = CrfInstance(u, EdgeList(3, 2, np.zeros((0, 2), int), np.zeros((0, 2, 2))))
        x = random_feasible(rng, 3, 2)
        np.testing.assert_allclose(finite_diff_gradient(inst, x), u, atol=1e-8)

    def test_quadratic_exactness_unit_scale(self, rng):
        inst = random_instance(rng, n=3, d=2, kind="dense")
        x = random_feasible(rng, 3, 2)
        np.testing.assert_allclose(finite_diff_gradient(inst, x),
                                   inst.gradient(x), atol=1e-9)


class TestTightnessReport:
    def test_one_hot_optimum_is_tight(self):
        inst = potts_pair()
        report = brute_force_map(inst)
        x = inst.one_hot(report.optimal_labeling)
        out = tightness_report(inst, x, reg=None, x_is_global_min=True)
        assert out.e_rounded_nearest == pytest.approx(out.e_star)
        assert out.e_rounded_bcd == pytest.approx(out.e_star)

    def test_l2_bound_arithmetic(self):
        inst = potts_pair()
        x = np.full((2, 2), 0.5)
        out = tightness_report(inst, x, reg=L2Regularizer(1.0))
        # n=2, d=2: M = 1, m = 0.5
        assert out.bound_bcd == pytest.approx(out.e_star + 0.5)

    def test_sandwich_for_random_points(self, rng):
        for _ in range(20):
            inst = random_instance(rng)
            x = random_feasible(rng, inst.n_nodes, inst.n_labels)
            out = tightness_report(inst, x)
            assert out.e_star <= out.e_rounded_bcd + 1e-9
            assert out.e_rounded_bcd <= inst.energy_relaxed(x) + 1e-9

    def test_certified_global_min_bounds(self, rng):
        # zero-pairwise + l2: the regularized relaxation is separable and
        # its global minimizer is the projected scaled unary
        lam = 0.7
        u = rng.standard_normal((3, 3))
        inst = CrfInstance(u, EdgeList(3, 3, np.zeros((0, 2), int), np.zeros((0, 3, 3))))
        x_star = project_feasible(-u / lam)
        tightness_report(inst, x_star, reg=L2Regularizer(lam), x_is_global_min=True)
