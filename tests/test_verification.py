import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from conftest import potts_pair, random_feasible, random_instance, zero_instance
from crffw import (CapacityError, CrfInstance, DenseMatrix, DiagonalShift, EdgeList,
                   EntropyRegularizer, GaussianKernel, L2Regularizer, brute_force_map, convexify,
                   finite_diff_gradient, project_feasible, schedules, simplex, solvers,
                   tightness_report, verification, vertex_regularizer_constancy)


def hand_enumeration(instance):
    # independent re-enumeration via plain Python sums
    best = None
    for lab in itertools.product(range(instance.n_labels), repeat=instance.n_nodes):
        lab = np.array(lab)
        e = instance.energy_discrete(lab)
        if best is None or e < best[0] - 1e-15:
            best = (e, lab)
    return best


class TestBruteForceMap:
    def test_two_node_potts(self):
        report = brute_force_map(potts_pair())
        assert report.optimal_energy == pytest.approx(1.0)
        np.testing.assert_array_equal(report.optimal_labeling, [0, 0])
        assert report.enumerated_count == 4

    def test_zero_instance_tie_breaks_to_all_zeros(self):
        report = brute_force_map(zero_instance(3, 2))
        assert report.optimal_energy == 0.0
        np.testing.assert_array_equal(report.optimal_labeling, [0, 0, 0])

    def test_single_node_unary_argmin(self, rng):
        u = rng.standard_normal((1, 5))
        inst = CrfInstance(u, EdgeList(1, 5, np.zeros((0, 2), int), np.zeros((0, 5, 5))))
        report = brute_force_map(inst)
        assert report.optimal_labeling[0] == int(np.argmin(u))

    def test_energy_matches_reevaluation(self, rng):
        for _ in range(30):
            inst = random_instance(rng)
            report = brute_force_map(inst)
            assert inst.energy_discrete(report.optimal_labeling) == pytest.approx(
                report.optimal_energy, abs=0.0)
            e_hand, _ = hand_enumeration(inst)
            assert report.optimal_energy == pytest.approx(e_hand, abs=1e-12)

    def test_capacity_guard(self):
        inst = zero_instance(30, 2)  # 2^30 labelings
        with pytest.raises(CapacityError):
            brute_force_map(inst)

    def test_dense_guard_at_one_labeling(self):
        # d = 1: a single labeling, but a 9000 x 9000 operator to read
        inst = zero_instance(9000, 1)
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match="order 9000"):
                brute_force_map(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # the dense operator would take 648 MB

    def test_diagonal_shift(self, rng):
        for _ in range(20):
            inst = random_instance(rng)
            shift = rng.standard_normal((inst.n_nodes, inst.n_labels))
            shifted = CrfInstance(inst.unary, DiagonalShift(inst.pairwise, shift))
            assert brute_force_map(shifted).optimal_energy == pytest.approx(
                hand_enumeration(shifted)[0], abs=1e-12)

    def test_dense_with_diagonal_blocks(self, rng):
        for _ in range(20):
            n, d = int(rng.integers(2, 6)), int(rng.integers(2, 4))
            m = rng.standard_normal((n * d, n * d))
            inst = CrfInstance(rng.standard_normal((n, d)), DenseMatrix(m + m.T, d))
            assert brute_force_map(inst).optimal_energy == pytest.approx(
                hand_enumeration(inst)[0], abs=1e-12)

    def test_convexify_keeps_the_optimum(self, rng):
        for _ in range(30):
            inst = random_instance(rng)
            assert brute_force_map(convexify(inst)).optimal_energy == pytest.approx(
                brute_force_map(inst).optimal_energy, abs=1e-9)

    def test_lexicographic_tie_break(self):
        # constant energy: the first labeling in lexicographic order wins
        inst = zero_instance(3, 3)
        report = brute_force_map(inst)
        np.testing.assert_array_equal(report.optimal_labeling, [0, 0, 0])


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


class TestVertexRegularizerConstancy:
    def test_builtin_regularizers_constant(self):
        assert vertex_regularizer_constancy(L2Regularizer(0.5), 3, 2)
        assert vertex_regularizer_constancy(EntropyRegularizer(1.5), 3, 2)
        assert vertex_regularizer_constancy(None, 3, 2)
        # 2^17 one-hot points: a sample of them
        assert vertex_regularizer_constancy(EntropyRegularizer(1.5), 17, 2)

    def test_asymmetric_fixture_detected(self):
        class FavorsLabelZero:
            def value(self, x):
                return float(x[:, 0].sum())

        assert not vertex_regularizer_constancy(FavorsLabelZero(), 2, 2)
        assert not vertex_regularizer_constancy(FavorsLabelZero(), 17, 2)


_STEPSIZE, _DECREASE_BOUND = schedules.stepsize, schedules.decrease_bound


def _tiny_adaptive_step(schedule, *args, **kwargs):
    if isinstance(schedule, schedules.Adaptive):
        return 1e-6
    return _STEPSIZE(schedule, *args, **kwargs)


def _bound_for(family, row):
    """decrease_bound with `row(params, schedule, k, s_k)` for one family."""
    def bound(params, schedule, k, s_k):
        if isinstance(schedule, family):
            return row(params, schedule, k, s_k)
        return _DECREASE_BOUND(params, schedule, k, s_k)
    return bound


def _loose_convex_row(params, schedule, k, s_k):
    # the curvature term doubled: a weaker bound, which no trace violates
    if params.l_f > 0.0 and params.sigma_g == 0.0:
        a = schedule.alpha
        return a * s_k - params.l_f * params.diameter ** 2 * a ** 2
    return _DECREASE_BOUND(params, schedule, k, s_k)


def _half_shift_convexify(instance):
    # a quarter of the row mass, compensated: one-hot energies still match
    c = 0.25 * instance.pairwise.matvec(np.ones((instance.n_nodes, instance.n_labels)))
    return CrfInstance(instance.unary - c, DiagonalShift(instance.pairwise, 2.0 * c))


# each `bounds` check, and a defect in what it guards: module, name, stand-in
_BOUNDS_DEFECTS = [
    # the adaptive rows doubled
    ("adaptive_decrease_bound", schedules, "decrease_bound",
     _bound_for(schedules.Adaptive, lambda p, s, k, s_k: 2.0 * _DECREASE_BOUND(p, s, k, s_k))),
    # constant steps: the curvature factor dropped
    ("constant_stepsize_decrease_bound", schedules, "decrease_bound",
     _bound_for(schedules.Constant, lambda p, s, k, s_k: s.alpha * s_k)),
    # harmonic steps: the L_f = 0 row whatever L_f
    ("schedule_matrix_decrease_bounds", schedules, "decrease_bound",
     _bound_for(schedules.Harmonic, lambda p, s, k, s_k: 2.0 / (k + 2.0) * s_k)),
    ("sublinear_stationarity_trend", schedules, "stepsize", _tiny_adaptive_step),
    ("rounding_bounds", simplex, "rounding_constant", lambda instance: 0.0),
    ("decrease_bound_table_values", schedules, "decrease_bound",
     _bound_for(schedules.Constant, _loose_convex_row)),
    ("convexified_energy", solvers, "convexify", _half_shift_convexify),
]


class TestBoundsSuiteDefects:
    @pytest.mark.parametrize("check, module, name, defect", _BOUNDS_DEFECTS,
                             ids=[case[0] for case in _BOUNDS_DEFECTS])
    def test_defect_fails_its_check(self, monkeypatch, check, module, name, defect):
        monkeypatch.setattr(module, name, defect)
        results = {c.name: c.passed for c in verification.suite_bounds(0)}
        assert set(results) == {case[0] for case in _BOUNDS_DEFECTS}
        assert results[check] is False


_BATCH_ENERGIES, _WRITE_JSON, _READ_UAI = (verification._batch_energies,
                                           verification.write_json, verification.read_uai)
_SPECTRAL_NORM_BOUND = GaussianKernel.spectral_norm_bound


def _transposed_pair_energy(self, labels):
    # each edge's block read as Theta[l_j, l_i]
    ii, jj = self.edges[:, 0], self.edges[:, 1]
    return float(self.thetas[np.arange(len(self.edges)), labels[jj], labels[ii]].sum())


def _transposed_batch_energies(unary, blocks, labelings):
    # the brute-force search reads each block transposed
    return _BATCH_ENERGIES(unary, [(i, j, blk.T) for i, j, blk in blocks], labelings)


def _untransposed_matvec(self, x):
    # row j takes Theta x_i where it needs Theta^T x_i
    out = np.zeros((self.n_nodes, self.n_labels))
    for (i, j), theta in zip(self.edges, self.thetas):
        out[i] += theta @ x[j]
        out[j] += theta @ x[i]
    return out


def _rounding_write_json(instance, path):
    # every number written to 6 significant digits
    _WRITE_JSON(instance, path)
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh, parse_float=lambda text: float(f"{float(text):.6g}"))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _plus_log_read_uai(path):
    # potentials taken as +log(phi): the energy's minimizer minimizes the product
    inst = _READ_UAI(path)
    pair = inst.pairwise
    return CrfInstance(-inst.unary, EdgeList(pair.n_nodes, pair.n_labels, pair.edges,
                                             -pair.thetas))


# each `oracle` check, and a defect in what it guards: owner, name, stand-in
_ORACLE_DEFECTS = [
    ("one_hot_energy_equality", EdgeList, "pair_energy", _transposed_pair_energy),
    ("brute_force_vs_reenumeration", verification, "_batch_energies",
     _transposed_batch_energies),
    # the energy's factor 1/2 carried into its gradient
    ("gradient_finite_differences", CrfInstance, "gradient",
     lambda self, x: 0.5 * self.pairwise.matvec(x) + self.unary),
    ("gaussian_vs_dense_backend", GaussianKernel, "to_dense",
     lambda self: np.kron(self.compat, self.kernel_matrix)),
    ("operator_symmetry", EdgeList, "matvec", _untransposed_matvec),
    ("spectral_norm_bound", GaussianKernel, "spectral_norm_bound",
     lambda self: 0.5 * _SPECTRAL_NORM_BOUND(self)),
    ("json_round_trip", verification, "write_json", _rounding_write_json),
    ("uai_map_matches_product_maximization", verification, "read_uai", _plus_log_read_uai),
]


class TestOracleSuiteDefects:
    @pytest.mark.parametrize("check, owner, name, defect", _ORACLE_DEFECTS,
                             ids=[case[0] for case in _ORACLE_DEFECTS])
    def test_defect_fails_its_check(self, monkeypatch, check, owner, name, defect):
        monkeypatch.setattr(owner, name, defect)
        results = {c.name: c.passed for c in verification.suite_oracle(0)}
        assert set(results) == {case[0] for case in _ORACLE_DEFECTS}
        assert results[check] is False


_PROJECT_SIMPLEX, _SOFTMAX_ROWS, _GAP = simplex.project_simplex, simplex.softmax_rows, solvers._gap


def _whole_array_softmax(v):
    # exponentials normalized over the whole array, not per row
    e = np.exp(v - v.max(axis=1, keepdims=True))
    return e / e.sum()


# each `invariants` check, and a defect in what it guards: owner, name, stand-in
_INVARIANTS_DEFECTS = [
    ("projection_grid_search", simplex, "project_simplex",
     lambda v: np.full(len(v), 1.0 / len(v))),
    # off the simplex by a relative 1e-6, closer to the grid's answer than its step
    ("projection_kkt", simplex, "project_simplex", lambda v: _PROJECT_SIMPLEX(v) * (1.0 + 1e-6)),
    # feasible, but neither idempotent nor a projection
    ("projection_idempotent_nonexpansive", simplex, "project_feasible",
     lambda v: _SOFTMAX_ROWS(np.asarray(v, dtype=float))),
    ("softmax_rows_properties", simplex, "softmax_rows", _whole_array_softmax),
    ("nearest_rounding_distance", simplex, "round_nearest",
     lambda x: np.argmin(np.asarray(x, dtype=float), axis=1)),
    ("bcd_rounding_non_increase", simplex, "round_bcd",
     lambda instance, x: np.argmax(instance.unary, axis=1)),
    # the entropy's lower bound halved: a bound the feasible set breaks
    ("regularizer_bounds_and_vertex_values", EntropyRegularizer, "bounds",
     lambda self, n, d: (-0.5 * self.lam * n * math.log(d), 0.0)),
    # the vertex of each row's second-smallest entry
    ("lmo_piecewise_constant", solvers, "lmo_vanilla",
     lambda g: np.eye(g.shape[1])[np.argsort(g, axis=1, kind="stable")[:, 1]]),
    # the solvers' projection dropped
    ("solver_iterates_feasible", solvers, "project_feasible",
     lambda v: np.asarray(v, dtype=float)),
    # the solvers' entropic direction at temperature lam / 0.999
    ("mean_field_equals_entropic_fw", solvers, "softmax_rows",
     lambda v: _SOFTMAX_ROWS(0.999 * v)),
    # S(x) without r(x) - r(p)
    ("stationarity_measure_lower_bound", solvers, "_gap",
     lambda grad, x, p, r_x=0.0, r_p=0.0: _GAP(grad, x, p)),
]


class TestInvariantsSuiteDefects:
    @pytest.mark.parametrize("check, owner, name, defect", _INVARIANTS_DEFECTS,
                             ids=[case[0] for case in _INVARIANTS_DEFECTS])
    def test_defect_fails_its_check(self, monkeypatch, check, owner, name, defect):
        monkeypatch.setattr(owner, name, defect)
        results = {c.name: c.passed for c in verification.suite_invariants(0)}
        assert set(results) == {case[0] for case in _INVARIANTS_DEFECTS}
        assert results[check] is False
