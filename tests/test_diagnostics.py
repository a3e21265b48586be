import itertools
import tracemalloc

import numpy as np
import pytest

from conftest import potts_pair, random_instance, zero_instance
from crffw import (CapacityError, CrfInstance, DenseMatrix, DiagonalShift, EdgeList,
                   EntropyRegularizer, L2Regularizer, LineSearch, SolverConfig,
                   VanillaFW, brute_force_map, convexify, potts_matrix, round_bcd,
                   run_generalized_fw, vertex_regularizer_constancy)


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


class TestDecodedQualityFloor:
    def test_fw_line_search_often_finds_the_optimum(self, rng):
        hits = 0
        total = 100
        for _ in range(total):
            inst = random_instance(rng, n=int(rng.integers(2, 7)),
                                   d=int(rng.integers(2, 4)))
            report = brute_force_map(inst)
            cfg = SolverConfig(VanillaFW(), schedule=LineSearch(), max_iters=200)
            x, _ = run_generalized_fw(inst, cfg)
            decoded = inst.energy_discrete(round_bcd(inst, x))
            assert decoded >= report.optimal_energy - 1e-9
            if decoded <= report.optimal_energy + 1e-9:
                hits += 1
        assert hits >= 0.7 * total
