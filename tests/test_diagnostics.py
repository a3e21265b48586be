from conftest import random_instance
from crffw import (EntropyRegularizer, L2Regularizer, LineSearch, SolverConfig, VanillaFW,
                   brute_force_map, round_bcd, run_generalized_fw,
                   vertex_regularizer_constancy)


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
