import dataclasses
import itertools
import math
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (potts_pair, random_feasible, random_instance,
                      random_edge_backend, random_gaussian_backend, zero_instance)
from crffw import (ADMM, EMD, METHODS, PGD, Adaptive, Constant, ConvexFW,
                   CrfInstance, DampedMeanField, Diverged, EdgeList,
                   EntropicFW, EntropyRegularizer, FastPGM, Harmonic, L2FW,
                   L2Regularizer, LineSearch, MeanField, HarmonicRamp,
                   RandomDense, RandomGrid, SolverConfig, VanillaFW,
                   conditional_gradient_norm, convergence_params, convexify,
                   direction_point, generate,
                   is_feasible, lmo_vanilla, project_feasible, round_nearest,
                   run_generalized_fw, schedules, softmax_rows)
from crffw.schedules import _segment_error
from crffw.verification import mean_field_iterates


def zero_pairwise(u):
    u = np.asarray(u, dtype=float)
    n, d = u.shape
    return CrfInstance(u, EdgeList(n, d, np.zeros((0, 2), int), np.zeros((0, d, d))))


class TestInitialPoint:
    def test_uniform_for_zero_unary(self):
        x = zero_instance(3, 4).start()[0]
        np.testing.assert_allclose(x, np.full((3, 4), 0.25))

    def test_saturation(self):
        x = zero_pairwise([[0.0, 1e6]]).start()[0]
        np.testing.assert_allclose(x, [[1.0, 0.0]], atol=1e-12)

    def test_softmax_arithmetic(self):
        x = zero_pairwise([[-math.log(2.0), 0.0]]).start()[0]
        np.testing.assert_allclose(x, [[2.0 / 3.0, 1.0 / 3.0]], atol=1e-12)


class TestLmoVanilla:
    def test_argmin(self):
        p = lmo_vanilla(np.array([[0.2, -0.1, 0.3]]))
        np.testing.assert_array_equal(p, [[0.0, 1.0, 0.0]])

    def test_tie_break(self):
        p = lmo_vanilla(np.array([[0.0, 0.0]]))
        np.testing.assert_array_equal(p, [[1.0, 0.0]])

    def test_piecewise_constant_under_small_perturbations(self, rng):
        row = np.array([[0.4, -0.2, 0.1]])
        base = lmo_vanilla(row)
        for _ in range(20):
            np.testing.assert_array_equal(
                lmo_vanilla(row + rng.uniform(-1e-9, 1e-9, row.shape)), base)

    def test_changes_only_across_tie_boundaries(self, rng):
        for _ in range(200):
            d = int(rng.integers(2, 6))
            row = rng.standard_normal(d)
            srt = np.sort(row)
            gap = srt[1] - srt[0]
            if gap <= 1e-12:
                continue
            base = lmo_vanilla(row[None])
            pert = rng.uniform(-0.499, 0.499, d) * gap
            np.testing.assert_array_equal(lmo_vanilla((row + pert)[None]), base)
            # pushing the runner-up below the winner flips the argmin
            flipped = row.copy()
            flipped[np.argsort(row)[1]] -= gap * 1.001
            assert not np.array_equal(lmo_vanilla(flipped[None]), base)


class TestDirectionOracles:
    def test_l2_zero_pairwise(self):
        inst = zero_pairwise([[-2.0, 0.0]])
        x = np.array([[0.5, 0.5]])
        np.testing.assert_allclose(direction_point(inst.gradient(x), L2Regularizer(1.0)),
                                   [[1.0, 0.0]], atol=1e-12)

    def test_l2_huge_weight_gives_uniform(self, rng):
        inst = random_instance(rng)
        x = random_feasible(rng, inst.n_nodes, inst.n_labels)
        p = direction_point(inst.gradient(x), L2Regularizer(1e12))
        np.testing.assert_allclose(p, np.full_like(p, 1.0 / inst.n_labels), atol=1e-9)

    def test_l2_output_feasible(self, rng):
        for _ in range(20):
            inst = random_instance(rng)
            x = random_feasible(rng, inst.n_nodes, inst.n_labels)
            reg = L2Regularizer(float(rng.uniform(0.1, 3.0)))
            assert is_feasible(direction_point(inst.gradient(x), reg))

    def test_efw_unit_weight_zero_pairwise_is_initial_point(self, rng):
        inst = zero_pairwise(rng.standard_normal((4, 3)))
        x = random_feasible(rng, 4, 3)
        np.testing.assert_allclose(direction_point(inst.gradient(x), EntropyRegularizer(1.0)),
                                   inst.start()[0], atol=1e-15)

    def test_efw_low_temperature_approaches_lmo(self, rng):
        inst = random_instance(rng)
        x = random_feasible(rng, inst.n_nodes, inst.n_labels)
        p_cold = direction_point(inst.gradient(x), EntropyRegularizer(1e-6))
        p_lmo = lmo_vanilla(inst.gradient(x))
        assert float(np.abs(p_cold - p_lmo).max()) < 1e-3

    def test_lambda_validation(self):
        # the weight is checked where the regularizer is built
        with pytest.raises(ValueError):
            L2Regularizer(0.0)
        with pytest.raises(ValueError):
            EntropyRegularizer(-1.0)

    @pytest.mark.parametrize("reg, shown", [("l2", "'l2'"), (1.0, "1.0")], ids=["name", "weight"])
    def test_unknown_regularizer_has_no_oracle(self, reg, shown):
        with pytest.raises(TypeError, match=f"^no direction oracle for regularizer {shown}$"):
            direction_point(np.array([[1.0, -2.0]]), reg)

    @pytest.mark.parametrize("reg", [L2Regularizer(1e-310), EntropyRegularizer(1e-310)],
                             ids=["l2", "entropic"])
    def test_non_finite_scaled_gradient_diverges(self, reg):
        with np.errstate(over="ignore"), pytest.raises(Diverged, match="scaled gradient"):
            direction_point(np.array([[1.0, -2.0]]), reg)


class TestConditionalGradientNorm:
    def test_zero_at_l2_stationary_point(self, rng):
        u = rng.standard_normal((4, 3))
        inst = zero_pairwise(u)
        lam = 0.8
        x_star = project_feasible(-u / lam)
        s = conditional_gradient_norm(inst, x_star, L2Regularizer(lam))
        assert abs(s) <= 1e-9

    def test_zero_at_lmo_fixed_vertex(self, rng):
        u = rng.standard_normal((4, 3))
        inst = zero_pairwise(u)
        vertex = lmo_vanilla(inst.gradient(inst.start()[0]))
        s = conditional_gradient_norm(inst, vertex, None)
        assert abs(s) <= 1e-9

    def test_lower_bound_inequality(self, rng):
        for _ in range(200):
            inst = random_instance(rng)
            x = random_feasible(rng, inst.n_nodes, inst.n_labels)
            for reg in (L2Regularizer(0.6), EntropyRegularizer(0.6)):
                s = conditional_gradient_norm(inst, x, reg)
                p = direction_point(inst.gradient(x), reg)
                assert s >= 0.5 * reg.lam * float(((x - p) ** 2).sum()) - 1e-9
                assert s >= -1e-9


# golden traces in tests/data, all on RandomDense(n=40, d=5, seed=0)
GOLDEN_CONFIGS = {
    "l2fw": SolverConfig(L2FW(), lam=1.0,
                         schedule=Constant(1.0), max_iters=5),
    "pgd": SolverConfig(PGD(), max_iters=5),
    "pgm": SolverConfig(FastPGM(), max_iters=5),
    "emd": SolverConfig(EMD(), max_iters=5),
    "admm": SolverConfig(ADMM(), max_iters=5),
    "cfw_linesearch": SolverConfig(ConvexFW(), schedule=LineSearch(), max_iters=5),
    "efw_0.25_linesearch": SolverConfig(EntropicFW(), lam=0.25,
                                        schedule=LineSearch(), max_iters=5),
    "dmf": SolverConfig(DampedMeanField(), max_iters=5),
}


class TestGeneralizedFw:
    def test_mean_field_identity(self, rng):
        configs = [SolverConfig(EntropicFW(), lam=1.0, schedule=Constant(1.0),
                                max_iters=20, record_iterates=True),
                   SolverConfig(MeanField(), max_iters=20, record_iterates=True)]
        for _ in range(50):
            inst = random_instance(rng)
            ref = mean_field_iterates(inst, 20)
            for cfg in configs:
                _, trace = run_generalized_fw(inst, cfg)
                assert len(trace.iterates) == len(ref) == 21
                for a, b in zip(ref, trace.iterates):
                    np.testing.assert_array_equal(a, b)

    def test_vanilla_fw_linear_objective_one_step(self, rng):
        u = rng.standard_normal((5, 3))
        inst = zero_pairwise(u)
        cfg = SolverConfig(VanillaFW(), schedule=LineSearch(), max_iters=3,
                           record_iterates=True)
        x, trace = run_generalized_fw(inst, cfg)
        target = np.zeros((5, 3))
        target[np.arange(5), np.argmin(u, axis=1)] = 1.0
        np.testing.assert_allclose(trace.iterates[1], target, atol=1e-12)
        np.testing.assert_allclose(x, target, atol=1e-12)

    def test_l2fw_discrete_energy_mostly_non_increasing(self, rng):
        inst = random_instance(rng, n=6, d=3, kind="dense")
        cfg = SolverConfig(L2FW(), lam=1.0,
                           schedule=Constant(1.0), max_iters=5)
        _, trace = run_generalized_fw(inst, cfg)
        assert len(trace) == 5
        e_start = inst.energy_discrete(round_nearest(inst.start()[0]))
        diffs = np.diff(np.concatenate([[e_start], trace.e_disc]))
        assert (diffs <= 1e-9).mean() >= 0.9

    @pytest.mark.parametrize("name", list(GOLDEN_CONFIGS))
    def test_golden_trace_regression(self, tmp_path, name):
        import csv
        import pathlib

        from crffw import RandomDense, generate
        inst = generate(RandomDense(n=40, d=5, seed=0, image_size=16.0,
                                    unary_scale=2.0))
        _, trace = run_generalized_fw(inst, GOLDEN_CONFIGS[name])
        out = tmp_path / "trace.csv"
        trace.write_csv(out, include_times=False)
        golden = pathlib.Path(__file__).parent / "data" / f"golden_{name}_trace.csv"
        with open(golden, newline="") as fa, open(out, newline="") as fb:
            rows_golden = list(csv.DictReader(fa))
            rows_new = list(csv.DictReader(fb))
        assert len(rows_new) == len(rows_golden) == 5
        assert out.read_bytes() == golden.read_bytes()  # header, order and line ends too
        for a, b in zip(rows_golden, rows_new):
            for col in ("k", "alpha", "e_cont", "e_reg", "e_disc", "s_k",
                        "step_norm", "bound_delta", "bound_held"):
                assert a[col] == b[col], f"column {col} drifted from golden trace"
        if name == "l2fw":
            e_disc = [float(r["e_disc"]) for r in rows_new]
            e_start = inst.energy_discrete(round_nearest(inst.start()[0]))
            diffs = np.diff([e_start] + e_disc)
            assert (diffs <= 1e-9).mean() >= 0.9

    def test_all_iterates_feasible(self, rng):
        methods = [
            SolverConfig(VanillaFW(), schedule=LineSearch(), max_iters=10),
            SolverConfig(ConvexFW(), schedule=Harmonic(), max_iters=10),
            SolverConfig(L2FW(), lam=0.5, max_iters=10),
            SolverConfig(EntropicFW(), lam=0.5,
                         schedule=HarmonicRamp(), max_iters=10),
            SolverConfig(MeanField(), max_iters=10),
            SolverConfig(DampedMeanField(), max_iters=10),
            SolverConfig(PGD(), max_iters=10),
            SolverConfig(FastPGM(), max_iters=10),
            SolverConfig(EMD(), max_iters=10),
            SolverConfig(ADMM(), max_iters=10),
        ]
        for _ in range(5):
            inst = random_instance(rng)
            for cfg in methods:
                cfg.record_iterates = True
                _, trace = run_generalized_fw(inst, cfg)
                assert len(trace) == cfg.max_iters
                for it in trace.iterates:
                    assert is_feasible(it)

    def test_regularizer_requirements(self):
        assert SolverConfig(L2FW()).regularizer == L2Regularizer(1.0)
        assert SolverConfig(EntropicFW(), lam=0.25).regularizer == EntropyRegularizer(0.25)
        assert SolverConfig(PGD()).regularizer is None
        for method in (PGD(), VanillaFW(), MeanField(), DampedMeanField()):
            with pytest.raises(ValueError, match="takes no regularization weight"):
                SolverConfig(method, lam=1.0)
        for lam in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="must be finite and > 0"):
                SolverConfig(L2FW(), lam=lam)

    def test_divergence_carries_trace(self):
        inst = zero_pairwise(np.full((2, 2), 1e308))
        with np.errstate(over="ignore"), pytest.raises(
                Diverged, match="non-finite e_cont at the starting point") as exc_info:
            run_generalized_fw(inst, SolverConfig(MeanField(), max_iters=3))
        assert exc_info.value.trace is not None

    def test_line_search_never_worse_than_fixed_alphas(self, rng):
        for _ in range(20):
            inst = random_instance(rng)
            results = {}
            for name, sched in (("ls", LineSearch()), ("c1", Constant(1.0)),
                                ("c05", Constant(0.5))):
                cfg = SolverConfig(EntropicFW(), lam=0.7,
                                   schedule=sched, max_iters=1)
                _, trace = run_generalized_fw(inst, cfg)
                results[name] = trace.records[0].e_reg
            assert results["ls"] <= results["c1"] + 1e-9
            assert results["ls"] <= results["c05"] + 1e-9


class CountingBackend:
    """Delegates to a pairwise backend and counts its matvecs."""

    def __init__(self, base):
        self.base = base
        self.matvecs = 0

    def __getattr__(self, name):
        return getattr(self.base, name)

    def matvec(self, x):
        self.matvecs += 1
        return self.base.matvec(x)


class TestSharedStart:
    CONFIGS = [SolverConfig(MeanField(), max_iters=4),
               SolverConfig(EntropicFW(), lam=0.25, schedule=LineSearch(), max_iters=4),
               SolverConfig(L2FW(), lam=0.5, schedule=Harmonic(), max_iters=4),
               SolverConfig(ConvexFW(), schedule=LineSearch(), max_iters=4),
               SolverConfig(FastPGM(), max_iters=4),
               SolverConfig(EMD(), max_iters=4),
               SolverConfig(ADMM(), max_iters=4),
               SolverConfig(PGD(), max_iters=4)]

    @staticmethod
    def _trace_bytes(instance, config, path):
        run_generalized_fw(instance, config)[1].write_csv(path, include_times=False)
        return path.read_bytes()

    @pytest.mark.parametrize("spec", [RandomDense(n=20, d=4, seed=3),
                                      RandomGrid(rows=4, cols=5, d=3, seed=1)])
    def test_solves_on_one_instance_match_fresh_instances(self, tmp_path, spec):
        shared = generate(spec)
        for config in self.CONFIGS + self.CONFIGS:
            assert (self._trace_bytes(shared, config, tmp_path / "shared.csv")
                    == self._trace_bytes(generate(spec), config, tmp_path / "fresh.csv"))
        x0, px0 = shared.start()
        assert shared.start()[0] is x0
        np.testing.assert_array_equal(x0, softmax_rows(-shared.unary))
        np.testing.assert_array_equal(px0, shared.pairwise.matvec(x0))
        for arr in (x0, px0):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0, 0] = 0.5


class TestOperatorWork:
    """Each iteration applies the pairwise operator once; Px is carried.
    pgm also applies it at its gradient point, from its second iteration."""

    @pytest.mark.parametrize("make_backend", [random_gaussian_backend, random_edge_backend])
    @pytest.mark.parametrize("config, uses_lipschitz, per_run", [
        (SolverConfig(MeanField(), max_iters=7), True, 1 + 7),
        (SolverConfig(VanillaFW(), schedule=LineSearch(), max_iters=7), True, 1 + 7),
        (SolverConfig(EntropicFW(), lam=0.25,
                      schedule=LineSearch(), max_iters=7), True, 1 + 7),
        (SolverConfig(ADMM(), max_iters=7), False, 1 + 7),
        (SolverConfig(EMD(), max_iters=7), True, 1 + 7),
        (SolverConfig(PGD(), max_iters=7), True, 1 + 7),
        (SolverConfig(FastPGM(), max_iters=7), True, 2 * 7),
    ], ids=["mf", "fw-linesearch", "efw-linesearch", "admm", "emd", "pgd", "pgm"])
    def test_one_matvec_per_iteration(self, rng, make_backend, config, uses_lipschitz,
                                      per_run):
        unary = rng.standard_normal((9, 3))
        base = make_backend(rng, 9, 3)
        lip = CountingBackend(base)
        CrfInstance(unary, lip).lipschitz_upper_bound()
        counting = CountingBackend(base)
        _, trace = run_generalized_fw(CrfInstance(unary, counting), config)
        # the Lipschitz estimate, then P at the starting point and the
        # iteration's products
        expected = (lip.matvecs if uses_lipschitz else 0) + per_run
        assert len(trace) == config.max_iters
        assert counting.matvecs == expected

    @pytest.mark.parametrize("kind", ["dense", "edges", "gaussian"])
    @pytest.mark.parametrize("method, reg, sched", [
        (VanillaFW(), None, LineSearch()),
        (VanillaFW(), None, Harmonic()),
        (ConvexFW(), None, LineSearch()),
        (ConvexFW(), None, Harmonic()),
        (L2FW(), L2Regularizer(0.5), Harmonic()),
        (L2FW(), L2Regularizer(0.5), LineSearch()),
        (EntropicFW(), EntropyRegularizer(0.25), LineSearch()),
        (EntropicFW(), EntropyRegularizer(0.25), Constant(1.0)),
        (MeanField(), None, None),
    ])
    def test_trace_energies_match_fresh_products(self, rng, kind, method, reg, sched):
        inst = random_instance(rng, n=7, d=3, kind=kind)
        # cfw runs on the DiagonalShift operator of the convexified energy
        work = convexify(inst) if isinstance(method, ConvexFW) else inst
        cfg = SolverConfig(method, lam=getattr(reg, "lam", None), schedule=sched, max_iters=15,
                           record_iterates=True)
        _, trace = run_generalized_fw(inst, cfg)
        energies = [trace.initial_e_cont] + [r.e_cont for r in trace.records]
        alphas = [1.0] + [r.alpha for r in trace.records]
        if isinstance(sched, (LineSearch, Harmonic)):
            assert any(a != 1.0 for a in alphas)  # the carried update was taken
        for e_cont, x, alpha in zip(energies, trace.iterates, alphas):
            fresh = work.energy_relaxed(x)
            if alpha == 1.0:
                assert e_cont.hex() == fresh.hex()
            else:
                assert math.isclose(e_cont, fresh, rel_tol=1e-12, abs_tol=1e-12)


def _segment_values(reg, x, direction, quad_a, quad_b, base, alphas):
    """The entropic f_along's values at `alphas` as the solver computes
    them, and long double values of the exact function (0 log 0 = 0)."""
    L = np.longdouble
    got, ref = [], []
    for a in alphas:
        got.append(0.5 * quad_a * a * a + quad_b * a
                   + reg.value(x + a * direction) - base)
        y = x.astype(L) + L(a) * direction.astype(L)
        pos = np.where(y > 0, y, L(1))
        r = L(reg.lam) * (y * np.log(pos)).sum()
        ref.append(L(0.5) * L(quad_a) * L(a) * L(a) + L(quad_b) * L(a) + r - L(base))
    return np.array(got, dtype=L), np.array(ref)


def _random_segment(rng):
    """A point x and direction p - x on the feasible set, with rows
    that underflow to 0, sit near 1e-300, or reach 0 at an endpoint."""
    n, d = int(rng.integers(1, 30)), int(rng.integers(2, 9))

    def point():
        z = rng.standard_normal((n, d)) * rng.choice([1.0, 30.0, 800.0])
        return softmax_rows(z)

    x, p = point(), point()
    p[rng.uniform(size=p.shape) < 0.3] = 0.0            # y = 0 at alpha = 1
    tiny = rng.uniform(size=x.shape) < 0.2
    x[tiny] = rng.choice([1e-300, 3e-301, 2e-300, 5e-324], size=int(tiny.sum()))
    x[0, 0] = 0.0                                      # y = 0 at alpha = 0
    return x, p - x


class TestLineSearchCertificate:
    """The entropic line search's f_err bounds every f_along error,
    convexity holds where it is certified, and the pruned scan then does
    less work for the same alpha."""

    def test_error_bound_holds(self, rng):
        alphas = [0.0, 1.0 / 128, 0.5, 127.0 / 128, 1.0, *rng.uniform(size=4)]
        certified = 0
        for _ in range(150):
            x, direction = _random_segment(rng)
            reg = EntropyRegularizer(float(rng.choice([0.01, 0.25, 1.0, 7.0])))
            quad_a = float(rng.standard_normal() * rng.choice([0.01, 1.0, 100.0]))
            quad_b = float(rng.standard_normal() * 10.0)
            base = reg.value(x)
            err = _segment_error(reg, x, direction, quad_a, quad_b, base)
            if err is None:
                continue
            certified += 1
            got, ref = _segment_values(reg, x, direction, quad_a, quad_b, base, alphas)
            assert float(np.abs(got - ref).max()) <= err
        assert certified >= 50

    def test_certified_segments_are_convex(self, rng):
        # rows with dir proportional to x make the row-l1 bound tight at
        # alpha = 0, so qa just below -lam * 0.16 must not be certified
        x = np.full((2, 2), 0.5)
        direction = np.full((2, 2), -0.2)
        reg = EntropyRegularizer(0.5)
        tight = -reg.lam * 2 * 0.16
        grid = [i / 128 for i in range(129)]
        for quad_a, certified, convex in ((tight * 0.999, True, True),
                                          (tight * 1.001, False, True),
                                          (tight * 1.2, False, False)):
            base = reg.value(x)
            err = _segment_error(reg, x, direction, quad_a, 0.0, base)
            _, ref = _segment_values(reg, x, direction, quad_a, 0.0, base, grid)
            assert (err is not None) == certified
            assert bool(np.all(np.diff(ref, 2) >= -1e-15)) == convex
        # y log y is undefined where the segment leaves y >= 0
        assert _segment_error(reg, x, np.array([[-0.6, 0.6], [0.0, 0.0]]), 1.0, 0.0,
                              reg.value(x)) is None

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           kind=st.sampled_from(["dense", "edges", "gaussian"]),
           lam=st.sampled_from([0.05, 0.25, 1.0]))
    def test_real_segments_pick_the_full_scan_alpha(self, seed, kind, lam):
        rng = np.random.default_rng(seed)
        inst = random_instance(rng, n=int(rng.integers(2, 12)), d=3, kind=kind)
        cfg = SolverConfig(EntropicFW(), lam=lam, schedule=LineSearch(), max_iters=8)
        real, scans = schedules._scan, []

        def both(f, f_err):
            alpha = real(f, f_err)
            full = real(f, None)
            assert alpha.hex() == full.hex()
            scans.append(alpha)
            return alpha

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(schedules, "_scan", both)
            _, trace = run_generalized_fw(inst, cfg)
        assert len(scans) == len(trace)  # every step scanned

    def _evaluations(self, monkeypatch, certify):
        """(certified, evaluations, distinct grid points) per line search
        of efw --lambda 0.25 --stepsize linesearch on a 10 x 10 grid;
        every one of its 20 segments is certified convex."""
        inst = generate(RandomGrid(rows=10, cols=10, d=8, seed=3))
        real, searches = schedules._scan, []

        def counting(f, f_err):
            calls = []
            if not certify:
                f_err = None
            alpha = real(lambda a: calls.append(a) or f(a), f_err)
            grid = {a for a in calls if (a * 128).is_integer()}
            searches.append((f_err is not None, len(calls), len(grid)))
            return alpha

        monkeypatch.setattr(schedules, "_scan", counting)
        cfg = SolverConfig(EntropicFW(), lam=0.25, schedule=LineSearch(), max_iters=20)
        run_generalized_fw(inst, cfg)
        return searches

    def test_certified_search_takes_at_most_70_evaluations(self, monkeypatch):
        searches = self._evaluations(monkeypatch, certify=True)
        assert len(searches) == 20
        assert all(certified for certified, _, _ in searches)
        assert max(evals for _, evals, _ in searches) <= 70

    def test_uncertified_search_scans_the_whole_grid(self, monkeypatch):
        for certified, evals, grid in self._evaluations(monkeypatch, certify=False):
            assert not certified
            assert grid == 129
            assert evals > 129 + 30  # plus the golden-section refinement


class TestL2LineSearch:
    """l2fw's segment is an exact quadratic, so its line search is the
    closed-form minimizer and never reaches the scan."""

    def test_golden_instance_takes_unit_steps(self):
        inst = generate(RandomDense(n=40, d=5, seed=0, image_size=16.0, unary_scale=2.0))
        cfg = SolverConfig(L2FW(), lam=0.05, schedule=LineSearch(), max_iters=5)
        _, trace = run_generalized_fw(inst, cfg)
        assert [r.alpha for r in trace.records] == [1.0] * 5

    def test_alpha_is_the_quadratic_minimizer(self, monkeypatch):
        def no_scan(f, f_err):
            raise AssertionError("an l2 segment reached the scan")

        monkeypatch.setattr(schedules, "_scan", no_scan)
        inst = generate(RandomGrid(rows=8, cols=8, d=4, seed=0))
        reg = L2Regularizer(0.5)
        cfg = SolverConfig(L2FW(), lam=reg.lam, schedule=LineSearch(), max_iters=10,
                           record_iterates=True)
        _, trace = run_generalized_fw(inst, cfg)
        interior = 0
        for x, record in zip(trace.iterates, trace.records):
            grad = inst.gradient(x)
            d = direction_point(grad, reg) - x
            # F(x + a d) - F(x) = 0.5 A a^2 + B a
            quad_a = float((d * inst.pairwise.matvec(d)).sum()) + reg.lam * float((d * d).sum())
            quad_b = float((grad * d).sum()) + reg.lam * float((x * d).sum())
            if quad_a > 0.0:
                expected = min(1.0, max(0.0, -quad_b / quad_a))
            else:  # concave along the segment: the lower endpoint
                expected = 1.0 if quad_b + 0.5 * quad_a < 0.0 else 0.0
            assert math.isclose(record.alpha, expected, rel_tol=1e-12)
            interior += 0.0 < record.alpha < 1.0
        assert interior >= 3


class TestMeanFieldRuns:
    def test_zero_pairwise_converges_in_one_step(self, rng):
        inst = zero_pairwise(rng.standard_normal((4, 3)))
        x, trace = run_generalized_fw(inst, SolverConfig(MeanField(), max_iters=3))
        np.testing.assert_allclose(x, softmax_rows(-inst.unary), atol=1e-15)
        assert trace.records[0].step_norm <= 1e-15

    def test_damped_equals_efw_half_step(self, rng):
        inst = random_instance(rng)
        cfg_dmf = SolverConfig(DampedMeanField(), max_iters=10, record_iterates=True)
        _, tr_dmf = run_generalized_fw(inst, cfg_dmf)
        cfg_efw = SolverConfig(EntropicFW(), lam=1.0,
                               schedule=Constant(0.5), max_iters=10,
                               record_iterates=True)
        _, tr_efw = run_generalized_fw(inst, cfg_efw)
        for a, b in zip(tr_dmf.iterates, tr_efw.iterates):
            np.testing.assert_array_equal(a, b)

    def test_dmf_damping_is_a_constant_schedule(self):
        assert SolverConfig(DampedMeanField()).schedule == Constant(0.5)
        cfg = SolverConfig(DampedMeanField(), schedule=Constant(0.3))
        assert cfg.schedule == Constant(0.3)
        with pytest.raises(ValueError, match="constant"):
            SolverConfig(DampedMeanField(), schedule=Harmonic())

    def test_single_node_constant_after_first_step(self, rng):
        inst = zero_pairwise(rng.standard_normal((1, 3)))
        _, trace = run_generalized_fw(inst, SolverConfig(MeanField(), max_iters=5))
        for rec in trace.records[1:]:
            assert rec.step_norm <= 1e-15


class TestConvexify:
    def test_two_node_potts_shift(self):
        inst = potts_pair()
        conv = convexify(inst)
        # c_is = 0.5 * sum_t theta(s, t) = 0.5 here; a one-hot point picks
        # up half the diagonal shift, 0.5 * (2 c) = c
        table = 0.5 * conv.pairwise.diag
        np.testing.assert_allclose(table, np.full((2, 2), 0.5), atol=1e-12)
        np.testing.assert_allclose(conv.unary, inst.unary - 0.5, atol=1e-12)

    def test_zero_pairwise_unchanged(self, rng):
        inst = zero_pairwise(rng.standard_normal((3, 2)))
        conv = convexify(inst)
        np.testing.assert_allclose(conv.unary, inst.unary)
        assert np.all(conv.pairwise.to_dense() == 0.0)

    def test_vertex_energies_match(self):
        inst = potts_pair()
        conv = convexify(inst)
        for lab in ([0, 0], [0, 1], [1, 0], [1, 1]):
            lab = np.array(lab)
            assert conv.energy_discrete(lab) == pytest.approx(
                inst.energy_discrete(lab), abs=1e-9)
            assert conv.energy_relaxed(conv.one_hot(lab)) == pytest.approx(
                inst.energy_discrete(lab), abs=1e-9)

    def test_hessian_psd_for_potts(self, rng):
        from crffw import RandomGrid, generate
        inst = generate(RandomGrid(rows=2, cols=3, d=3, seed=11, potts_w=1.5))
        conv = convexify(inst)
        eigmin = float(np.linalg.eigvalsh(conv.pairwise.to_dense()).min())
        assert eigmin >= -1e-9


class TestPgd:
    def test_zero_instance_stationary(self):
        inst = zero_instance(3, 2)
        cfg = SolverConfig(PGD(), max_iters=4, record_iterates=True)
        _, trace = run_generalized_fw(inst, cfg)
        for it in trace.iterates:
            np.testing.assert_allclose(it, np.full((3, 2), 0.5), atol=1e-12)

    def test_unit_step_is_projected_fixed_point(self, rng):
        inst = random_instance(rng)
        cfg = SolverConfig(PGD(), schedule=Constant(1.0), max_iters=1,
                           record_iterates=True)
        _, trace = run_generalized_fw(inst, cfg)
        x0 = trace.iterates[0]
        expected = project_feasible(x0 - inst.gradient(x0))
        np.testing.assert_allclose(trace.iterates[1], expected, atol=1e-12)

    def test_zero_pairwise_converges_to_unary_argmin(self, rng):
        u = rng.standard_normal((4, 3)) * 3.0
        inst = zero_pairwise(u)
        x, _ = run_generalized_fw(inst, SolverConfig(PGD(), max_iters=20))
        np.testing.assert_array_equal(np.argmax(x, axis=1), np.argmin(u, axis=1))


class TestFastPgm:
    def test_matches_hand_rolled_momentum_loop(self, rng):
        inst = random_instance(rng)
        cfg = SolverConfig(FastPGM(), max_iters=5, record_iterates=True)
        _, trace = run_generalized_fw(inst, cfg)
        # independent re-implementation of the accelerated loop
        x = inst.start()[0]
        y, t = x, 1.0
        assert 0.5 * (1.0 + math.sqrt(5.0)) == pytest.approx(1.618033988749895)
        for k in range(5):
            x_new = project_feasible(y - inst.gradient(y))
            t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            y = x_new + ((t - 1.0) / t_new) * (x_new - x)
            x, t = x_new, t_new
            np.testing.assert_allclose(trace.iterates[k + 1], x, atol=1e-12)

    def test_zero_instance_stationary(self):
        inst = zero_instance(2, 3)
        _, trace = run_generalized_fw(inst, SolverConfig(FastPGM(), max_iters=4))
        assert all(r.step_norm <= 1e-12 for r in trace.records)

    def test_accelerates_over_pgd_on_convex_energies(self, rng):
        # classical 1/L stepsize for both methods
        wins = 0
        total = 50
        for _ in range(total):
            inst = convexify(random_instance(rng, kind="edges"))
            sched = Constant(min(1.0, 1.0 / max(inst.lipschitz_upper_bound(), 1e-9)))
            _, tr_pgm = run_generalized_fw(
                inst, SolverConfig(FastPGM(), schedule=sched, max_iters=20))
            _, tr_pgd = run_generalized_fw(
                inst, SolverConfig(PGD(), schedule=sched, max_iters=20))
            if tr_pgm.records[-1].e_cont <= tr_pgd.records[-1].e_cont + 1e-12:
                wins += 1
        assert wins >= 0.8 * total


class TestEmd:
    def test_zero_gradient_keeps_point(self, rng):
        inst = zero_instance(3, 4)
        cfg = SolverConfig(EMD(), max_iters=3, record_iterates=True)
        _, trace = run_generalized_fw(inst, cfg)
        for it in trace.iterates[1:]:
            np.testing.assert_allclose(it, trace.iterates[0], atol=1e-8)

    def test_uniform_gradient_rows_keep_uniform(self):
        u = np.ones((2, 3)) * 2.5  # constant rows: softmax start is uniform
        inst = zero_pairwise(u)
        cfg = SolverConfig(EMD(), max_iters=3, record_iterates=True)
        _, trace = run_generalized_fw(inst, cfg)
        for it in trace.iterates:
            np.testing.assert_allclose(it, np.full((2, 3), 1.0 / 3.0), atol=1e-9)

    def test_extreme_magnitudes_stay_finite(self, rng):
        u = rng.uniform(-1e4, 1e4, size=(5, 4))
        inst = zero_pairwise(u)
        cfg = SolverConfig(EMD(), max_iters=100, record_iterates=True)
        x, trace = run_generalized_fw(inst, cfg)
        assert np.all(np.isfinite(x))
        for it in trace.iterates:
            assert np.all(np.isfinite(it))
            assert np.all(it.sum(axis=1) > 0.0)

    def test_moderate_magnitudes_stay_strictly_positive(self, rng):
        u = rng.uniform(-30.0, 30.0, size=(5, 4))
        inst = zero_pairwise(u)
        cfg = SolverConfig(EMD(), max_iters=50, record_iterates=True)
        _, trace = run_generalized_fw(inst, cfg)
        for it in trace.iterates:
            assert np.all(it > 0.0)


class TestAdmm:
    def test_zero_instance(self):
        inst = zero_instance(2, 2)
        cfg = SolverConfig(ADMM(), max_iters=6, record_iterates=True)
        _, trace = run_generalized_fw(inst, cfg)
        for it in trace.iterates:
            np.testing.assert_allclose(it, np.full((2, 2), 0.5), atol=1e-12)

    def test_trace_length_counts_half_iterations(self, rng):
        inst = random_instance(rng)
        _, trace = run_generalized_fw(inst, SolverConfig(ADMM(), max_iters=7))
        assert len(trace) == 7

    def test_primal_residual_decreases(self, rng):
        shrinks = 0
        total = 50
        for _ in range(total):
            inst = random_instance(rng)
            cfg = SolverConfig(ADMM(), max_iters=40)
            _, trace = run_generalized_fw(inst, cfg)
            # step_norm on odd rows is ||x - z|| after each dual update
            residuals = [r.step_norm for r in trace.records if r.k % 2 == 1]
            if residuals[-1] <= residuals[0] + 1e-12:
                shrinks += 1
        assert shrinks >= 0.8 * total


class TestDecreaseBounds:
    def test_adaptive_and_constant_rows_hold(self, rng):
        for i in range(50):
            inst = random_instance(rng)
            reg = L2Regularizer(1.0) if i % 2 == 0 else EntropyRegularizer(1.0)
            method = L2FW() if i % 2 == 0 else EntropicFW()
            omega = convergence_params(inst, reg).omega
            for sched in (Adaptive(), Constant(min(1.0, 1.8 * omega))):
                cfg = SolverConfig(method, lam=reg.lam, schedule=sched,
                                   max_iters=20, decrease_bound_check=True)
                run_generalized_fw(inst, cfg)  # raises on violation

    def test_line_search_row_holds(self, rng):
        for _ in range(10):
            inst = random_instance(rng)
            cfg = SolverConfig(EntropicFW(), lam=0.5,
                               schedule=LineSearch(), max_iters=15,
                               decrease_bound_check=True)
            run_generalized_fw(inst, cfg)

    def test_sublinear_stationarity_trend(self, rng):
        for _ in range(25):
            inst = random_instance(rng)
            cfg = SolverConfig(EntropicFW(), lam=1.0,
                               schedule=Adaptive(), max_iters=25)
            _, trace = run_generalized_fw(inst, cfg)
            f_all = [trace.initial_e_reg, *trace.e_reg]
            f0_excess = float(f_all[0] - min(f_all))
            omega = convergence_params(inst, cfg.regularizer).omega
            running_min = math.inf
            for k, rec in enumerate(trace.records):
                running_min = min(running_min, rec.s_k)
                assert running_min <= f0_excess / (omega * (k + 1)) + 1e-7


def _outcome(instance, config, pool=None):
    """Everything a run shows but `time_ms`: the point, every record and
    iterate, or the error and its partial trace."""
    def rows(trace):
        return [repr(dataclasses.astuple(r)[:-1]) for r in trace.records]

    try:
        x, trace = run_generalized_fw(instance, config, pool)
    except Diverged as exc:
        return "diverged", str(exc), rows(exc.trace)
    except AssertionError as exc:
        return "assertion", str(exc)
    iterates = [it.tobytes() for it in trace.iterates or ()]
    return "ok", x.tobytes(), rows(trace), iterates, repr(trace.initial_e_reg)


class _StepFails(VanillaFW):
    """Vanilla FW whose step raises Diverged at iteration 2."""

    def steps(self, instance, x, px, r_x, config, params):
        yield from itertools.islice(super().steps(instance, x, px, r_x, config, params), 2)
        raise Diverged("step failed")


class _EnergyFails(VanillaFW):
    """Vanilla FW that yields P x as nan at iteration 2, so that e_cont
    is not finite there while e_disc is."""

    def steps(self, instance, x, px, r_x, config, params):
        for k, (x, px, *rest) in enumerate(super().steps(instance, x, px, r_x, config, params)):
            yield (x, np.full_like(px, np.nan) if k == 2 else px, *rest)


# rounded fw iterates whose e_disc differs at iterations 1, 2 and 3
CHANGING_E_DISC = RandomDense(n=12, d=3, seed=0)


class TestDiscreteEnergyHelper:
    """A one-thread executor computes e_disc beside the next step; the
    run is otherwise the same, bit for bit."""

    @pytest.fixture
    def pool(self):
        pool = ThreadPoolExecutor(1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the two threads often
        yield pool
        sys.setswitchinterval(interval)
        pool.shutdown()

    @staticmethod
    def _configs():
        for name, cls in METHODS.items():
            method = cls()
            yield SolverConfig(method, max_iters=12, record_iterates=True,
                               decrease_bound_check=method.bounded)
            if LineSearch in method.schedule_types:
                lam = None if method.regularizer is None else 0.5
                yield SolverConfig(method, lam=lam, schedule=LineSearch(), max_iters=12,
                                   record_iterates=True,
                                   decrease_bound_check=method.bounded)

    @pytest.mark.parametrize("kind", ["gaussian", "edges", "dense"])
    def test_traces_match_the_inline_run(self, pool, kind):
        rng = np.random.default_rng(5)
        instance = random_instance(rng, n=7, d=3, kind=kind)
        for config in self._configs():
            inline = _outcome(instance, config)
            assert inline[0] == "ok", (config.method.name, inline)
            assert _outcome(instance, config, pool) == inline, config.method.name

    @pytest.mark.parametrize("method, message", [
        (_EnergyFails(), "non-finite e_cont at iteration 2"),
        (_StepFails(), "step failed at iteration 2"),
    ])
    def test_partial_trace_matches_and_holds_floats(self, pool, method, message):
        instance = generate(CHANGING_E_DISC)
        config = SolverConfig(method, schedule=Constant(0.5), max_iters=6)
        _, full = run_generalized_fw(instance, SolverConfig(
            VanillaFW(), schedule=Constant(0.5), max_iters=4))
        assert len(set(full.e_disc)) == 3  # a misplaced e_disc would show
        inline = _outcome(instance, config)
        assert inline[:2] == ("diverged", message)
        assert _outcome(instance, config, pool) == inline
        with pytest.raises(Diverged) as exc_info:
            run_generalized_fw(instance, config, pool)
        records = exc_info.value.trace.records
        assert [r.e_disc for r in records] == list(full.e_disc[:2])
        assert all(type(r.e_disc) is float for r in records)

    @pytest.mark.parametrize("case", ["return", "check", "step", "bound"])
    def test_energy_discrete_error_surfaces(self, pool, monkeypatch, case):
        # the error comes from the last e_disc computed before the run
        # ends, or before the loop's own error, which it beats
        method, fail_at = {"return": (VanillaFW(), 5), "check": (_EnergyFails(), 3),
                           "step": (_StepFails(), 2), "bound": (VanillaFW(), 1)}[case]
        if case == "bound":
            monkeypatch.setattr(schedules, "decrease_bound", lambda *a: math.inf)
        instance = generate(CHANGING_E_DISC)
        config = SolverConfig(method, schedule=Constant(0.5), max_iters=5,
                              decrease_bound_check=case == "bound")
        energy = CrfInstance.energy_discrete
        calls = []

        def failing(self, labels):
            calls.append(None)
            if len(calls) == fail_at:
                raise RuntimeError("e_disc failed")
            return energy(self, labels)

        monkeypatch.setattr(CrfInstance, "energy_discrete", failing)
        for use in (None, pool):
            calls.clear()
            with pytest.raises(RuntimeError, match="e_disc failed"):
                run_generalized_fw(instance, config, use)
            assert len(calls) == fail_at

    def test_overflow_on_the_helper_warns_nothing(self, pool, monkeypatch):
        def overflowing(self, labels):
            return float(np.array([1e308, 1e308]).sum())

        monkeypatch.setattr(CrfInstance, "energy_discrete", overflowing)
        instance = generate(RandomDense(n=12, d=3, seed=2))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            # a new thread does not inherit the caller's errstate
            with np.errstate(all="ignore"):
                pool.submit(overflowing, instance, None).result()
            assert [w.category for w in caught] == [RuntimeWarning]
            caught.clear()
            _, trace = run_generalized_fw(instance, SolverConfig(MeanField()), pool)
        assert caught == []
        assert all(r.e_disc == math.inf for r in trace.records)
