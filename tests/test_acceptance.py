"""Acceptance suite: one test per criterion, with stated tolerances and
runtime budgets.  Run with `pytest tests/test_acceptance.py -v -s` to see
one PASS/FAIL line per criterion.
"""

import itertools
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import random_feasible, random_instance
from crffw import (EMD, PGD, Adaptive, Constant, CrfInstance, EdgeList,
                   EntropicFW, EntropyRegularizer, L2FW, L2Regularizer,
                   LineSearch, MeanField, RandomDense, SolverConfig,
                   VanillaFW, brute_force_map, conditional_gradient_norm,
                   convergence_params, finite_diff_gradient, generate,
                   lmo_vanilla, mean_field_run, project_feasible, read_json,
                   read_uai, regularizer_bounds, round_bcd, round_nearest,
                   rounding_constant, run_generalized_fw, softmax_rows,
                   write_json)


@contextmanager
def criterion(num, name, budget_s=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {num:2d} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    within_budget = budget_s is None or elapsed < budget_s
    verdict = "PASS" if within_budget else "FAIL (over time budget)"
    print(f"[acceptance] criterion {num:2d} ({name}): {verdict} ({elapsed:.1f}s)")
    assert within_budget, f"criterion {num} exceeded {budget_s}s budget"


def test_criterion_01_oracle_equivalence():
    with criterion(1, "oracle equivalence", budget_s=10.0):
        rng = np.random.default_rng(101)
        for _ in range(200):
            inst = random_instance(rng, n=int(rng.integers(2, 7)),
                                   d=int(rng.integers(2, 4)))
            report = brute_force_map(inst)
            best_e, best_lab = math.inf, None
            for lab in itertools.product(range(inst.n_labels), repeat=inst.n_nodes):
                lab = np.array(lab)
                e_disc = inst.energy_discrete(lab)
                assert abs(inst.energy_relaxed(inst.one_hot(lab)) - e_disc) <= 1e-9
                if e_disc < best_e - 0.0:
                    best_e, best_lab = e_disc, lab
            assert report.optimal_energy == pytest.approx(best_e, abs=1e-12)
            assert report.enumerated_count == inst.n_labels ** inst.n_nodes
            assert inst.energy_discrete(report.optimal_labeling) == report.optimal_energy


def test_criterion_02_gradient_correctness():
    with criterion(2, "gradient vs central differences", budget_s=10.0):
        rng = np.random.default_rng(202)
        kinds = ["edges", "dense", "gaussian"]
        for trial in range(100):
            inst = random_instance(rng, kind=kinds[trial % 3])
            x = random_feasible(rng, inst.n_nodes, inst.n_labels)
            g = inst.gradient(x)
            fd = finite_diff_gradient(inst, x)
            scale = max(1.0, float(np.abs(g).max()))
            assert float(np.abs(g - fd).max()) / scale <= 1e-6


def test_criterion_03_mean_field_identity():
    with criterion(3, "mean field = entropic FW(1, 1)", budget_s=30.0):
        rng = np.random.default_rng(303)
        for _ in range(50):
            inst = random_instance(rng)
            _, tr_mf = mean_field_run(inst, 20)
            cfg = SolverConfig(EntropicFW(), lam=1.0,
                               schedule=Constant(1.0), max_iters=20,
                               record_iterates=True)
            _, tr_efw = run_generalized_fw(inst, cfg)
            assert len(tr_mf.iterates) == len(tr_efw.iterates) == 21
            for a, b in zip(tr_mf.iterates, tr_efw.iterates):
                assert float(np.abs(a - b).max()) <= 1e-12


def test_criterion_04_stationarity_measure():
    with criterion(4, "optimality measure lower bounds"):
        rng = np.random.default_rng(404)
        for _ in range(200):
            inst = random_instance(rng)
            x = random_feasible(rng, inst.n_nodes, inst.n_labels)
            for reg in (L2Regularizer(0.9), EntropyRegularizer(0.9)):
                s = conditional_gradient_norm(inst, x, reg)
                assert s >= -1e-9
                grad = inst.gradient(x)
                if isinstance(reg, L2Regularizer):
                    p = project_feasible(-grad / reg.lam)
                else:
                    p = softmax_rows(-grad / reg.lam)
                assert s >= 0.5 * reg.lam * float(((x - p) ** 2).sum()) - 1e-9
        # constructed stationary points of zero-pairwise instances
        for seed in range(20):
            r2 = np.random.default_rng(seed)
            u = r2.standard_normal((4, 3)) * 2.0
            inst = CrfInstance(u, EdgeList(4, 3, np.zeros((0, 2), int),
                                           np.zeros((0, 3, 3))))
            lam = 0.7
            x_l2 = project_feasible(-u / lam)
            assert abs(conditional_gradient_norm(inst, x_l2, L2Regularizer(lam))) <= 1e-9
            x_ent = softmax_rows(-u / lam)
            assert abs(conditional_gradient_norm(inst, x_ent,
                                                 EntropyRegularizer(lam))) <= 1e-9


def test_criterion_05_decrease_bounds():
    with criterion(5, "per-iteration decrease bounds"):
        rng = np.random.default_rng(505)
        for i in range(50):
            inst = random_instance(rng)
            reg = L2Regularizer(1.0) if i % 2 == 0 else EntropyRegularizer(1.0)
            method = L2FW() if i % 2 == 0 else EntropicFW()
            omega = convergence_params(inst, reg).omega
            for sched in (Adaptive(), Constant(min(1.0, 0.9 * 2.0 * omega))):
                cfg = SolverConfig(method, lam=reg.lam, schedule=sched,
                                   max_iters=20, decrease_bound_check=True)
                _, trace = run_generalized_fw(inst, cfg)  # raises on violation
                assert all(r.bound_held for r in trace.records)


def test_criterion_06_rounding_tightness():
    with criterion(6, "rounding bounds and tightness"):
        rng = np.random.default_rng(606)
        points_checked = 0
        while points_checked < 500:
            inst = random_instance(rng)
            c = rounding_constant(inst)
            for _ in range(10):
                x = random_feasible(rng, inst.n_nodes, inst.n_labels)
                e_x = inst.energy_relaxed(x)
                assert inst.energy_discrete(round_bcd(inst, x)) <= e_x + 1e-9
                assert abs(e_x - inst.energy_discrete(round_nearest(x))) <= c
                points_checked += 1
            report = brute_force_map(inst)
            one_hot = inst.one_hot(report.optimal_labeling)
            decoded = inst.energy_discrete(round_nearest(one_hot))
            assert decoded == report.optimal_energy


def test_criterion_07_regularizer_bounds():
    with criterion(7, "regularizer range bounds"):
        rng = np.random.default_rng(707)
        n, d = 3, 4
        pts = rng.exponential(size=(100_000, n, d))
        pts /= pts.sum(axis=2, keepdims=True)
        for reg in (L2Regularizer(1.0), EntropyRegularizer(1.0)):
            m, big_m = regularizer_bounds(reg, n, d)
            if isinstance(reg, L2Regularizer):
                vals = 0.5 * reg.lam * (pts ** 2).sum(axis=(1, 2))
            else:
                vals = reg.lam * (pts * np.log(np.maximum(pts, 1e-300))).sum(axis=(1, 2))
            assert vals.min() >= m - 1e-9
            assert vals.max() <= big_m + 1e-9
        vertex = np.zeros((n, d))
        vertex[np.arange(n), rng.integers(0, d, n)] = 1.0
        assert L2Regularizer(1.0).value(vertex) == regularizer_bounds(
            L2Regularizer(1.0), n, d)[1]
        assert EntropyRegularizer(1.0).value(vertex) == 0.0


def test_criterion_08_dense_benchmark_ordering():
    with criterion(8, "dense benchmark energy ordering", budget_s=180.0):
        iters = 5
        good_seeds = 0
        per_method = {name: [] for name in ("fw", "l2fw", "efw", "mf", "pgd")}
        for seed in range(10):
            inst = generate(RandomDense(n=500, d=21, seed=seed,
                                        image_size=32.0, unary_scale=4.0))
            runs = {
                "fw": SolverConfig(VanillaFW(), schedule=LineSearch(),
                                   max_iters=iters),
                "l2fw": SolverConfig(L2FW(), lam=1.0,
                                     schedule=LineSearch(), max_iters=iters),
                "efw": SolverConfig(EntropicFW(),
                                    lam=0.25,
                                    schedule=LineSearch(), max_iters=iters),
                "mf": SolverConfig(MeanField(), max_iters=iters),
                "pgd": SolverConfig(PGD(), max_iters=iters),
            }
            at5 = {}
            for name, cfg in runs.items():
                _, trace = run_generalized_fw(inst, cfg)
                at5[name] = trace.records[iters - 1].e_disc
                per_method[name].append(at5[name])
            if (at5["fw"] < at5["mf"] and at5["l2fw"] < at5["mf"]
                    and at5["efw"] < at5["mf"] and at5["mf"] < at5["pgd"]):
                good_seeds += 1
        assert good_seeds >= 8, f"ordering held on only {good_seeds}/10 seeds"
        means = {name: float(np.mean(v)) for name, v in per_method.items()}
        assert means["fw"] < means["mf"] < means["pgd"]
        assert means["l2fw"] < means["mf"]
        assert means["efw"] < means["mf"]


def test_criterion_09_multiplicative_update_stability():
    with criterion(9, "multiplicative update numerical stability"):
        rng = np.random.default_rng(909)
        for _ in range(5):
            n, d = 6, 4
            u = rng.uniform(-1e4, 1e4, size=(n, d))
            inst = CrfInstance(u, EdgeList(n, d, np.zeros((0, 2), int),
                                           np.zeros((0, d, d))))
            cfg = SolverConfig(EMD(), max_iters=100, record_iterates=True)
            x, trace = run_generalized_fw(inst, cfg)
            assert np.all(np.isfinite(x))
            for it in trace.iterates:
                assert np.all(np.isfinite(it))
            for rec in trace.records:
                assert math.isfinite(rec.e_cont)


def test_criterion_10_lmo_zero_gradient_property():
    with criterion(10, "linear oracle piecewise constancy"):
        rng = np.random.default_rng(1010)
        checked = 0
        while checked < 1000:
            d = int(rng.integers(2, 8))
            row = rng.standard_normal(d)
            srt = np.sort(row)
            gap = srt[1] - srt[0]
            if gap <= 1e-9:
                continue
            base = lmo_vanilla(row[None])
            pert = rng.uniform(-0.5, 0.5, d) * gap * 0.999
            assert np.array_equal(lmo_vanilla((row + pert)[None]), base)
            # crossing the tie boundary moves the argmin
            flipped = row.copy()
            flipped[int(np.argsort(row)[1])] = srt[0] - 1e-6
            assert not np.array_equal(lmo_vanilla(flipped[None]), base)
            checked += 1


def test_criterion_11_serialization(tmp_path):
    with criterion(11, "serialization round trips"):
        rng = np.random.default_rng(1111)
        for idx in range(15):
            inst = random_instance(rng)
            path = tmp_path / f"rt{idx}.json"
            write_json(inst, path)
            back = read_json(path)
            for _ in range(20):
                x = random_feasible(rng, inst.n_nodes, inst.n_labels)
                assert back.energy_relaxed(x) == inst.energy_relaxed(x)
        # UAI MAP agrees with maximizing the product of the factor tables
        for trial in range(10):
            n = int(rng.integers(2, 5))
            d = 2 if n >= 4 else int(rng.integers(2, 4))
            factors = [([i], rng.uniform(0.05, 1.0, size=d)) for i in range(n)]
            factors += [([i, i + 1], rng.uniform(0.05, 1.0, size=d * d))
                        for i in range(n - 1)]
            lines = ["MARKOV", str(n), " ".join([str(d)] * n), str(len(factors))]
            lines += [f"{len(s)} " + " ".join(map(str, s)) for s, _ in factors]
            for _, table in factors:
                lines += [str(table.size), " ".join(repr(float(v)) for v in table)]
            path = tmp_path / f"u{trial}.uai"
            path.write_text("\n".join(lines) + "\n")
            inst = read_uai(path)
            assert inst.n_nodes * inst.n_labels <= 12
            report = brute_force_map(inst)

            def product_of(lab):
                p = 1.0
                for scope, table in factors:
                    p *= (table[lab[scope[0]]] if len(scope) == 1
                          else table.reshape(d, d)[lab[scope[0]], lab[scope[1]]])
                return p

            best = max(itertools.product(range(d), repeat=n), key=product_of)
            assert product_of(tuple(report.optimal_labeling)) == pytest.approx(
                product_of(best), rel=1e-9)
