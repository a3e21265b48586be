"""Self-contained check suites behind the `verify` CLI command.

Three suites: `oracle` (energies, gradients, serialization against
independent re-computation), `invariants` (geometric and algorithmic
properties), and `bounds` (per-iteration decrease guarantees and
rounding bounds).  Each check returns a CheckResult; a suite passes iff
all its checks do.

The ground-truth oracles they run (brute-force MAP, central-difference
gradients, rounding tightness) live here too, apart from the solver paths.
"""

from __future__ import annotations

import itertools
import math
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from . import schedules, simplex, solvers
from .errors import CapacityError
from .instances import RandomGrid, generate, potts_matrix, read_json, read_uai, write_json
from .model import CrfInstance, DenseMatrix, EdgeList, GaussianKernel
from .regularizers import EntropyRegularizer, L2Regularizer, regularizer_bounds

_BRUTE_FORCE_CAP = 10_000_000
_CHUNK = 1 << 14
_FD_STEP = 1e-5  # finite_diff_gradient's central-difference step
_GRID_STEP = 1e-3  # _grid_search_projection's tick spacing


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def random_feasible(rng, n, d):
    e = rng.exponential(size=(n, d))
    return e / e.sum(axis=1, keepdims=True)


def small_instance(rng, backend_kind=None):
    """Random instance with n <= 6, d <= 3 over a random backend."""
    n = int(rng.integers(2, 7))
    d = int(rng.integers(2, 4))
    kind = backend_kind or rng.choice(["edges", "dense", "gaussian"])
    unary = rng.standard_normal((n, d)) * 2.0
    if kind == "edges":
        edges, thetas = [], []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.uniform() < 0.6:
                    edges.append((i, j))
                    thetas.append(rng.standard_normal((d, d)))
        thetas = np.array(thetas) if thetas else np.zeros((0, d, d))
        backend = EdgeList(n, d, np.array(edges, dtype=int).reshape(-1, 2), thetas)
    elif kind == "dense":
        m = rng.standard_normal((n * d, n * d))
        m = 0.5 * (m + m.T)
        for i in range(n):
            m[i * d:(i + 1) * d, i * d:(i + 1) * d] = 0.0
        backend = DenseMatrix(m, d)
    else:
        positions = rng.uniform(0.0, 10.0, size=(n, 2))
        colors = rng.uniform(0.0, 255.0, size=(n, 3))
        backend = GaussianKernel(positions, colors, potts_matrix(d),
                                 alpha=8.0, beta=40.0, gamma=4.0)
    return CrfInstance(unary, backend)


def _energy_by_hand(instance, labels):
    # independent evaluation: plain Python loops over the explicit matrix
    n, d = instance.n_nodes, instance.n_labels
    P = instance.pairwise.to_dense()
    total = sum(float(instance.unary[i, labels[i]]) for i in range(n))
    for i in range(n):
        for j in range(i, n):
            entry = float(P[i * d + labels[i], j * d + labels[j]])
            total += entry if i < j else 0.5 * entry
    return total


def mean_field_iterates(instance, iters):
    """Parallel mean-field iterates x_0, ..., x_iters: x_0 = softmax(-u),
    then x <- softmax(-(P x + u)).  The reference for mf = efw(1, 1),
    written apart from the solver loop; P is read through matvec only."""
    u, matvec = instance.unary, instance.pairwise.matvec
    xs = [simplex.softmax_rows(-u)]
    for _ in range(iters):
        xs.append(simplex.softmax_rows(-(matvec(xs[-1]) + u)))
    return xs


# ---------------------------------------------------------------------------
# oracles

@dataclass(frozen=True)
class OracleReport:
    optimal_labeling: np.ndarray
    optimal_energy: float
    enumerated_count: int


def _decode_labelings(indices, n, d):
    # mixed-radix decoding, first node most significant -> lexicographic order
    return np.stack(np.unravel_index(indices, (d,) * n), axis=1)


def _batch_energies(unary, blocks, labelings):
    n = unary.shape[0]
    e = unary[np.arange(n)[None, :], labelings].sum(axis=1)
    for i, j, blk in blocks:
        e = e + blk[labelings[:, i], labelings[:, j]]
    return e


def brute_force_map(instance):
    """Exhaustive MAP: minimum-energy labeling, lexicographic tie-break.

    Reads P through `to_dense()`, so an operator too large to hold (an
    `EdgeList` with d = 1 and n = 9000) raises `CapacityError` at any d^n.
    """
    n, d = instance.n_nodes, instance.n_labels
    total = d ** n
    if total > _BRUTE_FORCE_CAP:
        raise CapacityError(
            f"d^n = {total} labelings exceeds the enumeration cap {_BRUTE_FORCE_CAP}")
    P = instance.pairwise.to_dense()
    # diagonal entries count half at one-hot points; each i < j block once
    unary = instance.unary + 0.5 * np.diag(P).reshape(n, d)
    blocks = [(i, j, blk) for i in range(n) for j in range(i + 1, n)
              if (blk := P[i * d:(i + 1) * d, j * d:(j + 1) * d]).any()]
    best_energy = math.inf
    best_labeling = None
    for start in range(0, total, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        labelings = _decode_labelings(idx, n, d)
        energies = _batch_energies(unary, blocks, labelings)
        j = int(np.argmin(energies))
        if energies[j] < best_energy:
            best_energy = float(energies[j])
            best_labeling = labelings[j].copy()
    # report the canonical evaluation of the winning labeling so the
    # energy matches energy_discrete bit for bit
    return OracleReport(optimal_labeling=best_labeling,
                        optimal_energy=instance.energy_discrete(best_labeling),
                        enumerated_count=total)


def finite_diff_gradient(instance, x):
    """Central-difference gradient of the continuous energy.

    The energy is a quadratic polynomial, so central differences are
    exact up to rounding; off-simplex evaluation is fine.
    """
    x = np.asarray(x, dtype=float)
    grad = np.empty_like(x)
    for i in range(x.shape[0]):
        for s in range(x.shape[1]):
            xp = x.copy()
            xm = x.copy()
            xp[i, s] += _FD_STEP
            xm[i, s] -= _FD_STEP
            grad[i, s] = (instance.energy_relaxed(xp)
                          - instance.energy_relaxed(xm)) / (2.0 * _FD_STEP)
    return grad


@dataclass(frozen=True)
class TightnessReport:
    e_star: float
    e_rounded_nearest: float
    e_rounded_bcd: float
    bound_nearest: float
    bound_bcd: float


def tightness_report(instance, x, reg=None, x_is_global_min=False):
    """Rounding-gap report against the brute-force optimum.

    Always verifies E* <= E(rounded).  When the caller certifies x as a
    global minimizer of the regularized relaxation, also verifies the
    additive upper bounds E* + M - m (+ C for nearest rounding).
    """
    report = brute_force_map(instance)
    e_star = report.optimal_energy
    m, big_m = regularizer_bounds(reg, instance.n_nodes, instance.n_labels)
    c = simplex.rounding_constant(instance)
    e_near = instance.energy_discrete(simplex.round_nearest(x))
    e_bcd = instance.energy_discrete(simplex.round_bcd(instance, x))
    out = TightnessReport(
        e_star=e_star,
        e_rounded_nearest=e_near,
        e_rounded_bcd=e_bcd,
        bound_nearest=e_star + (big_m - m) + c,
        bound_bcd=e_star + (big_m - m),
    )
    if e_near < e_star - 1e-9 or e_bcd < e_star - 1e-9:
        raise AssertionError("rounded energy below the brute-force optimum")
    if x_is_global_min:
        if e_near > out.bound_nearest + 1e-7:
            raise AssertionError("nearest-rounding additive bound violated")
        if e_bcd > out.bound_bcd + 1e-7:
            raise AssertionError("coordinate-descent rounding bound violated")
    return out


def vertex_regularizer_constancy(reg, n, d):
    """True iff the regularizer value is constant across one-hot points.

    Evaluates every one-hot point when d^n <= 2^16, otherwise a random
    sample of 256 of them, and allows a spread of 1e-12.
    """
    total = d ** n
    x = np.zeros((n, d))

    def value_at(labels):
        x.fill(0.0)
        x[np.arange(n), labels] = 1.0
        return 0.0 if reg is None else float(reg.value(x))

    if total <= 65536:
        labelings = itertools.product(range(d), repeat=n)
    else:
        rng = np.random.default_rng(0)
        labelings = (rng.integers(0, d, size=n) for _ in range(256))
    values = [value_at(labels) for labels in labelings]
    return (max(values) - min(values)) <= 1e-12


# ---------------------------------------------------------------------------
# oracle suite

def suite_oracle(seed=0):
    rng = np.random.default_rng(seed)
    checks = []

    worst = 0.0
    for _ in range(40):
        inst = small_instance(rng)
        for labels in itertools.product(range(inst.n_labels), repeat=inst.n_nodes):
            labels = np.array(labels)
            worst = max(worst, abs(inst.energy_relaxed(inst.one_hot(labels))
                                   - inst.energy_discrete(labels)))
    checks.append(CheckResult("one_hot_energy_equality", worst <= 1e-9,
                              f"max |E_relaxed(one_hot) - E_discrete| = {worst:.2e}"))

    ok = True
    for _ in range(40):
        inst = small_instance(rng)
        report = brute_force_map(inst)
        best = min(
            (_energy_by_hand(inst, np.array(lab)), lab)
            for lab in itertools.product(range(inst.n_labels), repeat=inst.n_nodes))
        if abs(best[0] - report.optimal_energy) > 1e-9:
            ok = False
        if tuple(report.optimal_labeling) != best[1] and \
                abs(_energy_by_hand(inst, report.optimal_labeling) - best[0]) > 1e-9:
            ok = False
    checks.append(CheckResult("brute_force_vs_reenumeration", ok))

    worst = 0.0
    for kind in ("edges", "dense", "gaussian"):
        for _ in range(15):
            inst = small_instance(rng, kind)
            x = random_feasible(rng, inst.n_nodes, inst.n_labels)
            g = inst.gradient(x)
            fd = finite_diff_gradient(inst, x)
            scale = max(1.0, float(np.abs(g).max()))
            worst = max(worst, float(np.abs(g - fd).max()) / scale)
    checks.append(CheckResult("gradient_finite_differences", worst <= 1e-6,
                              f"max relative deviation = {worst:.2e}"))

    worst = 0.0
    for _ in range(10):
        inst = small_instance(rng, "gaussian")
        dense = CrfInstance(inst.unary,
                            DenseMatrix(inst.pairwise.to_dense(), inst.n_labels))
        x = random_feasible(rng, inst.n_nodes, inst.n_labels)
        worst = max(worst, abs(inst.energy_relaxed(x) - dense.energy_relaxed(x)),
                    float(np.abs(inst.gradient(x) - dense.gradient(x)).max()))
    checks.append(CheckResult("gaussian_vs_dense_backend", worst <= 1e-9,
                              f"max deviation = {worst:.2e}"))

    worst = 0.0
    for _ in range(100):
        inst = small_instance(rng)
        x = rng.standard_normal((inst.n_nodes, inst.n_labels))
        y = rng.standard_normal((inst.n_nodes, inst.n_labels))
        px = inst.pairwise.matvec(x)
        py = inst.pairwise.matvec(y)
        worst = max(worst, abs(float((x * py).sum()) - float((px * y).sum())))
    checks.append(CheckResult("operator_symmetry", worst <= 1e-9,
                              f"max |<x,Py> - <Px,y>| = {worst:.2e}"))

    ok = True
    detail = ""
    cases = [(inst, float(np.linalg.norm(inst.pairwise.to_dense(), 2)))
             for inst in (small_instance(rng) for _ in range(20))]
    # a real size, ||K (x) compat||_2 = lambda_max(K) ||compat||_2 for K >= 0;
    # its own generator leaves the later checks' draws as they were
    big_rng = np.random.default_rng(seed + 1)
    m = big_rng.standard_normal((4, 4))
    big = GaussianKernel(big_rng.uniform(0, 32, (300, 2)), big_rng.uniform(0, 255, (300, 3)),
                         m + m.T)
    cases.append((CrfInstance(np.zeros((300, 4)), big), float(
        np.linalg.eigvalsh(big.kernel_matrix)[-1] * np.linalg.norm(big.compat, 2))))
    for inst, exact in cases:
        bound = inst.lipschitz_upper_bound()
        if bound < exact - 1e-9:
            ok = False
            detail = f"bound {bound:.6f} < exact spectral norm {exact:.6f} at n={inst.n_nodes}"
    checks.append(CheckResult("spectral_norm_bound", ok, detail))

    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        for idx in range(12):
            inst = small_instance(rng)
            path = os.path.join(tmp, f"rt{idx}.json")
            write_json(inst, path)
            back = read_json(path)
            for _ in range(5):
                x = random_feasible(rng, inst.n_nodes, inst.n_labels)
                if back.energy_relaxed(x) != inst.energy_relaxed(x):
                    ok = False
    checks.append(CheckResult("json_round_trip", ok))

    ok = True
    with tempfile.TemporaryDirectory() as tmp:
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
            path = os.path.join(tmp, f"u{trial}.uai")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
            inst = read_uai(path)
            report = brute_force_map(inst)

            def product_of(lab):
                p = 1.0
                for scope, table in factors:
                    p *= (table[lab[scope[0]]] if len(scope) == 1
                          else table.reshape(d, d)[lab[scope[0]], lab[scope[1]]])
                return p

            best = max(itertools.product(range(d), repeat=n), key=product_of)
            if not math.isclose(product_of(tuple(report.optimal_labeling)),
                                product_of(best), rel_tol=1e-9):
                ok = False
    checks.append(CheckResult("uai_map_matches_product_maximization", ok))
    return checks


# ---------------------------------------------------------------------------
# invariants suite

def _grid_search_projection(v):
    # dense search over the simplex for d = 2 or 3
    d = v.size
    ticks = np.arange(0.0, 1.0 + 0.5 * _GRID_STEP, _GRID_STEP)
    if d == 2:
        cand = np.stack([ticks, 1.0 - ticks], axis=1)
    else:
        a, b = np.meshgrid(ticks, ticks, indexing="ij")
        mask = a + b <= 1.0 + 1e-12
        a, b = a[mask], b[mask]
        cand = np.stack([a, b, np.maximum(1.0 - a - b, 0.0)], axis=1)
    dists = ((cand - v) ** 2).sum(axis=1)
    return cand[int(np.argmin(dists))]


def suite_invariants(seed=0):
    rng = np.random.default_rng(seed)
    checks = []

    worst = 0.0
    kkt_ok = True
    for _ in range(50):
        d = int(rng.integers(2, 4))
        v = rng.standard_normal(d) * 2.0
        z = simplex.project_simplex(v)
        ref = _grid_search_projection(v)
        worst = max(worst, float(np.abs(z - ref).max()))
        gamma = float((v - z)[z > 1e-12].max()) if np.any(z > 1e-12) else 0.0
        if abs(z.sum() - 1.0) > 1e-9 or np.any(z < 0.0):
            kkt_ok = False
        if float(np.abs(np.maximum(v - gamma, 0.0) - z).max()) > 1e-9:
            kkt_ok = False
    checks.append(CheckResult("projection_grid_search", worst <= 1e-3,
                              f"max deviation from grid search = {worst:.2e}"))
    checks.append(CheckResult("projection_kkt", kkt_ok))

    ok = True
    for _ in range(100):
        n, d = int(rng.integers(1, 5)), int(rng.integers(2, 6))
        a = rng.standard_normal((n, d)) * 3.0
        b = rng.standard_normal((n, d)) * 3.0
        pa, pb = simplex.project_feasible(a), simplex.project_feasible(b)
        if float(np.abs(simplex.project_feasible(pa) - pa).max()) > 1e-12:
            ok = False
        if np.linalg.norm(pa - pb) > np.linalg.norm(a - b) + 1e-12:
            ok = False
    checks.append(CheckResult("projection_idempotent_nonexpansive", ok))

    ok = True
    for _ in range(50):
        n, d = int(rng.integers(1, 5)), int(rng.integers(2, 6))
        v = rng.standard_normal((n, d)) * 5.0
        s = simplex.softmax_rows(v)
        shifted = simplex.softmax_rows(v + rng.standard_normal((n, 1)) * 10.0)
        if np.any(s <= 0.0) or float(np.abs(s.sum(axis=1) - 1.0).max()) > 1e-12:
            ok = False
        if float(np.abs(s - shifted).max()) > 1e-12:
            ok = False
    checks.append(CheckResult("softmax_rows_properties", ok))

    worst = 0.0
    for _ in range(1000):
        d = int(rng.integers(2, 8))
        z = random_feasible(rng, 1, d)[0]
        v = np.eye(d)[simplex.round_nearest(z[None])[0]]
        worst = max(worst, float(((z - v) ** 2).sum()) - (1.0 - 1.0 / d))
    checks.append(CheckResult("nearest_rounding_distance", worst <= 1e-12,
                              f"max excess over 1 - 1/d = {worst:.2e}"))

    ok = True
    for _ in range(40):
        inst = small_instance(rng)
        x = random_feasible(rng, inst.n_nodes, inst.n_labels)
        labels = simplex.round_bcd(inst, x)
        if inst.energy_discrete(labels) > inst.energy_relaxed(x) + 1e-9:
            ok = False
    checks.append(CheckResult("bcd_rounding_non_increase", ok))

    ok = True
    for reg in (L2Regularizer(0.7), EntropyRegularizer(0.9)):
        n, d = 3, 3
        if not vertex_regularizer_constancy(reg, n, d):
            ok = False
        m, big_m = regularizer_bounds(reg, n, d)
        pts = rng.exponential(size=(2000, n, d))
        pts /= pts.sum(axis=2, keepdims=True)
        vals = np.array([reg.value(p) for p in pts])
        if vals.min() < m - 1e-9 or vals.max() > big_m + 1e-9:
            ok = False
        vertex_val = reg.value(np.eye(3))
        target = big_m if isinstance(reg, L2Regularizer) else 0.0
        if abs(vertex_val - target) > 1e-12:
            ok = False
    checks.append(CheckResult("regularizer_bounds_and_vertex_values", ok))

    ok = True
    for _ in range(200):
        d = int(rng.integers(2, 6))
        row = rng.standard_normal(d)
        base = solvers.lmo_vanilla(row[None, :])
        srt = np.sort(row)
        gap = srt[1] - srt[0]
        if gap <= 0.0:
            continue
        pert = rng.uniform(-0.49, 0.49, size=d) * gap
        if not np.array_equal(solvers.lmo_vanilla((row + pert)[None, :]), base):
            ok = False
    checks.append(CheckResult("lmo_piecewise_constant", ok))

    ok = True
    configs = [
        solvers.SolverConfig(solvers.VanillaFW(), schedule=schedules.LineSearch(), max_iters=15),
        solvers.SolverConfig(solvers.ConvexFW(), schedule=schedules.Harmonic(), max_iters=15),
        solvers.SolverConfig(solvers.L2FW(), lam=1.0, max_iters=15),
        solvers.SolverConfig(solvers.EntropicFW(), lam=0.5,
                             schedule=schedules.HarmonicRamp(), max_iters=15),
        solvers.SolverConfig(solvers.MeanField(), max_iters=15),
        solvers.SolverConfig(solvers.DampedMeanField(), max_iters=15),
        solvers.SolverConfig(solvers.PGD(), max_iters=15),
        solvers.SolverConfig(solvers.FastPGM(), max_iters=15),
        solvers.SolverConfig(solvers.EMD(), max_iters=15),
        solvers.SolverConfig(solvers.ADMM(), max_iters=15),
    ]
    for _ in range(3):
        inst = small_instance(rng)
        for cfg in configs:
            cfg.record_iterates = True
            _, trace = solvers.run_generalized_fw(inst, cfg)
            for it in trace.iterates:
                if not simplex.is_feasible(it):
                    ok = False
    checks.append(CheckResult("solver_iterates_feasible", ok))

    worst = 0.0
    mf_configs = [solvers.SolverConfig(solvers.EntropicFW(), lam=1.0,
                                       schedule=schedules.Constant(1.0), max_iters=20,
                                       record_iterates=True),
                  solvers.SolverConfig(solvers.MeanField(), max_iters=20,
                                       record_iterates=True)]
    for _ in range(50):
        inst = small_instance(rng)
        ref = mean_field_iterates(inst, 20)
        for cfg in mf_configs:
            _, trace = solvers.run_generalized_fw(inst, cfg)
            for a, b in zip(ref, trace.iterates):
                worst = max(worst, float(np.abs(a - b).max()))
    checks.append(CheckResult("mean_field_equals_entropic_fw", worst == 0.0,
                              f"max iterate deviation = {worst:.2e}"))

    ok = True
    min_s = math.inf
    for _ in range(200):
        inst = small_instance(rng)
        x = random_feasible(rng, inst.n_nodes, inst.n_labels)
        for reg in (L2Regularizer(0.8), EntropyRegularizer(0.8)):
            p = solvers.direction_point(inst.gradient(x), reg)
            s = solvers.conditional_gradient_norm(inst, x, reg)
            min_s = min(min_s, s)
            if s < 0.5 * reg.lam * float(((x - p) ** 2).sum()) - 1e-9:
                ok = False
    checks.append(CheckResult("stationarity_measure_lower_bound", ok and min_s >= -1e-9,
                              f"min S = {min_s:.2e}"))
    return checks


# ---------------------------------------------------------------------------
# bounds suite

def suite_bounds(seed=0):
    rng = np.random.default_rng(seed)
    checks = []

    violations = 0
    for i in range(50):
        inst = small_instance(rng)
        method = solvers.L2FW() if i % 2 == 0 else solvers.EntropicFW()
        cfg = solvers.SolverConfig(method, lam=1.0,
                                   schedule=schedules.Adaptive(), max_iters=20)
        _, trace = solvers.run_generalized_fw(inst, cfg)
        violations += sum(1 for r in trace.records if r.bound_held is False)
    checks.append(CheckResult("adaptive_decrease_bound", violations == 0,
                              f"{violations} violations"))

    violations = 0
    for i in range(50):
        inst = small_instance(rng)
        reg = L2Regularizer(1.0) if i % 2 == 0 else EntropyRegularizer(1.0)
        method = solvers.L2FW() if i % 2 == 0 else solvers.EntropicFW()
        omega = schedules.convergence_params(inst, reg).omega
        alpha = min(1.0, 0.9 * 2.0 * omega)
        cfg = solvers.SolverConfig(method, lam=reg.lam,
                                   schedule=schedules.Constant(alpha), max_iters=20)
        _, trace = solvers.run_generalized_fw(inst, cfg)
        violations += sum(1 for r in trace.records if r.bound_held is False)
    checks.append(CheckResult("constant_stepsize_decrease_bound", violations == 0,
                              f"{violations} violations"))

    violations = 0
    scheds = [schedules.Constant(1.0), schedules.Harmonic(),
              schedules.HarmonicRamp(), schedules.InvSqrt(),
              schedules.LineSearch(), schedules.Adaptive()]
    for i in range(12):
        inst = small_instance(rng)
        for lam, method in ((0.8, solvers.L2FW()), (0.8, solvers.EntropicFW()),
                            (None, solvers.VanillaFW())):
            for sched in scheds:
                cfg = solvers.SolverConfig(method, lam=lam,
                                           schedule=sched, max_iters=10)
                _, trace = solvers.run_generalized_fw(inst, cfg)
                violations += sum(1 for r in trace.records if r.bound_held is False)
    checks.append(CheckResult("schedule_matrix_decrease_bounds", violations == 0,
                              f"{violations} violations"))

    ok = True
    for _ in range(25):
        inst = small_instance(rng)
        cfg = solvers.SolverConfig(solvers.EntropicFW(), lam=1.0,
                                   schedule=schedules.Adaptive(), max_iters=25)
        _, trace = solvers.run_generalized_fw(inst, cfg)
        # F_0 - min_i F_i, a computable surrogate for F_0 - F*
        f_all = [trace.initial_e_reg, *trace.e_reg]
        f0_excess = float(f_all[0] - min(f_all))
        omega = schedules.convergence_params(inst, cfg.regularizer).omega
        running_min = math.inf
        for k, rec in enumerate(trace.records):
            running_min = min(running_min, rec.s_k)
            if running_min > f0_excess / (omega * (k + 1)) + 1e-7:
                ok = False
    checks.append(CheckResult("sublinear_stationarity_trend", ok))

    ok = True
    for _ in range(40):
        inst = small_instance(rng)
        x = random_feasible(rng, inst.n_nodes, inst.n_labels)
        c = simplex.rounding_constant(inst)
        e_x = inst.energy_relaxed(x)
        e_rounded = inst.energy_discrete(simplex.round_nearest(x))
        if abs(e_x - e_rounded) > c + 1e-9:
            ok = False
        report = tightness_report(inst, x)
        if report.e_rounded_bcd > e_x + 1e-9:
            ok = False
        star = brute_force_map(inst)
        one_hot = inst.one_hot(star.optimal_labeling)
        if abs(inst.energy_discrete(simplex.round_nearest(one_hot))
               - star.optimal_energy) > 1e-12:
            ok = False
    checks.append(CheckResult("rounding_bounds", ok))

    params = schedules.ConvergenceParams(l_f=2.0, sigma_g=1.0, diameter=2.0)
    adaptive_val = schedules.decrease_bound(params, schedules.Adaptive(), 0, 3.0)
    concave = schedules.ConvergenceParams(l_f=0.0, sigma_g=0.0, diameter=2.0)
    concave_val = schedules.decrease_bound(concave, schedules.Constant(0.5), 0, 3.0)
    convex = schedules.ConvergenceParams(l_f=2.0, sigma_g=0.0, diameter=2.0)
    convex_val = schedules.decrease_bound(convex, schedules.Constant(0.5), 0, 3.0)
    table_ok = (abs(adaptive_val - (1.0 / 3.0) * 3.0) < 1e-12
                and abs(concave_val - 1.5) < 1e-12
                and abs(convex_val - (1.5 - 0.5 * 2.0 * 4.0 * 0.25)) < 1e-12)
    checks.append(CheckResult("decrease_bound_table_values", table_ok))

    ok = True
    for _ in range(10):
        n, d = int(rng.integers(2, 5)), int(rng.integers(2, 4))
        spec = RandomGrid(rows=1, cols=n, d=d, seed=int(rng.integers(0, 10_000)),
                          potts_w=float(rng.uniform(0.2, 2.0)))
        inst = generate(spec)
        conv = solvers.convexify(inst)
        for labels in itertools.product(range(d), repeat=n):
            labels = np.array(labels)
            if abs(conv.energy_discrete(labels) - inst.energy_discrete(labels)) > 1e-9:
                ok = False
        eigmin = float(np.linalg.eigvalsh(conv.pairwise.to_dense()).min())
        if eigmin < -1e-9:
            ok = False
    checks.append(CheckResult("convexified_energy", ok))
    return checks


SUITES = {"oracle": suite_oracle, "invariants": suite_invariants, "bounds": suite_bounds}
