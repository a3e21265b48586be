import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (all_labelings, potts_pair, random_feasible,
                      random_instance, zero_instance)
from crffw import (CrfInstance, EdgeList, EntropyRegularizer, L2Regularizer,
                   is_feasible, project_feasible, project_simplex, regularizer_bounds,
                   round_bcd, round_nearest, rounding_constant, softmax_rows)

finite_floats = st.floats(min_value=-50.0, max_value=50.0,
                          allow_nan=False, allow_infinity=False)


@st.composite
def scaled_matrices(draw):
    """(n, d) matrices whose rows have magnitudes from 1e-300 to 1e308."""
    n, d = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    entries = st.one_of(st.floats(-10.0, 10.0), st.sampled_from([0.0, 1.0, 10.0]))
    mantissas = np.array(draw(st.lists(entries, min_size=n * d, max_size=n * d)))
    scales = st.one_of(st.integers(-300, 307), st.integers(-2, 17))
    exponents = np.array(draw(st.lists(scales, min_size=n, max_size=n)))
    return mantissas.reshape(n, d) * 10.0 ** exponents[:, None]


def projection_formula(v):
    """project_feasible's sort-and-threshold formula alone, without the
    second pass for rows that lose the 1 at large magnitudes."""
    a = np.sort(v, axis=1)[:, ::-1]
    gammas = (np.cumsum(a, axis=1) - 1.0) / np.arange(1, v.shape[1] + 1)
    k = (a > gammas).sum(axis=1) - 1
    return np.maximum(v - gammas[np.arange(v.shape[0]), k][:, None], 0.0)


def grid_search_projection(v, step=1e-3):
    d = v.size
    ticks = np.arange(0.0, 1.0 + 0.5 * step, step)
    if d == 2:
        cand = np.stack([ticks, 1.0 - ticks], axis=1)
    else:
        a, b = np.meshgrid(ticks, ticks, indexing="ij")
        mask = a + b <= 1.0 + 1e-12
        a, b = a[mask], b[mask]
        cand = np.stack([a, b, np.maximum(1.0 - a - b, 0.0)], axis=1)
    dists = ((cand - v) ** 2).sum(axis=1)
    return cand[int(np.argmin(dists))]


class TestProjectSimplex:
    def test_already_feasible(self):
        np.testing.assert_allclose(project_simplex(np.array([0.5, 0.5])), [0.5, 0.5])

    def test_vertex_case(self):
        # active set has a single coordinate with threshold 1
        z = project_simplex(np.array([2.0, 0.0]))
        np.testing.assert_allclose(z, [1.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(z, grid_search_projection(np.array([2.0, 0.0])),
                                   atol=1e-3)

    def test_symmetric_case(self):
        # all coordinates active, threshold (0.9 - 1) / 3 = -1/30
        z = project_simplex(np.array([0.3, 0.3, 0.3]))
        np.testing.assert_allclose(z, np.full(3, 1.0 / 3.0), atol=1e-12)

    def test_empty_vector_rejected(self):
        with pytest.raises(ValueError):
            project_simplex(np.array([]))

    @given(st.lists(finite_floats, min_size=2, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_grid_search_oracle_and_kkt(self, vals):
        v = np.array(vals)
        z = project_simplex(v)
        assert z.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(z >= 0.0)
        # KKT: z = max(v - gamma, 0) for the common threshold gamma
        active = z > 1e-12
        gammas = (v - z)[active]
        assert gammas.max() - gammas.min() <= 1e-9
        np.testing.assert_allclose(np.maximum(v - gammas[0], 0.0), z, atol=1e-9)
        if np.abs(v).max() <= 2.0:  # keep the dense search meaningful
            np.testing.assert_allclose(z, grid_search_projection(v), atol=2e-3)

    @given(st.lists(finite_floats, min_size=2, max_size=5),
           st.lists(finite_floats, min_size=2, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_idempotent_and_nonexpansive(self, a_vals, b_vals):
        d = min(len(a_vals), len(b_vals))
        a, b = np.array(a_vals[:d]), np.array(b_vals[:d])
        pa, pb = project_simplex(a), project_simplex(b)
        np.testing.assert_allclose(project_simplex(pa), pa, atol=1e-12)
        assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-12


class TestProjectFeasible:
    def test_feasible_unchanged(self, rng):
        x = random_feasible(rng, 4, 3)
        np.testing.assert_allclose(project_feasible(x), x, atol=1e-12)

    def test_zero_matrix_gives_uniform(self):
        out = project_feasible(np.zeros((3, 4)))
        np.testing.assert_allclose(out, np.full((3, 4), 0.25), atol=1e-12)

    def test_rows_are_independent(self):
        out = project_feasible(np.array([[2.0, 0.0], [0.5, 0.5]]))
        np.testing.assert_allclose(out, [[1.0, 0.0], [0.5, 0.5]], atol=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(scaled_matrices())
    @example(np.full((1, 3), 1e200))
    @example(np.array([[1e17, 1e17, 0.0]]))
    @example(np.array([[1e308, -1e308, 0.0]]))
    @example(np.array([[0.0, 0.0, 0.0, 6e307]]))  # unclipped, v - max(v) overflows cumsum
    def test_feasible_at_every_magnitude(self, v):
        out = project_feasible(v)
        assert is_feasible(out)
        with np.errstate(over="ignore", invalid="ignore"):
            formula = projection_formula(v)
        # rows the formula already gets right keep its bits; up to 1e3
        # that is every row
        mag = np.abs(v).max(axis=1)
        kept = (mag <= 1e15) & (np.abs(formula.sum(axis=1) - 1.0) <= 1e-9)
        assert kept[mag <= 1e3].all()
        assert out[kept].tobytes() == formula[kept].tobytes()

    def test_large_ties(self):
        np.testing.assert_array_equal(project_feasible(np.full((1, 3), 1e200)),
                                      np.full((1, 3), 1.0 / 3.0))
        np.testing.assert_array_equal(project_feasible(np.array([[1e17, 1e17, 0.0]])),
                                      [[0.5, 0.5, 0.0]])
        np.testing.assert_array_equal(project_simplex(np.array([1e308, 1e308])), [0.5, 0.5])

    def test_matches_vector_version(self, rng):
        v = rng.standard_normal((6, 4)) * 3.0
        out = project_feasible(v)
        for i in range(6):
            np.testing.assert_allclose(out[i], project_simplex(v[i]), atol=1e-12)


class TestSoftmaxRows:
    def test_uniform(self):
        np.testing.assert_allclose(softmax_rows(np.zeros((1, 3))),
                                   np.full((1, 3), 1.0 / 3.0))

    def test_log_two(self):
        out = softmax_rows(np.array([[math.log(2.0), 0.0]]))
        np.testing.assert_allclose(out, [[2.0 / 3.0, 1.0 / 3.0]], atol=1e-12)

    def test_saturation_without_overflow(self):
        out = softmax_rows(np.array([[1000.0, 0.0]]))
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, [[1.0, 0.0]], atol=1e-12)

    @given(st.lists(finite_floats, min_size=2, max_size=5), finite_floats)
    @settings(max_examples=60, deadline=None)
    def test_shift_invariance_and_stochasticity(self, vals, shift):
        v = np.array(vals)[None, :]
        s = softmax_rows(v)
        assert np.all(s > 0.0)
        assert s.sum() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(softmax_rows(v + shift), s, atol=1e-12)


    @settings(max_examples=300, deadline=None)
    @given(scaled_matrices())
    def test_stochastic_at_every_magnitude(self, v):
        with np.errstate(over="ignore"):  # v - max(v) may overflow to -inf
            s = softmax_rows(v)
        assert np.all(s >= 0.0)
        np.testing.assert_allclose(s.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
        # the largest entry has weight at least 1/d
        assert np.all(s[np.arange(len(v)), v.argmax(axis=1)] >= 1.0 / v.shape[1])


class TestRoundNearest:
    def test_one_hot_is_fixed(self, rng):
        inst = random_instance(rng)
        lab = rng.integers(0, inst.n_labels, inst.n_nodes)
        np.testing.assert_array_equal(round_nearest(inst.one_hot(lab)), lab)

    def test_tie_breaks_low(self):
        assert round_nearest(np.array([[0.5, 0.5]]))[0] == 0

    def test_argmax(self):
        assert round_nearest(np.array([[0.2, 0.7, 0.1]]))[0] == 1

    def test_distance_bound(self, rng):
        # ||z - round(z)||^2 <= 1 - 1/d on random simplex points
        for _ in range(1000):
            d = int(rng.integers(2, 8))
            z = random_feasible(rng, 1, d)[0]
            v = np.zeros(d)
            v[int(np.argmax(z))] = 1.0
            assert float(((z - v) ** 2).sum()) <= 1.0 - 1.0 / d + 1e-12


class TestRoundBcd:
    def test_local_minimum_is_fixed(self):
        inst = potts_pair()
        # (0, 0) has energy 1; flipping either node alone cannot improve
        lab = np.array([0, 0])
        np.testing.assert_array_equal(round_bcd(inst, inst.one_hot(lab)), lab)

    def test_zero_pairwise_decouples(self, rng):
        u = rng.standard_normal((5, 3))
        inst = CrfInstance(u, EdgeList(5, 3, np.zeros((0, 2), int), np.zeros((0, 3, 3))))
        x = random_feasible(rng, 5, 3)
        np.testing.assert_array_equal(round_bcd(inst, x), np.argmin(u, axis=1))

    def test_non_increase_from_uniform(self):
        inst = potts_pair()
        x = np.full((2, 2), 0.5)
        lab = round_bcd(inst, x)
        assert inst.energy_discrete(lab) <= inst.energy_relaxed(x) + 1e-9

    def test_non_increase_exhaustive_small(self, rng):
        for _ in range(30):
            inst = random_instance(rng, n=3, d=2)
            x = random_feasible(rng, 3, 2)
            lab = round_bcd(inst, x)
            assert inst.energy_discrete(lab) <= inst.energy_relaxed(x) + 1e-9
            # result is a coordinate-wise local minimum among all labelings
            e = inst.energy_discrete(lab)
            for other in all_labelings(3, 2):
                if np.sum(other != lab) == 1:
                    assert e <= inst.energy_discrete(other) + 1e-9

    @pytest.mark.parametrize("kind", ["edges", "dense", "gaussian"])
    @pytest.mark.parametrize("shape", [(8, 2), (9, 3)], ids=["8x2", "9x3"])
    def test_wrong_shape_is_refused(self, rng, kind, shape):
        inst = random_instance(rng, n=9, d=2, kind=kind)
        with pytest.raises(ValueError, match=re.escape(
                f"point must have shape (9, 2), got {shape}")):
            round_bcd(inst, np.full(shape, 0.5))


class TestRoundingConstant:
    def test_formula_single_node(self):
        inst = CrfInstance(np.array([[3.0, 4.0]]),
                           EdgeList(1, 2, np.zeros((0, 2), int), np.zeros((0, 2, 2))))
        assert rounding_constant(inst) == pytest.approx(math.sqrt(0.5) * 5.0, abs=1e-9)

    def test_zero_instance(self):
        assert rounding_constant(zero_instance()) == 0.0

    def test_monte_carlo_bound(self, rng):
        for _ in range(10):
            inst = random_instance(rng)
            c = rounding_constant(inst)
            for _ in range(10):
                x = random_feasible(rng, inst.n_nodes, inst.n_labels)
                e_x = inst.energy_relaxed(x)
                e_r = inst.energy_discrete(round_nearest(x))
                assert abs(e_x - e_r) <= c + 1e-9


class TestRegularizerBounds:
    def test_l2_example(self):
        assert regularizer_bounds(L2Regularizer(1.0), 2, 4) == (0.25, 1.0)

    def test_entropy_example(self):
        m, big_m = regularizer_bounds(EntropyRegularizer(1.0), 1, 2)
        assert m == pytest.approx(-math.log(2.0))
        assert big_m == 0.0

    def test_none(self):
        assert regularizer_bounds(None, 3, 3) == (0.0, 0.0)

    def test_invalid_weight(self):
        with pytest.raises(ValueError):
            L2Regularizer(0.0)
        with pytest.raises(ValueError):
            EntropyRegularizer(-1.0)

    @pytest.mark.parametrize("call, message", [
        (lambda: project_feasible(np.zeros(3)), "expected an (n, d) matrix with d >= 1"),
        (lambda: project_feasible(np.array([[0.0, np.inf]])), "input contains non-finite entries"),
        (lambda: softmax_rows(np.zeros(3)), "expected an (n, d) matrix"),
        (lambda: regularizer_bounds(L2Regularizer(1.0), 0, 2), "n and d must be positive"),
    ], ids=["project-1d", "project-inf", "softmax-1d", "bounds-no-nodes"])
    def test_rejects_bad_input(self, call, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()

    def test_vertex_values_exact(self, rng):
        n, d = 4, 3
        lam = 0.8
        x = np.zeros((n, d))
        x[np.arange(n), rng.integers(0, d, n)] = 1.0
        assert L2Regularizer(lam).value(x) == lam * n / 2.0
        assert EntropyRegularizer(lam).value(x) == 0.0

    def test_measured_range_within_bounds(self, rng):
        n, d = 3, 4
        pts = rng.exponential(size=(5000, n, d))
        pts /= pts.sum(axis=2, keepdims=True)
        for reg in (L2Regularizer(1.3), EntropyRegularizer(0.6)):
            m, big_m = regularizer_bounds(reg, n, d)
            vals = np.array([reg.value(p) for p in pts])
            assert vals.min() >= m - 1e-9
            assert vals.max() <= big_m + 1e-9
