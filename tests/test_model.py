import contextlib
import math
import re
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (all_labelings, potts_pair, random_dense_backend,
                      random_edge_backend, random_feasible, random_instance,
                      zero_instance)
from crffw import (CapacityError, CrfInstance, DenseMatrix, DiagonalShift, EdgeList,
                   GaussianKernel, finite_diff_gradient, model, potts_matrix, schedules,
                   solvers)


class TestEnergyDiscrete:
    def test_two_node_potts(self):
        inst = potts_pair()
        assert inst.energy_discrete(np.array([0, 1])) == pytest.approx(1.0, abs=1e-12)
        # full enumeration by hand: u costs + w * [s0 != s1]
        expected = {(0, 0): 1.0, (0, 1): 1.0, (1, 0): 3.0, (1, 1): 1.0}
        for lab, e in expected.items():
            assert inst.energy_discrete(np.array(lab)) == pytest.approx(e, abs=1e-12)

    def test_unary_only(self):
        inst = CrfInstance(np.array([[3.0, -2.0]]),
                           EdgeList(1, 2, np.zeros((0, 2), int), np.zeros((0, 2, 2))))
        assert inst.energy_discrete(np.array([1])) == pytest.approx(-2.0)

    def test_zero_instance(self):
        inst = zero_instance()
        assert inst.energy_discrete(np.array([0, 1, 0])) == 0.0

    def test_dimension_mismatch(self):
        inst = potts_pair()
        with pytest.raises(ValueError):
            inst.energy_discrete(np.array([0, 1, 0]))
        with pytest.raises(ValueError):
            inst.energy_discrete(np.array([0, 5]))


class TestEnergyRelaxed:
    def test_zero_unary_zero_pairwise(self):
        inst = zero_instance(2, 2)
        x = np.full((2, 2), 0.5)
        assert inst.energy_relaxed(x) == 0.0

    def test_one_hot_matches_discrete(self):
        inst = potts_pair()
        s = np.array([0, 1])
        assert inst.energy_relaxed(inst.one_hot(s)) == pytest.approx(
            inst.energy_discrete(s), abs=1e-12)

    def test_uniform_on_zero_pairwise(self, rng):
        u = rng.standard_normal((4, 3))
        inst = CrfInstance(u, EdgeList(4, 3, np.zeros((0, 2), int), np.zeros((0, 3, 3))))
        x = np.full((4, 3), 1.0 / 3.0)
        assert inst.energy_relaxed(x) == pytest.approx(u.mean(axis=1).sum())

    def test_one_hot_equality_exhaustive(self, rng):
        # every labeling of instances with n*d <= 16
        for _ in range(20):
            inst = random_instance(rng, n=int(rng.integers(2, 6)), d=2)
            if inst.n_nodes * inst.n_labels > 16:
                continue
            for lab in all_labelings(inst.n_nodes, inst.n_labels):
                assert inst.energy_relaxed(inst.one_hot(lab)) == pytest.approx(
                    inst.energy_discrete(lab), abs=1e-9)


class TestGradient:
    def test_zero_pairwise_gives_unary(self, rng):
        u = rng.standard_normal((3, 2))
        inst = CrfInstance(u, EdgeList(3, 2, np.zeros((0, 2), int), np.zeros((0, 2, 2))))
        x = random_feasible(rng, 3, 2)
        np.testing.assert_allclose(inst.gradient(x), u)

    def test_matches_finite_differences(self, rng):
        for _ in range(100):
            inst = random_instance(rng)
            x = random_feasible(rng, inst.n_nodes, inst.n_labels)
            g = inst.gradient(x)
            fd = finite_diff_gradient(inst, x)
            scale = max(1.0, float(np.abs(g).max()))
            assert float(np.abs(g - fd).max()) / scale <= 1e-6

    def test_gaussian_matches_dense_conversion(self, rng):
        inst = random_instance(rng, n=3, d=3, kind="gaussian")
        dense = CrfInstance(inst.unary, DenseMatrix(inst.pairwise.to_dense(), 3))
        x = random_feasible(rng, 3, 3)
        np.testing.assert_allclose(inst.gradient(x), dense.gradient(x), atol=1e-9)
        assert inst.energy_relaxed(x) == pytest.approx(dense.energy_relaxed(x), abs=1e-9)

    def test_backend_pairs_agree(self, rng):
        # any backend and its dense conversion represent the same operator
        for kind in ("edges", "gaussian"):
            for _ in range(10):
                inst = random_instance(rng, kind=kind)
                dense = CrfInstance(inst.unary,
                                    DenseMatrix(inst.pairwise.to_dense(),
                                                inst.n_labels))
                x = random_feasible(rng, inst.n_nodes, inst.n_labels)
                assert abs(inst.energy_relaxed(x) - dense.energy_relaxed(x)) <= 1e-9
                assert float(np.abs(inst.gradient(x) - dense.gradient(x)).max()) <= 1e-9


class TestPairwiseMatvec:
    def test_zero_point(self, rng):
        inst = random_instance(rng)
        out = inst.pairwise.matvec(np.zeros((inst.n_nodes, inst.n_labels)))
        assert np.all(out == 0.0)

    def test_single_edge_identity_block(self):
        backend = EdgeList(2, 3, np.array([[0, 1]]), np.eye(3)[None])
        x = np.zeros((2, 3))
        x[1, 0] = 1.0
        out = backend.matvec(x)
        np.testing.assert_allclose(out[0], [1.0, 0.0, 0.0])
        # symmetry: row 1 sees the transposed block applied to x_0
        x2 = np.zeros((2, 3))
        x2[0, 1] = 1.0
        np.testing.assert_allclose(backend.matvec(x2)[1], [0.0, 1.0, 0.0])

    def test_identical_features_kernel_value(self):
        pos = np.zeros((2, 2))
        col = np.zeros((2, 3))
        backend = GaussianKernel(pos, col, potts_matrix(2), w1=0.3, w2=1.7)
        # k(f, f) = w1 + w2 off the excluded diagonal
        assert backend.kernel_matrix[0, 1] == pytest.approx(2.0)
        assert backend.kernel_matrix[0, 0] == 0.0
        x = np.array([[0.0, 1.0], [0.0, 1.0]])
        np.testing.assert_allclose(backend.matvec(x)[0], [2.0, 0.0])

    def test_matvec_row_agrees(self, rng):
        for kind in ("edges", "dense", "gaussian", "shift"):
            if kind == "shift":
                backend = DiagonalShift(random_edge_backend(rng, 5, 3),
                                        rng.standard_normal((5, 3)))
            else:
                backend = random_instance(rng, kind=kind).pairwise
            x = random_feasible(rng, backend.n_nodes, backend.n_labels)
            full = backend.matvec(x)
            for i in range(backend.n_nodes):
                np.testing.assert_allclose(backend.matvec_row(i, x), full[i], atol=1e-12)

    @pytest.mark.parametrize("kind", ["edges", "no-edges", "dense", "gaussian", "shift"])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_matvec_is_c_contiguous_float64(self, rng, kind, order):
        # a Fortran-ordered P x would change the summation order, and so
        # the bits, of the solvers' .sum() calls over it
        n, d = 7, 3
        if kind == "no-edges":
            backend = zero_instance(n, d).pairwise
        elif kind == "shift":
            backend = DiagonalShift(random_edge_backend(rng, n, d),
                                    rng.standard_normal((n, d)))
        else:
            backend = random_instance(rng, n, d, kind=kind).pairwise
        x = np.asarray(random_feasible(rng, n, d), order=order)
        out = backend.matvec(x)
        assert out.shape == (n, d) and out.dtype == np.float64
        assert out.flags.c_contiguous


def _random_compat(rng, d, potts):
    if potts:
        return potts_matrix(d, rng.uniform(0.1, 5.0))
    m = rng.standard_normal((d, d))
    return m + m.T


def _pair_energy_terms(backend, labels):
    """The whole n x n array of terms K[i, j] compat[l_i, l_j]."""
    return backend.kernel_matrix * backend.compat[np.ix_(labels, labels)]


def _pair_energy_reference(backend, labels):
    """The whole n x n array of terms, summed by numpy in one call."""
    return 0.5 * float(_pair_energy_terms(backend, labels).sum())


def _row_block_reference(backend, labels, block):
    """The whole array of terms summed by numpy `block // n` rows at a
    time (one row at least), and the row sums added by math.fsum."""
    terms, n = _pair_energy_terms(backend, labels), backend.n_nodes
    step = max(1, block // max(n, 1))
    return 0.5 * math.fsum(terms[lo:lo + step].sum() for lo in range(0, n, step))


def _traced_peak(fn):
    """Peak bytes traced while fn() runs, above what was held before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestGaussianPairEnergy:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 60), d=st.integers(1, 6), potts=st.booleans(),
           block=st.sampled_from([128, 200, model.BLOCK]), seed=st.integers(0, 2 ** 32 - 1))
    def test_bitwise_equal_to_fancy_index_form(self, n, d, potts, block, seed):
        rng = np.random.default_rng(seed)
        backend = GaussianKernel(rng.uniform(0, 32, (n, 2)), rng.uniform(0, 255, (n, 3)),
                                 _random_compat(rng, d, potts))
        labels = rng.integers(0, d, n)
        with pytest.MonkeyPatch.context() as mp:  # small blocks: many of them
            mp.setattr(model, "BLOCK", block)
            energy = backend.pair_energy(labels)
        assert energy.hex() == _row_block_reference(backend, labels, block).hex()
        if n * n <= block:  # one block: numpy's sum over the whole array
            assert energy.hex() == _pair_energy_reference(backend, labels).hex()

    @pytest.mark.parametrize("n", [0, 3, 255, 256, 257, 500, 777])
    @pytest.mark.parametrize("potts", [True, False])
    def test_bitwise_equal_across_leaves(self, n, potts):
        # one block up to n = 256; past it blocks of 255, 131 and 84 rows,
        # each with a shorter last block
        rng = np.random.default_rng(n)
        backend = GaussianKernel(rng.uniform(0, 32, (n, 2)), rng.uniform(0, 255, (n, 3)),
                                 _random_compat(rng, 21, potts))
        for _ in range(3):
            labels = rng.integers(0, 21, n)
            energy = backend.pair_energy(labels)
            assert energy.hex() == _row_block_reference(backend, labels, model.BLOCK).hex()
            if n * n <= model.BLOCK:
                assert energy.hex() == _pair_energy_reference(backend, labels).hex()

    @pytest.mark.parametrize("n, block", [(257, model.BLOCK), (777, model.BLOCK),
                                          (100, 128), (60, 200)])
    @pytest.mark.parametrize("potts", [True, False])
    def test_error_within_block_bound(self, n, block, potts):
        # numpy's sum of a block of B terms errs by at most (B - 1) u
        # sum |t| / (1 - (B - 1) u) <= B u sum |t|, and each math.fsum,
        # this one's and the exact reference's, rounds once: at most
        # 2 u sum |t| more, halved with the energy
        rng = np.random.default_rng(n + block)
        backend = GaussianKernel(rng.uniform(0, 32, (n, 2)), rng.uniform(0, 255, (n, 3)),
                                 _random_compat(rng, 21, potts))
        labels = rng.integers(0, 21, n)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(model, "BLOCK", block)
            energy = backend.pair_energy(labels)
        terms = _pair_energy_terms(backend, labels).ravel()
        exact = 0.5 * math.fsum(terms.tolist())
        b = max(1, block // n) * n
        bound = 0.5 * (b + 3) * 2.0 ** -53 * math.fsum(np.abs(terms).tolist())
        assert abs(energy - exact) <= bound

    @pytest.mark.parametrize("scale, half, expected", [
        (1e303, False, -math.inf),  # finite block sums whose total overflows
        (1e308, True, math.nan),    # block sums of +inf and -inf
    ])
    def test_past_the_float_range(self, scale, half, expected):
        # numpy's sum where math.fsum raises, as numpy's one sum did
        n = 512
        backend = GaussianKernel(np.zeros((n, 2)), np.zeros((n, 3)),
                                 [[scale, 0.0], [0.0, -scale]])
        labels = np.repeat([0, 1], n // 2) if half else np.ones(n, dtype=int)
        with np.errstate(all="ignore"):
            energy = backend.pair_energy(labels)
        assert type(energy) is float
        assert energy == expected or math.isnan(expected) and math.isnan(energy)

    def test_transient_memory_is_one_leaf(self, rng):
        n, d = 1000, 21
        backend = GaussianKernel(rng.uniform(0, 32, (n, 2)), rng.uniform(0, 255, (n, 3)),
                                 potts_matrix(d))
        backend.kernel_matrix
        labels = rng.integers(0, d, n)
        assert _traced_peak(lambda: backend.pair_energy(labels)) < 1 << 20


def _one_shot_kernel(backend, gram=None):
    """The kernel as one expression over whole n x n arrays, from the Gram
    products `gram(f)`.  By default these are stacked from each row
    block's rows `f[rows] @ f.T`, over the partition `model.BLOCK` sets,
    as the build takes them."""
    def block_rows(f):
        n = len(f)
        step = max(1, model.BLOCK // max(n, 1))
        return np.concatenate([f[lo:lo + step] @ f.T for lo in range(0, n, step)])

    def sq_dists(feats):
        sq = (feats ** 2).sum(axis=1)
        out = sq[:, None] + sq[None, :] - 2.0 * (gram or block_rows)(feats)
        np.maximum(out, 0.0, out=out)
        return out

    b = backend
    pos_sq, col_sq = sq_dists(b.positions), sq_dists(b.colors)
    K = (b.w1 * np.exp(-pos_sq / (2.0 * b.alpha ** 2) - col_sq / (2.0 * b.beta ** 2))
         + b.w2 * np.exp(-pos_sq / (2.0 * b.gamma ** 2)))
    np.fill_diagonal(K, 0.0)
    return K


def _whole_gram_move_bound(backend):
    """Entrywise bound on |K - K_w|, where K_w is the kernel formula with
    each Gram product taken whole.  The two differ only in the Gram
    entries they start from; u is the unit roundoff, and every bound is
    to first order in u, with the factor 1 + 8u covering the rest.

    - Gram: a k-term dot product, in any order and with or without
      fused multiply-adds, is within gamma_k a_ij of the exact one, with
      a_ij = sum_t |f_it f_jt| and gamma_k = k u / (1 - k u) (Higham,
      Accuracy and Stability of Numerical Algorithms, 3.1).  So two
      computed Gram entries differ by at most 2 gamma_k a_ij.
    - Squared distance: both take fl(s - 2 G) from the same s = sq_i +
      sq_j, so they differ by at most 4 gamma_k a_ij plus one rounding of
      each, u |s - 2 G| <= u (s + 2 a_ij) apiece: dD.  The clamp at 0
      moves neither further apart.
    - Exponent: x = fl(fl(-p / A) - fl(c / B)) rounds three times, so
      the two differ by at most m = dp / A + dc / B plus 2 u (X_1 + X_2)
      <= 4 u (X + m), X = p / A + c / B of K_w's distances: dx.  The
      spatial exponent, -p / G, rounds once, so the same form bounds it
      with m = dp / G and X = p / G.
    - exp: for exponents within dx of K_w's, |e^x1 - e^x2| <= E+ dx with
      E+ = e^(x_w + dx), and numpy's exp is taken to be within 2 ulps
      (4 u relative) of e^x, 8 u E+ for the two.  The product by the
      weight and the final sum round once on each side: 4 u |w| E+ more.

    So |K - K_w| <= (1 + 8u) sum_t |w_t| E+_t (dx_t + 12 u), term by
    term of the bilateral and spatial Gaussians.
    """
    b, u = backend, np.finfo(float).eps / 2

    def dists_and_move(f):
        k = f.shape[1]
        sq = (f ** 2).sum(axis=1)
        s, a = sq[:, None] + sq[None, :], np.abs(f) @ np.abs(f).T
        dist = np.maximum(s - 2.0 * (f @ f.T), 0.0)
        return dist, 4.0 * (k * u / (1.0 - k * u)) * a + 2.0 * u * (s + 2.0 * a)

    (p, dp), (c, dc) = dists_and_move(b.positions), dists_and_move(b.colors)
    bound = np.zeros_like(p)
    for w, x, m in ((b.w1, -p / (2.0 * b.alpha ** 2) - c / (2.0 * b.beta ** 2),
                     dp / (2.0 * b.alpha ** 2) + dc / (2.0 * b.beta ** 2)),
                    (b.w2, -p / (2.0 * b.gamma ** 2), dp / (2.0 * b.gamma ** 2))):
        dx = m + 4.0 * u * (-x + m)
        bound += abs(w) * np.exp(x + dx) * (dx + 12.0 * u)
    return (1.0 + 8.0 * u) * bound


@contextlib.contextmanager
def _set_up_on(threads):
    """Within it, the kernel build maps its row blocks as a run on
    `threads` threads does: the builtin map, or shared with a helper,
    with the interpreter switching threads every microsecond."""
    if threads == 1:
        yield
        return
    interval = sys.getswitchinterval()
    with ThreadPoolExecutor(1) as pool:
        token = model.SETUP_MAP.set(solvers._shared_map(pool))
        sys.setswitchinterval(1e-6)
        try:
            yield
        finally:
            sys.setswitchinterval(interval)
            model.SETUP_MAP.reset(token)


class TestKernelBuild:
    @settings(max_examples=60, deadline=None)
    @given(n=st.sampled_from([*range(1, 9), 63, 64, 65, 300, 500, 700, 1000]),
           w1=st.sampled_from([0.0, 1.0, 3.5, -0.7]), w2=st.sampled_from([0.0, 1.0, 0.4]),
           layout=st.sampled_from(["spread", "coincident", "near", "far", "clusters"]),
           block=st.sampled_from([1, 1000, model.BLOCK]), threads=st.sampled_from([1, 2]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_bitwise_equal_to_one_shot_formula(self, n, w1, w2, layout, block, threads, seed):
        rng = np.random.default_rng(seed)
        backend = GaussianKernel(*_features(rng, n, layout), potts_matrix(3), w1=w1, w2=w2)
        with pytest.MonkeyPatch.context() as mp, _set_up_on(threads):
            mp.setattr(model, "BLOCK", block)  # block of one row, and a short tail
            K = backend.kernel_matrix
            assert K.tobytes() == _one_shot_kernel(backend).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(n=st.sampled_from([*range(1, 9), 65, 300, 500, 999]),
           w1=st.sampled_from([0.0, 1.0, 3.5, -0.7]), w2=st.sampled_from([0.0, 1.0, 0.4]),
           layout=st.sampled_from(["spread", "coincident", "near", "far", "clusters"]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_within_rounding_of_whole_gram_products(self, n, w1, w2, layout, seed):
        """Row blocks' Gram rows can differ in the last bits from the whole
        products'; the kernel stays within their derived rounding."""
        rng = np.random.default_rng(seed)
        backend = GaussianKernel(*_features(rng, n, layout), potts_matrix(3), w1=w1, w2=w2)
        whole = _one_shot_kernel(backend, gram=lambda f: f @ f.T)
        assert np.all(np.abs(backend.kernel_matrix - whole) <= _whole_gram_move_bound(backend))

    def test_build_holds_one_n_by_n_array(self, rng):
        n = 1000
        features = rng.uniform(0, 32, (n, 2)), rng.uniform(0, 255, (n, 3))
        for threads in (1, 2):
            backend = GaussianKernel(*features, potts_matrix(21))
            with _set_up_on(threads):
                peak = _traced_peak(lambda: backend.kernel_matrix)
            assert peak <= 1.4 * 8 * n * n, threads

    @settings(max_examples=30, deadline=None)
    @given(n=st.sampled_from([12, 40, 300, 500, 999, 2001]),
           layout=st.sampled_from(["spread", "coincident", "near", "far", "clusters"]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_set_up_bits_do_not_depend_on_the_helper(self, n, layout, seed):
        """A run's kernel and L_f are bitwise equal with and without the
        helper thread that shares the kernel build (at n = 300, 500 and
        999 a block's Gram rows can differ from the whole product's)."""
        features = _features(np.random.default_rng(seed), n, layout)
        config = solvers.SolverConfig(solvers.VanillaFW(), schedule=schedules.LineSearch(),
                                      max_iters=1)
        runs = []
        for helper in (False, True):
            inst = CrfInstance(np.zeros((n, 3)), GaussianKernel(*features, potts_matrix(3)))
            solvers.run_generalized_fw(inst, config, helper=helper)
            runs.append((inst.pairwise.kernel_matrix.tobytes(), inst.lipschitz_upper_bound()))
        assert runs[0] == runs[1]

    def test_guard_refuses_before_allocating(self, monkeypatch):
        n = 1000
        monkeypatch.setattr(model, "MAX_ENTRIES", n * n - 1)
        backend = GaussianKernel(np.zeros((n, 2)), np.zeros((n, 3)), potts_matrix(4))

        def build():
            with pytest.raises(CapacityError, match="1000 nodes"):
                backend.kernel_matrix

        assert _traced_peak(build) < 8 * n * n
        assert backend._kernel is None
        monkeypatch.setattr(model, "MAX_ENTRIES", n * n)
        assert backend.kernel_matrix.shape == (n, n)


class TestLipschitzBound:
    def test_zero_operator(self):
        assert zero_instance().lipschitz_upper_bound() == 0.0

    def test_dense_bound_dominates_spectral_norm(self, rng):
        for _ in range(20):
            inst = random_instance(rng, kind="dense")
            exact = float(np.linalg.norm(inst.pairwise.to_dense(), 2))
            assert inst.lipschitz_upper_bound() >= exact - 1e-9

    def test_potts_chain(self):
        backend = EdgeList(3, 2, np.array([[0, 1], [1, 2]]),
                           np.repeat(potts_matrix(2)[None], 2, axis=0))
        inst = CrfInstance(np.zeros((3, 2)), backend)
        exact = float(np.linalg.norm(backend.to_dense(), 2))
        assert exact >= 1.0
        assert inst.lipschitz_upper_bound() >= 1.0


def _features(rng, n, layout):
    """Positions and colors: spread over a small image, all coincident,
    distinct but too close for the Gram-product distances to resolve (so
    some come out negative and are clamped), so far apart that every
    kernel entry underflows to 0, or clusters far from one another (a
    reducible kernel)."""
    if layout == "spread":
        return rng.uniform(0, 32, (n, 2)), rng.uniform(0, 255, (n, 3))
    if layout == "coincident":
        return np.full((n, 2), 5.0), np.full((n, 3), 100.0)
    if layout == "near":
        return 5.0 + rng.uniform(0, 1e-7, (n, 2)), 100.0 + rng.uniform(0, 1e-6, (n, 3))
    if layout == "far":
        return np.arange(2.0 * n).reshape(n, 2) * 1e4, np.zeros((n, 3))
    centers = rng.integers(0, 3, n)[:, None] * 1e4
    return centers + rng.uniform(0, 6, (n, 2)), rng.uniform(0, 30, (n, 3))


class CountingKernel(GaussianKernel):
    """Counts every matvec, including calls the backend makes itself."""

    matvecs = 0

    def matvec(self, x):
        self.matvecs += 1
        return super().matvec(x)


class TestSpectralNormBound:
    """spectral_norm_bound() >= ||P||_2 on every backend; for a Gaussian
    kernel with nonnegative weights it is also within 2e-3 of it."""

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 40), d=st.integers(1, 5),
           w1=st.sampled_from([0.0, 0.3, 1.0, 20.0, 500.0, -0.7]),
           w2=st.sampled_from([0.0, 1.0, 4.0, -2.0]),
           layout=st.sampled_from(["spread", "coincident", "far", "clusters"]),
           potts=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    def test_gaussian(self, n, d, w1, w2, layout, potts, seed):
        rng = np.random.default_rng(seed)
        if potts:
            compat = potts_matrix(d, rng.uniform(0.1, 5.0))
        else:
            m = rng.standard_normal((d, d))
            compat = m + m.T
        positions, colors = _features(rng, n, layout)
        backend = GaussianKernel(positions, colors, compat, w1=w1, w2=w2,
                                 alpha=8.0, beta=40.0, gamma=4.0)
        exact = float(np.linalg.norm(backend.to_dense(), 2))
        bound = backend.spectral_norm_bound()
        assert bound >= exact - 1e-9
        if min(w1, w2) >= 0.0:
            assert bound <= (1.0 + 2e-3) * exact

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 8), d=st.integers(1, 4),
           kind=st.sampled_from(["edges", "dense", "gaussian"]),
           shift=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    def test_every_backend(self, n, d, kind, shift, seed):
        rng = np.random.default_rng(seed)
        if kind == "gaussian":
            backend = GaussianKernel(*_features(rng, n, "spread"), potts_matrix(d))
        else:
            maker = random_edge_backend if kind == "edges" else random_dense_backend
            backend = maker(rng, n, d)
        if shift:
            backend = DiagonalShift(backend, rng.standard_normal((n, d)) * 3.0)
        exact = float(np.linalg.norm(backend.to_dense(), 2))
        assert backend.spectral_norm_bound() >= exact - 1e-9

    @pytest.mark.parametrize("n", [257, 700])
    @pytest.mark.parametrize("w1, w2", [(-0.7, 1.0), (500.0, -2.0), (-0.7, -2.0)])
    def test_negative_weight_row_sums_by_blocks(self, n, w1, w2):
        # n > 256: the row sums run over several row blocks
        rng = np.random.default_rng(n)
        backend = GaussianKernel(*_features(rng, n, "spread"), potts_matrix(4), w1=w1, w2=w2,
                                 alpha=8.0, beta=40.0, gamma=4.0)
        row_sum = np.abs(backend.kernel_matrix).sum(axis=1).max()
        scale = np.linalg.norm(backend.compat, 2) * (1.0 + 4.0 * (n + 16) * np.finfo(float).eps)
        assert backend.spectral_norm_bound() == float(row_sum * scale)

    def test_gaussian_bound_applies_no_matvec(self, rng):
        backend = CountingKernel(rng.uniform(0, 32, (60, 2)), rng.uniform(0, 255, (60, 3)),
                                 potts_matrix(4))
        inst = CrfInstance(np.zeros((60, 4)), backend)
        bound = inst.lipschitz_upper_bound()
        assert backend.matvecs == 0
        assert bound >= float(np.linalg.norm(backend.to_dense(), 2))
        inst.gradient(np.zeros((60, 4)))
        assert backend.matvecs == 1  # the counter does see the backend's matvecs

    def test_grid_bound_is_the_row_sum_bound(self, rng):
        backend = random_edge_backend(rng, 12, 3, p=0.3)
        inst = CrfInstance(np.zeros((12, 3)), backend)
        assert inst.lipschitz_upper_bound() == np.abs(backend.to_dense()).sum(axis=1).max()

    @pytest.mark.parametrize("backend", [
        DenseMatrix(np.zeros((0, 0)), 1),
        GaussianKernel(np.zeros((0, 2)), np.zeros((0, 3)), potts_matrix(3)),
        GaussianKernel(np.zeros((4, 2)), np.zeros((4, 3)), np.zeros((0, 0)))],
        ids=["dense-0x0", "gaussian-n0", "gaussian-d0"])
    def test_empty_operator(self, backend):
        assert backend.spectral_norm_bound() == 0.0


class TestDenseCapacity:
    def test_large_gaussian_refuses_before_allocating(self):
        n, d = 2000, 21
        backend = GaussianKernel(np.zeros((n, 2)), np.zeros((n, 3)), potts_matrix(d))
        with pytest.raises(CapacityError):
            backend.to_dense()
        with pytest.raises(CapacityError):
            DiagonalShift(backend, np.zeros((n, d))).to_dense()
        assert backend._kernel is None  # no n x n kernel was built

    def test_edge_list_refuses_before_allocating(self, rng, monkeypatch):
        backend = random_edge_backend(rng, 6, 3)
        expected = backend.to_dense()
        monkeypatch.setattr(model, "MAX_DENSE_ENTRIES", 18 * 18 - 1)
        with pytest.raises(CapacityError, match="order 18"):
            backend.to_dense()
        with pytest.raises(CapacityError):
            DiagonalShift(backend, np.zeros((6, 3))).to_dense()
        monkeypatch.setattr(model, "MAX_DENSE_ENTRIES", 18 * 18)
        np.testing.assert_array_equal(backend.to_dense(), expected)


class TestOperatorSymmetry:
    def test_random_backends(self, rng):
        for _ in range(100):
            inst = random_instance(rng)
            x = rng.standard_normal((inst.n_nodes, inst.n_labels))
            y = rng.standard_normal((inst.n_nodes, inst.n_labels))
            lhs = float((x * inst.pairwise.matvec(y)).sum())
            rhs = float((inst.pairwise.matvec(x) * y).sum())
            assert lhs == pytest.approx(rhs, abs=1e-9)


class TestValidation:
    def test_rejects_asymmetric_dense(self):
        m = np.zeros((4, 4))
        m[0, 2] = 1.0
        with pytest.raises(ValueError):
            DenseMatrix(m, 2)

    def test_accepts_diagonal_blocks(self):
        n, d = 6, 2
        m = np.zeros((n * d, n * d))
        for node in (5, 3):
            m[node * d, node * d + 1] = m[node * d + 1, node * d] = 1.0
            m[node * d, node * d] = 3.0
        backend = DenseMatrix(m, d)
        # half of each diagonal entry, 0.5 * (3 + 3); the 1.0 entries pair two
        # labels of one node, which no one-hot point holds at once
        assert backend.pair_energy(np.zeros(n, dtype=int)) == 3.0
        assert backend.pair_energy(np.ones(n, dtype=int)) == 0.0

    def test_rejects_bad_edges(self):
        theta = np.zeros((1, 2, 2))
        with pytest.raises(ValueError):
            EdgeList(3, 2, np.array([[1, 0]]), theta)  # i >= j
        with pytest.raises(ValueError):
            EdgeList(3, 2, np.array([[1, 1]]), theta)  # self edge
        with pytest.raises(ValueError):
            EdgeList(3, 2, np.array([[0, 1], [0, 1]]), np.zeros((2, 2, 2)))

    def test_rejects_bad_kernel(self):
        pos, col = np.zeros((2, 2)), np.zeros((2, 3))
        with pytest.raises(ValueError):
            GaussianKernel(pos, col, potts_matrix(2), alpha=0.0)
        asym = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValueError):
            GaussianKernel(pos, col, asym)

    def test_rejects_nonfinite_unary(self):
        with pytest.raises(ValueError):
            CrfInstance(np.array([[np.nan, 0.0]]),
                        EdgeList(1, 2, np.zeros((0, 2), int), np.zeros((0, 2, 2))))

    @pytest.mark.parametrize("build, message", [
        (lambda: DenseMatrix(np.zeros((2, 3)), 1), "pairwise matrix must be square"),
        (lambda: DenseMatrix(np.zeros((3, 3)), 2), "matrix size must be a multiple of n_labels"),
        (lambda: EdgeList(3, 2, [[0, 1]], np.zeros((2, 2, 2))),
         "edges and thetas must have the same length"),
        (lambda: EdgeList(2, 2, [[0, 1]], [0, 1, 1, 0]),
         "edge potentials must have shape (E, 2, 2), got (4,)"),
        (lambda: EdgeList(3, 2, [[0, 1]], np.zeros((1, 8))),
         "edge potentials must have shape (E, 2, 2), got (1, 8)"),
        (lambda: GaussianKernel(np.zeros((2, 3)), np.zeros((2, 3)), potts_matrix(2)),
         "positions must have shape (n, 2)"),
        (lambda: GaussianKernel(np.zeros((2, 2)), np.zeros((3, 3)), potts_matrix(2)),
         "colors must have shape (n, 3)"),
        (lambda: GaussianKernel(np.zeros((2, 2)), np.zeros((2, 3)), np.zeros((2, 3))),
         "compat must be a square matrix"),
        (lambda: DiagonalShift(zero_instance(3, 2).pairwise, np.zeros((2, 3))),
         "diagonal shift shape must match the base operator"),
        (lambda: CrfInstance(np.zeros(6), zero_instance(3, 2).pairwise),
         "unary must be an (n, d) matrix"),
        (lambda: CrfInstance(np.zeros((2, 3)), zero_instance(3, 2).pairwise),
         "unary shape (2, 3) does not match pairwise backend (3, 2)"),
    ], ids=["dense-not-square", "dense-size", "edge-count", "edge-flat", "edge-block",
            "kernel-positions", "kernel-colors", "kernel-compat", "shift-shape", "unary-1d",
            "unary-shape"])
    def test_rejects_bad_shapes(self, build, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()
