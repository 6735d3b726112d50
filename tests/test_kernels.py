import re
import sys
import threading

import numpy as np
import pytest

from steinflow import kernels
from steinflow.kernels import (
    BilinearKernel,
    GaussianKernel,
    _capacitance,
    _column_gram,
    gram,
    nearest_sq_dists,
)
from reference_impls import (
    central_diff_grad,
    eval_kernel,
    grad1,
    grad2,
    loop_gram,
    longdouble_solve,
    loop_nearest_sq_dists,
    loop_sq_dists,
    partition_nearest_sq_dists,
    random_spd,
    unblocked_gaussian_gram,
    unblocked_sq_dists,
)


def symmetric_from_upper(a):
    """The symmetric matrix with the diagonal and upper triangle of a; its strict lower triangle is not read."""
    return np.triu(a) + np.triu(a, 1).T


def blocked_sq_dists(x):
    """The N x N squared-distance matrix symmetrized from the triangle blocks of ``kernels._sq_dist_blocks``."""
    out = np.empty((x.shape[0], x.shape[0]))
    for start, stop, block in kernels._sq_dist_blocks(x):
        out[start:stop, start:] = block
    return symmetric_from_upper(out)


def dense_gram(kernel, x):
    """K symmetrized from the triangle ``gram`` writes for the Gaussian kernel, U U^T for the bilinear one."""
    if isinstance(kernel, GaussianKernel):
        return symmetric_from_upper(gram(kernel, x).k)
    u = kernel.low_rank_factor(x)
    return u @ u.T


class TestEval:
    def test_gaussian_coincident_points(self):
        k = GaussianKernel(0.37)
        x = np.array([1.2, -0.4, 2.0])
        assert eval_kernel(k, x, x) == 1.0

    def test_bilinear_orthogonal_vectors(self):
        k = BilinearKernel(np.eye(2))
        assert eval_kernel(k, np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0

    def test_gaussian_unit_distance(self):
        k = GaussianKernel(0.5)
        val = eval_kernel(k, np.array([0.0, 0.0]), np.array([1.0, 0.0]))
        assert val == pytest.approx(np.exp(-1.0), rel=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            eval_kernel(GaussianKernel(1.0), np.zeros(2), np.zeros(3))
        with pytest.raises(ValueError):
            eval_kernel(BilinearKernel(np.eye(2)), np.zeros(3), np.zeros(3))

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            GaussianKernel(0.0)
        with pytest.raises(ValueError):
            GaussianKernel(-1.0)
        with pytest.raises(ValueError):
            BilinearKernel(np.array([[1.0, 2.0], [0.0, 1.0]]))  # not symmetric
        with pytest.raises(ValueError):
            BilinearKernel(np.array([[1.0, 0.0], [0.0, -2.0]]))  # not PD


class TestGrads:
    def test_gaussian_zero_at_coincidence(self):
        k = GaussianKernel(2.0)
        x = np.array([0.3, -1.0])
        assert np.all(grad1(k, x, x) == 0.0)
        assert np.all(grad2(k, x, x) == 0.0)

    def test_bilinear_grad2_is_ax(self):
        k = BilinearKernel(np.eye(2))
        out = grad2(k, np.array([2.0, 3.0]), np.array([-5.0, 7.0]))
        assert np.array_equal(out, np.array([2.0, 3.0]))

    def test_gaussian_grad2_known_value(self):
        k = GaussianKernel(1.0)
        out = grad2(k, np.array([1.0, 0.0]), np.array([0.0, 0.0]))
        assert np.allclose(out, [np.exp(-0.5), 0.0], rtol=1e-14)

    def test_gaussian_translation_antisymmetry(self):
        k = GaussianKernel(0.7)
        rng = np.random.default_rng(5)
        x, y = rng.standard_normal(3), rng.standard_normal(3)
        assert np.allclose(grad1(k, x, y), -grad2(k, x, y), rtol=1e-14)

    @pytest.mark.parametrize("kernel", [GaussianKernel(0.8), BilinearKernel(np.array([[2.0, 0.3], [0.3, 1.0]]))])
    def test_grads_match_finite_differences(self, kernel):
        rng = np.random.default_rng(11)
        for _ in range(20):
            x, y = rng.standard_normal(2), rng.standard_normal(2)
            fd1 = central_diff_grad(lambda z: eval_kernel(kernel, z, y), x)
            fd2 = central_diff_grad(lambda z: eval_kernel(kernel, x, z), y)
            assert np.allclose(grad1(kernel, x, y), fd1, atol=1e-6)
            assert np.allclose(grad2(kernel, x, y), fd2, atol=1e-6)


class TestGram:
    def test_single_point(self):
        gm = gram(GaussianKernel(1.0), np.array([[1.0, 2.0]]))
        assert gm.k.shape == (1, 1) and gm.k[0, 0] == 1.0

    def test_identical_rows_all_ones(self):
        x = np.array([[0.5, -1.0], [0.5, -1.0]])
        assert np.array_equal(dense_gram(GaussianKernel(0.3), x), np.ones((2, 2)))

    def test_bilinear_standard_basis(self):
        u = BilinearKernel(np.eye(2)).low_rank_factor(np.eye(2))
        assert np.allclose(u @ u.T, [[2.0, 1.0], [1.0, 2.0]], rtol=1e-15)

    def test_gaussian_unit_diagonal(self):
        rng = np.random.default_rng(0)
        gm = gram(GaussianKernel(0.4), rng.standard_normal((30, 3)))
        assert np.array_equal(np.diag(gm.k), np.ones(30))

    @pytest.mark.parametrize("kernel", [GaussianKernel(0.6), BilinearKernel(np.array([[1.5, -0.2], [-0.2, 0.9]]))])
    def test_symmetric_and_psd(self, kernel):
        rng = np.random.default_rng(7)
        for _ in range(5):
            x = rng.standard_normal((25, 2))
            k = dense_gram(kernel, x)
            assert np.array_equal(k, k.T)
            assert np.allclose(k, loop_gram(kernel, x), rtol=1e-13, atol=1e-14)
            min_eig = np.linalg.eigvalsh(k).min()
            assert min_eig >= -1e-10 * np.linalg.norm(k)

    def test_gaussian_translation_invariance(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((15, 2))
        shift = np.array([3.7, -11.0])
        k1 = dense_gram(GaussianKernel(0.5), x)
        k2 = dense_gram(GaussianKernel(0.5), x + shift)
        assert np.allclose(k1, k2, atol=1e-12)

    def test_bilinear_rank(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((10, 2))
        kernel = BilinearKernel(np.eye(2))
        assert kernel.low_rank_factor(x).shape == (10, 3)
        assert np.linalg.matrix_rank(loop_gram(kernel, x), tol=1e-9) <= 3

    @pytest.mark.parametrize("x", [np.zeros(3), np.zeros((0, 2))], ids=["1-d", "no-rows"])
    def test_rejects_a_non_point_array(self, x):
        with pytest.raises(ValueError, match="^expected an N x d point array with N >= 1"):
            gram(GaussianKernel(1.0), x)

    def test_bilinear_kernel_has_no_dense_gram(self):
        with pytest.raises(TypeError, match="low_rank_factor"):
            gram(BilinearKernel(np.eye(2)), np.eye(2))


class TestPairwiseSqDists:
    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(0)
        for n, d in [(1, 2), (7, 1), (40, 3), (25, 10), (30, 1), (30, 2), (30, 10)]:
            # off-centre points near 10^3 too, where a ||a||^2 + ||b||^2 - 2 a.b form cancels
            for centre in (0.0, 1e3):
                x = centre + rng.standard_normal((n, d))
                sq = blocked_sq_dists(x)
                assert np.allclose(sq, loop_sq_dists(x), rtol=1e-14, atol=1e-15)
                assert np.array_equal(sq, unblocked_sq_dists(x))
                kernel = GaussianKernel(0.37)
                assert np.allclose(dense_gram(kernel, x), loop_gram(kernel, x), rtol=1e-14, atol=1e-15)

    def test_symmetric_with_zero_diagonal(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((20, 2))
        sq = blocked_sq_dists(x)
        assert np.array_equal(sq, sq.T)
        assert np.array_equal(np.diag(sq), np.zeros(20))
        i, j = 3, 11
        assert sq[i, j] == ((x[i] - x[j]) ** 2).sum()

    def test_gaussian_gram_unit_diagonal(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((15, 4))
        k = dense_gram(GaussianKernel(1.3), x)
        assert np.array_equal(k, k.T)
        assert np.array_equal(np.diag(k), np.ones(15))

    def test_strided_input(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((10, 6))[:, ::2]  # strided view
        contiguous = np.ascontiguousarray(x)
        assert np.array_equal(blocked_sq_dists(x), blocked_sq_dists(contiguous))
        k = gram(GaussianKernel(0.5), x).k
        assert k.shape == (10, 10)
        assert np.array_equal(np.triu(k), np.triu(gram(GaussianKernel(0.5), contiguous).k))


class TestBlockedDistancePass:
    """The row-blocked distance pass against the unblocked one-buffer oracles, bit for bit."""

    @pytest.mark.parametrize("n", [1, 2, 255, 256, 257, 700])
    @pytest.mark.parametrize("d", [1, 2, 10])
    def test_gaussian_gram(self, n, d):
        # 256 rows fill exactly one 2^16-entry block; 257 leave a two-row tail block
        rng = np.random.default_rng(12 * n + d)
        x = rng.standard_normal((n, d))
        kernel = GaussianKernel(0.5 * d)
        assert np.array_equal(np.triu(gram(kernel, x).k), np.triu(unblocked_gaussian_gram(kernel, x)))

    @pytest.mark.parametrize("n", [1, 2, 255, 256, 257, 700])
    @pytest.mark.parametrize("d", [1, 2, 10])
    def test_sq_dists_and_nearest(self, n, d):
        rng = np.random.default_rng(14 * n + d)
        x = rng.standard_normal((n, d))
        full = unblocked_sq_dists(x)
        assert np.array_equal(blocked_sq_dists(x), full)
        for start, stop, block in kernels._sq_dist_blocks(x):
            assert block.flags.c_contiguous
            assert np.array_equal(block, full[start:stop, start:])
        if n >= 2:
            assert np.array_equal(nearest_sq_dists(x), loop_nearest_sq_dists(x))

    def test_one_row_per_block(self, monkeypatch):
        # a row longer than the entry budget still makes a block of its own
        monkeypatch.setattr(kernels, "_BLOCK_ENTRIES", 5)
        rng = np.random.default_rng(11)
        x = rng.standard_normal((7, 2))
        kernel = GaussianKernel(0.5)
        assert np.array_equal(blocked_sq_dists(x), unblocked_sq_dists(x))
        assert np.array_equal(np.triu(gram(kernel, x).k), np.triu(unblocked_gaussian_gram(kernel, x)))
        assert np.array_equal(nearest_sq_dists(x), loop_nearest_sq_dists(x))

    @pytest.mark.parametrize("block_entries", [1, 600, 2700, 1 << 16])
    def test_nearest_across_block_sizes(self, monkeypatch, block_entries):
        # 1, 2 and 9 rows per block at N = 300, and the default 218-row blocks with an 82-row tail
        x = np.random.default_rng(block_entries).standard_normal((300, 3))
        expected = loop_nearest_sq_dists(x)
        monkeypatch.setattr(kernels, "_BLOCK_ENTRIES", block_entries)
        assert np.array_equal(nearest_sq_dists(x), expected)


class TestNearestSqDists:
    def test_two_points(self):
        x = np.array([[0.0, 0.0], [3.0, 4.0]])
        assert np.array_equal(nearest_sq_dists(x), [25.0, 25.0])

    def test_points_on_a_line(self):
        x = np.array([[0.0], [1.0], [3.0], [7.0]])
        assert np.array_equal(nearest_sq_dists(x), [1.0, 1.0, 4.0, 16.0])

    def test_coinciding_points_read_zero(self):
        x = np.array([[1.0, 2.0], [0.0, 0.0], [1.0, 2.0]])
        assert np.array_equal(nearest_sq_dists(x), [0.0, 5.0, 0.0])

    def test_input_left_intact(self):
        x = np.random.default_rng(3).standard_normal((20, 2))
        copy = x.copy()
        nearest_sq_dists(x)
        assert np.array_equal(x, copy)

    def test_single_point_error(self):
        with pytest.raises(ValueError, match="N >= 2"):
            nearest_sq_dists(np.ones((1, 2)))


class TestNearestFromOneTriangle:
    """The one-triangle nearest-neighbour pass against the full-row partition pass, bit for bit."""

    @pytest.mark.parametrize("n, d", [(2, 2), (500, 2), (2000, 10)])
    def test_matches_partition_pass(self, n, d):
        x = np.random.default_rng(n + d).standard_normal((n, d))
        got = nearest_sq_dists(x)
        assert np.array_equal(got.view(np.uint64), partition_nearest_sq_dists(x).view(np.uint64))

    def test_four_blocks_at_n500(self):
        # 131 rows per upper block: the distances of rows 393:500 fill a last, partial block
        x = np.random.default_rng(1).standard_normal((500, 2))
        bounds = [(start, stop) for start, stop, _ in kernels._sq_dist_blocks(x)]
        assert bounds == [(0, 131), (131, 262), (262, 393), (393, 500)]

    def test_coincident_rows_read_zero(self):
        # pairs inside one block, across two blocks, and in the last block
        x = np.random.default_rng(2).standard_normal((500, 2))
        pairs = [(3, 7), (10, 480), (140, 300), (498, 499)]
        for i, j in pairs:
            x[j] = x[i]
        got = nearest_sq_dists(x)
        assert np.array_equal(got, partition_nearest_sq_dists(x))
        zero = np.zeros(500, dtype=bool)
        zero[np.ravel(pairs)] = True
        assert np.all(got[zero] == 0.0) and np.all(got[~zero] > 0.0)


class TestRegularizedInverse:
    """n (K + eps I)^-1 y: a capacitance solve on the bilinear factor U, an in-place Cholesky for the Gaussian K."""

    def test_identity_gram_eps_one(self):
        # U = I: C = (I + I)^-1 y
        y = np.arange(8.0).reshape(4, 2)
        u = np.eye(4)
        assert np.allclose(_capacitance(_column_gram(u), u.T @ y, 1.0), 0.5 * y, rtol=1e-14)

    def test_capacitance_matches_dense(self):
        # (eps I + U^T U)^-1 U^T = U^T (U U^T + eps I)^-1, and U U^T is the Gram matrix
        rng = np.random.default_rng(21)
        kernel = BilinearKernel(random_spd(rng, 2))
        x = rng.standard_normal((5, 2))
        y = rng.standard_normal((5, 2))
        u = kernel.low_rank_factor(x)
        dense = u.T @ np.linalg.solve(loop_gram(kernel, x) + 0.1 * np.eye(5), y)
        assert np.allclose(_capacitance(_column_gram(u), u.T @ y, 0.1), dense, rtol=1e-8)

    @pytest.mark.parametrize("n", [60, 5000, 50_000])
    def test_column_gram_matches_a_long_double_product(self, n):
        # U^T U from per-column dot products; u.T @ u, numpy's dsyrk, errs by 2.1e-16 to 3.1e-16 on these draws
        rng = np.random.default_rng(n)
        kernel = BilinearKernel(np.array([[2.0, 0.3], [0.3, 1.0]]))
        u = kernel.low_rank_factor(1.0 + 2.0 * rng.standard_normal((n, 2)))
        exact = u.astype(np.longdouble).T @ u.astype(np.longdouble)
        err = np.linalg.norm((kernels._column_gram(u) - exact).astype(float))
        assert err <= 1e-15 * np.linalg.norm(exact.astype(float))

    def test_capacitance_rejects_an_ill_conditioned_capacitance_matrix(self):
        # eps I + U^T U has the eigenvalues eps and about 5e19: a condition number past 1 / 2^-52
        u = np.column_stack([np.full(50, 1e9), np.ones(50)])
        y = np.ones((50, 2))
        with pytest.raises(np.linalg.LinAlgError, match="capacitance matrix") as info:
            _capacitance(_column_gram(u), u.T @ y, 0.1)
        cond = float(re.search(r"condition number (\S+)\)", str(info.value)).group(1))
        assert cond >= 1.0 / np.finfo(float).eps

    def test_bilinear_residual(self):
        # V = (N / eps) (y - U C) solves (K + eps I) V / N = y
        rng = np.random.default_rng(22)
        kernel = BilinearKernel(random_spd(rng, 3))
        x = rng.standard_normal((12, 3))
        y = rng.standard_normal((12, 3))
        eps = 0.05
        u = kernel.low_rank_factor(x)
        v = (12.0 / eps) * (y - u @ _capacitance(_column_gram(u), u.T @ y, eps))
        resid = (loop_gram(kernel, x) + eps * np.eye(12)) @ v / 12.0 - y
        assert np.linalg.norm(resid) <= 1e-8 * np.linalg.norm(y)

    def test_bilinear_push_scale_matches_a_long_double_solve(self):
        # Y in the span of U, as on a Gaussian target, where Y - U C cancels:
        # the scale 1 + |U^T V|^2 / N^2 read from V = (N / eps) (Y - U C) errs
        # by about 2e-12 here, and read from C as 1 + |C|^2 by about 2e-16
        n, eps = 2000, 0.1
        rng = np.random.default_rng(0)
        kernel = BilinearKernel(np.array([[2.0, 0.3], [0.3, 1.0]]))
        x = np.asfortranarray(rng.standard_normal((n, 2)) @ np.array([[1.0, 0.4], [0.0, 0.7]]) + [0.5, -1.0])
        y = np.asfortranarray(-0.3 * x @ np.array([[1.2, 0.2], [0.2, 0.8]]) + [0.1, 0.05])
        u = kernel.low_rank_factor(x).astype(np.longdouble)
        c = longdouble_solve(eps * np.eye(3, dtype=np.longdouble) + u.T @ u, u.T @ y.astype(np.longdouble))
        expected = (1 + (c**2).sum()) * (kernel.a.T @ x.T).T.astype(np.longdouble)
        # at G = 0 the force is the push alone
        push, _ = kernel.accelerated_terms(x, y, np.zeros((n, 2)), eps, 1.0)
        assert np.abs(push - expected).max() <= 1e-14 * np.abs(expected).max()

    @pytest.mark.parametrize("n, d", [(7, 1), (60, 2), (300, 5)])
    def test_gaussian_solve_and_products_through_the_factor(self, n, d):
        # V comes from the Cholesky factor L of K + eps I, written over the
        # triangle of the Gram buffer that holds K, and K B = L (L^T B) - eps B
        rng = np.random.default_rng(23 + n)
        kernel = GaussianKernel(float(rng.uniform(0.5, 2.0)))
        x = rng.standard_normal((n, d))
        y = rng.standard_normal((n, d))
        b = rng.standard_normal((n, d))
        eps = 0.1
        _, stat = kernel.accelerated_terms(x, y, b, eps, 0.05)
        # the force is push - (sqrt(tau) / N) K b, linear in b; at 2^20 b, an exact scaling, the
        # push's rounding is lost in K b's, so force(0) - force(2^20 b) gives K b to its last bits
        scale = 2.0**20 * np.sqrt(0.05) / n
        kb = (kernel.accelerated_terms(x, y, np.zeros((n, d)), eps, 0.05)[0]
              - kernel.accelerated_terms(x, y, 2.0**20 * b, eps, 0.05)[0]) / scale
        k = loop_gram(kernel, x)
        dense_v = n * np.linalg.solve(k + eps * np.eye(n), y)
        # the restart statistic is -<V, T> / N^2 with T = K G + (K X - diag(K 1) X) / sigma2, so
        # V within 1e-10 max|V| of the dense solve puts it within 1e-10 max|V| sum|T| / N^2
        t = k @ b + (k @ x - k.sum(axis=1)[:, None] * x) / kernel.sigma2
        assert abs(stat + np.tensordot(dense_v, t) / n**2) <= 1e-10 * np.abs(dense_v).max() * np.abs(t).sum() / n**2
        assert np.abs(kb - k @ b).max() <= 1e-13 * np.abs(k @ b).max()

    @pytest.mark.parametrize("method", ["accelerated_terms", "plain_step"])
    def test_step_reads_only_the_triangle_gram_writes(self, monkeypatch, method):
        # NaN in the strict lower triangle of every K that gram returns must
        # reach none of the step's outputs
        rng = np.random.default_rng(24)
        n, d = 300, 2
        kernel = GaussianKernel(0.5)
        x, y, g = (rng.standard_normal((n, d)) for _ in range(3))
        step = {"accelerated_terms": lambda: kernel.accelerated_terms(x, y, g, 0.1, 0.05),
                "plain_step": lambda: (kernel.plain_step(x, g, 0.05),)}[method]
        clean = step()
        unpoisoned = kernels.gram

        def poisoned_gram(*args, **kwargs):
            gm = unpoisoned(*args, **kwargs)
            gm.k[np.tril_indices(gm.k.shape[0], -1)] = np.nan
            return gm

        monkeypatch.setattr(kernels, "gram", poisoned_gram)
        poisoned = step()
        for got, expected in zip(poisoned, clean):
            assert np.array_equal(got, expected)


class TestLapackBlasWrappers:
    def test_scipy_linalgs_own_modules(self):
        # reference_impls has imported scipy.linalg in this process
        import scipy.linalg

        lapack, blas = kernels._lapack_blas()
        assert lapack is sys.modules["scipy.linalg._flapack"]
        assert blas is sys.modules["scipy.linalg._fblas"]
        assert lapack.dpotrf is scipy.linalg.lapack.dpotrf
        assert blas.dsymm is scipy.linalg.blas.dsymm

    def test_missing_file_names_the_directory(self, tmp_path):
        with pytest.raises(ImportError, match=re.escape(str(tmp_path))):
            kernels._load_extension(str(tmp_path), "scipy.linalg._flapack")

    def test_concurrent_first_calls_load_once(self):
        kernels._load_lapack_blas.cache_clear()
        barrier = threading.Barrier(8)
        results = []

        def load():
            barrier.wait(timeout=10)
            results.append(kernels._lapack_blas())

        threads = [threading.Thread(target=load) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(results) == 8 and all(r is results[0] for r in results)
