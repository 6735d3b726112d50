import numpy as np
import pytest

from steinflow import kernels
from steinflow.kernels import (
    BilinearKernel,
    GaussianKernel,
    eval_kernel,
    grad1,
    grad2,
    gram,
    median_bandwidth,
    pairwise_sq_dists,
    regularized_inverse_apply,
)
from reference_impls import central_diff_grad, loop_gram, loop_sq_dists, random_spd


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
        gm = gram(GaussianKernel(0.3), x)
        assert np.array_equal(gm.k, np.ones((2, 2)))

    def test_bilinear_standard_basis(self):
        gm = gram(BilinearKernel(np.eye(2)), np.eye(2))
        assert np.allclose(gm.k, [[2.0, 1.0], [1.0, 2.0]], rtol=1e-15)

    def test_gaussian_unit_diagonal(self):
        rng = np.random.default_rng(0)
        gm = gram(GaussianKernel(0.4), rng.standard_normal((30, 3)))
        assert np.array_equal(np.diag(gm.k), np.ones(30))

    @pytest.mark.parametrize("kernel", [GaussianKernel(0.6), BilinearKernel(np.array([[1.5, -0.2], [-0.2, 0.9]]))])
    def test_symmetric_and_psd(self, kernel):
        rng = np.random.default_rng(7)
        for _ in range(5):
            x = rng.standard_normal((25, 2))
            k = gram(kernel, x).k
            assert np.array_equal(k, k.T)
            min_eig = np.linalg.eigvalsh(k).min()
            assert min_eig >= -1e-10 * np.linalg.norm(k)

    def test_gaussian_translation_invariance(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((15, 2))
        shift = np.array([3.7, -11.0])
        k1 = gram(GaussianKernel(0.5), x).k
        k2 = gram(GaussianKernel(0.5), x + shift).k
        assert np.allclose(k1, k2, atol=1e-12)

    def test_bilinear_rank(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((10, 2))
        k = gram(BilinearKernel(np.eye(2)), x).k
        assert np.linalg.matrix_rank(k, tol=1e-9) <= 3


class TestPairwiseSqDists:
    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(0)
        for n, d in [(1, 2), (7, 1), (40, 3), (25, 10)]:
            x = rng.standard_normal((n, d))
            assert np.allclose(pairwise_sq_dists(x, x), loop_sq_dists(x, x), rtol=1e-14, atol=1e-15)
            kernel = GaussianKernel(0.37)
            assert np.allclose(gram(kernel, x).k, loop_gram(kernel, x), rtol=1e-14, atol=1e-15)

    def test_symmetric_with_zero_diagonal(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((20, 2))
        sq = pairwise_sq_dists(x, x)
        assert np.array_equal(sq, sq.T)
        assert np.array_equal(np.diag(sq), np.zeros(20))
        i, j = 3, 11
        assert sq[i, j] == ((x[i] - x[j]) ** 2).sum()

    def test_gaussian_gram_unit_diagonal(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((15, 4))
        k = gram(GaussianKernel(1.3), x).k
        assert np.array_equal(k, k.T)
        assert np.array_equal(np.diag(k), np.ones(15))

    def test_strided_input(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((10, 6))[:, ::2]  # strided view
        contiguous = np.ascontiguousarray(x)
        assert np.array_equal(pairwise_sq_dists(x, x), pairwise_sq_dists(contiguous, contiguous))
        k = gram(GaussianKernel(0.5), x).k
        assert k.shape == (10, 10)
        assert np.array_equal(k, gram(GaussianKernel(0.5), contiguous).k)

    def test_rectangular_matches_loop(self):
        # the KDE evaluates query points against a different set of centres
        rng = np.random.default_rng(4)
        for d in (1, 2, 5):
            queries = rng.standard_normal((30, d))
            centres = rng.standard_normal((12, d))
            sq = pairwise_sq_dists(queries, centres)
            assert sq.shape == (30, 12)
            assert np.allclose(sq, loop_sq_dists(queries, centres), rtol=1e-14, atol=1e-15)
            assert np.array_equal(sq.T, pairwise_sq_dists(centres, queries))


class TestMedianBandwidth:
    def test_two_points(self):
        x = np.array([[0.0, 0.0], [2.0, 0.0]])
        assert median_bandwidth(x) == pytest.approx(4.0 / (2.0 * np.log(3.0)), rel=1e-12)

    def test_equilateral_distances(self):
        # equilateral triangle: every pairwise distance is 1
        x = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]])
        assert median_bandwidth(x) == pytest.approx(1.0 / (2.0 * np.log(4.0)), rel=1e-12)

    def test_scaling_homogeneity(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((12, 3))
        assert median_bandwidth(3.0 * x) == pytest.approx(9.0 * median_bandwidth(x), rel=1e-12)

    def test_identical_points_error(self):
        with pytest.raises(ValueError, match="identical"):
            median_bandwidth(np.ones((5, 2)))

    def test_single_point_error(self):
        with pytest.raises(ValueError):
            median_bandwidth(np.ones((1, 2)))


class TestRegularizedInverse:
    def test_identity_gram_eps_zero(self):
        gm = kernels.GramMatrix(k=np.eye(4), kernel=GaussianKernel(1.0), points=np.zeros((4, 2)))
        y = np.arange(8.0).reshape(4, 2)
        assert np.allclose(regularized_inverse_apply(gm, 0.0, y, 4), 4.0 * y, rtol=1e-14)

    def test_identity_gram_eps_one(self):
        gm = kernels.GramMatrix(k=np.eye(4), kernel=GaussianKernel(1.0), points=np.zeros((4, 2)))
        y = np.arange(8.0).reshape(4, 2)
        assert np.allclose(regularized_inverse_apply(gm, 1.0, y, 4), 2.0 * y, rtol=1e-14)

    def test_woodbury_matches_dense(self):
        rng = np.random.default_rng(21)
        kernel = BilinearKernel(random_spd(rng, 2))
        x = rng.standard_normal((5, 2))
        y = rng.standard_normal((5, 2))
        gm = gram(kernel, x)
        fast = regularized_inverse_apply(gm, 0.1, y, 5)
        dense = 5.0 * np.linalg.solve(gm.k + 0.1 * np.eye(5), y)
        assert np.allclose(fast, dense, rtol=1e-8)

    def test_bilinear_residual(self):
        rng = np.random.default_rng(22)
        kernel = BilinearKernel(random_spd(rng, 3))
        x = rng.standard_normal((12, 3))
        y = rng.standard_normal((12, 3))
        eps = 0.05
        gm = gram(kernel, x)
        v = regularized_inverse_apply(gm, eps, y, 12)
        resid = (gm.k + eps * np.eye(12)) @ v / 12.0 - y
        assert np.linalg.norm(resid) <= 1e-8 * np.linalg.norm(y)

    def test_singular_eps_zero_reports_singular_value(self):
        rng = np.random.default_rng(23)
        kernel = BilinearKernel(np.eye(2))
        x = rng.standard_normal((8, 2))
        gm = gram(kernel, x)  # rank 3 < 8
        with pytest.raises(np.linalg.LinAlgError, match="singular value"):
            regularized_inverse_apply(gm, 0.0, rng.standard_normal((8, 2)), 8)

    def test_negative_eps_rejected(self):
        gm = kernels.GramMatrix(k=np.eye(2), kernel=GaussianKernel(1.0), points=np.zeros((2, 1)))
        with pytest.raises(ValueError):
            regularized_inverse_apply(gm, -0.1, np.zeros((2, 1)), 2)

