import tracemalloc
from decimal import Decimal

import numpy as np
import pytest
from scipy.special import digamma, gammaln

from steinflow.diagnostics import (
    CSV_SCHEMA_VERSION,
    MetricRecord,
    empirical_moments,
    gaussian_fit_kl,
    kl_estimate,
)
from steinflow.gaussian_flow import kl_gaussians
from steinflow.targets import CustomTarget, DoubleBananasTarget, GaussianTarget, QuarticTarget, builtin, builtin_names
from reference_impls import exact_samples, loop_nearest_sq_dists


class TestEmpiricalMoments:
    def test_identical_rows_zero_covariance(self):
        x = np.tile([1.5, -2.0], (6, 1))
        mean, cov = empirical_moments(x)
        assert np.array_equal(mean, [1.5, -2.0])
        assert np.array_equal(cov, np.zeros((2, 2)))

    def test_two_antipodal_points(self):
        x = np.array([[1.0, 0.0], [-1.0, 0.0]])
        mean, cov = empirical_moments(x)
        assert np.array_equal(mean, [0.0, 0.0])
        assert np.array_equal(cov, np.diag([2.0, 0.0]))  # divisor N - 1 = 1

    def test_knn_coinciding_particles_in_different_distance_blocks(self):
        x = np.random.default_rng(10).standard_normal((500, 2))
        x[450] = x[2]
        with pytest.raises(ValueError) as info:
            kl_estimate(x, QuarticTarget(), method="knn")
        assert str(info.value) == "two particles coincide, so a nearest-neighbour distance is 0"

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((20, 3))
        perm = rng.permutation(20)
        m1, c1 = empirical_moments(x)
        m2, c2 = empirical_moments(x[perm])
        assert np.allclose(m1, m2, atol=1e-15)
        assert np.allclose(c1, c2, atol=1e-14)

    def test_needs_two_particles(self):
        with pytest.raises(ValueError):
            empirical_moments(np.ones((1, 2)))


class TestGaussianFitKl:
    def test_matched_moments_give_zero(self):
        # particles constructed to have exactly the target moments
        target = GaussianTarget(b=np.zeros(1), q=np.eye(1))
        x = np.array([[-1.0], [1.0], [0.0], [np.sqrt(1.5)], [-np.sqrt(1.5)]])
        mean, cov = empirical_moments(x)
        scaled = (x - mean) / np.sqrt(cov[0, 0])
        val, flag = gaussian_fit_kl(*empirical_moments(scaled), target)
        assert val == pytest.approx(0.0, abs=1e-12)
        assert not flag

    def test_large_sample_matches_analytic(self):
        rng = np.random.default_rng(1)
        x = np.sqrt(2.0) * rng.standard_normal((10_000, 1))
        target = GaussianTarget(b=np.zeros(1), q=np.eye(1))
        analytic = 0.5 * (2.0 - 1.0 + np.log(0.5))
        val, _ = gaussian_fit_kl(*empirical_moments(x), target)
        assert abs(val - analytic) <= 0.02

    def test_degenerate_covariance_flagged(self):
        target = GaussianTarget(b=np.zeros(2), q=np.eye(2))
        x = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])  # rank-deficient spread
        val, flag = gaussian_fit_kl(*empirical_moments(x), target)
        assert flag and np.isfinite(val)

    def test_covariance_singular_relative_to_q_is_flagged(self):
        # diag(1, 1e-20) has a Cholesky factor, but Sigma - Q rounds to diag(0, -1)
        target = GaussianTarget(b=np.zeros(2), q=np.eye(2))
        val, flag = gaussian_fit_kl(np.zeros(2), np.diag([1.0, 1e-20]), target)
        assert flag and np.isfinite(val)
        with pytest.raises(ValueError, match="relative to q"):
            kl_gaussians(np.zeros(2), np.diag([1.0, 1e-20]), np.zeros(2), np.eye(2))

    @pytest.mark.parametrize("name", ["gauss-aniso", "gauss-correlated"])
    def test_one_factorization_per_record(self, name, monkeypatch):
        # the target's cached Cholesky factor of Q replaces kl_gaussians' check and factor of Q
        target = builtin(name)
        mean, cov = empirical_moments(np.random.default_rng(5).standard_normal((60, 2)))
        calls = []

        def counted(fn):
            original = getattr(np.linalg, fn)

            def wrapper(*args, **kwargs):
                calls.append(fn)
                return original(*args, **kwargs)
            return wrapper

        for fn in ("cholesky", "inv"):
            monkeypatch.setattr(np.linalg, fn, counted(fn))
        val, flag = gaussian_fit_kl(mean, cov, target)
        assert calls == ["cholesky"] and not flag
        monkeypatch.undo()
        assert val == pytest.approx(kl_gaussians(mean, cov, target.b, target.q), rel=1e-15)

    @pytest.mark.parametrize("delta", [1e-3, 1e-6, 1e-8])
    def test_scaled_covariance_keeps_its_digits(self, delta):
        # Sigma = Q (1 + delta): KL = (d / 2) (delta - ln(1 + delta)), about d delta^2 / 4
        target = builtin("gauss-correlated")
        exact = float(Decimal(target.dim) / 2 * (Decimal(delta) - (1 + Decimal(delta)).ln()))
        val, flag = gaussian_fit_kl(target.b, target.q * (1.0 + delta), target)
        assert not flag and val == pytest.approx(exact, rel=1e-6)
        assert kl_gaussians(target.b, target.q * (1.0 + delta), target.b, target.q) == pytest.approx(exact, rel=1e-6)

    def test_small_mean_offset_keeps_its_digits(self):
        target = builtin("gauss-correlated")
        offset = np.array([1e-9, 0.0])
        exact = 0.5 * 1e-18 * target.q_inv[0, 0]
        val, _ = gaussian_fit_kl(target.b + offset, target.q, target)
        assert val == pytest.approx(exact, rel=1e-6)

    @pytest.mark.parametrize("name", ["gauss-aniso", "gauss-correlated"])
    def test_exact_moments_read_zero(self, name):
        target = builtin(name)
        val, flag = gaussian_fit_kl(target.b, target.q, target)
        assert not flag and abs(val) <= 1e-30
        assert abs(kl_gaussians(target.b, target.q, target.b, target.q)) <= 1e-30

    def test_nonnegative(self):
        rng = np.random.default_rng(2)
        target = GaussianTarget(b=np.zeros(2), q=np.eye(2))
        for _ in range(20):
            val, _ = gaussian_fit_kl(*empirical_moments(rng.standard_normal((30, 2))), target)
            assert val >= 0.0


class TestKlEstimate:
    def test_gaussian_fit_path(self):
        rng = np.random.default_rng(3)
        target = GaussianTarget(b=np.zeros(2), q=np.eye(2))
        x = rng.standard_normal((200, 2))
        fit, _ = gaussian_fit_kl(*empirical_moments(x), target)
        assert kl_estimate(x, target, method="gaussian-fit") == fit

    def test_knn_close_to_gaussian_fit_on_gaussian_cloud(self):
        rng = np.random.default_rng(4)
        target = GaussianTarget(b=np.zeros(2), q=np.eye(2))
        x = rng.standard_normal((500, 2))
        fit = kl_estimate(x, target, method="gaussian-fit")
        knn = kl_estimate(x, target, method="knn")
        assert abs(knn - fit) <= 0.1

    @pytest.mark.parametrize("target", [DoubleBananasTarget(), QuarticTarget(),
                                        GaussianTarget(b=np.array([1.0, -1.0]), q=np.array([[2.0, 0.5], [0.5, 1.0]])),
                                        GaussianTarget(b=np.array([0.5]), q=np.array([[2.0]]))],
                             ids=["double-bananas", "quartic", "gaussian", "gaussian-1d"])
    def test_knn_is_kozachenko_leonenko_entropy_plus_cross_entropy(self, target):
        # -H + E[f] + log Z with the 1-NN entropy psi(N) - psi(1) + log c_d + d mean log r_i
        n, d = 300, target.dim
        x = np.random.default_rng(7).standard_normal((n, d))
        log_unit_ball = 0.5 * d * np.log(np.pi) - gammaln(0.5 * d + 1.0)
        entropy = (digamma(n) - digamma(1) + log_unit_ball
                   + d * np.log(np.sqrt(loop_nearest_sq_dists(x))).mean())
        expected = target.potential_all(x).mean() + target.log_normalizer - entropy
        assert kl_estimate(x, target, method="knn") == pytest.approx(expected, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("name", builtin_names())
    def test_knn_calibrated_on_exact_samples(self, name):
        # the median-bandwidth KDE this estimate replaced read -0.94 on gauss-aniso
        # and -0.80 on double-bananas here, where the true KL is 0
        target = builtin(name)
        values = np.array([kl_estimate(exact_samples(name, 200, np.random.default_rng(seed)), target, method="knn")
                           for seed in range(20)])
        se = values.std(ddof=1) / np.sqrt(values.size)
        assert abs(values.mean()) <= 3.0 * se
        assert abs(values.mean()) <= 0.1

    def test_knn_needs_log_normalizer(self):
        target = CustomTarget(lambda x: 0.25 * (x**4).sum(), lambda x: x**3, dim=2)
        x = np.random.default_rng(8).standard_normal((50, 2))
        with pytest.raises(ValueError, match="log_normalizer.*CustomTarget"):
            kl_estimate(x, target, method="knn")

    def test_knn_coinciding_particles(self):
        x = np.random.default_rng(9).standard_normal((50, 2))
        x[17] = x[3]
        with pytest.raises(ValueError, match="two particles coincide"):
            kl_estimate(x, QuarticTarget(), method="knn")

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        target = GaussianTarget(b=np.zeros(2), q=np.eye(2))
        x = rng.standard_normal((100, 2))
        perm = rng.permutation(100)
        a = kl_estimate(x, target, method="gaussian-fit")
        b = kl_estimate(x[perm], target, method="gaussian-fit")
        assert a == pytest.approx(b, abs=1e-12)

    def test_consistency_improves_with_sample_size(self):
        target = GaussianTarget(b=np.zeros(1), q=np.array([[1.0]]))
        analytic = kl_gaussians(np.zeros(1), 2.0 * np.eye(1), np.zeros(1), np.eye(1))
        errs_small, errs_big = [], []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            small = np.sqrt(2.0) * rng.standard_normal((500, 1))
            big = np.sqrt(2.0) * rng.standard_normal((1000, 1))
            errs_small.append(abs(kl_estimate(small, target) - analytic))
            errs_big.append(abs(kl_estimate(big, target) - analytic))
        assert np.median(errs_big) <= np.median(errs_small)

    def test_knn_peak_memory(self):
        # the nearest-neighbour distances of 500 particles come block by block,
        # and no N x N array (2 MB) is held
        rng = np.random.default_rng(6)
        target = GaussianTarget(b=np.zeros(2), q=np.eye(2))
        x = rng.standard_normal((500, 2))
        kl_estimate(x[:10], target, method="knn")  # first-call caches
        tracemalloc.start()
        try:
            kl_estimate(x, target, method="knn")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5e6

    @pytest.mark.parametrize("method", ["bogus", "kde"])
    def test_unknown_method(self, method):
        with pytest.raises(ValueError, match="valid: gaussian-fit, knn"):
            kl_estimate(np.zeros((5, 1)), GaussianTarget(b=np.zeros(1), q=np.eye(1)), method=method)


class TestMetricRecord:
    def test_csv_header_golden(self):
        assert MetricRecord.csv_header(2) == (
            "iteration,kl_estimate,mean_0,mean_1,"
            "cov_0_0,cov_0_1,cov_1_0,cov_1_1,grad_restart_stat,mean_speed,kl_degenerate"
        )

    def test_csv_row_round_trip(self):
        rec = MetricRecord(iteration=3, kl_estimate=0.25, mean=np.array([1.0, 2.0]),
                           cov=np.eye(2), grad_restart_stat=-0.5, mean_speed=0.01)
        fields = rec.csv_row().split(",")
        assert fields[0] == "3"
        assert float(fields[1]) == 0.25
        assert fields[-1] == "0"
        assert len(fields) == len(MetricRecord.csv_header(2).split(","))

    def test_schema_version_string(self):
        assert CSV_SCHEMA_VERSION == "steinflow-metrics-v1"
