import tracemalloc

import numpy as np
import pytest

from steinflow.diagnostics import (
    CSV_SCHEMA_VERSION,
    MetricRecord,
    empirical_moments,
    gaussian_fit_kl,
    kl_estimate,
)
from steinflow.gaussian_flow import kl_gaussians
from steinflow.targets import CustomTarget, DoubleBananasTarget, GaussianTarget, QuarticTarget
from reference_impls import unblocked_kde_log_density, unblocked_median_bandwidth


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
        val, flag = gaussian_fit_kl(scaled, target)
        assert val == pytest.approx(0.0, abs=1e-12)
        assert not flag

    def test_large_sample_matches_analytic(self):
        rng = np.random.default_rng(1)
        x = np.sqrt(2.0) * rng.standard_normal((10_000, 1))
        target = GaussianTarget(b=np.zeros(1), q=np.eye(1))
        analytic = 0.5 * (2.0 - 1.0 + np.log(0.5))
        val, _ = gaussian_fit_kl(x, target)
        assert abs(val - analytic) <= 0.02

    def test_degenerate_covariance_flagged(self):
        target = GaussianTarget(b=np.zeros(2), q=np.eye(2))
        x = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])  # rank-deficient spread
        val, flag = gaussian_fit_kl(x, target)
        assert flag and np.isfinite(val)

    def test_nonnegative(self):
        rng = np.random.default_rng(2)
        target = GaussianTarget(b=np.zeros(2), q=np.eye(2))
        for _ in range(20):
            val, _ = gaussian_fit_kl(rng.standard_normal((30, 2)), target)
            assert val >= 0.0


class TestKlEstimate:
    def test_gaussian_fit_path(self):
        rng = np.random.default_rng(3)
        target = GaussianTarget(b=np.zeros(2), q=np.eye(2))
        x = rng.standard_normal((200, 2))
        assert kl_estimate(x, target, method="gaussian-fit") == gaussian_fit_kl(x, target)[0]

    def test_kde_close_to_gaussian_fit_on_gaussian_cloud(self):
        rng = np.random.default_rng(4)
        target = GaussianTarget(b=np.zeros(2), q=np.eye(2))
        x = rng.standard_normal((500, 2))
        fit = kl_estimate(x, target, method="gaussian-fit")
        kde = kl_estimate(x, target, method="kde")
        assert abs(kde - fit) <= 0.1

    @pytest.mark.parametrize("target", [DoubleBananasTarget(), QuarticTarget(),
                                        GaussianTarget(b=np.array([1.0, -1.0]), q=np.array([[2.0, 0.5], [0.5, 1.0]]))],
                             ids=["double-bananas", "quartic", "gaussian"])
    def test_kde_is_mean_log_density_ratio_plus_log_normalizer(self, target):
        x = np.random.default_rng(7).standard_normal((300, 2))
        bandwidth2 = unblocked_median_bandwidth(x)
        expected = (unblocked_kde_log_density(x, bandwidth2) + target.potential_all(x)).mean()
        assert kl_estimate(x, target, method="kde") == expected + target.log_normalizer

    def test_kde_needs_log_normalizer(self):
        target = CustomTarget(lambda x: 0.25 * (x**4).sum(), lambda x: x**3, dim=2)
        x = np.random.default_rng(8).standard_normal((50, 2))
        with pytest.raises(ValueError, match="log_normalizer.*CustomTarget"):
            kl_estimate(x, target, method="kde")

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

    def test_kde_peak_memory(self):
        # the KDE of 500 particles at themselves runs block by block and
        # holds no N x N array
        rng = np.random.default_rng(6)
        target = GaussianTarget(b=np.zeros(2), q=np.eye(2))
        x = rng.standard_normal((500, 2))
        kl_estimate(x[:10], target, method="kde")  # first-call caches
        tracemalloc.start()
        try:
            kl_estimate(x, target, method="kde")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8e6

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            kl_estimate(np.zeros((5, 1)), GaussianTarget(b=np.zeros(1), q=np.eye(1)), method="bogus")


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
