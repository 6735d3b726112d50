import numpy as np
import pytest

from steinflow import spectral
from steinflow.spectral import (
    asvgd_closed_form_eigs,
    asvgd_linearized_spectrum,
    asvgd_rates,
    eigs_1d,
    optimal_a_svgd,
    optimal_damping,
    svgd_linearized_matrix,
    sym_kron_sum,
)
from reference_impls import (
    asvgd_linearized_matrix,
    eigensolver_pair_check,
    euler_contraction_check,
    greedy_pair_check,
    random_spd,
)


def random_commuting_pair(rng, d, lo=0.2, hi=2.0):
    basis, _ = np.linalg.qr(rng.standard_normal((d, d)))
    a = (basis * rng.uniform(lo, hi, size=d)) @ basis.T
    q = (basis * rng.uniform(lo, hi, size=d)) @ basis.T
    return a, q


class TestCommutes:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1.0, 1e200])
    def test_verdict_does_not_depend_on_the_scale(self, scale):
        # at 1e200 |A| |Q| overflowed, and inf <= inf said that any pair commutes
        q = np.array([[0.6, 0.4], [0.4, 0.6]])  # gauss-correlated's
        assert not spectral.commutes(np.diag([1.0, 3.0]) * scale, q)
        assert spectral.commutes(np.eye(2) * scale, q)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e-170, 1e170])
    def test_products_of_two_scaled_matrices(self, scale):
        # at 1e-170 AB - BA underflowed to 0, and 0 <= 0 said that any pair commutes
        q = np.array([[0.6, 0.4], [0.4, 0.6]]) * scale
        assert not spectral.commutes(np.diag([1.0, 3.0]) * scale, q)
        assert spectral.commutes(np.eye(2) * scale, q)


class TestSvgdLinearizedMatrix:
    def test_scalar_block_form(self):
        a, q, b = 0.7, 1.3, 0.4
        got = svgd_linearized_matrix(np.array([[a]]), np.array([b]), np.array([[q]]))
        expect = np.array([
            [(a * b * b + 1.0) / q, a * b / q],
            [2.0 * a * b, 2.0 * a],
        ])
        assert np.allclose(got, expect, rtol=1e-13)

    def test_centered_scalar_identity(self):
        got = svgd_linearized_matrix(np.array([[0.5]]), np.zeros(1), np.array([[1.0]]))
        assert np.allclose(got, np.eye(2), rtol=1e-14)

    def test_block_diagonal_when_centered(self):
        rng = np.random.default_rng(1)
        a, q = random_spd(rng, 2), random_spd(rng, 2)
        m = svgd_linearized_matrix(a, np.zeros(2), q)
        assert np.allclose(m[:2, 2:], 0.0)
        assert np.allclose(m[2:, :2], 0.0)

    def test_eigenvalues_match_scalar_formula(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a = rng.uniform(0.05, 3.0)
            q = rng.uniform(0.1, 2.5)
            b = rng.uniform(-2.0, 2.0)
            m = svgd_linearized_matrix(np.array([[a]]), np.array([b]), np.array([[q]]))
            numeric = np.sort(np.linalg.eigvals(m).real)
            lo, hi = eigs_1d(a, q, b)
            assert np.allclose(numeric, [lo, hi], atol=1e-10 * (1.0 + hi))


class TestEigs1d:
    def test_balanced_point(self):
        lo, hi = eigs_1d(0.5, 1.0, 0.0)
        assert lo == pytest.approx(1.0) and hi == pytest.approx(1.0)

    def test_centered_piecewise_form(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a, q = rng.uniform(0.05, 3.0), rng.uniform(0.1, 2.0)
            lo, hi = eigs_1d(a, q, 0.0)
            mid = a + 1.0 / (2.0 * q)
            gap = abs(a - 1.0 / (2.0 * q))
            assert lo == pytest.approx(mid - gap, rel=1e-10)
            assert hi == pytest.approx(mid + gap, rel=1e-10)

    def test_positive_and_ordered(self):
        lo, hi = eigs_1d(1.0, 1.0, 1.0)
        assert 0.0 < lo <= hi

    def test_small_root_does_not_cancel(self):
        # the roots multiply to 2a/q, so at a << 1 the small one is 2a (q = 1/2)
        lo, hi = eigs_1d(1e-17, 0.5, 0.0)
        assert lo == 2e-17
        assert hi == 2.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            eigs_1d(0.0, 1.0, 0.0)
        for bad in (np.nan, np.inf):
            for a, q in ((bad, 1.0), (1.0, bad)):
                with pytest.raises(ValueError, match="^a and q must be finite and positive"):
                    eigs_1d(a, q, 0.0)


class TestOptimalA:
    def test_scalar_centered(self):
        a, h = optimal_a_svgd(0.0, 1.0, mode="scalar-1d")
        assert a == pytest.approx(0.5) and h == pytest.approx(1.0)

    def test_scalar_with_offset(self):
        a, _ = optimal_a_svgd(1.0, 2.0, mode="scalar-1d")
        assert a == pytest.approx(1.0 / 5.0)

    def test_scalar_matches_grid_search(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            q, b = rng.uniform(0.3, 2.0), rng.uniform(-1.5, 1.5)
            a_star, _ = optimal_a_svgd(b, q, mode="scalar-1d")
            grid = np.geomspace(a_star / 10.0, a_star * 10.0, 121)
            ratios = [eigs_1d(a, q, b)[1] / eigs_1d(a, q, b)[0] for a in grid]
            best = grid[int(np.argmin(ratios))]
            cell = np.log(grid[1] / grid[0])
            assert abs(np.log(best / a_star)) <= cell + 1e-12

    def test_commuting_mode(self):
        a = optimal_a_svgd(np.zeros(2), np.diag([1.0, 4.0]), mode="commuting")
        assert np.allclose(a, np.diag([0.5, 0.125]), rtol=1e-14)
        # achieved condition number equals kappa(Q)
        m = svgd_linearized_matrix(a, np.zeros(2), np.diag([1.0, 4.0]))
        eigs = np.linalg.eigvals(m).real
        assert eigs.max() / eigs.min() == pytest.approx(4.0, rel=1e-10)

    def test_commuting_requires_centered(self):
        with pytest.raises(ValueError):
            optimal_a_svgd(np.ones(2), np.eye(2), mode="commuting")

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            optimal_a_svgd(0.0, 1.0, mode="bogus")


@pytest.mark.parametrize("value", [-1.0, np.nan, np.inf], ids=["negative", "nan", "inf"])
@pytest.mark.parametrize("call, message", [
    (lambda v: optimal_a_svgd(0.0, v, mode="scalar-1d"), "q must be finite and positive"),
    (lambda v: asvgd_linearized_spectrum(np.eye(2), np.eye(2), v), "alpha must be nonnegative and finite"),
    (lambda v: asvgd_rates(np.eye(2), theta=v), "theta must be finite and positive"),
], ids=["optimal_a_svgd", "asvgd_linearized_spectrum", "asvgd_rates"])
def test_range_checks_reject_non_finite_values(call, message, value):
    with pytest.raises(ValueError, match=f"^{message}, got {value}$"):
        call(value)


class TestAcceleratedSpectrum:
    def test_closed_form_matches_eigensolver(self):
        # away from critical damping the spectra agree to 1e-8 relative
        rng = np.random.default_rng(5)
        for d in (1, 2, 3):
            a, q = random_commuting_pair(rng, d)
            for alpha in (0.0, 0.8, 0.9 * optimal_damping(a), 5.0):
                closed = asvgd_closed_form_eigs(a, q, alpha)
                numeric = np.linalg.eigvals(asvgd_linearized_matrix(a, q, alpha))
                greedy_pair_check(closed, numeric)

    def test_spectrum_report_at_critical_damping(self):
        # the pairing allowance covers the defective double eigenvalue
        rng = np.random.default_rng(15)
        for d in (2, 3):
            a, q = random_commuting_pair(rng, d)
            alpha = optimal_damping(a)
            rep = asvgd_linearized_spectrum(a, q, alpha)
            assert len(rep["eigenvalues"]) == 2 * d * d
            eigensolver_pair_check(rep, a, q, alpha)

    def test_report_construction_validates(self):
        rep = asvgd_linearized_spectrum(np.eye(2), np.diag([1.0, 4.0]), 2.0)
        assert len(rep["eigenvalues"]) == 8
        assert rep["condition_number"] >= 1.0
        assert rep["contraction"] < 1.0

    def test_scalar_critical_damping(self):
        # A = 0.5 in one dimension: mu = 1, alpha* = 2, both eigenvalues equal 1
        rep = asvgd_linearized_spectrum(np.array([[0.5]]), np.array([[1.7]]), 2.0)
        assert np.allclose(rep["eigenvalues"], [1.0, 0.0], atol=1e-12)  # [real, imag] pairs

    def test_critical_damping_gives_an_exact_double_root(self):
        # centred 1-D, A = 1: mu = 2 and alpha* = sqrt(8), where alpha*^2 - 4 mu rounds to one ulp of 8
        rep = asvgd_linearized_spectrum(np.array([[1.0]]), np.array([[1.0]]), optimal_damping(np.array([[1.0]])))
        assert rep["eigenvalues"] == [[np.sqrt(2.0), 0.0], [np.sqrt(2.0), 0.0]]
        assert rep["condition_number"] == 1.0
        assert rep["contraction"] == 0.0

    def test_isotropic_critical_modes(self):
        theta = 0.7
        a = theta * np.eye(2)
        alpha = np.sqrt(8.0 * theta)
        eigs = asvgd_closed_form_eigs(a, np.eye(2), alpha)
        assert np.allclose(eigs, np.sqrt(2.0 * theta), atol=1e-10)

    @pytest.mark.parametrize("alpha", [1e6, 1e8, 1e9])
    def test_overdamped_small_root_does_not_cancel(self, alpha):
        # A = 1/2, Q = 1: mu = 1, so the roots are large = (alpha + sqrt(alpha^2 - 4)) / 2
        # and 1 / large, which is 1 / alpha to a relative 1 / alpha^2
        rep = asvgd_linearized_spectrum(np.array([[0.5]]), np.array([[1.0]]), alpha)
        large = 0.5 * (alpha + np.sqrt(alpha * alpha - 4.0))
        assert rep["spectral_abscissa"] == pytest.approx(1.0 / large, rel=1e-14)
        assert rep["condition_number"] == pytest.approx(large * large, rel=1e-14)
        if alpha >= 1e8:
            assert rep["spectral_abscissa"] == pytest.approx(1.0 / alpha, rel=1e-14)

    def test_non_commuting_rejected(self):
        a = np.array([[1.0, 0.4], [0.4, 2.0]])
        with pytest.raises(ValueError, match="commute"):
            asvgd_linearized_spectrum(a, np.diag([1.0, 4.0]), 1.0)

    def test_damping_maximizes_spectral_abscissa(self):
        rng = np.random.default_rng(6)
        a, q = random_commuting_pair(rng, 2)
        alpha_star = optimal_damping(a)
        best = asvgd_closed_form_eigs(a, q, alpha_star).real.min()
        for alpha in np.geomspace(0.1 * alpha_star, 3.0 * alpha_star, 61):
            val = asvgd_closed_form_eigs(a, q, float(alpha)).real.min()
            assert val <= best + 1e-6


class TestOptimalDamping:
    def test_half_identity(self):
        assert optimal_damping(0.5 * np.eye(3)) == pytest.approx(2.0)

    def test_two_identity(self):
        assert optimal_damping(2.0 * np.eye(2)) == pytest.approx(4.0)

    def test_anisotropic_uses_min_eigenvalue(self):
        assert optimal_damping(np.diag([1.0, 9.0])) == pytest.approx(np.sqrt(8.0), rel=1e-12)


class TestRates:
    def test_perfect_conditioning(self):
        rho, _, ktil = asvgd_rates(np.eye(2), theta=0.5)
        assert rho == pytest.approx(0.0, abs=1e-15)
        assert ktil == pytest.approx(1.0)

    def test_reference_values(self):
        rho, h_star, ktil = asvgd_rates(np.diag([1.0, 4.0]), theta=1.0)
        assert ktil == pytest.approx(np.sqrt(17.0 / 8.0), rel=1e-12)
        assert rho == pytest.approx(0.18624, abs=5e-6)
        assert h_star == pytest.approx(2.0 / (np.sqrt(17.0 / 4.0) + np.sqrt(2.0)), rel=1e-12)

    def test_stiffness_formula(self):
        # mu values for A = theta I are theta (q_i/q_j + q_j/q_i)
        theta = 0.3
        q = np.diag([0.5, 2.0])
        mu = spectral._mode_stiffness(theta * np.eye(2), q)
        kappa = 4.0
        assert mu.max() == pytest.approx(theta * (kappa + 1.0 / kappa), rel=1e-12)
        assert mu.min() == pytest.approx(2.0 * theta, rel=1e-12)

    def test_scale_invariance_in_theta(self):
        q = random_spd(np.random.default_rng(7), 3, 0.4, 2.2)
        _, _, k1 = asvgd_rates(q, theta=0.7)
        _, _, k2 = asvgd_rates(q, theta=7.0)
        assert abs(k1 - k2) <= 1e-12

    def test_strict_improvement_over_sqrt_bound(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            q = random_spd(rng, 2, 0.1, 3.0)
            q_vals = np.linalg.eigvalsh(q)
            kappa = q_vals.max() / q_vals.min()
            rho, _, _ = asvgd_rates(q, theta=1.0)
            if kappa > 1.0 + 1e-9:
                assert rho < (np.sqrt(kappa) - 1.0) / (np.sqrt(kappa) + 1.0)


class TestEulerContraction:
    def test_identity_converges_in_one_step(self):
        fitted, _ = euler_contraction_check(np.eye(3), 1.0, 10)
        assert fitted == 0.0

    def test_classic_quadratic_rate(self):
        fitted, predicted = euler_contraction_check(np.diag([1.0, 4.0]), 2.0 / 5.0, 3000)
        assert predicted == pytest.approx(0.6, rel=1e-12)
        assert fitted == pytest.approx(0.6, abs=1e-3)

    def test_optimal_scalar_system_contraction(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            q, b = rng.uniform(0.3, 2.0), rng.uniform(-1.5, 1.5)
            a_star, h_star = optimal_a_svgd(b, q, mode="scalar-1d")
            m = svgd_linearized_matrix(np.array([[a_star]]), np.array([b]), np.array([[q]]))
            fitted, predicted = euler_contraction_check(m, h_star, 4000)
            analytic = abs(b) / np.sqrt(2.0 * q + b * b)
            assert predicted == pytest.approx(analytic, rel=1e-10)
            assert fitted == pytest.approx(predicted, abs=1e-3)

    def test_unstable_step_reported_not_raised(self):
        fitted, predicted = euler_contraction_check(np.diag([1.0, 4.0]), 1.0, 200)
        assert predicted >= 1.0
        assert fitted == pytest.approx(3.0, abs=1e-2)  # |1 - h*4| = 3 dominates


def test_sym_kron_sum_definition():
    rng = np.random.default_rng(10)
    m, n = rng.standard_normal((2, 2)), rng.standard_normal((2, 2))
    assert np.array_equal(sym_kron_sum(m, n), np.kron(m, n) + np.kron(n, m))
