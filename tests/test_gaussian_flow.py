import numpy as np
import pytest

from steinflow.config import ExperimentConfig
from steinflow.gaussian_flow import (
    AcceleratedGaussianState,
    GaussianState,
    asvgd_gaussian_rhs,
    closed_form_sigma,
    constant_damping,
    gamma_rate,
    integrate_rk4,
    kl_gaussians,
    svgd_gaussian_rhs,
)
from steinflow.kernels import BilinearKernel
from steinflow.targets import GaussianTarget
from reference_impls import (
    hamiltonian,
    kinetic_energy,
    kl_gradient,
    random_spd,
    stein_gaussian_metric_inverse,
)


def scalar_asvgd_rhs(mu, sig, nu, s, a, b, q, alpha):
    """Hand-expanded one-dimensional version of the accelerated moment flow."""
    dmu = 2 * s * sig * a * mu + (a * mu * mu + 1) * nu
    dsig = nu * mu * a * sig + sig * a * (2 * sig * s + mu * nu) + 2 * sig * a * sig * s
    dnu = -alpha * nu - 2 * a * sig * s * nu - a * mu * nu * nu - (mu - b) / q
    ds = -alpha * s - 2 * s * nu * mu * a - 4 * s * s * sig * a - 0.5 * (1 / q - 1 / sig)
    return dmu, dsig, dnu, ds


class TestSvgdRhs:
    def test_equilibrium(self):
        rng = np.random.default_rng(0)
        q = random_spd(rng, 2)
        b = rng.standard_normal(2)
        a = random_spd(rng, 2)
        dmu, dsig = svgd_gaussian_rhs(GaussianState(b, q), a, b, q)
        assert np.allclose(dmu, 0.0, atol=1e-14)
        assert np.allclose(dsig, 0.0, atol=1e-14)

    def test_centered_lyapunov_form(self):
        rng = np.random.default_rng(1)
        a, q, sigma = random_spd(rng, 3), random_spd(rng, 3), random_spd(rng, 3)
        state = GaussianState(np.zeros(3), sigma)
        _, dsig = svgd_gaussian_rhs(state, a, np.zeros(3), q)
        expect = sigma @ a @ (np.eye(3) - sigma @ np.linalg.inv(q))
        expect = expect + expect.T
        assert np.allclose(dsig, expect, rtol=1e-12)

    def test_scalar_example(self):
        state = GaussianState(np.zeros(1), np.array([[2.0]]))
        _, dsig = svgd_gaussian_rhs(state, np.array([[0.5]]), np.zeros(1), np.array([[1.0]]))
        assert dsig[0, 0] == pytest.approx(-2.0, rel=1e-14)

    def test_inverse_covariance_kernel_recovers_quadratic_transport(self):
        # with the time-dependent choice A = Sigma^-1 the centered flow collapses
        # to dSigma = 2 I - 2 Sym(Sigma Q^-1), the quadratic-cost transport flow
        rng = np.random.default_rng(21)
        q, sigma = random_spd(rng, 3), random_spd(rng, 3)
        state = GaussianState(np.zeros(3), sigma)
        _, dsig = svgd_gaussian_rhs(state, np.linalg.inv(sigma), np.zeros(3), q)
        m = sigma @ np.linalg.inv(q)
        reference = 2.0 * np.eye(3) - (m + m.T)
        assert np.allclose(dsig, reference, atol=1e-12)


class TestAsvgdRhs:
    def test_equilibrium(self):
        rng = np.random.default_rng(2)
        q = random_spd(rng, 2)
        b = rng.standard_normal(2)
        state = AcceleratedGaussianState(b, q)
        derivs = asvgd_gaussian_rhs(state, random_spd(rng, 2), b, q, alpha=1.0)
        for d in derivs:
            assert np.allclose(d, 0.0, atol=1e-14)

    def test_cold_start_charges_momentum_only(self):
        rng = np.random.default_rng(3)
        q, sigma, a = random_spd(rng, 2), random_spd(rng, 2), random_spd(rng, 2)
        mu, b = rng.standard_normal(2), rng.standard_normal(2)
        state = AcceleratedGaussianState(mu, sigma)
        dmu, dsig, dnu, ds = asvgd_gaussian_rhs(state, a, b, q, alpha=0.7)
        q_inv = np.linalg.inv(q)
        assert np.allclose(dmu, 0.0, atol=1e-14)
        assert np.allclose(dsig, 0.0, atol=1e-14)
        assert np.allclose(dnu, -q_inv @ (mu - b), rtol=1e-12)
        assert np.allclose(ds, -0.5 * (q_inv - np.linalg.inv(sigma)), rtol=1e-12)

    def test_matches_scalar_expansion(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            mu, nu = rng.standard_normal(2)
            sig, q, a = rng.uniform(0.3, 2.0, size=3)
            s, b = rng.standard_normal(2)
            alpha = rng.uniform(0.0, 2.0)
            state = AcceleratedGaussianState(np.array([mu]), np.array([[sig]]),
                                             np.array([nu]), np.array([[s]]))
            got = asvgd_gaussian_rhs(state, np.array([[a]]), np.array([b]), np.array([[q]]), alpha)
            expect = scalar_asvgd_rhs(mu, sig, nu, s, a, b, q, alpha)
            for g, e in zip(got, expect):
                assert np.asarray(g).ravel()[0] == pytest.approx(e, rel=1e-12, abs=1e-13)

    def test_negative_damping_rejected(self):
        state = AcceleratedGaussianState(np.zeros(1), np.eye(1))
        for alpha in (-0.1, np.nan, np.inf):
            with pytest.raises(ValueError, match="^damping must be nonnegative and finite"):
                asvgd_gaussian_rhs(state, np.eye(1), np.zeros(1), np.eye(1), alpha=alpha)


class TestMetricInverse:
    def test_linearity_at_zero(self):
        state = GaussianState(np.ones(2), np.eye(2) * 1.3)
        dmu, dsig = stein_gaussian_metric_inverse(state, np.zeros(2), np.zeros((2, 2)), np.eye(2))
        assert np.all(dmu == 0.0) and np.all(dsig == 0.0)

    def test_centered_specialization(self):
        rng = np.random.default_rng(5)
        sigma, a = random_spd(rng, 3), random_spd(rng, 3)
        s = random_spd(rng, 3) - np.eye(3)
        nu = rng.standard_normal(3)
        state = GaussianState(np.zeros(3), sigma)
        dmu, dsig = stein_gaussian_metric_inverse(state, nu, s, a)
        assert np.allclose(dmu, nu, rtol=1e-12)  # k(0, 0) = 1
        expect = 2.0 * (sigma @ a @ sigma @ s)
        expect = expect + expect.T
        assert np.allclose(dsig, expect, rtol=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_gradient_flow_consistency(self, d):
        rng = np.random.default_rng(60 + d)
        for _ in range(30):
            a, q, sigma = (random_spd(rng, d, 0.5, 2.0) for _ in range(3))
            mu, b = rng.standard_normal(d), rng.standard_normal(d)
            state = GaussianState(mu, sigma)
            gmu, gsig = kl_gradient(mu, sigma, b, q)
            mmu, msig = stein_gaussian_metric_inverse(state, gmu, gsig, a)
            rmu, rsig = svgd_gaussian_rhs(state, a, b, q)
            assert np.allclose(-mmu, rmu, atol=1e-12)
            assert np.allclose(-msig, rsig, atol=1e-12)


class TestKl:
    def test_identical_gaussians(self):
        rng = np.random.default_rng(6)
        q = random_spd(rng, 3)
        mu = rng.standard_normal(3)
        assert kl_gaussians(mu, q, mu, q) == pytest.approx(0.0, abs=1e-13)

    def test_scalar_value(self):
        got = kl_gaussians(np.zeros(1), np.eye(1), np.zeros(1), 2.0 * np.eye(1))
        assert got == pytest.approx(0.5 * (0.5 - 1.0 + np.log(2.0)), rel=1e-12)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(7)
        sigma, q = random_spd(rng, 3), random_spd(rng, 3)
        mu, nu = rng.standard_normal(3), rng.standard_normal(3)
        r, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        base = kl_gaussians(mu, sigma, nu, q)
        rotated = kl_gaussians(r @ mu, r @ sigma @ r.T, r @ nu, r @ q @ r.T)
        assert rotated == pytest.approx(base, rel=1e-10)

    def test_nonnegative(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            val = kl_gaussians(rng.standard_normal(2), random_spd(rng, 2),
                               rng.standard_normal(2), random_spd(rng, 2))
            assert val >= 0.0

    def test_non_spd_rejected(self):
        with pytest.raises(ValueError):
            kl_gaussians(np.zeros(2), -np.eye(2), np.zeros(2), np.eye(2))


# callers of spd_cholesky, each as a function of a 2 x 2 input matrix
SPD_INPUTS = {
    "BilinearKernel": BilinearKernel,
    "GaussianTarget": lambda m: GaussianTarget(np.zeros(2), m),
    "GaussianState": lambda m: GaussianState(np.zeros(2), m),
    "AcceleratedGaussianState": lambda m: AcceleratedGaussianState(np.zeros(2), m),
    "kl_gaussians": lambda m: kl_gaussians(np.zeros(2), m, np.zeros(2), np.eye(2)),
    "initial_distribution": lambda m: ExperimentConfig(target="quartic", init_cov=m.tolist()).initial_distribution(2),
}


@pytest.mark.parametrize("value", [np.inf, np.nan], ids=["inf", "nan"])
@pytest.mark.parametrize("build", SPD_INPUTS.values(), ids=SPD_INPUTS.keys())
def test_non_finite_matrix_rejected(build, value):
    # np.linalg.cholesky factors [[inf, 0], [0, 1]] without raising
    m = np.eye(2)
    m[0, 0] = value
    with pytest.raises(ValueError, match="must be finite$"):
        build(m)


class TestClosedForm:
    def test_time_zero(self):
        sigma0 = np.diag([2.0, 3.0])
        out = closed_form_sigma(0.0, sigma0, np.diag([1.0, 4.0]), np.diag([0.5, 0.25]))
        assert np.allclose(out, sigma0, rtol=1e-14)

    def test_long_time_limit(self):
        q = np.diag([1.0, 4.0])
        out = closed_form_sigma(1e3, np.diag([2.0, 3.0]), q, np.eye(2))
        assert np.allclose(out, q, atol=1e-10)

    def test_scalar_formula(self):
        out = closed_form_sigma(1.0, np.array([[2.0]]), np.array([[1.0]]), np.array([[0.5]]))
        assert out[0, 0] == pytest.approx(1.0 / (1.0 - 0.5 * np.exp(-1.0)), rel=1e-12)

    def test_non_commuting_rejected(self):
        sigma0 = np.array([[2.0, 0.5], [0.5, 1.0]])
        with pytest.raises(ValueError, match="commute"):
            closed_form_sigma(1.0, sigma0, np.diag([1.0, 4.0]), np.eye(2))


def _centered_rhs(a, q):
    def rhs(state):
        return svgd_gaussian_rhs(state, a, np.zeros(q.shape[0]), q)
    return rhs


class TestIntegrator:
    def test_zero_rhs_constant_trajectory(self):
        state0 = GaussianState(np.array([1.0]), np.array([[2.0]]))
        traj = integrate_rk4(lambda s: (np.zeros(1), np.zeros((1, 1))), state0, 1.0, 0.1)
        assert len(traj) == 11
        assert traj[-1][1].sigma[0, 0] == pytest.approx(2.0, rel=1e-14)

    def test_fourth_order_convergence(self):
        a = np.array([[0.5]])
        q = np.array([[1.0]])
        sigma0 = np.array([[2.0]])
        exact = closed_form_sigma(1.0, sigma0, q, a)[0, 0]
        errs = []
        for dt in (0.02, 0.01):
            traj = integrate_rk4(_centered_rhs(a, q), GaussianState(np.zeros(1), sigma0), 1.0, dt)
            errs.append(abs(traj[-1][1].sigma[0, 0] - exact))
        ratio = errs[0] / errs[1]
        assert 10.0 < ratio < 22.0

    def test_matches_closed_form(self):
        a = np.diag([0.5, 0.25])
        q = np.diag([1.0, 4.0])
        sigma0 = np.diag([2.0, 3.0])
        traj = integrate_rk4(_centered_rhs(a, q), GaussianState(np.zeros(2), sigma0), 1.0, 1e-3)
        t, state = traj[-1]
        assert np.abs(state.sigma - closed_form_sigma(t, sigma0, q, a)).max() < 1e-8

    def test_pd_loss_reports_time(self):
        def bad_rhs(state):
            return np.zeros(1), -np.array([[10.0]])
        with pytest.raises(FloatingPointError, match="positive definiteness at t"):
            integrate_rk4(bad_rhs, GaussianState(np.zeros(1), np.eye(1)), 1.0, 0.05)

    def test_nan_reports_time(self):
        def nan_rhs(state):
            return np.array([np.nan]), np.zeros((1, 1))
        with pytest.raises(FloatingPointError, match="non-finite"):
            integrate_rk4(nan_rhs, GaussianState(np.zeros(1), np.eye(1)), 1.0, 0.1)

    @pytest.mark.parametrize("t_end, dt, message", [
        (1.0, np.inf, "^dt must be positive and finite, got inf$"),
        (1.0, np.nan, "^dt must be positive and finite, got nan$"),
        (1.0, 0.0, "^dt must be positive and finite, got 0.0$"),
        (-1.0, 0.1, "^t_end must be nonnegative and finite, got -1.0$"),
        (np.inf, 0.1, "^t_end must be nonnegative and finite, got inf$"),
        (np.nan, 0.1, "^t_end must be nonnegative and finite, got nan$"),
    ], ids=["dt-inf", "dt-nan", "dt-zero", "t_end-negative", "t_end-inf", "t_end-nan"])
    def test_rejects_an_unusable_step_or_end(self, t_end, dt, message):
        def rhs(state):
            raise AssertionError("no step may run")
        with pytest.raises(ValueError, match=message):
            integrate_rk4(rhs, GaussianState(np.zeros(1), np.eye(1)), t_end, dt)

    def test_zero_end_time_returns_the_start_alone(self):
        state0 = GaussianState(np.zeros(1), np.eye(1))
        assert integrate_rk4(lambda s: (np.zeros(1), np.zeros((1, 1))), state0, 0.0, 0.1) == [(0.0, state0)]

    def test_kl_monotone_along_plain_flow(self):
        rng = np.random.default_rng(9)
        a, q = random_spd(rng, 2, 0.3, 1.0), random_spd(rng, 2, 0.8, 1.5)
        b = 0.3 * rng.standard_normal(2)
        state0 = GaussianState(b + 0.5 * rng.standard_normal(2), random_spd(rng, 2, 0.5, 2.0))
        traj = integrate_rk4(lambda s: svgd_gaussian_rhs(s, a, b, q), state0, 4.0, 2e-3)
        kls = [kl_gaussians(s.mu, s.sigma, b, q) for _, s in traj]
        diffs = np.diff(kls)
        assert np.all(diffs <= 1e-10)

    def test_hamiltonian_dissipation_constant_damping(self):
        rng = np.random.default_rng(10)
        a, q = random_spd(rng, 2, 0.4, 1.2), random_spd(rng, 2, 0.6, 1.4)
        b = rng.standard_normal(2) * 0.4
        state0 = AcceleratedGaussianState(b + rng.standard_normal(2), random_spd(rng, 2, 0.5, 2.0))
        traj = integrate_rk4(lambda s, al: asvgd_gaussian_rhs(s, a, b, q, al),
                             state0, 3.0, 1e-3, damping=constant_damping(2.0))
        hs = [hamiltonian(s, a, b, q) for _, s in traj]
        assert np.all(np.diff(hs) <= 1e-10)
        assert all(kinetic_energy(s, a) >= -1e-12 for _, s in traj[:: len(traj) // 20])

    def test_symmetry_preserved(self):
        rng = np.random.default_rng(11)
        a, q = random_spd(rng, 2), random_spd(rng, 2)
        b = rng.standard_normal(2)
        state0 = AcceleratedGaussianState(rng.standard_normal(2), random_spd(rng, 2))
        traj = integrate_rk4(lambda s, al: asvgd_gaussian_rhs(s, a, b, q, al),
                             state0, 1.0, 1e-2, damping=constant_damping(1.0))
        for _, s in traj:
            assert np.abs(s.sigma - s.sigma.T).max() <= 1e-12
            assert np.abs(s.s - s.s.T).max() <= 1e-12

    def test_exponential_envelope(self):
        # state norm kept below C exp(-2 (1 - 0.05) gamma t) with C fitted at t = 2
        rng = np.random.default_rng(12)
        a, q = random_spd(rng, 2, 0.25, 0.5), random_spd(rng, 2, 0.8, 1.3)
        b = 0.2 * rng.standard_normal(2)
        gamma, _ = gamma_rate(a, b, q)
        state0 = GaussianState(b + 0.4 * rng.standard_normal(2),
                               q + 0.3 * random_spd(rng, 2, 0.2, 0.8))
        traj = integrate_rk4(lambda s: svgd_gaussian_rhs(s, a, b, q), state0, 10.0, 2e-3)
        rate = 2.0 * 0.95 * gamma
        samples = [(t, s) for t, s in traj if t >= 2.0]
        t0, s0 = samples[0]
        c = (np.linalg.norm(s0.mu - b) + np.linalg.norm(s0.sigma - q)) * np.exp(rate * t0)
        for t, s in samples[:: max(1, len(samples) // 200)]:
            norm = np.linalg.norm(s.mu - b) + np.linalg.norm(s.sigma - q)
            assert norm <= c * np.exp(-rate * t) * (1.0 + 1e-6)


class TestGammaRate:
    def test_scalar_half(self):
        gamma, lb = gamma_rate(np.array([[0.5]]), np.zeros(1), np.array([[1.0]]))
        assert gamma == pytest.approx(0.5, abs=1e-12)
        assert gamma >= lb - 1e-12

    def test_centered_closed_form(self):
        # with b = 0 the block matrix is diagonal: min(lambda_min(A), 1 / (2 lambda_max(Q)))
        rng = np.random.default_rng(13)
        for _ in range(25):
            a, q = random_spd(rng, 2, 0.1, 3.0), random_spd(rng, 2, 0.2, 2.5)
            gamma, _ = gamma_rate(a, np.zeros(2), q)
            expect = min(np.linalg.eigvalsh(a).min(), 1.0 / (2.0 * np.linalg.eigvalsh(q).max()))
            assert gamma == pytest.approx(expect, abs=1e-10)

    def test_lower_bound_holds_generally(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            a, q = random_spd(rng, 2, 0.05, 4.0), random_spd(rng, 2, 0.1, 3.0)
            b = rng.standard_normal(2)
            gamma, lb = gamma_rate(a, b, q)
            assert gamma >= lb - 1e-12

    def test_scalar_eigenvalue_formula(self):
        # d = 1 block-matrix eigenvalues: A/2 + (1 + Ab^2 +- sqrt((1 + Ab^2 + 2AQ)^2 - 8AQ)) / (4Q)
        rng = np.random.default_rng(15)
        for _ in range(20):
            a = rng.uniform(0.1, 2.0)
            q = rng.uniform(0.2, 2.0)
            b = rng.uniform(-1.5, 1.5)
            gamma, _ = gamma_rate(np.array([[a]]), np.array([b]), np.array([[q]]))
            s = 1.0 + a * b * b
            root = np.sqrt((s + 2 * a * q) ** 2 - 8 * a * q)
            lam_min = a / 2.0 + (s - root) / (4.0 * q)
            assert gamma == pytest.approx(lam_min, rel=1e-10)

