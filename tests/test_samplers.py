import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from steinflow.diagnostics import empirical_moments
from steinflow.kernels import BilinearKernel, GaussianKernel
from steinflow.samplers import (
    ConstantDamping,
    ParticleEnsemble,
    RestartNesterov,
    SamplerConfig,
    asvgd_step,
    mala_step,
    run,
    svgd_step,
    ula_step,
    uld_step,
)
from steinflow.targets import CustomTarget, DoubleBananasTarget, GaussianTarget, QuarticTarget
from reference_impls import (
    dense_asvgd_step_gaussian,
    loop_double_sum_stat,
    loop_svgd_direction_gaussian,
    random_spd,
    reference_asvgd_step,
    reference_damping,
)


def gaussian_target(rng, d):
    return GaussianTarget(b=rng.standard_normal(d), q=random_spd(rng, d, 0.5, 1.5))


def random_ensemble(rng, n, d, momentum=True):
    ens = ParticleEnsemble.initialize(rng.standard_normal((n, d)))
    if momentum:
        ens.y = 0.3 * rng.standard_normal((n, d))
        ens.v = 0.5 * rng.standard_normal((n, d))
        ens.restart_count = rng.integers(1, 6, size=n)
        ens.prev_step_norms = rng.uniform(0.0, 0.2, size=n)
        ens.iteration = 3
    return ens


class TestEnsemble:
    def test_initialize(self):
        ens = ParticleEnsemble.initialize(np.ones((4, 2)))
        assert np.all(ens.y == 0.0) and np.all(ens.v == 0.0)
        assert np.all(ens.restart_count == 1)
        assert ens.iteration == 0

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            ParticleEnsemble.initialize(np.ones(4))

    def test_constant_damping_range(self):
        ConstantDamping(0.0)
        ConstantDamping(0.99)
        with pytest.raises(ValueError):
            ConstantDamping(1.0)
        with pytest.raises(ValueError):
            ConstantDamping(-0.1)

    def test_sampler_config_validation(self):
        t = QuarticTarget()
        with pytest.raises(ValueError):
            SamplerConfig(kernel=GaussianKernel(1.0), target=t, tau=0.0)
        with pytest.raises(ValueError):
            SamplerConfig(kernel=GaussianKernel(1.0), target=t, tau=0.1, eps=-1.0)

    def test_sampler_config_rejects_unknown_kernel(self):
        with pytest.raises(TypeError, match="unsupported kernel"):
            SamplerConfig(kernel=SimpleNamespace(sigma2=1.0), target=QuarticTarget(), tau=0.1)

    def test_bilinear_asvgd_step_needs_positive_eps(self):
        cfg = SamplerConfig(kernel=BilinearKernel(np.eye(2)), target=QuarticTarget(), tau=0.1, eps=0.0)
        with pytest.raises(ValueError, match="eps > 0"):
            asvgd_step(ParticleEnsemble.initialize(np.zeros((5, 2))), cfg)


class TestZeroMomentumReduction:
    def test_gaussian_kernel_first_step_is_scaled_plain_direction(self):
        rng = np.random.default_rng(0)
        target = gaussian_target(rng, 2)
        kernel = GaussianKernel(0.8)
        x0 = rng.standard_normal((6, 2))
        cfg = SamplerConfig(kernel=kernel, target=target, tau=0.09, eps=0.0,
                            damping=ConstantDamping(0.5))
        ens = asvgd_step(ParticleEnsemble.initialize(x0), cfg)
        assert np.allclose(ens.x, x0, atol=1e-15)  # step 1 moves nothing
        direction = loop_svgd_direction_gaussian(kernel, x0, target)
        assert np.abs(ens.y - np.sqrt(cfg.tau) * direction).max() <= 1e-12

    def test_bilinear_kernel_first_step_direction(self):
        rng = np.random.default_rng(1)
        target = gaussian_target(rng, 2)
        a = random_spd(rng, 2)
        kernel = BilinearKernel(a)
        x0 = rng.standard_normal((5, 2))
        cfg = SamplerConfig(kernel=kernel, target=target, tau=0.04, eps=0.1,
                            damping=ConstantDamping(0.5))
        ens = asvgd_step(ParticleEnsemble.initialize(x0), cfg)
        n = 5
        k = x0 @ a @ x0.T + 1.0
        g = target.grad_all(x0)
        direction = (n * x0 @ a - k @ g) / n
        assert np.allclose(ens.x, x0, atol=1e-15)
        assert np.abs(ens.y - np.sqrt(cfg.tau) * direction).max() <= 1e-12

    def test_single_particle_at_mean_is_stationary(self):
        target = GaussianTarget(b=np.array([0.0, 0.0]), q=np.eye(2))
        cfg = SamplerConfig(kernel=BilinearKernel(np.eye(2)), target=target,
                            tau=0.1, eps=0.1, damping=ConstantDamping(0.5))
        ens = asvgd_step(ParticleEnsemble.initialize(np.zeros((1, 2))), cfg)
        assert np.allclose(ens.x, 0.0)
        assert np.allclose(ens.y, 0.0, atol=1e-14)  # drive and interaction both vanish


class TestPlainStepReduction:
    def test_zero_damping_matches_plain_sequence(self):
        # with zero damping and no interaction term the accelerated sequence is
        # the plain one shifted by a step: x_{k+1} of the former is x_k of svgd_step
        rng = np.random.default_rng(2)
        target = gaussian_target(rng, 2)
        kernel = GaussianKernel(0.9)
        x0 = rng.standard_normal((6, 2))
        cfg = SamplerConfig(kernel=kernel, target=target, tau=0.05, eps=0.0,
                            damping=ConstantDamping(0.0))
        acc = ParticleEnsemble.initialize(x0)
        plain = ParticleEnsemble.initialize(x0)
        acc_states = [acc.x.copy()]
        plain_states = [plain.x.copy()]
        for _ in range(10):
            acc = dense_asvgd_step_gaussian(acc, cfg, include_interaction=False)
            acc_states.append(acc.x.copy())
            plain = svgd_step(plain, cfg)
            plain_states.append(plain.x.copy())
        for k in range(10):
            assert np.abs(acc_states[k + 1] - plain_states[k]).max() <= 1e-10


class TestMatrixFormAgainstLoops:
    @pytest.mark.parametrize("kernel_kind", ["gaussian", "bilinear"])
    @pytest.mark.parametrize("damping_kind", ["constant", "restart"])
    def test_step_matches_reference(self, kernel_kind, damping_kind):
        rng = np.random.default_rng(hash((kernel_kind, damping_kind)) % 2**32)
        for trial in range(6):
            n = int(rng.integers(2, 9))
            d = int(rng.integers(1, 4))
            target = gaussian_target(rng, d)
            if kernel_kind == "gaussian":
                kernel = GaussianKernel(float(rng.uniform(0.4, 2.0)))
            else:
                kernel = BilinearKernel(random_spd(rng, d))
            damping = ConstantDamping(0.6) if damping_kind == "constant" else RestartNesterov()
            cfg = SamplerConfig(kernel=kernel, target=target, tau=float(rng.uniform(0.01, 0.2)),
                                eps=0.1, damping=damping)
            ens = random_ensemble(rng, n, d)
            got = asvgd_step(ens, cfg)
            ref = reference_asvgd_step(ens, cfg)
            scale = max(1.0, np.abs(ref.y).max())
            assert np.abs(got.x - ref.x).max() <= 1e-10
            assert np.abs(got.v - ref.v).max() <= 1e-9 * max(1.0, np.abs(ref.v).max())
            assert np.abs(got.y - ref.y).max() <= 1e-10 * scale
            assert np.array_equal(got.restart_count, ref.restart_count)

    def test_plain_gaussian_step_matches_per_particle_sum(self):
        rng = np.random.default_rng(3)
        target = gaussian_target(rng, 2)
        kernel = GaussianKernel(0.7)
        x0 = rng.standard_normal((3, 2))
        cfg = SamplerConfig(kernel=kernel, target=target, tau=0.08)
        ens = svgd_step(ParticleEnsemble.initialize(x0), cfg)
        direction = loop_svgd_direction_gaussian(kernel, x0, target)
        assert np.allclose(ens.x, x0 + cfg.tau * direction, atol=1e-12)

    def test_plain_gaussian_single_particle_is_gradient_descent(self):
        rng = np.random.default_rng(4)
        target = gaussian_target(rng, 2)
        x0 = rng.standard_normal((1, 2))
        cfg = SamplerConfig(kernel=GaussianKernel(1.0), target=target, tau=0.1)
        ens = svgd_step(ParticleEnsemble.initialize(x0), cfg)
        assert np.allclose(ens.x, x0 - cfg.tau * target.grad_all(x0), rtol=1e-13)

    def test_plain_gaussian_identical_particles_at_mean_stay(self):
        target = GaussianTarget(b=np.array([0.5, -0.5]), q=np.eye(2))
        x0 = np.tile(target.b, (4, 1))
        cfg = SamplerConfig(kernel=GaussianKernel(0.5), target=target, tau=0.1)
        ens = svgd_step(ParticleEnsemble.initialize(x0), cfg)
        assert np.allclose(ens.x, x0, atol=1e-14)

    def test_plain_bilinear_small_kernel_limit(self):
        rng = np.random.default_rng(6)
        target = gaussian_target(rng, 2)
        x0 = rng.standard_normal((4, 2))
        theta = 1e-8
        cfg = SamplerConfig(kernel=BilinearKernel(theta * np.eye(2)), target=target, tau=0.1)
        ens = svgd_step(ParticleEnsemble.initialize(x0), cfg)
        k_limit = np.ones((4, 4))
        drift = -(cfg.tau / 4) * k_limit @ target.grad_all(x0)
        assert np.abs(ens.x - (x0 + drift)).max() <= 1e-6

    def test_plain_bilinear_scalar_hand_computation(self):
        # one particle pair in 1D with A = 0.5 and a unit Gaussian target
        target = GaussianTarget(b=np.zeros(1), q=np.eye(1))
        x0 = np.array([[1.0], [-2.0]])
        cfg = SamplerConfig(kernel=BilinearKernel(np.array([[0.5]])), target=target, tau=0.2)
        k = 0.5 * x0 @ x0.T + 1.0
        expect = x0 + (0.2 / 2.0) * (2.0 * x0 * 0.5 - k @ x0)  # grad f = x
        ens = svgd_step(ParticleEnsemble.initialize(x0), cfg)
        assert np.allclose(ens.x, expect, rtol=1e-13)


class TestThinProductsAgainstDenseInteraction:
    """The Gaussian step's K-times-thin-matrix products against the dense N x N form of W."""

    @pytest.mark.parametrize("n", [50, 400])
    @pytest.mark.parametrize("d", [1, 2, 5])
    @pytest.mark.parametrize("damping", [RestartNesterov(), ConstantDamping(0.6)], ids=["restart", "constant"])
    @pytest.mark.parametrize("include_interaction", [True, False])
    def test_step_matches_dense_form(self, n, d, damping, include_interaction):
        rng = np.random.default_rng(1000 * n + d)
        cfg = SamplerConfig(kernel=GaussianKernel(float(rng.uniform(0.5, 2.0))),
                            target=gaussian_target(rng, d), tau=0.05, eps=0.1, damping=damping)
        ens = random_ensemble(rng, n, d)
        got = asvgd_step(ens, cfg)
        ref = dense_asvgd_step_gaussian(ens, cfg, include_interaction=include_interaction)
        if include_interaction:
            assert np.abs(got.y - ref.y).max() <= 1e-11 * np.abs(ref.y).max()
        else:
            # without W's interaction part the momentum update past the damping
            # is the kernel's plain step taken with step size sqrt(tau)
            alpha, _ = reference_damping(ens, cfg, ref.prev_step_norms, ref.grad_stat < 0.0)
            g = cfg.target.grad_all(got.x)
            plain = cfg.kernel.plain_step(got.x, g, np.sqrt(cfg.tau)) - got.x
            drive = ref.y - alpha[:, None] * ens.y
            assert np.abs(plain - drive).max() <= 1e-11 * np.abs(drive).max()
        assert got.grad_stat == pytest.approx(ref.grad_stat, rel=1e-11)
        assert np.array_equal(got.restart_count, ref.restart_count)

    def test_peak_memory_of_one_step(self):
        n, d = 1000, 2
        rng = np.random.default_rng(5)
        cfg = SamplerConfig(kernel=GaussianKernel(1.0), target=gaussian_target(rng, d),
                            tau=0.05, eps=0.1, damping=ConstantDamping(0.9))
        ens = random_ensemble(rng, n, d)
        asvgd_step(random_ensemble(rng, 10, d), cfg)  # first-call imports and caches
        tracemalloc.start()
        try:
            asvgd_step(ens, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * 8 * n**2

    def test_peak_memory_factors_in_place(self):
        # K, K + eps I factored in place through its Fortran-order transpose,
        # and distance blocks of 2^16 entries: no third N x N array
        n, d = 1000, 2
        rng = np.random.default_rng(6)
        cfg = SamplerConfig(kernel=GaussianKernel(1.0), target=gaussian_target(rng, d),
                            tau=0.05, eps=0.1, damping=ConstantDamping(0.9))
        ens = random_ensemble(rng, n, d)
        asvgd_step(random_ensemble(rng, 10, d), cfg)  # first-call imports and caches
        tracemalloc.start()
        try:
            asvgd_step(ens, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 8 * n**2


class TestRestartLogic:
    def test_speed_restart_resets_and_increments(self):
        rng = np.random.default_rng(7)
        target = gaussian_target(rng, 2)
        cfg = SamplerConfig(kernel=GaussianKernel(1.0), target=target, tau=0.01, eps=0.1,
                            damping=RestartNesterov(use_speed=True, use_gradient=False))
        ens = random_ensemble(rng, 5, 2)
        step = np.linalg.norm(np.sqrt(cfg.tau) * ens.y, axis=1)
        ens.prev_step_norms = step + np.array([1.0, -0.5, 1.0, -0.5, 1.0]) * 0.5 * step
        counts_before = ens.restart_count.copy()
        out = asvgd_step(ens, cfg)
        slower = step < ens.prev_step_norms
        assert np.array_equal(out.restart_count[slower], np.ones(slower.sum(), dtype=int))
        assert np.array_equal(out.restart_count[~slower], counts_before[~slower] + 1)

    def test_first_step_increments(self):
        rng = np.random.default_rng(8)
        target = gaussian_target(rng, 2)
        cfg = SamplerConfig(kernel=GaussianKernel(1.0), target=target, tau=0.01, eps=0.1,
                            damping=RestartNesterov(use_speed=True, use_gradient=False))
        out = asvgd_step(ParticleEnsemble.initialize(rng.standard_normal((4, 2))), cfg)
        assert np.all(out.restart_count == 2)

    def test_damping_values_from_counts(self):
        rng = np.random.default_rng(9)
        target = gaussian_target(rng, 2)
        cfg = SamplerConfig(kernel=GaussianKernel(1.0), target=target, tau=0.01, eps=0.1,
                            damping=RestartNesterov(use_speed=False, use_gradient=False))
        ens = random_ensemble(rng, 3, 2, momentum=False)
        ens.restart_count = np.array([1, 2, 5])
        ens.y = np.zeros((3, 2))
        out = asvgd_step(ens, cfg)
        # counts increment to (2, 3, 6); alpha = (c-1)/(c+2) applied to the old (zero) momentum
        assert np.array_equal(out.restart_count, [2, 3, 6])

    def test_gradient_restart_resets_all(self):
        # a momentum field pointing against the descent direction rises in energy
        rng = np.random.default_rng(10)
        target = GaussianTarget(b=np.zeros(2), q=np.eye(2))
        kernel = GaussianKernel(1.0)
        x0 = rng.standard_normal((6, 2)) + np.array([3.0, 0.0])
        ens = ParticleEnsemble.initialize(x0)
        ens.restart_count = np.full(6, 4)
        ens.y = 0.5 * target.grad_all(x0)  # uphill
        cfg = SamplerConfig(kernel=kernel, target=target, tau=0.01, eps=0.01,
                            damping=RestartNesterov(use_speed=False, use_gradient=True))
        out = asvgd_step(ens, cfg)
        assert np.all(out.restart_count == 1)
        assert out.grad_stat < 0.0
        cfg_no = SamplerConfig(kernel=kernel, target=target, tau=0.01, eps=0.01,
                               damping=RestartNesterov(use_speed=False, use_gradient=False))
        out_no = asvgd_step(ens, cfg_no)
        assert np.all(out_no.restart_count == 5)
        assert out_no.grad_stat == out.grad_stat  # computed whether or not it may restart


class TestGradientRestartStat:
    """The statistic the accelerated Gaussian-kernel step stores in ``grad_stat``."""

    def test_zero_momentum_gives_zero(self):
        rng = np.random.default_rng(11)
        target = gaussian_target(rng, 2)
        cfg = SamplerConfig(kernel=GaussianKernel(0.5), target=target, tau=0.05, eps=0.1)
        out = asvgd_step(ParticleEnsemble.initialize(rng.standard_normal((5, 2))), cfg)
        assert np.all(out.v == 0.0)
        assert out.grad_stat == 0.0

    def test_single_particle_at_centered_mean(self):
        target = GaussianTarget(b=np.zeros(2), q=np.eye(2))
        cfg = SamplerConfig(kernel=GaussianKernel(1.0), target=target, tau=0.04, eps=0.1)
        y0 = np.array([[1.0, -2.0]])
        ens = ParticleEnsemble.initialize(-(np.sqrt(cfg.tau) * y0))
        ens.y = y0
        out = asvgd_step(ens, cfg)  # the position step lands exactly on the mean
        assert np.all(out.x == 0.0) and np.all(out.v != 0.0)
        assert out.grad_stat == pytest.approx(0.0, abs=1e-15)

    def test_matrix_form_matches_double_sum(self):
        rng = np.random.default_rng(12)
        target = gaussian_target(rng, 2)
        kernel = GaussianKernel(1.0)
        cfg = SamplerConfig(kernel=kernel, target=target, tau=0.05, eps=0.1)
        out = asvgd_step(random_ensemble(rng, 4, 2), cfg)
        got = out.grad_stat
        loop = loop_double_sum_stat(kernel, out.x, out.v, target)
        assert got == pytest.approx(-loop, rel=1e-10)
        # the raw trace form is the same quantity scaled by -(N^2 sigma2) at sigma2 = 1
        n = 4
        k = np.exp(-((out.x[:, None, :] - out.x[None, :, :]) ** 2).sum(-1) / 2.0)
        g = target.grad_all(out.x)
        trace_form = np.tensordot(out.v, k @ g + k @ out.x - k.sum(1)[:, None] * out.x)
        assert trace_form == pytest.approx(n**2 * loop, rel=1e-10)
        assert np.sign(trace_form) == -np.sign(got)

    def test_bilinear_step_leaves_it_unset(self):
        rng = np.random.default_rng(15)
        target = gaussian_target(rng, 2)
        cfg = SamplerConfig(kernel=BilinearKernel(np.eye(2)), target=target, tau=0.05, eps=0.1)
        assert np.isnan(ParticleEnsemble.initialize(np.zeros((3, 2))).grad_stat)
        assert np.isnan(asvgd_step(random_ensemble(rng, 5, 2), cfg).grad_stat)


class TestLangevin:
    def test_ula_zero_step_is_identity(self):
        cfg = SimpleNamespace(tau=0.0, target=QuarticTarget())
        x = np.random.default_rng(0).standard_normal((5, 2))
        out = ula_step(x, cfg, np.random.default_rng(1))
        assert np.array_equal(out, x)

    def test_ula_pure_diffusion_variance(self):
        zero_target = CustomTarget(lambda x: 0.0, lambda x: np.zeros_like(x), dim=1)
        cfg = SimpleNamespace(tau=0.05, target=zero_target)
        rng = np.random.default_rng(2)
        x = np.zeros((100_000, 1))
        for _ in range(10):
            x = ula_step(x, cfg, rng)
        var = x.var()
        expect = 2.0 * cfg.tau * 10
        assert abs(var - expect) <= 0.05 * expect

    def test_ula_stationary_variance_ar1(self):
        q = 0.8
        target = GaussianTarget(b=np.zeros(1), q=np.array([[q]]))
        tau = 0.05
        cfg = SimpleNamespace(tau=tau, target=target)
        rng = np.random.default_rng(3)
        x = rng.standard_normal((40_000, 1))
        for _ in range(400):
            x = ula_step(x, cfg, rng)
        expect = q / (1.0 - tau / (2.0 * q))  # AR(1) fixed point
        assert abs(x.var() - expect) <= 0.05 * expect

    def test_mala_accepts_everything_for_constant_potential(self):
        flat = CustomTarget(lambda x: 1.0, lambda x: np.zeros_like(x), dim=2)
        cfg = SimpleNamespace(tau=0.3, target=flat)
        rng = np.random.default_rng(4)
        _, accept = mala_step(rng.standard_normal((200, 2)), cfg, rng)
        assert accept.all()

    def test_mala_long_chain_mean(self):
        q = 1.3
        b = 0.7
        target = GaussianTarget(b=np.array([b]), q=np.array([[q]]))
        cfg = SimpleNamespace(tau=0.2, target=target)
        rng = np.random.default_rng(5)
        x = rng.standard_normal((4000, 1))
        for _ in range(400):
            x, _ = mala_step(x, cfg, rng)
        stderr = np.sqrt(q / 4000)
        assert abs(x.mean() - b) <= 3.0 * stderr

    def test_mala_rejects_on_steep_quartic(self):
        cfg = SimpleNamespace(tau=2.0, target=QuarticTarget())
        rng = np.random.default_rng(6)
        x = rng.standard_normal((500, 2)) * 2.0
        rates = []
        for _ in range(20):
            x, accept = mala_step(x, cfg, rng)
            rates.append(accept.mean())
        assert np.mean(rates) < 1.0

    def test_uld_zero_step_identity(self):
        cfg = SimpleNamespace(tau=0.0, target=QuarticTarget())
        rng = np.random.default_rng(7)
        x = rng.standard_normal((4, 2))
        p = rng.standard_normal((4, 2))
        x2, p2 = uld_step(x, p, cfg, rng)
        assert np.array_equal(x2, x) and np.array_equal(p2, p)

    def test_uld_momentum_decay_without_noise(self):
        class ZeroRng:
            def standard_normal(self, shape):
                return np.zeros(shape)

        zero_target = CustomTarget(lambda x: 0.0, lambda x: np.zeros_like(x), dim=2)
        cfg = SimpleNamespace(tau=0.1, target=zero_target)
        p = np.ones((3, 2))
        x = np.zeros((3, 2))
        for k in range(5):
            x, p = uld_step(x, p, cfg, ZeroRng())
            assert np.allclose(p, (1.0 - cfg.tau) ** (k + 1), rtol=1e-12)

    def test_uld_long_run_position_variance(self):
        q = 1.0
        target = GaussianTarget(b=np.zeros(1), q=np.array([[q]]))
        cfg = SimpleNamespace(tau=0.01, target=target)
        rng = np.random.default_rng(8)
        x = rng.standard_normal((20_000, 1))
        p = np.zeros_like(x)
        for _ in range(3000):
            x, p = uld_step(x, p, cfg, rng)
        assert abs(x.var() - q) <= 0.1 * q


class TestRun:
    def _cfg(self, algorithm, rng, **kw):
        target = gaussian_target(rng, 2)
        return SamplerConfig(kernel=GaussianKernel(0.5), target=target, tau=0.05, eps=0.1,
                             damping=RestartNesterov(), seed=kw.pop("seed", 7),
                             algorithm=algorithm, **kw)

    @staticmethod
    def _trajectory(cfg, x0, n_steps):
        traj = []
        final = run(cfg, x0, n_steps, recorder=lambda ens: traj.append(ens.x))
        assert traj[-1] is final.x
        return traj

    def test_zero_steps(self):
        rng = np.random.default_rng(9)
        cfg = self._cfg("asvgd", rng)
        x0 = rng.standard_normal((4, 2))
        traj = self._trajectory(cfg, x0, 0)
        assert len(traj) == 1 and np.array_equal(traj[0], x0)

    @pytest.mark.parametrize("algorithm", ["asvgd", "svgd", "ula", "mala", "uld"])
    def test_determinism(self, algorithm):
        rng = np.random.default_rng(10)
        cfg = self._cfg(algorithm, rng)
        x0 = rng.standard_normal((6, 2))
        t1 = self._trajectory(cfg, x0, 8)
        t2 = self._trajectory(cfg, x0, 8)
        assert len(t1) == len(t2) == 9
        for a, b in zip(t1, t2):
            assert np.array_equal(a, b)

    def test_recorder_contract(self):
        rng = np.random.default_rng(11)
        cfg = self._cfg("asvgd", rng)
        x0 = rng.standard_normal((4, 2))
        seen = []
        final = run(cfg, x0, 5, recorder=lambda ens: seen.append((ens.iteration, ens.x.shape)))
        assert [s[0] for s in seen] == list(range(6))
        assert all(s[1] == (4, 2) for s in seen)
        assert final.iteration == 5

    def test_unknown_algorithm(self):
        rng = np.random.default_rng(12)
        cfg = self._cfg("asvgd", rng)
        cfg.algorithm = "bogus"
        with pytest.raises(ValueError, match="bogus"):
            run(cfg, rng.standard_normal((3, 2)), 1)

    def test_step_error_carries_iteration(self):
        exploding = CustomTarget(lambda x: 0.0, lambda x: np.full_like(x, np.nan), dim=2)
        cfg = SamplerConfig(kernel=GaussianKernel(0.5), target=exploding, tau=0.1, eps=0.1,
                            damping=ConstantDamping(0.5), algorithm="asvgd")
        with pytest.raises(RuntimeError, match="iteration 1"):
            run(cfg, np.random.default_rng(0).standard_normal((3, 2)), 3)

    def test_singular_gram_reports_smallest_singular_value(self):
        # two coincident particles make the Gaussian Gram matrix singular at eps = 0
        x0 = np.array([[0.5, -0.2], [0.5, -0.2], [1.0, 1.0]])
        cfg = SamplerConfig(kernel=GaussianKernel(0.5), target=QuarticTarget(), tau=0.05, eps=0.0,
                            algorithm="asvgd")
        with pytest.raises(RuntimeError, match="iteration 1.*smallest singular value"):
            run(cfg, x0, 3)

    def test_singular_gram_value_is_of_the_unfactored_matrix(self):
        # the failed in-place factorization leaves a partial factor in its buffer,
        # whose smallest singular value (0.62 here) is not the Gram matrix's
        x0 = np.array([[0.5, -0.2], [0.5, -0.2], [1.0, 1.0]])
        cfg = SamplerConfig(kernel=GaussianKernel(0.5), target=QuarticTarget(), tau=0.05, eps=0.0,
                            algorithm="asvgd")
        with pytest.raises(RuntimeError) as info:
            run(cfg, x0, 3)
        smin = float(re.search(r"smallest singular value (\S+)\)", str(info.value)).group(1))
        assert smin <= 1e-12

    def test_diverging_langevin_run_fails_at_first_non_finite_position(self):
        # the steinflow-run config {"sampler": "ula", "target": "double-bananas",
        # "n_particles": 300, "tau": 0.01, "seed": 7}: one particle leaves the
        # floating-point range at iteration 9
        cfg = SamplerConfig(kernel=GaussianKernel(0.1), target=DoubleBananasTarget(), tau=0.01,
                            seed=7, algorithm="ula")
        rng = np.random.default_rng(7)
        x0 = rng.standard_normal((300, 2))
        # the overflow warnings on the way must not be what stops the run
        with np.errstate(all="ignore"):
            with pytest.raises(RuntimeError) as info:
                run(cfg, x0, 30, rng=rng)
        assert str(info.value) == "ula failed at iteration 9: non-finite positions at iteration 9"


class TestPermutationEquivariance:
    @pytest.mark.parametrize("kernel_kind", ["gaussian", "bilinear"])
    def test_asvgd_step_commutes_with_permutation(self, kernel_kind):
        rng = np.random.default_rng(13)
        d = 2
        target = gaussian_target(rng, d)
        kernel = GaussianKernel(0.8) if kernel_kind == "gaussian" else BilinearKernel(random_spd(rng, d))
        cfg = SamplerConfig(kernel=kernel, target=target, tau=0.05, eps=0.1,
                            damping=RestartNesterov())
        ens = random_ensemble(rng, 6, d)
        perm = rng.permutation(6)
        permuted = ParticleEnsemble(
            x=ens.x[perm], y=ens.y[perm], v=ens.v[perm],
            restart_count=ens.restart_count[perm],
            prev_step_norms=ens.prev_step_norms[perm], iteration=ens.iteration,
        )
        out_then_perm = asvgd_step(ens, cfg)
        perm_then_out = asvgd_step(permuted, cfg)
        assert np.allclose(perm_then_out.x, out_then_perm.x[perm], atol=1e-12)
        assert np.allclose(perm_then_out.y, out_then_perm.y[perm], atol=1e-11)
        assert np.array_equal(perm_then_out.restart_count, out_then_perm.restart_count[perm])

    def test_plain_step_commutes_with_permutation(self):
        rng = np.random.default_rng(14)
        target = gaussian_target(rng, 2)
        cfg = SamplerConfig(kernel=GaussianKernel(0.6), target=target, tau=0.08)
        ens = random_ensemble(rng, 7, 2, momentum=False)
        perm = rng.permutation(7)
        permuted = ParticleEnsemble.initialize(ens.x[perm])
        a = svgd_step(ens, cfg).x[perm]
        b = svgd_step(permuted, cfg).x
        assert np.allclose(a, b, atol=1e-12)
