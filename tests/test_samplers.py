import copy
import re
import tracemalloc
import warnings
from dataclasses import dataclass, fields, replace
from types import SimpleNamespace

import numpy as np
import pytest

from steinflow import samplers
from steinflow.config import parse_config
from steinflow.diagnostics import empirical_moments
from steinflow.kernels import BilinearKernel, GaussianKernel
from steinflow.samplers import (
    ALGORITHMS,
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
from steinflow.targets import CustomTarget, DoubleBananasTarget, GaussianTarget, QuarticTarget, builtin
from reference_impls import (
    dense_asvgd_step_gaussian,
    loop_double_sum_stat,
    loop_gram,
    loop_svgd_direction_gaussian,
    random_spd,
    reference_asvgd_step,
    reference_damping,
    unfused_bilinear_step,
    unfused_bilinear_terms,
)


def gaussian_target(rng, d):
    return GaussianTarget(b=rng.standard_normal(d), q=random_spd(rng, d, 0.5, 1.5))


def dense_density_momenta(kernel, x, y, eps):
    """V = N (K + eps I)^-1 Y, the density momenta of a step at positions x, by a dense solve."""
    n = x.shape[0]
    return n * np.linalg.solve(loop_gram(kernel, x) + eps * np.eye(n), y)


def random_ensemble(rng, n, d, momentum=True):
    ens = ParticleEnsemble.initialize(rng.standard_normal((n, d)))
    if momentum:
        ens.y = np.asfortranarray(0.3 * rng.standard_normal((n, d)))  # column-major, as a run keeps them
        rng.standard_normal((n, d))  # unused draw: keeps the seeded ensembles the tests were written against
        ens.restart_count = rng.integers(1, 6, size=n)
        ens.prev_step_norms = rng.uniform(0.0, 0.2, size=n)
        ens.iteration = 3
    return ens


class TestEnsemble:
    def test_initialize(self):
        ens = ParticleEnsemble.initialize(np.ones((4, 2)))
        assert np.all(ens.y == 0.0)
        names = {f.name for f in fields(ParticleEnsemble)}
        assert "v" not in names  # V is a per-step local, not state
        assert not {"f", "grad_f"} & names  # MALA's target values live in the run's workspace
        assert np.all(ens.restart_count == 1)
        assert ens.iteration == 0
        assert np.isnan(ens.grad_stat)  # no accelerated step has run

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

    @pytest.mark.parametrize("count, restarted, alpha",
                             [(1, False, 0.25), (3, False, 0.5), (7, False, 0.7), (7, True, 0.0)])
    def test_restart_damping_is_the_counter_schedule(self, count, restarted, alpha):
        # a counter k becomes c = k + 1, or 1 on a restart, and alpha = (c - 1) / (c + 2), the
        # r = 3 member of the (c - 1) / (c + r - 1) family: a float, and 0 on a restart
        ens = ParticleEnsemble.initialize(np.zeros((1, 2)))
        ens.restart_count = np.array([count])
        ens.prev_step_norms = np.array([1.0])
        got, counts = RestartNesterov().factor(ens, np.array([0.5 if restarted else 2.0]), 0.5)
        assert got.dtype == float and got.shape == (1, 1) and got[0, 0] == alpha
        assert counts[0] == (1 if restarted else count + 1)

    def test_sampler_config_validation(self):
        t = QuarticTarget()
        for tau in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="tau"):
                SamplerConfig(kernel=GaussianKernel(1.0), target=t, tau=tau)
        for eps in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="eps"):
                SamplerConfig(kernel=GaussianKernel(1.0), target=t, tau=0.1, eps=eps)

    def test_sampler_config_rejects_unknown_kernel(self):
        with pytest.raises(TypeError, match="unsupported kernel"):
            SamplerConfig(kernel=SimpleNamespace(sigma2=1.0), target=QuarticTarget(), tau=0.1)

    @pytest.mark.parametrize("damping", [0.9, None, SimpleNamespace(beta=0.9)], ids=["float", "none", "no-method"])
    def test_asvgd_config_rejects_a_damping_without_factor(self, damping):
        with pytest.raises(TypeError, match="unsupported damping"):
            SamplerConfig(kernel=GaussianKernel(1.0), target=QuarticTarget(), tau=0.1, damping=damping)
        # the other samplers never read the damping
        for algorithm in ("svgd", "mala"):
            SamplerConfig(kernel=GaussianKernel(1.0), target=QuarticTarget(), tau=0.1, damping=damping,
                          algorithm=algorithm)

    @pytest.mark.parametrize("algorithm", ["asvgd", "svgd"])
    def test_kernel_sampler_rejects_no_kernel(self, algorithm):
        with pytest.raises(TypeError, match="unsupported kernel None"):
            SamplerConfig(kernel=None, target=QuarticTarget(), tau=0.1, algorithm=algorithm)

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

    @staticmethod
    def _peak_of_one_step(seed):
        """tracemalloc peak, in bytes, of one Gaussian-kernel asvgd_step at N = 1000, d = 2."""
        n, d = 1000, 2
        rng = np.random.default_rng(seed)
        cfg = SamplerConfig(kernel=GaussianKernel(1.0), target=gaussian_target(rng, d),
                            tau=0.05, eps=0.1, damping=ConstantDamping(0.9))
        ens = random_ensemble(rng, n, d)
        asvgd_step(random_ensemble(rng, 10, d), cfg)  # first-call imports and caches
        tracemalloc.start()
        try:
            asvgd_step(ens, cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_memory_of_one_step(self):
        assert self._peak_of_one_step(5) <= 3.5 * 8 * 1000**2

    def test_peak_memory_factors_in_place(self):
        # K + eps I factored in place through its Fortran-order transpose,
        # and distance blocks of 2^16 entries: no third N x N array
        assert self._peak_of_one_step(6) <= 2.5 * 8 * 1000**2

    def test_peak_memory_one_buffer(self):
        # K and its factor share one N x N buffer, the distance blocks add
        # 2 * 2^16 entries, and the thin products are O(N d^2)
        assert self._peak_of_one_step(7) <= 1.3 * 8 * 1000**2


class TestRestartLogic:
    def test_speed_restart_resets_and_increments(self):
        # grad_stat = 0 is no gradient restart, so only the speed restart resets a counter
        rng = np.random.default_rng(7)
        ens = random_ensemble(rng, 5, 2)
        step = np.linalg.norm(0.1 * ens.y, axis=1)
        ens.prev_step_norms = step + np.array([1.0, -0.5, 1.0, -0.5, 1.0]) * 0.5 * step
        counts_before = ens.restart_count.copy()
        _, counts = RestartNesterov().factor(ens, step, 0.0)
        slower = step < ens.prev_step_norms
        assert np.array_equal(counts[slower], np.ones(slower.sum(), dtype=int))
        assert np.array_equal(counts[~slower], counts_before[~slower] + 1)

    def test_first_step_increments(self):
        # from rest: no step is shorter than the last (0), and the statistic is 0
        rng = np.random.default_rng(8)
        target = gaussian_target(rng, 2)
        cfg = SamplerConfig(kernel=GaussianKernel(1.0), target=target, tau=0.01, eps=0.1,
                            damping=RestartNesterov())
        out = asvgd_step(ParticleEnsemble.initialize(rng.standard_normal((4, 2))), cfg)
        assert np.all(out.restart_count == 2)

    def test_damping_values_from_counts(self):
        rng = np.random.default_rng(9)
        target = gaussian_target(rng, 2)
        cfg = SamplerConfig(kernel=GaussianKernel(1.0), target=target, tau=0.01, eps=0.1,
                            damping=RestartNesterov())
        ens = random_ensemble(rng, 3, 2, momentum=False)
        ens.restart_count = np.array([1, 2, 5])
        ens.y = np.zeros((3, 2))
        out = asvgd_step(ens, cfg)
        # from rest no restart fires (each step length 0 equals the last, and the statistic is 0):
        # counts increment to (2, 3, 6); alpha = (c-1)/(c+2) applied to the old (zero) momentum
        assert np.array_equal(out.restart_count, [2, 3, 6])

    @pytest.mark.parametrize("damping", [
        RestartNesterov(),
        parse_config('{"target": "quartic"}').build_damping(),
    ], ids=["default", "config"])
    @pytest.mark.parametrize("grad_stat", [0.5, -0.5])
    def test_damping_matches_the_reference_bit_for_bit(self, damping, grad_stat):
        # the integer counters give a float damping, not an integer array
        rng = np.random.default_rng(11)
        cfg = SamplerConfig(kernel=GaussianKernel(1.0), target=gaussian_target(rng, 2), tau=0.01, eps=0.1,
                            damping=damping)
        ens = random_ensemble(rng, 257, 2)
        step_norms = rng.uniform(0.0, 0.2, size=ens.x.shape[0])
        alpha, counts = damping.factor(ens, step_norms, grad_stat)
        expected_alpha, expected_counts = reference_damping(ens, cfg, step_norms, grad_stat < 0.0)
        assert_bits_equal(alpha[:, 0], expected_alpha)
        assert np.array_equal(counts, expected_counts)
        assert asvgd_step(ens, cfg).iteration == ens.iteration + 1

    @pytest.mark.parametrize("grad_stat", [0.5, -0.5])
    def test_constant_damping_is_beta_with_no_restart(self, grad_stat):
        rng = np.random.default_rng(12)
        ens = random_ensemble(rng, 9, 2)
        before = ens.restart_count.copy()
        alpha, counts = ConstantDamping(0.9).factor(ens, rng.uniform(0.0, 0.2, size=ens.x.shape[0]), grad_stat)
        assert alpha == 0.9 and np.array_equal(counts, before)

    @pytest.mark.parametrize("kernel", [GaussianKernel(1.0), BilinearKernel(np.eye(2))], ids=["gaussian", "bilinear"])
    def test_gradient_restart_resets_all(self, kernel):
        # a momentum field pointing against the descent direction rises in energy;
        # the start's last step lengths are 0, so no speed restart fires
        rng = np.random.default_rng(10)
        target = GaussianTarget(b=np.zeros(2), q=np.eye(2))
        x0 = rng.standard_normal((6, 2)) + np.array([3.0, 0.0])
        ens = ParticleEnsemble.initialize(x0)
        ens.restart_count = np.full(6, 4)
        ens.y = 0.5 * target.grad_all(x0)  # uphill
        cfg = SamplerConfig(kernel=kernel, target=target, tau=0.01, eps=0.01, damping=RestartNesterov())
        out = asvgd_step(ens, cfg)
        assert np.all(out.restart_count == 1)
        assert out.grad_stat < 0.0


class TestGradientRestartStat:
    """The statistic the accelerated step stores in ``grad_stat``."""

    def test_zero_momentum_gives_zero(self):
        rng = np.random.default_rng(11)
        target = gaussian_target(rng, 2)
        cfg = SamplerConfig(kernel=GaussianKernel(0.5), target=target, tau=0.05, eps=0.1)
        ens = ParticleEnsemble.initialize(rng.standard_normal((5, 2)))
        out = asvgd_step(ens, cfg)
        assert np.all(dense_density_momenta(cfg.kernel, out.x, ens.y, cfg.eps) == 0.0)
        assert out.grad_stat == 0.0

    def test_single_particle_at_centered_mean(self):
        target = GaussianTarget(b=np.zeros(2), q=np.eye(2))
        cfg = SamplerConfig(kernel=GaussianKernel(1.0), target=target, tau=0.04, eps=0.1)
        y0 = np.array([[1.0, -2.0]])
        ens = ParticleEnsemble.initialize(-(np.sqrt(cfg.tau) * y0))
        ens.y = y0
        out = asvgd_step(ens, cfg)  # the position step lands exactly on the mean
        assert np.all(out.x == 0.0) and np.all(dense_density_momenta(cfg.kernel, out.x, y0, cfg.eps) != 0.0)
        assert out.grad_stat == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("kernel_kind", ["gaussian", "bilinear"])
    def test_matrix_form_matches_double_sum(self, kernel_kind):
        rng = np.random.default_rng(12)
        target = gaussian_target(rng, 2)
        kernel = GaussianKernel(1.0) if kernel_kind == "gaussian" else BilinearKernel(random_spd(rng, 2))
        cfg = SamplerConfig(kernel=kernel, target=target, tau=0.05, eps=0.1)
        ens = random_ensemble(rng, 4, 2)
        out = asvgd_step(ens, cfg)
        got = out.grad_stat
        v = dense_density_momenta(kernel, out.x, ens.y, cfg.eps)
        loop = loop_double_sum_stat(kernel, out.x, v, target)
        assert got == pytest.approx(-loop, rel=1e-10)
        # the raw trace form tr(V^T K G) - sum_j <V_j, sum_i grad2_k(X_j, X_i)> is N^2 times the
        # double sum: grad2_k(x, y) is (x - y) k(x, y) at sigma2 = 1, and A x for the bilinear kernel
        n = 4
        g = target.grad_all(out.x)
        if kernel_kind == "gaussian":
            k = np.exp(-((out.x[:, None, :] - out.x[None, :, :]) ** 2).sum(-1) / 2.0)
            repulsion = k @ out.x - k.sum(1)[:, None] * out.x
        else:
            k = out.x @ kernel.a @ out.x.T + 1.0
            repulsion = -n * out.x @ kernel.a
        trace_form = np.tensordot(v, k @ g + repulsion)
        assert trace_form == pytest.approx(n**2 * loop, rel=1e-10)
        assert np.sign(trace_form) == -np.sign(got)


def langevin_ensemble(x, p=None):
    ens = ParticleEnsemble.initialize(x)
    return ens if p is None else replace(ens, y=np.array(p, dtype=float))


class TestLangevin:
    def test_ula_zero_step_is_identity(self):
        cfg = SimpleNamespace(tau=0.0, target=QuarticTarget())
        x = np.random.default_rng(0).standard_normal((5, 2))
        out = ula_step(langevin_ensemble(x), cfg, np.random.default_rng(1))
        assert np.array_equal(out.x, x)
        assert out.iteration == 1 and np.all(out.prev_step_norms == 0.0)

    def test_ula_pure_diffusion_variance(self):
        zero_target = CustomTarget(lambda x: 0.0, lambda x: np.zeros_like(x), dim=1)
        cfg = SimpleNamespace(tau=0.05, target=zero_target)
        rng = np.random.default_rng(2)
        ens = langevin_ensemble(np.zeros((100_000, 1)))
        for _ in range(10):
            ens = ula_step(ens, cfg, rng)
        var = ens.x.var()
        expect = 2.0 * cfg.tau * 10
        assert abs(var - expect) <= 0.05 * expect

    def test_ula_stationary_variance_ar1(self):
        q = 0.8
        target = GaussianTarget(b=np.zeros(1), q=np.array([[q]]))
        tau = 0.05
        cfg = SimpleNamespace(tau=tau, target=target)
        rng = np.random.default_rng(3)
        ens = langevin_ensemble(rng.standard_normal((40_000, 1)))
        for _ in range(400):
            ens = ula_step(ens, cfg, rng)
        expect = q / (1.0 - tau / (2.0 * q))  # AR(1) fixed point
        assert abs(ens.x.var() - expect) <= 0.05 * expect

    def test_mala_accepts_everything_for_constant_potential(self):
        flat = CustomTarget(lambda x: 1.0, lambda x: np.zeros_like(x), dim=2)
        cfg = SimpleNamespace(tau=0.3, target=flat)
        rng = np.random.default_rng(4)
        ens = langevin_ensemble(rng.standard_normal((200, 2)))
        out = mala_step(ens, cfg, rng)
        assert np.any(out.x != ens.x, axis=1).all()

    def test_mala_long_chain_mean(self):
        q = 1.3
        b = 0.7
        target = GaussianTarget(b=np.array([b]), q=np.array([[q]]))
        cfg = SimpleNamespace(tau=0.2, target=target)
        rng = np.random.default_rng(5)
        ens = langevin_ensemble(rng.standard_normal((4000, 1)))
        for _ in range(400):
            ens = mala_step(ens, cfg, rng)
        stderr = np.sqrt(q / 4000)
        assert abs(ens.x.mean() - b) <= 3.0 * stderr

    def test_mala_rejects_on_steep_quartic(self):
        cfg = SimpleNamespace(tau=2.0, target=QuarticTarget())
        rng = np.random.default_rng(6)
        ens = langevin_ensemble(rng.standard_normal((500, 2)) * 2.0)
        rates = []
        for _ in range(20):
            # the proposal drawn from a copy of the generator in the step's own arithmetic
            x, tau = ens.x, cfg.tau
            proposal = (x - tau * cfg.target.grad_all(x)
                        + np.sqrt(2.0 * tau) * copy.deepcopy(rng).standard_normal(x.shape))
            out = mala_step(ens, cfg, rng)
            accepted = np.any(out.x != x, axis=1)
            assert np.array_equal(out.x[accepted], proposal[accepted])
            rates.append(accepted.mean())
            ens = out
        assert np.mean(rates) < 1.0  # some rows kept their previous values exactly

    def test_uld_zero_step_identity(self):
        cfg = SimpleNamespace(tau=0.0, target=QuarticTarget())
        rng = np.random.default_rng(7)
        x = rng.standard_normal((4, 2))
        p = rng.standard_normal((4, 2))
        out = uld_step(langevin_ensemble(x, p), cfg, rng)
        assert np.array_equal(out.x, x) and np.array_equal(out.y, p)

    def test_uld_momentum_decay_without_noise(self):
        class ZeroRng:
            def standard_normal(self, shape):
                return np.zeros(shape)

        zero_target = CustomTarget(lambda x: 0.0, lambda x: np.zeros_like(x), dim=2)
        cfg = SimpleNamespace(tau=0.1, target=zero_target)
        ens = langevin_ensemble(np.zeros((3, 2)), np.ones((3, 2)))
        for k in range(5):
            ens = uld_step(ens, cfg, ZeroRng())
            assert np.allclose(ens.y, (1.0 - cfg.tau) ** (k + 1), rtol=1e-12)

    def test_uld_long_run_position_variance(self):
        q = 1.0
        target = GaussianTarget(b=np.zeros(1), q=np.array([[q]]))
        cfg = SimpleNamespace(tau=0.01, target=target)
        rng = np.random.default_rng(8)
        ens = langevin_ensemble(rng.standard_normal((20_000, 1)))
        for _ in range(3000):
            ens = uld_step(ens, cfg, rng)
        assert abs(ens.x.var() - q) <= 0.1 * q


def assert_bits_equal(a, b):
    assert a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def frames_started(monkeypatch):
    """The list of the affine frames that runs start from now on, in order."""
    frames = []
    start = samplers._AffineFrame.start

    def keep(ens):
        frames.append(start(ens))
        return frames[-1]

    monkeypatch.setattr(samplers._AffineFrame, "start", staticmethod(keep))
    return frames


class CountingTarget:
    """A target that counts its batched evaluations."""

    def __init__(self, inner):
        self.inner = inner
        self.dim = inner.dim
        self.calls = {"potential_all": 0, "grad_all": 0}

    def potential_all(self, x):
        self.calls["potential_all"] += 1
        return self.inner.potential_all(x)

    def grad_all(self, x):
        self.calls["grad_all"] += 1
        return self.inner.grad_all(x)


class TestMalaTargetValues:
    """MALA leaves f and grad_f of its positions in the run's workspace for the next step."""

    @pytest.mark.parametrize("target", [GaussianTarget(b=[0.5, -0.2], q=[[1.0, 0.3], [0.3, 0.5]]),
                                        QuarticTarget(), DoubleBananasTarget()],
                             ids=["gaussian", "quartic", "double-bananas"])
    def test_carried_values_change_no_bit(self, target):
        cfg = SimpleNamespace(tau=0.08, target=target)
        rng = np.random.default_rng(17)
        ens = langevin_ensemble(rng.standard_normal((300, 2)))
        work = {}
        for _ in range(6):
            ens = mala_step(ens, cfg, rng, work)
            x, f, g = work["mala"]
            assert x is ens.x and g.flags.f_contiguous
            assert_bits_equal(f, target.potential_all(ens.x))
            assert_bits_equal(g, target.grad_all(ens.x))
            kept = copy.deepcopy(work["mala"])
            carried_work = dict(work)
            carried = mala_step(ens, cfg, copy.deepcopy(rng), carried_work)
            fresh_work = {}
            fresh = mala_step(ens, cfg, copy.deepcopy(rng), fresh_work)
            for name in ("x", "prev_step_norms"):
                assert_bits_equal(getattr(carried, name), getattr(fresh, name))
            for got, expected in zip(carried_work["mala"][1:], fresh_work["mala"][1:]):
                assert_bits_equal(got, expected)
            # the step put a new entry and wrote no array of the old one
            assert work["mala"][0] is x
            for got, expected in zip(work["mala"], kept):
                assert_bits_equal(got, expected)

    def test_run_evaluates_the_target_once_per_step(self):
        target = CountingTarget(DoubleBananasTarget())
        cfg = SimpleNamespace(tau=0.05, target=target, algorithm="mala", seed=3)
        run(cfg, np.random.default_rng(18).standard_normal((50, 2)), 20)
        assert target.calls == {"potential_all": 21, "grad_all": 21}

    def test_one_evaluation_per_step_after_the_first(self):
        target = CountingTarget(DoubleBananasTarget())
        cfg = SimpleNamespace(tau=0.05, target=target)
        rng = np.random.default_rng(18)
        ens = langevin_ensemble(rng.standard_normal((50, 2)))
        work = {}
        ens = mala_step(ens, cfg, rng, work)
        assert target.calls == {"potential_all": 2, "grad_all": 2}
        for k in range(1, 5):
            ens = mala_step(ens, cfg, rng, work)
            assert target.calls == {"potential_all": 2 + k, "grad_all": 2 + k}

    def test_values_of_other_positions_are_not_read(self):
        target = CountingTarget(QuarticTarget())
        cfg = SimpleNamespace(tau=0.05, target=target)
        rng = np.random.default_rng(19)
        work = {}
        ens = mala_step(langevin_ensemble(rng.standard_normal((10, 2))), cfg, rng, work)

        def evaluations(step, current, work):
            before = target.calls["grad_all"]
            out = step(current, cfg, rng, work)
            return target.calls["grad_all"] - before, out

        # equal positions in another array
        assert evaluations(mala_step, replace(ens, x=ens.x.copy()), work)[0] == 2
        # a direct call without a workspace
        assert evaluations(mala_step, ens, None)[0] == 2
        # a step of another sampler in between
        _, moved = evaluations(ula_step, ens, work)
        assert evaluations(mala_step, moved, work)[0] == 2


class TestBilinearStepInPlace:
    """The bilinear step fills its arrays in place and changes no bit of the unfused form."""

    @pytest.mark.parametrize("damping", [ConstantDamping(0.9), RestartNesterov()], ids=["constant", "restart"])
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("n", [2, 257, 5000])
    def test_matches_the_unfused_step_bit_for_bit(self, n, d, damping):
        rng = np.random.default_rng(n + 10 * d)
        kernel = BilinearKernel(random_spd(rng, d))
        ens = random_ensemble(rng, n, d)
        g = rng.standard_normal((n, d))
        for got, expected in zip(kernel.accelerated_terms(ens.x, ens.y, g, 0.1, 0.05),
                                 unfused_bilinear_terms(kernel, ens.x, ens.y, g, 0.1, 0.05)):
            assert_bits_equal(np.asarray(got), np.asarray(expected))
        for algorithm, step in (("asvgd", asvgd_step), ("svgd", svgd_step)):
            cfg = SamplerConfig(kernel=kernel, target=gaussian_target(rng, d), tau=0.05, eps=0.1,
                                damping=damping, algorithm=algorithm)
            got, expected = step(ens, cfg), unfused_bilinear_step(ens, cfg)
            for name in ("x", "y", "prev_step_norms"):
                assert_bits_equal(getattr(got, name), getattr(expected, name))
            assert np.array_equal(got.restart_count, expected.restart_count)
            assert got.iteration == expected.iteration
            assert_bits_equal(np.asarray(got.grad_stat), np.asarray(expected.grad_stat))

    @pytest.mark.parametrize("damping", [ConstantDamping(0.9), RestartNesterov()], ids=["constant", "restart"])
    def test_stays_close_to_the_c_order_expressions(self, damping):
        # the step as written before the ensemble was column-major, on C-order copies
        n, d = 5000, 2
        rng = np.random.default_rng(37)
        kernel = BilinearKernel(random_spd(rng, d))
        ens = random_ensemble(rng, n, d)
        cfg = SamplerConfig(kernel=kernel, target=gaussian_target(rng, d), tau=0.05, eps=0.1, damping=damping)
        got = asvgd_step(ens, cfg)
        x, y = np.ascontiguousarray(ens.x), np.ascontiguousarray(ens.y)
        st = np.sqrt(cfg.tau)
        x_new = x + st * y
        g = (x_new - cfg.target.b) @ cfg.target.q_inv
        u = np.hstack([x_new @ kernel.chol_a, np.ones((n, 1))])
        c = np.linalg.solve(cfg.eps * np.eye(d + 1) + u.T @ u, u.T @ y)
        kg = u @ (u.T @ g)
        push = np.sqrt(cfg.tau) * (1.0 + np.linalg.norm(c) ** 2) * (x_new @ kernel.a)
        grad_stat = -(np.tensordot(c, u.T @ g) - n * np.tensordot(c[:d], kernel.chol_a.T)) / n
        alpha, _ = reference_damping(ens, cfg, np.linalg.norm(x_new - x, axis=1), grad_stat < 0.0)
        y_new = alpha[:, None] * y - (st / n) * kg + push
        for new, old in ((got.x, x_new), (got.y, y_new)):
            assert np.abs(new - old).max() <= 1e-12 * np.abs(old).max()


class TestBilinearWorkspace:
    """The bilinear step's N-row scratch arrays live in the run's workspace, and none escapes into an ensemble."""

    @staticmethod
    def _cfg(rng, d, damping):
        return SamplerConfig(kernel=BilinearKernel(random_spd(rng, d)), target=gaussian_target(rng, d),
                             tau=0.01, eps=0.1, damping=damping)

    @staticmethod
    def _steady_peaks(damping):
        """tracemalloc peak of each step after the first of a bilinear run at N = 20 000, d = 2, in N x d arrays."""
        n, d = 20_000, 2
        rng = np.random.default_rng(41)
        cfg = TestBilinearWorkspace._cfg(rng, d, damping)
        x0 = rng.standard_normal((n, d))
        run(cfg, x0[:10], 1)  # first-call imports and caches
        peaks = []

        def record(ens):
            current, peak = tracemalloc.get_traced_memory()
            if ens.iteration > 0:
                peaks.append((peak - record.start) / (8 * n * d))
            record.start = current
            tracemalloc.reset_peak()

        tracemalloc.start()
        try:
            run(cfg, x0, 6, recorder=record)
        finally:
            tracemalloc.stop()
        # the first step allocates the workspace
        return peaks[1:]

    def test_steps_after_the_first_allocate_at_most_four_arrays(self):
        # constant damping, as in the large bilinear benchmark run: each step
        # allocates the new ensemble's x, y and step lengths (2.5 arrays) and
        # its short-lived temporaries
        peaks = self._steady_peaks(ConstantDamping(0.9))
        assert max(peaks) <= 4, peaks

    def test_restart_damped_steps_allocate_at_most_four_and_a_half_arrays(self):
        # the counter schedule adds the new counters and an N x 1 damping column,
        # built in place
        peaks = self._steady_peaks(RestartNesterov())
        assert max(peaks) <= 4.5, peaks

    def test_no_workspace_array_reaches_an_ensemble(self, monkeypatch):
        # a restart-damped run keeps its scratch arrays in the workspace; a
        # constant-damped one steps its frame without asvgd_step on a Gaussian
        # target and takes the particle path on any other; so does a damping
        # with a scalar ``factor`` that is no ConstantDamping
        @dataclass(frozen=True)
        class ScalarDamping:
            beta: float

            def factor(self, ens, step_norms, grad_stat):
                return self.beta, ens.restart_count

        workspaces = []
        original = samplers.asvgd_step

        def keep_workspace(ens, cfg, rng, work):
            workspaces.append(work)
            return original(ens, cfg, rng, work)

        monkeypatch.setattr(samplers, "asvgd_step", keep_workspace)
        frames = frames_started(monkeypatch)
        for damping, target in ((RestartNesterov(), None), (ConstantDamping(0.9), None),
                                (ConstantDamping(0.9), QuarticTarget()), (ScalarDamping(0.9), None)):
            framed = isinstance(damping, ConstantDamping) and target is None
            rng = np.random.default_rng(42)
            cfg = self._cfg(rng, 2, damping)
            cfg = cfg if target is None else replace(cfg, target=target)
            workspaces.clear()
            frames.clear()
            kept = []
            run(cfg, rng.standard_normal((300, 2)), 10,
                recorder=lambda ens: kept.append((ens, copy.deepcopy(ens))))
            assert len(kept) == 11
            assert len(workspaces) == (0 if framed else 10)
            assert len(frames) == framed
            scratch = [buf for work in workspaces[:1] for buf in work.values() if isinstance(buf, np.ndarray)]
            assert scratch or framed
            for frame in frames:
                scratch += [frame.p, frame.pp, frame.w, frame.v, frame.v_prev]
            for ens, snapshot in kept:
                for name in ("x", "y", "prev_step_norms"):
                    assert_bits_equal(getattr(ens, name), getattr(snapshot, name))
                    assert not any(np.shares_memory(getattr(ens, name), buf) for buf in scratch)

    def test_low_rank_factor_overwrites_a_kept_u(self):
        # a workspace "u" of the right shape is reused whatever it holds
        rng = np.random.default_rng(44)
        kernel = BilinearKernel(random_spd(rng, 2))
        x = np.asfortranarray(rng.standard_normal((300, 2)))
        fresh = kernel.low_rank_factor(x, {}).copy()
        work = {"u": np.full((300, 3), np.nan, order="F")}
        u = kernel.low_rank_factor(x, work)
        assert u is work["u"]
        assert np.array_equal(u[:, -1], np.ones(300))
        assert_bits_equal(u, fresh)

    def test_a_direct_step_matches_the_step_inside_run(self):
        rng = np.random.default_rng(43)
        cfg = self._cfg(rng, 2, RestartNesterov())
        kept = []
        run(cfg, rng.standard_normal((300, 2)), 10, recorder=kept.append)
        for before, after in zip(kept, kept[1:]):
            direct = asvgd_step(before, cfg)
            for name in ("x", "y", "prev_step_norms"):
                assert_bits_equal(getattr(direct, name), getattr(after, name))
            assert np.array_equal(direct.restart_count, after.restart_count)
            assert_bits_equal(np.asarray(direct.grad_stat), np.asarray(after.grad_stat))


def log_cosh_target():
    """A non-Gaussian CustomTarget: f(x) = sum(log cosh x) + 0.1 |x|^2, evaluated row by row."""
    return CustomTarget(lambda p: float(np.sum(np.log(np.cosh(p))) + 0.1 * p @ p),
                        lambda p: np.tanh(p) + 0.2 * p, dim=2)


def frame_target(name):
    """The built-in target ``name``, or ``log_cosh_target()`` for "custom"."""
    return log_cosh_target() if name == "custom" else builtin(name)


def has_frame(target):
    """Whether a constant-damped bilinear run on ``target`` steps in its affine frame."""
    return callable(getattr(target, "frame_gradient", None))


# (target, tau, steps) of the constant-damped bilinear runs checked against
# direct particle steps; tau = 0.01 diverges on gauss-aniso and double-bananas
FRAME_RUNS = [("gauss-correlated", 0.01, 200), ("quartic", 0.01, 200), ("gauss-aniso", 0.001, 100),
              ("double-bananas", 0.001, 100), ("custom", 0.01, 40)]


class TestAffineFrame:
    """A constant-damped bilinear run steps in the frame [X0 | 1] of its start on a Gaussian target, else the particle path.

    The frame forms X, Y and the force as products of P = [X0 | 1] with
    (d+1) x d coefficients, so it agrees with the particle path to rounding,
    not bit for bit.  It steps the coefficients alone between the records,
    so the runs that record every 10th iteration check that path.  The
    tolerances are normwise: X against |X| at that step, and the momenta and
    step lengths against their largest norm so far, since both fall towards
    0 as a run converges while their rounding stays at the scale of the
    terms they are summed from.  On a target without ``frame_gradient`` the
    run takes the particle steps themselves, so it matches them bit for bit.
    """

    @staticmethod
    def _runs(target, n, tau, n_steps, seed, beta=0.9, every=1):
        """A constant-damped bilinear ``run``, recording every ``every``-th iteration, and a loop of direct ``asvgd_step`` calls from one start.

        Each is the list of its ensembles, the direct loop's up to and with
        the step that failed; the failure, if any, is the run's cause and the
        direct step's error.  The run starts one frame if the target has
        ``frame_gradient``, and none otherwise.
        """
        rng = np.random.default_rng(seed)
        cfg = SamplerConfig(kernel=BilinearKernel(random_spd(rng, 2)), target=target, tau=tau, eps=0.1,
                            damping=ConstantDamping(beta))
        x0 = rng.standard_normal((n, 2))
        recorded, particle, failures = [], [ParticleEnsemble.initialize(x0)], [None, None]
        with pytest.MonkeyPatch.context() as mp:
            frames = frames_started(mp)
            try:
                run(cfg, x0, n_steps, recorder=recorded.append, record_iters=range(0, n_steps + 1, every))
            except RuntimeError as exc:
                failures[0] = (int(re.search(r"iteration (\d+):", str(exc)).group(1)), exc.__cause__)
        for _ in range(n_steps):
            try:
                particle.append(asvgd_step(particle[-1], cfg))
            except Exception as exc:
                failures[1] = (particle[-1].iteration + 1, exc)
                break
        assert len(frames) == has_frame(target)
        return recorded, particle, failures

    @staticmethod
    def _assert_matches(recorded, particle, target):
        """Each recorded ensemble against the direct steps' ensemble of its iteration.

        A frame run's to the class's tolerances, any other run's bit for bit.
        """
        for got in recorded:
            k = got.iteration
            ref = particle[k]
            assert np.array_equal(got.restart_count, ref.restart_count)
            assert got.x.flags.f_contiguous and got.y.flags.f_contiguous
            if not has_frame(target):
                for name in ("x", "y", "prev_step_norms"):
                    assert_bits_equal(getattr(got, name), getattr(ref, name))
                continue
            y_scale = max(np.linalg.norm(e.y) for e in particle[: k + 1])
            s_scale = max(np.linalg.norm(e.prev_step_norms) for e in particle[: k + 1])
            assert np.linalg.norm(got.x - ref.x) <= 1e-12 * np.linalg.norm(ref.x), k
            assert np.linalg.norm(got.y - ref.y) <= 1e-12 * y_scale, k
            assert np.linalg.norm(got.prev_step_norms - ref.prev_step_norms) <= 1e-12 * s_scale, k

    @pytest.mark.parametrize("n", [60, 2000])
    @pytest.mark.parametrize("name, tau, n_steps", FRAME_RUNS)
    def test_run_matches_the_particle_steps(self, name, tau, n_steps, n):
        target = frame_target(name)
        recorded, particle, failures = self._runs(target, n, tau, n_steps, seed=n + len(name))
        assert failures == [None, None] and len(recorded) == len(particle) == n_steps + 1
        assert [e.iteration for e in recorded] == list(range(n_steps + 1))
        self._assert_matches(recorded, particle, target)

    @pytest.mark.parametrize("n", [60, 2000])
    @pytest.mark.parametrize("name, tau, n_steps", FRAME_RUNS)
    def test_sparse_records_match_the_particle_steps(self, name, tau, n_steps, n):
        # between records a frame run steps the coefficients alone, and forms
        # X, Y and the step lengths from P v_prev at the records
        target = frame_target(name)
        recorded, particle, failures = self._runs(target, n, tau, n_steps, seed=n + len(name), every=10)
        assert failures == [None, None]
        assert [e.iteration for e in recorded] == list(range(0, n_steps + 1, 10))
        self._assert_matches(recorded, particle, target)

    def _assert_fails_alike(self, name, seed, every):
        """The run fails at the direct steps' iteration, with their error, and records what they made before."""
        target = builtin(name)
        recorded, particle, failures = self._runs(target, 60, 0.02, 12, seed, beta=0.8, every=every)
        (got_at, got), (ref_at, ref) = failures
        assert got_at == ref_at and type(got) is type(ref)
        assert str(got).split(" (")[0] == str(ref).split(" (")[0]
        assert [e.iteration for e in recorded] == list(range(0, got_at, every))
        assert len(particle) == got_at
        if not has_frame(target):
            return self._assert_matches(recorded, particle, target)
        for got_ens in recorded:
            ref_ens = particle[got_ens.iteration]
            assert np.linalg.norm(got_ens.x - ref_ens.x) <= 1e-9 * np.linalg.norm(ref_ens.x)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("name", ["gauss-aniso", "double-bananas"])
    def test_diverging_runs_fail_where_the_particle_steps_fail(self, name, seed):
        # eps = 0.1, tau = 0.02, N = 60, 12 steps, beta = 0.8: the capacitance
        # matrix loses every digit within a dozen steps on these two targets
        self._assert_fails_alike(name, seed, every=1)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("name", ["gauss-aniso", "double-bananas"])
    def test_diverging_sparse_runs_fail_where_the_particle_steps_fail(self, name, seed):
        # the same runs, recorded every 10th iteration: on gauss-aniso the
        # coefficient steps check W and V as the particle steps check X and Y
        self._assert_fails_alike(name, seed, every=10)

    def test_coefficient_steps_check_positions_and_momenta(self):
        # a coefficient step forms no X or Y, yet fails as the particle step
        # would on them: on non-finite W, on a finite W whose product with P
        # overflows (1e308 times entries of P above 1), and on non-finite V
        class NanGradient(GaussianTarget):
            def frame_gradient(self, pp, w):
                return np.full_like(w, np.nan)

        cfg = SamplerConfig(kernel=BilinearKernel(np.eye(2)), target=NanGradient(np.zeros(2), np.eye(2)),
                            tau=0.01, eps=0.1, damping=ConstantDamping(0.9))
        ens = ParticleEnsemble.initialize(np.random.default_rng(47).standard_normal((50, 2)) * 3.0)
        with np.errstate(all="ignore"):  # P W overflows on the way, as X + sqrt(tau) Y would
            for bad in (np.nan, 1e308):
                frame = samplers._AffineFrame.start(ens)
                frame.w[0, 0] = bad
                with pytest.raises(FloatingPointError, match=r"^non-finite positions at iteration 1$"):
                    frame.advance(cfg, 1)
            with pytest.raises(FloatingPointError, match=r"^non-finite momentum update at iteration 1$"):
                samplers._AffineFrame.start(ens).advance(cfg, 1)

    def test_the_overflow_bound_does_not_overflow(self):
        # max |coef| is compared with the largest float divided by max |P| (d + 1),
        # so coefficients near the top of the range overflow no intermediate
        frame = samplers._AffineFrame.start(ParticleEnsemble.initialize(np.full((4, 2), 10.0)))
        coef = np.ones((3, 2))
        with np.errstate(over="raise"):
            assert frame._bounded(coef)
            coef[1, 0] = 1e307
            assert not frame._bounded(coef)

    @pytest.mark.parametrize("name, tau", [pytest.param(name, tau, id=name) for name, tau, _ in FRAME_RUNS
                                           if name.startswith("gauss")])
    def test_a_frame_run_steps_on_beta_alone(self, name, tau, monkeypatch):
        # the frame never calls the damping's factor, and a constant damping
        # restarts nothing, so every record keeps the start's counters; on a
        # centred target and on one whose mean enters P^T grad_f through P^T 1
        def fail(self, ens, step_norms, grad_stat):
            raise AssertionError("ConstantDamping.factor called")

        monkeypatch.setattr(ConstantDamping, "factor", fail)
        frames = frames_started(monkeypatch)
        rng = np.random.default_rng(48)
        cfg = SamplerConfig(kernel=BilinearKernel(random_spd(rng, 2)), target=builtin(name), tau=tau, eps=0.1,
                            damping=ConstantDamping(0.9))
        kept = []
        run(cfg, rng.standard_normal((100, 2)), 20, recorder=kept.append)
        assert len(kept) == 21 and len(frames) == 1
        for ens in kept:
            assert_bits_equal(ens.restart_count, np.ones(100, dtype=np.int64))

    @pytest.mark.parametrize("name", ["gauss-correlated", "gauss-aniso"])
    def test_replicated_particles_move_as_one(self, name):
        # each particle taken three times, with eps three times as large, gives
        # the same capacitance solution, force coefficients and restart
        # statistic, so the particles move as the copies of one run
        rng = np.random.default_rng(46)
        cfg = SamplerConfig(kernel=BilinearKernel(random_spd(rng, 2)), target=builtin(name), tau=0.001, eps=0.1,
                            damping=ConstantDamping(0.9))
        x0 = rng.standard_normal((60, 2))
        once, thrice = [], []
        records = range(0, 201, 10)
        run(cfg, x0, 200, recorder=once.append, record_iters=records)
        run(replace(cfg, eps=3 * cfg.eps), np.tile(x0, (3, 1)), 200, recorder=thrice.append, record_iters=records)
        assert [e.iteration for e in thrice] == [e.iteration for e in once] == list(records)
        for one, three in zip(once, thrice):
            tiled = np.tile(one.x, (3, 1))
            assert np.linalg.norm(three.x - tiled) <= 1e-13 * np.linalg.norm(tiled), one.iteration

    def test_a_direct_step_takes_the_particle_path(self):
        # with or without a workspace, from an ensemble in motion or at rest, a
        # direct step is the particle step, bit for bit
        rng = np.random.default_rng(44)
        cfg = SamplerConfig(kernel=BilinearKernel(random_spd(rng, 2)), target=gaussian_target(rng, 2),
                            tau=0.01, eps=0.1, damping=ConstantDamping(0.9))
        for ens in (random_ensemble(rng, 300, 2), ParticleEnsemble.initialize(rng.standard_normal((300, 2)))):
            expected = unfused_bilinear_step(ens, cfg)
            work = {}
            for got in (asvgd_step(ens, cfg), asvgd_step(ens, cfg, None, work)):
                for name in ("x", "y", "prev_step_norms"):
                    assert_bits_equal(getattr(got, name), getattr(expected, name))
            assert "frame" not in work


class FortranGradTarget(CustomTarget):
    """A CustomTarget whose gradients come back column-major; a CustomTarget's come back in C order."""

    def grad_all(self, x):
        return np.asfortranarray(super().grad_all(x))


# (algorithm, kernel) of every step: both kernels for the kernel samplers
LAYOUT_CASES = [pytest.param(a, k, id=f"{a}-{type(k).__name__}")
                for a in ALGORITHMS for k in (GaussianKernel(0.5), BilinearKernel(np.eye(2)))
                if a in ("asvgd", "svgd") or isinstance(k, GaussianKernel)]


class TestColumnMajorLayout:
    """Every N x d array of a run is column-major, whatever layout the caller and the target hand in."""

    @staticmethod
    def _cfg(algorithm, kernel, target):
        return SamplerConfig(kernel=kernel, target=target, tau=0.05, eps=0.1, damping=RestartNesterov(),
                             seed=4, algorithm=algorithm)

    @pytest.mark.parametrize("start", ["c-order", "nested-list"])
    @pytest.mark.parametrize("algorithm, kernel", LAYOUT_CASES)
    def test_run_keeps_every_array_column_major(self, algorithm, kernel, start):
        rng = np.random.default_rng(38)
        x0 = np.ascontiguousarray(rng.standard_normal((40, 2)))
        ens = run(self._cfg(algorithm, kernel, gaussian_target(rng, 2)),
                  x0.tolist() if start == "nested-list" else x0, 3)
        assert ens.iteration == 3
        assert ens.x.flags.f_contiguous and ens.y.flags.f_contiguous

    @pytest.mark.parametrize("algorithm, kernel", LAYOUT_CASES)
    def test_target_layout_moves_no_bit(self, algorithm, kernel):
        precision = np.array([[3.0, -2.0], [-2.0, 3.0]])
        args = (lambda p: 0.5 * p @ precision @ p, lambda p: precision @ p, 2)
        x0 = np.random.default_rng(39).standard_normal((40, 2))
        c_order, f_order = CustomTarget(*args), FortranGradTarget(*args)
        assert c_order.grad_all(x0).flags.c_contiguous and f_order.grad_all(x0).flags.f_contiguous
        got = [run(self._cfg(algorithm, kernel, t), x0, 3) for t in (c_order, f_order)]
        assert_bits_equal(got[0].x, got[1].x)
        assert got[0].x.flags.f_contiguous

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_low_rank_factor_is_column_major(self, order):
        x = np.asarray(np.random.default_rng(40).standard_normal((40, 2)), order=order)
        assert BilinearKernel(np.array([[2.0, 0.3], [0.3, 1.0]])).low_rank_factor(x).flags.f_contiguous


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
        # the Gaussian kernel takes the particle step; the constant-damped
        # bilinear run on a Gaussian target steps its frame's coefficients
        # between records, and forms the same ensembles whichever it records
        rng = np.random.default_rng(11)
        gaussian = self._cfg("asvgd", rng)
        bilinear = replace(gaussian, kernel=BilinearKernel(random_spd(rng, 2)), damping=ConstantDamping(0.9))
        x0 = rng.standard_normal((4, 2))
        for cfg in (gaussian, bilinear):
            every, sparse = [], []
            final = run(cfg, x0, 5, recorder=every.append)
            assert [ens.iteration for ens in every] == list(range(6))
            assert all(ens.x.shape == (4, 2) for ens in every)
            assert final.iteration == 5 and every[-1] is final
            sparse_final = run(cfg, x0, 5, recorder=sparse.append, record_iters={0, 2, 3})
            assert [ens.iteration for ens in sparse] == [0, 2, 3]
            for got, ref in zip(sparse, every[:1] + every[2:4]):
                assert_bits_equal(got.x, ref.x)
            # n_steps is not recorded, yet the final ensemble is a full one
            for name in ("x", "y", "prev_step_norms"):
                assert_bits_equal(getattr(sparse_final, name), getattr(final, name))
            assert sparse_final.iteration == 5 and sparse_final.grad_stat == final.grad_stat
            assert_bits_equal(run(cfg, x0, 5).x, final.x)

    @pytest.mark.parametrize("algorithm", ["ula", "mala", "uld"])
    def test_langevin_run_takes_no_kernel(self, algorithm):
        rng = np.random.default_rng(13)
        cfg = self._cfg(algorithm, rng)
        x0 = rng.standard_normal((6, 2))
        with_kernel = run(cfg, x0, 8)
        without = run(replace(cfg, kernel=None), x0, 8)
        assert np.array_equal(with_kernel.x, without.x)
        assert np.array_equal(with_kernel.y, without.y)

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError, match="unknown algorithm 'bogus'"):
            SamplerConfig(kernel=GaussianKernel(0.5), target=QuarticTarget(), tau=0.1, algorithm="bogus")

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_run_calls_the_module_step_function(self, algorithm, monkeypatch):
        # a tracer times a sampler by replacing its step function on the module
        rng = np.random.default_rng(15)
        cfg = self._cfg(algorithm, rng)
        name = f"{algorithm}_step"
        original = getattr(samplers, name)
        calls, workspaces = [], []

        def counting(ens, cfg, rng, work):
            calls.append(ens.iteration)
            workspaces.append(work)
            return original(ens, cfg, rng, work)

        monkeypatch.setattr(samplers, name, counting)
        final = run(cfg, rng.standard_normal((5, 2)), 3)
        assert calls == [0, 1, 2] and final.iteration == 3
        # one workspace for the whole run, handed through ``step``
        assert all(work is workspaces[0] for work in workspaces)

    def _constant_bilinear_cfg(self, name):
        rng = np.random.default_rng(15)
        cfg = replace(self._cfg("asvgd", rng), kernel=BilinearKernel(random_spd(rng, 2)),
                      damping=ConstantDamping(0.9), target=builtin(name))
        return cfg, rng.standard_normal((5, 2))

    @pytest.mark.parametrize("name", ["gauss-correlated", "gauss-aniso"])
    def test_a_frame_run_calls_no_step_function(self, name, monkeypatch):
        # on a Gaussian target, centred or not, the constant-damped bilinear
        # run steps its frame itself, and no step function runs
        cfg, x0 = self._constant_bilinear_cfg(name)
        calls = []
        for algorithm in ALGORITHMS:
            monkeypatch.setattr(samplers, f"{algorithm}_step", lambda *args: calls.append(args))
        frames = frames_started(monkeypatch)
        assert run(cfg, x0, 3).iteration == 3
        assert calls == [] and len(frames) == 1

    def test_a_constant_quartic_run_calls_asvgd_step_once_per_step(self, monkeypatch):
        # quartic has no frame_gradient, so its constant-damped bilinear run
        # starts no frame and takes the particle step
        cfg, x0 = self._constant_bilinear_cfg("quartic")
        original = samplers.asvgd_step
        calls = []

        def counting(ens, cfg, rng, work):
            calls.append(ens.iteration)
            return original(ens, cfg, rng, work)

        monkeypatch.setattr(samplers, "asvgd_step", counting)
        frames = frames_started(monkeypatch)
        assert run(cfg, x0, 3).iteration == 3
        assert calls == [0, 1, 2] and frames == []

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_positions_raise_without_a_warning(self, bad):
        # the positions are checked before a step length is formed from them
        rng = np.random.default_rng(16)
        ens = random_ensemble(rng, 6, 2)
        ens.y[2, 1] = bad
        cfg = self._cfg("asvgd", rng)
        target = CustomTarget(lambda x: 0.0, lambda x: np.where(x > 0.5, bad, x), dim=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError, match=r"^non-finite positions at iteration 4$"):
                asvgd_step(ens, cfg)
            with pytest.raises(RuntimeError) as info:
                run(replace(self._cfg("ula", rng), target=target), ens.x, 3)
        assert str(info.value) == "ula failed at iteration 1: non-finite positions at iteration 1"

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
            x=ens.x[perm], y=ens.y[perm],
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
