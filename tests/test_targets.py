import numpy as np
import pytest

from steinflow import targets
from steinflow.targets import (
    DoubleBananasTarget,
    GaussianTarget,
    QuarticTarget,
    builtin,
    builtin_names,
    builtin_targets,
    grad_potential,
    potential,
)
from reference_impls import central_diff_grad, random_spd


class TestPotential:
    def test_gaussian_zero_at_mean(self):
        t = GaussianTarget(b=np.array([1.0, -2.0]), q=np.diag([2.0, 3.0]))
        assert potential(t, t.b) == 0.0

    def test_quartic_value(self):
        assert potential(QuarticTarget(), np.array([1.0, 1.0])) == pytest.approx(0.5)

    def test_gaussian_anisotropic_value(self):
        t = GaussianTarget(b=np.zeros(2), q=np.diag([10.0, 0.05]))
        assert potential(t, np.array([1.0, 0.0])) == pytest.approx(0.05, rel=1e-12)

    def test_dimension_check(self):
        with pytest.raises(ValueError):
            potential(QuarticTarget(), np.zeros(3))


class TestGradients:
    def test_gaussian_zero_gradient_at_mean(self):
        t = GaussianTarget(b=np.array([0.5, 0.5]), q=np.eye(2))
        assert np.allclose(grad_potential(t, t.b), 0.0)

    def test_quartic_componentwise_cubes(self):
        out = grad_potential(QuarticTarget(), np.array([1.0, -1.0]))
        assert np.array_equal(out, np.array([1.0, -1.0]))

    @pytest.mark.parametrize("name", ["gauss-correlated", "gauss-aniso", "quartic", "double-bananas"])
    def test_gradient_matches_finite_differences(self, name):
        t = builtin(name)
        rng = np.random.default_rng(hash(name) % 2**32)
        for _ in range(100):
            x = rng.uniform(-2.0, 2.0, size=t.dim)
            fd = central_diff_grad(lambda z: potential(t, z), x, step=1e-5)
            g = grad_potential(t, x)
            tol = 1e-5 * max(1.0, np.linalg.norm(g))
            assert np.allclose(g, fd, atol=tol)

    def test_grad_all_matches_grad(self):
        rng = np.random.default_rng(17)
        for t in [builtin(n) for n in builtin_names()]:
            x = rng.uniform(-1.5, 1.5, size=(6, t.dim))
            rows = np.stack([t.grad(row) for row in x])
            assert np.allclose(t.grad_all(x), rows, rtol=1e-13)

    @pytest.mark.filterwarnings("error")
    def test_double_bananas_grad_far_from_modes(self):
        # f1 - f2 = 1e4 here, far past the range exp can take without overflowing
        t = DoubleBananasTarget()
        x = np.array([10.0, -5.0])
        assert np.array_equal(t.grad(x), t.grad_all(x[None, :])[0])

    def test_gaussian_convexity(self):
        rng = np.random.default_rng(8)
        t = GaussianTarget(b=rng.standard_normal(3), q=random_spd(rng, 3))
        for _ in range(50):
            x, y = rng.standard_normal(3), rng.standard_normal(3)
            assert (t.grad(x) - t.grad(y)) @ (x - y) >= 0.0


class TestBuiltins:
    def test_names(self):
        assert builtin_names() == ["gauss-correlated", "gauss-aniso", "quartic", "double-bananas"]
        assert [name for name, _ in builtin_targets()] == builtin_names()

    def test_gauss_aniso_parameters(self):
        t = builtin("gauss-aniso")
        assert np.array_equal(t.b, [1.0, 1.0])
        assert np.array_equal(t.q, np.diag([10.0, 0.05]))

    def test_gauss_correlated_precision_interpretation(self):
        printed = np.array([[3.0, -2.0], [-2.0, 3.0]])
        t = builtin("gauss-correlated")  # q_is_precision defaults to True
        assert np.allclose(t.q_inv, printed, rtol=1e-12)
        assert np.array_equal(t.b, [0.0, 0.0])
        t_cov = builtin("gauss-correlated", q_is_precision=False)
        assert np.allclose(t_cov.q, printed, rtol=1e-15)

    def test_quartic_builtin(self):
        assert isinstance(builtin("quartic"), QuarticTarget)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="gauss-correlated"):
            builtin("nonexistent")


class TestDoubleBananas:
    def test_mirror_symmetry(self):
        t = DoubleBananasTarget()
        rng = np.random.default_rng(2)
        for _ in range(20):
            x = rng.uniform(-2, 2, size=2)
            mirrored = np.array([x[0], -x[1]])
            assert potential(t, x) == pytest.approx(potential(t, mirrored), rel=1e-12)

    def test_two_modes_in_window(self):
        # both warped minima (at x1 = a, x2 = +- a^2) are low-potential points
        t = DoubleBananasTarget()
        for x in (np.array([1.0, 1.0]), np.array([1.0, -1.0])):
            assert potential(t, x) < potential(t, np.zeros(2))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("x", [[1e80, 1e80], [1e100, -3.0]])
    def test_grad_finite_where_both_warps_overflow(self, x):
        # F(x) and F(Rx) are inf here; their difference taken as such is NaN
        t = DoubleBananasTarget()
        x = np.array(x)
        g = t.grad(x)
        assert np.all(np.isfinite(g))
        assert np.array_equal(t.grad_all(x[None, :])[0], g)

    def test_grad_matches_warp_difference_form(self):
        t = DoubleBananasTarget()
        rng = np.random.default_rng(21)
        x = rng.uniform(-2.5, 2.5, size=(200, 2))
        x1, x2 = x[:, 0], x[:, 1]

        def warp(u, v):
            return (t.a - u) ** 2 / t.c1 + t.c2 * (v - u**2) ** 2

        w1 = 1.0 / (1.0 + np.exp(warp(x1, x2) - warp(x1, -x2)))
        w2 = 1.0 - w1
        g1 = -2.0 * (t.a - x1) / t.c1
        ref = np.stack([
            g1 - 4.0 * t.c2 * x1 * (w1 * (x2 - x1**2) + w2 * (-x2 - x1**2)),
            2.0 * t.c2 * (w1 * (x2 - x1**2) - w2 * (-x2 - x1**2)),
        ], axis=1)
        got = t.grad_all(x)
        assert np.allclose(got, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())
        assert np.allclose(np.stack([t.grad(row) for row in x]), ref, rtol=1e-12,
                           atol=1e-12 * np.abs(ref).max())

    def test_invalid_gaussian_params(self):
        with pytest.raises(ValueError):
            GaussianTarget(b=np.zeros(2), q=np.array([[1.0, 2.0], [2.0, 1.0]]))  # indefinite
        with pytest.raises(ValueError):
            GaussianTarget(b=np.zeros(3), q=np.eye(2))
