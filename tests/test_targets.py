from types import SimpleNamespace

import numpy as np
import pytest

from steinflow import svg, targets
from steinflow.diagnostics import kl_estimate
from steinflow.samplers import mala_step
from steinflow.targets import (
    CustomTarget,
    DoubleBananasTarget,
    GaussianTarget,
    QuarticTarget,
    builtin,
    builtin_names,
)
from reference_impls import central_diff_grad, random_spd


class TestPotential:
    def test_gaussian_zero_at_mean(self):
        t = GaussianTarget(b=np.array([1.0, -2.0]), q=np.diag([2.0, 3.0]))
        assert t.potential(t.b) == 0.0

    def test_quartic_value(self):
        assert QuarticTarget().potential(np.array([1.0, 1.0])) == pytest.approx(0.5)

    def test_gaussian_anisotropic_value(self):
        t = GaussianTarget(b=np.zeros(2), q=np.diag([10.0, 0.05]))
        assert t.potential(np.array([1.0, 0.0])) == pytest.approx(0.05, rel=1e-12)


def _batched_cases():
    rng = np.random.default_rng(23)
    cases = [(name, builtin(name)) for name in builtin_names()]
    cases.append(("gaussian-d5", GaussianTarget(b=rng.standard_normal(5), q=random_spd(rng, 5))))
    quartic = QuarticTarget()
    cases.append(("custom", CustomTarget(quartic.potential, quartic.grad, dim=2)))
    return [pytest.param(t, id=name) for name, t in cases]


class TestPotentialAll:
    @pytest.mark.parametrize("t", _batched_cases())
    def test_matches_row_wise_potential(self, t):
        rng = np.random.default_rng(29)
        x = rng.uniform(-3.0, 3.0, size=(1000, t.dim))
        got = t.potential_all(x)
        assert got.shape == (1000,)
        rows = np.array([t.potential(row) for row in x])
        assert np.allclose(got, rows, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("t", _batched_cases())
    def test_single_row(self, t):
        x = np.linspace(-1.0, 1.5, t.dim)[None, :]
        got = t.potential_all(x)
        assert got.shape == (1,)
        assert got[0] == pytest.approx(t.potential(x[0]), rel=1e-14, abs=0.0)


class _ScalarPotentialForbidden(DoubleBananasTarget):
    def potential(self, x):
        raise AssertionError("per-point potential called on a batched path")


class TestHotPathsAreBatched:
    def test_mala_step(self):
        rng = np.random.default_rng(31)
        cfg = SimpleNamespace(tau=0.05, target=_ScalarPotentialForbidden())
        x_new, accept = mala_step(rng.standard_normal((50, 2)), cfg, rng)
        assert x_new.shape == (50, 2) and accept.shape == (50,)

    def test_kde_kl_estimate(self):
        x = np.random.default_rng(32).standard_normal((60, 2))
        t = _ScalarPotentialForbidden()
        got = kl_estimate(x, t, method="kde", rng=np.random.default_rng(0), n_is_draws=500)
        assert got == kl_estimate(x, DoubleBananasTarget(), method="kde",
                                  rng=np.random.default_rng(0), n_is_draws=500)

    def test_svg_level_lines(self, tmp_path):
        x = np.random.default_rng(33).standard_normal((20, 2))
        snaps = [x, 0.5 * x]
        svg.render_trajectory_svg(tmp_path / "t.svg", snaps, target=_ScalarPotentialForbidden())
        assert (tmp_path / "t.svg").stat().st_size > 0

    def test_svg_grid_equals_per_point_loop(self, tmp_path, monkeypatch):
        grids = []
        contour = svg.marching_squares

        def spy(grid, xs, ys, level):
            grids.append((grid, xs, ys))
            return contour(grid, xs, ys, level)

        monkeypatch.setattr(svg, "marching_squares", spy)
        rng = np.random.default_rng(34)
        # x and y ranges differ, so a transposed grid would not match
        snaps = [rng.standard_normal((20, 2)) * [3.0, 0.5] + [1.0, -0.2] for _ in range(2)]
        t = QuarticTarget()
        svg.render_trajectory_svg(tmp_path / "t.svg", snaps, target=t)
        grid, xs, ys = grids[0]
        loop = np.empty((xs.size, ys.size))
        for i, xv in enumerate(xs):
            for j, yv in enumerate(ys):
                loop[i, j] = t.potential(np.array([xv, yv]))
        assert np.array_equal(grid, loop)


class TestGradients:
    def test_gaussian_zero_gradient_at_mean(self):
        t = GaussianTarget(b=np.array([0.5, 0.5]), q=np.eye(2))
        assert np.allclose(t.grad(t.b), 0.0)

    def test_quartic_componentwise_cubes(self):
        out = QuarticTarget().grad(np.array([1.0, -1.0]))
        assert np.array_equal(out, np.array([1.0, -1.0]))

    @pytest.mark.parametrize("name", ["gauss-correlated", "gauss-aniso", "quartic", "double-bananas"])
    def test_gradient_matches_finite_differences(self, name):
        t = builtin(name)
        rng = np.random.default_rng(hash(name) % 2**32)
        for _ in range(100):
            x = rng.uniform(-2.0, 2.0, size=t.dim)
            fd = central_diff_grad(t.potential, x, step=1e-5)
            g = t.grad(x)
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
            assert t.potential(x) == pytest.approx(t.potential(mirrored), rel=1e-12)

    def test_two_modes_in_window(self):
        # both warped minima (at x1 = a, x2 = +- a^2) are low-potential points
        t = DoubleBananasTarget()
        for x in (np.array([1.0, 1.0]), np.array([1.0, -1.0])):
            assert t.potential(x) < t.potential(np.zeros(2))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("x", [[1e80, 1e80], [1e100, -3.0]])
    def test_grad_finite_where_both_warps_overflow(self, x):
        # F(x) and F(Rx) are inf here; their difference taken as such is NaN
        t = DoubleBananasTarget()
        x = np.array(x)
        g = t.grad(x)
        assert np.all(np.isfinite(g))
        assert np.array_equal(t.grad_all(x[None, :])[0], g)

    @pytest.mark.filterwarnings("error")
    def test_grad_of_mirror_image_is_mirrored_where_a_weight_vanishes(self):
        # x1 = 1e103: each warp gradient overflows to inf, and the weight of the
        # far mode is exactly 0 at x2 = 2 but about 1e-304 at x2 = -2
        t = DoubleBananasTarget()
        x = np.array([[1e103, 2.0], [1e103, -2.0]])
        with np.errstate(over="ignore"):
            g = t.grad_all(x)
            single = np.stack([t.grad(row) for row in x])
        assert not np.isnan(g).any()
        assert g[0, 0] == g[1, 0] == np.inf
        assert g[0, 1] == -g[1, 1] == -1e207
        assert np.array_equal(single, g)

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
