import numpy as np
import pytest

from steinflow import svg
from steinflow.targets import (
    CustomTarget,
    DoubleBananasTarget,
    GaussianTarget,
    QuarticTarget,
    builtin,
    builtin_names,
)
from reference_impls import central_diff_grad, grid_log_normalizer, point_potential, random_spd


def one_point(method, x):
    """A batched target method evaluated at the single point x of shape (d,)."""
    return method(np.asarray(x, dtype=float)[None, :])[0]


class TestPotential:
    def test_gaussian_zero_at_mean(self):
        t = GaussianTarget(b=np.array([1.0, -2.0]), q=np.diag([2.0, 3.0]))
        assert one_point(t.potential_all, t.b) == 0.0

    def test_quartic_value(self):
        assert one_point(QuarticTarget().potential_all, [1.0, 1.0]) == pytest.approx(0.5)

    def test_gaussian_anisotropic_value(self):
        t = GaussianTarget(b=np.zeros(2), q=np.diag([10.0, 0.05]))
        assert one_point(t.potential_all, [1.0, 0.0]) == pytest.approx(0.05, rel=1e-12)


class TestLogNormalizer:
    # each box holds all but about e^-39 of the mass: for double-bananas that
    # takes x2 out to past the largest x1^2 in the box, where the warp's ridge
    # x2 = x1^2 lies
    @pytest.mark.parametrize("t, x1_range, x2_range", [
        pytest.param(builtin("gauss-correlated"), (-8.0, 8.0), (-8.0, 8.0), id="gauss-correlated"),
        pytest.param(builtin("gauss-aniso"), (-27.0, 29.0), (-1.0, 3.0), id="gauss-aniso"),
        pytest.param(GaussianTarget(b=np.array([0.5, -1.0]), q=np.array([[2.0, 0.8], [0.8, 1.0]])),
                     (-12.0, 13.0), (-11.0, 9.0), id="gaussian-correlated"),
        pytest.param(builtin("quartic"), (-4.5, 4.5), (-4.5, 4.5), id="quartic"),
        pytest.param(builtin("double-bananas"), (-3.5, 5.5), (-34.0, 34.0), id="double-bananas"),
    ])
    def test_matches_quadrature(self, t, x1_range, x2_range):
        assert t.log_normalizer == pytest.approx(grid_log_normalizer(t, x1_range, x2_range), rel=0.0, abs=1e-12)

    def test_closed_forms(self):
        assert builtin("double-bananas").log_normalizer == pytest.approx(0.6865845199, abs=1e-10)
        assert QuarticTarget().log_normalizer == pytest.approx(1.8828978688, abs=1e-10)
        t = GaussianTarget(b=np.zeros(3), q=np.diag([1.0, 4.0, 9.0]))
        assert t.log_normalizer == pytest.approx(np.log((2.0 * np.pi) ** 1.5 * 6.0), rel=1e-14)


def _batched_cases():
    """(target, per-point oracle of its potential) pairs."""
    rng = np.random.default_rng(23)
    targets = [builtin(name) for name in builtin_names()]
    targets.append(GaussianTarget(b=rng.standard_normal(5), q=random_spd(rng, 5)))
    cases = [pytest.param(t, lambda x, t=t: point_potential(t, x), id=name)
             for name, t in zip(builtin_names() + ["gaussian-d5"], targets)]

    def quartic(x):
        return point_potential(QuarticTarget(), x)

    cases.append(pytest.param(CustomTarget(quartic, lambda x: x**3, dim=2), quartic, id="custom"))
    return cases


class TestPotentialAll:
    @pytest.mark.parametrize("t, f", _batched_cases())
    def test_matches_row_wise_potential(self, t, f):
        rng = np.random.default_rng(29)
        x = rng.uniform(-3.0, 3.0, size=(1000, t.dim))
        got = t.potential_all(x)
        assert got.shape == (1000,)
        rows = np.array([f(row) for row in x])
        assert np.allclose(got, rows, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("t, f", _batched_cases())
    def test_single_row(self, t, f):
        x = np.linspace(-1.0, 1.5, t.dim)[None, :]
        got = t.potential_all(x)
        assert got.shape == (1,)
        assert got[0] == pytest.approx(f(x[0]), rel=1e-14, abs=0.0)


class TestColumnMajor:
    @pytest.mark.parametrize("name", builtin_names())
    def test_grad_all_of_column_major_rows_is_column_major(self, name):
        # the samplers hand every target column-major positions
        t = builtin(name)
        x = np.random.default_rng(30).uniform(-2.0, 2.0, size=(200, t.dim))
        got = t.grad_all(np.asfortranarray(x))
        assert got.flags.f_contiguous
        assert np.array_equal(got, t.grad_all(np.ascontiguousarray(x)))


class TestHotPathsAreBatched:
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
                loop[i, j] = point_potential(t, [xv, yv])
        assert np.array_equal(grid, loop)


class TestGradients:
    def test_gaussian_zero_gradient_at_mean(self):
        t = GaussianTarget(b=np.array([0.5, 0.5]), q=np.eye(2))
        assert np.allclose(one_point(t.grad_all, t.b), 0.0)

    def test_quartic_componentwise_cubes(self):
        out = one_point(QuarticTarget().grad_all, [1.0, -1.0])
        assert np.array_equal(out, np.array([1.0, -1.0]))

    def test_quartic_products_match_the_powers(self):
        # the target forms x^3 and x^4 as products, which round differently from ``**``
        t = QuarticTarget()
        scale = np.logspace(-3.0, 3.0, 5000)[:, None]
        x = np.asfortranarray(np.random.default_rng(31).standard_normal((5000, 2)) * scale)
        assert np.allclose(t.grad_all(x), x**3, rtol=1e-15, atol=0.0)
        assert np.allclose(t.potential_all(x), 0.25 * (x**4).sum(axis=1), rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("name", ["gauss-correlated", "gauss-aniso", "quartic", "double-bananas"])
    def test_gradient_matches_finite_differences(self, name):
        t = builtin(name)
        rng = np.random.default_rng(hash(name) % 2**32)
        x = rng.uniform(-2.0, 2.0, size=(100, t.dim))
        for row, g in zip(x, t.grad_all(x)):
            fd = central_diff_grad(lambda p: point_potential(t, p), row, step=1e-5)
            tol = 1e-5 * max(1.0, np.linalg.norm(g))
            assert np.allclose(g, fd, atol=tol)

    @pytest.mark.filterwarnings("error")
    def test_double_bananas_grad_far_from_modes(self):
        # f1 - f2 = 1e4 here, far past the range exp can take without overflowing
        t = DoubleBananasTarget()
        x = np.array([10.0, -5.0])
        g = one_point(t.grad_all, x)
        fd = central_diff_grad(lambda p: point_potential(t, p), x, step=1e-5)
        assert np.allclose(g, fd, rtol=1e-6)

    def test_gaussian_convexity(self):
        rng = np.random.default_rng(8)
        t = GaussianTarget(b=rng.standard_normal(3), q=random_spd(rng, 3))
        for _ in range(50):
            x, y = rng.standard_normal(3), rng.standard_normal(3)
            gx, gy = t.grad_all(np.stack([x, y]))
            assert (gx - gy) @ (x - y) >= 0.0

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_gaussian_frame_gradient_is_the_projected_gradient(self, d):
        # P^T grad_f(P W) from P^T P alone, for P = [X0 | 1]
        rng = np.random.default_rng(9 + d)
        t = GaussianTarget(b=rng.standard_normal(d), q=random_spd(rng, d))
        p = np.hstack([rng.standard_normal((500, d)), np.ones((500, 1))])
        w = rng.standard_normal((d + 1, d))
        expected = p.T @ t.grad_all(p @ w)
        got = t.frame_gradient(p.T @ p, w)
        assert got.shape == (d + 1, d)
        assert np.linalg.norm(got - expected) <= 1e-13 * np.linalg.norm(expected)


class TestBuiltins:
    def test_names(self):
        assert builtin_names() == ["gauss-correlated", "gauss-aniso", "quartic", "double-bananas"]

    def test_gauss_aniso_parameters(self):
        t = builtin("gauss-aniso")
        assert np.array_equal(t.b, [1.0, 1.0])
        assert np.array_equal(t.q, np.diag([10.0, 0.05]))

    def test_gauss_correlated_precision_interpretation(self):
        printed = np.array([[3.0, -2.0], [-2.0, 3.0]])
        t = builtin("gauss-correlated")
        assert np.allclose(t.q_inv, printed, rtol=1e-12)
        assert np.array_equal(t.b, [0.0, 0.0])

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
            assert one_point(t.potential_all, x) == pytest.approx(one_point(t.potential_all, mirrored), rel=1e-12)

    def test_two_modes_in_window(self):
        # both warped minima (at x1 = a, x2 = +- a^2) are low-potential points
        t = DoubleBananasTarget()
        for x in (np.array([1.0, 1.0]), np.array([1.0, -1.0])):
            assert one_point(t.potential_all, x) < one_point(t.potential_all, np.zeros(2))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("x", [[1e80, 1e80], [1e100, -3.0]])
    def test_grad_finite_where_both_warps_overflow(self, x):
        # F(x) and F(Rx) are inf here; their difference taken as such is NaN
        t = DoubleBananasTarget()
        g = one_point(t.grad_all, x)
        assert np.all(np.isfinite(g))

    @pytest.mark.filterwarnings("error")
    def test_grad_of_mirror_image_is_mirrored_where_a_weight_vanishes(self):
        # x1 = 1e103: each warp gradient overflows to inf, and the weight of the
        # far mode is exactly 0 at x2 = 2 but about 1e-304 at x2 = -2
        t = DoubleBananasTarget()
        x = np.array([[1e103, 2.0], [1e103, -2.0]])
        with np.errstate(over="ignore"):
            g = t.grad_all(x)
        assert not np.isnan(g).any()
        assert g[0, 0] == g[1, 0] == np.inf
        assert g[0, 1] == -g[1, 1] == -1e207

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

    def test_invalid_gaussian_params(self):
        with pytest.raises(ValueError):
            GaussianTarget(b=np.zeros(2), q=np.array([[1.0, 2.0], [2.0, 1.0]]))  # indefinite
        with pytest.raises(ValueError):
            GaussianTarget(b=np.zeros(3), q=np.eye(2))
        with pytest.raises(ValueError, match="need a d-vector mean"):
            GaussianTarget(b=[[0.0], [1.0]], q=np.eye(2))
        # Q^-1 reads the whole matrix and log det Q its Cholesky factor's one triangle
        with pytest.raises(ValueError, match="^covariance must be symmetric$"):
            GaussianTarget(b=np.zeros(2), q=[[1.0, 1.0 + 1e-6], [1.0, 3.0]])
