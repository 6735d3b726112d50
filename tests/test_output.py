"""The output layer against its per-value and per-cell loop oracles."""

import io
import json

import numpy as np
import pytest

from steinflow import experiment, spectral, svg
from steinflow.config import parse_config
from steinflow.targets import CustomTarget, builtin
from reference_impls import loop_csv_text, loop_marching_squares, loop_trajectory_svg

SPECIAL_VALUES = [-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e300, -1e300, 1.0 / 3.0,
                  -2.0 / 3.0, 1.0, -7.0, 42.0, 1e16, 123456789.0, 0.1, -1.5e-7]


def special_grid(d):
    """SPECIAL_VALUES and 40 random magnitudes, every value in every one of d columns."""
    rng = np.random.default_rng(d)
    values = np.concatenate([SPECIAL_VALUES, rng.standard_normal(40) * 10.0 ** rng.integers(-8, 9, 40)])
    return np.column_stack([np.roll(values, j) for j in range(d)])


class TestSnapshot:
    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_npy_round_trips_every_bit(self, d, tmp_path):
        x = special_grid(d)
        experiment._write_snapshot(tmp_path, 7, x)
        got = np.load(tmp_path / "particles_7.npy")
        assert got.dtype == np.float64 and got.shape == x.shape == (len(x), d)
        assert np.array_equal(got, x)
        assert np.array_equal(got.view(np.uint64), x.view(np.uint64))  # every bit, signs of zeros too
        assert (np.signbit(got) & (got == 0.0)).any(axis=0).all()  # -0.0 in every column
        for v in (5e-324, 1e300, -1e300):
            assert (got == v).any(axis=0).all()
        first = (tmp_path / "particles_7.npy").read_bytes()
        experiment._write_snapshot(tmp_path, 7, x.copy())
        assert (tmp_path / "particles_7.npy").read_bytes() == first


    def test_column_major_ensemble_writes_c_order_file(self, tmp_path):
        x = np.asfortranarray(special_grid(2))
        experiment._write_snapshot(tmp_path, 7, x)
        expected = io.BytesIO()
        np.save(expected, np.ascontiguousarray(x), allow_pickle=False)
        assert (tmp_path / "particles_7.npy").read_bytes() == expected.getvalue()
        with open(tmp_path / "particles_7.npy", "rb") as fh:
            np.lib.format.read_magic(fh)
            assert np.lib.format.read_array_header_1_0(fh)[1] is False  # fortran_order


    @pytest.mark.parametrize("sampler", ["asvgd", "svgd", "ula", "mala", "uld"])
    def test_every_snapshot_of_a_run_is_a_c_order_file(self, sampler, tmp_path):
        cfg = parse_config(json.dumps({"sampler": sampler, "target": "gauss-correlated", "n_particles": 30,
                                       "n_steps": 3, "record_every": 1, "output_dir": str(tmp_path / "out")}))
        snapshots = sorted((experiment.run_experiment(cfg) / "snapshots").iterdir())
        assert len(snapshots) == 4
        for path in snapshots:
            with open(path, "rb") as fh:
                np.lib.format.read_magic(fh)
                assert np.lib.format.read_array_header_1_0(fh)[1] is False  # fortran_order
            expected = io.BytesIO()
            np.save(expected, np.ascontiguousarray(np.load(path)), allow_pickle=False)
            assert path.read_bytes() == expected.getvalue()


class TestRateTable:
    def test_bytes_equal_per_value_fstrings(self, tmp_path):
        cfg = parse_config(json.dumps({"target": "gauss-correlated", "kernel": "bilinear",
                                       "output_dir": str(tmp_path / "an")}))
        alphas = [0.1, 1.0 / 3.0, 2.0, 1e3]
        outdir = experiment.analyze_spectrum(cfg, sweep_values=alphas)
        a, q = cfg.build_kernel(2).a, cfg.build_target().q
        rows = []
        for alpha in alphas:
            eigs = spectral.asvgd_closed_form_eigs(a, q, alpha)
            mags = np.abs(eigs)
            rows.append((alpha, eigs.real.min(), mags.max() / mags.min()))
        expected = "alpha,spectral_abscissa,condition_number\n" + loop_csv_text(rows)
        assert (outdir / "rate_table.csv").read_bytes() == expected.encode()


def assert_same_segments(grid, xs, ys, level):
    got = svg.marching_squares(grid, xs, ys, level)
    ref = np.array(loop_marching_squares(grid, xs, ys, level), dtype=float).reshape(-1, 2, 2)
    assert got.shape == ref.shape
    assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))
    return got


class TestMarchingSquares:
    @pytest.mark.parametrize("name", ["gauss-correlated", "gauss-aniso", "double-bananas"])
    def test_rendered_level_lines_match_loop(self, name, tmp_path, monkeypatch):
        calls = []
        contour = svg.marching_squares

        def spy(grid, xs, ys, level):
            calls.append((grid, xs, ys, level))
            return contour(grid, xs, ys, level)

        monkeypatch.setattr(svg, "marching_squares", spy)
        rng = np.random.default_rng(5)
        snaps = [rng.standard_normal((30, 2)) * [2.0, 1.0] + [0.5, 0.0] for _ in range(2)]
        svg.render_trajectory_svg(tmp_path / "t.svg", snaps, target=builtin(name))
        monkeypatch.undo()
        assert len(calls) == 6
        for grid, xs, ys, level in calls:
            assert len(assert_same_segments(grid, xs, ys, level)) > 0

    def test_saddle_cell_gives_two_segments(self):
        grid = np.array([[1.0, 0.0], [0.0, 1.0]])
        segs = assert_same_segments(grid, np.array([0.0, 1.0]), np.array([0.0, 2.0]), 0.5)
        assert len(segs) == 2

    def test_corner_at_level(self):
        # corner 0 sits on the level, so edges 0 and 3 are not crossed
        xs, ys = np.array([0.0, 1.0]), np.array([0.0, 1.0])
        assert len(assert_same_segments(np.array([[0.5, 1.0], [0.0, 1.0]]), xs, ys, 0.5)) == 0  # 1 crossing
        assert len(assert_same_segments(np.array([[0.5, 0.0], [0.0, 1.0]]), xs, ys, 0.5)) == 1
        grid = np.array([[0.0, 1.0, 0.0], [-1.0, 0.5, 2.0], [0.0, 3.0, 1.0]])
        for level in (0.5, 0.25, 1.0):
            assert_same_segments(grid, np.array([0.0, 0.5, 2.0]), np.array([-1.0, 0.0, 1.0]), level)

    def test_three_crossings_draw_the_first_segment_only(self):
        # (1e-200) * (-1e-200) underflows to -0.0, so edge 0 counts as not crossed
        grid = np.array([[1e-200, -1.0], [-1e-200, 1.0]])
        xs, ys = np.array([0.0, 1.0]), np.array([0.0, 1.0])
        segs = assert_same_segments(grid, xs, ys, 0.0)
        assert len(segs) == 1

    @pytest.mark.filterwarnings("error")
    def test_flat_cell_at_level_has_no_crossing(self):
        grid = np.full((3, 4), 2.0)
        xs, ys = np.arange(3.0), np.arange(4.0)
        assert len(assert_same_segments(grid, xs, ys, 2.0)) == 0
        assert len(assert_same_segments(grid, xs, ys, 1.0)) == 0


class TestLevelQuantiles:
    """The plot's level quantiles come from one sort, with numpy's ``linear`` quantile bit for bit."""

    @pytest.mark.parametrize("q", [svg._LEVEL_QUANTILES, np.linspace(0.0, 1.0, 41)], ids=["levels", "grid"])
    def test_matches_np_quantile(self, q):
        rng = np.random.default_rng(12)
        for k in range(200):
            grid = rng.standard_normal(rng.integers(1, 70, size=2)) * 10.0 ** rng.uniform(-5, 5)
            if k % 3 == 0:
                grid = np.round(grid, 1)  # ties
            if k % 5 == 0:
                grid.flat[rng.integers(grid.size)] = (np.inf, -np.inf, np.nan)[k % 3]
            with np.errstate(invalid="ignore"):  # inf - inf in both interpolations
                got, expected = svg._quantiles(grid, q), np.quantile(grid, q)
            # equal floats have equal bits, but for the sign of a zero, which a sort and
            # numpy's partition may pick differently among tied zeros and no level line sees
            assert got.dtype == expected.dtype
            assert np.array_equal(got, expected, equal_nan=True), (k, got, expected)


class TestTrajectorySvg:
    def test_run_with_more_particles_than_paths_draws_full_records(self, tmp_path):
        # a tight initial cloud that MALA spreads out: the last record sets the plot limits
        n = 4 * svg.MAX_PATHS
        cfg = parse_config(json.dumps({
            "target": "gauss-correlated", "sampler": "mala", "n_particles": n, "n_steps": 6,
            "record_every": 2, "tau": 0.05, "seed": 4, "init_mean": [2.0, 2.0],
            "init_cov": [[0.01, 0.0], [0.0, 0.01]], "output_dir": str(tmp_path / "run")}))
        outdir = experiment.run_experiment(cfg)
        snaps = [np.load(outdir / "snapshots" / f"particles_{it}.npy") for it in (0, 2, 4, 6)]
        assert all(s.shape == (n, 2) for s in snaps)
        last = snaps[-1]
        assert np.any(last[svg.MAX_PATHS:].max(axis=0) > last[:svg.MAX_PATHS].max(axis=0))
        svg.render_trajectory_svg(tmp_path / "full.svg", snaps, target=builtin("gauss-correlated"))
        assert (outdir / "trajectory.svg").read_bytes() == (tmp_path / "full.svg").read_bytes()

    def assert_matches_loop_renderer(self, snaps, target, tmp_path):
        svg.render_trajectory_svg(tmp_path / "t.svg", snaps, target=target)
        got = (tmp_path / "t.svg").read_bytes()
        assert got == loop_trajectory_svg(snaps, target, max_paths=svg.MAX_PATHS).encode("utf-8")
        return got.decode("utf-8")

    def test_truncated_middle_snapshots(self, tmp_path):
        # the snapshots run_experiment passes: full first and last records, MAX_PATHS rows between
        rng = np.random.default_rng(21)
        n = 3 * svg.MAX_PATHS + 7
        snaps = [rng.standard_normal((n, 2))]
        snaps += [rng.standard_normal((n, 2))[: svg.MAX_PATHS] * 1.5 for _ in range(4)]
        snaps.append(rng.standard_normal((n, 2)) * [2.0, 0.5] + [1.0, 0.0])
        text = self.assert_matches_loop_renderer(snaps, builtin("double-bananas"), tmp_path)
        assert text.count("<circle") == svg.MAX_PATHS

    def test_fewer_particles_than_paths(self, tmp_path):
        rng = np.random.default_rng(22)
        snaps = [rng.standard_normal((17, 2)) + 0.1 * k for k in range(5)]
        text = self.assert_matches_loop_renderer(snaps, builtin("gauss-aniso"), tmp_path)
        assert text.count("<rect x=") == 17

    def test_constant_potential_draws_no_level_line(self, tmp_path):
        flat = CustomTarget(lambda x: 1.0, lambda x: np.zeros_like(x), dim=2)
        rng = np.random.default_rng(24)
        snaps = [rng.standard_normal((30, 2)) for _ in range(3)]
        text = self.assert_matches_loop_renderer(snaps, flat, tmp_path)
        assert 'stroke="black"' not in text

    def test_negative_zero_coordinates(self, tmp_path):
        # a middle point just left of and above the plot limits maps to about -0.003
        rng = np.random.default_rng(25)
        first, last = rng.standard_normal((12, 2)), rng.standard_normal((12, 2))
        pts = np.vstack([first, last])
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        pad = 0.15 * (hi - lo)
        middle = first.copy()
        middle[0] = [lo[0] - pad[0] - 0.003 * (hi[0] - lo[0] + 2 * pad[0]) / 640,
                     hi[1] + pad[1] + 0.003 * (hi[1] - lo[1] + 2 * pad[1]) / 640]
        text = self.assert_matches_loop_renderer([first, middle, last], builtin("quartic"), tmp_path)
        assert " -0.00,-0.00 " in text

    def test_identical_particles_use_the_minimum_pad(self, tmp_path):
        snaps = [np.full((8, 2), 0.25) for _ in range(3)]
        text = self.assert_matches_loop_renderer(snaps, builtin("gauss-correlated"), tmp_path)
        assert text.count('cx="320.00" cy="320.00"') == 8
