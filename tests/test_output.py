"""The output layer against its per-value and per-cell loop oracles."""

import json

import numpy as np
import pytest

from steinflow import experiment, svg
from steinflow.config import parse_config
from steinflow.targets import builtin
from reference_impls import loop_csv_text, loop_marching_squares

SPECIAL_VALUES = [-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e300, -1e300, 1.0 / 3.0,
                  -2.0 / 3.0, 1.0, -7.0, 42.0, 1e16, 123456789.0, 0.1, -1.5e-7]


class TestCsvText:
    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_snapshot_bytes_equal_per_value_fstrings(self, d, tmp_path):
        rng = np.random.default_rng(d)
        values = np.concatenate([SPECIAL_VALUES, rng.standard_normal(40) * 10.0 ** rng.integers(-8, 9, 40)])
        x = np.resize(values, (values.size, d))  # every value in every column
        experiment._write_snapshot(tmp_path, 7, x)
        got = (tmp_path / "particles_7.csv").read_bytes()
        assert got == loop_csv_text(x).encode("utf-8")
        assert np.array_equal(np.loadtxt(tmp_path / "particles_7.csv", delimiter=",", ndmin=2), x)

    def test_rate_table_rows(self):
        rows = [(0.1, -1.0 / 3.0, 12.5), (1e-300, 5e-324, 1e300)]
        assert experiment._csv_text(np.reshape(rows, (-1, 3))) == loop_csv_text(rows)


def _bits(segs):
    return np.array(segs, dtype=float).reshape(-1, 4).view(np.uint64)


def assert_same_segments(grid, xs, ys, level):
    got = svg.marching_squares(grid, xs, ys, level)
    ref = loop_marching_squares(grid, xs, ys, level)
    assert len(got) == len(ref)
    assert np.array_equal(_bits(got), _bits(ref))
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
        assert assert_same_segments(np.array([[0.5, 1.0], [0.0, 1.0]]), xs, ys, 0.5) == []  # 1 crossing
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
        assert assert_same_segments(grid, xs, ys, 2.0) == []
        assert assert_same_segments(grid, xs, ys, 1.0) == []


class TestTrajectorySvg:
    def test_run_with_more_particles_than_paths_draws_full_records(self, tmp_path):
        # a tight initial cloud that MALA spreads out: the last record sets the plot limits
        n = 4 * svg.MAX_PATHS
        cfg = parse_config(json.dumps({
            "target": "gauss-correlated", "sampler": "mala", "n_particles": n, "n_steps": 6,
            "record_every": 2, "tau": 0.05, "seed": 4, "init_mean": [2.0, 2.0],
            "init_cov": [[0.01, 0.0], [0.0, 0.01]], "output_dir": str(tmp_path / "run")}))
        outdir = experiment.run_experiment(cfg)
        snaps = [np.loadtxt(outdir / "snapshots" / f"particles_{it}.csv", delimiter=",")
                 for it in (0, 2, 4, 6)]
        assert all(s.shape == (n, 2) for s in snaps)
        last = snaps[-1]
        assert np.any(last[svg.MAX_PATHS:].max(axis=0) > last[:svg.MAX_PATHS].max(axis=0))
        svg.render_trajectory_svg(tmp_path / "full.svg", snaps, target=builtin("gauss-correlated"))
        assert (outdir / "trajectory.svg").read_bytes() == (tmp_path / "full.svg").read_bytes()
