import contextlib
import json
import os
import re
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from steinflow import experiment, kernels, samplers, spectral
from steinflow.cli import main
from steinflow.config import ConfigError, ExperimentConfig, parse_config
from steinflow.diagnostics import csv_header
from steinflow.experiment import analyze_spectrum, manifest_hash, run_experiment, run_sweep
from steinflow.kernels import BilinearKernel, GaussianKernel
from steinflow.samplers import ConstantDamping, RestartNesterov


def make_cfg(tmp_path, **kw):
    raw = {"target": "gauss-correlated", "n_particles": 20, "n_steps": 5,
           "record_every": 2, "output_dir": str(tmp_path / "out"), "seed": 3}
    raw.update(kw)
    return parse_config(json.dumps(raw))


class TestParseConfig:
    def test_defaults(self):
        cfg = parse_config('{"target": "quartic"}')
        assert cfg.n_particles == 500
        assert cfg.n_steps == 1000
        assert cfg.tau == cfg.eps == cfg.sigma2 == 0.1
        assert isinstance(cfg.build_damping(), RestartNesterov)
        assert cfg.record_every == 10

    def test_missing_target(self):
        with pytest.raises(ConfigError, match="target"):
            parse_config("{}")

    def test_negative_tau_names_key(self):
        with pytest.raises(ConfigError, match="tau"):
            parse_config('{"target": "quartic", "tau": -1}')

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="bogus_key"):
            parse_config('{"target": "quartic", "bogus_key": 1}')

    def test_unknown_names_listed(self):
        with pytest.raises(ConfigError, match="asvgd"):
            parse_config('{"target": "quartic", "sampler": "other"}')
        with pytest.raises(ConfigError, match="quartic"):
            parse_config('{"target": "wrong"}')
        with pytest.raises(ConfigError, match="bilinear"):
            parse_config('{"target": "quartic", "kernel": "imq"}')

    def test_malformed_json(self):
        with pytest.raises(ConfigError, match="JSON"):
            parse_config("{not json")

    def test_reference_experiment_setup(self):
        cfg = parse_config(json.dumps({
            "target": "gauss-correlated",
            "kernel": "bilinear",
            "init_mean": [1.0, 1.0],
            "init_cov": [[3.0, 2.0], [2.0, 3.0]],
        }))
        scfg = cfg.build_sampler_config()
        assert isinstance(scfg.kernel, BilinearKernel)
        assert np.array_equal(scfg.kernel.a, np.eye(2))
        mean, cov, _ = cfg.initial_distribution(2)
        assert np.array_equal(mean, [1.0, 1.0])
        assert np.array_equal(cov, [[3.0, 2.0], [2.0, 3.0]])
        # precision reading of the printed target matrix
        assert np.allclose(scfg.target.q_inv, [[3.0, -2.0], [-2.0, 3.0]])

    def test_constant_damping_and_beta(self):
        cfg = parse_config('{"target": "quartic", "damping": "constant", "beta": 0.95}')
        assert cfg.build_damping() == ConstantDamping(0.95)
        with pytest.raises(ConfigError, match="beta"):
            parse_config('{"target": "quartic", "damping": "constant", "beta": 1.5}')

    def test_custom_gaussian_target(self):
        cfg = parse_config(json.dumps({
            "target": "gaussian", "target_mean": [0.0], "target_q": [[0.5]],
        }))
        t = cfg.build_target()
        assert t.q[0, 0] == 2.0
        cfg2 = parse_config(json.dumps({
            "target": "gaussian", "target_mean": [0.0], "target_q": [[2.0]],
        }))
        assert cfg2.build_target().q[0, 0] == pytest.approx(0.5)

    def test_gaussian_target_requires_params(self):
        with pytest.raises(ConfigError, match="target_mean"):
            parse_config('{"target": "gaussian"}')

    def test_bilinear_asvgd_needs_positive_eps(self):
        with pytest.raises(ConfigError, match="eps must be > 0.*rank at most d \\+ 1"):
            parse_config('{"target": "quartic", "kernel": "bilinear", "eps": 0}')

    def test_bilinear_svgd_accepts_zero_eps(self, tmp_path):
        # the plain step never solves with K + eps I
        cfg = make_cfg(tmp_path, sampler="svgd", kernel="bilinear", eps=0)
        outdir = run_experiment(cfg)
        assert len((outdir / "metrics.csv").read_text().strip().split("\n")) == 2 + 4  # records at 0, 2, 4 and 5

    @pytest.mark.parametrize("key", ["alg2_literal", "q_is_precision"])
    def test_removed_keys_are_unknown(self, key):
        with pytest.raises(ConfigError, match=f"unknown config key\\(s\\): {key}"):
            parse_config(json.dumps({"target": "gauss-correlated", key: False}))

    @pytest.mark.parametrize("target", ["gauss-aniso", "double-bananas"])
    def test_kl_method_gaussian_fit_and_kde_rejected(self, target):
        # auto already takes the Gaussian fit on a Gaussian target, and knn replaced the kde estimate
        for method in ("gaussian-fit", "kde"):
            with pytest.raises(ConfigError, match="kl_method must be auto or knn"):
                parse_config(json.dumps({"target": target, "kl_method": method}))
        assert parse_config(json.dumps({"target": target, "kl_method": "knn"})).kl_method == "knn"

    @pytest.mark.parametrize("key", ["seed", "tau", "init_mean"])
    def test_overlong_integer_is_a_config_error(self, key):
        # Python's int() refuses strings of more than 4300 digits
        value = "1" + "0" * 5000
        text = f'{{"target": "quartic", "{key}": {f"[0, {value}]" if key == "init_mean" else value}}}'
        with pytest.raises(ConfigError, match="config integer of 5001 digits is too long"):
            parse_config(text)

    def test_builders_name_the_key_they_reject(self):
        # parse_config rejects both values first; the builders check objects made directly too
        with pytest.raises(ConfigError, match="^sigma2: "):
            ExperimentConfig(target="quartic", sigma2=-1.0).build_kernel(2)
        with pytest.raises(ConfigError, match="^beta: "):
            ExperimentConfig(target="quartic", damping="constant", beta=1.5).build_damping()

    def test_restart_damping_has_no_setting(self):
        # the counter schedule (c - 1) / (c + 2) always runs both restarts
        assert not fields(RestartNesterov)
        assert parse_config('{"target": "quartic"}').build_damping() == RestartNesterov()

    def test_bad_init_cov(self):
        with pytest.raises(ConfigError, match="init_cov"):
            parse_config('{"target": "quartic", "init_cov": [[1.0, 2.0], [2.0, 1.0]]}')

    def test_init_cov_must_be_symmetric(self):
        # the Cholesky factor reads one triangle: [[1, 5], [0, 1]] would draw from the identity
        with pytest.raises(ConfigError, match="^init_cov must be symmetric$"):
            parse_config('{"target": "quartic", "init_cov": [[1, 5], [0, 1]]}')
        near = [[1, 1e-13], [0, 1]]  # within 1e-12 relative
        assert parse_config(json.dumps({"target": "quartic", "init_cov": near})).init_cov == near

    def test_ill_conditioned_precision_is_accepted(self):
        # np.linalg.inv of the 6 x 6 Hilbert matrix (condition number 1.5e7) is
        # symmetric only to 1.7e-12 relative; the target's covariance is its symmetric part
        hilbert = 1.0 / (np.arange(6)[:, None] + np.arange(6) + 1)
        raw = {"target": "gaussian", "target_mean": [0] * 6, "target_q": hilbert.tolist()}
        cov = parse_config(json.dumps(raw)).build_target().q
        assert np.array_equal(cov, cov.T)
        assert np.allclose(cov @ hilbert, np.eye(6), atol=1e-6)

    def test_n_particles_at_least_two(self):
        # both KL metrics need two particles, so one particle would fail at the first record
        with pytest.raises(ConfigError, match="n_particles must be an integer >= 2"):
            parse_config('{"target": "quartic", "n_particles": 1}')
        assert parse_config('{"target": "quartic", "n_particles": 2}').n_particles == 2

    def test_json_booleans_are_not_numbers(self, tmp_path, capsys):
        for key in ("tau", "eps", "sigma2", "n_particles", "n_steps", "record_every", "seed", "beta"):
            for value in (True, False):
                with pytest.raises(ConfigError, match=key):
                    parse_config(json.dumps({"target": "quartic", key: value}))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"target": "quartic", "n_particles": True, "n_steps": 1,
                                    "output_dir": str(tmp_path / "out")}))
        assert main(["run", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: n_particles must be an integer, got true")

    @pytest.mark.parametrize("key, value, expected", [
        ("sampler", 1, "a string, got 1"),
        ("output_dir", 7, "a string, got 7"),
        ("kernel", True, "a string, got true"),  # no key takes a JSON boolean
        ("damping", False, "a string, got false"),
        ("init_cov", False, "a list or null, got false"),
        ("seed", 2.0, "an integer, got 2.0"),
        ("n_steps", 1.5, "an integer, got 1.5"),
        ("init_mean", 0.0, "a list or null, got 0.0"),
        ("target_q", {"q": 1}, 'a list or null, got {"q": 1}'),
        ("tau", 10**400, "a number, got an integer too large for a float"),
        ("sigma2", 10**400, "a number, got an integer too large for a float"),
    ])
    def test_every_key_is_type_checked(self, key, value, expected):
        with pytest.raises(ConfigError, match=f"^{re.escape(f'{key} must be {expected}')}$"):
            parse_config(json.dumps({"target": "quartic", key: value}))

    def test_output_dir_type_error_is_a_cli_error(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"target": "quartic", "n_steps": 1, "output_dir": 7}))
        assert main(["run", str(path)]) == 1
        assert capsys.readouterr().err == "error: output_dir must be a string, got 7\n"

    @pytest.mark.parametrize("raw, message", [
        ({"init_mean": ["a", "b"]}, "init_mean: every entry must be a number"),
        ({"init_mean": [0.0, None]}, "init_mean: every entry must be a number"),
        ({"init_cov": [[1.0, 0.0], [0.0]]}, "init_cov: setting an array element with a sequence"),
        ({"init_mean": [10**400, 0.0]}, "init_mean: int too large to convert to float"),
        ({"kernel": "bilinear", "a_matrix": [[1, "y"], [0, 1]]}, "a_matrix: every entry must be a number"),
        ({"kernel": "bilinear", "a_matrix": [[1, True], [0, 1]]}, "a_matrix: every entry must be a number"),
        ({"target": "gaussian", "target_mean": [0, "x"], "target_q": [[1, 0], [0, 1]]},
         "target_mean: every entry must be a number"),
        ({"target": "gaussian", "target_mean": [0, 0], "target_q": [[1, 1], [1, 1]]},
         "target_q: precision must be positive definite"),
        ({"target": "gaussian", "target_mean": [0, 0], "target_q": [[1, 0, 0], [0, 1, 0]]},
         "target_q: precision must be square, got shape"),
        ({"target": "gaussian", "target_mean": [0, 0], "target_q": [[1, 1.000001], [1, 3]]},
         "target_q: precision must be symmetric"),
        ({"target": "gaussian", "target_mean": [[0], [1]], "target_q": [[2, 0], [0, 1]]},
         "target_mean must be a flat list of numbers, got shape"),
        ({"target": "gaussian", "target_mean": [0, 0], "target_q": np.eye(3).tolist()},
         "target_q must be 2x2 to match target_mean, got"),
        ({"kernel": "bilinear", "a_matrix": np.eye(3).tolist()}, "a_matrix must be 2x2, got shape"),
        ({"sampler": "mala", "kernel": "bilinear", "a_matrix": np.eye(3).tolist()},
         "a_matrix must be 2x2, got shape"),
        ({"target": "gaussian", "target_mean": [0.0], "target_q": [[2.0]], "kernel": "bilinear",
          "a_matrix": np.eye(2).tolist()}, "a_matrix must be 1x1, got shape"),
    ])
    def test_list_keys_name_themselves(self, raw, message):
        with pytest.raises(ConfigError, match="^" + message):
            parse_config(json.dumps({"target": "quartic", **raw}))

    @pytest.mark.parametrize("sampler", ["ula", "mala"])
    @pytest.mark.parametrize("a_matrix, message", [
        ([[1, 0], [0, -1]], "a_matrix: A must be positive definite"),
        ([[1, 2], [0, 1]], "a_matrix: A must be symmetric"),
        ([[1, 1.000001], [1, 1.5]], "a_matrix: A must be symmetric"),
    ])
    def test_langevin_sampler_checks_a_matrix(self, sampler, a_matrix, message):
        # a Langevin run builds no kernel, but its bilinear a_matrix is checked all the same
        raw = {"sampler": sampler, "kernel": "bilinear", "a_matrix": a_matrix, "target": "quartic"}
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config(json.dumps(raw))

    @pytest.mark.parametrize("kernel", ["gaussian", "bilinear"])
    def test_langevin_sampler_config_has_no_kernel(self, kernel):
        cfg = parse_config(json.dumps({"sampler": "mala", "kernel": kernel, "target": "quartic"}))
        assert cfg.build_sampler_config().kernel is None

    @pytest.mark.parametrize("token", ["Infinity", "-Infinity", "NaN", "1e999", "-1e999"])
    def test_non_finite_tokens_rejected(self, token):
        with pytest.raises(ConfigError, match=f"config value {token} is not a finite number"):
            parse_config(f'{{"target": "quartic", "init_mean": [0.0, {token}]}}')
        with pytest.raises(ConfigError, match=f"config value {token} is not a finite number"):
            parse_config(f'{{"target": "quartic", "tau": {token}}}')


class TestRunExperiment:
    def test_zero_steps_single_row(self, tmp_path):
        cfg = make_cfg(tmp_path, n_steps=0)
        outdir = run_experiment(cfg)
        lines = (outdir / "metrics.csv").read_text().strip().split("\n")
        assert lines[0] == "# steinflow-metrics-v1"
        assert len(lines) == 3  # schema comment + header + one row
        assert lines[2].startswith("0,")

    def test_failed_run_keeps_its_metric_rows(self, tmp_path):
        # diverges at iteration 10, where the Woodbury capacitance matrix is too
        # ill-conditioned to solve, after the records at iterations 0, 3, 6 and 9
        cfg = make_cfg(tmp_path, target="gauss-aniso", kernel="bilinear", damping="constant",
                       beta=0.8, n_particles=60, n_steps=12, record_every=3, tau=0.02, seed=0)
        message = "iteration 10: capacitance matrix eps I + U^T U ill-conditioned"
        with pytest.raises(RuntimeError, match=re.escape(message)):
            run_experiment(cfg)
        lines = (tmp_path / "out" / "metrics.csv").read_text().strip().split("\n")
        assert lines[:2] == ["# steinflow-metrics-v1", csv_header(2)]
        assert [line.split(",")[0] for line in lines[2:]] == ["0", "3", "6", "9"]
        snapdir = tmp_path / "out" / "snapshots"
        assert sorted(p.name for p in snapdir.iterdir()) == [f"particles_{it}.npy" for it in (0, 3, 6, 9)]
        for it in (0, 3, 6, 9):
            snap = np.load(snapdir / f"particles_{it}.npy")
            assert snap.shape == (60, 2) and np.isfinite(snap).all()
        assert not (snapdir / "particles_12.npy").exists()

    @pytest.mark.parametrize("raw, message, kept", [
        # the particles diverge and their moment fit stops being positive definite
        # at the record of iteration 6, after the records at 0 and 3
        ({"sampler": "svgd", "kernel": "bilinear", "target": "gauss-aniso", "n_steps": 12, "record_every": 3,
          "eps": 0.1},
         "svgd: gaussian-fit KL metric failed at iteration 6: sigma must be positive definite", range(0, 6, 3)),
        # the positions stay finite, but from iteration 87 their squares overflow the moment fit
        ({"sampler": "ula", "target": "gauss-aniso", "tau": 3, "n_steps": 200, "record_every": 1},
         "ula: gaussian-fit KL metric failed at iteration 87: sigma must be finite", range(87)),
        # the knn metric's potential_all overflows at iteration 5
        ({"sampler": "ula", "target": "double-bananas", "n_steps": 12, "record_every": 1},
         "ula: knn KL metric failed at iteration 5: non-finite KL estimate inf", range(5)),
    ], ids=["svgd-not-pd", "ula-fit-overflow", "ula-knn-overflow"])
    def test_failed_metric_names_its_iteration(self, tmp_path, capsys, raw, message, kept):
        cfg = make_cfg(tmp_path, n_particles=60, seed=0, **raw)
        # the ula runs overflow on purpose; the svgd run must raise no floating-point warning
        quiet = (lambda: np.errstate(all="ignore")) if raw["sampler"] == "ula" else contextlib.nullcontext
        with quiet():
            with pytest.raises(RuntimeError, match=f"^{re.escape(message)}$"):
                run_experiment(cfg)
        lines = (tmp_path / "out" / "metrics.csv").read_text().strip().split("\n")
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[2:]])
        assert rows[:, 0].tolist() == list(kept)
        # every reading is finite; grad_restart_stat is NaN for a sampler that has none
        readings = [j for j, name in enumerate(lines[1].split(",")) if name != "grad_restart_stat"]
        assert np.isfinite(rows[:, readings]).all()

        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.resolved()))
        with quiet():
            assert main(["run", str(path)]) != 0
        assert capsys.readouterr().err.strip() == f"error: {message}"

    def test_coinciding_particles_fail_the_knn_metric_at_their_iteration(self, tmp_path):
        cfg = make_cfg(tmp_path, target="quartic")
        x = np.random.default_rng(0).standard_normal((20, 2))
        x[5] = x[0]
        ens = samplers.ParticleEnsemble.initialize(x)
        ens.iteration = 4
        message = "asvgd: knn KL metric failed at iteration 4: two particles coincide"
        with pytest.raises(RuntimeError, match=message):
            experiment._metric_for(cfg.build_sampler_config(), "knn", ens)

    def test_determinism_byte_identical(self, tmp_path, monkeypatch):
        # one relative output_dir, run from two directories, so the manifests may be compared too
        cfg = make_cfg(tmp_path, output_dir="out")
        dirs = []
        for name in ("a", "b"):
            (tmp_path / name).mkdir()
            monkeypatch.chdir(tmp_path / name)
            dirs.append(run_experiment(cfg).resolve())
        d1, d2 = dirs
        files = sorted(p.relative_to(d1) for p in d1.rglob("*") if p.is_file())
        assert files == sorted(p.relative_to(d2) for p in d2.rglob("*") if p.is_file())
        assert {"metrics.csv", "manifest.json", "trajectory.svg", "snapshots/particles_0.npy"} <= {
            str(f) for f in files}
        for f in files:
            assert (d1 / f).read_bytes() == (d2 / f).read_bytes(), f

    def test_outputs_exist(self, tmp_path):
        cfg = make_cfg(tmp_path)
        outdir = run_experiment(cfg)
        assert (outdir / "metrics.csv").exists()
        assert (outdir / "manifest.json").exists()
        assert (outdir / "trajectory.svg").exists()
        assert (outdir / "snapshots" / "particles_0.npy").exists()
        assert (outdir / "snapshots" / "particles_5.npy").exists()
        snap = np.load(outdir / "snapshots" / "particles_0.npy")
        assert snap.shape == (20, 2)

    def test_metrics_header_golden(self, tmp_path):
        cfg = make_cfg(tmp_path)
        outdir = run_experiment(cfg)
        lines = (outdir / "metrics.csv").read_text().split("\n")
        assert lines[1] == ("iteration,kl_estimate,mean_0,mean_1,"
                           "cov_0_0,cov_0_1,cov_1_0,cov_1_1,"
                           "grad_restart_stat,mean_speed,kl_degenerate")

    def test_manifest_hash_changes_iff_config_changes(self, tmp_path):
        cfg = make_cfg(tmp_path)
        base = manifest_hash(cfg.resolved())
        same = manifest_hash(make_cfg(tmp_path).resolved())
        assert base == same
        changed = make_cfg(tmp_path, tau=0.2)
        assert manifest_hash(changed.resolved()) != base

    @pytest.mark.parametrize("sampler", ["svgd", "ula", "mala", "uld"])
    def test_all_samplers_run(self, tmp_path, sampler):
        cfg = make_cfg(tmp_path / sampler, sampler=sampler, n_steps=3)
        outdir = run_experiment(cfg)
        assert (outdir / "metrics.csv").exists()

    def test_gram_built_once_per_step(self, tmp_path, monkeypatch):
        calls = []
        gram = kernels.gram

        def counting_gram(*args, **kwargs):
            calls.append(args)
            return gram(*args, **kwargs)

        monkeypatch.setattr(kernels, "gram", counting_gram)
        cfg = make_cfg(tmp_path, sampler="asvgd", kernel="gaussian", n_steps=5, record_every=2)
        run_experiment(cfg)
        assert len(calls) == cfg.n_steps

    @pytest.mark.parametrize("sampler", ["asvgd", "svgd", "ula", "mala", "uld"])
    def test_final_snapshot_is_the_sampler_loop_result(self, tmp_path, sampler):
        cfg = make_cfg(tmp_path, sampler=sampler, n_steps=4)
        outdir = run_experiment(cfg)
        dim = cfg.build_target().dim
        mean0, _, chol0 = cfg.initial_distribution(dim)
        rng = np.random.default_rng(cfg.seed)
        x0 = mean0 + rng.standard_normal((cfg.n_particles, dim)) @ chol0.T
        final = samplers.run(cfg.build_sampler_config(), x0, cfg.n_steps, rng=rng)
        snapshot = np.load(outdir / "snapshots" / f"particles_{cfg.n_steps}.npy")
        assert np.array_equal(snapshot, final.x)

    def test_knn_metrics_for_non_gaussian_target(self, tmp_path):
        cfg = make_cfg(tmp_path, target="quartic", n_particles=30, n_steps=2, record_every=2)
        outdir = run_experiment(cfg)
        rows = (outdir / "metrics.csv").read_text().strip().split("\n")[2:]
        assert all(np.isfinite(float(r.split(",")[1])) for r in rows)


class TestAnalyze:
    def test_report_values_for_isotropic_half(self, tmp_path):
        cfg = parse_config(json.dumps({
            "target": "gaussian", "target_mean": [0.0, 0.0],
            "target_q": [[1.0, 0.0], [0.0, 1.0]],
            "kernel": "bilinear", "a_matrix": [[0.5, 0.0], [0.0, 0.5]],
            "output_dir": str(tmp_path / "spectral_out"),
        }))
        outdir = analyze_spectrum(cfg)
        report = json.loads((outdir / "spectral_report.json").read_text())
        assert report["alpha_star"] == pytest.approx(2.0)
        assert report["accelerated"]["contraction"] == pytest.approx(0.0, abs=1e-12)
        assert report["accelerated"]["condition_number"] == pytest.approx(1.0)
        # round-trips through json
        assert json.loads(json.dumps(report)) == report

    def test_report_has_one_contraction_for_non_scalar_a(self, tmp_path):
        # A = diag(1, 2) and Q = diag(1, 4) commute; the spectrum's contraction
        # is 0.340, where the rate formula for A = lambda_min(A) I gives 0.186
        a, q = np.diag([1.0, 2.0]), np.diag([1.0, 4.0])
        cfg = parse_config(json.dumps({
            "target": "gaussian", "target_mean": [0.0, 0.0], "target_q": np.linalg.inv(q).tolist(),
            "kernel": "bilinear", "a_matrix": a.tolist(), "output_dir": str(tmp_path / "spectral_out"),
        }))
        report = json.loads((analyze_spectrum(cfg) / "spectral_report.json").read_text())
        accelerated = report["accelerated"]
        assert sorted(accelerated) == ["condition_number", "contraction", "eigenvalues", "optimal_step",
                                       "spectral_abscissa"]
        spectrum = spectral.asvgd_linearized_spectrum(a, q, spectral.optimal_damping(a))
        assert accelerated["contraction"] == spectrum["contraction"] == pytest.approx(0.34015, abs=5e-6)
        assert accelerated["optimal_step"] == spectrum["optimal_step"]
        assert report["alpha_star"] == spectral.optimal_damping(a)

    def test_scale_sweep_has_interior_minimum(self, tmp_path):
        cfg = parse_config(json.dumps({
            "target": "gaussian", "target_mean": [0.3], "target_q": [[1.25]],
            "kernel": "bilinear", "a_matrix": [[1.0]],
            "output_dir": str(tmp_path / "sweep1d"),
        }))
        outdir = analyze_spectrum(cfg)
        rows = np.loadtxt(outdir / "rate_table.csv", delimiter=",", skiprows=1)
        kappas = rows[:, 2]
        j = int(np.argmin(kappas))
        assert 0 < j < len(kappas) - 1  # U shape: interior minimum
        a_star = 1.0 / (2.0 * 0.8 + 0.3**2)
        cell = np.log(rows[1, 0] / rows[0, 0])
        assert abs(np.log(rows[j, 0] / a_star)) <= cell + 1e-12

    def test_report_does_not_depend_on_the_sampler(self, tmp_path):
        raw = {"target": "gauss-correlated", "kernel": "bilinear", "a_matrix": [[0.5, 0.0], [0.0, 0.5]]}
        files = {}
        for sampler in ("asvgd", "mala"):
            outdir = analyze_spectrum(parse_config(json.dumps(
                {**raw, "sampler": sampler, "output_dir": str(tmp_path / sampler)})))
            files[sampler] = [(outdir / name).read_bytes() for name in ("spectral_report.json", "rate_table.csv")]
        assert files["mala"] == files["asvgd"]

    def test_requires_gaussian_target(self, tmp_path):
        cfg = make_cfg(tmp_path, target="quartic", kernel="bilinear")
        with pytest.raises(ConfigError, match="Gaussian"):
            analyze_spectrum(cfg)

    def test_requires_bilinear_kernel(self, tmp_path):
        cfg = make_cfg(tmp_path)
        with pytest.raises(ConfigError, match="bilinear"):
            analyze_spectrum(cfg)

    def test_target_is_checked_before_kernel(self, tmp_path):
        cfg = make_cfg(tmp_path, target="quartic")
        with pytest.raises(ConfigError, match="^spectral analysis requires a Gaussian target$"):
            analyze_spectrum(cfg)

    def test_builds_the_kernel_once(self, tmp_path, monkeypatch):
        calls = []
        build_kernel = ExperimentConfig.build_kernel

        def counted(cfg, dim):
            calls.append(dim)
            return build_kernel(cfg, dim)
        cfg = make_cfg(tmp_path, kernel="bilinear")
        monkeypatch.setattr(ExperimentConfig, "build_kernel", counted)
        analyze_spectrum(cfg)
        assert calls == [2]

    @pytest.mark.parametrize("target_mean, sweep_values, error, message", [
        ([0.5, 0.0], None, ConfigError, "^the rate table sweeps the damping, which needs b = 0 and commuting A, Q, "
                                        "or the kernel scale, which needs a one-dimensional target$"),
        ([0.0, 0.0], [-1.0, 1.0], ValueError, "alpha must be nonnegative"),
        ([0.0, 0.0], [1.0, float("nan")], ValueError, "^alpha must be nonnegative and finite, got nan$"),
        ([0.0, 0.0], [float("inf")], ValueError, "^alpha must be nonnegative and finite, got inf$"),
        ([0.0, 0.0], [True], ValueError, "^alpha sweep value True is not a number$"),
        ([0.0, 0.0], [1e200], ValueError, r"^alpha sweep value 1e\+200 gives a rate-table row that is not finite$"),
        ([0.0, 0.0], [10**400], ValueError, "^alpha sweep value 10{400} gives a rate-table row that is not finite$"),
    ], ids=["neither-sweep-applies", "alpha-target_mean2-alpha must be nonnegative", "alpha-nan", "alpha-inf",
            "alpha-true", "alpha-1e200", "alpha-int-too-large-for-a-float"])
    def test_invalid_sweep_writes_no_file(self, tmp_path, target_mean, sweep_values, error, message):
        cfg = parse_config(json.dumps({
            "target": "gaussian", "target_mean": target_mean, "target_q": [[1.0, 0.0], [0.0, 0.25]],
            "kernel": "bilinear", "output_dir": str(tmp_path / "an"),
        }))
        with pytest.raises(error, match=message):
            analyze_spectrum(cfg, sweep_values=sweep_values)
        assert not (tmp_path / "an").exists()

    @pytest.mark.parametrize("value, message", [
        (float("nan"), "^a and q must be finite and positive, got a = nan, q = 0.5$"),
        (1e200, r"^a sweep value 1e\+200 gives a rate-table row that is not finite$"),  # its eigenvalues overflow
    ], ids=["nan", "1e200"])
    def test_invalid_kernel_scale_writes_no_file(self, tmp_path, value, message):
        cfg = parse_config(json.dumps({"target": "gaussian", "target_mean": [0.5], "target_q": [[2.0]],
                                       "kernel": "bilinear", "output_dir": str(tmp_path / "an")}))
        with pytest.raises(ValueError, match=message):
            analyze_spectrum(cfg, sweep_values=[1.0, value])
        assert not (tmp_path / "an").exists()

    @pytest.mark.parametrize("raw, header", [
        ({"target": "gauss-correlated"}, "alpha"),
        ({"target": "gaussian", "target_mean": [0.0], "target_q": [[2.0]]}, "alpha"),
        ({"target": "gaussian", "target_mean": [0.5], "target_q": [[2.0]]}, "a"),
        ({"target": "gauss-aniso"}, None),
    ], ids=["gauss-correlated", "centred-1d", "off-centre-1d", "gauss-aniso"])
    def test_rate_table_sweeps_what_the_target_admits(self, tmp_path, raw, header):
        cfg = parse_config(json.dumps({**raw, "kernel": "bilinear", "output_dir": str(tmp_path / "an")}))
        if header is None:
            with pytest.raises(ConfigError, match="^the rate table sweeps the damping, which needs b = 0"):
                analyze_spectrum(cfg)
            assert not (tmp_path / "an").exists()
        else:
            first = (analyze_spectrum(cfg) / "rate_table.csv").read_text().split("\n")[0]
            assert first == f"{header},spectral_abscissa,condition_number"


class TestSweepAndCli:
    def test_sweep_assigns_seeds_and_dirs(self, tmp_path):
        cfg = make_cfg(tmp_path, n_steps=2, n_particles=10)
        outdirs = run_sweep(cfg, "tau", [0.05, 0.1], max_workers=2)
        assert len(outdirs) == 2
        manifests = [json.loads((d / "manifest.json").read_text()) for d in outdirs]
        assert manifests[0]["config"]["tau"] == 0.05
        assert manifests[1]["config"]["tau"] == 0.1
        assert manifests[1]["config"]["seed"] == cfg.seed + 1

    def test_sweep_over_seed_runs_the_swept_seeds(self, tmp_path):
        cfg = make_cfg(tmp_path, n_steps=2, n_particles=10)
        outdirs = run_sweep(cfg, "seed", [7, 8], max_workers=2)
        manifests = [json.loads((d / "manifest.json").read_text()) for d in outdirs]
        assert [m["config"]["seed"] for m in manifests] == [7, 8]
        single = run_experiment(make_cfg(tmp_path, n_steps=2, n_particles=10, seed=8,
                                         output_dir=str(tmp_path / "single")))
        assert (outdirs[1] / "metrics.csv").read_bytes() == (single / "metrics.csv").read_bytes()

    def test_sweep_rejects_output_dir(self, tmp_path):
        cfg = make_cfg(tmp_path, n_steps=1, n_particles=8)
        with pytest.raises(ConfigError, match="output_dir cannot be swept"):
            run_sweep(cfg, "output_dir", [str(tmp_path / "a"), str(tmp_path / "b")])
        assert not any(tmp_path.iterdir())

    def test_non_finite_values_rejected_on_every_route(self, tmp_path, capsys):
        # the config file, --override and swept values all pass through parse_config
        config = {"target": "gauss-correlated", "sampler": "mala", "n_particles": 8, "n_steps": 1,
                  "record_every": 1, "output_dir": str(tmp_path / "out")}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**config, "tau": float("inf")}))  # json.dumps writes Infinity
        assert main(["run", str(path)]) == 1
        assert capsys.readouterr().err == "error: config value Infinity is not a finite number\n"
        path.write_text(json.dumps(config))
        assert main(["run", str(path), "--override", "tau=NaN"]) == 1
        assert capsys.readouterr().err == "error: config value NaN is not a finite number\n"
        assert main(["sweep", str(path), "--param", "tau", "--values", "0.1,Infinity"]) == 1
        assert capsys.readouterr().err == "error: config value Infinity is not a finite number\n"
        assert not (tmp_path / "out").exists()

    def test_cli_rejects_a_non_finite_sweep_value(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"target": "gaussian", "target_mean": [0], "target_q": [[2]],
                                    "kernel": "bilinear", "output_dir": str(tmp_path / "out")}))
        assert main(["analyze", str(path), "--sweep-values", "NaN"]) == 1
        assert capsys.readouterr().err == "error: config value NaN is not a finite number\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("workers", [0, -2])
    def test_sweep_rejects_fewer_than_one_worker(self, tmp_path, capsys, workers):
        # checked before the jobs are parsed: the swept tau -1 would fail parse_config
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"target": "gauss-correlated", "n_particles": 8, "n_steps": 1,
                                    "output_dir": str(tmp_path / "out")}))
        argv = ["sweep", str(path), "--param", "tau", "--values", "0.1,-1", "--workers", str(workers)]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: a sweep needs at least 1 worker, got {workers}\n"
        assert not (tmp_path / "out").exists()

    def test_sweep_leaves_environment_alone(self, tmp_path, monkeypatch):
        before = dict(os.environ)
        seen = []
        real_run = experiment.run_experiment

        def spy(*args, **kwargs):
            seen.append(dict(os.environ))
            return real_run(*args, **kwargs)

        monkeypatch.setattr(experiment, "run_experiment", spy)
        cfg = make_cfg(tmp_path, n_steps=1, n_particles=8)
        outdirs = run_sweep(cfg, "tau", [0.05, 0.1], max_workers=2)
        assert seen == [before, before] and dict(os.environ) == before
        assert outdirs == [tmp_path / "out" / "sweep_0", tmp_path / "out" / "sweep_1"]
        assert all((d / "metrics.csv").exists() for d in outdirs)

    def test_output_dir_alone_decides_where_runs_write(self, tmp_path, monkeypatch):
        # STEINFLOW_OUT names a directory that no command may write to
        other = tmp_path / "elsewhere"
        monkeypatch.setenv("STEINFLOW_OUT", str(other))
        path = tmp_path / "cfg.json"
        for command, config, options in (
                ("run", {"target": "gauss-correlated"}, []),
                ("analyze", {"target": "gauss-correlated", "kernel": "bilinear"}, []),
                ("sweep", {"target": "gauss-correlated"}, ["--param", "tau", "--values", "0.05,0.1"])):
            outdir = tmp_path / command
            path.write_text(json.dumps({**config, "n_particles": 8, "n_steps": 2, "record_every": 1,
                                        "output_dir": str(outdir)}))
            assert main([command, str(path), *options]) == 0
            manifests = list(outdir.rglob("manifest.json"))
            assert len(manifests) == {"run": 1, "analyze": 0, "sweep": 2}[command]
            for manifest in manifests:
                assert json.loads(manifest.read_text())["config"]["output_dir"] == str(manifest.parent)
                assert (manifest.parent / "metrics.csv").exists()
        assert (tmp_path / "analyze" / "spectral_report.json").exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["analyze", "cfg.json", "run", "sweep"]

    def test_cli_run_and_exit_codes(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"target": "gauss-correlated", "n_particles": 10,
                                    "n_steps": 2, "record_every": 1,
                                    "output_dir": str(tmp_path / "cli_out")}))
        assert main(["run", str(path)]) == 0
        assert (tmp_path / "cli_out" / "metrics.csv").exists()

    def test_cli_override(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"target": "gauss-correlated", "n_particles": 10,
                                    "n_steps": 2, "record_every": 1,
                                    "output_dir": str(tmp_path / "o1")}))
        code = main(["run", str(path), "--override", f"output_dir={tmp_path / 'o2'}",
                     "--override", "seed=9"])
        assert code == 0
        manifest = json.loads((tmp_path / "o2" / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 9

    def test_cli_override_without_equals_sign(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"target": "quartic", "output_dir": str(tmp_path / "out")}))
        assert main(["run", str(path), "--override", "tau"]) == 1
        assert capsys.readouterr().err == "error: override 'tau' is not of the form key=value\n"
        assert not (tmp_path / "out").exists()

    def test_cli_sweep_over_an_unknown_key(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"target": "quartic", "output_dir": str(tmp_path / "sw")}))
        assert main(["sweep", str(path), "--param", "bogus", "--values", "1,2"]) == 1
        assert capsys.readouterr().err == "error: unknown sweep key 'bogus'\n"
        assert not list(tmp_path.rglob("sweep_*"))

    def test_cli_override_on_non_object_config(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text("[1]")
        assert main(["run", str(path), "--override", "tau=1"]) == 1
        assert capsys.readouterr().err == "error: config must be a JSON object\n"

    def test_cli_overlong_integer(self, tmp_path, capsys):
        # in the config file, in --override and in swept values
        big = "1" + "0" * 5000
        path = tmp_path / "cfg.json"
        path.write_text('{"target": "quartic", "n_particles": 4, "n_steps": 1, "seed": ' + big + "}")
        assert main(["run", str(path)]) == 1
        path.write_text(json.dumps({"target": "quartic", "n_particles": 4, "n_steps": 1,
                                    "output_dir": str(tmp_path / "out")}))
        assert main(["run", str(path), "--override", f"seed={big}"]) == 1
        assert main(["sweep", str(path), "--param", "seed", "--values", f"1,{big}"]) == 1
        limit = sys.get_int_max_str_digits()
        assert capsys.readouterr().err == f"error: config integer of 5001 digits is too long (limit {limit})\n" * 3
        assert not (tmp_path / "out").exists()

    def test_cli_malformed_json_file(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        assert main(["run", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: config is not valid JSON: ")

    def test_cli_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"target": "quartic", "tau": -3}))
        assert main(["run", str(path)]) == 1
        assert "tau" in capsys.readouterr().err

    def test_cli_analyze(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "target": "gaussian", "target_mean": [0.0, 0.0],
            "target_q": [[1.0, 0.0], [0.0, 0.25]],
            "kernel": "bilinear", "a_matrix": [[1.0, 0.0], [0.0, 1.0]],
            "output_dir": str(tmp_path / "an")}))
        assert main(["analyze", str(path)]) == 0
        assert (tmp_path / "an" / "spectral_report.json").exists()
        assert (tmp_path / "an" / "rate_table.csv").exists()

    def test_cli_sweep(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"target": "gauss-correlated", "n_particles": 8,
                                    "n_steps": 1, "record_every": 1,
                                    "output_dir": str(tmp_path / "sw")}))
        assert main(["sweep", str(path), "--param", "tau", "--values", "0.05,0.1"]) == 0
        assert (tmp_path / "sw" / "sweep_0" / "metrics.csv").exists()
        assert (tmp_path / "sw" / "sweep_1" / "metrics.csv").exists()


def test_float_formatting_17_significant_digits(tmp_path):
    cfg = make_cfg(tmp_path, n_steps=0, n_particles=5)
    outdir = run_experiment(cfg)
    row = (outdir / "metrics.csv").read_text().strip().split("\n")[2]
    value = row.split(",")[2]
    assert float(value) == float(f"{float(value):.17g}")
    assert "," in row and "." in value


def test_threaded_sweep_matches_serial(tmp_path):
    # the knn metric of 300 particles spans 2 distance blocks; two worker
    # threads must not share them
    outputs = {}
    for workers in (1, 2):
        cfg = make_cfg(tmp_path, sampler="mala", target="double-bananas", n_particles=300,
                       n_steps=4, record_every=2, tau=0.01, kl_method="auto",
                       output_dir=str(tmp_path / f"workers_{workers}"))
        outdirs = run_sweep(cfg, "tau", [0.005, 0.02], max_workers=workers)
        outputs[workers] = [
            {str(p.relative_to(d)): p.read_bytes()
             for p in [d / "metrics.csv", *sorted((d / "snapshots").iterdir())]}
            for d in outdirs
        ]
    assert [len(files) for files in outputs[1]] == [4, 4]
    assert outputs[2] == outputs[1]


def test_readme_config_table_lists_every_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme[readme.index("| key | default |"):].split("\n\n")[0].split("\n")[2:]
    listed = [key for row in table for key in re.findall(r"`(\w+)`", row.split("|")[1])]
    assert len(listed) == len(set(listed))
    assert set(listed) == {f.name for f in fields(ExperimentConfig)}


@pytest.mark.parametrize("command", ["run", "analyze", "sweep"])
def test_readme_synopsis_lists_every_flag(command, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme[readme.index("## Command line"):].split("```")[1]
    synopsis = [line for line in block.split("\n") if line.startswith(f"steinflow {command} ")]
    with pytest.raises(SystemExit):
        main([command, "--help"])
    parsed = set(re.findall(r"--[a-z][\w-]*", capsys.readouterr().out)) - {"--help"}
    assert len(synopsis) == 1
    assert set(re.findall(r"--[a-z][\w-]*", synopsis[0])) == parsed
