import json
import os
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from steinflow import experiment, kernels, samplers
from steinflow.cli import main
from steinflow.config import ConfigError, ExperimentConfig, parse_config
from steinflow.diagnostics import MetricRecord
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
        assert cfg.build_damping().use_speed and cfg.build_damping().use_gradient
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
    def test_kl_method_gaussian_fit_rejected(self, target):
        # auto already takes the Gaussian fit on a Gaussian target
        with pytest.raises(ConfigError, match="kl_method must be auto or kde"):
            parse_config(json.dumps({"target": target, "kl_method": "gaussian-fit"}))
        assert parse_config(json.dumps({"target": target, "kl_method": "kde"})).kl_method == "kde"

    def test_bad_init_cov(self):
        with pytest.raises(ConfigError, match="init_cov"):
            parse_config('{"target": "quartic", "init_cov": [[1.0, 2.0], [2.0, 1.0]]}')

    def test_n_particles_at_least_two(self):
        # both KL metrics need two particles, so one particle would fail at the first record
        with pytest.raises(ConfigError, match="n_particles must be an integer >= 2"):
            parse_config('{"target": "quartic", "n_particles": 1}')
        assert parse_config('{"target": "quartic", "n_particles": 2}').n_particles == 2

    def test_json_booleans_are_not_numbers(self, tmp_path, capsys):
        for key in ("tau", "eps", "sigma2", "n_particles", "n_steps", "record_every", "seed", "beta",
                    "restart_offset"):
            for value in (True, False):
                with pytest.raises(ConfigError, match=key):
                    parse_config(json.dumps({"target": "quartic", key: value}))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"target": "quartic", "n_particles": True, "n_steps": 1,
                                    "output_dir": str(tmp_path / "out")}))
        assert main(["run", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: n_particles must be an integer, got true")

    @pytest.mark.parametrize("key, value, expected", [
        ("use_speed_restart", "false", 'true or false, got "false"'),
        ("use_gradient_restart", "false", 'true or false, got "false"'),
        ("use_gradient_restart", 0, "true or false, got 0"),
        ("sampler", 1, "a string, got 1"),
        ("output_dir", 7, "a string, got 7"),
        ("init_mean", 0.0, "a list or null, got 0.0"),
        ("target_q", {"q": 1}, 'a list or null, got {"q": 1}'),
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
        ({"kernel": "bilinear", "a_matrix": [[1, "y"], [0, 1]]}, "a_matrix: every entry must be a number"),
        ({"kernel": "bilinear", "a_matrix": [[1, True], [0, 1]]}, "a_matrix: every entry must be a number"),
        ({"target": "gaussian", "target_mean": [0, "x"], "target_q": [[1, 0], [0, 1]]},
         "target_mean: every entry must be a number"),
        ({"target": "gaussian", "target_mean": [0, 0], "target_q": [[1, 1], [1, 1]]}, "target_q: Singular matrix"),
        ({"target": "gaussian", "target_mean": [0, 0], "target_q": [[1, 0, 0], [0, 1, 0]]},
         "target_q: Last 2 dimensions of the array must be square"),
    ])
    def test_list_keys_name_themselves(self, raw, message):
        with pytest.raises(ConfigError, match="^" + message):
            parse_config(json.dumps({"target": "quartic", **raw}))

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
        # diverges at iteration 11, after the records at iterations 0, 3, 6 and 9
        cfg = make_cfg(tmp_path, target="gauss-aniso", kernel="bilinear", damping="constant",
                       beta=0.8, n_particles=60, n_steps=12, record_every=3, tau=0.02, seed=0)
        with pytest.raises(RuntimeError, match="iteration 11"):
            run_experiment(cfg)
        lines = (tmp_path / "out" / "metrics.csv").read_text().strip().split("\n")
        assert lines[:2] == ["# steinflow-metrics-v1", MetricRecord.csv_header(2)]
        assert [line.split(",")[0] for line in lines[2:]] == ["0", "3", "6", "9"]

    def test_failed_metric_names_its_iteration(self, tmp_path, capsys):
        # the particles diverge and their moment fit stops being positive definite
        # at the record of iteration 6, after the records at 0 and 3
        cfg = make_cfg(tmp_path, sampler="svgd", kernel="bilinear", target="gauss-aniso", n_particles=60,
                       n_steps=12, record_every=3, eps=0.1, seed=0)
        message = "svgd: gaussian-fit KL metric failed at iteration 6: sigma must be positive definite"
        with pytest.raises(RuntimeError, match=message):
            run_experiment(cfg)
        lines = (tmp_path / "out" / "metrics.csv").read_text().strip().split("\n")
        assert [line.split(",")[0] for line in lines[2:]] == ["0", "3"]

        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.resolved()))
        assert main(["run", str(path)]) != 0
        assert capsys.readouterr().err.strip() == f"error: {message}"

    def test_determinism_byte_identical(self, tmp_path):
        # one output_dir in both configs, so the manifests may be compared too
        d1 = run_experiment(make_cfg(tmp_path), tmp_path / "a")
        d2 = run_experiment(make_cfg(tmp_path), tmp_path / "b")
        files = sorted(p.relative_to(d1) for p in d1.rglob("*") if p.is_file())
        assert files == sorted(p.relative_to(d2) for p in d2.rglob("*") if p.is_file())
        assert {"metrics.csv", "manifest.json", "trajectory.svg", "snapshots/particles_0.csv"} <= {
            str(f) for f in files}
        for f in files:
            assert (d1 / f).read_bytes() == (d2 / f).read_bytes(), f

    def test_outputs_exist(self, tmp_path):
        cfg = make_cfg(tmp_path)
        outdir = run_experiment(cfg)
        assert (outdir / "metrics.csv").exists()
        assert (outdir / "manifest.json").exists()
        assert (outdir / "trajectory.svg").exists()
        assert (outdir / "snapshots" / "particles_0.csv").exists()
        assert (outdir / "snapshots" / "particles_5.csv").exists()
        snap = np.loadtxt(outdir / "snapshots" / "particles_0.csv", delimiter=",")
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

    def test_env_var_overrides_output_dir(self, tmp_path, monkeypatch):
        cfg = make_cfg(tmp_path)
        override = tmp_path / "env_out"
        monkeypatch.setenv("STEINFLOW_OUT", str(override))
        outdir = run_experiment(cfg)
        assert outdir == override
        assert (override / "metrics.csv").exists()

    @pytest.mark.parametrize("sampler", ["svgd", "ula", "mala", "uld"])
    def test_all_samplers_run(self, tmp_path, sampler):
        cfg = make_cfg(tmp_path / sampler, sampler=sampler, n_steps=3)
        outdir = run_experiment(cfg)
        assert (outdir / "metrics.csv").exists()

    def test_gram_built_once_per_step(self, tmp_path, monkeypatch):
        calls = []
        gram = kernels.gram

        def counting_gram(*args):
            calls.append(args)
            return gram(*args)

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
        text = (outdir / "snapshots" / f"particles_{cfg.n_steps}.csv").read_text()
        snapshot = np.array([[float(v) for v in line.split(",")] for line in text.split()])
        assert np.array_equal(snapshot, final.x)

    def test_kde_metrics_for_non_gaussian_target(self, tmp_path):
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
        assert report["accelerated"]["rho"] == pytest.approx(0.0, abs=1e-12)
        assert report["accelerated"]["kappa_tilde"] == pytest.approx(1.0)
        # round-trips through json
        assert json.loads(json.dumps(report)) == report

    def test_scale_sweep_has_interior_minimum(self, tmp_path):
        cfg = parse_config(json.dumps({
            "target": "gaussian", "target_mean": [0.3], "target_q": [[1.25]],
            "kernel": "bilinear", "a_matrix": [[1.0]],
            "output_dir": str(tmp_path / "sweep1d"),
        }))
        outdir = analyze_spectrum(cfg, sweep_param="a")
        rows = np.loadtxt(outdir / "rate_table.csv", delimiter=",", skiprows=1)
        kappas = rows[:, 2]
        j = int(np.argmin(kappas))
        assert 0 < j < len(kappas) - 1  # U shape: interior minimum
        a_star = 1.0 / (2.0 * 0.8 + 0.3**2)
        cell = np.log(rows[1, 0] / rows[0, 0])
        assert abs(np.log(rows[j, 0] / a_star)) <= cell + 1e-12

    def test_requires_gaussian_target(self, tmp_path):
        cfg = make_cfg(tmp_path, target="quartic", kernel="bilinear")
        with pytest.raises(ConfigError, match="Gaussian"):
            analyze_spectrum(cfg)

    def test_requires_bilinear_kernel(self, tmp_path):
        cfg = make_cfg(tmp_path)
        with pytest.raises(ConfigError, match="bilinear"):
            analyze_spectrum(cfg)

    @pytest.mark.parametrize("sweep_param, target_mean, message", [
        ("a", [0.0, 0.0], "one-dimensional"),
        ("alpha", [0.5, 0.0], "alpha sweep requires b = 0"),
    ])
    def test_invalid_sweep_writes_no_file(self, tmp_path, sweep_param, target_mean, message):
        cfg = parse_config(json.dumps({
            "target": "gaussian", "target_mean": target_mean, "target_q": [[1.0, 0.0], [0.0, 0.25]],
            "kernel": "bilinear", "output_dir": str(tmp_path / "an"),
        }))
        with pytest.raises(ConfigError, match=message):
            analyze_spectrum(cfg, sweep_param=sweep_param)
        assert not (tmp_path / "an").exists()


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
        single = run_experiment(make_cfg(tmp_path, n_steps=2, n_particles=10, seed=8), tmp_path / "single")
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

    def test_sweep_leaves_environment_alone(self, tmp_path, monkeypatch):
        base = tmp_path / "env_out"
        monkeypatch.setenv("STEINFLOW_OUT", str(base))
        seen = []
        real_run = experiment.run_experiment

        def spy(*args, **kwargs):
            seen.append(os.environ.get("STEINFLOW_OUT"))
            return real_run(*args, **kwargs)

        monkeypatch.setattr(experiment, "run_experiment", spy)
        cfg = make_cfg(tmp_path, n_steps=1, n_particles=8)
        outdirs = run_sweep(cfg, "tau", [0.05, 0.1], max_workers=2)
        assert seen == [str(base), str(base)]
        assert outdirs == [base / "sweep_0", base / "sweep_1"]
        assert all((d / "metrics.csv").exists() for d in outdirs)

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


def test_threaded_sweep_matches_serial(tmp_path, monkeypatch):
    # the KDE metric of 300 particles spans 2 distance blocks; two worker
    # threads must not share them
    monkeypatch.delenv("STEINFLOW_OUT", raising=False)
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
