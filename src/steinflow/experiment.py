"""Configuration-driven experiment runner: CSV traces, particle snapshots, SVG plots,
spectral reports, and seeded parameter sweeps."""

from __future__ import annotations

import hashlib
import json
import os
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import gaussian_flow, samplers, spectral
from .config import ConfigError, ExperimentConfig, parse_config
from .diagnostics import CSV_SCHEMA_VERSION, MetricRecord, empirical_moments, gaussian_fit_kl, kl_estimate
from .svg import MAX_PATHS, render_trajectory_svg
from .targets import GaussianTarget

__all__ = ["run_experiment", "analyze_spectrum", "run_sweep", "manifest_hash"]


def _output_dir(cfg: ExperimentConfig) -> Path:
    override = os.environ.get("STEINFLOW_OUT")
    return Path(override) if override else Path(cfg.output_dir)


def manifest_hash(resolved: dict) -> str:
    """Content hash of the resolved configuration (canonical JSON, sha256)."""
    canonical = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _write_manifest(outdir: Path, cfg: ExperimentConfig):
    resolved = cfg.resolved()
    payload = {"config": resolved, "content_hash": manifest_hash(resolved)}
    (outdir / "manifest.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                                          encoding="utf-8")


def _csv_text(rows) -> str:
    """CSV text of an n x d float array: ``%.17g`` values, one line per row.

    One ``%`` over a row template repeated n times formats every value in C;
    the digits are those of ``f"{v:.17g}"``, so every float round-trips.
    """
    rows = np.asarray(rows, dtype=float)
    n, d = rows.shape
    return ((",".join(["%.17g"] * d) + "\n") * n) % tuple(rows.ravel().tolist())


def _write_snapshot(snapdir: Path, iteration: int, x: np.ndarray):
    (snapdir / f"particles_{iteration}.csv").write_text(_csv_text(x), encoding="utf-8")


def _metric_for(cfg, scfg, iteration, x, mean_speed, grad_stat):
    method = "gaussian-fit" if cfg.kl_method == "auto" and isinstance(scfg.target, GaussianTarget) else "kde"
    degenerate = False
    try:
        if method == "gaussian-fit":
            kl, degenerate = gaussian_fit_kl(x, scfg.target)
        else:
            kl = kl_estimate(x, scfg.target, method="kde")
        mean, cov = empirical_moments(x)
    except (ValueError, FloatingPointError) as exc:  # np.linalg.LinAlgError is a ValueError
        raise RuntimeError(f"{cfg.sampler}: {method} KL metric failed at iteration {iteration}: {exc}") from exc
    return MetricRecord(
        iteration=iteration,
        kl_estimate=kl,
        mean=mean,
        cov=cov,
        grad_restart_stat=grad_stat,
        mean_speed=mean_speed,
        kl_degenerate=degenerate,
    )


def run_experiment(cfg: ExperimentConfig, outdir=None) -> Path:
    """Run one configured experiment; returns the output directory.

    Writes metrics.csv, snapshots/particles_<iter>.csv, trajectory.svg and
    manifest.json into ``outdir``, which defaults to $STEINFLOW_OUT when set
    and to cfg.output_dir otherwise.  Fully deterministic for a fixed
    configuration (the seed drives the initial draw and all sampler noise).
    metrics.csv is written one row per record, so a run that fails keeps the
    rows recorded before the failure.
    """
    scfg = cfg.build_sampler_config()
    dim = scfg.target.dim
    mean0, _, chol0 = cfg.initial_distribution(dim)
    outdir = _output_dir(cfg) if outdir is None else Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_manifest(outdir, cfg)

    rng = np.random.default_rng(cfg.seed)
    x0 = mean0 + rng.standard_normal((cfg.n_particles, dim)) @ chol0.T

    snapdir = outdir / "snapshots"
    snapdir.mkdir(exist_ok=True)
    # The plot needs every row of the first and last ensembles (they set its
    # limits) and only the drawn paths of the records in between.
    snapshots = []
    record_iters = set(range(0, cfg.n_steps + 1, cfg.record_every)) | {cfg.n_steps}

    with open(outdir / "metrics.csv", "w", encoding="utf-8") as metrics:
        metrics.write(f"# {CSV_SCHEMA_VERSION}\n" + MetricRecord.csv_header(dim) + "\n")

        def record(ens):
            if ens.iteration not in record_iters:
                return
            mean_speed = float(ens.prev_step_norms.mean())
            row = _metric_for(cfg, scfg, ens.iteration, ens.x, mean_speed, ens.grad_stat)
            metrics.write(row.csv_row() + "\n")
            metrics.flush()  # a run that fails later keeps every row recorded so far
            _write_snapshot(snapdir, ens.iteration, ens.x)
            snapshots.append(ens.x[:MAX_PATHS].copy() if snapshots else ens.x.copy())

        final = samplers.run(scfg, x0, cfg.n_steps, recorder=record, rng=rng)

    if dim == 2:
        snapshots[-1] = final.x  # the record of iteration n_steps, with all its rows
        render_trajectory_svg(outdir / "trajectory.svg", snapshots, target=scfg.target)
    return outdir


def analyze_spectrum(cfg: ExperimentConfig, sweep_param=None, sweep_values=None) -> Path:
    """Spectral report for the linearized dynamics of a Gaussian target.

    Writes spectral_report.json with the convergence rate constant, the optimal
    damping and step size, and the closed-form spectrum of the accelerated
    linearization (when A and Q commute), plus rate_table.csv sweeping either
    the kernel scale or the damping.
    """
    scfg = cfg.build_sampler_config()
    target = scfg.target
    if not isinstance(target, GaussianTarget):
        raise ConfigError("spectral analysis requires a Gaussian target")
    if cfg.kernel != "bilinear":
        raise ConfigError("spectral analysis requires the bilinear kernel (set kernel='bilinear')")
    a, b, q = scfg.kernel.a, target.b, target.q
    commuting = np.allclose(b, 0.0) and spectral.commutes(a, q)
    param = sweep_param or ("alpha" if commuting else "a")
    if param not in ("a", "alpha"):
        raise ConfigError(f"unknown sweep parameter {param!r} (valid: a, alpha)")
    if param == "alpha" and not commuting:
        raise ConfigError("alpha sweep requires b = 0 and commuting A, Q")
    if param == "a" and target.dim != 1:
        raise ConfigError("the kernel-scale sweep is one-dimensional")
    outdir = _output_dir(cfg)
    outdir.mkdir(parents=True, exist_ok=True)

    gamma, lower = gaussian_flow.gamma_rate(a, b, q)
    report = {
        "gamma": gamma,
        "gamma_lower_bound": lower,
        "alpha_star": spectral.optimal_damping(a),
    }
    b_a = spectral.svgd_linearized_matrix(a, b, q)
    report["linearized_eigenvalues"] = [
        [float(z.real), float(z.imag)] for z in np.linalg.eigvals(b_a)
    ]
    if target.dim == 1:
        a_s, h_s = spectral.optimal_a_svgd(float(b[0]), float(q[0, 0]), mode="scalar-1d")
        report["optimal_a_1d"] = a_s
        report["optimal_step_1d"] = h_s

    accelerated = None
    if commuting:
        alpha = spectral.optimal_damping(a)
        accelerated = spectral.asvgd_linearized_spectrum(a, q, alpha).to_dict()
        theta = float(np.linalg.eigvalsh(a).min())
        rho, h_star, kappa_tilde = spectral.asvgd_rates(q, theta)
        accelerated.update({"rho": rho, "h_star": h_star, "kappa_tilde": kappa_tilde})
    report["accelerated"] = accelerated
    (outdir / "spectral_report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n",
                                                 encoding="utf-8")

    if sweep_values is None:
        if param == "alpha":
            center = spectral.optimal_damping(a)
            sweep_values = np.geomspace(0.1 * center, 3.0 * center, 61)
        else:
            sweep_values = np.geomspace(1e-2, 1e2, 61)
    rows = []
    for val in sweep_values:
        if param == "alpha":
            eigs = spectral.asvgd_closed_form_eigs(a, q, float(val))
            mags = np.abs(eigs)
            rows.append((float(val), float(eigs.real.min()), float(mags.max() / mags.min())))
        else:
            lam_lo, lam_hi = spectral.eigs_1d(float(val), float(q[0, 0]), float(b[0]))
            rows.append((float(val), float(lam_lo), float(lam_hi / lam_lo)))
    header = f"{param},spectral_abscissa,condition_number\n"
    (outdir / "rate_table.csv").write_text(header + _csv_text(np.reshape(rows, (-1, 3))), encoding="utf-8")
    return outdir


def run_sweep(cfg: ExperimentConfig, param: str, values, max_workers=4):
    """Fan out independent runs over a parameter grid.

    Each run gets its own subdirectory and seed (base seed + index, or the
    swept value when ``param`` is ``seed``) and executes on a worker thread
    with a private ensemble.  The base directory is resolved once, here, and
    each run is handed its subdirectory explicitly.
    """
    base = _output_dir(cfg)
    if param not in cfg.resolved():
        raise ConfigError(f"unknown sweep key {param!r}")
    if param == "output_dir":
        raise ConfigError("output_dir cannot be swept: run i of a sweep writes to sweep_<i> under it")
    jobs, outdirs = [], []
    for i, value in enumerate(values):
        raw = cfg.resolved()
        raw[param] = value
        raw["seed"] = value if param == "seed" else cfg.seed + i
        raw["output_dir"] = str(base / f"sweep_{i}")
        jobs.append(parse_config(json.dumps(raw)))  # re-validate the swept value
        outdirs.append(base / f"sweep_{i}")
    with ThreadPoolExecutor(max_workers=max_workers) as pool:
        return list(pool.map(run_experiment, jobs, outdirs))
