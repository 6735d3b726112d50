"""Configuration-driven experiment runner: CSV traces, particle snapshots, SVG plots,
spectral reports, and seeded parameter sweeps."""

from __future__ import annotations

import hashlib
import json
import numbers
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import gaussian_flow, samplers, spectral
from .config import ConfigError, ExperimentConfig, parse_config
from .diagnostics import CSV_SCHEMA_VERSION, csv_header, csv_row, empirical_moments, gaussian_fit_kl, kl_estimate
from .svg import MAX_PATHS, render_trajectory_svg
from .targets import GaussianTarget

__all__ = ["run_experiment", "analyze_spectrum", "run_sweep", "manifest_hash"]


def manifest_hash(resolved: dict) -> str:
    """Content hash of the resolved configuration (canonical JSON, sha256)."""
    canonical = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _write_manifest(outdir: Path, cfg: ExperimentConfig):
    resolved = cfg.resolved()
    payload = {"config": resolved, "content_hash": manifest_hash(resolved)}
    (outdir / "manifest.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                                          encoding="utf-8")


def _write_snapshot(snapdir: Path, iteration: int, x: np.ndarray):
    # a C-order copy of the column-major ensemble: the file reads fortran_order False
    np.save(snapdir / f"particles_{iteration}.npy", np.ascontiguousarray(x), allow_pickle=False)


def _metric_for(scfg, route, ens):
    """The metrics row of ``ens``: its moments and its KL by ``route``, "gaussian-fit" or "knn"."""
    degenerate = False
    try:
        mean, cov = empirical_moments(ens.x)
        if route == "gaussian-fit":
            kl, degenerate = gaussian_fit_kl(mean, cov, scfg.target)
        else:
            kl = kl_estimate(ens.x, scfg.target, method="knn")
        if not np.isfinite(kl):
            raise FloatingPointError(f"non-finite KL estimate {kl}")
    except (ValueError, FloatingPointError) as exc:  # np.linalg.LinAlgError is a ValueError
        raise RuntimeError(f"{scfg.algorithm}: {route} KL metric failed at iteration {ens.iteration}: {exc}") from exc
    return csv_row(iteration=ens.iteration, kl_estimate=kl, mean=mean, cov=cov, grad_restart_stat=ens.grad_stat,
                   mean_speed=float(ens.prev_step_norms.mean()), kl_degenerate=degenerate)


def run_experiment(cfg: ExperimentConfig) -> Path:
    """Run one configured experiment; returns the output directory.

    Writes metrics.csv, snapshots/particles_<iter>.npy (each record's exact
    float64 N x d ensemble), trajectory.svg and manifest.json into
    cfg.output_dir.  Fully deterministic for a fixed configuration (the seed
    drives the initial draw and all sampler noise).  A metrics row and a
    snapshot are written per record, so a failed run keeps its earlier records.
    """
    scfg = cfg.build_sampler_config()
    dim = scfg.target.dim
    mean0, _, chol0 = cfg.initial_distribution(dim)
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_manifest(outdir, cfg)

    rng = np.random.default_rng(cfg.seed)
    x0 = mean0 + rng.standard_normal((cfg.n_particles, dim)) @ chol0.T

    snapdir = outdir / "snapshots"
    snapdir.mkdir(exist_ok=True)
    # A 2-D run's plot needs every row of the first and last ensembles (they
    # set its limits) and only the drawn paths of the records in between.
    snapshots = []
    record_iters = set(range(0, cfg.n_steps + 1, cfg.record_every)) | {cfg.n_steps}
    route = "gaussian-fit" if cfg.kl_method == "auto" and isinstance(scfg.target, GaussianTarget) else "knn"

    with open(outdir / "metrics.csv", "w", encoding="utf-8") as metrics:
        metrics.write(f"# {CSV_SCHEMA_VERSION}\n" + csv_header(dim) + "\n")

        def record(ens):
            metrics.write(_metric_for(scfg, route, ens) + "\n")
            metrics.flush()  # a run that fails later keeps every row recorded so far
            _write_snapshot(snapdir, ens.iteration, ens.x)
            if dim == 2:
                last = ens.iteration == cfg.n_steps  # the last record's array is never stepped again
                snapshots.append(ens.x if last else ens.x[:MAX_PATHS if snapshots else None].copy())

        samplers.run(scfg, x0, cfg.n_steps, recorder=record, rng=rng, record_iters=record_iters)

    if dim == 2:
        render_trajectory_svg(outdir / "trajectory.svg", snapshots, scfg.target)
    return outdir


def analyze_spectrum(cfg: ExperimentConfig, sweep_values=None) -> Path:
    """Spectral report for the linearized dynamics of a Gaussian target.

    Writes spectral_report.json with the convergence rate constant, the optimal
    damping and step size, and the closed-form spectrum of the accelerated
    linearization (when A and Q commute), plus rate_table.csv sweeping the
    damping when b = 0 and A, Q commute, else the kernel scale of a 1-D target
    (any other target raises ConfigError).  Every value is computed before the
    output directory is made, so an invalid sweep (a value that is not a finite
    number, out of range, or whose row is not finite) raises ValueError and writes no file.
    """
    target = cfg.build_target()
    if not isinstance(target, GaussianTarget):
        raise ConfigError("spectral analysis requires a Gaussian target")
    if cfg.kernel != "bilinear":
        raise ConfigError("spectral analysis requires the bilinear kernel (set kernel='bilinear')")
    a, b, q = cfg.build_kernel(target.dim).a, target.b, target.q
    commuting = np.allclose(b, 0.0) and spectral.commutes(a, q)
    param = "alpha" if commuting else "a"
    if not commuting and target.dim != 1:
        raise ConfigError("the rate table sweeps the damping, which needs b = 0 and commuting A, Q, "
                          "or the kernel scale, which needs a one-dimensional target")
    gamma, lower = gaussian_flow.gamma_rate(a, b, q)
    alpha_star = spectral.optimal_damping(a)
    report = {
        "gamma": gamma,
        "gamma_lower_bound": lower,
        "alpha_star": alpha_star,
    }
    b_a = spectral.svgd_linearized_matrix(a, b, q)
    report["linearized_eigenvalues"] = [
        [float(z.real), float(z.imag)] for z in np.linalg.eigvals(b_a)
    ]
    if target.dim == 1:
        a_s, h_s = spectral.optimal_a_svgd(float(b[0]), float(q[0, 0]), mode="scalar-1d")
        report["optimal_a_1d"] = a_s
        report["optimal_step_1d"] = h_s
    report["accelerated"] = spectral.asvgd_linearized_spectrum(a, q, alpha_star) if commuting else None

    if sweep_values is None:
        if param == "alpha":
            sweep_values = np.geomspace(0.1 * alpha_star, 3.0 * alpha_star, 61)
        else:
            sweep_values = np.geomspace(1e-2, 1e2, 61)
    rows = []
    for val in sweep_values:
        if isinstance(val, bool) or not isinstance(val, numbers.Real):  # the range checks reject NaN and inf
            raise ValueError(f"{param} sweep value {val!r} is not a number")
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                if param == "alpha":
                    spectrum = spectral.asvgd_linearized_spectrum(a, q, float(val))
                    rows.append((float(val), spectrum["spectral_abscissa"], spectrum["condition_number"]))
                else:
                    lam_lo, lam_hi = spectral.eigs_1d(float(val), float(q[0, 0]), float(b[0]))
                    rows.append((float(val), float(lam_lo), float(lam_hi / lam_lo)))
        except (OverflowError, FloatingPointError):  # Python's float(val) and alpha**2 raise OverflowError
            rows.append((np.nan,))
        if not np.isfinite(rows[-1]).all():
            raise ValueError(f"{param} sweep value {val!r} gives a rate-table row that is not finite")

    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "spectral_report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n",
                                                 encoding="utf-8")
    np.savetxt(outdir / "rate_table.csv", np.reshape(rows, (-1, 3)), fmt="%.17g", delimiter=",",
               header=f"{param},spectral_abscissa,condition_number", comments="")
    return outdir


def run_sweep(cfg: ExperimentConfig, param: str, values, max_workers=1):
    """Fan out independent runs over a parameter grid.

    Run i gets the seed base seed + i (or the swept value when ``param`` is
    ``seed``) and the output directory <output_dir>/sweep_<i>, both written
    into its config, and executes on a worker thread with a private ensemble.
    ``max_workers`` below 1 is rejected before any job is parsed.
    """
    if max_workers < 1:
        raise ConfigError(f"a sweep needs at least 1 worker, got {max_workers}")
    if param not in cfg.resolved():
        raise ConfigError(f"unknown sweep key {param!r}")
    if param == "output_dir":
        raise ConfigError("output_dir cannot be swept: run i of a sweep writes to sweep_<i> under it")
    jobs = []
    for i, value in enumerate(values):
        raw = cfg.resolved()
        raw[param] = value
        raw["seed"] = value if param == "seed" else cfg.seed + i
        raw["output_dir"] = str(Path(cfg.output_dir) / f"sweep_{i}")
        jobs.append(parse_config(json.dumps(raw)))  # re-validate the swept value
    with ThreadPoolExecutor(max_workers=max_workers) as pool:
        return list(pool.map(run_experiment, jobs))
