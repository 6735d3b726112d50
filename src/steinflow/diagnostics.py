"""Run-time metrics: empirical moments, KL estimates, per-iteration records."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .gaussian_flow import kl_gaussians
from .targets import GaussianTarget

__all__ = [
    "MetricRecord",
    "empirical_moments",
    "kl_estimate",
    "gaussian_fit_kl",
    "CSV_SCHEMA_VERSION",
]

CSV_SCHEMA_VERSION = "steinflow-metrics-v1"


@dataclass
class MetricRecord:
    """One row of run-time diagnostics."""

    iteration: int
    kl_estimate: float
    mean: np.ndarray
    cov: np.ndarray
    grad_restart_stat: float
    mean_speed: float
    kl_degenerate: bool = False

    @staticmethod
    def csv_header(d):
        cols = ["iteration", "kl_estimate"]
        cols += [f"mean_{i}" for i in range(d)]
        cols += [f"cov_{i}_{j}" for i in range(d) for j in range(d)]
        cols += ["grad_restart_stat", "mean_speed", "kl_degenerate"]
        return ",".join(cols)

    def csv_row(self):
        vals = [f"{self.iteration}", f"{self.kl_estimate:.17g}"]
        vals += [f"{v:.17g}" for v in self.mean]
        vals += [f"{v:.17g}" for v in self.cov.ravel()]
        vals += [f"{self.grad_restart_stat:.17g}", f"{self.mean_speed:.17g}"]
        vals += ["1" if self.kl_degenerate else "0"]
        return ",".join(vals)


def empirical_moments(x):
    """Sample mean and unbiased (divisor N - 1) sample covariance, symmetrized."""
    x = np.asarray(x, dtype=float)
    if x.shape[0] < 2:
        raise ValueError("covariance needs at least two particles")
    mean = x.mean(axis=0)
    centered = x - mean
    cov = centered.T @ centered / (x.shape[0] - 1)
    return mean, 0.5 * (cov + cov.T)


def gaussian_fit_kl(x, target: GaussianTarget):
    """KL of the moment-fitted Gaussian from the Gaussian target.

    A degenerate fitted covariance is regularized by adding 1e-8 I; the second
    return value flags that this happened.
    """
    if not isinstance(target, GaussianTarget):
        raise TypeError("gaussian-fit KL needs a Gaussian target")
    mean, cov = empirical_moments(x)
    degenerate = False
    try:
        np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        cov = cov + 1e-8 * np.eye(cov.shape[0])
        degenerate = True
    return kl_gaussians(mean, cov, target.b, target.q), degenerate


def _kde_log_density(points, queries, bandwidth2):
    """Log density of an isotropic Gaussian kernel density estimate."""
    n, d = points.shape
    # one queries x points buffer, updated in place
    log_kernel = kernels.pairwise_sq_dists(queries, points)
    log_kernel /= -2.0 * bandwidth2
    log_kernel -= 0.5 * d * np.log(2.0 * np.pi * bandwidth2)
    m = log_kernel.max(axis=1)
    log_kernel -= m[:, None]
    np.exp(log_kernel, out=log_kernel)
    return m + np.log(log_kernel.sum(axis=1)) - np.log(n)


def kl_estimate(x, target, method="gaussian-fit", rng=None, n_is_draws=10000) -> float:
    """Monte-Carlo KL estimate of the particle distribution from the target.

    "gaussian-fit" fits moments and evaluates the closed-form Gaussian KL
    (Gaussian targets only).  "kde" builds an isotropic kernel density estimate
    with the median-heuristic bandwidth and corrects for the unknown target
    normalization by self-normalized importance sampling from the KDE; it
    evaluates the target through ``potential_all``, once on the particles and
    once on the importance draws.
    """
    x = np.asarray(x, dtype=float)
    if method == "gaussian-fit":
        value, _ = gaussian_fit_kl(x, target)
        return value
    if method != "kde":
        raise ValueError(f"unknown method {method!r} (valid: gaussian-fit, kde)")
    rng = np.random.default_rng(0) if rng is None else rng
    n, d = x.shape
    bandwidth2 = kernels.median_bandwidth(x)
    log_rho_x = _kde_log_density(x, x, bandwidth2)
    f_x = target.potential_all(x)
    # normalization of exp(-f) by importance sampling with the KDE as proposal
    idx = rng.integers(0, n, size=n_is_draws)
    draws = x[idx] + np.sqrt(bandwidth2) * rng.standard_normal((n_is_draws, d))
    log_rho_z = _kde_log_density(x, draws, bandwidth2)
    f_z = target.potential_all(draws)
    log_w = -f_z - log_rho_z
    m = log_w.max()
    log_z = m + np.log(np.exp(log_w - m).sum()) - np.log(n_is_draws)
    return float((log_rho_x + f_x).mean() + log_z)
