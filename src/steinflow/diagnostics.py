"""Run-time metrics: empirical moments, KL estimates, per-iteration records.

Every metric takes the whole particle set: the KDE is evaluated at the
particles themselves, and the target only through ``potential_all`` and
``log_normalizer``.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _kde_log_density(x, bandwidth2):
    """Log density of the isotropic Gaussian kernel density estimate of the rows of x, at those rows.

    Runs the whole log-sum-exp on one block of rows at a time, so only the
    length-N result outlives a block: no N x N array is held.
    """
    n, d = x.shape
    log_norm = 0.5 * d * np.log(2.0 * np.pi * bandwidth2)
    out = np.empty(n)
    for start, stop, log_kernel in kernels._sq_dist_blocks(x):
        log_kernel /= -2.0 * bandwidth2
        log_kernel -= log_norm
        m = log_kernel.max(axis=1)
        log_kernel -= m[:, None]
        np.exp(log_kernel, out=log_kernel)
        out[start:stop] = m + np.log(log_kernel.sum(axis=1)) - np.log(n)
    return out


def kl_estimate(x, target, method="gaussian-fit") -> float:
    """Sample estimate of the KL of the particle distribution from the target.

    "gaussian-fit" fits moments and evaluates the closed-form Gaussian KL
    (Gaussian targets only).  "kde" is the particle mean of
    log rho(x_i) + f(x_i), plus ``target.log_normalizer``, where rho is the
    isotropic Gaussian kernel density estimate with the median-heuristic
    bandwidth, evaluated at the particles only, and f is evaluated through
    ``potential_all``; a target without ``log_normalizer`` raises ValueError.
    """
    x = np.asarray(x, dtype=float)
    if method == "gaussian-fit":
        value, _ = gaussian_fit_kl(x, target)
        return value
    if method != "kde":
        raise ValueError(f"unknown method {method!r} (valid: gaussian-fit, kde)")
    log_z = getattr(target, "log_normalizer", None)
    if log_z is None:
        raise ValueError(f"kde KL needs the target's log_normalizer, which {type(target).__name__} lacks")
    bandwidth2 = kernels.median_bandwidth(x)
    log_rho_x = _kde_log_density(x, bandwidth2)
    f_x = target.potential_all(x)
    return float((log_rho_x + f_x).mean() + log_z)
