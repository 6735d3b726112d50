"""Run-time metrics: empirical moments, KL estimates, and the per-iteration rows of metrics.csv.

Every metric takes the whole particle set: the nearest-neighbour estimate
reads the particles' distances to each other, and the target only through
``potential_all`` and ``log_normalizer``.
"""

from __future__ import annotations

import math

import numpy as np

from . import kernels
from .gaussian_flow import _kl_gaussians_factored, spd_cholesky
from .targets import GaussianTarget

__all__ = [
    "csv_header",
    "csv_row",
    "empirical_moments",
    "kl_estimate",
    "gaussian_fit_kl",
    "CSV_SCHEMA_VERSION",
]

CSV_SCHEMA_VERSION = "steinflow-metrics-v1"


def csv_header(d):
    """The column names of a metrics row of a d-dimensional run, comma-separated."""
    cols = ["iteration", "kl_estimate"]
    cols += [f"mean_{i}" for i in range(d)]
    cols += [f"cov_{i}_{j}" for i in range(d) for j in range(d)]
    cols += ["grad_restart_stat", "mean_speed", "kl_degenerate"]
    return ",".join(cols)


def csv_row(*, iteration, kl_estimate, mean, cov, grad_restart_stat, mean_speed, kl_degenerate=False):
    """One metrics row in the columns of ``csv_header``, every float written exactly (%.17g)."""
    vals = [f"{iteration}", f"{kl_estimate:.17g}"]
    vals += [f"{v:.17g}" for v in mean]
    vals += [f"{v:.17g}" for v in cov.ravel()]
    vals += [f"{grad_restart_stat:.17g}", f"{mean_speed:.17g}"]
    vals += ["1" if kl_degenerate else "0"]
    return ",".join(vals)


def empirical_moments(x):
    """Mean and covariance (divisor N: no i.i.d. correction), symmetrized, of the particles' empirical measure."""
    x = np.asarray(x, dtype=float)
    if x.shape[0] < 2:
        raise ValueError("a Gaussian fit needs at least two particles: one has a zero covariance")
    mean = x.mean(axis=0)
    centered = x - mean
    cov = centered.T @ centered / x.shape[0]
    return mean, 0.5 * (cov + cov.T)


def gaussian_fit_kl(mean, cov, target: GaussianTarget):
    """KL of the Gaussian with the fitted moments ``mean`` and ``cov`` from the Gaussian target.

    The moments are those of ``empirical_moments``, which a caller that also
    records them computes once.  A degenerate fitted covariance is regularized
    by adding 1e-8 I to a copy; the second return value flags that this happened.
    It factors the covariance once, to check it, and reads the target's cached
    Cholesky factor of Q.
    """
    if not isinstance(target, GaussianTarget):
        raise TypeError("gaussian-fit KL needs a Gaussian target")
    try:
        cov, _ = spd_cholesky(cov, "sigma")
        return _kl_gaussians_factored(mean, cov, target.b, target.q, target.chol_q), False
    except ValueError:  # not positive definite; any other ValueError recurs on the copy
        cov, _ = spd_cholesky(cov + 1e-8 * np.eye(cov.shape[0]), "sigma")
        return _kl_gaussians_factored(mean, cov, target.b, target.q, target.chol_q), True


def kl_estimate(x, target, method="gaussian-fit") -> float:
    """Sample estimate of the KL of the particle distribution from the target.

    "gaussian-fit" fits moments and evaluates the closed-form Gaussian KL
    (Gaussian targets only), dropping ``gaussian_fit_kl``'s degeneracy flag: a
    caller that needs the flag calls ``gaussian_fit_kl``.  "knn" is the
    Kozachenko-Leonenko 1-nearest-neighbour estimate

        mean f(x_i) + log Z - H_{N-1} - log c_d - (d/2) mean log r_i^2,

    with r_i the distance from x_i to its nearest other particle, H_{N-1} =
    psi(N) - psi(1) the (N - 1)-th harmonic number, c_d = pi^(d/2) / Gamma(d/2 + 1)
    the volume of the unit d-ball, f evaluated through ``potential_all`` and
    log Z = ``target.log_normalizer``.  It raises ValueError for fewer than two
    particles, for two particles that coincide and for a target without
    ``log_normalizer``.
    """
    x = np.asarray(x, dtype=float)
    if method == "gaussian-fit":
        value, _ = gaussian_fit_kl(*empirical_moments(x), target)
        return value
    if method != "knn":
        raise ValueError(f"unknown method {method!r} (valid: gaussian-fit, knn)")
    log_z = getattr(target, "log_normalizer", None)
    if log_z is None:
        raise ValueError(f"knn KL needs the target's log_normalizer, which {type(target).__name__} lacks")
    r2 = kernels.nearest_sq_dists(x)
    if not r2.all():
        raise ValueError("two particles coincide, so a nearest-neighbour distance is 0")
    n, d = x.shape
    harmonic = (1.0 / np.arange(1, n)).sum()
    log_unit_ball = 0.5 * d * math.log(math.pi) - math.lgamma(0.5 * d + 1.0)
    return float(target.potential_all(x).mean() + log_z - harmonic - log_unit_ball
                 - 0.5 * d * np.log(r2).mean())
