"""Exact moment dynamics of the particle flows on the Gaussian family.

For a normal target N(b, Q) and the bilinear kernel x^T A y + 1, both the plain
and the momentum-accelerated particle flows keep normal distributions normal,
so they reduce to ordinary differential equations for (mu, Sigma) and, in the
accelerated case, the dual variables (nu, S).  This module implements those
right-hand sides, their closed-form special cases, the Gaussian KL divergence,
the metric pullback that links them, and a fixed-step RK4 integrator.  It is
the oracle layer the particle samplers are validated against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "GaussianState",
    "AcceleratedGaussianState",
    "kl_gaussians",
    "kl_gradient",
    "stein_gaussian_metric_inverse",
    "svgd_gaussian_rhs",
    "asvgd_gaussian_rhs",
    "hamiltonian",
    "kinetic_energy",
    "closed_form_sigma",
    "integrate_rk4",
    "constant_damping",
    "nesterov_damping",
    "gamma_rate",
]


def _sym(m):
    return 0.5 * (m + m.T)


def _check_spd(m, name):
    m = np.atleast_2d(np.asarray(m, dtype=float))
    if not np.allclose(m, m.T, atol=1e-10 * max(1.0, np.abs(m).max())):
        raise ValueError(f"{name} must be symmetric")
    try:
        np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        raise ValueError(f"{name} must be positive definite") from None
    return m


@dataclass
class GaussianState:
    """Mean and covariance of a normal distribution."""

    mu: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        self.mu = np.atleast_1d(np.asarray(self.mu, dtype=float))
        self.sigma = _check_spd(self.sigma, "sigma")

    @property
    def dim(self):
        return self.mu.size

    def flatten(self):
        return np.concatenate([self.mu, self.sigma.ravel()])

    @classmethod
    def from_flat(cls, vec, d):
        obj = cls.__new__(cls)
        obj.mu = vec[:d].copy()
        obj.sigma = _sym(vec[d:].reshape(d, d))
        return obj


@dataclass
class AcceleratedGaussianState:
    """Normal state (mu, Sigma) with cotangent momenta (nu, S); flows start from nu = S = 0."""

    mu: np.ndarray
    sigma: np.ndarray
    nu: np.ndarray = None
    s: np.ndarray = None

    def __post_init__(self):
        self.mu = np.atleast_1d(np.asarray(self.mu, dtype=float))
        self.sigma = _check_spd(self.sigma, "sigma")
        d = self.mu.size
        self.nu = np.zeros(d) if self.nu is None else np.atleast_1d(np.asarray(self.nu, dtype=float))
        self.s = np.zeros((d, d)) if self.s is None else _sym(np.atleast_2d(np.asarray(self.s, dtype=float)))

    @property
    def dim(self):
        return self.mu.size

    def flatten(self):
        return np.concatenate([self.mu, self.sigma.ravel(), self.nu, self.s.ravel()])

    @classmethod
    def from_flat(cls, vec, d):
        obj = cls.__new__(cls)
        obj.mu = vec[:d].copy()
        obj.sigma = _sym(vec[d : d + d * d].reshape(d, d))
        obj.nu = vec[d + d * d : 2 * d + d * d].copy()
        obj.s = _sym(vec[2 * d + d * d :].reshape(d, d))
        return obj


def kl_gaussians(mu, sigma, nu, q) -> float:
    """KL divergence of N(mu, sigma) from N(nu, q).

    0.5 * (tr(Q^-1 Sigma) - d + (nu - mu)^T Q^-1 (nu - mu) + ln det Q - ln det Sigma);
    nonnegative, zero exactly at (mu, sigma) = (nu, q).
    """
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    nu = np.atleast_1d(np.asarray(nu, dtype=float))
    sigma = _check_spd(sigma, "sigma")
    q = _check_spd(q, "q")
    d = mu.size
    chol_q = np.linalg.cholesky(q)
    chol_s = np.linalg.cholesky(sigma)
    logdet_q = 2.0 * np.log(np.diag(chol_q)).sum()
    logdet_s = 2.0 * np.log(np.diag(chol_s)).sum()
    q_inv = np.linalg.inv(q)
    diff = nu - mu
    return 0.5 * float(np.trace(q_inv @ sigma) - d + diff @ q_inv @ diff + logdet_q - logdet_s)


def kl_gradient(mu, sigma, b, q):
    """Gradient of the KL above in (mu, Sigma): (Q^-1 (mu - b), 0.5 (Q^-1 - Sigma^-1))."""
    q_inv = np.linalg.inv(q)
    sigma_inv = np.linalg.inv(sigma)
    return q_inv @ (mu - b), _sym(0.5 * (q_inv - sigma_inv))


def _kernel_bilinear(a, x, y):
    return float(x @ a @ y + 1.0)


def stein_gaussian_metric_inverse(state: GaussianState, nu, s, a):
    """Inverse metric map (nu, S) -> (dmu, dSigma) on the Gaussian family.

    dmu    = 2 S Sigma A mu + (mu^T A mu + 1) nu
    dSigma = 2 Sym(Sigma A (2 Sigma S + mu nu^T))
    """
    mu, sigma = state.mu, state.sigma
    nu = np.asarray(nu, dtype=float)
    s = np.asarray(s, dtype=float)
    dmu = 2.0 * s @ sigma @ a @ mu + _kernel_bilinear(a, mu, mu) * nu
    dsigma = 2.0 * _sym(sigma @ a @ (2.0 * sigma @ s + np.outer(mu, nu)))
    return dmu, dsigma


def svgd_gaussian_rhs(state: GaussianState, a, b, q):
    """Moment derivatives of the plain kernelized flow toward N(b, Q).

    dmu    = (I - Q^-1 Sigma) A mu - (mu^T A mu + 1) Q^-1 (mu - b)
    dSigma = 2 Sym(Sigma A) - 2 Sym(Sigma A (Sigma + mu (mu - b)^T) Q^-1)
    """
    mu, sigma = state.mu, state.sigma
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    q_inv = np.linalg.inv(q)
    eye = np.eye(mu.size)
    dmu = (eye - q_inv @ sigma) @ a @ mu - _kernel_bilinear(a, mu, mu) * (q_inv @ (mu - b))
    dsigma = 2.0 * _sym(sigma @ a) - 2.0 * _sym(sigma @ a @ (sigma + np.outer(mu, mu - b)) @ q_inv)
    return dmu, dsigma


def asvgd_gaussian_rhs(state: AcceleratedGaussianState, a, b, q, alpha):
    """Derivatives of the damped-Hamiltonian moment flow with friction alpha.

    The Sigma and S derivatives are symmetrized, which makes them the exact
    metric/Hamiltonian-consistent vector fields (their raw forms differ from
    these only by an antisymmetric part, which cannot move a symmetric matrix).
    """
    if alpha < 0:
        raise ValueError(f"damping must be nonnegative, got {alpha}")
    mu, sigma, nu, s = state.mu, state.sigma, state.nu, state.s
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    q_inv = np.linalg.inv(q)
    sigma_inv = np.linalg.inv(sigma)
    k_mu = _kernel_bilinear(a, mu, mu)

    dmu = 2.0 * s @ sigma @ a @ mu + k_mu * nu
    dsigma = _sym(
        np.outer(nu, mu) @ a @ sigma
        + _sym(sigma @ a @ (2.0 * sigma @ s + np.outer(mu, nu)))
        + 2.0 * _sym(sigma @ a @ sigma @ s)
    )
    dnu = -alpha * nu - 2.0 * a @ sigma @ s @ nu - (nu @ nu) * (a @ mu) - q_inv @ (mu - b)
    ds = _sym(
        -alpha * s
        - 2.0 * s @ np.outer(nu, mu) @ a
        - 4.0 * _sym(s @ s @ sigma @ a)
        - 0.5 * (q_inv - sigma_inv)
    )
    return dmu, dsigma, dnu, ds


def kinetic_energy(state: AcceleratedGaussianState, a) -> float:
    """Half the metric pairing of (nu, S) with its image under the inverse metric."""
    dmu, dsigma = stein_gaussian_metric_inverse(
        GaussianState(state.mu, state.sigma), state.nu, state.s, a
    )
    return 0.5 * float(state.nu @ dmu + np.tensordot(state.s, dsigma))


def hamiltonian(state: AcceleratedGaussianState, a, b, q) -> float:
    """Total energy: nonnegative kinetic term plus the KL potential."""
    return kinetic_energy(state, a) + kl_gaussians(state.mu, state.sigma, b, q)


def closed_form_sigma(t, sigma0, q, a):
    """Covariance at time t for the centered flow with commuting sigma0, Q, A.

    Sigma_t = (Q^-1 + e^{-2 t A} (Sigma_0^-1 - Q^-1))^-1.  All three matrices must
    commute pairwise (checked to 1e-10 relative); A is exponentiated in the
    common eigenbasis.
    """
    sigma0 = _check_spd(sigma0, "sigma0")
    q = _check_spd(q, "q")
    a = np.atleast_2d(np.asarray(a, dtype=float))
    for m1, m2, names in ((sigma0, q, "sigma0, q"), (a, q, "a, q"), (a, sigma0, "a, sigma0")):
        comm = m1 @ m2 - m2 @ m1
        scale = max(np.linalg.norm(m1) * np.linalg.norm(m2), 1e-300)
        if np.linalg.norm(comm) > 1e-10 * scale:
            raise ValueError(f"matrices {names} do not commute")
    vals, vecs = np.linalg.eigh(a)
    exp_m2ta = (vecs * np.exp(-2.0 * t * vals)) @ vecs.T
    inv = np.linalg.inv(q) + exp_m2ta @ (np.linalg.inv(sigma0) - np.linalg.inv(q))
    return _sym(np.linalg.inv(_sym(inv)))


def constant_damping(alpha):
    """Damping schedule t -> alpha."""
    alpha = float(alpha)
    return lambda t: alpha


def nesterov_damping(r=3.0, dt=1e-3):
    """Damping schedule t -> r / max(t, dt), clamped to avoid the t = 0 singularity."""
    return lambda t: r / max(t, dt)


def integrate_rk4(rhs, state0, t_end, dt, damping=None):
    """Classical fixed-step RK4 for the moment ODEs.

    ``rhs(state)`` for the plain flow, ``rhs(state, alpha)`` when a damping
    schedule is given.  Sigma (and S) are re-symmetrized after every stage; the
    integration aborts with the timestamp if Sigma loses positive definiteness
    or any state entry becomes non-finite.  Returns the list of (t, state).
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    d = state0.dim
    cls = type(state0)

    def f(t, y):
        state = cls.from_flat(y, d)
        if damping is None:
            derivs = rhs(state)
        else:
            derivs = rhs(state, damping(t))
        return np.concatenate([np.ravel(p) for p in derivs])

    t = 0.0
    y = state0.flatten()
    traj = [(0.0, state0)]
    n_steps = int(round(t_end / dt))
    for _ in range(n_steps):
        k1 = f(t, y)
        k2 = f(t + 0.5 * dt, y + 0.5 * dt * k1)
        k3 = f(t + 0.5 * dt, y + 0.5 * dt * k2)
        k4 = f(t + dt, y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += dt
        if not np.all(np.isfinite(y)):
            raise FloatingPointError(f"non-finite state at t = {t:.6g}")
        state = cls.from_flat(y, d)
        try:
            np.linalg.cholesky(state.sigma)
        except np.linalg.LinAlgError:
            raise FloatingPointError(f"covariance lost positive definiteness at t = {t:.6g}") from None
        y = state.flatten()
        traj.append((t, state))
    return traj


def gamma_rate(a, b, q):
    """Minimum eigenvalue of the convergence-rate block matrix, with its closed-form lower bound.

    The (d^2 + d) x (d^2 + d) symmetric matrix is

        [[ A kron I,                (Ab kron Q^-1/2) / sqrt(2) ],
         [ (Ab kron Q^-1/2)^T/sqrt2, 0.5 (b^T A b + 1) Q^-1     ]]

    and the returned lower bound is lambda_min(A) / (k(b,b) + 2 lambda_min(A) lambda_max(Q))
    with k(b,b) = b^T A b + 1.  gamma >= lower_bound always holds.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    q = _check_spd(q, "q")
    d = b.size
    q_vals, q_vecs = np.linalg.eigh(q)
    q_inv_half = (q_vecs / np.sqrt(q_vals)) @ q_vecs.T
    q_inv = (q_vecs / q_vals) @ q_vecs.T
    k_bb = float(b @ a @ b + 1.0)
    ab = (a @ b).reshape(d, 1)
    top_left = np.kron(a, np.eye(d))
    top_right = np.kron(ab, q_inv_half) / np.sqrt(2.0)
    bottom_right = 0.5 * k_bb * q_inv
    block = np.block([[top_left, top_right], [top_right.T, bottom_right]])
    gamma = float(np.linalg.eigvalsh(_sym(block)).min())
    a_min = float(np.linalg.eigvalsh(a).min())
    q_max = float(q_vals.max())
    lower_bound = a_min / (k_bb + 2.0 * a_min * q_max)
    if gamma < lower_bound - 1e-12:
        raise AssertionError(f"gamma = {gamma} fell below its lower bound {lower_bound}")
    return gamma, lower_bound
