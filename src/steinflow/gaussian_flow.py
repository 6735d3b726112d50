"""Exact moment dynamics of the particle flows on the Gaussian family.

For a normal target N(b, Q) and the bilinear kernel x^T A y + 1, both the plain
and the momentum-accelerated particle flows keep normal distributions normal,
so they reduce to ordinary differential equations for (mu, Sigma) and, in the
accelerated case, whose state extends the plain one, the dual variables (nu, S).
This module implements those right-hand sides, the closed-form covariance of
the commuting case, the Gaussian KL divergence, a fixed-step RK4 integrator and
the rate constant of the plain flow.  The particle samplers are checked against
these flows; the checks of the flows themselves (the metric pullback of the KL
gradient and the Hamiltonian) are test oracles in ``tests/reference_impls.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import commutes

__all__ = [
    "GaussianState",
    "AcceleratedGaussianState",
    "kl_gaussians",
    "svgd_gaussian_rhs",
    "asvgd_gaussian_rhs",
    "closed_form_sigma",
    "integrate_rk4",
    "constant_damping",
    "gamma_rate",
]


def _sym(m):
    return 0.5 * (m + m.T)


def spd_cholesky(m, name):
    """``m`` as a float 2-D array and its lower Cholesky factor, or a ValueError naming ``name``.

    The package's one test of a symmetric positive-definite input: square,
    finite, symmetric to 1e-12 max(1, max|m_ij|) with no relative term (the
    factor reads one triangle, so an asymmetric m would have another matrix's
    factor), and a Cholesky factorization that succeeds.
    """
    m = np.atleast_2d(np.asarray(m, dtype=float))
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} must be finite")
    if not np.allclose(m, m.T, rtol=0.0, atol=1e-12 * np.abs(m).max(initial=1.0)):
        raise ValueError(f"{name} must be symmetric")
    try:
        return m, np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        raise ValueError(f"{name} must be positive definite") from None


@dataclass
class GaussianState:
    """Mean and covariance of a normal distribution."""

    mu: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        self.mu = np.atleast_1d(np.asarray(self.mu, dtype=float))
        self.sigma, _ = spd_cholesky(self.sigma, "sigma")

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
class AcceleratedGaussianState(GaussianState):
    """Normal state (mu, Sigma) with cotangent momenta (nu, S); flows start from nu = S = 0."""

    nu: np.ndarray = None
    s: np.ndarray = None

    def __post_init__(self):
        super().__post_init__()
        d = self.dim
        self.nu = np.zeros(d) if self.nu is None else np.atleast_1d(np.asarray(self.nu, dtype=float))
        self.s = np.zeros((d, d)) if self.s is None else _sym(np.atleast_2d(np.asarray(self.s, dtype=float)))

    def flatten(self):
        return np.concatenate([super().flatten(), self.nu, self.s.ravel()])

    @classmethod
    def from_flat(cls, vec, d):
        obj = super().from_flat(vec[: d + d * d], d)
        obj.nu = vec[d + d * d : 2 * d + d * d].copy()
        obj.s = _sym(vec[2 * d + d * d :].reshape(d, d))
        return obj


def kl_gaussians(mu, sigma, nu, q) -> float:
    """KL divergence of N(mu, sigma) from N(nu, q).

    0.5 * (tr(Q^-1 Sigma) - d + (nu - mu)^T Q^-1 (nu - mu) + ln det Q - ln det Sigma);
    nonnegative, zero exactly at (mu, sigma) = (nu, q); computed as ``_kl_gaussians_factored``.
    """
    sigma, _ = spd_cholesky(sigma, "sigma")
    q, chol_q = spd_cholesky(q, "q")
    return _kl_gaussians_factored(mu, sigma, nu, q, chol_q)


def _kl_gaussians_factored(mu, sigma, nu, q, chol_q) -> float:
    """``kl_gaussians`` from Q's lower Cholesky factor L, with no check; a KL near 0 keeps its digits.

    0.5 * (sum_i (x_i - log1p(x_i)) + |L^-1 (nu - mu)|^2), x_i the eigenvalues of
    L^-1 (Sigma - Q) L^-T, cancels no terms of order 1.  An x_i <= -1 (Sigma not
    positive definite to working precision) raises ValueError.
    """
    m = np.linalg.solve(chol_q, np.linalg.solve(chol_q, sigma - q).T)  # L^-1 (Sigma - Q) L^-T, transposed
    x = np.linalg.eigvalsh(0.5 * (m + m.T))
    if not x.min() > -1.0:
        raise ValueError("sigma must be positive definite, relative to q, to working precision")
    z = np.linalg.solve(chol_q, np.atleast_1d(np.subtract(nu, mu, dtype=float)))
    return 0.5 * float((x - np.log1p(x)).sum() + z @ z)


def _kernel_bilinear(a, x, y):
    return float(x @ a @ y + 1.0)


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
    if not 0.0 <= alpha < np.inf:
        raise ValueError(f"damping must be nonnegative and finite, got {alpha}")
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


def closed_form_sigma(t, sigma0, q, a):
    """Covariance at time t for the centered flow with commuting sigma0, Q, A.

    Sigma_t = (Q^-1 + e^{-2 t A} (Sigma_0^-1 - Q^-1))^-1.  All three matrices must
    commute pairwise (checked to 1e-10 relative); A is exponentiated in the
    common eigenbasis.
    """
    sigma0, _ = spd_cholesky(sigma0, "sigma0")
    q, _ = spd_cholesky(q, "q")
    a = np.atleast_2d(np.asarray(a, dtype=float))
    for m1, m2, names in ((sigma0, q, "sigma0, q"), (a, q, "a, q"), (a, sigma0, "a, sigma0")):
        if not commutes(m1, m2):
            raise ValueError(f"matrices {names} do not commute")
    vals, vecs = np.linalg.eigh(a)
    exp_m2ta = (vecs * np.exp(-2.0 * t * vals)) @ vecs.T
    inv = np.linalg.inv(q) + exp_m2ta @ (np.linalg.inv(sigma0) - np.linalg.inv(q))
    return _sym(np.linalg.inv(_sym(inv)))


def constant_damping(alpha):
    """Damping schedule t -> alpha."""
    alpha = float(alpha)
    return lambda t: alpha


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
    q, _ = spd_cholesky(q, "q")
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
    return gamma, lower_bound
