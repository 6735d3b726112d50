"""Iterated particle updates: momentum-accelerated kernel transport, plain kernel
transport, and the Langevin baselines (ULA, MALA, ULD), plus restart logic.

State layout for the kernel samplers: positions X, particle momenta Y (the
discrete velocities), density-space momenta V with row i approximating
grad Phi(X_i), and per-particle restart counters driving the damping schedule
alpha_i = (count_i - 1) / (count_i + r - 1).

One accelerated step runs

1. X <- X + sqrt(tau) Y
2. K <- gram(X);  V <- N (K + eps I)^-1 Y
3. per-particle speed restart, global gradient restart (Gaussian kernel),
   damping alpha from the counters (or a constant beta)
4. kernel-specific momentum update in Y (alpha applied row-wise to the old Y).

For the bilinear kernel the whole step runs on the rank-(d+1) factorization of
the Gram matrix, so it never forms an N x N matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg

from . import kernels
from .kernels import BilinearKernel, GaussianKernel, GramMatrix

__all__ = [
    "ParticleEnsemble",
    "RestartNesterov",
    "ConstantDamping",
    "SamplerConfig",
    "asvgd_step",
    "svgd_step_gaussian",
    "svgd_step_bilinear",
    "ula_step",
    "mala_step",
    "uld_step",
    "gradient_restart_stat",
    "run",
]


@dataclass
class ParticleEnsemble:
    """Positions, momenta and restart bookkeeping for one particle system."""

    x: np.ndarray
    y: np.ndarray
    v: np.ndarray
    restart_count: np.ndarray
    prev_step_norms: np.ndarray
    iteration: int = 0

    @classmethod
    def initialize(cls, x0):
        x0 = np.array(x0, dtype=float)
        if x0.ndim != 2:
            raise ValueError(f"initial positions must be N x d, got shape {x0.shape}")
        n = x0.shape[0]
        return cls(
            x=x0,
            y=np.zeros_like(x0),
            v=np.zeros_like(x0),
            restart_count=np.ones(n, dtype=np.int64),
            prev_step_norms=np.zeros(n),
            iteration=0,
        )

    @property
    def n(self):
        return self.x.shape[0]

    @property
    def dim(self):
        return self.x.shape[1]


@dataclass(frozen=True)
class RestartNesterov:
    """Counter-based damping (count - 1) / (count + r - 1) with optional restarts."""

    use_speed: bool = True
    use_gradient: bool = True
    r: float = 3.0


@dataclass(frozen=True)
class ConstantDamping:
    """Fixed damping factor beta in [0, 1).

    beta = 0 is admitted (it reduces the accelerated scheme to the momentum-free
    one), even though typical runs use beta well inside (0, 1).
    """

    beta: float

    def __post_init__(self):
        if not 0.0 <= self.beta < 1.0:
            raise ValueError(f"beta must lie in [0, 1), got {self.beta}")


@dataclass
class SamplerConfig:
    """Everything one sampling run depends on."""

    kernel: object
    target: object
    tau: float
    eps: float = 0.0
    damping: object = field(default_factory=RestartNesterov)
    seed: int = 0
    n_steps: int = 1000
    algorithm: str = "asvgd"
    alg2_literal: bool = False

    def __post_init__(self):
        if not self.tau > 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if self.eps < 0:
            raise ValueError(f"eps must be nonnegative, got {self.eps}")


def _check_finite(arr, iteration, what):
    if not np.all(np.isfinite(arr)):
        raise FloatingPointError(f"non-finite {what} at iteration {iteration}")


def _grad_restart_stat_gaussian(k, v, x, g, sigma2):
    """Dissipation -dE/dt in matrix form; negative means the energy is rising.

    -(1/N^2) [tr(V^T K grad_f(X)) + tr(V^T (K - diag(K 1)) X) / sigma2].
    """
    n = k.shape[0]
    k1 = k.sum(axis=1)
    drive = float(np.tensordot(v, k @ g))
    repulsion = float(np.tensordot(v, k @ x - k1[:, None] * x))
    return -(drive + repulsion / sigma2) / n**2


def gradient_restart_stat(ens: ParticleEnsemble, kernel, target) -> float:
    """Energy-dissipation statistic; a negative value signals a restart.

    Equals -dE/dt of the transported energy along the flow, estimated as the
    negated double sum (1/N^2) sum_ij <V_j, k(X_i, X_j) grad_f(X_i) -
    grad2_k(X_j, X_i)>, evaluated in matrix form.  For the bilinear kernel,
    grad2_k(X_j, X_i) = A X_j and K = U U^T with the rank-(d+1) factor U, so
    the sum is tr((U^T V)^T U^T grad_f(X)) - N tr(V^T X A) and no N x N
    matrix is formed.
    """
    g = target.grad_all(ens.x)
    if isinstance(kernel, GaussianKernel):
        k = kernels.gram(kernel, ens.x).k
        return _grad_restart_stat_gaussian(k, ens.v, ens.x, g, kernel.sigma2)
    n = ens.n
    u = kernel.low_rank_factor(ens.x)
    drive = float(np.tensordot(u.T @ ens.v, u.T @ g))
    confinement = float(np.tensordot(ens.v, ens.x @ kernel.a))
    return -(drive - n * confinement) / n**2


def _damping_vector(ens, cfg, x_new, step_norms, k=None, v_new=None, g=None):
    """Per-particle damping for step 3; also returns the updated counters."""
    damping = cfg.damping
    if isinstance(damping, ConstantDamping):
        return np.full(ens.n, damping.beta), ens.restart_count.copy()
    counts = ens.restart_count.copy()
    if damping.use_speed:
        slower = step_norms < ens.prev_step_norms
        counts[slower] = 1
        counts[~slower] += 1
    else:
        counts += 1
    if damping.use_gradient and isinstance(cfg.kernel, GaussianKernel):
        stat = _grad_restart_stat_gaussian(k, v_new, x_new, g, cfg.kernel.sigma2)
        if stat < 0.0:
            counts[:] = 1
    alpha = (counts - 1.0) / (counts + damping.r - 1.0)
    return alpha, counts


def asvgd_step(ens: ParticleEnsemble, cfg: SamplerConfig, include_interaction: bool = True) -> ParticleEnsemble:
    """One accelerated transport step (position, density momentum, damping, momentum).

    ``include_interaction=False`` drops the quadratic-in-V interaction term of
    the momentum update; with zero damping this reduces the X-iterates to the
    plain scheme with step tau, which the tests exploit.
    """
    n, d = ens.n, ens.dim
    sqrt_tau = np.sqrt(cfg.tau)
    x_new = ens.x + sqrt_tau * ens.y
    _check_finite(x_new, ens.iteration, "positions")
    g = cfg.target.grad_all(x_new)
    step_norms = np.linalg.norm(x_new - ens.x, axis=1)

    if isinstance(cfg.kernel, BilinearKernel):
        u = cfg.kernel.low_rank_factor(x_new)
        if cfg.eps > 0:
            v_new = kernels.woodbury_inverse_apply(u, cfg.eps, ens.y, n)
        else:
            gm = kernels.gram(cfg.kernel, x_new)
            v_new = kernels.regularized_inverse_apply(gm, 0.0, ens.y, n)
        alpha, counts = _damping_vector(ens, cfg, x_new, step_norms)
        kg = u @ (u.T @ g)
        energy = -(sqrt_tau / n) * kg
        if include_interaction:
            scale = 1.0 + np.linalg.norm(u.T @ v_new) ** 2 / n**2
        else:
            scale = 1.0
        y_new = alpha[:, None] * ens.y + energy + sqrt_tau * scale * (x_new @ cfg.kernel.a)
    elif isinstance(cfg.kernel, GaussianKernel):
        k = kernels.gram(cfg.kernel, x_new).k
        k_eps = k.copy()
        k_eps.flat[:: n + 1] += cfg.eps
        try:
            c, low = scipy.linalg.cho_factor(k_eps, check_finite=False)
        except np.linalg.LinAlgError:
            smin = np.linalg.svd(k_eps, compute_uv=False).min()
            raise np.linalg.LinAlgError(
                f"regularized kernel matrix singular at iteration {ens.iteration} "
                f"(smallest singular value {smin:.3e})"
            ) from None
        del k_eps  # an N x N copy; free it before the interaction term's N x N temporaries
        v_new = n * scipy.linalg.cho_solve((c, low), ens.y, check_finite=False)
        alpha, counts = _damping_vector(ens, cfg, x_new, step_norms, k=k, v_new=v_new, g=g)
        sigma2 = cfg.kernel.sigma2
        if include_interaction:
            vvt = v_new @ v_new.T
            w = n * k + k @ (vvt * k) - k * ((k @ v_new) @ v_new.T)
        else:
            w = n * k
        y_new = (
            alpha[:, None] * ens.y
            - (sqrt_tau / n) * (k @ g)
            + (sqrt_tau / (n**2 * sigma2)) * (w.sum(axis=1)[:, None] * x_new - w @ x_new)
        )
    else:
        raise TypeError(f"unsupported kernel {cfg.kernel!r}")

    _check_finite(y_new, ens.iteration, "momentum update")
    return ParticleEnsemble(
        x=x_new,
        y=y_new,
        v=v_new,
        restart_count=counts,
        prev_step_norms=step_norms,
        iteration=ens.iteration + 1,
    )


def svgd_step_gaussian(ens: ParticleEnsemble, cfg: SamplerConfig) -> ParticleEnsemble:
    """Plain kernel-transport step with the Gaussian kernel.

    Default form: X <- X + (tau/N) [ (diag(K 1) - K) X / sigma2 - K grad_f(X) ].
    With ``cfg.alg2_literal`` the 1/sigma2 factor moves from the repulsion term
    to the driving term instead.
    """
    if not isinstance(cfg.kernel, GaussianKernel):
        raise TypeError("svgd_step_gaussian requires a Gaussian kernel")
    n = ens.n
    k = kernels.gram(cfg.kernel, ens.x).k
    g = cfg.target.grad_all(ens.x)
    k1 = k.sum(axis=1)
    repulsion = k1[:, None] * ens.x - k @ ens.x
    if cfg.alg2_literal:
        direction = repulsion - (k @ g) / cfg.kernel.sigma2
    else:
        direction = repulsion / cfg.kernel.sigma2 - k @ g
    x_new = ens.x + (cfg.tau / n) * direction
    _check_finite(x_new, ens.iteration, "position update")
    step_norms = np.linalg.norm(x_new - ens.x, axis=1)
    return replace(ens, x=x_new, prev_step_norms=step_norms, iteration=ens.iteration + 1)


def svgd_step_bilinear(ens: ParticleEnsemble, cfg: SamplerConfig) -> ParticleEnsemble:
    """Plain kernel-transport step with the bilinear kernel.

    X <- X + (tau/N) (N X A - K grad_f(X)); the driving term enters with a minus
    sign, which is the descent direction of the underlying flow.
    """
    if not isinstance(cfg.kernel, BilinearKernel):
        raise TypeError("svgd_step_bilinear requires a bilinear kernel")
    n = ens.n
    g = cfg.target.grad_all(ens.x)
    u = cfg.kernel.low_rank_factor(ens.x)
    kg = u @ (u.T @ g)
    x_new = ens.x + cfg.tau * (ens.x @ cfg.kernel.a - kg / n)
    _check_finite(x_new, ens.iteration, "position update")
    step_norms = np.linalg.norm(x_new - ens.x, axis=1)
    return replace(ens, x=x_new, prev_step_norms=step_norms, iteration=ens.iteration + 1)


def ula_step(x, cfg: SamplerConfig, rng) -> np.ndarray:
    """Unadjusted Langevin step x - tau grad_f(x) + sqrt(2 tau) xi, row-wise."""
    x = np.asarray(x, dtype=float)
    noise = rng.standard_normal(x.shape)
    return x - cfg.tau * cfg.target.grad_all(x) + np.sqrt(2.0 * cfg.tau) * noise


def mala_step(x, cfg: SamplerConfig, rng):
    """Metropolis-adjusted Langevin step; returns (new positions, acceptance flags)."""
    x = np.asarray(x, dtype=float)
    tau = cfg.tau
    g_x = cfg.target.grad_all(x)
    proposal = x - tau * g_x + np.sqrt(2.0 * tau) * rng.standard_normal(x.shape)
    f_x = np.array([cfg.target.potential(row) for row in x])
    f_y = np.array([cfg.target.potential(row) for row in proposal])
    g_y = cfg.target.grad_all(proposal)
    fwd = ((proposal - x + tau * g_x) ** 2).sum(axis=1)
    bwd = ((x - proposal + tau * g_y) ** 2).sum(axis=1)
    log_ratio = f_x - f_y + (fwd - bwd) / (4.0 * tau)
    accept = np.log(rng.random(x.shape[0])) < log_ratio
    x_new = np.where(accept[:, None], proposal, x)
    return x_new, accept


def uld_step(x, p, cfg: SamplerConfig, rng):
    """Euler-Maruyama step of underdamped Langevin with unit mass and friction.

    P' = P - tau (grad_f(X) + P) + sqrt(2 tau) xi,  X' = X + tau P'.
    """
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    noise = rng.standard_normal(x.shape)
    p_new = p - cfg.tau * (cfg.target.grad_all(x) + p) + np.sqrt(2.0 * cfg.tau) * noise
    x_new = x + cfg.tau * p_new
    return x_new, p_new


def run(cfg: SamplerConfig, initial_x, n_steps, recorder=None):
    """Iterate the configured sampler, returning the list of position snapshots.

    The recorder hook, if given, is called as recorder(iteration, x, diagnostics)
    once for the initial state and once per step; it must not mutate its
    arguments.  All randomness (Langevin noise) comes from a generator seeded
    with cfg.seed, so identical configurations produce identical trajectories.
    """
    initial_x = np.array(initial_x, dtype=float)
    if initial_x.ndim != 2:
        raise ValueError(f"initial positions must be N x d, got shape {initial_x.shape}")
    rng = np.random.default_rng(cfg.seed)
    algorithm = cfg.algorithm
    trajectory = [initial_x.copy()]
    if recorder is not None:
        recorder(0, initial_x, {})

    if algorithm in ("asvgd", "svgd"):
        ens = ParticleEnsemble.initialize(initial_x)
        for i in range(1, n_steps + 1):
            try:
                if algorithm == "asvgd":
                    ens = asvgd_step(ens, cfg)
                elif isinstance(cfg.kernel, GaussianKernel):
                    ens = svgd_step_gaussian(ens, cfg)
                else:
                    ens = svgd_step_bilinear(ens, cfg)
            except Exception as exc:
                raise RuntimeError(f"{algorithm} failed at iteration {i}: {exc}") from exc
            trajectory.append(ens.x.copy())
            if recorder is not None:
                recorder(i, ens.x, {"mean_speed": float(ens.prev_step_norms.mean())})
        return trajectory

    if algorithm == "ula":
        x = initial_x.copy()
        for i in range(1, n_steps + 1):
            x_prev = x
            x = ula_step(x, cfg, rng)
            trajectory.append(x.copy())
            if recorder is not None:
                recorder(i, x, {"mean_speed": float(np.linalg.norm(x - x_prev, axis=1).mean())})
        return trajectory

    if algorithm == "mala":
        x = initial_x.copy()
        for i in range(1, n_steps + 1):
            x_prev = x
            x, accept = mala_step(x, cfg, rng)
            trajectory.append(x.copy())
            if recorder is not None:
                recorder(i, x, {
                    "mean_speed": float(np.linalg.norm(x - x_prev, axis=1).mean()),
                    "accept_rate": float(accept.mean()),
                })
        return trajectory

    if algorithm == "uld":
        x = initial_x.copy()
        p = np.zeros_like(x)
        for i in range(1, n_steps + 1):
            x_prev = x
            x, p = uld_step(x, p, cfg, rng)
            trajectory.append(x.copy())
            if recorder is not None:
                recorder(i, x, {"mean_speed": float(np.linalg.norm(x - x_prev, axis=1).mean())})
        return trajectory

    raise ValueError(f"unknown algorithm {cfg.algorithm!r} "
                     "(valid: asvgd, svgd, ula, mala, uld)")
