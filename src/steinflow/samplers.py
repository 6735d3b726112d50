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
the Gram matrix, so it never forms an N x N matrix.  For the Gaussian kernel,
step 4 and the restart statistic of step 3 multiply K only by thin matrices:
one product K [grad_f(X) | X | V | Z | 1], with Z the N x d^2 matrix of
products V_ia X_ic, and one product K [M | r] built from it.  That is
O(N^2 (d^2 + 4d + 2)) after the O(N^3) Cholesky factorization, with no N x N
temporary after it.

``step`` is the one place the five samplers are told apart, and ``run`` is the
one loop over it.  The Langevin samplers keep their state in the same
``ParticleEnsemble``: ULD's momentum lives in Y.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg

from . import kernels
from .kernels import BilinearKernel, GaussianKernel

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
    "ALGORITHMS",
    "step",
    "run",
]

ALGORITHMS = ("asvgd", "svgd", "ula", "mala", "uld")


@dataclass
class ParticleEnsemble:
    """Positions, momenta and restart bookkeeping for one particle system.

    ``prev_step_norms`` holds each particle's displacement in the last step, and
    ``grad_stat`` the gradient-restart statistic of the last accelerated
    Gaussian-kernel step (NaN when no such step computed one).
    """

    x: np.ndarray
    y: np.ndarray
    v: np.ndarray
    restart_count: np.ndarray
    prev_step_norms: np.ndarray
    iteration: int = 0
    grad_stat: float = float("nan")

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


def _grad_restart_stat_gaussian(v, x, kg, kx, k1, sigma2):
    """Dissipation -dE/dt in matrix form; negative means the energy is rising.

    -(1/N^2) [tr(V^T K grad_f(X)) + tr(V^T (K - diag(K 1)) X) / sigma2], the
    matrix form of the negated double sum (1/N^2) sum_ij <V_j, k(X_i, X_j)
    grad_f(X_i) - grad2_k(X_j, X_i)>; ``kg``, ``kx`` and ``k1`` are K grad_f(X),
    K X and K 1.
    """
    n = x.shape[0]
    drive = float(np.tensordot(v, kg))
    repulsion = float(np.tensordot(v, kx - k1[:, None] * x))
    return -(drive + repulsion / sigma2) / n**2


def _damping_vector(ens, cfg, step_norms, grad_stat=float("nan")):
    """Per-particle damping for step 3; also returns the updated counters.

    A negative ``grad_stat`` fires the global gradient restart; NaN (no
    statistic on this kernel's path) never does.
    """
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
    if damping.use_gradient and grad_stat < 0.0:
        counts[:] = 1
    alpha = (counts - 1.0) / (counts + damping.r - 1.0)
    return alpha, counts


def asvgd_step(ens: ParticleEnsemble, cfg: SamplerConfig, include_interaction: bool = True) -> ParticleEnsemble:
    """One accelerated transport step (position, density momentum, damping, momentum).

    ``include_interaction=False`` drops the quadratic-in-V interaction term of
    the momentum update; with zero damping this reduces the X-iterates to the
    plain scheme with step tau, which the tests exploit.

    Gaussian kernel: the momentum update needs the interaction matrix
    W = N K + K ((V V^T) o K) - K o ((K V) V^T) only through W 1 and W X, so W
    is never formed.  With P = K [G | X | V | Z | 1] (G = grad_f(X),
    Z[:, a d + c] = V_a X_c), M_ic = sum_a V_ia (KZ)_i,ac and r = rowsum(V o KV),

        W 1 = N K1 + K r - rowsum(KV o KV),
        W X = N KX + K M - E,   E_ic = sum_a (KV)_ia (KZ)_i,ac,

    and the restart statistic reads KG, KX and K1 from P.  The two products
    cost O(N^2 (d^2 + 4d + 2)) instead of the O(N^3) of forming W, so they
    stop paying once d^2 approaches N (d of about 30 at N = 1000); every
    built-in target has d <= 10.
    """
    n = ens.n
    sqrt_tau = np.sqrt(cfg.tau)
    x_new = ens.x + sqrt_tau * ens.y
    _check_finite(x_new, ens.iteration + 1, "positions")
    g = cfg.target.grad_all(x_new)
    step_norms = np.linalg.norm(x_new - ens.x, axis=1)
    grad_stat = float("nan")

    if isinstance(cfg.kernel, BilinearKernel):
        u = cfg.kernel.low_rank_factor(x_new)
        if cfg.eps > 0:
            v_new = kernels.woodbury_inverse_apply(u, cfg.eps, ens.y, n)
        else:
            gm = kernels.gram(cfg.kernel, x_new)
            v_new = kernels.regularized_inverse_apply(gm, 0.0, ens.y, n)
        alpha, counts = _damping_vector(ens, cfg, step_norms)
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
                f"regularized kernel matrix singular at iteration {ens.iteration + 1} "
                f"(smallest singular value {smin:.3e})"
            ) from None
        v_new = n * scipy.linalg.cho_solve((c, low), ens.y, check_finite=False)
        sigma2 = cfg.kernel.sigma2
        d = ens.dim
        # z[i, a*d + c] = V_ia X_ic
        z = (v_new[:, :, None] * x_new[:, None, :]).reshape(n, d * d)
        p = k @ np.hstack([g, x_new, v_new, z, np.ones((n, 1))])
        kg, kx, kv = p[:, :d], p[:, d : 2 * d], p[:, 2 * d : 3 * d]
        kz = p[:, 3 * d : -1].reshape(n, d, d)
        k1 = p[:, -1]
        grad_stat = _grad_restart_stat_gaussian(v_new, x_new, kg, kx, k1, sigma2)
        alpha, counts = _damping_vector(ens, cfg, step_norms, grad_stat)
        w1 = n * k1
        wx = n * kx
        if include_interaction:
            m = np.einsum("ia,iac->ic", v_new, kz)
            r = np.einsum("ia,ia->i", v_new, kv)
            q = k @ np.hstack([m, r[:, None]])
            w1 += q[:, -1] - np.einsum("ia,ia->i", kv, kv)
            wx += q[:, :-1] - np.einsum("ia,iac->ic", kv, kz)
        y_new = (
            alpha[:, None] * ens.y
            - (sqrt_tau / n) * kg
            + (sqrt_tau / (n**2 * sigma2)) * (w1[:, None] * x_new - wx)
        )
    else:
        raise TypeError(f"unsupported kernel {cfg.kernel!r}")

    _check_finite(y_new, ens.iteration + 1, "momentum update")
    return ParticleEnsemble(
        x=x_new,
        y=y_new,
        v=v_new,
        restart_count=counts,
        prev_step_norms=step_norms,
        iteration=ens.iteration + 1,
        grad_stat=grad_stat,
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
    _check_finite(x_new, ens.iteration + 1, "position update")
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
    _check_finite(x_new, ens.iteration + 1, "position update")
    step_norms = np.linalg.norm(x_new - ens.x, axis=1)
    return replace(ens, x=x_new, prev_step_norms=step_norms, iteration=ens.iteration + 1)


def ula_step(x, cfg: SamplerConfig, rng) -> np.ndarray:
    """Unadjusted Langevin step x - tau grad_f(x) + sqrt(2 tau) xi, row-wise."""
    x = np.asarray(x, dtype=float)
    noise = rng.standard_normal(x.shape)
    return x - cfg.tau * cfg.target.grad_all(x) + np.sqrt(2.0 * cfg.tau) * noise


def mala_step(x, cfg: SamplerConfig, rng):
    """Metropolis-adjusted Langevin step; returns (new positions, acceptance flags).

    The target is evaluated only through its batched ``potential_all`` and
    ``grad_all``, once each on the current and the proposed positions.
    """
    x = np.asarray(x, dtype=float)
    tau = cfg.tau
    g_x = cfg.target.grad_all(x)
    proposal = x - tau * g_x + np.sqrt(2.0 * tau) * rng.standard_normal(x.shape)
    f_x = cfg.target.potential_all(x)
    f_y = cfg.target.potential_all(proposal)
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


def _unknown_algorithm(name):
    return ValueError(f"unknown algorithm {name!r} (valid: {', '.join(ALGORITHMS)})")


def step(ens: ParticleEnsemble, cfg: SamplerConfig, rng) -> ParticleEnsemble:
    """One step of ``cfg.algorithm``; the Langevin noise comes from ``rng``.

    Every sampler raises FloatingPointError on non-finite positions, so a
    diverging run stops at the step where it first left the floating-point range.
    """
    if cfg.algorithm == "asvgd":
        return asvgd_step(ens, cfg)
    if cfg.algorithm == "svgd":
        if isinstance(cfg.kernel, GaussianKernel):
            return svgd_step_gaussian(ens, cfg)
        return svgd_step_bilinear(ens, cfg)
    y = ens.y
    if cfg.algorithm == "ula":
        x = ula_step(ens.x, cfg, rng)
    elif cfg.algorithm == "mala":
        x, _ = mala_step(ens.x, cfg, rng)
    elif cfg.algorithm == "uld":
        x, y = uld_step(ens.x, ens.y, cfg, rng)
    else:
        raise _unknown_algorithm(cfg.algorithm)
    _check_finite(x, ens.iteration + 1, "positions")
    step_norms = np.linalg.norm(x - ens.x, axis=1)
    return replace(ens, x=x, y=y, prev_step_norms=step_norms, iteration=ens.iteration + 1)


def run(cfg: SamplerConfig, x0, n_steps, recorder=None, rng=None) -> ParticleEnsemble:
    """Take ``n_steps`` steps of the configured sampler from x0; returns the final ensemble.

    The recorder hook, if given, is called as recorder(ens) once for the
    initial state and once after every step; it must not mutate the ensemble.
    The Langevin noise comes from ``rng``, a generator seeded with cfg.seed
    unless the caller passes its own, so identical configurations produce
    identical trajectories.
    """
    if cfg.algorithm not in ALGORITHMS:
        raise _unknown_algorithm(cfg.algorithm)
    ens = ParticleEnsemble.initialize(x0)
    rng = np.random.default_rng(cfg.seed) if rng is None else rng
    if recorder is not None:
        recorder(ens)
    for _ in range(n_steps):
        try:
            ens = step(ens, cfg, rng)
        except Exception as exc:
            raise RuntimeError(f"{cfg.algorithm} failed at iteration {ens.iteration + 1}: {exc}") from exc
        if recorder is not None:
            recorder(ens)
    return ens
