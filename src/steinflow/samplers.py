"""Iterated particle updates: momentum-accelerated kernel transport, plain kernel
transport, and the Langevin baselines (ULA, MALA, ULD), plus restart logic.

State layout for the kernel samplers: positions X, particle momenta Y (the
discrete velocities), density-space momenta V with row i approximating
grad Phi(X_i), and per-particle restart counters driving the damping schedule
alpha_i = (count_i - 1) / (count_i + r - 1).

One accelerated step runs

1. X <- X + sqrt(tau) Y
2. V <- N (K + eps I)^-1 Y
3. per-particle speed restart, global gradient restart (when the kernel
   supplies a restart statistic), damping alpha from the counters (or a
   constant beta)
4. Y <- alpha Y - (sqrt(tau) / N) K grad_f(X) + push.

Steps 1 and 3 and the combination of step 4 are the same for every kernel.
The kernel's ``accelerated_terms`` supplies V, K grad_f(X), the repulsion push
and the restart statistic, and its ``plain_step`` the whole plain update, so
``asvgd_step`` and ``svgd_step`` never ask which kernel they run on; see
``kernels`` for how each kernel computes them.  ``SamplerConfig`` rejects a
kernel without those two methods.

``step`` is the one place the five samplers are told apart, and ``run`` is the
one loop over it.  The Langevin samplers keep their state in the same
``ParticleEnsemble``: ULD's momentum lives in Y.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

__all__ = [
    "ParticleEnsemble",
    "RestartNesterov",
    "ConstantDamping",
    "SamplerConfig",
    "asvgd_step",
    "svgd_step",
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
    ``grad_stat`` the gradient-restart statistic of the last accelerated step
    (NaN when no step computed one; of the two kernels only the Gaussian does).
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
    algorithm: str = "asvgd"

    def __post_init__(self):
        if not self.tau > 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if self.eps < 0:
            raise ValueError(f"eps must be nonnegative, got {self.eps}")
        # the two methods the kernel samplers call; see the kernels module docstring
        if not all(callable(getattr(self.kernel, m, None)) for m in ("accelerated_terms", "plain_step")):
            raise TypeError(f"unsupported kernel {self.kernel!r}")


def _check_finite(arr, iteration, what):
    if not np.all(np.isfinite(arr)):
        raise FloatingPointError(f"non-finite {what} at iteration {iteration}")


def _damping_vector(ens, cfg, step_norms, grad_stat):
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


def asvgd_step(ens: ParticleEnsemble, cfg: SamplerConfig) -> ParticleEnsemble:
    """One accelerated transport step (position, density momentum, damping, momentum).

    The kernel-specific terms come from ``cfg.kernel.accelerated_terms``; the
    bilinear kernel requires eps > 0 and raises ValueError otherwise.
    """
    n = ens.n
    sqrt_tau = np.sqrt(cfg.tau)
    x_new = ens.x + sqrt_tau * ens.y
    _check_finite(x_new, ens.iteration + 1, "positions")
    g = cfg.target.grad_all(x_new)
    step_norms = np.linalg.norm(x_new - ens.x, axis=1)

    v_new, kg, push, grad_stat = cfg.kernel.accelerated_terms(x_new, ens.y, g, cfg.eps, cfg.tau)
    alpha, counts = _damping_vector(ens, cfg, step_norms, grad_stat)
    y_new = alpha[:, None] * ens.y - (sqrt_tau / n) * kg + push

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


def svgd_step(ens: ParticleEnsemble, cfg: SamplerConfig) -> ParticleEnsemble:
    """Plain kernel-transport step; the update itself is ``cfg.kernel.plain_step``."""
    g = cfg.target.grad_all(ens.x)
    x_new = cfg.kernel.plain_step(ens.x, g, cfg.tau)
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
        return svgd_step(ens, cfg)
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
