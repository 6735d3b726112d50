"""Iterated particle updates: momentum-accelerated kernel transport, plain kernel
transport, and the Langevin baselines (ULA, MALA, ULD), plus restart logic.

State layout for the kernel samplers: positions X, particle momenta Y (the
discrete velocities) and per-particle restart counters driving the damping
schedule alpha_i = (count_i - 1) / (count_i + r - 1).  The density-space
momenta V are not state: each accelerated step derives them from Y.

One accelerated step runs

1. X <- X + sqrt(tau) Y
2. V = N (K + eps I)^-1 Y, row i approximating grad Phi(X_i)
3. the damping's ``factor``: per-particle speed restart, global gradient
   restart and alpha from the counters, or a constant beta
4. Y <- alpha Y + F, with the kernel force F = push - (sqrt(tau) / N) K grad_f(X)
   and the push built from V.

Steps 1 and 3 and the combination of step 4 are the same for every kernel.
The kernel's ``accelerated_terms`` supplies the force F, as a fresh array that
becomes the new momentum, and the restart statistic, and its ``plain_step``
the whole plain update; the damping's ``factor`` supplies alpha and the new
counters.  So ``asvgd_step`` and ``svgd_step`` never ask which kernel or
damping they run with; see ``kernels`` for how each kernel computes its terms.
``SamplerConfig`` rejects a kernel without those two methods for the two
kernel samplers, and a damping without ``factor`` for ``asvgd``; the Langevin
samplers never read the kernel and take ``kernel=None``.

The affine frame.  With a kernel that has ``frame_terms`` (the bilinear one)
and a damping whose ``uniform`` is true (``ConstantDamping``: one scalar
alpha for every particle), the step is affine in the particles, so a run that
starts at rest keeps X = P W and Y = P V in the frame P = [X0 | 1] of its
start, with (d+1) x d coefficients W and V, for any target: grad_f enters only
through P^T grad_f.  ``run`` steps every such ``asvgd`` run in that frame
itself, not through ``step``.  The frame (P, P^T P, formed once, W, V, the V
before the last step and the last grad_f) belongs to the run, and a step in
it is ``_AffineFrame.advance``, W <- W + sqrt(tau) V, P^T grad_f,
``frame_terms`` and V <- W_hat S + alpha V.  Only at the iterations the
recorder reads (``record_iters``) and at the last one does
``_AffineFrame.ensemble`` form the full ensemble: X = P W, Y = P V and the
step lengths sqrt(tau) |P V_prev| row by row.  The N-row work of a step
between records:

* on a target with ``frame_gradient`` (a ``GaussianTarget``, whose gradient
  is affine), P^T grad_f comes from P^T P and W alone, so ``advance`` reads
  no N-row array and costs O(d^3) whatever N is;
* on any other target ``advance`` forms X = P W, grad_f(X) and
  P^T grad_f(X), and no Y or step lengths;
* a ``RestartNesterov`` run (whose speed restart gives each particle its own
  alpha) takes the particle path above, with all its N-row passes.

``asvgd_step`` knows no frame: a direct call is the particle step, with or
without a workspace.  The frame and the particle path agree to rounding,
about 1e-15 normwise, not bit for bit: a constant-damped bilinear run and a
loop of direct ``asvgd_step`` calls from its start do not give the same
bits.  A frame run gives the same bits whichever iterations it records.  A
consequence for users: with the bilinear kernel and one damping factor the
particles stay an affine image of their start, so such a run can match a
Gaussian target's mean and covariance, and on any other target it settles
where E[grad_f(X)] = 0 and E[grad_f(X) X^T] = I, which need not give even the
covariance (on ``quartic`` the variances settle near 0.59 against 0.676; see
README).

All five samplers share one contract: ``name_step(ens, cfg, rng, work)``
returns the next ``ParticleEnsemble``, with its positions checked finite, its
step lengths recorded and its iteration advanced by one.  The kernel samplers
ignore ``rng``, and only ``asvgd`` and ``mala`` read ``work``.  The
Langevin samplers keep their state in the same ensemble: ULD's momentum lives
in Y.  MALA returns no acceptance flags, since a rejected particle keeps its
row bit for bit: the accepted rows are ``np.any(new.x != ens.x, axis=1)``.
``step`` picks the function by ``cfg.algorithm``, and ``run`` is the one loop
over it, which steps a frame run itself (see above).

``work`` is the run's workspace: a dict that ``run`` makes once and hands to
every step.  It holds the accelerated step's N-row scratch arrays (the
kernel's, see ``kernels``, and alpha Y under "alpha_y"), so a large run does
not allocate, fault in and free them on every step, and, under "mala", f
and grad_f at the positions MALA returned, so MALA evaluates the target once
per step (see ``mala_step``).  The workspace belongs to one run, never to the
ensemble, the kernel or the module, because a sweep runs its jobs on
threads; no scratch array of it, and no array of a run's frame, ends up in
an ensemble, which a recorder may keep.  A step called without it gets a
fresh one, with the same bits as a particle step inside ``run``.

Every N x d array of a run is column-major (Fortran order), so each
coordinate is one contiguous length-N vector: ``ParticleEnsemble.initialize``
copies the initial positions that way, and every step keeps it.  Elementwise
arithmetic gives the same bits in either layout; the kernels and the built-in
targets write their thin products so that the results stay column-major (see
``kernels``).  A target gradient that comes back in C order, as a
``CustomTarget``'s does, and the Langevin noise, which the generator fills
row by row, are copied to column-major before they are used, so a seed gives
the same particles whatever layout a target returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import ClassVar

import numpy as np

from .kernels import _column_gram, _matmul_f, workspace_array

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

KERNEL_ALGORITHMS = ("asvgd", "svgd")
ALGORITHMS = KERNEL_ALGORITHMS + ("ula", "mala", "uld")


@dataclass
class ParticleEnsemble:
    """Positions, momenta and restart bookkeeping for one particle system.

    ``x`` and ``y`` are N x d arrays in column-major order (see the module
    docstring).  ``prev_step_norms`` holds each particle's displacement in the
    last step, and ``grad_stat`` the gradient-restart statistic of the last
    accelerated step (NaN until an accelerated step has run, so in every run
    of another sampler).
    """

    x: np.ndarray
    y: np.ndarray
    restart_count: np.ndarray
    prev_step_norms: np.ndarray
    iteration: int = 0
    grad_stat: float = float("nan")

    @classmethod
    def initialize(cls, x0):
        x0 = np.array(x0, dtype=float, order="F")
        if x0.ndim != 2:
            raise ValueError(f"initial positions must be N x d, got shape {x0.shape}")
        n = x0.shape[0]
        return cls(
            x=x0,
            y=np.zeros_like(x0),
            restart_count=np.ones(n, dtype=np.int64),
            prev_step_norms=np.zeros(n),
            iteration=0,
        )


@dataclass(frozen=True)
class RestartNesterov:
    """Counter-based damping (count - 1) / (count + 2) with optional restarts.

    The counter schedule of Nesterov's method, the r = 3 member of the
    (k - 1) / (k + r - 1) family of Su, Boyd and Candes (2016).
    """

    use_speed: bool = True
    use_gradient: bool = True
    # the speed restart and the counters an ensemble brings give each particle its own alpha
    uniform: ClassVar[bool] = False

    def factor(self, ens, step_norms, grad_stat):
        """alpha = (c - 1) / (c + 2) as an N x 1 column, and the counters c after this step's restarts.

        A step shorter than the last restarts that particle's counter, and a
        negative ``grad_stat`` every counter.
        """
        counts = ens.restart_count + 1
        if self.use_speed:
            counts[step_norms < ens.prev_step_norms] = 1
        if self.use_gradient and grad_stat < 0.0:
            counts[:] = 1
        alpha = counts - 1.0
        alpha /= counts + 2.0
        return alpha[:, None], counts


@dataclass(frozen=True)
class ConstantDamping:
    """Fixed damping factor beta in [0, 1).

    beta = 0 is admitted (it reduces the accelerated scheme to the momentum-free
    one), even though typical runs use beta well inside (0, 1).
    """

    beta: float
    # ``factor`` returns one scalar alpha for every particle, reading neither the
    # ensemble's rows nor the step lengths, which the affine frame passes as None
    uniform: ClassVar[bool] = True

    def __post_init__(self):
        if not 0.0 <= self.beta < 1.0:
            raise ValueError(f"beta must lie in [0, 1), got {self.beta}")

    def factor(self, ens, step_norms, grad_stat):
        """The scalar beta and the unchanged counters; no restart applies."""
        return self.beta, ens.restart_count


@dataclass
class SamplerConfig:
    """Everything one sampling run depends on; ``kernel`` may be None for a Langevin sampler."""

    kernel: object
    target: object
    tau: float
    eps: float = 0.0
    damping: object = field(default_factory=RestartNesterov)
    seed: int = 0
    algorithm: str = "asvgd"

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r} (valid: {', '.join(ALGORITHMS)})")
        if not np.isfinite(self.tau) or self.tau <= 0:
            raise ValueError(f"tau must be a positive real, got {self.tau}")
        if not np.isfinite(self.eps) or self.eps < 0:
            raise ValueError(f"eps must be a nonnegative real, got {self.eps}")
        # the two methods the kernel samplers call; see the kernels module docstring
        methods = ("accelerated_terms", "plain_step")
        if self.algorithm in KERNEL_ALGORITHMS and not all(callable(getattr(self.kernel, m, None)) for m in methods):
            raise TypeError(f"unsupported kernel {self.kernel!r}")
        if self.algorithm == "asvgd" and not callable(getattr(self.damping, "factor", None)):
            raise TypeError(f"unsupported damping {self.damping!r}")


def _grad(cfg, x):
    """grad_f at the rows of x, column-major (a copy only for a target that returns C order)."""
    return np.asfortranarray(cfg.target.grad_all(x))


def _noise(rng, x):
    """Standard normal draws shaped like x, column-major; the generator fills them row by row."""
    return np.asfortranarray(rng.standard_normal(x.shape))


def _check_finite(arr, iteration, what):
    if not np.all(np.isfinite(arr)):
        raise FloatingPointError(f"non-finite {what} at iteration {iteration}")


def _row_norms(a):
    """The Euclidean length of every row of ``a``, as a fresh length-N array."""
    norms = np.einsum("ij,ij->i", a, a)
    return np.sqrt(norms, out=norms)


def _moved(ens, x_new, what="positions", **fields):
    """``ens`` one iteration on at positions ``x_new``, with their step lengths.

    Raises FloatingPointError naming ``what`` if ``x_new`` is not finite, so a
    diverging run stops at the step where it first left the floating-point range.
    """
    _check_finite(x_new, ens.iteration + 1, what)
    step_norms = _row_norms(x_new - ens.x)
    return replace(ens, x=x_new, prev_step_norms=step_norms, iteration=ens.iteration + 1, **fields)


@dataclass
class _AffineFrame:
    """X = P W and Y = P V in the frame P = [X0 | 1] of a run's start, with P^T P formed once.

    ``w`` and ``v`` are the coefficients after the frame's last step and
    ``v_prev`` the momenta's before it, whose rows P v_prev give that step's
    lengths.  ``p_max`` is max |P|, which bounds the entries of a product
    P B by (d + 1) p_max max |B|.  ``grad`` holds grad_f of the last step
    until the next step has its own (see ``advance``).
    """

    p: np.ndarray
    pp: np.ndarray
    p_max: float
    w: np.ndarray
    v: np.ndarray
    v_prev: np.ndarray = None
    grad: np.ndarray = None

    @classmethod
    def start(cls, ens):
        """The frame of an ensemble at rest: W = [I; 0] and V = 0."""
        n, d = ens.x.shape
        p = np.empty((n, d + 1), order="F")
        p[:, :d] = ens.x
        p[:, -1] = 1.0
        w = np.zeros((d + 1, d))
        w[:d] = np.eye(d)
        return cls(p=p, pp=_column_gram(p), p_max=float(np.abs(p).max()), w=w, v=np.zeros((d + 1, d)))

    def _bounded(self, coef):
        """Whether no entry of P coef can overflow; the bound is divided, so it cannot overflow itself."""
        return np.abs(coef).max() < 0.5 * np.finfo(float).max / (self.p_max * self.p.shape[1])

    def check(self, coef, iteration, what):
        """Raise as ``_check_finite`` on P coef would, forming P coef only when coef could overflow it.

        ``advance`` checks every W and V here, so a record forms P W and P V unchecked.
        """
        _check_finite(coef, iteration, what)
        if not self._bounded(coef):
            _check_finite(_matmul_f(self.p, coef), iteration, what)

    def advance(self, ens, cfg, iteration):
        """One accelerated step in coefficients: W <- W + sqrt(tau) V, then V <- W_hat S + alpha V.

        Returns X = P W if the step formed it, else None, the restart
        statistic and the counters.  grad_f enters only through P^T grad_f:
        from the target's ``frame_gradient`` when it has one (a Gaussian
        target), which reads only P^T P, so the step touches no N-row array
        and X is formed only if W could overflow it; otherwise as
        P^T grad_f(P W).  W and V are checked finite, as the particle step
        checks X and Y.  ``ens`` is the last ensemble ``ensemble`` made, or
        the one the frame started from; the damping is ``uniform`` (see
        ``ConstantDamping``) and reads none of its rows.
        """
        w = self.w + np.sqrt(cfg.tau) * self.v
        self.check(w, iteration, "positions")
        frame_gradient = getattr(cfg.target, "frame_gradient", None)
        if frame_gradient is None:
            # When a step frees its N-row arrays decides whether the next one reuses
            # that heap or glibc trims the top of the heap and faults it in again.
            # Between records a step allocates X and grad_f, and no Y.  The frame
            # keeps grad_f, and ``run`` the returned X, until the next step has its
            # own: 1.3-5.2 minor faults per step in 8 of 8 fresh ``run_experiment``
            # runs on quartic (N = 50 000, tau = 0.001, a record every 10, steps
            # 10-60) and 1.4-7.2 in 4 of 4 over steps 10-200.  Freeing grad_f at the
            # end of its own step, or X before the next step, read 22-23 in 1 of 6
            # runs each over steps 10-60.
            x = _matmul_f(self.p, w)
            g = self.grad = _grad(cfg, x)
            ptg = self.p.T @ g
        else:
            x = None
            ptg = frame_gradient(self.pp, w)
        force, grad_stat = cfg.kernel.frame_terms(w, self.v, self.pp, ptg, cfg.eps, cfg.tau, self.p.shape[0])
        alpha, counts = cfg.damping.factor(ens, None, grad_stat)
        v = force
        v += alpha * self.v
        self.check(v, iteration, "momentum update")
        self.w, self.v, self.v_prev = w, v, self.v
        return x, grad_stat, counts

    def ensemble(self, ens, iteration, x, grad_stat, counts, tau):
        """The full ensemble after the frame's last step, at iteration ``iteration``.

        ``ens`` is the last ensemble it made, or the one the frame started
        from, and ``x`` is P W if ``advance`` formed it.  X and Y come from
        the W and V that the step has checked, so nothing here checks them.
        The step lengths are |X' - X| = sqrt(tau) |P v_prev| row by row, with
        P v_prev the very array ``ens.y`` when ``ens`` is the step's own start.
        """
        if x is None:
            x = _matmul_f(self.p, self.w)
        y_prev = ens.y if ens.iteration == iteration - 1 else _matmul_f(self.p, self.v_prev)
        step_norms = _row_norms(y_prev)
        step_norms *= np.sqrt(tau)
        y = _matmul_f(self.p, self.v)
        return replace(ens, x=x, y=y, prev_step_norms=step_norms, iteration=iteration,
                       restart_count=counts, grad_stat=grad_stat)


def _affine_frame(ens, cfg):
    """The frame that a run of ``cfg`` from ``ens`` steps in, or None for the particle path.

    It needs ``asvgd`` with a kernel that has ``frame_terms`` and a damping
    with one alpha for every particle; every run starts at rest, as a frame must.
    """
    if (cfg.algorithm != "asvgd" or not getattr(cfg.damping, "uniform", False)
            or not callable(getattr(cfg.kernel, "frame_terms", None))):
        return None
    return _AffineFrame.start(ens)


def asvgd_step(ens: ParticleEnsemble, cfg: SamplerConfig, rng=None, work=None) -> ParticleEnsemble:
    """One accelerated transport step (position, damping, momentum).

    The kernel force comes from ``cfg.kernel.accelerated_terms``, which
    keeps its scratch arrays in ``work``; the bilinear kernel requires eps > 0
    and raises ValueError otherwise.  This is always the particle step, with
    the same bits with or without a workspace.  A constant-damped bilinear
    ``run`` never calls it: it steps its affine frame (see the module
    docstring), which agrees with these steps to about 1e-15, not bit for bit.
    """
    work = {} if work is None else work
    # X + sqrt(tau) Y in the one array the new ensemble keeps
    x_new = np.multiply(ens.y, np.sqrt(cfg.tau))
    x_new += ens.x
    moved = _moved(ens, x_new)
    # grad_f(X) is freed when the kernel returns
    force, grad_stat = cfg.kernel.accelerated_terms(moved.x, ens.y, _grad(cfg, moved.x),
                                                    cfg.eps, cfg.tau, work)
    alpha, counts = cfg.damping.factor(ens, moved.prev_step_norms, grad_stat)
    # F + alpha Y in the force array, which the new ensemble keeps as its momentum
    alpha_y = workspace_array(work, "alpha_y", ens.y.shape)
    y_new = force
    y_new += np.multiply(ens.y, alpha, out=alpha_y)

    _check_finite(y_new, moved.iteration, "momentum update")
    return replace(moved, y=y_new, restart_count=counts, grad_stat=grad_stat)


def svgd_step(ens: ParticleEnsemble, cfg: SamplerConfig, rng=None, work=None) -> ParticleEnsemble:
    """Plain kernel-transport step; the update itself is ``cfg.kernel.plain_step``."""
    g = _grad(cfg, ens.x)
    return _moved(ens, cfg.kernel.plain_step(ens.x, g, cfg.tau), "position update")


def ula_step(ens: ParticleEnsemble, cfg: SamplerConfig, rng, work=None) -> ParticleEnsemble:
    """Unadjusted Langevin step x - tau grad_f(x) + sqrt(2 tau) xi, row-wise."""
    x = ens.x
    noise = _noise(rng, x)
    return _moved(ens, x - cfg.tau * _grad(cfg, x) + np.sqrt(2.0 * cfg.tau) * noise)


def mala_step(ens: ParticleEnsemble, cfg: SamplerConfig, rng, work=None) -> ParticleEnsemble:
    """Metropolis-adjusted Langevin step; a rejected particle keeps its row bit for bit.

    The target is evaluated through its batched ``potential_all`` and
    ``grad_all``, once each on the proposal.  The step puts a new entry
    ``work["mala"]`` = (returned positions, f and grad_f there), writing no
    array in place, and reads the current values from it only when its
    positions are the very array ``ens.x``; otherwise it evaluates them too.
    """
    work = {} if work is None else work
    x = ens.x
    tau = cfg.tau
    cached = work.get("mala")
    if cached is not None and cached[0] is x:
        _, f_x, g_x = cached
    else:
        g_x = _grad(cfg, x)
        f_x = cfg.target.potential_all(x)
    proposal = x - tau * g_x + np.sqrt(2.0 * tau) * _noise(rng, x)
    f_y = cfg.target.potential_all(proposal)
    g_y = _grad(cfg, proposal)
    fwd = ((proposal - x + tau * g_x) ** 2).sum(axis=1)
    bwd = ((x - proposal + tau * g_y) ** 2).sum(axis=1)
    log_ratio = f_x - f_y + (fwd - bwd) / (4.0 * tau)
    accept = np.log(rng.random(x.shape[0])) < log_ratio
    moved = _moved(ens, np.where(accept[:, None], proposal, x))
    work["mala"] = (moved.x, np.where(accept, f_y, f_x), np.where(accept[:, None], g_y, g_x))
    return moved


def uld_step(ens: ParticleEnsemble, cfg: SamplerConfig, rng, work=None) -> ParticleEnsemble:
    """Euler-Maruyama step of underdamped Langevin with unit mass and friction.

    P' = P - tau (grad_f(X) + P) + sqrt(2 tau) xi,  X' = X + tau P', with the
    momentum P in ``ens.y``.
    """
    x, p = ens.x, ens.y
    noise = _noise(rng, x)
    p_new = p - cfg.tau * (_grad(cfg, x) + p) + np.sqrt(2.0 * cfg.tau) * noise
    return _moved(ens, x + cfg.tau * p_new, y=p_new)


def step(ens: ParticleEnsemble, cfg: SamplerConfig, rng, work=None) -> ParticleEnsemble:
    """One step of ``cfg.algorithm``; the Langevin noise comes from ``rng``, the scratch arrays from ``work``.

    The table is built on each call, so a step function replaced on this
    module (as a tracer does) is the one that runs.
    """
    steps = {"asvgd": asvgd_step, "svgd": svgd_step, "ula": ula_step, "mala": mala_step, "uld": uld_step}
    return steps[cfg.algorithm](ens, cfg, rng, work)


def run(cfg: SamplerConfig, x0, n_steps, recorder=None, rng=None, record_iters=None) -> ParticleEnsemble:
    """Take ``n_steps`` steps of the configured sampler from x0; returns the final ensemble.

    The recorder hook, if given, is called as recorder(ens) at every
    iteration in ``record_iters`` (by default every iteration: once for the
    initial state and once after every step); it must not mutate the
    ensemble.  The final ensemble is a full one whether or not ``n_steps`` is
    among them.  The Langevin noise comes from ``rng``, a generator seeded
    with cfg.seed unless the caller passes its own, so identical
    configurations produce identical trajectories.  One workspace serves every
    step of the run (see the module docstring).

    A constant-damped bilinear ``asvgd`` run steps its affine frame here, not
    through ``step``, on any target: it advances the (d+1) x d coefficients
    on every step, and forms X, Y and the step lengths only at the recorded
    iterations and at the last one.
    """
    ens = ParticleEnsemble.initialize(x0)
    rng = np.random.default_rng(cfg.seed) if rng is None else rng
    work = {}
    recorded = None if record_iters is None else frozenset(record_iters)
    frame = _affine_frame(ens, cfg)
    if recorder is not None and (recorded is None or 0 in recorded):
        recorder(ens)
    for iteration in range(1, n_steps + 1):
        record = recorder is not None and (recorded is None or iteration in recorded)
        try:
            if frame is None:
                ens = step(ens, cfg, rng, work)
            else:
                stepped = frame.advance(ens, cfg, iteration)
                if record or iteration == n_steps:
                    ens = frame.ensemble(ens, iteration, *stepped, cfg.tau)
        except Exception as exc:
            raise RuntimeError(f"{cfg.algorithm} failed at iteration {iteration}: {exc}") from exc
        if record:
            recorder(ens)
    return ens
