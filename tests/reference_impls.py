"""Independent reference implementations used as oracles by the tests.

Everything here is written as plain per-particle / per-entry loops against the
scalar kernel API, deliberately avoiding the vectorized code paths it checks.
"""

import numpy as np

from steinflow import kernels
from steinflow.kernels import GaussianKernel
from steinflow.samplers import ConstantDamping, ParticleEnsemble


def loop_gram(kernel, x):
    n = x.shape[0]
    k = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            k[i, j] = kernels.eval_kernel(kernel, x[i], x[j])
    return k


def loop_sq_dists(a, b):
    """Squared Euclidean distance of every row of a to every row of b, entry by entry."""
    out = np.empty((a.shape[0], b.shape[0]))
    for i in range(a.shape[0]):
        for j in range(b.shape[0]):
            diff = a[i] - b[j]
            out[i, j] = float(diff @ diff)
    return out


def loop_double_sum_stat(kernel, x, v, target):
    """(1/N^2) sum_ij <V_j, k(X_i, X_j) grad_f(X_i) - grad2_k(X_j, X_i)>."""
    n = x.shape[0]
    g = np.stack([target.grad(row) for row in x])
    total = 0.0
    for i in range(n):
        for j in range(n):
            term = kernels.eval_kernel(kernel, x[i], x[j]) * g[i]
            term = term - kernels.grad2(kernel, x[j], x[i])
            total += float(v[j] @ term)
    return total / n**2


def loop_svgd_direction_gaussian(kernel, x, target):
    """(1/N) sum_j [k(x_j, x_i) (-grad_f(x_j)) + grad-over-x_j k(x_j, x_i)]."""
    n, d = x.shape
    out = np.zeros((n, d))
    for i in range(n):
        acc = np.zeros(d)
        for j in range(n):
            acc += kernels.eval_kernel(kernel, x[j], x[i]) * (-target.grad(x[j]))
            acc += kernels.grad1(kernel, x[j], x[i])
        out[i] = acc / n
    return out


def reference_asvgd_step(ens: ParticleEnsemble, cfg) -> ParticleEnsemble:
    """Per-particle reference of one accelerated step, all sums written out.

    Mirrors the production update exactly (same sqrt(tau) scaling, same restart
    logic) but goes through dense solves and elementwise kernel evaluations.
    """
    n, d = ens.n, ens.dim
    st = np.sqrt(cfg.tau)
    x_new = ens.x + st * ens.y
    k = loop_gram(cfg.kernel, x_new)
    v_new = n * np.linalg.solve(k + cfg.eps * np.eye(n), ens.y)
    g = np.stack([cfg.target.grad(row) for row in x_new])

    step_norms = np.linalg.norm(x_new - ens.x, axis=1)
    counts = ens.restart_count.copy()
    if isinstance(cfg.damping, ConstantDamping):
        alpha = np.full(n, cfg.damping.beta)
    else:
        if cfg.damping.use_speed:
            for i in range(n):
                if step_norms[i] < ens.prev_step_norms[i]:
                    counts[i] = 1
                else:
                    counts[i] += 1
        else:
            counts += 1
        if cfg.damping.use_gradient and isinstance(cfg.kernel, GaussianKernel):
            diss = -loop_double_sum_stat(cfg.kernel, x_new, v_new, cfg.target)
            if diss < 0.0:
                counts[:] = 1
        alpha = (counts - 1.0) / (counts + cfg.damping.r - 1.0)

    y_new = np.empty_like(ens.y)
    for j in range(n):
        energy = np.zeros(d)
        for i in range(n):
            energy += kernels.grad2(cfg.kernel, x_new[j], x_new[i])
            energy -= k[j, i] * g[i]
        interaction = np.zeros(d)
        for i in range(n):
            for ell in range(n):
                vv = float(v_new[i] @ v_new[ell])
                interaction += vv * (
                    k[i, ell] * kernels.grad2(cfg.kernel, x_new[j], x_new[i])
                    + k[j, ell] * kernels.grad1(cfg.kernel, x_new[j], x_new[i])
                    - k[j, i] * kernels.grad2(cfg.kernel, x_new[ell], x_new[i])
                )
        y_new[j] = alpha[j] * ens.y[j] + (st / n) * energy + (st / n**2) * interaction
    return ParticleEnsemble(
        x=x_new, y=y_new, v=v_new, restart_count=counts,
        prev_step_norms=step_norms, iteration=ens.iteration + 1,
    )


def random_spd(rng, d, lo=0.3, hi=1.5):
    """Random symmetric positive-definite matrix with eigenvalues in [lo, hi]."""
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    vals = rng.uniform(lo, hi, size=d)
    return (q * vals) @ q.T


def central_diff_grad(f, x, step=1e-6):
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = step
        g[i] = (f(x + e) - f(x - e)) / (2.0 * step)
    return g
