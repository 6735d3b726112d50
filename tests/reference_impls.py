"""Independent reference implementations used as oracles by the tests.

Everything here is written as plain per-particle / per-entry loops against the
scalar kernel functions ``eval_kernel``, ``grad1`` and ``grad2`` defined below,
deliberately avoiding the vectorized code paths it checks.
"""

import numpy as np
import scipy.linalg

from steinflow import kernels
from steinflow.kernels import BilinearKernel, GaussianKernel
from steinflow.samplers import ConstantDamping, ParticleEnsemble


def _check_pair(kernel, x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError(f"x and y must be vectors of equal dimension, got {x.shape} and {y.shape}")
    if isinstance(kernel, BilinearKernel) and x.shape[0] != kernel.dim:
        raise ValueError(f"kernel expects dimension {kernel.dim}, got {x.shape[0]}")
    return x, y


def eval_kernel(kernel, x, y) -> float:
    """Evaluate k(x, y) for one pair of points."""
    x, y = _check_pair(kernel, x, y)
    if isinstance(kernel, GaussianKernel):
        diff = x - y
        return float(np.exp(-diff @ diff / (2.0 * kernel.sigma2)))
    return float(x @ kernel.a @ y + 1.0)


def grad1(kernel, x, y) -> np.ndarray:
    """Gradient of k with respect to the first argument."""
    x, y = _check_pair(kernel, x, y)
    if isinstance(kernel, GaussianKernel):
        return -(x - y) / kernel.sigma2 * eval_kernel(kernel, x, y)
    return kernel.a @ y


def grad2(kernel, x, y) -> np.ndarray:
    """Gradient of k with respect to the second argument."""
    x, y = _check_pair(kernel, x, y)
    if isinstance(kernel, GaussianKernel):
        return (x - y) / kernel.sigma2 * eval_kernel(kernel, x, y)
    return kernel.a @ x


def loop_gram(kernel, x):
    n = x.shape[0]
    k = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            k[i, j] = eval_kernel(kernel, x[i], x[j])
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
            term = eval_kernel(kernel, x[i], x[j]) * g[i]
            term = term - grad2(kernel, x[j], x[i])
            total += float(v[j] @ term)
    return total / n**2


def loop_svgd_direction_gaussian(kernel, x, target):
    """(1/N) sum_j [k(x_j, x_i) (-grad_f(x_j)) + grad-over-x_j k(x_j, x_i)]."""
    n, d = x.shape
    out = np.zeros((n, d))
    for i in range(n):
        acc = np.zeros(d)
        for j in range(n):
            acc += eval_kernel(kernel, x[j], x[i]) * (-target.grad(x[j]))
            acc += grad1(kernel, x[j], x[i])
        out[i] = acc / n
    return out


def reference_damping(ens, cfg, step_norms, gradient_restart):
    """Per-particle damping and counters, one particle at a time."""
    n = ens.n
    counts = ens.restart_count.copy()
    if isinstance(cfg.damping, ConstantDamping):
        return np.full(n, cfg.damping.beta), counts
    if cfg.damping.use_speed:
        for i in range(n):
            if step_norms[i] < ens.prev_step_norms[i]:
                counts[i] = 1
            else:
                counts[i] += 1
    else:
        counts += 1
    if cfg.damping.use_gradient and gradient_restart:
        counts[:] = 1
    return (counts - 1.0) / (counts + cfg.damping.r - 1.0), counts


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
    restart = False
    if isinstance(cfg.kernel, GaussianKernel):
        restart = -loop_double_sum_stat(cfg.kernel, x_new, v_new, cfg.target) < 0.0
    alpha, counts = reference_damping(ens, cfg, step_norms, restart)

    y_new = np.empty_like(ens.y)
    for j in range(n):
        energy = np.zeros(d)
        for i in range(n):
            energy += grad2(cfg.kernel, x_new[j], x_new[i])
            energy -= k[j, i] * g[i]
        interaction = np.zeros(d)
        for i in range(n):
            for ell in range(n):
                vv = float(v_new[i] @ v_new[ell])
                interaction += vv * (
                    k[i, ell] * grad2(cfg.kernel, x_new[j], x_new[i])
                    + k[j, ell] * grad1(cfg.kernel, x_new[j], x_new[i])
                    - k[j, i] * grad2(cfg.kernel, x_new[ell], x_new[i])
                )
        y_new[j] = alpha[j] * ens.y[j] + (st / n) * energy + (st / n**2) * interaction
    return ParticleEnsemble(
        x=x_new, y=y_new, v=v_new, restart_count=counts,
        prev_step_norms=step_norms, iteration=ens.iteration + 1,
    )


def dense_asvgd_step_gaussian(ens: ParticleEnsemble, cfg, include_interaction=True) -> ParticleEnsemble:
    """One accelerated Gaussian-kernel step with the interaction matrix W formed densely.

    W = N K + K ((V V^T) o K) - K o ((K V) V^T) as an N x N matrix (an N^3
    product), the restart statistic from K X and K 1 of the full K; the
    production step only ever multiplies K by thin matrices.
    """
    n = ens.n
    st = np.sqrt(cfg.tau)
    sigma2 = cfg.kernel.sigma2
    x_new = ens.x + st * ens.y
    g = cfg.target.grad_all(x_new)
    k = kernels.gram(cfg.kernel, x_new).k
    v_new = n * scipy.linalg.cho_solve(scipy.linalg.cho_factor(k + cfg.eps * np.eye(n)), ens.y)
    kg = k @ g
    k1 = k.sum(axis=1)
    drive = float(np.tensordot(v_new, kg))
    repulsion = float(np.tensordot(v_new, k @ x_new - k1[:, None] * x_new))
    grad_stat = -(drive + repulsion / sigma2) / n**2
    step_norms = np.linalg.norm(x_new - ens.x, axis=1)
    alpha, counts = reference_damping(ens, cfg, step_norms, grad_stat < 0.0)
    if include_interaction:
        vvt = v_new @ v_new.T
        w = n * k + k @ (vvt * k) - k * ((k @ v_new) @ v_new.T)
    else:
        w = n * k
    y_new = (
        alpha[:, None] * ens.y
        - (st / n) * kg
        + (st / (n**2 * sigma2)) * (w.sum(axis=1)[:, None] * x_new - w @ x_new)
    )
    return ParticleEnsemble(
        x=x_new, y=y_new, v=v_new, restart_count=counts,
        prev_step_norms=step_norms, iteration=ens.iteration + 1, grad_stat=grad_stat,
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


def loop_csv_text(rows):
    """CSV text of a 2-D array, one f-string per value (the original snapshot writer)."""
    lines = [",".join(f"{v:.17g}" for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def loop_marching_squares(grid, xs, ys, level):
    """Iso-contour segments of ``grid`` at ``level``, one cell and one edge at a time."""
    segs = []
    nx, ny = grid.shape
    for i in range(nx - 1):
        for j in range(ny - 1):
            corners = [
                (xs[i], ys[j], grid[i, j]),
                (xs[i + 1], ys[j], grid[i + 1, j]),
                (xs[i + 1], ys[j + 1], grid[i + 1, j + 1]),
                (xs[i], ys[j + 1], grid[i, j + 1]),
            ]
            pts = []
            for k in range(4):
                x0, y0, v0 = corners[k]
                x1, y1, v1 = corners[(k + 1) % 4]
                if (v0 - level) * (v1 - level) < 0:
                    t = (level - v0) / (v1 - v0)
                    pts.append((x0 + t * (x1 - x0), y0 + t * (y1 - y0)))
            if len(pts) >= 2:
                segs.append((pts[0], pts[1]))
            if len(pts) == 4:
                segs.append((pts[2], pts[3]))
    return segs
