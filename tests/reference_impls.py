"""Independent reference implementations used as oracles by the tests.

Everything here is written as plain per-particle / per-entry loops against the
scalar kernel functions ``eval_kernel``, ``grad1`` and ``grad2`` defined below,
deliberately avoiding the vectorized code paths it checks.  The
``unblocked_*`` functions keep the one-buffer forms that the blocked distance
pass in ``kernels`` replaced, ``loop_nearest_sq_dists`` finds each point's
nearest neighbour on its own and ``partition_nearest_sq_dists`` keeps the
full-row pass that the one-triangle pass replaced, as oracles that the
blocked pass must match bit for bit.  ``loop_trajectory_svg`` is the
per-point SVG renderer, which the array renderer must match byte for byte.
``unfused_bilinear_terms`` and ``unfused_bilinear_step`` keep the bilinear
step, whose momentum update is one product of its factor U with a small
matrix, with one temporary array per operation, in the step's product order,
which the in-place step must match bit for bit.
``point_potential`` writes each built-in target's potential out for one
point; gradients are checked against ``central_diff_grad`` of it.
``exact_samples`` draws independent samples of each built-in target, on which
a KL estimate should read 0.

The last part holds the checks of the analytic layer: the KL gradient and the
inverse metric map whose composition must reproduce the plain moment flow, the
Hamiltonian that the damped flow must dissipate, the damped Hamiltonian flow of
the particles themselves, whose moments the accelerated moment flow must
follow, the assembled linearized matrix of the accelerated flow with the
pairing check of its numeric spectrum against the closed form, and the
measured contraction of explicit Euler steps.
"""

from dataclasses import replace

import numpy as np
import scipy.linalg

from steinflow.gaussian_flow import (
    AcceleratedGaussianState,
    GaussianState,
    _kernel_bilinear,
    _sym,
    kl_gaussians,
)
from steinflow.kernels import BilinearKernel, GaussianKernel
from steinflow.samplers import ConstantDamping, ParticleEnsemble
from steinflow.spectral import sym_kron_sum
from steinflow.targets import DoubleBananasTarget, GaussianTarget, QuarticTarget, builtin


def point_potential(target, x) -> float:
    """f(x) at one point x of shape (d,), from the formula of the built-in target."""
    x = np.asarray(x, dtype=float)
    if isinstance(target, GaussianTarget):
        r = x - target.b
        return 0.5 * float(r @ target.q_inv @ r)
    if isinstance(target, QuarticTarget):
        s = x * x  # x^4 as the target forms it, (x x)(x x)
        return 0.25 * float((s * s).sum())
    if isinstance(target, DoubleBananasTarget):
        def warp(x1, x2):
            return (target.a - x1) ** 2 / target.c1 + target.c2 * (x2 - x1**2) ** 2

        return float(-np.logaddexp(-warp(x[0], x[1]), -warp(x[0], -x[1])))
    raise TypeError(f"no per-point formula for {type(target).__name__}")


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


def loop_sq_dists(x):
    """Squared Euclidean distance of every row of x to every row, entry by entry."""
    n = x.shape[0]
    out = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            diff = x[i] - x[j]
            out[i, j] = float(diff @ diff)
    return out


def unblocked_sq_dists(x):
    """Squared distances of the rows of x accumulated one coordinate at a time into one N x N buffer.

    The unblocked form of ``kernels._sq_dist_blocks``: the same per-entry
    arithmetic, so the blocked pass must match it bit for bit.
    """
    x = np.asarray(x, dtype=float)
    out = np.zeros((x.shape[0], x.shape[0]))
    diff = np.empty_like(out)
    for k in range(x.shape[1]):
        np.subtract.outer(x[:, k], x[:, k], out=diff)
        diff *= diff
        out += diff
    return out


def unblocked_gaussian_gram(kernel, x):
    """Gaussian Gram matrix exponentiated in place on the full distance matrix."""
    k = unblocked_sq_dists(x)
    k /= -2.0 * kernel.sigma2
    np.exp(k, out=k)
    return k


def loop_nearest_sq_dists(x):
    """Squared distance from each row of x to its nearest other row, one row at a time.

    Each squared distance sums its coordinates' squared differences in
    coordinate order, the first square seeding the sum, as the blocked pass
    does, so the two agree bit for bit.
    """
    x = np.asarray(x, dtype=float)
    n, d = x.shape
    out = np.empty(n)
    for i in range(n):
        diff = x[i] - x
        sq = diff[:, 0] * diff[:, 0]
        for k in range(1, d):
            sq = sq + diff[:, k] * diff[:, k]
        out[i] = np.delete(sq, i).min()
    return out


def partition_nearest_sq_dists(x):
    """Nearest-neighbour squared distances from full rows of the unblocked distance matrix.

    The pass ``kernels.nearest_sq_dists`` made before it read one triangle:
    each full row is partitioned in place, its smallest entry is the exactly
    zero diagonal, so the second smallest is the nearest other row.
    """
    sq = unblocked_sq_dists(x)
    sq.partition(1, axis=1)
    return sq[:, 1].copy()


def exact_samples(name, n, rng):
    """n independent draws from the built-in target ``name``, an n x 2 array.

    Gaussians directly; quartic by |x_k| = (4 G)^(1/4) with G ~ Gamma(1/4)
    and a random sign per coordinate; double-bananas by
    x1 ~ N(a, c1 / 2), x2 | x1 ~ N(x1^2, 1 / (2 c2)) and a random sign on x2.
    """
    target = builtin(name)
    if isinstance(target, GaussianTarget):
        return target.b + rng.standard_normal((n, target.dim)) @ np.linalg.cholesky(target.q).T
    if isinstance(target, QuarticTarget):
        return (4.0 * rng.gamma(0.25, size=(n, 2))) ** 0.25 * rng.choice([-1.0, 1.0], size=(n, 2))
    x1 = rng.normal(target.a, np.sqrt(target.c1 / 2.0), n)
    x2 = rng.normal(x1**2, np.sqrt(1.0 / (2.0 * target.c2)))
    return np.stack([x1, x2 * rng.choice([-1.0, 1.0], n)], axis=1)


def grid_log_normalizer(target, x1_range, x2_range, n=2001):
    """log of the integral of exp(-f) over a 2-D box by the n x n trapezoid rule.

    The box must hold all but a negligible part of the mass: the edge terms
    are then negligible too, and the rule is a plain sum times the cell area.
    """
    x1s = np.linspace(*x1_range, n)
    x2s = np.linspace(*x2_range, n)
    total = 0.0
    for rows in np.array_split(x1s, 20):
        grid = np.stack(np.meshgrid(rows, x2s, indexing="ij"), axis=-1).reshape(-1, 2)
        total += np.exp(-target.potential_all(grid)).sum()
    return float(np.log(total * (x1s[1] - x1s[0]) * (x2s[1] - x2s[0])))


def loop_double_sum_stat(kernel, x, v, target):
    """(1/N^2) sum_ij <V_j, k(X_i, X_j) grad_f(X_i) - grad2_k(X_j, X_i)>."""
    n = x.shape[0]
    g = target.grad_all(x)
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
    g = target.grad_all(x)
    out = np.zeros((n, d))
    for i in range(n):
        acc = np.zeros(d)
        for j in range(n):
            acc += eval_kernel(kernel, x[j], x[i]) * (-g[j])
            acc += grad1(kernel, x[j], x[i])
        out[i] = acc / n
    return out


def reference_damping(ens, cfg, step_norms, gradient_restart):
    """Per-particle damping and counters, one particle at a time."""
    n = ens.x.shape[0]
    counts = ens.restart_count.copy()
    if isinstance(cfg.damping, ConstantDamping):
        return np.full(n, cfg.damping.beta), counts
    for i in range(n):
        if step_norms[i] < ens.prev_step_norms[i]:
            counts[i] = 1
        else:
            counts[i] += 1
    if gradient_restart:
        counts[:] = 1
    r = 3.0  # Nesterov's member of the (c - 1) / (c + r - 1) family
    return (counts - 1.0) / (counts + r - 1.0), counts


def reference_asvgd_step(ens: ParticleEnsemble, cfg) -> ParticleEnsemble:
    """Per-particle reference of one accelerated step, all sums written out.

    Mirrors the production update exactly (same sqrt(tau) scaling, same restart
    logic) but goes through dense solves and elementwise kernel evaluations.
    """
    n, d = ens.x.shape
    st = np.sqrt(cfg.tau)
    x_new = ens.x + st * ens.y
    k = loop_gram(cfg.kernel, x_new)
    v_new = n * np.linalg.solve(k + cfg.eps * np.eye(n), ens.y)
    g = cfg.target.grad_all(x_new)

    step_norms = np.linalg.norm(x_new - ens.x, axis=1)
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
        x=x_new, y=y_new, restart_count=counts,
        prev_step_norms=step_norms, iteration=ens.iteration + 1,
    )


def unfused_bilinear_terms(kernel, x, y, g, eps, tau):
    """Force and restart statistic of the bilinear accelerated step, one temporary per operation.

    The expressions the step fills its arrays from; the step must match them
    bit for bit.  U is column-major, and a product of an N-row array B with a
    small S is taken as (S^T B^T)^T, as the step takes it.  The force
    push - (sqrt(tau) / N) K G is U S with
    S = -(sqrt(tau) / N) U^T G + sqrt(tau) (1 + |C|^2) [L^T; 0], since
    K G = U (U^T G) and the push is sqrt(tau) (1 + |U^T V|^2 / N^2) X A with
    X A = U[:, :d] L^T and U^T V = N C, C the capacitance solve.  The
    statistic is the step's expression in C and U^T G;
    ``loop_double_sum_stat`` checks it independently.
    """
    n = x.shape[0]
    u = np.asfortranarray(np.hstack([(kernel.chol_a.T @ x.T).T, np.ones((n, 1))]))
    # U^T U from one dot product per pair of columns, as the step forms it
    m = u.shape[1]
    cap = eps * np.eye(m) + np.array([[np.dot(u[:, i], u[:, j]) for j in range(m)] for i in range(m)])
    c = np.linalg.solve(cap, u.T @ y)
    utg = u.T @ g
    grad_stat = -float(np.vdot(c, utg) - n * np.vdot(c[:-1], kernel.chol_a.T)) / n
    push_scale = np.sqrt(tau) * (1.0 + np.linalg.norm(c) ** 2)
    s = utg * (-np.sqrt(tau) / n)
    s[:-1] = s[:-1] + push_scale * kernel.chol_a.T
    return (s.T @ u.T).T, grad_stat


def unfused_bilinear_step(ens: ParticleEnsemble, cfg) -> ParticleEnsemble:
    """One bilinear-kernel ``asvgd`` or ``svgd`` step (``cfg.algorithm``) in the unfused form.

    The step lengths come from ``np.linalg.norm``, the counters are copied and
    the momentum is F + alpha Y, F the kernel force.
    """
    n = ens.x.shape[0]
    if cfg.algorithm == "svgd":
        g = cfg.target.grad_all(ens.x)
        u = np.asfortranarray(np.hstack([(cfg.kernel.chol_a.T @ ens.x.T).T, np.ones((n, 1))]))
        kg = ((u.T @ g).T @ u.T).T
        x_new = ens.x + cfg.tau * ((cfg.kernel.a.T @ ens.x.T).T - kg / n)
        return replace(ens, x=x_new, prev_step_norms=np.linalg.norm(x_new - ens.x, axis=1),
                       iteration=ens.iteration + 1)
    x_new = ens.x + np.sqrt(cfg.tau) * ens.y
    g = cfg.target.grad_all(x_new)
    force, grad_stat = unfused_bilinear_terms(cfg.kernel, x_new, ens.y, g, cfg.eps, cfg.tau)
    step_norms = np.linalg.norm(x_new - ens.x, axis=1)
    alpha, counts = reference_damping(ens, cfg, step_norms, grad_stat < 0.0)
    y_new = force + alpha[:, None] * ens.y
    return replace(ens, x=x_new, y=y_new, restart_count=counts, prev_step_norms=step_norms,
                   iteration=ens.iteration + 1, grad_stat=grad_stat)


def dense_asvgd_step_gaussian(ens: ParticleEnsemble, cfg, include_interaction=True) -> ParticleEnsemble:
    """One accelerated Gaussian-kernel step with the interaction matrix W formed densely.

    W = N K + K ((V V^T) o K) - K o ((K V) V^T) as an N x N matrix (an N^3
    product), the restart statistic from K X and K 1 of the full K; the
    production step only ever multiplies K by thin matrices.  With
    ``include_interaction=False`` W is N K alone: the step keeps only the drive
    and repulsion, which is the plain SVGD direction applied to the momentum.
    """
    n = ens.x.shape[0]
    st = np.sqrt(cfg.tau)
    sigma2 = cfg.kernel.sigma2
    x_new = ens.x + st * ens.y
    g = cfg.target.grad_all(x_new)
    k = unblocked_gaussian_gram(cfg.kernel, x_new)
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
        x=x_new, y=y_new, restart_count=counts,
        prev_step_norms=step_norms, iteration=ens.iteration + 1, grad_stat=grad_stat,
    )


def longdouble_solve(m, b):
    """m^-1 b for a small square m by Gaussian elimination without pivoting, in np.longdouble.

    On x86-64 the long double carries 64 mantissa bits, 11 more than a double,
    so the solve of a well-conditioned m is a reference for a float64 one.
    """
    m, b = np.array(m, dtype=np.longdouble), np.array(b, dtype=np.longdouble)
    k = m.shape[0]
    for j in range(k):
        for i in range(j + 1, k):
            f = m[i, j] / m[j, j]
            m[i] -= f * m[j]
            b[i] -= f * b[j]
    out = np.zeros_like(b)
    for j in reversed(range(k)):
        out[j] = (b[j] - m[j, j + 1 :] @ out[j + 1 :]) / m[j, j]
    return out


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
    """CSV text of a 2-D array, one f-string per value: the oracle of rate_table.csv."""
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


_PALETTE = ["#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
            "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf"]


class _LoopSvgCanvas:
    """The original SVG writer: each point mapped and formatted on its own."""

    def __init__(self, width, height, xlim, ylim):
        self.width = width
        self.height = height
        self.xlim = xlim
        self.ylim = ylim
        self.parts = []

    def _map(self, x, y):
        px = (x - self.xlim[0]) / (self.xlim[1] - self.xlim[0]) * self.width
        py = (self.ylim[1] - y) / (self.ylim[1] - self.ylim[0]) * self.height
        return px, py

    def polyline(self, xs, ys, color, width=1.0, opacity=1.0):
        pts = " ".join(f"{px:.2f},{py:.2f}" for px, py in (self._map(x, y) for x, y in zip(xs, ys)))
        self.parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="{width}" stroke-opacity="{opacity}"/>'
        )

    def circle(self, x, y, radius, color):
        px, py = self._map(x, y)
        self.parts.append(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="{radius}" fill="{color}"/>')

    def square(self, x, y, size, color):
        px, py = self._map(x, y)
        h = size / 2.0
        self.parts.append(
            f'<rect x="{px - h:.2f}" y="{py - h:.2f}" width="{size}" height="{size}" fill="{color}"/>'
        )

    def text(self):
        body = "\n".join(self.parts)
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width}" '
            f'height="{self.height}" viewBox="0 0 {self.width} {self.height}">\n'
            f'<rect width="100%" height="100%" fill="white"/>\n{body}\n</svg>\n'
        )


def loop_trajectory_svg(snapshots, target, max_paths=100):
    """Text of ``svg.render_trajectory_svg``'s plot, one point and one element at a time.

    The original renderer, with ``loop_marching_squares`` for the level lines.
    """
    first, last = snapshots[0], snapshots[-1]
    allpts = np.vstack([first, last])
    lo = allpts.min(axis=0)
    hi = allpts.max(axis=0)
    pad = 0.15 * np.maximum(hi - lo, 1e-6)
    xlim = (lo[0] - pad[0], hi[0] + pad[0])
    ylim = (lo[1] - pad[1], hi[1] + pad[1])
    canvas = _LoopSvgCanvas(640, 640, xlim, ylim)

    xs = np.linspace(xlim[0], xlim[1], 60)
    ys = np.linspace(ylim[0], ylim[1], 60)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    grid = target.potential_all(np.stack([gx.ravel(), gy.ravel()], axis=1)).reshape(gx.shape)
    levels = np.quantile(grid, [0.05, 0.15, 0.3, 0.5, 0.7, 0.85])
    for level in np.unique(levels):
        for (x0, y0), (x1, y1) in loop_marching_squares(grid, xs, ys, level):
            canvas.polyline([x0, x1], [y0, y1], color="black", width=0.6, opacity=0.6)

    shown = range(min(first.shape[0], max_paths))
    for idx in shown:
        xs = [snap[idx, 0] for snap in snapshots]
        ys = [snap[idx, 1] for snap in snapshots]
        canvas.polyline(xs, ys, color=_PALETTE[idx % len(_PALETTE)], width=0.8, opacity=0.5)
    for idx in shown:
        canvas.circle(first[idx, 0], first[idx, 1], 3.0, "#1f4fd0")
    for idx in shown:
        canvas.square(last[idx, 0], last[idx, 1], 5.0, "#d62728")
    return canvas.text()


def kl_gradient(mu, sigma, b, q):
    """Gradient of the KL above in (mu, Sigma): (Q^-1 (mu - b), 0.5 (Q^-1 - Sigma^-1))."""
    q_inv = np.linalg.inv(q)
    sigma_inv = np.linalg.inv(sigma)
    return q_inv @ (mu - b), _sym(0.5 * (q_inv - sigma_inv))


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


def kinetic_energy(state: AcceleratedGaussianState, a) -> float:
    """Half the metric pairing of (nu, S) with its image under the inverse metric."""
    dmu, dsigma = stein_gaussian_metric_inverse(
        GaussianState(state.mu, state.sigma), state.nu, state.s, a
    )
    return 0.5 * float(state.nu @ dmu + np.tensordot(state.s, dsigma))


def hamiltonian(state: AcceleratedGaussianState, a, b, q) -> float:
    """Total energy: nonnegative kinetic term plus the KL potential."""
    return kinetic_energy(state, a) + kl_gaussians(state.mu, state.sigma, b, q)


def particle_hamiltonian_flow(x0, a, target, alpha, times, dt):
    """Positions of the damped Stein-metric Hamiltonian flow of the particles ``x0`` at ``times``.

    The bilinear kernel K = X A X^T + 1 gives the kinetic energy
    (1 / 2N^2) sum_ij k_ij V_i . V_j, and the Gaussian closure
    grad log rho(x) = -Sigma^-1 (x - mu), with the particles' divisor-N moments
    mu and Sigma, the KL's force on each particle:

        dX/dt = K V / N
        dV/dt = -alpha V - (1/N) V (V^T X) A - grad_f(X) + (X - mu) Sigma^-1

    integrated by classical RK4 from V = 0 with the step ``dt``; each time must
    be a multiple of ``dt``.
    """
    n, d = x0.shape

    def rhs(z):
        x, v = z[:, :d], z[:, d:]
        centered = x - x.mean(axis=0)
        sigma = centered.T @ centered / n
        dx = (x @ a @ (x.T @ v) + v.sum(axis=0)) / n
        dv = -alpha * v - v @ (v.T @ x) @ a / n - target.grad_all(x) + np.linalg.solve(sigma, centered.T).T
        return np.hstack([dx, dv])

    z = np.hstack([x0, np.zeros_like(x0)]).astype(float)
    stops = {int(round(t / dt)) for t in times}
    out = []
    for k in range(1, max(stops) + 1):
        k1 = rhs(z)
        k2 = rhs(z + 0.5 * dt * k1)
        k3 = rhs(z + 0.5 * dt * k2)
        k4 = rhs(z + dt * k3)
        z = z + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if k in stops:
            out.append(z[:, :d])
    return out


def asvgd_linearized_matrix(a, q, alpha):
    """2 d^2 x 2 d^2 system matrix of the centered accelerated flow at damping alpha.

        [[ 0,                       -(2 QAQ (+) I) ],
         [ (Q^-1 kron Q^-1) / 2,     alpha I       ]]
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    q = np.atleast_2d(np.asarray(q, dtype=float))
    d = q.shape[0]
    q_inv = np.linalg.inv(q)
    eye = np.eye(d)
    top_right = -sym_kron_sum(2.0 * q @ a @ q, eye)
    bottom_left = 0.5 * np.kron(q_inv, q_inv)
    zero = np.zeros((d * d, d * d))
    return np.block([[zero, top_right], [bottom_left, alpha * np.eye(d * d)]])


def greedy_pair_check(closed, numeric, tol_scale=1e-8, defect_allowance=0.0):
    """Nearest-pair matching at 1e-8 relative, plus a defectivity allowance.

    At critical damping the system matrix has genuine Jordan blocks; a double
    eigenvalue is then only determined to about sqrt(eps * |B|) by any floating
    point route (the closed form splits it the same way), so that amount is
    granted on top of the relative tolerance.
    """
    numeric = list(numeric)
    for lam in closed:
        dists = [abs(lam - z) for z in numeric]
        j = int(np.argmin(dists))
        if dists[j] > tol_scale * (1.0 + abs(lam)) + defect_allowance:
            raise AssertionError(
                f"closed-form eigenvalue {lam} has no numeric match within "
                f"{tol_scale * (1.0 + abs(lam)) + defect_allowance:.3e} (closest: {numeric[j]})"
            )
        numeric.pop(j)


def eigensolver_pair_check(report, a, q, alpha):
    """``greedy_pair_check`` of a spectral report against a numeric eigensolve of the assembled matrix.

    ``report`` is what ``asvgd_linearized_spectrum(a, q, alpha)`` returns; the
    check grants the critical-damping defect allowance 2 sqrt(eps (1 + |B|_2)).
    """
    closed = np.array(report["eigenvalues"]) @ np.array([1.0, 1j])
    b_matrix = asvgd_linearized_matrix(a, q, alpha)
    allowance = 2.0 * np.sqrt(np.finfo(float).eps * (1.0 + np.linalg.norm(b_matrix, 2)))
    greedy_pair_check(closed, np.linalg.eigvals(b_matrix), defect_allowance=allowance)


def euler_contraction_check(b_matrix, h, k, x0=None, rng=None):
    """Measured and predicted per-step contraction of x -> (I - h B) x.

    Fits a geometric rate to the second half of the iterate norms (least-squares
    slope in log space, robust to oscillating or defective modes) and compares
    it with the spectral prediction max |1 - h lambda|.  When the prediction is
    below one, the fitted rate must not exceed it by more than 1e-3; a prediction
    at or above one is reported without the check.
    """
    b_matrix = np.asarray(b_matrix, dtype=float)
    n = b_matrix.shape[0]
    if x0 is None:
        rng = np.random.default_rng(0) if rng is None else rng
        x0 = rng.standard_normal(n)
    x = np.asarray(x0, dtype=float)
    x = x / np.linalg.norm(x)
    step = np.eye(n) - h * b_matrix
    # renormalize every step and accumulate log-norms to avoid under/overflow
    log_norms = np.empty(k + 1)
    log_norms[0] = 0.0
    for i in range(k):
        x = step @ x
        norm = np.linalg.norm(x)
        if norm == 0.0:
            predicted = float(np.abs(1.0 - h * np.linalg.eigvals(b_matrix)).max())
            return 0.0, predicted
        log_norms[i + 1] = log_norms[i] + np.log(norm)
        x = x / norm
    lo = k // 2
    idx = np.arange(lo, k + 1, dtype=float)
    slope = np.polyfit(idx, log_norms[lo:], 1)[0]
    fitted = float(np.exp(slope))
    predicted = float(np.abs(1.0 - h * np.linalg.eigvals(b_matrix)).max())
    if predicted < 1.0 and fitted > predicted + 1e-3:
        raise AssertionError(f"fitted rate {fitted} exceeds spectral prediction {predicted} + 1e-3")
    return fitted, predicted
