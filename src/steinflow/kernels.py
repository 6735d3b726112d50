"""Positive-definite kernels: each one owns the kernel-specific part of the samplers' steps.

Two kernel families are supported:

* ``GaussianKernel(sigma2)``  -- k(x, y) = exp(-|x - y|^2 / (2 sigma2)),
* ``BilinearKernel(a)``       -- k(x, y) = x^T A y + 1 with A symmetric positive definite.

A kernel is anything with the two step methods the samplers call:

* ``accelerated_terms(x, y, g, eps, tau)`` returns, for the accelerated step
  at positions X with momenta Y and G = grad_f(X), the density momenta
  V = N (K + eps I)^-1 Y, the drive K G, the repulsion push of the momentum
  update and the gradient-restart statistic (NaN when the kernel has none);
* ``plain_step(x, g, tau)`` returns the positions after one plain kernel-transport step.

The Gaussian kernel solves with the dense Gram matrix from ``gram`` through
``cholesky_inverse_apply``.  The bilinear Gram matrix has rank at most d + 1,
so (K + eps I) is invertible only for eps > 0; that kernel never forms K and
solves on its rank-(d+1) factor with ``woodbury_inverse_apply`` in O(N d^2).

Every squared distance in the package -- the Gaussian Gram matrix, the median
bandwidth and the KDE of ``diagnostics`` -- is between two particles of one
set and comes from one loop, ``_sq_dist_blocks``, which hands out row blocks
of the N x N distance matrix in a reused buffer of about ``_BLOCK_ENTRIES``
entries (512 KB, inside a 2 MiB L2 cache), so no caller holds a distance
matrix it does not return.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

__all__ = [
    "GaussianKernel",
    "BilinearKernel",
    "GramMatrix",
    "gram",
    "median_bandwidth",
    "cholesky_inverse_apply",
    "woodbury_inverse_apply",
]


@dataclass(frozen=True)
class GaussianKernel:
    """Radial kernel exp(-|x - y|^2 / (2 sigma2)) with squared bandwidth sigma2 > 0."""

    sigma2: float

    def __post_init__(self):
        if not np.isfinite(self.sigma2) or self.sigma2 <= 0:
            raise ValueError(f"sigma2 must be a positive real, got {self.sigma2}")

    def accelerated_terms(self, x, y, g, eps, tau):
        """V, K grad_f(X), repulsion push and restart statistic of the accelerated step at X.

        The momentum update needs the interaction matrix
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
        n, d = x.shape
        k = gram(self, x).k
        v = cholesky_inverse_apply(k, eps, y)
        # z[i, a*d + c] = V_ia X_ic
        z = (v[:, :, None] * x[:, None, :]).reshape(n, d * d)
        p = k @ np.hstack([g, x, v, z, np.ones((n, 1))])
        kg, kx, kv = p[:, :d], p[:, d : 2 * d], p[:, 2 * d : 3 * d]
        kz = p[:, 3 * d : -1].reshape(n, d, d)
        k1 = p[:, -1]
        # Dissipation -dE/dt in matrix form, negative when the energy is rising:
        # -(1/N^2) [tr(V^T K G) + tr(V^T (K - diag(K 1)) X) / sigma2], the matrix
        # form of the negated double sum (1/N^2) sum_ij <V_j, k(X_i, X_j)
        # grad_f(X_i) - grad2_k(X_j, X_i)>.
        drive = float(np.tensordot(v, kg))
        repulsion = float(np.tensordot(v, kx - k1[:, None] * x))
        grad_stat = -(drive + repulsion / self.sigma2) / n**2
        m = np.einsum("ia,iac->ic", v, kz)
        r = np.einsum("ia,ia->i", v, kv)
        q = k @ np.hstack([m, r[:, None]])
        w1 = n * k1 + (q[:, -1] - np.einsum("ia,ia->i", kv, kv))
        wx = n * kx + (q[:, :-1] - np.einsum("ia,iac->ic", kv, kz))
        push = (np.sqrt(tau) / (n**2 * self.sigma2)) * (w1[:, None] * x - wx)
        return v, kg, push, grad_stat

    def plain_step(self, x, g, tau):
        """X + (tau/N) [ (diag(K 1) - K) X / sigma2 - K grad_f(X) ]."""
        k = gram(self, x).k
        repulsion = k.sum(axis=1)[:, None] * x - k @ x
        return x + (tau / x.shape[0]) * (repulsion / self.sigma2 - k @ g)


class BilinearKernel:
    """Affine kernel x^T A y + 1 with A symmetric positive definite."""

    def __init__(self, a):
        a = np.atleast_2d(np.asarray(a, dtype=float))
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"A must be square, got shape {a.shape}")
        if not np.allclose(a, a.T, atol=1e-12 * max(1.0, np.abs(a).max())):
            raise ValueError("A must be symmetric")
        if np.linalg.eigvalsh(a).min() <= 0:
            raise ValueError("A must be positive definite")
        self.a = a
        self.dim = a.shape[0]
        # lower Cholesky factor, cached for the rank-(d+1) Gram factorization
        self.chol_a = np.linalg.cholesky(a)

    def __repr__(self):
        return f"BilinearKernel(a={self.a.tolist()})"

    def low_rank_factor(self, x):
        """U with U U^T = K, the Gram matrix of the rows of x: columns [X L | 1] where A = L L^T."""
        x = np.asarray(x, dtype=float)
        return np.hstack([x @ self.chol_a, np.ones((x.shape[0], 1))])

    def accelerated_terms(self, x, y, g, eps, tau):
        """V, K grad_f(X) and repulsion push of the accelerated step at X; no restart statistic.

        Needs eps > 0: the Gram matrix has rank at most d + 1, so K + eps I is
        singular at eps = 0 as soon as N > d + 1.
        """
        if eps == 0:
            raise ValueError("asvgd with the bilinear kernel needs eps > 0: "
                             "its Gram matrix has rank at most d + 1")
        n = x.shape[0]
        u = self.low_rank_factor(x)
        v = woodbury_inverse_apply(u, eps, y)
        kg = u @ (u.T @ g)
        scale = 1.0 + np.linalg.norm(u.T @ v) ** 2 / n**2
        return v, kg, np.sqrt(tau) * scale * (x @ self.a), float("nan")

    def plain_step(self, x, g, tau):
        """X + (tau/N) (N X A - K grad_f(X)) on the rank-(d+1) factor.

        The driving term enters with a minus sign, which is the descent
        direction of the underlying flow.
        """
        u = self.low_rank_factor(x)
        kg = u @ (u.T @ g)
        return x + tau * (x @ self.a - kg / x.shape[0])


@dataclass
class GramMatrix:
    """Dense kernel matrix K."""

    k: np.ndarray


# entries per distance block; a block always holds at least one full row
_BLOCK_ENTRIES = 1 << 16


def _sq_dist_blocks(x):
    """Yield (start, stop, block): the squared distances of rows x[start:stop] to every row of x.

    ``block`` is a view of one buffer of about ``_BLOCK_ENTRIES`` entries that
    is overwritten by the next block, so a caller consumes it before asking for
    more.  Each entry sums its coordinates' squared differences in coordinate
    order, the first square seeding the sum, so a block row is bit-identical
    for any block size, and the matrix is exactly symmetric with an exactly
    zero diagonal.
    """
    n, d = x.shape
    xt = np.ascontiguousarray(x.T)
    rows = max(1, min(n, _BLOCK_ENTRIES // max(n, 1)))
    buf = np.empty((rows, n))
    diff = np.empty((rows, n))
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        block, scratch = buf[: stop - start], diff[: stop - start]
        np.subtract(x[start:stop, 0, None], xt[0], out=block)
        block *= block
        for k in range(1, d):
            np.subtract(x[start:stop, k, None], xt[k], out=scratch)
            scratch *= scratch
            block += scratch
        yield start, stop, block


def gram(kernel, x) -> GramMatrix:
    """Gaussian kernel matrix K with K[i, j] = k(x_i, x_j); symmetric with a unit diagonal.

    Each distance block is scaled and exponentiated straight into K, so K is
    the only N x N array it allocates.
    """
    if not isinstance(kernel, GaussianKernel):
        raise TypeError(f"gram builds dense Gaussian Gram matrices only, got {kernel!r}; "
                        "a bilinear kernel's Gram matrix is U U^T with U from its low_rank_factor")
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ValueError(f"expected an N x d point array with N >= 1, got shape {x.shape}")
    k = np.empty((x.shape[0], x.shape[0]))
    for start, stop, block in _sq_dist_blocks(x):
        block /= -2.0 * kernel.sigma2
        np.exp(block, out=k[start:stop])  # unit diagonal: the distance diagonal is exactly zero
    return GramMatrix(k=k)


def median_bandwidth(x) -> float:
    """Squared bandwidth med^2 / (2 log(N + 1)) from the median pairwise distance.

    The N (N - 1) / 2 distances of the strict upper triangle are gathered
    block by block into one vector, which the median then partitions in place.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    if n < 2:
        raise ValueError("median bandwidth needs at least two points")
    upper = np.empty(n * (n - 1) // 2)
    pos = 0
    for start, stop, block in _sq_dist_blocks(x):
        for i in range(start, stop):
            upper[pos : pos + n - 1 - i] = block[i - start, i + 1 :]
            pos += n - 1 - i
    np.sqrt(upper, out=upper)
    med = float(np.median(upper, overwrite_input=True))
    if med == 0.0:
        raise ValueError("all points identical: median bandwidth undefined")
    return med**2 / (2.0 * np.log(n + 1.0))


def cholesky_inverse_apply(k, eps, y):
    """N (K + eps I)^-1 y for the N x N matrix K by a Cholesky factorization; K itself is left intact.

    Raises LinAlgError with the smallest singular value of K + eps I when the
    factorization fails.
    """
    n = k.shape[0]
    k_eps = k.copy()
    k_eps.flat[:: n + 1] += eps
    try:
        # K + eps I equals its transpose exactly, and the transpose is a
        # Fortran-order view that LAPACK factors in place without a copy
        factor = scipy.linalg.cho_factor(k_eps.T, overwrite_a=True, check_finite=False)
    except np.linalg.LinAlgError:
        k_eps = k.copy()  # the failed factorization overwrote the buffer
        k_eps.flat[:: n + 1] += eps
        smin = np.linalg.svd(k_eps, compute_uv=False).min()
        raise np.linalg.LinAlgError(
            f"regularized kernel matrix singular (smallest singular value {smin:.3e})"
        ) from None
    return n * scipy.linalg.cho_solve(factor, y, check_finite=False)


def woodbury_inverse_apply(u, eps, y):
    """N (U U^T + eps I)^-1 y for the N-row factor U via the (d+1) x (d+1) capacitance system."""
    cap = eps * np.eye(u.shape[1]) + u.T @ u
    return (u.shape[0] / eps) * (y - u @ np.linalg.solve(cap, u.T @ y))
