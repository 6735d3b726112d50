"""Positive-definite kernels, Gram matrices, bandwidth selection and regularized solves.

Two kernel families are supported:

* ``GaussianKernel(sigma2)``  -- k(x, y) = exp(-|x - y|^2 / (2 sigma2)),
* ``BilinearKernel(a)``       -- k(x, y) = x^T A y + 1 with A symmetric positive definite.

The bilinear Gram matrix has rank at most d + 1, which ``regularized_inverse_apply``
exploits through a Woodbury solve when the regularization is positive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

__all__ = [
    "GaussianKernel",
    "BilinearKernel",
    "GramMatrix",
    "eval_kernel",
    "grad1",
    "grad2",
    "gram",
    "pairwise_sq_dists",
    "median_bandwidth",
    "regularized_inverse_apply",
    "low_rank_pinv",
]


@dataclass(frozen=True)
class GaussianKernel:
    """Radial kernel exp(-|x - y|^2 / (2 sigma2)) with squared bandwidth sigma2 > 0."""

    sigma2: float

    def __post_init__(self):
        if not np.isfinite(self.sigma2) or self.sigma2 <= 0:
            raise ValueError(f"sigma2 must be a positive real, got {self.sigma2}")


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
        """U with U U^T = gram(self, x): columns [X L | 1] where A = L L^T."""
        x = np.asarray(x, dtype=float)
        return np.hstack([x @ self.chol_a, np.ones((x.shape[0], 1))])


@dataclass
class GramMatrix:
    """Kernel matrix together with the kernel and points it was built from."""

    k: np.ndarray
    kernel: object
    points: np.ndarray


def _check_pair(kernel, x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError(f"x and y must be vectors of equal dimension, got {x.shape} and {y.shape}")
    if isinstance(kernel, BilinearKernel) and x.shape[0] != kernel.dim:
        raise ValueError(f"kernel expects dimension {kernel.dim}, got {x.shape[0]}")
    return x, y


def eval_kernel(kernel, x, y) -> float:
    """Evaluate k(x, y)."""
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


def pairwise_sq_dists(a, b) -> np.ndarray:
    """Squared Euclidean distances between the rows of a (N x d) and b (M x d), as an N x M array.

    Coordinates are accumulated one at a time into a single N x M buffer, so no
    N x M x d difference array is formed.  Each entry sums its coordinates in
    the same order, which makes ``pairwise_sq_dists(x, x)`` exactly symmetric
    with an exactly zero diagonal.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    out = np.zeros((a.shape[0], b.shape[0]))
    diff = np.empty_like(out)
    for k in range(a.shape[1]):
        np.subtract.outer(a[:, k], b[:, k], out=diff)
        diff *= diff
        out += diff
    return out


def gram(kernel, x) -> GramMatrix:
    """Kernel matrix K with K[i, j] = k(x_i, x_j); symmetric by construction."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ValueError(f"expected an N x d point array with N >= 1, got shape {x.shape}")
    if isinstance(kernel, GaussianKernel):
        k = pairwise_sq_dists(x, x)
        k /= -2.0 * kernel.sigma2
        np.exp(k, out=k)  # unit diagonal: the distance diagonal is exactly zero
    elif isinstance(kernel, BilinearKernel):
        if x.shape[1] != kernel.dim:
            raise ValueError(f"kernel expects dimension {kernel.dim}, got {x.shape[1]}")
        k = x @ kernel.a @ x.T + 1.0
        k = 0.5 * (k + k.T)
    else:
        raise TypeError(f"unsupported kernel {kernel!r}")
    return GramMatrix(k=k, kernel=kernel, points=x)


def median_bandwidth(x) -> float:
    """Squared bandwidth med^2 / (2 log(N + 1)) from the median pairwise distance."""
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    if n < 2:
        raise ValueError("median bandwidth needs at least two points")
    sq = pairwise_sq_dists(x, x)
    iu = np.triu_indices(n, k=1)
    med = float(np.median(np.sqrt(sq[iu])))
    if med == 0.0:
        raise ValueError("all points identical: median bandwidth undefined")
    return med**2 / (2.0 * np.log(n + 1.0))


def regularized_inverse_apply(gm: GramMatrix, eps: float, y, n: int) -> np.ndarray:
    """Return n * (K + eps I)^-1 y.

    For the bilinear kernel with eps > 0 the solve goes through the Woodbury
    identity on the rank-(d+1) factorization K = U U^T, which costs O(N d^2)
    instead of O(N^3); it agrees with the dense solve to floating-point accuracy.
    """
    if eps < 0:
        raise ValueError(f"eps must be nonnegative, got {eps}")
    y = np.asarray(y, dtype=float)
    k = gm.k
    if isinstance(gm.kernel, BilinearKernel) and eps > 0:
        u = gm.kernel.low_rank_factor(gm.points)
        return woodbury_inverse_apply(u, eps, y, n)
    if eps == 0.0:
        # K must be numerically invertible; report the failure mode precisely.
        try:
            c, low = scipy.linalg.cho_factor(k, check_finite=False)
        except np.linalg.LinAlgError:
            smin = np.linalg.svd(k, compute_uv=False).min()
            raise np.linalg.LinAlgError(
                f"kernel matrix is singular with eps = 0 (smallest singular value {smin:.3e})"
            ) from None
        return n * scipy.linalg.cho_solve((c, low), y, check_finite=False)
    k_eps = k.copy()
    k_eps.flat[:: k.shape[0] + 1] += eps
    c, low = scipy.linalg.cho_factor(k_eps, check_finite=False)
    return n * scipy.linalg.cho_solve((c, low), y, check_finite=False)


def woodbury_inverse_apply(u, eps, y, n):
    """n * (U U^T + eps I)^-1 y via the (d+1) x (d+1) capacitance system."""
    cap = eps * np.eye(u.shape[1]) + u.T @ u
    return (n / eps) * (y - u @ np.linalg.solve(cap, u.T @ y))


def low_rank_pinv(eigvecs, eigvals):
    """Moore-Penrose pseudo-inverse of sum_i lambda_i v_i v_i^T for orthonormal v_i.

    Eigenvalues equal to zero are dropped; for the rank-two case this reduces to
    A^+ = v_1 v_1^T / lambda_1 + v_2 v_2^T / lambda_2.
    """
    eigvecs = np.asarray(eigvecs, dtype=float)
    eigvals = np.asarray(eigvals, dtype=float)
    keep = eigvals != 0.0
    v = eigvecs[:, keep]
    return (v / eigvals[keep]) @ v.T
