"""Positive-definite kernels, Gram matrices, bandwidth selection and the low-rank solve.

Two kernel families are supported:

* ``GaussianKernel(sigma2)``  -- k(x, y) = exp(-|x - y|^2 / (2 sigma2)),
* ``BilinearKernel(a)``       -- k(x, y) = x^T A y + 1 with A symmetric positive definite.

The bilinear Gram matrix has rank at most d + 1, so (K + eps I) is invertible
only for eps > 0; ``woodbury_inverse_apply`` solves with it on the rank-(d+1)
factor in O(N d^2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "GaussianKernel",
    "BilinearKernel",
    "GramMatrix",
    "gram",
    "pairwise_sq_dists",
    "median_bandwidth",
    "woodbury_inverse_apply",
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


def woodbury_inverse_apply(u, eps, y, n):
    """n * (U U^T + eps I)^-1 y via the (d+1) x (d+1) capacitance system."""
    cap = eps * np.eye(u.shape[1]) + u.T @ u
    return (n / eps) * (y - u @ np.linalg.solve(cap, u.T @ y))
