"""Positive-definite kernels, Gram matrices, bandwidth selection and the low-rank solve.

Two kernel families are supported:

* ``GaussianKernel(sigma2)``  -- k(x, y) = exp(-|x - y|^2 / (2 sigma2)),
* ``BilinearKernel(a)``       -- k(x, y) = x^T A y + 1 with A symmetric positive definite.

The bilinear Gram matrix has rank at most d + 1, so (K + eps I) is invertible
only for eps > 0; ``woodbury_inverse_apply`` solves with it on the rank-(d+1)
factor in O(N d^2).

Every squared distance in the package -- the Gaussian Gram matrix, the median
bandwidth and the KDE of ``diagnostics`` -- comes from one loop,
``_sq_dist_blocks``, which hands out row blocks of the distance matrix in a
reused buffer of about ``_BLOCK_ENTRIES`` entries (512 KB, inside a 2 MiB L2
cache), so no caller holds an N x M distance matrix it does not return.
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


# entries per distance block; a block always holds at least one full row
_BLOCK_ENTRIES = 1 << 16


def _sq_dist_blocks(a, b):
    """Yield (start, stop, block): the squared distances of rows a[start:stop] to every row of b.

    ``block`` is a view of one buffer of about ``_BLOCK_ENTRIES`` entries that
    is overwritten by the next block, so a caller consumes it before asking for
    more.  Each entry sums its coordinates' squared differences in coordinate
    order, the first square seeding the sum, so a block row is bit-identical
    for any block size and ``a = b`` gives an exactly symmetric matrix with an
    exactly zero diagonal.
    """
    n, d = a.shape
    m = b.shape[0]
    bt = np.ascontiguousarray(b.T)
    rows = max(1, min(n, _BLOCK_ENTRIES // max(m, 1)))
    buf = np.empty((rows, m))
    diff = np.empty((rows, m))
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        block, scratch = buf[: stop - start], diff[: stop - start]
        np.subtract(a[start:stop, 0, None], bt[0], out=block)
        block *= block
        for k in range(1, d):
            np.subtract(a[start:stop, k, None], bt[k], out=scratch)
            scratch *= scratch
            block += scratch
        yield start, stop, block


def pairwise_sq_dists(a, b) -> np.ndarray:
    """Squared Euclidean distances between the rows of a (N x d) and b (M x d), as an N x M array.

    Filled block by block from ``_sq_dist_blocks``, so no N x M x d difference
    array is formed; ``pairwise_sq_dists(x, x)`` is exactly symmetric with an
    exactly zero diagonal.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    out = np.empty((a.shape[0], b.shape[0]))
    for start, stop, block in _sq_dist_blocks(a, b):
        out[start:stop] = block
    return out


def gram(kernel, x) -> GramMatrix:
    """Kernel matrix K with K[i, j] = k(x_i, x_j); symmetric by construction.

    The Gaussian kernel scales each distance block and exponentiates it
    straight into K, so K is the only N x N array it allocates.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ValueError(f"expected an N x d point array with N >= 1, got shape {x.shape}")
    if isinstance(kernel, GaussianKernel):
        k = np.empty((x.shape[0], x.shape[0]))
        for start, stop, block in _sq_dist_blocks(x, x):
            block /= -2.0 * kernel.sigma2
            np.exp(block, out=k[start:stop])  # unit diagonal: the distance diagonal is exactly zero
    elif isinstance(kernel, BilinearKernel):
        if x.shape[1] != kernel.dim:
            raise ValueError(f"kernel expects dimension {kernel.dim}, got {x.shape[1]}")
        k = x @ kernel.a @ x.T + 1.0
        k = 0.5 * (k + k.T)
    else:
        raise TypeError(f"unsupported kernel {kernel!r}")
    return GramMatrix(k=k, kernel=kernel, points=x)


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
    for start, stop, block in _sq_dist_blocks(x, x):
        for i in range(start, stop):
            upper[pos : pos + n - 1 - i] = block[i - start, i + 1 :]
            pos += n - 1 - i
    np.sqrt(upper, out=upper)
    med = float(np.median(upper, overwrite_input=True))
    if med == 0.0:
        raise ValueError("all points identical: median bandwidth undefined")
    return med**2 / (2.0 * np.log(n + 1.0))


def woodbury_inverse_apply(u, eps, y, n):
    """n * (U U^T + eps I)^-1 y via the (d+1) x (d+1) capacitance system."""
    cap = eps * np.eye(u.shape[1]) + u.T @ u
    return (n / eps) * (y - u @ np.linalg.solve(cap, u.T @ y))
