"""Target potentials f (with density proportional to exp(-f)) and their gradients.

A target has a ``dim`` and two batched methods, ``potential_all(x)`` and
``grad_all(x)``, which take the rows of an N x d array and return shapes (N,)
and (N, d).  The samplers pass column-major rows, and the built-in targets
return column-major gradients (see ``samplers``).  Every built-in target
also has ``log_normalizer`` = log of the integral of exp(-f) over R^d, in
closed form.  The knn KL metric needs it and rejects a target without it,
such as a ``CustomTarget``.  A ``GaussianTarget`` alone also has
``frame_gradient(pp, w)``, its projected gradient in the samplers' affine
frame; a constant-damped bilinear run steps in that frame, without an N-row
array, only on a target that has it.
"""

from __future__ import annotations

import math

import numpy as np

from .gaussian_flow import spd_cholesky

__all__ = [
    "GaussianTarget",
    "QuarticTarget",
    "DoubleBananasTarget",
    "CustomTarget",
    "builtin",
    "builtin_names",
]


class GaussianTarget:
    """Quadratic potential 0.5 (x - b)^T Q^-1 (x - b) for a normal target N(b, Q).

    Q is the target covariance, checked by ``spd_cholesky``.  Its lower
    Cholesky factor ``chol_q``, the log-determinant from it and Q^-1 from
    ``np.linalg.inv`` (symmetrized) are cached at construction, with the
    log-normalizer (d log 2 pi + log det Q) / 2.
    """

    def __init__(self, b, q):
        self.b = np.atleast_1d(np.asarray(b, dtype=float))
        q = np.atleast_2d(np.asarray(q, dtype=float))
        if self.b.ndim != 1 or q.shape != (self.b.size, self.b.size):
            raise ValueError(f"need a d-vector mean and a d x d covariance, got shapes {self.b.shape} and {q.shape}")
        self.q, self.chol_q = spd_cholesky(q, "covariance")
        self.q_inv = np.linalg.inv(q)
        self.q_inv = 0.5 * (self.q_inv + self.q_inv.T)
        self.log_det_q = 2.0 * float(np.log(np.diag(self.chol_q)).sum())
        self.dim = self.b.size
        self.log_normalizer = 0.5 * (self.dim * math.log(2.0 * math.pi) + self.log_det_q)

    def potential_all(self, x):
        r = np.asarray(x, dtype=float) - self.b
        return 0.5 * np.einsum("ij,ij->i", (self.q_inv.T @ r.T).T, r)

    def grad_all(self, x):
        # R Q^-1, written (Q^-T R^T)^T so that it comes out column-major
        return (self.q_inv.T @ (np.asarray(x, dtype=float) - self.b).T).T

    def frame_gradient(self, pp, w):
        """P^T grad_f(P W) from pp = P^T P alone, for a frame P whose last column is 1.

        grad_f(X) = (X - 1 b^T) Q^-1 is affine in X, so
        P^T grad_f(P W) = (P^T P W - P^T 1 b^T) Q^-1, and P^T 1 is the last
        column of P^T P: the samplers' affine frame steps without an N-row array.
        """
        return (pp @ w - np.outer(pp[:, -1], self.b)) @ self.q_inv


class QuarticTarget:
    """Non-Lipschitz convex potential (x1^4 + x2^4) / 4 in two dimensions.

    Each coordinate integrates to 2 * 4^(1/4) * Gamma(5/4), so the
    log-normalizer is twice the log of that.  The powers are products, not
    ``**``, whose ``pow`` loop is 45-70 times slower at N = 50 000, d = 2.
    """

    dim = 2
    log_normalizer = 2.0 * math.log(2.0 * 4.0**0.25 * math.gamma(1.25))

    def potential_all(self, x):
        x = np.asarray(x, dtype=float)
        s = x * x
        s *= s
        return 0.25 * s.sum(axis=1)

    def grad_all(self, x):
        x = np.asarray(x, dtype=float)
        g = x * x
        g *= x
        return g


def _weigh(w, g):
    """w * g, and exactly 0 where w is 0.

    A mode whose softmax weight underflowed contributes nothing, even where its
    warp gradient overflowed to inf (0 * inf would be NaN); so the gradients at
    x and at its mirror image Rx agree up to the sign of the second component.
    """
    return np.multiply(w, g, out=np.zeros_like(g), where=w != 0)


class DoubleBananasTarget:
    """Two mirrored banana-shaped modes.

    f(x) = -log(exp(-F(x)) + exp(-F(Rx))) with the Rosenbrock-type warp
    F(x) = (a - x1)^2 / c1 + c2 (x2 - x1^2)^2 and the reflection R = diag(1, -1).
    The defaults a=1, c1=0.5, c2=5 place both modes inside [-2, 2]^2.

    Each warp integrates to pi sqrt(c1 / c2), whatever ``a`` is (a Gaussian in
    x1 times a Gaussian in x2 - x1^2), so the log-normalizer is
    log(2 pi sqrt(c1 / c2)).
    """

    dim = 2

    def __init__(self, a=1.0, c1=0.5, c2=5.0):
        self.a = float(a)
        self.c1 = float(c1)
        self.c2 = float(c2)

    @property
    def log_normalizer(self):
        return math.log(2.0 * math.pi * math.sqrt(self.c1 / self.c2))

    def _warp(self, x1, x2):
        return (self.a - x1) ** 2 / self.c1 + self.c2 * (x2 - x1**2) ** 2

    def _warp_grad(self, x1, x2):
        g1 = -2.0 * (self.a - x1) / self.c1 - 4.0 * self.c2 * x1 * (x2 - x1**2)
        g2 = 2.0 * self.c2 * (x2 - x1**2)
        return g1, g2

    def _log_odds(self, x1, x2):
        """F(x) - F(Rx) = -4 c2 x1^2 x2, clipped so that exp stays finite.

        The closed form, not the difference of the two warps: far out both warps
        overflow to inf, and inf - inf is NaN, which no clip removes.
        """
        return np.clip(-4.0 * self.c2 * x1**2 * x2, -700, 700)

    def potential_all(self, x):
        x = np.asarray(x, dtype=float)
        f1 = self._warp(x[:, 0], x[:, 1])
        f2 = self._warp(x[:, 0], -x[:, 1])
        return -np.logaddexp(-f1, -f2)

    def grad_all(self, x):
        x = np.asarray(x, dtype=float)
        x1, x2 = x[:, 0], x[:, 1]
        w1 = 1.0 / (1.0 + np.exp(self._log_odds(x1, x2)))
        w2 = 1.0 - w1
        g11, g12 = self._warp_grad(x1, x2)
        g21, g22 = self._warp_grad(x1, -x2)
        # stacked as rows and transposed: column-major, like the samplers' arrays
        return np.stack([_weigh(w1, g11) + _weigh(w2, g21), _weigh(w1, g12) - _weigh(w2, g22)]).T


class CustomTarget:
    """Batched target from user-supplied per-point callables f(x) and grad_f(x), x of shape (d,).

    It has no ``log_normalizer``, so the knn KL metric rejects it.
    """

    def __init__(self, f, grad_f, dim):
        self._f = f
        self._grad = grad_f
        self.dim = dim

    def potential_all(self, x):
        return np.array([float(self._f(row)) for row in np.asarray(x, dtype=float)])

    def grad_all(self, x):
        return np.stack([np.asarray(self._grad(row), dtype=float) for row in np.asarray(x, dtype=float)])


# gauss-correlated is N(0, Q) with the printed matrix [[3, -2], [-2, 3]] as its precision Q^-1
_BUILTINS = {
    "gauss-correlated": lambda: GaussianTarget(b=np.zeros(2), q=np.linalg.inv([[3.0, -2.0], [-2.0, 3.0]])),
    "gauss-aniso": lambda: GaussianTarget(b=np.array([1.0, 1.0]), q=np.diag([10.0, 0.05])),
    "quartic": QuarticTarget,
    "double-bananas": DoubleBananasTarget,
}


def builtin(name: str):
    """Construct one of the built-in experiment targets by name."""
    if name not in _BUILTINS:
        raise ValueError(f"unknown target {name!r} (valid names: {', '.join(builtin_names())})")
    return _BUILTINS[name]()


def builtin_names():
    return list(_BUILTINS)
