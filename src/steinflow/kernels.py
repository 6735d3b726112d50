"""Positive-definite kernels: each one owns the kernel-specific part of the samplers' steps.

Two kernel families are supported:

* ``GaussianKernel(sigma2)``  -- k(x, y) = exp(-|x - y|^2 / (2 sigma2)),
* ``BilinearKernel(a)``       -- k(x, y) = x^T A y + 1 with A symmetric positive definite.

A kernel is anything with the two step methods the samplers call:

* ``accelerated_terms(x, y, g, eps, tau, work=None)`` returns, for the
  accelerated step at positions X with momenta Y and G = grad_f(X), the
  kernel force F = push - (sqrt(tau) / N) K G of the momentum update
  Y <- alpha Y + F, as a fresh N x d array that the step keeps as the new
  momentum, and the gradient-restart statistic; the repulsion push and the
  statistic read V = N (K + eps I)^-1 Y, which stays inside the call;
* ``plain_step(x, g, tau)`` returns the positions after one plain kernel-transport step.

A kernel whose force is affine in the particles may also have
``frame_terms(w, v, pp, ptg, eps, tau, n)``, the coefficient form of
``accelerated_terms``: with X = P W and Y = P V in an N-row frame P, it
takes P^T P and P^T grad_f and returns the force's coefficients and the
restart statistic, so it reads no N-row array.  The bilinear kernel has it,
as its U = [X L | 1] is an affine image of the positions; the Gaussian
kernel does not.  ``samplers`` says which runs step in that frame.

``gram`` writes the diagonal and upper triangle of the dense Gaussian Gram
matrix, and every Gaussian step reads that triangle alone, with scipy's LAPACK
and BLAS wrappers: the accelerated step factors it in place and multiplies by
K through the factor, and the plain step multiplies by K with one symmetric
BLAS product.  Those wrappers are the package's only use of scipy.  The first
``GaussianKernel`` loads just their two extension modules (``_lapack_blas``),
not ``scipy.linalg``, whose import also loads ``numpy.f2py`` and
``numpy.testing``.  The bilinear Gram matrix has rank at most d + 1, so
(K + eps I) is invertible only for eps > 0; that kernel forms neither K nor V,
and solves only the (d+1) x d capacitance system, ``_capacitance``.

``work`` is the run's workspace, a dict of scratch arrays by key and shape
that ``samplers.run`` makes once per run (see ``samplers``).  The bilinear
step keeps its one N-row scratch array there, the factor U, all of whose
columns it writes on every call; its force is the one product U S, whose
fresh output the new ensemble keeps.  A run in the affine frame keeps its
frame P outside the workspace and allocates no U; ``frame_terms`` reads no
N-row array at all.  At N = 50 000 a fresh N-row temporary on every step
lands at the top of the heap, which glibc trims and faults in again on the
next step; with the workspace the kernel allocates only the force, which the
new ensemble keeps.  The Gaussian step leaves its N x N buffer out of the
workspace: keeping that buffer across steps raised the minor page faults of
a 60-step N = 1000 run from 33-39 to 272-279 per step (fresh process, one
BLAS thread).

The samplers hand every N x d array over column-major (see ``samplers``),
and each kernel returns its N x d results, and builds the bilinear factor U,
column-major too.  The product of an N-row array with a small matrix is
written as ``_matmul_f(x, a)`` = (A^T X^T)^T, which BLAS writes as length-N
columns; ``x @ a`` would return C order.

Every squared distance in the package -- the Gaussian Gram matrix and the
nearest-neighbour distances of the KL metric in ``diagnostics`` -- is between
two particles of one set and comes from one loop, ``_sq_dist_blocks``, which
hands out row blocks of the diagonal and upper triangle of the N x N
distance matrix in a reused buffer of about ``_BLOCK_ENTRIES`` entries
(512 KB, inside a 2 MiB L2 cache), so no caller holds a distance matrix it
does not return: ``gram`` exponentiates the blocks into its triangle, and the
nearest-neighbour pass folds each block's row and column minima into the
distances of both particles of every pair.
"""

from __future__ import annotations

import functools
import importlib.util
import os
import sys
import threading
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder

import numpy as np

from .gaussian_flow import spd_cholesky

__all__ = [
    "GaussianKernel",
    "BilinearKernel",
    "GramMatrix",
    "gram",
    "nearest_sq_dists",
]


@dataclass(frozen=True)
class GaussianKernel:
    """Radial kernel exp(-|x - y|^2 / (2 sigma2)) with squared bandwidth sigma2 > 0."""

    sigma2: float

    def __post_init__(self):
        if not np.isfinite(self.sigma2) or self.sigma2 <= 0:
            raise ValueError(f"sigma2 must be a positive real, got {self.sigma2}")
        # the dense solve's wrappers load here, in a run's set-up, not in its first step
        _lapack_blas()

    def accelerated_terms(self, x, y, g, eps, tau, work=None):
        """Kernel force push - (sqrt(tau) / N) K grad_f(X) and restart statistic of the accelerated step at X.

        ``work`` is not read (see the module docstring).  The momentum update
        needs the interaction matrix W = N K + K ((V V^T) o K) - K o ((K V) V^T)
        only through W 1 and W X, so W is never formed.  With
        P = K [G | X | Z | 1] (G = grad_f(X), Z[:, a d + c] = V_a X_c),
        KV = N Y - eps V (as (K + eps I) V = N Y), M_ic = sum_a V_ia (KZ)_i,ac
        and r = rowsum(V o KV),

            W 1 = N K1 + K r - rowsum(KV o KV),
            W X = N KX + K M - E,   E_ic = sum_a (KV)_ia (KZ)_i,ac,

        and the restart statistic reads KG, KX and K1 from P.  The two products
        cost O(N^2 (d^2 + 3d + 2)) instead of the O(N^3) of forming W, so they
        stop paying once d^2 approaches N (d of about 30 at N = 1000); every
        built-in target has d <= 10.

        One N x N buffer holds one triangle of K and then its factor: ``gram``
        writes the upper triangle, which is the lower triangle of the buffer's
        Fortran-order transpose, and LAPACK ``dpotrf`` factors K + eps I = L L^T
        over it in place.  ``dpotrs`` on L gives V, and each product is taken
        through the factor, K B = L (L^T B) - eps B, with two BLAS ``dtrmm``.
        The step's peak is about 1.15 N x N doubles at d = 2.
        """
        lapack, blas = _lapack_blas()
        n, d = x.shape
        buf = gram(self, x).k
        buf.flat[:: n + 1] += eps
        l, info = lapack.dpotrf(buf.T, lower=1, clean=0, overwrite_a=1)
        if info > 0:
            k_eps = gram(self, x).k  # the failed factorization overwrote the triangle it read
            k_eps.flat[:: n + 1] += eps
            # K + eps I is symmetric: its singular values are the |eigenvalues|
            smin = np.abs(np.linalg.eigvalsh(k_eps, UPLO="U")).min()
            raise np.linalg.LinAlgError(f"regularized kernel matrix singular (smallest singular value {smin:.3e})")
        v = n * lapack.dpotrs(l, y, lower=1)[0]

        def k_times(b):
            lt_b = blas.dtrmm(1.0, l, b, lower=1, trans_a=1)
            return blas.dtrmm(1.0, l, lt_b, lower=1, overwrite_b=1) - eps * b

        # z[i, a*d + c] = V_ia X_ic
        z = (v[:, :, None] * x[:, None, :]).reshape(n, d * d)
        p = k_times(np.hstack([g, x, z, np.ones((n, 1))]))
        kg, kx = p[:, :d], p[:, d : 2 * d]
        kz = p[:, 2 * d : -1].reshape(n, d, d)
        k1 = p[:, -1]
        kv = n * y - eps * v
        # Dissipation -dE/dt in matrix form, negative when the energy is rising:
        # -(1/N^2) [tr(V^T K G) + tr(V^T (K - diag(K 1)) X) / sigma2], the matrix
        # form of the negated double sum (1/N^2) sum_ij <V_j, k(X_i, X_j)
        # grad_f(X_i) - grad2_k(X_j, X_i)>.
        drive = float(np.tensordot(v, kg))
        repulsion = float(np.tensordot(v, kx - k1[:, None] * x))
        grad_stat = -(drive + repulsion / self.sigma2) / n**2
        m = np.einsum("ia,iac->ic", v, kz)
        r = np.einsum("ia,ia->i", v, kv)
        q = k_times(np.hstack([m, r[:, None]]))
        w1 = n * k1 + (q[:, -1] - np.einsum("ia,ia->i", kv, kv))
        wx = n * kx + (q[:, :-1] - np.einsum("ia,iac->ic", kv, kz))
        force = (np.sqrt(tau) / (n**2 * self.sigma2)) * (w1[:, None] * x - wx)
        force -= (np.sqrt(tau) / n) * kg
        return force, grad_stat

    def plain_step(self, x, g, tau):
        """X + (tau/N) [ (diag(K 1) - K) X / sigma2 - K grad_f(X) ].

        K [X | G | 1] is one BLAS ``dsymm`` on the triangle ``gram`` writes,
        which is the lower triangle of the buffer's Fortran-order transpose, as
        in ``accelerated_terms``; the product comes back column-major.
        """
        blas = _lapack_blas()[1]
        n, d = x.shape
        p = blas.dsymm(1.0, gram(self, x).k.T, np.hstack([x, g, np.ones((n, 1))]), lower=1)
        return x + (tau / n) * ((p[:, -1:] * x - p[:, :d]) / self.sigma2 - p[:, d:-1])


_LAPACK_BLAS_LOCK = threading.Lock()


def _lapack_blas():
    """(``scipy.linalg._flapack``, ``scipy.linalg._fblas``): scipy's LAPACK and BLAS wrappers, without ``scipy.linalg``.

    These are the callables that ``scipy.linalg.lapack`` and ``.blas``
    re-export.  Modules already in ``sys.modules`` are reused; otherwise the
    two extension files load from scipy's ``linalg`` directory without
    running any scipy ``__init__.py`` (see ``_load_extension``).  The lock
    makes concurrent first calls load them once.
    """
    with _LAPACK_BLAS_LOCK:
        return _load_lapack_blas()


@functools.cache
def _load_lapack_blas():
    scipy = importlib.util.find_spec("scipy")  # finds the package without importing it
    if scipy is None:
        raise ImportError("the Gaussian kernel needs scipy, which is not installed", name="scipy")
    linalg_dir = os.path.join(scipy.submodule_search_locations[0], "linalg")
    return tuple(sys.modules.get(name) or _load_extension(linalg_dir, name)
                 for name in ("scipy.linalg._flapack", "scipy.linalg._fblas"))


def _load_extension(directory, name):
    """The extension module ``name`` loaded from its file in ``directory``; ImportError if there is none.

    Loading a single-phase extension module registers it in ``sys.modules``.
    A later ``import scipy.linalg`` would find it there and leave the package
    attribute (``scipy.linalg._flapack``) unbound, so the entry this load made
    is removed: that import then loads the module again, with the same
    functions.
    """
    spec = FileFinder(directory, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(name)
    if spec is None:
        raise ImportError(f"no extension module file for {name} in {directory}", name=name, path=directory)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    if sys.modules.get(name) is module:
        del sys.modules[name]
    return module


class BilinearKernel:
    """Affine kernel x^T A y + 1 with A symmetric positive definite."""

    def __init__(self, a):
        # the lower Cholesky factor is cached for the rank-(d+1) Gram factorization
        self.a, self.chol_a = spd_cholesky(a, "A")
        self.dim = self.a.shape[0]

    def __repr__(self):
        return f"BilinearKernel(a={self.a.tolist()})"

    def low_rank_factor(self, x, work=None):
        """U with U U^T = K, the Gram matrix of the rows of x: columns [X L | 1] where A = L L^T.

        U is column-major, like every N-row array of a run.  With a ``work``
        dict, U is the array kept there under "u", overwritten whole.
        """
        x = np.asarray(x, dtype=float)
        u = workspace_array({} if work is None else work, "u", (x.shape[0], self.dim + 1))
        u[:, -1] = 1.0
        np.matmul(self.chol_a.T, x.T, out=u.T[:-1])  # X L as (L^T X^T)^T, written into U's first columns
        return u

    def accelerated_terms(self, x, y, g, eps, tau, work=None):
        """Kernel force push - (sqrt(tau) / N) K grad_f(X) and restart statistic of the accelerated step at X.

        Both read V only through U^T V = N C, C from ``_capacitance``: the
        push is sqrt(tau) (1 + |C|^2) X A, and with grad2_k(x, y) = A x and
        X A = U[:, :d] L^T the statistic is -(1/N^2) [tr(V^T K G) - N tr(V^T X A)]
        = -(1/N) [<C, U^T G> - N <C[:d], L^T>].  As K G = U (U^T G), the force
        is one product U S with the (d+1) x d matrix
        S = -(sqrt(tau) / N) U^T G + sqrt(tau) (1 + |C|^2) [L^T; 0].  Needs
        eps > 0: K has rank at most d + 1, so K + eps I is singular at eps = 0
        as soon as N > d + 1.

        U lives in ``work`` (see ``low_rank_factor``); the force is a fresh
        array, which the step keeps as the new momentum.
        """
        u = self.low_rank_factor(x, work)
        s, grad_stat = self._force_coefficients(_column_gram(u), u.T @ y, u.T @ g, eps, tau, x.shape[0])
        return _matmul_f(u, s), grad_stat

    def frame_terms(self, w, v, pp, ptg, eps, tau, n):
        """``accelerated_terms`` in coefficients: the force F = P (W_hat S) as W_hat S, and the restart statistic.

        The positions and momenta are X = P W and Y = P V in the frame
        P = [X0 | 1] of N rows, with the (d+1) x d coefficients W and V;
        ``pp`` is P^T P and ``ptg`` is P^T grad_f(X).  Then U = [X L | 1] is
        P W_hat with W_hat = [W L | e_(d+1)], so the step's three thin
        products are U^T U = W_hat^T (P^T P) W_hat, U^T Y = W_hat^T (P^T P) V
        and U^T grad_f = W_hat^T ptg, and the force U S is P (W_hat S): no
        N-row array is read or written.  Needs eps > 0, as ``accelerated_terms``.
        """
        d = self.dim
        w_hat = np.zeros((d + 1, d + 1))
        w_hat[:, :d] = w @ self.chol_a
        w_hat[-1, -1] = 1.0
        pp_w = pp @ w_hat
        utu = w_hat.T @ pp_w
        utu = 0.5 * (utu + utu.T)  # U^T U is symmetric; the product is so only to rounding
        s, grad_stat = self._force_coefficients(utu, pp_w.T @ v, w_hat.T @ ptg, eps, tau, n)
        return w_hat @ s, grad_stat

    def _force_coefficients(self, utu, uty, utg, eps, tau, n):
        """S with force U S, and the restart statistic, from U^T U, U^T Y and U^T grad_f (see ``accelerated_terms``)."""
        if eps == 0:
            raise ValueError("asvgd with the bilinear kernel needs eps > 0: "
                             "its Gram matrix has rank at most d + 1")
        c = _capacitance(utu, uty, eps)
        grad_stat = -float(np.vdot(c, utg) - n * np.vdot(c[:-1], self.chol_a.T)) / n
        sqrt_tau = np.sqrt(tau)
        s = utg * (-sqrt_tau / n)
        s[:-1] += (sqrt_tau * (1.0 + np.linalg.norm(c) ** 2)) * self.chol_a.T
        return s, grad_stat

    def plain_step(self, x, g, tau):
        """X + (tau/N) (N X A - K grad_f(X)) on the rank-(d+1) factor.

        The driving term enters with a minus sign, which is the descent
        direction of the underlying flow.
        """
        u = self.low_rank_factor(x)
        kg = _matmul_f(u, u.T @ g)
        return x + tau * (_matmul_f(x, self.a) - kg / x.shape[0])


def workspace_array(work, key, shape):
    """The column-major float array that the workspace ``work`` keeps under ``key``.

    A new, uninitialized array replaces one that is absent or of another
    shape; either way the caller writes every entry it reads.
    """
    buf = work.get(key)
    if buf is None or buf.shape != shape:
        buf = work[key] = np.empty(shape, order="F")
    return buf


def _matmul_f(x, a):
    """x @ a for an N-row x and a small a, computed as (a^T x^T)^T, so the result is column-major."""
    return (a.T @ x.T).T


@dataclass
class GramMatrix:
    """Dense Gaussian kernel matrix: ``k`` holds K's diagonal and upper triangle; the rest is undefined."""

    k: np.ndarray


# entries per distance block; a block always holds at least one full row
_BLOCK_ENTRIES = 1 << 16


def _sq_dist_blocks(x):
    """Yield (start, stop, block): the squared distances of rows x[start:stop] to rows x[start:].

    The blocks cover the diagonal and the upper triangle of the distance
    matrix.  ``block`` is a contiguous (stop - start, n - start) view of one
    buffer of about ``_BLOCK_ENTRIES`` entries that is overwritten by the next
    block, so a caller consumes it before asking for more.  Each entry sums
    its coordinates' squared differences in coordinate order, the first square
    seeding the sum, so an entry is bit-identical for any block size, and the
    diagonal is exactly zero.
    """
    n, d = x.shape
    xt = np.ascontiguousarray(x.T)  # a free view of a column-major x
    rows = max(1, min(n, _BLOCK_ENTRIES // max(n, 1)))
    buf = np.empty(rows * n)
    diff = np.empty(rows * n)
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        shape = (stop - start, n - start)
        # contiguous blocks: in-place ufuncs on a strided view of a wider buffer run
        # about 1.7x slower, which cancels the saving of reading one triangle
        block = buf[: shape[0] * shape[1]].reshape(shape)
        scratch = diff[: shape[0] * shape[1]].reshape(shape)
        np.subtract(x[start:stop, 0, None], xt[0, start:], out=block)
        block *= block
        for k in range(1, d):
            np.subtract(x[start:stop, k, None], xt[k, start:], out=scratch)
            scratch *= scratch
            block += scratch
        yield start, stop, block


def gram(kernel, x) -> GramMatrix:
    """Gaussian kernel matrix K with K[i, j] = k(x_i, x_j): its unit diagonal and upper triangle.

    Each distance block is scaled and exponentiated straight into K, so K is
    the only N x N array it allocates.  Only the diagonal and the upper
    triangle are written; the strict lower triangle of ``.k`` is left
    uninitialized, and every caller reads the triangle alone.
    """
    if not isinstance(kernel, GaussianKernel):
        raise TypeError(f"gram builds dense Gaussian Gram matrices only, got {kernel!r}; "
                        "a bilinear kernel's Gram matrix is U U^T with U from its low_rank_factor")
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ValueError(f"expected an N x d point array with N >= 1, got shape {x.shape}")
    n = x.shape[0]
    k = np.empty((n, n))
    for start, stop, block in _sq_dist_blocks(x):
        block /= -2.0 * kernel.sigma2
        # unit diagonal: the distance diagonal is exactly zero
        np.exp(block, out=k[start:stop, start:])
    return GramMatrix(k=k)


def nearest_sq_dists(x):
    """Squared distance from each row of x to its nearest other row, for N >= 2 finite rows.

    One pass over the upper triangle of the distance matrix: each block of
    rows start:stop holds their distances to rows start:, with every row's
    distance to itself set to inf, so the block's row minima and column minima
    fold into the nearest distances of both rows of each pair.  The minimum of
    the same entries is the same float whatever the order, and a row that
    another one coincides with reads 0.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError(f"nearest-neighbour distances need an N x d point array with N >= 2, "
                         f"got shape {x.shape}")
    out = np.full(x.shape[0], np.inf)
    for start, stop, block in _sq_dist_blocks(x):
        np.fill_diagonal(block, np.inf)  # block[i, i] is row start + i against itself
        np.minimum(out[start:stop], block.min(axis=1), out=out[start:stop])
        np.minimum(out[start:], block.min(axis=0), out=out[start:])
    return out


def _capacitance(utu, uty, eps):
    """C = (eps I + U^T U)^-1 U^T y from U^T U and U^T y, the (d+1) x (d+1) capacitance solve on the factor U.

    N (U U^T + eps I)^-1 y = (N / eps) (y - U C) by Woodbury.  Raises LinAlgError
    naming the condition number of eps I + U^T U when it is at least
    1 / machine epsilon, where the solve has no correct digit left.
    """
    cap = eps * np.eye(utu.shape[0]) + utu
    sv = np.abs(np.linalg.eigvalsh(cap))  # cap is symmetric: its singular values are the |eigenvalues|
    if not sv.max() * np.finfo(float).eps < sv.min():
        with np.errstate(divide="ignore"):
            raise np.linalg.LinAlgError("capacitance matrix eps I + U^T U ill-conditioned "
                                        f"(condition number {sv.max() / sv.min():.3e})")
    return np.linalg.solve(cap, uty)


def _column_gram(u):
    """U^T U for an N-row U with a few columns, one dot product per pair of columns.

    numpy takes ``u.T @ u`` as BLAS ``dsyrk``, which is slow for (d+1)-column
    products of N rows (about 0.3 ms at N = 50 000, d = 2, five times these
    dot products) and less accurate than them.  A column of a column-major U
    is contiguous.
    """
    m = u.shape[1]
    utu = np.empty((m, m))
    for i in range(m):
        for j in range(i, m):
            utu[i, j] = utu[j, i] = np.dot(u[:, i], u[:, j])
    return utu
