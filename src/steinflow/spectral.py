"""Linearized-at-equilibrium system matrices, their spectra, and optimal parameters.

All vectorizations are column-major (Fortran order), matching the identity
(B kron C) vec(V) = vec(C V B^T); ``sym_kron_sum(M, N)`` denotes
kron(M, N) + kron(N, M).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "sym_kron_sum",
    "commutes",
    "svgd_linearized_matrix",
    "eigs_1d",
    "optimal_a_svgd",
    "asvgd_closed_form_eigs",
    "asvgd_linearized_spectrum",
    "optimal_damping",
    "asvgd_rates",
]


def sym_kron_sum(m, n):
    """kron(M, N) + kron(N, M)."""
    return np.kron(m, n) + np.kron(n, m)


def commutes(a, b):
    """Whether |AB - BA| <= 1e-10 |A| |B| in the Frobenius norm (the scale floored at 1e-300)."""
    scale = max(np.linalg.norm(a) * np.linalg.norm(b), 1e-300)
    return np.linalg.norm(a @ b - b @ a) <= 1e-10 * scale


def svgd_linearized_matrix(a, b, q):
    """System matrix of the plain flow linearized at its equilibrium (b, Q).

    Block form (acting on (mu, vec(Sigma)) deviations):

        [[ (b^T A b + 1) Q^-1,   (b^T A) kron Q^-1 ],
         [ (QAb) (+) Q^-1,        Q^-1 (+) (QA)     ]]

    where M (+) N = kron(M, N) + kron(N, M); block-diagonal when b = 0.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    q = np.atleast_2d(np.asarray(q, dtype=float))
    d = b.size
    q_inv = np.linalg.inv(q)
    k_bb = float(b @ a @ b + 1.0)
    qab = (q @ a @ b).reshape(d, 1)
    bta = (b @ a).reshape(1, d)
    top_left = k_bb * q_inv
    top_right = np.kron(bta, q_inv)
    bottom_left = sym_kron_sum(qab, q_inv)
    bottom_right = sym_kron_sum(q_inv, q @ a)
    return np.block([[top_left, top_right], [bottom_left, bottom_right]])


def eigs_1d(a, q, b):
    """Both eigenvalues of the one-dimensional linearized system matrix.

    lambda_pm = [s +- sqrt(s^2 - 8AQ)] / (2Q) with s = 2AQ + Ab^2 + 1; real and
    positive for all A, Q > 0.  They multiply to 2A/Q, so the small one is
    formed as 4A / (s + sqrt(s^2 - 8AQ)), which does not cancel when 8AQ << s^2.
    """
    if not (0.0 < a < np.inf and 0.0 < q < np.inf):
        raise ValueError(f"a and q must be finite and positive, got a = {a}, q = {q}")
    s = 2.0 * a * q + a * b * b + 1.0
    rad = s * s - 8.0 * a * q
    root = np.sqrt(max(rad, 0.0))
    return 4.0 * a / (s + root), (s + root) / (2.0 * q)


def optimal_a_svgd(b, q, mode):
    """Kernel matrix minimizing the condition number of the linearized system.

    mode="scalar-1d": A = 1 / (2Q + b^2) with associated optimal step h* = Q.
    mode="commuting": A = Q^-1 / 2 (requires b = 0); the achieved condition
    number is kappa(Q).
    """
    if mode == "scalar-1d":
        q = float(np.asarray(q).reshape(()))
        b = float(np.asarray(b).reshape(()))
        if not 0.0 < q < np.inf:
            raise ValueError(f"q must be finite and positive, got {q}")
        a = 1.0 / (2.0 * q + b * b)
        return a, q
    if mode == "commuting":
        q = np.atleast_2d(np.asarray(q, dtype=float))
        b = np.atleast_1d(np.asarray(b, dtype=float))
        if np.any(b != 0.0):
            raise ValueError("commuting mode requires b = 0")
        return 0.5 * np.linalg.inv(q)
    raise ValueError(f"unknown mode {mode!r}")


def _simultaneous_eigvals(a, q):
    """Eigenvalues (a_i, q_i) of commuting symmetric A, Q in a shared eigenbasis.

    Within a repeated eigenvalue block of Q the basis returned by eigh is
    rotated so that it also diagonalizes A.
    """
    if not commutes(a, q):
        raise ValueError("A and Q must commute")
    q_vals, v = np.linalg.eigh(q)
    n = q_vals.size
    i = 0
    while i < n:
        j = i + 1
        while j < n and abs(q_vals[j] - q_vals[i]) <= 1e-10 * max(1.0, abs(q_vals[i])):
            j += 1
        if j - i > 1:
            block = v[:, i:j].T @ a @ v[:, i:j]
            _, w = np.linalg.eigh(0.5 * (block + block.T))
            v[:, i:j] = v[:, i:j] @ w
        i = j
    a_vals = np.einsum("ij,jk,ki->i", v.T, a, v)
    return a_vals, q_vals


def _mode_stiffness(a, q):
    """All d^2 modal stiffness values mu_ij = (q_i / q_j) a_i + (q_j / q_i) a_j."""
    a_vals, q_vals = _simultaneous_eigvals(a, q)
    ratio = q_vals[:, None] / q_vals[None, :]
    return ratio * a_vals[:, None] + ratio.T * a_vals[None, :]


def asvgd_closed_form_eigs(a, q, alpha):
    """Closed-form spectrum: alpha/2 +- sqrt(alpha^2 - 4 mu_ij)/2 over all d^2 modes.

    A real pair multiplies to mu_ij, so its small root is mu_ij / large, where
    alpha - large would cancel; a complex pair, and a double root alpha/2,
    keep alpha - large.
    """
    mu = _mode_stiffness(a, q).ravel()
    disc = alpha**2 - 4.0 * mu
    # At a double root alpha^2 = 4 mu_ij exactly, but both sides carry rounding:
    # alpha^2 about three half-ulp errors (alpha's own square root, as at the
    # critical damping sqrt(8 lambda_min), then the square) and 4 mu_ij about four
    # (a ratio, two products, a sum), a few eps alpha^2 in all, whose square root
    # would split the pair by about sqrt(eps) alpha.  So a discriminant within
    # 8 eps alpha^2 counts as 0, with room to spare; that moves each root by at
    # most sqrt(8 eps) alpha / 2, the size of the split it removes.
    disc[np.abs(disc) <= 8.0 * np.finfo(float).eps * alpha**2] = 0.0
    large = 0.5 * (alpha + np.sqrt(np.asarray(disc, dtype=complex)))
    small = alpha - large
    real = disc > 0.0
    small[real] = mu[real] / large.real[real]
    return np.concatenate([small, large])


def asvgd_linearized_spectrum(a, q, alpha) -> dict:
    """Spectral report of the centered accelerated flow; A and Q must commute.

    A JSON-ready dict of the closed-form eigenvalues as [real, imag] pairs, the
    spectral abscissa, the condition number, the optimal step and the
    contraction factor.
    """
    if not 0.0 <= alpha < np.inf:
        raise ValueError(f"alpha must be nonnegative and finite, got {alpha}")
    a = np.atleast_2d(np.asarray(a, dtype=float))
    q = np.atleast_2d(np.asarray(q, dtype=float))
    eigs = asvgd_closed_form_eigs(a, q, alpha)
    mags = np.abs(eigs)
    kappa = float(mags.max() / mags.min()) if mags.min() > 0 else np.inf
    mu = _mode_stiffness(a, q).ravel()
    h_star = 2.0 / (np.sqrt(mu.max()) + np.sqrt(2.0 * np.linalg.eigvalsh(a).min()))
    rho = (kappa - 1.0) / (kappa + 1.0)
    return {
        "eigenvalues": [[float(z.real), float(z.imag)] for z in eigs],
        "spectral_abscissa": float(eigs.real.min()),
        "condition_number": kappa,
        "optimal_step": float(h_star),
        "contraction": float(rho),
    }


def optimal_damping(a) -> float:
    """Damping constant sqrt(8 lambda_min(A)) that criticalizes the slowest mode."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    return float(np.sqrt(8.0 * np.linalg.eigvalsh(a).min()))


def asvgd_rates(q, theta):
    """Contraction factor, optimal step and effective condition number for A = theta I.

    kappa_tilde = sqrt((kappa(Q) + 1/kappa(Q)) / 2), rho = (kappa_tilde - 1) /
    (kappa_tilde + 1), h* = 2 / (sqrt(max mu) + sqrt(2 theta)).  rho is strictly
    below (sqrt(kappa(Q)) - 1) / (sqrt(kappa(Q)) + 1) whenever kappa(Q) > 1.
    """
    if not 0.0 < theta < np.inf:
        raise ValueError(f"theta must be finite and positive, got {theta}")
    q = np.atleast_2d(np.asarray(q, dtype=float))
    q_vals = np.linalg.eigvalsh(q)
    kappa_q = float(q_vals.max() / q_vals.min())
    kappa_tilde = float(np.sqrt(0.5 * (kappa_q + 1.0 / kappa_q)))
    rho = (kappa_tilde - 1.0) / (kappa_tilde + 1.0)
    mu_max = theta * (kappa_q + 1.0 / kappa_q)
    h_star = 2.0 / (np.sqrt(mu_max) + np.sqrt(2.0 * theta))
    return float(rho), float(h_star), kappa_tilde
