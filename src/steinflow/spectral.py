"""Linearized-at-equilibrium system matrices, their spectra, and optimal parameters.

All vectorizations are column-major (Fortran order), matching the identity
(B kron C) vec(V) = vec(C V B^T); ``sym_kron_sum(M, N)`` denotes
kron(M, N) + kron(N, M).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SpectralReport",
    "vec",
    "unvec",
    "sym_kron_sum",
    "commutes",
    "svgd_linearized_matrix",
    "eigs_1d",
    "optimal_a_svgd",
    "asvgd_linearized_matrix",
    "asvgd_closed_form_eigs",
    "asvgd_linearized_spectrum",
    "optimal_damping",
    "asvgd_rates",
    "euler_contraction_check",
]


def vec(m):
    """Column-major vectorization."""
    return np.asarray(m).ravel(order="F")


def unvec(v, shape):
    return np.asarray(v).reshape(shape, order="F")


def sym_kron_sum(m, n):
    """kron(M, N) + kron(N, M)."""
    return np.kron(m, n) + np.kron(n, m)


def commutes(a, b):
    """Whether |AB - BA| <= 1e-10 |A| |B| in the Frobenius norm (the scale floored at 1e-300)."""
    scale = max(np.linalg.norm(a) * np.linalg.norm(b), 1e-300)
    return np.linalg.norm(a @ b - b @ a) <= 1e-10 * scale


@dataclass
class SpectralReport:
    """Spectrum summary for a linearized system."""

    eigenvalues: np.ndarray
    spectral_abscissa: float
    condition_number: float
    optimal_step: float
    contraction: float

    def to_dict(self):
        return {
            "eigenvalues": [[float(z.real), float(z.imag)] for z in self.eigenvalues],
            "spectral_abscissa": self.spectral_abscissa,
            "condition_number": self.condition_number,
            "optimal_step": self.optimal_step,
            "contraction": self.contraction,
        }


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

    lambda_pm = [(2AQ + Ab^2 + 1) +- sqrt((2AQ + Ab^2 + 1)^2 - 8AQ)] / (2Q);
    real and positive for all A, Q > 0.
    """
    if a <= 0 or q <= 0:
        raise ValueError("a and q must be positive")
    s = 2.0 * a * q + a * b * b + 1.0
    rad = s * s - 8.0 * a * q
    root = np.sqrt(max(rad, 0.0))
    return (s - root) / (2.0 * q), (s + root) / (2.0 * q)


def optimal_a_svgd(b, q, mode):
    """Kernel matrix minimizing the condition number of the linearized system.

    mode="scalar-1d": A = 1 / (2Q + b^2) with associated optimal step h* = Q.
    mode="commuting": A = Q^-1 / 2 (requires b = 0); the achieved condition
    number is kappa(Q).
    """
    if mode == "scalar-1d":
        q = float(np.asarray(q).reshape(()))
        b = float(np.asarray(b).reshape(()))
        if q <= 0:
            raise ValueError("q must be positive")
        a = 1.0 / (2.0 * q + b * b)
        return a, q
    if mode == "commuting":
        q = np.atleast_2d(np.asarray(q, dtype=float))
        b = np.atleast_1d(np.asarray(b, dtype=float))
        if np.any(b != 0.0):
            raise ValueError("commuting mode requires b = 0")
        return 0.5 * np.linalg.inv(q)
    raise ValueError(f"unknown mode {mode!r}")


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
    """Closed-form spectrum: alpha/2 +- sqrt(alpha^2 - 4 mu_ij)/2 over all d^2 modes."""
    mu = _mode_stiffness(a, q).ravel()
    disc = np.asarray(alpha**2 - 4.0 * mu, dtype=complex)
    root = np.sqrt(disc)
    return np.concatenate([0.5 * (alpha - root), 0.5 * (alpha + root)])


def _greedy_pair_check(closed, numeric, tol_scale=1e-8, defect_allowance=0.0):
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


def asvgd_linearized_spectrum(a, q, alpha) -> SpectralReport:
    """Spectral report of the centered accelerated flow; A and Q must commute.

    The closed-form eigenvalues are cross-checked against a numeric eigensolve
    of the assembled matrix (greedy nearest pairing, 1e-8 relative).
    """
    if alpha < 0:
        raise ValueError(f"alpha must be nonnegative, got {alpha}")
    a = np.atleast_2d(np.asarray(a, dtype=float))
    q = np.atleast_2d(np.asarray(q, dtype=float))
    eigs = asvgd_closed_form_eigs(a, q, alpha)
    b_matrix = asvgd_linearized_matrix(a, q, alpha)
    numeric = np.linalg.eigvals(b_matrix)
    allowance = 2.0 * np.sqrt(np.finfo(float).eps * (1.0 + np.linalg.norm(b_matrix, 2)))
    _greedy_pair_check(eigs, numeric, defect_allowance=allowance)
    mags = np.abs(eigs)
    kappa = float(mags.max() / mags.min()) if mags.min() > 0 else np.inf
    mu = _mode_stiffness(a, q).ravel()
    h_star = 2.0 / (np.sqrt(mu.max()) + np.sqrt(2.0 * np.linalg.eigvalsh(a).min()))
    rho = (kappa - 1.0) / (kappa + 1.0)
    return SpectralReport(
        eigenvalues=eigs,
        spectral_abscissa=float(eigs.real.min()),
        condition_number=kappa,
        optimal_step=float(h_star),
        contraction=float(rho),
    )


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
    if theta <= 0:
        raise ValueError(f"theta must be positive, got {theta}")
    q = np.atleast_2d(np.asarray(q, dtype=float))
    q_vals = np.linalg.eigvalsh(q)
    kappa_q = float(q_vals.max() / q_vals.min())
    kappa_tilde = float(np.sqrt(0.5 * (kappa_q + 1.0 / kappa_q)))
    rho = (kappa_tilde - 1.0) / (kappa_tilde + 1.0)
    mu_max = theta * (kappa_q + 1.0 / kappa_q)
    h_star = 2.0 / (np.sqrt(mu_max) + np.sqrt(2.0 * theta))
    nesterov_bound = (np.sqrt(kappa_q) - 1.0) / (np.sqrt(kappa_q) + 1.0)
    if kappa_q > 1.0 and not rho < nesterov_bound:
        raise AssertionError(f"rho = {rho} is not below the square-root bound {nesterov_bound}")
    return float(rho), float(h_star), kappa_tilde


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
