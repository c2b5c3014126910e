"""Closed-form reference quantities used to validate the main code paths.

These are independent of the sketching implementation: a brute-force
expansion of powered-matrix differences, the phase-transition rate map
for random-graph subspace estimation, the per-row CLT covariance for
blockmodel eigenvectors, and the oracle entry variance for completion.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, require_orthonormal

_BOUNDARY_TOL = 1e-9


def power_diff_expansion(m_hat, m, g: int) -> np.ndarray:
    """Evaluate M_hat^g - M^g through its noise expansion.

    With E = M_hat - M the difference equals
        E^g
        + sum_{xi=0}^{g-2} sum_{l=0}^{g-2-xi} M_hat^l E M^{g-1-xi-l} E^xi
        + sum_{xi=0}^{g-2} M^{g-1-xi} E^{xi+1},
    evaluated term by term (no cancellation tricks), so it serves as an
    independent check of anything that manipulates matrix powers.
    """
    m_hat = as_matrix(m_hat, "M_hat")
    m = as_matrix(m, "M")
    if m_hat.shape != m.shape or m.shape[0] != m.shape[1]:
        raise ValueError("need two square matrices of equal shape")
    if g < 2:
        raise ValueError("g must be >= 2 (g = 1 reduces to E itself)")
    n = m.shape[0]
    e = m_hat - m

    def powers(base, top):
        out = [np.eye(n)]
        for _ in range(top):
            out.append(out[-1] @ base)
        return out

    mh_pow = powers(m_hat, g)
    m_pow = powers(m, g)
    e_pow = powers(e, g)

    total = e_pow[g].copy()
    for xi in range(0, g - 1):
        for ell in range(0, g - 1 - xi):
            total += mh_pow[ell] @ e @ m_pow[g - 1 - xi - ell] @ e_pow[xi]
    for xi in range(0, g - 1):
        total += m_pow[g - 1 - xi] @ e_pow[xi + 1]
    return total


@dataclass(frozen=True)
class RateModel:
    beta: float          # graph density exponent, in (0, 1]
    g: int               # power-iteration count
    metric: str          # "d2" or "d2inf"

    def __post_init__(self):
        if not 0.0 < self.beta <= 1.0:
            raise ValueError("beta must lie in (0, 1]")
        if self.g < 1:
            raise ValueError("g must be >= 1")
        if self.metric not in ("d2", "d2inf"):
            raise ValueError("metric must be 'd2' or 'd2inf'")


@dataclass(frozen=True)
class RateVerdict:
    regime: str          # "optimal", "slow", or "none"
    exponent: float      # predicted polynomial exponent of n


def rate_exponent(model: RateModel) -> RateVerdict:
    """Convergence regime and polynomial rate for the subspace error.

    optimal when g >= 1 + 1/beta (boundary included), slow when
    1/beta < g < 1 + 1/beta, none when g <= 1/beta.  At g = 1/beta the
    slow and none exponents coincide, so the boundary label is "none".
    """
    inv_beta = 1.0 / model.beta
    g = float(model.g)
    if g >= 1.0 + inv_beta - _BOUNDARY_TOL:
        regime = "optimal"
    elif g > inv_beta + _BOUNDARY_TOL:
        regime = "slow"
    else:
        regime = "none"
    beta = model.beta
    if model.metric == "d2":
        exponent = {
            "optimal": -beta / 2.0,
            "slow": -(g * beta - 1.0) / 2.0,
            "none": 0.0,
        }[regime]
    else:
        exponent = {
            "optimal": -(beta + 1.0) / 2.0,
            "slow": -g * beta / 2.0,
            "none": -0.5,
        }[regime]
    return RateVerdict(regime=regime, exponent=exponent)


def clt_gamma_sbm_all(p_mat, u, lam, beta) -> np.ndarray:
    """Asymptotic covariances of all n rows of the aligned eigenvector
    estimate, stacked as an (n, k, k) array.

    Gamma_i = n^(1+beta) * L^-1 (sum_j m_ij (1 - m_ij) u_j u_j^T) L^-1
    with L = diag(lam).  Pairs with the n^((1+beta)/2) row scaling used in
    coverage checks, so the density constant cancels.
    """
    p_mat = as_matrix(p_mat, "p_mat")
    u = require_orthonormal(u, name="u")
    lam = np.asarray(lam, dtype=np.float64)
    n, k = u.shape
    if p_mat.shape != (n, n) or lam.shape != (k,):
        raise ValueError("shape mismatch between p_mat, u, and lam")
    if np.any(lam == 0.0):
        raise ValueError("eigenvalues must be nonzero")
    w = p_mat * (1.0 - p_mat)
    inner = np.einsum("ij,ja,jb->iab", w, u, u, optimize=True)
    inv_lam = 1.0 / lam
    gammas = float(n) ** (1.0 + beta) * (
        inner * inv_lam[None, :, None] * inv_lam[None, None, :]
    )
    return (gammas + np.transpose(gammas, (0, 2, 1))) / 2.0


def vstar_oracle(t, u, p, sigma, i: int, j: int) -> float:
    """Oracle variance of [Z E]_ij + [E Z]_ij with Z = U U^T and
    E = p^-1 Omega o (T + N) - T.

    v*_ij = p^-1 sum_{l != j} {(1-p) T_il^2 + s^2} z_lj^2
          + p^-1 sum_{l != i} {(1-p) T_lj^2 + s^2} z_il^2
          + p^-1 {(1-p) T_ij^2 + s^2} (z_ii + z_jj)^2.
    """
    t = as_matrix(t, "T")
    u = require_orthonormal(u, name="u")
    n = t.shape[0]
    if t.shape[1] != n or u.shape[0] != n:
        raise ValueError("shape mismatch between T and u")
    if not 0.0 < p <= 1.0:
        raise ValueError("p must lie in (0, 1]")
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError("entry indices out of range")
    zeta = u @ u.T
    z2 = zeta * zeta
    var_e = ((1.0 - p) * t * t + sigma * sigma) / p
    v = float(var_e[i, :] @ z2[:, j]) - var_e[i, j] * z2[j, j]
    v += float(var_e[:, j] @ z2[i, :]) - var_e[i, j] * z2[i, i]
    v += var_e[i, j] * (zeta[i, i] + zeta[j, j]) ** 2
    return float(v)
