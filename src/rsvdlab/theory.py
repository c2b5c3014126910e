"""Closed-form predictions of the theory: the phase-transition rate map for
random-graph subspace estimation and the per-row CLT covariance for
blockmodel eigenvectors.  Reference computations that only check the code
live in tests/_oracles.py.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, require_orthonormal

_BOUNDARY_TOL = 1e-9


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


def clt_gamma_sbm_all(core, tau, u, lam, beta) -> np.ndarray:
    """Asymptotic covariances of all n rows of the aligned eigenvector
    estimate, stacked as an (n, k, k) array.

    Gamma_i = n^(1+beta) * L^-1 (sum_j P_ij (1 - P_ij) u_j u_j^T) L^-1
    with L = diag(lam) and P_ij = core[tau_i, tau_j].  The sum is taken as
    sum_b W[tau_i, b] S_b, W = core o (1 - core), S_b = sum_{tau_j = b}
    u_j u_j^T, so no n x n array is formed.  Pairs with the n^((1+beta)/2)
    row scaling used in coverage checks, so the density constant cancels.
    """
    core = as_matrix(core, "core")
    u = require_orthonormal(u, name="u")
    lam = np.asarray(lam, dtype=np.float64)
    tau = np.asarray(tau)
    n, k = u.shape
    n_blocks = core.shape[0]
    if core.shape != (n_blocks, n_blocks) or tau.shape != (n,) or lam.shape != (k,):
        raise ValueError("shape mismatch between core, tau, u, and lam")
    if np.any(lam == 0.0):
        raise ValueError("eigenvalues must be nonzero")
    s = np.stack([u[tau == b].T @ u[tau == b] for b in range(n_blocks)])
    inner = ((core * (1.0 - core))[tau] @ s.reshape(n_blocks, k * k)).reshape(n, k, k)
    inv_lam = 1.0 / lam
    gammas = float(n) ** (1.0 + beta) * (
        inner * inv_lam[None, :, None] * inv_lam[None, None, :]
    )
    return (gammas + np.transpose(gammas, (0, 2, 1))) / 2.0
