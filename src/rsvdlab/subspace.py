"""Distances between subspaces spanned by orthonormal bases.

The d2 / d2-to-inf distances are evaluated at the Frobenius-Procrustes
minimizer (the rotation that best aligns the bases in Frobenius norm).
They upper-bound the definitional infimum over all orthogonal alignments
and stay within sqrt(2) times the sin-theta norm.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix


@dataclass(frozen=True)
class AlignmentResult:
    w: np.ndarray             # k x k orthogonal alignment
    residual_spectral: float  # ||u1 - u2 w||_2
    residual_two_inf: float   # ||u1 - u2 w||_{2->inf}


def _check_pair(u1, u2):
    u1 = as_matrix(u1, "u1")
    u2 = as_matrix(u2, "u2")
    if u1.shape != u2.shape:
        raise ValueError(f"shape mismatch: {u1.shape} vs {u2.shape}")
    return u1, u2


def procrustes_align(u1, u2) -> AlignmentResult:
    """Orthogonal w minimizing ||u1 - u2 w||_F, with alignment residuals."""
    u1, u2 = _check_pair(u1, u2)
    p, _, vt = np.linalg.svd(u2.T @ u1)
    w = p @ vt
    diff = u1 - u2 @ w
    return AlignmentResult(
        w=w,
        residual_spectral=float(np.linalg.norm(diff, 2)),
        residual_two_inf=float(np.sqrt(np.max(np.sum(diff * diff, axis=1)))),
    )

