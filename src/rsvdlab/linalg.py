"""Dense decompositions and input checks used by every other module.

Signed QR, thin SVD, and the symmetric eigensolver are LAPACK-backed (via
numpy) but wrapped with the conventions the rest of the package relies
on: validated finite input, deterministic sign conventions and magnitude
ordering for eigenvalues.  ``check_symmetric`` is the one rule by which
the sketch and the exact baseline alike accept a matrix as symmetric.
Stacks of tall blocks are factored by a batched CholeskyQR2 that hands
each block too ill-conditioned for it to the Householder QR.
"""

from typing import NamedTuple

import numpy as np

from .rng import RngStream, gaussian_matrix

#: Maximum size accepted by the dense symmetric eigensolver.
SYM_EIG_MAX_N = 4096
SYM_TOL = 1e-10           # largest |A - A^T| / max(1, max|A|) check_symmetric accepts
SYM_EIG_MAX_ITER = 100    # block iterations sym_eig(s, k) runs before falling back to eigh
SYM_EIG_TOPK_MIN_N = 350  # sym_eig(s, k) keeps eigh up to this n, where eigh is as fast
_TOPK_RTOL = 1e-10        # Ritz residual, relative to |theta_1|, that certifies a top-k pair
_TOPK_STREAM = RngStream(0x5EED)  # start blocks of the top-k path; no plan draws from it
ORTHONORMAL_TOL = 1e-10   # largest |Q^T Q - I| entry accepted as orthonormal
_CHOLQR_MAX_RATIO = 1e6   # widest R_1 diagonal span (max / min) cholesky_qr2 accepts
_CHOLQR_R2_TOL = 1e-2     # largest |R_2 - I| entry cholesky_qr2 accepts
_SIGN_TOL = 1e-8          # entries below this fraction of a column's peak skip the sign rule
_TILE = 128               # side of the tiles in which square n x n passes touch a matrix


class RankDeficiencyError(ValueError):
    """Raised when a factorization meets a numerically rank-deficient input.

    ``iteration`` is the 1-based power-iteration step (sketching), when
    known.
    """

    def __init__(self, message, iteration=None):
        super().__init__(message)
        self.iteration = iteration


class NotSymmetricError(ValueError):
    """Raised when a matrix that must be symmetric is not."""


class SpectrumPair(NamedTuple):
    values: np.ndarray   # sorted by descending |value|
    vectors: np.ndarray  # orthonormal columns, one per value


def as_matrix(a, name="matrix") -> np.ndarray:
    """Validate and return ``a`` as a 2-d float64 array with finite entries."""
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"{name} must have positive dimensions, got {arr.shape}")
    # min and max are NaN or infinite exactly when some entry is
    if not (np.isfinite(arr.min()) and np.isfinite(arr.max())):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _upper_tiles(n):
    """(rows, cols) slices of the _TILE-sided tiles on and above the
    diagonal of an n x n matrix; the last row and column may be partial."""
    for i0 in range(0, n, _TILE):
        rows = slice(i0, min(i0 + _TILE, n))
        for j0 in range(i0, n, _TILE):
            yield rows, slice(j0, min(j0 + _TILE, n))


def symmetry_defect(a) -> float:
    """Largest entry of |A - A^T| for a square A; callers compare it to their
    own tolerance.  Taken over upper tiles against their transposed lower
    partners, so no n x n temporary is built."""
    n, m = a.shape
    if n != m:
        raise ValueError(f"expected a square matrix, got {n}x{m}")
    peaks = []
    for rows, cols in _upper_tiles(n):
        diff = a[rows, cols] - a[cols, rows].T
        peaks.append(np.max(np.abs(diff, out=diff)))
    return float(np.max(peaks))


def check_symmetric(a, name="matrix"):
    """Validate ``a`` as a finite square matrix with
    max |A - A^T| <= SYM_TOL * max(1, max |A|); returns (a as float64, that
    defect).  Raises NotSymmetricError past the tolerance and builds no
    n x n temporary."""
    a = as_matrix(a, name)
    asym = symmetry_defect(a)   # raises on a non-square a
    # max |A| is read only past the absolute tolerance
    if asym > SYM_TOL and asym > SYM_TOL * max(a.max(), -a.min()):
        raise NotSymmetricError(f"{name} is not symmetric: max asymmetry {asym:.3e}")
    return a, asym


def orthonormality_defect(q) -> float:
    q = np.asarray(q, dtype=np.float64)
    k = q.shape[1]
    return float(np.max(np.abs(q.T @ q - np.eye(k))))


def require_orthonormal(q, name="basis") -> np.ndarray:
    q = as_matrix(q, name)
    if q.shape[0] < q.shape[1]:
        raise ValueError(f"{name} must be tall (rows >= cols), got {q.shape}")
    defect = orthonormality_defect(q)
    if defect > ORTHONORMAL_TOL:
        raise ValueError(f"{name} is not orthonormal: defect {defect:.3e} "
                         f"> {ORTHONORMAL_TOL:.1e}")
    return q


def _fix_column_signs(u, companion=None):
    """Make the first significantly nonzero entry of each column of ``u``
    nonnegative; flip the matching column of ``companion`` alongside."""
    u = u.copy()
    companion = None if companion is None else companion.copy()
    for j in range(u.shape[1]):
        col = u[:, j]
        peak = np.max(np.abs(col))
        if peak == 0.0:
            continue
        idx = np.argmax(np.abs(col) > _SIGN_TOL * peak)
        if col[idx] < 0.0:
            u[:, j] = -col
            if companion is not None:
                companion[:, j] = -companion[:, j]
    return u if companion is None else (u, companion)


def signed_qr(a):
    """Reduced QR of a matrix or of a stack of matrices (leading axes), with
    every R diagonal made nonnegative; a zero diagonal counts as positive."""
    q, r = np.linalg.qr(a, mode="reduced")
    signs = np.where(np.diagonal(r, axis1=-2, axis2=-1) < 0.0, -1.0, 1.0)
    q *= signs[..., None, :]
    r *= signs[..., :, None]
    return q, r


def _cholesky_upper(gram):
    """Upper Cholesky factors of a stack of Gram matrices, and which blocks
    factored; a block that is not numerically positive definite gets the
    identity in place of its factor."""
    r = np.empty_like(gram)
    ok = np.ones(len(gram), dtype=bool)
    for b, block in enumerate(gram):
        try:
            r[b] = np.linalg.cholesky(block, upper=True)
        except np.linalg.LinAlgError:
            r[b], ok[b] = np.eye(gram.shape[-1]), False
    return r, ok


@np.errstate(over="ignore", invalid="ignore")  # such blocks fail the checks below
def cholesky_qr2(y):
    """Reduced QR of an (a, n, k) stack by CholeskyQR2, with Q written over
    ``y``; returns (y, R), every R diagonal nonnegative.

    Each pass factors the per-block Gram Y^T Y = R^T R by Cholesky and forms
    Q = Y R^-1 through the inverse of the k x k factor; the second pass
    repeats the first on its Q and R = R_2 R_1 (Fukaya, Nakatsukasa,
    Yanagisawa & Yamamoto 2014).  Its Q is orthonormal to rounding only
    while kappa(Y) stays well below u^-1/2 (about 9.5e7), so a block is
    factored by signed_qr alone when
      - the Cholesky of its Gram fails in either pass,
      - the first factor's diagonal spans more than _CHOLQR_MAX_RATIO = 1e6
        (max / min), about u^-1/2 / 100, or
      - R_2 differs from the identity by more than _CHOLQR_R2_TOL = 1e-2 in
        some entry.  The diagonal span only bounds kappa(Y) from below;
        R_2 near I certifies that the first pass's Q was near orthonormal.
    A block whose Gram leaves the double range fails one of these checks.
    Every step acts on one block at a time, so a block's result does not
    depend on the other blocks of the stack.
    """
    eye = np.eye(y.shape[-1])
    r1, ok = _cholesky_upper(y.mT @ y)
    diag = np.diagonal(r1, axis1=-2, axis2=-1)
    ok &= diag.max(axis=-1) <= _CHOLQR_MAX_RATIO * diag.min(axis=-1)
    r1[~ok] = eye
    q1 = y @ np.linalg.inv(r1)
    gram2 = q1.mT @ q1
    gram2[~ok] = eye
    r2, ok2 = _cholesky_upper(gram2)
    ok &= ok2 & (np.max(np.abs(r2 - eye), axis=(-2, -1)) <= _CHOLQR_R2_TOL)
    q_bad, r_bad = signed_qr(y[~ok])  # before y is overwritten
    np.matmul(q1, np.linalg.inv(r2), out=y)
    r = r2 @ r1
    y[~ok], r[~ok] = q_bad, r_bad
    return y, r


def svd_thin(y):
    """Thin SVD y = U diag(s) V^T with descending s and deterministic signs.

    Wide inputs are transposed internally, so U always has y.shape[0] rows.
    """
    y = as_matrix(y, "SVD input")
    transposed = y.shape[0] < y.shape[1]
    work = y.T if transposed else y
    u, s, vt = np.linalg.svd(work, full_matrices=False)
    v = vt.T
    u, v = _fix_column_signs(u, v)
    if transposed:
        u, v = v, u
    return u, s, v


def _top_k(s, k):
    """The k leading pairs of the symmetric ``s`` by block subspace iteration
    with Rayleigh-Ritz, or None where sym_eig falls back to eigh."""
    b = max(2 * k, k + 8)
    if s.shape[0] <= max(4 * b, SYM_EIG_TOPK_MIN_N):
        return None
    q, _ = np.linalg.qr(gaussian_matrix(s.shape[0], b, _TOPK_STREAM))
    for _ in range(SYM_EIG_MAX_ITER):
        y = s @ q
        theta, w = np.linalg.eigh(q.T @ y)
        order = np.lexsort((-theta, -np.abs(theta)))[:k + 1]
        theta, w = theta[order], w[:, order]
        u = q @ w
        res = np.linalg.norm(y @ w - u * theta, axis=0)
        tol = _TOPK_RTOL * abs(theta[0])
        if np.all(res[:k] <= tol):
            gap = abs(theta[k - 1]) - abs(theta[k])
            if gap <= tol:       # the converged boundary ties
                return None
            if gap > tol + res[k]:   # clears the eigenvalue near theta_{k+1} too
                return SpectrumPair(theta[:k], _fix_column_signs(u[:, :k]))
        q, _ = np.linalg.qr(y)
    return None


def sym_eig(s, k=None) -> SpectrumPair:
    """Eigendecomposition of a symmetric matrix, sorted by descending |value|.

    Magnitude ties are broken by placing the positive eigenvalue first.
    The input must pass check_symmetric; one with a nonzero defect is
    replaced by (S + S^T) / 2 before either path sees it.

    With ``k`` only the k leading pairs are returned, from block subspace
    iteration on an n x b block, b = max(2k, k + 8), started from a fixed
    internal stream.  Its certificate: each of the first k Ritz pairs has
    ||S u - theta u|| <= 1e-10 |theta_1|, and |theta_k| - |theta_{k+1}|
    exceeds that bound plus the (k+1)-th Ritz residual, within which S has
    an eigenvalue near theta_{k+1}.  The full eigh path serves instead when
    a converged boundary ties, after SYM_EIG_MAX_ITER iterations without
    the certificate, or when n <= max(4b, SYM_EIG_TOPK_MIN_N): at those
    sizes eigh is as fast; only eigh is capped at SYM_EIG_MAX_N rows.
    """
    s, asym = check_symmetric(s, "symmetric input")
    n = s.shape[0]
    if k is not None and not 1 <= k <= n:
        raise ValueError(f"k must lie in 1..{n}, got {k}")
    if asym > 0.0:
        s = (s + s.T) / 2.0
    if k is not None and (top := _top_k(s, k)):
        return top
    if n > SYM_EIG_MAX_N:
        raise ValueError(f"dense eigensolver limited to {SYM_EIG_MAX_N} rows, got {n}")
    vals, vecs = np.linalg.eigh(s)
    order = np.lexsort((-vals, -np.abs(vals)))[:k]
    vals = vals[order]
    vecs = _fix_column_signs(vecs[:, order])
    return SpectrumPair(values=vals, vectors=vecs)
