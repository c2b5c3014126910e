"""Seeded generators for the signal-plus-noise models under study.

Each generator returns the observation together with its ground truth
(leading eigenpairs of the signal matrix), so experiments can measure
subspace errors without re-factorizing the signal.  Block-structured
signals get their eigenpairs from the small block core, which is exact
and avoids an n x n eigensolve.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, svd_thin, sym_eig, _fix_column_signs, _upper_tiles
from .rng import RngStream, standard_normal
from .stats import check_probability

_ROW_BLOCK = 64   # rows of uniforms drawn at a time by symmetric_bernoulli


@dataclass
class SbmInstance:
    a: np.ndarray        # adjacency, symmetric binary
    core: np.ndarray     # K x K edge-probability core rho * B
    tau: np.ndarray      # community labels in [0, K)
    u: np.ndarray        # leading d eigenvectors of core[tau_i, tau_j]
    lam: np.ndarray      # matching eigenvalues, descending |.|


@dataclass
class CompletionInstance:
    t: np.ndarray        # rank-k symmetric signal
    t_hat: np.ndarray    # observed Omega o (T + N)
    omega: np.ndarray    # symmetric binary mask
    p: float
    sigma: float
    u: np.ndarray
    lam: np.ndarray


@dataclass
class MissingPcaInstance:
    x_obs: np.ndarray    # Omega o (B F + N), d x m
    b: np.ndarray        # d x k factor loadings
    f: np.ndarray        # k x m factors
    p: float
    sigma: float
    u: np.ndarray        # left singular vectors of B (eigenvectors of B B^T)
    lam: np.ndarray      # eigenvalues of B B^T


def _uniform_rows(gen, rows, cols):
    """Yield (row slice, uniforms) over one (rows, cols) uniform draw, taken
    _ROW_BLOCK rows at a time into a reused buffer."""
    buf = np.empty((min(_ROW_BLOCK, rows), cols))
    for r0 in range(0, rows, _ROW_BLOCK):
        r1 = min(r0 + _ROW_BLOCK, rows)
        draw = buf[:r1 - r0]
        gen.random(out=draw)
        yield slice(r0, r1), draw


def _mirror_upper(out):
    """Copy the upper triangle of a square matrix onto its lower one, tile by
    tile."""
    for rows, cols in _upper_tiles(out.shape[0]):
        if rows == cols:
            tile = out[rows, rows]
            np.copyto(tile, tile.T, where=np.tri(len(tile), k=-1, dtype=bool))
        else:
            out[cols, rows] = out[rows, cols].T
    return out


def symmetric_bernoulli(n, prob, gen):
    """Symmetric 0/1 matrix with independent Bernoulli upper triangle.

    ``prob`` is a scalar, an n x n matrix (only its upper triangle is read)
    or a pair (core, labels) for core[labels_i, labels_j].  One (n, n)
    uniform draw is taken _ROW_BLOCK rows at a time into a reused buffer and
    compared into the upper triangle, which is then mirrored tile by tile.
    """
    core, labels = prob if isinstance(prob, tuple) else (np.broadcast_to(prob, (n, n)), None)
    out = np.empty((n, n))
    for rows, draw in _uniform_rows(gen, n, n):
        r0 = rows.start
        block = core[rows, r0:] if labels is None else core[labels[rows]][:, labels[r0:]]
        np.less(draw[:, r0:], block, out=out[rows, r0:])
    return _mirror_upper(out)


def symmetric_gaussian(n, sd, gen):
    """Symmetric matrix with iid N(0, sd^2) upper triangle (diagonal
    included) of one (n, n) draw; the draw's lower triangle is discarded.
    Zeros are +0.0, also where sd * z is -0.0."""
    out = standard_normal(gen, (n, n))
    out *= sd
    out += 0.0   # -0.0 + 0.0 is +0.0; every other value is unchanged
    return _mirror_upper(out)


def _block_eigenpairs(labels, core, n_blocks):
    """Eigenpairs of Z core Z^T for a membership matrix Z.

    Reduces to the n_blocks x n_blocks matrix D^(1/2) core D^(1/2) where D
    holds the block sizes, so the result is exact at any n.
    """
    counts = np.bincount(labels, minlength=n_blocks).astype(np.float64)
    root = np.sqrt(counts)
    vals, vecs = sym_eig(root[:, None] * core * root[None, :])
    scale = np.divide(1.0, root, out=np.zeros_like(root), where=root > 0)
    u = (vecs * scale[:, None])[labels, :]
    return vals, _fix_column_signs(u)


def check_sbm(n, b, pi, rho, d):
    """Validate blockmodel parameters; returns (B, pi) as float arrays."""
    b = as_matrix(b, "B")
    k_blocks = b.shape[0]
    if b.shape[1] != k_blocks:
        raise ValueError("B must be square")
    if np.max(np.abs(b - b.T)) > 1e-12:
        raise ValueError("B must be symmetric")
    if np.min(b) < 0.0 or np.max(b) > 1.0:
        raise ValueError("B entries must lie in [0, 1]")
    pi = np.asarray(pi, dtype=np.float64)
    if pi.ndim != 1 or pi.size != k_blocks:
        raise ValueError("pi must be a probability vector of length K")
    if np.min(pi) < 0.0 or abs(float(np.sum(pi)) - 1.0) > 1e-12:
        raise ValueError("pi must be nonnegative and sum to 1")
    if not 0.0 <= rho <= 1.0 or rho * float(np.max(b)) > 1.0 + 1e-15:
        raise ValueError("need rho in [0, 1] with rho * max(B) <= 1")
    if not 1 <= d <= k_blocks:
        raise ValueError(f"embedding dimension d must lie in [1, {k_blocks}]")
    if n < 1:
        raise ValueError("n must be positive")
    return b, pi


def gen_sbm(n, b, pi, rho, d, stream: RngStream) -> SbmInstance:
    """Sample a K-block stochastic blockmodel graph with sparsity rho.

    Labels are iid from pi; edges (diagonal included) are independent
    Bernoulli(rho * B[tau_i, tau_j]), mirrored below the diagonal.  Raises
    ValueError when a truth column is zero, as when fewer than d blocks
    draw nodes.
    """
    b, pi = check_sbm(n, b, pi, rho, d)
    k_blocks = b.shape[0]
    gen = stream.generator()
    cum = np.cumsum(pi)
    tau = np.minimum(np.searchsorted(cum, gen.random(n), side="right"), k_blocks - 1)
    core = rho * b
    a = symmetric_bernoulli(n, (core, tau), gen)
    vals, u = _block_eigenpairs(tau, core, k_blocks)
    if not u[:, :d].any(axis=0).all():
        filled = np.unique(tau).size
        raise ValueError(f"the truth basis has a zero column: {filled} of {k_blocks} "
                         f"blocks have nodes, d = {d}")
    return SbmInstance(a=a, core=core, tau=tau, u=u[:, :d], lam=vals[:d])


def _check_observation(p, sigma):
    check_probability(p)
    if sigma < 0.0:
        raise ValueError("sigma must be >= 0")


def check_completion(n, k, signal_scale, p, sigma):
    """The arguments gen_completion accepts."""
    _check_observation(p, sigma)
    if k < 1 or n < k:
        raise ValueError("need 1 <= k <= n")
    if signal_scale <= 0.0:
        raise ValueError("signal_scale must be positive")


def check_missing_pca(d, m, k, p, sigma):
    """The arguments gen_missing_pca accepts."""
    _check_observation(p, sigma)
    if not 1 <= k <= min(d, m):
        raise ValueError("need 1 <= k <= min(d, m)")


def check_edm(n, dim, box):
    """The arguments gen_edm accepts."""
    if dim not in (2, 3):
        raise ValueError("dim must be 2 or 3")
    if n < 1 or box <= 0.0:
        raise ValueError("need n >= 1 and box > 0")


def _homogeneous_core(k, gen, signal_scale):
    """Well-conditioned k x k core whose entries share one scale.

    Entries stay within a factor ~2.8 of each other, so the block signal
    Z C Z^T has min |T_ij| comparable to ||T||_max, and the spectrum stays
    well separated from zero.
    """
    base = np.ones((k, k)) + np.eye(k)
    if k > 1:
        w = 0.2 * (2.0 * gen.random((k, k)) - 1.0)
        base = base + (w + w.T) / 2.0
    return signal_scale * base / float(np.max(np.abs(base)))


def gen_completion(n, k, signal_scale, p, sigma, homogeneous, stream: RngStream) -> CompletionInstance:
    """Rank-k symmetric signal observed through a Bernoulli(p) mask plus
    iid N(0, sigma^2) noise.

    Homogeneous mode builds T from a balanced k-block membership times a
    well-conditioned core, giving entries of a single common scale with
    ||T||_max = signal_scale.
    """
    check_completion(n, k, signal_scale, p, sigma)
    gen = stream.generator()
    if homogeneous:
        labels = gen.permutation(np.arange(n) % k)
        core = _homogeneous_core(k, gen, signal_scale)
        t = core[np.ix_(labels, labels)]
        lam, u = _block_eigenpairs(labels, core, k)
    else:
        basis = np.linalg.qr(standard_normal(gen, (n, k)), mode="reduced")[0]
        basis = _fix_column_signs(basis)
        lam = signal_scale * n * np.linspace(1.0, 0.6, k)
        t = (basis * lam) @ basis.T
        t = (t + t.T) / 2.0
        u = basis
    omega = symmetric_bernoulli(n, p, gen)
    # omega * (t + noise), built in the noise's array: IEEE addition and
    # multiplication commute bit for bit
    t_hat = symmetric_gaussian(n, sigma, gen) if sigma > 0 else np.zeros((n, n))
    t_hat += t
    t_hat *= omega
    return CompletionInstance(
        t=t, t_hat=t_hat, omega=omega, p=float(p), sigma=float(sigma),
        u=u[:, :k], lam=lam[:k],
    )


def gen_missing_pca(d, m, k, p, sigma, stream: RngStream) -> MissingPcaInstance:
    """Factor-model data B F + N observed through a Bernoulli(p) mask."""
    check_missing_pca(d, m, k, p, sigma)
    gen = stream.generator()
    b = standard_normal(gen, (d, k))
    f = standard_normal(gen, (k, m))
    if sigma > 0:
        x_obs = standard_normal(gen, (d, m))
        x_obs *= sigma
    else:
        x_obs = np.zeros((d, m))
    x_obs += b @ f
    for rows, draw in _uniform_rows(gen, d, m):
        np.multiply(x_obs[rows], draw < p, out=x_obs[rows])
    u, s, _ = svd_thin(b)
    return MissingPcaInstance(
        x_obs=x_obs, b=b, f=f, p=float(p), sigma=float(sigma),
        u=u, lam=s ** 2,
    )


def edm_from_points(points) -> np.ndarray:
    """Squared-distance matrix D_ij = ||p_i - p_j||^2; rank <= dim + 2."""
    points = as_matrix(points, "points")
    sq = np.sum(points * points, axis=1)
    d_mat = sq[:, None] + sq[None, :] - 2.0 * (points @ points.T)
    d_mat = np.maximum((d_mat + d_mat.T) / 2.0, 0.0)
    np.fill_diagonal(d_mat, 0.0)
    return d_mat


def gen_edm(n, dim, box, stream: RngStream):
    """Squared-Euclidean-distance matrix of n uniform points in [0, box]^dim.

    Returns (d_mat, points).
    """
    check_edm(n, dim, box)
    gen = stream.generator()
    points = box * gen.random((n, dim))
    return edm_from_points(points), points

