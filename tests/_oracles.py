"""Independent reference implementations used only to check the package.

These deliberately avoid the library's own code paths: a cyclic Jacobi
eigensolver, a naive multi-pass repeated sketch, the term-by-term noise
expansion of powered-matrix differences (C2), the blockmodel CLT
covariance one row at a time from the n x n edge probabilities, the
oracle entry variance for completion (C7), a dense grid search over 2x2
orthogonal alignments, the sin-theta distance from principal angles, the
dense whole-matrix forms of the passes that the package streams in tiles,
row blocks and chunks, the block-core eigenpairs with their own eigh,
ordering and sign code, and the line-by-line Matrix Market reader and
value-by-value writer that the package's vectorized ones replace.
"""

import numpy as np

from rsvdlab.stats import _A, _B, _C, _D, _E, _F


def jacobi_eigenvalues(s, max_sweeps=60, tol=1e-15):
    """Cyclic two-sided Jacobi eigenvalues of a symmetric matrix."""
    a = np.array(s, dtype=np.float64)
    n = a.shape[0]
    scale = np.linalg.norm(a)
    if scale == 0.0:
        return np.zeros(n)
    for _ in range(max_sweeps):
        off = np.sqrt(np.sum(np.tril(a, -1) ** 2) * 2.0)
        if off <= tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= 1e-300:
                    continue
                tau = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = np.sign(tau) / (abs(tau) + np.sqrt(1.0 + tau * tau))
                if tau == 0.0:
                    t = 1.0
                c = 1.0 / np.sqrt(1.0 + t * t)
                sn = t * c
                rot = np.eye(n)
                rot[p, p] = c
                rot[q, q] = c
                rot[p, q] = sn
                rot[q, p] = -sn
                a = rot.T @ a @ rot
    return np.sort(np.diag(a))[::-1]


def naive_block_svds(m_hat, g_star, k_tilde, a_n, g, rectangular=False):
    """Exact (U, s) of every block's powered sketch, formed by direct
    multiplication: M^g G_a for symmetric input, (M M^T)^g M G_a for
    rectangular input."""
    if rectangular:
        power = np.linalg.matrix_power(m_hat @ m_hat.T, g) @ m_hat
    else:
        power = np.linalg.matrix_power(m_hat, g)
    return [
        np.linalg.svd(power @ g_star[:, a * k_tilde:(a + 1) * k_tilde],
                      full_matrices=False)[:2]
        for a in range(a_n)
    ]


def naive_repeated_sketch(m_hat, g_star, k, k_tilde, a_n, g, rectangular=False):
    """Multi-pass reference for the repeated sketch: power the matrix
    directly per block, take the exact SVD, pick argmax sigma_k."""
    best = None
    for a, (u, s) in enumerate(naive_block_svds(m_hat, g_star, k_tilde, a_n, g,
                                                rectangular)):
        sig_k = s[k - 1] if k <= s.size else 0.0
        if best is None or sig_k > best[0]:
            best = (sig_k, a, u[:, :k])
    return best


def power_diff_expansion(m_hat, m, g):
    """Evaluate M_hat^g - M^g through its noise expansion.

    With E = M_hat - M the difference equals
        E^g
        + sum_{xi=0}^{g-2} sum_{l=0}^{g-2-xi} M_hat^l E M^{g-1-xi-l} E^xi
        + sum_{xi=0}^{g-2} M^{g-1-xi} E^{xi+1},
    evaluated term by term (no cancellation tricks), so it serves as an
    independent check of anything that manipulates matrix powers.
    """
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


def clt_gamma_row(p_mat, u, lam, beta, i):
    """Row i of the blockmodel CLT covariance, written out for one row:
    n^(1+beta) * L^-1 (sum_j m_ij (1 - m_ij) u_j u_j^T) L^-1, L = diag(lam)."""
    n = u.shape[0]
    w = p_mat[i, :] * (1.0 - p_mat[i, :])
    inner = (u * w[:, None]).T @ u
    inv_lam = 1.0 / lam
    gamma = float(n) ** (1.0 + beta) * (inv_lam[:, None] * inner * inv_lam[None, :])
    return (gamma + gamma.T) / 2.0


def vstar_oracle(t, u, p, sigma, i, j):
    """Oracle variance of [Z E]_ij + [E Z]_ij with Z = U U^T and
    E = p^-1 Omega o (T + N) - T.

    v*_ij = p^-1 sum_{l != j} {(1-p) T_il^2 + s^2} z_lj^2
          + p^-1 sum_{l != i} {(1-p) T_lj^2 + s^2} z_il^2
          + p^-1 {(1-p) T_ij^2 + s^2} (z_ii + z_jj)^2.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError("p must lie in (0, 1]")
    zeta = u @ u.T
    z2 = zeta * zeta
    var_e = ((1.0 - p) * t * t + sigma * sigma) / p
    v = float(var_e[i, :] @ z2[:, j]) - var_e[i, j] * z2[j, j]
    v += float(var_e[:, j] @ z2[i, :]) - var_e[i, j] * z2[i, i]
    v += var_e[i, j] * (zeta[i, i] + zeta[j, j]) ** 2
    return float(v)


def grid_min_spectral_residual(u1, u2, samples=5000):
    """Dense search over 2x2 rotations and reflections for the smallest
    spectral-norm residual ||u1 - u2 W||."""
    best = np.inf
    thetas = np.linspace(0.0, 2.0 * np.pi, samples // 2, endpoint=False)
    for theta in thetas:
        c, s = np.cos(theta), np.sin(theta)
        for w in (np.array([[c, -s], [s, c]]), np.array([[c, s], [s, -c]])):
            val = np.linalg.norm(u1 - u2 @ w, 2)
            if val < best:
                best = val
    return best


def sin_theta_norm(u1, u2):
    """||sin Theta(u1, u2)|| = sqrt(1 - sigma_min(u1^T u2)^2)."""
    s = np.clip(np.linalg.svd(u1.T @ u2, compute_uv=False), 0.0, 1.0)
    return float(np.sqrt(max(0.0, 1.0 - float(np.min(s)) ** 2)))


def dense_symmetry_defect(a):
    """max |A - A^T| from one n x n difference."""
    return float(np.max(np.abs(a - a.T)))


def dense_symmetric_bernoulli(n, prob, gen):
    """Symmetric 0/1 matrix from one (n, n) uniform draw: the upper
    triangle (diagonal included) of draw < prob, mirrored."""
    hits = np.triu(gen.random((n, n)) < prob)
    return (hits | hits.T).astype(np.float64)


def eager_p_mat(core, tau):
    """n x n blockmodel edge probabilities core[tau_i, tau_j]."""
    k = core.shape[0]
    return np.take(core, tau[:, None] * k + tau[None, :])


def block_eigenpairs_reference(labels, core, n_blocks):
    """Eigenpairs of Z core Z^T from the always-symmetrized block core
    D^(1/2) core D^(1/2), with their own eigh, magnitude ordering and one
    sign fix on the expanded vectors."""
    from rsvdlab.linalg import _fix_column_signs
    counts = np.bincount(labels, minlength=n_blocks).astype(np.float64)
    root = np.sqrt(counts)
    small = root[:, None] * core * root[None, :]
    vals, vecs = np.linalg.eigh((small + small.T) / 2.0)
    order = np.lexsort((-vals, -np.abs(vals)))
    vals = vals[order]
    vecs = vecs[:, order]
    scale = np.divide(1.0, root, out=np.zeros_like(root), where=root > 0)
    u = (vecs * scale[:, None])[labels, :]
    return vals, _fix_column_signs(u)


def _alloc_poly(coeffs, x):
    out = np.full_like(x, coeffs[-1], dtype=np.float64)
    for c in coeffs[-2::-1]:
        out = out * x + c
    return out


def dense_inv_norm_cdf(p):
    """PPND16 over the whole array: boolean masks select the central and
    tail entries, and every Horner step makes a fresh array."""
    p = np.asarray(p, dtype=np.float64)
    scalar = p.ndim == 0
    p = np.atleast_1d(p)
    q = p - 0.5
    out = np.empty_like(p)

    central = np.abs(q) <= 0.425
    if np.any(central):
        r = 0.180625 - q[central] ** 2
        out[central] = q[central] * _alloc_poly(_A, r) / _alloc_poly(_B, r)

    tails = ~central
    if np.any(tails):
        qt = q[tails]
        r = np.where(qt < 0.0, p[tails], 1.0 - p[tails])
        with np.errstate(divide="ignore"):
            r = np.sqrt(-np.log(r))
        val = np.empty_like(r)
        near = r <= 5.0
        rn = r[near] - 1.6
        val[near] = _alloc_poly(_C, rn) / _alloc_poly(_D, rn)
        far = ~near
        rf = r[far] - 5.0
        with np.errstate(invalid="ignore"):
            val[far] = _alloc_poly(_E, rf) / _alloc_poly(_F, rf)
        val[np.isinf(r)] = np.inf
        out[tails] = np.where(qt < 0.0, -val, val)

    return float(out[0]) if scalar else out


def dense_standard_normal(gen, shape):
    """Normals from one whole-array uniform draw and one transform."""
    k = gen.integers(0, 1 << 53, size=shape, dtype=np.int64)
    return dense_inv_norm_cdf((k + 0.5) * 2.0 ** -53)


def dense_symmetric_gaussian(n, sd, gen):
    """Upper triangle of sd times one (n, n) normal draw, mirrored by adding
    its transposed strict upper part."""
    full = sd * dense_standard_normal(gen, (n, n))
    return np.triu(full) + np.triu(full, 1).T


def dense_missing_pca_obs(d, m, k, p, sigma, gen):
    """Omega o (B F + N) from whole-array draws of B, F, N and the mask."""
    b = dense_standard_normal(gen, (d, k))
    f = dense_standard_normal(gen, (k, m))
    noise = sigma * dense_standard_normal(gen, (d, m)) if sigma > 0 else np.zeros((d, m))
    omega = (gen.random((d, m)) < p).astype(np.float64)
    return omega * (b @ f + noise)


def line_loop_read_matrix_market(path):
    """Matrix Market file to a dense float64 matrix, one Python operation
    per line: float() per array value, int()/float() and an indexed store
    (then its mirror, for symmetric files) per coordinate entry."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    if not lines or not lines[0].startswith("%%MatrixMarket"):
        raise ValueError(f"{path}: missing MatrixMarket header")
    header = lines[0].split()
    if len(header) != 5 or header[1].lower() != "matrix":
        raise ValueError(f"{path}: malformed header {lines[0]!r}")
    layout, field, symmetry = (w.lower() for w in header[2:5])
    if layout not in ("array", "coordinate") or field not in ("real", "integer") \
            or symmetry not in ("general", "symmetric"):
        raise ValueError(f"{path}: unsupported header {lines[0]!r}")

    body = [ln for ln in lines[1:] if ln.strip() and not ln.lstrip().startswith("%")]
    if not body:
        raise ValueError(f"{path}: no size line")
    size = body[0].split()
    data = body[1:]

    if layout == "array":
        if len(size) != 2:
            raise ValueError(f"{path}: array size line must have 2 fields")
        rows, cols = int(size[0]), int(size[1])
        expected = rows * (rows + 1) // 2 if symmetry == "symmetric" else rows * cols
        if len(data) != expected:
            raise ValueError(f"{path}: expected {expected} values, found {len(data)}")
        vals = np.array([float(v) for v in data], dtype=np.float64)
        out = np.empty((rows, cols), dtype=np.float64)
        if symmetry == "general":
            out = vals.reshape((cols, rows)).T.copy()
        else:
            pos = 0
            for j in range(cols):
                block = vals[pos:pos + rows - j]
                out[j:, j] = block
                out[j, j:] = block
                pos += rows - j
    else:
        if len(size) != 3:
            raise ValueError(f"{path}: coordinate size line must have 3 fields")
        rows, cols, nnz = int(size[0]), int(size[1]), int(size[2])
        if len(data) != nnz:
            raise ValueError(f"{path}: expected {nnz} entries, found {len(data)}")
        out = np.zeros((rows, cols), dtype=np.float64)
        for ln in data:
            parts = ln.split()
            if len(parts) != 3:
                raise ValueError(f"{path}: malformed coordinate line {ln!r}")
            i, j, v = int(parts[0]) - 1, int(parts[1]) - 1, float(parts[2])
            out[i, j] = v
            if symmetry == "symmetric" and i != j:
                out[j, i] = v
    if not np.isfinite(out).all():
        raise ValueError(f"{path}: matrix contains non-finite entries")
    return out


def line_loop_write_matrix_market(path, a):
    """Dense matrix to Matrix Market array format, column-major, with one
    format(x, '.17g') per value joined into one string."""
    rows, cols = a.shape
    lines = ["%%MatrixMarket matrix array real general", f"{rows} {cols}"]
    for j in range(cols):
        for i in range(rows):
            lines.append(format(float(a[i, j]), ".17g"))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
