"""Repeated-sampling randomized SVD with power iterations.

The symmetric driver sketches M_hat^g G for a_n independent Gaussian
blocks G_a and keeps the block whose k-th sketched singular value is
largest; the rectangular driver does the same with (M M^T)^g M G.  Both
run through one power chain: the a_n blocks sit side by side in one
combined Gaussian draw, every step applies one matrix to all of them in a
single multiply, so the data matrix is traversed only g (resp. 2g+1)
times.  The product is then viewed as an (a_n, n, k_tilde) stack and
re-orthonormalized in place by one batched CholeskyQR2, which hands any
block too ill-conditioned for it to Householder QR.  The per-block
products of R factors, which grow like ||M_hat||^g, give the sketch
singular values; they are rescaled by an exact power of two whenever they
leave 2^+-400, so the basis does not depend on the scale of M_hat, and one
stacked singular-value call picks the winning block.  Both return the
basis U, the singular values read off U^T M_hat, the chosen block and its
sketched sigma_k with its log2 (sigma_k reads 0 or inf past the double
range); reconstructions built on U belong to the applications.  Callers
build SketchConfig directly, with a_n from resolve_a_n.
"""

from dataclasses import dataclass
import math

import numpy as np

from .linalg import (
    ORTHONORMAL_TOL,
    RankDeficiencyError,
    as_matrix,
    check_symmetric,
    cholesky_qr2,
    orthonormality_defect,
    _fix_column_signs,
)
from .rng import RngStream, gaussian_matrix

_COLLAPSE_RCOND = 1e-13   # largest R diagonal / max |R| of a block taken as collapsed
_RESCALE_EXPONENT = 400   # R products past 2^+-400 are rescaled by a power of two


@dataclass(frozen=True)
class SketchConfig:
    """Inputs of the repeated-sampling sketch.

    k: target rank; k_tilde: sketch width (>= k); a_n: number of repeated
    sketches; g: power-iteration count; stream: randomness source.
    """

    k: int
    k_tilde: int
    a_n: int
    g: int
    stream: RngStream

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.k_tilde < self.k:
            raise ValueError("k_tilde must be >= k")
        if self.a_n < 1:
            raise ValueError("a_n must be >= 1")
        if self.g < 1:
            raise ValueError("g must be >= 1")

    def validate_for(self, shape):
        """Check that a matrix of the given (rows, cols) shape can carry the
        sketch: each block needs k_tilde rows and columns, and the combined
        draw a_n*k_tilde columns."""
        n_rows, n_cols = shape
        if self.k_tilde > min(n_rows, n_cols):
            raise ValueError(f"k_tilde={self.k_tilde} exceeds matrix dimension "
                             f"{min(n_rows, n_cols)}")
        if self.a_n * self.k_tilde > n_cols:
            raise ValueError(
                f"combined sketch width a_n*k_tilde={self.a_n * self.k_tilde} "
                f"exceeds matrix dimension {n_cols}"
            )


def resolve_a_n(rule, n: int) -> int:
    """Number of repeated sketches for an n-dimensional input.

    ``rule`` is a positive integer (or its decimal string), "ceil_log" for
    ceil(log n), or "ceil_log_sq" for ceil(log(n)^2); the rules give at
    least 1.
    """
    if rule == "ceil_log":
        return max(1, math.ceil(math.log(n)))
    if rule == "ceil_log_sq":
        return max(1, math.ceil(math.log(n) ** 2))
    if isinstance(rule, str) and rule.isdigit():
        rule = int(rule)
    if isinstance(rule, int) and not isinstance(rule, bool) and rule >= 1:
        return rule
    raise ValueError(f"a_n rule must be a positive integer, 'ceil_log' or "
                     f"'ceil_log_sq', got {rule!r}")


@dataclass
class RsvdOutput:
    u_hat_g: np.ndarray         # n x k orthonormal
    sigma_tilde: np.ndarray     # k approximate singular values, descending
    sigma_k_sketch: float       # winning sigma_k of the sketched matrix
    sigma_k_sketch_log2: float  # its log2, finite past the double range
    chosen_sketch: int          # index of the winning block in [0, a_n)


def combined_sketch(n: int, cfg: SketchConfig) -> np.ndarray:
    """One n x (a_n * k_tilde) Gaussian draw covering all blocks."""
    return gaussian_matrix(n, cfg.a_n * cfg.k_tilde, cfg.stream)


@np.errstate(over="ignore")  # sigma_k past the double range reads inf
def _extract_output(m_hat, q, rprods, shift, k):
    """Output of the block maximizing the k-th sketched singular value;
    ties go to the lowest block index.  The R products are 2^shift times
    ``rprods``."""
    sig_k = np.linalg.svd(rprods, compute_uv=False)[:, k - 1]
    chosen = int(np.argmax(sig_k))
    rprod = rprods[chosen]
    p, s_all, _ = np.linalg.svd(rprod, full_matrices=False)
    if s_all[0] <= 0.0 or s_all[k - 1] <= s_all[0] * max(rprod.shape) * np.finfo(np.float64).eps:
        raise RankDeficiencyError(
            f"target rank k={k} exceeds the numerical rank of the sketch"
        )
    u = _fix_column_signs(q[chosen] @ p[:, :k])
    if orthonormality_defect(u) > ORTHONORMAL_TOL:
        raise RankDeficiencyError("extracted singular vectors lost orthonormality")
    sigma_tilde = np.linalg.svd(u.T @ m_hat, compute_uv=False)
    return RsvdOutput(
        u_hat_g=u,
        sigma_tilde=sigma_tilde,
        sigma_k_sketch=float(np.ldexp(sig_k[chosen], shift)),
        sigma_k_sketch_log2=math.log2(sig_k[chosen]) + shift,
        chosen_sketch=chosen,
    )


def _power_chain(g_star, ops, snapshots, k, k_tilde):
    """Push the sketch blocks through ``ops`` in order and snapshot the
    selected output after every step named in ``snapshots`` ({step: g},
    steps counted from 1).  Returns {g: RsvdOutput}.

    ``g_star`` holds the blocks side by side, k_tilde columns each.  Every
    step is one combined multiply (a single pass over the data matrix);
    the product is viewed as an (a_n, rows, k_tilde) stack and every block
    is re-orthonormalized by cholesky_qr2, which writes Q over the product
    and decides per block whether Householder QR factors it instead, so the
    per-block states match running the blocks in isolation.  The per-block
    R products form an (a_n, k_tilde, k_tilde) stack, kept as 2^shift times
    a stack whose largest entry lies within 2^+-400.  Exactly low-rank
    inputs take the Householder path and leave trailing R diagonals at
    roundoff level, which is harmless since Q R = Y still holds; only a
    block whose R diagonal vanishes against its largest entry is an error.
    ``ops[0]`` is M_hat itself, which the extracted singular values are
    read from.
    """
    a_n = g_star.shape[1] // k_tilde
    current = g_star
    outputs = {}
    shift = 0
    for step, op in enumerate(ops, start=1):
        current = op @ current
        stack = current.reshape(current.shape[0], a_n, k_tilde).transpose(1, 0, 2)
        q, r = cholesky_qr2(stack)  # Q overwrites the product in place
        scale = np.max(np.abs(r), axis=(1, 2))
        peak = np.max(np.abs(np.diagonal(r, axis1=1, axis2=2)), axis=1)
        if np.any((scale == 0.0) | (peak <= _COLLAPSE_RCOND * scale)):
            raise RankDeficiencyError(
                f"sketch collapsed to numerical rank 0 at power iteration {step}",
                iteration=step,
            )
        rprods = r if step == 1 else r @ rprods
        exponent = int(np.frexp(np.max(np.abs(rprods)))[1])
        if abs(exponent) > _RESCALE_EXPONENT:
            rprods = np.ldexp(rprods, -exponent)
            shift += exponent
        if step in snapshots:
            outputs[snapshots[step]] = _extract_output(ops[0], q, rprods, shift, k)
    return outputs


def rs_rsvd_sym_chain(m_hat, cfg: SketchConfig, g_list) -> dict:
    """Outputs for several power counts from one sketch draw and one chain.

    Equivalent to calling rs_rsvd_sym once per g with the same config (the
    iterates at step g do not depend on later steps), but each power of the
    data matrix is applied only once.  Returns {g: RsvdOutput}.
    """
    m_hat, _ = check_symmetric(m_hat, "M_hat")
    cfg.validate_for(m_hat.shape)
    wanted = sorted(set(int(g) for g in g_list))
    if wanted[0] < 1:
        raise ValueError("all g must be >= 1")
    g_star = combined_sketch(m_hat.shape[0], cfg)
    return _power_chain(g_star, [m_hat] * wanted[-1], {g: g for g in wanted},
                        cfg.k, cfg.k_tilde)


def rs_rsvd_sym(m_hat, cfg: SketchConfig) -> RsvdOutput:
    """Repeated-sampling randomized SVD of a symmetric matrix.

    Runs g re-orthonormalized power iterations on each of the a_n sketch
    blocks (carved out of one combined Gaussian draw), keeps the block
    maximizing sigma_k of the sketched matrix, and reads the approximate
    singular values off U^T M_hat.  An input that fails
    linalg.check_symmetric raises NotSymmetricError before any random
    numbers are drawn.
    """
    return rs_rsvd_sym_chain(m_hat, cfg, [cfg.g])[cfg.g]


def rs_rsvd_asym(m_hat, cfg: SketchConfig) -> RsvdOutput:
    """Repeated-sampling randomized SVD for a rectangular matrix.

    Sketches (M M^T)^g M G_a through the same chain, alternating M^T and M
    after the first multiply, so the data is traversed 2g+1 times; the
    output approximates the k leading left singular vectors.
    """
    m_hat = as_matrix(m_hat, "M_hat")
    cfg.validate_for(m_hat.shape)
    g_star = combined_sketch(m_hat.shape[1], cfg)
    ops = [m_hat] + [m_hat.T, m_hat] * cfg.g
    return _power_chain(g_star, ops, {len(ops): cfg.g}, cfg.k, cfg.k_tilde)[cfg.g]
