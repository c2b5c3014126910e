"""Downstream inference built on the randomized sketch: spectral
clustering for community detection, matrix completion with entrywise
confidence intervals, and PCA from partially observed data.  Each reads
its target rank from SketchConfig.k and uses only the sketch's basis U;
``_reconstruct`` is the one place the completion estimate is formed.
"""

from dataclasses import dataclass
from itertools import permutations
from typing import Optional

import numpy as np

from .clustering import cluster_rows
from .linalg import as_matrix, sym_eig
from .sketch import SketchConfig, rs_rsvd_sym
from .stats import check_probability, normal_quantile_two_sided


@dataclass
class ClusteringResult:
    tau_hat: np.ndarray
    u_hat_g: np.ndarray
    exact_recovery: Optional[bool] = None
    error_rate: Optional[float] = None


@dataclass
class CompletionResult:
    t_hat_g: np.ndarray
    u_hat_g: np.ndarray
    mode: str
    p_used: float


@dataclass
class EntryCI:
    i: int
    j: int
    estimate: float
    v_hat: float
    lo: float
    hi: float
    alpha: float


def rsvd_spectral_cluster(a, n_clusters, cfg: SketchConfig,
                          clusterer="kmeans", truth=None) -> ClusteringResult:
    """Cluster graph nodes from the sketched leading eigenvectors.

    Runs the symmetric sketch on the adjacency matrix with the embedding
    dimension cfg.k as target rank, then groups the embedding rows with
    K-means or K-medians seeded from a stream derived from cfg.stream.
    When ``truth`` labels are supplied the result carries the
    permutation-invariant recovery flag and error rate (check_matchable
    checks the count and the truth labels before the sketch).
    """
    a = as_matrix(a, "adjacency")
    if not np.all((a == 0.0) | (a == 1.0)):
        raise ValueError("adjacency must be binary")
    if truth is not None:
        check_matchable(n_clusters, truth)
    out = rs_rsvd_sym(a, cfg)
    tau_hat = cluster_rows(out.u_hat_g, n_clusters,
                           cfg.stream.child("clustering"), method=clusterer)
    result = ClusteringResult(tau_hat=tau_hat, u_hat_g=out.u_hat_g)
    if truth is not None:
        _, exact, err = match_labels(tau_hat, np.asarray(truth), n_clusters)
        result.exact_recovery = exact
        result.error_rate = err
    return result


def check_matchable(n_clusters, *label_sets):
    """match_labels tries every permutation, so it takes up to 8 labels, and
    each of ``label_sets`` must lie in 0..n_clusters - 1."""
    if n_clusters > 8:
        raise ValueError(f"exhaustive matching supports at most 8 labels, got {n_clusters}")
    for labels in map(np.asarray, label_sets):
        bad = labels[(labels < 0) | (labels >= n_clusters)]
        if bad.size:
            raise ValueError(f"label {bad[0]} lies outside 0..{n_clusters - 1}")


def match_labels(tau_hat, tau, n_clusters=None):
    """Best label permutation between an estimated and a reference
    clustering.

    Returns (permuted labels, exact flag, error rate).  Exhaustive over
    permutations (see check_matchable) via the K x K confusion matrix.
    """
    tau_hat = np.asarray(tau_hat, dtype=np.int64)
    tau = np.asarray(tau, dtype=np.int64)
    if tau_hat.shape != tau.shape:
        raise ValueError("label vectors must have equal length")
    if n_clusters is None:
        n_clusters = int(max(tau_hat.max(), tau.max())) + 1
    check_matchable(n_clusters, tau_hat, tau)
    n = tau_hat.size
    confusion = np.zeros((n_clusters, n_clusters), dtype=np.int64)
    np.add.at(confusion, (tau_hat, tau), 1)
    best_perm, best_hits = None, -1
    for perm in permutations(range(n_clusters)):
        hits = int(sum(confusion[src, dst] for src, dst in enumerate(perm)))
        if hits > best_hits:
            best_hits, best_perm = hits, perm
    lookup = np.array(best_perm, dtype=np.int64)
    permuted = lookup[tau_hat]
    error_rate = 1.0 - best_hits / n
    return permuted, bool(best_hits == n), float(error_rate)


def estimate_sampling_rate(t_hat) -> float:
    """Observed fraction of entries, counting zeros as missing (ambiguous
    only if the signal itself has exact zeros)."""
    t_hat = as_matrix(t_hat, "observed matrix")
    frac = float(np.mean(t_hat != 0.0))
    if frac <= 0.0:
        raise ValueError("estimated sampling rate is zero")
    return frac


def _completion_inputs(t_hat, p):
    """The rescaled observation T_hat / p and the sampling rate used."""
    t_hat = as_matrix(t_hat, "observed matrix")
    if isinstance(p, str):
        if p != "auto":
            raise ValueError("p must be a probability or 'auto'")
        p_used = estimate_sampling_rate(t_hat)
    else:
        p_used = float(p)
        check_probability(p_used)
    return t_hat / p_used, p_used


def check_mode(mode):
    """A completion mode is "one_sided" or "symmetrized"."""
    if mode not in ("one_sided", "symmetrized"):
        raise ValueError(f"mode must be 'one_sided' or 'symmetrized', got {mode!r}")


def _reconstruct(u, m_hat, mode):
    """Low-rank estimate from the basis ``u``: U U^T M_hat for "one_sided",
    its symmetric average for "symmetrized"."""
    check_mode(mode)
    b = u @ (u.T @ m_hat)
    return b if mode == "one_sided" else (b + b.T) / 2.0


def rsvd_complete(t_hat, p, cfg: SketchConfig, mode="one_sided") -> CompletionResult:
    """Low-rank completion of a partially observed symmetric matrix.

    Scales the observation by 1/p, sketches it at rank cfg.k, and projects
    onto the estimated singular subspace: one_sided returns
    U U^T (T_hat / p), symmetrized its symmetric average.  ``p`` may be the
    string "auto" to estimate the sampling rate from the data.
    """
    m_hat, p_used = _completion_inputs(t_hat, p)
    u = rs_rsvd_sym(m_hat, cfg).u_hat_g
    return CompletionResult(t_hat_g=_reconstruct(u, m_hat, mode), u_hat_g=u,
                            mode=mode, p_used=p_used)


def exact_complete(t_hat, p, k, mode="one_sided") -> CompletionResult:
    """Completion baseline using the exact k leading (by magnitude)
    eigenvectors of the rescaled observation instead of the sketch."""
    m_hat, p_used = _completion_inputs(t_hat, p)
    u = sym_eig(m_hat, k).vectors
    return CompletionResult(t_hat_g=_reconstruct(u, m_hat, mode), u_hat_g=u,
                            mode=mode, p_used=p_used)


def entry_ci_batch(result: CompletionResult, t_hat, indices, alpha) -> list:
    """Normal-approximation confidence intervals for selected entries.

    The variance proxy for entry (i, j) combines the squared residual
    matrix with the squared projector: sum_{l != j} E2[i,l] z2[l,j]
    + sum_{l != i} E2[l,j] z2[i,l] + E2[i,j] (z[i,i] + z[j,j])^2, all
    computed from sketch outputs alone.
    """
    z = normal_quantile_two_sided(alpha)
    t_hat = as_matrix(t_hat, "observed matrix")
    n = t_hat.shape[0]
    indices = [(int(i), int(j)) for i, j in indices]
    for i, j in indices:
        for idx in (i, j):
            if not 0 <= idx < n:
                raise ValueError(f"entry ({i}, {j}): index {idx} lies outside 0..{n - 1}")
    zeta = result.u_hat_g @ result.u_hat_g.T
    e_hat = result.t_hat_g - t_hat / result.p_used
    e2 = e_hat * e_hat
    z2 = zeta * zeta
    out = []
    for i, j in indices:
        v = float(e2[i, :] @ z2[:, j]) - e2[i, j] * z2[j, j]
        v += float(e2[:, j] @ z2[i, :]) - e2[i, j] * z2[i, i]
        v += e2[i, j] * (zeta[i, i] + zeta[j, j]) ** 2
        v = max(v, 0.0)
        est = float(result.t_hat_g[i, j])
        half = z * np.sqrt(v)
        out.append(EntryCI(i=i, j=j, estimate=est, v_hat=v,
                           lo=est - half, hi=est + half, alpha=alpha))
    return out


def missing_pca_gram(x_obs, p) -> np.ndarray:
    """Debiased second-moment surrogate: off-diagonal of p^-2 X X^T."""
    x_obs = as_matrix(x_obs, "observed data")
    check_probability(p)
    gram = x_obs @ x_obs.T
    q = (gram + gram.T) / (2.0 * p * p)
    np.fill_diagonal(q, 0.0)
    return q


def rsvd_missing_pca(x_obs, p, cfg: SketchConfig) -> np.ndarray:
    """Principal subspace from partially observed data.

    Forms the diagonal-deleted Gram surrogate and sketches it; returns the
    estimated d x cfg.k basis.
    """
    q = missing_pca_gram(x_obs, p)
    return rs_rsvd_sym(q, cfg).u_hat_g
