"""Downstream inference built on the randomized sketch: spectral
clustering for community detection, matrix completion with entrywise
confidence intervals, and PCA from partially observed data.  Each reads
its target rank from SketchConfig.k and uses only the sketch's basis U.
The CLI and the harness form the completion estimate with ``complete`` and
its entrywise intervals with ``entry_ci_batch``, and nowhere else.
"""

from dataclasses import dataclass
from itertools import permutations
from typing import Optional

import numpy as np

from .clustering import check_clustering, cluster_rows
from .linalg import as_matrix, sym_eig
from .sketch import SketchConfig, rs_rsvd_sym
from .stats import check_level, check_probability, normal_quantile_two_sided


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
    m_hat: np.ndarray   # the rescaled observation T_hat / p_used
    mode: str
    p_used: float


@dataclass
class EntryCI:
    i: int
    j: int
    alpha: float
    estimate: float
    v_hat: float
    lo: float
    hi: float


def rsvd_spectral_cluster(a, n_clusters, cfg: SketchConfig,
                          clusterer="kmeans", truth=None) -> ClusteringResult:
    """Cluster graph nodes from the sketched leading eigenvectors.

    Runs the symmetric sketch on the adjacency matrix with the embedding
    dimension cfg.k as target rank, then groups the embedding rows with
    K-means or K-medians seeded from a stream derived from cfg.stream.
    When ``truth`` labels are supplied the result carries the
    permutation-invariant recovery flag and error rate.  The count, the
    clusterer and the truth's length and labels are checked before the
    sketch.
    """
    a = as_matrix(a, "adjacency")
    if not np.all((a == 0.0) | (a == 1.0)):
        raise ValueError("adjacency must be binary")
    check_clustering(a.shape[0], n_clusters, clusterer)
    if truth is not None:
        truth = np.asarray(truth)
        if truth.shape != (a.shape[0],):
            raise ValueError(f"truth holds {truth.size} labels for {a.shape[0]} nodes")
        check_matchable(n_clusters, truth)
    out = rs_rsvd_sym(a, cfg)
    tau_hat = cluster_rows(out.u_hat_g, n_clusters,
                           cfg.stream.child("clustering"), method=clusterer)
    result = ClusteringResult(tau_hat=tau_hat, u_hat_g=out.u_hat_g)
    if truth is not None:
        _, exact, err = match_labels(tau_hat, truth, n_clusters)
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


def _rescale(t_hat, p):
    """The rescaled observation T_hat / p and the sampling rate used; p
    "auto" is the observed fraction of entries, counting zeros as missing
    (ambiguous only if the signal itself has exact zeros)."""
    t_hat = as_matrix(t_hat, "observed matrix")
    if isinstance(p, str):
        if p != "auto":
            raise ValueError("p must be a probability or 'auto'")
        p_used = float(np.mean(t_hat != 0.0))
        if p_used <= 0.0:
            raise ValueError("estimated sampling rate is zero")
    else:
        p_used = float(p)
        check_probability(p_used)
    return t_hat / p_used, p_used


def check_mode(mode):
    """A completion mode is "one_sided" or "symmetrized"."""
    if mode not in ("one_sided", "symmetrized"):
        raise ValueError(f"mode must be 'one_sided' or 'symmetrized', got {mode!r}")


def complete(u, m_hat, p_used, mode) -> CompletionResult:
    """The completion estimate from the basis ``u`` of the rescaled
    observation m_hat = T_hat / p_used: U U^T M_hat for "one_sided", its
    symmetric average for "symmetrized"."""
    check_mode(mode)
    b = u @ (u.T @ m_hat)
    return CompletionResult(t_hat_g=b if mode == "one_sided" else (b + b.T) / 2.0,
                            u_hat_g=u, m_hat=m_hat, mode=mode, p_used=p_used)


def rsvd_complete(t_hat, p, cfg: SketchConfig, mode="one_sided") -> CompletionResult:
    """Low-rank completion of a partially observed symmetric matrix.

    Scales the observation by 1/p, sketches it at rank cfg.k, and completes
    it from the sketch's basis (see ``complete``).  ``p`` may be the string
    "auto" to estimate the sampling rate from the data.
    """
    check_mode(mode)
    m_hat, p_used = _rescale(t_hat, p)
    return complete(rs_rsvd_sym(m_hat, cfg).u_hat_g, m_hat, p_used, mode)


def exact_complete(t_hat, p, k, mode="one_sided") -> CompletionResult:
    """Completion baseline using the exact k leading (by magnitude)
    eigenvectors of the rescaled observation instead of the sketch."""
    check_mode(mode)
    m_hat, p_used = _rescale(t_hat, p)
    return complete(sym_eig(m_hat, k).vectors, m_hat, p_used, mode)


def check_entries(specs, n, name=None):
    """Each (i, j, alpha) of ``specs`` names an entry of an n x n matrix and a
    level in (0, 1); ``name`` (default "entry (i, j)") heads the messages."""
    for i, j, alpha in specs:
        head = f"entry ({i}, {j})" if name is None else name
        for idx in (i, j):
            if not 0 <= idx < n:
                raise ValueError(f"{head}: index {idx} lies outside 0..{n - 1}")
        check_level(alpha, f"{head}: alpha")


def entry_ci_batch(result: CompletionResult, specs) -> list:
    """Normal-approximation confidence intervals, one per (i, j, alpha) of
    ``specs``, in their order; levels may differ from spec to spec.

    The variance proxy for entry (i, j) combines the squared residual
    matrix with the squared projector: sum_{l != j} E2[i,l] z2[l,j]
    + sum_{l != i} E2[l,j] z2[i,l] + E2[i,j] (z[i,i] + z[j,j])^2, all
    computed from sketch outputs alone, once per call.
    """
    specs = [(int(i), int(j), alpha) for i, j, alpha in specs]
    check_entries(specs, result.m_hat.shape[0])
    if not specs:
        return []
    z = {alpha: normal_quantile_two_sided(alpha) for alpha in {s[2] for s in specs}}
    zeta = result.u_hat_g @ result.u_hat_g.T
    e2 = result.t_hat_g - result.m_hat
    e2 *= e2
    z2 = zeta * zeta
    out = []
    for i, j, alpha in specs:
        v = float(e2[i, :] @ z2[:, j]) - e2[i, j] * z2[j, j]
        v += float(e2[:, j] @ z2[i, :]) - e2[i, j] * z2[i, i]
        v += e2[i, j] * (zeta[i, i] + zeta[j, j]) ** 2
        v = max(v, 0.0)
        est = float(result.t_hat_g[i, j])
        half = z[alpha] * np.sqrt(v)
        out.append(EntryCI(i=i, j=j, alpha=alpha, estimate=est, v_hat=v,
                           lo=est - half, hi=est + half))
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
