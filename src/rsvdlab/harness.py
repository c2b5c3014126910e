"""Deterministic Monte-Carlo driver for the simulation studies.

Each (n, replicate) task derives its randomness from
RngStream(master_seed, hash(kind, n, replicate)) and shares its generated
instance across the plan's g values through one power chain, so results
are bit-identical regardless of execution order or thread count.  Records
are emitted one per (n, g, replicate), sorted, into a fixed CSV schema.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
import json
import math
from pathlib import Path
import time
from typing import NamedTuple

import numpy as np

from .applications import (
    CompletionResult,
    _reconstruct,
    entry_ci_batch,
    exact_complete,
    match_labels,
    missing_pca_gram,
)
from .clustering import cluster_rows
from .linalg import as_matrix, sym_eig
from .mmio import write_csv
from .models import (
    check_sbm,
    gen_completion,
    gen_edm,
    gen_missing_pca,
    gen_sbm,
    symmetric_bernoulli,
)
from .rng import RngStream, stable_hash64
from .sketch import SketchConfig, resolve_a_n, rs_rsvd_sym_chain
from .stats import chi2_quantile
from .subspace import procrustes_align
from .theory import clt_gamma_sbm_all

_DEFAULT_B = [[0.8, 0.3], [0.3, 0.8]]
_CI_FLOAT_SLACK = 1e-9


@dataclass(frozen=True)
class ExperimentPlan:
    kind: str
    model_params: dict
    n_grid: tuple
    g_list: tuple
    replicates: int
    master_seed: int
    parallelism: int = 1

    def __post_init__(self):
        if self.kind not in _RUNNERS:
            raise ValueError(f"unknown plan kind {self.kind!r}")
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        grid = tuple(self.n_grid)
        if not grid or grid[0] < 1 or any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("n_grid must be nonempty, positive and strictly increasing")
        if not self.g_list:
            raise ValueError("g_list must be nonempty")
        if self.parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        params = self.model_params
        if "p" in params and not 0.0 < float(params["p"]) <= 1.0:
            raise ValueError(f"model_params 'p' must lie in (0, 1], got {params['p']!r}")
        if "alpha" in params and not 0.0 < float(params["alpha"]) < 1.0:
            raise ValueError(f"model_params 'alpha' must lie in (0, 1), "
                             f"got {params['alpha']!r}")
        k_tilde = params.get("k_tilde", 12)
        if not isinstance(k_tilde, (int, np.integer)) or k_tilde < 1:
            raise ValueError(f"model_params 'k_tilde' must be an integer >= 1, "
                             f"got {k_tilde!r}")
        for n in grid:
            resolve_a_n(params.get("a_n", "ceil_log"), n)
            if self.kind in _SBM_KINDS:
                check_sbm(n, *_sbm_params(params, n))
        object.__setattr__(self, "n_grid", grid)
        object.__setattr__(self, "g_list", tuple(self.g_list))


@dataclass
class ReplicateRecord:
    kind: str
    n: int
    g: int
    replicate_id: int
    metrics: dict = field(default_factory=dict)


class RateFit(NamedTuple):
    beta_hat: float
    stderr: float
    dropped: int


def load_plan(source) -> ExperimentPlan:
    """Build a plan from a JSON file path or an already-parsed dict."""
    if isinstance(source, (str, Path)):
        data = json.loads(Path(source).read_text(encoding="utf-8"))
    else:
        data = dict(source)
    return ExperimentPlan(
        kind=data["kind"],
        model_params=dict(data.get("model_params", {})),
        n_grid=tuple(data["n_grid"]),
        g_list=tuple(data["g_list"]),
        replicates=int(data["replicates"]),
        master_seed=int(data["master_seed"]),
        parallelism=int(data.get("parallelism", 1)),
    )


def _rho(params, n):
    c = float(params.get("rho_c", 1.0))
    expo = float(params.get("rho_exponent", 0.0))
    return c * float(n) ** expo


def _sbm_params(params, n):
    """The plan's (B, pi, rho(n), d) for gen_sbm at size n."""
    b = as_matrix(params.get("b", _DEFAULT_B), "B")
    pi = np.asarray(params.get("pi", [1.0 / b.shape[0]] * b.shape[0]))
    d = int(params.get("d", b.shape[0]))
    return b, pi, _rho(params, n), d


def _chain(m_hat, params, n, g_list, stream, k):
    """Sketch outputs at every g in ``g_list`` from one chain, with the
    plan's k_tilde (default 12) and a_n rule (default ceil(log n))."""
    cfg = SketchConfig(k=k, k_tilde=int(params.get("k_tilde", 12)),
                       a_n=resolve_a_n(params.get("a_n", "ceil_log"), n),
                       g=max(g_list), stream=stream.child("sketch"))
    return rs_rsvd_sym_chain(m_hat, cfg, g_list)


def _run_rate_regression(params, n, g_list, stream):
    inst = gen_sbm(n, *_sbm_params(params, n), stream.child("model"))
    outputs = _chain(inst.a, params, n, g_list, stream, k=inst.u.shape[1])
    metrics = {}
    for g, out in outputs.items():
        align = procrustes_align(out.u_hat_g, inst.u)
        metrics[g] = {"d2": align.residual_spectral,
                      "d2inf": align.residual_two_inf}
    return metrics


def _run_recovery_table(params, n, g_list, stream):
    inst = gen_sbm(n, *_sbm_params(params, n), stream.child("model"))
    d = inst.u.shape[1]
    n_clusters = int(params.get("n_clusters", d))
    clusterer = params.get("clusterer", "kmedians")
    outputs = _chain(inst.a, params, n, g_list, stream, k=d)
    metrics = {}
    for g, out in outputs.items():
        tau_hat = cluster_rows(out.u_hat_g, n_clusters,
                               stream.child("clustering", g), method=clusterer)
        _, exact, err = match_labels(tau_hat, inst.tau, n_clusters)
        metrics[g] = {"exact_recovery": 1.0 if exact else 0.0,
                      "error_rate": float(err)}
    return metrics


def _run_clt_coverage(params, n, g_list, stream):
    alpha = float(params.get("alpha", 0.05))
    inst = gen_sbm(n, *_sbm_params(params, n), stream.child("model"))
    beta = 1.0 + float(params.get("rho_exponent", 0.0))
    k = inst.u.shape[1]
    gammas = clt_gamma_sbm_all(inst.core, inst.tau, inst.u, inst.lam, beta)
    scale2 = float(n) ** (1.0 + beta)
    outputs = _chain(inst.a, params, n, g_list, stream, k=k)
    metrics = {}
    for g, out in outputs.items():
        w = procrustes_align(out.u_hat_g, inst.u).w
        diffs = out.u_hat_g @ w.T - inst.u
        cover, used, skipped = ellipse_coverage(diffs, gammas, scale2, alpha)
        metrics[g] = {"clt_cover": cover, "clt_rows_used": float(used),
                      "clt_rows_skipped": float(skipped)}
    return metrics


def ellipse_coverage(diffs, gammas, scale2, alpha):
    """Fraction of rows whose scaled quadratic form falls inside the
    chi-square ellipse: scale2 * d_i^T Gamma_i^-1 d_i <= chi2_k(1-alpha).

    Rows with singular Gamma_i are skipped and counted separately.
    """
    n, k = diffs.shape
    q = np.full(n, np.nan)
    dets = np.linalg.det(gammas)
    good = np.isfinite(dets) & (dets > np.finfo(np.float64).tiny)
    if np.any(good):
        sol = np.linalg.solve(gammas[good], diffs[good][:, :, None])
        q[good] = scale2 * np.einsum("ij,ij->i", diffs[good], sol[:, :, 0])
    threshold = chi2_quantile(k, 1.0 - alpha)
    used = int(np.count_nonzero(good))
    skipped = n - used
    if used == 0:
        return 0.0, 0, skipped
    coverage = float(np.mean(q[good] <= threshold))
    return coverage, used, skipped


def _sample_offdiag_pairs(gen, n, count):
    pairs = np.empty((count, 2), dtype=np.int64)
    filled = 0
    while filled < count:
        draw = gen.integers(0, n, size=(count - filled, 2))
        keep = draw[:, 0] != draw[:, 1]
        kept = draw[keep]
        pairs[filled:filled + kept.shape[0]] = kept
        filled += kept.shape[0]
    return pairs


def _run_ci_coverage(params, n, g_list, stream):
    k = int(params.get("k", 3))
    scale = float(params.get("signal_scale", 1.0))
    p = float(params.get("p", 0.5))
    sigma = float(params.get("sigma_rel", 1.0)) * scale
    alpha = float(params.get("alpha", 0.05))
    entry_sample = int(params.get("entry_sample", 500))
    mode = params.get("mode", "one_sided")
    inst = gen_completion(n, k, scale, p, sigma, True, stream.child("model"))
    pairs = _sample_offdiag_pairs(stream.child("entries").generator(), n,
                                  entry_sample)
    truth = inst.t[pairs[:, 0], pairs[:, 1]]
    m_hat = inst.t_hat / inst.p
    outputs = _chain(m_hat, params, n, g_list, stream, k=k)
    metrics = {}
    for g, out in outputs.items():
        res = CompletionResult(t_hat_g=_reconstruct(out.u_hat_g, m_hat, mode),
                               u_hat_g=out.u_hat_g, mode=mode, p_used=inst.p)
        cis = entry_ci_batch(res, inst.t_hat, pairs, alpha)
        # containment up to roundoff, so exact-fit zero-width intervals count
        covered = [
            ci.lo - _CI_FLOAT_SLACK * max(1.0, abs(tv)) <= tv
            <= ci.hi + _CI_FLOAT_SLACK * max(1.0, abs(tv))
            for ci, tv in zip(cis, truth)
        ]
        metrics[g] = {"ci_cover": float(np.mean(covered))}
    return metrics


def _run_pca_sweep(params, n, g_list, stream):
    m = int(params.get("m", 6000))
    k = int(params.get("k", 4))
    p = float(params.get("p", 0.05))
    sigma = float(params.get("sigma", 1.0))
    inst = gen_missing_pca(n, m, k, p, sigma, stream.child("model"))
    q = missing_pca_gram(inst.x_obs, p)
    u_exact = sym_eig(q, k).vectors
    d2_exact = procrustes_align(u_exact, inst.u).residual_spectral
    outputs = _chain(q, params, n, g_list, stream, k=k)
    return {
        g: {"d2": procrustes_align(out.u_hat_g, inst.u).residual_spectral,
            "d2_exact": d2_exact}
        for g, out in outputs.items()
    }


def _relative_entry_errors(estimate, truth):
    mask = np.abs(truth) > 1e-12 * np.max(np.abs(truth))
    np.fill_diagonal(mask, False)
    return np.abs((estimate - truth)[mask] / truth[mask])


def _run_edm_completion(params, n, g_list, stream):
    dim = int(params.get("dim", 2))
    box = float(params.get("box", 10.0))
    p = float(params.get("p", 0.8))
    k = dim + 2
    d_mat, _ = gen_edm(n, dim, box, stream.child("model"))
    gen = stream.child("mask").generator()
    t_hat = symmetric_bernoulli(n, p, gen) * d_mat
    exact = exact_complete(t_hat, p, k, mode="one_sided")
    exact_err = float(np.median(_relative_entry_errors(exact.t_hat_g, d_mat)))
    m_hat = t_hat / p
    outputs = _chain(m_hat, params, n, g_list, stream, k=k)
    metrics = {}
    for g, out in outputs.items():
        t_hat_g = _reconstruct(out.u_hat_g, m_hat, "one_sided")
        metrics[g] = {
            "med_rel_err": float(np.median(_relative_entry_errors(t_hat_g, d_mat))),
            "med_rel_err_exact": exact_err,
            "frob_err": float(np.linalg.norm(t_hat_g - d_mat)) / n,
        }
    return metrics


_SBM_KINDS = ("rate_regression", "recovery_table", "clt_coverage")
_RUNNERS = {
    "rate_regression": _run_rate_regression,
    "recovery_table": _run_recovery_table,
    "clt_coverage": _run_clt_coverage,
    "ci_coverage": _run_ci_coverage,
    "pca_sweep": _run_pca_sweep,
    "edm_completion": _run_edm_completion,
}


def replicate_stream(plan: ExperimentPlan, n, replicate) -> RngStream:
    return RngStream(plan.master_seed,
                     stable_hash64(plan.kind, n, replicate))


def run_plan(plan: ExperimentPlan, include_runtime=False) -> list:
    """Execute the plan, one task per (n, replicate) covering all g.

    Each replicate draws its model and sketch from
    RngStream(master_seed, hash(kind, n, replicate)), shares the generated
    instance across the g values (one power chain serves every g), and
    emits one record per (n, g, replicate).  Individual task failures
    become records with an ``error`` metric instead of aborting the plan.
    ``include_runtime`` adds a wall-clock metric; it is off by default
    because it breaks byte-identical reruns.
    """
    runner = _RUNNERS[plan.kind]
    tasks = [(n, r) for n in plan.n_grid for r in range(plan.replicates)]

    def execute(task):
        n, r = task
        stream = replicate_stream(plan, n, r)
        start = time.perf_counter()
        try:
            per_g = runner(plan.model_params, n, list(plan.g_list), stream)
        except Exception:
            per_g = {g: {"error": 1.0} for g in plan.g_list}
        elapsed = time.perf_counter() - start
        records = []
        for g in plan.g_list:
            metrics = dict(per_g.get(g, {"error": 1.0}))
            if include_runtime:
                metrics["runtime"] = elapsed
            records.append(ReplicateRecord(kind=plan.kind, n=n, g=g,
                                           replicate_id=r, metrics=metrics))
        return records

    if plan.parallelism > 1:
        with ThreadPoolExecutor(max_workers=plan.parallelism) as pool:
            grouped = list(pool.map(execute, tasks))
    else:
        grouped = [execute(t) for t in tasks]
    records = [rec for group in grouped for rec in group]
    records.sort(key=lambda rec: (rec.n, rec.g, rec.replicate_id))
    return records


def emit_csv(records, path):
    """Write records as ``kind,n,g,replicate,metric,value`` rows."""
    rows = []
    for rec in records:
        for name in sorted(rec.metrics):
            rows.append((rec.kind, rec.n, rec.g, rec.replicate_id, name,
                         float(rec.metrics[name])))
    write_csv(path, ("kind", "n", "g", "replicate", "metric", "value"), rows)


def rate_regression(records, metric, log_adjust=None) -> RateFit:
    """OLS slope of -log(metric) on log(n) over the given records.

    ``log_adjust`` divides the metric by sqrt(log n) first (defaults to on
    for the max-row-norm distance, where the optimal rate carries that
    factor).  Nonpositive values are dropped and counted.
    """
    if log_adjust is None:
        log_adjust = metric == "d2inf"
    xs, ys, dropped = [], [], 0
    for rec in records:
        value = rec.metrics.get(metric)
        if value is None or not np.isfinite(value) or value <= 0.0:
            dropped += 1
            continue
        if log_adjust:
            value = value / math.sqrt(math.log(rec.n))
        xs.append(math.log(rec.n))
        ys.append(-math.log(value))
    if len(set(xs)) < 3:
        raise ValueError("need at least 3 distinct n values")
    x = np.array(xs)
    y = np.array(ys)
    xc = x - x.mean()
    slope = float(np.dot(xc, y) / np.dot(xc, xc))
    resid = y - y.mean() - slope * xc
    dof = max(len(xs) - 2, 1)
    stderr = float(np.sqrt(np.dot(resid, resid) / dof / np.dot(xc, xc)))
    return RateFit(beta_hat=slope, stderr=stderr, dropped=dropped)


def rate_slopes(records, metric, log_adjust=None) -> dict:
    """Per-(g, replicate) regression slopes, grouped by g."""
    groups = {}
    for rec in records:
        groups.setdefault((rec.g, rec.replicate_id), []).append(rec)
    slopes = {}
    for (g, _), recs in sorted(groups.items()):
        try:
            fit = rate_regression(recs, metric, log_adjust=log_adjust)
        except ValueError:
            continue
        slopes.setdefault(g, []).append(fit.beta_hat)
    return slopes
