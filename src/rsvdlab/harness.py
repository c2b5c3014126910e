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
import numbers
from pathlib import Path
import time
from typing import NamedTuple

import numpy as np

from .applications import (
    CompletionResult,
    _reconstruct,
    check_mode,
    entry_ci_batch,
    exact_complete,
    match_labels,
    missing_pca_gram,
)
from .clustering import check_clustering, cluster_rows
from .linalg import as_matrix, sym_eig
from .mmio import write_csv
from .models import (
    check_completion,
    check_edm,
    check_missing_pca,
    check_sbm,
    gen_completion,
    gen_edm,
    gen_missing_pca,
    gen_sbm,
    symmetric_bernoulli,
)
from .rng import RngStream, stable_hash64
from .sketch import resolve_sketch, rs_rsvd_sym_chain
from .stats import check_level, check_probability, chi2_quantile
from .subspace import procrustes_align
from .theory import clt_gamma_sbm_all

_CI_FLOAT_SLACK = 1e-9


class ParamError(TypeError, ValueError):
    """A parameter of the wrong type (a ValueError like any bad value)."""


# parameter types: (description, accepted classes, JSON-native form); a bool
# is never a number, and an untyped (None) parameter is left to its checks
NUMBER = ("a number", numbers.Real, float)
INTEGER = ("an integer", numbers.Integral, int)
_COUNT = ("an integer >= 1", numbers.Integral, int)


def resolve_params(table, given, where):
    """The values of ``given`` resolved against ``table``, which maps each
    key to (type, default[, rule]): a default may be a function of the values
    resolved before it, and a rule is a check(value, name) owned by the module
    that enforces it.  Unknown keys and wrong types raise, headed by ``where``.
    """
    unknown = [key for key in given if key not in table]
    if unknown:
        raise ValueError(f"{where}: unknown key {', '.join(map(repr, unknown))}; "
                         f"the keys are {', '.join(table)}")
    values = {}
    for key, (type_, default, *rules) in table.items():
        if key not in given:
            values[key] = default(values) if callable(default) else default
            continue
        value, name = given[key], f"{where} {key!r}"
        if type_ and (isinstance(value, bool) or not isinstance(value, type_[1])
                      or type_ is _COUNT and value < 1):
            raise ParamError(f"{name} must be {type_[0]}, got {value!r} "
                             f"({type(value).__name__})")
        values[key] = type_[2](value) if type_ else value
        for rule in rules:
            rule(values[key], name)
    return values


def _blocks(v):
    return as_matrix(v["b"], "B").shape[0]


# every plan kind's parameters; _model_rank holds the rules that join
# several values or depend on n.  EDM is shared with the CLI's --gen edm.
_SKETCH = {"k_tilde": (_COUNT, 12), "a_n": (None, "ceil_log")}
EDM = {"dim": (INTEGER, 2), "box": (NUMBER, 10.0),
       "p": (NUMBER, 0.8, check_probability)}
_SBM = {"b": (None, [[0.8, 0.3], [0.3, 0.8]]),
        "pi": (None, lambda v: [1.0 / _blocks(v)] * _blocks(v)),
        "rho_c": (NUMBER, 1.0), "rho_exponent": (NUMBER, 0.0),
        "d": (INTEGER, _blocks), **_SKETCH}
_PARAMS = {
    "rate_regression": _SBM,
    "recovery_table": {**_SBM, "n_clusters": (INTEGER, lambda v: v["d"]),
                       "clusterer": (None, "kmedians")},
    "clt_coverage": {**_SBM, "alpha": (NUMBER, 0.05, check_level)},
    "ci_coverage": {"k": (INTEGER, 3), "signal_scale": (NUMBER, 1.0),
                    "p": (NUMBER, 0.5, check_probability), "sigma_rel": (NUMBER, 1.0),
                    "alpha": (NUMBER, 0.05, check_level),
                    "entry_sample": (_COUNT, 500), "mode": (None, "one_sided"),
                    **_SKETCH},
    "pca_sweep": {"m": (INTEGER, 6000), "k": (INTEGER, 4),
                  "p": (NUMBER, 0.05, check_probability), "sigma": (NUMBER, 1.0),
                  **_SKETCH},
    "edm_completion": {**EDM, **_SKETCH},
}


@dataclass(frozen=True)
class ExperimentPlan:
    """A Monte-Carlo plan.  ``model_params`` is kept as written;
    ``resolved_params`` holds every parameter of the kind, defaults filled
    in, as the runner reads them."""

    kind: str
    model_params: dict
    n_grid: tuple
    g_list: tuple
    replicates: int
    master_seed: int
    parallelism: int = 1
    resolved_params: dict = field(init=False)

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
        where = f"{self.kind} model_params"
        values = resolve_params(_PARAMS[self.kind], self.model_params, where)
        for n in grid:
            try:
                # the sketch's own rules; its sizes are checked at run time
                resolve_sketch(_model_rank(self.kind, values, n), values["k_tilde"],
                               values["a_n"], n, max(self.g_list), stream=None)
            except ValueError as exc:
                raise ValueError(f"{where} at n = {n}: {exc}") from exc
        object.__setattr__(self, "n_grid", grid)
        object.__setattr__(self, "g_list", tuple(self.g_list))
        object.__setattr__(self, "resolved_params", values)


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


def _sbm_args(v, n):
    """gen_sbm's (n, B, pi, rho(n), d) at size n, rho(n) = rho_c n^rho_exponent."""
    return n, v["b"], v["pi"], v["rho_c"] * float(n) ** v["rho_exponent"], v["d"]


def _chain(m_hat, v, n, g_list, stream, k):
    """Sketch outputs at every g in ``g_list`` from one chain."""
    cfg = resolve_sketch(k, v["k_tilde"], v["a_n"], n, max(g_list),
                         stream.child("sketch"))
    return rs_rsvd_sym_chain(m_hat, cfg, g_list)


def _run_rate_regression(v, n, g_list, stream):
    inst = gen_sbm(*_sbm_args(v, n), stream.child("model"))
    outputs = _chain(inst.a, v, n, g_list, stream, k=inst.u.shape[1])
    metrics = {}
    for g, out in outputs.items():
        align = procrustes_align(out.u_hat_g, inst.u)
        metrics[g] = {"d2": align.residual_spectral,
                      "d2inf": align.residual_two_inf}
    return metrics


def _run_recovery_table(v, n, g_list, stream):
    inst = gen_sbm(*_sbm_args(v, n), stream.child("model"))
    outputs = _chain(inst.a, v, n, g_list, stream, k=inst.u.shape[1])
    metrics = {}
    for g, out in outputs.items():
        tau_hat = cluster_rows(out.u_hat_g, v["n_clusters"],
                               stream.child("clustering", g), method=v["clusterer"])
        _, exact, err = match_labels(tau_hat, inst.tau, v["n_clusters"])
        metrics[g] = {"exact_recovery": 1.0 if exact else 0.0,
                      "error_rate": float(err)}
    return metrics


def _run_clt_coverage(v, n, g_list, stream):
    inst = gen_sbm(*_sbm_args(v, n), stream.child("model"))
    beta = 1.0 + v["rho_exponent"]
    k = inst.u.shape[1]
    gammas = clt_gamma_sbm_all(inst.core, inst.tau, inst.u, inst.lam, beta)
    scale2 = float(n) ** (1.0 + beta)
    outputs = _chain(inst.a, v, n, g_list, stream, k=k)
    metrics = {}
    for g, out in outputs.items():
        w = procrustes_align(out.u_hat_g, inst.u).w
        diffs = out.u_hat_g @ w.T - inst.u
        cover, used, skipped = ellipse_coverage(diffs, gammas, scale2, v["alpha"])
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


def _run_ci_coverage(v, n, g_list, stream):
    scale, mode = v["signal_scale"], v["mode"]
    inst = gen_completion(n, v["k"], scale, v["p"], v["sigma_rel"] * scale, True,
                          stream.child("model"))
    pairs = _sample_offdiag_pairs(stream.child("entries").generator(), n,
                                  v["entry_sample"])
    truth = inst.t[pairs[:, 0], pairs[:, 1]]
    m_hat = inst.t_hat / inst.p
    outputs = _chain(m_hat, v, n, g_list, stream, k=v["k"])
    metrics = {}
    for g, out in outputs.items():
        res = CompletionResult(t_hat_g=_reconstruct(out.u_hat_g, m_hat, mode),
                               u_hat_g=out.u_hat_g, mode=mode, p_used=inst.p)
        cis = entry_ci_batch(res, inst.t_hat, pairs, v["alpha"])
        # containment up to roundoff, so exact-fit zero-width intervals count
        covered = [
            ci.lo - _CI_FLOAT_SLACK * max(1.0, abs(tv)) <= tv
            <= ci.hi + _CI_FLOAT_SLACK * max(1.0, abs(tv))
            for ci, tv in zip(cis, truth)
        ]
        metrics[g] = {"ci_cover": float(np.mean(covered))}
    return metrics


def _run_pca_sweep(v, n, g_list, stream):
    k = v["k"]
    inst = gen_missing_pca(n, v["m"], k, v["p"], v["sigma"], stream.child("model"))
    q = missing_pca_gram(inst.x_obs, v["p"])
    u_exact = sym_eig(q, k).vectors
    d2_exact = procrustes_align(u_exact, inst.u).residual_spectral
    outputs = _chain(q, v, n, g_list, stream, k=k)
    return {
        g: {"d2": procrustes_align(out.u_hat_g, inst.u).residual_spectral,
            "d2_exact": d2_exact}
        for g, out in outputs.items()
    }


def _relative_entry_errors(estimate, truth):
    mask = np.abs(truth) > 1e-12 * np.max(np.abs(truth))
    np.fill_diagonal(mask, False)
    return np.abs((estimate - truth)[mask] / truth[mask])


def _run_edm_completion(v, n, g_list, stream):
    p, k = v["p"], v["dim"] + 2   # a squared-distance matrix has rank dim + 2
    d_mat, _ = gen_edm(n, v["dim"], v["box"], stream.child("model"))
    gen = stream.child("mask").generator()
    t_hat = symmetric_bernoulli(n, p, gen) * d_mat
    exact = exact_complete(t_hat, p, k, mode="one_sided")
    exact_err = float(np.median(_relative_entry_errors(exact.t_hat_g, d_mat)))
    m_hat = t_hat / p
    outputs = _chain(m_hat, v, n, g_list, stream, k=k)
    metrics = {}
    for g, out in outputs.items():
        t_hat_g = _reconstruct(out.u_hat_g, m_hat, "one_sided")
        metrics[g] = {
            "med_rel_err": float(np.median(_relative_entry_errors(t_hat_g, d_mat))),
            "med_rel_err_exact": exact_err,
            "frob_err": float(np.linalg.norm(t_hat_g - d_mat)) / n,
        }
    return metrics


_RUNNERS = {
    "rate_regression": _run_rate_regression,
    "recovery_table": _run_recovery_table,
    "clt_coverage": _run_clt_coverage,
    "ci_coverage": _run_ci_coverage,
    "pca_sweep": _run_pca_sweep,
    "edm_completion": _run_edm_completion,
}


def _model_rank(kind, v, n):
    """Check the kind's model at size n by the rules of the modules that
    enforce them; returns the rank the sketch targets."""
    if kind == "ci_coverage":
        check_completion(n, v["k"], v["signal_scale"], v["p"],
                         v["sigma_rel"] * v["signal_scale"])
        check_mode(v["mode"])
        return v["k"]
    if kind == "pca_sweep":
        check_missing_pca(n, v["m"], v["k"], v["p"], v["sigma"])
        return v["k"]
    if kind == "edm_completion":
        check_edm(n, v["dim"], v["box"])
        return v["dim"] + 2
    if kind == "recovery_table":
        check_clustering(n, v["n_clusters"], v["clusterer"])
    check_sbm(*_sbm_args(v, n))
    return v["d"]


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
            per_g = runner(plan.resolved_params, n, list(plan.g_list), stream)
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
