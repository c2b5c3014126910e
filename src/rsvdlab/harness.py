"""Deterministic Monte-Carlo driver for the simulation studies.

A plan is checked in full when it loads.  Each (n, replicate) task derives
its randomness from RngStream(master_seed, hash(kind, n, replicate)), draws
its kind's instance and shares it across the plan's g values through one
power chain, so results are bit-identical regardless of execution order or
thread count.  Records are emitted one per (n, g, replicate), sorted, into a
fixed CSV schema; a replicate that fails numerically gives ``error`` rows.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
import json
import math
import numbers
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .applications import (
    check_matchable,
    check_mode,
    complete,
    entry_ci_batch,
    exact_complete,
    match_labels,
    missing_pca_gram,
)
from .clustering import DegenerateClusteringError, check_clustering, cluster_rows
from .linalg import RankDeficiencyError, as_matrix, sym_eig
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
from .sketch import SketchConfig, resolve_a_n, rs_rsvd_sym_chain
from .stats import check_level, check_probability, chi2_quantile
from .subspace import procrustes_align
from .theory import clt_gamma_sbm_all

_CI_FLOAT_SLACK = 1e-9

# the failures of a sound replicate: run_plan writes them as error rows and
# ``rsvdlab`` exits 1 on them; any other exception is a fault and propagates
NUMERICAL_FAILURES = (RankDeficiencyError, DegenerateClusteringError,
                      np.linalg.LinAlgError)


class ParamError(TypeError, ValueError):
    """A parameter not of its declared type (a ValueError like any bad value)."""


def _instance(cls):
    return lambda v: isinstance(v, cls) and not isinstance(v, bool)


def _counts(v):
    """Whether ``v`` is a nonempty list of integers >= 1."""
    return isinstance(v, (list, tuple)) and len(v) > 0 and all(map(_COUNT[1], v))


# parameter types: (description, test, JSON-native form); a bool is never a
# number, and an untyped (None) parameter is left to its checks
NUMBER = ("a number", _instance(numbers.Real), float)
INTEGER = ("an integer", _instance(numbers.Integral), int)
_COUNT = ("an integer >= 1", lambda v: INTEGER[1](v) and v >= 1, int)
_REQUIRED = object()   # the default of a key that must be given


def resolve_params(table, given, where):
    """The values of ``given`` resolved against ``table``, which maps each
    key to (type, default[, rule]): a default may be a function of the values
    resolved before it, and a rule is a check(value, name) owned by the module
    that enforces it.  Unknown keys and wrong types raise, headed by ``where``;
    a missing key whose default is _REQUIRED raises KeyError.
    """
    unknown = [key for key in given if key not in table]
    if unknown:
        raise ValueError(f"{where}: unknown key {', '.join(map(repr, unknown))}; "
                         f"the keys are {', '.join(table)}")
    values = {}
    for key, (type_, default, *rules) in table.items():
        if key not in given and default is not _REQUIRED:
            values[key] = default(values) if callable(default) else default
            continue
        value, name = given[key], f"{where} {key!r}"   # KeyError if required
        if type_ and not type_[1](value):
            raise ParamError(f"{name} must be {type_[0]}, got {value!r} "
                             f"({type(value).__name__})")
        values[key] = type_[2](value) if type_ else value
        for rule in rules:
            rule(values[key], name)
    return values


def _blocks(v):
    return as_matrix(v["b"], "B").shape[0]


# the rows that several plan kinds share (see _KINDS); EDM is shared with
# the CLI's --gen edm
_SKETCH = {"k_tilde": (_COUNT, 12), "a_n": (None, "ceil_log")}
EDM = {"dim": (INTEGER, 2), "box": (NUMBER, 10.0),
       "p": (NUMBER, 0.8, check_probability)}
_SBM = {"b": (None, [[0.8, 0.3], [0.3, 0.8]]),
        "pi": (None, lambda v: [1.0 / _blocks(v)] * _blocks(v)),
        "rho_c": (NUMBER, 1.0), "rho_exponent": (NUMBER, 0.0),
        "d": (INTEGER, _blocks), **_SKETCH}

# a plan's own fields, the top-level keys of a plan file
_FIELDS = {
    "kind": (None, _REQUIRED),
    "model_params": (("an object", lambda v: isinstance(v, dict), dict), lambda v: {}),
    "n_grid": (("a strictly increasing list of positive integers",
                lambda v: _counts(v) and list(v) == sorted(set(v)), tuple), _REQUIRED),
    "g_list": (("a list of distinct integers >= 1",
                lambda v: _counts(v) and len(set(v)) == len(v), tuple), _REQUIRED),
    "replicates": (_COUNT, _REQUIRED),
    "master_seed": (INTEGER, _REQUIRED),
    "parallelism": (_COUNT, 1),
}


@dataclass(frozen=True)
class ExperimentPlan:
    """A Monte-Carlo plan, its fields checked against ``_FIELDS``.
    ``model_params`` is kept as written; ``resolved_params`` holds every
    parameter of the kind, defaults filled in, as its instance reads them."""

    kind: str
    model_params: dict
    n_grid: tuple
    g_list: tuple
    replicates: int
    master_seed: int
    parallelism: int = 1
    resolved_params: dict = field(init=False)

    def __post_init__(self):
        given = {name: getattr(self, name) for name in _FIELDS}
        for name, value in resolve_params(_FIELDS, given, "plan").items():
            object.__setattr__(self, name, value)
        if self.kind not in _KINDS:
            raise ValueError(f"unknown plan kind {self.kind!r}")
        where = f"{self.kind} model_params"
        object.__setattr__(self, "resolved_params",
                           resolve_params(_KINDS[self.kind][0], self.model_params, where))
        for n in self.n_grid:
            try:
                _sketch_config(self, n, stream=None)
            except ValueError as exc:
                raise ValueError(f"{where} at n = {n}: {exc}") from exc


@dataclass
class ReplicateRecord:
    kind: str
    n: int
    g: int
    replicate_id: int
    metrics: dict = field(default_factory=dict)


class RateFit(NamedTuple):
    beta_hat: float
    dropped: int


def load_plan(source) -> ExperimentPlan:
    """Build a plan from a JSON file path or an already-parsed dict.  An
    unknown field raises ValueError and a missing one KeyError."""
    if isinstance(source, (str, Path)):
        source = json.loads(Path(source).read_text(encoding="utf-8"))
    return ExperimentPlan(**resolve_params(_FIELDS, source, "plan"))


def _sbm_args(v, n):
    """gen_sbm's (n, B, pi, rho(n), d) at size n, rho(n) = rho_c n^rho_exponent."""
    return n, v["b"], v["pi"], v["rho_c"] * float(n) ** v["rho_exponent"], v["d"]


def _rate_regression(v, n, stream, cfg):
    inst = gen_sbm(*_sbm_args(v, n), stream.child("model"))

    def measure(g, u):
        align = procrustes_align(u, inst.u)
        return {"d2": align.residual_spectral, "d2inf": align.residual_two_inf}
    return inst.a, measure


def _recovery_table(v, n, stream, cfg):
    inst = gen_sbm(*_sbm_args(v, n), stream.child("model"))

    def measure(g, u):
        tau_hat = cluster_rows(u, v["n_clusters"], stream.child("clustering", g),
                               method=v["clusterer"])
        _, exact, err = match_labels(tau_hat, inst.tau, v["n_clusters"])
        return {"exact_recovery": 1.0 if exact else 0.0, "error_rate": float(err)}
    return inst.a, measure


def _clt_coverage(v, n, stream, cfg):
    inst = gen_sbm(*_sbm_args(v, n), stream.child("model"))
    beta = 1.0 + v["rho_exponent"]
    gammas = clt_gamma_sbm_all(inst.core, inst.tau, inst.u, inst.lam, beta)
    scale2 = float(n) ** (1.0 + beta)

    def measure(g, u):
        w = procrustes_align(u, inst.u).w
        diffs = u @ w.T - inst.u
        cover, used, skipped = ellipse_coverage(diffs, gammas, scale2, v["alpha"])
        return {"clt_cover": cover, "clt_rows_used": float(used),
                "clt_rows_skipped": float(skipped)}
    return inst.a, measure


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


def _ci_coverage(v, n, stream, cfg):
    scale, mode = v["signal_scale"], v["mode"]
    inst = gen_completion(n, v["k"], scale, v["p"], v["sigma_rel"] * scale, True,
                          stream.child("model"))
    pairs = _sample_offdiag_pairs(stream.child("entries").generator(), n,
                                  v["entry_sample"])
    truth = inst.t[pairs[:, 0], pairs[:, 1]]
    specs = [(i, j, v["alpha"]) for i, j in pairs]
    m_hat = inst.t_hat / inst.p

    def measure(g, u):
        cis = entry_ci_batch(complete(u, m_hat, inst.p, mode), specs)
        # containment up to roundoff, so exact-fit zero-width intervals count
        covered = [
            ci.lo - _CI_FLOAT_SLACK * max(1.0, abs(tv)) <= tv
            <= ci.hi + _CI_FLOAT_SLACK * max(1.0, abs(tv))
            for ci, tv in zip(cis, truth)
        ]
        return {"ci_cover": float(np.mean(covered))}
    return m_hat, measure


def _pca_sweep(v, n, stream, cfg):
    inst = gen_missing_pca(n, v["m"], v["k"], v["p"], v["sigma"],
                           stream.child("model"))
    q = missing_pca_gram(inst.x_obs, v["p"])
    u_exact = sym_eig(q, cfg.k).vectors
    d2_exact = procrustes_align(u_exact, inst.u).residual_spectral

    def measure(g, u):
        return {"d2": procrustes_align(u, inst.u).residual_spectral,
                "d2_exact": d2_exact}
    return q, measure


def _relative_entry_errors(estimate, truth):
    mask = np.abs(truth) > 1e-12 * np.max(np.abs(truth))
    np.fill_diagonal(mask, False)
    return np.abs((estimate - truth)[mask] / truth[mask])


def _edm_completion(v, n, stream, cfg):
    d_mat, _ = gen_edm(n, v["dim"], v["box"], stream.child("model"))
    gen = stream.child("mask").generator()
    t_hat = symmetric_bernoulli(n, v["p"], gen) * d_mat
    exact = exact_complete(t_hat, v["p"], cfg.k, mode="one_sided")
    exact_err = float(np.median(_relative_entry_errors(exact.t_hat_g, d_mat)))

    def measure(g, u):
        t_hat_g = complete(u, exact.m_hat, exact.p_used, "one_sided").t_hat_g
        return {
            "med_rel_err": float(np.median(_relative_entry_errors(t_hat_g, d_mat))),
            "med_rel_err_exact": exact_err,
            "frob_err": float(np.linalg.norm(t_hat_g - d_mat)) / n,
        }
    return exact.m_hat, measure


# each plan kind: (its model_params table, its instance(v, n, stream, cfg)),
# which draws a replicate's n x n matrix and what every g shares and returns
# (matrix, measure); measure(g, U) gives the metrics of g's basis U.
# _model_rank holds the rules that join values or depend on n, and the rank
_KINDS = {
    "rate_regression": (_SBM, _rate_regression),
    "recovery_table": ({**_SBM, "n_clusters": (INTEGER, lambda v: v["d"]),
                        "clusterer": (None, "kmedians")}, _recovery_table),
    "clt_coverage": ({**_SBM, "alpha": (NUMBER, 0.05, check_level)}, _clt_coverage),
    "ci_coverage": ({"k": (INTEGER, 3), "signal_scale": (NUMBER, 1.0),
                     "p": (NUMBER, 0.5, check_probability),
                     "sigma_rel": (NUMBER, 1.0), "alpha": (NUMBER, 0.05, check_level),
                     "entry_sample": (_COUNT, 500), "mode": (None, "one_sided"),
                     **_SKETCH}, _ci_coverage),
    "pca_sweep": ({"m": (INTEGER, 6000), "k": (INTEGER, 4),
                   "p": (NUMBER, 0.05, check_probability), "sigma": (NUMBER, 1.0),
                   **_SKETCH}, _pca_sweep),
    "edm_completion": ({**EDM, **_SKETCH}, _edm_completion),
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
        return v["dim"] + 2   # a squared-distance matrix has rank dim + 2
    if kind == "recovery_table":
        check_clustering(n, v["n_clusters"], v["clusterer"])
        check_matchable(v["n_clusters"])
        if _blocks(v) > v["n_clusters"]:
            raise ValueError(f"b has {_blocks(v)} blocks, more than "
                             f"n_clusters = {v['n_clusters']}")
    check_sbm(*_sbm_args(v, n))
    return v["d"]


def _sketch_config(plan, n, stream):
    """The plan's sketch at size n, checked with its model on the n x n matrix."""
    v = plan.resolved_params
    cfg = SketchConfig(k=_model_rank(plan.kind, v, n), k_tilde=v["k_tilde"],
                       a_n=resolve_a_n(v["a_n"], n), g=max(plan.g_list), stream=stream)
    cfg.validate_for((n, n))
    return cfg


def replicate_stream(plan: ExperimentPlan, n, replicate) -> RngStream:
    return RngStream(plan.master_seed,
                     stable_hash64(plan.kind, n, replicate))


def run_plan(plan: ExperimentPlan) -> list:
    """Execute the plan, one task per (n, replicate) covering all g.

    Each replicate draws its instance and sketch from
    RngStream(master_seed, hash(kind, n, replicate)), makes one power chain
    for every g and measures each g's basis with its kind's measure, one
    record per (n, g, replicate).  A replicate that raises one of
    NUMERICAL_FAILURES gets records with an ``error`` metric at every g;
    any other exception propagates and ends the plan.
    """
    instance = _KINDS[plan.kind][1]
    v, g_list = plan.resolved_params, list(plan.g_list)
    tasks = [(n, r) for n in plan.n_grid for r in range(plan.replicates)]

    def execute(task):
        n, r = task
        stream = replicate_stream(plan, n, r)
        cfg = _sketch_config(plan, n, stream.child("sketch"))
        try:
            m_hat, measure = instance(v, n, stream, cfg)
            outputs = rs_rsvd_sym_chain(m_hat, cfg, g_list)
            per_g = {g: measure(g, out.u_hat_g) for g, out in outputs.items()}
        except NUMERICAL_FAILURES:
            per_g = {g: {"error": 1.0} for g in g_list}
        return [ReplicateRecord(plan.kind, n, g, r, per_g[g]) for g in g_list]

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


def rate_regression(records, metric) -> RateFit:
    """OLS slope of -log(metric) on log(n) over the given records.

    The max-row-norm distance "d2inf" is divided by sqrt(log n) first, as
    its optimal rate carries that factor.  Nonpositive values are dropped
    and counted.
    """
    xs, ys, dropped = [], [], 0
    for rec in records:
        value = rec.metrics.get(metric)
        if value is None or not np.isfinite(value) or value <= 0.0:
            dropped += 1
            continue
        if metric == "d2inf":
            value = value / math.sqrt(math.log(rec.n))
        xs.append(math.log(rec.n))
        ys.append(-math.log(value))
    if len(set(xs)) < 3:
        raise ValueError("need at least 3 distinct n values")
    x = np.array(xs)
    y = np.array(ys)
    xc = x - x.mean()
    slope = float(np.dot(xc, y) / np.dot(xc, xc))
    return RateFit(beta_hat=slope, dropped=dropped)


def rate_slopes(records, metric) -> dict:
    """Per-(g, replicate) regression slopes, grouped by g."""
    groups = {}
    for rec in records:
        groups.setdefault((rec.g, rec.replicate_id), []).append(rec)
    slopes = {}
    for (g, _), recs in sorted(groups.items()):
        try:
            fit = rate_regression(recs, metric)
        except ValueError:
            continue
        slopes.setdefault(g, []).append(fit.beta_hat)
    return slopes
