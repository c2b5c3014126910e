"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (run with -s to see them) and
enforces its stated tolerance and runtime budget.  Criterion 8 was once
pinned at (m, p) = (500, 0.02), where the exact missing-PCA baseline is
at chance level and its g = 1 gate cannot be met; it is now pinned at
(m, p) = (6000, 0.05) by the rule in its docstring, and it checks that
the baseline is informative before it judges parity.
"""

from dataclasses import replace
from importlib import resources
import math
import time

import numpy as np
import pytest

from rsvdlab.harness import emit_csv, load_plan, rate_slopes, run_plan
from rsvdlab.linalg import signed_qr
from rsvdlab.models import gen_completion, symmetric_bernoulli, symmetric_gaussian
from rsvdlab.rng import RngStream, standard_normal
from rsvdlab.sketch import SketchConfig, rs_rsvd_sym_chain
from rsvdlab.subspace import procrustes_align

from _oracles import power_diff_expansion, vstar_oracle


def bundled_plan(name):
    return load_plan(resources.files("rsvdlab").joinpath("plans", name))


def report(cid, ok, detail):
    print(f"{cid} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{cid}: {detail}"


def proportions(records, metric):
    out = {}
    for rec in records:
        out.setdefault(rec.g, []).append(rec.metrics.get(metric, np.nan))
    return {g: float(np.mean(v)) for g, v in sorted(out.items())}


def test_c1_pure_signal_exactness():
    """Rank-k signals with no noise are recovered to machine precision for
    every g and both sketch widths."""
    start = time.perf_counter()
    worst = 0.0
    n = 200
    for idx in range(100):
        stream = RngStream(112233, idx)
        gen = stream.child("instance").generator()
        k = (1, 3, 5)[idx % 3]
        basis = signed_qr(standard_normal(gen, (n, k)))[0]
        signs = np.where(gen.random(k) < 0.5, -1.0, 1.0)
        lam = (1.0 + 2.0 * gen.random(k)) * signs
        m = (basis * lam) @ basis.T
        for extra in (0, 5):
            cfg = SketchConfig(k=k, k_tilde=k + extra, a_n=1, g=3,
                               stream=stream.child("sketch", extra))
            outs = rs_rsvd_sym_chain(m, cfg, [1, 2, 3])
            for out in outs.values():
                res = procrustes_align(out.u_hat_g, basis)
                worst = max(worst, res.residual_spectral, res.residual_two_inf)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 30.0
    report("C1", ok,
           f"max d2/d2inf over 600 pure-signal runs = {worst:.2e} "
           f"(tol 1e-08), runtime {elapsed:.1f}s (< 30s)")


def test_c2_power_difference_expansion():
    """The noise expansion of M_hat^g - M^g is an identity on random pairs."""
    start = time.perf_counter()
    worst = 0.0
    for idx in range(500):
        gen = RngStream(445566, idx).generator()
        m_hat = standard_normal(gen, (6, 6))
        m = standard_normal(gen, (6, 6))
        g = 2 + idx % 4
        direct = np.linalg.matrix_power(m_hat, g) - np.linalg.matrix_power(m, g)
        val = power_diff_expansion(m_hat, m, g)
        rel = np.linalg.norm(val - direct) / max(np.linalg.norm(direct), 1e-300)
        worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 5.0
    report("C2", ok,
           f"max relative expansion error over 500 pairs, g in 2..5 = "
           f"{worst:.2e} (tol 1e-09), runtime {elapsed:.1f}s (< 5s)")


def test_c3_exact_recovery_table():
    """Exact-recovery proportions at the two-block desk-scale settings."""
    start = time.perf_counter()
    dense = proportions(run_plan(bundled_plan("recovery_dense.json")),
                        "exact_recovery")
    sparse = proportions(run_plan(bundled_plan("recovery_sparse.json")),
                         "exact_recovery")
    elapsed = time.perf_counter() - start
    ok = (dense[2] >= 0.98 and dense[1] <= 0.30
          and 0.0 <= sparse[2] <= 0.03 and sparse[3] >= 0.50
          and elapsed < 600.0)
    report("C3", ok,
           f"dense n=1000: g1={dense[1]:.3f} (<=0.30), g2={dense[2]:.3f} (>=0.98); "
           f"sparse n=2000: g2={sparse[2]:.3f} (<=0.03), g3={sparse[3]:.3f} (>=0.50); "
           f"runtime {elapsed:.0f}s (< 600s)")


def test_c4_phase_transition_slopes():
    """Median regression slopes of the subspace error match the predicted
    polynomial rates in both density regimes."""
    start = time.perf_counter()
    dense = rate_slopes(run_plan(bundled_plan("rate_dense.json")), "d2")
    sparse = rate_slopes(run_plan(bundled_plan("rate_sparse.json")), "d2")
    med_dense = {g: float(np.median(v)) for g, v in dense.items()}
    med_sparse = {g: float(np.median(v)) for g, v in sparse.items()}
    elapsed = time.perf_counter() - start
    ok = (-0.10 <= med_dense[1] <= 0.15
          and all(0.40 <= med_dense[g] <= 0.60 for g in (2, 3))
          and 0.08 <= med_sparse[2] <= 0.26
          and 0.23 <= med_sparse[3] <= 0.43
          and elapsed < 1200.0)
    report("C4", ok,
           f"dense medians g1={med_dense[1]:.3f} (in [-0.10,0.15]), "
           f"g2={med_dense[2]:.3f}, g3={med_dense[3]:.3f} (in [0.40,0.60]); "
           f"sparse g2={med_sparse[2]:.3f} (in [0.08,0.26]), "
           f"g3={med_sparse[3]:.3f} (in [0.23,0.43]); "
           f"runtime {elapsed:.0f}s (< 1200s)")


def test_c5_clt_ellipse_coverage():
    """Row-wise normal approximation: 95% ellipse coverage at g = 5, and a
    clearly broken approximation at g = 1."""
    start = time.perf_counter()
    records = run_plan(bundled_plan("clt_sparse.json"))
    cover = proportions(records, "clt_cover")
    elapsed = time.perf_counter() - start
    ok = (0.92 <= cover[5] <= 0.975
          and not 0.92 <= cover[1] <= 0.975
          and elapsed < 300.0)
    report("C5", ok,
           f"coverage g5={cover[5]:.4f} (in [0.92,0.975]), "
           f"g1={cover[1]:.4f} (outside); runtime {elapsed:.0f}s (< 300s)")


def test_c6_entrywise_ci_coverage():
    """Empirical 95% confidence-interval coverage for completed entries."""
    start = time.perf_counter()
    records = run_plan(bundled_plan("ci_homogeneous.json"))
    cover = proportions(records, "ci_cover")[4]
    elapsed = time.perf_counter() - start
    ok = 0.92 <= cover <= 0.97 and elapsed < 600.0
    report("C6", ok,
           f"mean CI coverage over 20 replicates x 500 entries = {cover:.4f} "
           f"(in [0.92,0.97]); runtime {elapsed:.0f}s (< 600s)")


def test_c7_oracle_variance_agreement():
    """Monte-Carlo variance of the projected noise matches the closed-form
    oracle entrywise variance within 10%."""
    start = time.perf_counter()
    n, k, p, sigma = 200, 3, 0.5, 0.4
    stream = RngStream(31337, 1)
    inst = gen_completion(n, k, 1.0, p, sigma, True, stream.child("model"))
    zeta = inst.u @ inst.u.T
    pair_gen = stream.child("pairs").generator()
    pairs = []
    while len(pairs) < 20:
        i, j = (int(x) for x in pair_gen.integers(0, n, size=2))
        if i != j and (i, j) not in pairs:
            pairs.append((i, j))
    rows = sorted({i for i, _ in pairs})
    cols = sorted({j for _, j in pairs})
    ridx = {i: a for a, i in enumerate(rows)}
    cidx = {j: a for a, j in enumerate(cols)}
    zr = zeta[rows, :]
    zc = zeta[:, cols]
    draws = 5000
    samples = np.empty((draws, len(pairs)))
    for d in range(draws):
        gen = stream.child("draw", d).generator()
        omega = symmetric_bernoulli(n, p, gen)
        noise = symmetric_gaussian(n, sigma, gen)
        e = omega * (inst.t + noise) / p - inst.t
        ze = zr @ e
        ez = e @ zc
        for a, (i, j) in enumerate(pairs):
            samples[d, a] = ze[ridx[i], j] + ez[i, cidx[j]]
    emp = samples.var(axis=0, ddof=1)
    oracle = np.array([vstar_oracle(inst.t, inst.u, p, sigma, i, j)
                       for i, j in pairs])
    rel = np.max(np.abs(emp - oracle) / oracle)
    elapsed = time.perf_counter() - start
    ok = rel <= 0.10 and elapsed < 120.0
    report("C7", ok,
           f"max relative deviation over 20 entries x 5000 draws = {rel:.3f} "
           f"(tol 0.10); runtime {elapsed:.0f}s (< 120s)")


def test_c8_missing_pca_parity():
    """Sketch-vs-exact parity for missing-data PCA: with g = 3 power
    iterations the sketch is within 1.5x of the exact eigensolver on the
    diagonal-deleted Gram, and with g = 1 it is at least 2x worse.

    Premise: the exact baseline must be informative, i.e. its mean aligned
    residual d2_exact must be at most sqrt(2)/2, half the level of a
    random k-dim subspace (~ sqrt(2)).  Otherwise the ratios compare two
    chance-level estimates, and the test fails on the premise, not on
    parity.

    Old setting, (d, m, p, sigma) = (1500, 500, 0.02, 1): only p^2 m = 0.2
    co-observed samples back each Gram entry, so the exact baseline is at
    chance (mean d2_exact 1.241) and the g = 1 ratio (1.10) cannot reach 2.
    Raising p alone does not rescue it: with the plan's seed at m = 500 the
    g = 1 ratio is 1.99 at p = 0.05 and 1.85 at p = 0.1 (not the 2.06 once
    quoted here), since the Gram noise spreads over too few directions
    (stable rank ~ 20-27) for the g threshold to be sharp.

    Re-pin rule, fixed before the first run at the new setting: only m and
    p move.  Require p^2 m >= 2 log d (= 14.6 at d = 1500), so every Gram
    entry rests on enough co-observed samples.  Reach it by raising m, not
    p, so the noise spreads over more directions: p goes to 0.05, where the
    g = 1 ratio peaked at m = 500, and m is the smallest multiple of 500
    that meets the bound, m = 6000 (p^2 m = 15).  d = 1500, k = 4,
    sigma = 1, k_tilde = 14, the a_n rule, the seed, 30 replicates, both
    gates and the budget are as before.
    """
    start = time.perf_counter()
    plan = bundled_plan("pca_parity.json")
    records = run_plan(plan)
    failed = sorted({(rec.n, rec.replicate_id) for rec in records
                     if "error" in rec.metrics})
    if failed:
        report("C8", False,
               f"{len(failed)} replicate(s) returned error rows "
               f"(n, replicate) = {failed}; parity needs every replicate")
    by_g = {}
    for rec in records:
        by_g.setdefault(rec.g, []).append(rec.metrics)
    mean_d2 = {g: float(np.mean([m["d2"] for m in ms])) for g, ms in by_g.items()}
    baseline = float(np.mean([m["d2_exact"] for m in by_g[plan.g_list[0]]]))
    elapsed = time.perf_counter() - start
    params = plan.model_params
    setting = (f"(d, m, p) = ({plan.n_grid[0]}, {params['m']}, {params['p']}), "
               f"p^2 m = {params['p'] ** 2 * params['m']:.2f}")
    premise = math.sqrt(2.0) / 2.0
    if baseline > premise:
        report("C8", False,
               f"premise violated: exact baseline not informative, mean "
               f"d2_exact = {baseline:.3f} > sqrt(2)/2 = {premise:.3f} (half "
               f"the random-subspace level) at {setting}; parity not judged")
    ratio = {g: mean_d2[g] / baseline for g in mean_d2}
    g3_ok = ratio[3] <= 1.5
    g1_ok = ratio[1] >= 2.0
    ok = g3_ok and g1_ok and elapsed < 600.0
    report("C8", ok,
           f"premise: mean d2_exact = {baseline:.3f} (<= {premise:.3f}) at "
           f"{setting}; g3 mean d2={mean_d2[3]:.3f} (ratio {ratio[3]:.2f}, "
           f"need <= 1.5 -> {'ok' if g3_ok else 'violated'}); "
           f"g1 mean d2={mean_d2[1]:.3f} (ratio {ratio[1]:.2f}, "
           f"need >= 2.0 -> {'ok' if g1_ok else 'violated'}); "
           f"runtime {elapsed:.0f}s (< 600s)")


def test_c9_determinism_across_parallelism():
    """Scaled-down plans of every kind produce byte-identical CSV when run
    at parallelism 1 and 8 with the same master seed."""
    start = time.perf_counter()
    small_plans = [
        dict(kind="rate_regression",
             model_params={"k_tilde": 6, "a_n": 2, "d": 2},
             n_grid=[100, 200, 400], g_list=[1, 2], replicates=2,
             master_seed=9001),
        dict(kind="recovery_table",
             model_params={"k_tilde": 6, "a_n": 2, "d": 2, "n_clusters": 2,
                           "clusterer": "kmeans"},
             n_grid=[150], g_list=[1, 2], replicates=3, master_seed=9002),
        dict(kind="clt_coverage",
             model_params={"k_tilde": 2, "a_n": 3, "d": 2, "rho_c": 4.0,
                           "rho_exponent": -0.5},
             n_grid=[500], g_list=[2], replicates=2, master_seed=9003),
        dict(kind="ci_coverage",
             model_params={"k": 2, "p": 0.7, "sigma_rel": 1.0,
                           "entry_sample": 50, "k_tilde": 6, "a_n": 2},
             n_grid=[120], g_list=[3], replicates=2, master_seed=9004),
        dict(kind="pca_sweep",
             model_params={"m": 150, "k": 3, "p": 0.3, "sigma": 0.5,
                           "k_tilde": 8, "a_n": 2},
             n_grid=[200], g_list=[1, 3], replicates=2, master_seed=9005),
        dict(kind="edm_completion",
             model_params={"dim": 2, "box": 10.0, "p": 0.8, "k_tilde": 10,
                           "a_n": 10},
             n_grid=[150], g_list=[1, 2], replicates=2, master_seed=9006),
    ]
    mismatches = []
    for spec_dict in small_plans:
        plan = load_plan(spec_dict)
        outputs = []
        for par in (1, 8):
            records = run_plan(replace(plan, parallelism=par))
            rows = [f"{r.kind},{r.n},{r.g},{r.replicate_id},"
                    + ",".join(f"{k}={r.metrics[k]!r}" for k in sorted(r.metrics))
                    for r in records]
            outputs.append("\n".join(rows))
        if outputs[0] != outputs[1]:
            mismatches.append(plan.kind)
    elapsed = time.perf_counter() - start
    ok = not mismatches
    report("C9", ok,
           f"byte-identical records across parallelism 1 vs 8 for all "
           f"{len(small_plans)} plan kinds"
           + (f"; mismatches: {mismatches}" if mismatches else "")
           + f"; runtime {elapsed:.0f}s")


def test_c9_csv_emission_identical(tmp_path):
    """The emitted CSV files themselves are byte-identical across runs."""
    plan = load_plan(dict(
        kind="recovery_table",
        model_params={"k_tilde": 6, "a_n": 2, "d": 2, "n_clusters": 2,
                      "clusterer": "kmedians"},
        n_grid=[150], g_list=[1, 2], replicates=3, master_seed=9007,
    ))
    paths = []
    for tag, par in (("a", 1), ("b", 8)):
        records = run_plan(replace(plan, parallelism=par))
        path = tmp_path / f"{tag}.csv"
        emit_csv(records, path)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()
