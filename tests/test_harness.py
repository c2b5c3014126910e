from dataclasses import replace

import numpy as np
import pytest

from rsvdlab.harness import (
    ExperimentPlan,
    ReplicateRecord,
    ellipse_coverage,
    emit_csv,
    load_plan,
    rate_regression,
    rate_slopes,
    run_plan,
)
from rsvdlab.linalg import RankDeficiencyError
from rsvdlab.rng import RngStream
from rsvdlab.sketch import rs_rsvd_sym_chain
from rsvdlab.stats import chi2_quantile

B0 = [[0.8, 0.3], [0.3, 0.8]]


def small_rate_plan(**overrides):
    base = dict(
        kind="rate_regression",
        model_params={"b": B0, "pi": [0.5, 0.5], "rho_c": 1.0,
                      "rho_exponent": 0.0, "d": 2, "k_tilde": 8, "a_n": 2},
        n_grid=(100, 200, 400),
        g_list=(1, 2),
        replicates=3,
        master_seed=12345,
    )
    base.update(overrides)
    return ExperimentPlan(**base)


def mean_ci_cover(plan):
    values = [r.metrics["ci_cover"] for r in run_plan(plan)
              if "ci_cover" in r.metrics]
    assert values, "no successful coverage replicates"
    return float(np.mean(values))


def records_equal(a, b):
    return len(a) == len(b) and all(
        r1.kind == r2.kind and r1.n == r2.n and r1.g == r2.g
        and r1.replicate_id == r2.replicate_id and r1.metrics == r2.metrics
        for r1, r2 in zip(a, b)
    )


def test_run_plan_deterministic():
    plan = small_rate_plan()
    assert records_equal(run_plan(plan), run_plan(plan))


def test_run_plan_parallelism_invariant():
    plan = small_rate_plan()
    serial = run_plan(plan)
    threaded = run_plan(replace(plan, parallelism=8))
    assert records_equal(serial, threaded)


SBM_DEFAULTS = {"b": B0, "pi": [0.5, 0.5], "rho_c": 1.0, "rho_exponent": 0.0,
                "d": 2, "k_tilde": 12, "a_n": "ceil_log"}
SPELLED_OUT_DEFAULTS = {
    "rate_regression": SBM_DEFAULTS,
    "recovery_table": {**SBM_DEFAULTS, "n_clusters": 2, "clusterer": "kmedians"},
    "clt_coverage": {**SBM_DEFAULTS, "alpha": 0.05},
    "ci_coverage": {"k": 3, "signal_scale": 1.0, "p": 0.5, "sigma_rel": 1.0,
                    "alpha": 0.05, "entry_sample": 500, "mode": "one_sided",
                    "k_tilde": 12, "a_n": "ceil_log"},
    # (m, p) = (6000, 0.05) is the C8 setting, where the exact baseline is
    # informative, not a chance-level one
    "pca_sweep": {"m": 6000, "k": 4, "p": 0.05, "sigma": 1.0, "k_tilde": 12,
                  "a_n": "ceil_log"},
    "edm_completion": {"dim": 2, "box": 10.0, "p": 0.8, "k_tilde": 12,
                       "a_n": "ceil_log"},
}


@pytest.mark.parametrize("kind", sorted(SPELLED_OUT_DEFAULTS))
def test_omitted_params_take_the_declared_defaults(kind):
    # a plan that omits every model parameter gives the same records as one
    # that spells out each default literally
    plan = ExperimentPlan(kind=kind, model_params={}, n_grid=(90,),
                          g_list=(1, 3), replicates=2, master_seed=761008)
    explicit = replace(plan, model_params=SPELLED_OUT_DEFAULTS[kind])
    records = run_plan(plan)
    assert all("error" not in rec.metrics for rec in records)
    assert records_equal(records, run_plan(explicit))


def test_run_plan_record_layout():
    plan = small_rate_plan(replicates=2)
    records = run_plan(plan)
    keys = [(r.n, r.g, r.replicate_id) for r in records]
    assert keys == sorted(keys)
    assert len(records) == 3 * 2 * 2
    for r in records:
        assert set(r.metrics) == {"d2", "d2inf"}
        assert all(np.isfinite(v) for v in r.metrics.values())


def test_failures_become_error_rows(monkeypatch):
    # a numerical failure in the n = 100 tasks gives error rows there and
    # leaves the n = 400 tasks of the same plan to run and measure as usual
    def fails_at_100(m_hat, cfg, g_list):
        if m_hat.shape[0] == 100:
            raise RankDeficiencyError("forced at n = 100")
        return rs_rsvd_sym_chain(m_hat, cfg, g_list)
    monkeypatch.setattr("rsvdlab.harness.rs_rsvd_sym_chain", fails_at_100)
    records = run_plan(small_rate_plan())
    failed = [r for r in records if r.n == 100]
    assert failed and all(r.metrics == {"error": 1.0} for r in failed)
    ok = [r for r in records if r.n == 400]
    assert ok and all("d2" in r.metrics for r in ok)


@pytest.mark.parametrize("parallelism", [1, 2])
def test_other_exceptions_propagate_out_of_run_plan(monkeypatch, parallelism):
    # only NUMERICAL_FAILURES become error rows; a fault keeps its message
    def broken(*args):
        raise ValueError("broken alignment")
    monkeypatch.setattr("rsvdlab.harness.procrustes_align", broken)
    with pytest.raises(ValueError, match="broken alignment"):
        run_plan(small_rate_plan(parallelism=parallelism))


def test_plan_validation():
    with pytest.raises(ValueError):
        small_rate_plan(n_grid=(200, 100))
    with pytest.raises(ValueError, match="positive"):
        small_rate_plan(n_grid=(0, 100, 200))
    with pytest.raises(ValueError):
        small_rate_plan(replicates=0)
    with pytest.raises(ValueError):
        small_rate_plan(kind="unknown")


def test_replace_checks_the_plan_fields_again():
    with pytest.raises(ValueError, match="plan 'g_list' must be"):
        replace(small_rate_plan(), g_list=(0, 2))


@pytest.mark.parametrize("key,value", [
    ("p", 1.5), ("p", 0.0), ("p", -0.2), ("p", float("nan")),
    ("alpha", 1.0), ("alpha", 0.0), ("alpha", 2.0),
])
def test_load_plan_rejects_out_of_range_probabilities(key, value):
    # each key is checked on every kind that reads it
    kinds = {"p": [("pca_sweep", {"m": 50})],
             "alpha": [("ci_coverage", {}), ("clt_coverage", {})]}[key]
    for kind, params in kinds:
        data = {"kind": kind, "model_params": {**params, key: value},
                "n_grid": [40], "g_list": [1], "replicates": 2, "master_seed": 9}
        with pytest.raises(ValueError, match=f"'{key}' must lie in"):
            load_plan(data)


@pytest.mark.parametrize("kind,params,message", [
    ("recovery_table", {"rho_c": 2.0}, r"need rho in \[0, 1\] with rho \* max\(B\) <= 1"),
    # rho(n) = 0.08 sqrt(n) stays within [0, 1] at n = 100 but not at 200
    ("rate_regression", {"rho_c": 0.08, "rho_exponent": 0.5}, "need rho in"),
    ("rate_regression", {"b": [[1.5, 0.3], [0.3, 0.8]]}, r"B entries must lie in \[0, 1\]"),
    ("recovery_table", {"b": 0.5}, "B must be 2-dimensional"),
    ("clt_coverage", {"b": [[0.8, 0.3], [0.2, 0.8]]}, "B must be symmetric"),
    ("recovery_table", {"pi": [0.7, 0.7]}, "pi must be nonnegative and sum to 1"),
    ("clt_coverage", {"d": 3}, r"embedding dimension d must lie in \[1, 2\]"),
    ("recovery_table", {"k_tilde": 0}, "'k_tilde' must be an integer >= 1"),
    ("pca_sweep", {"k_tilde": 2.5}, "'k_tilde' must be an integer >= 1"),
    ("edm_completion", {"a_n": "ceil_sqrt"}, "a_n rule must be"),
    ("ci_coverage", {"a_n": 0}, "a_n rule must be"),
    ("rate_regression", {"rho_exponant": -0.5},
     "rate_regression model_params: unknown key 'rho_exponant'"),
    ("pca_sweep", {"k": 0}, r"need 1 <= k <= min\(d, m\)"),
    ("pca_sweep", {"sigma": -1.0}, "sigma must be >= 0"),
    ("ci_coverage", {"mode": "two_sided"},
     "mode must be 'one_sided' or 'symmetrized', got 'two_sided'"),
    ("recovery_table", {"clusterer": "kmedoids"},
     "method must be 'kmeans' or 'kmedians', got 'kmedoids'"),
    ("recovery_table", {"n_clusters": 0}, "need 1 <= n_clusters"),
    ("recovery_table", {"k_tilde": True}, "'k_tilde' must be an integer >= 1"),
    ("edm_completion", {"k_tilde": 3}, "k_tilde must be >= k"),
    # match_labels takes at most 8 labels, and n_clusters defaults to d = 9
    ("recovery_table", {"b": (np.eye(9) * 0.5 + 0.3).tolist()},
     "at most 8 labels, got 9"),
    # the truth labels take K = 3 values, which 2 clusters cannot match
    ("recovery_table", {"b": (np.eye(3) * 0.5 + 0.3).tolist(), "n_clusters": 2},
     "b has 3 blocks, more than n_clusters = 2"),
    # the sketch's sizes: k_tilde, and a_n * k_tilde, at most n
    ("rate_regression", {"k_tilde": 150, "a_n": 1},
     "at n = 100: k_tilde=150 exceeds matrix dimension 100"),
    ("pca_sweep", {"k_tilde": 30, "a_n": 5},
     r"at n = 100: combined sketch width a_n\*k_tilde=150 exceeds matrix dimension 100"),
])
def test_load_plan_rejects_invalid_model_params(kind, params, message):
    # each of these used to load and then fail every replicate at run time
    data = {"kind": kind, "model_params": params, "n_grid": [100, 200],
            "g_list": [1], "replicates": 3, "master_seed": 9}
    with pytest.raises(ValueError, match=message):
        load_plan(data)


def test_load_plan_roundtrip(tmp_path):
    data = {
        "kind": "recovery_table",
        "model_params": {"rho_c": 1.0},
        "n_grid": [100, 200],
        "g_list": [1, 2],
        "replicates": 4,
        "master_seed": 777,
    }
    path = tmp_path / "plan.json"
    import json
    path.write_text(json.dumps(data))
    plan = load_plan(path)
    assert plan.kind == "recovery_table"
    assert plan.n_grid == (100, 200)
    assert plan.parallelism == 1


class TestRateRegression:
    def synthetic_records(self, law, n_values=(100, 200, 400, 800), reps=1):
        records = []
        for n in n_values:
            for r in range(reps):
                records.append(ReplicateRecord(
                    kind="rate_regression", n=n, g=1, replicate_id=r,
                    metrics={"d2": law(n, r)},
                ))
        return records

    def test_exact_power_law(self):
        fit = rate_regression(
            self.synthetic_records(lambda n, r: n ** -0.5), "d2")
        assert fit.beta_hat == pytest.approx(0.5, abs=1e-10)
        assert fit.dropped == 0

    def test_constant_metric(self):
        fit = rate_regression(self.synthetic_records(lambda n, r: 0.37), "d2")
        assert fit.beta_hat == pytest.approx(0.0, abs=1e-12)

    def test_noisy_exponent_recovered(self):
        gen = RngStream(9090, 0).generator()
        e = 0.8
        fit = rate_regression(
            self.synthetic_records(
                lambda n, r: 2.1 * n ** -e * (1.0 + 0.05 * (2 * gen.random() - 1)),
                reps=10),
            "d2")
        assert abs(fit.beta_hat - e) <= 0.05

    def test_nonpositive_dropped_with_count(self):
        records = self.synthetic_records(lambda n, r: n ** -0.5)
        records.append(ReplicateRecord("rate_regression", 1600, 1, 0,
                                       {"d2": 0.0}))
        fit = rate_regression(records, "d2")
        assert fit.dropped == 1

    def test_requires_three_sizes(self):
        records = self.synthetic_records(lambda n, r: n ** -0.5,
                                         n_values=(100, 200))
        with pytest.raises(ValueError):
            rate_regression(records, "d2")

    def test_log_adjust_default_for_d2inf(self):
        records = []
        for n in (100, 200, 400):
            records.append(ReplicateRecord(
                "rate_regression", n, 1, 0,
                {"d2inf": n ** -0.5 * np.sqrt(np.log(n))}))
        fit = rate_regression(records, "d2inf")
        assert fit.beta_hat == pytest.approx(0.5, abs=1e-10)

    def test_slopes_grouped_by_g(self):
        plan = small_rate_plan(replicates=2)
        slopes = rate_slopes(run_plan(plan), "d2")
        assert set(slopes) == {1, 2}
        assert all(len(v) == 2 for v in slopes.values())


class TestCoverage:
    def test_synthetic_gaussian_rows(self):
        # rows drawn exactly from the target normal: coverage ~ 95%
        n, k = 4000, 2
        gen = RngStream(8080, 0).generator()
        gammas = np.empty((n, k, k))
        diffs = np.empty((n, k))
        scale2 = 500.0
        for i in range(n):
            a = gen.normal(size=(k, k))
            gamma = a @ a.T + 0.1 * np.eye(k)
            gammas[i] = gamma
            chol = np.linalg.cholesky(gamma / scale2)
            diffs[i] = chol @ gen.normal(size=k)
        cover, used, skipped = ellipse_coverage(diffs, gammas, scale2, 0.05)
        assert skipped == 0 and used == n
        assert 0.93 <= cover <= 0.97

    def test_alpha_one_gives_zero_coverage(self):
        gammas = np.repeat(np.eye(2)[None, :, :], 10, axis=0)
        diffs = np.full((10, 2), 0.1)
        cover, _, _ = ellipse_coverage(diffs, gammas, 1.0, 1.0)
        assert cover == 0.0

    def test_singular_gamma_rows_skipped(self):
        gammas = np.zeros((4, 2, 2))
        gammas[0] = np.eye(2)
        diffs = np.zeros((4, 2))
        cover, used, skipped = ellipse_coverage(diffs, gammas, 1.0, 0.05)
        assert used == 1 and skipped == 3
        assert cover == 1.0

    def test_ci_coverage_degenerate_full_observation(self):
        plan = ExperimentPlan(
            kind="ci_coverage",
            model_params={"k": 2, "signal_scale": 1.0, "p": 1.0,
                          "sigma_rel": 0.0, "entry_sample": 50,
                          "k_tilde": 6, "a_n": 2},
            n_grid=(80,), g_list=(2,), replicates=2, master_seed=313,
        )
        assert mean_ci_cover(plan) == 1.0

    def test_ci_coverage_decreases_in_alpha(self):
        params = {"k": 2, "signal_scale": 1.0, "p": 0.7, "sigma_rel": 1.0,
                  "entry_sample": 200, "k_tilde": 6, "a_n": 4}
        plan = ExperimentPlan(
            kind="ci_coverage", model_params=params,
            n_grid=(300,), g_list=(3,), replicates=3, master_seed=313,
        )
        wide = mean_ci_cover(replace(plan, model_params={**params, "alpha": 0.05}))
        narrow = mean_ci_cover(replace(plan, model_params={**params, "alpha": 0.5}))
        assert narrow < wide


class TestRecoveryTable:
    def test_monotone_in_g(self):
        plan = ExperimentPlan(
            kind="recovery_table",
            model_params={"b": B0, "pi": [0.5, 0.5], "rho_c": 1.0,
                          "rho_exponent": 0.0, "d": 2, "n_clusters": 2,
                          "k_tilde": 8, "a_n": 2, "clusterer": "kmeans"},
            n_grid=(150, 300), g_list=(1, 2, 3), replicates=6,
            master_seed=515,
        )
        records = run_plan(plan)
        for n in (150, 300):
            props = []
            for g in (1, 2, 3):
                vals = [r.metrics["exact_recovery"] for r in records
                        if r.n == n and r.g == g]
                props.append(np.mean(vals))
            assert props[0] <= props[1] + 1e-12
            assert props[1] <= props[2] + 1e-12


def test_emit_csv(tmp_path):
    path = tmp_path / "records.csv"
    emit_csv([], path)
    assert path.read_text() == "kind,n,g,replicate,metric,value\n"
    records = [
        ReplicateRecord("rate_regression", 100, 1, 0, {"d2": 0.12345678901234567}),
        ReplicateRecord("rate_regression", 100, 2, 0, {"d2": 1.0 / 3.0}),
    ]
    emit_csv(records, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 3
    for line, rec in zip(lines[1:], records):
        cells = line.split(",")
        assert cells[0] == "rate_regression"
        assert float(cells[5]) == rec.metrics["d2"]  # 17-digit round trip


def test_chi2_threshold_used_by_coverage():
    # the ellipse threshold is the chi-square quantile at the row dimension
    gammas = np.repeat(np.eye(2)[None, :, :], 1, axis=0)
    q95 = chi2_quantile(2, 0.95)
    inside = np.array([[np.sqrt(q95 * 0.999), 0.0]])
    outside = np.array([[np.sqrt(q95 * 1.001), 0.0]])
    assert ellipse_coverage(inside, gammas, 1.0, 0.05)[0] == 1.0
    assert ellipse_coverage(outside, gammas, 1.0, 0.05)[0] == 0.0
