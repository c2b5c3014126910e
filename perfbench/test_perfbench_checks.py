"""The benchmark's checks accept rsvdlab's outputs at tiny sizes and reject
corrupted ones.

Run from the repository root:  python3 -m pytest -q perfbench
"""

from dataclasses import replace
from pathlib import Path
import sys

import numpy as np
import pytest
import scipy.io
import scipy.linalg
import scipy.sparse

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
from checks import CheckError  # noqa: E402
from workloads import CliFiles  # noqa: E402
from rsvdlab.applications import missing_pca_gram  # noqa: E402
from rsvdlab.harness import ExperimentPlan, emit_csv, run_plan  # noqa: E402
from rsvdlab.linalg import sym_eig  # noqa: E402
from rsvdlab.models import gen_missing_pca  # noqa: E402
from rsvdlab.rng import RngStream  # noqa: E402
from rsvdlab.subspace import procrustes_align  # noqa: E402


@pytest.fixture
def rng():
    return np.random.default_rng(20240501)


def random_basis(rng, n, k):
    return np.linalg.qr(rng.standard_normal((n, k)))[0]


def overwrite(path, matrix):
    """Replace a Matrix Market file in place (mmwrite would add .mtx)."""
    with open(path, "wb") as fh:
        scipy.io.mmwrite(fh, matrix)


def same_partition(tau_hat, tau):
    """Exact recovery: the labels agree up to renaming."""
    pairs = set(zip(tau_hat.tolist(), tau.tolist()))
    return len(pairs) == len(set(tau_hat.tolist())) == len(set(tau.tolist()))


def test_d2_values_reject_out_of_range():
    checks.check_d2_values([1e-3, 0.5, np.sqrt(2.0)], "ok")
    for bad in (0.0, 1.5, np.nan, -0.1):
        with pytest.raises(CheckError):
            checks.check_d2_values([0.5, bad], "bad")


def test_rate_exact_rejects_random_basis(rng):
    n = 200
    labels = rng.integers(0, 2, size=n)
    core = np.array([[0.8, 0.3], [0.3, 0.8]])
    upper = np.triu(rng.random((n, n)) < core[labels][:, labels])
    a = (upper | upper.T).astype(np.float64)
    d2_exact = checks.exact_rate_d2(a, labels, core, 2)
    population = checks.population_eigvecs(labels, core, 2)
    converged = sym_eig(a).vectors[:, :2]
    checks.check_rate_exact(checks.procrustes_d2(converged, population), d2_exact)
    corrupted = checks.procrustes_d2(random_basis(rng, n, 2), population)
    with pytest.raises(CheckError):
        checks.check_rate_exact(corrupted, d2_exact)


def test_rate_convergence_rejects_flat_curve():
    checks.check_rate_convergence(0.42, 0.028)
    with pytest.raises(CheckError):
        checks.check_rate_convergence(0.05, 0.028)


def test_recovery_rejects_shuffled_labels(rng):
    tau = rng.integers(0, 2, size=300)
    renamed = 1 - tau
    shuffled = rng.permutation(tau)
    assert same_partition(renamed, tau) and not same_partition(shuffled, tau)
    checks.check_recovery(freq_g2=0.0,
                          freq_g3=float(same_partition(renamed, tau)))
    with pytest.raises(CheckError):
        checks.check_recovery(freq_g2=0.0,
                              freq_g3=float(same_partition(shuffled, tau)))


def test_identical_rejects_perturbed_rerun(tmp_path):
    plan = ExperimentPlan(kind="recovery_table",
                          model_params={"a_n": 2, "k_tilde": 4},
                          n_grid=(60,), g_list=(1, 2), replicates=3,
                          master_seed=7, parallelism=2)
    paths = [tmp_path / "p2.csv", tmp_path / "p1.csv"]
    records = run_plan(plan)
    emit_csv(records, paths[0])
    emit_csv(run_plan(replace(plan, parallelism=1)), paths[1])
    checks.check_identical(paths[0].read_bytes(), paths[1].read_bytes(), "rerun")
    rate = records[0].metrics["error_rate"]
    records[0].metrics["error_rate"] = float(np.nextafter(rate, 1.0))
    emit_csv(records, paths[0])
    with pytest.raises(CheckError):
        checks.check_identical(paths[0].read_bytes(), paths[1].read_bytes(),
                               "rerun")


def test_pca_exact_rejects_random_basis(rng):
    d, k, p = 60, 2, 0.5
    inst = gen_missing_pca(d, 400, k, p, 1.0, RngStream(11, 0))
    u_exact = sym_eig(missing_pca_gram(inst.x_obs, p)).vectors[:, :k]
    reported = procrustes_align(u_exact, inst.u).residual_spectral
    recomputed = checks.exact_pca_d2(inst.x_obs, p, k, inst.u)
    checks.check_pca_exact(reported, recomputed)
    corrupted = procrustes_align(random_basis(rng, d, k), inst.u).residual_spectral
    with pytest.raises(CheckError):
        checks.check_pca_exact(corrupted, recomputed)


def test_pca_parity_rejects_premise_and_gate():
    checks.check_pca_parity(mean_exact=0.16, mean_g3=0.17)
    with pytest.raises(CheckError):
        checks.check_pca_parity(mean_exact=1.24, mean_g3=1.25)
    with pytest.raises(CheckError):
        checks.check_pca_parity(mean_exact=0.16, mean_g3=0.45)


class TinyCli(CliFiles):
    sbm = dict(CliFiles.sbm, n=200, rho=1.0)
    rect = dict(CliFiles.rect, d=40, m=300, p=0.5)
    comp = dict(CliFiles.comp, n=100)


@pytest.fixture
def cli_op(tmp_path):
    """One tiny cycle of the cli_files workload whose outputs pass."""
    workload = TinyCli("cli_files", 3, tmp_path)
    from rsvdlab.cli import main
    workload.main = main
    workload.prepare(0)
    assert workload.run(0, lambda fn, *a: fn(*a)) == (3, 0, [0, 0, 0])
    workload.check(0, [0, 0, 0])
    return workload


def test_cli_rejects_random_basis_for_u(cli_op, rng):
    for name in ("svd_sym", "svd_rect"):
        path = cli_op.workdir / "op" / "out" / name / "U.mm"
        good = scipy.io.mmread(path)
        overwrite(path, random_basis(rng, *good.shape))
        with pytest.raises(CheckError):
            cli_op.check(0, [0, 0, 0])
        overwrite(path, good)
    cli_op.check(0, [0, 0, 0])


def test_svd_output_rejects_random_basis_where_gap_bound_is_void(rng):
    n, k = 120, 2
    vals = np.concatenate([[50.0, 40.0], rng.uniform(-30.0, 30.0, n - k)])
    q = random_basis(rng, n, n)
    matrix = scipy.sparse.csr_matrix((q * vals) @ q.T)
    spectrum = np.sort(np.abs(vals))[::-1][:8]
    u = q[:, :k]
    sigma = scipy.linalg.svdvals(u.T @ matrix.toarray())
    assert checks.svd_bound(spectrum, k, 1) >= 1.0
    checks.check_svd_output(matrix, u, sigma, spectrum, u, 1, "ok")
    with pytest.raises(CheckError):
        checks.check_svd_output(matrix, random_basis(rng, n, k), sigma,
                                spectrum, u, 1, "random")


def test_cli_rejects_wrong_sigma(cli_op):
    path = cli_op.workdir / "op" / "out" / "svd_sym" / "sigma.csv"
    lines = path.read_text().splitlines()
    lines[1] = repr(1.01 * float(lines[1]))
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CheckError):
        cli_op.check(0, [0, 0, 0])


def test_cli_rejects_perturbed_completion(cli_op, rng):
    path = cli_op.workdir / "op" / "out" / "complete" / "completed.mm"
    good = scipy.io.mmread(path)
    overwrite(path, good + 1e-3 * rng.standard_normal(good.shape))
    with pytest.raises(CheckError):
        cli_op.check(0, [0, 0, 0])


def test_cli_rejects_swapped_ci_bounds(cli_op):
    path = cli_op.workdir / "op" / "out" / "complete" / "ci.csv"
    lines = path.read_text().splitlines()
    cells = lines[1].split(",")
    cells[5], cells[6] = cells[6], cells[5]
    lines[1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CheckError):
        cli_op.check(0, [0, 0, 0])
