"""The benchmark's four workloads.

Each workload drives rsvdlab only through ``rsvdlab.harness.run_plan`` or
``rsvdlab.cli.main``.  Its methods run in two processes.  In the worker,
which holds nothing but the program and its inputs, ``setup`` builds the
plan and runs a small warm-up, and ``run`` is the timed operation: it calls
into rsvdlab through ``invoke`` and returns (items attempted, items failed,
outputs).  In the parent, ``prepare_setup`` and ``prepare`` write input
files before set-up and before each operation, and ``check`` (after every
operation) and ``finish`` (after the timed window) verify the outputs
against the references in ``checks``.
"""

from dataclasses import replace
from functools import cached_property
import hashlib
import json
from pathlib import Path

import numpy as np


def op_seed(workload, seed, index):
    """Master seed of operation ``index``, derived from the workload seed."""
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


class HarnessWorkload:
    """One ``run_plan`` call per operation; an item is one replicate."""

    root = "harness.run_plan"
    plan_name = None
    params = {}          # model_params overrides of the bundled plan
    fields = {}          # plan field overrides
    warm_n = None        # n of the warm-up replicate
    warm_params = {}

    def __init__(self, name, seed, workdir):
        self.name, self.seed, self.workdir = name, seed, Path(workdir)

    @cached_property
    def plan(self):
        import rsvdlab
        from rsvdlab.harness import load_plan
        base = load_plan(Path(rsvdlab.__file__).parent / "plans"
                         / f"{self.plan_name}.json")
        return replace(base, model_params={**base.model_params, **self.params},
                       **self.fields)

    def plan_for(self, i):
        return replace(self.plan, master_seed=op_seed(self.name, self.seed, i))

    def prepare_setup(self):
        pass

    def prepare(self, i):
        pass

    def setup(self):
        from rsvdlab.harness import run_plan
        self.run_plan = run_plan
        self.run_plan(replace(self.plan, replicates=1, n_grid=(self.warm_n,),
                              model_params={**self.plan.model_params,
                                            **self.warm_params}))

    def run(self, i, invoke):
        records = invoke(self.run_plan, self.plan_for(i))
        failed = {(r.n, r.replicate_id) for r in records if "error" in r.metrics}
        return self.plan.replicates * len(self.plan.n_grid), len(failed), records


def good(records):
    return [r for r in records if "error" not in r.metrics]


class SbmRate(HarnessWorkload):
    plan_name = "rate_dense"
    params = {"a_n": 9, "k_tilde": 12}
    fields = {"n_grid": (4000,), "g_list": (1, 2, 3), "replicates": 1,
              "parallelism": 1}
    warm_n = 300

    def __init__(self, *args):
        super().__init__(*args)
        self.d2 = {1: [], 2: [], 3: []}
        self.first_g3 = None

    def check(self, i, records):
        import checks
        records = good(records)
        checks.check_d2_values([r.metrics["d2"] for r in records], self.name)
        for r in records:
            self.d2[r.g].append(r.metrics["d2"])
            if i == 0 and r.g == 3 and r.replicate_id == 0:
                self.first_g3 = r.metrics["d2"]

    def finish(self):
        from rsvdlab.harness import replicate_stream
        from rsvdlab.models import gen_sbm
        import checks
        checks.check_rate_convergence(np.mean(self.d2[1]), np.mean(self.d2[3]))
        checks.require(self.first_g3 is not None,
                       "sbm_rate: operation 0 gave no d2 at g=3")
        plan = self.plan_for(0)
        params = plan.model_params
        n = plan.n_grid[0]
        b = np.asarray(params["b"], dtype=np.float64)
        rho = float(params.get("rho_c", 1.0)) * n ** float(
            params.get("rho_exponent", 0.0))
        inst = gen_sbm(n, b, np.asarray(params["pi"]), rho, int(params["d"]),
                       replicate_stream(plan, n, 0).child("model"))
        d2_exact = checks.exact_rate_d2(inst.a, inst.tau, rho * b,
                                        int(params["d"]))
        checks.check_rate_exact(self.first_g3, d2_exact)


class SbmRecovery(HarnessWorkload):
    plan_name = "recovery_sparse"
    batch = 4
    params = {"a_n": 58, "k_tilde": 12, "clusterer": "kmedians"}
    fields = {"n_grid": (2000,), "g_list": (2, 3), "replicates": batch,
              "parallelism": 2}
    warm_n = 800

    def __init__(self, *args):
        super().__init__(*args)
        self.exact = {2: [], 3: []}

    def check(self, i, records):
        import checks
        for r in good(records):
            value = r.metrics["exact_recovery"]
            checks.require(value in (0.0, 1.0),
                           f"sbm_recovery: exact_recovery = {value!r}")
            self.exact[r.g].append(value)
        if i == 0:
            self.first_records = records

    def finish(self):
        from rsvdlab.harness import emit_csv, run_plan
        import checks
        checks.check_recovery(np.mean(self.exact[2]), np.mean(self.exact[3]))
        rerun = run_plan(replace(self.plan_for(0), parallelism=1))
        self.workdir.mkdir(parents=True, exist_ok=True)
        paths = [self.workdir / "records_p2.csv", self.workdir / "records_p1.csv"]
        emit_csv(self.first_records, paths[0])
        emit_csv(rerun, paths[1])
        checks.check_identical(paths[0].read_bytes(), paths[1].read_bytes(),
                               "sbm_recovery parallelism 1")


class MissingPca(HarnessWorkload):
    plan_name = "pca_parity"
    fields = {"g_list": (1, 3), "replicates": 1, "parallelism": 1}
    warm_n = 300
    warm_params = {"m": 1200}

    def __init__(self, *args):
        super().__init__(*args)
        self.d2_g3, self.d2_exact = [], []
        self.first_exact = None

    def check(self, i, records):
        import checks
        records = good(records)
        checks.check_d2_values([r.metrics[key] for r in records
                                for key in ("d2", "d2_exact")], self.name)
        for r in records:
            if r.g == 3:
                self.d2_g3.append(r.metrics["d2"])
                self.d2_exact.append(r.metrics["d2_exact"])
                if i == 0:
                    self.first_exact = r.metrics["d2_exact"]

    def finish(self):
        from rsvdlab.harness import replicate_stream
        from rsvdlab.models import gen_missing_pca
        import checks
        checks.check_pca_parity(np.mean(self.d2_exact), np.mean(self.d2_g3))
        checks.require(self.first_exact is not None,
                       "missing_pca: operation 0 gave no d2_exact")
        plan = self.plan_for(0)
        params = plan.model_params
        n = plan.n_grid[0]
        k, p = int(params["k"]), float(params["p"])
        inst = gen_missing_pca(n, int(params["m"]), k, p,
                               float(params["sigma"]),
                               replicate_stream(plan, n, 0).child("model"))
        recomputed = checks.exact_pca_d2(inst.x_obs, p, k, inst.u)
        checks.check_pca_exact(self.first_exact, recomputed)


class CliFiles:
    """One cycle of three ``rsvdlab`` commands per operation over Matrix
    Market files written from the benchmark's own numpy draws; an item is
    one command.  The commands run with the CLI's default sketch settings."""

    root = "cli.main"
    # symmetric SBM adjacency
    sbm = dict(n=2000, rho=0.1, b=((0.8, 0.3), (0.3, 0.8)), k=2)
    # rectangular missing-data matrix: d x m, rank k, observed fraction p
    rect = dict(d=400, m=3000, k=3, p=0.12)
    # symmetric partially observed rank-k matrix, and its entry CIs
    comp = dict(n=1000, k=3, p=0.3, sigma=1.0, n_ci=8)
    # the warm-up cycle runs on inputs this many times smaller
    warm_scale = 10
    # the CLI's default sketch width is k + 5 (``rsvdlab svd --help``)
    ktilde_extra = 5

    def __init__(self, name, seed, workdir):
        self.name, self.seed, self.workdir = name, seed, Path(workdir)

    def prepare_setup(self):
        self._write_inputs(self.workdir / "warm", self.seed, self.warm_scale)

    def prepare(self, i):
        self.truth = self._write_inputs(self.workdir / "op",
                                        op_seed(self.name, self.seed, i), 1)

    def setup(self):
        from rsvdlab import cli
        self.main = cli.main
        for argv in self._commands(self.workdir / "warm", self.seed,
                                   self.warm_scale):
            self.main(argv)

    def run(self, i, invoke):
        argv = self._commands(self.workdir / "op",
                              op_seed(self.name, self.seed, i), 1)
        codes = [invoke(self.main, args) for args in argv]
        return len(codes), sum(code != 0 for code in codes), codes

    def _pairs(self, seed, scale):
        """Entries (i, j) whose CIs the ``complete`` command asks for."""
        n = self.comp["n"] // scale
        rng = np.random.default_rng([seed, 1])
        return [tuple(int(v) for v in pair)
                for pair in rng.integers(0, n, size=(self.comp["n_ci"], 2))]

    def _write_inputs(self, folder, seed, scale):
        """Write the three input files; return the completion signal."""
        import scipy.io
        import scipy.sparse as sp
        folder.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng(seed)

        n = self.sbm["n"] // scale
        labels = rng.integers(0, 2, size=n)
        prob = self.sbm["rho"] * np.asarray(self.sbm["b"])[labels][:, labels]
        upper = np.triu(rng.random((n, n)) < prob, 1)
        scipy.io.mmwrite(folder / "sbm.mtx",
                         sp.coo_matrix((upper | upper.T).astype(np.float64)),
                         symmetry="symmetric")

        d, m, k = self.rect["d"] // scale, self.rect["m"] // scale, self.rect["k"]
        signal = rng.standard_normal((d, k)) @ rng.standard_normal((k, m))
        mask = rng.random((d, m)) < self.rect["p"]
        x = np.where(mask, signal + rng.standard_normal((d, m)), 0.0)
        scipy.io.mmwrite(folder / "rect.mtx", sp.coo_matrix(x))

        n, k = self.comp["n"] // scale, self.comp["k"]
        basis = np.linalg.qr(rng.standard_normal((n, k)))[0]
        truth = (basis * (n * np.linspace(1.0, 0.6, k))) @ basis.T
        truth = (truth + truth.T) / 2.0
        noise = self.comp["sigma"] * rng.standard_normal((n, n))
        upper = np.where(np.triu(rng.random((n, n)) < self.comp["p"]),
                         truth + noise, 0.0)
        observed = upper + np.triu(upper, 1).T
        scipy.io.mmwrite(folder / "obs.mtx", sp.coo_matrix(observed),
                         symmetry="symmetric")
        return truth

    def _commands(self, folder, seed, scale):
        out = folder / "out"
        ci = [arg for i, j in self._pairs(seed, scale)
              for arg in ("--ci", f"{i},{j},0.05")]
        common = ("--seed", str(seed))
        return [
            ["svd", str(folder / "sbm.mtx"), "--k", str(self.sbm["k"]),
             *common, "--out", str(out / "svd_sym")],
            ["svd", str(folder / "rect.mtx"), "--k", str(self.rect["k"]),
             *common, "--out", str(out / "svd_rect")],
            ["complete", str(folder / "obs.mtx"), "--p", str(self.comp["p"]),
             "--k", str(self.comp["k"]), *ci, *common,
             "--out", str(out / "complete")],
        ]

    def check(self, i, codes):
        import scipy.io
        import checks
        folder = self.workdir / "op"
        out = folder / "out"
        sym, rect, comp = (code == 0 for code in codes)
        if sym:
            a = scipy.io.mmread(folder / "sbm.mtx").tocsr()
            self._check_svd(a, out / "svd_sym", self.sbm["k"], True,
                            "svd symmetric")
        if rect:
            x = scipy.io.mmread(folder / "rect.mtx").tocsr()
            self._check_svd(x, out / "svd_rect", self.rect["k"], False,
                            "svd rectangular")
        if comp:
            completed = np.asarray(scipy.io.mmread(out / "complete" / "completed.mm"))
            observed = scipy.io.mmread(folder / "obs.mtx").toarray()
            checks.check_completion(completed, self.truth, observed,
                                    self.comp["p"], self.comp["k"])
            checks.check_cis(_read_csv(out / "complete" / "ci.csv"), completed,
                             self._pairs(op_seed(self.name, self.seed, i), 1))

    def _check_svd(self, matrix, out, k, symmetric, label):
        """``svd`` output against scipy's spectrum of the input file.  The
        sketch multiplies by the data g times on a symmetric input and
        2g + 1 times on a rectangular one."""
        import scipy.io
        import checks
        g = json.loads((out / "meta.json").read_text(encoding="utf-8"))["g"]
        top = checks.top_eigs_sym if symmetric else checks.top_svd
        spectrum, ref_u = top(matrix, k + self.ktilde_extra + 1)
        checks.check_svd_output(matrix, scipy.io.mmread(out / "U.mm"),
                                _read_csv(out / "sigma.csv")[:, 0],
                                spectrum, ref_u[:, :k],
                                g if symmetric else 2 * g + 1, label)

    def finish(self):
        pass


def _read_csv(path):
    """Numeric rows of a CSV with a header line, as a 2-d float array."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


WORKLOADS = {
    "sbm_rate": SbmRate,
    "sbm_recovery": SbmRecovery,
    "missing_pca": MissingPca,
    "cli_files": CliFiles,
}
