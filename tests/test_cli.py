from importlib import resources
import json
import sys

import numpy as np
import pytest

from rsvdlab.cli import main
from rsvdlab.harness import load_plan
from rsvdlab.mmio import read_matrix_market, write_matrix_market
from rsvdlab.models import gen_sbm
from rsvdlab.rng import RngStream


def run_cli(*argv):
    return main(list(argv))


def read_bytes_tree(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir()) if p.is_file()}


class TestSvd:
    def test_diagonal_example(self, tmp_path):
        write_matrix_market(tmp_path / "m.mm", np.diag([5.0, 4.0, 0.0]))
        out = tmp_path / "out"
        code = run_cli("svd", str(tmp_path / "m.mm"), "--k", "2",
                       "--ktilde", "3", "--an", "1", "--g", "2",
                       "--out", str(out))
        assert code == 0
        sigma = (out / "sigma.csv").read_text().splitlines()
        values = sorted(float(v) for v in sigma[1:])
        assert values == pytest.approx([4.0, 5.0], abs=1e-8)
        u = read_matrix_market(out / "U.mm")
        assert u.shape == (3, 2)
        meta = json.loads((out / "meta.json").read_text())
        assert meta["symmetric"] is True

    def test_sym_flag_on_asymmetric_input_is_usage_error(self, tmp_path, capsys):
        write_matrix_market(tmp_path / "m.mm", np.array([[0.0, 1.0], [0.0, 0.0]]))
        code = run_cli("svd", str(tmp_path / "m.mm"), "--k", "1",
                       "--sym", "--out", str(tmp_path / "out"))
        assert code == 2
        assert "not symmetric" in capsys.readouterr().err

    def test_auto_mode_checks_symmetry_once(self, tmp_path, monkeypatch):
        a = np.random.default_rng(3).standard_normal((30, 30))
        write_matrix_market(tmp_path / "m.mm", a + a.T)
        calls = []
        modules = [m for name, m in list(sys.modules.items())
                   if name.startswith("rsvdlab") and hasattr(m, "symmetry_defect")]
        for module in modules:
            def counted(x, _original=module.symmetry_defect):
                calls.append(1)
                return _original(x)
            monkeypatch.setattr(module, "symmetry_defect", counted)
        out = tmp_path / "out"
        assert run_cli("svd", str(tmp_path / "m.mm"), "--k", "2",
                       "--out", str(out)) == 0
        assert json.loads((out / "meta.json").read_text())["symmetric"] is True
        assert len(calls) == 1

    def test_auto_mode_on_square_asymmetric_input_matches_asym(self, tmp_path):
        rng = np.random.default_rng(4)
        write_matrix_market(tmp_path / "m.mm", rng.standard_normal((40, 40)))
        auto, asym = tmp_path / "auto", tmp_path / "asym"
        assert run_cli("svd", str(tmp_path / "m.mm"), "--k", "2",
                       "--out", str(auto)) == 0
        assert run_cli("svd", str(tmp_path / "m.mm"), "--k", "2", "--asym",
                       "--out", str(asym)) == 0
        for name in ("U.mm", "sigma.csv"):
            assert (auto / name).read_bytes() == (asym / name).read_bytes()
        assert json.loads((auto / "meta.json").read_text())["symmetric"] is False

    def test_wide_input_below_k_tilde_rows_is_usage_error(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        write_matrix_market(tmp_path / "m.mm", rng.standard_normal((6, 200)))
        code = run_cli("svd", str(tmp_path / "m.mm"), "--k", "2", "--asym",
                       "--ktilde", "8", "--an", "3", "--out", str(tmp_path / "out"))
        assert code == 2
        assert "k_tilde" in capsys.readouterr().err

    def test_rerun_byte_identical(self, tmp_path):
        write_matrix_market(tmp_path / "m.mm",
                            np.diag([3.0, 2.0, 1.0, 0.5]))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert run_cli("svd", str(tmp_path / "m.mm"), "--k", "2",
                           "--ktilde", "3", "--an", "1", "--g", "2",
                           "--seed", "99", "--out", str(out)) == 0
        assert read_bytes_tree(out1) == read_bytes_tree(out2)

    def test_env_seed_override(self, tmp_path, monkeypatch):
        write_matrix_market(tmp_path / "m.mm", np.diag([3.0, 2.0, 1.0]))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        monkeypatch.setenv("RSVDLAB_SEED", "4242")
        assert run_cli("svd", str(tmp_path / "m.mm"), "--k", "1",
                       "--ktilde", "2", "--an", "1", "--out", str(out1)) == 0
        monkeypatch.delenv("RSVDLAB_SEED")
        assert run_cli("svd", str(tmp_path / "m.mm"), "--k", "1", "--an", "1",
                       "--ktilde", "2", "--seed", "4242", "--out", str(out2)) == 0
        assert read_bytes_tree(out1) == read_bytes_tree(out2)

    def test_meta_records_resolved_sketch_settings(self, tmp_path):
        # defaults: k_tilde = k + 5, a_n = ceil(log 300) = 6
        a = np.random.default_rng(3).standard_normal((300, 300))
        write_matrix_market(tmp_path / "m.mm", a + a.T)
        out = tmp_path / "out"
        assert run_cli("svd", str(tmp_path / "m.mm"), "--k", "2", "--out", str(out)) == 0
        meta = json.loads((out / "meta.json").read_text())
        assert (meta["ktilde"], meta["an"], meta["g"]) == (7, 6, 2)

    def test_missing_file_is_usage_error(self, tmp_path):
        assert run_cli("svd", str(tmp_path / "nope.mm"), "--k", "1",
                       "--out", str(tmp_path / "o")) == 2


class TestExitCodes:
    """0 for a good run, 2 for a malformed or out-of-range Matrix Market
    input, 1 for an input whose rank is below k."""

    HEADER = "%%MatrixMarket matrix coordinate real general\n"

    def _svd(self, tmp_path, body, k=2):
        path = tmp_path / "m.mtx"
        path.write_text(self.HEADER + body)
        return run_cli("svd", str(path), "--k", str(k), "--out", str(tmp_path / "out"))

    def test_good_input_exits_0(self, tmp_path):
        diag = [10.0, -5.0] + [0.01] * 38
        entries = "".join(f"{i} {i} {v}\n" for i, v in enumerate(diag, 1))
        assert self._svd(tmp_path, f"40 40 40\n{entries}") == 0
        sigma = (tmp_path / "out" / "sigma.csv").read_text().splitlines()[1:]
        assert [float(v) for v in sigma] == pytest.approx([10.0, 5.0], rel=1e-8)

    @pytest.mark.parametrize("body", [
        "40 40 1\n0 1 5.0\n",       # zero index
        "40 40 1\n41 1 5.0\n",      # past the last row
        "40 40 1\n1 41 5.0\n",
        "40 40 1\n1 2\n",           # missing value
        "40 40 2\n1 1 5.0\n",       # truncated
        "40 40 1\n1 1 nan\n",
        "40 40\n1 1 5.0\n",         # size line
        "1000000000 1000000000 1\n1 1 5.0\n",  # too large to allocate
    ])
    def test_malformed_or_out_of_range_input_exits_2(self, tmp_path, capsys, body):
        assert self._svd(tmp_path, body) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(tmp_path / "m.mtx") in err

    def test_rank_deficient_input_exits_1(self, tmp_path, capsys):
        assert self._svd(tmp_path, "40 40 1\n1 1 1.0\n", k=2) == 1
        assert capsys.readouterr().err.startswith("numerical failure: ")


class TestFailedRunWritesNothing:
    """A run that exits 1 or 2 leaves --out as it was: main writes the
    outputs only after the command has returned."""

    @pytest.fixture
    def inputs(self, tmp_path, monkeypatch):
        a = np.random.default_rng(8).standard_normal((60, 60))
        write_matrix_market(tmp_path / "sym.mtx", a + a.T)
        write_matrix_market(tmp_path / "asym.mtx", np.array([[0.0, 1.0], [0.0, 0.0]]))
        (tmp_path / "rank1.mtx").write_text(TestExitCodes.HEADER + "40 40 1\n1 1 1.0\n")
        inst = gen_sbm(60, [[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5], 1.0, 2,
                       RngStream(61, 0))
        write_matrix_market(tmp_path / "sbm.mtx", inst.a)
        truth = inst.tau.copy()
        truth[7] = 5
        np.savetxt(tmp_path / "truth.txt", truth, fmt="%d")
        np.savetxt(tmp_path / "short.txt", inst.tau[:50], fmt="%d")
        monkeypatch.chdir(tmp_path)
        return tmp_path

    COMPLETE = ["complete", "sym.mtx", "--p", "1", "--k", "2"]

    @pytest.mark.parametrize("argv, code, message", [
        (COMPLETE + ["--ci=1,2"], 2, "error: --ci expects 'i,j,alpha', got '1,2'"),
        (COMPLETE + ["--ci=1,x,0.05"], 2, "error: --ci expects 'i,j,alpha', got '1,x,0.05'"),
        (COMPLETE + ["--ci=500,1,0.05"], 2,
         "error: --ci '500,1,0.05': index 500 lies outside 0..59"),
        (["cluster", "--gen", "sbm:n=100", "--d", "2", "--K", "2", "--reps", "0"], 2,
         "--reps must be >= 1, got 0"),
        (["cluster", "sbm.mtx", "--d", "2", "--K", "2", "--truth", "truth.txt"], 2,
         "label 5 lies outside 0..1"),
        (["cluster", "sbm.mtx", "--d", "2", "--K", "2", "--truth", "short.txt"], 2,
         "error: truth holds 50 labels for 60 nodes"),
        (["svd", "asym.mtx", "--k", "1", "--sym"], 2, "not symmetric"),
        (["svd", "rank1.mtx", "--k", "2"], 1, "numerical failure: "),
        # one input source per run: a file or --gen, and --truth only with a file
        (["complete", "missing.mtx", "--gen", "completion:n=100", "--k", "2"], 2,
         "error: give an input file or --gen, not both"),
        (["pca", "missing.mtx", "--gen", "pca:d=50,m=100,k=2", "--k", "2"], 2,
         "error: give an input file or --gen, not both"),
        (["cluster", "--gen", "sbm:n=200", "--d", "2", "--K", "2",
          "--truth", "missing.txt"], 2, "error: give --truth or --gen, not both"),
    ], ids=["ci-two-fields", "ci-not-an-int", "ci-index", "cluster-zero-reps",
            "cluster-truth-label", "cluster-truth-length", "svd-sym-asymmetric",
            "svd-rank-deficient", "complete-file-and-gen", "pca-file-and-gen",
            "cluster-truth-and-gen"])
    def test_out_is_not_created(self, inputs, capsys, argv, code, message):
        assert run_cli(*argv, "--out", "out") == code
        assert message in capsys.readouterr().err
        assert not (inputs / "out").exists()


    def test_ci_alpha_is_checked_before_the_completion(self, inputs, capsys,
                                                        monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("the completion ran")
        monkeypatch.setattr("rsvdlab.cli.rsvd_complete", never)
        assert run_cli(*self.COMPLETE, "--ci=1,2,0.05", "--ci=1,2,1.5",
                       "--out", "out") == 2
        assert ("error: --ci '1,2,1.5': alpha must lie in (0, 1), got 1.5"
                in capsys.readouterr().err)
        assert not (inputs / "out").exists()


class TestCluster:
    def test_two_clique_graph(self, tmp_path):
        inst = gen_sbm(60, [[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5], 1.0, 2,
                       RngStream(61, 0))
        write_matrix_market(tmp_path / "a.mm", inst.a)
        np.savetxt(tmp_path / "truth.txt", inst.tau, fmt="%d")
        out = tmp_path / "out"
        code = run_cli("cluster", str(tmp_path / "a.mm"), "--d", "2", "--K", "2",
                       "--truth", str(tmp_path / "truth.txt"),
                       "--ktilde", "6", "--an", "2", "--g", "2",
                       "--out", str(out))
        assert code == 0
        labels = np.loadtxt(out / "labels.csv", delimiter=",", skiprows=1,
                            dtype=np.int64)
        assert labels.shape == (60, 2)
        split = {tuple(sorted(set(labels[inst.tau == c, 1].tolist())))
                 for c in (0, 1)}
        assert all(len(s) == 1 for s in split)
        recovery = (out / "recovery.csv").read_text().splitlines()
        assert recovery[1].split(",")[1] == "1"

    def test_generator_replicates_dense_recovery(self, tmp_path):
        # dense two-block setting: g = 2 recovers every node in essentially
        # every replicate (desk-scale version of the full table, which the
        # acceptance suite runs at n = 1000 with 100 replicates)
        out = tmp_path / "out"
        code = run_cli("cluster", "--gen", "sbm:n=300,K=2,rho=1", "--d", "2",
                       "--K", "2", "--reps", "10", "--ktilde", "12", "--g", "2",
                       "--out", str(out))
        assert code == 0
        meta = json.loads((out / "meta.json").read_text())
        assert meta["recovery_frequency"] >= 0.98

    def test_missing_k_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("cluster", "--gen", "sbm:n=100", "--d", "2",
                    "--out", str(tmp_path / "o"))
        assert exc.value.code == 2

    @pytest.mark.parametrize("label", [5, -1])
    def test_truth_label_outside_clusters_is_usage_error(self, tmp_path, capsys, label):
        inst = gen_sbm(60, [[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5], 1.0, 2,
                       RngStream(61, 0))
        write_matrix_market(tmp_path / "a.mm", inst.a)
        truth = inst.tau.copy()
        truth[7] = label
        np.savetxt(tmp_path / "truth.txt", truth, fmt="%d")
        code = run_cli("cluster", str(tmp_path / "a.mm"), "--d", "2", "--K", "2",
                       "--truth", str(tmp_path / "truth.txt"),
                       "--out", str(tmp_path / "out"))
        assert code == 2
        assert f"label {label} lies outside 0..1" in capsys.readouterr().err

    def test_unknown_generator_key_is_usage_error(self, tmp_path, capsys):
        code = run_cli("cluster", "--gen", "sbm:n=200,rh=0.5,Kk=3", "--d", "2",
                       "--K", "2", "--out", str(tmp_path / "o"))
        assert code == 2
        assert "--gen sbm: unknown key 'rh', 'Kk'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_more_than_8_clusters_with_truth_fails_before_the_sketch(
            self, tmp_path, capsys, monkeypatch):
        def no_sketch(*args):
            raise AssertionError("the sketch ran")
        monkeypatch.setattr("rsvdlab.applications.rs_rsvd_sym", no_sketch)
        code = run_cli("cluster", "--gen", "sbm:n=200", "--d", "2", "--K", "9",
                       "--out", str(tmp_path / "o"))
        assert code == 2
        assert ("exhaustive matching supports at most 8 labels, got 9"
                in capsys.readouterr().err)

    def test_truth_labels_beyond_k_fail_before_the_sketch(
            self, tmp_path, capsys, monkeypatch):
        def no_sketch(*args):
            raise AssertionError("the sketch ran")
        monkeypatch.setattr("rsvdlab.applications.rs_rsvd_sym", no_sketch)
        code = run_cli("cluster", "--gen", "sbm:n=300,K=3", "--d", "2", "--K", "2",
                       "--out", str(tmp_path / "o"))
        assert code == 2
        assert "label 2 lies outside 0..1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_short_truth_fails_before_the_sketch(self, tmp_path, capsys, monkeypatch):
        def no_sketch(*args):
            raise AssertionError("the sketch ran")
        monkeypatch.setattr("rsvdlab.applications.rs_rsvd_sym", no_sketch)
        inst = gen_sbm(60, [[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5], 1.0, 2,
                       RngStream(61, 0))
        write_matrix_market(tmp_path / "a.mm", inst.a)
        np.savetxt(tmp_path / "truth.txt", inst.tau[:50], fmt="%d")
        code = run_cli("cluster", str(tmp_path / "a.mm"), "--d", "2", "--K", "2",
                       "--truth", str(tmp_path / "truth.txt"),
                       "--out", str(tmp_path / "o"))
        assert code == 2
        assert "truth holds 50 labels for 60 nodes" in capsys.readouterr().err

    def test_zero_reps_is_usage_error(self, tmp_path, capsys):
        code = run_cli("cluster", "--gen", "sbm:n=100", "--d", "2", "--K", "2",
                       "--reps", "0", "--out", str(tmp_path / "o"))
        assert code == 2
        assert "--reps must be >= 1, got 0" in capsys.readouterr().err


class TestComplete:
    def test_full_observation_matches_support(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli("complete", "--gen",
                       "completion:n=80,k=3,p=1.0,sigma=0.0", "--k", "3",
                       "--ktilde", "8", "--an", "2", "--g", "2",
                       "--out", str(out))
        assert code == 0
        meta = json.loads((out / "meta.json").read_text())
        assert meta["max_err"] <= 1e-8

    def test_ci_rows(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli("complete", "--gen",
                       "completion:n=100,k=2,p=0.7,sigma=0.5", "--k", "2",
                       "--ci", "3,7,0.05", "--ci", "10,40,0.1",
                       "--ci", "5,9,0.05",
                       "--ktilde", "6", "--an", "3", "--g", "3",
                       "--out", str(out))
        assert code == 0
        lines = (out / "ci.csv").read_text().splitlines()
        assert lines[0] == "i,j,alpha,estimate,v_hat,lo,hi"
        assert len(lines) == 4
        rows = [tuple(float(x) for x in line.split(",")) for line in lines[1:]]
        # one batch serves every level; rows come out in flag order
        assert [row[:3] for row in rows] == [(3, 7, 0.05), (10, 40, 0.1), (5, 9, 0.05)]
        i, j, alpha, est, v_hat, lo, hi = rows[0]
        assert lo < est < hi

    def test_edm_generator_with_exact_baseline(self, tmp_path):
        args = ["complete", "--gen", "edm:n=300,dim=2,box=10,p=0.8",
                "--k", "4", "--ktilde", "15", "--an", "15", "--seed", "7"]
        out_rsvd = tmp_path / "rsvd"
        out_exact = tmp_path / "exact"
        assert run_cli(*args, "--g", "5", "--out", str(out_rsvd)) == 0
        assert run_cli(*args, "--g", "5", "--exact", "--out", str(out_exact)) == 0
        d_rsvd = read_matrix_market(out_rsvd / "completed.mm")
        d_exact = read_matrix_market(out_exact / "completed.mm")
        assert d_rsvd.shape == d_exact.shape == (300, 300)
        meta_r = json.loads((out_rsvd / "meta.json").read_text())
        meta_e = json.loads((out_exact / "meta.json").read_text())
        assert meta_r["frob_err_per_n"] <= 2.0 * meta_e["frob_err_per_n"]

    def test_exact_matches_full_eigh_reconstruction(self, tmp_path):
        # --exact takes sym_eig's certified top-k path above its size cutoff;
        # its T_hat must agree with the one built from a full eigh
        from rsvdlab.linalg import SYM_EIG_TOPK_MIN_N, _top_k, sym_eig
        from rsvdlab.models import gen_completion

        n = SYM_EIG_TOPK_MIN_N + 50
        inst = gen_completion(n, 3, 1.0, 0.6, 0.3, True, RngStream(5, 0))
        write_matrix_market(tmp_path / "obs.mtx", inst.t_hat)
        out = tmp_path / "out"
        assert run_cli("complete", str(tmp_path / "obs.mtx"), "--p", "0.6",
                       "--k", "3", "--exact", "--out", str(out)) == 0
        m_hat = read_matrix_market(tmp_path / "obs.mtx") / 0.6
        assert _top_k(m_hat, 3) is not None
        u = sym_eig(m_hat).vectors[:, :3]
        expected = u @ (u.T @ m_hat)
        got = read_matrix_market(out / "completed.mm")
        assert np.max(np.abs(got - expected)) <= 1e-9 * np.max(np.abs(expected))

    @pytest.mark.parametrize("spec, bad", [("500,1,0.05", 500), ("-1,1,0.05", -1)])
    def test_ci_index_outside_matrix_is_usage_error(self, tmp_path, capsys, spec, bad):
        a = np.random.default_rng(8).standard_normal((60, 60))
        write_matrix_market(tmp_path / "obs.mtx", a + a.T)
        code = run_cli("complete", str(tmp_path / "obs.mtx"), "--p", "1",
                       "--k", "2", f"--ci={spec}", "--out", str(tmp_path / "out"))
        assert code == 2
        assert f"index {bad} lies outside 0..59" in capsys.readouterr().err

    @pytest.mark.parametrize("bump, code", [(1, 0), (1e7, 2)])
    def test_exact_accepts_what_the_sketch_accepts(self, tmp_path, capsys, bump, code):
        # a PSD matrix with entries near 1.5e7 and one entry moved by `bump`
        # ulps: one ulp passes the relative rule and fails an absolute 1e-10
        v = np.random.default_rng(9).standard_normal((400, 3))
        s = 1.5e7 * (np.ones((400, 400)) + 0.01 * (v @ v.T))
        s[0, 1] += bump * np.spacing(s[0, 1])
        write_matrix_market(tmp_path / "obs.mtx", s)
        if bump == 1:
            assert 1e-10 < s[0, 1] - s[1, 0] <= 1e-10 * np.max(s)
        for extra in ([], ["--exact"]):
            assert run_cli("complete", str(tmp_path / "obs.mtx"), "--p", "1",
                           "--k", "2", *extra, "--out", str(tmp_path / "out")) == code
        if code:
            assert capsys.readouterr().err.count("not symmetric") == 2

    def test_auto_p(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli("complete", "--gen",
                       "completion:n=80,k=2,p=0.6,sigma=0.2", "--k", "2",
                       "--p", "auto", "--ktilde", "6", "--an", "2", "--g", "3",
                       "--out", str(out))
        assert code == 0
        meta = json.loads((out / "meta.json").read_text())
        assert meta["p_used"] == pytest.approx(0.6, abs=0.05)

    def test_invalid_p(self, tmp_path):
        code = run_cli("complete", "--gen", "completion:n=50,k=2",
                       "--p", "nonsense", "--k", "2",
                       "--out", str(tmp_path / "o"))
        assert code == 2


class TestPca:
    @pytest.mark.parametrize("command,gen,key", [
        ("pca", "pca:d=50,m=100,k=2,p=0.5", "p"),
        ("complete", "completion:n=100,p=0.5", "p_used"),
    ])
    def test_given_p_wins_over_the_generators(self, tmp_path, command, gen, key):
        # one --p rule for both commands; pca used to keep the generator's p
        out = tmp_path / "out"
        assert run_cli(command, "--gen", gen, "--p", "0.3", "--k", "2",
                       "--out", str(out)) == 0
        meta = json.loads((out / "meta.json").read_text())
        assert meta[key] == 0.3 and meta["generator"] == gen

    def test_parity_with_exact_baseline(self, tmp_path):
        # rebuild the command's generated instance from the documented seed
        # derivation, then compare the written basis against the exact
        # eigendecomposition baseline on the same Gram surrogate
        from rsvdlab.applications import missing_pca_gram
        from rsvdlab.linalg import sym_eig
        from rsvdlab.models import gen_missing_pca
        from rsvdlab.subspace import procrustes_align

        out = tmp_path / "out"
        code = run_cli("pca", "--gen", "pca:d=300,m=400,k=4,p=0.1,sigma=1.0",
                       "--k", "4", "--ktilde", "9", "--an", "3", "--g", "3",
                       "--seed", "11", "--out", str(out))
        assert code == 0
        base = RngStream(11, 0).child("pca")
        inst = gen_missing_pca(300, 400, 4, 0.1, 1.0, base.child("model"))
        q = missing_pca_gram(inst.x_obs, 0.1)
        u_exact = sym_eig(q).vectors[:, :4]
        u_cli = read_matrix_market(out / "U.mm")
        assert (procrustes_align(u_cli, inst.u).residual_spectral
                <= 1.5 * procrustes_align(u_exact, inst.u).residual_spectral)

    def test_smoke_and_determinism(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        args = ["pca", "--gen", "pca:d=60,m=300,k=3,p=1.0,sigma=0.0",
                "--k", "3", "--ktilde", "8", "--an", "2", "--g", "3",
                "--seed", "5"]
        assert run_cli(*args, "--out", str(out1)) == 0
        assert run_cli(*args, "--out", str(out2)) == 0
        assert read_bytes_tree(out1) == read_bytes_tree(out2)
        u = read_matrix_market(out1 / "U.mm")
        assert u.shape == (60, 3)
        assert np.max(np.abs(u.T @ u - np.eye(3))) <= 1e-10


class TestExperiment:
    def test_bundled_plan_runs(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli("experiment", "--plan", "recovery_table_small",
                       "--out", str(out))
        assert code == 0
        lines = (out / "records.csv").read_text().splitlines()
        assert lines[0] == "kind,n,g,replicate,metric,value"
        assert len(lines) == 1 + 2 * 2 * 5 * 2  # sizes * g * reps * metrics

    def test_parallel_flag_reproduces(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out, par in ((out1, "1"), (out2, "4")):
            assert run_cli("experiment", "--plan", "recovery_table_small",
                           "--parallel", par, "--out", str(out)) == 0
        assert (out1 / "records.csv").read_bytes() == (out2 / "records.csv").read_bytes()

    def test_empty_plan_gives_header_only(self, tmp_path):
        plan = {
            "kind": "rate_regression",
            "model_params": {"k_tilde": 4, "a_n": 1},
            "n_grid": [50, 100, 200],
            "g_list": [1],
            "replicates": 1,
            "master_seed": 5,
        }
        # zero records is impossible by construction (replicates >= 1), so the
        # closest contract check: a plan whose tasks all fail still emits rows
        path = tmp_path / "plan.json"
        # the zero adjacency collapses the sketch at every size
        plan["model_params"]["rho_c"] = 0
        path.write_text(json.dumps(plan))
        out = tmp_path / "out"
        assert run_cli("experiment", "--plan", str(path), "--out", str(out)) == 0
        lines = (out / "records.csv").read_text().splitlines()
        assert lines[0] == "kind,n,g,replicate,metric,value"
        assert all(line.split(",")[4] == "error" for line in lines[1:])

    def test_oversized_sketch_fails_at_load(self, tmp_path, capsys):
        path = self._small_plan(tmp_path, lambda plan: plan["model_params"].update(
            k_tilde=500, a_n=1))
        n = min(json.loads(path.read_text())["n_grid"])
        assert run_cli("experiment", "--plan", str(path),
                       "--out", str(tmp_path / "o")) == 2
        assert (f"at n = {n}: k_tilde=500 exceeds matrix dimension {n}"
                in capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    def test_invalid_json_exit_2(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text("{not json")
        assert run_cli("experiment", "--plan", str(path),
                       "--out", str(tmp_path / "o")) == 2

    def _small_plan(self, tmp_path, edit):
        plan = json.loads(resources.files("rsvdlab").joinpath(
            "plans", "recovery_table_small.json").read_text())
        edit(plan)
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan))
        return path

    def test_missing_plan_key_is_named(self, tmp_path, capsys):
        path = self._small_plan(tmp_path, lambda plan: plan.pop("kind"))
        assert run_cli("experiment", "--plan", str(path),
                       "--out", str(tmp_path / "o")) == 2
        assert "plan is missing required field 'kind'" in capsys.readouterr().err

    @pytest.mark.parametrize("name,value", [
        ("g_list", [0, 2]), ("g_list", [1.5, 2]), ("g_list", [2, 2]),
        ("n_grid", [40.5, 60]), ("replicates", 1.7), ("paralelism", 2),
        ("master_seed", "7"),
    ], ids=["g0", "g1.5", "g_repeated", "n40.5", "replicates1.7", "paralelism",
            "seed_string"])
    def test_plan_field_fault_is_named(self, tmp_path, capsys, name, value):
        # each of these used to load: g = 0, g = 1.5 and n = 40.5 made error
        # rows, a repeated g repeated its records, replicates 1.7 ran once,
        # the misspelled field was ignored and the seed was cast by int()
        path = self._small_plan(tmp_path, lambda plan: plan.update({name: value}))
        with pytest.raises(ValueError, match=f"^plan:? .*'{name}'"):
            load_plan(path)
        assert run_cli("experiment", "--plan", str(path),
                       "--out", str(tmp_path / "o")) == 2
        assert f"'{name}'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_wrong_typed_plan_value_is_invalid_not_missing(self, tmp_path, capsys):
        path = self._small_plan(tmp_path,
                                lambda plan: plan["model_params"].update(d=None))
        assert run_cli("experiment", "--plan", str(path),
                       "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert "error: invalid plan field: " in err and "NoneType" in err
        assert "missing" not in err

    def test_env_seed_must_be_an_integer(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("RSVDLAB_SEED", "abc")
        assert run_cli("experiment", "--plan", "recovery_table_small",
                       "--out", str(tmp_path / "o")) == 2
        assert "RSVDLAB_SEED must be an integer, got 'abc'" in capsys.readouterr().err
        monkeypatch.setenv("RSVDLAB_SEED", "77")
        out = tmp_path / "ok"
        assert run_cli("experiment", "--plan", "recovery_table_small",
                       "--out", str(out)) == 0
        assert json.loads((out / "meta.json").read_text())["plan"]["master_seed"] == 77

    def test_misspelled_model_param_is_named(self, tmp_path, capsys):
        path = self._small_plan(tmp_path, lambda plan: plan["model_params"].update(
            rho_exponant=-0.5))
        assert run_cli("experiment", "--plan", str(path),
                       "--out", str(tmp_path / "o")) == 2
        assert ("error: recovery_table model_params: unknown key 'rho_exponant'"
                in capsys.readouterr().err)

    def test_meta_records_resolved_params(self, tmp_path):
        out = tmp_path / "out"
        path = self._small_plan(tmp_path, lambda plan: plan["model_params"].pop("d"))
        assert run_cli("experiment", "--plan", str(path), "--out", str(out)) == 0
        plan = json.loads((out / "meta.json").read_text())["plan"]
        assert "d" not in plan["model_params"]
        assert plan["resolved_params"]["d"] == 2
        assert plan["resolved_params"]["rho_exponent"] == 0.0

    def test_unknown_plan_exit_2(self, tmp_path):
        assert run_cli("experiment", "--plan", "no_such_plan",
                       "--out", str(tmp_path / "o")) == 2
