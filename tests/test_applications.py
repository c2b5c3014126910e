import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rsvdlab.applications import (
    complete,
    entry_ci_batch,
    exact_complete,
    match_labels,
    missing_pca_gram,
    rsvd_complete,
    rsvd_missing_pca,
    rsvd_spectral_cluster,
)
from rsvdlab.linalg import signed_qr, sym_eig
from rsvdlab.models import gen_completion, gen_missing_pca, gen_sbm
from rsvdlab.rng import RngStream
from rsvdlab.sketch import SketchConfig
from rsvdlab.subspace import procrustes_align

from _oracles import vstar_oracle


def cfg_for(stream, k=2, k_tilde=6, a_n=2, g=2):
    return SketchConfig(k=k, k_tilde=k_tilde, a_n=a_n, g=g, stream=stream)


class TestClustering:
    def test_two_disjoint_cliques(self):
        inst = gen_sbm(100, [[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5], 1.0, 2,
                       RngStream(70, 0))
        res = rsvd_spectral_cluster(inst.a, 2, cfg_for(RngStream(70, 1)),
                                    truth=inst.tau)
        assert res.exact_recovery
        assert res.error_rate == 0.0

    def test_relabeling_invariance(self):
        inst = gen_sbm(100, [[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5], 1.0, 2,
                       RngStream(70, 2))
        flipped = 1 - inst.tau
        res = rsvd_spectral_cluster(inst.a, 2, cfg_for(RngStream(70, 3)),
                                    truth=flipped)
        assert res.exact_recovery

    def test_kmedians_variant(self):
        inst = gen_sbm(80, [[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5], 1.0, 2,
                       RngStream(70, 4))
        res = rsvd_spectral_cluster(inst.a, 2, cfg_for(RngStream(70, 5)),
                                    clusterer="kmedians", truth=inst.tau)
        assert res.exact_recovery

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            rsvd_spectral_cluster(np.full((4, 4), 0.5), 2,
                                  cfg_for(RngStream(70, 6)))

    def test_short_truth_fails_before_the_sketch(self, monkeypatch):
        inst = gen_sbm(60, [[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5], 1.0, 2,
                       RngStream(70, 7))
        calls = []

        def spy(*args):
            calls.append(1)
            raise AssertionError("the sketch ran")
        monkeypatch.setattr("rsvdlab.applications.rs_rsvd_sym", spy)
        with pytest.raises(ValueError, match="truth holds 50 labels for 60 nodes"):
            rsvd_spectral_cluster(inst.a, 2, cfg_for(RngStream(70, 8)),
                                  truth=inst.tau[:50])
        assert calls == []


    @pytest.mark.parametrize("n_clusters, clusterer, message", [
        (0, "kmeans", "n_clusters"), (61, "kmeans", "n_clusters"),
        (2, "kmeanz", "method must be")])
    def test_bad_clustering_arguments_fail_before_the_sketch(
            self, monkeypatch, n_clusters, clusterer, message):
        inst = gen_sbm(60, [[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5], 1.0, 2,
                       RngStream(70, 9))

        def spy(*args):
            raise AssertionError("the sketch ran")
        monkeypatch.setattr("rsvdlab.applications.rs_rsvd_sym", spy)
        with pytest.raises(ValueError, match=message):
            rsvd_spectral_cluster(inst.a, n_clusters, cfg_for(RngStream(70, 10)),
                                  clusterer=clusterer)


class TestMatchLabels:
    def test_identity(self):
        tau = np.array([0, 1, 0, 1, 1])
        permuted, exact, err = match_labels(tau, tau)
        assert exact and err == 0.0
        assert np.array_equal(permuted, tau)

    def test_global_swap_absorbed(self):
        tau = np.array([0, 1, 0, 1, 1])
        permuted, exact, err = match_labels(1 - tau, tau)
        assert exact and err == 0.0
        assert np.array_equal(permuted, tau)

    def test_one_flipped_node(self):
        tau = np.array([0] * 50 + [1] * 50)
        tau_hat = tau.copy()
        tau_hat[3] = 1
        _, exact, err = match_labels(tau_hat, tau)
        assert not exact
        assert err == pytest.approx(0.01)

    @pytest.mark.parametrize("bad", [2, -1])
    def test_label_outside_clusters_rejected(self, bad):
        tau = np.array([0, 1, 0, 1])
        wrong = tau.copy()
        wrong[2] = bad
        for tau_hat, ref in ((wrong, tau), (tau, wrong)):
            with pytest.raises(ValueError, match=f"label {bad} lies outside 0..1"):
                match_labels(tau_hat, ref, n_clusters=2)

    def test_k_above_eight_unsupported(self):
        tau = np.arange(9)
        with pytest.raises(ValueError):
            match_labels(tau, tau, n_clusters=9)


class TestCompletion:
    def test_noiseless_complete_observation(self):
        inst = gen_completion(50, 3, 1.0, 1.0, 0.0, True, RngStream(71, 0))
        res = rsvd_complete(inst.t_hat, 1.0, cfg_for(RngStream(71, 1), k=3))
        err = np.max(np.abs(res.t_hat_g - inst.t))
        assert err <= 1e-8 * np.max(np.abs(inst.t))

    def test_matches_exact_spectral_oracle(self):
        # noisy instance: g = 5 tracks the exact eigendecomposition closely,
        # g = 1 is clearly worse
        inst = gen_completion(1000, 3, 1.0, 0.8, 1.0, True, RngStream(71, 2))
        from rsvdlab.sketch import rs_rsvd_sym_chain
        m_hat = inst.t_hat / inst.p
        cfg = SketchConfig(k=3, k_tilde=8, a_n=7, g=5, stream=RngStream(71, 3))
        outs = rs_rsvd_sym_chain(m_hat, cfg, [1, 5])
        exact = exact_complete(inst.t_hat, inst.p, 3)
        frob_exact = np.linalg.norm(exact.t_hat_g - inst.t) / 1000
        errs = {}
        for g, out in outs.items():
            t_hat_g = out.u_hat_g @ (out.u_hat_g.T @ m_hat)
            errs[g] = np.linalg.norm(t_hat_g - inst.t) / 1000
        assert errs[5] <= 1.1 * frob_exact
        assert errs[1] >= 1.5 * errs[5]

    def test_symmetrized_mode_is_symmetric_low_rank(self):
        inst = gen_completion(60, 2, 1.0, 0.7, 0.3, True, RngStream(71, 4))
        res = rsvd_complete(inst.t_hat, inst.p, cfg_for(RngStream(71, 5)),
                            mode="symmetrized")
        assert np.max(np.abs(res.t_hat_g - res.t_hat_g.T)) <= 1e-12
        svals = np.linalg.svd(res.t_hat_g, compute_uv=False)
        assert np.all(svals[4:] <= 1e-9 * svals[0])  # rank <= 2k
        one = rsvd_complete(inst.t_hat, inst.p, cfg_for(RngStream(71, 5)))
        svals1 = np.linalg.svd(one.t_hat_g, compute_uv=False)
        assert np.all(svals1[2:] <= 1e-9 * svals1[0])  # rank <= k

    def test_auto_p_estimation(self):
        inst = gen_completion(200, 2, 1.0, 0.6, 0.0, True, RngStream(71, 6))
        res = rsvd_complete(inst.t_hat, "auto", cfg_for(RngStream(71, 7)))
        observed = float(np.mean(inst.omega != 0.0))
        assert res.p_used == pytest.approx(observed)
        with pytest.raises(ValueError, match="estimated sampling rate is zero"):
            exact_complete(np.zeros((5, 5)), "auto", 2)


    def test_bad_mode_fails_before_the_sketch(self, monkeypatch):
        def spy(*args):
            raise AssertionError("the basis was computed")
        monkeypatch.setattr("rsvdlab.applications.rs_rsvd_sym", spy)
        monkeypatch.setattr("rsvdlab.applications.sym_eig", spy)
        t_hat = np.eye(20)
        with pytest.raises(ValueError, match="mode must be"):
            rsvd_complete(t_hat, 0.5, cfg_for(RngStream(71, 8)), mode="two_sided")
        with pytest.raises(ValueError, match="mode must be"):
            exact_complete(t_hat, 0.5, 2, mode="two_sided")


class TestEntryCI:
    def test_perfect_fit_zero_width(self):
        inst = gen_completion(40, 2, 1.0, 1.0, 0.0, True, RngStream(72, 0))
        res = rsvd_complete(inst.t_hat, 1.0, cfg_for(RngStream(72, 1)))
        ci = entry_ci_batch(res, [(3, 7, 0.05)])[0]
        assert ci.v_hat <= 1e-16
        assert ci.hi - ci.lo <= 1e-7
        assert ci.lo <= ci.estimate <= ci.hi

    def test_symmetry_under_symmetric_inputs(self):
        inst = gen_completion(100, 2, 1.0, 0.7, 0.5, True, RngStream(72, 2))
        res = rsvd_complete(inst.t_hat, inst.p, cfg_for(RngStream(72, 3)),
                            mode="symmetrized")
        a, b = entry_ci_batch(res, [(4, 9, 0.05), (9, 4, 0.05)])
        assert a.v_hat == pytest.approx(b.v_hat, abs=1e-12)

    def test_width_scales_with_quantile(self):
        inst = gen_completion(100, 2, 1.0, 0.7, 0.5, True, RngStream(72, 4))
        res = rsvd_complete(inst.t_hat, inst.p, cfg_for(RngStream(72, 5)))
        from rsvdlab.stats import normal_quantile_two_sided
        a, b = entry_ci_batch(res, [(2, 11, 0.05), (2, 11, 0.3173)])
        ratio = (a.hi - a.lo) / (b.hi - b.lo)
        expected = normal_quantile_two_sided(0.05) / normal_quantile_two_sided(0.3173)
        assert ratio == pytest.approx(expected, rel=1e-12)
        assert a.hi - a.lo == pytest.approx(2 * 1.959964 * np.sqrt(a.v_hat), rel=1e-6)

    def test_variance_proxy_tracks_oracle(self):
        # the data-driven variance stays within a factor 2 of the oracle
        inst = gen_completion(1500, 3, 1.0, 0.5, 1.0, True, RngStream(72, 6))
        cfg = SketchConfig(k=3, k_tilde=8, a_n=8, g=4, stream=RngStream(72, 7))
        res = rsvd_complete(inst.t_hat, inst.p, cfg)
        pairs = [(11, 700), (23, 1404), (901, 55), (1200, 301), (4, 1499)]
        cis = entry_ci_batch(res, [(i, j, 0.05) for i, j in pairs])
        for ci in cis:
            oracle = vstar_oracle(inst.t, inst.u, inst.p, inst.sigma, ci.i, ci.j)
            assert 0.5 <= ci.v_hat / oracle <= 2.0

    def test_alpha_validation(self):
        inst = gen_completion(30, 2, 1.0, 1.0, 0.0, True, RngStream(72, 8))
        res = rsvd_complete(inst.t_hat, 1.0, cfg_for(RngStream(72, 9)))
        with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\)"):
            entry_ci_batch(res, [(0, 1, 1.5)])

    @pytest.mark.parametrize("pair, bad", [((0, 30), 30), ((-1, 4), -1), ((2, -30), -30)])
    def test_index_outside_matrix_rejected(self, pair, bad):
        inst = gen_completion(30, 2, 1.0, 1.0, 0.0, True, RngStream(72, 8))
        res = rsvd_complete(inst.t_hat, 1.0, cfg_for(RngStream(72, 9)))
        with pytest.raises(ValueError, match=f"index {bad} lies outside 0..29"):
            entry_ci_batch(res, [(1, 2, 0.05), (*pair, 0.05)])


_LEVELS = st.sampled_from([0.01, 0.05, 0.1, 0.3173, 0.5, 0.9])


def _bits(ci):
    return ci.i, ci.j, ci.alpha, np.array([ci.estimate, ci.v_hat, ci.lo, ci.hi]).tobytes()


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 12), k=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
       mode=st.sampled_from(["one_sided", "symmetrized"]), data=st.data())
def test_one_mixed_batch_equals_one_call_per_spec(n, k, seed, mode, data):
    # one call with mixed levels, repeated specs and diagonal entries gives
    # each spec the interval a call of its own gives, bit for bit
    k = min(k, n)
    gen = np.random.default_rng(seed)
    a = gen.standard_normal((n, n))
    u = signed_qr(gen.standard_normal((n, k)))[0]
    res = complete(u, (a + a.T) / 2.0, 0.5, mode)
    index = st.integers(0, n - 1)
    specs = data.draw(st.lists(st.tuples(index, index, _LEVELS), min_size=1,
                               max_size=8))
    if data.draw(st.booleans()):
        specs += [specs[0], (specs[0][0], specs[0][0], specs[0][2])]
    batch = entry_ci_batch(res, specs)
    assert [(ci.i, ci.j, ci.alpha) for ci in batch] == specs
    for spec, ci in zip(specs, batch):
        assert [_bits(one) for one in entry_ci_batch(res, [spec])] == [_bits(ci)]


class TestMissingPca:
    def test_full_observation_concentration(self):
        # m >> d with no mask or noise: the diagonal-deleted Gram surrogate
        # concentrates and the sketch tracks the true principal subspace.
        # (The dimension must be large enough that deleting the diagonal is
        # a small perturbation; at d ~ 10 the deletion dominates the gap.)
        inst = gen_missing_pca(100, 5000, 3, 1.0, 0.0, RngStream(902, 0))
        cfg = SketchConfig(k=3, k_tilde=8, a_n=3, g=3, stream=RngStream(903, 0))
        u = rsvd_missing_pca(inst.x_obs, 1.0, cfg)
        assert procrustes_align(u, inst.u).residual_spectral <= 0.05

    def test_large_g_converges_to_exact_eigenvectors(self):
        inst = gen_missing_pca(200, 2000, 2, 1.0, 0.0, RngStream(904, 0))
        q = missing_pca_gram(inst.x_obs, 1.0)
        u_exact = sym_eig(q).vectors[:, :2]
        cfg = SketchConfig(k=2, k_tilde=6, a_n=2, g=6, stream=RngStream(905, 0))
        u = rsvd_missing_pca(inst.x_obs, 1.0, cfg)
        assert procrustes_align(u, u_exact).residual_spectral <= 1e-6

    def test_sparse_regime_parity_with_exact(self):
        inst = gen_missing_pca(700, 500, 4, 0.05, 1.0, RngStream(73, 4))
        q = missing_pca_gram(inst.x_obs, 0.05)
        u_exact = sym_eig(q).vectors[:, :4]
        base = procrustes_align(u_exact, inst.u).residual_spectral
        from rsvdlab.sketch import rs_rsvd_sym_chain
        cfg = SketchConfig(k=4, k_tilde=14, a_n=7, g=3, stream=RngStream(73, 5))
        outs = rs_rsvd_sym_chain(q, cfg, [1, 3])
        d2_g3 = procrustes_align(outs[3].u_hat_g, inst.u).residual_spectral
        assert d2_g3 <= 1.5 * base
        assert procrustes_align(outs[1].u_hat_g, inst.u).residual_spectral > d2_g3

    def test_gram_surrogate_shape(self):
        inst = gen_missing_pca(15, 40, 2, 0.5, 0.2, RngStream(73, 6))
        q = missing_pca_gram(inst.x_obs, 0.5)
        assert np.all(np.diag(q) == 0.0)
        assert np.array_equal(q, q.T)
