import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rsvdlab.models import (
    _block_eigenpairs,
    check_sbm,
    edm_from_points,
    gen_completion,
    gen_edm,
    gen_missing_pca,
    gen_sbm,
    symmetric_gaussian,
)
from rsvdlab.rng import RngStream
from rsvdlab.subspace import procrustes_align

from _oracles import block_eigenpairs_reference, eager_p_mat

B0 = [[0.8, 0.3], [0.3, 0.8]]


def reconstruction_rel_err(inst):
    signal = eager_p_mat(inst.core, inst.tau) if hasattr(inst, "core") else inst.t
    recon = (inst.u * inst.lam) @ inst.u.T
    return np.linalg.norm(recon - signal) / max(np.linalg.norm(signal), 1e-300)


class TestSbm:
    def test_rho_zero_gives_empty_graph(self):
        inst = gen_sbm(50, B0, [0.5, 0.5], 0.0, 2, RngStream(1, 0))
        assert np.all(inst.a == 0.0)

    def test_single_block_full_density(self):
        inst = gen_sbm(30, [[1.0]], [1.0], 1.0, 1, RngStream(1, 1))
        assert np.all(inst.a == 1.0)

    def test_mean_degree(self):
        # expected degree n * pi' B0 pi = 0.55 n; 3% band over 20 replicates
        n = 2000
        degrees = []
        for rep in range(20):
            inst = gen_sbm(n, B0, [0.5, 0.5], 1.0, 2, RngStream(2, rep))
            degrees.append(inst.a.sum() / n)
        mean_degree = float(np.mean(degrees))
        assert abs(mean_degree - 0.55 * n) <= 0.03 * 0.55 * n

    def test_ground_truth_eigenpairs(self):
        inst = gen_sbm(300, B0, [0.5, 0.5], 0.7, 2, RngStream(3, 0))
        assert reconstruction_rel_err(inst) <= 1e-9
        assert np.all(np.abs(inst.lam[:-1]) >= np.abs(inst.lam[1:]) - 1e-12)

    def test_bit_exact_regeneration(self):
        a = gen_sbm(200, B0, [0.5, 0.5], 0.5, 2, RngStream(4, 9))
        b = gen_sbm(200, B0, [0.5, 0.5], 0.5, 2, RngStream(4, 9))
        assert np.array_equal(a.a, b.a)
        assert np.array_equal(a.tau, b.tau)
        assert np.array_equal(a.u, b.u)

    def test_coherence_bound(self):
        inst = gen_sbm(500, B0, [0.5, 0.5], 1.0, 2, RngStream(5, 0))
        max_row_norm = np.sqrt(np.max(np.sum(inst.u ** 2, axis=1)))
        assert np.sqrt(500) * max_row_norm <= 3.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            gen_sbm(10, B0, [0.7, 0.7], 1.0, 2, RngStream(1))  # pi sums to 1.4
        with pytest.raises(ValueError):
            gen_sbm(10, B0, [0.5, 0.5], 1.3, 2, RngStream(1))  # rho*max(B) > 1
        with pytest.raises(ValueError):
            gen_sbm(10, B0, [0.5, 0.5], 1.0, 3, RngStream(1))  # d > K

    def test_zero_truth_column_raises(self):
        # the stream draws labels [0, 0, 0, 1]: block 2 is empty, and d = 3
        # would put its all-zero eigenvector in the truth basis
        with pytest.raises(ValueError, match="2 of 3 blocks have nodes"):
            gen_sbm(4, 0.5 + 0.3 * np.eye(3), np.full(3, 1.0 / 3.0), 1.0, 3,
                    RngStream(0, 0))


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 6), n=st.integers(1, 5000), seed=st.integers(0, 2**32 - 1),
       asym=st.booleans(), empty=st.booleans())
def test_block_eigenpairs_match_reference_bits(k, n, seed, asym, empty):
    # cores carry up to the 1e-12 asymmetry check_sbm allows; sym_eig
    # symmetrizes them exactly as the reference always does
    gen = np.random.default_rng(seed)
    b = gen.random((k, k))
    b = (b + b.T) / 2.0
    if asym:
        b = np.clip(b + np.triu(1e-12 * (2.0 * gen.random((k, k)) - 1.0), 1), 0.0, 1.0)
    pi = gen.dirichlet(np.ones(k))
    if empty and k > 1:
        pi[gen.integers(k)] = 0.0
        pi /= pi.sum()
    b, pi = check_sbm(n, b, pi, 1.0, k)
    core = gen.random() * b
    labels = gen.choice(k, size=n, p=pi)
    vals, u = _block_eigenpairs(labels, core, k)
    ref_vals, ref_u = block_eigenpairs_reference(labels, core, k)
    assert vals.tobytes() == ref_vals.tobytes()
    # a column that vanishes on every node (its eigenvector lives on empty
    # blocks) keeps whichever sign of zero the k x k sign fix left it
    live = np.any(ref_u != 0.0, axis=0)
    assert u[:, live].tobytes() == ref_u[:, live].tobytes()
    assert np.array_equal(u, ref_u)


class TestCompletion:
    def test_full_observation_no_noise(self):
        inst = gen_completion(40, 3, 1.0, 1.0, 0.0, True, RngStream(7, 0))
        assert np.array_equal(inst.t_hat, inst.t)

    def test_noiseless_entries_match_signal(self):
        inst = gen_completion(60, 2, 1.0, 0.5, 0.0, True, RngStream(7, 1))
        mask = inst.omega != 0.0
        assert np.array_equal(inst.t_hat[mask], inst.t[mask])
        assert np.all(inst.t_hat[~mask] == 0.0)

    def test_observed_fraction_binomial_band(self):
        inst = gen_completion(800, 3, 1.0, 0.4, 0.1, True, RngStream(7, 2))
        iu = np.triu_indices(800)
        frac = float(np.mean(inst.omega[iu]))
        assert 0.37 <= frac <= 0.43

    def test_homogeneous_entry_scale_and_truth(self):
        inst = gen_completion(150, 3, 2.0, 0.8, 0.0, True, RngStream(7, 3))
        assert np.max(np.abs(inst.t)) == pytest.approx(2.0, rel=1e-12)
        assert np.min(np.abs(inst.t)) >= 0.2 * np.max(np.abs(inst.t))
        assert reconstruction_rel_err(inst) <= 1e-9
        lam_k = np.min(np.abs(inst.lam))
        assert lam_k >= 0.05 * 150  # spectrum bounded away from zero

    def test_heterogeneous_mode(self):
        inst = gen_completion(80, 4, 1.0, 1.0, 0.0, False, RngStream(7, 4))
        assert reconstruction_rel_err(inst) <= 1e-9
        assert np.linalg.matrix_rank(inst.t) == 4

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            gen_completion(20, 2, 1.0, 0.0, 0.1, True, RngStream(1))


class TestMissingPca:
    def test_column_space_concentrates(self):
        inst = gen_missing_pca(10, 5000, 3, 1.0, 0.0, RngStream(8, 0))
        gram = inst.x_obs @ inst.x_obs.T
        vals, vecs = np.linalg.eigh(gram)
        top = vecs[:, np.argsort(-np.abs(vals))[:3]]
        assert procrustes_align(top, inst.u).residual_spectral <= 1e-6

    def test_full_rank_full_observation_identity(self):
        inst = gen_missing_pca(6, 50, 6, 1.0, 0.0, RngStream(8, 1))
        assert np.allclose(inst.x_obs, inst.b @ inst.f, atol=0.0)

    def test_large_sweep_setting_smoke(self):
        inst = gen_missing_pca(3000, 1000, 4, 0.02, 1.0, RngStream(8, 2))
        assert np.isfinite(inst.x_obs).all()
        recon = (inst.u * inst.lam) @ inst.u.T
        rel = np.linalg.norm(recon - inst.b @ inst.b.T) / np.linalg.norm(inst.b @ inst.b.T)
        assert rel <= 1e-9


class TestEdm:
    def test_identical_points_zero(self):
        d_mat = edm_from_points(np.array([[1.5, 2.5], [1.5, 2.5]]))
        assert np.all(d_mat == 0.0)

    def test_collinear_points_rank_three(self):
        t = np.linspace(0.0, 1.0, 12)
        points = np.stack([1.0 + 2.0 * t, -3.0 + 0.5 * t], axis=1)
        d_mat = edm_from_points(points)
        svals = np.linalg.svd(d_mat, compute_uv=False)
        assert svals[3] <= 1e-10 * svals[0]

    def test_rank_bound_random(self):
        d_mat, points = gen_edm(50, 2, 10.0, RngStream(9, 0))
        svals = np.linalg.svd(d_mat, compute_uv=False)
        assert svals[4] <= 1e-10 * svals[0]
        assert np.all(np.diag(d_mat) == 0.0)
        assert np.array_equal(d_mat, d_mat.T)
        i, j = 3, 7
        assert d_mat[i, j] == pytest.approx(np.sum((points[i] - points[j]) ** 2))

    def test_dim_validation(self):
        with pytest.raises(ValueError):
            gen_edm(10, 4, 1.0, RngStream(1))


class TestWigner:
    def test_exact_symmetry(self):
        e = symmetric_gaussian(80, 0.7, RngStream(10, 0).generator())
        assert np.array_equal(e, e.T)

    def test_spectral_norm_semicircle_band(self):
        n = 500
        hits = 0
        for rep in range(10):
            e = symmetric_gaussian(n, 1.0, RngStream(10, 2 + rep).generator())
            spec = np.linalg.norm(e, 2)
            if 1.8 * np.sqrt(n) <= spec <= 2.2 * np.sqrt(n):
                hits += 1
        assert hits >= 9

    def test_entry_mean_band(self):
        n = 200
        means = [float(symmetric_gaussian(n, 1.0, RngStream(10, 20 + rep).generator()).mean())
                 for rep in range(10)]
        assert abs(np.mean(means)) <= 4.0 / n
