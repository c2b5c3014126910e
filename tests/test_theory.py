import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rsvdlab.linalg import signed_qr
from rsvdlab.models import gen_sbm, symmetric_bernoulli, symmetric_gaussian
from rsvdlab.rng import RngStream, gaussian_matrix, standard_normal
from rsvdlab.theory import clt_gamma_sbm_all, rate_exponent

# the reference oracles of C2 and C7 are checked here next to the theory
from _oracles import clt_gamma_row, eager_p_mat, power_diff_expansion, vstar_oracle

B0 = [[0.8, 0.3], [0.3, 0.8]]


class TestPowerDiffExpansion:
    def test_hand_algebra_g2(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        e = np.array([[5.0, -1.0], [0.0, 2.0]])
        m_hat = m + e
        expected = e @ e + e @ m + m @ e
        assert np.array_equal(power_diff_expansion(m_hat, m, 2), expected)

    def test_zero_noise(self):
        m = gaussian_matrix(4, 4, RngStream(50, 0))
        assert np.allclose(power_diff_expansion(m, m, 3), 0.0, atol=1e-12)

    def test_direct_powering_identity_g4(self):
        gen = RngStream(50, 1).generator()
        m_hat = standard_normal(gen, (5, 5))
        m = standard_normal(gen, (5, 5))
        direct = np.linalg.matrix_power(m_hat, 4) - np.linalg.matrix_power(m, 4)
        val = power_diff_expansion(m_hat, m, 4)
        assert np.linalg.norm(val - direct) <= 1e-10 * np.linalg.norm(direct)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), g=st.integers(2, 5))
    def test_identity_property(self, seed, g):
        gen = RngStream(50, seed).generator()
        m_hat = standard_normal(gen, (4, 4))
        m = standard_normal(gen, (4, 4))
        direct = np.linalg.matrix_power(m_hat, g) - np.linalg.matrix_power(m, g)
        val = power_diff_expansion(m_hat, m, g)
        scale = max(np.linalg.norm(direct), 1.0)
        assert np.linalg.norm(val - direct) <= 1e-9 * scale

    def test_g1_rejected(self):
        m = np.eye(2)
        with pytest.raises(ValueError):
            power_diff_expansion(m, m, 1)


class TestRateExponent:
    @pytest.mark.parametrize("beta,g,metric,regime,exponent", [
        (1.0, 2, "d2", "optimal", -0.5),
        (2.0 / 3.0, 2, "d2", "slow", -1.0 / 6.0),
        (0.5, 2, "d2", "none", 0.0),
        (1.0, 1, "d2", "none", 0.0),
        (0.5, 3, "d2", "optimal", -0.25),
        (1.0, 2, "d2inf", "optimal", -1.0),
        (2.0 / 3.0, 2, "d2inf", "slow", -2.0 / 3.0),
        (0.5, 2, "d2inf", "none", -0.5),
        (0.5, 4, "d2inf", "optimal", -0.75),
    ])
    def test_table(self, beta, g, metric, regime, exponent):
        verdict = rate_exponent(beta, g, metric)
        assert verdict.regime == regime
        assert verdict.exponent == pytest.approx(exponent, abs=1e-12)

    def test_boundaries(self):
        # g = 1 + 1/beta is inclusive for the optimal regime
        assert rate_exponent(0.5, 3, "d2").regime == "optimal"
        assert rate_exponent(1.0 / 3.0, 4, "d2").regime == "optimal"
        # g = 1/beta maps to "none" (slow and none exponents coincide there)
        assert rate_exponent(1.0 / 3.0, 3, "d2").regime == "none"
        assert rate_exponent(0.25, 4, "d2inf").regime == "none"
        # just above the lower boundary is "slow"
        assert rate_exponent(0.45, 3, "d2").regime == "slow"

    def test_validation(self):
        with pytest.raises(ValueError):
            rate_exponent(0.0, 2, "d2")
        with pytest.raises(ValueError):
            rate_exponent(0.5, 0, "d2")
        with pytest.raises(ValueError):
            rate_exponent(0.5, 2, "frobenius")


class TestCltGamma:
    def test_single_block_exchangeable(self):
        inst = gen_sbm(60, [[0.6]], [1.0], 1.0, 1, RngStream(51, 0))
        gammas = clt_gamma_sbm_all(inst.core, inst.tau, inst.u, inst.lam, 1.0)
        for g in gammas[1:]:
            assert np.max(np.abs(g - gammas[0])) <= 1e-10 * max(1.0, np.max(np.abs(gammas[0])))

    def test_symmetric_psd(self):
        inst = gen_sbm(80, B0, [0.5, 0.5], 0.9, 2, RngStream(51, 1))
        gammas = clt_gamma_sbm_all(inst.core, inst.tau, inst.u, inst.lam, 1.0)
        for i in (0, 17, 79):
            gamma = gammas[i]
            assert np.array_equal(gamma, gamma.T)
            assert np.min(np.linalg.eigvalsh(gamma)) >= -1e-12

    @pytest.mark.parametrize("b,pi,d", [
        ([[0.6]], [1.0], 1),
        (B0, [0.5, 0.5], 2),
        ([[0.7, 0.2, 0.1], [0.2, 0.5, 0.3], [0.1, 0.3, 0.9]], [0.3, 0.3, 0.4], 3),
        ([[0.7, 0.2, 0.1], [0.2, 0.5, 0.3], [0.1, 0.3, 0.9]], [0.3, 0.3, 0.4], 2),
        ([[0.7, 0.2, 0.1], [0.2, 0.5, 0.3], [0.1, 0.3, 0.9]], [0.5, 0.0, 0.5], 2),
    ], ids=["K1", "K2", "K3", "K3-d2", "K3-empty-block"])
    def test_batch_matches_single(self, b, pi, d):
        # the block-core form against the row-by-row sum over n x n probabilities
        inst = gen_sbm(40, b, pi, 0.8, d, RngStream(51, 2))
        gammas = clt_gamma_sbm_all(inst.core, inst.tau, inst.u, inst.lam, 1.0)
        p_mat = eager_p_mat(inst.core, inst.tau)
        for i in (0, 13, 39):
            single = clt_gamma_row(p_mat, inst.u, inst.lam, 1.0, i)
            assert np.allclose(gammas[i], single, atol=1e-12)

    def test_monte_carlo_covariance(self):
        # sample covariance of the scaled noise rows matches Gamma_i to 10%
        n, beta = 200, 1.0
        inst = gen_sbm(n, B0, [0.5, 0.5], 1.0, 2, RngStream(51, 3))
        i = 7
        gamma = clt_gamma_sbm_all(inst.core, inst.tau, inst.u, inst.lam, beta)[i]
        scale = float(n) ** ((1.0 + beta) / 2.0)
        rows = np.empty((5000, 2))
        inv_lam = 1.0 / inst.lam
        p_row = inst.core[inst.tau[i], inst.tau]
        for draw in range(5000):
            gen = RngStream(51, 100 + draw).generator()
            a = symmetric_bernoulli(n, (inst.core, inst.tau), gen)
            e_row = a[i, :] - p_row
            rows[draw] = scale * (e_row @ inst.u) * inv_lam
        emp = np.cov(rows.T)
        assert np.max(np.abs(emp - gamma)) <= 0.10 * np.max(np.abs(gamma))

    def test_zero_eigenvalue_rejected(self):
        u = signed_qr(gaussian_matrix(10, 2, RngStream(51, 4)))[0]
        with pytest.raises(ValueError, match="eigenvalues must be nonzero"):
            clt_gamma_sbm_all(np.full((1, 1), 0.5), np.zeros(10, dtype=int), u,
                              np.array([1.0, 0.0]), 1.0)

    def test_label_shape_checked(self):
        u = signed_qr(gaussian_matrix(10, 2, RngStream(51, 5)))[0]
        with pytest.raises(ValueError, match="shape mismatch"):
            clt_gamma_sbm_all(np.full((2, 2), 0.5), np.zeros(9, dtype=int), u,
                              np.ones(2), 1.0)


class TestVstarOracle:
    def test_no_noise_no_missingness(self):
        from rsvdlab.models import gen_completion
        inst = gen_completion(30, 2, 1.0, 1.0, 0.0, True, RngStream(52, 0))
        assert vstar_oracle(inst.t, inst.u, 1.0, 0.0, 3, 7) == pytest.approx(0.0, abs=1e-15)

    def test_symmetry(self):
        from rsvdlab.models import gen_completion
        inst = gen_completion(50, 2, 1.0, 0.6, 0.4, True, RngStream(52, 1))
        a = vstar_oracle(inst.t, inst.u, 0.6, 0.4, 5, 21)
        b = vstar_oracle(inst.t, inst.u, 0.6, 0.4, 21, 5)
        assert a == pytest.approx(b, rel=1e-12)

    def test_monte_carlo_variance(self):
        # empirical variance of [Z E]_ij + [E Z]_ij matches the formula
        from rsvdlab.models import gen_completion
        n, p, sigma = 200, 0.5, 0.4
        inst = gen_completion(n, 3, 1.0, p, sigma, True, RngStream(52, 2))
        zeta = inst.u @ inst.u.T
        i, j = 11, 87
        samples = np.empty(5000)
        for draw in range(5000):
            gen = RngStream(52, 500 + draw).generator()
            om = symmetric_bernoulli(n, p, gen)
            noise = symmetric_gaussian(n, sigma, gen)
            e = om * (inst.t + noise) / p - inst.t
            samples[draw] = zeta[i, :] @ e[:, j] + e[i, :] @ zeta[:, j]
        oracle = vstar_oracle(inst.t, inst.u, p, sigma, i, j)
        assert abs(samples.var(ddof=1) - oracle) <= 0.10 * oracle

    def test_invalid_p(self):
        from rsvdlab.models import gen_completion
        inst = gen_completion(20, 2, 1.0, 0.5, 0.1, True, RngStream(52, 3))
        with pytest.raises(ValueError):
            vstar_oracle(inst.t, inst.u, 0.0, 0.1, 0, 1)
