import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from rsvdlab.applications import complete, rsvd_complete
from rsvdlab.linalg import (NotSymmetricError, RankDeficiencyError, orthonormality_defect,
                            signed_qr, svd_thin, sym_eig)
from rsvdlab.models import gen_sbm, symmetric_gaussian
from rsvdlab.rng import RngStream, gaussian_matrix, standard_normal
from rsvdlab.sketch import (
    SketchConfig,
    _power_chain,
    combined_sketch,
    resolve_a_n,
    rs_rsvd_asym,
    rs_rsvd_sym,
    rs_rsvd_sym_chain,
)
from rsvdlab.subspace import procrustes_align

from _oracles import dense_symmetry_defect, naive_block_svds, naive_repeated_sketch


def rank_k_symmetric(n, k, seed, lam=None):
    gen = RngStream(808, seed).generator()
    basis = signed_qr(standard_normal(gen, (n, k)))[0]
    if lam is None:
        lam = 1.0 + 2.0 * gen.random(k)
    return (basis * lam) @ basis.T, basis, np.asarray(lam, dtype=np.float64)


def chain_at(m_hat, g_mat, g, k):
    """Output of the symmetric chain at power g on the caller's own draw."""
    return _power_chain(g_mat, [m_hat] * g, {g: g}, k, g_mat.shape[1])[g]


def test_power_sketch_identity():
    g_mat = gaussian_matrix(6, 3, RngStream(7, 0))
    u_ref, s_ref, _ = svd_thin(g_mat)
    for k in (1, 2, 3):
        out = chain_at(np.eye(6), g_mat, 3, k)
        assert out.sigma_k_sketch == pytest.approx(s_ref[k - 1], rel=1e-10)
        assert procrustes_align(out.u_hat_g, u_ref[:, :k]).residual_spectral <= 1e-10


def test_power_sketch_diagonal_powers():
    svals = [chain_at(np.diag([2.0, 1.0]), np.eye(2), 4, k).sigma_k_sketch
             for k in (1, 2)]
    assert np.allclose(svals, [16.0, 1.0], rtol=1e-12)


def test_power_sketch_matches_direct_cube():
    a = gaussian_matrix(30, 30, RngStream(7, 1))
    m_hat = (a + a.T) / 2.0
    g_mat = gaussian_matrix(30, 5, RngStream(7, 2))
    direct = m_hat @ m_hat @ m_hat @ g_mat
    u_ref, s_ref, _ = svd_thin(direct)
    for k in range(1, 6):
        out = chain_at(m_hat, g_mat, 3, k)
        assert out.sigma_k_sketch == pytest.approx(s_ref[k - 1], rel=1e-7)
    assert procrustes_align(out.u_hat_g, u_ref).residual_spectral <= 1e-8


def test_power_sketch_total_collapse_names_iteration():
    g_mat = gaussian_matrix(5, 2, RngStream(7, 3))
    with pytest.raises(RankDeficiencyError) as err:
        chain_at(np.zeros((5, 5)), g_mat, 2, 1)
    assert err.value.iteration == 1


def test_power_sketch_partial_collapse_of_one_block():
    # block 0 lies in the null space of M_hat while block 1 survives; the
    # stacked QR checks every block, so the chain still stops at step 1
    m_hat = np.diag([1.0, 1.0, 0.0, 0.0, 0.0, 0.0])
    g_mat = gaussian_matrix(6, 4, RngStream(7, 5))
    g_mat[:2, :2] = 0.0
    with pytest.raises(RankDeficiencyError) as err:
        _power_chain(g_mat, [m_hat] * 2, {2: 2}, 1, 2)
    assert err.value.iteration == 1


def test_power_sketch_rejects_asymmetric():
    cfg = SketchConfig(k=1, k_tilde=1, a_n=1, g=1, stream=RngStream(7, 4))
    with pytest.raises(NotSymmetricError, match="not symmetric"):
        rs_rsvd_sym(np.array([[0.0, 1.0], [0.0, 0.0]]), cfg)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(2, 40), e=st.integers(-6, 12), seed=st.integers(0, 2**32 - 1),
       where=st.tuples(st.floats(0, 1, exclude_max=True), st.floats(0, 1, exclude_max=True)),
       factor=st.floats(0.5, 2.0))
def test_sketch_and_exact_baseline_share_one_symmetry_rule(n, e, seed, where, factor):
    # one entry moved by about the threshold SYM_TOL * max(1, max|S|)
    a = np.random.default_rng(seed).standard_normal((n, n))
    s = (a + a.T) * 10.0 ** e
    i, j = int(where[0] * n), int(where[1] * n)
    s[i, j] += factor * 1e-10 * max(1.0, float(np.max(np.abs(s))))
    expected = dense_symmetry_defect(s) > 1e-10 * max(1.0, float(np.max(np.abs(s))))
    cfg = SketchConfig(k=1, k_tilde=2, a_n=1, g=1, stream=RngStream(7, 6))
    verdicts = []
    for call in (lambda: rs_rsvd_sym(s, cfg), lambda: sym_eig(s, 1)):
        try:
            call()
            verdicts.append(False)
        except NotSymmetricError:
            verdicts.append(True)
    assert verdicts == [expected, expected]


def test_rs_rsvd_exact_low_rank_diagonal():
    m_hat = np.zeros((20, 20))
    m_hat[0, 0], m_hat[1, 1] = 5.0, 4.0
    cfg = SketchConfig(k=2, k_tilde=4, a_n=1, g=1, stream=RngStream(31, 0))
    out = rs_rsvd_sym(m_hat, cfg)
    target = np.zeros((20, 2))
    target[0, 0] = target[1, 1] = 1.0
    assert procrustes_align(out.u_hat_g, target).residual_spectral <= 1e-8
    assert np.allclose(out.sigma_tilde, [5.0, 4.0], atol=1e-8)


def test_pure_signal_is_exact_any_g():
    m, basis, _ = rank_k_symmetric(60, 3, 1)
    for g in (1, 2, 3):
        cfg = SketchConfig(k=3, k_tilde=3, a_n=2, g=g, stream=RngStream(31, g))
        out = rs_rsvd_sym(m, cfg)
        res = procrustes_align(out.u_hat_g, basis)
        assert res.residual_spectral <= 1e-8
        assert res.residual_two_inf <= 1e-8


def test_monotone_improvement_against_exact_eigenvectors():
    # fixed noisy instance; more power iterations track the exact leading
    # eigenvectors of the observation at least as well
    inst = gen_sbm(200, [[0.8, 0.3], [0.3, 0.8]], [0.5, 0.5], 1.0, 2, RngStream(31, 5))
    u_exact = sym_eig(inst.a).vectors[:, :2]
    cfg = SketchConfig(k=2, k_tilde=4, a_n=3, g=3, stream=RngStream(31, 6))
    outs = rs_rsvd_sym_chain(inst.a, cfg, [1, 3])
    assert (procrustes_align(outs[3].u_hat_g, u_exact).residual_spectral
            <= procrustes_align(outs[1].u_hat_g, u_exact).residual_spectral)


def test_chain_matches_individual_runs():
    a = gaussian_matrix(40, 40, RngStream(33, 0))
    m_hat = (a + a.T) / 2.0
    cfg3 = SketchConfig(k=2, k_tilde=5, a_n=2, g=3, stream=RngStream(33, 1))
    chain = rs_rsvd_sym_chain(m_hat, cfg3, [1, 2, 3])
    for g in (1, 2, 3):
        cfg = SketchConfig(k=2, k_tilde=5, a_n=2, g=g, stream=RngStream(33, 1))
        single = rs_rsvd_sym(m_hat, cfg)
        assert np.array_equal(single.u_hat_g, chain[g].u_hat_g)
        assert np.array_equal(single.sigma_tilde, chain[g].sigma_tilde)
        assert single.chosen_sketch == chain[g].chosen_sketch


def test_selection_invariance_under_block_permutation():
    a = gaussian_matrix(50, 50, RngStream(35, 0))
    m_hat = (a + a.T) / 2.0
    cfg = SketchConfig(k=2, k_tilde=4, a_n=3, g=2, stream=RngStream(35, 1))
    g_star = combined_sketch(50, cfg)
    base = _power_chain(g_star, [m_hat] * 2, {2: 2}, 2, 4)[2]
    perm = [2, 0, 1]
    permuted = np.hstack([g_star[:, b * 4:(b + 1) * 4] for b in perm])
    swapped = _power_chain(permuted, [m_hat] * 2, {2: 2}, 2, 4)[2]
    assert swapped.chosen_sketch == perm.index(base.chosen_sketch)
    p_base = base.u_hat_g @ base.u_hat_g.T
    p_swap = swapped.u_hat_g @ swapped.u_hat_g.T
    assert np.max(np.abs(p_base - p_swap)) <= 1e-8


def test_selection_tie_breaks_to_lowest_block():
    a = gaussian_matrix(30, 30, RngStream(35, 8))
    m_hat = (a + a.T) / 2.0
    block = gaussian_matrix(30, 4, RngStream(35, 9))
    duplicated = np.hstack([block, block])
    out = _power_chain(duplicated, [m_hat] * 2, {2: 2}, 2, 4)[2]
    assert out.chosen_sketch == 0


def test_sigma_k_consistency_direct_multiplication():
    a = gaussian_matrix(24, 24, RngStream(35, 2))
    m_hat = (a + a.T) / 2.0
    cfg = SketchConfig(k=3, k_tilde=5, a_n=2, g=3, stream=RngStream(35, 3))
    out = rs_rsvd_sym(m_hat, cfg)
    g_star = combined_sketch(24, cfg)
    block = g_star[:, out.chosen_sketch * 5:(out.chosen_sketch + 1) * 5]
    direct = np.linalg.matrix_power(m_hat, 3) @ block
    _, s_ref, _ = svd_thin(direct)
    assert out.sigma_k_sketch == pytest.approx(s_ref[2], rel=1e-7)


def test_naive_multi_pass_oracle_agrees():
    a = gaussian_matrix(36, 36, RngStream(35, 4))
    m_hat = (a + a.T) / 2.0
    cfg = SketchConfig(k=2, k_tilde=6, a_n=4, g=2, stream=RngStream(35, 5))
    out = rs_rsvd_sym(m_hat, cfg)
    g_star = combined_sketch(36, cfg)
    _, chosen_ref, u_ref = naive_repeated_sketch(m_hat, g_star, 2, 6, 4, 2)
    assert out.chosen_sketch == chosen_ref
    assert procrustes_align(out.u_hat_g, u_ref).residual_spectral <= 1e-7


def test_projector_idempotence():
    a = gaussian_matrix(30, 30, RngStream(35, 6))
    m_hat = (a + a.T) / 2.0
    cfg = SketchConfig(k=4, k_tilde=6, a_n=2, g=2, stream=RngStream(35, 7))
    out = rs_rsvd_sym(m_hat, cfg)
    p = out.u_hat_g @ out.u_hat_g.T
    assert np.max(np.abs(p @ p - p)) <= 1e-9


@pytest.mark.parametrize("c", [1e-200, 1e-60, 1e60, 1e200])
def test_basis_does_not_depend_on_the_scale(c):
    # the R products grow like ||M||^g and are rescaled by powers of two, so
    # at g = 8 a scale of 1e+-60 neither underflows nor overflows them
    m, _, _ = rank_k_symmetric(200, 3, 11, lam=np.array([30.0, 20.0, 15.0]))
    m = m + symmetric_gaussian(200, 0.1, RngStream(37, 0).generator())
    cfg = SketchConfig(k=3, k_tilde=8, a_n=2, g=8, stream=RngStream(37, 1))
    base = rs_rsvd_sym(m, cfg)
    out = rs_rsvd_sym(c * m, cfg)
    assert procrustes_align(out.u_hat_g, base.u_hat_g).residual_spectral <= 1e-10
    assert out.sigma_tilde == pytest.approx(c * base.sigma_tilde, rel=1e-10)


def test_singular_value_error_under_small_noise():
    # loose bound: with relative noise 1e-3 and g >= 2 the sketched singular
    # values track the signal's to within 10 * ||E||
    m, _, lam = rank_k_symmetric(80, 3, 9, lam=np.array([3.0, 2.0, 1.0]))
    noise = symmetric_gaussian(80, 1.0, RngStream(36, 0).generator())
    spectral_e = np.linalg.svd(noise, compute_uv=False)[0]
    scale = 1e-3 * 3.0 / spectral_e
    e = noise * scale
    cfg = SketchConfig(k=3, k_tilde=6, a_n=2, g=2, stream=RngStream(36, 1))
    out = rs_rsvd_sym(m + e, cfg)
    sigma_true = np.sort(np.abs(lam))[::-1]
    assert np.max(np.abs(out.sigma_tilde - sigma_true)) <= 10.0 * np.linalg.norm(e, 2)


def test_low_rank_modes():
    # the sketch returns the basis only; the completion's low-rank modes are
    # the one shared completion applied to that basis
    a = gaussian_matrix(25, 25, RngStream(36, 2))
    m_hat = (a + a.T) / 2.0
    cfg = SketchConfig(k=3, k_tilde=5, a_n=2, g=2, stream=RngStream(36, 3))
    one = rsvd_complete(m_hat, 1.0, cfg, mode="one_sided")
    sym = rsvd_complete(m_hat, 1.0, cfg, mode="symmetrized")
    for res in (one, sym):
        again = complete(res.u_hat_g, m_hat, 1.0, res.mode)
        assert np.array_equal(res.t_hat_g, again.t_hat_g)
        assert np.array_equal(res.m_hat, m_hat)
    assert np.array_equal(one.u_hat_g, rs_rsvd_sym(m_hat, cfg).u_hat_g)
    proj = one.u_hat_g @ (one.u_hat_g.T @ m_hat)
    assert np.allclose(one.t_hat_g, proj, atol=1e-12)
    assert np.allclose(sym.t_hat_g, (proj + proj.T) / 2.0, atol=1e-12)
    with pytest.raises(ValueError, match="bogus"):
        rsvd_complete(m_hat, 1.0, cfg, mode="bogus")
    with pytest.raises(ValueError, match="bogus"):
        complete(one.u_hat_g, m_hat, 1.0, "bogus")


def test_rank_exceeds_sketch_rank():
    m_hat = np.zeros((12, 12))
    m_hat[0, 0] = 1.0
    cfg = SketchConfig(k=3, k_tilde=4, a_n=1, g=2, stream=RngStream(36, 4))
    with pytest.raises(RankDeficiencyError):
        rs_rsvd_sym(m_hat, cfg)


def test_config_validation():
    with pytest.raises(ValueError):
        SketchConfig(k=0, k_tilde=2, a_n=1, g=1, stream=RngStream(1))
    with pytest.raises(ValueError):
        SketchConfig(k=3, k_tilde=2, a_n=1, g=1, stream=RngStream(1))
    cfg = SketchConfig(k=2, k_tilde=8, a_n=3, g=1, stream=RngStream(1))
    with pytest.raises(ValueError):
        cfg.validate_for((10, 10))  # a_n * k_tilde = 24 > 10


def test_resolve_a_n_rules():
    assert resolve_a_n(4, 100) == 4
    assert resolve_a_n("4", 100) == 4
    assert resolve_a_n("ceil_log", 100) == 5
    assert resolve_a_n("ceil_log_sq", 100) == 22
    assert resolve_a_n("ceil_log", 1) == 1
    for bad in (0, "0", "-2", 2.5, "2.5", "log", True, None):
        with pytest.raises(ValueError, match="a_n rule"):
            resolve_a_n(bad, 100)


def test_asym_wide_input_fewer_rows_than_k_tilde():
    # every block's QR needs k_tilde rows, not only k_tilde columns
    m_hat = gaussian_matrix(6, 200, RngStream(41, 20))
    cfg = SketchConfig(k=2, k_tilde=8, a_n=3, g=1, stream=RngStream(41, 21))
    with pytest.raises(ValueError, match="k_tilde=8"):
        rs_rsvd_asym(m_hat, cfg)


def test_asym_diagonal_like():
    m_hat = np.array([[7.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
    cfg = SketchConfig(k=1, k_tilde=1, a_n=1, g=1, stream=RngStream(41, 0))
    out = rs_rsvd_asym(m_hat, cfg)
    e1 = np.zeros((3, 1)); e1[0, 0] = 1.0
    # the second singular direction is damped by (2/7)^(2g+1), not removed
    assert procrustes_align(out.u_hat_g, e1).residual_spectral <= 0.05
    assert out.sigma_tilde[0] == pytest.approx(7.0, rel=0.01)
    # exactly rank-1 input makes the recovery exact
    m_rank1 = np.array([[7.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
    out1 = rs_rsvd_asym(m_rank1, cfg)
    assert procrustes_align(out1.u_hat_g, e1).residual_spectral <= 1e-10
    assert out1.sigma_tilde[0] == pytest.approx(7.0, abs=1e-10)


def test_asym_pure_signal_exact():
    gen = RngStream(41, 1).generator()
    left = signed_qr(standard_normal(gen, (15, 3)))[0]
    right = signed_qr(standard_normal(gen, (9, 3)))[0]
    m = (left * np.array([4.0, 2.5, 1.5])) @ right.T
    for g in (1, 2):
        cfg = SketchConfig(k=3, k_tilde=4, a_n=2, g=g, stream=RngStream(41, 2 + g))
        out = rs_rsvd_asym(m, cfg)
        assert procrustes_align(out.u_hat_g, left).residual_spectral <= 1e-8


def test_asym_noisy_error_decreases_with_g():
    gen = RngStream(41, 9).generator()
    left = signed_qr(standard_normal(gen, (40, 2)))[0]
    right = signed_qr(standard_normal(gen, (25, 2)))[0]
    m = (left * np.array([6.0, 4.0])) @ right.T
    m_hat = m + 0.35 * standard_normal(gen, (40, 25))
    u_exact = svd_thin(m_hat)[0][:, :2]
    base_q = signed_qr(m_hat @ gaussian_matrix(25, 3, RngStream(41, 10)))[0]
    base_u = svd_thin(base_q @ (base_q.T @ m_hat))[0][:, :2]
    cfg = SketchConfig(k=2, k_tilde=3, a_n=2, g=3, stream=RngStream(41, 11))
    out = rs_rsvd_asym(m_hat, cfg)
    assert (procrustes_align(out.u_hat_g, u_exact).residual_spectral
            <= procrustes_align(base_u, u_exact).residual_spectral)
    assert orthonormality_defect(out.u_hat_g) <= 1e-10


def _assert_engine_matches_oracle(m_hat, cfg, rectangular):
    """Same chosen block and subspace as the dense multi-pass oracle, on
    draws where both are determined: no tie between the two largest block
    sigma_k, and a winning block whose k-th singular value stands clear of
    its neighbour (relative gap above 1e-6)."""
    out = rs_rsvd_asym(m_hat, cfg) if rectangular else rs_rsvd_sym(m_hat, cfg)
    g_star = combined_sketch(m_hat.shape[1], cfg)
    k = cfg.k
    svds = naive_block_svds(m_hat, g_star, cfg.k_tilde, cfg.a_n, cfg.g,
                            rectangular=rectangular)
    top = sorted((s[k - 1] for _, s in svds), reverse=True)
    assume(len(top) == 1 or top[0] - top[1] > 1e-8 * top[0])
    _, chosen, u_ref = naive_repeated_sketch(m_hat, g_star, k, cfg.k_tilde,
                                             cfg.a_n, cfg.g, rectangular=rectangular)
    s = svds[chosen][1]
    assume(s[k - 1] - (s[k] if k < s.size else 0.0) > 1e-6 * s[0])
    assert out.chosen_sketch == chosen
    assert procrustes_align(out.u_hat_g, u_ref).residual_spectral <= 1e-7


_shapes = dict(seed=st.integers(0, 2**31 - 1), a_n=st.integers(1, 5),
               g=st.integers(1, 3), k_tilde=st.integers(1, 4),
               k_frac=st.floats(0.0, 1.0), extra=st.integers(0, 10))


@settings(max_examples=60, deadline=None)
@given(**_shapes)
def test_property_sym_engine_matches_dense_oracle(seed, a_n, g, k_tilde, k_frac,
                                                  extra):
    n = a_n * k_tilde + extra
    k = 1 + int(k_frac * (k_tilde - 1))
    a = gaussian_matrix(n, n, RngStream(37, seed))
    cfg = SketchConfig(k=k, k_tilde=k_tilde, a_n=a_n, g=g,
                       stream=RngStream(38, seed))
    _assert_engine_matches_oracle((a + a.T) / 2.0, cfg, rectangular=False)


@settings(max_examples=60, deadline=None)
@given(rows=st.integers(0, 12), **_shapes)
def test_property_asym_engine_matches_dense_oracle(seed, a_n, g, k_tilde, k_frac,
                                                   extra, rows):
    n_cols = a_n * k_tilde + extra
    k = 1 + int(k_frac * (k_tilde - 1))
    m_hat = gaussian_matrix(k_tilde + rows, n_cols, RngStream(39, seed))
    cfg = SketchConfig(k=k, k_tilde=k_tilde, a_n=a_n, g=g,
                       stream=RngStream(40, seed))
    _assert_engine_matches_oracle(m_hat, cfg, rectangular=True)
