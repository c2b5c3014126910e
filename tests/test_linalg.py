from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from rsvdlab import linalg
from rsvdlab.linalg import (
    SYM_EIG_MAX_N,
    _top_k,
    cholesky_qr2,
    orthonormality_defect,
    signed_qr,
    svd_thin,
    sym_eig,
)
from rsvdlab.rng import RngStream, gaussian_matrix

from _oracles import jacobi_eigenvalues


def test_qr_random_tall():
    a = gaussian_matrix(4, 2, RngStream(1, 1))
    q, r = signed_qr(a)
    assert orthonormality_defect(q) <= 1e-12
    assert np.linalg.norm(q @ r - a) <= 1e-12 * np.linalg.norm(a)
    assert np.all(np.diag(r) >= 0.0)
    assert np.allclose(np.tril(r, -1), 0.0)
    # a stack factors slice by slice as each matrix alone would
    stack = gaussian_matrix(3 * 7, 3, RngStream(1, 2)).reshape(3, 7, 3)
    q_s, r_s = signed_qr(stack)
    for b in range(3):
        q_b, r_b = signed_qr(stack[b])
        assert np.max(np.abs(q_s[b] - q_b)) <= 1e-13
        assert np.max(np.abs(r_s[b] - r_b)) <= 1e-13
        assert np.all(np.diagonal(r_s[b]) >= 0.0)


# --- cholesky_qr2: batched CholeskyQR2 against Householder signed_qr ---

BLOCK_KINDS = ("good", "zero", "rank", "kappa")


def _block_of(kind, n, k, seed):
    """An n x k block: Gaussian ("good"), zero, of rank below k, or
    Q diag(s) (I + N) with s spanning more than the 1e6 cutoff ("kappa")."""
    gen = RngStream(seed, 11).generator()
    if kind == "good":
        return gen.standard_normal((n, k))
    if kind == "zero":
        return np.zeros((n, k))
    if kind == "rank":
        r = int(gen.integers(1, k))
        return gen.standard_normal((n, r)) @ gen.standard_normal((r, k))
    q, _ = np.linalg.qr(gen.standard_normal((n, k)))
    span = np.logspace(0.0, -gen.uniform(6.5, 12.0), k)
    return q @ (span[:, None] * (np.eye(k) + np.triu(gen.uniform(-0.5, 0.5, (k, k)), 1)))


def _as_chain_stack(blocks):
    """The blocks side by side in one n x (a k) array, viewed as the
    (a, n, k) stack the power chain factors."""
    a, n, k = blocks.shape
    return (np.ascontiguousarray(blocks.transpose(1, 0, 2)).reshape(n, a * k)
            .reshape(n, a, k).transpose(1, 0, 2))


def _factor_recording_fallback(stack):
    """cholesky_qr2 of a copy of ``stack``, and the stacks it handed to
    signed_qr."""
    seen = []

    def recording(a):
        seen.append(a.copy())
        return signed_qr(a)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "signed_qr", recording)
        q, r = cholesky_qr2(stack.copy())
    return q, r, seen


@settings(max_examples=60, deadline=None)
@given(a=st.integers(1, 6), k=st.integers(1, 8), extra=st.integers(0, 40),
       seed=st.integers(0, 2**32 - 1))
def test_cholesky_qr2_matches_householder(a, k, extra, seed):
    blocks = np.stack([_block_of("good", 2 * k + extra, k, seed + b) for b in range(a)])
    y = _as_chain_stack(blocks)
    q, r, seen = _factor_recording_fallback(y)
    q_h, r_h = signed_qr(y)
    scale = np.linalg.norm(y, axis=(1, 2))[:, None, None]
    assert len(seen) == 1 and seen[0].shape[0] == 0
    assert np.max(np.abs(q - q_h)) <= 1e-12
    assert np.max(np.abs(r - r_h) / scale) <= 1e-12
    assert np.max(np.abs(q @ r - y) / scale) <= 1e-12
    assert np.all(np.diagonal(r, axis1=1, axis2=2) >= 0.0)
    assert np.array_equal(r, np.triu(r))


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(BLOCK_KINDS[1:]), k=st.integers(2, 8),
       extra=st.integers(0, 40), seed=st.integers(0, 2**32 - 1))
def test_cholesky_qr2_ill_conditioned_blocks_take_householder(kind, k, extra, seed):
    y = _block_of(kind, 2 * k + extra, k, seed)[None]
    q, r, seen = _factor_recording_fallback(y)
    q_h, r_h = signed_qr(y)
    assert len(seen) == 1 and np.array_equal(seen[0], y)
    assert np.array_equal(q, q_h) and np.array_equal(r, r_h)


@pytest.mark.parametrize("seed", range(5))
def test_cholesky_qr2_kahan_block_past_its_diagonal_ratio_takes_householder(seed):
    # Kahan's R: diagonal span s^-9 = 3.4e5 is under the 1e6 cutoff, but
    # kappa = 2.7e8; the Cholesky or the R_2 certificate must catch it
    k, c = 10, 0.97
    kahan = (np.sqrt(1 - c * c) ** np.arange(k))[:, None] * (
        np.eye(k) - c * np.triu(np.ones((k, k)), 1))
    q, _ = np.linalg.qr(gaussian_matrix(100, k, RngStream(seed, 12)))
    y = (q @ kahan)[None]
    q_c, r_c, seen = _factor_recording_fallback(y)
    q_h, r_h = signed_qr(y)
    assert len(seen) == 1
    assert np.array_equal(q_c, q_h) and np.array_equal(r_c, r_h)


@settings(max_examples=40, deadline=None)
@given(kinds=st.lists(st.sampled_from(BLOCK_KINDS), min_size=1, max_size=6),
       k=st.integers(2, 6), extra=st.integers(0, 30), seed=st.integers(0, 2**32 - 1))
def test_cholesky_qr2_stack_equals_blocks_alone(kinds, k, extra, seed):
    blocks = np.stack([_block_of(kind, 2 * k + extra, k, seed + b)
                       for b, kind in enumerate(kinds)])
    q, r, seen = _factor_recording_fallback(_as_chain_stack(blocks))
    bad = [b for b, kind in enumerate(kinds) if kind != "good"]
    # only the bad blocks, in one stack, go to Householder
    assert len(seen) == 1 and np.array_equal(seen[0], blocks[bad])
    for b in range(len(kinds)):
        q_b, r_b = cholesky_qr2(blocks[b:b + 1].copy())
        assert np.array_equal(q[b], q_b[0]) and np.array_equal(r[b], r_b[0])


def test_svd_diagonal():
    u, s, v = svd_thin(np.diag([5.0, 3.0]))
    assert np.allclose(s, [5.0, 3.0])
    # signed permutations of the identity
    assert np.allclose(np.abs(u), np.eye(2), atol=1e-14)
    assert np.allclose(np.abs(v), np.eye(2), atol=1e-14)


def test_svd_rank_one():
    gen = RngStream(3, 3).generator()
    x = gen.random(6) - 0.5
    y = gen.random(4) - 0.5
    x /= np.linalg.norm(x)
    y /= np.linalg.norm(y)
    u, s, v = svd_thin(np.outer(x, y))
    assert s[0] == pytest.approx(1.0, abs=1e-12)
    assert np.all(s[1:] <= 1e-12)
    assert min(np.linalg.norm(u[:, 0] - x), np.linalg.norm(u[:, 0] + x)) <= 1e-12


def test_svd_gram_jacobi_oracle():
    y = gaussian_matrix(6, 3, RngStream(17, 0))
    _, s, _ = svd_thin(y)
    eigs = jacobi_eigenvalues(y.T @ y)
    assert np.allclose(s, np.sqrt(np.maximum(eigs, 0.0)), rtol=1e-9)


def test_svd_wide_input_transposed_internally():
    y = gaussian_matrix(3, 6, RngStream(18, 0))
    u, s, v = svd_thin(y)
    assert u.shape == (3, 3) and v.shape == (6, 3)
    assert np.linalg.norm((u * s) @ v.T - y) <= 1e-9 * np.linalg.norm(y)


def test_sym_eig_magnitude_order():
    pair = sym_eig(np.diag([-4.0, 1.0]))
    assert np.allclose(pair.values, [-4.0, 1.0])


def test_sym_eig_analytic_2x2():
    pair = sym_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(np.abs(pair.values), [1.0, 1.0])
    # positive eigenvalue first on magnitude ties
    assert pair.values[0] == pytest.approx(1.0)
    expected = np.ones(2) / np.sqrt(2.0)
    for j in range(2):
        col = np.abs(pair.vectors[:, j])
        assert np.allclose(col, expected, atol=1e-12)


def test_sym_eig_reconstruction_and_trace():
    a = gaussian_matrix(8, 8, RngStream(23, 5))
    s = (a + a.T) / 2.0
    pair = sym_eig(s)
    recon = (pair.vectors * pair.values) @ pair.vectors.T
    assert np.max(np.abs(recon - s)) <= 1e-10 * max(1.0, np.max(np.abs(s)))
    assert np.trace(s) == pytest.approx(float(np.sum(pair.values)), abs=1e-10)


def test_sym_eig_rejects_asymmetric():
    with pytest.raises(ValueError):
        sym_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_sym_eig_size_cap():
    big = np.zeros((4097, 4097))
    with pytest.raises(ValueError):
        sym_eig(big)


def test_reconstruction_property_many_instances():
    # svd/sym_eig reconstruction across random sizes up to 64x32
    gen = RngStream(31, 0).generator()
    for trial in range(1000):
        rows = int(gen.integers(2, 65))
        cols = int(gen.integers(1, 33))
        a = gen.standard_normal((rows, cols))
        u, s, v = svd_thin(a)
        err = np.linalg.norm((u * s) @ v.T - a) / max(np.linalg.norm(a), 1e-300)
        assert err <= 1e-9
        assert orthonormality_defect(u) <= 1e-10
        if trial % 10 == 0:
            sym = a @ a.T if rows <= 40 else a.T @ a
            pair = sym_eig(sym)
            recon = (pair.vectors * pair.values) @ pair.vectors.T
            rel = np.linalg.norm(recon - sym) / max(np.linalg.norm(sym), 1e-300)
            assert rel <= 1e-9


def test_non_finite_rejected():
    bad = np.ones((3, 3))
    bad[1, 1] = np.inf
    with pytest.raises(ValueError):
        svd_thin(bad)


# --- sym_eig(s, k): the certified top-k path against the full eigh path ---

TOPK_MIN_N = linalg.SYM_EIG_TOPK_MIN_N


@pytest.fixture(scope="module", autouse=True)
def top_k_at_any_size():
    """The tests below reach the top-k path on inputs of a few dozen rows;
    the size below which sym_eig keeps eigh for speed has its own test."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "SYM_EIG_TOPK_MIN_N", 0)
        yield


def _block(k):
    return max(2 * k, k + 8)


def _planted(values, seed):
    """Q diag(values) Q^T for a random orthogonal Q, exactly symmetric."""
    values = np.asarray(values, dtype=np.float64)
    q, _ = np.linalg.qr(gaussian_matrix(values.size, values.size, RngStream(seed, 7)))
    s = (q * values) @ q.T
    return (s + s.T) / 2.0


def _assert_same_bits(pair, full, k):
    assert np.array_equal(pair.values, full.values[:k])
    assert np.array_equal(pair.vectors, full.vectors[:, :k])


def _assert_close_to_full(s, k, pair):
    """The k pairs match eigh's to what the 1e-10 |lambda_1| residual
    certificate implies for a gap of at least half |lambda_k|."""
    full = sym_eig(s)
    scale = abs(full.values[0])
    assert pair.values.shape == (k,) and pair.vectors.shape == (s.shape[0], k)
    assert np.max(np.abs(pair.values - full.values[:k])) <= 1e-9 * scale
    assert np.max(np.abs(pair.vectors - full.vectors[:, :k])) <= 1e-8
    assert orthonormality_defect(pair.vectors) <= 1e-12


@st.composite
def gapped_spectra(draw, n_max_extra=24):
    """(k, values): k leading magnitudes 1 + cumulated gaps in [0.5, 3], the
    rest at most half of |lambda_k|, all with random signs and one scale."""
    k = draw(st.integers(1, 4))
    n = draw(st.integers(4 * _block(k) + 1, 4 * _block(k) + n_max_extra))
    gaps = draw(st.lists(st.floats(0.5, 3.0), min_size=k, max_size=k))
    lead = 1.0 + np.cumsum(gaps) - gaps[0]
    bulk = draw(st.floats(0.0, 0.5)) * np.array(
        draw(st.lists(st.floats(0.0, 1.0), min_size=n - k, max_size=n - k)))
    signs = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]),
                                   min_size=n, max_size=n)))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e4]))
    return k, scale * signs * np.concatenate([lead[::-1], bulk])


@settings(max_examples=60, deadline=None)
@given(case=gapped_spectra(), seed=st.integers(0, 2**32 - 1))
def test_top_k_matches_full_path_on_mixed_sign_spectra(case, seed):
    k, values = case
    s = _planted(values, seed)
    assert _top_k(s, k) is not None   # certified, no fallback
    pair = sym_eig(s, k)
    _assert_close_to_full(s, k, pair)
    # the start block comes from a fixed stream: every call gives the same bits
    again = sym_eig(s, k)
    assert np.array_equal(again.values, pair.values)
    assert np.array_equal(again.vectors, pair.vectors)


def test_top_k_dominant_negative_eigenvalue():
    values = np.concatenate([[-9.0, 4.0, -2.5], np.linspace(0.9, -0.9, 57)])
    s = _planted(values, 5)
    pair = sym_eig(s, 3)
    assert _top_k(s, 3) is not None
    assert pair.values == pytest.approx([-9.0, 4.0, -2.5], rel=1e-12)
    _assert_close_to_full(s, 3, pair)


@settings(max_examples=8, deadline=None)
@given(case=gapped_spectra(n_max_extra=6), seed=st.integers(0, 2**32 - 1))
def test_top_k_values_match_jacobi_oracle(case, seed):
    k, values = case
    s = _planted(values, seed)
    jac = jacobi_eigenvalues(s)
    jac = jac[np.lexsort((-jac, -np.abs(jac)))][:k]
    assert np.max(np.abs(sym_eig(s, k).values - jac)) <= 1e-9 * abs(jac[0])


@settings(max_examples=40, deadline=None)
@given(k=st.integers(1, 4), rank=st.integers(0, 7), extra=st.integers(1, 20),
       signs=st.lists(st.sampled_from([-1.0, 1.0]), min_size=7, max_size=7),
       seed=st.integers(0, 2**32 - 1))
def test_top_k_on_exactly_low_rank_input(k, rank, extra, signs, seed):
    n = 4 * _block(k) + extra
    values = np.zeros(n)
    values[:rank] = np.array(signs[:rank]) * np.arange(rank + 1, 1, -1)
    s = _planted(values, seed)
    pair = sym_eig(s, k)
    if rank < k:
        # the k-th value is a zero of multiplicity n - rank: the boundary ties
        assert _top_k(s, k) is None
        _assert_same_bits(pair, sym_eig(s), k)
    else:
        assert _top_k(s, k) is not None
        _assert_close_to_full(s, k, pair)


@pytest.mark.parametrize("k", [1, 3, 40])
def test_top_k_zero_matrix_falls_back(k):
    s = np.zeros((200, 200))
    assert _top_k(s, k) is None
    pair = sym_eig(s, k)
    _assert_same_bits(pair, sym_eig(s), k)
    assert np.all(pair.values == 0.0)


@settings(max_examples=40, deadline=None)
@given(k=st.integers(1, 4), extra=st.integers(1, 20), negative_first=st.booleans(),
       rotate=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_top_k_sign_tie_at_boundary_falls_back_bit_for_bit(k, extra, negative_first,
                                                          rotate, seed):
    n = 4 * _block(k) + extra
    tie = [-3.0, 3.0] if negative_first else [3.0, -3.0]
    values = np.concatenate([np.arange(k + 3, 4, -1, dtype=float), tie,
                             np.linspace(1.5, -1.5, n - k - 1)])
    if rotate:
        s = _planted(values, seed)
    else:
        perm = RngStream(seed, 8).generator().permutation(n)
        s = np.diag(values[perm])
    assert _top_k(s, k) is None
    _assert_same_bits(sym_eig(s, k), sym_eig(s), k)


@settings(max_examples=40, deadline=None)
@given(k=st.integers(1, 6), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_top_k_small_n_takes_full_path(k, data, seed):
    n = data.draw(st.integers(k, 4 * _block(k)))
    a = gaussian_matrix(n, n, RngStream(seed, 9))
    s = (a + a.T) / 2.0
    assert _top_k(s, k) is None
    _assert_same_bits(sym_eig(s, k), sym_eig(s), k)


@pytest.mark.parametrize("n", [1, 5, 60])
def test_top_k_with_k_equal_n(n):
    a = gaussian_matrix(n, n, RngStream(n, 10))
    s = (a + a.T) / 2.0
    _assert_same_bits(sym_eig(s, n), sym_eig(s), n)


def test_top_k_rejects_what_the_full_path_rejects():
    asym = np.zeros((60, 60))
    asym[0, 1] = 1.0
    with pytest.raises(ValueError, match="not symmetric"):
        sym_eig(asym, 2)
    bad = np.eye(60)
    bad[3, 3] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        sym_eig(bad, 2)
    bad[3, 3] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        sym_eig(bad, 2)
    for k in (0, 61):
        with pytest.raises(ValueError, match="k must lie in"):
            sym_eig(np.eye(60), k)


def test_top_k_is_not_capped_but_its_fallback_is():
    n = SYM_EIG_MAX_N + 1
    s = np.zeros((n, n))
    with pytest.raises(ValueError, match="limited to"):
        sym_eig(s, 2)   # ties at zero, so it falls back to eigh
    np.fill_diagonal(s, 1.0)
    s[7, 7], s[11, 11] = -5.0, 4.0
    pair = sym_eig(s, 2)
    assert pair.values == pytest.approx([-5.0, 4.0], rel=1e-12)
    assert abs(pair.vectors[7, 0]) == pytest.approx(1.0, abs=1e-9)
    assert abs(pair.vectors[11, 1]) == pytest.approx(1.0, abs=1e-9)


def test_top_k_keeps_eigh_up_to_the_size_cutoff(monkeypatch):
    monkeypatch.setattr(linalg, "SYM_EIG_TOPK_MIN_N", TOPK_MIN_N)
    k = 4
    for n in (TOPK_MIN_N, TOPK_MIN_N + 1):
        values = np.concatenate([[9.0, -7.0, 5.0, -3.0], np.linspace(1.0, -1.0, n - k)])
        s = _planted(values, n)
        if n <= TOPK_MIN_N:
            assert _top_k(s, k) is None
            _assert_same_bits(sym_eig(s, k), sym_eig(s), k)
        else:
            assert _top_k(s, k) is not None
            _assert_close_to_full(s, k, sym_eig(s, k))


def test_top_k_falls_back_bit_for_bit_at_the_iteration_cap(monkeypatch):
    # |lambda_{b+1} / lambda_k| = 0.9: one block iteration cannot certify
    k = 3
    n = 4 * _block(k) + 20
    values = np.concatenate([[4.0, -3.0, 2.0], np.linspace(1.8, -1.8, n - k)])
    s = _planted(values, 11)
    assert _top_k(s, k) is not None
    monkeypatch.setattr(linalg, "SYM_EIG_MAX_ITER", 1)
    assert _top_k(s, k) is None
    _assert_same_bits(sym_eig(s, k), sym_eig(s), k)


@pytest.mark.parametrize("eps", [1e-8, 1e-9])
def test_top_k_lagging_partner_of_a_tie_is_not_taken_for_a_gap(eps):
    # the +3 of a +-3 tie at the boundary barely meets the fixed start
    # block, so its Ritz value still lags when the -3 pair has converged
    k, n = 2, 60
    start, _ = np.linalg.qr(gaussian_matrix(n, _block(k), linalg._TOPK_STREAM))
    a = gaussian_matrix(n, n, RngStream(3, 1))
    lag = a[:, 0] - start @ (start.T @ a[:, 0])
    a[:, 0] = lag / np.linalg.norm(lag) + eps * (start @ a[:_block(k), 1])
    v, _ = np.linalg.qr(a)
    values = np.concatenate([[3.0, 8.0, -3.0], np.linspace(1.0, -1.0, n - 3)])
    s = (v * values) @ v.T
    s = (s + s.T) / 2.0
    assert sym_eig(s).values[1] > 0.0
    assert _top_k(s, k) is None
    _assert_same_bits(sym_eig(s, k), sym_eig(s), k)
