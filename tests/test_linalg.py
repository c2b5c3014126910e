import numpy as np
import pytest

from rsvdlab.linalg import (
    RankDeficiencyError,
    orthonormality_defect,
    qr_thin,
    signed_qr,
    svd_thin,
    sym_eig,
)
from rsvdlab.rng import RngStream, gaussian_matrix

from _oracles import jacobi_eigenvalues


def test_qr_identity():
    q, r = qr_thin(np.eye(3))
    assert np.allclose(q, np.eye(3), atol=1e-14)
    assert np.allclose(r, np.eye(3), atol=1e-14)


def test_qr_random_tall():
    a = gaussian_matrix(4, 2, RngStream(1, 1))
    q, r = qr_thin(a)
    assert orthonormality_defect(q) <= 1e-12
    assert np.linalg.norm(q @ r - a) <= 1e-12 * np.linalg.norm(a)
    assert np.all(np.diag(r) >= 0.0)
    assert np.allclose(np.tril(r, -1), 0.0)
    # a stack factors slice by slice as each matrix alone would
    stack = gaussian_matrix(3 * 7, 3, RngStream(1, 2)).reshape(3, 7, 3)
    q_s, r_s = signed_qr(stack)
    for b in range(3):
        q_b, r_b = qr_thin(stack[b])
        assert np.max(np.abs(q_s[b] - q_b)) <= 1e-13
        assert np.max(np.abs(r_s[b] - r_b)) <= 1e-13
        assert np.all(np.diagonal(r_s[b]) >= 0.0)


def test_qr_rank_deficiency_names_column():
    a = np.array([[3.0, 0.0], [4.0, 0.0]])
    with pytest.raises(RankDeficiencyError) as err:
        qr_thin(a)
    assert err.value.column == 1


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
    bad[1, 1] = np.nan
    with pytest.raises(ValueError):
        qr_thin(bad)
    bad[1, 1] = np.inf
    with pytest.raises(ValueError):
        svd_thin(bad)
