"""The n x n passes around the power chain and the normal draws, streamed
in tiles, row blocks and chunks, against the dense whole-matrix forms they
replace: same floats (signs of zero included), same draws, and no
temporary of the output's size besides the output.  The blockmodel CLT
covariance, which needs no n x n array at all, is held to a fraction of one."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rsvdlab.linalg import _TILE, check_symmetric, symmetry_defect
from rsvdlab.models import (_homogeneous_core, gen_completion, gen_missing_pca, gen_sbm,
                            symmetric_bernoulli, symmetric_gaussian)
from rsvdlab.rng import _CHUNK, RngStream, standard_normal
from rsvdlab.stats import inv_norm_cdf
from rsvdlab.theory import clt_gamma_sbm_all

from _oracles import (dense_inv_norm_cdf, dense_missing_pca_obs, dense_standard_normal,
                      dense_symmetric_bernoulli, dense_symmetric_gaussian,
                      dense_symmetry_defect, eager_p_mat)

B0 = np.array([[0.8, 0.3], [0.3, 0.8]])
# past three tiles, and not a multiple of the tile
N_MAX = 3 * _TILE + _TILE // 2 + 1


def _symmetric(n, seed):
    x = np.random.default_rng(seed).standard_normal((n, n))
    return x + x.T


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, N_MAX), seed=st.integers(0, 2**32 - 1),
       where=st.tuples(st.floats(0, 1, exclude_max=True),
                       st.floats(0, 1, exclude_max=True)),
       delta=st.sampled_from([0.0, 1e-300, -3e-12, 0.5, -7.0]),
       dense_noise=st.booleans())
def test_symmetry_defect_equals_dense_oracle(n, seed, where, delta, dense_noise):
    a = _symmetric(n, seed)
    if dense_noise:
        a += 1e-9 * np.random.default_rng(seed + 1).standard_normal((n, n))
    a[int(where[0] * n), int(where[1] * n)] += delta
    assert symmetry_defect(a) == dense_symmetry_defect(a)


@pytest.mark.parametrize("n", [_TILE - 1, _TILE, 2 * _TILE + 1, N_MAX])
@pytest.mark.parametrize("corner", ["last_tile_below", "last_tile_above",
                                    "first_column_below", "diagonal"])
def test_symmetry_defect_single_perturbation(n, corner):
    a = _symmetric(n, n)
    i, j = {"last_tile_below": (n - 1, n - 2), "last_tile_above": (n - 2, n - 1),
            "first_column_below": (n - 1, 0), "diagonal": (n - 1, n - 1)}[corner]
    a[i, j] += 0.25
    defect = symmetry_defect(a)
    assert defect == dense_symmetry_defect(a)
    assert defect == 0.0 if i == j else defect > 0.2


@pytest.mark.parametrize("shape", [(1, 3), (3, 1), (_TILE + 1, _TILE)])
def test_symmetry_defect_rejects_non_square(shape):
    # the dense form broadcasts (1, n) against (n, 1); the tile loop would
    # read a wrong partner tile; both must be refused instead
    with pytest.raises(ValueError, match=r"expected a square matrix, got \d+x\d+"):
        symmetry_defect(np.zeros(shape))


def _prob_form(kind, n, seed):
    """(form for symmetric_bernoulli, the same probabilities for the oracle)."""
    gen = np.random.default_rng(seed)
    if kind == "scalar":
        p = float(gen.choice([0.0, 1.0, gen.random()]))
        return p, p
    if kind == "matrix":
        p = gen.random((n, n))  # asymmetric: only the upper triangle counts
        return p, p
    k = int(gen.integers(1, 5))
    core = gen.random((k, k))
    core = (core + core.T) / 2.0
    labels = gen.integers(0, k, n)
    return (core, labels), eager_p_mat(core, labels)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, N_MAX), seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["scalar", "matrix", "core_labels"]))
def test_symmetric_bernoulli_equals_dense_oracle(n, seed, kind):
    form, dense_prob = _prob_form(kind, n, seed)
    gen, ref_gen = np.random.default_rng(seed), np.random.default_rng(seed)
    a = symmetric_bernoulli(n, form, gen)
    assert np.array_equal(a, dense_symmetric_bernoulli(n, dense_prob, ref_gen))
    assert a.dtype == np.float64 and a.flags.c_contiguous
    assert gen.random() == ref_gen.random()


@pytest.mark.parametrize("n,rho", [(1, 0.5), (300, 0.7), (N_MAX, 1.0)])
def test_gen_sbm_matches_dense_path(n, rho):
    stream = RngStream(61, n)
    # one node fills one block, and gen_sbm rejects a zero truth column
    inst = gen_sbm(n, B0, [0.4, 0.6], rho, min(n, 2), stream)
    gen = stream.generator()
    gen.random(n)  # the label draw
    p_mat = eager_p_mat(rho * B0, inst.tau)
    assert np.array_equal(inst.a, dense_symmetric_bernoulli(n, p_mat, gen))


def _same_bits(a, b):
    """Equal values, shapes and signs of zero."""
    return (a.shape == b.shape and np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


@settings(max_examples=40, deadline=None)
@given(shape=st.sampled_from([_CHUNK - 1, _CHUNK, _CHUNK + 1, (129, 127), 3 * _CHUNK + 5,
                              (0,), (0, 4), (5, 0), (2, 3, 4)]),
       seed=st.integers(0, 2**32 - 1))
def test_standard_normal_equals_dense_oracle(shape, seed):
    gen, ref_gen = (np.random.Generator(np.random.Philox(seed)) for _ in range(2))
    z = standard_normal(gen, shape)
    assert _same_bits(z, dense_standard_normal(ref_gen, shape))
    assert z.dtype == np.float64 and z.flags.c_contiguous
    assert gen.random() == ref_gen.random()


def _ulps(x):
    return [np.nextafter(x, 0.0), x, np.nextafter(x, 1.0)]


# the central/tail boundary |p - 0.5| = 0.425 from both sides, the centre,
# the ends, and deep tails where r = sqrt(-log p) > 5
EDGE_P = (_ulps(0.075) + _ulps(0.925) + [0.5 - 2.0**-53, 0.5, 0.5 + 2.0**-53]
          + [0.0, 1.0, 5e-324, 1e-300, 1e-20, 1e-12, 9.9e-12, 1.0 - 2.0**-53])


@pytest.mark.parametrize("p", EDGE_P)
def test_inv_norm_cdf_equals_dense_oracle_on_scalars(p):
    z = inv_norm_cdf(p)
    ref = dense_inv_norm_cdf(p)
    assert type(z) is float
    assert z == ref and math.copysign(1.0, z) == math.copysign(1.0, ref)


@settings(max_examples=40, deadline=None)
@given(ps=st.lists(st.one_of(st.floats(0.0, 1.0), st.sampled_from(EDGE_P),
                             st.floats(0.0, 1e-11)), max_size=64))
def test_inv_norm_cdf_equals_dense_oracle_on_arrays(ps):
    p = np.array(ps, dtype=np.float64)
    assert _same_bits(inv_norm_cdf(p), dense_inv_norm_cdf(p))


@pytest.mark.parametrize("sd", [1.0, 0.0, 3.5, 1e-320])
@pytest.mark.parametrize("n", [1, _TILE + 3, N_MAX])
def test_symmetric_gaussian_equals_dense_oracle(n, sd):
    # sd = 0 and a subnormal sd give sd * z = -0.0, which both forms turn to +0.0
    gen, ref_gen = np.random.default_rng(n), np.random.default_rng(n)
    a = symmetric_gaussian(n, sd, gen)
    assert _same_bits(a, dense_symmetric_gaussian(n, sd, ref_gen))
    assert not np.any(np.signbit(a) & (a == 0.0))
    assert gen.random() == ref_gen.random()


@pytest.mark.parametrize("sigma", [1.0, 0.0, 1e-320])
@pytest.mark.parametrize("d,m,p", [(1, 7, 0.5), (130, 97, 0.3), (65, 300, 1.0)])
def test_gen_missing_pca_equals_dense_oracle(d, m, p, sigma):
    stream = RngStream(63, d)
    inst = gen_missing_pca(d, m, 1, p, sigma, stream)
    ref_gen = stream.generator()
    # masked negative entries are -0.0 in both forms
    assert _same_bits(inst.x_obs, dense_missing_pca_obs(d, m, 1, p, sigma, ref_gen))


@pytest.mark.parametrize("sigma", [1.0, 0.0])
@pytest.mark.parametrize("homogeneous", [True, False])
def test_gen_completion_equals_eager_product(homogeneous, sigma):
    n, k, p = 131, 3, 0.3
    stream = RngStream(65, int(homogeneous))
    inst = gen_completion(n, k, 2.0, p, sigma, homogeneous, stream)
    # replay the draws before the mask, then the mask and the noise
    gen = stream.generator()
    if homogeneous:
        gen.permutation(np.arange(n) % k)
        _homogeneous_core(k, gen, 2.0)
    else:
        standard_normal(gen, (n, k))
    assert np.array_equal(inst.omega, symmetric_bernoulli(n, p, gen))
    noise = symmetric_gaussian(n, sigma, gen) if sigma > 0 else np.zeros((n, n))
    # masked negative entries are -0.0 in both forms
    assert _same_bits(inst.t_hat, inst.omega * (inst.t + noise))


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


N_MEM = 1024
FULL = 8 * N_MEM * N_MEM   # bytes of one n x n float64 matrix


def test_gen_sbm_allocates_only_its_output():
    peak = _traced_peak(gen_sbm, N_MEM, B0, [0.5, 0.5], 1.0, 2, RngStream(62, 0))
    assert peak <= 1.25 * FULL, (
        f"models.gen_sbm peak {peak / 2**20:.1f} MiB exceeds 1.25 x the "
        f"{FULL / 2**20:.0f} MiB output")


def test_check_symmetric_allocates_no_n_by_n_temporary():
    a = gen_sbm(N_MEM, B0, [0.5, 0.5], 1.0, 2, RngStream(62, 1)).a
    peak = _traced_peak(check_symmetric, a)
    assert peak <= 0.1 * FULL, (
        f"linalg.check_symmetric peak {peak / 2**20:.2f} MiB exceeds 0.1 x "
        f"the {FULL / 2**20:.0f} MiB input")


def test_standard_normal_allocates_only_its_output():
    peak = _traced_peak(standard_normal, np.random.default_rng(0), (N_MEM, N_MEM))
    assert peak <= 1.25 * FULL, (
        f"rng.standard_normal peak {peak / 2**20:.1f} MiB exceeds 1.25 x the "
        f"{FULL / 2**20:.0f} MiB output")


def test_symmetric_gaussian_allocates_only_its_output():
    peak = _traced_peak(symmetric_gaussian, N_MEM, 2.0, np.random.default_rng(1))
    assert peak <= 1.25 * FULL, (
        f"models.symmetric_gaussian peak {peak / 2**20:.1f} MiB exceeds 1.25 x "
        f"the {FULL / 2**20:.0f} MiB output")


def test_gen_missing_pca_holds_output_and_signal():
    # x_obs plus the d x m product B F, which is added to it in one step
    d, m = N_MEM, 2 * N_MEM
    data = 8 * d * m
    peak = _traced_peak(gen_missing_pca, d, m, 4, 0.3, 1.0, RngStream(64, 0))
    assert peak <= 2.1 * data, (
        f"models.gen_missing_pca peak {peak / 2**20:.1f} MiB exceeds 2.1 x the "
        f"{data / 2**20:.0f} MiB d x m output")


@pytest.mark.parametrize("sigma", [1.0, 0.0])
def test_gen_completion_holds_signal_mask_and_observation(sigma):
    # t, omega and t_hat; the noise is drawn into t_hat's array
    peak = _traced_peak(gen_completion, N_MEM, 3, 1.0, 0.3, sigma, True, RngStream(65, 0))
    assert peak <= 3.25 * FULL, (
        f"models.gen_completion peak {peak / 2**20:.1f} MiB exceeds 3.25 x the "
        f"{FULL / 2**20:.0f} MiB n x n matrix")


def test_clt_gamma_sbm_all_allocates_no_n_by_n_array():
    # the (n, k, k) result and O(nK) label work; the n x n edge-probability
    # form peaked at about 2 x FULL
    inst = gen_sbm(N_MEM, B0, [0.5, 0.5], 1.0, 2, RngStream(62, 2))
    peak = _traced_peak(clt_gamma_sbm_all, inst.core, inst.tau, inst.u, inst.lam, 1.0)
    assert peak <= 0.1 * FULL, (
        f"theory.clt_gamma_sbm_all peak {peak / 2**20:.2f} MiB exceeds 0.1 x "
        f"the {FULL / 2**20:.0f} MiB n x n matrix")
