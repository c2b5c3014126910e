import math

import numpy as np
import pytest
from scipy import stats as sps

from rsvdlab.stats import chi2_quantile, inv_norm_cdf, normal_quantile_two_sided


@pytest.mark.parametrize("p", [1e-12, 1e-6, 0.001, 0.025, 0.1, 0.5, 0.9, 0.975, 0.999, 1 - 1e-9])
def test_inv_norm_cdf_matches_scipy(p):
    assert inv_norm_cdf(p) == pytest.approx(sps.norm.ppf(p), abs=1e-8)


def test_inv_norm_cdf_vectorized_and_edges():
    p = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    z = inv_norm_cdf(p)
    assert z[0] == -np.inf and z[-1] == np.inf
    assert z[2] == pytest.approx(0.0, abs=1e-15)
    assert z[1] == pytest.approx(-z[3], abs=1e-12)


def test_two_sided_quantile_pin():
    # 95% two-sided quantile pinned to 6 decimals
    assert normal_quantile_two_sided(0.05) == pytest.approx(1.959964, abs=1e-6)


def test_inv_norm_cdf_rejects_out_of_range():
    with pytest.raises(ValueError):
        inv_norm_cdf(1.5)


@pytest.mark.parametrize("p", [math.nan, [0.2, math.nan]])
def test_inv_norm_cdf_rejects_nan(p):
    with pytest.raises(ValueError, match=r"probabilities must lie in \[0, 1\]"):
        inv_norm_cdf(p)


def test_chi2_quantile_rejects_nan():
    with pytest.raises(ValueError, match=r"probabilities must lie in \[0, 1\]"):
        chi2_quantile(3, math.nan)


@pytest.mark.parametrize("df", [1, 2, 3, 5, 10, 40])
@pytest.mark.parametrize("q", [0.01, 0.5, 0.9, 0.95, 0.99, 0.999])
def test_chi2_quantile_matches_scipy(df, q):
    ref = sps.chi2.ppf(q, df)
    assert chi2_quantile(df, q) == pytest.approx(ref, abs=1e-6, rel=1e-6)


@pytest.mark.parametrize("df", [2.5, 3.0, "3", 1001])
def test_chi2_quantile_rejects_a_df_outside_its_closed_form(df):
    # the closed-form CDF holds for integer df; past 1000, exp(-x/2) underflows
    with pytest.raises(ValueError, match=r"df must be an integer in \[1, 1000\]"):
        chi2_quantile(df, 0.5)


def test_chi2_quantile_edges():
    assert chi2_quantile(3, 0.0) == 0.0
    assert chi2_quantile(3, -0.2) == 0.0
    assert math.isinf(chi2_quantile(3, 1.0))
    with pytest.raises(ValueError):
        chi2_quantile(0, 0.5)
