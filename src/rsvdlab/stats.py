"""Scalar special functions: normal quantile and chi-square quantile.

Both are self-contained (a rational approximation, and a closed form
bisected) so the core package only depends on numpy.
"""

import math
import numbers

import numpy as np

# Wichura's PPND16 rational approximation of the standard normal quantile.
# Relative accuracy is about 1e-15, well past the 1e-8 contract.
_A = (
    3.3871328727963666080e0,
    1.3314166789178437745e2,
    1.9715909503065514427e3,
    1.3731693765509461125e4,
    4.5921953931549871457e4,
    6.7265770927008700853e4,
    3.3430575583588128105e4,
    2.5090809287301226727e3,
)
_B = (
    1.0,
    4.2313330701600911252e1,
    6.8718700749205790830e2,
    5.3941960214247511077e3,
    2.1213794301586595867e4,
    3.9307895800092710610e4,
    2.8729085735721942674e4,
    5.2264952788528545610e3,
)
_C = (
    1.42343711074968357734e0,
    4.63033784615654529590e0,
    5.76949722146069140550e0,
    3.64784832476320460504e0,
    1.27045825245236838258e0,
    2.41780725177450611770e-1,
    2.27238449892691845833e-2,
    7.74545014278341407640e-4,
)
_D = (
    1.0,
    2.05319162663775882187e0,
    1.67638483018380384940e0,
    6.89767334985100004550e-1,
    1.48103976427480074590e-1,
    1.51986665636164571966e-2,
    5.47593808499534494600e-4,
    1.05075007164441684324e-9,
)
_E = (
    6.65790464350110377720e0,
    5.46378491116411436990e0,
    1.78482653991729133580e0,
    2.96560571828504891230e-1,
    2.65321895265761230930e-2,
    1.24266094738807843860e-3,
    2.71155556874348757815e-5,
    2.01033439929228813265e-7,
)
_F = (
    1.0,
    5.99832206555887937690e-1,
    1.36929880922735805310e-1,
    1.48753612908506148525e-2,
    7.86869131145613259100e-4,
    1.84631831751005468180e-5,
    1.42151175831644588870e-7,
    2.04426310338993978564e-15,
)


def _poly(coeffs, x):
    """Horner's rule, highest coefficient first, in one output array."""
    out = np.full_like(x, coeffs[-1], dtype=np.float64)
    for c in coeffs[-2::-1]:
        out *= x
        out += c
    return out


def inv_norm_cdf(p):
    """Standard normal quantile function (vectorized).

    ``p`` may be a scalar or an array with entries in [0, 1]; 0 and 1 map
    to -inf/+inf, and NaN is rejected like any other value outside.  The
    central formula is evaluated on every entry, in place, and the tail
    formula then overwrites the tail entries only; each entry's value is
    that of its own branch alone.
    """
    p = np.asarray(p, dtype=np.float64)
    scalar = p.ndim == 0
    p = np.atleast_1d(p)
    if not np.all((p >= 0.0) & (p <= 1.0)):
        raise ValueError("probabilities must lie in [0, 1]")
    q = p - 0.5
    r = 0.180625 - q * q
    # outside the central range the denominator may vanish; those entries
    # are replaced below
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = _poly(_A, r)
        out *= q
        out /= _poly(_B, r)

    tails = np.flatnonzero(np.abs(q) > 0.425)
    qt = q[tails]
    r = np.where(qt < 0.0, p[tails], 1.0 - p[tails])
    with np.errstate(divide="ignore"):
        r = np.sqrt(-np.log(r))
    val = np.empty_like(r)
    near = r <= 5.0
    rn = r[near] - 1.6
    val[near] = _poly(_C, rn) / _poly(_D, rn)
    far = ~near
    rf = r[far] - 5.0
    with np.errstate(invalid="ignore"):
        val[far] = _poly(_E, rf) / _poly(_F, rf)
    val[np.isinf(r)] = np.inf
    out[tails] = np.where(qt < 0.0, -val, val)

    return float(out[0]) if scalar else out


def check_probability(p, name="p"):
    """A sampling probability lies in (0, 1]; ``name`` heads the message."""
    if not 0.0 < p <= 1.0:
        raise ValueError(f"{name} must lie in (0, 1], got {p!r}")


def check_level(alpha, name="alpha"):
    """A significance level lies in (0, 1); ``name`` heads the message."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"{name} must lie in (0, 1), got {alpha!r}")


def normal_quantile_two_sided(alpha):
    """z such that P(|N(0,1)| <= z) = 1 - alpha."""
    check_level(alpha)
    return inv_norm_cdf(1.0 - alpha / 2.0)


def _chi2_cdf(df, x):
    """P(chi2_df <= x) for an integer df >= 1, in closed form: 1 less a
    finite Poisson sum for even df, erf less a finite sum for odd df."""
    half, odd = x / 2.0, df % 2
    total, term = 0.0, math.exp(-half) * (math.sqrt(2.0 * x / math.pi) if odd else 1.0)
    for j in range(df // 2):
        total += term
        term *= half / (j + 1.0 + 0.5 * odd)
    return (math.erf(math.sqrt(half)) if odd else 1.0) - total


def chi2_quantile(df, prob):
    """Quantile of the chi-square distribution with integer ``df`` degrees
    of freedom: the closed-form CDF bisected down to adjacent floats."""
    # past df = 1000 the CDF's exp(-x/2) nears underflow
    if not isinstance(df, numbers.Integral) or not 1 <= df <= 1000:
        raise ValueError(f"df must be an integer in [1, 1000], got {df!r}")
    if math.isnan(prob):
        raise ValueError("probabilities must lie in [0, 1]")
    if prob <= 0.0:
        return 0.0
    if prob >= 1.0:
        return math.inf
    lo, hi = 0.0, float(df)
    while _chi2_cdf(df, hi) < prob:
        lo, hi = hi, 2.0 * hi
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if _chi2_cdf(df, mid) < prob:
            lo = mid
        else:
            hi = mid
    return hi
