"""Standard-normal and half-normal evaluators.

All functions accept scalars or numpy arrays and evaluate elementwise.
Tail quantities go through the complementary error function so that
relative accuracy survives out to x ~ 8 and beyond. There is one normal
quantile, scipy's ``ndtri``; the half-normal quantiles read it from the
survival side. The half-normal law is these closed forms, for x >= 0:
the density p = 2 phi, the CDF F = 2 Phi - 1 = erf(x / sqrt 2), the Mills
ratio R = (1 - F)/p (scipy's ``erfcx``), H = p + x F = int F,
G = p - x (1 - F) = int_x^inf (1 - F), and the constants mean and median.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
SQRT_2 = math.sqrt(2.0)
HALF_NORMAL_MEAN = math.sqrt(2.0 / math.pi)
HALF_NORMAL_MEDIAN = float(special.ndtri(0.75))
_SQRT_PI_2 = math.sqrt(math.pi / 2.0)


def phi(x):
    """Standard normal density; |x| is clamped at 40, so x^2 cannot
    overflow, as phi is 0.0 from |x| ~ 38.6 on; nan propagates."""
    x = np.minimum(np.abs(x), 40.0)
    return INV_SQRT_2PI * np.exp(-0.5 * np.square(x))


def cap_phi(x):
    """Standard normal CDF, computed via erfc for tail accuracy."""
    return 0.5 * special.erfc(-np.asarray(x, dtype=float) / SQRT_2)


def normal_sf(x):
    """Upper tail 1 - cap_phi(x), accurate to full relative precision."""
    return 0.5 * special.erfc(np.asarray(x, dtype=float) / SQRT_2)


def hn_pdf(x):
    """Half-normal density p(x) = 2 phi(x) at x >= 0."""
    return 2.0 * phi(x)


def hn_cdf(x):
    """Half-normal CDF F(x) = 2 cap_phi(x) - 1 = erf(x / sqrt 2) at x >= 0;
    erf keeps the relative accuracy near 0 that 2 cap_phi - 1 cancels."""
    return special.erf(np.asarray(x, dtype=float) / SQRT_2)


def mills(x):
    """Mills ratio R(x) = (1 - F(x))/p(x) = (1 - cap_phi(x))/phi(x);
    R(0) = sqrt(pi/2).

    Taken from the scaled complementary error function, so it stays finite
    (about 1/x) where 1 - F and p both underflow.
    """
    return _SQRT_PI_2 * special.erfcx(np.asarray(x, dtype=float) / SQRT_2)


def hn_cdf_integral(x):
    """H(x) = p(x) + x F(x), the antiderivative of F with H(0) = p(0)."""
    return hn_pdf(x) + x * hn_cdf(x)


def hn_tail_integral(x):
    """G(x) = p(x) - x (1 - F(x)) = p(x) (1 - x R(x)), the integral of 1 - F
    over [x, inf). 1 - x R is about 1/x^2, so the relative error of R and
    the eps x^2/2 rounding of p's exponent both grow as eps x^2. x is
    clamped at 40, as in phi; G is 0.0 from x = 38.41 on, G(inf) too."""
    x = np.minimum(x, 40.0)
    return hn_pdf(x) * (1.0 - x * mills(x))


def _hn_isf(s):
    """Half-normal quantile at 1 - s, -ndtri(s/2), for a float or an array;
    s = 0 gives inf.

    Taken from the survival side, so s far below machine epsilon keeps its
    full relative accuracy.
    """
    return -special.ndtri(s / 2.0)


def _hn_quantile(q):
    """Half-normal quantile _hn_isf(1 - q), for a float or an array; q = 1
    gives inf.

    1 - q is exact for q >= 1/2, so q just below 1 keeps a finite quantile
    instead of rounding (1 + q)/2 up to 1.
    """
    return _hn_isf(1.0 - q)


def mill_bounds(x):
    """Mill's-ratio sandwich for the upper tail at x > 0.

    Returns (lower, upper) with lower <= 1 - cap_phi(x) <= upper,
    lower = x/(1+x^2) * phi(x) and upper = phi(x)/x.
    """
    arr = np.asarray(x, dtype=float)
    if np.any(arr <= 0.0):
        raise ValueError("mill_bounds requires x > 0")
    dens = phi(arr)
    lower = arr / (1.0 + np.square(arr)) * dens
    upper = dens / arr
    if np.ndim(x) == 0:
        return float(lower), float(upper)
    return lower, upper
