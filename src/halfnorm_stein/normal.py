"""Standard-normal and half-normal evaluators.

All functions accept scalars or numpy arrays and evaluate elementwise.
Tail quantities go through the complementary error function so that
relative accuracy survives out to x ~ 8 and beyond. There is one normal
quantile, scipy's ``ndtri``; the half-normal quantiles read it from the
survival side. The half-normal closed forms live here, for x >= 0: the CDF
F = 2 Phi - 1, the Mills ratio R = (1 - F)/p with p = 2 phi (scipy's
``erfcx``), H = p + x F = int F and G = p - x (1 - F) = int_x^inf (1 - F).
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
SQRT_2 = math.sqrt(2.0)
HALF_NORMAL_MEAN = math.sqrt(2.0 / math.pi)
_SQRT_PI_2 = math.sqrt(math.pi / 2.0)


def phi(x):
    """Standard normal density."""
    return INV_SQRT_2PI * np.exp(-0.5 * np.square(x))


def cap_phi(x):
    """Standard normal CDF, computed via erfc for tail accuracy."""
    return 0.5 * special.erfc(-np.asarray(x, dtype=float) / SQRT_2)


def normal_sf(x):
    """Upper tail 1 - cap_phi(x), accurate to full relative precision."""
    return 0.5 * special.erfc(np.asarray(x, dtype=float) / SQRT_2)


def hn_cdf(x):
    """Half-normal CDF F(x) = 2 cap_phi(x) - 1 at x >= 0."""
    return 2.0 * cap_phi(x) - 1.0


def mills(x):
    """Mills ratio R(x) = (1 - F(x))/p(x) = (1 - cap_phi(x))/phi(x);
    R(0) = sqrt(pi/2).

    Taken from the scaled complementary error function, so it stays finite
    (about 1/x) where 1 - F and p both underflow.
    """
    return _SQRT_PI_2 * special.erfcx(np.asarray(x, dtype=float) / SQRT_2)


def hn_cdf_integral(x):
    """H(x) = p(x) + x F(x), the antiderivative of F with H(0) = p(0)."""
    return 2.0 * phi(x) + x * hn_cdf(x)


def hn_tail_integral(x):
    """G(x) = p(x) - x (1 - F(x)), the integral of 1 - F over [x, inf).
    Its terms cancel to about p/x^2, so its relative error grows as eps x^4."""
    return 2.0 * phi(x) - 2.0 * x * normal_sf(x)


def inv_cap_phi(p):
    """Standard normal quantile: solves cap_phi(x) = p for 0 < p < 1."""
    arr = np.asarray(p, dtype=float)
    if np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise ValueError("inv_cap_phi requires 0 < p < 1")
    x = special.ndtri(arr)
    return float(x) if np.ndim(p) == 0 else x


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


class HalfNormal:
    """The law of |Z| for Z standard normal: density 2*phi on (0, inf)."""

    mean = HALF_NORMAL_MEAN

    def __init__(self):
        self.median = inv_cap_phi(0.75)

    def pdf(self, x):
        arr = np.asarray(x, dtype=float)
        out = np.where(arr > 0.0, 2.0 * phi(arr), 0.0)
        return float(out) if np.ndim(x) == 0 else out

    def cdf(self, x):
        arr = np.asarray(x, dtype=float)
        out = np.where(arr > 0.0, hn_cdf(arr), 0.0)
        return float(out) if np.ndim(x) == 0 else out

    def sf(self, x):
        """1 - cdf, with full relative accuracy in the tail."""
        arr = np.asarray(x, dtype=float)
        out = np.where(arr > 0.0, 2.0 * normal_sf(arr), 1.0)
        return float(out) if np.ndim(x) == 0 else out

    def ppf(self, q):
        """Quantile: inverse of cdf on (0, 1)."""
        arr = np.asarray(q, dtype=float)
        if np.any(arr <= 0.0) or np.any(arr >= 1.0):
            raise ValueError("ppf requires 0 < q < 1")
        out = _hn_quantile(arr)
        return float(out) if np.ndim(q) == 0 else out

    def log_derivative(self, x):
        """psi(x) = p'(x)/p(x) = -x on [0, inf)."""
        arr = np.asarray(x, dtype=float)
        if np.any(arr < 0.0):
            raise ValueError("log_derivative is defined on x >= 0")
        return -x


HALF_NORMAL = HalfNormal()
