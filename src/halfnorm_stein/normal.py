"""Standard-normal and half-normal evaluators.

All functions accept scalars or numpy arrays and evaluate elementwise.
Tail quantities go through the complementary error function so that
relative accuracy survives out to x ~ 8 and beyond.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
SQRT_2 = math.sqrt(2.0)
HALF_NORMAL_MEAN = math.sqrt(2.0 / math.pi)


def phi(x):
    """Standard normal density."""
    return INV_SQRT_2PI * np.exp(-0.5 * np.square(x))


def cap_phi(x):
    """Standard normal CDF, computed via erfc for tail accuracy."""
    return 0.5 * special.erfc(-np.asarray(x, dtype=float) / SQRT_2)


def normal_sf(x):
    """Upper tail 1 - cap_phi(x), accurate to full relative precision."""
    return 0.5 * special.erfc(np.asarray(x, dtype=float) / SQRT_2)


# Acklam's rational approximation to the normal quantile (~1.15e-9 relative),
# used as the starting point for Newton polish.
_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)
_P_LOW = 0.02425


def _acklam(p):
    p = np.asarray(p, dtype=float)
    x = np.empty_like(p)

    low = p < _P_LOW
    high = p > 1.0 - _P_LOW
    mid = ~(low | high)

    if np.any(mid):
        q = p[mid] - 0.5
        r = q * q
        num = ((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]
        den = ((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0
        x[mid] = q * num / den
    if np.any(low):
        q = np.sqrt(-2.0 * np.log(p[low]))
        num = ((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5]
        den = (((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0
        x[low] = num / den
    if np.any(high):
        q = np.sqrt(-2.0 * np.log1p(-p[high]))
        num = ((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5]
        den = (((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0
        x[high] = -num / den
    return x


def inv_cap_phi(p):
    """Standard normal quantile: solves cap_phi(x) = p for 0 < p < 1.

    Rational initial approximation followed by two Newton steps, giving
    |cap_phi(result) - p| below 1e-14.
    """
    arr = np.asarray(p, dtype=float)
    if np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise ValueError("inv_cap_phi requires 0 < p < 1")
    x = _acklam(arr)
    for _ in range(2):
        # Newton residual through whichever tail is small, so the
        # subtraction keeps relative accuracy on both sides of 1/2.
        err = np.where(arr <= 0.5, cap_phi(x) - arr,
                       (1.0 - arr) - normal_sf(x))
        x = x - err / phi(x)
    if np.ndim(p) == 0:
        return float(x)
    return x


def _hn_quantile(q):
    """Half-normal quantile -ndtri((1 - q)/2), elementwise; q = 1 gives inf.

    Evaluated from the survival side: 1 - q is exact for q >= 1/2, so q
    just below 1 keeps a finite quantile instead of rounding (1 + q)/2 up
    to 1.
    """
    return -special.ndtri((1.0 - np.asarray(q, dtype=float)) / 2.0)


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
        out = np.where(arr > 0.0, 2.0 * cap_phi(arr) - 1.0, 0.0)
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
