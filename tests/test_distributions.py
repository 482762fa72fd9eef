import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import integrate

from halfnorm_stein.normal import (HALF_NORMAL, HALF_NORMAL_MEAN,
                                   INV_SQRT_2PI, _hn_isf, cap_phi, hn_cdf,
                                   hn_cdf_integral, hn_tail_integral,
                                   inv_cap_phi, mill_bounds, mills,
                                   normal_sf, phi)


def test_phi_at_zero():
    assert phi(0.0) == pytest.approx(INV_SQRT_2PI, abs=0.0)
    assert phi(0.0) == pytest.approx(0.3989422804014327, rel=1e-15)


def test_phi_at_one():
    # exp(-1/2)/sqrt(2 pi), high-precision reference
    assert phi(1.0) == pytest.approx(0.24197072451914337, rel=1e-14)


@given(st.floats(-30.0, 30.0))
def test_phi_even(x):
    assert phi(x) == phi(-x)
    assert phi(x) > 0.0


def test_cap_phi_values():
    assert cap_phi(0.0) == 0.5
    assert cap_phi(5.0) == pytest.approx(0.9999997133484281, rel=1e-14)
    assert cap_phi(inv_cap_phi(0.75)) == pytest.approx(0.75, abs=1e-15)


@given(st.floats(-8.0, 8.0))
def test_cap_phi_reflection(x):
    assert cap_phi(-x) == pytest.approx(1.0 - cap_phi(x), abs=1e-15)


@given(st.floats(-8.0, 4.0))
def test_inv_cap_phi_roundtrip(x):
    # above x ~ 4.4 the rounding of cap_phi(x) itself moves the true
    # inverse by more than 1e-12, so the x-space roundtrip is only
    # meaningful on this range; the p-space residual below covers the rest
    assert inv_cap_phi(cap_phi(x)) == pytest.approx(x, abs=1e-12)


@given(st.floats(4.0, 8.0))
def test_inv_cap_phi_upper_tail_residual(x):
    p = cap_phi(x)
    assert abs(cap_phi(inv_cap_phi(p)) - p) < 1e-14


def test_inv_cap_phi_known_values():
    assert inv_cap_phi(0.5) == pytest.approx(0.0, abs=1e-15)
    assert inv_cap_phi(0.75) == pytest.approx(0.6744897501960817, abs=1e-13)


@pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.5])
def test_inv_cap_phi_domain(p):
    with pytest.raises(ValueError):
        inv_cap_phi(p)


def test_inv_cap_phi_residual_small():
    ps = np.linspace(1e-12, 1.0 - 1e-12, 2001)
    assert np.max(np.abs(cap_phi(inv_cap_phi(ps)) - ps)) < 1e-14


def test_mill_bounds_at_one():
    lower, upper = mill_bounds(1.0)
    assert lower == pytest.approx(0.120985, abs=1e-6)
    assert upper == pytest.approx(0.241970, abs=1e-6)
    assert lower < normal_sf(1.0) < upper


def test_mill_bounds_tight_in_tail():
    lower, upper = mill_bounds(10.0)
    tail = normal_sf(10.0)
    assert (upper - lower) / tail < 2e-2
    assert lower <= tail <= upper


def test_mill_bounds_grid():
    xs = np.linspace(1e-3, 10.0, 10_000)
    lower, upper = mill_bounds(xs)
    tail = normal_sf(xs)
    assert np.all(lower < tail)
    assert np.all(tail < upper)


def test_mill_bounds_domain():
    with pytest.raises(ValueError):
        mill_bounds(0.0)


def test_half_normal_pdf_cdf():
    xs = np.linspace(0.01, 8.0, 500)
    assert np.max(np.abs(HALF_NORMAL.cdf(xs) - (2.0 * cap_phi(xs) - 1.0))) < 1e-15
    assert HALF_NORMAL.pdf(-1.0) == 0.0
    assert HALF_NORMAL.cdf(-1.0) == 0.0
    assert HALF_NORMAL.cdf(0.0) == 0.0
    assert HALF_NORMAL.cdf(HALF_NORMAL.median) == pytest.approx(0.5, abs=1e-12)


def test_half_normal_pdf_is_cdf_derivative():
    step = 1e-5
    for x in np.linspace(0.01, 6.0, 200):
        num = (HALF_NORMAL.cdf(x + step) - HALF_NORMAL.cdf(x - step)) / (2 * step)
        assert num == pytest.approx(HALF_NORMAL.pdf(x), abs=1e-6)


def test_half_normal_mean_quadrature():
    val, _ = integrate.quad(lambda x: x * HALF_NORMAL.pdf(x), 0.0, np.inf)
    assert abs(val - HALF_NORMAL_MEAN) < 1e-10
    assert HALF_NORMAL_MEAN == pytest.approx(math.sqrt(2.0 / math.pi), abs=0.0)


def test_half_normal_ppf_roundtrip():
    qs = np.linspace(1e-6, 1.0 - 1e-9, 400)
    xs = HALF_NORMAL.ppf(qs)
    assert np.max(np.abs(HALF_NORMAL.cdf(xs) - qs)) < 1e-12
    with pytest.raises(ValueError):
        HALF_NORMAL.ppf(1.0)


def test_half_normal_ppf_just_below_one():
    # (1 + q)/2 rounds to 1 here; the survival side keeps the quantile finite
    q = 1.0 - 2.0 ** -53
    x = HALF_NORMAL.ppf(q)
    assert x == pytest.approx(8.292361075813595, rel=1e-13)
    assert HALF_NORMAL.sf(x) == pytest.approx(2.0 ** -53, rel=1e-12)
    with pytest.raises(ValueError):
        HALF_NORMAL.ppf(0.0)


def test_half_normal_median_correctly_rounded():
    # Phi^{-1}(3/4) = sqrt(2) erfinv(1/2) to 40 digits (mpmath, 50-digit
    # working precision); budget: the median is this value correctly rounded
    reference = mpmath.mpf("0.6744897501960817432022270145413071853869")
    assert HALF_NORMAL.median == float(reference)


def test_hn_isf_relative_error_down_to_two_to_minus_1000():
    # Error budget: |x - x*| / x* <= 1e-14 for s = 2^-k, k = 1..1000, where
    # x* is the 50-digit root of erfc(x/sqrt 2) = s (measured 3.0e-16). The
    # error is taken in x: a residual in s is inflated by the conditioning
    # of erfc out there (to about 4e-13 at k = 949) even when x is accurate.
    worst = 0.0
    with mpmath.workdps(50):
        root2 = mpmath.sqrt(2)
        for k in range(1, 1001):
            s = mpmath.ldexp(1, -k)
            x = float(_hn_isf(2.0 ** -k))
            exact = mpmath.findroot(lambda t: mpmath.erfc(t / root2) - s, x)
            worst = max(worst, float(abs((x - exact) / exact)))
    assert worst <= 1e-14


def test_half_normal_log_derivative():
    assert HALF_NORMAL.log_derivative(2.5) == -2.5
    with pytest.raises(ValueError):
        HALF_NORMAL.log_derivative(-0.5)


def test_half_normal_sf_tail_accuracy():
    # relative accuracy far in the tail, where 1 - cdf would lose everything
    x = 8.0
    assert HALF_NORMAL.sf(x) == pytest.approx(2.0 * normal_sf(x), rel=1e-14)
    assert HALF_NORMAL.sf(x) > 0.0


def test_half_normal_closed_forms_against_mpmath():
    # F, R = (1 - F)/p, H = p + x F and G = p - x (1 - F) on [0, 40]
    # against 50-digit mpmath. Budgets, with eps = 2^-52: where the
    # reference is a normal float, relative 8 eps for F, R and H (measured
    # 2.7 eps) and 8 eps (1 + x^2) for G = p (1 - x R), where 1 - x R is
    # about 1/x^2 and the eps x^2/2 rounding of p's exponent is not
    # magnified again (measured 1.8 eps (1 + x^2)); below the normal range,
    # which G leaves at x = 37.44, absolute 2^-1022.
    xs = np.linspace(0.0, 40.0, 401)
    eps = np.finfo(float).eps
    tiny = np.finfo(float).tiny
    with mpmath.workdps(50):
        refs = {hn_cdf: [], mills: [], hn_cdf_integral: [],
                hn_tail_integral: []}
        for x in map(mpmath.mpf, xs):
            p = 2 * mpmath.npdf(x)
            cdf = mpmath.erf(x / mpmath.sqrt(2))
            tail = mpmath.erfc(x / mpmath.sqrt(2))
            refs[hn_cdf].append(float(cdf))
            refs[mills].append(float(tail / p))
            refs[hn_cdf_integral].append(float(p + x * cdf))
            refs[hn_tail_integral].append(float(p - x * tail))
    for fn, ref in refs.items():
        ref = np.array(ref)
        rel = 8.0 * eps * ((1.0 + xs ** 2) if fn is hn_tail_integral else 1.0)
        budget = np.where(np.abs(ref) >= tiny, rel * np.abs(ref), tiny)
        assert np.all(np.abs(fn(xs) - ref) <= budget), fn.__name__
