import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import integrate, special

from halfnorm_stein.normal import (HALF_NORMAL_MEAN, HALF_NORMAL_MEDIAN,
                                   INV_SQRT_2PI, _hn_isf, _hn_quantile,
                                   hn_cdf, hn_cdf_integral, hn_pdf,
                                   hn_tail_integral, mill_bounds, mills, phi)


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


def test_phi_far_out_is_zero_without_overflow():
    # phi underflows to 0.0 from |x| ~ 38.6; squaring 1e200 would overflow,
    # and the suite turns that warning into an error
    xs = np.array([38.7, 40.0, 1e154, 1e200, 1e308, np.inf])
    assert np.all(phi(xs) == 0.0) and np.all(phi(-xs) == 0.0)
    assert np.isnan(phi(np.nan))


def _normal_tail(x):
    """1 - Phi(x) = erfc(x / sqrt 2)/2 from 50-digit mpmath."""
    with mpmath.workdps(50):
        return float(mpmath.erfc(mpmath.mpf(x) / mpmath.sqrt(2)) / 2)


def test_mill_bounds_at_one():
    lower, upper = mill_bounds(1.0)
    assert lower == pytest.approx(0.120985, abs=1e-6)
    assert upper == pytest.approx(0.241970, abs=1e-6)
    assert lower < _normal_tail(1.0) < upper


def test_mill_bounds_tight_in_tail():
    lower, upper = mill_bounds(10.0)
    tail = _normal_tail(10.0)
    assert (upper - lower) / tail < 2e-2
    assert lower <= tail <= upper


def test_mill_bounds_grid():
    # reference: scipy's standard normal CDF at -x
    xs = np.linspace(1e-3, 10.0, 10_000)
    lower, upper = mill_bounds(xs)
    tail = special.ndtr(-xs)
    assert np.all(lower < tail)
    assert np.all(tail < upper)


def test_mill_bounds_domain():
    # nan is refused as well: a guard on x <= 0 let it through
    for x in (0.0, math.nan, [1.0, math.nan]):
        with pytest.raises(ValueError):
            mill_bounds(x)


def test_half_normal_pdf_cdf():
    xs = np.linspace(0.01, 8.0, 500)
    with mpmath.workdps(50):
        ref = np.array([float(mpmath.erf(mpmath.mpf(x) / mpmath.sqrt(2)))
                        for x in xs])
    assert np.max(np.abs(hn_cdf(xs) - ref)) < 1e-15
    assert hn_pdf(0.0) == 2.0 * INV_SQRT_2PI
    assert hn_cdf(0.0) == 0.0
    assert hn_cdf(HALF_NORMAL_MEDIAN) == pytest.approx(0.5, abs=1e-12)


def test_half_normal_pdf_is_cdf_derivative():
    step = 1e-5
    for x in np.linspace(0.01, 6.0, 200):
        num = (hn_cdf(x + step) - hn_cdf(x - step)) / (2 * step)
        assert num == pytest.approx(hn_pdf(x), abs=1e-6)


def test_half_normal_mean_quadrature():
    val, _ = integrate.quad(lambda x: x * hn_pdf(x), 0.0, np.inf)
    assert abs(val - HALF_NORMAL_MEAN) < 1e-10
    assert HALF_NORMAL_MEAN == pytest.approx(math.sqrt(2.0 / math.pi), abs=0.0)


def test_half_normal_ppf_roundtrip():
    qs = np.linspace(1e-6, 1.0 - 1e-9, 400)
    xs = _hn_quantile(qs)
    assert np.max(np.abs(hn_cdf(xs) - qs)) < 1e-12
    assert _hn_quantile(1.0) == np.inf


def test_half_normal_ppf_just_below_one():
    # (1 + q)/2 rounds to 1 here; the survival side keeps the quantile finite
    q = 1.0 - 2.0 ** -53
    x = _hn_quantile(q)
    assert x == pytest.approx(8.292361075813595, rel=1e-13)
    assert hn_pdf(x) * mills(x) == pytest.approx(2.0 ** -53, rel=1e-12)


def test_half_normal_median_correctly_rounded():
    # Phi^{-1}(3/4) = sqrt(2) erfinv(1/2) to 40 digits (mpmath, 50-digit
    # working precision); budget: the median is this value correctly rounded
    reference = mpmath.mpf("0.6744897501960817432022270145413071853869")
    assert HALF_NORMAL_MEDIAN == float(reference)


def test_hn_isf_relative_error_down_to_two_to_minus_1000():
    # Error budget: |x - x*| / x* <= 1e-14 for s = 2^-k, k = 1..1000, where
    # x* is the 50-digit root of erfc(x/sqrt 2) = s (measured 6.6e-16). The
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


def test_half_normal_sf_tail_accuracy():
    # 1 - F = p R keeps its relative accuracy far in the tail, where
    # 1 - hn_cdf would lose everything; reference erfc(x/sqrt 2) from
    # 50-digit mpmath, budget 1e-14 relative
    x = 8.0
    with mpmath.workdps(50):
        exact = float(mpmath.erfc(mpmath.mpf(x) / mpmath.sqrt(2)))
    assert hn_pdf(x) * mills(x) == pytest.approx(exact, rel=1e-14)
    assert hn_pdf(x) * mills(x) > 0.0


def test_half_normal_closed_forms_against_mpmath():
    # F, R = (1 - F)/p, H = p + x F and G = p - x (1 - F) on [0, 40]
    # against 50-digit mpmath. Budgets, with eps = 2^-52: where the
    # reference is a normal float, relative 8 eps for F, R and H (measured
    # 1.0 eps) and 8 eps (1 + x^2) for G = p (1 - x R), where 1 - x R is
    # about 1/x^2 and the eps x^2/2 rounding of p's exponent is not
    # magnified again (measured 1.2 eps (1 + x^2)); below the normal range,
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


def test_half_normal_cdf_relative_accuracy_near_zero():
    # F = erf(x / sqrt 2) keeps its relative accuracy as x -> 0, where
    # 2 cap_phi(x) - 1 cancels (9.8e-5 relative at x = 1e-12). Reference
    # 40-digit mpmath on a geometric grid from 1e-300 to 40; budget 4 eps
    # relative (measured 1.0 eps)
    xs = np.geomspace(1e-300, 40.0, 601)
    with mpmath.workdps(40):
        ref = np.array([float(mpmath.erf(mpmath.mpf(x) / mpmath.sqrt(2)))
                        for x in xs])
    eps = np.finfo(float).eps
    assert np.all(np.abs(hn_cdf(xs) - ref) <= 4.0 * eps * ref)


def test_mills_ratio_against_mpmath_on_a_geometric_grid():
    # R = (1 - F)/p on x = 1e-3 .. 1e3, the range the Stein solves reach
    # (LIPSCHITZ_X_MAX = 1000), against 50-digit mpmath; budget 8 eps
    # relative (measured 1.4 eps; scipy's erfcx 4.1 eps)
    xs = np.geomspace(1e-3, 1e3, 601)
    with mpmath.workdps(50):
        ref = np.array([float(mpmath.erfc(x / mpmath.sqrt(2))
                              / (2 * mpmath.npdf(x)))
                        for x in map(mpmath.mpf, xs)])
    eps = np.finfo(float).eps
    assert np.all(np.abs(mills(xs) - ref) <= 8.0 * eps * ref)


@pytest.mark.parametrize("x", [1e154, 1e300, math.inf])
def test_mills_ratio_and_tail_integral_far_out(x):
    # R is about 1/x - 1/x^3, which is 1/x in doubles; G is 0.0 from 38.41
    # on. Both stay finite with no warning, and R(inf) = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r, g = mills(x), hn_tail_integral(x)
        rs, gs = mills(np.array([x])), hn_tail_integral(np.array([x]))
    assert np.isfinite(r) and g == 0.0 and rs[0] == r and gs[0] == g
    assert r == (0.0 if x == math.inf else 1.0 / x)


@pytest.mark.parametrize("x", [-1e-300, -0.5, -37.5, -1e3, -math.inf])
def test_left_half_line_reads_as_zero(x):
    # the half-normal law lives on [0, inf): F, R and G read a negative x
    # as 0, so F(x) = 0.0, the half-normal CDF there, R(x) = R(0) and
    # G(x) = G(0) = p(0), the mean; as a float and inside an array, with
    # no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = [(fn(x), fn(np.array([x, 1.0]))[0])
                  for fn in (hn_cdf, mills, hn_tail_integral)]
    for (at_float, in_array), want in zip(
            values, (0.0, mills(0.0), HALF_NORMAL_MEAN)):
        assert at_float == want and in_array == want


def test_normal_tails_relative_accuracy():
    # The half-normal tail 1 - F = p R = erfc(x / sqrt 2) on [0, 38]
    # against 50-digit mpmath. Budget, with eps = 2^-52: relative
    # 2 eps (1 + x^2) where the reference is a normal float, absolute
    # 2^-1022 below it (from x = 37.55). The eps x^2 term is the rounding of
    # x^2 in p's exponent, or of x / sqrt 2 inside erfc: scipy's erfc
    # measured 0.99 eps (1 + x^2) at x = 5.9, and this package 1.0 eps at
    # x = 0, 0.67 eps (1 + x^2) at x = 0.6 and 0.29 eps (1 + x^2) from
    # x = 2 on.
    xs = np.linspace(0.0, 38.0, 381)
    with mpmath.workdps(50):
        ref = np.array([float(mpmath.erfc(x / mpmath.sqrt(2)))
                        for x in map(mpmath.mpf, xs)])
    eps = np.finfo(float).eps
    tiny = np.finfo(float).tiny
    budget = np.where(ref >= tiny, 2.0 * eps * (1.0 + xs ** 2) * ref, tiny)
    assert np.all(np.abs(hn_pdf(xs) * mills(xs) - ref) <= budget)


_BIT_POINTS = np.concatenate([
    np.linspace(-12.0, 12.0, 481), np.geomspace(1e-300, 1e3, 61),
    [0.0, -0.0, 1e-3, 9.999, 10.0, 10.001, 37.5, 40.0, 1e154, 1e300,
     math.inf, -math.inf]])
_NONNEGATIVE = _BIT_POINTS[_BIT_POINTS >= 0.0]
_LEVELS = np.concatenate([np.linspace(0.0, 1.0, 401), 2.0 ** -np.arange(
    1.0, 1075.0, 7.0), [0.075, 0.15, 0.85, 0.925, 1.0 - 2.0 ** -53]])


@pytest.mark.parametrize("fn, points", [
    pytest.param(fn, points, id=fn.__name__) for fn, points in (
        (phi, _BIT_POINTS), (hn_pdf, _BIT_POINTS), (hn_cdf, _BIT_POINTS),
        (mills, _BIT_POINTS), (hn_cdf_integral, _NONNEGATIVE),
        (hn_tail_integral, _BIT_POINTS),
        (_hn_isf, _LEVELS), (_hn_quantile, _LEVELS))])
def test_float_argument_matches_array_bit_for_bit(fn, points):
    # a float or a 0-d array is evaluated as a one-element array; it gives
    # the same double as the same point inside a longer array, sign of zero
    # included, so no element's value depends on its neighbours; a float
    # gives np.float64, and an empty array gives an empty array
    values = fn(points)
    for x, expected in zip(points.tolist(), values):
        got = fn(x)
        assert type(got) is np.float64, (x, type(got))
        assert got.tobytes() == expected.tobytes(), (x, got, expected)
        assert fn(np.array(x)).tobytes() == expected.tobytes(), x
    assert fn(points[:0]).shape == (0,)
