import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from halfnorm_stein import metrics, walks
from halfnorm_stein.normal import HALF_NORMAL, HALF_NORMAL_MEAN

SQRT_2_PI = math.sqrt(2.0 / math.pi)


def test_kolmogorov_point_mass_at_zero():
    law = walks.ScaledLaw(walks.ExactPMF(0, 0, (1,), 1, "degenerate"), 1.0)
    assert metrics.kolmogorov_exact(law) == 1.0


def test_kolmogorov_returns_two_steps():
    # atoms 0 and 1/sqrt(2), mass 1/2 each; sup is the jump to 1/2 at zero
    law = walks.scaled_law("returns", 2)
    assert metrics.kolmogorov_exact(law) == 0.5


@pytest.mark.parametrize("tag,n", [("returns", 64), ("max", 64),
                                   ("halfmax", 64), ("signchanges", 65)])
def test_kolmogorov_lower_bound_mass_at_zero(tag, n):
    law = walks.scaled_law(tag, n)
    assert metrics.kolmogorov_exact(law) >= float(law.base.mass(0)) - 1e-15


def test_kolmogorov_scale_invariance():
    base = walks.pmf_max(16)
    a = metrics.kolmogorov_exact(walks.ScaledLaw(base, 0.25))
    # scale invariance holds between two lattice laws, not against the
    # fixed half-normal target; instead check the sup is stable under
    # re-representation of the same law
    b = metrics.kolmogorov_exact(walks.ScaledLaw(
        walks.ExactPMF(base.lower, base.upper,
                       tuple(2 * v for v in base.numerators),
                       2 * base.denominator, "rescaled"), 0.25))
    assert a == b


def test_wasserstein_point_mass_at_mean():
    pmf = walks.ExactPMF(1, 1, (1,), 1, "degenerate")
    law = walks.ScaledLaw(pmf, HALF_NORMAL_MEAN)
    expected, _ = integrate.quad(
        lambda x: abs(x - HALF_NORMAL_MEAN) * HALF_NORMAL.pdf(x), 0.0, np.inf)
    assert metrics.wasserstein_exact(law) == pytest.approx(expected, abs=1e-10)


def test_wasserstein_mean_difference_lower_bound():
    # d_W dominates |E[W] - E[Y]|
    for tag, n in (("returns", 16), ("max", 32), ("signchanges", 15)):
        law = walks.scaled_law(tag, n)
        gap = abs(law.mean() - HALF_NORMAL_MEAN)
        assert metrics.wasserstein_exact(law) >= gap - 1e-12


@pytest.mark.parametrize("tag,ns", [("returns", (2, 16, 128, 512)),
                                    ("max", (2, 16, 128, 512)),
                                    ("signchanges", (3, 17, 129, 513))])
def test_wasserstein_dual_agreement(tag, ns):
    for n in ns:
        law = walks.scaled_law(tag, n)
        a = metrics.wasserstein_exact(law)
        b = metrics.wasserstein_quantile(law)
        assert abs(a - b) <= 1e-8


@pytest.mark.parametrize("tag,n", [("returns", 106), ("returns", 116),
                                   ("returns", 124), ("max", 54), ("max", 60),
                                   ("halfmax", 54), ("halfmax", 90),
                                   ("signchanges", 65)])
def test_wasserstein_quantile_finite_below_top_atom(tag, n):
    # these laws have a CDF of 1 - 2^-53 one atom before the end; there
    # (1 + u) / 2 rounds to 1 and the quantile used to come out infinite
    law = walks.scaled_law(tag, n)
    quad = metrics.wasserstein_quantile(law)
    assert math.isfinite(quad)
    assert abs(quad - metrics.wasserstein_exact(law)) <= 1e-8


def test_wasserstein_quantile_node_floor():
    with pytest.raises(ValueError):
        metrics.wasserstein_quantile(walks.scaled_law("returns", 4), nodes=32)


def test_theorem_bound_values():
    assert metrics.theorem_bound("max", 100, "W") == \
        pytest.approx((3.0 + 2.0 / math.pi) / 10.0, rel=1e-15)
    assert metrics.theorem_bound("returns", 100, "K") == pytest.approx(
        ((3.0 + 2.0 * math.sqrt(2.0)) / math.sqrt(2.0 * math.pi) + 0.75) / 10.0
        + 3.0 / 200.0, rel=1e-15)
    val = metrics.theorem_bound("signchanges", 101, "K")
    rn = math.sqrt(101.0)
    assert val == pytest.approx(
        ((2.0 * math.sqrt(2.0) + 4.0) / math.sqrt(math.pi) + 1.5) / rn
        + 3.0 / 101.0 + 4.0 / math.sqrt(math.pi) / 101.0 ** 1.5, rel=1e-15)


def test_theorem_bound_parity():
    with pytest.raises(ValueError):
        metrics.theorem_bound("max", 101, "W")
    with pytest.raises(ValueError):
        metrics.theorem_bound("signchanges", 100, "K")
    with pytest.raises(ValueError):
        metrics.theorem_bound("returns", 100, "L1")
    with pytest.raises(ValueError):
        metrics.theorem_bound("halfmax", 100, "K")


@pytest.mark.parametrize("tag,n", [("returns", 2), ("max", 2),
                                   ("signchanges", 3)])
def test_bound_check_smallest_cases(tag, n):
    report = metrics.bound_check(tag, n)
    assert report.passed
    assert report.margin_K == report.bound_K - report.kolmogorov
    assert report.margin_W == report.bound_W - report.wasserstein


def test_bound_check_returns_two():
    assert metrics.bound_check("returns", 2).kolmogorov == 0.5


def test_bound_sweep_matches_single():
    ns = [8, 16, 32, 64, 128]
    sweep = metrics.bound_sweep("returns", ns)
    single = [metrics.bound_check("returns", n) for n in ns]
    assert [dataclasses.astuple(r) for r in sweep] == \
        [dataclasses.astuple(r) for r in single]


@given(st.integers(1, 256))
@settings(max_examples=25, deadline=None)
def test_auxiliary_bounds(m):
    report = metrics.auxiliary_bounds(m)
    assert report.passed
    assert report.even_agreement
    n = 2 * m
    assert report.dK_VW <= Fraction(
        math.nextafter(SQRT_2_PI / math.sqrt(n), math.inf))


def test_auxiliary_smallest_case():
    report = metrics.auxiliary_bounds(1)
    # d_K(2N, M) on the lattice is P(M_2 = 1) = 1/4
    assert report.dK_VW == Fraction(1, 4)


def test_rate_table_returns():
    rows = metrics.rate_table("returns", [64, 256, 1024])
    assert [r.n for r in rows] == [64, 256, 1024]
    for row in rows:
        assert 0.5 <= row.sqrtn_dK <= 2.5
        assert row.sqrtn_p0 == pytest.approx(SQRT_2_PI, abs=0.1)
    with pytest.raises(ValueError):
        metrics.rate_table("returns", [])


def test_rate_table_limits_at_large_n():
    row = metrics.rate_table("returns", [4096])[0]
    assert 0.79 <= row.sqrtn_p0 <= 0.81
    assert 0.9 <= row.sqrtn_mean_gap <= 1.1
