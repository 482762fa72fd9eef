import math

import mpmath
import numpy as np
import pytest

from halfnorm_stein import stein, walks
from halfnorm_stein.normal import (HALF_NORMAL, cap_phi, hn_cdf, mills,
                                   normal_sf, phi)

SQRT_2_PI = math.sqrt(2.0 / math.pi)


class TestMuH:
    def test_indicator_at_median(self):
        assert stein.mu_h(stein.HalfLineIndicator(HALF_NORMAL.median)) == \
            pytest.approx(0.5, abs=1e-12)

    def test_indicator_at_zero(self):
        assert stein.mu_h(stein.HalfLineIndicator(0.0)) == 0.0

    def test_identity_gives_mean(self):
        assert stein.mu_h(stein.IDENTITY) == pytest.approx(SQRT_2_PI, abs=1e-10)


class TestIndicatorSolution:
    def test_fz_diagonal_closed_form(self):
        for z in (0.5, 1.0, 2.0, 3.5):
            expected = normal_sf(z) * (2.0 * cap_phi(z) - 1.0) / phi(z)
            assert stein.fz(z, z) == pytest.approx(expected, rel=1e-13)

    def test_fz_zero_level(self):
        for x in (0.0, 0.5, 2.0):
            assert stein.fz(0.0, x) == 0.0

    def test_fz_left_branch(self):
        # x <= z: (1 - F(z)) * M(x) with M = F/p
        z, x = 1.0, 0.3
        expected = (2.0 * normal_sf(z)) * stein.aux_M(x)
        assert stein.fz(z, x) == pytest.approx(expected, rel=1e-13)

    def test_fz_maximum_on_diagonal(self):
        z = 1.3
        peak = stein.fz(z, z)
        for x in np.linspace(0.0, 8.0, 801):
            assert stein.fz(z, x) <= peak + 1e-15

    def test_fz_prime_signs(self):
        assert stein.fz_prime(1.0, 0.4) > 0.0
        assert stein.fz_prime(1.0, 1.7) < 0.0

    def test_fz_prime_at_origin(self):
        assert stein.fz_prime(1.0, 0.0) == pytest.approx(2.0 * normal_sf(1.0),
                                                         rel=1e-13)

    def test_fz_prime_jump_requires_side(self):
        with pytest.raises(ValueError):
            stein.fz_prime(1.0, 1.0)
        left = stein.fz_prime(1.0, 1.0, side="left")
        right = stein.fz_prime(1.0, 1.0, side="right")
        assert left - right == pytest.approx(1.0, abs=1e-13)

    def test_fz_prime_two_routes_agree(self):
        for z in (0.7, 1.5, 3.0):
            for x in np.linspace(0.05, 6.0, 120):
                if abs(x - z) < 1e-9:
                    continue
                a = stein.fz_prime(z, x)
                b = stein.fz_prime_hg(z, x)
                assert a == pytest.approx(b, abs=1e-12)

    def test_fz_finite_far_in_the_tail(self):
        # x = 40 lies past the underflow of both 1 - F(x) and p(x); there
        # f_z(x) = F(z) N(x), so its budget is that of aux_N (1e-13).
        f = stein.fz(1.0, 40.0)
        with mpmath.workdps(50):
            x, z = mpmath.mpf(40), mpmath.mpf(1)
            exact = float(mpmath.erf(z / mpmath.sqrt(2))
                          * mpmath.erfc(x / mpmath.sqrt(2))
                          / (2 * mpmath.npdf(x)))
        assert f == pytest.approx(exact, rel=1e-13)
        assert math.isfinite(stein.fz_prime(1.0, 40.0))


    # Deep in the tail 1 - F(z) and p(x) both underflow, so no ratio may be
    # formed from them. References: 50-digit mpmath, 1 - F(z) as erfc, not
    # as a difference. Budgets: relative 1e-13 for f_z and for the left
    # branch of fz_prime_hg (measured 1.4e-16); relative 1e-11 where
    # 1 - x N(x) cancels to about 1/x^2 (measured 2.5e-13 at x = 40).
    @pytest.mark.parametrize("z,x", [(40.0, 39.0), (38.0, 37.0)])
    def test_fz_left_branch_deep_in_the_tail(self, z, x):
        with mpmath.workdps(50):
            zm, xm = mpmath.mpf(z), mpmath.mpf(x)
            exact = float(mpmath.erf(xm / mpmath.sqrt(2))
                          * mpmath.erfc(zm / mpmath.sqrt(2))
                          / (2 * mpmath.npdf(xm)))
        assert stein.fz(z, x) == pytest.approx(exact, rel=1e-13, abs=0.0)

    def test_fz_prime_hg_deep_in_the_tail(self):
        with mpmath.workdps(50):
            x = mpmath.mpf(40)
            r = mpmath.erfc(x / mpmath.sqrt(2)) / (2 * mpmath.npdf(x))
            right = float(-mpmath.erf(1 / mpmath.sqrt(2)) * (1 - x * r))
            h = 2 * mpmath.npdf(39) + 39 * mpmath.erf(39 / mpmath.sqrt(2))
            left = float(h * mpmath.erfc(x / mpmath.sqrt(2))
                         / (2 * mpmath.npdf(39)))
        assert stein.fz_prime_hg(1.0, 40.0) == \
            pytest.approx(right, rel=1e-11, abs=0.0)
        assert stein.fz_prime_hg(40.0, 39.0) == \
            pytest.approx(left, rel=1e-13, abs=0.0)


class TestLipschitzSolution:
    def test_solution_vanishes_at_origin(self):
        assert stein.solve_fh(stein.IDENTITY, 0.0) == 0.0
        assert stein.solve_fh(stein.CAPPED_AT_ONE, 0.0) == 0.0
        assert stein.solve_fh(stein.IDENTITY, -1.0) == 0.0

    def test_indicator_dispatch(self):
        h = stein.HalfLineIndicator(1.0)
        assert stein.solve_fh(h, 1.0) == pytest.approx(stein.fz(1.0, 1.0),
                                                       abs=0.0)

    def test_identity_residual_closed_form(self):
        # f'(x) - x f(x) = x - sqrt(2/pi) for h = identity
        for x in (0.5, 1.0, 2.0):
            lhs = (stein.solve_fh_prime(stein.IDENTITY, x)
                   - x * stein.solve_fh(stein.IDENTITY, x))
            assert lhs == pytest.approx(x - SQRT_2_PI, abs=1e-7)

    @pytest.mark.parametrize("h", [stein.IDENTITY, stein.CAPPED_AT_ONE],
                             ids=["identity", "min1"])
    def test_quadrature_matches_closed_form_up_to_x_max(self, h):
        # for x > 1: f = sqrt(2/pi) R(x) - 1 for h(x) = x and
        # f = -(1 - E[min(Y, 1)]) R(x) for h(x) = min(x, 1); budget 1e-10
        # absolute (measured 3.5e-11 for the identity up to x = 1000)
        mu = stein.mu_h(h)
        for x in np.geomspace(1.5, stein.LIPSCHITZ_X_MAX, 80):
            closed = (SQRT_2_PI * mills(x) - 1.0 if h is stein.IDENTITY
                      else -(1.0 - mu) * mills(x))
            assert abs(stein.solve_fh(h, x) - closed) <= 1e-10, x

    @pytest.mark.parametrize("x", [1000.5, 1e4, 1e12, math.inf, math.nan])
    def test_quadrature_refused_beyond_x_max(self, x):
        # at x = 1e4 the quadrature misses the peak and gave f = -9.2e-55
        # for a true -0.99992; at 1e12 the difference quotient divided by 0
        for fn in (stein.solve_fh, stein.solve_fh_prime,
                   stein.stein_residual_continuous):
            with pytest.raises(walks.DomainError, match="x <= 1000"):
                fn(stein.CAPPED_AT_ONE, x)


class TestSteinResidual:
    @pytest.mark.parametrize("z", [0.5, 1.0, 2.0, 4.0])
    def test_indicator_residual(self, z):
        h = stein.HalfLineIndicator(z)
        for x in np.linspace(0.05, 8.0, 160):
            if abs(x - z) < 1e-9:
                continue
            assert abs(stein.stein_residual_continuous(h, x)) < 1e-7

    @pytest.mark.parametrize("h", [stein.IDENTITY, stein.CAPPED_AT_ONE],
                             ids=["identity", "min1"])
    def test_lipschitz_residual(self, h):
        for x in np.linspace(0.05, 8.0, 160):
            assert abs(stein.stein_residual_continuous(h, x)) < 1e-7


class TestAuxFunctions:
    def test_m_and_n_limits(self):
        assert stein.aux_M(0.0) == 0.0
        assert stein.aux_N(0.0) == pytest.approx(math.sqrt(math.pi / 2.0),
                                                 rel=1e-13)

    def test_n_is_the_mills_ratio_out_to_60(self):
        # Error budget: relative error <= 1e-13 against 50-digit mpmath
        # (1 - F)/p on [0, 60] (measured 5.6e-16); 1 - F and p both
        # underflow past x ~ 38.6, so the ratio must not be formed from them.
        xs = np.linspace(0.0, 60.0, 601)
        vals = stein.aux_N(xs)
        with mpmath.workdps(50):
            ref = np.array([float(mpmath.erfc(x / mpmath.sqrt(2))
                                  / (2 * mpmath.npdf(x)))
                            for x in map(mpmath.mpf, xs)])
        assert np.all(np.abs(vals - ref) <= 1e-13 * ref)

    def test_s_deep_in_the_tail(self):
        # budget as for fz_prime_hg above: 1 - x N(x) cancels
        with mpmath.workdps(50):
            x = mpmath.mpf(40)
            r = mpmath.erfc(x / mpmath.sqrt(2)) / (2 * mpmath.npdf(x))
            exact = float(4 * (1 - x * r)
                          * (mpmath.npdf(x) + x * (mpmath.ncdf(x) - 0.5)
                             - 1 / (2 * mpmath.sqrt(2 * mpmath.pi))))
        assert stein.aux_S(40.0) == pytest.approx(exact, rel=1e-11, abs=0.0)

    def test_m_nondecreasing_n_nonincreasing(self):
        xs = np.linspace(0.0, 8.0, 400)
        m_vals = np.array([stein.aux_M(x) for x in xs])
        n_vals = np.array([stein.aux_N(x) for x in xs])
        assert np.all(np.diff(m_vals) >= 0.0)
        assert np.all(np.diff(n_vals) <= 0.0)

    def test_h_g_derivatives(self):
        # H' = F and G' = -(1 - F), checked by central differences
        step = 1e-6
        for x in np.linspace(0.1, 6.0, 80):
            cdf = HALF_NORMAL.cdf(x)
            h_num = (stein.aux_H(x + step) - stein.aux_H(x - step)) / (2 * step)
            g_num = (stein.aux_G(x + step) - stein.aux_G(x - step)) / (2 * step)
            assert h_num == pytest.approx(cdf, abs=1e-6)
            assert g_num == pytest.approx(-(1.0 - cdf), abs=1e-6)

    def test_g_nonnegative_and_vanishing(self):
        xs = np.linspace(0.0, 10.0, 500)
        g_vals = np.array([stein.aux_G(x) for x in xs])
        assert np.all(g_vals >= 0.0)
        assert stein.aux_G(10.0) < 1e-20

    def test_u_v_nonpositive(self):
        for x in (0.1, 1.0, 3.0, 10.0):
            assert stein.aux_U(x) <= 0.0
            assert stein.aux_V(x) <= 0.0

    def test_s_peak_at_zero(self):
        assert stein.aux_S(0.0) == pytest.approx(SQRT_2_PI, abs=1e-12)
        xs = np.linspace(0.0, 10.0, 500)
        assert max(stein.aux_S(x) for x in xs) <= SQRT_2_PI + 1e-12

    def test_d1_nonnegative_d2_nonpositive(self):
        xs = np.linspace(0.0, 10.0, 500)
        assert all(stein.aux_D1(x) >= 0.0 for x in xs)
        assert all(stein.aux_D2(x) <= 0.0 for x in xs)

    def test_d2_peak(self):
        x0 = math.sqrt(math.log(32.0 / math.pi))
        assert stein.aux_D2(x0) == pytest.approx(-0.01701, abs=5e-5)

    def test_aux_eval_dispatch(self):
        assert stein.aux_eval("S", 0.0) == stein.aux_S(0.0)
        with pytest.raises(ValueError):
            stein.aux_eval("Q", 1.0)


def _diagonal(z):
    """f_z(z) = F(z) R(z), elementwise."""
    return hn_cdf(z) * mills(z)


class TestSupSearch:
    def test_diagonal_supremum(self):
        _, peak = stein.sup_search(_diagonal, 0.0, 8.0)
        assert peak == pytest.approx(0.456296, abs=5e-4)

    def test_diagonal_closed_form_is_fz_bitwise(self):
        zs = np.linspace(0.0, 8.0, stein.SUP_GRID)
        assert list(_diagonal(zs)) == [stein.fz(z, z) for z in zs]

    @pytest.mark.parametrize("f", [stein.aux_S, stein.aux_D2, _diagonal],
                             ids=["S", "D2", "diagonal"])
    def test_rows_match_scalar_calls(self, f):
        # sup_search scans its grid in one call of f
        xs = np.linspace(0.0, 8.0, stein.SUP_GRID)
        assert list(f(xs)) == [f(x) for x in xs]

    def test_s_supremum(self):
        argmax, peak = stein.sup_search(stein.aux_S, 0.0, 10.0)
        assert argmax == pytest.approx(0.0, abs=1e-3)
        assert peak == pytest.approx(SQRT_2_PI, abs=1e-10)

    def test_d2_argmax(self):
        argmax, _ = stein.sup_search(stein.aux_D2, 0.0, 5.0)
        assert argmax == pytest.approx(1.52348, abs=1e-3)

    def test_empty_interval(self):
        with pytest.raises(ValueError):
            stein.sup_search(stein.aux_S, 1.0, 1.0)


class TestLemmaReports:
    def test_indicator_report(self):
        report = stein.verify_lemma_bounds("indicator", grid=120)
        by_name = {c.name: c for c in report.checks}
        assert by_name["sup |f_z|"].observed == pytest.approx(0.456296,
                                                              abs=5e-4)
        assert by_name["sup |f_z|"].limit == 0.5
        assert by_name["sup |f_z'|"].limit == 1.0
        assert report.passed

    @pytest.mark.parametrize("h", [stein.IDENTITY, stein.CAPPED_AT_ONE],
                             ids=["identity", "min1"])
    def test_lipschitz_report(self, h):
        report = stein.verify_lemma_bounds("lipschitz", grid=120, h=h)
        assert report.passed
        names = [c.name for c in report.checks]
        assert names == ["sup |f_h|", "sup |f_h'|", "sup |f_h''|"]

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            stein.verify_lemma_bounds("quadratic")

    @pytest.mark.parametrize("kind", ["indicator", "lipschitz"])
    @pytest.mark.parametrize("grid", [0, 1])
    def test_degenerate_grid_rejected(self, kind, grid):
        with pytest.raises(ValueError, match="at least 2 points"):
            stein.verify_lemma_bounds(kind, grid=grid)

    @pytest.mark.parametrize("kind", ["indicator", "lipschitz"])
    @pytest.mark.parametrize("z_hi", [0.0, -1.0])
    def test_empty_range_rejected(self, kind, z_hi):
        with pytest.raises(ValueError, match="z_hi must be positive"):
            stein.verify_lemma_bounds(kind, z_hi=z_hi, grid=10)

    def test_two_point_grid_accepted(self):
        for kind in ("indicator", "lipschitz"):
            assert stein.verify_lemma_bounds(kind, grid=2).passed


def _reference_indicator_report(z_hi, grid):
    """The indicator suite as a scalar double loop over fz and fz_prime."""
    zs = np.linspace(0.0, z_hi, grid)
    xs = np.linspace(0.0, z_hi, grid)
    sup_abs = 0.0
    sup_prime = 0.0
    for z in zs:
        for x in xs:
            sup_abs = max(sup_abs, abs(stein.fz(z, x)))
            if x == z:
                if z > 0.0:
                    sup_prime = max(sup_prime,
                                    abs(stein.fz_prime(z, x, side="left")))
                sup_prime = max(sup_prime,
                                abs(stein.fz_prime(z, x, side="right")))
            else:
                sup_prime = max(sup_prime, abs(stein.fz_prime(z, x)))
    _, diag_sup = stein.sup_search(_diagonal, 0.0, z_hi)
    return max(sup_abs, diag_sup), sup_prime


def _reference_lipschitz_report(h, x_hi, grid):
    """The Lipschitz suite as a per-point loop over the public solvers."""
    xs = np.linspace(0.0, x_hi, grid)
    sup_f = max(abs(stein.solve_fh(h, x)) for x in xs)
    sup_fp = max(abs(stein.solve_fh_prime(h, x)) for x in xs)
    step = 1e-3
    sup_fpp = 0.0
    for x in xs:
        if x < step:
            continue
        f2 = (stein.solve_fh(h, x + step) - 2.0 * stein.solve_fh(h, x)
              + stein.solve_fh(h, x - step)) / (step * step)
        sup_fpp = max(sup_fpp, abs(f2))
    return sup_f, sup_fp, sup_fpp


class TestReportParity:
    """The vectorised suites equal scalar loops over the public API, exactly."""

    def test_indicator_rows_match_scalar_loop(self):
        # grid 41 on [0, 5]: step 1/8, so z = 0 and every x = z is a node
        report = stein.verify_lemma_bounds("indicator", z_hi=5.0, grid=41)
        observed = tuple(c.observed for c in report.checks)
        assert observed == _reference_indicator_report(5.0, 41)

    @pytest.mark.parametrize("h", [
        stein.IDENTITY, stein.LipschitzFunction(lambda x: min(x, 1.3), 1.0)],
        ids=["identity", "cap1.3"])
    def test_lipschitz_matches_public_solvers(self, h):
        report = stein.verify_lemma_bounds("lipschitz", grid=30, h=h)
        observed = tuple(c.observed for c in report.checks)
        assert observed == _reference_lipschitz_report(h, 8.0, 30)

    def test_fz_rows_match_scalar_calls(self):
        xs = np.linspace(-1.0, 6.0, 57)
        for z in (0.0, 0.75, 2.5):
            assert list(stein.fz(z, xs)) == [stein.fz(z, x) for x in xs]
            for side in ("left", "right"):
                row = stein.fz_prime(z, xs, side=side)
                assert list(row) == [stein.fz_prime(z, x, side=side)
                                     for x in xs]

    def test_fz_prime_row_needs_side_at_jump(self):
        with pytest.raises(ValueError):
            stein.fz_prime(1.0, np.array([0.5, 1.0, 1.5]))


class TestMuHCalls:
    """E[h(Y)] is integrated once per suite and once per residual."""

    @pytest.fixture
    def mu_calls(self, monkeypatch):
        calls = []
        real = stein.mu_h

        def counting(h):
            calls.append(h)
            return real(h)

        monkeypatch.setattr(stein, "mu_h", counting)
        return calls

    @pytest.mark.parametrize("h", [stein.IDENTITY, stein.CAPPED_AT_ONE],
                             ids=["identity", "min1"])
    def test_one_call_per_lipschitz_suite(self, mu_calls, h):
        stein.verify_lemma_bounds("lipschitz", grid=20, h=h)
        assert mu_calls == [h]

    @pytest.mark.parametrize("h", [stein.IDENTITY, stein.CAPPED_AT_ONE,
                                   stein.HalfLineIndicator(1.0)],
                             ids=["identity", "min1", "indicator"])
    def test_one_call_per_residual(self, mu_calls, h):
        for k, x in enumerate((0.3, 1.2, 4.0), start=1):
            stein.stein_residual_continuous(h, x)
            assert len(mu_calls) == k


@pytest.mark.parametrize("z,hi", [(1.0, 6.0), (0.0, 6.0), (3.0, 10.0)])
def test_x_fz_monotone(z, hi):
    grid = np.arange(0.0, hi + 1e-9, 0.01)
    assert stein.verify_monotone_xfz(z, grid)
