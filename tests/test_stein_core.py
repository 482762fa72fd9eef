import json
import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy import integrate

from halfnorm_stein import cli, stein, walks
from halfnorm_stein.normal import (HALF_NORMAL_MEDIAN, cap_phi, hn_cdf,
                                   hn_cdf_integral, hn_pdf, hn_tail_integral,
                                   mills, normal_sf, phi)

SQRT_2_PI = math.sqrt(2.0 / math.pi)


class TestMuH:
    def test_indicator_at_median(self):
        assert stein.mu_h(stein.HalfLineIndicator(HALF_NORMAL_MEDIAN)) == \
            pytest.approx(0.5, abs=1e-12)

    def test_indicator_at_zero(self):
        assert stein.mu_h(stein.HalfLineIndicator(0.0)) == 0.0

    def test_indicator_below_zero(self):
        # 1_{[0,z]} is 0 on the support for z < 0, although F(-1) < 0
        assert stein.mu_h(stein.HalfLineIndicator(-1.0)) == 0.0

    def test_identity_gives_mean(self):
        assert stein.mu_h(stein.IDENTITY) == pytest.approx(SQRT_2_PI, abs=1e-10)

    @pytest.mark.parametrize("c", [1e160, 1e200, math.inf])
    def test_far_cap_gives_mean(self, c):
        # G clamps c at 40, so forming G(c) neither overflows nor reads
        # nan (a RuntimeWarning, which fails the suite); p(0) - G(c) is
        # the mean exactly
        assert stein.mu_h(stein.CappedIdentity(c)) == SQRT_2_PI

    def test_far_cap_changes_no_value(self):
        # G(c) is already 0.0 just below the clamp at 40, so p(0) - G(c)
        # there is the mean that the clamped G gives beyond it
        below = math.nextafter(40.0, 0.0)
        assert float(hn_tail_integral(below)) == 0.0
        assert stein.mu_h(stein.CappedIdentity(below)) == SQRT_2_PI


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

    def test_fz_finite_far_in_the_tail(self):
        # x = 40 lies past the underflow of both 1 - F(x) and p(x); there
        # f_z(x) = F(z) N(x), so its budget is that of N = mills (1e-13).
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
    # branch of fz_prime (measured 1.4e-16); relative 1e-11 where
    # 1 - x N(x) cancels to about 1/x^2 (measured 2.5e-13 at x = 40).
    @pytest.mark.parametrize("z,x", [(40.0, 39.0), (38.0, 37.0)])
    def test_fz_left_branch_deep_in_the_tail(self, z, x):
        with mpmath.workdps(50):
            zm, xm = mpmath.mpf(z), mpmath.mpf(x)
            exact = float(mpmath.erf(xm / mpmath.sqrt(2))
                          * mpmath.erfc(zm / mpmath.sqrt(2))
                          / (2 * mpmath.npdf(xm)))
        assert stein.fz(z, x) == pytest.approx(exact, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("z,x", [(50.0, 49.0), (10.0, 9.0)])
    def test_fz_prime_left_branch_against_mpmath(self, z, x):
        # x f + 1 - F(z) cancelled once F(z) rounds toward 1: it gave 0.0
        # at (50, 49) for a true 3.1e-22. Budget: relative 1e-13.
        with mpmath.workdps(50):
            zm, xm = mpmath.mpf(z), mpmath.mpf(x)
            h = 2 * mpmath.npdf(xm) + xm * mpmath.erf(xm / mpmath.sqrt(2))
            exact = float(h * mpmath.erfc(zm / mpmath.sqrt(2))
                          / (2 * mpmath.npdf(xm)))
        assert stein.fz_prime(z, x) == pytest.approx(exact, rel=1e-13, abs=0.0)

    def test_fz_prime_deep_in_the_tail(self):
        with mpmath.workdps(50):
            x = mpmath.mpf(40)
            r = mpmath.erfc(x / mpmath.sqrt(2)) / (2 * mpmath.npdf(x))
            right = float(-mpmath.erf(1 / mpmath.sqrt(2)) * (1 - x * r))
            h = 2 * mpmath.npdf(39) + 39 * mpmath.erf(39 / mpmath.sqrt(2))
            left = float(h * mpmath.erfc(x / mpmath.sqrt(2))
                         / (2 * mpmath.npdf(39)))
        assert stein.fz_prime(1.0, 40.0) == \
            pytest.approx(right, rel=1e-11, abs=0.0)
        assert stein.fz_prime(40.0, 39.0) == \
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

    @pytest.mark.parametrize("c", [math.inf, 1.0, 0.3, 1.3, 2.5, 8.0],
                             ids=["identity", "min1", "min0.3", "min1.3",
                                  "min2.5", "min8"])
    def test_quadrature_matches_closed_form_up_to_x_max(self, c):
        # The closed form of min(x, c) against quadrature of the same h
        # passed as an opaque function. Budgets: 1e-13 absolute for f
        # (measured 8.3e-16, at c = inf) and 1e-13 for E[h(Y)] (measured
        # 1.1e-16, at c = 0.3).
        capped = stein.CappedIdentity(c)
        opaque = stein.LipschitzFunction(lambda t: min(t, c), 1.0)
        assert abs(stein.mu_h(capped) - stein.mu_h(opaque)) <= 1e-13
        for x in np.geomspace(0.01, stein.LIPSCHITZ_X_MAX, 80):
            assert abs(stein.solve_fh(capped, x)
                       - stein.solve_fh(opaque, x)) <= 1e-13, x

    @pytest.mark.parametrize("a", [5.0, -3.0, 1e3])
    def test_opaque_h_off_zero_at_origin(self, a):
        # h = a + min(t, 1) has the solution of min(t, 1) and the mean
        # a + E[min(Y, 1)]; |h(0)| enters the tail the mesh drops. Budget
        # 1e-13 max(1, |a|) for f (measured 2.4e-13 at a = 1e3) and for
        # E[h(Y)] (measured 1.1e-13 at a = 1e3)
        opaque = stein.LipschitzFunction(lambda t: a + min(t, 1.0), 1.0)
        budget = 1e-13 * max(1.0, abs(a))
        mean = a + stein.mu_h(stein.CAPPED_AT_ONE)
        assert abs(stein.mu_h(opaque) - mean) <= budget
        xs = np.geomspace(0.01, stein.LIPSCHITZ_X_MAX, 80)
        diff = (stein.solve_fh(opaque, xs)
                - stein.solve_fh(stein.CAPPED_AT_ONE, xs))
        assert np.max(np.abs(diff)) <= budget

    @pytest.mark.parametrize("h", [
        stein.IDENTITY, stein.CAPPED_AT_ONE,
        stein.LipschitzFunction(lambda t: min(t, 1.0), 1.0)],
        ids=["identity", "min1", "opaque-min1"])
    def test_x_max_itself_is_solved(self, h):
        # the difference stencils at x = LIPSCHITZ_X_MAX stay at or below
        # it; budget 1e-9 for the residual, as at x = 999.9 (measured
        # 3.8e-12, for the identity)
        x = stein.LIPSCHITZ_X_MAX
        assert math.isfinite(stein.solve_fh_prime(h, x))
        assert abs(stein.stein_residual_continuous(h, x)) <= 1e-9
        assert stein.verify_lemma_bounds("lipschitz", z_hi=x, grid=50,
                                         h=h).passed

    @pytest.mark.parametrize("x", [1000.5, 1e4, 1e12, math.inf, math.nan])
    def test_quadrature_refused_beyond_x_max(self, x):
        # by x = 1e5 the quadrature misses the peak (f = -7.6e-51 for a true
        # -3.7e-6 at min(x, 1)); at 1e12 the difference quotient divided by 0
        for fn in (stein.solve_fh, stein.solve_fh_prime,
                   stein.stein_residual_continuous):
            with pytest.raises(walks.DomainError,
                               match=f"x <= 1000, got x = {x}$"):
                fn(stein.CAPPED_AT_ONE, x)

    @pytest.mark.parametrize("c", [0.0, -1.0, -math.inf, math.nan])
    def test_cap_outside_its_range_refused(self, c):
        # min(x, -1) is the constant -1, whose solution is 0, but the
        # closed form assumes c > 0 and gave f_h(1) = -0.2418
        with pytest.raises(ValueError, match="cap c must be in"):
            stein.CappedIdentity(c)


# The caps of the grid-50 certification suite, midway between its nodes.
SUITE_CAPS = [(k + 0.5) * 8.0 / 49.0 for k in range(3, 13)]


def _opaque_cap(c, calls=None):
    def fn(t):
        if calls is not None:
            calls.append(t)
        return min(t, c)

    return stein.LipschitzFunction(fn, 1.0)


class TestOpaqueSolver:
    """The knot-mesh quadrature of an opaque h: a value depends only on x
    and h, and it costs and errs no more than pinned here."""

    XS = np.array([0.0, 0.3, HALF_NORMAL_MEDIAN, 0.7, 1.0, 1.3, 2.5, 2.71,
                   8.0, 11.5, 999.5, stein.LIPSCHITZ_X_MAX - 1e-9,
                   stein.LIPSCHITZ_X_MAX])

    def _shuffled(self):
        # every point twice, knots included (the mesh gap is a power of 2)
        xs = np.concatenate([self.XS, self.XS])
        np.random.default_rng(23).shuffle(xs)
        return xs

    def test_batch_matches_per_point_calls(self):
        h = _opaque_cap(1.3)
        xs = self._shuffled()
        assert stein.solve_fh(h, xs).tolist() == [stein.solve_fh(h, x)
                                                  for x in xs]

    def test_interleaved_functions_keep_their_values(self):
        # the gap integrals of one h must never serve another: each value
        # stays that of a call on its own and within 1e-10 of the closed form
        xs = self._shuffled()
        caps = (1.3, 2.0)
        alone = [stein.solve_fh(_opaque_cap(c), xs).tolist() for c in caps]
        mixed = [[], []]
        for x in xs:
            for i, c in enumerate(caps):
                mixed[i].append(stein.solve_fh(_opaque_cap(c), x))
        assert mixed == alone
        for c, vals in zip(caps, alone):
            exact = stein.solve_fh(stein.CappedIdentity(c), xs)
            assert np.max(np.abs(np.array(vals) - exact)) <= 1e-10

    def test_mean_and_solution_share_gap_integrals(self, monkeypatch):
        # one grid-50 suite integrates each mesh gap [k, k + gap] once, in
        # the rows of width gap that the rule is given (the mean is the
        # tail sum from knot 0, not an integral of its own)
        gap = stein._KNOT_GAP
        knots = []
        real = stein._gauss_kronrod

        def recording(f, a, b, x):
            knots.extend(np.asarray(x)[np.asarray(b) - np.asarray(a)
                                       == gap].tolist())
            return real(f, a, b, x)

        monkeypatch.setattr(stein, "_gauss_kronrod", recording)
        stein.verify_lemma_bounds("lipschitz", grid=50,
                                  h=_opaque_cap(SUITE_CAPS[0]))
        assert sorted(knots) == [gap * k for k in range(len(knots))]

    def test_continuous_across_the_branch_switch(self):
        # int_0^x (h - mu) w_x up to the median, mu R(x) minus the tail
        # above it; budget 1e-13 (measured 5.3e-16)
        h = stein.LipschitzFunction(lambda t: 2.0 + math.sin(t), 1.0)
        m = HALF_NORMAL_MEDIAN
        above = np.nextafter(m, math.inf)
        assert abs(stein.solve_fh(h, above) - stein.solve_fh(h, m)) <= 1e-13

    def test_cap_suite_calls_of_h(self):
        # measured 6 178 calls per suite on average (9 286 while f'' was a
        # second difference of f, 9 573 with QUADPACK); one adaptive
        # quadrature per point over [x, x + 12] took 45 806
        counts = []
        for c in SUITE_CAPS:
            calls = []
            stein.verify_lemma_bounds("lipschitz", grid=50,
                                      h=_opaque_cap(c, calls))
            counts.append(len(calls))
        assert sum(counts) / len(counts) <= 15_240

    @pytest.mark.parametrize("c", SUITE_CAPS, ids=lambda c: f"cap{c:.4f}")
    def test_suite_points_match_closed_form(self, c):
        # the suite's nodes, its f' stencil and points 1e-3 off the nodes;
        # budget 1e-10 absolute (measured 4.02e-11, at c = 0.5714,
        # x = 0.6531: the kink sits closer to the end of a piece than the
        # rule's outermost node)
        xs = np.linspace(0.0, 8.0, 50)
        pts = np.concatenate([xs + d for d in (0.0, 1e-5, -1e-5, 1e-3, -1e-3)])
        diff = (stein.solve_fh(_opaque_cap(c), pts)
                - stein.solve_fh(stein.CappedIdentity(c), pts))
        assert np.max(np.abs(diff)) <= 1e-10


class TestGaussKronrod:
    """The private quadrature rule of an opaque h."""

    def _rule(self, weights, k):
        return float(np.sum(weights * stein._GK_NODES ** k))

    def test_table_integrates_monomials_exactly(self):
        # int_{-1}^{1} t^k dt: the 21-point Kronrod rule is exact for
        # k <= 31, its embedded 10-point Gauss rule for k <= 19
        for k in range(32):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert abs(self._rule(stein._GK_WEIGHTS, k) - exact) <= 1e-15
            if k <= 19:
                assert abs(self._rule(stein._G_WEIGHTS, k) - exact) <= 1e-15

    def test_gauss_part_is_gauss_legendre(self):
        nodes, weights = np.polynomial.legendre.leggauss(10)
        used = stein._G_WEIGHTS > 0.0
        assert np.allclose(stein._GK_NODES[used], nodes, rtol=0, atol=1e-15)
        assert np.allclose(stein._G_WEIGHTS[used], weights, rtol=0,
                           atol=1e-15)

    def test_unresolvable_h_raises(self):
        # 80 000 periods per mesh gap: 200 pieces cannot meet the tolerance,
        # and the rule must say so rather than return a value
        h = stein.LipschitzFunction(lambda t: 1e-6 * math.sin(1e6 * t), 1.0)
        with pytest.raises(RuntimeError, match="missed its tolerance"):
            stein.verify_lemma_bounds("lipschitz", grid=50, h=h)

    def test_rows_are_integrals_of_their_own(self):
        # a row's value is the same in any batch, refined at its kink or
        # not; budget 1e-14 (measured 1.1e-16)
        a, b = np.array([0.0, 0.3, 1.0]), np.array([1.0, 0.7, 2.5])
        x = np.array([0.5, 0.0, 2.0])

        def f(t, x):
            return np.minimum(t, x) * np.exp(-t)

        together = stein._gauss_kronrod(f, a, b, x)
        alone = [stein._gauss_kronrod(f, a[i:i + 1], b[i:i + 1], x[i:i + 1])
                 for i in range(3)]
        assert together.tolist() == np.concatenate(alone).tolist()
        exact = [1.0 - math.exp(-0.5) - 0.5 * math.exp(-1.0), 0.0,
                 2.0 * math.exp(-1.0) - math.exp(-2.0) - 2.0 * math.exp(-2.5)]
        assert np.max(np.abs(together - exact)) <= 1e-14

    @pytest.mark.parametrize("c", SUITE_CAPS, ids=lambda c: f"cap{c:.4f}")
    def test_opaque_mean_matches_quad_and_closed_form(self, c):
        # budget 1e-12 (measured 1.8e-15 against the closed form and
        # 6.7e-14 against quad)
        opaque = stein.mu_h(_opaque_cap(c))
        quad, _ = integrate.quad(lambda t: min(t, c) * hn_pdf(t), 0.0, np.inf,
                                 epsabs=1e-12, epsrel=1e-12, limit=200)
        assert abs(opaque - quad) <= 1e-12
        assert abs(opaque - stein.mu_h(stein.CappedIdentity(c))) <= 1e-12


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

    @pytest.mark.parametrize("h", [stein.IDENTITY, stein.CAPPED_AT_ONE],
                             ids=["identity", "min1"])
    @pytest.mark.parametrize("x", [8.0, 100.0, 300.0, 999.9])
    def test_lipschitz_residual_far_out(self, h, x):
        # by quadrature the residual grew to 2.9e-7 at x = 999.9: its error
        # of about 1e-12 was divided by the 2e-5 of the central difference
        assert abs(stein.stein_residual_continuous(h, x)) <= 1e-9

    @pytest.mark.parametrize("x", [1.0 - 5e-6, 1.0, 1.0 + 5e-6])
    def test_lipschitz_residual_at_the_kink(self, x):
        # f_h'' of min(x, 1) jumps by 1 at x = 1, so a central difference
        # across it is off by step/4 = 2.5e-6
        assert abs(stein.stein_residual_continuous(stein.CAPPED_AT_ONE,
                                                   x)) <= 1e-9


class TestAuxFunctions:
    def test_m_and_n_limits(self):
        assert stein.aux_M(0.0) == 0.0
        assert mills(0.0) == pytest.approx(math.sqrt(math.pi / 2.0),
                                           rel=1e-13)

    def test_m_is_inf_past_overflow_without_warning(self):
        # M = F/p exceeds the double range from x = 37.68; there it is inf,
        # not an overflow or divide-by-zero warning. Budget on [0, 37.5]:
        # relative 8 eps (1 + x^2) against 50-digit mpmath, as the eps x^2/2
        # rounding of p's exponent grows with x (measured 2.4 eps (1 + x^2)).
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals = stein.aux_M(np.linspace(0.0, 60.0, 6001))
            assert stein.aux_M(37.7) == stein.aux_M(40.0) == math.inf
        assert np.all(np.isfinite(vals[:3751]))
        assert np.all(vals[3770:] == math.inf)
        xs = np.linspace(0.0, 37.5, 376)
        eps = np.finfo(float).eps
        with mpmath.workdps(50):
            ref = np.array([float(mpmath.erf(x / mpmath.sqrt(2))
                                  / (2 * mpmath.npdf(x)))
                            for x in map(mpmath.mpf, xs)])
        assert np.all(np.abs(stein.aux_M(xs) - ref)
                      <= 8.0 * eps * (1.0 + xs ** 2) * ref)

    def test_n_is_the_mills_ratio_out_to_60(self):
        # Error budget: relative error <= 1e-13 against 50-digit mpmath
        # (1 - F)/p on [0, 60] (measured 5.6e-16); 1 - F and p both
        # underflow past x ~ 38.6, so the ratio must not be formed from them.
        xs = np.linspace(0.0, 60.0, 601)
        vals = mills(xs)
        with mpmath.workdps(50):
            ref = np.array([float(mpmath.erfc(x / mpmath.sqrt(2))
                                  / (2 * mpmath.npdf(x)))
                            for x in map(mpmath.mpf, xs)])
        assert np.all(np.abs(vals - ref) <= 1e-13 * ref)

    def test_s_deep_in_the_tail(self):
        # budget as for fz_prime above: 1 - x N(x) cancels
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
        n_vals = np.array([mills(x) for x in xs])
        assert np.all(np.diff(m_vals) >= 0.0)
        assert np.all(np.diff(n_vals) <= 0.0)

    def test_h_g_derivatives(self):
        # H' = F and G' = -(1 - F), checked by central differences
        step = 1e-6
        for x in np.linspace(0.1, 6.0, 80):
            cdf = hn_cdf(x)
            h_num = (hn_cdf_integral(x + step)
                     - hn_cdf_integral(x - step)) / (2 * step)
            g_num = (hn_tail_integral(x + step)
                     - hn_tail_integral(x - step)) / (2 * step)
            assert h_num == pytest.approx(cdf, abs=1e-6)
            assert g_num == pytest.approx(-(1.0 - cdf), abs=1e-6)

    def test_g_nonnegative_and_vanishing(self):
        xs = np.linspace(0.0, 10.0, 500)
        g_vals = np.array([hn_tail_integral(x) for x in xs])
        assert np.all(g_vals >= 0.0)
        assert hn_tail_integral(10.0) < 1e-20
        # 0.0 from x = 38.41 on; x is clamped at 40, so neither squaring
        # 1e200 nor inf R(inf) = inf * 0 reaches G, and nan propagates
        far = np.array([38.41, 40.0, 1e10, 1e154, 1e200, 1e308, np.inf])
        assert np.all(hn_tail_integral(far) == 0.0)
        assert hn_tail_integral(math.inf) == 0.0
        assert np.isnan(hn_tail_integral(np.nan))

    def test_u_v_nonpositive(self):
        # dense out to 60, past x = 37.68, where a difference of the two
        # tails 2 x phi and 2 (1 - Phi)(1 + x^2) rounds positive
        xs = np.linspace(0.0, 60.0, 6001)
        assert np.all(stein.aux_U(xs) <= 0.0)
        assert np.all(stein.aux_V(xs) <= 0.0)

    def test_u_against_mpmath(self):
        # U = 2 x phi - 2 (1 - Phi)(1 + x^2) on [0, 60] against 50-digit
        # mpmath. Budget, with eps = 2^-52: relative 8 eps (1 + x^4) where
        # the reference is a normal float, as x - (1 + x^2) R cancels to
        # about -2/x^3 (measured 3.2 eps (1 + x^4)); absolute 2^-1022
        # below the normal range, which U leaves at x = 37.3.
        xs = np.linspace(0.0, 60.0, 601)
        eps = np.finfo(float).eps
        tiny = np.finfo(float).tiny
        with mpmath.workdps(50):
            ref = np.array([float(2 * x * mpmath.npdf(x)
                                  - mpmath.erfc(x / mpmath.sqrt(2))
                                  * (1 + x * x))
                            for x in map(mpmath.mpf, xs)])
        budget = np.where(np.abs(ref) >= tiny,
                          8.0 * eps * (1.0 + xs ** 4) * np.abs(ref), tiny)
        assert np.all(np.abs(stein.aux_U(xs) - ref) <= budget)

    def test_s_peak_at_zero(self):
        assert stein.aux_S(0.0) == pytest.approx(SQRT_2_PI, abs=1e-12)
        xs = np.linspace(0.0, 10.0, 500)
        assert max(stein.aux_S(x) for x in xs) <= SQRT_2_PI + 1e-12

    def test_d1_nonnegative_d2_nonpositive(self):
        xs = np.linspace(0.0, 10.0, 500)
        assert all(stein.aux_D1(x) >= 0.0 for x in xs)
        assert all(stein.aux_D2(x) <= 0.0 for x in xs)

    def test_d1_sign_holds_without_underflow(self):
        # D1 = phi/2 - (1 - Phi) F reads exactly 0.0 from x = 38.56, so its
        # sign holds there only through underflow; D1/phi = 1/2 - R F, with
        # R the Mills ratio, never underflows and stays above 0.0437
        # (R F peaks at 0.45629 near x = 1.23)
        xs = np.linspace(0.0, 60.0, 6001)
        assert np.all(0.5 - mills(xs) * hn_cdf(xs) >= 0.0)

    def test_d1_against_mpmath(self):
        # D1 and D1/phi on [0, 60] against 50-digit mpmath. Budgets, with
        # eps = 2^-52: D1/phi relative 64 eps, as 1/2 - R F cancels by up
        # to 0.5/0.0437 = 11.4 near x = 1.23 (measured 27.9 eps). D1
        # relative 32 eps (1 + x^2) where the reference is a normal float,
        # for the cancellation and the eps x^2/2 rounding of phi's exponent
        # (measured 15.9 eps (1 + x^2)); absolute 2^-1022 below the normal
        # range, which D1 leaves at x = 37.6.
        xs = np.linspace(0.0, 60.0, 601)
        eps = np.finfo(float).eps
        tiny = np.finfo(float).tiny
        ref_d1, ref_ratio = [], []
        with mpmath.workdps(50):
            for x in map(mpmath.mpf, xs):
                d1 = (mpmath.npdf(x) / 2 - mpmath.erfc(x / mpmath.sqrt(2)) / 2
                      * mpmath.erf(x / mpmath.sqrt(2)))
                ref_d1.append(float(d1))
                ref_ratio.append(float(d1 / mpmath.npdf(x)))
        ref_d1, ref_ratio = np.array(ref_d1), np.array(ref_ratio)
        ratio = 0.5 - mills(xs) * hn_cdf(xs)
        assert np.all(np.abs(ratio - ref_ratio) <= 64.0 * eps * ref_ratio)
        budget = np.where(ref_d1 >= tiny,
                          32.0 * eps * (1.0 + xs ** 2) * ref_d1, tiny)
        assert np.all(np.abs(stein.aux_D1(xs) - ref_d1) <= budget)

    def test_d2_peak(self):
        x0 = math.sqrt(math.log(32.0 / math.pi))
        assert stein.aux_D2(x0) == pytest.approx(-0.01701, abs=5e-5)


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

    @pytest.mark.parametrize("h", [
        stein.CAPPED_AT_ONE,
        stein.LipschitzFunction(lambda t: min(t, 1.0), 1.0)],
        ids=["min1", "opaque-min1"])
    def test_second_derivative_at_the_kink(self, h):
        # Grid 9 on [0, 8] puts a node on the kink of min(x, 1), where f''
        # jumps by h'(1-) - h'(1+) = 1. From f'' = f + x f' + h' and
        # f' = x f + h - mu, the left limit is 2 f(1) + 2 - mu = 0.8852 and
        # the right one 0.1148 lower; a central second difference of f read
        # 0.385 for the opaque h, whose kink the suite cannot see. Budget
        # 1e-5: the central f' of the opaque h straddles the kink and is off
        # by 1e-5/4 (measured 2.5e-6; 1.8e-11 for the closed form).
        check = stein.verify_lemma_bounds("lipschitz", grid=9, h=h).checks[2]
        exact = stein.CAPPED_AT_ONE
        expected = 2.0 * stein.solve_fh(exact, 1.0) + 2.0 - stein.mu_h(exact)
        assert check.at == 1.0
        assert abs(check.observed - expected) <= 1e-5

    def test_identity_second_derivative_against_mpmath(self):
        # h(x) = x: f = mu R - 1 with R = (1 - Phi)/phi, f' = x f + x - mu
        # and f'' = f + x f' + 1, in 50-digit mpmath at the grid-200 nodes
        # x >= 1e-3; the sup sits at x = 8/199. Budget 1e-11 (measured
        # 5.4e-13, from the 1e-5-step f' and the rounded slope of h)
        check = stein.verify_lemma_bounds("lipschitz", grid=200).checks[2]
        with mpmath.workdps(50):
            mu = mpmath.sqrt(2 / mpmath.pi)

            def f_second(x):
                x = mpmath.mpf(x)
                f = mu * mpmath.erfc(x / mpmath.sqrt(2)) / (
                    2 * mpmath.npdf(x)) - 1
                return abs(f + x * (x * f + x - mu) + 1)

            exact, at = max((f_second(x), x)
                            for x in np.linspace(0.0, 8.0, 200) if x >= 1e-3)
        assert check.at == at
        assert abs(check.observed - float(exact)) <= 1e-11

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            stein.verify_lemma_bounds("quadratic")

    @pytest.mark.parametrize("kind", ["indicator", "lipschitz"])
    @pytest.mark.parametrize("grid", [0, 1])
    def test_degenerate_grid_rejected(self, kind, grid):
        with pytest.raises(ValueError, match="at least 2 points"):
            stein.verify_lemma_bounds(kind, grid=grid)

    @pytest.mark.parametrize("kind,z_hi", [
        *(pytest.param(kind, z_hi, id=f"{z_hi}-{kind}")
          for kind in ("indicator", "lipschitz")
          for z_hi in (0.0, -1.0, math.inf)),
        pytest.param("lipschitz", 5e-4, id="0.0005-lipschitz")])
    def test_empty_range_rejected(self, kind, z_hi):
        # z_hi = 5e-4 leaves the Lipschitz suite no node at x >= 1e-3,
        # where its f'' starts, so sup |f_h''| would read an empty set
        with pytest.raises(ValueError, match="z_hi must be"):
            stein.verify_lemma_bounds(kind, z_hi=z_hi, grid=10)

    @pytest.mark.parametrize("z_hi", [1000.5, 2000.0])
    def test_range_past_x_max_rejected(self, z_hi):
        # refused up front, naming z_hi, not the first grid node past
        # LIPSCHITZ_X_MAX; z_hi = 1000 itself is certified (see
        # test_x_max_itself_is_solved)
        with pytest.raises(ValueError, match=f"z_hi must be .*got {z_hi}$"):
            stein.verify_lemma_bounds("lipschitz", z_hi=z_hi, grid=50)

    def test_second_derivative_limit_is_tight(self):
        # h(x) = x declared 0.3-Lipschitz: at grid 30, sup |f_h''| reads
        # 0.6548, above the limit 2L = 0.6
        h = stein.LipschitzFunction(lambda x: x, 0.3)
        f_second = stein.verify_lemma_bounds("lipschitz", grid=30,
                                             h=h).checks[2]
        assert f_second.observed > 0.65
        assert not f_second.passed

    def test_two_point_grid_accepted(self):
        for kind in ("indicator", "lipschitz"):
            assert stein.verify_lemma_bounds(kind, grid=2).passed

    def test_indicator_suprema_are_located(self):
        # grid 41 on [0, 5]: |f_z'| peaks at the left limit of the top
        # level, and |f_z| on the refined diagonal
        f_z, f_z_prime = stein.verify_lemma_bounds("indicator", z_hi=5.0,
                                                   grid=41).checks
        assert f_z_prime.at == (5.0, 5.0)
        assert f_z_prime.observed == stein.fz_prime(5.0, 5.0, side="left")
        z, x = f_z.at
        assert z == x and f_z.observed == stein.fz(z, x)

    @pytest.mark.parametrize("h", [stein.IDENTITY, stein.CAPPED_AT_ONE],
                             ids=["identity", "min1"])
    def test_lipschitz_suprema_are_located(self, h):
        f, f_prime, f_second = stein.verify_lemma_bounds("lipschitz", grid=30,
                                                         h=h).checks
        assert f.observed == abs(stein.solve_fh(h, f.at))
        assert f_prime.observed == abs(stein.solve_fh_prime(h, f_prime.at))
        assert f_second.at >= 1e-3


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
    """The Lipschitz suite as a per-point loop over the public solvers:
    f'' = f + x f' + h' at x >= 1e-3, h' either one-sided slope of h."""
    xs = np.linspace(0.0, x_hi, grid).tolist()
    sup_f = max(abs(stein.solve_fh(h, x)) for x in xs)
    sup_fp = max(abs(stein.solve_fh_prime(h, x)) for x in xs)
    s = stein.FH_PRIME_STEP
    sup_fpp = 0.0
    for x in xs:
        if x < 1e-3:
            continue
        base = stein.solve_fh(h, x) + x * stein.solve_fh_prime(h, x)
        for slope in ((h(x + s) - h(x)) / s, (h(x) - h(x - s)) / s):
            sup_fpp = max(sup_fpp, abs(base + slope))
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

    def test_fz_broadcast_matches_scalar_calls(self):
        # z[:, None] against an x row gives a (z, x) grid whose entries are
        # the scalar calls, exactly; the row passes x = z at z = 0 and 40
        zs = np.array([-1.0, 0.0, 0.75, 2.5, 40.0])
        xs = np.linspace(-1.0, 60.0, 62)
        grid = stein.fz(zs[:, None], xs)
        assert grid.shape == (5, 62)
        assert grid.tolist() == [[stein.fz(z, x) for x in xs] for z in zs]
        for side in ("left", "right"):
            grid = stein.fz_prime(zs[:, None], xs, side=side)
            assert grid.tolist() == [[stein.fz_prime(z, x, side=side)
                                      for x in xs] for z in zs]

    def test_fz_broadcast_against_mpmath(self):
        # f_z on a (z, x) grid against 50-digit mpmath, 1 - F(z) as erfc.
        # Budget: relative 8 eps (1 + e), e = max(0, (z - x)(z + x)/2), the
        # exponent of p(z)/p(x) whose rounding the left branch carries
        # (measured 1.8 eps (1 + e)); f_z = 0 at x = 0 must be exact.
        zs = np.linspace(0.0, 45.0, 10)
        xs = np.linspace(0.0, 60.0, 61)

        def exact(z, x):
            lo, hi = sorted((mpmath.mpf(z), mpmath.mpf(x)))
            return float(mpmath.erf(lo / mpmath.sqrt(2))
                         * mpmath.erfc(hi / mpmath.sqrt(2))
                         / (2 * mpmath.npdf(x)))

        with mpmath.workdps(50):
            ref = np.array([[exact(z, x) for x in xs] for z in zs])
        e = np.maximum(0.0, (zs[:, None] - xs) * (zs[:, None] + xs) / 2.0)
        budget = 8.0 * np.finfo(float).eps * (1.0 + e) * np.abs(ref)
        assert np.all(np.abs(stein.fz(zs[:, None], xs) - ref) <= budget)

    def test_fz_prime_row_needs_side_at_jump(self):
        with pytest.raises(ValueError):
            stein.fz_prime(1.0, np.array([0.5, 1.0, 1.5]))


class TestClosedFormPaths:
    """Indicators and min(x, c) are solved and certified without quadrature."""

    @pytest.fixture(autouse=True)
    def no_quadrature(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("quadrature on a closed-form path")

        monkeypatch.setattr(stein, "_gauss_kronrod", refuse)

    def test_opaque_h_still_needs_quadrature(self):
        with pytest.raises(AssertionError, match="closed-form path"):
            stein.mu_h(stein.LipschitzFunction(lambda t: t, 1.0))

    def test_suites(self):
        assert stein.verify_lemma_bounds("indicator", grid=400).passed
        for h in (stein.IDENTITY, stein.CAPPED_AT_ONE):
            assert stein.verify_lemma_bounds("lipschitz", grid=400, h=h).passed

    @pytest.mark.parametrize("name", ["identity", "min1"])
    def test_stein_solution_command(self, capsys, name):
        assert cli.main(["stein-solution", "--lipschitz", name, "--x", "0.5",
                         "1", "999.9", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert all(math.isfinite(v) for row in rows for v in row.values())


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


def test_x_fz_drop_is_caught():
    # x f_z(x) is increasing, so a grid that steps back from 1 to 1 - 1e-7
    # drops it by 1.7e-8, far beyond the 1e-13 allowed for rounding
    assert not stein.verify_monotone_xfz(2.0, [1.0, 1.0 - 1e-7])
