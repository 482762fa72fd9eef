import json
import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from scipy import integrate

from halfnorm_stein import cli, stein, walks
from halfnorm_stein.normal import (HALF_NORMAL_MEDIAN, hn_cdf,
                                   hn_cdf_integral, hn_pdf, hn_tail_integral,
                                   mills, phi)

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
        # f_z(z) = F(z)(1 - F(z))/p(z) against 50-digit mpmath
        for z in (0.5, 1.0, 2.0, 3.5):
            with mpmath.workdps(50):
                zm = mpmath.mpf(z)
                expected = float(mpmath.erf(zm / mpmath.sqrt(2))
                                 * mpmath.erfc(zm / mpmath.sqrt(2))
                                 / (2 * mpmath.npdf(zm)))
            assert stein.fz(z, z) == pytest.approx(expected, rel=1e-13)

    def test_fz_zero_level(self):
        for x in (0.0, 0.5, 2.0):
            assert stein.fz(0.0, x) == 0.0

    def test_fz_left_branch(self):
        # x <= z: (1 - F(z)) * M(x) with M = F/p, against 50-digit mpmath
        z, x = 1.0, 0.3
        with mpmath.workdps(50):
            zm, xm = mpmath.mpf(z), mpmath.mpf(x)
            expected = float(mpmath.erfc(zm / mpmath.sqrt(2))
                             * mpmath.erf(xm / mpmath.sqrt(2))
                             / (2 * mpmath.npdf(xm)))
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
        # f_z'(0) = 1 - F(z), against 50-digit mpmath
        with mpmath.workdps(50):
            expected = float(mpmath.erfc(1 / mpmath.sqrt(2)))
        assert stein.fz_prime(1.0, 0.0) == pytest.approx(expected, rel=1e-13)

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
        # (measured 6.0e-15, at c = 0.3) and 1e-13 for E[h(Y)] (measured
        # 7.5e-15, at c = 0.3).
        capped = stein.CappedIdentity(c)
        opaque = stein.LipschitzFunction(lambda t: min(t, c), 1.0)
        assert abs(stein.mu_h(capped) - stein.mu_h(opaque)) <= 1e-13
        for x in np.geomspace(0.01, stein.LIPSCHITZ_X_MAX, 80):
            assert abs(stein.solve_fh(capped, x)
                       - stein.solve_fh(opaque, x)) <= 1e-13, x

    @pytest.mark.parametrize("a", [5.0, -3.0, 1e3])
    def test_opaque_h_off_zero_at_origin(self, a):
        # h = a + min(t, 1) has the solution of min(t, 1) and the mean
        # a + E[min(Y, 1)]; the mesh integrates h - h(0) = min(t, 1), so a
        # enters only the mean. Budget 1e-13 max(1, |a|) for f (measured
        # 6.9e-15 at a = 1e3) and for E[h(Y)] (measured 0.0)
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
        # the tests hold the quadrature to the closed forms only up to
        # x = 1000; from about 7e8 it sums no tail (f = +6.3e-11 for a true
        # -3.7e-11 at min(x, 1), x = 1e10), and at 1e12 the difference
        # quotient divided by 0
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

    @pytest.mark.parametrize("lip", [-1.0, math.nan, math.inf])
    def test_lipschitz_constant_outside_its_range_refused(self, lip):
        # 5 min(x, 1) declared with L = inf passed its suite against limits
        # of inf; L = -1 or nan gave a failed report, not an input error
        with pytest.raises(ValueError, match="Lipschitz constant must be in"):
            stein.LipschitzFunction(lambda t: 5.0 * min(t, 1.0), lip)

    def test_zero_lipschitz_constant_certifies_a_constant(self):
        # h = c has f_h = 0 exactly, within the limits 0 of L = 0: the
        # quadrature integrates h - h(0) = 0, and E[h(Y)] is c exactly
        for c in (2.0, -3.0, 1e3, 0.0):
            h = stein.LipschitzFunction(lambda t, c=c: c, 0.0)
            report = stein.verify_lemma_bounds("lipschitz", grid=50, h=h)
            assert report.passed, c
            assert [(b.limit, b.observed) for b in report.checks] == \
                [(0.0, 0.0)] * 3, c
            assert stein.mu_h(h) == c


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
        real = stein._adaptive

        def recording(f, a, b, x):
            knots.extend(np.asarray(x)[np.asarray(b) - np.asarray(a)
                                       == gap].tolist())
            return real(f, a, b, x)

        monkeypatch.setattr(stein, "_adaptive", recording)
        stein.verify_lemma_bounds("lipschitz", grid=50,
                                  h=_opaque_cap(SUITE_CAPS[0]))
        assert sorted(knots) == [gap * k for k in range(len(knots))]

    def test_continuous_across_the_branch_switch(self):
        # int_0^x (h - mu) w_x up to the median, mu R(x) minus the tail
        # above it; budget 1e-13 (measured 1.0e-15)
        h = stein.LipschitzFunction(lambda t: 2.0 + math.sin(t), 1.0)
        m = HALF_NORMAL_MEDIAN
        above = np.nextafter(m, math.inf)
        assert abs(stein.solve_fh(h, above) - stein.solve_fh(h, m)) <= 1e-13

    def test_cap_suite_calls_of_h(self):
        # measured 7 483 calls per suite on average, the ends of every
        # piece among them; one adaptive quadrature per point over
        # [x, x + 12] took 45 806
        counts = []
        for c in SUITE_CAPS:
            calls = []
            stein.verify_lemma_bounds("lipschitz", grid=50,
                                      h=_opaque_cap(c, calls))
            counts.append(len(calls))
        assert sum(counts) / len(counts) <= 15_240

    def test_kink_just_inside_a_piece(self):
        # at x = 6.035 the kink of min(x, 6.036) sits 1e-3 into the piece
        # [x, 6.5], 0.2 % of its width; budget 1e-10 (measured 3.5e-14; a
        # rule without end nodes stepped over it and missed by 5.0e-7)
        x, c = 6.035, 6.036
        assert abs(stein.solve_fh(_opaque_cap(c), x)
                   - stein.solve_fh(stein.CappedIdentity(c), x)) <= 1e-10

    def test_cap_sweep_matches_closed_form(self):
        # every 10th of 300 caps in [0.05, 7.9] on 400 points over [0, 8];
        # budget 1e-10 (measured 4.9e-13, at c = 7.1386)
        xs = np.linspace(0.0, 8.0, 400)
        for c in np.linspace(0.05, 7.9, 300)[::10]:
            diff = (stein.solve_fh(_opaque_cap(c), xs)
                    - stein.solve_fh(stein.CappedIdentity(c), xs))
            assert np.max(np.abs(diff)) <= 1e-10, c

    @pytest.mark.parametrize("c", SUITE_CAPS, ids=lambda c: f"cap{c:.4f}")
    def test_suite_points_match_closed_form(self, c):
        # the suite's nodes, its f' stencil and points 1e-3 off the nodes;
        # budget 1e-10 absolute (measured 1.5e-13, at c = 1.5510,
        # x = 1.4704)
        xs = np.linspace(0.0, 8.0, 50)
        pts = np.concatenate([xs + d for d in (0.0, 1e-5, -1e-5, 1e-3, -1e-3)])
        diff = (stein.solve_fh(_opaque_cap(c), pts)
                - stein.solve_fh(stein.CappedIdentity(c), pts))
        assert np.max(np.abs(diff)) <= 1e-10


class TestGaussKronrod:
    """The private quadrature rule of an opaque h."""

    def _rule(self, weights, k):
        return float(np.sum(weights * stein._NODES ** k))

    def test_weights_integrate_monomials_exactly(self):
        # int_{-1}^{1} t^k dt: the 25-point rule is exact for k <= 25, the
        # 13-point rule for k <= 13; budget 1e-15 (measured 1.6e-16)
        for k in range(26):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert abs(self._rule(stein._WEIGHTS, k) - exact) <= 1e-15
            if k <= 13:
                assert abs(self._rule(stein._HALF_WEIGHTS, k)
                           - exact) <= 1e-15

    def test_nodes_hold_the_ends_and_nest(self):
        # the nodes cos(k pi / 24) run from 1 to -1; the 13-point rule
        # weighs every other one of them and nothing else
        nodes = stein._NODES
        assert nodes[0] == 1.0 and nodes[-1] == -1.0
        assert np.allclose(nodes, np.cos(np.arange(25) * math.pi / 24),
                           rtol=0, atol=1e-15)
        assert np.all(stein._HALF_WEIGHTS[::2] > 0.0)
        assert np.all(stein._HALF_WEIGHTS[1::2] == 0.0)

    def test_unresolvable_h_raises(self):
        # 80 000 periods per mesh gap: 200 pieces cannot meet the tolerance,
        # and the rule must say so rather than return a value
        h = stein.LipschitzFunction(lambda t: 1e-6 * math.sin(1e6 * t), 1.0)
        with pytest.raises(RuntimeError, match="missed its tolerance"):
            stein.verify_lemma_bounds("lipschitz", grid=50, h=h)

    def test_rows_are_integrals_of_their_own(self):
        # a row's value is the same in any batch, refined at its kink or
        # not; budget 1e-14 (measured 2.6e-15)
        a, b = np.array([0.0, 0.3, 1.0]), np.array([1.0, 0.7, 2.5])
        x = np.array([0.5, 0.0, 2.0])

        def f(t, x):
            return np.minimum(t, x) * np.exp(-t)

        together = stein._adaptive(f, a, b, x)
        alone = [stein._adaptive(f, a[i:i + 1], b[i:i + 1], x[i:i + 1])
                 for i in range(3)]
        assert together.tolist() == np.concatenate(alone).tolist()
        exact = [1.0 - math.exp(-0.5) - 0.5 * math.exp(-1.0), 0.0,
                 2.0 * math.exp(-1.0) - math.exp(-2.0) - 2.0 * math.exp(-2.5)]
        assert np.max(np.abs(together - exact)) <= 1e-14

    @pytest.mark.parametrize("c", SUITE_CAPS, ids=lambda c: f"cap{c:.4f}")
    def test_opaque_mean_matches_quad_and_closed_form(self, c):
        # budget 1e-12 (measured 4.7e-14 against the closed form and
        # 5.0e-14 against quad)
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

    @pytest.mark.parametrize("h", [stein.HalfLineIndicator(1.5),
                                   stein.IDENTITY, stein.CAPPED_AT_ONE],
                             ids=["indicator", "identity", "min1"])
    def test_residual_is_elementwise(self, h):
        # one call on an array gives each scalar call's value, bit for bit
        xs = [0.0, 1e-5, 0.5, 1.0, 1.5, 999.9, 1000.0]
        residuals = stein.stein_residual_continuous(h, np.array(xs))
        assert residuals.tolist() == [stein.stein_residual_continuous(h, x)
                                      for x in xs]


def test_indicator_is_elementwise():
    # 1_{[0,z]} on an array is its scalar calls, the level itself
    # included, and a float at a scalar x
    h = stein.HalfLineIndicator(1.3)
    xs = np.array([[0.0, 0.5, 1.3], [np.nextafter(1.3, 2.0), 2.0, np.nan]])
    assert h(xs).tolist() == [[h(x) for x in row] for row in xs.tolist()]
    assert h(xs).tolist() == [[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]]
    assert type(h(0.5)) is float


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
        # D1 = (p/2)(1/2 - R F) reads exactly 0.0 from x = 38.55, where p
        # underflows; its other factor D1/phi = 1/2 - R F, with R the Mills
        # ratio, never underflows and stays above 0.0437 (R F peaks at
        # 0.45629 near x = 1.23)
        xs = np.linspace(0.0, 60.0, 6001)
        assert np.all(0.5 - mills(xs) * hn_cdf(xs) >= 0.0)

    def test_d1_against_mpmath(self):
        # D1 and D1/phi on [0, 60] against 50-digit mpmath. Budgets, with
        # eps = 2^-52: D1/phi relative 64 eps, as 1/2 - R F cancels by up
        # to 0.5/0.0437 = 11.4 near x = 1.23 (measured 27.9 eps). D1
        # relative 32 eps (1 + x^2) where the reference is a normal float,
        # for the cancellation and the eps x^2/2 rounding of phi's exponent
        # (measured 2.7 eps (1 + x^2)); absolute 2^-1022 below the normal
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

    def test_d1_is_the_indicator_diagonal(self):
        # D1 = phi (1/2 - f_z(z)) bit for bit on the indicator suite's z
        # grid, so D1 >= 0 is the suite's sup |f_z| <= 1/2
        zs = np.linspace(0.0, 8.0, 400)
        assert (stein.aux_D1(zs).tobytes()
                == (phi(zs) * (0.5 - stein.fz(zs, zs))).tobytes())

    def test_d2_against_mpmath(self):
        # D2 = -x/2 + 4 Phi(x) - 3 on [0, 60] against 50-digit mpmath.
        # Budget, with eps = 2^-52: absolute 4 eps (1 + x), as F is within
        # 2 eps and 2 F - 1 - x/2 rounds terms up to 1 + x/2 (measured
        # 0.44 eps (1 + x)).
        xs = np.linspace(0.0, 60.0, 601)
        eps = np.finfo(float).eps
        with mpmath.workdps(50):
            ref = np.array([float(-x / 2 + 4 * mpmath.ncdf(x) - 3)
                            for x in map(mpmath.mpf, xs)])
        assert np.all(np.abs(stein.aux_D2(xs) - ref) <= 4.0 * eps * (1.0 + xs))

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

    @pytest.mark.parametrize("lo, hi", [
        (0.0, math.inf), (-math.inf, 0.0), (0.0, math.nan), (math.nan, 1.0),
        (-1e308, 1e308)])
    def test_infinite_interval(self, lo, hi):
        # an end or a width that is not finite has no grid to refine: it
        # returned (nan, nan), and the nested scans would never end
        with pytest.raises(ValueError, match="is empty or not finite"):
            stein.sup_search(stein.aux_S, lo, hi)

    def test_diagonal_supremum_against_mpmath(self):
        # sup_z f_z(z) = F(z) R(z): at its argmax (F R)' = p R + F (z R - 1)
        # vanishes; 40-digit mpmath gives z* = 1.2253840052406991 and
        # F R = 0.45629684786605056 there
        with mpmath.workdps(40):
            def fr(z):
                cdf = mpmath.erf(z / mpmath.sqrt(2))
                return cdf, (1 - cdf) / (2 * mpmath.npdf(z))

            def slope(z):
                cdf, r = fr(z)
                return 2 * mpmath.npdf(z) * r + cdf * (z * r - 1)

            z_star = mpmath.findroot(slope, 1.2)
            peak = float(fr(z_star)[0] * fr(z_star)[1])
            z_star = float(z_star)
        assert (z_star, peak) == (1.2253840052406991, 0.45629684786605056)
        argmax, value = stein.sup_search(_diagonal, 0.0, 8.0)
        assert abs(argmax - z_star) <= stein.SUP_RESOLUTION
        assert abs(value - peak) <= 1e-15

    def test_each_round_is_one_call_of_sup_grid_points(self):
        # each bracket is 2/(SUP_GRID - 1) of the last: 8, 0.040, 2.0e-4,
        # 1.0e-6 (still above SUP_RESOLUTION), then 5.1e-9
        sizes = []

        def diagonal(z):
            sizes.append(np.shape(z))
            return _diagonal(z)

        stein.sup_search(diagonal, 0.0, 8.0)
        assert sizes == [(stein.SUP_GRID,)] * 4

    def test_bimodal_returns_largest_value_scanned(self):
        # a broad bump at x = 2 and a taller spike, 1e-3 wide, on the first
        # round's grid point at x = 6.035: the spike wins the first round,
        # and the finer rounds only reach its shoulders
        spike = np.linspace(0.0, 8.0, stein.SUP_GRID)[301]
        scanned = []

        def bimodal(x):
            y = (np.exp(-np.square(x - 2.0))
                 + 1.5 * np.exp(-1e6 * np.square(x - spike)))
            scanned.extend(zip(y.tolist(), x.tolist()))
            return y

        argmax, value = stein.sup_search(bimodal, 0.0, 8.0)
        assert (value, argmax) == max(scanned)
        assert argmax == spike and len(scanned) > stein.SUP_GRID

    def test_sparse_doubles_end_the_search(self):
        # near 1e300 neighbouring doubles are about 1e284 apart, so no
        # bracket gets SUP_RESOLUTION wide; the search stops once a bracket
        # is no narrower than the last (a loop on the width alone never ends)
        argmax, value = stein.sup_search(lambda x: -np.abs(x - 1e300),
                                         1e299, 2e300)
        assert (argmax, value) == (1e300, 0.0)


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

    @pytest.mark.parametrize("kind", ["indicator", "lipschitz"])
    @pytest.mark.parametrize("grid", [stein.MAX_GRID + 1, 10 ** 18])
    def test_huge_grid_is_refused_before_anything_is_built(
            self, kind, grid, monkeypatch):
        # 10^18 points ended in numpy's _ArrayMemoryError; refused before
        # any grid exists, while MAX_GRID itself reaches the suite
        def build(*args):
            raise AssertionError("a suite was run")

        monkeypatch.setattr(stein, "_indicator_bound_report", build)
        monkeypatch.setattr(stein, "_lipschitz_bound_report", build)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"at most {stein.MAX_GRID} "
                                                 f"points, got {grid}$"):
                stein.verify_lemma_bounds(kind, grid=grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 ** 16
        with pytest.raises(AssertionError, match="a suite was run"):
            stein.verify_lemma_bounds(kind, grid=stein.MAX_GRID)

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

    def test_indicator_suite_is_linear_in_the_grid(self, monkeypatch):
        # The suite reads the diagonal only: R on its grid row (the left
        # limits of f_z') and on sup_search's rounds of SUP_GRID points,
        # at most 8 of them. A sweep of the (z, x) square would take
        # grid^2 = 16.8 M points for each of f_z and f_z'.
        sizes = []
        real_mills = stein.mills

        def spy(x):
            sizes.append(np.size(x))
            return real_mills(x)

        monkeypatch.setattr(stein, "mills", spy)
        grid = 4096
        assert stein.verify_lemma_bounds("indicator", grid=grid).passed
        assert grid <= sum(sizes) <= grid + 8 * stein.SUP_GRID

    @pytest.mark.parametrize("h", [stein.IDENTITY, stein.CAPPED_AT_ONE],
                             ids=["identity", "min1"])
    def test_lipschitz_suprema_are_located(self, h):
        f, f_prime, f_second = stein.verify_lemma_bounds("lipschitz", grid=30,
                                                         h=h).checks
        assert f.observed == abs(stein.solve_fh(h, f.at))
        assert f_prime.observed == abs(stein.solve_fh_prime(h, f_prime.at))
        assert f_second.at >= 1e-3


def _reference_indicator_report(z_hi, grid):
    """The indicator suite as a scalar double loop over fz and fz_prime on
    the whole (z, x) grid, the right limit of f_z' at x = z, then the left
    limits at z > 0 and the refined diagonal of f_z: (sup, (z, x) where it
    sits) of |f_z| and of |f_z'|, the first in that order on a tie."""
    nodes = np.linspace(0.0, z_hi, grid).tolist()
    peaks_f, peaks_fp = [], []
    for z in nodes:
        for x in nodes:
            peaks_f.append((abs(stein.fz(z, x)), (z, x)))
            peaks_fp.append((abs(stein.fz_prime(z, x, side="right")), (z, x)))
    peaks_fp += [(abs(stein.fz_prime(z, z, side="left")), (z, z))
                 for z in nodes if z > 0.0]
    z, value = stein.sup_search(_diagonal, 0.0, z_hi)
    peaks_f.append((value, (z, z)))
    return tuple(max(peaks, key=lambda p: p[0])
                 for peaks in (peaks_f, peaks_fp))


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

    @pytest.mark.parametrize("z_hi,grid", [(5.0, 41), (8.0, 2), (8.0, 3),
                                           (8.0, 120), (1.0, 57), (0.3, 17)])
    def test_indicator_rows_match_scalar_loop(self, z_hi, grid):
        # The suite's rows on the diagonal against the whole (z, x) grid:
        # each sup and where it sits, exactly. Grid 41 on [0, 5] has step
        # 1/8; below z_hi = 1.2254, where f_z(z) still rises, the grid end
        # ties with sup_search.
        report = stein.verify_lemma_bounds("indicator", z_hi=z_hi, grid=grid)
        observed = tuple((c.observed, c.at) for c in report.checks)
        assert observed == _reference_indicator_report(z_hi, grid)

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

        monkeypatch.setattr(stein, "_adaptive", refuse)

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
    """E[h(Y)], f_h and f_h' are built by one _solution call per suite and
    one per residual."""

    @pytest.fixture
    def mu_calls(self, monkeypatch):
        calls = []
        real = stein._solution

        def counting(h):
            calls.append(h)
            return real(h)

        monkeypatch.setattr(stein, "_solution", counting)
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

    @pytest.mark.parametrize("argv", [["--z", "1.5"],
                                      ["--lipschitz", "identity"],
                                      ["--lipschitz", "min1"]],
                             ids=["indicator", "identity", "min1"])
    def test_one_call_per_stein_solution_column(self, mu_calls, argv,
                                                capsys):
        # f, f' and the residual each solve the whole --x list at once
        assert cli.main(["stein-solution", *argv, "--x", "0", "1e-5", "0.5",
                         "1", "999.9", "1000"]) == 0
        assert len(mu_calls) == 3


@pytest.mark.parametrize("z,hi", [(1.0, 6.0), (0.0, 6.0), (3.0, 10.0)])
def test_x_fz_monotone(z, hi):
    grid = np.arange(0.0, hi + 1e-9, 0.01)
    assert stein.verify_monotone_xfz(z, grid)


@pytest.mark.parametrize("rows", ["uniform", "across-diagonal"])
def test_indicator_solution_is_monotone_off_the_diagonal(rows):
    # The indicator suite reads both sups on x = z, which rests on four
    # monotonicities in x, checked for z up to 40 on an x grid to 60 and on
    # rows stepping 1e-7 across x = z: f_z does not fall on x <= z nor rise
    # on x >= z; f_z' with its left limit at z does not fall on x <= z (as
    # x f_z does not); |f_z'| with its right limit at z does not rise on
    # x >= z. Budget: a step may go the wrong way by 4 eps of the value,
    # the rounding of the closed forms (measured: no step does).
    zs = np.linspace(0.0, 40.0, 161)[:, None]
    if rows == "uniform":
        xs = np.broadcast_to(np.linspace(0.0, 60.0, 1201), (161, 1201))
    else:
        xs = np.maximum(zs + 1e-7 * np.arange(-100, 101), 0.0)
    f = stein.fz(zs, xs)
    claims = {
        "f_z rises": (f, xs <= zs),
        "f_z falls": (-f, xs >= zs),
        "f_z' rises": (stein.fz_prime(zs, xs, side="left"), xs <= zs),
        "|f_z'| falls": (-np.abs(stein.fz_prime(zs, xs, side="right")),
                         xs >= zs),
    }
    eps = np.finfo(float).eps
    for claim, (vals, on) in claims.items():
        pairs = on[:, :-1] & on[:, 1:]
        budget = 4.0 * eps * np.abs(vals[:, :-1])
        assert np.all((np.diff(vals, axis=1) >= -budget)[pairs]), claim


def test_right_limit_of_fz_prime_stays_below_a_half():
    # Why the indicator suite reads only the left limit of f_z' at x = z:
    # f_z'(z-) + |f_z'(z+)| = p R + F = 1, and |f_z'(z+)| = F(1 - z R) is
    # at most F/(1 + z^2) < 1/2 (Gordon's R >= z/(1 + z^2) and
    # F <= sqrt(2/pi) z), so the left limit always wins. Budget: 4 eps on
    # the sum (measured 2 eps); the bound holds without slack (measured
    # gap at least 1e-16, at z = 1e-8).
    zs = np.concatenate([np.geomspace(1e-8, 1.0, 2001),
                         np.linspace(0.0, 40.0, 16001)[1:]])
    left = stein.fz_prime(zs, zs, side="left")
    right = np.abs(stein.fz_prime(zs, zs, side="right"))
    eps = np.finfo(float).eps
    assert np.all(np.abs(left + right - 1.0) <= 4.0 * eps)
    bound = hn_cdf(zs) / (1.0 + np.square(zs))
    assert np.all(right <= bound)
    assert np.all(bound < 0.5)


def test_x_fz_drop_is_caught():
    # x f_z(x) is increasing, so a grid that steps back from 1 to 1 - 1e-7
    # drops it by 1.7e-8, far beyond the 1e-13 allowed for rounding
    assert not stein.verify_monotone_xfz(2.0, [1.0, 1.0 - 1e-7])
