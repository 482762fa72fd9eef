"""Acceptance suite: one test per contract item, at the stated tolerances.

Each test is self-contained and prints as a single pass/fail line under
`pytest -v`. Runtime budgets are asserted where the contract names one.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np

from enumeration_check import check_formulas_match_enumeration
from halfnorm_stein import characterization as ch
from halfnorm_stein import cli, metrics, simulate, stein, walks
from halfnorm_stein.normal import hn_cdf

SQRT_2_PI = math.sqrt(2.0 / math.pi)


def test_exact_pmfs_match_path_enumeration():
    # formula pmfs == 2^n enumeration, exact rational equality, every
    # admissible n up to the cap for all four statistics; < 10 s
    check_formulas_match_enumeration()


def test_distance_bounds_hold_across_full_sweep():
    # d_K and d_W below the closed-form bounds (for halfmax the auxiliary
    # lemma's d(V, Y)) for every admissible n up to 4096/4097, with at
    # least 1e-10 of numeric headroom; < 5 min
    start = time.monotonic()
    worst = math.inf
    for tag, ns in (("returns", range(2, 4097, 2)),
                    ("max", range(2, 4097, 2)),
                    ("halfmax", range(2, 4097, 2)),
                    ("signchanges", range(3, 4098, 2))):
        for report in metrics.bound_checks(tag, ns):
            worst = min(worst, report.margin_K, report.margin_W)
    assert worst >= 1e-10
    assert time.monotonic() - start < 300.0


def test_distance_bounds_hold_at_large_n(capsys):
    # the check-bounds gate at n = 2^k (2^k + 1 for signchanges),
    # k = 12..20: exit 0 with at least 1e-10 of headroom on both margins
    for tag, first in (("returns", 2), ("max", 2), ("halfmax", 2),
                       ("signchanges", 3)):
        for k in range(12, 21):
            n = (1 << k) + first - 2
            assert cli.main(["check-bounds", "--stat", tag, "--n", str(n),
                             "--format", "json"]) == 0
            (row,) = json.loads(capsys.readouterr().out)
            assert row["n"] == n
            assert min(row["margin_K"], row["margin_W"]) >= 1e-10, (tag, n)


def test_rate_is_exactly_order_inverse_sqrt_n():
    row = metrics.rate_table("returns", [4096])[0]
    assert 0.79 <= row.sqrtn_p0 <= 0.81         # limit sqrt(2/pi) = 0.7979
    assert 0.9 <= row.sqrtn_mean_gap <= 1.1     # limit 1


def test_discrete_characterization_is_exact():
    # residual identically zero over the indicator basis and exact pmf
    # recovery from the closed-form operator, both for m <= 200; < 2 min
    start = time.monotonic()
    for tag in ("returns", "halfmax", "signchanges"):
        for m in range(1, 201):
            spec = ch.make_spec(tag, m)
            assert all(r == 0 for r in ch.indicator_residuals(spec))
            assert ch.recover_pmf(spec.pmf.lower, spec.pmf.upper, spec.c,
                                  spec.gamma, tag) == spec.pmf
    assert time.monotonic() - start < 120.0


def test_solution_norm_bounds_certified():
    report = stein.verify_lemma_bounds("indicator", grid=400)
    by_name = {c.name: c for c in report.checks}
    assert abs(by_name["sup |f_z|"].observed - 0.456296) <= 5e-4
    assert by_name["sup |f_z|"].passed            # <= 1/2
    assert by_name["sup |f_z'|"].passed           # <= 1

    argmax, peak = stein.sup_search(stein.aux_S, 0.0, 10.0)
    assert argmax == 0.0
    assert abs(peak - SQRT_2_PI) <= 1e-10

    argmax, peak = stein.sup_search(stein.aux_D2, 0.0, 5.0)
    assert abs(argmax - 1.523) <= 1e-3
    assert abs(peak - (-0.0170)) <= 5e-4

    for h in (stein.IDENTITY, stein.CAPPED_AT_ONE):
        rep = stein.verify_lemma_bounds("lipschitz", grid=400, h=h)
        by_name = {c.name: c for c in rep.checks}
        assert by_name["sup |f_h|"].observed <= 1.0
        assert by_name["sup |f_h'|"].observed <= SQRT_2_PI
        assert by_name["sup |f_h''|"].observed <= 2.0 + 1e-4

    # sharpness of the derivative bound at a high cut level: Gordon's
    # Mills-ratio inequality z/(1+z^2) <= (1-Phi(z))/phi(z) <= 1/z
    # (normal.mill_bounds) gives z^2/(1+z^2) <= f_z'(z-) <= 1, so the
    # constant 1 cannot be lowered
    z = 8.0
    observed = abs(stein.fz_prime(8.0, 8.0, side="left"))
    assert observed <= 1.0
    assert observed >= z * z / (1.0 + z * z)
    # the Stein equation's route to the same limit, z f_z(z) + 1 - F(z)
    ode = z * stein.fz(z, z) + 1.0 - hn_cdf(z)
    assert abs(observed - ode) <= 1e-12


def test_stein_equation_residuals_vanish():
    grid = np.linspace(0.05, 8.0, 160)
    for z in (0.5, 1.0, 2.0, 4.0):
        h = stein.HalfLineIndicator(z)
        for x in grid:
            if abs(x - z) < 1e-9:
                continue
            assert abs(stein.stein_residual_continuous(h, x)) <= 1e-7
    for h in (stein.IDENTITY, stein.CAPPED_AT_ONE):
        for x in grid:
            assert abs(stein.stein_residual_continuous(h, x)) <= 1e-7


def test_wasserstein_routes_agree():
    for tag, ns in (("returns", (2, 16, 128, 512)),
                    ("max", (2, 16, 128, 512)),
                    ("signchanges", (3, 17, 129, 513))):
        for n in ns:
            law = walks.scaled_law(tag, n)
            assert abs(metrics.wasserstein_exact(law)
                       - metrics.wasserstein_quantile(law)) <= 1e-8


def test_monte_carlo_agrees_with_exact_laws():
    # 10^6 seeded trials, max CDF deviation < 0.004; < 1 min
    start = time.monotonic()
    for tag, n in (("returns", 64), ("max", 64), ("signchanges", 65)):
        report = simulate.empirical_check(tag, n, 1_000_000, seed=2026)
        assert report.max_cdf_deviation < 0.004
        assert report.passed
    assert time.monotonic() - start < 60.0


def test_auxiliary_law_stays_close_to_maximum():
    # d_K(V, W) <= sqrt(2/pi)/sqrt(n), lattice d_W(V, W) <= 1/sqrt(n), and
    # the two CDFs agree at every even level, all exact, even n <= 1024;
    # the V-W distances are the closed forms of M_n's odd atoms: its
    # largest, binom(2m, m + 1) / 4^m, and P(M_n odd)
    for m in range(1, 513):
        report = metrics.auxiliary_bounds(m)
        assert report.even_agreement
        assert report.passed
        assert report.dK_VW == Fraction(math.comb(2 * m, m + 1), 4 ** m)
        assert (Fraction(math.sqrt(report.n)) * report.dW_VW
                == (1 - Fraction(math.comb(2 * m, m), 4 ** m)) / 2)
