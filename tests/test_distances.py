import dataclasses
import json
import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from halfnorm_stein import cli, metrics, normal, stein, walks
from halfnorm_stein.normal import HALF_NORMAL_MEAN, hn_pdf
from test_float_law import block_of_one

SQRT_2_PI = math.sqrt(2.0 / math.pi)


def test_kolmogorov_point_mass_at_zero():
    law = walks.ScaledLaw(walks.ExactPMF(0, 0, (1,), 1, "degenerate"), 1.0)
    assert metrics.distances(law)[0] == 1.0


def test_kolmogorov_returns_two_steps():
    # atoms 0 and 1/sqrt(2), mass 1/2 each; sup is the jump to 1/2 at zero
    law = walks.scaled_law("returns", 2)
    assert metrics.distances(law)[0] == 0.5


@pytest.mark.parametrize("tag,n", [("returns", 64), ("max", 64),
                                   ("halfmax", 64), ("signchanges", 65)])
def test_kolmogorov_lower_bound_mass_at_zero(tag, n):
    law = walks.scaled_law(tag, n)
    p0 = law.base.numerators[0] / law.base.denominator
    assert metrics.distances(law)[0] >= p0 - 1e-15


def test_kolmogorov_scale_invariance():
    base = walks.exact_pmf("max", 16)
    a = metrics.distances(walks.ScaledLaw(base, 0.25))[0]
    # scale invariance holds between two lattice laws, not against the
    # fixed half-normal target; instead check the sup is stable under
    # re-representation of the same law
    b = metrics.distances(walks.ScaledLaw(
        walks.ExactPMF(base.lower, base.upper,
                       tuple(2 * v for v in base.numerators),
                       2 * base.denominator, "rescaled"), 0.25))[0]
    assert a == b


def test_wasserstein_point_mass_at_mean():
    pmf = walks.ExactPMF(1, 1, (1,), 1, "degenerate")
    law = walks.ScaledLaw(pmf, HALF_NORMAL_MEAN)
    expected, _ = integrate.quad(
        lambda x: abs(x - HALF_NORMAL_MEAN) * hn_pdf(x), 0.0, np.inf)
    assert metrics.wasserstein_exact(law) == pytest.approx(expected, abs=1e-10)


def test_wasserstein_mean_difference_lower_bound():
    # d_W dominates |E[W] - E[Y]|
    for tag, n in (("returns", 16), ("max", 32), ("signchanges", 15)):
        law = walks.scaled_law(tag, n)
        gap = abs(law.scale * float(walks.mean_exact(law.base))
                  - HALF_NORMAL_MEAN)
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


@pytest.mark.parametrize("tag", walks.STATISTICS)
def test_wasserstein_routes_agree_on_a_stride(tag):
    # every admissible n <= 160 at stride 4 (offset by the statistic's
    # parity); the two routes share no code beyond F and the quantile
    first = 3 if tag == "signchanges" else 2
    for n in range(first, 161, 4):
        law = walks.scaled_law(tag, n)
        assert abs(metrics.wasserstein_quantile(law)
                   - metrics.wasserstein_exact(law)) <= 1e-8


def _quantile_quadrature(law):
    """The quantile-side route by adaptive quadrature, as an oracle of the
    closed form: |Q_law(u) - Q_Y(u)| over (0, 1), each step of Q_law split
    where Q_Y crosses its level, every piece mapped through
    u = 1 - exp(-v), which tames the slowly diverging quantile at u = 1,
    and Q_Y read from the survival side at s = exp(-v)."""
    atoms = law.atoms()
    cdf = law.cdf()
    lows = np.concatenate(([0.0], cdf[:-1]))
    total = 0.0
    for x, lo, hi in zip(atoms, lows, cdf):
        if hi - lo < 1e-15:
            continue
        split = normal.hn_cdf(x)
        points = sorted({lo, min(max(split, lo), hi), hi})
        for u0, u1 in zip(points[:-1], points[1:]):
            v0 = -math.log1p(-u0)
            v1 = -math.log1p(-u1) if u1 < 1.0 else v0 + 60.0
            val, _ = integrate.quad(
                lambda v: (abs(x - float(normal._hn_isf(math.exp(-v))))
                           * math.exp(-v)),
                v0, v1, epsabs=1e-11, epsrel=1e-10, limit=128)
            total += val
    return total


# The laws of the quantile route in the benchmark's oracle workload.
QUANTILE_N = [(tag, n) for tag in ("returns", "max", "halfmax")
              for n in range(8, 53, 2)] + [("signchanges", n)
                                           for n in range(9, 52, 2)]


@pytest.mark.parametrize("tag,n", QUANTILE_N + [("max", 4096)])
def test_wasserstein_quantile_matches_quadrature(tag, n):
    # the closed form against the quadrature it replaced, budget 1e-10
    # (measured 4.0e-15, at max 4096), and against the CDF-side route
    law = walks.scaled_law(tag, n)
    closed = metrics.wasserstein_quantile(law)
    assert abs(closed - _quantile_quadrature(law)) <= 1e-10
    assert abs(closed - metrics.wasserstein_exact(law)) <= 1e-8


def _theorem_bound_written_out(tag, n, metric):
    """The six theorem bounds and the auxiliary lemma's two bounds on
    d(V, Y), each as the paper states it."""
    rn = math.sqrt(n)
    return {
        ("max", "K"): (4.0 * SQRT_2_PI + 0.5) / rn + 2.0 / n,
        ("max", "W"): (3.0 + 2.0 / math.pi) / rn,
        ("halfmax", "K"): (3.0 * SQRT_2_PI + 0.5) / rn + 2.0 / n,
        ("halfmax", "W"): (2.0 + 4.0 / math.pi) / rn + 2.0 * SQRT_2_PI / n,
        ("returns", "K"): ((3.0 + 2.0 * math.sqrt(2.0))
                           / math.sqrt(2.0 * math.pi) + 0.75) / rn + 1.5 / n,
        ("returns", "W"): (2.0 / math.pi + 2.0) / rn + SQRT_2_PI / n,
        ("signchanges", "K"): (((2.0 * math.sqrt(2.0) + 4.0)
                                / math.sqrt(math.pi) + 1.5) / rn
                               + 3.0 / n + 4.0 / math.sqrt(math.pi) / n ** 1.5),
        ("signchanges", "W"): ((4.0 + 2.0 / math.pi) / rn + SQRT_2_PI / n
                               + 2.0 * math.sqrt(2.0) / math.pi / n ** 1.5),
    }[tag, metric]


def test_theorem_bound_values():
    # all eight bounds bit for bit, at every admissible n of the sweep and
    # at 2^20; one table holds a bound for every statistic and metric
    assert set(metrics._BOUNDS) == {(tag, metric)
                                    for tag in walks.STATISTICS
                                    for metric in ("K", "W")}
    for tag in walks.STATISTICS:
        odd = tag == "signchanges"
        for n in [*range(2 + odd, 4097 + odd, 2), 2 ** 20 + odd]:
            for metric in ("K", "W"):
                assert (metrics.theorem_bound(tag, n, metric)
                        == _theorem_bound_written_out(tag, n, metric)), (
                    tag, n, metric)


def test_max_kolmogorov_bound_is_the_triangle_through_v():
    # d_K(W, Y) <= d_K(W, V) + d_K(V, Y) with the lemma's d_K(V, W) <=
    # sqrt(2/pi)/sqrt(n): the max row is the halfmax row plus sqrt(2/pi)
    # in a, bit for bit. The W rows do not compose this way (3 + 2/pi, 0
    # against 3 + 4/pi, 2 sqrt(2/pi)) and are left as they are.
    a, b, c = metrics._BOUNDS["halfmax", "K"]
    assert metrics._BOUNDS["max", "K"] == (a + HALF_NORMAL_MEAN, b, c)


def test_theorem_bound_parity():
    with pytest.raises(ValueError):
        metrics.theorem_bound("max", 101, "W")
    with pytest.raises(ValueError):
        metrics.theorem_bound("signchanges", 100, "K")
    with pytest.raises(ValueError):
        metrics.theorem_bound("returns", 100, "L1")
    with pytest.raises(walks.DomainError, match="unknown statistic"):
        metrics.theorem_bound("minimum", 100, "K")


@pytest.mark.parametrize("tag,n", [("returns", 2), ("max", 2),
                                   ("signchanges", 3)])
def test_bound_check_smallest_cases(tag, n):
    report = metrics.bound_check(tag, n)
    assert report.passed
    assert report.margin_K == report.bound_K - report.kolmogorov
    assert report.margin_W == report.bound_W - report.wasserstein


def test_bound_check_returns_two():
    assert metrics.bound_check("returns", 2).kolmogorov == 0.5


def test_bound_sweep_matches_single(capsys):
    # the check-bounds sweep prints bound_check of each n, bit for bit
    assert cli.main(["check-bounds", "--stat", "returns", "--n", "8:128:40",
                     "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows == [cli._report_row(metrics.bound_check("returns", n))
                    for n in (8, 48, 88, 128)]


@given(st.integers(1, 256))
@settings(max_examples=25, deadline=None)
def test_auxiliary_bounds(m):
    report = metrics.auxiliary_bounds(m)
    assert report.passed
    assert report.even_agreement
    n = 2 * m
    assert report.dK_VW <= Fraction(
        math.nextafter(SQRT_2_PI / math.sqrt(n), math.inf))


def test_auxiliary_triangle_slack_is_tight(monkeypatch):
    # d_K(W, Y) set 1e-9 above d_K(V, W) + d_K(V, Y): the triangle check
    # forgives 1e-12 of float rounding, not this
    m = 32
    report = metrics.auxiliary_bounds(m)
    assert report.passed
    bound_check = metrics.bound_check

    def shifted(tag, n):
        out = bound_check(tag, n)
        if tag != "max":
            return out
        return dataclasses.replace(
            out, kolmogorov=float(report.dK_VW) + report.dK_VY + 1e-9)

    monkeypatch.setattr(metrics, "bound_check", shifted)
    assert not metrics.auxiliary_bounds(m).passed


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


@pytest.mark.parametrize("tag", walks.STATISTICS)
def test_rate_table_matches_exact_route(tag):
    # One float law per n gives all four columns. Against the exact route
    # (the big-integer P(X = 0) and mean), budgets 1e-13 for sqrt(n) p0 and
    # 1e-10 for sqrt(n) |mean gap| (measured 7.5e-15 and 1.0e-11 up to
    # n = 65537); the distances are those of bound_check, bit for bit.
    first = 3 if tag == "signchanges" else 2
    ns = [*range(first, 257, 2), *range(first + 256, first + 4094, 62),
          first + 4094]
    for n, row in zip(ns, metrics.rate_table(tag, ns)):
        law = walks.scaled_law(tag, n)
        rn = math.sqrt(n)
        p0 = law.base.numerators[0] / law.base.denominator
        assert abs(row.sqrtn_p0 - rn * p0) <= 1e-13
        assert abs(row.sqrtn_mean_gap
                   - rn * abs(law.scale * float(walks.mean_exact(law.base))
                              - HALF_NORMAL_MEAN)) <= 1e-10
        report = metrics.bound_check(tag, n)
        assert row.sqrtn_dK == rn * report.kolmogorov
        assert row.sqrtn_dW == rn * report.wasserstein


# ---------------------------------------------------------------------------
# The one-pass route of ``distances`` against references.
# ---------------------------------------------------------------------------

def _four_pass_distances(atoms, cdf):
    """The route ``distances`` replaced, kept as its reference: F at the
    atoms for d_K, then H = p + xF at a, at b and at the clipped crossing
    t* for every segment, and G beyond the last atom."""
    target = normal.hn_cdf(atoms)
    cdf_left = np.concatenate(([0.0], cdf[:-1]))
    d_k = float(np.max(np.maximum(np.abs(cdf - target),
                                  np.abs(cdf_left - target))))
    a = np.concatenate(([0.0], atoms[:-1]))
    b = atoms
    c = cdf_left
    anti_a = normal.hn_cdf_integral(a)
    anti_b = normal.hn_cdf_integral(b)
    below = np.clip(normal._hn_quantile(c), a, b)
    anti_split = normal.hn_cdf_integral(below)
    seg = ((c * (below - a) - (anti_split - anti_a))
           + ((anti_b - anti_split) - c * (b - below)))
    d_w = float(np.sum(seg)) + float(normal.hn_tail_integral(atoms[-1]))
    return d_k, d_w


def _crossing_branches(law):
    """Per segment: is t* clipped to a, inside (a, b), or clipped to b."""
    atoms = law.atoms()
    a = np.concatenate(([0.0], atoms[:-1]))
    t = normal._hn_quantile(np.concatenate(([0.0], law.cdf()[:-1])))
    return {"low": bool(np.any((t <= a) & (a < atoms))),
            "inner": bool(np.any((a < t) & (t < atoms))),
            "high": bool(np.any((t >= atoms) & (a < atoms)))}


# d_W, one pass against four passes or against 40 digits. Measured between
# the routes: 2.2e-14 on the swept statistics. On halfmax at n = 4000 the
# routes differ by 9.7e-14, each about 5e-14 from the 40-digit value on
# opposite sides, so that comparison gets twice the budget.
ONE_PASS_BUDGET = 1e-13


@pytest.mark.parametrize("tag,first,budget", [
    ("returns", 2, ONE_PASS_BUDGET), ("max", 2, ONE_PASS_BUDGET),
    ("signchanges", 3, ONE_PASS_BUDGET), ("halfmax", 2, 2 * ONE_PASS_BUDGET)])
def test_one_pass_matches_four_pass_route(tag, first, budget):
    # every admissible n up to 4096/4097: d_K bit for bit, d_W in budget
    ns = range(first, 4098, 2)
    for n, report in zip(ns, metrics.bound_checks(tag, ns), strict=True):
        d_k, d_w = report.kolmogorov, report.wasserstein
        ref_k, ref_w = _four_pass_distances(*block_of_one(tag, n))
        assert d_k == ref_k, n
        assert abs(d_w - ref_w) <= budget, n


def _uniform(size, scale):
    return walks.ScaledLaw(
        walks.ExactPMF(0, size - 1, (1,) * size, size, "uniform"), scale)


HAND_MADE_LAWS = {
    "uniform 0..4, scale 1": _uniform(5, 1.0),
    "uniform 0..4, scale 0.1": _uniform(5, 0.1),
    "uniform 0..49, scale 0.05": _uniform(50, 0.05),
    "point mass at the mean": walks.ScaledLaw(
        walks.ExactPMF(1, 1, (1,), 1, "point"), HALF_NORMAL_MEAN),
    "two atoms off zero": walks.ScaledLaw(
        walks.ExactPMF(2, 3, (1, 3), 4, "pair"), 0.5),
}


def test_hand_made_laws_cover_every_crossing_branch():
    # no walk law puts t* below a, so these laws carry the low branch
    seen = {"low": False, "inner": False, "high": False}
    for law in HAND_MADE_LAWS.values():
        for branch, hit in _crossing_branches(law).items():
            seen[branch] = seen[branch] or hit
    assert all(seen.values()), seen


@pytest.mark.parametrize("name", HAND_MADE_LAWS)
def test_one_pass_matches_four_pass_on_hand_made_laws(name):
    law = HAND_MADE_LAWS[name]
    d_k, d_w = metrics.distances(law)
    ref_k, ref_w = _four_pass_distances(law.atoms(), law.cdf())
    assert d_k == ref_k
    assert abs(d_w - ref_w) <= ONE_PASS_BUDGET
    assert abs(d_w - _wasserstein_mpmath(law.atoms(), law.cdf())) \
        <= ONE_PASS_BUDGET
    assert metrics.wasserstein_exact(law) == d_w


def _wasserstein_mpmath(atoms, cdf):
    """The segment sums of d_W at 40 digits, from a law's float atoms
    and CDF taken as exact binary numbers. The crossing is the float
    quantile refined by three Newton steps."""
    with mpmath.workdps(40):
        root2 = mpmath.sqrt(2)
        density0 = mpmath.sqrt(2 / mpmath.pi)

        def cdf_y(t):
            return mpmath.erf(t / root2)

        def density(t):
            return density0 * mpmath.exp(-t * t / 2)

        def anti(t, f):
            return density(t) + t * f

        levels = np.concatenate(([0.0], cdf[:-1]))
        guesses = normal._hn_quantile(levels)
        total = mpmath.mpf(0)
        a, f_a, h_a = mpmath.mpf(0), mpmath.mpf(0), density0
        for b, c, t in zip(map(mpmath.mpf, atoms.tolist()),
                           map(mpmath.mpf, levels.tolist()),
                           guesses.tolist()):
            f_b = cdf_y(b)
            h_b = anti(b, f_b)
            if f_a >= c:
                total += h_b - h_a - c * (b - a)
            elif f_b <= c:
                total += c * (b - a) - (h_b - h_a)
            else:
                t = mpmath.mpf(t)
                for _ in range(3):
                    t -= (cdf_y(t) - c) / density(t)
                total += (c * (2 * t - a - b) + h_a + h_b
                          - 2 * anti(t, cdf_y(t)))
            a, f_a, h_a = b, f_b, h_b
        total += density(a) - a * mpmath.erfc(a / root2)
        return float(total)


@pytest.mark.parametrize("tag,n", [("returns", 256), ("returns", 4096),
                                   ("max", 1024), ("max", 4096),
                                   ("signchanges", 1025), ("halfmax", 4000)])
def test_one_pass_wasserstein_against_mpmath(tag, n):
    # measured: one pass within 6.6e-15, four passes within 1.3e-15, except
    # on halfmax at n = 4000 (5.2e-14 and 4.5e-14)
    law = block_of_one(tag, n)
    exact = _wasserstein_mpmath(*law)
    assert abs(metrics.bound_check(tag, n).wasserstein - exact) \
        <= ONE_PASS_BUDGET
    assert abs(_four_pass_distances(*law)[1] - exact) <= ONE_PASS_BUDGET


class _Counted:
    def __init__(self, fn):
        self.fn = fn
        self.calls = 0
        self.elements = 0

    def __call__(self, x):
        self.calls += 1
        self.elements += np.size(x)
        return self.fn(x)


@pytest.fixture
def evaluations(monkeypatch):
    """Counters of calls and of evaluated elements on F (erf) and the
    quantile where ``metrics`` reads them, and on the normal density (exp),
    through which p, H and G all evaluate."""
    counted = {}
    for module, name in ((metrics, "hn_cdf"), (normal, "phi"),
                         (metrics, "_hn_quantile")):
        counted[name] = _Counted(getattr(module, name))
        monkeypatch.setattr(module, name, counted[name])
    return counted


_EVALUATED = ("hn_cdf", "phi", "_hn_quantile")


def _calls(counted):
    return tuple(counted[k].calls for k in _EVALUATED)


def _elements(counted):
    return tuple(counted[k].elements for k in _EVALUATED)


@pytest.mark.parametrize("tag,n", [("returns", 2), ("max", 4096),
                                   ("signchanges", 1025)])
def test_bound_check_evaluates_f_and_p_once(evaluations, tag, n):
    metrics.bound_check(tag, n)
    f, p, q = _calls(evaluations)
    assert (f, q) == (1, 1) and p <= 2


def test_rate_table_evaluates_f_and_p_once_per_row(evaluations):
    # Counted in elements, since a block of laws shares one call: F once
    # at every atom of every row, p at every atom and at every interior
    # crossing, the quantile at most once per segment (one per atom). The
    # n list spans several blocks.
    ns = [2, 64, 1024, 4096, *range(2000, 4097, 16)]
    atoms = sum(len(block_of_one("max", n)[1]) for n in ns)
    metrics.rate_table("max", ns)
    f, p, q = _elements(evaluations)
    assert f == atoms and p == atoms + q and q <= atoms
    assert evaluations["hn_cdf"].calls > 1


def test_bound_checks_evaluate_f_and_p_on_kept_atoms_only(evaluations):
    # the laws are built as padded rows, but F runs on exactly the atoms
    # each float law keeps, and p on those plus the crossings: no padded
    # cell and no atom past a cut is evaluated. The n list spans blocks
    # of several widths and a law wider than a block.
    ns = [2, 64, 1024, 4096, *range(2000, 4097, 16), 1 << 22, 6, 8]
    atoms = sum(len(block_of_one("max", n)[1]) for n in ns)
    metrics.bound_checks("max", ns)
    f, p, q = _elements(evaluations)
    assert f == atoms and p == atoms + q and q <= atoms
    assert evaluations["hn_cdf"].calls > 2


def test_auxiliary_bounds_evaluates_f_and_p_once_per_law(evaluations):
    # one V-law and the bound_check of the maximum it is compared with
    metrics.auxiliary_bounds(300)
    f, p, q = _calls(evaluations)
    assert (f, q) == (2, 2) and p <= 4


# ---------------------------------------------------------------------------
# Blocks of laws against each law alone.
# ---------------------------------------------------------------------------

# d_W of a law in a block against the law alone; both sum the same segment
# values per law, and measured they agree bit for bit
BATCH_BUDGET = 1e-15


def _assert_block_matches_alone(laws):
    # any laws, each (atoms, cdf, (d_K, d_W) alone), concatenated into one
    # block of _block_distances
    sizes = np.array([len(atoms) for atoms, _, _ in laws])
    d_k, d_w = metrics._block_distances(
        np.concatenate([atoms for atoms, _, _ in laws]),
        np.concatenate([cdf for _, cdf, _ in laws]), sizes)
    assert len(d_k) == len(d_w) == len(laws)
    for (_, _, (alone_k, alone_w)), k, w in zip(laws, d_k.tolist(),
                                                  d_w.tolist()):
        assert k == alone_k
        assert abs(w - alone_w) <= BATCH_BUDGET


def _assert_checks_match_alone(tag, ns):
    # the blocks of an n-list against the block of one of each n
    reports = metrics.bound_checks(tag, ns)
    assert [r.n for r in reports] == list(ns)
    for r in reports:
        alone = metrics.bound_check(tag, r.n)
        assert r.kolmogorov == alone.kolmogorov
        assert abs(r.wasserstein - alone.wasserstein) <= BATCH_BUDGET


@pytest.mark.parametrize("tag", walks.STATISTICS)
def test_batch_matches_each_law_alone(tag):
    # every admissible n up to 4096/4097 in one stream of blocks
    first = 3 if tag == "signchanges" else 2
    _assert_checks_match_alone(tag, range(first, 4098, 2))


def test_block_filled_exactly(evaluations):
    # returns at n = 254 is cut at its whole row of 128 entries, so a
    # block's worth of such rows, one of them narrower, fills the block to
    # the padded cell and is one F evaluation; one law more opens a
    # second block
    per_block = metrics._BLOCK_ATOMS // 128
    assert per_block * 128 == metrics._BLOCK_ATOMS
    assert walks._cut("returns", 254) == (254, 127, 127)
    full = [2, *[254] * (per_block - 1)]
    blocks = list(walks._float_blocks("returns", full, metrics._BLOCK_ATOMS))
    assert len(blocks) == 1 and blocks[0][1].size < metrics._BLOCK_ATOMS
    metrics.bound_checks("returns", full)
    assert evaluations["hn_cdf"].calls == 1
    assert len(list(walks._float_blocks("returns", [*full, 2],
                                        metrics._BLOCK_ATOMS))) == 2
    metrics.bound_checks("returns", [*full, 2])
    assert evaluations["hn_cdf"].calls == 3
    _assert_checks_match_alone("returns", [*full, 2, *full])


def test_law_longer_than_a_block(evaluations):
    # max at n = 2^22 keeps more atoms than a block holds, so it is a block
    # of its own between the short laws around it
    ns = [64, 1 << 22, 128]
    assert len(block_of_one("max", 1 << 22)[1]) > metrics._BLOCK_ATOMS
    metrics.bound_checks("max", ns)
    assert evaluations["hn_cdf"].calls == 3
    _assert_checks_match_alone("max", ns)


def _scaled(law):
    return law.atoms(), law.cdf(), metrics.distances(law)


def _float(tag, n):
    report = metrics.bound_check(tag, n)
    return (*block_of_one(tag, n), (report.kolmogorov, report.wasserstein))


def test_batch_mixes_scaled_and_float_laws():
    _assert_block_matches_alone([
        _scaled(walks.scaled_law("returns", 64)), _float("max", 128),
        *map(_scaled, HAND_MADE_LAWS.values()),
        _scaled(walks.scaled_law("signchanges", 65)), _float("halfmax", 4000),
        _scaled(walks.scaled_law("max", 2))])


def test_empty_batch_raises():
    with pytest.raises(ValueError):
        metrics.bound_checks("max", [])
    with pytest.raises(ValueError):
        metrics.rate_table("max", [])


@pytest.mark.parametrize("tag,first", [("returns", 2), ("max", 2),
                                       ("signchanges", 3)])
def test_check_bounds_streams_its_laws(capsys, tag, first):
    # the laws of a sweep are built one block at a time; holding all of a
    # statistic's laws at once peaks at 4.9-8.2 MB, streamed at 2.1-2.2 MB
    tracemalloc.start()
    try:
        assert cli.main(["check-bounds", "--stat", tag,
                         "--n", f"{first}:{4094 + first}:2"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak <= 3 * 2 ** 20


KANTOROVICH_CAPS = (*np.linspace(0.05, 5.0, 100), math.inf)


@pytest.mark.parametrize("tag,n", [("returns", 256), ("max", 1024),
                                   ("signchanges", 1025)])
def test_kantorovich_lower_bound_on_wasserstein(tag, n):
    # min(x, c) is 1-Lipschitz, so |E min(W, c) - E min(Y, c)| <= d_W for
    # every cap c; the supremum over 101 caps comes within 0.999 of d_W
    # (measured 0.99986 and above), so a d_W that comes out too small
    # fails here although its theorem margin would grow
    atoms, cdf = block_of_one(tag, n)
    mass = np.diff(cdf, prepend=0.0)
    lower = max(abs(float(np.dot(mass, np.minimum(atoms, c)))
                    - stein.mu_h(stein.CappedIdentity(c)))
                for c in KANTOROVICH_CAPS)
    d_w = metrics.bound_check(tag, n).wasserstein
    assert lower <= d_w + 1e-12
    assert lower >= 0.999 * d_w


@pytest.mark.parametrize("tag,first", [("returns", 2), ("max", 2),
                                       ("signchanges", 3)])
def test_kantorovich_lower_bound_across_full_sweep(tag, first):
    # the same duality at every admissible n up to 4096/4097, against the
    # d_W of the batched sweep: a block that let a law's d_W come out too
    # small fails here. The smallest ratio lower / d_W is 0.90986 (max at
    # n = 2); returns reaches 0.99849 (n = 2), signchanges 0.99993 (n = 5)
    caps = np.array(KANTOROVICH_CAPS)
    mu = np.array([stein.mu_h(stein.CappedIdentity(c)) for c in caps])
    ns = range(first, 4098, 2)
    for n, report in zip(ns, metrics.bound_checks(tag, ns), strict=True):
        atoms, cdf = block_of_one(tag, n)
        mass = np.diff(cdf, prepend=0.0)
        lower = float(np.max(np.abs(
            mass @ np.minimum.outer(atoms, caps) - mu)))
        assert lower <= report.wasserstein + 1e-12, n
        assert lower >= 0.9 * report.wasserstein, n
