"""The float CDF route of walks.float_law against the exact laws and
against the same route without its cut.

Error budgets:
- Against the exact laws: the float route loses about one rounding per
  ratio, per product and per partial sum. Up to n = 4096 its CDF was
  measured within 4e-15 of the exactly rounded CDF on the kept atoms, and
  d_K, d_W within 7e-14 of the exact route. The budgets below leave room
  over those figures and stay well inside the 1e-10 headroom of the
  acceptance sweep.
- The mass beyond the last kept atom: the float CDF reads 1.0 there, so
  the exact tail is at most that atom's CDF error plus the 2^-64 the cut
  may drop. Measured: at most 7.9e-16.
- Against the uncut route, the whole row of m + 1 entries: each dropped
  term is below half an ulp of the running sum, so the kept CDF is a bit
  for bit prefix of the uncut one and d_K is bit-identical. d_W adds the
  tail beyond the last atom in closed form instead of segment by segment;
  measured |delta d_W| at most 1.74e-15, and the rate table's mean moves by
  at most 4.5e-16, from summing fewer zero terms.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from halfnorm_stein import metrics, walks

CDF_BUDGET = 1e-13
DISTANCE_BUDGET = 1e-12
TAIL_BUDGET = 1e-14
CUT_BUDGET = 1e-14


def admissible(tag):
    first = 3 if tag == "signchanges" else 2
    return [*range(first, 257, 2), *range(first + 256, first + 4094, 62),
            first + 4094]


def every_admissible_and_powers(tag):
    """Every admissible n up to 4096/4097, then n = 2^k (2^k + 1 for
    signchanges) for k = 12..20."""
    first = 3 if tag == "signchanges" else 2
    return [*range(first, 4098, 2),
            *((1 << k) + first - 2 for k in range(12, 21))]


def uncut_float_law(tag, n):
    """The float route over the whole row of m + 1 entries, normalised by
    its last partial sum and not trimmed: the reference for the cut."""
    m = walks.half_length(tag, n)
    num, den = (np.arange(r.start, r.stop, r.step, dtype=float)
                for r in walks._ratios(tag, m))
    row = np.ones(m + 1)
    np.cumprod(num / den, out=row[1:])
    cdf = np.cumsum(walks._masses(tag, row))
    cdf /= cdf[-1]
    return walks.FloatLaw(walks.float_law(tag, n).scale, cdf)


@pytest.mark.parametrize("tag", walks.STATISTICS)
def test_float_law_matches_exact_law(tag):
    for n in admissible(tag):
        exact = walks.scaled_law(tag, n)
        fast = walks.float_law(tag, n)
        cdf = fast.cdf()
        kept = len(cdf)
        assert np.array_equal(fast.atoms(), exact.atoms()[:kept])
        assert np.max(np.abs(cdf - exact.cdf()[:kept])) <= CDF_BUDGET
        assert cdf[-1] == 1.0
        assert np.all(np.diff(cdf) >= 0.0)
        pmf = exact.base
        tail = Fraction(sum(pmf.numerators[kept:]), pmf.denominator)
        assert tail <= TAIL_BUDGET, n
        (fast_k, fast_w), (exact_k, exact_w) = (metrics.distances(fast),
                                                metrics.distances(exact))
        assert abs(fast_k - exact_k) <= DISTANCE_BUDGET
        assert abs(fast_w - exact_w) <= DISTANCE_BUDGET


@pytest.mark.parametrize("tag", walks.STATISTICS)
def test_cut_matches_uncut_route(tag):
    # the kept CDF and d_K bit for bit, d_W within CUT_BUDGET
    for n in every_admissible_and_powers(tag):
        law = walks.float_law(tag, n)
        whole = uncut_float_law(tag, n)
        kept = len(law.cdf())
        assert np.array_equal(law.cdf(), whole.cdf()[:kept]), n
        assert np.all(whole.cdf()[kept:] == 1.0), n
        d_k, d_w = metrics.distances(law)
        ref_k, ref_w = metrics.distances(whole)
        assert d_k == ref_k, n
        assert abs(d_w - ref_w) <= CUT_BUDGET, n


@pytest.mark.parametrize("tag", walks.STATISTICS)
def test_rate_table_matches_uncut_route(tag, monkeypatch):
    ns = every_admissible_and_powers(tag)
    rows = metrics.rate_table(tag, ns)
    monkeypatch.setattr(metrics, "float_law", uncut_float_law)
    for row, ref in zip(rows, metrics.rate_table(tag, ns), strict=True):
        rn = math.sqrt(row.n)
        assert (row.n, row.sqrtn_dK, row.sqrtn_p0) \
            == (ref.n, ref.sqrtn_dK, ref.sqrtn_p0)
        assert abs(row.sqrtn_dW - ref.sqrtn_dW) <= rn * CUT_BUDGET, row.n
        assert abs(row.sqrtn_mean_gap - ref.sqrtn_mean_gap) \
            <= rn * CUT_BUDGET, row.n


@pytest.mark.parametrize("tag", walks.STATISTICS)
@pytest.mark.parametrize("x_cut", [1e-9, 0.5, 3.0])
def test_cut_does_not_depend_on_the_first_guess(tag, x_cut, monkeypatch):
    # a first cut far inside the support fails the tail bound and doubles
    # until it passes; had a short cut been accepted, the normaliser and
    # with it the whole CDF would differ
    ns = [3, 101, 1025, (1 << 20) + 1] if tag == "signchanges" \
        else [2, 100, 1024, 1 << 20]
    laws = [walks.float_law(tag, n) for n in ns]
    monkeypatch.setattr(walks, "_X_CUT", x_cut)
    for n, law in zip(ns, laws):
        assert np.array_equal(walks.float_law(tag, n).cdf(), law.cdf()), n


@pytest.mark.parametrize("tag", walks.STATISTICS)
def test_float_law_work_is_order_sqrt_n(tag):
    # no timing: the row and the CDF stay O(sqrt(n)) long up to n = 2^20;
    # the row stops at the atom x = 10 unless its tail bound fails
    first = 3 if tag == "signchanges" else 2
    for n in [*admissible(tag), *((1 << k) + first - 2 for k in range(1, 21))]:
        assert len(walks.float_law(tag, n).cdf()) <= 10 * math.isqrt(n) + 2
        row = walks._float_row(tag, walks.half_length(tag, n))
        assert len(row) <= 10 * (math.isqrt(n) + 1) + 1, n


@pytest.mark.parametrize("tag,n", [("returns", 5), ("returns", 0),
                                   ("max", 3), ("halfmax", 7),
                                   ("signchanges", 4), ("signchanges", 1),
                                   ("mean", 4)])
def test_float_law_rejects_bad_n(tag, n):
    with pytest.raises(ValueError):
        walks.float_law(tag, n)
    with pytest.raises(ValueError):
        walks.scaled_law(tag, n)
