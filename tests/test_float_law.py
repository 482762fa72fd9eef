"""The float CDF route of walks._float_blocks against the exact laws and
against the same route without its cut. A float law is read off a block
of one, as the commands build it; its distances come from
metrics.bound_checks, and those of a hand-built CDF from
metrics._block_distances.

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

import hashlib
import math
import tracemalloc
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


def block_of_one(tag, n):
    """(atoms, cdf) of the float law at n: ``walks._float_blocks`` of the
    one n, its atoms scale * j as ``metrics`` lays them out."""
    ((scales, cdf, sizes),) = walks._float_blocks(tag, [n],
                                                  metrics._BLOCK_ATOMS)
    return metrics._lattice(scales, sizes), cdf


def uncut_block(tag, n):
    """(scales, cdf, sizes) of the float route over the whole row of m + 1
    entries, normalised by its last partial sum and not trimmed, as a block
    of one: the reference for the cut."""
    m = walks.half_length(tag, n)
    num, den = walks._ratios(tag, m, np.arange(m, dtype=float))
    row = np.ones(m + 1)
    np.cumprod(num / den, out=row[1:])
    cdf = np.cumsum(walks._masses(tag, row))
    cdf /= cdf[-1]
    ((scales, *_),) = walks._float_blocks(tag, [n], metrics._BLOCK_ATOMS)
    return scales, cdf, np.array([len(cdf)])


@pytest.mark.parametrize("tag", walks.STATISTICS)
def test_float_law_matches_exact_law(tag):
    for n in admissible(tag):
        exact = walks.scaled_law(tag, n)
        atoms, cdf = block_of_one(tag, n)
        kept = len(cdf)
        assert np.array_equal(atoms, exact.atoms()[:kept])
        assert np.max(np.abs(cdf - exact.cdf()[:kept])) <= CDF_BUDGET
        assert cdf[-1] == 1.0
        assert np.all(np.diff(cdf) >= 0.0)
        pmf = exact.base
        tail = Fraction(sum(pmf.numerators[kept:]), pmf.denominator)
        assert tail <= TAIL_BUDGET, n
        fast = metrics.bound_check(tag, n)
        fast_k, fast_w = fast.kolmogorov, fast.wasserstein
        exact_k, exact_w = metrics.distances(exact)
        assert abs(fast_k - exact_k) <= DISTANCE_BUDGET
        assert abs(fast_w - exact_w) <= DISTANCE_BUDGET


@pytest.mark.parametrize("tag", walks.STATISTICS)
def test_cut_matches_uncut_route(tag):
    # the kept CDF and d_K bit for bit, d_W within CUT_BUDGET
    for n in every_admissible_and_powers(tag):
        _, cdf = block_of_one(tag, n)
        scales, whole, sizes = uncut_block(tag, n)
        kept = len(cdf)
        assert np.array_equal(cdf, whole[:kept]), n
        assert np.all(whole[kept:] == 1.0), n
        report = metrics.bound_check(tag, n)
        d_k, d_w = report.kolmogorov, report.wasserstein
        ((ref_k,), (ref_w,)) = metrics._block_distances(
            metrics._lattice(scales, sizes), whole, sizes)
        assert d_k == ref_k, n
        assert abs(d_w - ref_w) <= CUT_BUDGET, n


# sha256 of repr((n, d_K, d_W, bound_K, bound_W)) over every admissible
# n <= 4096/4097, in order, as bound_checks gave them when each law was
# built on its own; a faster route must keep every float
BOUND_CHECK_DIGESTS = {
    "returns":
        "d3a26362c79d936d5f0fcebdbf5c72e08394066c0dac26ab559725e61b1f1c2d",
    "max": "e7e5c24fb86786b87b6d05dd6dfbe9a2262f1e73d1b251ce321a881469450190",
    "halfmax":
        "9c5549588a542094b974bb8b27eba8d9544202ed1670de33b397427c27437c88",
    "signchanges":
        "eb0175ee5b6911fdcf2e98ec9dc9b42471965f1d783efe1be8285aa4e33e40c6",
}


@pytest.mark.parametrize("tag", walks.STATISTICS)
def test_bound_checks_are_pinned_bit_for_bit(tag):
    first = 3 if tag == "signchanges" else 2
    digest = hashlib.sha256()
    for r in metrics.bound_checks(tag, range(first, 4098, 2)):
        digest.update(repr((r.n, r.kolmogorov, r.wasserstein,
                            r.bound_K, r.bound_W)).encode())
    assert digest.hexdigest() == BOUND_CHECK_DIGESTS[tag]


def uncut_float_blocks(tag, ns, cells):
    """``walks._float_blocks`` with each law uncut, in blocks of one."""
    for n in ns:
        yield uncut_block(tag, n)


@pytest.mark.parametrize("tag", walks.STATISTICS)
def test_rate_table_matches_uncut_route(tag, monkeypatch):
    ns = every_admissible_and_powers(tag)
    rows = metrics.rate_table(tag, ns)
    monkeypatch.setattr(metrics, "_float_blocks", uncut_float_blocks)
    for row, ref in zip(rows, metrics.rate_table(tag, ns), strict=True):
        rn = math.sqrt(row.n)
        assert (row.n, row.sqrtn_dK, row.sqrtn_p0) \
            == (ref.n, ref.sqrtn_dK, ref.sqrtn_p0)
        assert abs(row.sqrtn_dW - ref.sqrtn_dW) <= rn * CUT_BUDGET, row.n
        assert abs(row.sqrtn_mean_gap - ref.sqrtn_mean_gap) \
            <= rn * CUT_BUDGET, row.n


def test_cut_holds_a_thousandfold_tighter_tail(monkeypatch):
    # the tail bound at x = 10 is at most 2.84e-4 of 2^-64 of the kept
    # mass (see walks._X_CUT), so every row still builds in one pass with
    # _TAIL_RTOL 1 000 times tighter
    monkeypatch.setattr(walks, "_TAIL_RTOL", walks._TAIL_RTOL / 1000)
    widths = _row_widths(monkeypatch)
    for tag in walks.STATISTICS:
        first = 3 if tag == "signchanges" else 2
        blocks = list(walks._float_blocks(tag, range(first, 4098, 2),
                                          1 << 20))
        assert len(widths) == len(blocks), tag
        for k in range(1, 31):
            widths.clear()
            block_of_one(tag, (1 << k) + first - 2)
            assert len(widths) == 1, (tag, k)
        widths.clear()


def test_failed_tail_bound_is_refused(monkeypatch):
    # a cut at x = 3 leaves a tail far above 2^-64 of the kept mass; the
    # block raises rather than normalise by a short row
    monkeypatch.setattr(walks, "_X_CUT", 3.0)
    with pytest.raises(RuntimeError, match="max at n = 1024: the tail"):
        metrics.bound_checks("max", [1024])


def _row_widths(monkeypatch):
    """The width of every block of rows ``walks._float_block`` builds, read
    where it maps them onto the support."""
    widths, masses = [], walks._masses

    def spy(tag, row):
        widths.append(row.shape[-1])
        return masses(tag, row)

    monkeypatch.setattr(walks, "_masses", spy)
    return widths


@pytest.mark.parametrize("tag", walks.STATISTICS)
def test_float_law_work_is_order_sqrt_n(tag, monkeypatch):
    # no timing: the row and the CDF stay O(sqrt(n)) long up to n = 2^20;
    # the row stops at the atom x = 10
    first = 3 if tag == "signchanges" else 2
    widths = _row_widths(monkeypatch)
    for n in [*admissible(tag), *((1 << k) + first - 2 for k in range(1, 21))]:
        widths.clear()
        assert len(block_of_one(tag, n)[1]) <= 10 * math.isqrt(n) + 2
        assert max(widths) <= 10 * (math.isqrt(n) + 1) + 1, n


@pytest.mark.parametrize("tag", walks.STATISTICS)
def test_mixed_block_matches_uncut_route(tag):
    # one block of rows of different widths, in no order: the shortest
    # end at m, the others are cut below it. Each law must still be the
    # uncut route's prefix bit for bit, so no padding reaches a cut, a
    # normaliser or another row
    first = 3 if tag == "signchanges" else 2
    ns = [first + d for d in (398, 0, 4094, 98, 8, 2046, 998, 48)]
    ends = [walks._cut(tag, n)[2] == walks.half_length(tag, n) for n in ns]
    assert any(ends) and not all(ends)
    ((scales, cdf, sizes),) = walks._float_blocks(tag, ns, 1 << 20)
    for n, scale, law in zip(ns, scales, np.split(cdf, np.cumsum(sizes[:-1])),
                             strict=True):
        alone, whole, _ = uncut_block(tag, n)
        assert scale == alone[0], n
        assert np.array_equal(law, whole[:len(law)]), n
        assert np.all(whole[len(law):] == 1.0), n


@pytest.mark.parametrize("tag,n", [("returns", 5), ("returns", 0),
                                   ("max", 3), ("halfmax", 7),
                                   ("signchanges", 4), ("signchanges", 1),
                                   ("mean", 4)])
def test_float_law_rejects_bad_n(tag, n):
    with pytest.raises(ValueError):
        metrics.bound_checks(tag, [n])
    with pytest.raises(ValueError):
        walks.scaled_law(tag, n)


HUGE_N = [1 << 62, 10 ** 15, (1 << 64) + 2, 10 ** 400]


@pytest.mark.parametrize("tag", walks.STATISTICS)
@pytest.mark.parametrize("n", HUGE_N)
def test_huge_n_is_refused_before_anything_is_built(tag, n, monkeypatch):
    # 2^62 ended in numpy's _ArrayMemoryError, 10^15 in a process killed
    # for its memory; a block holds m and k as floats, exact below 2^53,
    # and past about 1.8e308 sqrt(n) is no float. Refused before any row
    # exists
    n += tag == "signchanges"

    def build(*args):
        raise AssertionError("a row was built")

    monkeypatch.setattr(walks, "_float_block", build)
    tracemalloc.start()
    try:
        with pytest.raises(walks.DomainError, match="atoms, more than"):
            next(walks._float_blocks(tag, [n], metrics._BLOCK_ATOMS))
        with pytest.raises(walks.DomainError, match="atoms, more than"):
            metrics.bound_checks(tag, [n])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 ** 16


@pytest.mark.parametrize("tag", walks.STATISTICS)
def test_exact_cut_is_the_float_formula(tag):
    # the exact integer cut is the float min(m, ceil(10 sqrt(n) / spacing))
    # at every admissible n <= 2^14, so every law is built from the same row
    first = 3 if tag == "signchanges" else 2
    spacing = 1 if tag == "returns" else 2
    for n in range(first, (1 << 14) + 1, 2):
        m = walks.half_length(tag, n)
        assert walks._cut(tag, n) == (
            n, m, min(m, math.ceil(10.0 * math.sqrt(n) / spacing))), n


def test_refusal_names_the_atoms_of_the_cut_law():
    # at n = 10^25 the cut row of the max maps onto 2 ceil(5 sqrt(n)) + 1
    # atoms, not the n + 1 atoms of the whole row
    with pytest.raises(walks.DomainError,
                       match=" of 31622776601685 atoms, more than 1048576$"):
        metrics.bound_checks("max", [10 ** 25])


@pytest.mark.parametrize("tag", walks.STATISTICS)
def test_atom_limit_admits_the_measured_range(tag):
    # the largest admitted n, found by bisection over m, maps its row onto
    # at most _MAX_ATOMS atoms and the next n onto more; the ROADMAP's
    # n = 2^24 and the tests' 2^20 lie far inside
    def admitted(m):
        try:
            walks._cut(tag, walks.walk_length(tag, m))
        except walks.DomainError:
            return False
        return True

    lo, hi = 1, 1 << 40
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if admitted(mid) else (lo, mid)
    n = walks.walk_length(tag, lo)
    assert walks._atoms(tag, walks._cut(tag, n)[2]) <= walks._MAX_ATOMS
    with pytest.raises(walks.DomainError):
        walks._cut(tag, n + 2)
    assert n >= 1 << 33
