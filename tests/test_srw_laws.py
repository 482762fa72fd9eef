import collections
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from enumeration_check import (ENUMERATION_MAX_N, _enumerate,
                               check_formulas_match_enumeration,
                               enumerated_counts, naive_walk_statistics)
from halfnorm_stein import characterization, metrics, simulate, walks


def masses_dict(pmf):
    return dict(zip(pmf.support(), pmf.masses()))


def position_prob(n: int, k: int) -> Fraction:
    """P(S_n = k) = binom(n, (n+k)/2) / 2^n, zero off the parity lattice."""
    if (n + k) % 2 or k < -n or k > n:
        return Fraction(0)
    return Fraction(math.comb(n, (n + k) // 2), 1 << n)


def test_position_prob():
    assert position_prob(2, 0) == Fraction(1, 2)
    assert position_prob(2, 1) == 0
    assert position_prob(4, 4) == Fraction(1, 16)
    assert position_prob(4, 6) == 0


def test_returns_small_cases():
    assert masses_dict(walks.exact_pmf("returns", 2)) == {0: Fraction(1, 2),
                                                          1: Fraction(1, 2)}
    assert masses_dict(walks.exact_pmf("returns", 4)) == {0: Fraction(3, 8),
                                                          1: Fraction(3, 8),
                                                          2: Fraction(1, 4)}


def test_returns_matches_binomial_formula():
    # P(K_{2m} = r) = binom(2m - r, m) / 2^(2m - r)
    for m in (3, 7, 20):
        pmf = walks.exact_pmf("returns", 2 * m)
        for r, mass in zip(pmf.support(), pmf.masses()):
            expected = Fraction(math.comb(2 * m - r, m), 1 << (2 * m - r))
            assert mass == expected


def test_max_small_cases():
    assert masses_dict(walks.exact_pmf("max", 2)) == {0: Fraction(1, 2),
                                                      1: Fraction(1, 4),
                                                      2: Fraction(1, 4)}


def test_max_pairs_position_probs():
    for n in (4, 10):
        pmf = walks.exact_pmf("max", n)
        for r, mass in zip(pmf.support(), pmf.masses()):
            expected = position_prob(n, r) + position_prob(n, r + 1)
            assert mass == expected


def test_halfmax_small_cases():
    assert masses_dict(walks.exact_pmf("halfmax", 2)) == {0: Fraction(1, 2),
                                                          1: Fraction(1, 2)}


def test_halfmax_aggregates_max():
    # N = floor((M+1)/2), so q(s) = P(M = 2s-1) + P(M = 2s) for s >= 1
    # and q(0) = P(M = 0).
    for m in (1, 4, 9):
        p = walks.exact_pmf("max", 2 * m).masses()
        q = walks.exact_pmf("halfmax", 2 * m).masses()
        assert q[0] == p[0]
        for s in range(1, m + 1):
            assert q[s] == p[2 * s - 1] + p[2 * s]


def test_signchanges_small_cases():
    assert masses_dict(walks.exact_pmf("signchanges", 3)) == {
        0: Fraction(3, 4), 1: Fraction(1, 4)}
    assert masses_dict(walks.exact_pmf("signchanges", 5)) == {
        0: Fraction(5, 8), 1: Fraction(5, 16), 2: Fraction(1, 16)}


@pytest.mark.parametrize("tag", walks.STATISTICS)
def test_domain_errors(tag):
    with pytest.raises(walks.DomainError):
        walks.exact_pmf(tag, 0)


def test_support_size_counts_the_exact_atoms():
    # every admissible n <= 512
    for tag in walks.STATISTICS:
        for n in (walks.walk_length(tag, m) for m in range(1, 257)):
            if n > 512:
                break
            assert walks.support_size(tag, n) == len(
                walks.exact_pmf(tag, n).numerators), (tag, n)


def test_max_rejects_odd():
    with pytest.raises(walks.DomainError):
        walks.exact_pmf("max", 5)


@given(st.integers(1, 200))
@settings(max_examples=30, deadline=None)
def test_normalization_and_positivity(m):
    for tag in walks.STATISTICS:
        pmf = walks.exact_pmf(tag, walks.walk_length(tag, m))
        assert sum(pmf.numerators) == pmf.denominator
        assert all(v > 0 for v in pmf.numerators)


def test_brute_force_oracle_equality():
    check_formulas_match_enumeration()


def test_brute_force_count_matches_enumeration():
    # the count of paths per walk state against its own oracle, the
    # enumeration of every path, at every admissible n it reaches
    for tag in walks.STATISTICS:
        first = 3 if tag == "signchanges" else 2
        for n in range(first, ENUMERATION_MAX_N + 1, 2):
            assert (walks.brute_force_pmf(tag, n).numerators
                    == enumerated_counts(tag, n)), (tag, n)


def _naive_statistics(n):
    """(max, returns, sign changes) of each of the 2^n paths, and halfmax,
    one path at a time and in the enumeration's order: path i takes step
    k = +1 exactly when bit k of i is set."""
    for i in range(1 << n):
        top, returns, changes = naive_walk_statistics(
            [1 if i >> k & 1 else -1 for k in range(n)])
        yield {"max": top, "returns": returns, "halfmax": (top + 1) // 2,
               "signchanges": changes}


@pytest.mark.parametrize("n", range(2, 13))
def test_brute_force_matches_per_path_loop(n):
    paths = list(_naive_statistics(n))
    # the joint law: the marginal law of the sign changes equals that of the
    # zeros where the walk touches without crossing
    kinds = ("max", "returns", "signchanges")
    joint = list(zip(*(_enumerate(kind, n).tolist() for kind in kinds)))
    assert collections.Counter(joint) == collections.Counter(
        (p["max"], p["returns"], p["signchanges"]) for p in paths)
    # path by path, in the documented order
    assert joint == [tuple(p[kind] for kind in kinds) for p in paths]
    for tag in walks.STATISTICS:
        if n % 2 != (tag == "signchanges"):
            continue
        counts = collections.Counter(path[tag] for path in paths)
        expected = tuple(counts[k] for k in range(max(counts) + 1))
        enumerated = walks.brute_force_pmf(tag, n)
        assert (enumerated.lower, enumerated.upper) == (0, len(expected) - 1)
        assert enumerated.numerators == expected
        assert enumerated.denominator == 1 << n


def test_brute_force_cap():
    with pytest.raises(ValueError):
        walks.brute_force_pmf("returns", 64)


@pytest.mark.parametrize("tag", walks.STATISTICS)
def test_brute_force_memory_at_the_cap(tag):
    # one statistic per call, counted in two int64 tables of O(n^2)
    # states: at most about 250 KiB at the cap, where one int8 per path
    # would take 4 EiB
    n = walks.BRUTE_FORCE_MAX_N - (tag == "signchanges")
    tracemalloc.start()
    try:
        walks.brute_force_pmf(tag, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1 << 20


def test_brute_force_reads_no_formula(monkeypatch):
    # the oracle never reaches the formulas it checks
    def formula(*args):
        raise AssertionError("the path count read a formula")

    for name in ("_ratios", "_masses", "_exact_row", "exact_pmf"):
        monkeypatch.setattr(walks, name, formula)
    monkeypatch.setattr(math, "comb", formula)
    for tag in walks.STATISTICS:
        walks.brute_force_pmf(tag, walks.BRUTE_FORCE_MAX_N
                              - (tag == "signchanges"))


def _position_counts(n):
    """counts[k][s + k]: the number of the 2^k paths with S_k = s, for
    k = 0..n, each row the last shifted and added to itself; no binomial
    formula."""
    rows = [[1]]
    for _ in range(n):
        rows.append([a + b for a, b in zip([0, 0] + rows[-1],
                                           rows[-1] + [0, 0])])
    return rows


def test_brute_force_meets_fellers_identities():
    # Feller, Vol. I, ch. III, between the path count and the law of S_n:
    # N_2m =d |S_2m| / 2, C_2m+1 =d (|S_2m+1| - 1) / 2 and
    # P(K_2m = r) = P(S_2m-r = r), a count of 2^(2m - r) paths times 2^r
    rows = _position_counts(walks.BRUTE_FORCE_MAX_N)

    def abs_counts(n, parity):
        # the paths with |S_n| = 2s + parity, s = 0, 1, ...
        row = rows[n]
        return tuple(row[n + v] + (v > 0) * row[n - v]
                     for v in range(parity, n + 1, 2))

    for n in range(2, walks.BRUTE_FORCE_MAX_N + 1, 2):
        assert (walks.brute_force_pmf("halfmax", n).numerators
                == abs_counts(n, 0)), n
        if n + 1 <= walks.BRUTE_FORCE_MAX_N:
            assert (walks.brute_force_pmf("signchanges", n + 1).numerators
                    == abs_counts(n + 1, 1)), n + 1
        returns = walks.brute_force_pmf("returns", n).numerators
        assert returns == tuple(rows[n - r][n] << r
                                for r in range(n // 2 + 1)), n


def test_mean_identities():
    # E[K_2m] = (2m+1) P(K = 0) - 1 and E[N_2m] = m P(N = 0)... written
    # through the central binomial probability; exact on both sides.
    for m in (1, 5, 33):
        b = walks.central_binomial_prob(m)
        assert (walks.mean_exact(walks.exact_pmf("returns", 2 * m))
                == (2 * m + 1) * b - 1)
        assert walks.mean_exact(walks.exact_pmf("halfmax", 2 * m)) == m * b


@given(st.integers(1, 512))
@settings(max_examples=40, deadline=None)
def test_moment_bounds(m):
    assert walks.moment_bounds_check(m).passed


def test_moment_bounds_hold_exactly_up_to_3000():
    # the bounds alone: the full check, which also builds three exact pmfs
    # per m, is sampled by test_moment_bounds
    assert [m for m in range(1, 3001) if not walks._moment_bounds(m)[3]] == []


@pytest.mark.parametrize("tag", ["returns", "halfmax", "signchanges"])
def test_moment_bounds_fail_on_a_broken_mean(monkeypatch, tag):
    # the closed-form means are cross-checked against mean_exact as part
    # of the verdict, not by assert statements that python -O strips
    real = walks.mean_exact
    monkeypatch.setattr(walks, "mean_exact", lambda pmf: real(pmf) + (
        Fraction(1, 1 << 60) if pmf.statistic_tag == tag else 0))
    assert walks.moment_bounds_check(8).passed is False


@given(st.integers(1, 512))
@settings(max_examples=40, deadline=None)
def test_returns_unimodality_bound(m):
    # max mass of K_{2m} is at most sqrt(2 / (pi m))
    cap = Fraction(math.nextafter(math.sqrt(2.0 / (math.pi * m)), math.inf))
    assert max(walks.exact_pmf("returns", 2 * m).masses()) <= cap


def test_signchanges_mode_at_zero():
    for m in (1, 8, 100):
        sign = walks.exact_pmf("signchanges", 2 * m + 1).masses()
        assert sign[0] == max(sign)


def test_halfmax_mode_at_one():
    # the boundary atom q(0) = P(M = 0) is not doubled, so for m >= 2 the
    # mode sits at s = 1 with q(1) = 2m/(m+1) * q(0)
    for m in (2, 8, 100):
        half = walks.exact_pmf("halfmax", 2 * m).masses()
        assert half[1] == max(half)
        assert half[1] == Fraction(2 * m, m + 1) * half[0]


def test_scaled_law():
    law = walks.scaled_law("returns", 4)
    assert law.scale == 0.5
    assert list(law.atoms()) == [0.0, 0.5, 1.0]
    with pytest.raises(ValueError):
        walks.scaled_law("returns", 5)
    with pytest.raises(ValueError):
        walks.scaled_law("signchanges", 4)
    for scale in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="scale must be positive"):
            walks.ScaledLaw(law.base, scale)


def test_exact_pmf_validation():
    with pytest.raises(ValueError):
        walks.ExactPMF(0, 1, (1, 2), 4, "broken")  # does not sum to denom
    with pytest.raises(ValueError):
        walks.ExactPMF(0, 2, (1, 3), 4, "broken")  # wrong support length
    with pytest.raises(ValueError, match="negative mass"):
        walks.ExactPMF(0, 1, (-1, 2), 1, "x")


def test_exact_pmf_equality_ignores_representation():
    a = walks.ExactPMF(0, 1, (1, 1), 2, "x")
    b = walks.ExactPMF(0, 1, (2, 2), 4, "y")
    assert a == b


def test_float_cdf_rounding():
    pmf = walks.exact_pmf("returns", 128)
    cdf = pmf.float_cdf()
    assert cdf[-1] == 1.0
    assert all(b >= a for a, b in zip(cdf, cdf[1:]))


def test_pmf_equality_by_cross_multiplication():
    pmf = walks.exact_pmf("max", 12)
    scaled = walks.ExactPMF(pmf.lower, pmf.upper,
                            tuple(3 * v for v in pmf.numerators),
                            3 * pmf.denominator, pmf.statistic_tag)
    assert scaled == pmf and pmf == scaled
    moved = list(pmf.numerators)
    moved[0] += 1
    moved[1] -= 1
    assert walks.ExactPMF(pmf.lower, pmf.upper, tuple(moved),
                          pmf.denominator, pmf.statistic_tag) != pmf
    shifted = walks.ExactPMF(pmf.lower + 1, pmf.upper + 1, pmf.numerators,
                             pmf.denominator, pmf.statistic_tag)
    assert shifted != pmf
    assert pmf != pmf.masses()


@pytest.mark.parametrize("tag,m", [("returns", 40), ("max", 40),
                                   ("signchanges", 41), ("halfmax", 300)])
def test_pmf_equality_with_shared_odd_factor(tag, m):
    # denominators 15 * 2^k and 21 * 2^j share 3 and a power of two, so
    # __eq__ divides out a gcd that is neither 1 nor either denominator
    pmf = walks.scaled_law(tag, 2 * m + (tag == "signchanges")).base

    def rescaled(factor, shift, nums=pmf.numerators):
        return walks.ExactPMF(pmf.lower, pmf.upper,
                              tuple((factor * v) << shift for v in nums),
                              (factor * pmf.denominator) << shift, tag)

    a, b = rescaled(15, 3), rescaled(21, 0)
    assert math.gcd(a.denominator, b.denominator) == 3 * pmf.denominator
    assert a == b and b == a and a == pmf
    moved = list(pmf.numerators)
    moved[-2] += 1
    moved[-1] -= 1
    c = rescaled(21, 0, moved)
    assert a != c and c != a
    assert (a == c) == (a.masses() == c.masses())


@pytest.mark.parametrize("tag,n,m", [("returns", 2, 1), ("max", 64, 32),
                                     ("halfmax", 10, 5),
                                     ("signchanges", 3, 1),
                                     ("signchanges", 65, 32)])
def test_half_length(tag, n, m):
    assert walks.half_length(tag, n) == m


@pytest.mark.parametrize("tag", walks.STATISTICS)
def test_walk_length_inverts_half_length(tag):
    for m in range(1, 40):
        n = walks.walk_length(tag, m)
        assert n % 2 == (tag == "signchanges")
        assert walks.half_length(tag, n) == m


@pytest.mark.parametrize("tag,m", [("returns", 0), ("signchanges", -1),
                                   ("mean", 3)])
def test_walk_length_rejects(tag, m):
    with pytest.raises(walks.DomainError):
        walks.walk_length(tag, m)


@pytest.mark.parametrize("tag,n", [("returns", 5), ("signchanges", 4),
                                   ("mean", 4)])
def test_half_length_rejects(tag, n):
    with pytest.raises(walks.DomainError):
        walks.half_length(tag, n)


@pytest.mark.parametrize("tag", walks.STATISTICS)
@pytest.mark.parametrize("n", [64, 4096])
def test_numpy_integer_n_builds_the_same_law(tag, n):
    # with n an np.int64, 1 << (2 m) ran in int64 and wrapped from n = 64
    n += tag == "signchanges"
    pmf = walks.exact_pmf(tag, np.int64(n))
    assert pmf == walks.exact_pmf(tag, n)
    assert type(pmf.denominator) is int


def test_numpy_integer_inputs_match_python_ints():
    # each of these raised "masses do not sum to 1" at n = 100 or m = 40
    assert (walks.scaled_law("max", np.int64(100))
            == walks.scaled_law("max", 100))
    assert (characterization.make_spec("returns", np.int64(40))
            == characterization.make_spec("returns", 40))
    assert (metrics.auxiliary_bounds(np.int64(40))
            == metrics.auxiliary_bounds(40))
    assert (simulate.empirical_check("max", np.int64(100), np.int64(10_000),
                                     np.int64(3))
            == simulate.empirical_check("max", 100, 10_000, 3))
    # the float cut computed 100 n in int64, which wrapped at n = 2^62
    with pytest.raises(walks.DomainError, match="atoms, more than"):
        metrics.bound_checks("max", [np.int64(1 << 62)])


@pytest.mark.parametrize("call", [
    lambda: walks.exact_pmf("returns", 4.0),
    lambda: characterization.make_spec("returns", 3.0),
    lambda: simulate.empirical_check("returns", 8, 1e4),
    lambda: simulate.empirical_check("returns", 8, 10_000, seed=1.5),
], ids=["exact_pmf-n", "make_spec-m", "trials", "seed"])
def test_non_integer_inputs_are_domain_errors(call):
    # a float n or m raised TypeError, and seed 1.5 ran as seed 1
    with pytest.raises(walks.DomainError, match="must be an integer"):
        call()


def test_exact_laws_refuse_past_the_byte_limit(monkeypatch):
    # the limit lowered just below the 33 numerators of 64 bits of max at
    # n = 64: every exact entry point refuses n = 64 before any row is
    # built, and n = 62 still builds
    def build(*args):
        raise AssertionError("a row was built")

    monkeypatch.setattr(walks, "_MAX_EXACT_BYTES", 33 * 64 // 8 - 1)
    assert walks.exact_pmf("max", 62).denominator == 1 << 62
    monkeypatch.setattr(walks, "_exact_row", build)
    monkeypatch.setattr(simulate, "_steps", build)
    for call in (lambda: walks.exact_pmf("max", 64),
                 lambda: walks.scaled_law("max", 64),
                 lambda: characterization.make_spec("max", 32),
                 lambda: simulate.empirical_check("max", 64, 10_000),
                 lambda: metrics.auxiliary_bounds(32)):
        with pytest.raises(walks.DomainError,
                           match="needs an exact law of 264 bytes, more "
                                 "than 263$"):
            call()


@pytest.mark.parametrize("tag", walks.STATISTICS)
def test_exact_limit_admits_the_int32_walks(tag):
    # the largest admitted n is past 65 538, so simulate still reaches its
    # int32 walks, and the next n is refused
    last = 92_681 if tag == "signchanges" else 92_680
    assert last >= 65_538
    assert walks._exact_half_length(tag, last) == last // 2
    with pytest.raises(walks.DomainError, match="needs an exact law of"):
        walks._exact_half_length(tag, last + 2)


class _Reached(Exception):
    """Raised by a patched path counter or walk drawer: n was accepted."""


def _accepts(fn, *args) -> bool:
    try:
        fn(*args)
    except _Reached:
        return True
    except walks.DomainError:
        return False
    return True


@pytest.mark.parametrize("tag", walks.STATISTICS)
def test_every_entry_point_shares_one_domain(monkeypatch, tag):
    # the exact pmf, the scaled law, the float laws of the distance checks,
    # the 2^n oracle, the Monte Carlo counts, the theorem bounds and the
    # Monte Carlo check accept the same walk lengths
    def reached(*args):
        raise _Reached

    monkeypatch.setattr(walks, "_count", reached)
    monkeypatch.setattr(simulate, "_steps", reached)
    for n in range(-3, 31):
        verdicts = {_accepts(walks.exact_pmf, tag, n),
                    _accepts(walks.scaled_law, tag, n),
                    _accepts(metrics.bound_checks, tag, [n]),
                    _accepts(walks.brute_force_pmf, tag, n),
                    _accepts(simulate.empirical_pmf_counts, tag, n, 1, 0),
                    _accepts(metrics.theorem_bound, tag, n, "K"),
                    _accepts(simulate.empirical_check, tag, n, 10_000)}
        assert len(verdicts) == 1, (tag, n)
        assert verdicts.pop() == (n >= 2 and n % 2 == (tag == "signchanges"))
