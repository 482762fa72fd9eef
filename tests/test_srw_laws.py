import collections
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from halfnorm_stein import metrics, simulate, walks


def masses_dict(pmf):
    return dict(zip(pmf.support(), pmf.masses()))


def test_position_prob():
    assert walks.position_prob(2, 0) == Fraction(1, 2)
    assert walks.position_prob(2, 1) == 0
    assert walks.position_prob(4, 4) == Fraction(1, 16)
    assert walks.position_prob(4, 6) == 0


def test_returns_small_cases():
    assert masses_dict(walks.pmf_returns(1)) == {0: Fraction(1, 2),
                                                 1: Fraction(1, 2)}
    assert masses_dict(walks.pmf_returns(2)) == {0: Fraction(3, 8),
                                                 1: Fraction(3, 8),
                                                 2: Fraction(1, 4)}


def test_returns_matches_binomial_formula():
    # P(K_{2m} = r) = binom(2m - r, m) / 2^(2m - r)
    for m in (3, 7, 20):
        pmf = walks.pmf_returns(m)
        for r in pmf.support():
            expected = Fraction(math.comb(2 * m - r, m), 1 << (2 * m - r))
            assert pmf.mass(r) == expected


def test_max_small_cases():
    assert masses_dict(walks.pmf_max(2)) == {0: Fraction(1, 2),
                                             1: Fraction(1, 4),
                                             2: Fraction(1, 4)}


def test_max_pairs_position_probs():
    for n in (4, 10):
        pmf = walks.pmf_max(n)
        for r in pmf.support():
            expected = walks.position_prob(n, r) + walks.position_prob(n, r + 1)
            assert pmf.mass(r) == expected


def test_halfmax_small_cases():
    assert masses_dict(walks.pmf_halfmax(1)) == {0: Fraction(1, 2),
                                                 1: Fraction(1, 2)}


def test_halfmax_aggregates_max():
    # N = floor((M+1)/2), so q(s) = P(M = 2s-1) + P(M = 2s) for s >= 1
    # and q(0) = P(M = 0).
    for m in (1, 4, 9):
        max_pmf = walks.pmf_max(2 * m)
        half = walks.pmf_halfmax(m)
        assert half.mass(0) == max_pmf.mass(0)
        for s in range(1, m + 1):
            assert half.mass(s) == max_pmf.mass(2 * s - 1) + max_pmf.mass(2 * s)


def test_signchanges_small_cases():
    assert masses_dict(walks.pmf_signchanges(1)) == {0: Fraction(3, 4),
                                                     1: Fraction(1, 4)}
    assert masses_dict(walks.pmf_signchanges(2)) == {0: Fraction(5, 8),
                                                     1: Fraction(5, 16),
                                                     2: Fraction(1, 16)}


@pytest.mark.parametrize("builder", [walks.pmf_returns, walks.pmf_max,
                                     walks.pmf_halfmax, walks.pmf_signchanges])
def test_domain_errors(builder):
    with pytest.raises(ValueError):
        builder(0)


def test_max_rejects_odd():
    with pytest.raises(ValueError):
        walks.pmf_max(5)


@given(st.integers(1, 200))
@settings(max_examples=30, deadline=None)
def test_normalization_and_positivity(m):
    for pmf in (walks.pmf_returns(m), walks.pmf_halfmax(m),
                walks.pmf_signchanges(m)):
        assert sum(pmf.numerators) == pmf.denominator
        assert all(v > 0 for v in pmf.numerators)


def test_brute_force_oracle_equality():
    for n in range(2, 15, 2):
        assert walks.pmf_returns(n // 2) == walks.brute_force_pmf("returns", n)
        assert walks.pmf_max(n) == walks.brute_force_pmf("max", n)
        assert walks.pmf_halfmax(n // 2) == walks.brute_force_pmf("halfmax", n)
    for n in range(3, 16, 2):
        assert walks.pmf_signchanges((n - 1) // 2) == \
            walks.brute_force_pmf("signchanges", n)


def _naive_statistics(n):
    """(max, returns, sign changes) of each of the 2^n paths, one path at a
    time; a sign change at time k is S_{k-1} S_{k+1} < 0."""
    for steps in itertools.product((-1, 1), repeat=n):
        walk = list(itertools.accumulate(steps, initial=0))
        yield {"max": max(walk),
               "returns": walk[1:].count(0),
               "halfmax": (max(walk) + 1) // 2,
               "signchanges": sum(walk[k - 1] * walk[k + 1] < 0
                                  for k in range(1, n))}


@pytest.mark.parametrize("n", range(2, 13))
def test_brute_force_matches_per_path_loop(n):
    paths = list(_naive_statistics(n))
    # the joint law: the marginal law of the sign changes equals that of the
    # zeros where the walk touches without crossing
    joint = collections.Counter(
        zip(*(a.tolist() for a in walks._enumerate_statistics(n))))
    assert joint == collections.Counter(
        (p["max"], p["returns"], p["signchanges"]) for p in paths)
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
        walks.brute_force_pmf("returns", 24)


def test_mean_identities():
    # E[K_2m] = (2m+1) P(K = 0) - 1 and E[N_2m] = m P(N = 0)... written
    # through the central binomial probability; exact on both sides.
    for m in (1, 5, 33):
        b = walks.central_binomial_prob(m)
        assert walks.mean_exact(walks.pmf_returns(m)) == (2 * m + 1) * b - 1
        assert walks.mean_exact(walks.pmf_halfmax(m)) == m * b


@given(st.integers(1, 512))
@settings(max_examples=40, deadline=None)
def test_moment_bounds(m):
    assert walks.moment_bounds_check(m).passed


@given(st.integers(1, 512))
@settings(max_examples=40, deadline=None)
def test_returns_unimodality_bound(m):
    # max mass of K_{2m} is at most sqrt(2 / (pi m))
    cap = Fraction(math.nextafter(math.sqrt(2.0 / (math.pi * m)), math.inf))
    assert max(walks.pmf_returns(m).masses()) <= cap


def test_signchanges_mode_at_zero():
    for m in (1, 8, 100):
        sign = walks.pmf_signchanges(m)
        assert sign.mass(0) == max(sign.masses())


def test_halfmax_mode_at_one():
    # the boundary atom q(0) = P(M = 0) is not doubled, so for m >= 2 the
    # mode sits at s = 1 with q(1) = 2m/(m+1) * q(0)
    for m in (2, 8, 100):
        half = walks.pmf_halfmax(m)
        assert half.mass(1) == max(half.masses())
        assert half.mass(1) == Fraction(2 * m, m + 1) * half.mass(0)


def test_scaled_law():
    law = walks.scaled_law("returns", 4)
    assert law.scale == 0.5
    assert list(law.atoms()) == [0.0, 0.5, 1.0]
    with pytest.raises(ValueError):
        walks.scaled_law("returns", 5)
    with pytest.raises(ValueError):
        walks.scaled_law("signchanges", 4)


def test_exact_pmf_validation():
    with pytest.raises(ValueError):
        walks.ExactPMF(0, 1, (1, 2), 4, "broken")  # does not sum to denom
    with pytest.raises(ValueError):
        walks.ExactPMF(0, 2, (1, 3), 4, "broken")  # wrong support length


def test_exact_pmf_equality_ignores_representation():
    a = walks.ExactPMF(0, 1, (1, 1), 2, "x")
    b = walks.ExactPMF(0, 1, (2, 2), 4, "y")
    assert a == b


def test_float_cdf_rounding():
    pmf = walks.pmf_returns(64)
    cdf = pmf.float_cdf()
    assert cdf[-1] == 1.0
    assert all(b >= a for a, b in zip(cdf, cdf[1:]))


def test_pmf_equality_by_cross_multiplication():
    pmf = walks.pmf_max(12)
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


class _Reached(Exception):
    """Raised by a patched enumeration or walk drawer: n was accepted."""


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
    # the exact law, the float law, the 2^n oracle, the Monte Carlo counts,
    # the theorem bounds and the Monte Carlo check accept the same walk
    # lengths; the last two state nothing for halfmax
    def reached(*args):
        raise _Reached

    monkeypatch.setattr(walks, "_enumerate_statistics", reached)
    monkeypatch.setattr(walks, "BRUTE_FORCE_MAX_N", 30)
    monkeypatch.setattr(simulate, "_steps", reached)
    for n in range(-3, 31):
        verdicts = {_accepts(walks.scaled_law, tag, n),
                    _accepts(walks.float_law, tag, n),
                    _accepts(walks.brute_force_pmf, tag, n),
                    _accepts(simulate.empirical_pmf_counts, tag, n, 1, 0)}
        if tag != "halfmax":
            verdicts |= {_accepts(metrics.theorem_bound, tag, n, "K"),
                         _accepts(simulate.empirical_check, tag, n, 10_000)}
        assert len(verdicts) == 1, (tag, n)
        assert verdicts.pop() == (n >= 2 and n % 2 == (tag == "signchanges"))
