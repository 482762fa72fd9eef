import dataclasses
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from halfnorm_stein import characterization as ch
from halfnorm_stein import cli, walks


def _psi(spec, k):
    """(p(k+1) - p(k)) / p(k), read off the pmf (its support starts at 0)."""
    p = spec.pmf.masses()
    return (p[k + 1] - p[k]) / p[k]


def _indicator(j):
    return lambda k: 1 if k >= j else 0


def _direct_residual(spec, g, pmf=None):
    """E[c(X-1) Dg(X-1) + gamma(X) g(X)] under pmf (default spec.pmf),
    summed atom by atom in Fractions: the oracle for indicator_residuals."""
    pmf = spec.pmf if pmf is None else pmf
    return sum(p * (spec.c(k - 1) * (g(k) - g(k - 1)) + spec.gamma(k) * g(k))
               for k, p in zip(pmf.support(), pmf.masses()))


def test_returns_spec_shape():
    spec = ch.make_spec("returns", 3)
    # psi(r) = -r / (2m - r) and gamma(r) = -(r + 1)
    for r in range(0, 3):
        assert _psi(spec, r) == Fraction(-r, 6 - r)
    for r in range(0, 4):
        assert spec.gamma(r) == -(r + 1)


def test_halfmax_spec_shape():
    m = 5
    spec = ch.make_spec("halfmax", m)
    # away from the boundary atom: psi(s) = -(2s+1)/(m+s+1), gamma(s) = -2s
    for s in range(1, m):
        assert _psi(spec, s) == Fraction(-(2 * s + 1), m + s + 1)
        assert spec.gamma(s) == -2 * s


@pytest.mark.parametrize("tag,m", [("bogus", 3), ("returns", 0)])
def test_make_spec_domain_errors(tag, m):
    # the same DomainError (a ValueError) as every other entry point
    with pytest.raises(walks.DomainError):
        ch.make_spec(tag, m)


def test_c_nonzero_enforced():
    pmf = walks.exact_pmf("returns", 4)
    with pytest.raises(ValueError, match="nonzero"):
        ch.CharacterizationSpec(pmf, (1, 0, 1, 1), (-1, -2, -3))
    with pytest.raises(ValueError, match="gamma"):
        ch.CharacterizationSpec(pmf, (1, 1, 1, 1), (-1, -2))
    with pytest.raises(ValueError, match="c must be defined"):
        ch.CharacterizationSpec(pmf, (1, 1, 1), (-1, -2, -3))


def _derived_gamma_holds(spec):
    """gamma(k) N_k == c(k)(N_{k+1} - N_k) + (c(k) - c(k-1)) N_k at every
    atom: gamma = c psi + Dc read off the pmf, in integers."""
    nums = spec.pmf.numerators + (0,)
    return all(
        spec.gamma(k) * nums[i]
        == spec.c(k) * (nums[i + 1] - nums[i])
        + (spec.c(k) - spec.c(k - 1)) * nums[i]
        for i, k in enumerate(spec.pmf.support()))


@pytest.mark.parametrize("tag", ["returns", "halfmax", "signchanges"])
def test_closed_forms_equal_derived_gamma(tag):
    for m in [*range(1, 201), *range(256, 4097, 160)]:
        assert _derived_gamma_holds(ch.make_spec(tag, m)), m


def test_moved_mass_fails_every_check(monkeypatch, capsys):
    # 7 units of numerator moved from atom 9 to atom 5 keep the total; a
    # gamma derived from the pmf would make every residual 0 regardless
    spec = ch.make_spec("returns", 40)
    nums = list(spec.pmf.numerators)
    nums[9] -= 7
    nums[5] += 7
    bad = dataclasses.replace(spec.pmf, numerators=tuple(nums))
    residuals = ch.indicator_residuals(dataclasses.replace(spec, pmf=bad))
    # j <= 5 sees 7 (gamma(5) - gamma(9)) = 28 units, j in 6..9 more
    assert residuals[0] == Fraction(28, bad.denominator)
    assert [j for j, r in enumerate(residuals) if r != 0] == list(range(10))
    recovered = ch.recover_pmf(0, 40, spec.c, spec.gamma, "returns")
    assert recovered != bad
    assert recovered == spec.pmf

    monkeypatch.setattr(ch, "exact_pmf", lambda tag, n: bad)
    argv = ["stein-verify", "--stat", "returns", "--m", "40"]
    assert cli.main(argv + ["--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["first_nonzero_residual"] == 0
    assert not payload["residuals_all_zero"]
    assert not payload["pmf_recovered_exactly"]
    assert cli.main(argv) == 1
    assert capsys.readouterr().out.strip() == (
        "residual NONZERO (first at j = 0) for 41 basis functions; "
        "pmf recovered NOT exactly")


@pytest.mark.parametrize("tag", ["returns", "halfmax", "signchanges", "max"])
def test_residual_zero_for_basis(tag):
    spec = ch.make_spec(tag, 12)
    assert all(r == 0 for r in ch.indicator_residuals(spec))
    for j in spec.pmf.support():
        assert _direct_residual(spec, _indicator(j)) == 0


@pytest.mark.parametrize("tag", ["returns", "halfmax", "signchanges"])
def test_fast_residuals_match_direct(tag):
    spec = ch.make_spec(tag, 9)
    fast = ch.indicator_residuals(spec)
    direct = [_direct_residual(spec, _indicator(j))
              for j in spec.pmf.support()]
    assert fast == direct


def test_mean_identity_from_constant_sequence():
    # g = 1{k >= 0} turns the identity into the expectation identity
    # E[c(X-1)] Delta-term at -1 plus sum gamma(k) p(k) = 0.
    m = 7
    spec = ch.make_spec("returns", m)
    assert ch.indicator_residuals(spec)[0] == 0
    # unpack: c(-1) - E[X + 1] = 0, i.e. E[K] = 2m + 1 ... * P(K=0) - 1
    assert spec.c(-1) == 2 * m + 1
    mean = walks.mean_exact(spec.pmf)
    assert (2 * m + 1) * walks.central_binomial_prob(m) - 1 == mean


def test_perturbed_pmf_detected():
    # the operator of the true law, taken in expectation under a slightly
    # perturbed law, must produce a nonzero residual for some basis element
    spec = ch.make_spec("returns", 3)
    pmf = spec.pmf
    shift = 1  # one lattice unit of mass moved from atom 0 to atom 1
    nums = list(pmf.numerators)
    nums[0] -= shift
    nums[1] += shift
    bad = walks.ExactPMF(pmf.lower, pmf.upper, tuple(nums), pmf.denominator,
                         "perturbed")
    fast = ch.indicator_residuals(dataclasses.replace(spec, pmf=bad))
    direct = [_direct_residual(spec, _indicator(j), bad)
              for j in pmf.support()]
    assert fast == direct
    assert any(r != 0 for r in fast)
    # the residual is linear in g, and g with g(-1) = 0 is
    # sum_j Dg(j-1) 1{k >= j}: the basis decides every such g
    def g(k):
        return (k + 1) ** 3

    assert _direct_residual(spec, g, bad) == sum(
        (g(j) - g(j - 1)) * r for j, r in zip(pmf.support(), fast))


@given(st.sampled_from(["returns", "halfmax", "signchanges"]),
       st.integers(1, 64))
@settings(max_examples=30, deadline=None)
def test_recover_pmf_roundtrip(tag, m):
    spec = ch.make_spec(tag, m)
    recovered = ch.recover_pmf(spec.pmf.lower, spec.pmf.upper, spec.c,
                               spec.gamma, tag)
    assert recovered == spec.pmf
    assert math.gcd(*recovered.numerators) == 1    # lowest terms


def test_recover_small_cases():
    spec = ch.make_spec("returns", 2)
    rec = ch.recover_pmf(0, 2, spec.c, spec.gamma)
    assert rec.masses() == [Fraction(3, 8), Fraction(3, 8), Fraction(1, 4)]

    spec = ch.make_spec("halfmax", 1)
    rec = ch.recover_pmf(0, 1, spec.c, spec.gamma)
    assert rec.masses() == [Fraction(1, 2), Fraction(1, 2)]

    spec = ch.make_spec("signchanges", 1)
    rec = ch.recover_pmf(0, 1, spec.c, spec.gamma)
    assert rec.masses() == [Fraction(3, 4), Fraction(1, 4)]


def test_recover_rejects_inconsistent_data():
    spec = ch.make_spec("returns", 3)
    with pytest.raises(ValueError):
        # gamma shifted by 1 breaks the top equation
        ch.recover_pmf(0, 3, spec.c, lambda k: spec.gamma(k) + 1)
    with pytest.raises(ValueError):
        ch.recover_pmf(0, 3, lambda k: Fraction(0), spec.gamma)
    with pytest.raises(ValueError):
        ch.recover_pmf(3, 0, spec.c, spec.gamma)
    with pytest.raises(ValueError, match="integer-valued"):
        ch.recover_pmf(0, 3, lambda k: Fraction(spec.c(k), 2), spec.gamma)
    with pytest.raises(ValueError, match="nonpositive mass ratio 0/1 at k=0"):
        ch.recover_pmf(0, 1, lambda k: 1, lambda k: -1)
