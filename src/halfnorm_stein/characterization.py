"""Discrete Stein characterizations of the walk statistics.

For a pmf p on the integer interval [a, b] and a weight function c that is
nonzero on [a, b], the identity

    E[ c(X-1) Dg(X-1) + (c(X) psi(X) + Dc(X-1)) g(X) ] = 0,
    psi(k) = (p(k+1) - p(k)) / p(k),  Dg(k) = g(k+1) - g(k),

holds for X ~ p and every g with g(a-1) = 0, and only for X ~ p. Everything
here is exact rational arithmetic: a residual of zero is a literal equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .walks import ExactPMF, pmf_halfmax, pmf_returns, pmf_signchanges


def forward_diff(g: Callable[[int], Fraction], k: int) -> Fraction:
    """Dg(k) = g(k+1) - g(k)."""
    return Fraction(g(k + 1)) - Fraction(g(k))


def indicator_sequence(j: int) -> Callable[[int], int]:
    """g(k) = 1 for k >= j, 0 below; the basis used for sufficiency."""
    return lambda k: 1 if k >= j else 0


@dataclass(frozen=True)
class CharacterizationSpec:
    """pmf plus weight c on [a-1, b], with psi and gamma derived from them."""

    pmf: ExactPMF
    c_values: tuple[Fraction, ...]  # indexed a-1 .. b

    def __post_init__(self):
        if len(self.c_values) != self.pmf.upper - self.pmf.lower + 2:
            raise ValueError("c must be defined on [a-1, b]")
        if any(v == 0 for v in self.c_values[1:]):
            raise ValueError("c must be nonzero on the support [a, b]")

    def c(self, k: int) -> Fraction:
        return self.c_values[k - self.pmf.lower + 1]

    def psi(self, k: int) -> Fraction:
        """(p(k+1) - p(k)) / p(k); equals -1 at the right endpoint."""
        mass = self.pmf.mass(k)
        if mass == 0:
            raise ValueError(f"psi undefined off the support at k={k}")
        return (self.pmf.mass(k + 1) - mass) / mass

    def gamma(self, k: int) -> Fraction:
        return self.c(k) * self.psi(k) + self.c(k) - self.c(k - 1)


def make_spec(statistic_tag: str, m: int) -> CharacterizationSpec:
    """The characterization used in the convergence proofs.

    returns:      c(r) = 2m - r, giving gamma(r) = -(r + 1);
    halfmax:      c(s) = m + s + 1, giving gamma(s) = -2s for s >= 1;
    signchanges:  c(s) = m + s + 2.
    gamma is always derived from the actual pmf, so the Stein identity
    holds exactly, including at the boundary atom s = 0.
    """
    if statistic_tag == "returns":
        pmf = pmf_returns(m)
        c = [Fraction(2 * m - r) for r in range(-1, m + 1)]
    elif statistic_tag in ("halfmax", "max"):
        # For max: psi vanishes on the odd atoms of M_n, so the proofs route
        # through the halfmax variable N_n; do the same here.
        pmf = pmf_halfmax(m)
        c = [Fraction(m + s + 1) for s in range(-1, m + 1)]
    elif statistic_tag == "signchanges":
        pmf = pmf_signchanges(m)
        c = [Fraction(m + s + 2) for s in range(-1, m + 1)]
    else:
        raise ValueError(f"unknown statistic {statistic_tag!r}")
    return CharacterizationSpec(pmf, tuple(c))


def stein_residual(spec: CharacterizationSpec,
                   g: Callable[[int], Fraction]) -> Fraction:
    """E[c(X-1) Dg(X-1) + gamma(X) g(X)] under spec.pmf, exact.

    Zero for every g with g(a-1) = 0 when the pmf is the true law.
    """
    a = spec.pmf.lower
    if Fraction(g(a - 1)) != 0:
        raise ValueError("test sequence must vanish at a - 1")
    total = Fraction(0)
    for k in spec.pmf.support():
        term = (spec.c(k - 1) * forward_diff(g, k - 1)
                + spec.gamma(k) * Fraction(g(k)))
        total += spec.pmf.mass(k) * term
    return total


def indicator_residuals(spec: CharacterizationSpec) -> list[Fraction]:
    """stein_residual(spec, 1{k >= j}) for every j in [a, b], computed with
    suffix sums over common-denominator integer numerators (O(b - a) total).
    """
    pmf = spec.pmf
    a, b = pmf.lower, pmf.upper
    nums = list(pmf.numerators)
    # gamma(k) * p(k) = c(k) (p(k+1) - p(k)) + (c(k) - c(k-1)) p(k)
    gamma_nums = []
    for k in range(a, b + 1):
        nxt = nums[k - a + 1] if k < b else 0
        gamma_nums.append(spec.c(k) * (nxt - nums[k - a])
                          + (spec.c(k) - spec.c(k - 1)) * nums[k - a])
    out = []
    suffix = sum(gamma_nums)
    for j in range(a, b + 1):
        # residual for g = 1{k >= j}: c(j-1) p(j) + sum_{k >= j} gamma(k) p(k)
        out.append((spec.c(j - 1) * nums[j - a] + suffix)
                   / pmf.denominator)
        suffix -= gamma_nums[j - a]
    return out


def recover_pmf(lower: int, upper: int,
                c: Callable[[int], Fraction],
                gamma: Callable[[int], Fraction],
                statistic_tag: str = "recovered") -> ExactPMF:
    """Solve the Stein identity over the indicator basis for the unique pmf.

    The basis equations are triangular: differencing the equations for
    1{k >= j} and 1{k >= j+1} gives p(j+1)/p(j) = (c(j-1) + gamma(j))/c(j).
    The leftover top equation must be identically zero; if it is not, the
    data contradict the characterization and a ValueError is raised.
    """
    if upper < lower:
        raise ValueError("empty interval")
    for k in range(lower, upper + 1):
        if Fraction(c(k)) == 0:
            raise ValueError(f"c({k}) = 0 makes the system singular")
    if Fraction(c(upper - 1)) + Fraction(gamma(upper)) != 0:
        raise ValueError("inconsistent system: top equation has no solution "
                         "with mass at the right endpoint")
    masses = [Fraction(1)]
    for k in range(lower, upper):
        ratio = (Fraction(c(k - 1)) + Fraction(gamma(k))) / Fraction(c(k))
        if ratio <= 0:
            raise ValueError(f"nonpositive mass ratio at k={k}")
        masses.append(masses[-1] * ratio)
    total = sum(masses)
    masses = [v / total for v in masses]
    denom = 1
    for v in masses:
        denom = denom * v.denominator // math.gcd(denom, v.denominator)
    nums = tuple(int(v * denom) for v in masses)
    return ExactPMF(lower, upper, nums, denom, statistic_tag)
