"""Discrete Stein characterizations of the walk statistics.

For a pmf p on the integer interval [a, b], a weight c on [a-1, b] that is
nonzero on [a, b] and a function gamma on [a, b], the identity

    E[ c(X-1) Dg(X-1) + gamma(X) g(X) ] = 0,  Dg(k) = g(k+1) - g(k),

for every g with g(a-1) = 0 determines p: over the indicator basis it
fixes p(k+1)/p(k) = (c(k-1) + gamma(k)) / c(k) (see recover_pmf). The
operators of the convergence proofs are integers in closed form
(make_spec), not read off the pmf, so a zero residual is evidence that the
pmf is the law the operator characterizes. Everything here is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .walks import DomainError, ExactPMF, exact_pmf, walk_length


@dataclass(frozen=True)
class CharacterizationSpec:
    """A pmf with the integer operator claimed to characterize it."""

    pmf: ExactPMF
    c_values: tuple[int, ...]      # indexed a-1 .. b
    gamma_values: tuple[int, ...]  # indexed a .. b

    def __post_init__(self):
        size = self.pmf.upper - self.pmf.lower + 1
        if len(self.c_values) != size + 1:
            raise DomainError("c must be defined on [a-1, b]")
        if len(self.gamma_values) != size:
            raise DomainError("gamma must be defined on [a, b]")
        if 0 in self.c_values[1:]:
            raise DomainError("c must be nonzero on the support [a, b]")

    def c(self, k: int) -> int:
        return self.c_values[k - self.pmf.lower + 1]

    def gamma(self, k: int) -> int:
        return self.gamma_values[k - self.pmf.lower]


def make_spec(statistic_tag: str, m: int) -> CharacterizationSpec:
    """The characterization used in the convergence proofs, on [0, m]:

    returns:      c(r) = 2m - r,     gamma(r) = -(r + 1);
    halfmax:      c(s) = m + s + 1,  gamma(0) = m, gamma(s) = -2s for s >= 1;
    signchanges:  c(s) = m + s + 2,  gamma(s) = -(2s + 1).

    An unknown statistic or m < 1 raises DomainError, from walk_length.
    For max: psi vanishes on the odd atoms of M_n, so the proofs route
    through the halfmax variable N_n; so does the spec.
    """
    tag = "halfmax" if statistic_tag == "max" else statistic_tag
    pmf = exact_pmf(tag, walk_length(tag, m))
    support = range(m + 1)
    if tag == "returns":
        c = [2 * m - r for r in range(-1, m + 1)]
        gamma = [-(r + 1) for r in support]
    elif tag == "halfmax":
        c = [m + s + 1 for s in range(-1, m + 1)]
        gamma = [m] + [-2 * s for s in support[1:]]
    else:
        c = [m + s + 2 for s in range(-1, m + 1)]
        gamma = [-(2 * s + 1) for s in support]
    return CharacterizationSpec(pmf, tuple(c), tuple(gamma))


def indicator_residuals(spec: CharacterizationSpec) -> list[Fraction]:
    """E[c(X-1) Dg(X-1) + gamma(X) g(X)] under spec.pmf for g = 1{k >= j},
    for every j in [a, b], exact.

    The residual is linear in g, and these indicators span every g on
    [a-1, b] with g(a-1) = 0, so all of them zero is the identity for
    every such g. For 1{k >= j} it is c(j-1) N_j + sum_{k >= j} gamma(k) N_k
    over the pmf's denominator, N the numerators: one suffix sum of
    integers serves every j.
    """
    pmf = spec.pmf
    weighted = [g * v for g, v in zip(spec.gamma_values, pmf.numerators)]
    suffix = sum(weighted)
    out = []
    for c, v, w in zip(spec.c_values, pmf.numerators, weighted):
        out.append(c * v + suffix)
        suffix -= w
    return [Fraction(r, pmf.denominator) for r in out]


def recover_pmf(lower: int, upper: int,
                c: Callable[[int], int],
                gamma: Callable[[int], int],
                statistic_tag: str = "recovered") -> ExactPMF:
    """Solve the Stein identity over the indicator basis for the unique pmf.

    The basis equations are triangular: differencing the equations for
    1{k >= j} and 1{k >= j+1} gives p(j+1)/p(j) = u/v with
    u = c(j-1) + gamma(j) and v = c(j). The leftover top equation must be
    identically zero; if it is not, the data contradict the characterization
    and a DomainError is raised. c and gamma must be integer-valued.

    Numerators follow N(j+1) = N(j) u / v from the smallest N(a) that keeps
    every N an integer, so the result is in lowest terms.
    """
    if upper < lower:
        raise DomainError("empty interval")
    cs = [c(k) for k in range(lower - 1, upper + 1)]
    gammas = [gamma(k) for k in range(lower, upper + 1)]
    if any(int(v) != v for v in cs + gammas):
        raise DomainError("c and gamma must be integer-valued")
    if cs[-2] + gammas[-1] != 0:
        raise DomainError("inconsistent system: top equation has no "
                          "solution with mass at the right endpoint")
    ratios = []
    for i in range(upper - lower):
        u, v = cs[i] + gammas[i], cs[i + 1]
        if u * v <= 0:
            raise DomainError(
                f"nonpositive mass ratio {u}/{v} at k={lower + i}")
        ratios.append((abs(int(u)), abs(int(v))))
    # First pass: run the chain from 1, and wherever N u / v is not an
    # integer scale the start (and N) by the least d that makes it one,
    # d = v / gcd(N u, v). The product of these d is the smallest start.
    start = n = 1
    for u, v in ratios:
        n *= u
        d = v // math.gcd(n % v, v)
        start *= d
        n = n * d // v
    nums = [start]
    for u, v in ratios:
        nums.append(nums[-1] * u // v)
    return ExactPMF(lower, upper, tuple(nums), sum(nums), statistic_tag)
