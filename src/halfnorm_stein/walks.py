"""Exact distributions of simple-random-walk statistics.

Each statistic is described once: ``_LAWS`` gives the parity of its walk
lengths n = 2m + parity (``half_length`` is the one admissibility rule,
``walk_length`` its inverse) and its scale, ``_ratios`` the ratio recurrence
of its row of m + 1 entries and ``_masses`` the map of that row onto the
support. The exact pmfs run the recurrence in big integers (O(m)
operations, denominator 2^(2m)); ``float_law`` runs it in floats and
normalises, with the exact pmfs rounded once as its oracle. The oracle of
the exact pmfs is an enumeration of all 2^n paths (n <= 22) by prefix
doubling: int8 state per prefix, O(2^n) work in all, no formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# statistic -> (parity of n = 2m + parity, c of the law c X_n / sqrt(n))
_LAWS = {"returns": (0, 1.0), "max": (0, 1.0), "halfmax": (0, 2.0),
         "signchanges": (1, 2.0)}

STATISTICS = tuple(_LAWS)

BRUTE_FORCE_MAX_N = 22


class DomainError(ValueError):
    """An input outside the laws this package states: a statistic, a walk
    length, a trial count, or a point off the half-normal's support."""


@dataclass(frozen=True, eq=False)
class ExactPMF:
    """Probability mass function on a finite integer interval, exact."""

    lower: int
    upper: int
    numerators: tuple[int, ...]  # masses are numerators[k - lower] / denominator
    denominator: int
    statistic_tag: str

    def __post_init__(self):
        if len(self.numerators) != self.upper - self.lower + 1:
            raise ValueError("support length does not match mass vector")
        if any(v < 0 for v in self.numerators):
            raise ValueError("negative mass")
        if sum(self.numerators) != self.denominator:
            raise ValueError("masses do not sum to 1")

    def support(self) -> range:
        return range(self.lower, self.upper + 1)

    def mass(self, k: int) -> Fraction:
        if k < self.lower or k > self.upper:
            return Fraction(0)
        return Fraction(self.numerators[k - self.lower], self.denominator)

    def masses(self) -> list[Fraction]:
        return [Fraction(v, self.denominator) for v in self.numerators]

    def cumulative_numerators(self) -> list[int]:
        out = []
        acc = 0
        for v in self.numerators:
            acc += v
            out.append(acc)
        return out

    def float_masses(self) -> np.ndarray:
        return np.array([v / self.denominator for v in self.numerators])

    def float_cdf(self) -> np.ndarray:
        """CDF at support points, accumulated exactly and rounded once."""
        return np.array([v / self.denominator
                         for v in self.cumulative_numerators()])

    def __eq__(self, other):
        if not isinstance(other, ExactPMF):
            return NotImplemented
        # a / d == b / e  iff  a * e == b * d, without reducing fractions
        return (self.lower == other.lower and self.upper == other.upper
                and len(self.numerators) == len(other.numerators)
                and all(a * other.denominator == b * self.denominator
                        for a, b in zip(self.numerators, other.numerators)))


@dataclass(frozen=True)
class ScaledLaw:
    """ExactPMF pushed onto the lattice scale * {lower, ..., upper}."""

    base: ExactPMF
    scale: float

    def __post_init__(self):
        if self.scale <= 0:
            raise ValueError("scale must be positive")

    def atoms(self) -> np.ndarray:
        return self.scale * np.arange(self.base.lower, self.base.upper + 1,
                                      dtype=float)

    def cdf(self) -> np.ndarray:
        """CDF at the atoms, each value the exact CDF rounded once."""
        return self.base.float_cdf()

    def mean(self) -> float:
        return self.scale * float(mean_exact(self.base))


class FloatLaw:
    """A law on the lattice scale * {0, ..., len(cdf) - 1}, held as floats."""

    __slots__ = ("scale", "_cdf")

    def __init__(self, scale: float, cdf: np.ndarray):
        self.scale = scale
        self._cdf = cdf

    def atoms(self) -> np.ndarray:
        return self.scale * np.arange(len(self._cdf), dtype=float)

    def cdf(self) -> np.ndarray:
        return self._cdf


def _parity(statistic_tag: str) -> int:
    if statistic_tag not in _LAWS:
        raise DomainError(f"unknown statistic {statistic_tag!r}")
    return _LAWS[statistic_tag][0]


def half_length(statistic_tag: str, n: int) -> int:
    """m for the walk lengths n = 2m + parity, m >= 1, where the statistic's
    limit theorem holds; any other n raises DomainError."""
    parity = _parity(statistic_tag)
    if n < 2 + parity or n % 2 != parity:
        kind = "odd n = 2m + 1 >= 3" if parity else "even n = 2m >= 2"
        raise DomainError(f"{statistic_tag} requires {kind}, got n = {n}")
    return n // 2


def walk_length(statistic_tag: str, m: int) -> int:
    """n = 2m + parity, the walk length whose half_length is m >= 1; any
    other m raises DomainError."""
    parity = _parity(statistic_tag)
    if m < 1:
        raise DomainError(f"m >= 1 required, got m = {m}")
    return 2 * m + parity


def support_size(statistic_tag: str, n: int) -> int:
    """Number of atoms 0..upper of the statistic's law at walk length n;
    an inadmissible n raises DomainError."""
    m = half_length(statistic_tag, n)
    return len(_masses(statistic_tag, np.zeros(m + 1)))


def path_statistic(statistic_tag: str, max_value: np.ndarray,
                   returns: np.ndarray, sign_changes: np.ndarray) -> np.ndarray:
    """The statistic on each path from its maximum M, returns and sign
    changes; halfmax N = ceil(M / 2) is M - M // 2, which cannot wrap."""
    if statistic_tag == "halfmax":
        return max_value - max_value // 2
    return {"max": max_value, "returns": returns,
            "signchanges": sign_changes}[statistic_tag]


def scaled_law(statistic_tag: str, n: int) -> ScaledLaw:
    """The normalised law converging to the half-normal distribution.

    returns: K_n / sqrt(n), max: M_n / sqrt(n) (n = 2m even);
    signchanges: 2 C_n / sqrt(n) (n = 2m + 1 odd);
    halfmax: 2 N_n / sqrt(n) (the auxiliary variable V, n = 2m even).
    """
    m = half_length(statistic_tag, n)
    return ScaledLaw(_exact_pmf(statistic_tag, m),
                     _LAWS[statistic_tag][1] / math.sqrt(n))


def float_law(statistic_tag: str, n: int) -> FloatLaw:
    """The law of ``scaled_law(statistic_tag, n)`` with float atoms and CDF.

    The pmf is built up to a constant factor by a float cumprod over the
    ratio recurrences of the exact pmfs, then its cumulative sum is divided
    by its last element, so the CDF ends at exactly 1.0 and never
    decreases. The atoms are those of ``scaled_law``; the CDF agrees with
    ``ScaledLaw.cdf()`` to about 1e-14 up to n = 4096.
    """
    m = half_length(statistic_tag, n)
    cdf = np.cumsum(_masses(statistic_tag, _float_row(statistic_tag, m)))
    cdf /= cdf[-1]
    return FloatLaw(_LAWS[statistic_tag][1] / math.sqrt(n), cdf)


def _ratios(statistic_tag: str, m: int) -> tuple[range, range]:
    """(numerators, denominators): row entry k + 1 is entry k times their
    k-th quotient. returns: binom(2m - r, m) 2^r, quotients 2(m - r)/(2m - r);
    the others: binom(n, c + j), c = n - m, quotients (m - j)/(c + j + 1).
    """
    if statistic_tag == "returns":
        return range(2 * m, 0, -2), range(2 * m, m, -1)
    c = m + _LAWS[statistic_tag][0]
    return range(m, 0, -1), range(c + 1, c + m + 1)


def _masses(statistic_tag: str, row: np.ndarray) -> np.ndarray:
    """The row mapped onto the support 0..upper; a float row or an object
    row of exact ints alike."""
    if statistic_tag == "max":
        # P(M_n = r) = p_{n,r} + p_{n,r+1}: exactly one of r, r + 1 is even,
        # so binom(n, m + j) is the mass at r = 2j - 1 and at r = 2j
        return np.repeat(row, 2)[1:]
    if statistic_tag == "halfmax":
        # the boundary atom q(0) = P(M_n = 0) is not doubled
        return np.concatenate((row[:1], 2 * row[1:]))
    return row


def _exact_row(statistic_tag: str, m: int) -> np.ndarray:
    """The row from binom(2m + parity, m), an object array of exact ints."""
    row = [math.comb(2 * m + _LAWS[statistic_tag][0], m)]
    for num, den in zip(*_ratios(statistic_tag, m)):
        row.append(row[-1] * num // den)
    return np.array(row, dtype=object)


def _float_row(statistic_tag: str, m: int) -> np.ndarray:
    """The row divided by its first entry, by a float cumprod."""
    num, den = (np.arange(r.start, r.stop, r.step, dtype=float)
                for r in _ratios(statistic_tag, m))
    row = np.ones(len(num) + 1)
    np.cumprod(num / den, out=row[1:])
    return row


def _exact_pmf(statistic_tag: str, m: int) -> ExactPMF:
    """The exact law at half-length m; every denominator is 2^(2m)."""
    if m < 1:
        raise DomainError(f"m >= 1 required, got m = {m}")
    nums = _masses(statistic_tag, _exact_row(statistic_tag, m)).tolist()
    return ExactPMF(0, len(nums) - 1, tuple(nums), 1 << (2 * m),
                    statistic_tag)


def position_prob(n: int, k: int) -> Fraction:
    """P(S_n = k) = binom(n, (n+k)/2) / 2^n, zero off the parity lattice."""
    if (n + k) % 2 or k < -n or k > n:
        return Fraction(0)
    return Fraction(math.comb(n, (n + k) // 2), 1 << n)


def pmf_returns(m: int) -> ExactPMF:
    """Law of K_{2m}, the number of returns to the origin by time n = 2m.

    P(K_n = r) = binom(2m - r, m) / 2^(2m - r) on r = 0..m.
    """
    return _exact_pmf("returns", m)


def pmf_max(n: int) -> ExactPMF:
    """Law of M_n = max of the walk by even time n: P(M_n=r) = p_{n,r} + p_{n,r+1}."""
    return _exact_pmf("max", half_length("max", n))


def pmf_halfmax(m: int) -> ExactPMF:
    """Law of N_n = floor((M_n + 1)/2) for n = 2m.

    q(s) = 2 binom(2m, m+s) / 2^(2m) for s >= 1; the boundary atom is
    q(0) = P(M_n = 0) = binom(2m, m) / 2^(2m), without the factor 2.
    """
    return _exact_pmf("halfmax", m)


def pmf_signchanges(m: int) -> ExactPMF:
    """Law of C_{2m+1}, the sign changes by odd time n = 2m + 1.

    P(C_n = s) = 2 binom(2m+1, m+s+1) / 2^(2m+1) on s = 0..m.
    """
    return _exact_pmf("signchanges", m)


def mean_exact(pmf: ExactPMF) -> Fraction:
    total = sum(k * v for k, v in zip(pmf.support(), pmf.numerators))
    return Fraction(total, pmf.denominator)


def central_binomial_prob(m: int) -> Fraction:
    """binom(2m, m) / 2^(2m) = P(S_{2m} = 0)."""
    return Fraction(math.comb(2 * m, m), 1 << (2 * m))


@dataclass(frozen=True)
class MomentBoundReport:
    m: int
    mean_returns: Fraction
    mean_halfmax: Fraction
    mean_signchanges: Fraction
    passed: bool


def moment_bounds_check(m: int) -> MomentBoundReport:
    """Exact verification of the three expectation inequalities.

    E[K_2m] <= sqrt(2/pi) sqrt(2m), E[V] = 2 E[N_n]/sqrt(n) <= sqrt(2/pi),
    E[C_{2m+1}] <= sqrt(m/pi) + 1/(2 sqrt(pi m)).
    The float bounds are nudged outward before the rational comparison.
    """
    n = 2 * m
    b = central_binomial_prob(m)
    ek = (2 * m + 1) * b - 1
    en = m * b
    ec = ((m + 1) * Fraction(math.comb(2 * m + 1, m + 1), 1 << (2 * m)) - 1) / 2

    assert ek == mean_exact(pmf_returns(m))
    assert en == mean_exact(pmf_halfmax(m))
    assert ec == mean_exact(pmf_signchanges(m))

    def outward(x: float) -> Fraction:
        return Fraction(math.nextafter(x, math.inf))

    ok = (ek <= outward(math.sqrt(2.0 / math.pi) * math.sqrt(n))
          and 2 * en / Fraction(math.sqrt(n)) <= outward(math.sqrt(2.0 / math.pi))
          and ec <= outward(math.sqrt(m / math.pi)
                            + 0.5 / math.sqrt(math.pi * m)))
    return MomentBoundReport(m, ek, en, ec, ok)


def _enumerate_statistics(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(max, returns, sign changes) of all 2^n paths, by prefix doubling.

    Every length-k prefix holds int8 state (S_k, S_{k-1}, running max,
    returns, sign changes); extending all prefixes by a step of -1 and of
    +1 doubles the arrays, so the 2^n paths cost about 2 * 2^n updates.
    """
    steps = np.array([-1, 1], dtype=np.int8)
    s = prev = max_val = returns = changes = np.zeros(1, dtype=np.int8)
    for k in range(n):
        both = np.concatenate((s, s))
        s_next = both + np.repeat(steps, s.size)
        max_val = np.maximum(np.concatenate((max_val, max_val)), s_next)
        returns = np.concatenate((returns, returns)) + (s_next == 0)
        changes = np.concatenate((changes, changes))
        if k:
            # sign change at time k: S_k = 0 and S_{k-1} != S_{k+1}; the
            # product S_{k-1} S_{k+1} would overflow int8
            prev = np.concatenate((prev, prev))
            changes += (both == 0) & (prev != s_next)
        prev, s = both, s_next
    return max_val, returns, changes


def brute_force_pmf(statistic_tag: str, n: int) -> ExactPMF:
    """Exact pmf by enumerating all 2^n paths; the oracle for the formulas.
    The support is read off the enumeration, not assumed."""
    half_length(statistic_tag, n)
    if n > BRUTE_FORCE_MAX_N:
        raise ValueError(f"enumeration capped at n = {BRUTE_FORCE_MAX_N}")
    counts = np.bincount(path_statistic(statistic_tag,
                                        *_enumerate_statistics(n)))
    return ExactPMF(0, len(counts) - 1, tuple(int(c) for c in counts),
                    1 << n, statistic_tag)
