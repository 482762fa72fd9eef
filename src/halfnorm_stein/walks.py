"""Exact distributions of simple-random-walk statistics.

All masses are dyadic rationals with common denominator 2^n, built by
multiplicative binomial recurrences so that a single pmf costs O(length)
big-integer operations. A 2^n path enumeration (n <= 22) serves as an
independent oracle for the closed forms.

``float_law`` runs the same ratio recurrences in floating point and gives
the atoms and CDF of a scaled law without big integers; the exact pmfs,
rounded once by ``ExactPMF.float_cdf``, are its oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

STATISTICS = ("returns", "max", "halfmax", "signchanges")

BRUTE_FORCE_MAX_N = 22


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


def scaled_law(statistic_tag: str, n: int) -> ScaledLaw:
    """The normalised law converging to the half-normal distribution.

    returns: K_n / sqrt(n), max: M_n / sqrt(n) (n = 2m even);
    signchanges: 2 C_n / sqrt(n) (n = 2m + 1 odd);
    halfmax: 2 N_n / sqrt(n) (the auxiliary variable V, n = 2m even).
    """
    if statistic_tag == "returns":
        return ScaledLaw(pmf_returns(_even_half(n)), 1.0 / math.sqrt(n))
    if statistic_tag == "max":
        return ScaledLaw(pmf_max(n), 1.0 / math.sqrt(n))
    if statistic_tag == "halfmax":
        return ScaledLaw(pmf_halfmax(_even_half(n)), 2.0 / math.sqrt(n))
    if statistic_tag == "signchanges":
        return ScaledLaw(pmf_signchanges(_odd_half(n)), 2.0 / math.sqrt(n))
    raise ValueError(f"unknown statistic {statistic_tag!r}")


def float_law(statistic_tag: str, n: int) -> FloatLaw:
    """The law of ``scaled_law(statistic_tag, n)`` with float atoms and CDF.

    The pmf is built up to a constant factor by a float cumprod over the
    ratio recurrences of the exact pmfs, then its cumulative sum is divided
    by its last element, so the CDF ends at exactly 1.0 and never
    decreases. The atoms are those of ``scaled_law``; the CDF agrees with
    ``ScaledLaw.cdf()`` to about 1e-14 up to n = 4096.
    """
    if statistic_tag == "returns":
        m = _even_half(n)
        weights = _float_row(_returns_ratios(m))
        scale = 1.0 / math.sqrt(n)
    elif statistic_tag == "max":
        m = _even_half(n)
        # the masses of pmf_max: binom(n, m + j) twice for each j >= 1
        weights = np.repeat(_float_row(_half_row_ratios(n, m, m)), 2)[1:]
        scale = 1.0 / math.sqrt(n)
    elif statistic_tag == "halfmax":
        m = _even_half(n)
        weights = _float_row(_half_row_ratios(n, m, m))
        weights[1:] *= 2.0
        scale = 2.0 / math.sqrt(n)
    elif statistic_tag == "signchanges":
        m = _odd_half(n)
        weights = _float_row(_half_row_ratios(n, m + 1, m))
        scale = 2.0 / math.sqrt(n)
    else:
        raise ValueError(f"unknown statistic {statistic_tag!r}")
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    return FloatLaw(scale, cdf)


def _even_half(n: int) -> int:
    if n < 2 or n % 2:
        raise ValueError("even n = 2m >= 2 required")
    return n // 2


def _odd_half(n: int) -> int:
    if n < 3 or n % 2 == 0:
        raise ValueError("sign changes require odd n = 2m + 1 >= 3")
    return (n - 1) // 2


# A ratio recurrence is a pair of ranges (numerators, denominators): entry
# k + 1 of its row is entry k times numerators[k] / denominators[k]. The
# exact pmfs and float_law run the same pairs.

def _half_row_ratios(big_n: int, c: int, count: int) -> tuple[range, range]:
    """Ratios binom(N, c + j + 1) / binom(N, c + j) for j = 0..count-1."""
    return range(big_n - c, big_n - c - count, -1), range(c + 1, c + count + 1)


def _returns_ratios(m: int) -> tuple[range, range]:
    """Ratios N(r + 1) / N(r) = 2(m - r) / (2m - r) of pmf_returns."""
    return range(2 * m, 0, -2), range(2 * m, m, -1)


def _exact_row(first: int, ratios: tuple[range, range]) -> list[int]:
    """The row from its first entry; every division is exact."""
    row = [first]
    for num, den in zip(*ratios):
        row.append(row[-1] * num // den)
    return row


def _float_row(ratios: tuple[range, range]) -> np.ndarray:
    """The row divided by its first entry, by a float cumprod."""
    num, den = (np.arange(r.start, r.stop, r.step, dtype=float)
                for r in ratios)
    row = np.ones(len(num) + 1)
    np.cumprod(num / den, out=row[1:])
    return row


def position_prob(n: int, k: int) -> Fraction:
    """P(S_n = k) = binom(n, (n+k)/2) / 2^n, zero off the parity lattice."""
    if (n + k) % 2 or k < -n or k > n:
        return Fraction(0)
    return Fraction(math.comb(n, (n + k) // 2), 1 << n)


def pmf_returns(m: int) -> ExactPMF:
    """Law of K_{2m}, the number of returns to the origin by time n = 2m.

    P(K_n = r) = binom(2m - r, m) / 2^(2m - r) on r = 0..m.
    """
    if m < 1:
        raise ValueError("m >= 1 required")
    # numerators over 2^(2m): N(r) = binom(2m - r, m) * 2^r
    nums = _exact_row(math.comb(2 * m, m), _returns_ratios(m))
    return ExactPMF(0, m, tuple(nums), 1 << (2 * m), "returns")


def pmf_max(n: int) -> ExactPMF:
    """Law of M_n = max of the walk by even time n: P(M_n=r) = p_{n,r} + p_{n,r+1}."""
    if n < 2 or n % 2:
        raise ValueError("even n >= 2 required")
    m = n // 2
    binoms = _exact_row(math.comb(n, m), _half_row_ratios(n, m, m))
    # p_{n,r} + p_{n,r+1}: exactly one of r, r + 1 is even, namely
    # k = 2 ((r + 1) // 2), and p_{n,k} = binom(n, m + k / 2) / 2^n
    nums = [binoms[(r + 1) // 2] for r in range(n + 1)]
    return ExactPMF(0, n, tuple(nums), 1 << n, "max")


def pmf_halfmax(m: int) -> ExactPMF:
    """Law of N_n = floor((M_n + 1)/2) for n = 2m.

    q(s) = 2 binom(2m, m+s) / 2^(2m) for s >= 1; the boundary atom is
    q(0) = P(M_n = 0) = binom(2m, m) / 2^(2m), without the factor 2.
    """
    if m < 1:
        raise ValueError("m >= 1 required")
    binoms = _exact_row(math.comb(2 * m, m), _half_row_ratios(2 * m, m, m))
    nums = [binoms[0]] + [2 * b for b in binoms[1:]]
    return ExactPMF(0, m, tuple(nums), 1 << (2 * m), "halfmax")


def pmf_signchanges(m: int) -> ExactPMF:
    """Law of C_{2m+1}, the sign changes by odd time n = 2m + 1.

    P(C_n = s) = 2 binom(2m+1, m+s+1) / 2^(2m+1) on s = 0..m.
    """
    if m < 1:
        raise ValueError("m >= 1 required")
    binoms = _exact_row(math.comb(2 * m + 1, m + 1),
                        _half_row_ratios(2 * m + 1, m + 1, m))
    return ExactPMF(0, m, tuple(binoms), 1 << (2 * m), "signchanges")


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
    """Statistics of all 2^n paths, vectorised over the path index."""
    paths = np.arange(1 << n, dtype=np.uint32)
    s_prev2 = np.zeros(1 << n, dtype=np.int8)  # S_{k-1}
    s = np.zeros(1 << n, dtype=np.int8)        # S_k
    max_val = np.zeros(1 << n, dtype=np.int8)
    returns = np.zeros(1 << n, dtype=np.int8)
    changes = np.zeros(1 << n, dtype=np.int8)
    for k in range(1, n + 1):
        step = (((paths >> (k - 1)) & 1) << 1).astype(np.int8) - 1
        s_next = s + step
        np.maximum(max_val, s_next, out=max_val)
        returns += s_next == 0
        if k >= 2:
            # sign change at index k-1: S_{k-2} * S_k < 0
            changes += (s_prev2.astype(np.int16) * s_next) < 0
        s_prev2 = s
        s = s_next
    return max_val, returns, changes


def brute_force_pmf(statistic_tag: str, n: int) -> ExactPMF:
    """Exact pmf by enumerating all 2^n paths; the oracle for the formulas."""
    if n > BRUTE_FORCE_MAX_N:
        raise ValueError(f"enumeration capped at n = {BRUTE_FORCE_MAX_N}")
    if statistic_tag in ("returns", "max", "halfmax") and n % 2:
        raise ValueError("even n required")
    if statistic_tag == "signchanges" and (n % 2 == 0 or n < 3):
        raise ValueError("odd n >= 3 required")
    max_val, returns, changes = _enumerate_statistics(n)
    if statistic_tag == "max":
        values = max_val
        upper = n
    elif statistic_tag == "returns":
        values = returns
        upper = n // 2
    elif statistic_tag == "halfmax":
        values = (max_val + 1) // 2
        upper = n // 2
    elif statistic_tag == "signchanges":
        values = changes
        upper = (n - 1) // 2
    else:
        raise ValueError(f"unknown statistic {statistic_tag!r}")
    counts = np.bincount(values, minlength=upper + 1)
    return ExactPMF(0, upper, tuple(int(c) for c in counts), 1 << n,
                    statistic_tag)
