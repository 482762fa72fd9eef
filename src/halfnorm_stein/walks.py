"""Exact distributions of simple-random-walk statistics.

Each statistic is described once: ``_LAWS`` gives the parity of its walk
lengths n = 2m + parity (``half_length`` is the one admissibility rule,
``walk_length`` its inverse) and its scale, ``_ratios`` the ratio recurrence
of its row of m + 1 entries and ``_masses`` the map of that row onto the
support. ``exact_pmf`` runs the recurrence in big integers (O(m)
operations, denominator 2^(2m)) and keeps every atom. The float laws run
it in floats only over the law's numerical support, O(sqrt(n)) entries,
cut at the atom x = 10 and trimmed after the first CDF entry 1.0. One row
builder, ``_float_block``, makes them for a block of n at once, in one
pass: one padded 2D array with one cumprod and one cumsum along its rows,
the only form a float law takes; ``metrics`` measures each block of a
sweep as built. The exact pmfs rounded once are its oracle.
The oracle of the exact pmfs is an exact int64 count of all 2^n paths
(n <= 62) per walk state, advanced one step at a time, one statistic per
call: O(n^2) states, O(n^3) work, no formula.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

import numpy as np

# statistic -> (parity of n = 2m + parity, c of the law c X_n / sqrt(n))
_LAWS = {"returns": (0, 1.0), "max": (0, 1.0), "halfmax": (0, 2.0),
         "signchanges": (1, 2.0)}

STATISTICS = tuple(_LAWS)

BRUTE_FORCE_MAX_N = 62

# _cut cuts every row at the atom x = 10, where Hoeffding's bound
# exp(-x^2/2) on the tail is exp(-50) = 2e-22 (twice that for the maximum,
# by the reflection principle). The geometric tail bound _float_block checks
# is at most 2.84e-4 _TAIL_RTOL of the kept mass at every admissible
# n <= 2^16 and at 300 geometric n per statistic up to the last n _cut
# admits: it rises with n toward sqrt(2/pi) exp(-50) / 10 = 2.84e-4 _TAIL_RTOL
_X_CUT = 10.0
_TAIL_RTOL = 2.0 ** -64

# the most atoms the row of a float law may map onto: 8 MiB a float array,
# and about 100 bytes an atom at the peak of its distances (measured at
# n = 2^26 and 2^28). It admits n up to 1.1e10 (returns, max) or 4.4e10
# (halfmax, signchanges); a larger n raises DomainError before any row is
# built
_MAX_ATOMS = 2 ** 20

# the most bytes of numerators an exact law may hold: (m + 1)(2m + parity)
# bits, a row of m + 1 ints below 2^(2m + parity). exact_pmf("max", n) took
# 0.06 s and 43 MB max RSS at n = 2^14, 0.80 s and 230 MB at 2^16 (2^28
# bytes; 2-core Xeon). It admits n up to 92 680 (92 681 for signchanges),
# past the int32 walks of simulate from n = 32 768
_MAX_EXACT_BYTES = 2 ** 29


class DomainError(ValueError):
    """An argument refused by the function whose rule it breaks: a walk
    input outside the stated laws or past a cap, a point off the support
    or on a jump with no side given, a bad grid, range, cap, constant,
    metric or empty n-list, an inconsistent law, or an unwritable --out."""


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
            raise DomainError("support length does not match mass vector")
        if any(v < 0 for v in self.numerators):
            raise DomainError("negative mass")
        if sum(self.numerators) != self.denominator:
            raise DomainError("masses do not sum to 1")

    def support(self) -> range:
        return range(self.lower, self.upper + 1)

    def masses(self) -> list[Fraction]:
        return [Fraction(v, self.denominator) for v in self.numerators]

    def float_cdf(self) -> np.ndarray:
        """CDF at support points, accumulated exactly and rounded once."""
        return np.array([v / self.denominator
                         for v in accumulate(self.numerators)])

    def __eq__(self, other):
        if not isinstance(other, ExactPMF):
            return NotImplemented
        # a / d == b / e  iff  a (e / g) == b (d / g) for g = gcd(d, e); the
        # multipliers are a few bits when both denominators are powers of 2
        g = math.gcd(self.denominator, other.denominator)
        mine, theirs = other.denominator // g, self.denominator // g
        return (self.lower == other.lower and self.upper == other.upper
                and len(self.numerators) == len(other.numerators)
                and all(a * mine == b * theirs
                        for a, b in zip(self.numerators, other.numerators)))


@dataclass(frozen=True)
class ScaledLaw:
    """ExactPMF pushed onto the lattice scale * {lower, ..., upper}."""

    base: ExactPMF
    scale: float

    def __post_init__(self):
        if not 0.0 < self.scale < math.inf:  # nan included
            raise DomainError("scale must be positive and finite")

    def atoms(self) -> np.ndarray:
        return self.scale * np.arange(self.base.lower, self.base.upper + 1,
                                      dtype=float)

    def cdf(self) -> np.ndarray:
        """CDF at the atoms, each value the exact CDF rounded once."""
        return self.base.float_cdf()


def _parity(statistic_tag: str) -> int:
    if statistic_tag not in _LAWS:
        raise DomainError(f"unknown statistic {statistic_tag!r}")
    return _LAWS[statistic_tag][0]


def _whole(name: str, value) -> int:
    """value as an int, from any integer type; else DomainError."""
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got "
                          f"{name} = {value!r}") from None


def half_length(statistic_tag: str, n: int) -> int:
    """m for the walk lengths n = 2m + parity, m >= 1, where the statistic's
    limit theorem holds; any other n raises DomainError."""
    parity = _parity(statistic_tag)
    n = _whole("n", n)
    if n < 2 + parity or n % 2 != parity:
        kind = "odd n = 2m + 1 >= 3" if parity else "even n = 2m >= 2"
        raise DomainError(f"{statistic_tag} requires {kind}, got n = {n}")
    return n // 2


def walk_length(statistic_tag: str, m: int) -> int:
    """n = 2m + parity, the walk length whose half_length is m >= 1; any
    other m raises DomainError."""
    parity = _parity(statistic_tag)
    m = _whole("m", m)
    if m < 1:
        raise DomainError(f"m >= 1 required, got m = {m}")
    return 2 * m + parity


def support_size(statistic_tag: str, n: int) -> int:
    """Number of atoms 0..upper of the statistic's law at walk length n;
    an inadmissible n raises DomainError."""
    return _atoms(statistic_tag, half_length(statistic_tag, n))


def path_kind(statistic_tag: str) -> str:
    """The per-path "max", "returns" or "signchanges" that the statistic
    is read off: halfmax from the max."""
    return "max" if statistic_tag == "halfmax" else statistic_tag


def path_statistic(statistic_tag: str, values: np.ndarray) -> np.ndarray:
    """The statistic on each path from its per-path values of
    ``path_kind(statistic_tag)``; halfmax N = ceil(M / 2) is M - M // 2 of
    the max M, which cannot wrap."""
    if statistic_tag == "halfmax":
        return values - values // 2
    return values


def exact_pmf(statistic_tag: str, n: int) -> ExactPMF:
    """The exact law of the statistic at walk length n = 2m + parity, on
    0..upper with denominator 2^(2m); an inadmissible n, or one past
    _MAX_EXACT_BYTES, raises DomainError.

    returns: K_n, the returns to the origin by time n = 2m;
    max: M_n, the maximum of the walk by time n = 2m;
    halfmax: N_n = ceil(M_n / 2), the auxiliary variable, n = 2m;
    signchanges: C_n, the sign changes by odd time n = 2m + 1.
    """
    m = _exact_half_length(statistic_tag, n)
    nums = _masses(statistic_tag, _exact_row(statistic_tag, m)).tolist()
    return ExactPMF(0, len(nums) - 1, tuple(nums), 1 << (2 * m),
                    statistic_tag)


def scaled_law(statistic_tag: str, n: int) -> ScaledLaw:
    """The normalised law converging to the half-normal distribution:
    K_n / sqrt(n), M_n / sqrt(n), 2 N_n / sqrt(n) (the auxiliary variable
    V) and 2 C_n / sqrt(n), over ``exact_pmf(statistic_tag, n)``."""
    return ScaledLaw(exact_pmf(statistic_tag, n),
                     _LAWS[statistic_tag][1] / math.sqrt(n))


def _exact_half_length(statistic_tag: str, n: int) -> int:
    """``half_length`` of an n whose exact law holds at most
    _MAX_EXACT_BYTES of numerators; a larger n raises DomainError."""
    m = half_length(statistic_tag, n)
    size = (m + 1) * (2 * m + _LAWS[statistic_tag][0]) // 8
    if size > _MAX_EXACT_BYTES:
        raise DomainError(f"{statistic_tag} at n = {n} needs an exact law "
                          f"of {size} bytes, more than {_MAX_EXACT_BYTES}")
    return m


def _ratios(statistic_tag: str, m, j):
    """(numerator, denominator) of the j-th quotient of the row of m + 1
    entries: row entry j + 1 is entry j times their quotient, j = 0..m - 1,
    elementwise on ints or on arrays of whole numbers. returns:
    binom(2m - r, m) 2^r, quotients 2(m - r)/(2m - r), so that
    P(K_n = r) = binom(2m - r, m) / 2^(2m - r) on r = 0..m; the others:
    binom(n, c + j), c = n - m, quotients (m - j)/(c + j + 1).
    """
    if statistic_tag == "returns":
        return 2 * m - 2 * j, 2 * m - j
    return m - j, m + _LAWS[statistic_tag][0] + 1 + j


def _masses(statistic_tag: str, row: np.ndarray) -> np.ndarray:
    """The row mapped onto the support 0..upper, along its last axis; a
    float row or an object row of exact ints alike. Over 2^(2m), with
    p_{n,r} = P(S_n = r):
    max: P(M_n = r) = p_{n,r} + p_{n,r+1};
    halfmax: q(s) = 2 binom(2m, m + s) / 2^(2m) for s >= 1 and
    q(0) = P(M_n = 0) = binom(2m, m) / 2^(2m);
    signchanges: P(C_n = s) = 2 binom(2m + 1, m + s + 1) / 2^(2m + 1)
    on s = 0..m, the row itself."""
    if statistic_tag == "max":
        # exactly one of r, r + 1 is even, so binom(n, m + j) is the mass
        # at r = 2j - 1 and at r = 2j
        return np.repeat(row, 2, axis=-1)[..., 1:]
    if statistic_tag == "halfmax":
        # the boundary atom q(0) is not doubled
        return np.concatenate((row[..., :1], 2 * row[..., 1:]), axis=-1)
    return row


def _atoms(statistic_tag: str, k):
    """Atoms of the support that row entries 0..k map onto."""
    return 2 * k + 1 if statistic_tag == "max" else k + 1


def _exact_row(statistic_tag: str, m: int) -> np.ndarray:
    """The row from binom(2m + parity, m), an object array of exact ints."""
    row = [math.comb(2 * m + _LAWS[statistic_tag][0], m)]
    nums, dens = _ratios(statistic_tag, m, np.arange(m))
    for num, den in zip(nums.tolist(), dens.tolist()):
        row.append(row[-1] * num // den)
    return np.array(row, dtype=object)


def _cut(statistic_tag: str, n: int) -> tuple[int, int, int]:
    """(n, m, k): the cut k of the row of the float law at n, its row
    entry at the atom x = _X_CUT. Entries sit 1/sqrt(n) apart in x for
    returns and 2/sqrt(n) for the others (max has two atoms per entry), so
    k = min(m, ceil(10 sqrt(n) / spacing)), found in exact integers as
    the least k with (k spacing)^2 >= 100 n; ceil(_X_CUT^2) is exactly 100.

    An inadmissible n raises DomainError, and so does an n whose row of the
    cut maps onto more than _MAX_ATOMS atoms.
    """
    m = half_length(statistic_tag, n)
    spacing = 1 if statistic_tag == "returns" else 2  # x times sqrt(n)
    # ceil(sqrt(a)) = 1 + isqrt(a - 1) for an integer a >= 1
    root = 1 + math.isqrt(math.ceil(_X_CUT * _X_CUT) * int(n) - 1)
    k = min(m, -(-root // spacing))
    atoms = _atoms(statistic_tag, k)
    if atoms > _MAX_ATOMS:
        raise DomainError(f"{statistic_tag} at n = {n} needs a float law "
                          f"of {atoms} atoms, more than {_MAX_ATOMS}")
    return n, m, k


def _float_blocks(statistic_tag: str, ns, cells: int):
    """``_float_block`` of consecutive runs of the n of ``ns``, each run
    as long as its rows, padded to the widest, map onto at most ``cells``
    atoms; a law wider than that is a run of its own. Each n is checked
    by ``_cut`` as its run is formed."""
    block, widest = [], 0
    for n in ns:
        cut = _cut(statistic_tag, n)
        width = _atoms(statistic_tag, cut[2])
        if block and (len(block) + 1) * max(widest, width) > cells:
            yield _float_block(statistic_tag, block)
            block, widest = [], 0
        block.append(cut)
        widest = max(widest, width)
    if block:
        yield _float_block(statistic_tag, block)


def _float_block(statistic_tag: str, cuts) -> tuple[np.ndarray, np.ndarray,
                                                      np.ndarray]:
    """(scales, cdf, sizes) of the float laws at each (n, m, k) of ``cuts``:
    the laws' CDFs concatenated, sizes[i] atoms from law i, the atoms
    scales[i] * {0, ..., sizes[i] - 1} of ``scaled_law``, 1.0 beyond them.

    Each row is the pmf up to a constant factor, a float cumprod of the
    quotients of ``_ratios`` cut at k, where the tail bound below drops at
    most 2^-64 of the kept mass: each dropped term is below half an ulp of
    the running sum, so the normaliser, the last kept partial sum, is the
    whole row's. Divided by it the cumulative sum never decreases; it is
    trimmed just after its first 1.0, near x = 8.3, to at most about
    10 sqrt(n) atoms. There the CDF is bit for bit the uncut row's and
    within about 1e-14 of ``ScaledLaw.cdf()`` up to n = 4096: the cut
    leaves d_K unchanged and moves d_W, which adds the tail past the last
    atom in closed form, by at most 1e-14.

    The rows are built at once, padded to the widest: row i holds the
    quotients 0..k_i - 1 of ``_ratios`` and 0.0 beyond them, so one
    cumprod along the rows gives entries 0..k_i and exactly 0.0 past
    k_i, which no cumulative sum or normaliser can tell from the end of
    the row. Each product and each sum is accumulated in order along its
    row, so every row is bit for bit the row built alone.

    Every row's quotients q_j decrease in j, so entry k + j is at most
    row[k] q_k^j and the entries past k sum to at most
    row[k] q_k / (1 - q_k); ``_masses`` doubles them for max and halfmax.
    At the cut of ``_cut`` that bound is below _TAIL_RTOL times the kept
    mass, the row's last partial sum, at every admissible n (see _X_CUT);
    a row where it is not raises RuntimeError.
    """
    # as floats, exact below 2^53, so no integer loop or cast touches a row
    n, m, k = (np.array(v, dtype=float) for v in zip(*cuts))
    # column c holds quotient c - 1 up to c = k and 0.0 past it, and
    # column 0 the row's first entry, 1.0
    j = np.arange(-1, k.max())
    row = np.divide(*_ratios(statistic_tag, m[:, None], j),
                    out=np.zeros((len(k), len(j))), where=j < k[:, None])
    row[:, 0] = 1.0
    np.cumprod(row, axis=1, out=row)
    cdf = np.cumsum(_masses(statistic_tag, row), axis=1)
    q_k = np.divide(*_ratios(statistic_tag, m, k))
    doubled = 2.0 if statistic_tag in ("max", "halfmax") else 1.0
    tail = (doubled * row[np.arange(len(k)), k.astype(np.intp)]
            * q_k / (1.0 - q_k))
    short = np.flatnonzero(tail > _TAIL_RTOL * cdf[:, -1])
    if short.size:
        i = short[0]
        raise RuntimeError(
            f"{statistic_tag} at n = {int(n[i])}: the tail bound "
            f"{tail[i]:.3g} past entry {int(k[i])} exceeds 2^-64 of the "
            f"kept mass {cdf[i, -1]:.17g}")
    cdf /= cdf[:, -1:]
    # cdf never exceeds 1.0, so this is each row's first index reading 1.0
    sizes = np.argmax(cdf >= 1.0, axis=1) + 1
    kept = np.arange(cdf.shape[1]) < sizes[:, None]
    return _LAWS[statistic_tag][1] / np.sqrt(n), cdf[kept], sizes


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


def _moment_bounds(m: int) -> tuple[Fraction, Fraction, Fraction, bool]:
    """The closed-form E[K_2m], E[N_2m], E[C_2m+1] and whether they meet
    the three expectation inequalities of ``moment_bounds_check``.

    Each inequality is compared as its square in rationals, with pi
    replaced by pi_hi, the double just above it, so the comparisons are
    exact and can err only toward failing: E[K]^2 pi_hi <= 4m,
    (2 E[N])^2 pi_hi <= 4m and E[C]^2 pi_hi m <= (m + 1/2)^2.
    """
    b = central_binomial_prob(m)
    ek = (2 * m + 1) * b - 1
    en = m * b
    # E[C_2m+1] = ((m + 1) binom(2m + 1, m + 1) / 2^(2m) - 1) / 2 = E[K_2m] / 2
    ec = ek / 2
    pi_hi = Fraction(math.nextafter(math.pi, math.inf))
    holds = (ek * ek * pi_hi <= 4 * m
             and (2 * en) ** 2 * pi_hi <= 4 * m
             and ec * ec * pi_hi * m <= (m + Fraction(1, 2)) ** 2)
    return ek, en, ec, holds


def moment_bounds_check(m: int) -> MomentBoundReport:
    """Exact verification of the three expectation inequalities.

    E[K_2m] <= sqrt(2/pi) sqrt(2m), E[V] = 2 E[N_n]/sqrt(n) <= sqrt(2/pi),
    E[C_{2m+1}] <= sqrt(m/pi) + 1/(2 sqrt(pi m)), each compared exactly
    (``_moment_bounds``). The closed-form means must also equal mean_exact
    of the exact pmfs; a mismatch fails the check like a violated bound.
    """
    ek, en, ec, holds = _moment_bounds(m)
    ok = (all(mean == mean_exact(exact_pmf(tag, walk_length(tag, m)))
              for tag, mean in (("returns", ek), ("halfmax", en),
                                ("signchanges", ec)))
          and holds)
    return MomentBoundReport(m, ek, en, ec, ok)


def _count(kind: str, n: int) -> np.ndarray:
    """counts[v], v = 0..n: how many of the 2^n paths have "max",
    "returns" or "signchanges" equal to v, as int64.

    Paths are counted per walk state, advanced one step at a time over
    O(n^2) states, so O(n^3) work:
    max: over (max - position, max); a +1 step at the max raises it;
    returns: over (position, returns); a step onto 0 is a return;
    signchanges: over (sign of the last nonzero position, position,
    changes); a step off 0 against that sign is a change.
    A state counts at most 2^n <= 2^62 paths, so no entry can wrap.
    """
    if kind == "max":
        # table[d, v]: paths at position v - d below their max v
        table = np.zeros((n + 1, n + 1), dtype=np.int64)
        table[0, 0] = 1
        for _ in range(n):
            step = np.zeros_like(table)
            step[1:] = table[:-1]
            step[:-1] += table[1:]
            step[0, 1:] += table[0, :-1]
            table = step
        return table.sum(axis=0)
    # table[..., p + n, v]: paths at position p; signchanges has a plane
    # per sign, 0 negative and 1 positive, each holding the positions of
    # its sign and 0
    shape = (2 * n + 1, n + 1) if kind == "returns" else (2, 2 * n + 1, n + 1)
    table = np.zeros(shape, dtype=np.int64)
    if kind == "returns":
        table[n, 0] = 1
    else:
        # the first step sets the sign and changes nothing
        table[0, n - 1, 0] = table[1, n + 1, 0] = 1
    for _ in range(n - (kind == "signchanges")):
        step = np.zeros_like(table)
        step[..., 1:, :] = table[..., :-1, :]
        step[..., :-1, :] += table[..., 1:, :]
        if kind == "returns":
            # the paths at 0 have just returned
            step[n, 1:] = step[n, :-1].copy()
            step[n, 0] = 0
        else:
            # the paths that left 0 against their plane's sign change
            # plane and have changed sign once more
            for sign, p in ((0, n + 1), (1, n - 1)):
                step[1 - sign, p, 1:] += step[sign, p, :-1]
                step[sign, p] = 0
        table = step
    return table.reshape(-1, n + 1).sum(axis=0)


def brute_force_pmf(statistic_tag: str, n: int) -> ExactPMF:
    """Exact pmf by counting all 2^n paths; the oracle for the formulas.

    ``_count`` counts the paths of one statistic per walk state, with no
    formula (halfmax is read off the max by ``path_statistic`` on its
    values). The support is read off the count, not assumed; n up to
    BRUTE_FORCE_MAX_N, whose 2^n paths fit in int64.
    """
    half_length(statistic_tag, n)
    if n > BRUTE_FORCE_MAX_N:
        raise DomainError(f"path count capped at n = {BRUTE_FORCE_MAX_N}")
    counts = np.zeros(n + 1, dtype=np.int64)
    np.add.at(counts, path_statistic(statistic_tag, np.arange(n + 1)),
              _count(path_kind(statistic_tag), n))
    counts = np.trim_zeros(counts, "b").tolist()
    return ExactPMF(0, len(counts) - 1, tuple(counts), 1 << n, statistic_tag)
