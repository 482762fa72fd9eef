"""The formula pmfs against the exact count of the 2^n paths, one check
shared by the acceptance gate and the law tests; the enumeration of the
2^n paths that the count is checked against; and the naive per-path
reference that the enumeration and the Monte Carlo statistics are checked
against."""

import itertools
import time

import numpy as np

from halfnorm_stein import walks

# every admissible n up to the cap of 62, all four statistics, took 0.05 s
# on 2 cores; the budget leaves room for a slower machine
ENUMERATION_BUDGET_S = 2.0

# the enumeration holds 2^n int8 values per array; 22 keeps it at 4 MiB
ENUMERATION_MAX_N = 22


def check_formulas_match_enumeration():
    """exact_pmf == brute_force_pmf, exact rational equality, for every
    statistic at every admissible n up to BRUTE_FORCE_MAX_N, within
    ENUMERATION_BUDGET_S."""
    start = time.monotonic()
    for tag in walks.STATISTICS:
        first = 3 if tag == "signchanges" else 2
        for n in range(first, walks.BRUTE_FORCE_MAX_N + 1, 2):
            assert (walks.exact_pmf(tag, n)
                    == walks.brute_force_pmf(tag, n)), (tag, n)
    assert time.monotonic() - start < ENUMERATION_BUDGET_S


def naive_walk_statistics(steps):
    """(max, returns, sign changes) of one walk of +-1 steps, in Python
    integers; a sign change at time k is S_{k-1} S_{k+1} < 0."""
    walk = list(itertools.accumulate(steps, initial=0))
    changes = sum(walk[k - 1] * walk[k + 1] < 0 for k in range(1, len(steps)))
    return max(walk), walk[1:].count(0), changes


def _enumerate(kind: str, n: int) -> np.ndarray:
    """The per-path "max", "returns" or "signchanges" of all 2^n paths, as
    int8; path i takes step k = +1 exactly when bit k of i is set.

    The paths are built in place by prefix doubling in two int8 arrays of
    2^n, the position S and the statistic. Before step k, entries [0, 2^k)
    hold the 2^k prefixes of length k; their +1 extensions are written into
    [2^k, 2^(k+1)) and entries [0, 2^k) become their -1 extensions, so the
    2^n paths cost about 2^(n+1) updates and no temporary exceeds 2^(n-1)
    bytes.
    """
    s = np.zeros(1 << n, dtype=np.int8)
    stat = np.zeros(1 << n, dtype=np.int8)
    for k in range(n):
        h = 1 << k
        lo, hi = s[:h], s[h:2 * h]
        lo_stat, hi_stat = stat[:h], stat[h:2 * h]
        hi_stat[:] = lo_stat
        if kind == "signchanges" and k:
            # S_k = 0 is crossed iff step k repeats step k - 1, and step
            # k - 1 is +1 exactly on the prefixes [h/2, h)
            hi_stat[h // 2:] += lo[h // 2:] == 0
            lo_stat[:h // 2] += lo[:h // 2] == 0
        np.add(lo, 1, out=hi)
        lo -= 1
        if kind == "max":
            # a -1 step never raises the running max
            np.maximum(hi_stat, hi, out=hi_stat)
        elif kind == "returns":
            hi_stat += hi == 0
            lo_stat += lo == 0
    return stat


def enumerated_counts(statistic_tag, n):
    """The numerators of ``walks.brute_force_pmf(statistic_tag, n)`` from
    the enumeration: its values counted by np.bincount over slices of
    2^16, so only a slice at a time is widened to intp."""
    values = walks.path_statistic(
        statistic_tag, _enumerate(walks.path_kind(statistic_tag), n))
    block = 1 << 16
    counts = np.zeros(n + 1, dtype=np.int64)  # every statistic is <= n
    for start in range(0, values.size, block):
        counts += np.bincount(values[start:start + block], minlength=n + 1)
    return tuple(np.trim_zeros(counts, "b").tolist())
