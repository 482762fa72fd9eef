"""The formula pmfs against the 2^n path enumeration, one check shared by
the acceptance gate and the law tests, and the naive per-path reference
that the enumeration and the Monte Carlo statistics are checked against."""

import itertools
import time

from halfnorm_stein import walks

# every admissible n up to the cap, all four statistics, took 0.1 s on
# 2 cores; the budget leaves room for a slower machine
ENUMERATION_BUDGET_S = 10.0


def check_formulas_match_enumeration():
    """exact_pmf == brute_force_pmf, exact rational equality, for every
    statistic at every admissible n up to BRUTE_FORCE_MAX_N, within
    ENUMERATION_BUDGET_S; at n = 22 the count runs over 64 slices of 2^16
    values."""
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
