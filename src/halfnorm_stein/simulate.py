"""Monte Carlo cross-check of the exact walk laws.

Paths are driven by the counter-based Philox generator keyed by the seed,
so identical (n, trials, seed) inputs reproduce byte-identical results and
steps come from single PRNG bits (exactly symmetric, no float comparisons).
Steps are int8 and the walk is their cumsum, in int8 below n = 128; returns
and sign changes are counted from the zeros of the walk and the steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .walks import DomainError, scaled_law

_CHUNK = 65536


@dataclass(frozen=True)
class WalkSummary:
    n: int
    max_value: int
    returns: int
    sign_changes: int


def _path_statistics(steps: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row (max, returns, sign changes) for a chunk of +-1 step rows."""
    # |S_k| <= n, so int8 holds the walk below n = 128; numpy wraps an
    # overflowing cumsum without a warning
    s = np.cumsum(steps, axis=1,
                  dtype=np.int8 if steps.shape[1] < 128 else np.int32)
    max_value = np.maximum(s.max(axis=1), 0)
    zero = s == 0
    returns = np.count_nonzero(zero, axis=1)
    # sign change at time k: S_k = 0 and step_k = step_{k+1}
    sign_changes = np.count_nonzero(
        zero[:, :-1] & (steps[:, :-1] == steps[:, 1:]), axis=1)
    return max_value, returns, sign_changes


def _steps(rng: np.random.Generator, rows: int, n: int) -> np.ndarray:
    """Rows of int8 +-1 steps, one Philox bit each."""
    return rng.integers(0, 2, size=(rows, n), dtype=np.int8) * 2 - 1


def simulate_walk(n: int, seed: int) -> WalkSummary:
    """Statistics of one walk of length n, deterministic in the seed."""
    if n < 1:
        raise ValueError("n >= 1 required")
    rng = np.random.Generator(np.random.Philox(key=seed))
    max_value, returns, sign_changes = _path_statistics(_steps(rng, 1, n))
    return WalkSummary(n=n, max_value=int(max_value[0]),
                       returns=int(returns[0]),
                       sign_changes=int(sign_changes[0]))


def empirical_pmf_counts(statistic_tag: str, n: int, trials: int,
                         seed: int) -> np.ndarray:
    """Counts of the statistic over seeded trials, chunked and deterministic."""
    if n < 1:
        raise ValueError("n >= 1 required")
    if statistic_tag in ("returns", "max"):
        upper = n if statistic_tag == "max" else n // 2
    elif statistic_tag == "signchanges":
        upper = (n - 1) // 2
    else:
        raise ValueError(f"unknown statistic {statistic_tag!r}")
    rng = np.random.Generator(np.random.Philox(key=seed))
    counts = np.zeros(upper + 1, dtype=np.int64)
    done = 0
    while done < trials:
        rows = min(_CHUNK, trials - done)
        max_value, returns, sign_changes = _path_statistics(_steps(rng, rows, n))
        values = {"max": max_value, "returns": returns,
                  "signchanges": sign_changes}[statistic_tag]
        counts += np.bincount(values, minlength=upper + 1)
        done += rows
    return counts


@dataclass(frozen=True)
class EmpiricalReport:
    statistic_tag: str
    n: int
    trials: int
    seed: int
    max_cdf_deviation: float
    dkw_threshold: float  # at alpha = 1e-3
    passed: bool          # deviation below twice the threshold


def empirical_check(statistic_tag: str, n: int, trials: int,
                    seed: int = 0) -> EmpiricalReport:
    """Empirical-CDF deviation from the exact law, against the
    Dvoretzky-Kiefer-Wolfowitz threshold at alpha = 1e-3 with 2x slack."""
    if trials < 10_000:
        raise DomainError(f"trials >= 10^4 required, got {trials}")
    # The exact law validates n before any walk is drawn.
    exact = scaled_law(statistic_tag, n).base
    counts = empirical_pmf_counts(statistic_tag, n, trials, seed)
    ecdf = np.cumsum(counts) / trials
    deviation = float(np.max(np.abs(ecdf - exact.float_cdf())))
    threshold = math.sqrt(math.log(2.0 / 1e-3) / (2.0 * trials))
    return EmpiricalReport(statistic_tag=statistic_tag, n=n, trials=trials,
                           seed=seed, max_cdf_deviation=deviation,
                           dkw_threshold=threshold,
                           passed=deviation < 2.0 * threshold)
