"""Monte Carlo cross-check of the exact walk laws.

``empirical_check`` is the one entry point. Paths are driven by the
counter-based Philox generator keyed by the seed, an integer in
[0, 2^128), so identical (n, trials, seed) inputs reproduce byte-identical
results. Each step is the top bit of one raw Philox byte (exactly symmetric, no
float comparisons): the bytes of ``random_raw`` in order, +1 where the byte
is at least 128, the same bits that ``Generator.integers(0, 2)`` returns.
The steps are packed eight to a byte and transposed, so that step k of all
walks in a chunk is one contiguous column; one loop over the n steps then
walks every row at once, in int8 below n = 128, and keeps only the
statistic that was asked for.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .walks import DomainError, path_statistic, scaled_law, support_size

_CHUNK = 65536


def _pack(up: np.ndarray) -> np.ndarray:
    """Bool rows of up-steps, shape (rows, n), packed little-endian along
    each row and transposed to shape (ceil(n / 8), rows): bit k % 8 of
    column r in packed row k // 8 is step k of walk r."""
    return np.packbits(up, axis=1, bitorder="little").T.copy()


def _steps(bitgen: np.random.Philox, rows: int, n: int) -> np.ndarray:
    """Packed up-steps of `rows` walks of length n, one raw Philox byte
    each. A chunk draws ceil(rows n / 8) 64-bit outputs; a full chunk uses
    all of their bytes, so the stream does not depend on the chunking."""
    raw = bitgen.random_raw(-(-rows * n // 8)).view(np.uint8)
    return _pack(raw[:rows * n].reshape(rows, n) >= 128)


def _walk(packed: np.ndarray, n: int) -> Iterator[np.ndarray]:
    """S_1, ..., S_n of every walk, one column per step, in one array that
    is updated in place; |S_k| <= n, so int8 holds it below n = 128."""
    s = np.zeros(packed.shape[1], np.int8 if n < 128 else np.int16)
    up = np.empty(packed.shape[1], np.uint8)
    step = up.view(np.int8)  # 0 or 1; s += 2 up - 1
    for k in range(n):
        np.right_shift(packed[k >> 3], k & 7, out=up)
        up &= 1
        s += step
        s += step
        s -= 1
        yield s


def _path_statistic(kind: str, packed: np.ndarray, n: int) -> np.ndarray:
    """Per-walk max, returns or sign changes of packed walks of length n.

    A sign change at time k is S_{k-1} S_{k+1} < 0, and the walk is never
    zero at odd times, so the sign changes are the flips of the sign of the
    walk from one odd time to the next.
    """
    out = np.zeros(packed.shape[1], np.int8 if n < 128 else np.int16)
    if kind == "max":
        for s in _walk(packed, n):  # S_0 = 0 keeps the max >= 0
            np.maximum(out, s, out=out)
    elif kind == "returns":
        for k, s in enumerate(_walk(packed, n), 1):
            if k % 2 == 0:
                out += s == 0
    elif kind == "signchanges":
        above = None
        for k, s in enumerate(_walk(packed, n), 1):
            if k % 2:
                was_above, above = above, s > 0
                if was_above is not None:
                    out += was_above != above
    else:
        raise ValueError(f"no path statistic {kind!r}")
    return out


def empirical_pmf_counts(statistic_tag: str, n: int, trials: int,
                         seed: int) -> np.ndarray:
    """Counts of the statistic over seeded trials, chunked and deterministic,
    one per atom of the exact law; an inadmissible statistic or n raises
    DomainError before any walk is drawn. halfmax is read off the max."""
    size = support_size(statistic_tag, n)
    kind = "max" if statistic_tag == "halfmax" else statistic_tag
    bitgen = np.random.Philox(key=seed)
    counts = np.zeros(size, dtype=np.int64)
    done = 0
    while done < trials:
        rows = min(_CHUNK, trials - done)
        paths = {kind: _path_statistic(kind, _steps(bitgen, rows, n), n)}
        counts += np.bincount(path_statistic(statistic_tag, paths),
                              minlength=size)
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
    worst_atom: int | None = None  # the atom k of the largest deviation


def empirical_check(statistic_tag: str, n: int, trials: int,
                    seed: int = 0) -> EmpiricalReport:
    """Empirical-CDF deviation from the exact law, against the
    Dvoretzky-Kiefer-Wolfowitz threshold at alpha = 1e-3 with 2x slack.
    Bad trials, seed or n raise DomainError before any walk is drawn."""
    if trials < 10_000:
        raise DomainError(f"trials >= 10^4 required, got {trials}")
    if not 0 <= seed < 1 << 128:
        raise DomainError(f"seed in [0, 2^128) required, got {seed}")
    exact = scaled_law(statistic_tag, n).base
    counts = empirical_pmf_counts(statistic_tag, n, trials, seed)
    ecdf = np.cumsum(counts) / trials
    gaps = np.abs(ecdf - exact.float_cdf())
    worst = int(np.argmax(gaps))
    deviation = float(gaps[worst])
    threshold = math.sqrt(math.log(2.0 / 1e-3) / (2.0 * trials))
    return EmpiricalReport(statistic_tag=statistic_tag, n=n, trials=trials,
                           seed=seed, max_cdf_deviation=deviation,
                           dkw_threshold=threshold,
                           passed=deviation < 2.0 * threshold,
                           worst_atom=exact.lower + worst)
