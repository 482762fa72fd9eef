"""Monte Carlo cross-check of the exact walk laws.

``empirical_check`` is the one entry point. Paths are driven by the
counter-based Philox generator keyed by the seed, an integer in
[0, 2^128), so identical (n, trials, seed) inputs reproduce byte-identical
results. Each step is the top bit of one raw Philox byte (exactly symmetric, no
float comparisons): the bytes of ``random_raw`` in order, +1 where the byte
is at least 128, the same bits that ``Generator.integers(0, 2)`` returns.

Walks are simulated in chunks of ``_CHUNK``, and a chunk is drawn in
slices of ``_DRAW_ROWS`` rows, so that the raw bytes and up-steps of only
one slice are alive at a time and stay in cache. Each slice's steps are
packed eight to a byte and written, transposed, into the chunk, where the
steps k of all its walks lie in one contiguous row of bytes. The slice is
a multiple of 8 rows, so every slice but the last of a chunk covers a
multiple of 8 bytes and ends on a 64-bit output: the bytes drawn, in order,
are the same whatever the slice, and the slice cannot be seen in the
counts. One loop over the n steps then walks every row of a chunk at once,
in int8 below n = 128, int16 below n = 32 768 and int32 from there on, and
keeps only the statistic that was asked for.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .walks import (DomainError, _whole, exact_pmf, path_kind,
                    path_statistic, support_size)

_CHUNK = 65536
_DRAW_ROWS = 2048  # rows drawn at a time; a multiple of 8, see `_steps`


def _steps(bitgen: np.random.Philox, rows: int, n: int) -> np.ndarray:
    """Packed up-steps of `rows` walks of length n, one raw Philox byte
    each, shape (ceil(n / 8), rows): bit k % 8 of column r in packed row
    k // 8 is step k of walk r. The walks are drawn `_DRAW_ROWS` rows at
    a time and compared into a bool buffer whose rows are padded with zeros
    to whole bytes, so that one flat packbits packs a slice. A slice of m
    rows draws ceil(m n / 8) 64-bit outputs, exactly m n / 8 for all but
    the last, so a chunk draws ceil(rows n / 8) outputs, the same bytes as
    in one piece, and a full chunk uses all of them: the stream depends on
    neither the chunking nor the slicing."""
    width = -(-n // 8)
    packed = np.empty((width, rows), np.uint8)
    buf = np.zeros((min(rows, _DRAW_ROWS), 8 * width), bool)
    for start in range(0, rows, _DRAW_ROWS):
        m = min(_DRAW_ROWS, rows - start)
        raw = bitgen.random_raw(-(-m * n // 8)).view(np.uint8)
        up = buf[:m]
        np.greater_equal(raw[:m * n].reshape(m, n), 128, out=up[:, :n])
        packed[:, start:start + m] = np.packbits(
            up, bitorder="little").reshape(m, width).T
    return packed


def _up_steps(packed: np.ndarray, n: int) -> Iterator[np.ndarray]:
    """Step k = 1, ..., n of every walk, 1 up and 0 down, one column per
    step, in one array that is overwritten in place; int8, so that it adds
    to an int8 walk without a cast."""
    up = np.empty(packed.shape[1], np.uint8)
    step = up.view(np.int8)
    for k in range(n):
        np.right_shift(packed[k >> 3], k & 7, out=up)
        up &= 1
        yield step


def _path_statistic(kind: str, packed: np.ndarray, n: int) -> np.ndarray:
    """Per-walk max, returns or sign changes of packed walks of length n.

    The max follows the walk S_k itself. The returns and the sign changes
    follow only the up-count u_k of the first k steps, since S_k = 2 u_k - k:
    at even k the walk is at 0 when u_k = k / 2, and at odd k it is above 0
    when u_k > k // 2. A sign change at time k is S_{k-1} S_{k+1} < 0, and
    the walk is never zero at odd times, so the sign changes are the flips
    of the sign of the walk from one odd time to the next. |S_k| and u_k are
    at most n, so int8 holds them below n = 128 and int16 below n = 32 768.
    """
    dtype = np.int8 if n < 128 else np.int16 if n < 32768 else np.int32
    out = np.zeros(packed.shape[1], dtype)
    walk = np.zeros(packed.shape[1], dtype)  # S_k for the max, else u_k
    if kind == "max":
        for step in _up_steps(packed, n):  # S_0 = 0 keeps the max >= 0
            walk += step
            walk += step
            walk -= 1
            np.maximum(out, walk, out=out)
    elif kind == "returns":
        for k, step in enumerate(_up_steps(packed, n), 1):
            walk += step
            if k % 2 == 0:
                out += walk == k // 2
    elif kind == "signchanges":
        above = None
        for k, step in enumerate(_up_steps(packed, n), 1):
            walk += step
            if k % 2:
                was_above, above = above, walk > k // 2
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
    kind = path_kind(statistic_tag)
    bitgen = np.random.Philox(key=seed)
    counts = np.zeros(size, dtype=np.int64)
    done = 0
    while done < trials:
        rows = min(_CHUNK, trials - done)
        values = _path_statistic(kind, _steps(bitgen, rows, n), n)
        counts += np.bincount(path_statistic(statistic_tag, values),
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
    trials, seed = _whole("trials", trials), _whole("seed", seed)
    if trials < 10_000:
        raise DomainError(f"trials >= 10^4 required, got {trials}")
    if not 0 <= seed < 1 << 128:
        raise DomainError(f"seed in [0, 2^128) required, got {seed}")
    exact = exact_pmf(statistic_tag, n)
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
