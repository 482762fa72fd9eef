import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from enumeration_check import naive_walk_statistics
from halfnorm_stein import simulate, walks


def test_single_walk_ranges():
    # 40 walks of n = 21: the max lies in [0, 21]; returns (at even times)
    # and sign changes (between odd times) number at most 10
    packed = simulate._steps(np.random.Philox(key=0), 40, 21)
    for kind, top in (("max", 21), ("returns", 10), ("signchanges", 10)):
        stat = simulate._path_statistic(kind, packed, 21)
        assert np.all((0 <= stat) & (stat <= top))


def test_length_one_walk():
    # both walks of length one: no return, no sign change, max 0 or 1
    packed = _pack(np.array([[False], [True]]))
    assert list(simulate._path_statistic("returns", packed, 1)) == [0, 0]
    assert list(simulate._path_statistic("signchanges", packed, 1)) == [0, 0]
    assert list(simulate._path_statistic("max", packed, 1)) == [0, 1]


def test_counts_reproducible():
    a = simulate.empirical_pmf_counts("returns", 32, 50_000, seed=11)
    b = simulate.empirical_pmf_counts("returns", 32, 50_000, seed=11)
    assert np.array_equal(a, b)
    assert a.sum() == 50_000


def test_counts_chunk_boundary():
    # totals must not depend on how trials split across chunks
    a = simulate.empirical_pmf_counts("max", 16, simulate._CHUNK + 1, seed=5)
    assert a.sum() == simulate._CHUNK + 1


def test_empirical_check_trial_floor():
    with pytest.raises(ValueError):
        simulate.empirical_check("returns", 64, 9_999)


@pytest.mark.parametrize("tag,n", [("returns", 64), ("max", 64),
                                   ("signchanges", 65)])
def test_empirical_check_passes(tag, n):
    report = simulate.empirical_check(tag, n, 100_000, seed=0)
    assert report.passed
    assert report.max_cdf_deviation < 2.0 * report.dkw_threshold


def test_empirical_pmf_within_binomial_noise():
    # per-atom check at small n: each count within 4 sigma of its mean
    trials = 200_000
    n = 12
    exact = walks.exact_pmf("returns", n)
    counts = simulate.empirical_pmf_counts("returns", n, trials, seed=42)
    for k, mass in zip(exact.support(), map(float, exact.masses())):
        sigma = math.sqrt(trials * mass * (1.0 - mass))
        assert abs(counts[k] - trials * mass) < 4.0 * sigma


@pytest.mark.parametrize("n", [0, -3])
def test_counts_reject_empty_walks(monkeypatch, n):
    def no_walks(*args):
        raise AssertionError("a walk was drawn")

    monkeypatch.setattr(simulate, "_steps", no_walks)
    with pytest.raises(walks.DomainError, match="requires even n"):
        simulate.empirical_pmf_counts("max", n, 20_000, seed=0)


@pytest.mark.parametrize("tag,n", [("returns", 12), ("max", 12),
                                   ("halfmax", 12), ("signchanges", 13)])
def test_counts_cover_the_exact_support(tag, n):
    counts = simulate.empirical_pmf_counts(tag, n, 20_000, seed=3)
    assert len(counts) == walks.scaled_law(tag, n).base.upper + 1
    assert counts.sum() == 20_000


def test_empirical_check_fails_at_three_thresholds(monkeypatch):
    # counts of the exact law of K_4, then 3 DKW thresholds of mass moved
    # from atom 1 to atom 0: the check allows twice the threshold, so it
    # passes the first and fails the second
    trials = 160_000
    exact = walks.exact_pmf("returns", 4)
    counts = np.array(exact.numerators) * (trials // exact.denominator)
    monkeypatch.setattr(simulate, "empirical_pmf_counts",
                        lambda *args: counts)
    report = simulate.empirical_check("returns", 4, trials)
    assert report.max_cdf_deviation == 0.0 and report.passed
    shift = round(3.0 * report.dkw_threshold * trials)
    counts[0] += shift
    counts[1] -= shift
    report = simulate.empirical_check("returns", 4, trials)
    assert report.worst_atom == 0
    assert report.max_cdf_deviation == pytest.approx(
        3.0 * report.dkw_threshold, rel=1e-3)
    assert not report.passed


def test_empirical_check_halfmax():
    # N = ceil(M / 2), from the same walks as the maximum
    assert simulate.empirical_check("halfmax", 64, 100_000, seed=0).passed


def test_unknown_statistic():
    with pytest.raises(ValueError):
        simulate.empirical_pmf_counts("drift", 10, 20_000, seed=0)


def _pack(up):
    """Bool rows of up-steps, shape (rows, n), in the layout of
    `simulate._steps`: packed little-endian along each row and transposed
    to shape (ceil(n / 8), rows)."""
    return np.packbits(up, axis=1, bitorder="little").T.copy()


def _unpack(packed, n):
    """The (rows, n) 0/1 up-steps of packed walks."""
    return np.unpackbits(packed, axis=0, count=n, bitorder="little").T


@pytest.mark.parametrize("chunks,n", [
    ((simulate._CHUNK,), 64),           # one full chunk
    ((simulate._CHUNK, 1001), 7),       # partial last chunk, 7007 bytes
    ((1,), 50),                         # a single row
    ((3 * simulate._DRAW_ROWS + 5,), 7),    # a partial last slice
    ((3 * simulate._DRAW_ROWS + 5,), 65),   # rows padded from 65 to 72
], ids=["full-chunk", "partial-chunk", "single-row", "sliced-7",
        "sliced-65"])
def test_steps_are_the_bounded_integer_stream(chunks, n):
    # the top bit of each raw Philox byte is what Generator.integers(0, 2)
    # returns, chunk after chunk from one generator
    bitgen = np.random.Philox(key=9)
    rng = np.random.Generator(np.random.Philox(key=9))
    for rows in chunks:
        expected = rng.integers(0, 2, size=(rows, n), dtype=np.int8)
        assert np.array_equal(_unpack(simulate._steps(bitgen, rows, n), n),
                              expected)


@pytest.mark.parametrize("tag,n", [("signchanges", 65), ("returns", 64)])
def test_draw_slice_cannot_be_seen(monkeypatch, tag, n):
    # two chunks, the first of whole slices and the second of one whole
    # slice and 3 rows; a slice of 24 rows does not divide the chunk
    trials = simulate._CHUNK + simulate._DRAW_ROWS + 3
    counts = simulate.empirical_pmf_counts(tag, n, trials, seed=4)
    for rows in (8, 24):
        monkeypatch.setattr(simulate, "_DRAW_ROWS", rows)
        assert np.array_equal(
            simulate.empirical_pmf_counts(tag, n, trials, seed=4), counts)


def test_counts_memory_is_one_packed_chunk_and_a_slice():
    # drawing a whole chunk of raw bytes and comparing it into a bool chunk
    # peaked at 9.3 MiB on this call; one packed chunk (0.56 MiB), one slice of raw
    # bytes and of bools (0.27 MiB) and the walk's arrays peak at 1.02 MiB
    simulate.empirical_pmf_counts("signchanges", 65, 10_000, seed=0)
    tracemalloc.start()
    try:
        simulate.empirical_pmf_counts("signchanges", 65, 200_000, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def _assert_path_statistics_match_per_walk_loop(up, n):
    packed = _pack(up.astype(bool))
    columns = [simulate._path_statistic(kind, packed, n)
               for kind in ("max", "returns", "signchanges")]
    for row, *stats in zip((2 * up.astype(int) - 1).tolist(), *columns):
        assert tuple(int(v) for v in stats) == naive_walk_statistics(row)


def _extreme_walks(n):
    """All up, all down and the two alternating walks of length n: they
    reach |S_n| = n, n / 2 returns and no sign change, where a too narrow
    walk dtype would wrap without a warning."""
    return np.concatenate((
        np.ones((1, n), dtype=np.uint8),
        np.zeros((1, n), dtype=np.uint8),
        np.resize(np.array([1, 0], dtype=np.uint8), (1, n)),
        np.resize(np.array([0, 1], dtype=np.uint8), (1, n))))


@pytest.mark.parametrize("n", [1, 2, 65, 127, 128, 300])
def test_path_statistics_match_per_walk_loop(n):
    # seeded walks, plus the extreme walks
    up = np.concatenate((
        _unpack(simulate._steps(np.random.Philox(key=n), 300, n), n),
        _extreme_walks(n)))
    _assert_path_statistics_match_per_walk_loop(up, n)


@pytest.mark.parametrize("n", [32768, 32769, 65538])
def test_extreme_walks_do_not_wrap_past_int16(n):
    # an int16 walk read the all-up max at n = 32 768 as 32 767, and the
    # alternating walks' returns at n = 65 538 as 32 767
    _assert_path_statistics_match_per_walk_loop(_extreme_walks(n), n)


def test_empirical_check_names_its_worst_atom():
    report = simulate.empirical_check("max", 64, 20_000, seed=2)
    counts = simulate.empirical_pmf_counts("max", 64, 20_000, seed=2)
    gaps = np.abs(np.cumsum(counts) / 20_000
                  - walks.scaled_law("max", 64).cdf())
    assert gaps[report.worst_atom] == report.max_cdf_deviation == gaps.max()


# Digests of the counts at (n, trials = 70 000, seed = 5), recorded from the
# int32 implementation; the trials span two chunks, and n = 130 takes the
# int16 walk. A change of the Philox stream or of a statistic moves them.
@pytest.mark.parametrize("tag,n,digest", [
    ("returns", 64, "2c1f0a3bc0733c28"),
    ("max", 64, "b0dc12d1357b169e"),
    ("signchanges", 65, "05f022ae864ae02d"),
    ("max", 130, "25925473d279911b"),
])
def test_counts_digest_pinned(tag, n, digest):
    counts = simulate.empirical_pmf_counts(tag, n, 70_000, seed=5)
    assert hashlib.sha256(repr(counts.tolist()).encode()).hexdigest()[:16] \
        == digest
