import hashlib
import itertools
import math

import numpy as np
import pytest

from halfnorm_stein import simulate, walks


def test_single_walk_deterministic():
    a = simulate.simulate_walk(50, seed=7)
    b = simulate.simulate_walk(50, seed=7)
    assert a == b
    c = simulate.simulate_walk(50, seed=8)
    assert (a.max_value, a.returns, a.sign_changes) != \
        (c.max_value, c.returns, c.sign_changes) or True  # may collide; ranges below


def test_single_walk_ranges():
    for seed in range(40):
        s = simulate.simulate_walk(21, seed=seed)
        assert 0 <= s.max_value <= 21
        assert 0 <= s.returns <= 10
        assert 0 <= s.sign_changes <= 10


def test_length_one_walk():
    s = simulate.simulate_walk(1, seed=123)
    assert s.returns == 0
    assert s.sign_changes == 0
    assert s.max_value in (0, 1)
    with pytest.raises(ValueError):
        simulate.simulate_walk(0, seed=0)


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
    exact = walks.pmf_returns(n // 2)
    counts = simulate.empirical_pmf_counts("returns", n, trials, seed=42)
    for k, mass in zip(exact.support(), exact.float_masses()):
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


def test_empirical_check_halfmax():
    # N = ceil(M / 2), from the same walks as the maximum
    assert simulate.empirical_check("halfmax", 64, 100_000, seed=0).passed


def test_unknown_statistic():
    with pytest.raises(ValueError):
        simulate.empirical_pmf_counts("drift", 10, 20_000, seed=0)


def _naive_walk_statistics(steps):
    """(max, returns, sign changes) of one walk, in Python integers; a sign
    change at time k is S_{k-1} S_{k+1} < 0."""
    walk = list(itertools.accumulate(steps, initial=0))
    changes = sum(walk[k - 1] * walk[k + 1] < 0 for k in range(1, len(steps)))
    return max(walk), walk[1:].count(0), changes


@pytest.mark.parametrize("n", [1, 2, 65, 127, 128, 300])
def test_path_statistics_match_per_walk_loop(n):
    # seeded walks, plus the extreme walks that reach |S_n| = n, where a
    # too narrow cumsum dtype would wrap without a warning
    rng = np.random.Generator(np.random.Philox(key=n))
    steps = np.concatenate((
        simulate._steps(rng, 300, n),
        np.ones((1, n), dtype=np.int8),
        -np.ones((1, n), dtype=np.int8),
        np.resize(np.array([1, -1], dtype=np.int8), (1, n)),
        np.resize(np.array([-1, 1], dtype=np.int8), (1, n))))
    assert steps.dtype == np.int8
    columns = simulate._path_statistics(steps)
    for row, *stats in zip(steps.tolist(), *columns):
        assert tuple(int(v) for v in stats) == _naive_walk_statistics(row)


# Digests of the counts at (n, trials = 70 000, seed = 5), recorded from the
# int32 implementation; the trials span two chunks, and n = 130 takes the
# wide cumsum. A change of the Philox stream or of a statistic moves them.
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
