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
    with pytest.raises(ValueError, match="n >= 1"):
        simulate.empirical_pmf_counts("max", n, 20_000, seed=0)


def test_unknown_statistic():
    with pytest.raises(ValueError):
        simulate.empirical_pmf_counts("drift", 10, 20_000, seed=0)
