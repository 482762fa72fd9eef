"""The float CDF route of walks.float_law against the exact laws.

Error budget: the float route loses about one rounding per ratio, per
product and per partial sum; up to n = 4096 its CDF was measured within
4e-15 of the exactly rounded CDF, and d_K, d_W within 7e-14 of the exact
route. The budgets below leave room over those figures and stay
well inside the 1e-10 headroom of the acceptance sweep.
"""

import numpy as np
import pytest

from halfnorm_stein import metrics, walks

CDF_BUDGET = 1e-13
DISTANCE_BUDGET = 1e-12


def admissible(tag):
    first = 3 if tag == "signchanges" else 2
    return [*range(first, 257, 2), *range(first + 256, first + 4094, 62),
            first + 4094]


@pytest.mark.parametrize("tag", walks.STATISTICS)
def test_float_law_matches_exact_law(tag):
    for n in admissible(tag):
        exact = walks.scaled_law(tag, n)
        fast = walks.float_law(tag, n)
        cdf = fast.cdf()
        assert np.array_equal(fast.atoms(), exact.atoms())
        assert np.max(np.abs(cdf - exact.cdf())) <= CDF_BUDGET
        assert cdf[-1] == 1.0
        assert np.all(np.diff(cdf) >= 0.0)
        assert abs(metrics.kolmogorov_exact(fast)
                   - metrics.kolmogorov_exact(exact)) <= DISTANCE_BUDGET
        assert abs(metrics.wasserstein_exact(fast)
                   - metrics.wasserstein_exact(exact)) <= DISTANCE_BUDGET


@pytest.mark.parametrize("tag,n", [("returns", 5), ("returns", 0),
                                   ("max", 3), ("halfmax", 7),
                                   ("signchanges", 4), ("signchanges", 1),
                                   ("mean", 4)])
def test_float_law_rejects_bad_n(tag, n):
    with pytest.raises(ValueError):
        walks.float_law(tag, n)
    with pytest.raises(ValueError):
        walks.scaled_law(tag, n)
