"""Regenerate and check the coefficient tables of ``halfnorm_stein.normal``.

Run as ``python tests/normal_coefficients.py`` (needs mpmath). It prints

- ``_MILLS_FIT``: (1 + x) R(x) as a polynomial in y = (x - 4)/(x + 4),
  highest power first, for the Mills ratio R(x) = (1 - Phi(x))/phi(x) on
  x in [0, inf), i.e. y in [-1, 1]. ``mpmath.chebyfit`` at 40 digits, 27
  coefficients; at y = 1 (x = inf) the target is its limit 1;
- the fit's own error estimate, and the relative error of ``normal.mills``
  and ``normal.hn_cdf`` against 50-digit mpmath on a grid, in units of
  eps = 2^-52;
- the hash sums of the three AS241 rationals in ``_AS241`` (the sums of
  the decimal significands of their coefficients, the denominators'
  constant 1 left out), against those printed in Wichura (1988) and
  CPython's ``statistics.py``. That table is transcribed, not fitted.

Not collected by pytest; the accuracy budgets live in
``tests/test_distributions.py``.
"""

import mpmath
import numpy as np

from halfnorm_stein import normal

mpmath.mp.dps = 40
DEGREE = 26
CENTRE = 4  # y = (x - CENTRE)/(x + CENTRE)
AS241_HASH_SUMS = ("55.8831928806149014439", "49.3320650330161028903",
                   "47.5258331754928967163")


def mills_exact(x):
    x = mpmath.mpf(x)
    return (mpmath.sqrt(mpmath.pi / 2) * mpmath.erfc(x / mpmath.sqrt(2))
            * mpmath.exp(x * x / 2))


def fit_mills():
    def target(y):
        if y == 1:
            return mpmath.mpf(1)
        x = CENTRE * (1 + y) / (1 - y)
        return (1 + x) * mills_exact(x)

    return mpmath.chebyfit(target, [-1, 1], DEGREE + 1, error=True)


def worst_eps(fn, exact, xs):
    with mpmath.workdps(50):
        ref = [exact(mpmath.mpf(x)) for x in xs]
    got = fn(xs)
    return max(float(abs((g - r) / r)) for g, r in zip(got, ref) if r != 0
               ) / np.finfo(float).eps


def main():
    coefficients, error = fit_mills()
    print("_MILLS_FIT = (")
    for c in coefficients:
        print(f"    {float(c)!r},")
    print(")")
    print(f"fit error {float(error):.2e}")
    xs = np.concatenate([np.linspace(0.0, 12.0, 3001),
                         np.geomspace(1e-3, 1e3, 601)])
    cdf_exact = lambda x: mpmath.erf(x / mpmath.sqrt(2))  # noqa: E731
    print(f"mills  {worst_eps(normal.mills, mills_exact, xs):.2f} eps")
    print(f"hn_cdf {worst_eps(normal.hn_cdf, cdf_exact, xs[xs > 0]):.2f} eps")
    for (num, den), expected in zip(normal._AS241, AS241_HASH_SUMS):
        total = mpmath.fsum(
            c / mpmath.mpf(10) ** mpmath.floor(mpmath.log10(c))
            for c in map(mpmath.mpf, (*num, *den[:-1])))
        off = float(abs(total - mpmath.mpf(expected)))
        print(f"AS241 hash sum {mpmath.nstr(total, 17)}, published "
              f"{expected}: {off:.0e} off")


if __name__ == "__main__":
    main()
