"""The half-normal law of |Z|, Z standard normal: evaluators in numpy alone.

All functions accept scalars or numpy arrays and evaluate elementwise. A
float (or a 0-d array) runs through the same array code as a one-element
array, so it gives an np.float64 with the same bits as the same point
inside any array.
The half-normal law is these closed forms, for x >= 0: the density
p = 2 phi, the CDF F = 2 Phi - 1 = erf(x / sqrt 2), the Mills ratio
R = (1 - F)/p, H = p + x F = int F, G = p - x (1 - F) = int_x^inf (1 - F),
and the constants mean and median. Upper tails go through R, so their
relative accuracy survives where 1 - F and p underflow. The domain is
the half-line x >= 0: F, R and G read a negative x as 0, while phi and p
stay symmetric.

How R, F and the quantile are computed:
- (1 + x) R(x) on [0, inf) is one polynomial of degree 26 in
  y = (x - 4)/(x + 4), ``_MILLS_FIT``. ``tests/normal_coefficients.py``
  fits it with mpmath's ``chebyfit`` and regenerates it: its fit error is
  2.0e-18, and in doubles it is within about 1 eps of R.
- Below x = 10, R and F are read off tables of degree-5 Taylor
  polynomials at the nodes k/256, built at import. As R' = x R - 1 and
  p' = -x p, each node's coefficients follow from R and p there by a
  three-term recurrence. The node values of R come from ``_MILLS_FIT``;
  those of F are 1 - p R from x = 1 on and the Maclaurin series of F
  below, so F keeps its relative accuracy as x -> 0. An array costs one
  gather and five Horner steps, whatever its length.
  From x = 10 on, R is ``_MILLS_FIT`` and F reads the last node, 1.0,
  which F rounds to from x = 8.35 on.
- The normal quantile is Wichura's AS241 (Appl. Statist. 37, 1988, 477),
  as in CPython's ``statistics.py``: three degree-7 rationals, each
  element gathering its own branch's coefficients. The half-normal
  quantiles read it from the survival side.
Against 50-digit mpmath (``tests/test_distributions.py``), F and R are
within 2 eps relative, and the quantile within 1e-15 down to 1 - 2^-1000.
"""

from __future__ import annotations

import math

import numpy as np

INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
HALF_NORMAL_MEAN = math.sqrt(2.0 / math.pi)

# (1 + x) R(x), highest power of y = (x - 4)/(x + 4) first
_MILLS_FIT = (
    4.0306286708494854e-11, 4.926495713762318e-10, 1.8580982184297963e-10,
    -4.774365211180744e-09, -5.807877521473754e-09, 2.2190507158804392e-08,
    4.9514086533070746e-08, -5.8420134575895444e-08, -2.8556354398481753e-07,
    1.0610476066029166e-08, 1.389765921069305e-06, 1.0101651987868043e-06,
    -6.552855378430158e-06, -8.60189396552489e-06, 3.415864333339885e-05,
    5.326564186551575e-05, -0.00022021553644105825, -0.00023670149007954544,
    0.0017418487679485585, -0.0007159509388774425, -0.012539103619890907,
    0.04495912907942138, -0.08070800967907542, 0.07169048120136108,
    0.03509188023474842, -0.2423996705218074, 1.1832619145678034,
)

# AS241: (numerator, denominator), highest power first, for the central
# branch in r = 0.180625 - q^2 (the numerator is then multiplied by q), and
# the two tail branches in sqrt(-log p) - 1.6 and - 5
_AS241 = np.array([
    ((2.5090809287301226727e+3, 3.3430575583588128105e+4,
      6.7265770927008700853e+4, 4.5921953931549871457e+4,
      1.3731693765509461125e+4, 1.9715909503065514427e+3,
      1.3314166789178437745e+2, 3.3871328727963666080e+0),
     (5.2264952788528545610e+3, 2.8729085735721942674e+4,
      3.9307895800092710610e+4, 2.1213794301586595867e+4,
      5.3941960214247511077e+3, 6.8718700749205790830e+2,
      4.2313330701600911252e+1, 1.0)),
    ((7.74545014278341407640e-4, 2.27238449892691845833e-2,
      2.41780725177450611770e-1, 1.27045825245236838258e+0,
      3.64784832476320460504e+0, 5.76949722146069140550e+0,
      4.63033784615654529590e+0, 1.42343711074968357734e+0),
     (1.05075007164441684324e-9, 5.47593808499534494600e-4,
      1.51986665636164571966e-2, 1.48103976427480074590e-1,
      6.89767334985100004550e-1, 1.67638483018380384940e+0,
      2.05319162663775882187e+0, 1.0)),
    ((2.01033439929228813265e-7, 2.71155556874348757815e-5,
      1.24266094738807843860e-3, 2.65321895265761230930e-2,
      2.96560571828504891230e-1, 1.78482653991729133580e+0,
      5.46378491116411436990e+0, 6.65790464350110377720e+0),
     (2.04426310338993978564e-15, 1.42151175831644588870e-7,
      1.84631831751005468180e-5, 7.86869131145613259100e-4,
      1.48753612908506148525e-2, 1.36929880922735805310e-1,
      5.99832206555887937690e-1, 1.0)),
])
# per power, (numerator, denominator) by branch: gathered per element
_AS241_BY_POWER = np.ascontiguousarray(_AS241.transpose(2, 1, 0))

_STEPS = 256  # Taylor-table nodes per unit of x
_TABLE_END = 10.0
_LAST_NODE = _TABLE_END * _STEPS
_DEGREE = 5


def _poly(coefficients, u):
    """Horner's rule, highest power first, in place on a new array. The
    coefficients are numbers, or arrays shaped like u (one polynomial per
    element)."""
    acc = coefficients[0] * u + coefficients[1]
    for c in coefficients[2:]:
        acc *= u
        acc += c
    return acc


def _mills_fit(x):
    """R(x) at each x >= 0 of an array from _MILLS_FIT; R(inf) = 0."""
    clipped = np.minimum(x, 1e300)  # keeps y finite at inf
    return _poly(_MILLS_FIT, (clipped - 4.0) / (clipped + 4.0)) / (1.0 + x)


def _taylor(g, c, sign, const):
    """Taylor coefficients g_0 .. g_DEGREE at the nodes c of a g with
    g' = sign x g + const, from g_0 = g(c), lowest first: differentiating
    k times gives g^(k+1) = sign (x g^(k) + k g^(k-1)) for k >= 1."""
    out = [g, sign * c * g + const]
    for k in range(1, _DEGREE):
        out.append(sign * (c * out[k] + out[k - 1]) / (k + 1))
    return out


def _tables():
    """The Taylor tables of R and F: row k holds the coefficient of v^k at
    every node, highest power first, for the exact offset v = 256 x - node."""
    c = np.arange(int(_TABLE_END * _STEPS) + 1) / _STEPS
    r = _mills_fit(c)
    p = 2.0 * INV_SQRT_2PI * np.exp(-0.5 * np.square(c))
    cdf = 1.0 - p * r
    small = c < 1.0
    # F(x)/x = sqrt(2/pi) sum_n (-x^2/2)^n / (n! (2n + 1)), 17 terms at x < 1
    maclaurin = [HALF_NORMAL_MEAN * (-0.5) ** n
                 / (math.factorial(n) * (2 * n + 1))
                 for n in range(16, -1, -1)]
    cdf[small] = c[small] * _poly(maclaurin, np.square(c[small]))
    density = _taylor(p, c, -1.0, 0.0)
    cdf_terms = [cdf] + [d / (k + 1) for k, d in enumerate(density[:-1])]
    return tuple(np.array([t / _STEPS ** k for k, t in enumerate(terms)][::-1])
                 for terms in (_taylor(r, c, 1.0, -1.0), cdf_terms))


_MILLS_TABLE, _CDF_TABLE = _tables()


def _tabulated(table, x):
    """A Taylor table at each x in [0, _TABLE_END] of a flat array; nan
    reads the last node and stays nan."""
    y = x * _STEPS
    node = np.rint(np.fmin(y, _LAST_NODE))
    return _poly(table.take(node.astype(np.intp), axis=1), y - node)


def _evaluate(array_fn, x):
    """array_fn on x flattened, then shaped like x: np.float64 for a float."""
    a = np.asarray(x, dtype=float)
    return array_fn(a.ravel()).reshape(a.shape)[()]


def _mills_array(x):
    a = np.maximum(x, 0.0)
    r = _tabulated(_MILLS_TABLE, np.minimum(a, _TABLE_END))
    far = a >= _TABLE_END
    if far.any():  # the fit is 27 Horner steps, even on no elements
        r[far] = _mills_fit(a[far])
    return r


# the last node, at _TABLE_END, reads 1.0
def _cdf_array(x):
    return _tabulated(_CDF_TABLE, np.minimum(np.maximum(x, 0.0), _TABLE_END))


def _isf_array(s):
    """-Phi^{-1}(s/2), the half-normal quantile at 1 - s, by AS241 at each
    element s in [0, 1] of a flat array: Phi^{-1}(p) with p = s/2 <= 1/2,
    the upper half of AS241, and its sign flipped, which is exact. Each
    element gathers its AS241 branch's coefficients, and all are evaluated
    at once; nan stays nan."""
    p = 0.5 * s
    w = 0.5 - p  # -q in AS241
    outer = p < 0.075  # outside AS241's |q| <= 0.425
    r = np.sqrt(-np.log(np.maximum(p, 5e-324)))
    tail = r > 5.0
    v = np.where(outer, r - np.where(tail, 5.0, 1.6), 0.180625 - w * w)
    branch = np.add(outer, tail, dtype=np.intp)
    # numerators, then denominators, in one row per power
    coefficients = _AS241_BY_POWER.take(branch, axis=2).reshape(8, -1)
    ratio = _poly(coefficients, np.concatenate((v, v)))
    num, den = ratio[:s.size], ratio[s.size:]
    x = num * np.where(outer, 1.0, w) / den
    x[p == 0.0] = np.inf
    return x


def phi(x):
    """Standard normal density; |x| is clamped at 40, so x^2 cannot
    overflow, as phi is 0.0 from |x| ~ 38.6 on; nan propagates."""
    x = np.minimum(np.abs(x), 40.0)
    return INV_SQRT_2PI * np.exp(-0.5 * np.square(x))


def hn_pdf(x):
    """Half-normal density p(x) = 2 phi(x) at x >= 0."""
    return 2.0 * phi(x)


def hn_cdf(x):
    """Half-normal CDF F(x) = 2 Phi(x) - 1 = erf(x / sqrt 2) at x >= 0, with
    Phi the standard normal CDF; its Taylor table keeps the relative
    accuracy near 0 that 2 Phi - 1 cancels."""
    return _evaluate(_cdf_array, x)


def mills(x):
    """Mills ratio R(x) = (1 - F(x))/p(x) = (1 - Phi(x))/phi(x); R(0) =
    sqrt(pi/2) and R(inf) = 0. It stays finite (about 1/x) where 1 - F and
    p both underflow."""
    return _evaluate(_mills_array, x)


def hn_cdf_integral(x):
    """H(x) = p(x) + x F(x), the antiderivative of F with H(0) = p(0)."""
    return hn_pdf(x) + x * hn_cdf(x)


def hn_tail_integral(x):
    """G(x) = p(x) - x (1 - F(x)) = p(x) (1 - x R(x)), the integral of 1 - F
    over [x, inf). 1 - x R is about 1/x^2, so the relative error of R and
    the eps x^2/2 rounding of p's exponent both grow as eps x^2. x is
    clamped to [0, 40]: G is 0.0 from x = 38.41 on, G(inf) too."""
    x = np.minimum(np.maximum(x, 0.0), 40.0)
    return hn_pdf(x) * (1.0 - x * mills(x))


def _hn_isf(s):
    """Half-normal quantile at 1 - s, -Phi^{-1}(s/2), for s in [0, 1], a
    float or an array; s = 0 gives inf.

    Taken from the survival side, so s far below machine epsilon keeps its
    full relative accuracy.
    """
    return _evaluate(_isf_array, s)


def _hn_quantile(q):
    """Half-normal quantile _hn_isf(1 - q), for a float or an array; q = 1
    gives inf.

    1 - q is exact for q >= 1/2, so q just below 1 keeps a finite quantile
    instead of rounding (1 + q)/2 up to 1.
    """
    return _hn_isf(1.0 - q)


HALF_NORMAL_MEDIAN = float(_hn_isf(0.5))


def mill_bounds(x):
    """Mill's-ratio sandwich for the normal tail phi R = (1 - F)/2 at x > 0.

    Returns (lower, upper) with lower <= phi(x) R(x) <= upper, lower =
    x/(1+x^2) * phi(x) and upper = phi(x)/x; nan is refused as x <= 0 is.
    """
    arr = np.asarray(x, dtype=float)
    if not np.all(arr > 0.0):
        raise ValueError("mill_bounds requires x > 0")
    dens = phi(arr)
    lower = arr / (1.0 + np.square(arr)) * dens
    upper = dens / arr
    if np.ndim(x) == 0:
        return float(lower), float(upper)
    return lower, upper
