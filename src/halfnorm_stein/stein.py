"""Solutions of the half-normal Stein equation f'(x) - x f(x) = h(x) - E[h(Y)]
and the auxiliary functions needed to certify their norm bounds.

Test functions come in two flavours: half-line indicators 1_{[0,z]} (the
Kolmogorov class restricted to the nonnegative axis) and Lipschitz functions
with a known constant (the Wasserstein class). Indicators admit closed forms
in the half-normal CDF F and Mills ratio R of ``normal``; Lipschitz
solutions are evaluated by adaptive quadrature, on x <= LIPSCHITZ_X_MAX.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy import integrate

from .normal import (HALF_NORMAL, HALF_NORMAL_MEAN, INV_SQRT_2PI, cap_phi,
                     hn_cdf, hn_cdf_integral, hn_tail_integral, mills,
                     normal_sf, phi)
from .walks import DomainError

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# Step of the central difference that gives f_h' for Lipschitz h.
FH_PRIME_STEP = 1e-5
# Largest x where the quadrature of f_h is trusted (agreement with the
# closed forms to 1e-10); beyond about x = 2000 the peak of width 1/x inside
# [x, x + 12] escapes the quadrature rule and f_h comes out wrong.
LIPSCHITZ_X_MAX = 1000.0
SUP_GRID = 400
SUP_RESOLUTION = 1e-6


@dataclass(frozen=True)
class HalfLineIndicator:
    """h(x) = 1 for 0 <= x <= z, 0 for x > z."""

    z: float

    def __call__(self, x):
        return 1.0 if x <= self.z else 0.0


@dataclass(frozen=True)
class LipschitzFunction:
    fn: Callable[[float], float]
    lipschitz_constant: float

    def __call__(self, x):
        return self.fn(x)


TestFunction = HalfLineIndicator | LipschitzFunction

IDENTITY = LipschitzFunction(lambda x: x, 1.0)
CAPPED_AT_ONE = LipschitzFunction(lambda x: min(x, 1.0), 1.0)


def mu_h(h: TestFunction) -> float:
    """E[h(Y)] under the half-normal law."""
    if isinstance(h, HalfLineIndicator):
        return HALF_NORMAL.cdf(h.z)
    val, _ = integrate.quad(lambda t: h(t) * HALF_NORMAL.pdf(t), 0.0, np.inf,
                            epsabs=1e-12, epsrel=1e-12, limit=200)
    return val


def fz(z: float, x: float | np.ndarray) -> float | np.ndarray:
    """Closed-form Stein solution for the indicator 1_{[0,z]}.

    f_z(x) = (F(min(x,z)) - F(x)F(z)) / p(x), extended by 0 at x <= 0,
    that is F(x) (1 - F(z)) / p(x) for x <= z and F(z) R(x) for x > z, with
    the Mills ratio R; on the diagonal f_z(z) = F(z) R(z). Elementwise in
    x; each branch is evaluated only where it applies, and neither divides
    by p.
    """
    xs = np.asarray(x, dtype=float)
    out = np.zeros_like(xs)
    if not z < 0.0:
        positive = xs > 0.0
        left = positive & (xs <= z)
        right = positive & ~left
        out[left] = hn_cdf(xs[left]) * _tail_over_density(z, xs[left])
        out[right] = hn_cdf(z) * mills(xs[right])
    return float(out) if np.ndim(x) == 0 else out


def fz_prime(z: float, x: float | np.ndarray,
             side: str | None = None) -> float | np.ndarray:
    """Derivative of f_z via f_z'(x) = x f_z(x) + 1_{[0,z]}(x) - F(z).

    Elementwise in x. f_z' jumps at x = z; there the caller must pick side
    'left' or 'right'.
    The left limit is f_z'(z-) = z R(z) F(z) + 1 - F(z) with the Mills ratio
    R = (1 - F)/p, and the Mills-ratio bounds z/(1+z^2) <= R(z) <= 1/z
    (see normal.mill_bounds) give z^2/(1+z^2) <= f_z'(z-) <= 1.
    """
    xs = np.asarray(x, dtype=float)
    if side is None and np.any(xs == z):
        raise ValueError("f_z' jumps at x = z; pass side='left' or side='right'")
    indicator = np.where(xs <= z if side == "left" else xs < z, 1.0, 0.0)
    out = xs * fz(z, xs) + indicator - HALF_NORMAL.cdf(z)
    return float(out) if np.ndim(x) == 0 else out


def fz_prime_hg(z: float, x: float, side: str | None = None) -> float:
    """Same derivative through the monotonicity factorisation:
    (1-F(z)) H(x)/p(x) on x < z and -F(z) G(x)/p(x) on x > z, where
    G/p = 1 - x R(x). It shares F and R with fz_prime, so the independent
    oracle of both is mpmath, not the other route.
    """
    if x == z and side is None:
        raise ValueError("f_z' jumps at x = z; pass side='left' or side='right'")
    if x < z or (x == z and side == "left"):
        return hn_cdf_integral(x) * _tail_over_density(z, x)
    return -hn_cdf(z) * (1.0 - x * mills(x))


def _tail_over_density(z: float, x):
    """(1 - F(z))/p(x) = R(z) exp((x - z)(x + z)/2) for x <= z, finite
    where 1 - F(z) and p(x) both underflow."""
    return mills(z) * np.exp(0.5 * (x - z) * (x + z))


def _lipschitz_solver(h: LipschitzFunction,
                      mu: float) -> Callable[[float], float]:
    """x -> f_h(x) for Lipschitz h with E[h(Y)] = mu bound once.

    The integral representation is switched at the half-normal median:
    below it the integral from 0 is short and well conditioned, above it
    the complementary integral avoids cancellation against exp(x^2/2).
    An x beyond LIPSCHITZ_X_MAX (or nan) raises DomainError.
    """
    median = HALF_NORMAL.median

    def solve(x: float) -> float:
        if x <= 0.0:
            return 0.0
        if not x <= LIPSCHITZ_X_MAX:
            raise DomainError(f"f_h is evaluated by quadrature only for "
                              f"x <= {LIPSCHITZ_X_MAX:g}, got x = {x}")
        lo, hi = (0.0, x) if x <= median else (x, x + 12.0)
        val, _ = integrate.quad(
            lambda t: (h(t) - mu) * math.exp(0.5 * (x * x - t * t)),
            lo, hi, epsabs=1e-14, epsrel=1e-13, limit=200)
        return val if x <= median else -val

    return solve


def _difference_quotient(solve: Callable[[float], float], x: float) -> float:
    """Central difference of solve at x, forward where x - step < 0."""
    lo = max(x - FH_PRIME_STEP, 0.0)
    return (solve(x + FH_PRIME_STEP) - solve(lo)) / (x + FH_PRIME_STEP - lo)


def solve_fh(h: TestFunction, x: float) -> float:
    """The standard Stein-equation solution f_h at x >= 0.

    Indicators use the closed form, Lipschitz h adaptive quadrature.
    """
    if isinstance(h, HalfLineIndicator):
        return fz(h.z, x)
    return _lipschitz_solver(h, mu_h(h))(x)


def solve_fh_prime(h: TestFunction, x: float) -> float:
    """Central-difference derivative of f_h (closed form for indicators)."""
    if isinstance(h, HalfLineIndicator):
        return fz_prime(h.z, x, side="left")
    return _difference_quotient(_lipschitz_solver(h, mu_h(h)), x)


def stein_residual_continuous(h: TestFunction, x: float) -> float:
    """f'(x) - x f(x) - (h(x) - E[h(Y)]); zero for the exact solution."""
    mu = mu_h(h)
    if isinstance(h, HalfLineIndicator):
        f_prime, f = fz_prime(h.z, x, side="left"), fz(h.z, x)
    else:
        solve = _lipschitz_solver(h, mu)
        f_prime, f = _difference_quotient(solve, x), solve(x)
    return f_prime - x * f - (h(x) - mu)


# ---------------------------------------------------------------------------
# Auxiliary functions from the bound proofs.
# ---------------------------------------------------------------------------

def aux_M(x):
    """F(x)/p(x); M(0) = 0 by continuous extension."""
    return hn_cdf(x) / (2.0 * phi(x))


# The paper's N = (1 - F)/p, H = p - F psi and G = H + psi, psi(x) = -x.
aux_N = mills
aux_H = hn_cdf_integral
aux_G = hn_tail_integral


def aux_U(x):
    return 2.0 * x * phi(x) - 2.0 * normal_sf(x) * (1.0 + np.square(x))


def aux_V(x):
    """Second-derivative weight; named aux_V to avoid clashing with the
    auxiliary random variable V = 2 N_n / sqrt(n)."""
    return -hn_cdf(x) * (1.0 + np.square(x)) - 2.0 * x * phi(x)


def aux_S(x):
    """Sharp Lipschitz bound on |f_h'|; max value sqrt(2/pi) at x = 0.
    It is 2 (G/p)(x) (H(x) - phi(0)), with G/p = 1 - x R(x)."""
    return 2.0 * (1.0 - x * mills(x)) * (hn_cdf_integral(x) - INV_SQRT_2PI)


def aux_D1(x):
    """phi/2 - (1 - cap_phi) F; nonnegative on [0, inf)."""
    return 0.5 * phi(x) - normal_sf(x) * hn_cdf(x)


def aux_D2(x):
    """-x/2 + 4 cap_phi(x) - 3; nonpositive with max about -0.01702."""
    return -0.5 * x + 4.0 * cap_phi(x) - 3.0


_AUX = {"M": aux_M, "N": aux_N, "H": aux_H, "G": aux_G,
        "U": aux_U, "V": aux_V, "S": aux_S, "D1": aux_D1, "D2": aux_D2}


def aux_eval(name: str, x):
    if name not in _AUX:
        raise ValueError(f"unknown auxiliary function {name!r}")
    return _AUX[name](x)


# ---------------------------------------------------------------------------
# Supremum certification.
# ---------------------------------------------------------------------------

def sup_search(f: Callable, lo: float, hi: float) -> tuple[float, float]:
    """Locate the supremum of f on [lo, hi]; f is elementwise in x.

    Coarse scan of SUP_GRID points in one call of f, followed by
    golden-section refinement on the bracket around the best grid point.
    Exact within SUP_RESOLUTION for unimodal f; for general f the result
    is the refined grid maximum.
    """
    if hi <= lo:
        raise ValueError("empty search interval")
    xs = np.linspace(lo, hi, SUP_GRID)
    vals = f(xs)
    i = int(np.argmax(vals))
    a = xs[max(i - 1, 0)]
    b = xs[min(i + 1, SUP_GRID - 1)]

    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while b - a > SUP_RESOLUTION:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = f(d)
    best = max((vals[i], xs[i]), (fc, c), (fd, d))
    return float(best[1]), float(best[0])


# ---------------------------------------------------------------------------
# Lemma certification reports.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundCheck:
    name: str
    observed: float
    limit: float

    @property
    def margin(self) -> float:
        return self.limit - self.observed

    @property
    def passed(self) -> bool:
        return self.margin >= 0.0


@dataclass(frozen=True)
class BoundReport:
    kind: str
    checks: tuple[BoundCheck, ...] = field(default_factory=tuple)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _indicator_bound_report(z_hi: float, grid: int) -> BoundReport:
    # One row per level z, vectorised over x. The z grid is the x grid, so
    # x = z lies in each row: the row holds the right limit of f_z' there,
    # and the left limit is added where the region x < z is nonempty.
    xs = np.linspace(0.0, z_hi, grid)
    sup_abs = 0.0
    sup_prime = 0.0
    for z in xs:
        sup_abs = max(sup_abs, float(np.max(np.abs(fz(z, xs)))))
        sup_prime = max(sup_prime,
                        float(np.max(np.abs(fz_prime(z, xs, side="right")))))
        if z > 0.0:
            sup_prime = max(sup_prime, abs(fz_prime(z, z, side="left")))
    # The sup of |f_z| over x sits at x = z; refine along that diagonal.
    _, diag_sup = sup_search(lambda z: hn_cdf(z) * mills(z), 0.0, z_hi)
    sup_abs = max(sup_abs, diag_sup)
    return BoundReport(kind="indicator", checks=(
        BoundCheck("sup |f_z|", sup_abs, 0.5),
        BoundCheck("sup |f_z'|", sup_prime, 1.0),
    ))


def _lipschitz_bound_report(h: LipschitzFunction, x_hi: float,
                            grid: int) -> BoundReport:
    lip = h.lipschitz_constant
    solve = _lipschitz_solver(h, mu_h(h))
    xs = np.linspace(0.0, x_hi, grid)
    f_vals = np.array([solve(x) for x in xs])

    sup_f = float(np.max(np.abs(f_vals)))
    sup_fp = float(max(abs(_difference_quotient(solve, x)) for x in xs))

    # Second derivative by a wide central difference: f is only accurate to
    # quadrature tolerance, so a 1e-3 step keeps the roundoff term below 1e-4.
    step = 1e-3
    sup_fpp = 0.0
    for x, f_x in zip(xs, f_vals):
        if x < step:
            continue
        f2 = (solve(x + step) - 2.0 * f_x + solve(x - step)) / (step * step)
        sup_fpp = max(sup_fpp, abs(f2))
    return BoundReport(kind="lipschitz", checks=(
        BoundCheck("sup |f_h|", sup_f, lip),
        BoundCheck("sup |f_h'|", sup_fp, HALF_NORMAL_MEAN * lip),
        BoundCheck("sup |f_h''|", sup_fpp, 2.0 * lip + 1e-4),
    ))


def verify_lemma_bounds(kind: str, *, z_hi: float = 8.0, grid: int = 400,
                        h: LipschitzFunction | None = None) -> BoundReport:
    """Certify the proved norm bounds on a grid with local refinement.

    kind='indicator': sup |f_z| <= 1/2 and sup |f_z'| <= 1 over z, x in
    [0, z_hi]^2, with golden-section refinement of the diagonal supremum.
    The bound 1 on |f_z'| is approached only in the limits z -> inf, where
    f_z'(z-) is about 1 - 1/z^2 (see fz_prime), and z -> 0+, where it is
    about 1 - sqrt(2/pi) z, so the observed sup |f_z'| falls short of 1; at
    the defaults it is f_z'(8-) = 0.985056, about 1 - 1/z_hi^2.
    kind='lipschitz': sup |f_h| <= L, sup |f_h'| <= sqrt(2/pi) L and
    sup |f_h''| <= 2L for the given h (default: identity).
    A grid of fewer than 2 points or a range z_hi <= 0 would certify
    nothing, so both raise ValueError.
    """
    if grid < 2:
        raise ValueError(f"grid needs at least 2 points, got {grid}")
    if not z_hi > 0.0:
        raise ValueError(f"z_hi must be positive, got {z_hi}")
    if kind == "indicator":
        return _indicator_bound_report(z_hi, grid)
    if kind == "lipschitz":
        return _lipschitz_bound_report(h if h is not None else IDENTITY,
                                       z_hi, grid)
    raise ValueError(f"unknown bound suite {kind!r}")


def verify_monotone_xfz(z: float, grid) -> bool:
    """True iff x -> x f_z(x) is nondecreasing along the given grid."""
    xs = np.asarray(grid, dtype=float)
    vals = xs * fz(z, xs)
    return bool(np.all(np.diff(vals) >= -1e-13))
