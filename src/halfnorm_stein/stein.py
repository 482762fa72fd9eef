"""Solutions of the half-normal Stein equation f'(x) - x f(x) = h(x) - E[h(Y)]
and the auxiliary functions needed to certify their norm bounds.

Test functions come in three flavours: half-line indicators 1_{[0,z]} (the
Kolmogorov class restricted to the nonnegative axis), the capped identities
min(x, c), c in (0, inf], and opaque Lipschitz functions with a known
constant (the Wasserstein class). Indicators and capped identities admit
closed forms in the half-normal CDF F and Mills ratio R of ``normal``;
an opaque Lipschitz h is solved by adaptive quadrature, which the tests
also use as the oracle of the closed forms. Every Lipschitz solution is
evaluated on x <= LIPSCHITZ_X_MAX.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, ClassVar

import numpy as np
from scipy import integrate

from .normal import (HALF_NORMAL_MEAN, HALF_NORMAL_MEDIAN, INV_SQRT_2PI,
                     cap_phi, hn_cdf, hn_cdf_integral, hn_pdf,
                     hn_tail_integral, mills, normal_sf, phi)
from .walks import DomainError

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# Step of the central difference that gives f_h' for Lipschitz h.
FH_PRIME_STEP = 1e-5
# Largest x where f_h of a Lipschitz h is evaluated. The quadrature of an
# opaque h agrees with the closed forms to 1e-10 up to here; by x = 1e5 the
# peak of width 1/x at the left end of a mesh gap escapes the quadrature
# rule and f_h comes out wrong.
LIPSCHITZ_X_MAX = 1000.0
# Knot spacing of the mesh that cuts the tail integral of an opaque h
# (see _quadrature_solution): a power of 2, so x / _KNOT_GAP and every knot
# are exact. The grid-50 certification of min(x, c) calls h 9 573 times
# per suite at 1/2 and 12 782 at 1; 1/4 saves 3 % of those calls but
# integrates twice the gaps for a point solved on its own.
_KNOT_GAP = 0.5
# K^2 - k0^2 where the tail sum stops: there w_k0(K) = 2^-64.
_TAIL_EXPONENT = 128.0 * math.log(2.0)
SUP_GRID = 400
SUP_RESOLUTION = 1e-6
# Levels z per block of the indicator suite's (z, x) grid: large enough to
# amortise numpy's per-call cost, small enough that a block's temporaries
# stay a few pages of memory.
Z_BLOCK = 16


@dataclass(frozen=True)
class HalfLineIndicator:
    """h(x) = 1 for 0 <= x <= z, 0 for x > z."""

    z: float

    def __call__(self, x):
        return 1.0 if x <= self.z else 0.0


@dataclass(frozen=True)
class CappedIdentity:
    """h(x) = min(x, c) for a cap c in (0, inf]; c = inf is h(x) = x.
    Elementwise in x; its Stein solution has a closed form."""

    c: float = math.inf
    lipschitz_constant: ClassVar[float] = 1.0

    def __call__(self, x):
        return np.minimum(x, self.c)


@dataclass(frozen=True)
class LipschitzFunction:
    """An opaque scalar h with a known Lipschitz constant, solved by
    quadrature.

    The adaptive rule can step over a kink of h that lies within about
    1e-3 of an evaluation point and still report success. For
    h = min(x, c) on a 400-point grid over [0, 8], 300 caps c in
    [0.05, 7.9] give f_h within 1e-10 of the closed form for 263 caps.
    The worst misses are 3.7e-7 in the solver (c = 6.036, x = 6.035) and
    6.0e-7 in E[h(Y)], all without an IntegrationWarning.
    """

    fn: Callable[[float], float]
    lipschitz_constant: float

    def __call__(self, x):
        return self.fn(x)


Lipschitz = CappedIdentity | LipschitzFunction
TestFunction = HalfLineIndicator | Lipschitz

IDENTITY = CappedIdentity()
CAPPED_AT_ONE = CappedIdentity(1.0)


def mu_h(h: TestFunction) -> float:
    """E[h(Y)] under the half-normal law.

    For 1_{[0,z]} it is F(z), and 0 where z is not positive (or nan).
    For min(x, c) it is the integral of 1 - F over [0, c], p(0) - G(c),
    for every cap c, c = inf included; an opaque h is integrated by
    quadrature.
    """
    if isinstance(h, HalfLineIndicator):
        return float(hn_cdf(h.z)) if h.z > 0.0 else 0.0
    if isinstance(h, CappedIdentity):
        return HALF_NORMAL_MEAN - float(hn_tail_integral(h.c))
    val, _ = integrate.quad(lambda t: h(t) * hn_pdf(t), 0.0, np.inf,
                            epsabs=1e-12, epsrel=1e-12, limit=200)
    return val


def fz(z: float | np.ndarray, x: float | np.ndarray) -> float | np.ndarray:
    """Closed-form Stein solution for the indicator 1_{[0,z]}.

    f_z(x) = (F(min(x,z)) - F(x)F(z)) / p(x), extended by 0 at x <= 0,
    that is F(x) (1 - F(z)) / p(x) for x <= z and F(z) R(x) for x > z, with
    the Mills ratio R; on the diagonal f_z(z) = F(z) R(z). Elementwise, z
    broadcasting against x: fz(z[:, None], xs) is a (z, x) grid. Neither
    branch divides by p, and both are finite on x and z clamped at 0.
    """
    xs, zs = np.asarray(x, dtype=float), np.maximum(z, 0.0)
    at = np.maximum(xs, 0.0)
    out = np.where(xs > 0.0,
                   np.where(at <= zs, hn_cdf(at) * _tail_over_density(zs, at),
                            hn_cdf(zs) * mills(at)), 0.0)
    return out if out.ndim else float(out)


def fz_prime(z: float | np.ndarray, x: float | np.ndarray,
             side: str | None = None) -> float | np.ndarray:
    """Derivative of f_z, elementwise, z broadcasting against x as in fz.

    f_z'(x) = x f_z(x) + 1_{[0,z]}(x) - F(z), evaluated through the
    monotonicity factorisation: H(x) (1 - F(z))/p(x) on x < z and
    -F(z) G(x)/p(x) = -F(z) (1 - x R(x)) on x > z, with H = int F and the
    Mills ratio R. The left branch does not cancel where F(z) rounds to 1,
    as x f_z + 1 - F(z) does. At x < 0, where f_z = 0, the value is
    that at x = 0, 1 - F(z); for z < 0, f_z = 0 and so is f_z'.
    f_z' jumps at x = z; there the caller must pick side 'left' or 'right'.
    The left limit is f_z'(z-) = H(z) R(z), and the Mills-ratio bounds
    z/(1+z^2) <= R(z) <= 1/z (see normal.mill_bounds) give
    z^2/(1+z^2) <= f_z'(z-) <= 1.
    """
    xs = np.asarray(x, dtype=float)
    if side is None and np.any(xs == z):
        raise ValueError("f_z' jumps at x = z; pass side='left' or side='right'")
    at, zs = np.maximum(xs, 0.0), np.maximum(z, 0.0)
    left = xs <= z if side == "left" else xs < z
    out = np.where(z < 0.0, 0.0,
                   np.where(left,
                            hn_cdf_integral(at) * _tail_over_density(zs, at),
                            -hn_cdf(zs) * (1.0 - at * mills(at))))
    return out if out.ndim else float(out)


def _density_ratio(z, x):
    """p(z)/p(x) = exp(-d m) for 0 <= x <= z, with d = z - x and
    m = (x + z)/2 >= d/2, elementwise in z and x.

    d is clipped to [0, 40] and m capped at 1e300, so d m can neither
    overflow nor turn the exponent positive where x > z. The upper caps
    bind only where exp(-d m) is 0.0 anyway: d >= 40 gives d m >= 800, and
    m > 1e300 needs z > 1e300, where d = 0 or d > 40.
    """
    m = np.minimum(0.5 * x + 0.5 * z, 1e300)
    return np.exp(-np.clip(z - x, 0.0, 40.0) * m)


def _tail_over_density(z, x):
    """(1 - F(z))/p(x) = R(z) p(z)/p(x) for 0 <= x <= z, finite where
    1 - F(z) and p(x) both underflow."""
    return mills(z) * _density_ratio(z, x)


def _capped_identity_solution(h: CappedIdentity, mu: float, xs):
    """f_h at x > 0 for h = min(x, c) with E[h(Y)] = mu, elementwise.

    Solving f' - x f = h - mu with f(0) = 0 gives
    f = mu R(x) - 1 + (1 - c R(c)) p(c)/p(x) on x <= c and
    f = -(c - mu) R(x) on x > c; the last term of the left branch vanishes
    at c = inf. Each branch is evaluated only where it applies.
    """
    c = h.c
    out = np.empty_like(xs)
    left = xs <= c
    out[left] = mu * mills(xs[left]) - 1.0
    if c < math.inf:
        out[left] += (1.0 - c * mills(c)) * _density_ratio(c, xs[left])
    out[~left] = -(c - mu) * mills(xs[~left])
    return out


def _quadrature_solution(h: LipschitzFunction, mu: float, xs,
                         gap_integrals: dict[int, float]):
    """f_h at x > 0 for an opaque h with E[h(Y)] = mu, by adaptive
    quadrature over a fixed knot mesh; gap_integrals holds the I_k below
    already integrated for this h and mu, by knot index, and is filled in.

    With g = h - mu and w_x(t) = exp((x^2 - t^2)/2), f_h(x) is the short,
    well-conditioned int_0^x g w_x up to the half-normal median; above it
    the complementary -int_x^inf g w_x avoids cancellation against
    exp(x^2/2). That tail is cut at the knots j * _KNOT_GAP: the partial
    piece from x to the first knot k0 >= x, then the gap integrals
    I_k = int_k^{k + gap} g w_k, each integrated once and shared by every
    x that reaches it, summed by the Horner recurrence
    S_k = I_k + exp((k^2 - (k + gap)^2)/2) S_{k + gap} out to the first
    knot K with w_k0(K) <= 2^-64, so f_h(x) = -(int_x^k0 g w_x
    + w_x(k0) S_k0). An L-Lipschitz h has |g(t)| <= L (t + 0.8), so the
    tail dropped past K is below 2^-63 L. A value depends only on x and h,
    never on the other points of xs or on the calls that filled
    gap_integrals.
    """
    median, gap = HALF_NORMAL_MEDIAN, _KNOT_GAP

    def integral(x, lo, hi):
        val, _ = integrate.quad(
            lambda t: (h(t) - mu) * math.exp(0.5 * (x * x - t * t)),
            lo, hi, epsabs=1e-14, epsrel=1e-13, limit=200)
        return val

    out = np.empty_like(xs)
    for i, x in enumerate(xs):
        if x <= median:
            out[i] = integral(x, 0.0, x)
            continue
        first = math.ceil(x / gap)
        k0 = first * gap
        end = first + math.ceil((math.sqrt(k0 * k0 + _TAIL_EXPONENT)
                                 - k0) / gap)
        tail = 0.0
        for j in range(end - 1, first - 1, -1):
            k = j * gap
            if j not in gap_integrals:
                gap_integrals[j] = integral(k, k, k + gap)
            tail = gap_integrals[j] + math.exp(-gap * (k + 0.5 * gap)) * tail
        part = integral(x, x, k0) if x < k0 else 0.0
        out[i] = -(part + math.exp(0.5 * (x * x - k0 * k0)) * tail)
    return out


def _lipschitz_solver(h: Lipschitz, mu: float) -> Callable:
    """x -> f_h(x) for Lipschitz h with E[h(Y)] = mu, elementwise: the
    closed form for min(x, c), quadrature for an opaque h; f_h = 0 at
    x <= 0. An x beyond LIPSCHITZ_X_MAX (or nan) raises DomainError.
    The solver of an opaque h keeps its gap integrals while it lives, so
    the calls it serves integrate each mesh gap once.
    """
    gap_integrals: dict[int, float] = {}

    def solve(x) -> np.ndarray:
        xs = np.asarray(x, dtype=float)
        positive = ~(xs <= 0.0)
        beyond = positive & ~(xs <= LIPSCHITZ_X_MAX)
        if np.any(beyond):
            raise DomainError(f"f_h of a Lipschitz h is evaluated only for "
                              f"x <= {LIPSCHITZ_X_MAX:g}, "
                              f"got x = {xs[beyond].flat[0]}")
        out = np.zeros_like(xs)
        if isinstance(h, CappedIdentity):
            out[positive] = _capped_identity_solution(h, mu, xs[positive])
        else:
            out[positive] = _quadrature_solution(h, mu, xs[positive],
                                                 gap_integrals)
        return out

    return solve


def _difference_quotient(h: Lipschitz, f: Callable, x) -> np.ndarray:
    """f_h' at x by differences of f_h, given as the solver f of h,
    elementwise: central with step s, forward where x - s < 0.

    f_h'' jumps where h' does, at x = c for min(x, c), and a central
    stencil across that kink is off by s/4 (2.5e-6). Within s of the kink
    (and at x >= 2 s) the stencil is the second-order one-sided one,
    (4 f(x + t) - 3 f(x) - f(x + 2t)) / (2t), with t = s on x >= c and
    t = -s below it. The kinks of an opaque h are unknown.
    """
    s = FH_PRIME_STEP
    xs = np.asarray(x, dtype=float)
    lo = np.maximum(xs - s, 0.0)
    out = np.array((f(xs + s) - f(lo)) / (xs + s - lo))
    if isinstance(h, CappedIdentity):
        near = (np.abs(xs - h.c) < s) & (xs >= 2.0 * s)
        if np.any(near):
            at = xs[near]
            t = np.where(at >= h.c, s, -s)
            out[near] = (4.0 * f(at + t) - 3.0 * f(at)
                         - f(at + 2.0 * t)) / (2.0 * t)
    return out


def solve_fh(h: TestFunction, x):
    """The standard Stein-equation solution f_h at x >= 0, elementwise.

    Indicators and capped identities use their closed forms, an opaque
    Lipschitz h adaptive quadrature.
    """
    if isinstance(h, HalfLineIndicator):
        return fz(h.z, x)
    out = _lipschitz_solver(h, mu_h(h))(x)
    return float(out) if np.ndim(x) == 0 else out


def solve_fh_prime(h: TestFunction, x):
    """f_h', elementwise: the closed form for indicators, a central
    difference of f_h for Lipschitz h."""
    if isinstance(h, HalfLineIndicator):
        return fz_prime(h.z, x, side="left")
    out = _difference_quotient(h, _lipschitz_solver(h, mu_h(h)), x)
    return float(out) if np.ndim(x) == 0 else out


def stein_residual_continuous(h: TestFunction, x: float) -> float:
    """f'(x) - x f(x) - (h(x) - E[h(Y)]); zero for the exact solution."""
    mu = mu_h(h)
    if isinstance(h, HalfLineIndicator):
        f_prime, f = fz_prime(h.z, x, side="left"), fz(h.z, x)
    else:
        solve = _lipschitz_solver(h, mu)
        f_prime, f = _difference_quotient(h, solve, x), solve(x)
    return float(f_prime - x * f - (h(x) - mu))


# ---------------------------------------------------------------------------
# Auxiliary functions from the bound proofs.
# ---------------------------------------------------------------------------

def aux_M(x):
    """F(x)/p(x); M(0) = 0 by continuous extension. M exceeds the double
    range from x = 37.68, so inf is its value there, not a warning."""
    with np.errstate(over="ignore", divide="ignore"):
        return hn_cdf(x) / (2.0 * phi(x))


# The paper's N = (1 - F)/p, H = p - F psi and G = H + psi, psi(x) = -x,
# are normal.mills, hn_cdf_integral and hn_tail_integral.


def aux_U(x):
    """2 x phi - 2 (1 - Phi)(1 + x^2) = 2 phi (x - (1 + x^2) R) <= 0; the
    Mills ratio R keeps the sign where it cancels to about -2 phi/x^3."""
    return 2.0 * phi(x) * (x - (1.0 + np.square(x)) * mills(x))


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
    """observed = the supremum found, attained at `at`: the point (z, x) for
    the indicator bounds, x for the Lipschitz bounds."""

    name: str
    observed: float
    limit: float
    at: tuple[float, float] | float

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


def _peak(vals: np.ndarray, *axes: np.ndarray):
    """(max |vals|, where it sits): vals is a grid over the axes, and the
    location is a coordinate for one axis, a tuple for two."""
    vals = np.abs(vals)
    idx = np.unravel_index(np.argmax(vals), vals.shape)
    at = tuple(float(axis[i]) for axis, i in zip(axes, idx))
    return float(vals[idx]), at if len(at) > 1 else at[0]


def _indicator_bound_report(z_hi: float, grid: int) -> BoundReport:
    # The (z, x) grid in blocks of Z_BLOCK levels z, each broadcast against
    # the x row by fz and fz_prime. The z grid is the x grid, so x = z lies
    # in each row: the row holds the right limit of f_z' there, and the
    # left limit H(z) R(z) is added for z > 0.
    xs = np.linspace(0.0, z_hi, grid)
    peaks_f, peaks_fp = [], []
    for lo in range(0, grid, Z_BLOCK):
        z = xs[lo:lo + Z_BLOCK]
        peaks_f.append(_peak(fz(z[:, None], xs), z, xs))
        peaks_fp.append(_peak(fz_prime(z[:, None], xs, side="right"), z, xs))
    value, z = _peak(fz_prime(xs[1:], xs[1:], side="left"), xs[1:])
    peaks_fp.append((value, (z, z)))
    # The sup of |f_z| over x sits at x = z; refine along that diagonal.
    z, value = sup_search(lambda z: fz(z, z), 0.0, z_hi)
    peaks_f.append((value, (z, z)))
    (sup_f, at_f), (sup_fp, at_fp) = (max(peaks, key=lambda p: p[0])
                                      for peaks in (peaks_f, peaks_fp))
    return BoundReport(kind="indicator", checks=(
        BoundCheck("sup |f_z|", sup_f, 0.5, at_f),
        BoundCheck("sup |f_z'|", sup_fp, 1.0, at_fp),
    ))


def _lipschitz_bound_report(h: Lipschitz, x_hi: float,
                            grid: int) -> BoundReport:
    # Second derivative by a wide central difference at x >= step: f by
    # quadrature is only accurate to its tolerance, so a 1e-3 step keeps
    # the roundoff term below 1e-4. The last node is x_hi.
    step = 1e-3
    if x_hi < step:
        raise ValueError(f"z_hi must be at least the f'' step, got {x_hi}")
    lip = h.lipschitz_constant
    mu = mu_h(h)
    xs = np.linspace(0.0, x_hi, grid)
    f = _lipschitz_solver(h, mu)
    f_vals = f(xs)
    fp_vals = _difference_quotient(h, f, xs)
    inner = xs >= step
    x2, f_mid = xs[inner], f_vals[inner]
    f2 = (f(x2 + step) - 2.0 * f_mid + f(x2 - step)) / (step * step)
    if isinstance(h, CappedIdentity):
        # f'' jumps by 1 at the kink x = c, and a central difference there
        # reads a blend of both sides. Within a step of c, keep the larger
        # |f''| of the one-sided second-order differences
        # (2 f(x) - 5 f(x + t) + 4 f(x + 2t) - f(x + 3t)) / t^2, t = -+step.
        near = (np.abs(x2 - h.c) < step) & (x2 >= 3.0 * step)
        if np.any(near):
            at = x2[near]
            left, right = ((2.0 * f_mid[near] - 5.0 * f(at + t)
                            + 4.0 * f(at + 2.0 * t) - f(at + 3.0 * t))
                           / (step * step) for t in (-step, step))
            f2[near] = np.where(np.abs(left) >= np.abs(right), left, right)
    (sup_f, at_f), (sup_fp, at_fp), (sup_f2, at_f2) = (
        _peak(f_vals, xs), _peak(fp_vals, xs), _peak(f2, x2))
    return BoundReport(kind="lipschitz", checks=(
        BoundCheck("sup |f_h|", sup_f, lip, at_f),
        BoundCheck("sup |f_h'|", sup_fp, HALF_NORMAL_MEAN * lip, at_fp),
        BoundCheck("sup |f_h''|", sup_f2, 2.0 * lip + 1e-4, at_f2),
    ))


def verify_lemma_bounds(kind: str, *, z_hi: float = 8.0, grid: int = 400,
                        h: Lipschitz | None = None) -> BoundReport:
    """Certify the proved norm bounds on a grid with local refinement.

    kind='indicator': sup |f_z| <= 1/2 and sup |f_z'| <= 1 over z, x in
    [0, z_hi]^2, with golden-section refinement of the diagonal supremum.
    The bound 1 on |f_z'| is approached only in the limits z -> inf, where
    f_z'(z-) is about 1 - 1/z^2 (see fz_prime), and z -> 0+, where it is
    about 1 - sqrt(2/pi) z, so the observed sup |f_z'| falls short of 1; at
    the defaults it is f_z'(8-) = 0.985056, about 1 - 1/z_hi^2.
    kind='lipschitz': sup |f_h| <= L, sup |f_h'| <= sqrt(2/pi) L and
    sup |f_h''| <= 2L for the given h (default: identity), f'' at x >= 1e-3.
    A grid of fewer than 2 points, or a range with z_hi <= 0, z_hi = inf or,
    for kind='lipschitz', z_hi < 1e-3, would certify nothing, so all raise
    ValueError.
    """
    if grid < 2:
        raise ValueError(f"grid needs at least 2 points, got {grid}")
    if not 0.0 < z_hi < math.inf:
        raise ValueError(f"z_hi must be positive and finite, got {z_hi}")
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
