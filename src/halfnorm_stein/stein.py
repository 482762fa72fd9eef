"""Solutions of the half-normal Stein equation f'(x) - x f(x) = h(x) - E[h(Y)]
and the auxiliary functions needed to certify their norm bounds.

Test functions come in three flavours: half-line indicators 1_{[0,z]} (the
Kolmogorov class restricted to the nonnegative axis), the capped identities
min(x, c), c in (0, inf], and opaque Lipschitz functions with a known
constant (the Wasserstein class). Indicators and capped identities admit
closed forms in the half-normal CDF F and Mills ratio R of ``normal``;
an opaque Lipschitz h is solved, and its E[h(Y)] read off the same
integrals, by a globally adaptive 21-point Gauss-Kronrod rule kept in
this module, which raises where it misses its tolerance; the tests check
the closed forms against it and against scipy's QUADPACK. Every
Lipschitz solution is evaluated on x <= LIPSCHITZ_X_MAX.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, ClassVar

import numpy as np

from .normal import (HALF_NORMAL_MEAN, HALF_NORMAL_MEDIAN, INV_SQRT_2PI,
                     cap_phi, hn_cdf, hn_cdf_integral, hn_tail_integral,
                     mills, normal_sf, phi)
from .walks import DomainError

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# Step of the central difference that gives f_h' for Lipschitz h, and of
# the one-sided slopes of h in f_h'' = f_h + x f_h' + h'.
FH_PRIME_STEP = 1e-5
# Largest x where f_h of a Lipschitz h is evaluated. The quadrature of an
# opaque h agrees with the closed forms to 1e-15 up to here, and at
# x = 1e4; by x = 3e4 the peak of width 1/x at the left end of a mesh gap
# lies inside the rule's outermost node, and f_h comes out wrong.
LIPSCHITZ_X_MAX = 1000.0
# Knot spacing of the mesh that cuts the tail integral of an opaque h
# (see _quadrature_solver): a power of 2, so x / _KNOT_GAP and every knot
# are exact. The grid-50 certification of min(x, c) calls h 9 286 times
# per suite at 1/2 and 12 638 at 1; 1/4 saves 3.4 % of those calls but
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

    def __post_init__(self):
        if not self.c > 0.0:
            raise ValueError(f"cap c must be in (0, inf], got c = {self.c}")

    def __call__(self, x):
        return np.minimum(x, self.c)


@dataclass(frozen=True)
class LipschitzFunction:
    """An opaque scalar h with a known Lipschitz constant, solved by
    quadrature.

    The adaptive rule can step over a kink of h that lies nearer the end
    of a piece than its outermost node, 0.22 % of the piece's width (about
    1e-3 on a mesh gap), and still meet its tolerance. For h = min(x, c)
    on a 400-point grid over [0, 8], 300 caps c in [0.05, 7.9] give f_h
    within 1e-10 of the closed form for 265 caps. The worst misses are
    3.7e-7 in the solver (c = 6.036, x = 6.035) and 6.7e-9 in E[h(Y)]
    (c = 1.625), all without the rule raising.
    """

    fn: Callable[[float], float]
    lipschitz_constant: float

    def __call__(self, x):
        return self.fn(x)


Lipschitz = CappedIdentity | LipschitzFunction
TestFunction = HalfLineIndicator | Lipschitz

IDENTITY = CappedIdentity()
CAPPED_AT_ONE = CappedIdentity(1.0)


# ---------------------------------------------------------------------------
# Quadrature of an opaque h.
# ---------------------------------------------------------------------------

# The 21-point Gauss-Kronrod rule on [-1, 1], as QUADPACK's dqk21 gives it:
# the abscissae x >= 0 (each standing for -x and x) with their Kronrod
# weights, and the weights of the embedded 10-point Gauss rule, whose
# abscissae are the 2nd, 4th, ..., 10th of these.
_XGK = (0.995657163025808080735527280689003,
        0.973906528517171720077964012084452,
        0.930157491355708226001207180059508,
        0.865063366688984510732096688423493,
        0.780817726586416897063717578345042,
        0.679409568299024406234327365114874,
        0.562757134668604683339000099272694,
        0.433395394129247190799265943165784,
        0.294392862701460198131126603103866,
        0.148874338981631210884826001129720,
        0.0)
_WGK = (0.011694638867371874278064396062192,
        0.032558162307964727478818972459390,
        0.054755896574351996031381300244580,
        0.075039674810919952767043140916190,
        0.093125454583697605535065465083366,
        0.109387158802297641899210590325805,
        0.123491976262065851077958109831074,
        0.134709217311473325928054001771707,
        0.142775938577060080797094273138717,
        0.147739104901338491374841515972068,
        0.149445554002916905664936468389821)
_WG = (0.066671344308688137593568809893332,
       0.149451349150580593145776339657697,
       0.219086362515982043995534934228163,
       0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)


# The 21 nodes -x_1, ..., -x_10, 0, x_10, ..., x_1 and the weights of both
# rules over them; the Gauss rule weighs x_2, x_4, ..., x_10 and their
# negatives.
_GK_NODES = np.concatenate((np.negative(_XGK), _XGK[-2::-1]))
_GK_WEIGHTS = np.concatenate((_WGK, _WGK[-2::-1]))
_G_WEIGHTS = np.zeros(21)
_G_WEIGHTS[1:10:2] = _G_WEIGHTS[19:10:-2] = _WG
# Absolute and relative tolerance of every integral of an opaque h, the
# most pieces the rule may cut one integral into, and QUADPACK's floor on
# an error estimate, relative to the rule's integral of |f|.
_QUAD_EPSABS = 1e-14
_QUAD_EPSREL = 1e-13
_QUAD_LIMIT = 200
_ROUNDOFF = 50.0 * np.finfo(float).eps


def _gk21(f, a, b, x):
    """(values, error estimates) of int_a^b f(t, x) dt by the 21-point
    rule, for rows of arrays a, b and x; f is elementwise in t and x. The
    estimate is QUADPACK's: the Kronrod-Gauss gap e becomes
    r min(1, (200 e / r)^1.5), with r the rule's integral of |f - mean f|,
    and is at least 50 eps times its integral of |f|. Every row is reduced
    alone, so its values do not depend on the other rows."""
    half = 0.5 * (b - a)
    fv = f((0.5 * (a + b))[:, None] + half[:, None] * _GK_NODES, x[:, None])
    weighted = fv * _GK_WEIGHTS
    kronrod = np.add.reduce(weighted, 1)
    err = np.abs(kronrod - np.add.reduce(fv * _G_WEIGHTS, 1))
    spread = np.add.reduce(np.abs(fv - 0.5 * kronrod[:, None]) * _GK_WEIGHTS,
                           1)
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = spread * np.minimum(1.0, (200.0 * err / spread) ** 1.5)
    err = np.maximum(_ROUNDOFF * np.add.reduce(np.abs(weighted), 1),
                     np.where(spread > 0.0, scaled, err))
    return kronrod * half, err * np.abs(half)


def _gauss_kronrod(f, a, b, x) -> np.ndarray:
    """int_a^b f(t, x) dt for rows of arrays a, b and x, f elementwise in
    t and x, by the globally adaptive 21-point Gauss-Kronrod rule.

    Each row is its own integral: while its estimates sum to more than
    max(_QUAD_EPSABS, _QUAD_EPSREL |integral|), its piece of largest
    estimate is bisected. The rule never extrapolates. The rows still open
    bisect in one pass of the rule, which leaves each row's value what it
    would be alone. Where a row would take more than _QUAD_LIMIT pieces the
    rule raises RuntimeError rather than return a value that misses its
    tolerance.
    """
    a, b, x = (np.asarray(v, dtype=float) for v in (a, b, x))
    totals, errs = (v.tolist() for v in _gk21(f, a, b, x))
    pieces = [[(-e, lo, hi, v)] for lo, hi, v, e
              in zip(a.tolist(), b.tolist(), totals, errs)]
    rows = range(len(pieces))
    while rows := [i for i in rows if errs[i] > max(
            _QUAD_EPSABS, _QUAD_EPSREL * abs(totals[i]))]:
        cuts = []
        for i in rows:
            if len(pieces[i]) == _QUAD_LIMIT:
                raise RuntimeError(
                    f"quadrature over [{a[i]}, {b[i]}] at x = {x[i]} missed "
                    f"its tolerance in {_QUAD_LIMIT} pieces: error estimate "
                    f"{errs[i]:.3g} for {totals[i]:.17g}")
            neg_err, lo, hi, v = heapq.heappop(pieces[i])
            totals[i] -= v
            errs[i] += neg_err
            mid = 0.5 * (lo + hi)
            cuts += [(i, lo, mid), (i, mid, hi)]
        owner, lo, hi = zip(*cuts)
        halves = _gk21(f, np.array(lo), np.array(hi), x[list(owner)])
        for i, l, h, v, e in zip(owner, lo, hi, *(q.tolist() for q in halves)):
            heapq.heappush(pieces[i], (-e, l, h, v))
            totals[i] += v
            errs[i] += e
    return np.array([v[0][3] if len(v) == 1 else math.fsum(p[3] for p in v)
                     for v in pieces])


def _values(fn: Callable[[float], float], ts: np.ndarray) -> np.ndarray:
    """The scalar fn at each of ts, in an array shaped like ts."""
    return np.fromiter(map(fn, ts.ravel().tolist()), dtype=float,
                       count=ts.size).reshape(ts.shape)


def mu_h(h: TestFunction) -> float:
    """E[h(Y)] under the half-normal law.

    For 1_{[0,z]} it is F(z), and 0 where z is not positive (or nan).
    For min(x, c) it is the integral of 1 - F over [0, c], p(0) - G(c),
    for every cap c, c = inf included. For an opaque h it is p(0) S_0,
    read off the knot mesh that solves it (see _quadrature_solver).
    """
    if isinstance(h, HalfLineIndicator):
        return float(hn_cdf(h.z)) if h.z > 0.0 else 0.0
    if isinstance(h, CappedIdentity):
        return HALF_NORMAL_MEAN - float(hn_tail_integral(h.c))
    return _quadrature_solver(h)[0]


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


def _quadrature_solver(h: LipschitzFunction) -> tuple[float, Callable]:
    """(E[h(Y)], f_h at x > 0, elementwise) for an opaque h, by adaptive
    quadrature over one fixed knot mesh.

    With w_x(t) = exp((x^2 - t^2)/2), f_h(x) = -int_x^inf (h - mu) w_x,
    where int_x^inf w_x is the Mills ratio R(x). The knots j * _KNOT_GAP
    cut the tail into gap integrals I_k = int_k^{k + gap} h w_k, summed by
    the Horner recurrence S_k = I_k + w_k(k + gap) S_{k + gap} out to the
    first knot K with w_k(K) <= 2^-64. As |h(t)| <= |h(0)| + L t, the tail
    dropped past K is at most 2^-64 (|h(0)|/K + L). As w_0 = p/p(0),
    mu = p(0) S_0. Up to the half-normal median f_h(x) is the short,
    well-conditioned int_0^x (h - mu) w_x; above it, with k0 the first
    knot >= x, f_h(x) = mu R(x) - (int_x^k0 h w_x + w_x(k0) S_k0), which
    avoids cancellation against exp(x^2/2). Each I_k is integrated once
    per solver and serves the mean and every x; each call integrates the
    gaps it lacks, then its pieces, each set in one pass of the rule. A
    value depends only on x and h, never on other points or calls.

    Every piece is integrated in the offset s = t - x from its x, where
    w_x = exp(-s (2x + s)/2): a node placed at t itself would be off by
    eps t, and w_x, of slope -x w_x, would turn that into a relative
    error of about eps x^2, 6e-11 at x = 750.
    """
    fn, gap = h.fn, _KNOT_GAP
    gap_integrals: dict[int, float] = {}  # I_k by knot index k / gap

    def weighted(shift):  # (h(x + s) - shift) w_x(x + s)
        return lambda s, x: ((_values(fn, x + s) - shift)
                             * np.exp(-0.5 * s * (2.0 * x + s)))

    def tail_sums(firsts) -> np.ndarray:  # S_k0 for each index k0 / gap
        ends = {j: j + math.ceil((math.sqrt((j * gap) ** 2 + _TAIL_EXPONENT)
                                  - j * gap) / gap) for j in set(firsts)}
        missing = sorted(set().union(*map(range, ends, ends.values()))
                         - gap_integrals.keys())
        if missing:
            ks = gap * np.array(missing, dtype=float)
            gap_integrals.update(zip(missing, _gauss_kronrod(
                weighted(0.0), np.zeros_like(ks), np.full_like(ks, gap),
                ks).tolist()))
        sums = dict.fromkeys(ends, 0.0)
        for j, end in ends.items():
            for i in range(end - 1, j - 1, -1):
                sums[j] = (gap_integrals[i]
                           + math.exp(-gap * gap * (i + 0.5)) * sums[j])
        return np.array([sums[j] for j in firsts])

    mu = 2.0 * INV_SQRT_2PI * float(tail_sums([0])[0])

    def solve(xs):
        inner = xs <= HALF_NORMAL_MEDIAN
        x, k0 = xs[~inner], np.ceil(xs[~inner] / gap) * gap
        out = np.empty_like(xs)
        out[inner] = _gauss_kronrod(weighted(mu), -xs[inner],
                                    np.zeros_like(xs[inner]), xs[inner])
        part, cut = np.zeros_like(x), x < k0
        part[cut] = _gauss_kronrod(weighted(0.0), np.zeros_like(x[cut]),
                                   (k0 - x)[cut], x[cut])
        tail = tail_sums((k0 / gap).astype(int).tolist())
        out[~inner] = mu * mills(x) - (
            part + np.exp(0.5 * (x - k0) * (x + k0)) * tail)
        return out

    return mu, solve


def _lipschitz_solver(h: Lipschitz) -> tuple[float, Callable]:
    """(E[h(Y)], x -> f_h(x) elementwise) for Lipschitz h: the closed form
    for min(x, c), quadrature for an opaque h; f_h = 0 at x <= 0, and an
    x beyond LIPSCHITZ_X_MAX (or nan) raises DomainError."""
    if isinstance(h, CappedIdentity):
        mu = mu_h(h)
        positive_part = partial(_capped_identity_solution, h, mu)
    else:
        mu, positive_part = _quadrature_solver(h)

    def solve(x) -> np.ndarray:
        xs = np.asarray(x, dtype=float)
        beyond = ~(xs <= LIPSCHITZ_X_MAX)
        if np.any(beyond):
            raise DomainError(f"f_h of a Lipschitz h is evaluated only for "
                              f"x <= {LIPSCHITZ_X_MAX:g}, "
                              f"got x = {xs[beyond].flat[0]}")
        out = np.zeros_like(xs)
        positive = xs > 0.0
        out[positive] = positive_part(xs[positive])
        return out

    return mu, solve


def _difference_quotient(h: Lipschitz, f: Callable, x) -> np.ndarray:
    """f_h' at x by differences of f_h, given as the solver f of h,
    elementwise: central with step s, within [0, LIPSCHITZ_X_MAX].

    f_h'' jumps where h' does, at x = c for min(x, c), and a central
    stencil across that kink is off by s/4 (2.5e-6). Within s of the kink
    or of LIPSCHITZ_X_MAX (and at x >= 2 s) the stencil is the
    second-order one-sided one, (4 f(x + t) - 3 f(x) - f(x + 2t)) / (2t),
    with t = s on x >= c, t = -s below it and where x + 2s would pass
    LIPSCHITZ_X_MAX. The kinks of an opaque h are unknown. A point past
    LIPSCHITZ_X_MAX reaches f as itself, which refuses it.
    """
    s, c = FH_PRIME_STEP, getattr(h, "c", math.nan)
    xs = np.asarray(x, dtype=float)
    top = xs + s > LIPSCHITZ_X_MAX
    lo, hi = np.maximum(xs - s, 0.0), np.where(top, xs, xs + s)
    out = np.array((f(hi) - f(lo)) / (hi - lo))
    one_sided = ((np.abs(xs - c) < s) | top) & (xs >= 2.0 * s)
    if np.any(one_sided):
        at = xs[one_sided]
        t = np.where((at >= c) & (at + 2.0 * s <= LIPSCHITZ_X_MAX), s, -s)
        out[one_sided] = (4.0 * f(at + t) - 3.0 * f(at)
                          - f(at + 2.0 * t)) / (2.0 * t)
    return out


def _solution(h: TestFunction) -> tuple[float, Callable, Callable]:
    """(E[h(Y)], f_h, f_h') of h, elementwise in x: the closed forms for an
    indicator (f_z' left-continuous), else the Lipschitz solver."""
    if isinstance(h, HalfLineIndicator):
        return (mu_h(h), partial(fz, h.z),
                partial(fz_prime, h.z, side="left"))
    mu, f = _lipschitz_solver(h)
    return mu, f, partial(_difference_quotient, h, f)


def solve_fh(h: TestFunction, x):
    """The standard Stein-equation solution f_h at x >= 0, elementwise.

    Indicators and capped identities use their closed forms, an opaque
    Lipschitz h adaptive quadrature.
    """
    out = _solution(h)[1](x)
    return float(out) if np.ndim(x) == 0 else out


def solve_fh_prime(h: TestFunction, x):
    """f_h', elementwise: the closed form for indicators, a central
    difference of f_h for Lipschitz h."""
    out = _solution(h)[2](x)
    return float(out) if np.ndim(x) == 0 else out


def stein_residual_continuous(h: TestFunction, x: float) -> float:
    """f'(x) - x f(x) - (h(x) - E[h(Y)]); zero for the exact solution."""
    mu, f, f_prime = _solution(h)
    return float(f_prime(x) - x * f(x) - (h(x) - mu))


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
    # f'' = f + x f' + h', the Stein equation differentiated once, at the
    # nodes x >= 1e-3 (see verify_lemma_bounds), h' each one-sided slope of
    # h; on a kink of h, |f''| reads the larger side. The last node is x_hi.
    lo = 1e-3
    if not lo <= x_hi <= LIPSCHITZ_X_MAX:
        raise ValueError(f"z_hi must be in [{lo:g}, {LIPSCHITZ_X_MAX:g}] for "
                         f"a Lipschitz h, got {x_hi}")
    lip, s = h.lipschitz_constant, FH_PRIME_STEP
    _, f, f_prime = _solution(h)
    xs = np.linspace(0.0, x_hi, grid)
    f_vals, fp_vals = f(xs), f_prime(xs)
    inner = xs >= lo
    x2 = xs[inner]
    base, h_mid = f_vals[inner] + x2 * fp_vals[inner], _values(h, x2)
    f2 = np.maximum(np.abs(base + (_values(h, x2 + s) - h_mid) / s),
                    np.abs(base + (h_mid - _values(h, x2 - s)) / s))
    (sup_f, at_f), (sup_fp, at_fp), (sup_f2, at_f2) = (
        _peak(f_vals, xs), _peak(fp_vals, xs), _peak(f2, x2))
    return BoundReport(kind="lipschitz", checks=(
        BoundCheck("sup |f_h|", sup_f, lip, at_f),
        BoundCheck("sup |f_h'|", sup_fp, HALF_NORMAL_MEAN * lip, at_fp),
        BoundCheck("sup |f_h''|", sup_f2, 2.0 * lip, at_f2),
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
    sup |f_h''| <= 2L for the given h (default: identity). f_h' is a
    difference quotient of f_h, and f_h'' = f_h + x f_h' + h' is read off
    the Stein equation, h' being either one-sided slope of h, at the nodes
    x >= 1e-3: the benchmark's recorded certify references start there, so
    f_h''(0+) = h'(0+) is not read. A grid of fewer than 2 points, or a
    range with z_hi <= 0, z_hi = inf or, for kind='lipschitz', z_hi < 1e-3,
    would certify nothing, so all raise ValueError; so does a Lipschitz
    z_hi > LIPSCHITZ_X_MAX, past which f_h is not evaluated.
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
