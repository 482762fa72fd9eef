"""Kolmogorov and Wasserstein-1 distances between a lattice law and the
half-normal distribution, plus the closed-form error bounds they are
measured against.

Distances are measured a block of laws at a time: ``_block_distances``
takes the block's atoms and CDFs concatenated, evaluates F and p once and
reduces per law with ``reduceat``. A sweep of short laws thus pays numpy's
per-call overhead once per block instead of once per law. An n-list
(``bound_checks``, ``rate_table``) is measured straight from the blocks of
float CDFs that ``walks._float_blocks`` builds, at most ``_BLOCK_ATOMS``
padded atoms to a block, with its atoms scale * j built in one pass and
no law object made; ``distances`` measures one ``ScaledLaw`` as a block
of one. The Kolmogorov supremum over a discrete/continuous pair is attained
at an atom, approached from the left or the right; both candidates are
checked, and the per-law maximum of the same differences is the same
float, so blocking leaves d_K bit for bit. The Wasserstein
distance is the integral of |F_law - F_Y|, evaluated segment by segment
with the antiderivative H = p + xF, read off the same F and p. The F
values at a segment's ends tell whether F_Y crosses the law's CDF inside
it; only at such an interior crossing is the quantile taken, and as F_Y
equals the law's CDF there, only p is evaluated at it. No quadrature
touches the theorem margins. ``wasserstein_quantile`` is an independent
second route, also in closed form: it integrates the quantile gap, with
the quantile read from AS241 where this route reads F.

Every law's CDF is 1 beyond its last atom: a float law of a block is kept
only up to its first entry equal to 1.0, and a ``ScaledLaw``, the exact
oracle, keeps every atom with the exact CDF rounded once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

import numpy as np

from .normal import HALF_NORMAL_MEAN, _hn_quantile, hn_cdf, hn_pdf, mills
from .walks import (DomainError, ScaledLaw, _float_blocks, exact_pmf,
                    half_length, walk_length)


# padded atoms per block of the float laws of an n-list.
# bound_checks over the benchmark sweep's three n-lists took 20.5 ms at
# 2^13 against 25.1 at 2^12 and 18.3 at 2^14 (warm, best of 30, on a
# 2-core Xeon); a block peaks at about 110 bytes an atom, most of it the
# Taylor-table gather of F
_BLOCK_ATOMS = 2 ** 13


def distances(law: ScaledLaw) -> tuple[float, float]:
    """(d_K, d_W) against the half-normal for atoms on [0, inf), from one
    evaluation of F and p at the atoms: ``_block_distances`` of one law.

    d_K = sup_z |F_law(z) - F(z)|, taken at each atom from both sides.
    d_W = integral of |F_law - F| over [0, inf). On each segment [a, b]
    between 0 and the first atom or between consecutive atoms, F_law is a
    constant c (0 on the first). H(b) = p + xF at the atoms and H(a) is
    H(b) shifted by one atom, with H(0) = p(0). The F values at the ends
    place the crossing of c:
    - c >= F(b): F < c on all of [a, b), and the segment is
      c (b - a) - (H(b) - H(a)), the negative of its rise;
    - c <= F(a): F >= c on all of it, and the segment is its rise;
    - F(a) < c < F(b): F crosses c at t* = F^{-1}(c) inside, where
      F(t*) = c, so the segment is H(a) + H(b) - c (a + b) - 2 p(t*).
    Only these interior segments evaluate the quantile and p(t*).
    Beyond the last atom the contribution is G = p (1 - xR).
    """
    x = law.atoms()
    d_k, d_w = _block_distances(x, law.cdf(), np.array([len(x)]))
    return float(d_k[0]), float(d_w[0])


def _lattice(scales: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The atoms scale * j, j = 0..size - 1, of each law in turn."""
    starts = np.cumsum(sizes) - sizes
    j = np.arange(starts[-1] + sizes[-1]) - np.repeat(starts, sizes)
    return np.repeat(scales, sizes) * j


def _block_distances(x: np.ndarray, cdf: np.ndarray, sizes: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
    """(d_K, d_W) of each law of a block, its atoms and CDF concatenated
    in ``x`` and ``cdf``, sizes[i] of them from law i, from one evaluation
    of F and p at the block's atoms."""
    ends = np.cumsum(sizes)
    starts, last = ends - sizes, ends - 1

    def before(v, first):  # each law's values shifted right by one atom
        out = np.empty_like(v)
        out[1:] = v[:-1]
        out[starts] = first
        return out

    f = hn_cdf(x)
    c = before(cdf, 0.0)  # F_law on [a, b), left of b
    d_k = np.maximum.reduceat(np.maximum(np.abs(cdf - f), np.abs(c - f)),
                              starts)
    # p at the crossings first, while few arrays of the block are alive
    inner = np.flatnonzero((before(f, 0.0) < c) & (c < f))
    p_cross = hn_pdf(_hn_quantile(c[inner]))

    p = hn_pdf(x)
    anti_b = p + x * f
    anti_a = before(anti_b, HALF_NORMAL_MEAN)  # p(0) = H(0) = sqrt(2/pi)
    a = before(x, 0.0)
    seg = anti_b - anti_a - c * (x - a)
    np.negative(seg, out=seg, where=c >= f)
    seg[inner] = (anti_a[inner] + anti_b[inner]
                  - c[inner] * (a[inner] + x[inner]) - 2.0 * p_cross)
    tail = p[last] * (1.0 - x[last] * mills(x[last]))
    return d_k, np.add.reduceat(seg, starts) + tail


def _float_distances(statistic_tag: str, ns):
    """(scales, cdf, sizes, d_K, d_W) of each block of the float laws of
    ``ns`` in turn, ``walks._float_blocks`` of at most _BLOCK_ATOMS padded
    atoms, so one block is alive at a time."""
    for scales, cdf, sizes in _float_blocks(statistic_tag, ns, _BLOCK_ATOMS):
        yield (scales, cdf, sizes,
               *_block_distances(_lattice(scales, sizes), cdf, sizes))


def wasserstein_exact(law: ScaledLaw) -> float:
    """Integral of |F_law(t) - F_Y(t)| over [0, inf), piecewise analytic."""
    return distances(law)[1]


def wasserstein_quantile(law: ScaledLaw) -> float:
    """Independent Wasserstein route: the integral of the quantile gap
    |Q_law(u) - Q_Y(u)| over (0, 1), in closed form.

    On the step (lo, hi] of Q_law at atom x, the level u* = F(x), clipped
    to the step, splits it into pieces on which Q_Y stays on one side of x.
    As d/dt p(t) = -t p(t), int_{u0}^{u1} Q_Y = P(u0) - P(u1) with
    P = p(Q_Y), so a piece is |x (u1 - u0) - (P(u0) - P(u1))|, with
    P(0) = p(0) and P(1) = 0. Q_Y is read from AS241 (``_hn_quantile``),
    where ``distances`` reads F and H, so the two routes share F
    only at the split.
    """
    atoms = law.atoms()
    hi = law.cdf()
    lo = np.concatenate(([0.0], hi[:-1]))
    split = np.clip(hn_cdf(atoms), lo, hi)
    p_lo, p_split, p_hi = (hn_pdf(_hn_quantile(u)) for u in (lo, split, hi))
    below = np.abs(atoms * (split - lo) - (p_lo - p_split))
    above = np.abs(atoms * (hi - split) - (p_split - p_hi))
    return float(np.sum(below) + np.sum(above))


# ---------------------------------------------------------------------------
# Theorem right-hand sides.
# ---------------------------------------------------------------------------

# (statistic, metric) -> (a, b, c) of the bound a / sqrt(n) + b / n + c / n^1.5
_BOUNDS = {
    ("max", "K"): (4.0 * HALF_NORMAL_MEAN + 0.5, 2.0, 0.0),
    ("max", "W"): (3.0 + 2.0 / math.pi, 0.0, 0.0),
    ("halfmax", "K"): (3.0 * HALF_NORMAL_MEAN + 0.5, 2.0, 0.0),
    ("halfmax", "W"): (2.0 + 4.0 / math.pi, 2.0 * HALF_NORMAL_MEAN, 0.0),
    ("returns", "K"): ((3.0 + 2.0 * math.sqrt(2.0)) / math.sqrt(2.0 * math.pi)
                       + 0.75, 1.5, 0.0),
    ("returns", "W"): (2.0 / math.pi + 2.0, HALF_NORMAL_MEAN, 0.0),
    ("signchanges", "K"): ((2.0 * math.sqrt(2.0) + 4.0) / math.sqrt(math.pi)
                           + 1.5, 3.0, 4.0 / math.sqrt(math.pi)),
    ("signchanges", "W"): (4.0 + 2.0 / math.pi, HALF_NORMAL_MEAN,
                           2.0 * math.sqrt(2.0) / math.pi),
}


def theorem_bound(statistic_tag: str, n: int, metric: str) -> float:
    """Closed-form error bound for the given statistic, walk length and
    metric ('K' for Kolmogorov, 'W' for Wasserstein): a theorem's, or for
    halfmax the auxiliary lemma's bound on d(V, Y), V = 2 N_n / sqrt(n)."""
    if metric not in ("K", "W"):
        raise DomainError("metric must be 'K' or 'W'")
    half_length(statistic_tag, n)
    a, b, c = _BOUNDS[statistic_tag, metric]
    return a / math.sqrt(n) + b / n + c / n ** 1.5


@dataclass(frozen=True)
class DistanceReport:
    statistic_tag: str
    n: int
    kolmogorov: float
    wasserstein: float
    bound_K: float
    bound_W: float

    @property
    def margin_K(self) -> float:
        return self.bound_K - self.kolmogorov

    @property
    def margin_W(self) -> float:
        return self.bound_W - self.wasserstein

    @property
    def passed(self) -> bool:
        return self.margin_K >= 0.0 and self.margin_W >= 0.0


def bound_check(statistic_tag: str, n: int) -> DistanceReport:
    """Distances for one n, next to the matching theorem bounds:
    ``bound_checks`` of the one-element list."""
    return bound_checks(statistic_tag, [n])[0]


def bound_checks(statistic_tag: str, ns) -> list[DistanceReport]:
    """Distances for each n of ``ns``, next to the matching theorem bounds.

    Both distances read one float CDF, O(sqrt(n)) atoms long; it agrees
    with the exactly rounded CDF of ``scaled_law`` to about 1e-14 on the
    atoms it keeps. The laws are built a block at a time by
    ``walks._float_blocks`` and each block is measured as built, its atoms
    and CDFs never wrapped as laws. An empty ``ns`` raises DomainError.
    """
    ns = list(ns)
    if not ns:
        raise DomainError("no laws to measure")
    d_k, d_w = [], []
    for *_, k, w in _float_distances(statistic_tag, ns):
        d_k += k.tolist()
        d_w += w.tolist()
    return [DistanceReport(
        statistic_tag=statistic_tag, n=n, kolmogorov=k, wasserstein=w,
        bound_K=theorem_bound(statistic_tag, n, "K"),
        bound_W=theorem_bound(statistic_tag, n, "W"),
    ) for n, k, w in zip(ns, d_k, d_w, strict=True)]


# ---------------------------------------------------------------------------
# Auxiliary-variable lemma (V = 2 N_n / sqrt(n) against W = M_n / sqrt(n)).
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AuxiliaryReport:
    m: int
    n: int
    dK_VW: Fraction
    dW_VW: Fraction
    dK_VY: float
    dW_VY: float
    even_agreement: bool
    passed: bool


def auxiliary_bounds(m: int) -> AuxiliaryReport:
    """Distances between the auxiliary law 2 N_n and the maximum M_n, both
    on the integer lattice (Kolmogorov is scale invariant; the Wasserstein
    gap just picks up the factor 1/sqrt(n)), plus distances from
    V = 2 N_n / sqrt(n) to the half-normal law, checked against the
    auxiliary lemmas and the triangle inequality.

    As N = ceil(M / 2), P(2N <= j) equals P(M <= j) at even j and falls
    short of it by P(M = j) at odd j, so the V-W values are read off the
    odd atoms of M_n: d_K is the largest, binom(2m, m + 1) / 2^(2m), and
    the summed lattice CDF gap is P(M_n odd) = (1 - binom(2m, m) / 2^(2m))
    / 2. They are the measured lattice distances exactly when
    ``even_agreement`` holds; otherwise ``passed`` is False. d(V, Y) is
    ``bound_check("halfmax", n)``, against the lemma's bound.
    """
    n = walk_length("max", m)
    max_pmf = exact_pmf("max", n)
    denom = max_pmf.denominator  # both laws share the denominator 2^n

    even_ok = (list(accumulate(max_pmf.numerators))[::2]
               == list(accumulate(exact_pmf("halfmax", n).numerators)))
    odd = max_pmf.numerators[1::2]
    gap_num = sum(odd)
    rn = math.sqrt(n)
    dk_vw = Fraction(max(odd), denom)
    dw_vw = Fraction(gap_num, denom) / Fraction(rn)

    v_report = bound_check("halfmax", n)
    dk_vy, dw_vy = v_report.kolmogorov, v_report.wasserstein

    # d_K(V, W) <= sqrt(2/pi)/sqrt(n) and d_W(V, W) <= 1/sqrt(n); on the
    # integer lattice the second reads sum of CDF gaps <= 1, an exact check.
    lemma_ok = (dk_vw <= Fraction(math.nextafter(HALF_NORMAL_MEAN / rn,
                                                 math.inf))
                and gap_num <= denom
                and v_report.passed)

    w_report = bound_check("max", n)
    slack = 1e-12
    triangle_ok = (w_report.kolmogorov <= float(dk_vw) + dk_vy + slack
                   and w_report.wasserstein <= float(dw_vw) + dw_vy + slack)

    return AuxiliaryReport(m=m, n=n, dK_VW=dk_vw, dW_VW=dw_vw,
                           dK_VY=dk_vy, dW_VY=dw_vy,
                           even_agreement=even_ok,
                           passed=lemma_ok and triangle_ok and even_ok)


# ---------------------------------------------------------------------------
# Rate tables.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RateRow:
    n: int
    sqrtn_dK: float
    sqrtn_dW: float
    sqrtn_p0: float
    sqrtn_mean_gap: float


def rate_table(statistic_tag: str, n_list) -> list[RateRow]:
    """sqrt(n)-scaled distances, the mass at zero and the mean gap.

    For returns, sqrt(n) P(K_n = 0) tends to sqrt(2/pi) and
    sqrt(n) |E[W] - E[Y]| tends to 1, pinning the n^{-1/2} rate. The float
    law of each n, measured in blocks as in ``bound_checks``, gives all
    columns; E[X] = scale * sum_k P(X > k), summed over the kept atoms, as
    P(X > k) reads 0.0 from the last one on.
    """
    n_list = list(n_list)
    if not n_list:
        raise DomainError("empty n list")
    laws = []  # (mean, P(X = 0), d_K, d_W) of each law, its CDF dropped
    for scales, cdf, sizes, d_k, d_w in _float_distances(statistic_tag,
                                                         n_list):
        for scale, law, k, w in zip(scales.tolist(),
                                    np.split(cdf, np.cumsum(sizes[:-1])),
                                    d_k.tolist(), d_w.tolist()):
            laws.append((scale * float(np.sum(1.0 - law[:-1])),
                         float(law[0]), k, w))
    rows = []
    for n, (mean, p0, d_k, d_w) in zip(n_list, laws, strict=True):
        rn = math.sqrt(n)
        rows.append(RateRow(n=n, sqrtn_dK=rn * d_k, sqrtn_dW=rn * d_w,
                            sqrtn_p0=rn * p0,
                            sqrtn_mean_gap=rn * abs(mean - HALF_NORMAL_MEAN)))
    return rows
