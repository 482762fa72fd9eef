"""Kolmogorov and Wasserstein-1 distances between a lattice law and the
half-normal distribution, plus the closed-form error bounds they are
measured against.

The Kolmogorov supremum over a discrete/continuous pair is attained at an
atom, approached from the left or the right; both candidates are checked.
The Wasserstein distance is the integral of |F_law - F_Y|, evaluated
segment by segment with the antiderivatives H and G of ``normal`` and the
exact crossing point on each segment, so quadrature noise never touches
the theorem margins. A quantile-side quadrature provides an independent
second route.

A law is anything with ``atoms()`` and ``cdf()``: the sweep reads the float
CDF of ``walks.float_law``, the exact oracles a ``ScaledLaw`` whose CDF is
the exact one rounded once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy import integrate

from .normal import (HALF_NORMAL_MEAN, _hn_isf, _hn_quantile, hn_cdf,
                     hn_cdf_integral, hn_tail_integral)
from .walks import (DomainError, FloatLaw, ScaledLaw, float_law, half_length,
                    pmf_halfmax, pmf_max)


def kolmogorov_exact(law: ScaledLaw | FloatLaw) -> float:
    """sup_z |F_law(z) - F_Y(z)| for atoms on [0, inf)."""
    atoms = law.atoms()
    cdf = law.cdf()
    cdf_left = np.concatenate(([0.0], cdf[:-1]))
    target = hn_cdf(atoms)
    return float(np.max(np.maximum(np.abs(cdf - target),
                                   np.abs(cdf_left - target))))


def wasserstein_exact(law: ScaledLaw | FloatLaw) -> float:
    """Integral of |F_law(t) - F_Y(t)| over [0, inf), piecewise analytic.

    On each segment [a, b] between 0 and the first atom or between
    consecutive atoms, F_law is a constant c (0 on the first); F_Y crosses
    it at t* = F^{-1}(c) and H = p + x F is the antiderivative of F_Y, so
    every segment contributes in closed form. Beyond the last atom the
    contribution is G(x_last), G = p - x (1 - F).
    """
    atoms = law.atoms()
    a = np.concatenate(([0.0], atoms[:-1]))
    b = atoms
    c = np.concatenate(([0.0], law.cdf()[:-1]))
    anti_a = hn_cdf_integral(a)
    anti_b = hn_cdf_integral(b)
    below = np.clip(_hn_quantile(c), a, b)  # F_Y < c on [a, below)
    anti_split = hn_cdf_integral(below)
    seg = ((c * (below - a) - (anti_split - anti_a))
           + ((anti_b - anti_split) - c * (b - below)))
    return float(np.sum(seg)) + float(hn_tail_integral(atoms[-1]))


def wasserstein_quantile(law: ScaledLaw | FloatLaw) -> float:
    """Independent Wasserstein route: integral of the quantile gap.

    Integrates |Q_law(u) - Q_Y(u)| over (0, 1) by adaptive quadrature,
    splitting each step of Q_law at the point where Q_Y crosses its level.
    Every piece is mapped through u = 1 - exp(-v), which tames the slowly
    diverging quantile at u = 1, and Q_Y is read from the survival side
    at s = exp(-v).
    """
    atoms = law.atoms()
    cdf = law.cdf()
    lows = np.concatenate(([0.0], cdf[:-1]))

    total = 0.0
    for x, lo, hi in zip(atoms, lows, cdf):
        if hi - lo < 1e-15:
            continue
        split = hn_cdf(x)
        points = sorted({lo, min(max(split, lo), hi), hi})
        for u0, u1 in zip(points[:-1], points[1:]):
            if 1.0 - u0 < 1e-15:
                continue
            v0 = -math.log1p(-u0)
            v1 = -math.log1p(-u1) if u1 < 1.0 else v0 + 60.0
            # full_output=1 silences the warning quad emits on pieces too
            # small for its relative tolerance; epsabs governs there.
            out = integrate.quad(
                lambda v: abs(x - float(_hn_isf(math.exp(-v)))) * math.exp(-v),
                v0, v1, epsabs=1e-11, epsrel=1e-10, limit=128, full_output=1)
            total += out[0]
    return total


# ---------------------------------------------------------------------------
# Theorem right-hand sides.
# ---------------------------------------------------------------------------

_SQRT_2_PI = HALF_NORMAL_MEAN  # sqrt(2/pi)


def theorem_bound(statistic_tag: str, n: int, metric: str) -> float:
    """Closed-form error bound for the given statistic, walk length and
    metric ('K' for Kolmogorov, 'W' for Wasserstein)."""
    if metric not in ("K", "W"):
        raise ValueError("metric must be 'K' or 'W'")
    half_length(statistic_tag, n)
    rn = math.sqrt(n)
    if statistic_tag == "max":
        if metric == "W":
            return (3.0 + 2.0 / math.pi) / rn
        return (4.0 * _SQRT_2_PI + 0.5) / rn + 2.0 / n
    if statistic_tag == "returns":
        if metric == "W":
            return (2.0 / math.pi + 2.0) / rn + _SQRT_2_PI / n
        return ((3.0 + 2.0 * math.sqrt(2.0)) / math.sqrt(2.0 * math.pi)
                + 0.75) / rn + 1.5 / n
    if statistic_tag == "signchanges":
        if metric == "W":
            return ((4.0 + 2.0 / math.pi) / rn + _SQRT_2_PI / n
                    + 2.0 * math.sqrt(2.0) / math.pi / n ** 1.5)
        return (((2.0 * math.sqrt(2.0) + 4.0) / math.sqrt(math.pi) + 1.5) / rn
                + 3.0 / n + 4.0 / math.sqrt(math.pi) / n ** 1.5)
    raise DomainError(f"no theorem bound for statistic {statistic_tag!r}")


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
    def sqrtn_scaled(self) -> tuple[float, float]:
        rn = math.sqrt(self.n)
        return rn * self.kolmogorov, rn * self.wasserstein

    @property
    def passed(self) -> bool:
        return self.margin_K >= 0.0 and self.margin_W >= 0.0


def bound_check(statistic_tag: str, n: int) -> DistanceReport:
    """Distances for one n, next to the matching theorem bounds.

    Both distances read one CDF from ``float_law``; it agrees with the
    exactly rounded CDF of ``scaled_law`` to about 1e-14.
    """
    law = float_law(statistic_tag, n)
    return DistanceReport(
        statistic_tag=statistic_tag, n=n,
        kolmogorov=kolmogorov_exact(law),
        wasserstein=wasserstein_exact(law),
        bound_K=theorem_bound(statistic_tag, n, "K"),
        bound_W=theorem_bound(statistic_tag, n, "W"),
    )


def bound_sweep(statistic_tag: str, n_values) -> list[DistanceReport]:
    """bound_check over many n."""
    return [bound_check(statistic_tag, n) for n in n_values]


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
    """
    n = 2 * m
    max_pmf = pmf_max(n)
    half_pmf = pmf_halfmax(m)
    denom = max_pmf.denominator

    cum_max = max_pmf.cumulative_numerators()
    cum_half = half_pmf.cumulative_numerators()
    # P(2N <= j) = P(N <= j // 2); both laws share the denominator 2^n.
    sup_num = 0
    gap_num = 0  # sum over unit gaps of |F_{2N} - F_M|, for d_W on the lattice
    even_ok = True
    for j in range(0, n + 1):
        d = abs(cum_half[min(j // 2, m)] - cum_max[j])
        sup_num = max(sup_num, d)
        if j < n:
            gap_num += d
        if j % 2 == 0 and d != 0:
            even_ok = False
    rn = math.sqrt(n)
    dk_vw = Fraction(sup_num, denom)
    dw_vw = Fraction(gap_num, denom) / Fraction(rn)

    v_law = ScaledLaw(half_pmf, 2.0 / rn)
    dk_vy = kolmogorov_exact(v_law)
    dw_vy = wasserstein_exact(v_law)

    # d_K(V, W) <= sqrt(2/pi)/sqrt(n) and d_W(V, W) <= 1/sqrt(n); on the
    # integer lattice the second reads sum of CDF gaps <= 1, an exact check.
    lemma_ok = (dk_vw <= Fraction(math.nextafter(_SQRT_2_PI / rn, math.inf))
                and gap_num <= denom
                and dk_vy <= (3.0 * _SQRT_2_PI + 0.5) / rn + 2.0 / n
                and dw_vy <= (2.0 + 4.0 / math.pi) / rn + 2.0 * _SQRT_2_PI / n)

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
    sqrt(n) |E[W] - E[Y]| tends to 1, pinning the n^{-1/2} rate. One
    ``float_law`` per n gives all columns; E[X] = scale * sum_k P(X > k).
    """
    n_list = list(n_list)
    if not n_list:
        raise ValueError("empty n list")
    rows = []
    for n in n_list:
        law = float_law(statistic_tag, n)
        cdf = law.cdf()
        rn = math.sqrt(n)
        mean = law.scale * float(np.sum(1.0 - cdf[:-1]))
        rows.append(RateRow(n=n, sqrtn_dK=rn * kolmogorov_exact(law),
                            sqrtn_dW=rn * wasserstein_exact(law),
                            sqrtn_p0=rn * float(cdf[0]),
                            sqrtn_mean_gap=rn * abs(mean - HALF_NORMAL_MEAN)))
    return rows
