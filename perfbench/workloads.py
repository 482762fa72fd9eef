"""Seeded inputs, the timed job and the correctness checks of each workload.

Only the standard library is imported here, so that generating inputs costs
nothing the program's set-up time would hide. Jobs receive the imported
``halfnorm_stein`` package and reach every function through its module
attributes, so a traced job calls the installed wrappers.

A check returns one ``(item, reason)`` pair per item: ``reason`` is None
when the item passed. An item fails when the call raised, when the
program's own verdict failed, when an intrinsic check fails, or when it
disagrees with the recorded reference beyond the error budget below.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import random
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

WORKLOADS = ("sweep", "certify", "oracles")

# Error budgets against the references recorded from the seed code; exact
# values (rationals, pmfs) must be bit-identical.
SWEEP_BUDGET = 1e-12          # d_K and d_W of every swept (statistic, n)
CERTIFY_BUDGET = {            # observed suprema, by how they are computed
    "sup |f_z|": 1e-12,       # closed form
    "sup |f_z'|": 1e-12,      # closed form
    "sup |f_h|": 1e-9,        # quadrature
    "sup |f_h'|": 1e-7,       # 1e-5-step central difference of quadrature
    "sup |f_h''|": 1e-4,      # 1e-3-step second difference; the program's
                              # own slack on this bound is 1e-4
    "sup aux_S": 1e-12,       # closed forms, golden-section refined
    "sup aux_D2": 1e-12,
}
ORACLE_BUDGET = 1e-12         # d_K, d_W of V, exact W route, MC deviation
QUANTILE_REF_BUDGET = 1e-9    # quantile-side W route (adaptive quadrature)
ROUTE_AGREEMENT = 1e-8        # the two Wasserstein routes against each other

# sweep: every admissible n up to 4096/4097 at a fixed stride; the seed
# picks the offset of each statistic, so every admissible n is reachable.
SWEEP_STRIDE = 16
SWEEP_RANGES = {"returns": (2, 4096), "max": (2, 4096),
                "signchanges": (3, 4097)}

# certify: the seeded cap sits midway between two points of its grid, so
# no finite difference of the suite straddles the kink of min(x, c). Its
# grid is coarse because its quadrature cost depends on where the kink
# sits, and that part of the job should vary little from seed to seed.
Z_HI = 8.0
GRID = 200
CAP_GRID = 50
CAP_INDICES = range(3, 13)    # c from 0.57 to 2.04


def cap_level(index: int) -> float:
    return (index + 0.5) * Z_HI / (CAP_GRID - 1)


# oracles
CHARACTERIZATION_M = range(128, 257)
ENUMERATION = (("returns", 22), ("max", 22), ("halfmax", 22),
               ("signchanges", 21))
AUXILIARY_M = range(256, 513)
AUXILIARY_COUNT = 3
# wasserstein_quantile returns inf for some larger n (first at max n = 54);
# that defect is recorded in the notes, and these laws stay below it.
QUANTILE_N = {"returns": range(8, 53, 2), "max": range(8, 53, 2),
              "halfmax": range(8, 53, 2), "signchanges": range(9, 52, 2)}
MC_STATS = {"returns": 64, "max": 64, "signchanges": 65}
MC_KEYS = range(16)
MC_TRIALS = 1_000_000


def inputs(workload: str, seed: int) -> dict:
    """The inputs of one workload, a pure function of (workload, seed)."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sweep":
        return {stat: [lo + 2 * rng.randrange(SWEEP_STRIDE // 2), hi,
                       SWEEP_STRIDE]
                for stat, (lo, hi) in SWEEP_RANGES.items()}
    if workload == "certify":
        return {"cap_index": rng.choice(CAP_INDICES)}
    if workload == "oracles":
        mc_stat = rng.choice(sorted(MC_STATS))
        return {
            "characterization": {stat: rng.choice(CHARACTERIZATION_M)
                                 for stat in ("returns", "halfmax",
                                              "signchanges", "max")},
            "auxiliary": sorted(rng.sample(AUXILIARY_M, AUXILIARY_COUNT)),
            "quantile": {stat: rng.choice(ns)
                         for stat, ns in QUANTILE_N.items()},
            "monte_carlo": [mc_stat, MC_STATS[mc_stat], rng.choice(MC_KEYS)],
        }
    raise ValueError(f"unknown workload {workload!r}")


def sweep_ns(spec) -> list[int]:
    start, end, step = spec
    return list(range(start, end + 1, step))


# ---------------------------------------------------------------------------
# Jobs: the program's calls up to its own pass/fail verdict, timed as
# verdict_s. A call that raises is kept as its exception.
# ---------------------------------------------------------------------------

def _attempt(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # an item that raises is a failed item
        return exc


def run_sweep(hs, inp: dict) -> dict:
    out = {}
    for stat, (start, end, step) in inp.items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = _attempt(hs.cli.main, ["check-bounds", "--stat", stat,
                                          "--n", f"{start}:{end}:{step}",
                                          "--format", "csv"])
        out[stat] = (code, buf.getvalue())
    return out


def run_certify(hs, inp: dict) -> dict:
    stein = hs.stein
    cap = cap_level(inp["cap_index"])
    capped = stein.LipschitzFunction(lambda x: min(x, cap), 1.0)
    return {
        "indicator": _attempt(stein.verify_lemma_bounds, "indicator",
                              z_hi=Z_HI, grid=GRID),
        "identity": _attempt(stein.verify_lemma_bounds, "lipschitz",
                             z_hi=Z_HI, grid=GRID, h=stein.IDENTITY),
        "cap": _attempt(stein.verify_lemma_bounds, "lipschitz", z_hi=Z_HI,
                        grid=CAP_GRID, h=capped),
        "aux_S": _attempt(stein.sup_search, stein.aux_S, 0.0, Z_HI),
        "aux_D2": _attempt(stein.sup_search, stein.aux_D2, 0.0, Z_HI),
    }


def _characterize(hs, stat, m):
    spec = hs.characterization.make_spec(stat, m)
    residuals = hs.characterization.indicator_residuals(spec)
    recovered = hs.characterization.recover_pmf(
        spec.pmf.lower, spec.pmf.upper, spec.c, spec.gamma, stat)
    return spec.pmf, residuals, recovered, recovered == spec.pmf


def _enumerate(hs, stat, n):
    enumerated = hs.walks.brute_force_pmf(stat, n)
    formula = hs.walks.scaled_law(stat, n).base
    return formula, enumerated, enumerated == formula


def _routes(hs, stat, n):
    law = hs.walks.scaled_law(stat, n)
    return (hs.metrics.wasserstein_exact(law),
            hs.metrics.wasserstein_quantile(law))


def run_oracles(hs, inp: dict) -> dict:
    mc_stat, mc_n, mc_key = inp["monte_carlo"]
    return {
        "characterization": {
            (stat, m): _attempt(_characterize, hs, stat, m)
            for stat, m in inp["characterization"].items()},
        "enumeration": {(stat, n): _attempt(_enumerate, hs, stat, n)
                        for stat, n in ENUMERATION},
        "auxiliary": {m: _attempt(hs.metrics.auxiliary_bounds, m)
                      for m in inp["auxiliary"]},
        "quantile": {(stat, n): _attempt(_routes, hs, stat, n)
                     for stat, n in inp["quantile"].items()},
        "monte_carlo": _attempt(hs.simulate.empirical_check, mc_stat, mc_n,
                                MC_TRIALS, mc_key),
    }


JOBS = {"sweep": run_sweep, "certify": run_certify, "oracles": run_oracles}


# ---------------------------------------------------------------------------
# Checks.
# ---------------------------------------------------------------------------

def digest(*parts) -> str:
    """Short sha256 of exact values; equal digests mean bit-identical."""
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


def pmf_digest(pmf) -> str:
    """Digest of a pmf's reduced masses, independent of its denominator."""
    return digest(pmf.lower, pmf.upper,
                  [str(Fraction(v, pmf.denominator)) for v in pmf.numerators])


def load_reference(workload: str) -> dict:
    with open(os.path.join(REFERENCE_DIR, f"{workload}.json")) as fh:
        return json.load(fh)


def _off(value: float, ref: float, budget: float) -> bool:
    return not abs(value - ref) <= budget


def check_sweep(inp: dict, out: dict, ref: dict) -> list:
    items = []
    for stat, spec in inp.items():
        code, text = out[stat]
        if isinstance(code, Exception):
            items.extend((f"{stat} n={n}", f"raised {code!r}")
                         for n in sweep_ns(spec))
            continue
        rows = {int(r["n"]): r for r in csv.DictReader(io.StringIO(text))}
        table = ref[stat]
        for n in sweep_ns(spec):
            item = f"{stat} n={n}"
            row = rows.get(n)
            if row is None:
                items.append((item, "row missing"))
                continue
            d_k, d_w, b_k, b_w, m_k, m_w = (
                float(row[k]) for k in ("d_K", "d_W", "bound_K", "bound_W",
                                        "margin_K", "margin_W"))
            i = (n - table["n0"]) // 2
            if code != 0:
                reason = f"check-bounds exited {code}"
            elif not (m_k >= 0.0 and m_w >= 0.0):
                reason = f"negative margin ({m_k!r}, {m_w!r})"
            elif (_off(m_k, b_k - d_k, SWEEP_BUDGET)
                  or _off(m_w, b_w - d_w, SWEEP_BUDGET)):
                reason = "margin is not bound minus distance"
            elif _off(d_k, table["d_K"][i], SWEEP_BUDGET):
                reason = f"d_K {d_k!r} vs reference {table['d_K'][i]!r}"
            elif _off(d_w, table["d_W"][i], SWEEP_BUDGET):
                reason = f"d_W {d_w!r} vs reference {table['d_W'][i]!r}"
            else:
                reason = None
            items.append((item, reason))
    return items


def certify_rows(out: dict) -> list:
    """(suite, bound name, observed, limit) for every certified bound."""
    rows = []
    for suite in ("indicator", "identity", "cap"):
        report = out[suite]
        if isinstance(report, Exception):
            rows.append((suite, "suite", report, None))
            continue
        rows.extend((suite, c.name, float(c.observed), float(c.limit))
                    for c in report.checks)
    # the auxiliary suprema from the proofs: max S = sqrt(2/pi), D2 < 0
    for name, limit in (("aux_S", math.sqrt(2.0 / math.pi)), ("aux_D2", 0.0)):
        found = out[name]
        observed = found if isinstance(found, Exception) else float(found[1])
        rows.append((name, f"sup {name}", observed, limit))
    return rows


def check_certify(inp: dict, out: dict, ref: dict) -> list:
    expected = dict(ref["fixed"])
    expected.update(ref["cap"][str(inp["cap_index"])])
    items = []
    for suite, name, observed, limit in certify_rows(out):
        item = f"{suite} {name}"
        want = expected.get(item)
        if isinstance(observed, Exception):
            reason = f"raised {observed!r}"
        elif not limit - observed >= 0.0:
            reason = f"negative margin {limit - observed!r}"
        elif want is None:
            reason = "no reference"
        elif _off(observed, want, CERTIFY_BUDGET[name]):
            reason = f"observed {observed!r} vs reference {want!r}"
        else:
            reason = None
        items.append((item, reason))
    if len(items) != len(expected):
        items.append(("row count", f"{len(items)} rows, {len(expected)} "
                                   "expected"))
    return items


def _pmfs_identical(a, b) -> bool:
    """Rational equality by integer cross-multiplication."""
    return (a.lower == b.lower and a.upper == b.upper
            and len(a.numerators) == len(b.numerators)
            and all(x * b.denominator == y * a.denominator
                    for x, y in zip(a.numerators, b.numerators)))


def _check_characterization(res, ref):
    pmf, residuals, recovered, equal = res
    if len(residuals) != pmf.upper - pmf.lower + 1:
        return "wrong number of residuals"
    if any(r != 0 for r in residuals):
        return "nonzero residual"
    if not (equal and _pmfs_identical(recovered, pmf)):
        return "recovered pmf differs from the exact law"
    if pmf_digest(recovered) != ref:
        return "recovered pmf differs from the reference"
    return None


def _check_enumeration(res, ref):
    formula, enumerated, equal = res
    if not (equal and _pmfs_identical(formula, enumerated)):
        return "enumeration differs from the closed form"
    if pmf_digest(enumerated) != ref:
        return "enumerated pmf differs from the reference"
    return None


def _check_auxiliary(report, ref):
    if not (report.passed and report.even_agreement):
        return "auxiliary lemma check failed"
    if digest(str(report.dK_VW), str(report.dW_VW)) != ref["exact"]:
        return "exact V-W distances differ from the reference"
    if (_off(report.dK_VY, ref["dK_VY"], ORACLE_BUDGET)
            or _off(report.dW_VY, ref["dW_VY"], ORACLE_BUDGET)):
        return "V-Y distances differ from the reference"
    return None


def _check_quantile(res, ref):
    exact, quad = res
    if not abs(exact - quad) <= ROUTE_AGREEMENT:
        return f"routes disagree: {exact!r} vs {quad!r}"
    if (_off(exact, ref["exact"], ORACLE_BUDGET)
            or _off(quad, ref["quantile"], QUANTILE_REF_BUDGET)):
        return "W routes differ from the reference"
    return None


def _check_monte_carlo(report, ref):
    if not report.passed:
        return "DKW check failed"
    if _off(report.max_cdf_deviation, ref, ORACLE_BUDGET):
        return f"deviation {report.max_cdf_deviation!r} vs reference {ref!r}"
    return None


def _reference_key(key) -> str:
    if isinstance(key, tuple):
        return ":".join(str(k) for k in key)
    return str(key)


def _judge(check, res, ref):
    if isinstance(res, Exception):
        return f"raised {res!r}"
    if ref is None:
        return "no reference"
    return check(res, ref)


def check_oracles(inp: dict, out: dict, ref: dict) -> list:
    items = []
    groups = (("characterization", _check_characterization),
              ("enumeration", _check_enumeration),
              ("auxiliary", _check_auxiliary),
              ("quantile", _check_quantile))
    for group, check in groups:
        for key, res in out[group].items():
            name = _reference_key(key)
            items.append((f"{group} {name}",
                          _judge(check, res, ref[group].get(name))))
    mc_stat, _, mc_key = inp["monte_carlo"]
    name = f"{mc_stat}:{mc_key}"
    items.append((f"monte_carlo {name}",
                  _judge(_check_monte_carlo, out["monte_carlo"],
                         ref["monte_carlo"].get(name))))
    return items


CHECKS = {"sweep": check_sweep, "certify": check_certify,
          "oracles": check_oracles}
