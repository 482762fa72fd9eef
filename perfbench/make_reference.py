"""Record the reference values of every input a seed can generate.

    python3 perfbench/make_reference.py [sweep|certify|oracles ...]

Run this on the seed code only: the checks hold later versions of the
program to these values, exact ones bit for bit and floats within the
budgets in ``workloads.py``. Writes ``perfbench/reference/<workload>.json``.
"""

from __future__ import annotations

import json
import os
import sys

import workloads as wl

sys.path.insert(0, os.path.join(os.path.dirname(wl.HERE), "src"))
import halfnorm_stein as hs  # noqa: E402


def sweep() -> dict:
    out = {}
    for stat, (lo, hi) in wl.SWEEP_RANGES.items():
        reports = [hs.metrics.bound_check(stat, n)
                   for n in range(lo, hi + 1, 2)]
        out[stat] = {"n0": lo, "d_K": [r.kolmogorov for r in reports],
                     "d_W": [r.wasserstein for r in reports]}
    return out


def _rows(out: dict, suites) -> dict:
    return {f"{suite} {name}": observed
            for suite, name, observed, _ in wl.certify_rows(out)
            if suite in suites}


def certify() -> dict:
    fixed = None
    caps = {}
    for index in wl.CAP_INDICES:
        out = wl.run_certify(hs, {"cap_index": index})
        if fixed is None:
            fixed = _rows(out, ("indicator", "identity", "aux_S", "aux_D2"))
        caps[str(index)] = _rows(out, ("cap",))
    return {"fixed": fixed, "cap": caps}


def oracles() -> dict:
    ch = hs.characterization
    characterization = {}
    for stat in ("returns", "halfmax", "signchanges", "max"):
        for m in wl.CHARACTERIZATION_M:
            spec = ch.make_spec(stat, m)
            recovered = ch.recover_pmf(spec.pmf.lower, spec.pmf.upper,
                                       spec.c, spec.gamma, stat)
            characterization[f"{stat}:{m}"] = wl.pmf_digest(recovered)
    enumeration = {
        f"{stat}:{n}": wl.pmf_digest(hs.walks.brute_force_pmf(stat, n))
        for stat, n in wl.ENUMERATION}
    auxiliary = {}
    for m in wl.AUXILIARY_M:
        r = hs.metrics.auxiliary_bounds(m)
        auxiliary[str(m)] = {"exact": wl.digest(str(r.dK_VW), str(r.dW_VW)),
                             "dK_VY": r.dK_VY, "dW_VY": r.dW_VY}
    quantile = {}
    for stat, ns in wl.QUANTILE_N.items():
        for n in ns:
            law = hs.walks.scaled_law(stat, n)
            quantile[f"{stat}:{n}"] = {
                "exact": hs.metrics.wasserstein_exact(law),
                "quantile": hs.metrics.wasserstein_quantile(law)}
    monte_carlo = {
        f"{stat}:{key}": hs.simulate.empirical_check(
            stat, n, wl.MC_TRIALS, key).max_cdf_deviation
        for stat, n in wl.MC_STATS.items() for key in wl.MC_KEYS}
    return {"characterization": characterization, "enumeration": enumeration,
            "auxiliary": auxiliary, "quantile": quantile,
            "monte_carlo": monte_carlo}


def main(names) -> None:
    os.makedirs(wl.REFERENCE_DIR, exist_ok=True)
    for name in names or wl.WORKLOADS:
        data = {"sweep": sweep, "certify": certify, "oracles": oracles}[name]()
        with open(os.path.join(wl.REFERENCE_DIR, f"{name}.json"), "w") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
