"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import halfnorm_stein as hs  # noqa: E402
import halfnorm_stein.cli  # noqa: E402,F401
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402


def _bench(workload, seed, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_same_seed_generates_identical_inputs(workload):
    for seed in range(20):
        assert wl.inputs(workload, seed) == wl.inputs(workload, seed)
    assert len({json.dumps(wl.inputs(workload, s), sort_keys=True)
                for s in range(20)}) > 1


def test_references_cover_every_generated_input():
    sweep = wl.load_reference("sweep")
    for stat, (lo, hi) in wl.SWEEP_RANGES.items():
        assert sweep[stat]["n0"] == lo
        assert len(sweep[stat]["d_K"]) == len(range(lo, hi + 1, 2))
    certify = wl.load_reference("certify")
    assert set(certify["cap"]) == {str(i) for i in wl.CAP_INDICES}
    oracles = wl.load_reference("oracles")
    for seed in range(200):
        inp = wl.inputs("oracles", seed)
        for stat, m in inp["characterization"].items():
            assert f"{stat}:{m}" in oracles["characterization"]
        for m in inp["auxiliary"]:
            assert str(m) in oracles["auxiliary"]
        for stat, n in inp["quantile"].items():
            assert f"{stat}:{n}" in oracles["quantile"]
        stat, _, key = inp["monte_carlo"]
        assert f"{stat}:{key}" in oracles["monte_carlo"]


def test_perturbed_margin_counts_as_failed():
    inp = {"max": [2, 34, 16], "signchanges": [3, 35, 16]}
    out = wl.run_sweep(hs, inp)
    ref = wl.load_reference("sweep")
    assert [r for _, r in wl.check_sweep(inp, out, ref)] == [None] * 6

    code, text = out["max"]
    lines = text.splitlines()
    cells = lines[2].split(",")
    cells[5] = repr(float(cells[5]) * (1 - 1e-9))   # margin_K of n = 18
    lines[2] = ",".join(cells)
    out["max"] = (code, "\n".join(lines) + "\n")
    failed = [item for item, r in wl.check_sweep(inp, out, ref) if r]
    assert failed == ["max n=18"]


def test_altered_numerator_counts_as_failed():
    inp = wl.inputs("oracles", 0)
    ref = wl.load_reference("oracles")
    stat, n, key = inp["monte_carlo"]
    report = hs.simulate.EmpiricalReport(
        stat, n, wl.MC_TRIALS, key, ref["monte_carlo"][f"{stat}:{key}"],
        1e-3, True)
    out = {"characterization": {(s, m): wl._characterize(hs, s, m)
                                for s, m in inp["characterization"].items()},
           "enumeration": {}, "auxiliary": {}, "quantile": {},
           "monte_carlo": report}
    assert [r for _, r in wl.check_oracles(inp, out, ref)] == [None] * 5

    target = ("returns", inp["characterization"]["returns"])
    pmf, residuals, recovered, equal = out["characterization"][target]
    nums = list(recovered.numerators)
    nums[3] += 1
    object.__setattr__(recovered, "numerators", tuple(nums))
    failed = [item for item, r in wl.check_oracles(inp, out, ref) if r]
    assert failed == [f"characterization returns:{target[1]}"]


@pytest.mark.parametrize("workload", ["sweep", "oracles"])
def test_traced_self_times_sum_to_traced_verdict(workload):
    proc = _bench(workload, 3, 1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"], proc.stdout
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(m) == {name for name, _ in tracing.PER_LAYER}
    layer_self_s = sum(m[f"{layer}.self_ms"] for layer in tracing.LAYERS) / 1e3
    gap = m["trace.verdict_s"] - layer_self_s
    assert gap == pytest.approx(m["trace.unattributed_s"])
    assert 0.0 <= gap <= max(m["trace.overhead_s"], 0.0) + 0.01


def test_end_to_end_run_prints_every_metric_with_its_unit():
    proc = _bench("oracles", 1, 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        dict(run.END_TO_END)
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_benchmark_json_lists_what_the_benchmark_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(tracing.PER_LAYER)
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    assert f"{wl.SWEEP_BUDGET:g}" in why["sweep"]
    for budget in set(wl.CERTIFY_BUDGET.values()):
        assert f"{budget:g}" in why["certify"]
    for budget in (wl.ORACLE_BUDGET, wl.QUANTILE_REF_BUDGET,
                   wl.ROUTE_AGREEMENT):
        assert f"{budget:g}" in why["oracles"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("sweep", 0, 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
