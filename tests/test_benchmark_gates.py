"""The benchmark's `sweep` and `oracles` gates at inputs it can sample.

Their own jobs and checks from `perfbench/workloads.py` run against the
recorded references: `sweep` at every offset of its stride, so every swept
(statistic, n), and `oracles` at seeds 0-9. A change to the package that
breaks either workload fails here, not only when the benchmark runs. The
benchmark's module is loaded from its file and is only read.
"""

import importlib.util
import os

import pytest

import halfnorm_stein as hs
import halfnorm_stein.cli  # noqa: F401  (the sweep job calls hs.cli)

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "perfbench", "workloads.py")
_SPEC = importlib.util.spec_from_file_location("perfbench_workloads", _PATH)
wl = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(wl)


def _failures(items):
    assert items
    return [(item, reason) for item, reason in items if reason]


@pytest.mark.parametrize("offset", range(wl.SWEEP_STRIDE // 2))
def test_sweep_meets_its_references(offset):
    # each statistic from its first n + 2 offset at the benchmark's stride:
    # the eight offsets cover every admissible n up to 4096/4097
    inp = {stat: [lo + 2 * offset, hi, wl.SWEEP_STRIDE]
           for stat, (lo, hi) in wl.SWEEP_RANGES.items()}
    items = wl.check_sweep(inp, wl.run_sweep(hs, inp),
                           wl.load_reference("sweep"))
    assert len(items) == sum(len(wl.sweep_ns(spec)) for spec in inp.values())
    assert _failures(items) == []


@pytest.mark.parametrize("seed", range(10))
def test_oracles_meet_their_references(seed):
    inp = wl.inputs("oracles", seed)
    items = wl.check_oracles(inp, wl.run_oracles(hs, inp),
                             wl.load_reference("oracles"))
    assert _failures(items) == []
