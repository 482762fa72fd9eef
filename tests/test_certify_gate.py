"""The benchmark's `certify` gate at every cap it can sample.

perfbench draws one cap index of min(x, c) per seed, so a solver change
that breaks an unsampled cap could pass a benchmark run. Here its own job
and check, `workloads.run_certify` and `workloads.check_certify`, run
against the recorded references for all of `workloads.CAP_INDICES`. The
benchmark's module is loaded from its file and is only read.
"""

import importlib.util
import os

import pytest

import halfnorm_stein as hs

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "perfbench", "workloads.py")
_SPEC = importlib.util.spec_from_file_location("perfbench_workloads", _PATH)
wl = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(wl)
REFERENCE = wl.load_reference("certify")


@pytest.mark.parametrize("index", wl.CAP_INDICES)
def test_certify_meets_its_references(index):
    # every item within the benchmark's budgets; for the opaque cap,
    # sup |f_h| within 1e-9 of its reference (measured 1.5e-13 at worst)
    # and sup |f_h'| within 1e-7 (measured 5.0e-14)
    inp = {"cap_index": index}
    items = wl.check_certify(inp, wl.run_certify(hs, inp), REFERENCE)
    assert items
    assert [(item, reason) for item, reason in items if reason] == []
