"""The half-line contract that ``normal`` rests on: the package passes F,
R and G no x below 0, and the quantile kernel no s outside [0, 1], so
their reading of a negative x as 0 never decides an output.

The kernels are wrapped where they are looked up at call time, so every
F, R and quantile evaluation goes through them, and G is wrapped where its
only caller, ``stein``, reads it. Then every command-line invocation of
``test_reachability`` and the benchmark's three jobs at seed 0 run. The
benchmark's module is loaded from its file and is only read.
"""

import contextlib
import importlib.util
import io
import os

import numpy as np

import halfnorm_stein as hs
from halfnorm_stein import cli, normal, stein
from test_reachability import _invocations

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "perfbench", "workloads.py")
_SPEC = importlib.util.spec_from_file_location("perfbench_workloads", _PATH)
wl = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(wl)


def _below_zero(x):
    return x < 0.0  # nan is allowed


def _outside_unit_interval(s):
    return (s < 0.0) | (s > 1.0)


def test_no_caller_leaves_the_half_line(monkeypatch, tmp_path):
    seen = []

    def watch(module, name, outside):
        fn = getattr(module, name)

        def wrapped(x):
            bad = np.asarray(x, dtype=float)
            bad = bad[outside(bad)]
            if bad.size:
                seen.append((name, bad[:3].tolist()))
            return fn(x)

        monkeypatch.setattr(module, name, wrapped)

    for module, name in ((normal, "_cdf_array"), (normal, "_mills_array"),
                         (stein, "hn_tail_integral")):
        watch(module, name, _below_zero)
    watch(normal, "_isf_array", _outside_unit_interval)

    for argv, expected in _invocations(tmp_path):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code == expected, argv
    for workload in wl.WORKLOADS:
        inp = wl.inputs(workload, 0)
        items = wl.CHECKS[workload](inp, wl.JOBS[workload](hs, inp),
                                    wl.load_reference(workload))
        assert [item for item in items if item[1]] == [], workload
    assert seen == []
