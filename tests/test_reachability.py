"""The reachability gate: the package functions that no command enters.

A fresh interpreter installs ``sys.setprofile`` before it imports the
command line, so functions run at import count too, and then runs a fixed
list of invocations: all eight subcommands, all four statistics, all three
formats and the paths that exit 2. Every function of the package that it
never enters must be listed in UNREACHED, with the reason it stays in src;
a listed function that it does enter must leave the list. A second
interpreter runs the benchmark in ``perfbench/`` the same way, its set-up
and its three workloads, and a listed function must be entered there
exactly when its reason names perfbench. Functions are keyed by (module,
qualified name) read off the AST, and matched to the entered code objects
by file, first line and name, as ``co_qualname`` needs Python 3.11.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys

import halfnorm_stein

SRC = pathlib.Path(halfnorm_stein.__file__).resolve().parent
PERFBENCH = SRC.parents[1] / "perfbench"

PERF_B = "perfbench calls it (moves with direction 1 step B)"
PERF_12 = "perfbench calls it (moves with direction 12)"
PERF_15 = "perfbench calls it (moves with direction 15)"
CLAIM = "paper claim, tests only (direction 6)"
CLAIM_PERF = "paper claim, perfbench and tests only (direction 6)"
VIEW = "single-law view, tests only"
VIEW_PERF = "single-law view, perfbench set-up and tests only"

UNREACHED = {
    ("metrics", "auxiliary_bounds"): CLAIM_PERF,
    ("metrics", "bound_check"): PERF_B,
    ("metrics", "distances"): PERF_B,
    ("metrics", "wasserstein_exact"): PERF_B,
    ("metrics", "wasserstein_quantile"): PERF_B,
    ("normal", "mill_bounds"): CLAIM,
    ("stein", "LipschitzFunction.__call__"): PERF_15,
    ("stein", "LipschitzFunction.__post_init__"): PERF_15,
    ("stein", "_adaptive"): PERF_15,
    ("stein", "_pair"): PERF_15,
    ("stein", "_quadrature_solver"): PERF_15,
    ("stein", "_quadrature_solver.<locals>.solve"): PERF_15,
    ("stein", "_quadrature_solver.<locals>.tail_sums"): PERF_15,
    ("stein", "_quadrature_solver.<locals>.weighted"): PERF_15,
    ("stein", "aux_D1"): CLAIM,
    ("stein", "aux_D2"): CLAIM_PERF,
    ("stein", "aux_M"): CLAIM,
    ("stein", "aux_S"): CLAIM_PERF,
    ("stein", "aux_U"): CLAIM,
    ("stein", "aux_V"): CLAIM,
    ("stein", "mu_h"): VIEW_PERF,
    ("stein", "verify_monotone_xfz"): CLAIM,
    ("walks", "ExactPMF.masses"): VIEW,
    ("walks", "ScaledLaw.atoms"): PERF_B,
    ("walks", "ScaledLaw.cdf"): PERF_B,
    ("walks", "_count"): PERF_12,
    ("walks", "_moment_bounds"): CLAIM,
    ("walks", "brute_force_pmf"): PERF_12,
    ("walks", "central_binomial_prob"): CLAIM,
    ("walks", "mean_exact"): CLAIM,
    ("walks", "moment_bounds_check"): CLAIM,
}


def _invocations(tmp):
    """(argv, exit code) of every profiled invocation."""
    return [
        (["pmf", "--stat", "returns", "--n", "8"], 0),
        (["pmf", "--stat", "max", "--m", "4", "--format", "json"], 0),
        (["pmf", "--stat", "halfmax", "--n", "10", "--format", "csv"], 0),
        (["distance", "--stat", "signchanges", "--n", "3:33:2",
          "--format", "json"], 0),
        (["check-bounds", "--stat", "max", "--n", "2:64:2",
          "--format", "csv"], 0),
        (["check-bounds", "--stat", "halfmax", "--n", "64"], 0),
        (["rate-table", "--stat", "returns", "--n", "8:64:8",
          "--format", "csv", "--out", str(tmp / "rates.csv")], 0),
        (["stein-verify", "--stat", "max", "--m", "6"], 0),
        (["stein-verify", "--stat", "signchanges", "--m", "6",
          "--format", "json"], 0),
        (["stein-verify", "--stat", "returns", "--m", "6",
          "--format", "csv"], 0),
        (["stein-solution", "--z", "1.5", "--x", "0", "0.5", "2"], 0),
        (["stein-solution", "--lipschitz", "identity", "--x", "0.5",
          "--format", "json"], 0),
        (["stein-solution", "--lipschitz", "min1", "--x", "1", "3",
          "--format", "csv"], 0),
        (["verify-lemmas", "--kind", "all", "--grid", "50"], 0),
        (["simulate", "--stat", "returns", "--n", "32", "--trials", "10000",
          "--seed", "3", "--format", "json"], 0),
        (["simulate", "--stat", "halfmax", "--n", "16:32:16",
          "--trials", "10000"], 0),
        (["simulate", "--stat", "signchanges", "--n", "33",
          "--trials", "10000", "--format", "csv"], 0),
        # inadmissible n, an exact law or a float law too large, a point
        # off the support, bad trials or seed, an unwritable --out, m < 1,
        # a grid of one point, and two refusals of argparse
        (["pmf", "--stat", "max", "--n", "7"], 2),
        (["pmf", "--stat", "max", "--n", "100000000000"], 2),
        (["check-bounds", "--stat", "max", "--n", str(10 ** 25)], 2),
        (["stein-solution", "--z", "-1", "--x", "1"], 2),
        (["simulate", "--stat", "max", "--n", "64", "--trials", "100"], 2),
        (["simulate", "--stat", "max", "--n", "64", "--seed", "-1"], 2),
        (["distance", "--stat", "max", "--n", "2",
          "--out", str(tmp / "missing" / "out.txt")], 2),
        (["stein-verify", "--stat", "max", "--m", "0"], 2),
        (["verify-lemmas", "--grid", "1"], 2),
        (["check-bounds", "--stat", "max", "--n", "8:2:2"], 2),
        (["pmf", "--stat", "mean", "--n", "4"], 2),
    ]


# A runner starts with HOOK, fills ``result`` and ends with REPORT, which
# adds the entered code objects to it and prints it as JSON.
HOOK = r"""
import contextlib, io, json, sys

entered = set()

def profile(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)

result = {}
sys.setprofile(profile)
"""

REPORT = r"""
sys.setprofile(None)
result["entered"] = sorted(
    {(c.co_filename, c.co_firstlineno, c.co_name) for c in entered})
print(json.dumps(result))
"""

CLI_RUNNER = HOOK + r"""
from halfnorm_stein import cli

codes = result["codes"] = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            codes.append(cli.main(argv))
        except SystemExit as exc:
            codes.append(exc.code)
""" + REPORT

# perfbench's set-up, then each workload's job at seed 0; its files are
# only read
PERFBENCH_RUNNER = HOOK + r"""
sys.path.insert(0, sys.argv[1])
import job, workloads

hs, _ = job.set_up()
for workload in workloads.WORKLOADS:
    workloads.JOBS[workload](hs, workloads.inputs(workload, 0))
""" + REPORT


def _functions():
    """{(file, first line, name): (module, qualified name)} of every
    function of the package; the first line of a decorated function is
    its first decorator's, as in its code object."""
    out = {}

    def visit(path, node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno,
                             *(d.lineno for d in child.decorator_list)])
                out[str(path), first, child.name] = (path.stem,
                                                     prefix + child.name)
                visit(path, child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(path, child, f"{prefix}{child.name}.")
            else:
                visit(path, child, prefix)

    for path in sorted(SRC.glob("*.py")):
        visit(path, ast.parse(path.read_text()), "")
    return out


def _unreached(runner, arg):
    """(the runner's result, the package functions it never entered, by
    (module, qualified name))."""
    run = subprocess.run(
        [sys.executable, "-c", runner, arg],
        env=dict(os.environ, PYTHONPATH=str(SRC.parent)),
        capture_output=True, text=True, check=True)
    result = json.loads(run.stdout)
    entered = {(os.path.realpath(file), line, name)
               for file, line, name in result.pop("entered")}
    functions = _functions()
    return result, {functions[key] for key in functions.keys() - entered}


def test_unreached_functions_are_the_listed_ones(tmp_path):
    argvs, codes = zip(*_invocations(tmp_path))
    result, unreached = _unreached(CLI_RUNNER, json.dumps(argvs))
    assert result["codes"] == list(codes)
    assert sorted(unreached - UNREACHED.keys()) == [], "unlisted, unreached"
    assert sorted(UNREACHED.keys() - unreached) == [], "listed, reached"


def test_perfbench_reasons_name_what_perfbench_calls():
    _, unreached = _unreached(PERFBENCH_RUNNER, str(PERFBENCH))
    wrong = sorted((key, reason) for key, reason in UNREACHED.items()
                   if (key not in unreached) != ("perfbench" in reason))
    assert wrong == []
