import ast
import os
import pathlib
import subprocess
import sys

import halfnorm_stein

# Every public name of the package, so that adding or removing one is a
# deliberate edit of this list.
PUBLIC_NAMES = [
    "AuxiliaryReport", "BoundCheck", "BoundReport", "CappedIdentity",
    "CharacterizationSpec", "DistanceReport", "DomainError",
    "EmpiricalReport", "ExactPMF", "HalfLineIndicator", "LipschitzFunction",
    "RateRow", "ScaledLaw", "auxiliary_bounds", "bound_check",
    "brute_force_pmf", "characterization", "distances",
    "empirical_check", "exact_pmf", "fz", "fz_prime", "half_length",
    "indicator_residuals", "make_spec",
    "mean_exact", "metrics", "mill_bounds", "moment_bounds_check", "mu_h",
    "normal", "phi", "rate_table", "recover_pmf", "scaled_law", "simulate",
    "solve_fh", "stein", "sup_search", "theorem_bound", "verify_lemma_bounds",
    "verify_monotone_xfz", "walk_length", "walks", "wasserstein_exact",
    "wasserstein_quantile",
]


def test_public_surface():
    assert len(PUBLIC_NAMES) == 46
    assert sorted(halfnorm_stein.__all__) == PUBLIC_NAMES


def test_no_assert_statements_in_src():
    # python -O strips assert statements, so no check of the package may
    # rest on one
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    modules = sorted(src.rglob("*.py"))
    assert modules
    found = [f"{path.name}:{node.lineno}" for path in modules
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


def _run_python(code, **env):
    """Standard output of code run in a fresh interpreter that imports the
    package from this checkout; env entries set to None are removed."""
    src = pathlib.Path(halfnorm_stein.__file__).resolve().parents[1]
    full = dict(os.environ, PYTHONPATH=str(src))
    for name, value in env.items():
        full.pop(name, None)
        if value is not None:
            full[name] = value
    return subprocess.run([sys.executable, "-c", code], env=full, check=True,
                          capture_output=True, text=True).stdout.strip()


def test_cli_import_leaves_quadrature_out():
    # scipy was most of the cost of importing the command line (scipy.special
    # alone 0.25 s); the package computes with numpy alone, so no scipy
    # module is loaded
    out = _run_python("import sys, halfnorm_stein.cli; "
                      "print(sorted(m for m in sys.modules "
                      "if m.split('.')[0] == 'scipy'))")
    assert out == "[]"


def test_cli_commands_run_without_scipy():
    # with every import of scipy refused, each command still exits 0
    code = """
import contextlib, io, sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError("scipy refused: " + name)

sys.meta_path.insert(0, RefuseScipy())
from halfnorm_stein import cli

codes = []
for argv in [["check-bounds", "--stat", "max", "--n", "2:64:2"],
             ["distance", "--stat", "returns", "--n", "2:8:2"],
             ["pmf", "--stat", "signchanges", "--n", "9"],
             ["verify-lemmas", "--kind", "all"],
             ["stein-solution", "--z", "1.5", "--x", "0.5"],
             ["simulate", "--stat", "returns", "--n", "32",
              "--trials", "20000", "--seed", "9"]]:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
print(codes)
"""
    assert _run_python(code) == "[0, 0, 0, 0, 0, 0]"


def test_import_pins_openblas_threads():
    # loading OpenBLAS starts a worker thread that spins for about 60 ms of
    # CPU during and just after numpy's import; the package makes no BLAS
    # call and pins OpenBLAS to one thread, keeping a value the caller set
    code = ("import os, halfnorm_stein; "
            "print(os.environ['OPENBLAS_NUM_THREADS'])")
    assert _run_python(code, OPENBLAS_NUM_THREADS=None) == "1"
    assert _run_python(code, OPENBLAS_NUM_THREADS="2") == "2"
