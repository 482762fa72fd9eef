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
    "EmpiricalReport", "ExactPMF", "FloatLaw", "HalfLineIndicator",
    "LipschitzFunction", "RateRow", "ScaledLaw", "auxiliary_bounds",
    "bound_check", "brute_force_pmf", "cap_phi", "characterization",
    "distances", "empirical_check", "exact_pmf", "float_law", "fz",
    "fz_prime", "half_length", "indicator_residuals", "make_spec",
    "mean_exact", "metrics", "mill_bounds", "moment_bounds_check", "mu_h",
    "normal", "phi", "rate_table", "recover_pmf", "scaled_law", "simulate",
    "solve_fh", "stein", "sup_search", "theorem_bound", "verify_lemma_bounds",
    "verify_monotone_xfz", "walk_length", "walks", "wasserstein_exact",
    "wasserstein_quantile",
]


def test_public_surface():
    assert len(PUBLIC_NAMES) == 49
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


def test_cli_import_leaves_quadrature_out():
    # scipy.integrate, which pulls in scipy.optimize, cost about 0.33 s of
    # importing the command line; the package computes without either
    src = pathlib.Path(halfnorm_stein.__file__).resolve().parents[1]
    code = ("import sys, halfnorm_stein.cli; "
            "print(sorted({m for m in sys.modules "
            "if m.split('.')[:2] in (['scipy', 'integrate'], "
            "['scipy', 'optimize'])}))")
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
