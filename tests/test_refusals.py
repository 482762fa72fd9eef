"""The refusal contract: the package refuses a caller's argument with
DomainError, raised by the function whose rule it is, so the command line
turns every refusal into exit 2 with one line on stderr. A bare
ValueError is left only where no caller's argument reaches it, and the
AST check below keeps that list closed.
"""

import ast
import math
import pathlib

import pytest

import halfnorm_stein
from halfnorm_stein import characterization, metrics, stein, walks

SRC = pathlib.Path(halfnorm_stein.__file__).resolve().parent

# (module, function) of every `raise ValueError` in src, with its reason
BARE_VALUE_ERRORS = {
    ("normal", "mill_bounds"): "normal imports nothing from the package",
    ("simulate", "_path_statistic"): "private, and no valid statistic "
                                     "reaches it",
}


def _pmf():
    return walks.ExactPMF(0, 1, (1, 1), 2, "test")


def _spec(c, gamma):
    return characterization.CharacterizationSpec(_pmf(), c, gamma)


REFUSALS = {
    "cap": (lambda: stein.CappedIdentity(0.0),
            "cap c must be in (0, inf], got c = 0.0"),
    "lipschitz-constant": (
        lambda: stein.LipschitzFunction(abs, -1.0),
        "Lipschitz constant must be in [0, inf), got L = -1.0"),
    "fz-prime-side": (lambda: stein.fz_prime(1.0, 1.0),
                      "f_z' jumps at x = z; pass side='left' or "
                      "side='right'"),
    "sup-search-interval": (lambda: stein.sup_search(abs, 1.0, 1.0),
                            "interval [1.0, 1.0] is empty or not finite"),
    "lipschitz-z-hi": (
        lambda: stein.verify_lemma_bounds("lipschitz", z_hi=5e-4),
        "z_hi must be in [0.001, 1000] for a Lipschitz h, got 0.0005"),
    "grid-below": (lambda: stein.verify_lemma_bounds("indicator", grid=1),
                   "grid needs at least 2 points, got 1"),
    "grid-above": (
        lambda: stein.verify_lemma_bounds("indicator",
                                          grid=stein.MAX_GRID + 1),
        f"grid takes at most {stein.MAX_GRID} points, "
        f"got {stein.MAX_GRID + 1}"),
    "z-hi": (lambda: stein.verify_lemma_bounds("indicator", z_hi=0.0),
             "z_hi must be positive and finite, got 0.0"),
    "kind": (lambda: stein.verify_lemma_bounds("quadratic"),
             "unknown bound suite 'quadratic'"),
    "metric": (lambda: metrics.theorem_bound("max", 4, "X"),
               "metric must be 'K' or 'W'"),
    "bound-checks-empty": (lambda: metrics.bound_checks("max", []),
                           "no laws to measure"),
    "rate-table-empty": (lambda: metrics.rate_table("max", []),
                         "empty n list"),
    "pmf-support": (lambda: walks.ExactPMF(0, 1, (1,), 1, "test"),
                    "support length does not match mass vector"),
    "pmf-negative": (lambda: walks.ExactPMF(0, 1, (2, -1), 1, "test"),
                     "negative mass"),
    "pmf-sum": (lambda: walks.ExactPMF(0, 1, (1, 1), 1, "test"),
                "masses do not sum to 1"),
    "scale": (lambda: walks.ScaledLaw(_pmf(), math.nan),
              "scale must be positive and finite"),
    "path-count-cap": (lambda: walks.brute_force_pmf("max", 64),
                       "path count capped at n = 62"),
    "spec-c": (lambda: _spec((1, 1), (0, 0)),
               "c must be defined on [a-1, b]"),
    "spec-gamma": (lambda: _spec((1, 1, 1), (0,)),
                   "gamma must be defined on [a, b]"),
    "spec-c-zero": (lambda: _spec((1, 0, 1), (0, 0)),
                    "c must be nonzero on the support [a, b]"),
    "recover-empty": (
        lambda: characterization.recover_pmf(1, 0, int, int),
        "empty interval"),
    "recover-integer": (
        lambda: characterization.recover_pmf(0, 1, lambda k: 0.5, int),
        "c and gamma must be integer-valued"),
    "recover-top": (
        lambda: characterization.recover_pmf(0, 1, lambda k: 1,
                                             lambda k: 0),
        "inconsistent system: top equation has no solution with mass at "
        "the right endpoint"),
    "recover-ratio": (
        lambda: characterization.recover_pmf(0, 1, lambda k: 1,
                                             lambda k: -1),
        "nonpositive mass ratio 0/1 at k=0"),
}


@pytest.mark.parametrize("call,message", REFUSALS.values(),
                         ids=REFUSALS.keys())
def test_every_refusal_is_a_domain_error(call, message):
    with pytest.raises(walks.DomainError) as exc:
        call()
    assert str(exc.value) == message


def _bare_value_errors():
    """(module, qualified name of the enclosing function) of each
    `raise ValueError` in src, once per site."""
    out = []

    def visit(module, node, prefix, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                visit(module, child, f"{name}.<locals>.", name)
            elif isinstance(child, ast.ClassDef):
                visit(module, child, f"{prefix}{child.name}.", function)
            else:
                exc = child.exc if isinstance(child, ast.Raise) else None
                if isinstance(exc, ast.Call):
                    exc = exc.func
                if isinstance(exc, ast.Name) and exc.id == "ValueError":
                    out.append((module, function))
                visit(module, child, prefix, function)

    for path in sorted(SRC.glob("*.py")):
        visit(path.stem, ast.parse(path.read_text()), "", None)
    return sorted(out)


def test_bare_value_errors_are_the_listed_ones():
    assert _bare_value_errors() == sorted(BARE_VALUE_ERRORS)
