import argparse
import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import pathlib
import shlex
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from halfnorm_stein import cli, metrics, simulate, stein, walks


def run(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def test_pmf_json(capsys):
    code, out = run(capsys, "pmf", "--stat", "signchanges", "--m", "1",
                    "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["support"] == [0, 1]
    assert payload["mass"] == ["3/4", "1/4"]
    # rationals round-trip exactly through the string form
    assert [Fraction(s) for s in payload["mass"]] == [Fraction(3, 4),
                                                      Fraction(1, 4)]


def test_pmf_past_the_int_digit_limit(capsys):
    # at signchanges n = 14 287 a mass has more than 4 300 digits, past
    # Python's default int-to-str limit (from 3.10.7); the pmf command
    # lifts the limit for its conversion only
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: None)
    limit, n = digit_limit(), 14_287
    code, out = run(capsys, "pmf", "--stat", "signchanges", "--n", str(n),
                    "--format", "json")
    assert code == 0
    assert digit_limit() == limit
    texts = json.loads(out)["mass"]
    assert max(len(part) for t in texts for part in t.split("/")) > 4300
    pmf = walks.exact_pmf("signchanges", n)
    with cli._any_int_digits():  # int() is 3x faster here than Fraction()
        parsed = [(*map(int, t.split("/")), 1)[:2] for t in texts]
    assert len(parsed) == len(pmf.numerators)
    assert all(num * pmf.denominator == v * den
               for (num, den), v in zip(parsed, pmf.numerators))


def _readme_cli_examples():
    """argv of each halfnorm-stein line in the sh block of README's CLI
    section."""
    readme = pathlib.Path(__file__).parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    section = text.split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("halfnorm-stein ")]


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    # --out sweep.csv lands in tmp_path
    monkeypatch.chdir(tmp_path)
    examples = _readme_cli_examples()
    assert len(examples) == 12
    for argv in examples:
        assert cli.main(argv) == 0, argv
        capsys.readouterr()
    assert (tmp_path / "sweep.csv").stat().st_size > 0


def test_pmf_by_walk_length(capsys):
    code, out = run(capsys, "pmf", "--stat", "returns", "--n", "4",
                    "--format", "json")
    assert code == 0
    assert json.loads(out)["mass"] == ["3/8", "3/8", "1/4"]


@pytest.mark.parametrize("stat", walks.STATISTICS)
def test_pmf_output_matches_fraction_text(capsys, stat):
    # every format prints the masses byte for byte as str(Fraction) and
    # float(Fraction) of the reduced masses
    n = walks.walk_length(stat, 64)
    law = walks.scaled_law(stat, n)
    support, masses = list(law.base.support()), law.base.masses()
    rows = [{"k": k, "mass": str(f), "mass_float": float(f)}
            for k, f in zip(support, masses)]
    for fmt in ("pretty", "csv"):
        code, out = run(capsys, "pmf", "--stat", stat, "--m", "64",
                        "--format", fmt)
        cli._render(argparse.Namespace(format=fmt, out=None), rows)
        assert code == 0 and out == capsys.readouterr().out
    code, out = run(capsys, "pmf", "--stat", stat, "--m", "64",
                    "--format", "json")
    payload = {"statistic": stat, "n": n, "support": support,
               "mass": [str(f) for f in masses],
               "mass_float": [float(f) for f in masses], "scale": law.scale}
    assert code == 0 and out == json.dumps(payload, indent=2) + "\n"


def test_distance_csv_header(capsys):
    code, out = run(capsys, "distance", "--stat", "returns", "--n", "2:8:2",
                    "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,d_K,d_W,bound_K,bound_W,margin_K,margin_W"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert first[0] == "2"
    assert float(first[1]) == 0.5


def test_check_bounds_exit_zero(capsys):
    code, _ = run(capsys, "check-bounds", "--stat", "max", "--n", "2:64:2",
                  "--format", "csv")
    assert code == 0


def test_only_check_bounds_exits_one_on_a_negative_margin(monkeypatch,
                                                          capsys):
    # one handler serves both commands: the same rows, and only the gate
    # turns a negative margin into exit 1
    monkeypatch.setattr(metrics, "theorem_bound", lambda *args: 0.0)
    argv = ("--stat", "returns", "--n", "2:8:2", "--format", "csv")
    code, out = run(capsys, "check-bounds", *argv)
    assert code == 1
    assert run(capsys, "distance", *argv) == (0, out)


def test_rate_table(capsys):
    code, out = run(capsys, "rate-table", "--stat", "returns", "--n",
                    "64:256:64", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "n,sqrtn_dK,sqrtn_dW,sqrtn_p0,sqrtn_mean_gap"


def test_stein_verify_pretty(capsys):
    code, out = run(capsys, "stein-verify", "--stat", "max", "--m", "64")
    assert code == 0
    assert out.strip() == \
        "residual 0 for 65 basis functions; pmf recovered exactly"


def test_stein_verify_json(capsys):
    code, out = run(capsys, "stein-verify", "--stat", "signchanges", "--m",
                    "9", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["residuals_all_zero"] and payload["pmf_recovered_exactly"]
    assert payload["first_nonzero_residual"] is None


def test_stein_solution(capsys):
    code, out = run(capsys, "stein-solution", "--z", "1.5", "--x", "0.5",
                    "--format", "json")
    assert code == 0
    row = json.loads(out)[0]
    assert abs(row["stein_residual"]) < 1e-7


def test_simulate(capsys):
    code, out = run(capsys, "simulate", "--stat", "returns", "--n", "32",
                    "--trials", "20000", "--seed", "9", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    # deterministic: a second run reproduces the deviation bit for bit
    _, out2 = run(capsys, "simulate", "--stat", "returns", "--n", "32",
                  "--trials", "20000", "--seed", "9", "--format", "json")
    assert out == out2


def test_simulate_runs_every_n(capsys):
    code, out = run(capsys, "simulate", "--stat", "returns", "--n", "64:68:2",
                    "--trials", "10000", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [int(row["n"]) for row in rows] == [64, 66, 68]
    _, out = run(capsys, "simulate", "--stat", "returns", "--n", "64:68:2",
                 "--trials", "10000", "--format", "json")
    assert [row["n"] for row in json.loads(out)] == [64, 66, 68]


def test_simulate_fails_if_any_n_fails(monkeypatch, capsys):
    check = simulate.empirical_check

    def fails_at_66(stat, n, trials, seed):
        report = check(stat, n, trials, seed)
        return dataclasses.replace(report, passed=report.passed and n != 66)

    monkeypatch.setattr(simulate, "empirical_check", fails_at_66)
    code, out = run(capsys, "simulate", "--stat", "returns", "--n", "64:68:2",
                    "--trials", "10000", "--format", "csv")
    assert code == 1
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [row["passed"] for row in rows] == ["True", "False", "True"]


@pytest.mark.parametrize("fmt", ["json", "csv", "pretty"])
def test_simulate_names_its_worst_atom(capsys, fmt):
    code, out = run(capsys, "simulate", "--stat", "max", "--n", "32",
                    "--trials", "20000", "--seed", "1", "--format", fmt)
    assert code == 0
    worst = simulate.empirical_check("max", 32, 20_000, seed=1).worst_atom
    if fmt == "json":
        assert json.loads(out)["worst_atom"] == worst
    else:
        header, row = (line.split(",") if fmt == "csv" else line.split()
                       for line in out.splitlines())
        assert row[header.index("worst_atom")] == str(worst)


def test_stein_solution_far_level_does_not_overflow(capsys):
    # exp((x - z)(x + z)/2) at z = 1e308 overflowed in its exponent; the
    # suite turns a RuntimeWarning into a failure
    code = cli.main(["stein-solution", "--z", "1e308", "--x", "1",
                     "--format", "json"])
    out, err = capsys.readouterr()
    assert code == 0
    assert json.loads(out)[0]["f"] == 0.0
    assert err == ""


def test_stein_solution_far_point_does_not_overflow(capsys):
    # phi squared x = 1e200 in the branch of fz_prime's np.where that is
    # not taken; the suite turns a RuntimeWarning into a failure
    code = cli.main(["stein-solution", "--z", "1", "--x", "1e200"])
    assert code == 0
    assert capsys.readouterr().err == ""


def test_stein_solution_at_and_past_x_max(capsys):
    # the f' stencil at x = 1000 stays at or below the bound, and a point
    # past it is refused by its own value
    code, out = run(capsys, "stein-solution", "--lipschitz", "min1",
                    "--x", "1000", "--format", "json")
    assert code == 0
    assert all(math.isfinite(v) for v in json.loads(out)[0].values())
    assert cli.main(["stein-solution", "--lipschitz", "min1",
                     "--x", "1000.5"]) == 2
    assert "got x = 1000.5\n" in capsys.readouterr().err


def test_verify_lemmas_lipschitz_json(capsys):
    # the second-derivative supremum was a numpy float, and its check's
    # numpy bool ended the JSON output in a traceback
    code, out = run(capsys, "verify-lemmas", "--kind", "lipschitz",
                    "--grid", "3", "--format", "json")
    assert code == 0
    assert all(row["passed"] is True for row in json.loads(out))


def test_verify_lemmas_prints_where_each_supremum_sits(capsys):
    # on [0, 8] the sup of |f_z'| is the left limit at the top level z = 8
    argv = ("verify-lemmas", "--kind", "indicator", "--grid", "41")
    rows = json.loads(run(capsys, *argv, "--format", "json")[1])
    assert rows[1]["bound"] == "sup |f_z'|" and rows[1]["at"] == [8.0, 8.0]
    header, _, row = run(capsys, *argv, "--format", "csv")[1].splitlines()
    assert header.split(",")[-1] == "at"
    assert row.split(",")[-1] == "(8.0 8.0)"
    assert "(8.0 8.0)" in run(capsys, *argv, "--format", "pretty")[1]
    rows = json.loads(run(capsys, "verify-lemmas", "--kind", "lipschitz",
                          "--grid", "41", "--format", "json")[1])
    assert all(isinstance(row["at"], float) for row in rows)


# sha256 of the whole stdout of `verify-lemmas --kind all --format json`
# by grid, as a sweep of the indicator suite's whole (z, x) grid gave it:
# reading the suprema on the diagonal alone must keep every byte
VERIFY_LEMMAS_DIGESTS = {
    200: "afab9e23eabf4f2e8ff61e45e7852512f2f8b59aec0d560049d2107c08c1adc2",
    400: "1d652e136d2c469518f0494089e43796152cd6bd104825bf52f00cb69cdc2701",
    1600: "fa6ffb1cca023f6bd7f95666fadae9c5428948e359d210e3abf6b1a11187d31b",
}


@pytest.mark.parametrize("grid", sorted(VERIFY_LEMMAS_DIGESTS))
def test_verify_lemmas_output_is_pinned(capsys, grid):
    code, out = run(capsys, "verify-lemmas", "--kind", "all", "--format",
                    "json", "--grid", str(grid))
    assert code == 0
    assert (hashlib.sha256(out.encode()).hexdigest()
            == VERIFY_LEMMAS_DIGESTS[grid])


# sha256 of the whole stdout of `stein-solution --format json` at six x
# from 0 to the Lipschitz x_max, by test function, as one solve per x gave
# it: solving the whole --x list at once must keep every byte
STEIN_SOLUTION_X = ("0", "1e-5", "0.5", "1", "999.9", "1000")
STEIN_SOLUTION_DIGESTS = {
    "--z 1.5":
        "b876e735d4694923dc8a5aaed326f202730798fd92bb2e4563410bdde08b6dee",
    "--lipschitz identity":
        "1a70553b955412b837b11be6fd2f141c6562fd841b59ff31521e61d862bbca15",
    "--lipschitz min1":
        "e62fa14b2f34c2541c074ec1148c2c1c29f9b6e219b18f86a040ae4fa8d14bb2",
}


@pytest.mark.parametrize("h", sorted(STEIN_SOLUTION_DIGESTS))
def test_stein_solution_output_is_pinned(capsys, h):
    code, out = run(capsys, "stein-solution", *h.split(), "--x",
                    *STEIN_SOLUTION_X, "--format", "json")
    assert code == 0
    assert (hashlib.sha256(out.encode()).hexdigest()
            == STEIN_SOLUTION_DIGESTS[h])


def test_stein_solution_far_tail_has_no_nan(capsys):
    code, out = run(capsys, "stein-solution", "--z", "1", "--x", "40")
    assert code == 0
    assert "nan" not in out.lower()


def test_every_stat_option_offers_every_statistic():
    # each subcommand with --stat takes exactly walks.STATISTICS
    subparsers = next(action for action in cli.build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    offered = {}
    for name, parser in subparsers.choices.items():
        for action in parser._actions:
            if "--stat" in action.option_strings:
                offered[name] = tuple(action.choices)
    assert set(offered) == {"pmf", "distance", "check-bounds", "rate-table",
                            "stein-verify", "simulate"}
    assert all(choices == walks.STATISTICS for choices in offered.values())


@pytest.mark.parametrize("argv", [
    ["simulate", "--stat", "max", "--n", "63"],
    ["simulate", "--stat", "returns", "--n", "0"],
    ["simulate", "--stat", "max", "--n", "64:66:1"],
], ids=["max-odd-n", "returns-n0", "max-range-with-odd-n"])
def test_simulate_invalid_n_fails_before_drawing(monkeypatch, capsys, argv):
    def no_walks(*args):
        raise AssertionError("a walk was drawn")

    monkeypatch.setattr(simulate, "_steps", no_walks)
    assert cli.main(argv) == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["-1", str(1 << 128)])
def test_simulate_invalid_seed_fails_before_drawing(monkeypatch, capsys,
                                                    seed):
    # Philox takes a key in [0, 2^128) and raises ValueError for any other
    def no_walks(*args):
        raise AssertionError("a walk was drawn")

    monkeypatch.setattr(simulate, "_steps", no_walks)
    assert cli.main(["simulate", "--stat", "returns", "--n", "4",
                     "--trials", "10000", "--seed", seed]) == 2
    assert "seed in [0, 2^128) required" in capsys.readouterr().err


# Each of these ended in a ValueError traceback with exit 1; a domain error
# is a usage error: exit 2 and one line on stderr.
@pytest.mark.parametrize("argv", [
    "pmf --stat max --n 3",
    "pmf --stat returns --m -2",
    "stein-verify --stat max --m 0",
    "distance --stat max --n 0",
    "check-bounds --stat signchanges --n 4",
    "rate-table --stat max --n 1",
    "simulate --stat returns --n 0 --trials 10",
    "simulate --stat returns --n 4 --trials 0",
    "simulate --stat returns --n 4 --trials 10000 --seed -1",
    f"simulate --stat returns --n 4 --trials 10000 --seed {1 << 128}",
    "pmf --stat returns --m 3 --out /nonexistent/x.json",
    "pmf --stat returns --m 3 --out .",
    "distance --stat halfmax --n 3",
    "check-bounds --stat halfmax --n 3:9:2",
    "stein-solution --z -1 --x 1",
    "stein-solution --z 1 --x -1",
    "stein-solution --lipschitz identity --x 1e4",
    "stein-solution --lipschitz identity --x 1e12",
])
def test_domain_errors_exit_two(capsys, argv):
    assert cli.main(argv.split()) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith(f"halfnorm-stein {argv.split()[0]}: error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["check-bounds", "distance",
                                     "rate-table"])
@pytest.mark.parametrize("n", [1 << 62, 10 ** 15, (1 << 64) + 2])
def test_huge_n_exits_two(capsys, command, n):
    # 2^62 ended in a numpy _ArrayMemoryError traceback and exit 1, 10^15
    # in a process killed for its memory
    assert cli.main([command, "--stat", "max", "--n", str(n)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert err.startswith(f"halfnorm-stein {command}: error: max at n = ")


@pytest.mark.parametrize("argv", [
    f"check-bounds --stat max --n 2:{10 ** 30}:2",
    f"check-bounds --stat max --n 2:{10 ** 18}:2",
    f"simulate --stat max --n 2:{10 ** 23}:2 --trials 10000",
])
def test_range_too_long_to_list_is_a_usage_error(capsys, argv):
    # listing the walk lengths raised OverflowError (more than sys.maxsize
    # of them) or MemoryError (4e18 bytes) and exited 1, a failed bound to
    # a CI gate; both are refused before any memory is touched
    spec = argv.split()[4]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv.split())
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err.splitlines()[-1].endswith(
        f"argument --n: range '{spec}' holds too many walk lengths")


@pytest.mark.parametrize("argv", [
    "pmf --stat max --n 100000000000",
    "pmf --stat signchanges --m 100000000",
    "stein-verify --stat max --m 100000000",
    "simulate --stat returns --n 64:200064:200000 --trials 10000",
])
def test_exact_law_too_large_exits_two(monkeypatch, capsys, argv):
    # pmf at n = 10^11 was still running after 20 s; now the size of the
    # exact law is refused before any big integer is built, and simulate
    # refuses its second n before it draws a walk for the first
    def build(*args):
        raise AssertionError("a row or a walk was built")

    monkeypatch.setattr(walks, "_exact_row", build)
    monkeypatch.setattr(simulate, "_steps", build)
    assert cli.main(argv.split()) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert " needs an exact law of " in err


def test_output_file(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code, out = run(capsys, "distance", "--stat", "returns", "--n", "4",
                    "--format", "csv", "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("n,d_K,")


def test_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["distance", "--stat", "bogus", "--n", "4"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["distance", "--stat", "returns", "--n", "8:2:2"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["distance", "--stat", "returns", "--n", "2:4"])
    assert exc.value.code == 2
    assert "bad range '2:4'" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify-lemmas", "--grid", "abc"])
    assert exc.value.code == 2
    assert "argument --grid: invalid int value: 'abc'" in (
        capsys.readouterr().err)


SUBCOMMANDS = ("pmf", "distance", "check-bounds", "rate-table",
               "stein-verify", "stein-solution", "verify-lemmas", "simulate")


@pytest.mark.parametrize("command", [None, *SUBCOMMANDS])
def test_every_help_renders(capsys, command):
    # argparse formats each help text only when --help asks for it, so a
    # stray % in one would surface only here
    argv = [command] if command else []
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(" ".join(["usage: halfnorm-stein", *argv]))
    if command is None:  # and no subcommand goes untested
        assert "{" + ",".join(SUBCOMMANDS) + "}" in out


def test_parity_error_propagates(capsys):
    assert cli.main(["distance", "--stat", "returns", "--n", "5"]) == 2
    assert "returns requires even n" in capsys.readouterr().err


def test_other_value_errors_are_not_domain_errors(monkeypatch):
    # a ValueError from inside a check is a bug, not a usage error
    def broken(*args):
        raise ValueError("bug inside a check")

    monkeypatch.setattr(metrics, "bound_checks", broken)
    with pytest.raises(ValueError, match="bug inside a check"):
        cli.main(["distance", "--stat", "returns", "--n", "4"])


def _refuse_suites(monkeypatch):
    """Make running either certification suite an AssertionError."""
    def build(*args):
        raise AssertionError("a suite was run")

    monkeypatch.setattr(stein, "_indicator_bound_report", build)
    monkeypatch.setattr(stein, "_lipschitz_bound_report", build)


def _grid_refusal(capsys, kind, grid):
    """The stderr line of verify-lemmas --grid refused with exit 2, and no
    output."""
    assert cli.main(["verify-lemmas", "--kind", kind, "--grid", grid]) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    return err


@pytest.mark.parametrize("kind", ["indicator", "lipschitz", "all"])
@pytest.mark.parametrize("grid", ["0", "1"])
def test_verify_lemmas_rejects_degenerate_grid(monkeypatch, capsys, kind,
                                               grid):
    # the library's refusal, a DomainError, reaches exit 2 through main
    # before any suite runs
    _refuse_suites(monkeypatch)
    assert _grid_refusal(capsys, kind, grid) == (
        f"halfnorm-stein verify-lemmas: error: grid needs at least 2 "
        f"points, got {grid}\n")


@pytest.mark.parametrize("grid", [stein.MAX_GRID + 1, 10 ** 18])
def test_verify_lemmas_refuses_a_grid_above_the_cap(monkeypatch, capsys,
                                                    grid):
    # 10^18 ended in numpy's _ArrayMemoryError traceback and exit 1; now
    # the library refuses it, exit 2, in one line naming the cap
    _refuse_suites(monkeypatch)
    for kind in ("indicator", "lipschitz", "all"):
        assert _grid_refusal(capsys, kind, str(grid)) == (
            f"halfnorm-stein verify-lemmas: error: grid takes at most "
            f"{stein.MAX_GRID} points, got {grid}\n")
    with pytest.raises(AssertionError, match="a suite was run"):
        stein.verify_lemma_bounds("indicator", grid=stein.MAX_GRID)


def test_parser_is_built_once_per_process(capsys):
    cli.build_parser.cache_clear()
    argv = ("distance", "--stat", "returns", "--n", "2:8:2", "--format", "csv")
    first, second = run(capsys, *argv), run(capsys, *argv)
    assert first == second and first[0] == 0 and first[1]
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


_STAT = st.sampled_from(walks.STATISTICS + ("bogus",))
_N = st.integers(-3, 64).map(str)
_N_RANGE = _N | st.tuples(st.integers(-3, 64), st.integers(-3, 64),
                          st.integers(-1, 8)).map(
    lambda t: ":".join(map(str, t)))
_FORMAT = st.sampled_from(("pretty", "csv", "json"))
# far values too, where a square or an exponent can overflow
_REAL = (st.floats(-2.0, 12.0)
         | st.sampled_from((1e200, 1e308, math.inf, math.nan))).map(repr)
# --out is drawn only from paths that cannot be written, so no run leaves a
# file behind
_OUT = st.sampled_from(((), ("--out", "/nonexistent/x.json"), ("--out", ".")))
# Philox keys lie in [0, 2^128)
_SEED = (st.integers(0, 3) | st.sampled_from((-1, 1 << 128))).map(str)
_ARGV = st.one_of(
    st.tuples(st.just("pmf"), _STAT, st.sampled_from(("--m", "--n")),
              st.integers(-2, 32).map(str), _FORMAT, _OUT).map(
        lambda a: ["pmf", "--stat", a[1], a[2], a[3], "--format", a[4],
                   *a[5]]),
    st.tuples(st.sampled_from(("distance", "check-bounds")), _STAT,
              _N_RANGE, _FORMAT).map(
        lambda a: [a[0], "--stat", a[1], "--n", a[2], "--format", a[3]]),
    st.tuples(st.one_of(st.tuples(st.just("--z"), _REAL),
                        st.tuples(st.just("--lipschitz"),
                                  st.sampled_from(("identity", "min1")))),
              st.lists(_REAL, min_size=1, max_size=2)).map(
        lambda a: ["stein-solution", *a[0], "--x", *a[1]]),
    st.tuples(_STAT, _N, st.sampled_from(("0", "9999", "10000")),
              _SEED).map(
        lambda a: ["simulate", "--stat", a[0], "--n", a[1],
                   "--trials", a[2], "--seed", a[3]]),
    st.tuples(_STAT, _N_RANGE, _FORMAT).map(
        lambda a: ["rate-table", "--stat", a[0], "--n", a[1],
                   "--format", a[2]]),
    st.tuples(_STAT, st.integers(-2, 24).map(str), _FORMAT).map(
        lambda a: ["stein-verify", "--stat", a[0], "--m", a[1],
                   "--format", a[2]]),
    # grids past the cap and a non-integer too, but not MAX_GRID itself,
    # which would run a full suite
    st.tuples(st.sampled_from(("indicator", "lipschitz", "all")),
              st.integers(-1, 6).map(str)
              | st.sampled_from((str(stein.MAX_GRID + 1), str(10 ** 18),
                                 "abc")), _FORMAT).map(
        lambda a: ["verify-lemmas", "--kind", a[0], "--grid", a[1],
                   "--format", a[2]]),
)


@settings(max_examples=150, deadline=None)
@given(_ARGV)
def test_cli_exit_codes(argv):
    # every argv ends in exit 0, 1 or 2; any other exception is a traceback
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
