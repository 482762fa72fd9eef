import contextlib
import io
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from halfnorm_stein import cli, metrics, simulate, walks


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


def test_pmf_by_walk_length(capsys):
    code, out = run(capsys, "pmf", "--stat", "returns", "--n", "4",
                    "--format", "json")
    assert code == 0
    assert json.loads(out)["mass"] == ["3/8", "3/8", "1/4"]


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


def test_stein_solution_far_tail_has_no_nan(capsys):
    code, out = run(capsys, "stein-solution", "--z", "1", "--x", "40")
    assert code == 0
    assert "nan" not in out.lower()


def test_simulate_rejects_halfmax(capsys):
    # the command offers the statistics with a theorem bound; argparse
    # refuses halfmax
    with pytest.raises(SystemExit) as exc:
        cli.main(["simulate", "--stat", "halfmax", "--n", "64"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'halfmax'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["simulate", "--stat", "max", "--n", "63"],
    ["simulate", "--stat", "returns", "--n", "0"],
], ids=["max-odd-n", "returns-n0"])
def test_simulate_invalid_n_fails_before_drawing(monkeypatch, capsys, argv):
    def no_walks(*args):
        raise AssertionError("a walk was drawn")

    monkeypatch.setattr(simulate, "_steps", no_walks)
    assert cli.main(argv) == 2
    assert "Traceback" not in capsys.readouterr().err


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
    "distance --stat halfmax --n 2",
    "check-bounds --stat halfmax --n 2:8:2",
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


def test_output_file(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code, out = run(capsys, "distance", "--stat", "returns", "--n", "4",
                    "--format", "csv", "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("n,d_K,")


def test_usage_errors():
    with pytest.raises(SystemExit) as exc:
        cli.main(["distance", "--stat", "bogus", "--n", "4"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["distance", "--stat", "returns", "--n", "8:2:2"])
    assert exc.value.code == 2


def test_parity_error_propagates(capsys):
    assert cli.main(["distance", "--stat", "returns", "--n", "5"]) == 2
    assert "returns requires even n" in capsys.readouterr().err


def test_other_value_errors_are_not_domain_errors(monkeypatch):
    # a ValueError from inside a check is a bug, not a usage error
    def broken(*args):
        raise ValueError("bug inside a check")

    monkeypatch.setattr(metrics, "bound_check", broken)
    with pytest.raises(ValueError, match="bug inside a check"):
        cli.main(["distance", "--stat", "returns", "--n", "4"])


@pytest.mark.parametrize("kind", ["indicator", "lipschitz"])
@pytest.mark.parametrize("grid", ["0", "1"])
def test_verify_lemmas_rejects_degenerate_grid(capsys, kind, grid):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify-lemmas", "--kind", kind, "--grid", grid])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "grid needs at least 2 points" in err
    assert "Traceback" not in err


_STAT = st.sampled_from(walks.STATISTICS + ("bogus",))
_N = st.integers(-3, 64).map(str)
_N_RANGE = _N | st.tuples(st.integers(-3, 64), st.integers(-3, 64),
                          st.integers(-1, 8)).map(
    lambda t: ":".join(map(str, t)))
_FORMAT = st.sampled_from(("pretty", "csv", "json"))
_REAL = st.floats(-2.0, 12.0).map(repr)
_ARGV = st.one_of(
    st.tuples(st.just("pmf"), _STAT, st.sampled_from(("--m", "--n")),
              st.integers(-2, 32).map(str), _FORMAT).map(
        lambda a: ["pmf", "--stat", a[1], a[2], a[3], "--format", a[4]]),
    st.tuples(st.sampled_from(("distance", "check-bounds")), _STAT,
              _N_RANGE, _FORMAT).map(
        lambda a: [a[0], "--stat", a[1], "--n", a[2], "--format", a[3]]),
    st.tuples(st.one_of(st.tuples(st.just("--z"), _REAL),
                        st.tuples(st.just("--lipschitz"),
                                  st.sampled_from(("identity", "min1")))),
              st.lists(_REAL, min_size=1, max_size=2)).map(
        lambda a: ["stein-solution", *a[0], "--x", *a[1]]),
    st.tuples(_STAT, _N, st.sampled_from(("0", "9999", "10000")),
              st.integers(0, 3).map(str)).map(
        lambda a: ["simulate", "--stat", a[0], "--n", a[1],
                   "--trials", a[2], "--seed", a[3]]),
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
