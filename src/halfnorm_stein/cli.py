"""Command-line surface: tables and machine-readable reports.

Exit code 0 on success, 1 when a bound or identity check fails (so
`check-bounds` works as a CI gate), 2 on usage or domain errors, with one
line on stderr. Exact rationals are serialized as "p/q" strings next to
their float projections.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import sys

from . import characterization, metrics, simulate, stein, walks


def _parse_range(spec: str) -> list[int]:
    """Parse 'start:end:step' (inclusive end) or a single integer."""
    parts = spec.split(":")
    if len(parts) == 1:
        return [int(parts[0])]
    if len(parts) == 3:
        start, end, step = (int(p) for p in parts)
        if step <= 0 or end < start:
            raise argparse.ArgumentTypeError("range must be start:end:step "
                                             "with step > 0 and end >= start")
        try:  # both refused before any memory is touched
            return list(range(start, end + 1, step))
        except (OverflowError, MemoryError):
            raise argparse.ArgumentTypeError(
                f"range {spec!r} holds too many walk lengths") from None
    raise argparse.ArgumentTypeError(f"bad range {spec!r}")


def _emit(args, text: str) -> None:
    if args.out:
        try:
            with open(args.out, "w", newline="") as fh:
                fh.write(text)
        except OSError as exc:  # a missing directory, a directory, a full disk
            raise walks.DomainError(f"cannot write --out: {exc}") from None
    else:
        sys.stdout.write(text)


def _csv(rows: list[dict]) -> str:
    header = list(rows[0].keys())
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_format_cell(row[k]) for k in header))
    return "\n".join(lines) + "\n"


def _format_cell(v) -> str:
    if isinstance(v, float):
        return repr(float(v))
    if isinstance(v, tuple):  # a point (z, x), kept free of commas for csv
        return "(" + " ".join(map(_format_cell, v)) + ")"
    return str(v)


def _render(args, rows: list[dict]) -> None:
    if args.format == "csv":
        _emit(args, _csv(rows))
    elif args.format == "json":
        _emit(args, json.dumps(rows, indent=2) + "\n")
    else:
        widths = {k: max(len(k), *(len(_format_cell(r[k])) for r in rows))
                  for k in rows[0]}
        lines = ["  ".join(k.ljust(widths[k]) for k in rows[0])]
        for r in rows:
            lines.append("  ".join(_format_cell(r[k]).ljust(widths[k])
                                   for k in r))
        _emit(args, "\n".join(lines) + "\n")


@contextlib.contextmanager
def _any_int_digits():
    """Lift Python's limit on the decimal digits of an int-to-str
    conversion (4 300 by default, from Python 3.10.7) inside the block, and
    restore it after; older Pythons have no limit."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _mass_texts(pmf: walks.ExactPMF) -> list[str]:
    """str(Fraction(v, d)) of every mass v/d of a walk law. Its d is
    2^(2m), which is 2^n, or 2^(n - 1) for signchanges, and every mass
    lies strictly between 0 and 1, so v and d share just the trailing zero
    bits of v, shifted out here in place of a big-integer gcd, and the
    reduced denominator is at least 2; the few reduced denominators are
    written in decimal once each."""
    d = pmf.denominator
    decimal: dict[int, str] = {}
    out = []
    for v in pmf.numerators:
        shift = (v & -v).bit_length() - 1
        den = d >> shift
        if den not in decimal:
            decimal[den] = str(den)
        out.append(f"{v >> shift}/{decimal[den]}")
    return out


def _cmd_pmf(args) -> int:
    n = args.n if args.m is None else walks.walk_length(args.stat, args.m)
    law = walks.scaled_law(args.stat, n)
    pmf = law.base
    with _any_int_digits():  # from n = 14 286 a mass has over 4 300 digits
        texts = _mass_texts(pmf)
    # v / d rounds the same rational as float(Fraction(v, d)), once
    floats = [v / pmf.denominator for v in pmf.numerators]
    if args.format == "json":
        payload = {
            "statistic": args.stat,
            "n": n,
            "support": list(pmf.support()),
            "mass": texts,
            "mass_float": floats,
            "scale": law.scale,
        }
        _emit(args, json.dumps(payload, indent=2) + "\n")
    else:
        _render(args, [{"k": k, "mass": t, "mass_float": f}
                       for k, t, f in zip(pmf.support(), texts, floats)])
    return 0


def _report_row(r: metrics.DistanceReport) -> dict:
    return {"n": r.n, "d_K": r.kolmogorov, "d_W": r.wasserstein,
            "bound_K": r.bound_K, "bound_W": r.bound_W,
            "margin_K": r.margin_K, "margin_W": r.margin_W}


def _cmd_distance(args) -> int:
    """distance and check-bounds; only check-bounds exits 1 on a negative
    margin."""
    reports = metrics.bound_checks(args.stat, args.n)
    _render(args, [_report_row(r) for r in reports])
    failed = not all(r.passed for r in reports)
    return 1 if failed and args.command == "check-bounds" else 0


def _cmd_rate_table(args) -> int:
    _render(args, [dataclasses.asdict(r)
                   for r in metrics.rate_table(args.stat, args.n)])
    return 0


def _cmd_stein_verify(args) -> int:
    spec = characterization.make_spec(args.stat, args.m)
    residuals = characterization.indicator_residuals(spec)
    first_nonzero = next((j for j, r in zip(spec.pmf.support(), residuals)
                          if r != 0), None)
    all_zero = first_nonzero is None
    recovered = characterization.recover_pmf(
        spec.pmf.lower, spec.pmf.upper, spec.c, spec.gamma, args.stat)
    exact_match = recovered == spec.pmf
    payload = {
        "statistic": args.stat, "m": args.m,
        "basis_functions": len(residuals),
        "residuals_all_zero": all_zero,
        "first_nonzero_residual": first_nonzero,
        "pmf_recovered_exactly": exact_match,
    }
    if args.format == "json":
        _emit(args, json.dumps(payload, indent=2) + "\n")
    else:
        verdict = "exactly" if exact_match else "NOT exactly"
        zero = "0" if all_zero else f"NONZERO (first at j = {first_nonzero})"
        _emit(args, f"residual {zero} for {len(residuals)} basis functions; "
                    f"pmf recovered {verdict}\n")
    return 0 if all_zero and exact_match else 1


def _cmd_stein_solution(args) -> int:
    # the solution is evaluated on the half-normal's support x >= 0, and an
    # indicator 1_{[0,z]} needs a level z >= 0 there
    level = [] if args.z is None else [("z", args.z)]
    for name, value in level + [("x", x) for x in args.x]:
        if not 0.0 <= value < math.inf:
            raise walks.DomainError(
                f"{name} must be finite and >= 0, got {name} = {value}")
    if args.z is not None:
        h = stein.HalfLineIndicator(args.z)
    elif args.lipschitz == "identity":
        h = stein.IDENTITY
    else:
        h = stein.CAPPED_AT_ONE
    f, f_prime, residual = (solve(h, args.x).tolist() for solve in (
        stein.solve_fh, stein.solve_fh_prime,
        stein.stein_residual_continuous))
    _render(args, [{"x": x, "f": v, "f_prime": d, "stein_residual": r}
                   for x, v, d, r in zip(args.x, f, f_prime, residual)])
    return 0


def _cmd_verify_lemmas(args) -> int:
    reports = []
    if args.kind in ("indicator", "all"):
        reports.append(stein.verify_lemma_bounds("indicator", grid=args.grid))
    if args.kind in ("lipschitz", "all"):
        reports.append(stein.verify_lemma_bounds("lipschitz", grid=args.grid,
                                                 h=stein.IDENTITY))
        reports.append(stein.verify_lemma_bounds("lipschitz", grid=args.grid,
                                                 h=stein.CAPPED_AT_ONE))
    rows = []
    for rep in reports:
        for chk in rep.checks:
            rows.append({"suite": rep.kind, "bound": chk.name,
                         "observed": chk.observed, "limit": chk.limit,
                         "margin": chk.margin, "passed": chk.passed,
                         "at": chk.at})
    _render(args, rows)
    return 0 if all(r.passed for r in reports) else 1


def _cmd_simulate(args) -> int:
    # every n is checked before any walk is drawn
    for n in args.n:
        walks._exact_half_length(args.stat, n)
    rows = []
    for n in args.n:
        report = simulate.empirical_check(args.stat, n, args.trials,
                                          args.seed)
        rows.append({
            "statistic": report.statistic_tag, "n": report.n,
            "trials": report.trials, "seed": report.seed,
            "max_cdf_deviation": report.max_cdf_deviation,
            "worst_atom": report.worst_atom,
            "dkw_threshold": report.dkw_threshold,
            "passed": report.passed,
        })
    if args.format == "json" and len(rows) == 1:  # one n: a single object
        _emit(args, json.dumps(rows[0], indent=2) + "\n")
    else:
        _render(args, rows)
    return 0 if all(row["passed"] for row in rows) else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="halfnorm-stein",
        description="Exact walk laws, Stein solutions and half-normal "
                    "distance bounds")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, stat=True, nrange=False):
        p.add_argument("--format", choices=("csv", "json", "pretty"),
                       default="pretty")
        p.add_argument("--out", default=None, help="write output to a file")
        if stat:
            p.add_argument("--stat", required=True, choices=walks.STATISTICS)
        if nrange:
            p.add_argument("--n", type=_parse_range, required=True,
                           help="walk length, single value or start:end:step")

    p = sub.add_parser("pmf", help="exact pmf of a walk statistic")
    common(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--m", type=int)
    group.add_argument("--n", type=int)
    p.set_defaults(fn=_cmd_pmf)

    p = sub.add_parser("distance", help="exact distances and theorem bounds")
    common(p, nrange=True)
    p.set_defaults(fn=_cmd_distance)

    p = sub.add_parser("check-bounds",
                       help="sweep n, exit 1 if any margin is negative")
    common(p, nrange=True)
    p.set_defaults(fn=_cmd_distance)

    p = sub.add_parser("rate-table", help="sqrt(n)-scaled convergence table")
    common(p, nrange=True)
    p.set_defaults(fn=_cmd_rate_table)

    p = sub.add_parser("stein-verify",
                       help="discrete Stein identity and pmf recovery")
    common(p)
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(fn=_cmd_stein_verify)

    p = sub.add_parser("stein-solution",
                       help="evaluate the Stein-equation solution")
    common(p, stat=False)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--z", type=float, help="half-line indicator level")
    group.add_argument("--lipschitz", choices=("identity", "min1"))
    p.add_argument("--x", type=float, nargs="+", required=True)
    p.set_defaults(fn=_cmd_stein_solution)

    p = sub.add_parser("verify-lemmas", help="certify the norm bounds")
    common(p, stat=False)
    p.add_argument("--kind", choices=("indicator", "lipschitz", "all"),
                   default="all")
    p.add_argument("--grid", type=int, default=400,
                   help=f"points per axis, 2 to {stein.MAX_GRID}")
    p.set_defaults(fn=_cmd_verify_lemmas)

    p = sub.add_parser("simulate", help="Monte Carlo check against the exact law")
    common(p, nrange=True)
    p.add_argument("--trials", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_simulate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except walks.DomainError as exc:  # any other error is a bug
        print(f"halfnorm-stein {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
