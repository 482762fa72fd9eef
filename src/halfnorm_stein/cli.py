"""Command-line surface: tables and machine-readable reports.

Exit code 0 on success, 1 when a bound or identity check fails (so
`check-bounds` works as a CI gate), 2 on usage or domain errors, with one
line on stderr. Exact rationals are serialized as "p/q" strings next to
their float projections.
"""

from __future__ import annotations

import argparse
import json
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
        return list(range(start, end + 1, step))
    raise argparse.ArgumentTypeError(f"bad range {spec!r}")


def _grid_points(spec: str) -> int:
    """A certification grid size: an integer of at least 2."""
    try:
        points = int(spec)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad grid size {spec!r}") from None
    if points < 2:
        raise argparse.ArgumentTypeError(
            f"grid needs at least 2 points, got {points}")
    return points


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
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


def _cmd_pmf(args) -> int:
    if args.m is not None:
        n = 2 * args.m + 1 if args.stat == "signchanges" else 2 * args.m
    else:
        n = args.n
    law = walks.scaled_law(args.stat, n)
    pmf = law.base
    payload = {
        "statistic": args.stat,
        "n": n,
        "support": list(pmf.support()),
        "mass": [str(f) for f in pmf.masses()],
        "mass_float": [float(f) for f in pmf.masses()],
        "scale": law.scale,
    }
    if args.format == "json":
        _emit(args, json.dumps(payload, indent=2) + "\n")
    else:
        rows = [{"k": k, "mass": str(f), "mass_float": float(f)}
                for k, f in zip(pmf.support(), pmf.masses())]
        _render(args, rows)
    return 0


def _report_row(r: metrics.DistanceReport) -> dict:
    return {"n": r.n, "d_K": r.kolmogorov, "d_W": r.wasserstein,
            "bound_K": r.bound_K, "bound_W": r.bound_W,
            "margin_K": r.margin_K, "margin_W": r.margin_W}


def _cmd_distance(args) -> int:
    rows = [_report_row(metrics.bound_check(args.stat, n)) for n in args.n]
    _render(args, rows)
    return 0


def _cmd_check_bounds(args) -> int:
    reports = metrics.bound_sweep(args.stat, args.n)
    _render(args, [_report_row(r) for r in reports])
    return 0 if all(r.passed for r in reports) else 1


def _cmd_rate_table(args) -> int:
    rows = [{"n": r.n, "sqrtn_dK": r.sqrtn_dK, "sqrtn_dW": r.sqrtn_dW,
             "sqrtn_p0": r.sqrtn_p0, "sqrtn_mean_gap": r.sqrtn_mean_gap}
            for r in metrics.rate_table(args.stat, args.n)]
    _render(args, rows)
    return 0


def _cmd_stein_verify(args) -> int:
    spec = characterization.make_spec(args.stat, args.m)
    residuals = characterization.indicator_residuals(spec)
    all_zero = all(r == 0 for r in residuals)
    recovered = characterization.recover_pmf(
        spec.pmf.lower, spec.pmf.upper, spec.c, spec.gamma, args.stat)
    exact_match = recovered == spec.pmf
    payload = {
        "statistic": args.stat, "m": args.m,
        "basis_functions": len(residuals),
        "residuals_all_zero": all_zero,
        "pmf_recovered_exactly": exact_match,
    }
    if args.format == "json":
        _emit(args, json.dumps(payload, indent=2) + "\n")
    else:
        verdict = "exactly" if exact_match else "NOT exactly"
        zero = "0" if all_zero else "NONZERO"
        _emit(args, f"residual {zero} for {len(residuals)} basis functions; "
                    f"pmf recovered {verdict}\n")
    return 0 if all_zero and exact_match else 1


def _cmd_stein_solution(args) -> int:
    if args.z is not None:
        h = stein.HalfLineIndicator(args.z)
    elif args.lipschitz == "identity":
        h = stein.IDENTITY
    else:
        h = stein.CAPPED_AT_ONE
    rows = []
    for x in args.x:
        rows.append({
            "x": x,
            "f": stein.solve_fh(h, x),
            "f_prime": stein.solve_fh_prime(h, x),
            "stein_residual": stein.stein_residual_continuous(h, x),
        })
    _render(args, rows)
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
                         "margin": chk.margin, "passed": chk.passed})
    _render(args, rows)
    return 0 if all(r.passed for r in reports) else 1


def _cmd_simulate(args) -> int:
    report = simulate.empirical_check(args.stat, args.n[0], args.trials,
                                      args.seed)
    payload = {
        "statistic": report.statistic_tag, "n": report.n,
        "trials": report.trials, "seed": report.seed,
        "max_cdf_deviation": report.max_cdf_deviation,
        "dkw_threshold": report.dkw_threshold,
        "passed": report.passed,
    }
    if args.format == "json":
        _emit(args, json.dumps(payload, indent=2) + "\n")
    else:
        _render(args, [payload])
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="halfnorm-stein",
        description="Exact walk laws, Stein solutions and half-normal "
                    "distance bounds")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, stat=True, nrange=False,
               stats=("returns", "max", "halfmax", "signchanges")):
        p.add_argument("--format", choices=("csv", "json", "pretty"),
                       default="pretty")
        p.add_argument("--out", default=None, help="write output to a file")
        if stat:
            p.add_argument("--stat", required=True, choices=stats)
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
    p.set_defaults(fn=_cmd_check_bounds)

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
    p.add_argument("--grid", type=_grid_points, default=400,
                   help="points per axis, at least 2")
    p.set_defaults(fn=_cmd_verify_lemmas)

    p = sub.add_parser("simulate", help="Monte Carlo check against the exact law")
    common(p, nrange=True, stats=("returns", "max", "signchanges"))
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
