"""Command line front end.

Subcommands map one-to-one onto the library's checkable claims: `gen`
emits permutation regexes, `len`/`table` tabulate the length
recurrences, `verify` certifies language equality (by the split proof,
or exhaustively at small n), `lemmas` runs the exact combinatorial
sweeps, `bounds` runs the certified interval sweeps, `estimate` prints
the closed-form approximation against exact values, and `oracle` runs
the exhaustive minimality search.  Exit status: 0 success, 1 a check ran and failed, 2 usage or
input errors.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
import time
from fractions import Fraction

from . import bounds, construct, lengths, oracle, regex_ast, verify
from .errors import InvalidArgs, PermrexError

_BUILDERS = {
    "dnc": construct.build_divide_and_conquer,
    "tail": construct.build_tail_recursive,
    "flat": construct.build_flat_union,
}

_ENV_PRECISION = "PERMREX_PRECISION_BITS"


def _limits_from(args: argparse.Namespace) -> construct.BuildLimits:
    return construct.BuildLimits(
        max_symbols=args.max_symbols, flat_cap=args.flat_cap
    )


def _open_sink(path: str | None):
    if path is None or path == "-":
        return sys.stdout, False
    return open(path, "w", encoding="utf-8"), True


def _emit(args: argparse.Namespace, text: str) -> None:
    sink, owned = _open_sink(getattr(args, "output", None))
    try:
        sink.write(text)
        if not text.endswith("\n"):
            sink.write("\n")
    finally:
        if owned:
            sink.close()


def _emit_json(args: argparse.Namespace, report: dict, started: float) -> None:
    payload = {
        "report": report,
        "meta": {"elapsed_seconds": round(time.monotonic() - started, 3)},
    }
    _emit(args, json.dumps(payload, indent=2))


def _fraction_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _cmd_gen(args: argparse.Namespace) -> int:
    expr = _BUILDERS[args.builder](
        construct.AlphabetSet.first_n(args.n), limits=_limits_from(args)
    )
    # Rendered before the output is opened, so a refusal leaves no partial file.
    _emit(args, regex_ast.render(expr, args.format))
    return 0


def _cmd_len(args: argparse.Namespace) -> int:
    started = time.monotonic()
    values = lengths.f_table(args.max_n)
    report = {
        "max_n": args.max_n,
        "f": [{"n": i + 1, "value": v} for i, v in enumerate(values)],
    }
    _emit_json(args, report, started)
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    started = time.monotonic()
    f_values = lengths.f_table(args.max_n)
    rows = [
        {
            "n": n,
            "f": f_values[n - 1],
            "t": lengths.t(n),
            "flat": lengths.flat_length(n),
        }
        for n in range(1, args.max_n + 1)
    ]
    if args.format == "json":
        _emit_json(args, {"max_n": args.max_n, "rows": rows}, started)
        return 0
    sink, owned = _open_sink(args.output)
    try:
        writer = csv.writer(sink, lineterminator="\n")
        writer.writerow(["n", "f", "t", "flat"])
        for row in rows:
            writer.writerow([row["n"], row["f"], row["t"], row["flat"]])
    finally:
        if owned:
            sink.close()
    return 0


def _certificate_report(cert: verify.Certificate) -> dict:
    report = dataclasses.asdict(cert)
    report["violations"] = list(cert.violations)
    return report


def _cmd_verify(args: argparse.Namespace) -> int:
    started = time.monotonic()
    if args.regex_file is not None:
        with open(args.regex_file, "r", encoding="utf-8") as handle:
            text = handle.read()
        expr = regex_ast.parse(text, args.n)
        source = {"kind": "regex-file", "path": args.regex_file}
    else:
        expr = _BUILDERS[args.builder](
            construct.AlphabetSet.first_n(args.n), limits=_limits_from(args)
        )
        source = {"kind": "builder", "builder": args.builder}
    cert = verify.language_equals_permutations(expr, args.n, cap=args.verify_cap)
    report = {"source": source, "certificate": _certificate_report(cert)}
    _emit_json(args, report, started)
    return 0 if cert.passed else 1


def _cmd_lemmas(args: argparse.Namespace) -> int:
    started = time.monotonic()
    choice_failures: list[dict] = []
    for n in range(2, args.max_n + 1):
        result = lengths.check_opt_choice(n)
        if not result.passed:
            choice_failures.append(
                {
                    "n": n,
                    "violations": [
                        dataclasses.asdict(v) for v in result.violations
                    ],
                }
            )
    growth = lengths.check_triple_growth(args.max_n)
    report = {
        "max_n": args.max_n,
        "split_choice": {
            "passed": not choice_failures,
            "failures": choice_failures,
        },
        "triple_growth": {
            "passed": growth.passed,
            "min_ratio": None
            if growth.min_ratio is None
            else _fraction_str(growth.min_ratio),
            "min_ratio_at": growth.min_ratio_at,
            "violations": list(growth.violations),
        },
    }
    _emit_json(args, report, started)
    return 0 if not choice_failures and growth.passed else 1


def _bound_report_dict(report: bounds.BoundReport) -> dict:
    return dataclasses.asdict(report) | {"failures": list(report.failures)}


def _precision_bits(args: argparse.Namespace) -> int:
    """--precision-bits, else PERMREX_PRECISION_BITS, else the default.
    Only the commands that take a precision read the variable."""
    bits = args.precision_bits
    if bits is None:
        raw = os.environ.get(_ENV_PRECISION, str(bounds.DEFAULT_PRECISION_BITS))
        try:
            bits = int(raw)
        except ValueError:
            print(
                f"error: {_ENV_PRECISION} must be an integer, got {raw!r}",
                file=sys.stderr,
            )
            raise SystemExit(2) from None
    return bounds.require_precision(bits)


def _cmd_bounds(args: argparse.Namespace) -> int:
    started = time.monotonic()
    bits = _precision_bits(args)
    grid = bounds.default_grid(*args.grid)

    def growth_template(alpha_name: str, alpha) -> bounds.BoundReport:
        usable = bounds.filter_ga_domain(grid, alpha, base_bits=bits)
        report = bounds.check_lemma_ga(usable, alpha, base_bits=bits)
        return dataclasses.replace(
            report, inequality=f"{report.inequality}[{alpha_name}]"
        )

    checks = [
        lambda: bounds.check_fn_bounds(args.max_n, base_bits=bits),
        lambda: bounds.check_stirling_sandwich(args.max_n, base_bits=bits),
        lambda: bounds.check_lemma_sa(grid, base_bits=bits),
        lambda: growth_template("alpha_low", bounds.alpha_low),
        lambda: growth_template("alpha_high", bounds.alpha_high),
        lambda: bounds.check_lemma_gaS(grid, Fraction(2), base_bits=bits),
        lambda: bounds.check_lemma_gaS(grid, Fraction(5, 2), base_bits=bits),
    ]
    reports = []
    entries = []
    for check in checks:
        begun = time.monotonic()
        report = check()
        seconds = round(time.monotonic() - begun, 3)
        reports.append(report)
        entries.append(_bound_report_dict(report) | {"seconds": seconds})
    payload = {
        "max_n": args.max_n,
        "precision_bits": bits,
        "grid_points": len(grid),
        "reports": entries,
    }
    _emit_json(args, payload, started)
    return 0 if all(r.status == bounds.CERTIFIED for r in reports) else 1


def _cmd_estimate(args: argparse.Namespace) -> int:
    started = time.monotonic()
    rows = bounds.estimate_power_of_two(args.max_m, base_bits=_precision_bits(args))
    row_dicts = [
        {
            "m": row.m,
            "n": row.n,
            "f": row.f_exact,
            "estimate": bounds.format_interval(row.estimate),
            "ratio": bounds.format_interval(row.ratio),
            "ln_ratio": bounds.format_interval(row.ln_ratio),
            "anomalous": row.anomalous,
        }
        for row in rows
    ]
    if args.format == "csv":
        sink, owned = _open_sink(args.output)
        try:
            writer = csv.writer(sink, lineterminator="\n")
            writer.writerow(
                ["m", "n", "f", "estimate", "ratio", "ln_ratio", "anomalous"]
            )
            for row in row_dicts:
                writer.writerow(
                    [
                        row["m"],
                        row["n"],
                        row["f"],
                        row["estimate"],
                        row["ratio"],
                        row["ln_ratio"],
                        row["anomalous"],
                    ]
                )
        finally:
            if owned:
                sink.close()
        return 0
    _emit_json(
        args,
        {"max_m": args.max_m, "rows": row_dicts},
        started,
    )
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    started = time.monotonic()
    if args.k is not None:
        value = oracle.ell(args.n, args.k)
        report = {
            "n": args.n,
            "k": args.k,
            "ell": value,
            "semantics": oracle.STAR_FREE_SEMANTICS,
        }
        _emit_json(args, report, started)
        return 0
    opt = oracle.check_main_opt(args.n)
    report = {
        "n": args.n,
        "cost_of_permutations": opt.rows[-1][1],
        "f": lengths.f(args.n),
        "matches_f": opt.matches_f,
        "per_permutation_cost": {
            "passed": opt.passed,
            "base_ratio": _fraction_str(opt.base_ratio),
            "tightest_k": opt.tightest_k,
            "rows": [
                {"k": k, "ell": value, "ratio": _fraction_str(ratio)}
                for k, value, ratio in opt.rows
            ],
        },
        "languages_by_cost": [
            {"cost": cost, "languages": count}
            for cost, count in oracle.languages_by_cost(args.n)
        ],
        "semantics": opt.semantics,
    }
    _emit_json(args, report, started)
    return 0 if opt.passed else 1


def _parse_grid(text: str) -> tuple[Fraction, Fraction, Fraction]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            "grid must look like start:stop:step, e.g. 1:100:0.25"
        )
    try:
        start, stop, step = (Fraction(p) for p in parts)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad grid number: {exc}") from None
    # Only counted here; the points are built once the precision is accepted.
    try:
        bounds.grid_size(start, stop, step)
    except InvalidArgs as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return start, stop, step


def _add_limit_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--max-symbols",
        type=int,
        default=construct.DEFAULT_LIMITS.max_symbols,
        help="refuse to build regexes with more symbol occurrences than this",
    )
    parser.add_argument(
        "--flat-cap",
        type=int,
        default=construct.DEFAULT_LIMITS.flat_cap,
        help="largest n allowed for the flat one-word-per-permutation builder",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permrex",
        description="Short regular expressions for permutation languages: "
        "builders, length tables, verification, and certified growth bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="emit a permutation regex")
    gen.add_argument("builder", choices=sorted(_BUILDERS))
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--format", choices=["compact", "spaced"], default="spaced")
    gen.add_argument("--output", default=None)
    _add_limit_flags(gen)
    gen.set_defaults(func=_cmd_gen)

    len_cmd = sub.add_parser("len", help="exact f(n) values as JSON")
    len_cmd.add_argument("--max-n", type=int, required=True)
    len_cmd.add_argument("--output", default=None)
    len_cmd.set_defaults(func=_cmd_len)

    table = sub.add_parser(
        "table", help="n, f(n), t(n), n*n! per row as CSV or JSON"
    )
    table.add_argument("--max-n", type=int, required=True)
    table.add_argument("--format", choices=["csv", "json"], default="csv")
    table.add_argument("--output", default=None)
    table.set_defaults(func=_cmd_table)

    ver = sub.add_parser(
        "verify", help="certify a regex matches exactly the permutations"
    )
    ver.add_argument("--n", type=int, required=True)
    group = ver.add_mutually_exclusive_group(required=True)
    group.add_argument("--builder", choices=sorted(_BUILDERS))
    group.add_argument("--regex-file", default=None)
    ver.add_argument(
        "--verify-cap", type=int, default=verify.DEFAULT_VERIFY_CAP
    )
    ver.add_argument("--output", default=None)
    _add_limit_flags(ver)
    ver.set_defaults(func=_cmd_verify)

    lem = sub.add_parser(
        "lemmas", help="exact split-choice and triple-growth sweeps"
    )
    lem.add_argument(
        "--max-n", type=int, default=lengths.DEFAULT_LEMMA_CAP
    )
    lem.add_argument("--output", default=None)
    lem.set_defaults(func=_cmd_lemmas)

    bnd = sub.add_parser(
        "bounds", help="certified interval checks for the growth bounds"
    )
    bnd.add_argument("--max-n", type=int, default=1024)
    bnd.add_argument("--precision-bits", type=int, default=None)
    bnd.add_argument(
        "--grid",
        type=_parse_grid,
        default="1:100:0.25",
        help="start:stop:step for the continuous-domain sweeps "
        f"(default %(default)s, at most {bounds.MAX_GRID_POINTS} points)",
    )
    bnd.add_argument("--output", default=None)
    bnd.set_defaults(func=_cmd_bounds)

    est = sub.add_parser(
        "estimate", help="closed-form f(2^m) approximation vs exact values"
    )
    est.add_argument("--max-m", type=int, default=8)
    est.add_argument("--precision-bits", type=int, default=None)
    est.add_argument("--format", choices=["json", "csv"], default="json")
    est.add_argument("--output", default=None)
    est.set_defaults(func=_cmd_estimate)

    orc = sub.add_parser(
        "oracle", help="exhaustive minimal-length search at n <= 3"
    )
    orc.add_argument("--n", type=int, required=True)
    orc.add_argument("--k", type=int, default=None)
    orc.add_argument("--output", default=None)
    orc.set_defaults(func=_cmd_oracle)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PermrexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
