"""Command line front end.

Subcommands map one-to-one onto the library's checkable claims: `gen`
emits permutation regexes, `len`/`table` tabulate the length
recurrences, `verify` certifies language equality (by the split proof,
or exhaustively at small n), `lemmas` runs the exact combinatorial
sweeps, `bounds` runs the certified interval sweeps, `estimate` prints
the closed-form approximation against exact values, and `oracle` runs
the exhaustive minimality search.  Exit status: 0 success, 1 a check ran and failed, 2 usage or
input errors.

Each command returns its whole output, a report dict or finished text,
with its exit status; `run` times it, wraps a report with `meta` and only
then opens `--output`, so a refused command leaves no partial file.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import io
import json
import sys
import time
from fractions import Fraction

from . import bounds, construct, lengths, oracle, regex_ast, verify
from .errors import InvalidArgs, PermrexError, RegexSyntaxError

# Looked up at call time, so a caller may wrap the entries.
_BUILDERS = {
    "dnc": construct.build_divide_and_conquer,
    "tail": construct.build_tail_recursive,
    "flat": construct.build_flat_union,
}


def _fraction_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _csv(header: list[str], rows: list[dict]) -> str:
    sink = io.StringIO()
    writer = csv.DictWriter(sink, header, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return sink.getvalue()


def _build(args: argparse.Namespace) -> regex_ast.Regex:
    return _BUILDERS[args.builder](construct.AlphabetSet.first_n(args.n))


def _require_printable(max_n: int, largest) -> None:
    """Refuse, before any table is built, a `max_n` whose largest printed
    value `largest(max_n)` has more decimal digits than Python converts."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # none before 3.10.7
    if limit and max_n >= 1 and largest(max_n) >= 10**limit:
        raise InvalidArgs(
            f"--max-n {max_n} would print integers of more than {limit} digits, "
            "Python's limit for int-to-text conversion (sys.set_int_max_str_digits)"
        )


def _require_max_n(max_n: int, limit: int) -> None:
    """Refuse, before any sweep, a `--max-n` above the command's limit."""
    if max_n > limit:
        raise InvalidArgs(f"--max-n must be at most {limit}, got {max_n}")


def _cmd_gen(args: argparse.Namespace) -> tuple[dict | str, int]:
    return regex_ast.render(_build(args), args.format), 0


def _cmd_len(args: argparse.Namespace) -> tuple[dict | str, int]:
    _require_printable(args.max_n, lengths.f)
    f = [{"n": i + 1, "value": v} for i, v in enumerate(lengths.f_table(args.max_n))]
    return {"max_n": args.max_n, "f": f}, 0


def _cmd_table(args: argparse.Namespace) -> tuple[dict | str, int]:
    # n * n! bounds t(n) and f(n) from above.
    _require_printable(args.max_n, lengths.flat_length)
    f_values = lengths.f_table(args.max_n)
    rows = [
        {"n": n, "f": f_values[n - 1], "t": lengths.t(n), "flat": lengths.flat_length(n)}
        for n in range(1, args.max_n + 1)
    ]
    if args.format == "json":
        return {"max_n": args.max_n, "rows": rows}, 0
    return _csv(["n", "f", "t", "flat"], rows), 0


def _cmd_verify(args: argparse.Namespace) -> tuple[dict | str, int]:
    if args.regex_file is not None:
        with open(args.regex_file, "r", encoding="utf-8") as handle:
            try:
                text = handle.read()
            except UnicodeDecodeError as exc:
                # read() decodes the whole file at once, so exc.start is
                # the byte offset in the file.
                raise RegexSyntaxError(f"not UTF-8 text: {exc.reason}", exc.start) from None
        expr = regex_ast.parse(text, args.n)
        source = {"kind": "regex-file", "path": args.regex_file}
    else:
        expr = _build(args)
        source = {"kind": "builder", "builder": args.builder}
    cert = verify.language_equals_permutations(expr, args.n, cap=args.verify_cap)
    report = {"source": source, "certificate": dataclasses.asdict(cert)}
    return report, 0 if cert.passed else 1


def _cmd_lemmas(args: argparse.Namespace) -> tuple[dict | str, int]:
    _require_max_n(args.max_n, lengths.MAX_LEMMA_N)
    choice_failures = []
    for n in range(2, args.max_n + 1):
        result = lengths.check_opt_choice(n)
        if not result.passed:
            violations = [dataclasses.asdict(v) for v in result.violations]
            choice_failures.append({"n": n, "violations": violations})
    growth = lengths.check_triple_growth(args.max_n)
    report = {
        "max_n": args.max_n,
        "split_choice": {"passed": not choice_failures, "failures": choice_failures},
        "triple_growth": {
            "passed": growth.passed,
            "min_ratio": None
            if growth.min_ratio is None
            else _fraction_str(growth.min_ratio),
            "min_ratio_at": growth.min_ratio_at,
            "violations": growth.violations,
        },
    }
    return report, 0 if not choice_failures and growth.passed else 1


def _cmd_bounds(args: argparse.Namespace) -> tuple[dict | str, int]:
    _require_max_n(args.max_n, bounds.MAX_SWEEP_N)
    bits = bounds.require_precision(args.precision_bits)
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
    entries = []
    for check in checks:
        begun = time.monotonic()
        report = dataclasses.asdict(check())
        entries.append(report | {"seconds": round(time.monotonic() - begun, 3)})
    payload = {
        "max_n": args.max_n,
        "precision_bits": bits,
        "grid_points": len(grid),
        "reports": entries,
    }
    return payload, 0 if all(e["status"] == bounds.CERTIFIED for e in entries) else 1


def _cmd_estimate(args: argparse.Namespace) -> tuple[dict | str, int]:
    rows = bounds.estimate_power_of_two(args.max_m, base_bits=args.precision_bits)
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
        header = ["m", "n", "f", "estimate", "ratio", "ln_ratio", "anomalous"]
        return _csv(header, row_dicts), 0
    return {"max_m": args.max_m, "rows": row_dicts}, 0


def _cmd_oracle(args: argparse.Namespace) -> tuple[dict | str, int]:
    if args.k is not None:
        ell = oracle.ell(args.n, args.k)
        return {"n": args.n, "k": args.k, "ell": ell,
                "semantics": oracle.STAR_FREE_SEMANTICS}, 0
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
    return report, 0 if opt.passed else 1


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
    if start < 1:  # the grid's first point feeds check_lemma_sa, which needs x >= 1
        raise argparse.ArgumentTypeError(f"grid point {start} < 1")
    return start, stop, step


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permrex",
        description="Short regular expressions for permutation languages: "
        "builders, length tables, verification, and certified growth bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, help: str) -> argparse.ArgumentParser:
        cmd = sub.add_parser(name, help=help)
        cmd.set_defaults(func=func)
        return cmd

    gen = command("gen", _cmd_gen, "emit a permutation regex")
    gen.add_argument("builder", choices=sorted(_BUILDERS))
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--format", choices=["compact", "spaced"], default="spaced")

    len_cmd = command("len", _cmd_len, "exact f(n) values as JSON")
    len_cmd.add_argument("--max-n", type=int, required=True)

    table = command("table", _cmd_table, "n, f(n), t(n), n*n! per row as CSV or JSON")
    table.add_argument("--max-n", type=int, required=True)
    table.add_argument("--format", choices=["csv", "json"], default="csv")

    ver = command("verify", _cmd_verify, "certify a regex matches exactly the permutations")
    ver.add_argument("--n", type=int, required=True)
    group = ver.add_mutually_exclusive_group(required=True)
    group.add_argument("--builder", choices=sorted(_BUILDERS))
    group.add_argument("--regex-file", default=None)
    ver.add_argument("--verify-cap", type=int, default=verify.DEFAULT_VERIFY_CAP)

    lem = command("lemmas", _cmd_lemmas, "exact split-choice and triple-growth sweeps")
    lem.add_argument("--max-n", type=int, default=lengths.DEFAULT_LEMMA_CAP)

    bnd = command("bounds", _cmd_bounds, "certified interval checks for the growth bounds")
    bnd.add_argument("--max-n", type=int, default=1024)
    bnd.add_argument("--precision-bits", type=int,
                     default=bounds.DEFAULT_PRECISION_BITS)
    bnd.add_argument(
        "--grid",
        type=_parse_grid,
        default="1:100:0.25",
        help="start:stop:step for the continuous-domain sweeps "
        f"(default %(default)s, at most {bounds.MAX_GRID_POINTS} points)",
    )

    est = command("estimate", _cmd_estimate,
                  "closed-form f(2^m) approximation vs exact values")
    est.add_argument("--max-m", type=int, default=8)
    est.add_argument("--precision-bits", type=int,
                     default=bounds.DEFAULT_PRECISION_BITS)
    est.add_argument("--format", choices=["json", "csv"], default="json")

    orc = command("oracle", _cmd_oracle, "exhaustive minimal-length search at n <= 3")
    orc.add_argument("--n", type=int, required=True)
    orc.add_argument("--k", type=int, default=None)

    # Added last, so each command's usage line lists its own arguments first.
    for cmd in sub.choices.values():
        cmd.add_argument("--output", default=None)
    return parser


def run(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        output, code = args.func(args)
        if isinstance(output, dict):
            meta = {"elapsed_seconds": round(time.monotonic() - started, 3)}
            output = json.dumps({"report": output, "meta": meta}, indent=2)
        with (
            contextlib.nullcontext(sys.stdout)
            if args.output in (None, "-")
            else open(args.output, "w", encoding="utf-8")
        ) as sink:
            sink.write(output)
            # A second write: joining would copy a text of tens of megabytes.
            if not output.endswith("\n"):
                sink.write("\n")
    except (PermrexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
