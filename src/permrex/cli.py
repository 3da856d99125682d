"""Command line front end.

Subcommands map one-to-one onto the library's checkable claims: `gen`
emits permutation regexes, `len`/`table` tabulate the length
recurrences, `verify` certifies language equality (by the split proof,
or exhaustively at small n), `lemmas` runs the exact combinatorial
sweeps, `bounds` runs the certified interval sweeps, `estimate` prints
the closed-form approximation against exact values, and `oracle` runs
the exhaustive minimality search.

Each command returns its whole output: finished text, or a report of
records and plain values.  `run` alone writes a report as JSON: a record
becomes an object whose keys are its fields, a Fraction "p/q" and an
interval `bounds.format_interval`'s string.  It alone picks the exit
status: 1 when some object in the written report has `passed` false or a
`status` other than "certified", else 0, and 0 for text; 2 for usage or
input errors.  It wraps a report with `meta` and only then opens
`--output`, so a refused command leaves no partial file.

This module alone decides what loads when: it registers what a command
may need with `_load_on_first_use`, and every module imports what it uses.
Importing it loads only what every command needs: `lengths` and `errors`.
The regex layer (`construct`, `regex_ast`, `verify`), `bounds` and
`oracle` are registered in sys.modules, and as attributes of the package,
but run no code until a command reads one of their attributes: `gen` loads
`construct` and `regex_ast`, `verify` those and `verify`, `bounds` and
`estimate` load `bounds` and with it mpmath and `doubling`, and `oracle`
loads `oracle`, so `len`, `table` and `lemmas` run no module but `lengths`.
`csv` is imported by the two commands that print it.  The parser reads its
defaults from `lengths`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib.util
import io
import json
import math
import re
import resource
import sys
import time
from fractions import Fraction

from . import lengths
from .errors import CompactOverflow, InvalidArgs, PermrexError, RegexSyntaxError


def _load_on_first_use(name: str):
    """The module `name`, imported in full at its first attribute access
    (or the module itself, if something imported it already).

    The module is registered in sys.modules, and a submodule is also set as
    an attribute of its package, as a normal import does, so both `import
    permrex.X` and `from permrex import X` find it before it has loaded."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    package, _, child = name.rpartition(".")
    if package:
        setattr(sys.modules[package], child, module)
    return module


bounds = _load_on_first_use("permrex.bounds")
construct = _load_on_first_use("permrex.construct")
oracle = _load_on_first_use("permrex.oracle")
regex_ast = _load_on_first_use("permrex.regex_ast")
verify = _load_on_first_use("permrex.verify")

# Read at call time, so a caller may wrap the entries.  Each entry finds its
# builder when called, so listing the names loads no `construct`.
_BUILDERS = {
    "dnc": lambda n: construct.build_divide_and_conquer(n),
    "tail": lambda n: construct.build_tail_recursive(n),
    "flat": lambda n: construct.build_flat_union(n),
}


def _csv(header: tuple[str, ...], rows: list[dict]) -> str:
    import csv

    sink = io.StringIO()
    writer = csv.DictWriter(sink, header, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return sink.getvalue()


def _build(args: argparse.Namespace) -> regex_ast.Regex:
    return _BUILDERS[args.builder](args.n)


def _int_digit_limit() -> int:
    """Python's limit on the digits of an int converted to or from text
    (sys.set_int_max_str_digits); 0 for none, as before Python 3.10.7."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _require_printable(max_n: int, largest) -> None:
    """Refuse, before any table is built, a `max_n` whose largest printed
    value `largest(max_n)` has more decimal digits than Python converts, or
    than its default limit where it has none.

    `largest` grows with n, so it is probed at n = 1, 2, 4, ... and never
    evaluated past twice the first n it cannot print."""
    limit = _int_digit_limit() or 4300
    bound = 10**limit
    n = 1
    while n < max_n and largest(n) < bound:
        n = min(2 * n, max_n)
    if largest(n) >= bound:
        raise InvalidArgs(
            f"--max-n {max_n} would print integers of more than {limit} digits, "
            "the most this command prints (sys.get_int_max_str_digits(), or 4300 where that is 0)"
        )


def _require_range(flag: str, value: int, low: int, high: int | None = None) -> None:
    """Refuse, before any work, a `flag` value below `low` or above `high`."""
    if value < low:
        raise InvalidArgs(f"{flag} must be at least {low}, got {value}")
    if high is not None and value > high:
        raise InvalidArgs(f"{flag} must be at most {high}, got {value}")


def _cmd_gen(args: argparse.Namespace) -> dict | str:
    if args.format == "compact" and args.n >= 10:
        # Symbol 10 is in every expression for P_n, so render would refuse
        # it; refused before the build.
        raise CompactOverflow(10)
    return regex_ast.render(_build(args), args.format)


def _cmd_len(args: argparse.Namespace) -> dict | str:
    _require_range("--max-n", args.max_n, 1)
    _require_printable(args.max_n, lengths.f)
    f = [{"n": i + 1, "value": v} for i, v in enumerate(lengths.f_table(args.max_n))]
    return {"max_n": args.max_n, "f": f}


def _cmd_table(args: argparse.Namespace) -> dict | str:
    _require_range("--max-n", args.max_n, 1)
    # n * n! bounds t(n) and f(n) from above.
    _require_printable(args.max_n, lengths.flat_length)
    f_values = lengths.f_table(args.max_n)
    rows = [
        {"n": n, "f": f_values[n - 1], "t": lengths.t(n), "flat": lengths.flat_length(n)}
        for n in range(1, args.max_n + 1)
    ]
    if args.format == "json":
        return {"max_n": args.max_n, "rows": rows}
    return _csv(("n", "f", "t", "flat"), rows)


def _cmd_verify(args: argparse.Namespace) -> dict | str:
    if args.regex_file is not None:
        if args.n > verify.MAX_SPLIT_N:
            # No proof is tried above MAX_SPLIT_N, and the walk refuses n
            # this large whatever the cap, so the file is not read.
            verify.require_walkable(args.n, args.verify_cap, 0)
        # newline="" keeps each "\r", a blank to parse, so an offset in the
        # text is the file's byte offset up to the first non-ASCII character,
        # which parse refuses.
        with open(args.regex_file, "r", encoding="utf-8", newline="") as handle:
            try:
                text = handle.read()
            except UnicodeDecodeError as exc:
                # read() decodes the whole file at once, so exc.start is
                # the byte offset in the file.
                raise RegexSyntaxError(f"not UTF-8 text: {exc.reason}", exc.start) from None
        expr = regex_ast.parse(text, args.n)
        source = {"kind": "regex-file", "path": args.regex_file}
    else:
        if args.builder == "flat" and args.n >= 3:
            # Each flat term's left factor is a word of length >= 2, never
            # a split proof, so the walk's refusals come before the build.
            construct.require_flat_fits(args.n)
            verify.require_walkable(args.n, args.verify_cap, lengths.flat_length(args.n))
        expr = _build(args)
        source = {"kind": "builder", "builder": args.builder}
    cert = verify.language_equals_permutations(expr, args.n, cap=args.verify_cap)
    return {"source": source, "certificate": cert}


def _cmd_lemmas(args: argparse.Namespace) -> dict | str:
    _require_range("--max-n", args.max_n, 1, lengths.MAX_LEMMA_N)
    choices = (lengths.check_opt_choice(n) for n in range(2, args.max_n + 1))
    failures = [{"n": c.n, "violations": c.violations} for c in choices if not c.passed]
    return {
        "max_n": args.max_n,
        "split_choice": {"passed": not failures, "failures": failures},
        "triple_growth": lengths.check_triple_growth(args.max_n),
    }


def _cmd_bounds(args: argparse.Namespace) -> dict | str:
    _require_range("--max-n", args.max_n, 1, bounds.MAX_SWEEP_N)
    grid = bounds.default_grid(*args.grid)

    alphas = {"alpha_low": bounds.alpha_low, "alpha_high": bounds.alpha_high}
    reports = [
        bounds.check_fn_bounds(args.max_n),
        bounds.check_stirling_sandwich(min(args.max_n, bounds.SANDWICH_CROSS_CHECK_N)),
        bounds.check_lemma_sa(grid),
        *(report._replace(inequality=f"{report.inequality}[{name}]")
          for name, report in zip(alphas, bounds.check_lemma_ga(grid, alphas.values()))),
        bounds.check_lemma_gaS(Fraction(2)),
        bounds.check_lemma_gaS(Fraction(5, 2)),
    ]
    return {
        "max_n": args.max_n,
        "precision_bits": bounds.PRECISION_LADDER[0],
        "grid_points": len(grid),
        "reports": reports,
    }


def _cmd_estimate(args: argparse.Namespace) -> dict | str:
    _require_range("--max-m", args.max_m, 0, bounds.MAX_ESTIMATE_M)
    rows = bounds.estimate_power_of_two(args.max_m)
    if args.format == "csv":
        return _csv(bounds.EstimateRow._fields, _encode(rows))
    return {"max_m": args.max_m, "rows": rows}


def _cmd_oracle(args: argparse.Namespace) -> dict | str:
    if args.k is not None:
        return {"n": args.n, "k": args.k, "ell": oracle.ell(args.n, args.k),
                "semantics": oracle.STAR_FREE_SEMANTICS}
    opt = oracle.check_main_opt(args.n)
    return {
        "n": args.n,
        "cost_of_permutations": opt.rows[-1].ell,
        "f": lengths.f(args.n),
        "matches_f": opt.matches_f,
        "per_permutation_cost": {"passed": opt.passed, "base_ratio": opt.base_ratio,
                                 "tightest_k": opt.tightest_k, "rows": opt.rows},
        "languages_by_cost": oracle.languages_by_cost(args.n),
        "semantics": opt.semantics,
    }


# A number as Fraction reads it, loosely: digits with a decimal point and an
# exponent, or a ratio of two digit strings.  Fraction refuses the rest.  A
# string, so that only `bounds` compiles it.
_GRID_NUMBER = (r"\s*[-+]?(?P<whole>[\d_]*)(?:\.(?P<decimals>[\d_]*))?"
                r"(?:[eE](?P<exponent>[-+]?[\d_]+)|\s*/\s*(?P<denominator>[\d_]+))?\s*")


def _grid_number_digits(text: str) -> int:
    """The most decimal digits a numerator or a denominator has that
    `Fraction(text)` builds on its way, counted from the text alone; 0 for
    text that is no number."""
    match = re.fullmatch(_GRID_NUMBER, text)
    if match is None:
        return 0
    whole, decimals, exponent, denominator = (
        (group or "").replace("_", "") for group in match.groups())
    if denominator:
        return max(len(whole), len(denominator))
    if len(exponent.lstrip("+-")) > 18:  # an exponent beyond any digit limit
        return sys.maxsize
    power = int(exponent or 0)  # Fraction multiplies by 10**|power|
    return max(len(whole) + len(decimals) + max(power, 0),
               len(decimals) + max(-power, 0) + 1)


def _parse_grid(text: str) -> tuple[Fraction, Fraction, Fraction]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            "grid must look like start:stop:step, e.g. 1:100:0.25"
        )
    # Refused before Fraction expands an exponent or a report prints a label.
    # Python's default limit stands in where it has none.
    limit = _int_digit_limit() or 4300
    for name, part in zip(("start", "stop", "step"), parts):
        if _grid_number_digits(part) > limit:
            shown = part if len(part) <= 40 else f"{part[:37]}..."
            raise argparse.ArgumentTypeError(
                f"grid {name} {shown} has more than {limit} digits "
                "in its numerator or denominator")
    try:
        start, stop, step = (Fraction(p) for p in parts)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad grid number: {exc}") from None
    # Each point is a fraction over a divisor of scale, and its numerator,
    # like the point count, is at most (|start| + |stop|) * scale.
    scale = math.lcm(start.denominator, step.denominator)
    if 10 * (abs(start) + abs(stop)) * scale >= 10**limit:
        raise argparse.ArgumentTypeError(
            f"grid points or their count would have more than {limit} digits")
    if stop > bounds.MAX_GRID_X:
        raise argparse.ArgumentTypeError(
            f"grid stop must be at most {bounds.MAX_GRID_X:.0e}, the largest power "
            "of ten at which the grid brackets are decided with a rung to spare")
    # Only counted here; the points are built once `--max-n` is accepted.
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
    ver.add_argument("--verify-cap", type=int, default=lengths.DEFAULT_VERIFY_CAP)

    lem = command("lemmas", _cmd_lemmas, "exact split-choice and triple-growth sweeps")
    lem.add_argument("--max-n", type=int, default=lengths.DEFAULT_LEMMA_CAP)

    bnd = command("bounds", _cmd_bounds, "certified interval checks for the growth bounds")
    bnd.add_argument("--max-n", type=int, default=1024)
    bnd.add_argument(
        "--grid",
        type=_parse_grid,
        default="1:100:0.25",
        help="start:stop:step for the Stirling-midpoint and growth-template "
        "bracket sweeps; the doubling identity is proved for every x > 0 "
        f"(default %(default)s, at most {lengths.MAX_GRID_POINTS} points)",
    )

    est = command("estimate", _cmd_estimate,
                  "closed-form f(2^m) approximation vs exact values")
    est.add_argument("--max-m", type=int, default=8)
    est.add_argument("--format", choices=["json", "csv"], default="json")

    orc = command("oracle", _cmd_oracle, "exhaustive minimal-length search at n <= 3")
    orc.add_argument("--n", type=int, required=True)
    orc.add_argument("--k", type=int, default=None)

    # Added last, so each command's usage line lists its own arguments first.
    for cmd in sub.choices.values():
        cmd.add_argument("--output", default=None)
    return parser


# Characters per write; every output is ASCII, so 64 KiB.  A write holds a
# slice and its encoding, twice the slice, where one whole write would hold
# an encoded copy of the whole text.
_WRITE_SLICE = 2**16


def _peak_rss_mb() -> float:
    """The peak resident set size of this process so far, in MB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss counts kilobytes on Linux and bytes on macOS.
    return round(peak / (2**20 if sys.platform == "darwin" else 2**10), 1)


def _encode(value):
    """`value` as JSON data: a record as an object of its fields, a Fraction
    as "p/q" and an interval as `bounds.format_interval`'s string."""
    if value is None or isinstance(value, (str, int, float)):
        return value
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, dict):
        return {key: _encode(item) for key, item in value.items()}
    if hasattr(value, "_fields"):
        return {key: _encode(item) for key, item in zip(value._fields, value)}
    if isinstance(value, (list, tuple)):
        return [_encode(item) for item in value]
    # Only `bounds` and `estimate` build intervals, and they loaded `bounds`.
    return bounds.format_interval(value)


def _exit_code(data) -> int:
    """1 when some object in the encoded `data` has `passed` false or a
    `status` other than bounds.CERTIFIED, written out so as not to load
    `bounds`; else 0."""
    if isinstance(data, dict):
        if data.get("passed") is False or data.get("status", "certified") != "certified":
            return 1
        data = data.values()
    elif not isinstance(data, list):
        return 0
    return int(any(map(_exit_code, data)))


def run(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        output, code = args.func(args), 0
        if not isinstance(output, str):
            report = _encode(output)
            code = _exit_code(report)
            meta = {"elapsed_seconds": round(time.monotonic() - started, 3),
                    "peak_rss_mb": _peak_rss_mb()}
            output = json.dumps({"report": report, "meta": meta}, indent=2)
        with (
            contextlib.nullcontext(sys.stdout)
            if args.output in (None, "-")
            else open(args.output, "w", encoding="utf-8")
        ) as sink:
            # In slices, since a text sink encodes what it is given at once;
            # the newline is a write of its own, as joining would copy it all.
            for start in range(0, len(output), _WRITE_SLICE):
                sink.write(output[start:start + _WRITE_SLICE])
            if not output.endswith("\n"):
                sink.write("\n")
    except (PermrexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


def main() -> None:
    code = run()
    # The output is written, so exit without the cyclic collections that
    # interpreter shutdown would run over objects it never frees.
    gc.freeze()
    raise SystemExit(code)


if __name__ == "__main__":
    main()
