"""The benchmark's workloads: seeded CLI command lists and the known answers
their outputs are checked against.

Nothing here imports permrex.  Every expected result is derived from the
paper's definitions (the f/t/n*n! recurrences, the structure of P_n) or from
the kind of mutation applied to an input, never by running the code under
test, so a wrong verdict cannot vouch for itself.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
import re
from dataclasses import dataclass
from functools import cache
from pathlib import Path
from typing import Callable

# Outcome of one command as the checks see it: exit code, output file, stderr.
Checker = Callable[[int, Path, str], "list[str]"]


@dataclass(frozen=True)
class Command:
    """One CLI invocation: argv after `permrex`, where it writes, how to judge it."""

    name: str
    argv: tuple[str, ...]
    output: Path
    check: Checker


# -- independent arithmetic from the paper ---------------------------------

@cache
def f_len(n: int) -> int:
    """f(1) = 1, f(n) = C(n, n//2) * (f(n//2) + f(n - n//2))."""
    if n == 1:
        return 1
    half = n // 2
    return math.comb(n, half) * (f_len(half) + f_len(n - half))


def t_len(n: int) -> int:
    value = 1
    for i in range(2, n + 1):
        value = i * (1 + value)
    return value


def flat_len(n: int) -> int:
    return n * math.factorial(n)


SYMBOLS = {"dnc": f_len, "tail": t_len, "flat": flat_len}

# The first values of f(n) as printed in the paper.
PAPER_F = [1, 4, 15, 48, 190, 600, 2205, 6720]


# -- emit -------------------------------------------------------------------

# (builder, n, format) -> sha256 of the `gen` output.  Rendering is pinned
# byte for byte by the acceptance tests, so any change here is a wrong output.
EMIT_PINS = {
    ("dnc", 12, "spaced"): "4f2052d3b4477a1fb1b73de7175f9bf0b2b31bc8b6b991dad6c77d23adb55db2",
    ("flat", 8, "spaced"): "d6fbffbe55bfaeaa3fea35b30e1536d281251cde6492da8ad61f12c58dd8f5e2",
    ("tail", 8, "spaced"): "5859361fe0fb654c3037b17b094387e2e2a0ea5cc508bf5c76b20db7911ee089",
    ("dnc", 9, "compact"): "ac45dcf7c6d3bef55bf4180076fba3b1b3e9b417ea81f7d0542a0188714014ca",
}

# Words tested against the compact n=9 output with Python's own `re`.
RE_SAMPLE = 150


def _read(path: Path) -> str:
    return path.read_text(encoding="utf-8")


def _symbol_count(text: str, fmt: str) -> int:
    if fmt == "compact":
        return sum(ch.isdigit() for ch in text)
    return sum(token.isdigit() for token in text.split())


def _re_sample_problems(text: str, n: int, rng: random.Random) -> list[str]:
    """Match seeded permutations and near-permutations with Python's `re`."""
    pattern = re.compile(text.strip().replace("+", "|").replace("(", "(?:"))
    alphabet = [str(i) for i in range(1, n + 1)]
    problems = []
    for _ in range(RE_SAMPLE):
        word = alphabet[:]
        rng.shuffle(word)
        if not pattern.fullmatch("".join(word)):
            problems.append(f"rejects permutation {''.join(word)}")
        near = word[:]
        how = rng.randrange(3)
        if how == 0:  # one symbol repeated, another missing
            i, j = rng.sample(range(n), 2)
            near[i] = near[j]
        elif how == 1:  # one symbol short
            del near[rng.randrange(n)]
        else:  # one symbol too many
            near.insert(rng.randrange(n + 1), rng.choice(alphabet))
        if pattern.fullmatch("".join(near)):
            problems.append(f"accepts non-permutation {''.join(near)}")
    return problems[:5]


def _emit_check(builder: str, n: int, fmt: str, seed: int) -> Checker:
    def check(code: int, output: Path, stderr: str) -> list[str]:
        if code != 0:
            return [f"exit {code}: {stderr.strip()[-200:]}"]
        data = output.read_bytes()
        problems = []
        digest = hashlib.sha256(data).hexdigest()
        if digest != EMIT_PINS[builder, n, fmt]:
            problems.append(f"sha256 {digest} differs from the pinned output")
        text = data.decode("utf-8")
        count = _symbol_count(text, fmt)
        if count != SYMBOLS[builder](n):
            problems.append(f"{count} symbols, expected {SYMBOLS[builder](n)}")
        if fmt == "compact":
            problems += _re_sample_problems(text, n, random.Random(f"re:{seed}"))
        return problems

    return check


def emit(work: Path, seed: int) -> list[Command]:
    commands = []
    for builder, n, fmt in EMIT_PINS:
        out = work / f"gen-{builder}{n}-{fmt}.txt"
        commands.append(Command(
            name=f"gen {builder} n={n} {fmt}",
            argv=("gen", builder, "--n", str(n), "--format", fmt,
                  "--output", str(out)),
            output=out,
            check=_emit_check(builder, n, fmt, seed),
        ))
    random.Random(f"emit:{seed}").shuffle(commands)
    return commands


# -- certify-built and certify-files ----------------------------------------

# The CLI's default --verify-cap, and its refusal above it.
DEFAULT_VERIFY_CAP = 7


def _cap_refusal(n: int) -> str:
    return (f"error: exhaustive verification capped at n = {DEFAULT_VERIFY_CAP}"
            f" ({n}^{n} words is too many)")


def _certificate_check(n: int, should_pass: bool, refusal_ok: bool = False) -> Checker:
    """Exit code and verdict must match; with `refusal_ok` the walk cap's
    refusal (exit 2 after a complete parse) is also a correct answer.  Any
    other exit-2 error, such as a parse error, is wrong."""

    def check(code: int, output: Path, stderr: str) -> list[str]:
        if refusal_ok and code == 2 and stderr.strip() == _cap_refusal(n):
            return []
        if code not in (0, 1):
            return [f"exit {code}: {stderr.strip()[-200:]}"]
        cert = json.loads(_read(output))["report"]["certificate"]
        problems = []
        if cert["passed"] is not should_pass or code != (0 if should_pass else 1):
            problems.append(
                f"verdict passed={cert['passed']} exit {code}, expected "
                f"passed={should_pass}")
        if cert["passed"] and cert["words_tested"] != n**n:
            problems.append(f"words_tested {cert['words_tested']} != {n}**{n}")
        return problems

    return check


# Built expressions and their walk caps.  All pass; the flat n=7 automaton's
# dense follow table (35280 positions) sets this workload's peak memory.
BUILT = [("dnc", 7, 7), ("tail", 7, 7), ("flat", 7, 7), ("dnc", 8, 8)]


def certify_built(work: Path, seed: int) -> list[Command]:
    commands = []
    for builder, n, cap in BUILT:
        out = work / f"verify-{builder}{n}.json"
        commands.append(Command(
            name=f"verify --builder {builder} n={n}",
            argv=("verify", "--builder", builder, "--n", str(n),
                  "--verify-cap", str(cap), "--output", str(out)),
            output=out,
            check=_certificate_check(n, should_pass=True),
        ))
    random.Random(f"built:{seed}").shuffle(commands)
    return commands


def _group(tokens: list[str]) -> list[str]:
    return tokens if len(tokens) == 1 else ["(", *tokens, ")"]


def _union(terms: list[list[str]]) -> list[str]:
    out = list(terms[0])
    for term in terms[1:]:
        out += ["+", *term]
    return out


def _terms(builder: str, members: tuple[int, ...], memo: dict) -> list[list[str]]:
    """Top-level union terms of an expression for the permutations of
    `members`, as spaced-format tokens.  Written from the paper's
    definitions, independently of the package's builders and renderer."""
    if len(members) == 1:
        return [[str(members[0])]]
    key = (builder, members)
    if key in memo:
        return memo[key]

    def whole(sub: tuple[int, ...]) -> list[str]:
        return _group(_union(_terms(builder, sub, memo)))

    if builder == "flat":
        terms = [[str(m) for m in perm] for perm in itertools.permutations(members)]
    elif builder == "tail":
        terms = [[str(m), *whole(tuple(x for x in members if x != m))]
                 for m in members]
    else:  # dnc: the first floor(n/2) symbols, then the rest
        terms = []
        for chosen in itertools.combinations(members, len(members) // 2):
            rest = tuple(m for m in members if m not in chosen)
            terms.append([*whole(chosen), *whole(rest)])
    memo[key] = terms
    return terms


# Mutation kind -> whether the mutated expression still denotes P_n.
# Top-level terms of all three builders cover disjoint, nonempty sets of
# permutations, and every symbol occurrence lies on an accepted word, so:
#   ok    unchanged                                  -> passes
#   dup   one term repeated                          -> same language, passes
#   drop  one term removed                           -> its permutations missing
#   relabel one occurrence a -> b != a               -> accepts a word with b twice
#   star  one occurrence a -> a*                     -> accepts a word without a
MUTATIONS = {"ok": True, "dup": True, "drop": False, "relabel": False, "star": False}

# Bases of the mutated files.  Kept at n <= 7 so that twenty files fit one
# short pass: each command's cost is then mostly process start and parse.
FILE_BASES = [("dnc", 6), ("tail", 6), ("flat", 6), ("dnc", 7)]

# One correct file too large for the default cap: the CLI parses all of it
# and then refuses with exit 2 (or, with a faster certifier, passes).
BIG_FILE = ("dnc", 10)


def mutate(terms: list[list[str]], kind: str, n: int, rng: random.Random) -> list[list[str]]:
    terms = [list(t) for t in terms]
    i = rng.randrange(len(terms))
    if kind == "drop":
        del terms[i]
    elif kind == "dup":
        terms.insert(rng.randrange(len(terms) + 1), list(terms[i]))
    elif kind in ("relabel", "star"):
        spots = [p for p, tok in enumerate(terms[i]) if tok.isdigit()]
        p = rng.choice(spots)
        if kind == "relabel":
            old = int(terms[i][p])
            terms[i][p] = str(rng.choice([s for s in range(1, n + 1) if s != old]))
        else:
            terms[i].insert(p + 1, "*")
    return terms


def _write_expr(path: Path, terms: list[list[str]]) -> None:
    path.write_text(" ".join(_union(terms)) + "\n", encoding="utf-8")


def certify_files(work: Path, seed: int) -> list[Command]:
    """Write the 21 input files (before any timing) and list their commands."""
    commands = []
    memo: dict = {}
    for builder, n in FILE_BASES:
        base = _terms(builder, tuple(range(1, n + 1)), memo)
        for kind, passes in MUTATIONS.items():
            rng = random.Random(f"files:{seed}:{builder}{n}:{kind}")
            path = work / f"{builder}{n}-{kind}.re"
            _write_expr(path, mutate(base, kind, n, rng))
            out = work / f"{builder}{n}-{kind}.json"
            commands.append(Command(
                name=f"verify {builder}{n}-{kind}",
                argv=("verify", "--regex-file", str(path), "--n", str(n),
                      "--output", str(out)),
                output=out,
                check=_certificate_check(n, should_pass=passes),
            ))
    builder, n = BIG_FILE
    path = work / f"{builder}{n}-ok.re"
    _write_expr(path, _terms(builder, tuple(range(1, n + 1)), memo))
    out = work / f"{builder}{n}-ok.json"
    commands.append(Command(
        name=f"verify {builder}{n}-ok",
        argv=("verify", "--regex-file", str(path), "--n", str(n),
              "--output", str(out)),
        output=out,
        check=_certificate_check(n, should_pass=True, refusal_ok=True),
    ))
    random.Random(f"files-order:{seed}").shuffle(commands)
    return commands


# -- proofs -----------------------------------------------------------------

def _json_check(judge: Callable[[dict], list[str]]) -> Checker:
    def check(code: int, output: Path, stderr: str) -> list[str]:
        if code != 0:
            return [f"exit {code}: {stderr.strip()[-200:]}"]
        return judge(json.loads(_read(output))["report"])

    return check


def _bounds_ok(report: dict) -> list[str]:
    statuses = [r["status"] for r in report["reports"]]
    if len(statuses) != 7 or any(s != "certified" for s in statuses):
        return [f"bounds statuses {statuses}"]
    return []


def _lemmas_ok(report: dict) -> list[str]:
    if report["split_choice"]["passed"] and report["triple_growth"]["passed"]:
        return []
    return ["a lemma sweep did not pass"]


def _estimate_ok(report: dict) -> list[str]:
    got = [(row["n"], row["f"]) for row in report["rows"]]
    want = [(2**m, f_len(2**m)) for m in range(1, 9)]
    return [] if got == want else ["estimate rows carry wrong exact f values"]


def _oracle_ok(report: dict) -> list[str]:
    if (report["cost_of_permutations"] == 15 == f_len(3) and report["matches_f"]
            and report["per_permutation_cost"]["passed"]):
        return []
    return [f"oracle cost {report['cost_of_permutations']}, expected 15 = f(3)"]


def _oracle_k_ok(report: dict) -> list[str]:
    # Lower bound: k * f(3)/3! = 7.5 letters; 1(23+32)+213 reaches 8.
    return [] if report["ell"] == 8 else [f"ell(3, 3) = {report['ell']}, expected 8"]


def _table_ok(report: dict) -> list[str]:
    bad = [row["n"] for row in report["rows"]
           if (row["f"], row["t"], row["flat"])
           != (f_len(row["n"]), t_len(row["n"]), flat_len(row["n"]))]
    if len(report["rows"]) != 300 or bad:
        return [f"table rows wrong at n={bad[:5]}"]
    return []


def _len_ok(report: dict) -> list[str]:
    values = [row["value"] for row in report["f"]]
    if values[:8] != PAPER_F:
        return [f"len begins {values[:8]}, expected {PAPER_F}"]
    bad = [n for n, value in enumerate(values, 1) if value != f_len(n)]
    if len(values) != 2000 or bad:
        return [f"len values wrong at n={bad[:5]}"]
    return []


PROOFS = [
    ("bounds", (), _bounds_ok),
    ("lemmas", (), _lemmas_ok),
    ("estimate", (), _estimate_ok),
    ("oracle", ("--n", "3"), _oracle_ok),
    ("oracle", ("--n", "3", "--k", "3"), _oracle_k_ok),
    ("table", ("--max-n", "300", "--format", "json"), _table_ok),
    ("len", ("--max-n", "2000"), _len_ok),
]


def proofs(work: Path, seed: int) -> list[Command]:
    commands = []
    for i, (sub, args, judge) in enumerate(PROOFS):
        out = work / f"proof-{i}-{sub}.json"
        commands.append(Command(
            name=" ".join((sub, *args)),
            argv=(sub, *args, "--output", str(out)),
            output=out,
            check=_json_check(judge),
        ))
    random.Random(f"proofs:{seed}").shuffle(commands)
    return commands


# Workload name -> function that writes its inputs into a work directory
# and returns its command list.
WORKLOADS: dict[str, Callable[[Path, int], list[Command]]] = {
    "emit": emit,
    "certify-built": certify_built,
    "certify-files": certify_files,
    "proofs": proofs,
}
