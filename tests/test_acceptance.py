"""End-to-end acceptance gate.

Each test prints one PASS/FAIL line so a run of this file doubles as a
release checklist.  Budgets are generous on purpose; the assertions are
the contract.
"""

import itertools
import json
import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import iv

from permrex import bounds, cli, construct, lengths, oracle, regex_ast, verify

from conftest import normal_form_regexes

F_FIRST_TEN = [1, 4, 15, 48, 190, 600, 2205, 6720, 29988, 95760]

R4_COMPACT = (
    "(12+21)(34+43)+(13+31)(24+42)+(23+32)(14+41)"
    "+(14+41)(23+32)+(24+42)(13+31)+(34+43)(12+21)"
)


def report(name: str, ok: bool) -> None:
    print(f"{name} {'PASS' if ok else 'FAIL'}")
    assert ok


def test_ac1_f_table(capsys):
    started = time.monotonic()
    code = cli.run(["table", "--max-n", "10"])
    out = capsys.readouterr().out
    elapsed = time.monotonic() - started
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    values = [int(row[1]) for row in rows]
    with capsys.disabled():
        report("AC1", code == 0 and values == F_FIRST_TEN and elapsed < 1.0)


def test_ac2_r4_string(capsys):
    started = time.monotonic()
    code = cli.run(["gen", "dnc", "--n", "4", "--format", "compact"])
    out = capsys.readouterr().out
    elapsed = time.monotonic() - started
    normalized = "".join(out.split())
    with capsys.disabled():
        report("AC2", code == 0 and normalized == R4_COMPACT and elapsed < 1.0)


def test_ac3_language_correctness(capsys):
    started = time.monotonic()
    builders = {
        "dnc": construct.build_divide_and_conquer,
        "tail": construct.build_tail_recursive,
        "flat": construct.build_flat_union,
    }
    ok = True
    for name, build in builders.items():
        for n in range(1, 8):
            if name == "flat" and n > construct.FLAT_CAP:
                continue
            expr = build(construct.AlphabetSet.first_n(n))
            cert = verify.language_equals_permutations(expr, n)
            ok = ok and cert.passed
            ok = ok and cert.accepted == math.factorial(n)
            ok = ok and cert.words_tested == n**n
    elapsed = time.monotonic() - started
    with capsys.disabled():
        report("AC3", ok and elapsed < 600.0)


def test_ac4_oracle_optimality(capsys):
    started = time.monotonic()
    ok = True
    for n, expected in ((1, 1), (2, 4), (3, 15)):
        table = oracle.minimal_cost_table(oracle.build_universe(n))
        perms = [w for w in table.universe.words if len(w) == n]
        ok = ok and table.cost_of_words(perms) == expected == lengths.f(n)
        opt = oracle.check_main_opt(n)
        ok = ok and opt.passed and opt.matches_f
        ok = ok and "star-free" in opt.semantics
    elapsed = time.monotonic() - started
    with capsys.disabled():
        report("AC4", ok and elapsed < 60.0)


def test_ac5_split_choice_sweep(capsys):
    ok = True
    for n in range(2, 513):
        result = lengths.check_opt_choice(n)
        ok = ok and result.passed
        ok = ok and set(result.equality_ks) == {n // 2, (n + 1) // 2}
    with capsys.disabled():
        report("AC5", ok)


def test_ac6_triple_growth_sweep(capsys):
    growth = lengths.check_triple_growth(1024)
    ok = growth.passed and growth.min_ratio >= 3
    with capsys.disabled():
        report("AC6", ok)


def test_ac7_growth_bound_certification(capsys):
    reportobj = bounds.check_fn_bounds(1024)
    ok = reportobj.status == bounds.CERTIFIED
    ok = ok and reportobj.points_checked == 1024
    ok = ok and reportobj.max_precision_bits <= bounds.MAX_PRECISION_BITS
    ok = ok and reportobj.failures == ()
    with capsys.disabled():
        report("AC7", ok)


def test_ac8_supporting_analytics(capsys):
    grid = bounds.default_grid()  # x in {1, 1.25, ..., 100}
    ok = bounds.check_stirling_sandwich(100).status == bounds.CERTIFIED
    ok = ok and bounds.check_lemma_sa(grid).status == bounds.CERTIFIED
    for alpha in (bounds.alpha_low, bounds.alpha_high):
        usable = bounds.filter_ga_domain(grid, alpha)
        ok = ok and bounds.check_lemma_ga(usable, alpha).status == bounds.CERTIFIED
    ok = ok and bounds.IDENTITY_TIGHTNESS == Fraction(1, 10**30)
    for beta in (Fraction(2), Fraction(5, 2)):
        gas = bounds.check_lemma_gaS(grid, beta)
        ok = ok and gas.status == bounds.CERTIFIED
    with capsys.disabled():
        report("AC8", ok)


def test_ac9_estimate_report(capsys):
    code = cli.run(["estimate", "--max-m", "8"])
    out = capsys.readouterr().out
    rows = json.loads(out)["report"]["rows"]
    ok = code == 0 and len(rows) == 8
    exact = {row["m"]: row["f"] for row in rows}
    ok = ok and all(exact[m] == lengths.f(2**m) for m in range(1, 9))
    for row in rows:
        text = row["ln_ratio"].strip("[]")
        lo, hi = (float(part) for part in text.split(","))
        ok = ok and math.isfinite(lo) and math.isfinite(hi)
    with capsys.disabled():
        report("AC9", ok)


class TestAC10:
    checked = {"positions": 0, "roundtrip": 0}

    def test_builder_positions(self):
        for build in (construct.build_divide_and_conquer,
                      construct.build_tail_recursive,
                      construct.build_flat_union):
            for n in range(1, 7):
                expr = build(construct.AlphabetSet.first_n(n))
                nfa = verify.glushkov(expr)
                assert nfa.n_positions == regex_ast.alphabetic_length(expr)

    @settings(max_examples=200, deadline=None)
    @given(normal_form_regexes(n=4))
    def test_random_ast_positions_and_round_trip(self, expr):
        nfa = verify.glushkov(expr)
        assert nfa.n_positions == regex_ast.alphabetic_length(expr)
        TestAC10.checked["positions"] += 1
        again = regex_ast.parse(regex_ast.render(expr, "spaced"), 4)
        assert again is expr
        TestAC10.checked["roundtrip"] += 1

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 300), st.sampled_from(["S", "g"]))
    def test_enclosure_nesting_under_precision_doubling(self, n, kind):
        def evaluate():
            x = iv.mpf(n)
            if kind == "S":
                return bounds.stirling_S(x)
            return bounds.g_alpha(x, bounds.alpha_high())

        coarse = fine = None
        with bounds.precision(64):
            coarse = bounds.endpoints(evaluate())
        with bounds.precision(128):
            fine = bounds.endpoints(evaluate())
        assert coarse[0] <= fine[0] <= fine[1] <= coarse[1]

    def test_zz_report(self, capsys):
        ok = (TestAC10.checked["positions"] >= 200
              and TestAC10.checked["roundtrip"] >= 200)
        with capsys.disabled():
            report("AC10", ok)
