import collections
import csv
import importlib.util
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
import types
from fractions import Fraction
from pathlib import Path

import pytest

import permrex
from permrex import bounds, cli, construct, lengths, oracle, regex_ast, verify

from conftest import LADDER_16, LADDER_24, union_terms

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def run(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_compact_r4(capsys):
    code, out, _ = run(capsys, "gen", "dnc", "--n", "4", "--format", "compact")
    assert code == 0
    assert out.strip() == (
        "(12+21)(34+43)+(13+31)(24+42)+(23+32)(14+41)"
        "+(14+41)(23+32)+(24+42)(13+31)+(34+43)(12+21)")


def test_gen_writes_file(tmp_path, capsys):
    target = tmp_path / "r5.txt"
    code, out, _ = run(capsys, "gen", "tail", "--n", "5", "--output", str(target))
    assert code == 0
    assert out == ""
    text = target.read_text()
    assert text.endswith("\n")
    assert text.count("+") > 0


def test_gen_writes_a_text_of_several_slices_unchanged(tmp_path, capsys):
    # `run` writes its output in slices of cli._WRITE_SLICE characters; the
    # dnc n=11 text is over 1 MiB and ends in a partial slice.
    expr = construct.build_divide_and_conquer(11)
    text = regex_ast.render(expr, "spaced")
    assert len(text) > 2**20 and len(text) % cli._WRITE_SLICE
    expected = (text if text.endswith("\n") else text + "\n").encode()
    code, out, _ = run(capsys, "gen", "dnc", "--n", "11")
    assert code == 0 and out.encode() == expected
    target = tmp_path / "r11.txt"
    assert run(capsys, "gen", "dnc", "--n", "11", "--output", str(target)) == (0, "", "")
    assert target.read_bytes() == expected


def test_gen_cap_exit_code(capsys):
    code, _, err = run(capsys, "gen", "flat", "--n", "9")
    assert code == 2
    assert "cap" in err


def test_gen_compact_wide_alphabet_is_input_error(capsys, monkeypatch):
    # Refused before the build, at any n >= 10.
    def refuse(n):
        raise AssertionError(f"built n={n}")

    for name in sorted(cli._BUILDERS):
        monkeypatch.setitem(cli._BUILDERS, name, refuse)
        for n in ("10", "13", "100"):
            assert run(capsys, "gen", name, "--n", n, "--format", "compact") == (
                2, "", "error: symbol 10 has no single-digit form; use the spaced format\n")
    # Below n = 10 the builder runs, and the spaced format builds at any n.
    for argv in (["--n", "9", "--format", "compact"], ["--n", "10"]):
        with pytest.raises(AssertionError, match="built n="):
            cli.run(["gen", "dnc", *argv])


# One refusal per command kind; each comes after argument parsing.
@pytest.mark.parametrize("argv, word", [
    pytest.param(["gen", "dnc", "--n", "10", "--format", "compact"], "spaced", id="gen"),
    pytest.param(["table", "--max-n", "1750"], "digits", id="table"),
    pytest.param(["verify", "--regex-file", "{tmp}/huge-id.rx", "--n", "10"], "5000 digits",
                 id="verify"),
    pytest.param(["bounds", "--max-n", str(bounds.MAX_SWEEP_N + 1)], "at most", id="bounds"),
])
def test_refusal_leaves_existing_output_unchanged(tmp_path, capsys, argv, word):
    (tmp_path / "huge-id.rx").write_text("1 " + "9" * 5000 + "\n")
    target = tmp_path / "out.txt"
    target.write_text("previous contents\n")
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    code, out, err = run(capsys, *argv, "--output", str(target))
    assert (code, out) == (2, "")
    assert word in err
    assert target.read_bytes() == b"previous contents\n"


_VOLATILE = re.compile(r'"(elapsed_seconds|seconds|peak_rss_mb)": [0-9.e-]+')


@pytest.mark.parametrize("argv", [
    ["gen", "dnc", "--n", "4"],
    ["len", "--max-n", "5"],
    ["table", "--max-n", "5"],
    ["verify", "--builder", "tail", "--n", "4"],
    ["lemmas", "--max-n", "8"],
    ["bounds", "--max-n", "4", "--grid", "4:5:1"],
    ["estimate", "--max-m", "2", "--format", "csv"],
    ["oracle", "--n", "2"],
], ids=lambda argv: argv[0])
def test_stdout_and_output_file_carry_the_same_bytes(tmp_path, capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out.endswith("\n")
    target = tmp_path / "out"
    assert run(capsys, *argv, "--output", str(target)) == (0, "", "")
    assert _VOLATILE.sub("", target.read_bytes().decode()) == _VOLATILE.sub("", out)


def test_len_json(capsys):
    code, out, _ = run(capsys, "len", "--max-n", "10")
    assert code == 0
    payload = json.loads(out)
    values = [row["value"] for row in payload["report"]["f"]]
    assert values == [1, 4, 15, 48, 190, 600, 2205, 6720, 29988, 95760]
    assert payload["meta"]["elapsed_seconds"] >= 0
    assert payload["meta"]["peak_rss_mb"] > 1


def test_table_csv(capsys):
    code, out, _ = run(capsys, "table", "--max-n", "10")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [int(r["f"]) for r in rows] == [
        1, 4, 15, 48, 190, 600, 2205, 6720, 29988, 95760]
    assert [int(r["t"]) for r in rows][:4] == [1, 4, 15, 64]
    assert int(rows[7]["flat"]) == 322560


def test_table_json(capsys):
    code, out, _ = run(capsys, "table", "--max-n", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["rows"][2] == {
        "n": 3, "f": 15, "t": 15, "flat": 18}


@pytest.fixture
def set_int_digit_limit():
    old = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(old)


@pytest.mark.parametrize("command, printed", [
    ("len", lambda n: [lengths.f(n)]),
    ("table", lambda n: [lengths.f(n), lengths.t(n), lengths.flat_length(n)]),
], ids=["len", "table"])
def test_max_n_refused_exactly_past_the_int_digit_limit(
        capsys, set_int_digit_limit, command, printed):
    limit = 640  # the lowest limit Python allows, which keeps the tables small
    # Every printed value grows with n, so the row of max_n holds the largest.
    last = next(n for n in itertools.count(1)
                if any(len(str(v)) > limit for v in printed(n + 1)))
    set_int_digit_limit(limit)
    code, out, _ = run(capsys, command, "--max-n", str(last))
    assert code == 0 and out.endswith("\n")
    code, out, err = run(capsys, command, "--max-n", str(last + 1))
    assert (code, out) == (2, "")
    assert f"more than {limit} digits" in err


@pytest.mark.parametrize("argv, code", [
    (["len", "--max-n", "7161"], 2),
    (["table", "--max-n", "1557"], 0),
    (["table", "--max-n", "1558"], 2),
])
def test_max_n_refused_past_the_default_limit_where_python_has_none(
        capsys, monkeypatch, argv, code):
    # With no digit limit (PYTHONINTMAXSTRDIGITS=0, or Python before 3.10.7)
    # the tables are still refused past the default 4300 digits, not built.
    monkeypatch.setattr(cli, "_int_digit_limit", lambda: 0)
    got, out, err = run(capsys, *argv)
    assert got == code
    if code == 2:
        assert out == "" and "more than 4300 digits" in err


def test_benchmark_table_sizes_print_at_the_default_digit_limit(capsys, set_int_digit_limit):
    set_int_digit_limit(4300)
    assert run(capsys, "len", "--max-n", "2000")[0] == 0
    assert run(capsys, "table", "--max-n", "300")[0] == 0


def test_verify_builder_pass(capsys):
    code, out, _ = run(capsys, "verify", "--builder", "dnc", "--n", "5")
    assert code == 0
    cert = json.loads(out)["report"]["certificate"]
    assert cert["passed"] is True
    assert cert["positions"] == 190


def test_verify_regex_file_fail(tmp_path, capsys):
    bad = tmp_path / "bad.rx"
    bad.write_text("12+21+11\n")
    code, out, _ = run(capsys, "verify", "--regex-file", str(bad), "--n", "2")
    assert code == 1
    cert = json.loads(out)["report"]["certificate"]
    assert cert["passed"] is False
    assert cert["method"] == "exhaustive"
    assert any("non-permutation" in v for v in cert["violations"])


def test_verify_regex_file_pass(tmp_path, capsys):
    good = tmp_path / "good.rx"
    good.write_text("12+21\n")
    code, out, _ = run(capsys, "verify", "--regex-file", str(good), "--n", "2")
    assert code == 0


def test_verify_missing_file(capsys):
    code, _, err = run(capsys, "verify", "--regex-file", "/nope.rx", "--n", "2")
    assert code == 2
    assert "nope" in err


def test_verify_cap(tmp_path, capsys):
    # dnc n=8 with its first term dropped is not a split proof, so it needs
    # the n^n walk, which the default cap refuses.
    terms = union_terms(construct.build_divide_and_conquer(8))
    dropped = tmp_path / "dnc8-drop.rx"
    dropped.write_text(regex_ast.render(regex_ast.Union(*terms[1:])))
    code, _, err = run(capsys, "verify", "--regex-file", str(dropped), "--n", "8")
    assert code == 2
    assert "capped" in err


def test_verify_walk_ceiling_holds_whatever_the_cap(tmp_path, capsys, monkeypatch):
    # (1+2+...+10) ten times: every prefix is live and the split proof
    # fails, so the walk would visit all 10^10 words.
    def forbidden(*args):
        raise AssertionError("the walk started")

    monkeypatch.setattr(verify, "glushkov", forbidden)
    path = tmp_path / "every-word-10.rx"
    path.write_text(" ".join(["(" + "+".join(map(str, range(1, 11))) + ")"] * 10))
    code, out, err = run(capsys, "verify", "--regex-file", str(path), "--n", "10",
                         "--verify-cap", "10")
    assert (code, out) == (2, "")
    assert err == (f"error: exhaustive verification capped at n = {verify.MAX_WALK_N} "
                   "(10^10 words is too many)\n")


@pytest.mark.parametrize("n", [10, 13])
def test_verify_structural_past_the_cap(capsys, n):
    code, out, _ = run(capsys, "verify", "--builder", "dnc", "--n", str(n))
    assert code == 0
    cert = json.loads(out)["report"]["certificate"]
    assert cert["method"] == "structural" and cert["passed"] is True
    assert cert["words_tested"] == n**n
    assert cert["accepted"] == cert["permutations_accepted"] == math.factorial(n)
    assert cert["positions"] == lengths.f(n)


def test_verify_structural_past_the_walk_ceiling(capsys):
    code, out, _ = run(capsys, "verify", "--builder", "dnc", "--n", "12",
                       "--verify-cap", "12")
    assert code == 0
    assert json.loads(out)["report"]["certificate"]["method"] == "structural"


def test_verify_syntax_error(tmp_path, capsys):
    bad = tmp_path / "syntax.rx"
    bad.write_text("12+(21\n")
    code, _, err = run(capsys, "verify", "--regex-file", str(bad), "--n", "2")
    assert code == 2
    assert "offset" in err


def test_lemmas(capsys):
    code, out, _ = run(capsys, "lemmas", "--max-n", "32")
    assert code == 0
    report = json.loads(out)["report"]
    assert report["split_choice"]["passed"] is True
    assert report["triple_growth"]["passed"] is True


def test_lemmas_reports_a_failing_triple_growth_sweep(capsys, monkeypatch):
    failing = lengths.TripleGrowthReport(
        passed=False, min_ratio=Fraction(5, 2), min_ratio_at=2,
        violations=(lengths.GrowthViolation(2, Fraction(5, 2)),
                    lengths.GrowthViolation(3, Fraction(11, 4))))
    monkeypatch.setattr(lengths, "check_triple_growth", lambda max_n: failing)
    code, out, _ = run(capsys, "lemmas", "--max-n", "4")
    assert code == 1
    growth = json.loads(out)["report"]["triple_growth"]
    assert growth["min_ratio"] == "5/2"
    assert growth["violations"] == [{"n": 2, "ratio": "5/2"}, {"n": 3, "ratio": "11/4"}]


def test_lemmas_exits_1_on_a_growth_ratio_below_three(capsys, monkeypatch):
    real = lengths.f
    monkeypatch.setattr(lengths, "f", lambda n: 6614 if n == 8 else real(n))
    code, out, _ = run(capsys, "lemmas", "--max-n", "9")
    assert code == 1
    growth = json.loads(out)["report"]["triple_growth"]
    assert growth["violations"] == [{"n": 7, "ratio": "6614/2205"}]


def test_bounds_small(capsys):
    code, out, _ = run(
        capsys, "bounds", "--max-n", "16", "--grid", "2:8:0.5")
    assert code == 0
    report = json.loads(out)["report"]
    statuses = {r["inequality"]: r["status"] for r in report["reports"]}
    assert statuses["fn_growth_bounds"] == "certified"
    assert statuses["factorial_sandwich"] == "certified"
    assert statuses["stirling_midpoint_bracket"] == "certified"
    assert statuses["growth_template_bracket[alpha_low]"] == "certified"
    assert statuses["growth_template_bracket[alpha_high]"] == "certified"
    assert statuses["doubling_identity_beta_2"] == "certified"
    assert statuses["doubling_identity_beta_5/2"] == "certified"
    assert all(r["seconds"] >= 0 for r in report["reports"])


def test_bounds_cross_checks_the_proved_sandwich_on_64_points(capsys, monkeypatch):
    # The sandwich is proved for every n >= 1 and swept only to 64; the
    # growth bounds still sweep --max-n.  Every sweep runs in this process,
    # however many CPUs it may use.
    real_sweep = bounds._n_sweep
    sweeps, forks = {}, []

    def n_sweep(inequality, max_n, *args):
        sweeps[inequality] = max_n
        return real_sweep(inequality, max_n, *args)

    def fork():
        forks.append(None)
        raise OSError("no process may be forked")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(bounds, "_n_sweep", n_sweep)
    code, out, _ = run(capsys, "bounds", "--max-n", "200", "--grid", "2:8:2")
    assert code == 0
    assert sweeps == {"fn_growth_bounds": 200, "factorial_sandwich": 64}
    assert forks == []
    reports = {r["inequality"]: r for r in json.loads(out)["report"]["reports"]}
    assert len(reports) == 7
    sandwich = reports.pop("factorial_sandwich")
    assert (sandwich["domain"], sandwich["points_checked"], sandwich["status"]) == (
        "n >= 1", 64, "certified")
    assert sandwich["premises"] == list(bounds.SANDWICH_PREMISES)
    assert all(r["premises"] == [] for r in reports.values())


def test_bounds_reports_carry_their_checks_seconds(capsys, monkeypatch):
    # Each check times itself, and the command prints each record's own
    # `seconds`.  A clock that moves half a second at every reading gives
    # each check one step.  Every point of this grid lies below 4^alpha for
    # both alphas, so both growth brackets sweep nothing and are certified.
    clock = itertools.count(0.0, 0.5)
    monkeypatch.setattr(bounds, "time", types.SimpleNamespace(monotonic=clock.__next__))
    code, out, _ = run(capsys, "bounds", "--max-n", "8", "--grid", "1:1.5:0.25")
    assert code == 0
    reports = json.loads(out)["report"]["reports"]
    assert [r["seconds"] for r in reports] == [0.5] * 7
    assert [r["status"] for r in reports] == ["certified"] * 7
    assert [(r["inequality"], r["domain"], r["points_checked"], r["worst_point"])
            for r in reports[3:5]] == [
        ("growth_template_bracket[alpha_low]", "empty grid", 0, ""),
        ("growth_template_bracket[alpha_high]", "empty grid", 0, "")]


def _clear_bounds_memos():
    for value in vars(bounds).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()


def test_bounds_builds_domains_and_constants_once(capsys, monkeypatch):
    caller = [None]
    decisions = collections.Counter()  # caller -> domain decisions

    def tagged(name, fn):
        def call(*args, **kwargs):
            caller[0] = name
            try:
                return fn(*args, **kwargs)
            finally:
                caller[0] = None
        return call

    def decide(*args):
        decisions[caller[0]] += 1
        return real_decide(*args)

    real_decide = bounds._in_ga_domain
    monkeypatch.setattr(bounds, "_in_ga_domain", decide)
    monkeypatch.setattr(bounds, "filter_ga_domain",
                        tagged("filter", bounds.filter_ga_domain))
    monkeypatch.setattr(bounds, "check_lemma_ga", tagged("bracket", bounds.check_lemma_ga))
    bounds._constant.cache_clear()
    code, out, _ = run(capsys, "bounds", "--max-n", "16", "--grid", "2:30:4")
    assert code == 0
    report = json.loads(out)["report"]
    # Inside the bracket, its filter decides each grid point once per alpha,
    # and the bracket decides nothing more.
    assert decisions == {"filter": 2 * report["grid_points"]}
    # Four distinct constants (1/4, 195/1000, 5/2, 1/2), one per rung used.
    constants = bounds._constant.cache_info()
    assert constants.misses <= 4 * len(bounds.PRECISION_LADDER)


def _module_memo_sizes():
    return {name: value.cache_info().currsize for name, value in vars(bounds).items()
            if hasattr(value, "cache_info")}


def test_bounds_frees_the_grid_memos(capsys):
    # The growth-template brackets of one check_lemma_ga call share the
    # alpha-free parts of g_a and the wobble factors at each grid point; the
    # call frees both as it returns, in the command and in a library call.
    # Kept, they held about 3 MB of this 797-point grid.  The module's own
    # memos hold constants, a few per rung, and nothing per grid point.
    run(capsys, "bounds", "--max-n", "4", "--grid", "2:8:0.5")  # mpmath and constants
    constants = _module_memo_sizes()
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, "bounds", "--max-n", "4", "--grid", "1:200:0.25")
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0 and json.loads(out)["report"]["grid_points"] == 797
    assert _module_memo_sizes() == constants
    assert retained < 1_500_000
    grid = bounds.default_grid(Fraction(1), Fraction(200), Fraction(1, 4))
    tracemalloc.start()
    try:
        reports = bounds.check_lemma_ga(grid, (bounds.alpha_low, bounds.alpha_high))
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [(r.status, r.points_checked) for r in reports] == [
        (bounds.CERTIFIED, len(bounds.filter_ga_domain(grid, alpha)))
        for alpha in (bounds.alpha_low, bounds.alpha_high)]
    assert _module_memo_sizes() == constants
    assert retained < 1_500_000


def test_bounds_takes_ln_2_once_per_rung(capsys, monkeypatch):
    # The alpha-free parts of g_a divide by ln 2 at every evaluation, and
    # alpha_for_beta needs it too; it is evaluated once per rung.  The other
    # logs of exactly 2 take the log of an argument that is 2: ln beta once
    # per rung for alpha_low (beta = 2), and one per evaluation of S(2) or of
    # the parts of g_a at 2.
    iv = bounds.mpmath.iv
    logs = collections.Counter()  # rung -> iv.log calls on exactly 2
    at_two = collections.Counter()  # (S or parts, rung) -> evaluations at exactly 2
    real_log = iv.log

    def log(x):
        if bounds.exact_int(x) == 2:
            logs[iv.prec] += 1
        return real_log(x)

    def counted(name, fn):
        def evaluate(x, *args):
            if bounds.exact_int(x) == 2:
                at_two[name, iv.prec] += 1
            return fn(x, *args)
        return evaluate

    _clear_bounds_memos()
    monkeypatch.setattr(iv, "log", log)
    monkeypatch.setattr(bounds, "stirling_S", counted("S", bounds.stirling_S))
    monkeypatch.setattr(bounds, "_template_parts",
                        counted("parts", bounds._template_parts))
    code, _, _ = run(capsys, "bounds", "--max-n", "16", "--grid", "2:30:4")
    assert code == 0
    bits = bounds.PRECISION_LADDER[0]
    assert logs == {bits: 2 + 4}
    # S(2) in the factorial sandwich and the Stirling bracket; the parts at 2
    # once for both growth templates of f(2), and once in the alpha_low
    # bracket (2 is below alpha_high's domain).
    assert at_two == {("S", bits): 2, ("parts", bits): 2}


@pytest.mark.parametrize("ladder", [bounds.PRECISION_LADDER, LADDER_16],
                         ids=lambda ladder: str(ladder[0]))
def test_bracket_sweeps_evaluate_each_argument_once_per_rung(capsys, monkeypatch, ladder):
    # Count each evaluation, inside a bracket sweep, of S, of the alpha-free
    # parts of g_a, and of the square root in the bracket's e^(-/+1/(2 sqrt x))
    # wobble, and tag each grid point with the highest rung its climb reached.
    # S is evaluated once per argument per rung of the Stirling bracket, and
    # the parts and the wobble once per argument per rung of the two growth
    # template brackets together.  The one growth-template call brackets both
    # alphas, each after its domain filter, so the filter tags the alpha.
    sweep = [None]
    calls = collections.Counter()  # (value, argument endpoints, bits) -> calls
    reached = collections.defaultdict(dict)  # sweep -> {x: highest rung}

    def tagged(name, fn):
        def run_sweep(grid, *args, **kwargs):
            sweep[0] = name
            try:
                return fn(grid, *args, **kwargs)
            finally:
                sweep[0] = None
        return run_sweep

    def filter_tagging(grid, alpha, *args):
        sweep[0] = f"ga[{alpha.__name__}]"
        return real_filter(grid, alpha, *args)

    def counted(name, fn):
        def evaluate(x, *args):
            if sweep[0] is not None:
                calls[name, bounds.endpoints(x), bounds.mpmath.iv.prec] += 1
            return fn(x, *args)
        return evaluate

    def le_judge(make):
        judge = real_le_judge(make)
        if sweep[0] is not None:
            point_of[judge] = make.args[0]  # make is partial(pairs, x)
        return judge

    def climb(judge, ladder):
        judgement, used = real_climb(judge, ladder)
        if judge in point_of:
            reached[sweep[0]][point_of[judge]] = used
        return judgement, used

    point_of = {}
    real_le_judge, real_climb = bounds._le_judge, bounds._climb
    real_filter = bounds.filter_ga_domain
    _clear_bounds_memos()  # cold process memos, as in a fresh command
    monkeypatch.setattr(bounds, "_le_judge", le_judge)
    monkeypatch.setattr(bounds, "_climb", climb)
    monkeypatch.setattr(bounds, "stirling_S", counted("S", bounds.stirling_S))
    monkeypatch.setattr(bounds, "_template_parts",
                        counted("parts", bounds._template_parts))
    monkeypatch.setattr(bounds, "enc_sqrt", counted("sqrt", bounds.enc_sqrt))
    monkeypatch.setattr(bounds, "check_lemma_sa", tagged("sa", bounds.check_lemma_sa))
    monkeypatch.setattr(bounds, "check_lemma_ga", tagged("ga", bounds.check_lemma_ga))
    monkeypatch.setattr(bounds, "filter_ga_domain", filter_tagging)
    monkeypatch.setattr(bounds, "PRECISION_LADDER", ladder)
    code, _, _ = run(capsys, "bounds", "--max-n", "16", "--grid", "2:30:0.25")
    assert code == 0
    assert set(reached) == {"sa", "ga[alpha_low]", "ga[alpha_high]"}
    bits = ladder[0]
    expected = collections.Counter()
    whole, grid_only = (0, Fraction(1, 2), 1), (0,)
    for name, tags, offsets in [("S", ["sa"], whole),
                                ("parts", ["ga[alpha_low]", "ga[alpha_high]"], whole),
                                ("sqrt", ["ga[alpha_low]", "ga[alpha_high]"], grid_only)]:
        for rung in ladder:
            with bounds.precision(rung):
                expected.update({
                    (name, bounds.endpoints(bounds.rational(x + offset)), rung)
                    for tag in tags for x, used in reached[tag].items() if used >= rung
                    for offset in offsets})
    assert calls == expected
    # 113 grid points share 117 arguments; at 16 bits some points climb.
    assert len(reached["sa"]) == 113
    assert sum(1 for name, _, rung in calls if name == "S" and rung == bits) == 117
    assert (max(reached["sa"].values()) > bits) == (bits == 16)
    # alpha_low's bracket keeps all 113 points and alpha_high's a subset, so
    # at the base rung the parts are evaluated at the 117 arguments once.
    assert len(reached["ga[alpha_low]"]) == 113
    assert set(reached["ga[alpha_high]"]) < set(reached["ga[alpha_low]"])
    assert sum(1 for name, _, rung in calls if name == "parts" and rung == bits) == 117


# Every field but `seconds` of each `bounds --max-n 16 --grid 2:30:4` report:
# (inequality, domain, status, points_checked, worst_margin, worst_point,
#  max_precision_bits, failures).  The factorial sandwich is proved for every
#  n >= 1 and cross-checked at n <= 16; the doubling identity is proved
#  symbolically for every x > 0, at no precision.
GOLDEN_BOUNDS_200 = [
    ("fn_growth_bounds", "n in [1, 16]", "certified", 16, "[0.0, 0.0]", "n=1", 200, []),
    ("factorial_sandwich", "n >= 1", "certified", 16,
     "[0.000599142468994, 0.000599142468994]", "n=3", 200, []),
    ("stirling_midpoint_bracket", "x in [2, 30], 8 points", "certified", 8,
     "[0.863830355606, 0.863830355606]", "x=2", 200, []),
    ("growth_template_bracket[alpha_low]", "x in [2, 30], 8 points", "certified", 8,
     "[22.8391017342, 22.8391017342]", "x=2", 200, []),
    ("growth_template_bracket[alpha_high]", "x in [6, 30], 7 points", "certified", 7,
     "[3685.16504176, 3685.16504176]", "x=6", 200, []),
    ("doubling_identity_beta_2", "x > 0", "certified", 0, "0", "symbolic", 0, []),
    ("doubling_identity_beta_5/2", "x > 0", "certified", 0, "0", "symbolic", 0, []),
]
# The same on LADDER_16, whose first rung is 16 bits, where the printed margins
# are as wide as the 16-bit enclosures (of alpha_for_beta(2) and (5/2) too)
# make them.
GOLDEN_BOUNDS_16 = [
    ("fn_growth_bounds", "n in [1, 16]", "certified", 16, "[0.0, 0.0]", "n=1", 16, []),
    ("factorial_sandwich", "n >= 1", "certified", 16,
     "[0.0001220703125, 0.001220703125]", "n=3", 32, []),
    ("stirling_midpoint_bracket", "x in [2, 30], 8 points", "certified", 8,
     "[0.861083984375, 0.866455078125]", "x=2", 32, []),
    ("growth_template_bracket[alpha_low]", "x in [2, 30], 8 points", "certified", 8,
     "[22.8173828125, 22.8623046875]", "x=2", 16, []),
    ("growth_template_bracket[alpha_high]", "x in [6, 30], 7 points", "certified", 7,
     "[3669.0, 3698.0]", "x=6", 16, []),
    ("doubling_identity_beta_2", "x > 0", "certified", 0, "0", "symbolic", 0, []),
    ("doubling_identity_beta_5/2", "x > 0", "certified", 0, "0", "symbolic", 0, []),
]
# Every field but `seconds` of `bounds --max-n 300 --grid 1:40:0.125` on
# LADDER_24, whose factorial sandwich climbs to 48 bits in its 64-point
# cross-check: the report's header, then its reports as above.
GOLDEN_BOUNDS_24 = ({"max_n": 300, "precision_bits": 24, "grid_points": 313}, [
    ("fn_growth_bounds", "n in [1, 300]", "certified", 300, "[0.0, 0.0]", "n=1", 24, []),
    ("factorial_sandwich", "n >= 1", "certified", 64, "[0.0, 12.25]", "n=10", 48, []),
    ("stirling_midpoint_bracket", "x in [1, 40], 313 points", "certified", 313,
     "[0.185925126076, 0.185928106308]", "x=1", 24, []),
    ("growth_template_bracket[alpha_low]", "x in [15/8, 40], 306 points", "certified",
     306, "[20.1172180176, 20.1174125671]", "x=15/8", 24, []),
    ("growth_template_bracket[alpha_high]", "x in [23/8, 40], 298 points", "certified",
     298, "[93.0807800293, 93.0823364258]", "x=23/8", 24, []),
    ("doubling_identity_beta_2", "x > 0", "certified", 0, "0", "symbolic", 0, []),
    ("doubling_identity_beta_5/2", "x > 0", "certified", 0, "0", "symbolic", 0, []),
])
GOLDEN_FIELDS = ("inequality", "domain", "status", "points_checked", "worst_margin",
                 "worst_point", "max_precision_bits", "failures")


# `extra` holds the ladder each run climbs, in order.
@pytest.mark.parametrize("extra, golden", [
    ([bounds.PRECISION_LADDER], [GOLDEN_BOUNDS_200]),
    ([LADDER_16], [GOLDEN_BOUNDS_16]),
    # One process, cold memos: nothing memoized at 16 bits is read at 200.
    ([LADDER_16, bounds.PRECISION_LADDER], [GOLDEN_BOUNDS_16, GOLDEN_BOUNDS_200]),
])
def test_bounds_golden_reports(capsys, monkeypatch, extra, golden):
    _clear_bounds_memos()
    for ladder, expected in zip(extra, golden, strict=True):
        monkeypatch.setattr(bounds, "PRECISION_LADDER", ladder)
        code, out, _ = run(capsys, "bounds", "--max-n", "16", "--grid", "2:30:4")
        assert code == 0
        reports = json.loads(out)["report"]["reports"]
        assert [tuple(r[f] for f in GOLDEN_FIELDS) for r in reports] == expected


def test_bounds_golden_report_up_the_ladder(capsys, monkeypatch):
    _clear_bounds_memos()
    monkeypatch.setattr(bounds, "PRECISION_LADDER", LADDER_24)
    code, out, _ = run(capsys, "bounds", "--max-n", "300", "--grid", "1:40:0.125")
    assert code == 0
    report = json.loads(out)["report"]
    reports = report.pop("reports")
    assert (report, [tuple(r[f] for f in GOLDEN_FIELDS) for r in reports]) == GOLDEN_BOUNDS_24


def test_sweep_memos_die_with_their_sweep(monkeypatch):
    # Each bracket sweep memoizes S or g_a for itself, so a second sweep over
    # the same grid evaluates every argument again.  The alpha-free parts of
    # g_a are memoized for one check_lemma_ga call, which both its alphas
    # share, and ln 2 (which the parts divide by, and alpha_low takes as
    # ln beta) for the process: a second round evaluates the parts again but
    # takes no log of 2 at the rung the first round used.
    iv = bounds.mpmath.iv
    grid = [Fraction(3), Fraction(7, 2), Fraction(4)]  # arguments 3 .. 5, none 2
    calls = collections.Counter()
    real_log = iv.log

    def log(x):
        if bounds.exact_int(x) == 2:
            calls["ln 2", iv.prec] += 1
        return real_log(x)

    def counted(name, fn):
        def evaluate(x, *args):
            calls[name, iv.prec] += 1
            return fn(x, *args)
        return evaluate

    _clear_bounds_memos()
    monkeypatch.setattr(iv, "log", log)
    monkeypatch.setattr(bounds, "stirling_S", counted("S", bounds.stirling_S))
    monkeypatch.setattr(bounds._TemplateParts, "at", counted("g_a", bounds._TemplateParts.at))
    monkeypatch.setattr(bounds, "_template_parts",
                        counted("parts", bounds._template_parts))
    rounds = []

    def sweep_round():
        before = calls.copy()
        assert bounds.check_lemma_sa(grid).status == bounds.CERTIFIED
        brackets = bounds.check_lemma_ga(grid, (bounds.alpha_low, bounds.alpha_high))
        assert [r.status for r in brackets] == [bounds.CERTIFIED] * 2
        rounds.append(calls - before)

    sweep_round()
    sweep_round()
    bits = bounds.PRECISION_LADDER[0]
    # g_a once per argument per alpha, on parts evaluated once per argument.
    assert rounds[0] == {("S", bits): 5, ("g_a", bits): 10, ("parts", bits): 5,
                         ("ln 2", bits): 2}
    assert rounds[1] == {("S", bits): 5, ("g_a", bits): 10, ("parts", bits): 5}


def test_bounds_bad_grid(capsys):
    with pytest.raises(SystemExit) as info:
        cli.run(["bounds", "--grid", "5:1:1"])
    assert info.value.code == 2
    assert "grid" in capsys.readouterr().err


@pytest.mark.parametrize("grid, message", [
    ("1:2", "grid must look like start:stop:step, e.g. 1:100:0.25"),
    ("1:x:1", "bad grid number: "),
])
def test_bounds_refuses_a_malformed_grid(capsys, grid, message):
    code, err = _exit_code_and_err(capsys, ["bounds", "--grid", grid])
    assert code == 2
    assert message in err


@pytest.mark.parametrize("grid, part", [
    ("1e5000:1e5000:1", "grid start 1e5000 has more than"),
    ("1:1e10000000:1", "grid stop 1e10000000 has more than"),
    ("1:2:1e-5000", "grid step 1e-5000 has more than"),
    ("1:1e4299:1e-10", "grid points or their count would have more than"),
])
def test_bounds_refuses_grid_numbers_too_long_to_print(capsys, monkeypatch, grid, part):
    # Refused from the text, before Fraction expands an exponent, and before
    # a report would print a label longer than Python converts.
    monkeypatch.setattr(bounds, "grid_size", None)  # never reached
    started = time.monotonic()
    code, err = _exit_code_and_err(capsys, ["bounds", "--grid", grid])
    assert time.monotonic() - started < 1
    assert code == 2
    assert part in err and "Traceback" not in err


def test_bounds_grid_stops_at_the_largest_power_of_ten_it_decides(capsys):
    # The ceiling certifies a rung below the top of the ladder; ten times
    # the ceiling, the Stirling bracket needs the top rung, and it is refused.
    top = bounds.MAX_GRID_X
    assert top == 10 ** (len(str(top)) - 1)
    reports = [bounds.check_lemma_sa([top]),
               *bounds.check_lemma_ga([top], (bounds.alpha_low, bounds.alpha_high))]
    assert [(r.status, r.points_checked) for r in reports] == [(bounds.CERTIFIED, 1)] * 3
    assert max(r.max_precision_bits for r in reports) <= bounds.PRECISION_LADDER[-2]
    assert bounds.check_lemma_sa([10 * top]).max_precision_bits > bounds.PRECISION_LADDER[-2]
    assert run(capsys, "bounds", "--max-n", "4", "--grid", f"{top}:{top}:1")[0] == 0
    for grid in (f"{10 * top}:{10 * top}:1", f"1:{10 * top}:{top}", "1e300:1e300:1"):
        code, err = _exit_code_and_err(capsys, ["bounds", "--max-n", "4", "--grid", grid])
        assert code == 2 and "grid stop must be at most 1e+238" in err


def test_bounds_refuses_max_n_0(capsys):
    code, out, err = run(capsys, "bounds", "--max-n", "0")
    assert (code, out) == (2, "")
    assert err == "error: --max-n must be at least 1, got 0\n"


# Each refusal names the flag the user passed, not a library argument.
@pytest.mark.parametrize("argv, message", [
    (["len", "--max-n", "0"], "--max-n must be at least 1, got 0"),
    (["table", "--max-n", "0"], "--max-n must be at least 1, got 0"),
    (["lemmas", "--max-n", "0"], "--max-n must be at least 1, got 0"),
    (["bounds", "--max-n", "-3"], "--max-n must be at least 1, got -3"),
    (["estimate", "--max-m", "11"], "--max-m must be at most 10, got 11"),
    (["estimate", "--max-m", "-1"], "--max-m must be at least 0, got -1"),
], ids=["len", "table", "lemmas", "bounds", "estimate-high", "estimate-low"])
def test_range_refusals_name_the_flag(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, code", [
    (["len", "--max-n", "5"], 0),
    (["lemmas", "--max-n", "9"], 1),
])
def test_main_freezes_after_the_output_is_written(tmp_path, monkeypatch, argv, code):
    # `main` exits with run's code, and freezes the heap only once --output
    # holds the whole report.  A wrong f(8) makes `lemmas` exit 1.
    real_f = lengths.f
    monkeypatch.setattr(lengths, "f", lambda n: 6614 if n == 8 else real_f(n))
    target = tmp_path / "out.json"
    frozen = []

    def freeze():
        frozen.append(json.loads(target.read_text())["report"]["max_n"])

    monkeypatch.setattr(cli.gc, "freeze", freeze)
    monkeypatch.setattr(sys, "argv", ["permrex", *argv, "--output", str(target)])
    with pytest.raises(SystemExit) as info:
        cli.main()
    assert (info.value.code, frozen) == (code, [int(argv[-1])])


def _exit_code_and_err(capsys, argv):
    try:
        code = cli.run(argv)
    except SystemExit as exc:  # argparse refusals
        code = exc.code
    return code, capsys.readouterr().err


@pytest.mark.parametrize("argv, word", [
    # The start precision is no option: the flag is refused at any value.
    (["estimate", "--precision-bits", "200"], "precision"),
    (["bounds", "--precision-bits", "200"], "precision"),
    (["bounds", "--grid", "1:100:1e-7"], "grid"),
    (["len", "--max-n", "7500"], "digits"),
    (["table", "--max-n", "1750"], "digits"),
    (["lemmas", "--max-n", str(lengths.MAX_LEMMA_N + 1)], "at most"),
    (["bounds", "--max-n", str(bounds.MAX_SWEEP_N + 1)], "at most"),
    (["bounds", "--grid", "0:2:1"], "grid"),
    (["bounds", "--grid", "1/2:2:1"], "grid"),
    (["len", "--max-n", "1000000"], "digits"),
    (["len", "--max-n", "10000000"], "digits"),
    (["table", "--max-n", "1000000"], "digits"),
    (["oracle", "--n", "2000"], "capped"),
    (["oracle", "--n", "20000"], "capped"),
    (["gen", "dnc", "--n", "1000000"], "alphabet symbols"),
    (["gen", "tail", "--n", "200000"], "alphabet symbols"),
    (["verify", "--builder", "tail", "--n", "200000"], "alphabet symbols"),
    (["gen", "flat", "--n", "100000000"], f"exceeds cap {construct.MAX_SYMBOLS}"),
])
def test_out_of_range_inputs_refused_up_front(capsys, monkeypatch, argv, word):
    def forbidden(*args, **kwargs):
        raise AssertionError("refusal came after work started")

    # The oracle counts nothing past the first n over its cap, and the digit
    # probes stop below twice 7161, the first n whose f(n) has more than the
    # default 4300 digits.
    huge = oracle.ORACLE_CAP + 2 if argv[0] == "oracle" else 20_000

    def below_huge(function):
        def guarded(n, *args):
            if n >= huge:
                raise AssertionError(f"refusal evaluated {function.__name__}({n})")
            return function(n, *args)
        return guarded

    # No length, factorial, binomial or permutation count at a huge argument.
    for module, name in [(lengths, "f"), (lengths, "t"), (lengths, "flat_length"),
                         (math, "factorial"), (math, "comb"), (math, "perm")]:
        monkeypatch.setattr(module, name, below_huge(getattr(module, name)))

    # Building the grid, evaluating any point, tabulating f and the n-sweeps
    # go through these.
    for module, name in [(bounds, "default_grid"), (bounds, "precision"),
                         (bounds, "check_fn_bounds"), (bounds, "check_stirling_sandwich"),
                         (lengths, "f_table"), (lengths, "check_opt_choice"),
                         (lengths, "check_triple_growth")]:
        monkeypatch.setattr(module, name, forbidden)
    code, err = _exit_code_and_err(capsys, argv)
    assert code == 2
    assert word in err


@pytest.mark.parametrize("argv, what, cap", [
    (["gen", "dnc"], "alphabet symbols", 13),
    (["gen", "tail"], "alphabet symbols", 10),
    (["gen", "flat"], "alphabet symbols (flat union)", construct.FLAT_CAP),
    (["verify", "--builder", "dnc"], "alphabet symbols", 13),
])
def test_builder_refuses_before_the_alphabet_exists(capsys, monkeypatch, argv, what, cap):
    # n just under MAX_SYMBOLS passes the alphabet's own cap; the builder's
    # refusal on n comes before any node is made.
    def built(cls, *args):
        raise AssertionError("a Sym was built")

    monkeypatch.setattr(regex_ast.Sym, "__new__", built)
    n = construct.MAX_SYMBOLS - 1
    code, err = _exit_code_and_err(capsys, [*argv, "--n", str(n)])
    assert code == 2
    assert err == f"error: refusing to build: {n} {what} exceeds cap {cap}\n"


def _load_perfbench(monkeypatch, name):
    """Load perfbench/<name>.py from the checkout, as the benchmark runs it."""
    monkeypatch.syspath_prepend(str(PERFBENCH))  # its modules import each other
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_max_n_defaults_and_benchmark_values_are_within_the_limits(tmp_path, monkeypatch):
    limits = {"lemmas": lengths.MAX_LEMMA_N, "bounds": bounds.MAX_SWEEP_N}
    parser = cli.build_parser()
    workloads = _load_perfbench(monkeypatch, "workloads")
    argvs = [[command] for command in limits] + [
        list(c.argv) for c in workloads.WORKLOADS["proofs"](tmp_path, 1)
        if c.argv[0] in limits]
    assert len(argvs) > len(limits)
    for argv in argvs:
        assert parser.parse_args(argv).max_n <= limits[argv[0]], argv


def test_benchmark_trace_hooks_resolve():
    # perfbench/layers.py wraps these names through sys.modules right after
    # `import permrex.cli`; a rename would break its traced run.  `bounds`,
    # `oracle`, `regex_ast` and `verify` are there too, registered by
    # LazyLoader before any of their code has run: the getattr that layers.py makes loads the module in
    # place, in the same object the CLI reads, so the wrapped function is the
    # one every command calls.  A fresh interpreter, because this one has
    # imported every module.
    # Before that the probe checks what start-up costs: the CLI imports no
    # dataclasses, inspect or csv, and `bounds` and `oracle` stay unloaded
    # through a `verify` command, while `table` loads csv.  It also reports
    # whether `verify` and `table` pulled in numpy, which no module of the
    # package uses, or mpmath, which `bounds` imports when it loads.  The
    # probe asks for `mpmath.libmp`, a submodule that importing mpmath
    # imports.  An interval is then built and printed in the same process.
    probe = (
        "import contextlib, io, json, sys, types\n"
        "from fractions import Fraction\n"
        "import permrex.cli\n"
        "startup = [m for m in ('dataclasses', 'inspect', 'csv') if m in sys.modules]\n"
        "import layers\n"
        "def lazy():\n"
        "    return [type(sys.modules['permrex.' + m]) is not types.ModuleType\n"
        "            for m in ('bounds', 'oracle')]\n"
        "lazy_states = [lazy()]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    permrex.cli.run(['verify', '--builder', 'dnc', '--n', '4'])\n"
        "    lazy_states.append(lazy())\n"
        "    permrex.cli.run(['table', '--max-n', '5'])\n"
        "csv_loaded = 'csv' in sys.modules\n"
        "loaded = ['numpy' in sys.modules, 'mpmath.libmp' in sys.modules]\n"
        "missing = [f'{m}.{a}' for m, a, _ in layers.WRAPPED\n"
        "           if not callable(getattr(sys.modules.get('permrex.' + m), a, None))]\n"
        "lazy_states.append(lazy())\n"
        "bounds = permrex.cli.bounds\n"
        "third = bounds.format_interval(bounds.rational(Fraction(1, 3)))\n"
        "print(json.dumps([missing, sorted(permrex.cli._BUILDERS), loaded, third,\n"
        "                  startup, lazy_states, csv_loaded]))\n"
    )
    src = Path(cli.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(PERFBENCH)]))
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    missing, builders, loaded, third, startup, lazy_states, csv_loaded = json.loads(
        done.stdout)
    assert [missing, builders, loaded, third] == [
        [], ["dnc", "flat", "tail"], [False, False], "[0.333333333333, 0.333333333333]"]
    assert startup == []
    # Unloaded after the import and after `verify`; loaded once read.
    assert lazy_states == [[True, True], [True, True], [False, False]]
    assert csv_loaded


def test_proofs_commands_leave_the_regex_layer_unloaded():
    # A fresh interpreter: `import permrex` runs no submodule, and the
    # commands that need no regex leave `construct`, `regex_ast` and `verify`
    # registered but unloaded until `verify` reads them.
    probe = (
        "import contextlib, io, json, sys, types\n"
        "import permrex\n"
        "bare = sorted(m for m in sys.modules if m.startswith('permrex.'))\n"
        "import permrex.cli\n"
        "def loaded():\n"
        "    return [type(sys.modules['permrex.' + m]) is types.ModuleType\n"
        "            for m in ('construct', 'regex_ast', 'verify')]\n"
        "states = []\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    for argv in (['lemmas', '--max-n', '64'], ['len', '--max-n', '50'],\n"
        "                 ['bounds', '--max-n', '16', '--grid', '2:30:4'],\n"
        "                 ['verify', '--builder', 'dnc', '--n', '4']):\n"
        "        assert permrex.cli.run(argv) == 0, argv\n"
        "        states.append(loaded())\n"
        "print(json.dumps([bare, states]))\n"
    )
    src = Path(cli.__file__).resolve().parent.parent
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=120)
    assert done.returncode == 0, done.stderr
    bare, states = json.loads(done.stdout)
    assert bare == []
    assert states == [[False] * 3] * 3 + [[True] * 3]


def test_every_public_name_resolves_in_a_fresh_interpreter():
    probe = (
        "import importlib, json, permrex\n"
        "homes = {name: getattr(permrex, name).__module__\n"
        "         for name in permrex.__all__ if name != '__version__'}\n"
        "same = all(getattr(permrex, name) is getattr(importlib.import_module(home), name)\n"
        "           for name, home in homes.items())\n"
        "print(json.dumps([sorted(set(permrex.__all__) - set(dir(permrex))), same,\n"
        "                  permrex.__version__]))\n"
    )
    src = Path(cli.__file__).resolve().parent.parent
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [[], True, permrex.__version__]
    assert len(permrex.__all__) == 40


@pytest.mark.parametrize("name, attr", [("bounds", "MAX_SWEEP_N"), ("oracle", "ORACLE_CAP")])
@pytest.mark.parametrize("form", ["import permrex.{name} as mod",
                                  "from permrex import {name} as mod"])
def test_lazy_submodules_import_after_the_cli(name, attr, form):
    # Registering a module in sys.modules does not set it on its package; a
    # fresh interpreter, so the CLI is what registered it.
    probe = (
        "import permrex, permrex.cli\n"
        f"{form.format(name=name)}\n"
        f"print(mod is permrex.{name} is permrex.cli.{name}, mod.{attr})\n"
    )
    src = Path(cli.__file__).resolve().parent.parent
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == f"True {getattr(getattr(permrex, name), attr)}\n"


def _records():
    """One instance of each record type the package returns."""
    expr = construct.build_divide_and_conquer(3)
    universe = oracle.build_universe(2)
    return [
        bounds.check_lemma_gaS(Fraction(2)),
        bounds.estimate_power_of_two(1)[0],
        lengths.SplitViolation(3, 1, -1, "negative slack"),
        lengths.check_opt_choice(4),
        lengths.check_triple_growth(5),
        universe,
        oracle.minimal_cost_table(universe),
        oracle.check_main_opt(2),
        regex_ast.metrics(expr),
        verify.glushkov(expr),
        verify.language_equals_permutations(expr, 3),
    ]


def test_records_are_immutable():
    records = _records()
    assert len({type(r) for r in records}) == 11
    for record in records:
        for field in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, None)


def test_record_fields_are_the_json_keys(capsys, monkeypatch):
    code, out, _ = run(capsys, "verify", "--builder", "dnc", "--n", "3")
    assert code == 0
    certificate = json.loads(out)["report"]["certificate"]
    assert list(verify.Certificate._fields) == list(certificate) == [
        "n", "positions", "words_tested", "accepted", "expected_accepted",
        "permutations_accepted", "short_words_accepted", "accepts_empty_word",
        "uniform_length", "star_free", "passed", "violations", "method"]

    code, out, _ = run(capsys, "bounds", "--max-n", "4", "--grid", "2:4:1")
    assert code == 0
    for entry in json.loads(out)["report"]["reports"]:
        assert list(entry) == [
            "inequality", "domain", "status", "points_checked", "worst_margin",
            "worst_point", "max_precision_bits", "failures", "seconds", "premises"]
        assert list(bounds.BoundReport._fields) == list(entry)

    violation = lengths.SplitViolation(3, 1, -1, "negative slack")
    monkeypatch.setattr(lengths, "check_opt_choice", lambda n: lengths.OptChoiceReport(
        n=n, passed=False, equality_ks=(), violations=(violation,)))
    code, out, _ = run(capsys, "lemmas", "--max-n", "2")
    assert code == 1
    failure = json.loads(out)["report"]["split_choice"]["failures"][0]
    assert failure["violations"] == [
        {"n": 3, "k": 1, "delta": -1, "reason": "negative slack"}]
    assert list(failure["violations"][0]) == list(violation._asdict())

    real_f = lengths.f
    monkeypatch.setattr(lengths, "f", lambda n: 6614 if n == 8 else real_f(n))
    code, out, _ = run(capsys, "lemmas", "--max-n", "9")
    assert code == 1
    growth = json.loads(out)["report"]["triple_growth"]
    assert list(lengths.TripleGrowthReport._fields) == list(growth) == [
        "passed", "min_ratio", "min_ratio_at", "violations"]
    assert list(lengths.GrowthViolation._fields) == list(growth["violations"][0]) == [
        "n", "ratio"]
    monkeypatch.undo()

    fields = ["m", "n", "f", "estimate", "ratio", "ln_ratio", "anomalous"]
    assert list(bounds.EstimateRow._fields) == fields
    code, out, _ = run(capsys, "estimate", "--max-m", "2")
    assert code == 0
    assert [list(row) for row in json.loads(out)["report"]["rows"]] == [fields] * 2
    code, out, _ = run(capsys, "estimate", "--max-m", "2", "--format", "csv")
    assert code == 0 and out.splitlines()[0].split(",") == fields

    code, out, _ = run(capsys, "oracle", "--n", "2")
    assert code == 0
    report = json.loads(out)["report"]
    assert list(oracle.CostRow._fields) == list(
        report["per_permutation_cost"]["rows"][0]) == ["k", "ell", "ratio"]
    assert list(oracle.LanguageCount._fields) == list(
        report["languages_by_cost"][0]) == ["cost", "languages"]


def test_readme_library_example_runs():
    # The README's `## Library` block, run as written, so a doc example that
    # uses a removed or renamed name fails here.
    text = (PERFBENCH.parent / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Library\n+```python\n(.*?)^```$", text, re.M | re.S)
    assert block is not None
    exec(compile(block.group(1), "README.md", "exec"), {})


def test_package_exports_resolve():
    assert [name for name in permrex.__all__ if not hasattr(permrex, name)] == []


@pytest.mark.parametrize("content, n, message", [
    (b"1\xff2", 2, "not UTF-8 text: invalid start byte (at offset 1)"),
    # The offset counts bytes of the file, before newline translation.
    (b"12+21\r\n" * 1000 + b"\xe2\x82", 2,
     "not UTF-8 text: unexpected end of data (at offset 7000)"),
    ("\uff11\uff12+\uff12\uff11".encode(), 2, "unexpected character '\uff11' (at offset 0)"),
    ("10 \uff11\uff11".encode(), 12, "unexpected character '\uff11' (at offset 3)"),
    (b"12+\r\n2x", 2, "unexpected character 'x' (at offset 6)"),
], ids=["bad-byte", "truncated-at-end", "fullwidth-n2", "fullwidth-n12", "after-crlf"])
def test_verify_refuses_files_that_are_not_regex_text(tmp_path, capsys, content, n, message):
    path = tmp_path / "bad.rx"
    path.write_bytes(content)
    code, out, err = run(capsys, "verify", "--regex-file", str(path), "--n", str(n))
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


def test_verify_refuses_oversized_automaton(capsys, monkeypatch):
    # flat is never a split proof from n = 3 on, so both of the walk's
    # refusals come from n * n! before the flat union is built.
    def forbidden(*args):
        raise AssertionError("the flat union was built")

    monkeypatch.setattr(construct, "build_flat_union", forbidden)
    code, out, err = run(capsys, "verify", "--builder", "flat", "--n", "8")
    assert (code, out) == (2, "")
    assert err == "error: exhaustive verification capped at n = 7 (8^8 words is too many)\n"
    code, out, err = run(capsys, "verify", "--builder", "flat", "--n", "8",
                         "--verify-cap", "8")
    assert (code, out) == (2, "")
    assert err == "error: refusing to build: 322560 automaton positions exceeds cap 131072\n"


def test_verify_refuses_a_file_past_the_parse_cap(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(regex_ast, "MAX_PARSE_NODES", 100)
    path = tmp_path / "run.rx"
    path.write_text("1 2 " * 51)
    code, out, err = run(capsys, "verify", "--regex-file", str(path), "--n", "2")
    assert (code, out) == (2, "")
    assert err == "error: refusing to build: 101 parsed nodes exceeds cap 100\n"



def test_verify_refuses_a_file_above_the_split_proof_before_reading_it(
        tmp_path, capsys, monkeypatch):
    # Above MAX_SPLIT_N only the walk could certify, and it refuses every
    # such n, so the file is neither opened nor parsed.
    def parsed(*args):
        raise AssertionError("the file was parsed")

    monkeypatch.setattr(regex_ast, "parse", parsed)
    absent = tmp_path / "absent.rx"
    code, out, err = run(capsys, "verify", "--regex-file", str(absent), "--n", "17")
    assert (code, out) == (2, "")
    assert err == "error: exhaustive verification capped at n = 7 (17^17 words is too many)\n"
    absent.write_text("1")
    with pytest.raises(AssertionError, match="parsed"):
        cli.run(["verify", "--regex-file", str(absent), "--n", str(verify.MAX_SPLIT_N)])

def test_estimate_json(capsys):
    code, out, _ = run(capsys, "estimate", "--max-m", "4")
    assert code == 0
    rows = json.loads(out)["report"]["rows"]
    assert [r["m"] for r in rows] == [1, 2, 3, 4]
    assert rows[0]["f"] == 4
    assert rows[0]["ratio"].startswith("[0.961")
    assert all(r["anomalous"] is False for r in rows)


def test_estimate_csv(capsys):
    code, out, _ = run(capsys, "estimate", "--max-m", "3", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [int(r["n"]) for r in rows] == [2, 4, 8]
    assert rows[2]["f"] == "6720"


# Every byte of `estimate --format csv`, at the first rung of the ladder and
# of LADDER_16; the f column is pinned by the length tests.
GOLDEN_ESTIMATE_200 = (
    "m,n,f,estimate,ratio,ln_ratio,anomalous\n"
    f'1,2,{lengths.f(2)},"[4.16208076018, 4.16208076018]",'
    '"[0.96105775704, 0.96105775704]","[-0.0397207708399, -0.0397207708399]",False\n'
    f'2,4,{lengths.f(4)},"[53.1337596698, 53.1337596698]",'
    '"[0.903380455256, 0.903380455256]","[-0.101611490647, -0.101611490647]",False\n'
    f'3,8,{lengths.f(8)},"[7674.24351756, 7674.24351756]",'
    '"[0.875656341192, 0.875656341192]","[-0.132781569593, -0.132781569593]",False\n'
    f'4,16,{lengths.f(16)},"[200643720.593, 200643720.593]",'
    '"[0.862089276896, 0.862089276896]","[-0.148396444197, -0.148396444197]",False\n'
    f'5,32,{lengths.f(32)},"[2.43097505093e+17, 2.43097505093e+17]",'
    '"[0.85538153132, 0.85538153132]","[-0.156207674117, -0.156207674117]",False\n'
    f'6,64,{lengths.f(64)},"[8.94499895896e+35, 8.94499895896e+35]",'
    '"[0.852046850157, 0.852046850157]","[-0.160113765218, -0.160113765218]",False\n'
    f'7,128,{lengths.f(128)},"[4.29323648724e+73, 4.29323648724e+73]",'
    '"[0.85038433714, 0.85038433714]","[-0.162066870351, -0.162066870351]",False\n'
    f'8,256,{lengths.f(256)},"[4.95808281066e+149, 4.95808281066e+149]",'
    '"[0.849554291158, 0.849554291158]","[-0.163043430367, -0.163043430367]",False\n'
)
GOLDEN_ESTIMATE_16 = (
    "m,n,f,estimate,ratio,ln_ratio,anomalous\n"
    f'1,2,{lengths.f(2)},"[4.16186523438, 4.16223144531]",'
    '"[0.961013793945, 0.961120605469]","[-0.0397672653198, -0.0396547317505]",False\n'
    f'2,4,{lengths.f(4)},"[53.1318359375, 53.13671875]",'
    '"[0.9033203125, 0.903427124023]","[-0.101678848267, -0.101558685303]",False\n'
    f'3,8,{lengths.f(8)},"[7674.0, 7674.625]",'
    '"[0.875610351563, 0.875686645508]","[-0.132835388184, -0.132743835449]",False\n'
    f'4,16,{lengths.f(16)},"[200622080.0, 200671232.0]",'
    '"[0.861953735352, 0.862197875977]","[-0.148555755615, -0.14826965332]",False\n'
    f'5,32,{lengths.f(32)},"[2.43071234576e+17, 2.43119613087e+17]",'
    '"[0.855285644531, 0.855499267578]","[-0.156322479248, -0.156066894531]",False\n'
    f'6,64,{lengths.f(64)},"[8.94433981111e+35, 8.94636805207e+35]",'
    '"[0.851898193359, 0.852142333984]","[-0.160289764404, -0.159999847412]",False\n'
    f'7,128,{lengths.f(128)},"[4.29297249953e+73, 4.29357640234e+73]",'
    '"[0.850296020508, 0.850448608398]","[-0.162174224854, -0.161991119385]",False\n'
    f'8,256,{lengths.f(256)},"[4.95646260831e+149, 4.95995896668e+149]",'
    '"[0.849212646484, 0.849853515625]","[-0.16344833374, -0.162689208984]",False\n'
)


@pytest.mark.parametrize("fmt", ["json", "csv"])
# `extra` is the ladder whose first rung `estimate` works at.
@pytest.mark.parametrize("extra, golden", [
    (bounds.PRECISION_LADDER, GOLDEN_ESTIMATE_200),
    (LADDER_16, GOLDEN_ESTIMATE_16),
])
def test_estimate_golden_reports(capsys, monkeypatch, extra, golden, fmt):
    monkeypatch.setattr(bounds, "PRECISION_LADDER", extra)
    code, out, _ = run(capsys, "estimate", "--format", fmt)
    assert code == 0
    if fmt == "csv":
        assert out == golden
    else:
        rows = json.loads(out)["report"]["rows"]
        assert [{k: str(v) for k, v in r.items()} for r in rows] == list(
            csv.DictReader(io.StringIO(golden)))


def test_oracle_full(capsys):
    code, out, _ = run(capsys, "oracle", "--n", "3")
    assert code == 0
    report = json.loads(out)["report"]
    assert report["cost_of_permutations"] == 15
    assert report["matches_f"] is True
    assert report["per_permutation_cost"]["tightest_k"] == 2
    assert report["per_permutation_cost"]["rows"][1] == {
        "k": 2, "ell": 5, "ratio": "5/2"}
    by_cost = {row["cost"]: row["languages"] for row in report["languages_by_cost"]}
    assert sum(by_cost.values()) == 2**15 - 1
    assert by_cost[24] == 1


def test_oracle_exits_1_when_a_k_beats_the_full_language(capsys, monkeypatch):
    real = oracle.ell
    monkeypatch.setattr(oracle, "ell", lambda n, k: 7 if k == 3 else real(n, k))
    code, out, _ = run(capsys, "oracle", "--n", "3")
    assert code == 1
    assert json.loads(out)["report"]["per_permutation_cost"]["passed"] is False


def test_oracle_exits_1_when_the_full_cost_misses_f(capsys, monkeypatch):
    real = lengths.f
    monkeypatch.setattr(lengths, "f", lambda n: 16 if n == 3 else real(n))
    code, out, _ = run(capsys, "oracle", "--n", "3")
    assert code == 1
    report = json.loads(out)["report"]
    assert (report["f"], report["matches_f"]) == (16, False)
    assert report["per_permutation_cost"]["passed"] is False


@pytest.mark.parametrize("status", [bounds.UNDECIDED, bounds.VIOLATED])
def test_bounds_exits_1_when_one_report_is_not_certified(capsys, monkeypatch, status):
    real = bounds.check_stirling_sandwich
    monkeypatch.setattr(bounds, "check_stirling_sandwich",
                        lambda max_n: real(max_n)._replace(status=status))
    code, out, _ = run(capsys, "bounds", "--max-n", "8", "--grid", "2:4:1")
    assert code == 1
    statuses = [r["status"] for r in json.loads(out)["report"]["reports"]]
    assert statuses.count(status) == 1 and statuses.count(bounds.CERTIFIED) == 6


# Reports that carry no `passed` and no `status` decide nothing.
@pytest.mark.parametrize("argv", [
    ["estimate"], ["oracle", "--n", "3", "--k", "3"], ["len", "--max-n", "3"],
    ["table", "--max-n", "3", "--format", "json"]])
def test_reports_without_a_verdict_exit_0(capsys, argv):
    assert run(capsys, *argv)[0] == 0


def test_oracle_single_k(capsys):
    code, out, _ = run(capsys, "oracle", "--n", "3", "--k", "4")
    assert code == 0
    assert json.loads(out)["report"]["ell"] == 10


def test_oracle_cap(capsys):
    code, _, err = run(capsys, "oracle", "--n", "4")
    assert code == 2
    assert "capped" in err
    assert "n = 4 would need 2^64 language masks" in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as info:
        cli.run(["nope"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        cli.run(["verify", "--n", "3"])
    assert info.value.code == 2
