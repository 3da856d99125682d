import csv
import functools
import importlib.util
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from permrex import bounds, cli, construct, lengths, regex_ast

from conftest import union_terms

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


def test_gen_cap_exit_code(capsys):
    code, _, err = run(capsys, "gen", "flat", "--n", "9")
    assert code == 2
    assert "cap" in err


def test_gen_compact_wide_alphabet_is_input_error(capsys):
    code, _, err = run(capsys, "gen", "dnc", "--n", "10", "--format", "compact")
    assert code == 2
    assert "spaced" in err


# One refusal per command kind; each comes after argument parsing.
@pytest.mark.parametrize("argv, word", [
    pytest.param(["gen", "dnc", "--n", "10", "--format", "compact"], "spaced", id="gen"),
    pytest.param(["table", "--max-n", "1750"], "digits", id="table"),
    pytest.param(["verify", "--regex-file", "{tmp}/huge-id.rx", "--n", "10"], "5000 digits",
                 id="verify"),
    pytest.param(["bounds", "--precision-bits", "4001"], "precision", id="bounds"),
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


_TIMES = re.compile(r'"(elapsed_seconds|seconds)": [0-9.e-]+')


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
    assert _TIMES.sub("", target.read_bytes().decode()) == _TIMES.sub("", out)


def test_len_json(capsys):
    code, out, _ = run(capsys, "len", "--max-n", "10")
    assert code == 0
    payload = json.loads(out)
    values = [row["value"] for row in payload["report"]["f"]]
    assert values == [1, 4, 15, 48, 190, 600, 2205, 6720, 29988, 95760]
    assert "elapsed_seconds" in payload["meta"]


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
    terms = union_terms(construct.build_divide_and_conquer(construct.AlphabetSet.first_n(8)))
    dropped = tmp_path / "dnc8-drop.rx"
    dropped.write_text(regex_ast.render(functools.reduce(regex_ast.Union, terms[1:])))
    code, _, err = run(capsys, "verify", "--regex-file", str(dropped), "--n", "8")
    assert code == 2
    assert "capped" in err


@pytest.mark.parametrize("n", [10, 13])
def test_verify_structural_past_the_cap(capsys, n):
    code, out, _ = run(capsys, "verify", "--builder", "dnc", "--n", str(n))
    assert code == 0
    cert = json.loads(out)["report"]["certificate"]
    assert cert["method"] == "structural" and cert["passed"] is True
    assert cert["words_tested"] == n**n
    assert cert["accepted"] == cert["permutations_accepted"] == math.factorial(n)
    assert cert["positions"] == lengths.f(n)


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


def test_bounds_builds_domains_and_constants_once(capsys):
    bounds._in_ga_domain.cache_clear()
    bounds._constant_at.cache_clear()
    code, out, _ = run(capsys, "bounds", "--max-n", "16", "--grid", "2:30:4")
    assert code == 0
    report = json.loads(out)["report"]
    kept = sum(r["points_checked"] for r in report["reports"]
               if r["inequality"].startswith("growth_template_bracket"))
    domain = bounds._in_ga_domain.cache_info()
    # Each grid point is decided once per alpha; the bracket only looks them up.
    assert domain.misses == 2 * report["grid_points"]
    assert domain.hits == kept
    # Five distinct constants (1/4, 195/1000, 5/2, 1/2, 2), one per rung used.
    constants = bounds._constant_at.cache_info()
    assert constants.misses <= 5 * len(bounds.precision_ladder())


# Every field but `seconds` of each `bounds --max-n 16 --grid 2:30:4` report:
# (inequality, domain, status, points_checked, worst_margin, worst_point,
#  max_precision_bits, failures).  Both doubling-identity sweeps escalate.
GOLDEN_BOUNDS_200 = [
    ("fn_growth_bounds", "n in [1, 16]", "certified", 16, "[0.0, 0.0]", "n=1", 200, []),
    ("factorial_sandwich", "n in [1, 16]", "certified", 16,
     "[0.000599142468994, 0.000599142468994]", "n=3", 200, []),
    ("stirling_midpoint_bracket", "x in [2, 30], 8 points", "certified", 8,
     "[0.863830355606, 0.863830355606]", "x=2", 200, []),
    ("growth_template_bracket[alpha_low]", "x in [2, 30], 8 points", "certified", 8,
     "[22.8391017342, 22.8391017342]", "x=2", 200, []),
    ("growth_template_bracket[alpha_high]", "x in [6, 30], 7 points", "certified", 7,
     "[3685.16504176, 3685.16504176]", "x=6", 200, []),
    ("doubling_identity_beta_2", "x in [2, 30], 8 points", "certified", 8,
     "[-2.88889491658e-33, 1.36018802322e-33]", "x=22", 400, []),
    ("doubling_identity_beta_5/2", "x in [2, 30], 8 points", "certified", 8,
     "[-9.87039096498e-33, 4.71852836375e-33]", "x=22", 400, []),
]
# The same at --precision-bits 16, where the printed margins are as wide as
# the 16-bit enclosures (of alpha_for_beta(2) and (5/2) too) make them.
GOLDEN_BOUNDS_16 = [
    ("fn_growth_bounds", "n in [1, 16]", "certified", 16, "[0.0, 0.0]", "n=1", 16, []),
    ("factorial_sandwich", "n in [1, 16]", "certified", 16,
     "[0.0001220703125, 0.001220703125]", "n=3", 32, []),
    ("stirling_midpoint_bracket", "x in [2, 30], 8 points", "certified", 8,
     "[0.861083984375, 0.866455078125]", "x=2", 32, []),
    ("growth_template_bracket[alpha_low]", "x in [2, 30], 8 points", "certified", 8,
     "[22.8173828125, 22.8623046875]", "x=2", 16, []),
    ("growth_template_bracket[alpha_high]", "x in [6, 30], 7 points", "certified", 7,
     "[3669.0, 3698.0]", "x=6", 16, []),
    ("doubling_identity_beta_2", "x in [2, 30], 8 points", "certified", 8,
     "[-1.88079096132e-35, 1.73032768441e-35]", "x=2", 256, []),
    ("doubling_identity_beta_5/2", "x in [2, 30], 8 points", "certified", 8,
     "[-3.31019209192e-35, 3.00926553811e-35]", "x=2", 256, []),
]
GOLDEN_FIELDS = ("inequality", "domain", "status", "points_checked", "worst_margin",
                 "worst_point", "max_precision_bits", "failures")


@pytest.mark.parametrize("extra, golden", [
    ((), GOLDEN_BOUNDS_200),
    (("--precision-bits", "16"), GOLDEN_BOUNDS_16),
])
def test_bounds_golden_reports(capsys, extra, golden):
    code, out, _ = run(capsys, "bounds", "--max-n", "16", "--grid", "2:30:4", *extra)
    assert code == 0
    reports = json.loads(out)["report"]["reports"]
    assert [tuple(r[f] for f in GOLDEN_FIELDS) for r in reports] == golden


def test_bounds_bad_grid(capsys):
    with pytest.raises(SystemExit) as info:
        cli.run(["bounds", "--grid", "5:1:1"])
    assert info.value.code == 2
    assert "grid" in capsys.readouterr().err


def _exit_code_and_err(capsys, argv):
    try:
        code = cli.run(argv)
    except SystemExit as exc:  # argparse refusals
        code = exc.code
    return code, capsys.readouterr().err


@pytest.mark.parametrize("argv, word", [
    (["estimate", "--precision-bits", "4001"], "precision"),
    (["bounds", "--precision-bits", "4001"], "precision"),
    (["bounds", "--grid", "1:100:1e-7"], "grid"),
    (["len", "--max-n", "7500"], "digits"),
    (["table", "--max-n", "1750"], "digits"),
    (["lemmas", "--max-n", str(lengths.MAX_LEMMA_N + 1)], "at most"),
    (["bounds", "--max-n", str(bounds.MAX_SWEEP_N + 1)], "at most"),
    (["bounds", "--grid", "0:2:1"], "grid"),
    (["bounds", "--grid", "1/2:2:1"], "grid"),
])
def test_out_of_range_inputs_refused_up_front(capsys, monkeypatch, argv, word):
    def forbidden(*args, **kwargs):
        raise AssertionError("refusal came after work started")

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
    # `import permrex.cli`; a rename or a lazy import would break its traced
    # run.  A fresh interpreter, because this one has imported every module.
    # The probe also reports whether the CLI pulled numpy in, which no
    # module of the package uses, and whether it loaded mpmath, which `bounds`
    # loads at its first interval operation.  `mpmath` itself is in
    # sys.modules as a module not yet loaded, so the probe asks for a
    # submodule that loading it imports.  An interval is then built and
    # printed in the same process.
    probe = (
        "import json, sys\n"
        "from fractions import Fraction\n"
        "import layers\n"
        "import permrex.cli\n"
        "missing = [f'{m}.{a}' for m, a, _ in layers.WRAPPED\n"
        "           if not callable(getattr(sys.modules.get('permrex.' + m), a, None))]\n"
        "loaded = ['numpy' in sys.modules, 'mpmath.libmp' in sys.modules]\n"
        "bounds = permrex.cli.bounds\n"
        "third = bounds.format_interval(bounds.rational(Fraction(1, 3)))\n"
        "print(json.dumps([missing, sorted(permrex.cli._BUILDERS), loaded, third]))\n"
    )
    src = Path(cli.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(PERFBENCH)]))
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [
        [], ["dnc", "flat", "tail"], [False, False], "[0.333333333333, 0.333333333333]"]


@pytest.mark.parametrize("content, n, message", [
    (b"1\xff2", 2, "not UTF-8 text: invalid start byte (at offset 1)"),
    # The offset counts bytes of the file, before newline translation.
    (b"12+21\r\n" * 1000 + b"\xe2\x82", 2,
     "not UTF-8 text: unexpected end of data (at offset 7000)"),
    ("\uff11\uff12+\uff12\uff11".encode(), 2, "unexpected character '\uff11' (at offset 0)"),
    ("10 \uff11\uff11".encode(), 12, "unexpected character '\uff11' (at offset 3)"),
], ids=["bad-byte", "truncated-at-end", "fullwidth-n2", "fullwidth-n12"])
def test_verify_refuses_files_that_are_not_regex_text(tmp_path, capsys, content, n, message):
    path = tmp_path / "bad.rx"
    path.write_bytes(content)
    code, out, err = run(capsys, "verify", "--regex-file", str(path), "--n", str(n))
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


def test_verify_refuses_oversized_automaton(capsys):
    code, _, err = run(capsys, "verify", "--builder", "flat", "--n", "8",
                       "--verify-cap", "8")
    assert code == 2
    assert "positions" in err


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


# Every byte of `estimate --format csv`, at the default precision and at
# --precision-bits 16; the f column is pinned by the length tests.
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
@pytest.mark.parametrize("extra, golden", [
    ((), GOLDEN_ESTIMATE_200),
    (("--precision-bits", "16"), GOLDEN_ESTIMATE_16),
])
def test_estimate_golden_reports(capsys, extra, golden, fmt):
    code, out, _ = run(capsys, "estimate", "--format", fmt, *extra)
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


def test_oracle_single_k(capsys):
    code, out, _ = run(capsys, "oracle", "--n", "3", "--k", "4")
    assert code == 0
    assert json.loads(out)["report"]["ell"] == 10


def test_oracle_cap(capsys):
    code, _, err = run(capsys, "oracle", "--n", "4")
    assert code == 2
    assert "capped" in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as info:
        cli.run(["nope"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        cli.run(["verify", "--n", "3"])
    assert info.value.code == 2
