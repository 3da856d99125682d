import csv
import io
import json

import pytest

from permrex import cli


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


def test_gen_refusal_leaves_existing_output_unchanged(tmp_path, capsys):
    target = tmp_path / "r10.txt"
    target.write_text("previous contents\n")
    code, _, err = run(capsys, "gen", "dnc", "--n", "10", "--format", "compact",
                       "--output", str(target))
    assert code == 2
    assert "spaced" in err
    assert target.read_text() == "previous contents\n"


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


def test_verify_cap(capsys):
    code, _, err = run(capsys, "verify", "--builder", "dnc", "--n", "8")
    assert code == 2
    assert "capped" in err


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


def test_bounds_bad_grid(capsys):
    with pytest.raises(SystemExit) as info:
        cli.run(["bounds", "--grid", "5:1:1"])
    assert info.value.code == 2
    assert "grid" in capsys.readouterr().err


def test_bounds_env_precision(capsys, monkeypatch):
    monkeypatch.setenv("PERMREX_PRECISION_BITS", "240")
    code, out, _ = run(capsys, "bounds", "--max-n", "4", "--grid", "4:5:1")
    assert code == 0
    assert json.loads(out)["report"]["precision_bits"] == 240


def test_bounds_env_precision_invalid(capsys, monkeypatch):
    monkeypatch.setenv("PERMREX_PRECISION_BITS", "many")
    with pytest.raises(SystemExit) as info:
        cli.run(["bounds", "--max-n", "4", "--grid", "4:5:1"])
    assert info.value.code == 2


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


def test_oracle_full(capsys):
    code, out, _ = run(capsys, "oracle", "--n", "3")
    assert code == 0
    report = json.loads(out)["report"]
    assert report["cost_of_permutations"] == 15
    assert report["matches_f"] is True
    assert report["per_permutation_cost"]["tightest_k"] == 2
    assert report["per_permutation_cost"]["rows"][1] == {
        "k": 2, "ell": 5, "ratio": "5/2"}


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
