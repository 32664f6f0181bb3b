import json

from ortho7.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cmd_test_fixtures(capsys):
    code, out, _ = run(capsys, "test", "--q", "13", "x^7+2x", "--property", "op")
    assert code == 0 and "op = False" in out
    code, out, _ = run(capsys, "test", "--q", "13", "3x^7+7x", "--property", "op")
    assert code == 0 and "op = True" in out
    code, out, _ = run(capsys, "test", "--q", "13", "x", "--property", "pp")
    assert code == 0 and "pp = True" in out


def test_cmd_test_reports_family(capsys):
    code, out, _ = run(capsys, "test", "--q", "13", "x^7+6x", "--property", "pp")
    assert "family 2" in out
    code, out, _ = run(capsys, "test", "--q", "43", "x^7+6x", "--property", "pp")
    assert code == 0 and "direct verdict only" in out


def test_cmd_classify(capsys):
    code, out, _ = run(capsys, "classify", "--q", "13", "x^7+6x")
    assert code == 0 and "family 2" in out
    code, out, _ = run(capsys, "classify", "--q", "13", "x^7+5x")
    assert code == 0 and "not a permutation polynomial" in out
    code, out, _ = run(capsys, "classify", "--q", "49", "x^7+tx")
    assert code == 0 and "family 3" in out


def test_cmd_pairs_both_methods(capsys):
    code, out, _ = run(capsys, "pairs", "--q", "13", "--family", "1",
                       "--method", "both")
    assert code == 0
    assert "8 pairs" in out and "methods agree: True" in out


def test_cmd_enumerate_count_only(capsys):
    code, out, _ = run(capsys, "enumerate", "--q", "13", "--count-only")
    assert code == 0 and "op_total=6422" in out
    code, out, _ = run(capsys, "enumerate", "--q", "25", "--count-only")
    assert code == 0 and "op_total=60000" in out
    code, out, _ = run(capsys, "enumerate", "--q", "23", "--count-only")
    assert code == 0 and "op_total=0" in out


def test_cmd_enumerate_emit(capsys, tmp_path):
    path = tmp_path / "ops.csv"
    code, out, _ = run(capsys, "enumerate", "--q", "19", "--emit", str(path))
    assert code == 0
    lines = path.read_text().splitlines()
    assert len(lines) == 4332
    assert len(set(lines)) == 4332
    assert all(len(line.split(",")) == 8 for line in lines[:50])


def test_cmd_census(capsys):
    code, out, _ = run(capsys, "census", "--q", "8", "--degree", "7",
                       "--canonical", "--property", "op")
    assert code == 0 and "census: 0" in out


def test_census_budget_message(capsys):
    code, _, err = run(capsys, "census", "--q", "13", "--degree", "7",
                       "--budget", "1000")
    assert code == 2 and "exceeds budget" in err


def test_json_and_text_numeric_agreement(capsys):
    code, text_out, _ = run(capsys, "enumerate", "--q", "13", "--count-only")
    code2, json_out, _ = run(capsys, "enumerate", "--q", "13", "--count-only",
                             "--format", "json")
    assert code == code2 == 0
    payload = json.loads(json_out)
    assert payload["totals"]["op_total"] == 6422
    assert payload["totals"]["pair_total"] == 38
    assert "op_total=6422" in text_out and "pair_total=38" in text_out
    assert payload["q"] == 13 and payload["command"] == "enumerate"
    assert set(payload) >= {"q", "command", "results", "totals", "timings"}


def test_csv_output(capsys):
    code, out, _ = run(capsys, "pairs", "--q", "17", "--family", "4",
                       "--format", "csv")
    assert code == 0
    rows = [r.split(",") for r in out.strip().splitlines()]
    assert rows[0] == ["q", "family", "method", "alpha", "beta"]
    assert len(rows) == 1 + 8


def test_field_selection_forms(capsys):
    code, out, _ = run(capsys, "test", "--p", "5", "--r", "2",
                       "--modulus", "2,4,1", "x", "--property", "pp")
    assert code == 0 and "pp = True" in out
    # exactly one selector form
    code, _, err = run(capsys, "test", "x", "--property", "pp")
    assert code == 2
    code, _, err = run(capsys, "test", "--q", "13", "--p", "13", "x")
    assert code == 2


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "test", "--q", "13", "x^^oops")
    assert code == 2 and "error" in err


def test_usage_error_exit_code(capsys):
    assert main(["bogus-subcommand"]) == 2


def test_verify_single_field(capsys):
    code, out, _ = run(capsys, "verify", "--field", "23")
    assert code == 0 and "PASS" in out
    code, out, _ = run(capsys, "verify", "--field", "13")
    assert code == 0 and "6422" in out


def test_out_file(capsys, tmp_path):
    path = tmp_path / "r.json"
    code, out, _ = run(capsys, "test", "--q", "13", "x", "--property", "pp",
                       "--format", "json", "--out", str(path))
    assert code == 0 and out == ""
    payload = json.loads(path.read_text())
    assert payload["results"]["verdict"] is True


def _usage_error(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 2, (argv, code)
    assert err.startswith("error:") and "Traceback" not in err
    return err


def test_pairs_family_out_of_range(capsys):
    assert "1..15" in _usage_error(capsys, "pairs", "--q", "13", "--family", "0")
    assert "1..15" in _usage_error(capsys, "pairs", "--q", "13", "--family", "99")


def test_unknown_order_is_unsupported(capsys):
    assert "order 9" in _usage_error(capsys, "pairs", "--q", "9")


def test_census_order_above_hit_mask(capsys, monkeypatch):
    from ortho7 import kernels

    monkeypatch.setattr(kernels, "BACKEND", "numpy")
    assert "q <= 63" in _usage_error(capsys, "census", "--q", "67",
                                     "--budget", str(10**15))
