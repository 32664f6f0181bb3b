import contextlib
import dataclasses
import functools
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import ortho7
from ortho7 import cli, field, verify
from ortho7.cli import main
from ortho7.pairs import EnumerationReport, enumerate_ops
from ortho7.poly import Poly, format_poly


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


def test_classify_without_class_prints_no_witness(capsys):
    # x^7 is the only class at q = 41, so x^7 + x lies in none
    code, out, _ = run(capsys, "classify", "--q", "41", "x^7+x")
    assert code == 0 and "not a permutation polynomial" in out
    assert "witnessing transform" not in out
    code, out, _ = run(capsys, "classify", "--q", "41", "x^7+x", "--format", "json")
    results = json.loads(out)["results"]
    assert code == 0 and results["transform"] is None and results["family"] is None
    code, out, _ = run(capsys, "classify", "--q", "41", "x^7", "--format", "json")
    assert code == 0 and json.loads(out)["results"]["transform"] is not None


def test_classify_past_six_digit_codes(capsys, fresh_caches):
    # 1483 = 6 (mod 7): the class-image index answers past q = 1448; fresh
    # caches let the large field go afterwards
    code, out, _ = run(capsys, "classify", "--q", "1483", "3x^7+x^6+2")
    assert code == 0 and "not a permutation polynomial" in out
    code, out, _ = run(capsys, "classify", "--q", "1483", "x^7")
    assert code == 0 and "family 1" in out and "witnessing transform" in out
    code, out, _ = run(capsys, "test", "--q", "1483", "x^7", "--property", "pp")
    assert code == 0 and "class table: family 1" in out


def test_cmd_pairs_both_methods(capsys):
    code, out, _ = run(capsys, "pairs", "--q", "13", "--family", "1",
                       "--method", "both")
    assert code == 0
    assert "8 pairs" in out and "methods agree: True" in out


def test_cmd_enumerate_count_only(capsys):
    code, out, _ = run(capsys, "enumerate", "--q", "13")
    assert code == 0 and "op_total=6422" in out
    code, out, _ = run(capsys, "enumerate", "--q", "25")
    assert code == 0 and "op_total=60000" in out
    code, out, _ = run(capsys, "enumerate", "--q", "23")
    assert code == 0 and "op_total=0" in out


def test_cmd_enumerate_emit(capsys, tmp_path):
    path = tmp_path / "ops.csv"
    code, out, _ = run(capsys, "enumerate", "--q", "19", "--emit", str(path))
    assert code == 0
    lines = path.read_text().splitlines()
    assert len(lines) == 4332
    assert len(set(lines)) == 4332
    assert all(len(line.split(",")) == 8 for line in lines[:50])
    # the block writer and the public one-Poly-per-row stream agree
    stream = "".join(format_poly(p, "vector") + "\n" for p in enumerate_ops(19))
    assert path.read_bytes() == stream.encode()


def test_cmd_enumerate_emit_bytes_are_pinned(capsys, tmp_path):
    # the digest and row count of every row `enumerate --emit` writes for
    # q = 25 and for q = 49 (89 MB, read back in chunks)
    pinned = {
        25: ("4708cbb13787765efceca3cdfc93bf15d1244e7909eb20ae859413869437ddf7",
             60_000),
        49: ("b430eed1c8639936be6ec10253b57bdec758cf939f2f5dcdb7371e4e0e348ffd",
             3_937_640),
    }
    for q, (digest, n_rows) in pinned.items():
        path = tmp_path / f"ops{q}.csv"
        code, out, _ = run(capsys, "enumerate", "--q", str(q), "--emit", str(path))
        assert code == 0 and f"wrote {n_rows} coefficient vectors" in out
        sha, rows = hashlib.sha256(), 0
        with open(path, "rb") as fh:
            while chunk := fh.read(1 << 22):
                sha.update(chunk)
                rows += chunk.count(b"\n")
        path.unlink()
        assert (sha.hexdigest(), rows) == (digest, n_rows), q


def test_table_order_in_a_foreign_field_is_refused(capsys, tmp_path):
    # the class tables are encoded in the preset fields: F_25 built on
    # another modulus must be refused, not searched with misread entries
    foreign = ["--p", "5", "--r", "2", "--modulus", "2,1,1"]
    assert "preset field" in _usage_error(capsys, "pairs", *foreign)
    path = tmp_path / "ops.csv"
    assert "preset field" in _usage_error(capsys, "enumerate", *foreign,
                                          "--emit", str(path))
    assert not path.exists()
    # the preset field's own modulus is accepted
    code, out, _ = run(capsys, "pairs", "--p", "5", "--r", "2",
                       "--modulus", "2,4,1")
    assert code == 0 and "pair total: 96" in out


def test_cmd_census(capsys):
    code, out, _ = run(capsys, "census", "--q", "8", "--degree", "7",
                       "--canonical", "--property", "op")
    assert code == 0 and "census: 0" in out


def test_census_budget_message(capsys):
    code, _, err = run(capsys, "census", "--q", "13", "--degree", "7",
                       "--budget", "1000")
    assert code == 2 and "exceeds budget" in err


def test_json_and_text_numeric_agreement(capsys):
    code, text_out, _ = run(capsys, "enumerate", "--q", "13")
    code2, json_out, _ = run(capsys, "enumerate", "--q", "13",
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
    # a trailing or lone sign is a parse error, not a dropped term
    for text in ("+", "-", "x^7+", "x^7-"):
        _usage_error(capsys, "test", "--q", "13", text, "--property", "pp")
    _usage_error(capsys, "classify", "--q", "13", "x^7+2x+")
    # so is a dangling '*': "x^7+2*" is not x^7 + 2
    for text in ("x^7+2*", "*x", "2*"):
        _usage_error(capsys, "test", "--q", "13", text, "--property", "pp")
    # an exponent above the parser's bound is refused before any allocation
    assert "limit" in _usage_error(capsys, "test", "--q", "13", "x^99999999")
    code, out, _ = run(capsys, "test", "--q", "13", "x^7", "--property", "pp")
    assert code == 0 and "x^7 over F_13: pp = True" in out


def test_usage_error_exit_code(capsys):
    assert main(["bogus-subcommand"]) == 2
    # --budget belongs to census alone, and verify takes no field selection
    assert main(["test", "--q", "13", "x", "--budget", "5"]) == 2
    assert main(["verify", "--field", "23", "--q", "9"]) == 2
    # --workers is positive, on every command that takes it; argparse
    # rejects it before any work starts
    for argv in (["verify", "--workers", "0"], ["verify", "--workers", "-4"],
                 ["census", "--q", "11", "--workers", "0"],
                 # the audit has one size, which c8 pins
                 ["verify", "--audit-n", "5"],
                 # --field runs the totals check alone; the suite options
                 # would otherwise be dropped without a word
                 ["verify", "--field", "13", "--deep"],
                 ["verify", "--field", "23", "--workers", "1"],
                 ["verify", "--field", "13", "--deep", "--workers", "1"]):
        code, _, err = run(capsys, *argv)
        assert code == 2 and "error:" in err, argv
        assert "Traceback" not in err, argv
    # a field of order p^r, r > 1, needs its modulus
    code, _, err = run(capsys, "test", "--p", "5", "--r", "2", "x")
    assert code == 2 and "--modulus is required when --r > 1" in err
    assert "Traceback" not in err


def test_verify_single_field(capsys):
    code, out, _ = run(capsys, "verify", "--field", "23")
    assert code == 0 and "PASS" in out
    code, out, _ = run(capsys, "verify", "--field", "13")
    assert code == 0 and "6422" in out


def test_verify_single_field_prints_a_nonempty_total(capsys, monkeypatch):
    # a nonexistence order whose search finds a pair reports its real total
    planted = EnumerationReport(23, [SimpleNamespace(pair_count=1)])
    monkeypatch.setattr(cli, "count_ops", lambda q: planted)
    code, out, _ = run(capsys, "verify", "--field", "23")
    assert code == 1 and out == "q=23: op_total 529 expected 0: FAIL\n"


def test_out_file(capsys, tmp_path):
    path = tmp_path / "r.json"
    code, out, _ = run(capsys, "test", "--q", "13", "x", "--property", "pp",
                       "--format", "json", "--out", str(path))
    assert code == 0 and out == ""
    payload = json.loads(path.read_text())
    assert payload["results"]["verdict"] is True


def test_unwritable_out_path(capsys, tmp_path):
    path = tmp_path / "missing" / "r.txt"
    assert "No such file" in _usage_error(capsys, "test", "--q", "13", "x^7",
                                          "--out", str(path))
    assert "directory" in _usage_error(capsys, "test", "--q", "13", "x^7",
                                       "--out", str(tmp_path))
    # an empty path names no file, rather than asking for standard output
    _usage_error(capsys, "test", "--q", "13", "x^7", "--out", "")


def test_unwritable_emit_path(capsys, tmp_path):
    path = tmp_path / "missing" / "ops.txt"
    assert "No such file" in _usage_error(capsys, "enumerate", "--q", "13",
                                          "--emit", str(path))
    _usage_error(capsys, "enumerate", "--q", "13", "--emit", "")


def _usage_error(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 2, (argv, code)
    assert err.startswith("error:") and "Traceback" not in err
    return err


def test_non_ascii_digits_are_one_error_line(capsys):
    # '²' passes str.isdigit but not int(): only ASCII digits are digits
    for argv in (("test", "--q", "25", "(²)x"), ("classify", "--q", "13", "²,²"),
                 ("test", "--q", "25", "(t^²)x")):
        assert _usage_error(capsys, *argv).count("\n") == 1, argv


def test_digit_runs_past_the_int_string_limit_reduce(capsys):
    # int() refuses strings over 4300 digits; the reference reduces the
    # run one digit at a time
    digits = "".join(random.Random(5000).choices("0123456789", k=5000))
    c, k = (functools.reduce(lambda r, d: (r * 10 + int(d)) % m, digits, 0)
            for m in (13, 24))
    f13, f25 = field.field_for(13), field.field_for(25)
    for fld, literal, coeffs in (
            (f13, f"{digits}x", (0, c)),                         # plain coefficient
            (f25, f"(t^{digits})x", (0, f25.pow(f25.theta, k))),  # t exponent
            (f13, f"1,{digits}", (1, c))):                       # vector entry
        code, out, _ = run(capsys, "test", "--q", str(fld.q), literal, "--format", "json")
        assert code == 0
        assert json.loads(out)["results"]["poly"] == format_poly(Poly(fld, coeffs))


def test_memory_exhaustion_is_one_error_line(capsys, monkeypatch):
    # a field too large for memory fails in its table build; the stub
    # raises there without allocating anything
    def exhausted(q):
        raise MemoryError

    monkeypatch.setattr(cli, "field_for", exhausted)
    err = _usage_error(capsys, "classify", "--q", "6173", "x^7")
    assert err.count("\n") == 1 and "out of memory" in err


def test_pairs_family_out_of_range(capsys):
    assert "1..15" in _usage_error(capsys, "pairs", "--q", "13", "--family", "0")
    assert "1..15" in _usage_error(capsys, "pairs", "--q", "13", "--family", "99")


def test_unknown_order_is_unsupported(capsys):
    assert "order 9" in _usage_error(capsys, "pairs", "--q", "9")


def test_enumerate_without_classes_is_a_usage_error(capsys):
    # F_9 has no classes (9 is no table order and 9 != 6 mod 7); F_125 has
    # the x^7 class, searched in the given field, past the kernels' order
    assert "q=9" in _usage_error(capsys, "enumerate", "--p", "3", "--r", "2",
                                 "--modulus", "2,1,1")
    assert "q <= 63" in _usage_error(capsys, "enumerate", "--p", "5", "--r",
                                     "3", "--modulus", "2,0,1,1")


def test_x7_rule_order_gives_an_empty_report(capsys):
    # x^7 is the one class at q = 41, and it yields no orthomorphism
    code, out, _ = run(capsys, "pairs", "--q", "41")
    assert code == 0 and out.endswith("pair total: 0\n")
    code, out, _ = run(capsys, "enumerate", "--q", "41")
    assert code == 0 and "pair_total=0 op_total=0" in out


def test_census_order_above_hit_mask(capsys):
    assert "q <= 63" in _usage_error(capsys, "census", "--q", "67")
    assert "q <= 63" in _usage_error(capsys, "census", "--q", "67",
                                     "--budget", str(10**15))


def test_census_beyond_an_int64_index_is_refused(capsys):
    assert "int64" in _usage_error(capsys, "census", "--q", "31", "--degree", "30",
                                   "--property", "pp", "--budget", str(10**60))
    # past degree 64 the degree alone is refused, before q^(degree-1) is formed
    for degree in ("65", "100000", "1000000000"):
        assert f"degree {degree} > 64" in _usage_error(capsys, "census", "--q", "11",
                                                       "--degree", degree)


def test_two_element_field(capsys):
    code, out, _ = run(capsys, "test", "--q", "2", "x")
    assert code == 0 and "pp = True" in out


# field options that were once dropped without a word: each ran over F_13 or F_5
_STRAY_FIELD_OPTIONS = [["--q", "13", "--r", "5"], ["--q", "13", "--modulus", "1,1"],
                        ["--p", "5", "--modulus", "garbage"],
                        ["--p", "5", "--r", "1", "--modulus", "1,2,3"]]


def test_bad_field_spec_is_a_usage_error(capsys):
    assert "r=0" in _usage_error(capsys, "test", "--p", "5", "--r", "0", "x")
    assert "monic" in _usage_error(capsys, "test", "--p", "5", "--r", "2",
                                   "--modulus", "1,2", "x")
    assert "--modulus" in _usage_error(capsys, "test", "--p", "5", "--r", "2",
                                       "--modulus", "a,b", "x")
    for argv in _STRAY_FIELD_OPTIONS:
        err = _usage_error(capsys, "test", *argv, "x")
        assert err.count("\n") == 1 and argv[-2] in err, (argv, err)
    assert "--r, --modulus" in _usage_error(capsys, "pairs", "--q", "13", "--r", "2",
                                            "--modulus", "2,4,1")
    # a given --r of 1 beside --p is the default, and stays valid
    assert run(capsys, "test", "--p", "5", "--r", "1", "x")[0] == 0


def test_census_degree_zero_is_a_usage_error(capsys):
    assert "degree" in _usage_error(capsys, "census", "--q", "13",
                                    "--degree", "0")


def _disagreeing_routes(monkeypatch):
    # the table route loses each family's first pair, so the routes disagree
    search = cli.search_pairs

    def planted(fld, entries, method="direct"):
        found = search(fld, entries, method)
        return found if method == "direct" else [
            dataclasses.replace(res, pairs=res.pairs[1:]) for res in found]

    monkeypatch.setattr(cli, "search_pairs", planted)


def _planted_suite(ok):
    def plant(monkeypatch):
        monkeypatch.setattr(verify, "run_suite", lambda **opts: [
            verify.CheckResult("planted", ok, "planted check", 0.0)])
    return plant


def _pair_at_23(monkeypatch):
    planted = EnumerationReport(23, [SimpleNamespace(pair_count=1)])
    monkeypatch.setattr(cli, "count_ops", lambda q: planted)


_PAYLOAD_KEYS = ["q", "command", "results", "totals", "timings"]
_ENVELOPES = {
    # id: argv, plant, exit code, extra payload keys, extra timings keys
    "test": (["test", "--q", "13", "x^7+6x"], None, 0, [], []),
    "classify": (["classify", "--q", "13", "x^7+6x"], None, 0, [], []),
    "pairs": (["pairs", "--q", "13", "--family", "1", "--method", "both"],
              None, 0, [], []),
    "pairs-disagree": (["pairs", "--q", "13", "--family", "1", "--method", "both"],
                       _disagreeing_routes, 1, [], []),
    "enumerate": (["enumerate", "--q", "19"], None, 0, ["results_notes"], []),
    "enumerate-emit": (["enumerate", "--q", "13", "--emit", "<tmp>/ops.txt"], None, 0,
                       ["results_notes", "results_emitted"], []),
    "census": (["census", "--q", "8", "--canonical"], None, 0, [], ["candidates_per_s"]),
    "verify": (["verify"], _planted_suite(True), 0, [], []),
    "verify-fails": (["verify"], _planted_suite(False), 1, [], []),
    "verify-field": (["verify", "--field", "13"], None, 0, [], []),
    "verify-field-fails": (["verify", "--field", "23"], _pair_at_23, 1, [], []),
    "usage-order": (["pairs", "--q", "9"], None, 2, None, None),
    "usage-budget": (["census", "--q", "13", "--budget", "1000"], None, 2, None, None),
    "usage-field": (["verify", "--field", "29"], None, 2, None, None),
}


@pytest.mark.parametrize("case", sorted(_ENVELOPES))
def test_every_command_shares_one_envelope(case, capsys, monkeypatch, tmp_path):
    argv, plant, want, extra, timings = _ENVELOPES[case]
    argv = [a.replace("<tmp>", str(tmp_path)) for a in argv]
    if plant is not None:
        plant(monkeypatch)
    outputs = {}
    for fmt in ("json", "text", "csv"):
        code, outputs[fmt], err = run(capsys, *argv, "--format", fmt)
        assert code == want, (fmt, err)
        if want == 2:
            assert outputs[fmt] == "" and err.startswith("error:") and err.count("\n") == 1
        else:
            assert err == "" and outputs[fmt].endswith("\n")
    if want == 2:
        return
    payload = json.loads(outputs["json"])
    assert list(payload) == _PAYLOAD_KEYS + extra
    assert list(payload["timings"]) == ["elapsed_s"] + timings
    assert payload["command"] == argv[0]
    assert payload["q"] == (None if argv == ["verify"] else int(argv[2]))
    if argv[0] == "pairs":  # the family record of `enumerate`, method included
        family = payload["results"]["families"][0]
        assert family["method"] == "direct" and family["methods_agree"] is (want == 0)
        assert payload["results"]["methods_agree"] is (want == 0)


def test_pairs_and_enumerate_print_one_family_record(capsys):
    _, pairs_out, _ = run(capsys, "pairs", "--q", "13", "--format", "json")
    _, enum_out, _ = run(capsys, "enumerate", "--q", "13", "--format", "json")
    assert json.loads(pairs_out)["results"]["families"] == json.loads(enum_out)["results"]


_ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")
_INTEGER_OPTIONS = {"--q", "--p", "--r", "--family", "--degree", "--budget",
                    "--field", "--workers", "--modulus"}


def test_integer_options_read_ascii_digits_alone(capsys):
    # int() reads every Unicode decimal digit, so "--q ١٣" once chose F_13:
    # each integer option, and each --modulus entry, takes '-' and 0-9 alone
    for argv in (["test", "--q", "13", "x^7+2x"],
                 ["test", "--p", "5", "--r", "2", "--modulus", "2,4,1", "x"],
                 ["pairs", "--q", "13", "--family", "1"],
                 ["census", "--q", "8", "--canonical", "--degree", "7",
                  "--workers", "2", "--budget", "10000000"],
                 ["verify", "--field", "13"]):
        assert run(capsys, *argv)[0] == 0, argv
        for i in range(1, len(argv)):
            if argv[i - 1] in _INTEGER_OPTIONS:
                bad = argv[:i] + [argv[i].translate(_ARABIC_INDIC)] + argv[i + 1:]
                code, out, err = run(capsys, *bad)
                assert code == 2 and out == "", bad
                assert "invalid int value" in err or "--modulus must be" in err, bad
    code, _, err = run(capsys, "verify", "--workers", "١")
    assert code == 2 and "invalid int value" in err
    # int() also took spaces, a '+' and underscores
    for value in (" 13", "13 ", "+13", "1_3", "²", "-", "1-3"):
        code, _, err = run(capsys, "test", "--q", value, "x")
        assert code == 2 and "invalid int value" in err, value
    assert "order -3" in _usage_error(capsys, "test", "--q", "-3", "x")


_LARGE_ORDERS = [
    ["test", "--q", "1000000007", "x"],              # an orbit of q - 1 steps
    ["test", "--q", "100000000000000000039", "x"],   # trial division
    ["test", "--p", "100000000000000000039", "x"],
    ["test", "--p", "3", "--r", "20", "--modulus",
     ",".join(["2"] + ["0"] * 18 + ["1", "1"]), "x"],
    ["test", "--p", "2", "--r", "1000000000", "--modulus", "1,1", "x"],  # 2^(10^9)
    ["census", "--q", "1000000007", "--degree", "1", "--budget", "5"],
]


def test_large_orders_are_refused_before_any_work():
    # each once ran for seconds or without end; a subprocess under a
    # timeout turns such a regression into a failure, not a hung suite
    src = str(Path(ortho7.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    script = "import sys; from ortho7.cli import main; sys.exit(main(sys.argv[1:]))"
    procs = [subprocess.Popen([sys.executable, "-c", script, *argv], env=env, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE)
             for argv in _LARGE_ORDERS]
    try:
        for argv, proc in zip(_LARGE_ORDERS, procs):
            out, err = proc.communicate(timeout=10)
            assert proc.returncode == 2 and out == "", (argv, err)
            assert err.startswith("error:") and err.count("\n") == 1, (argv, err)
            assert "field-table budget" in err, (argv, err)
    finally:
        for proc in procs:
            proc.kill()
            proc.wait()


# argv fuzzing: cheap orders only, a census budget on every census (the
# default budget admits minute-long scans) and a --field instead of a field
# selection on every verify (the full battery takes seconds).  --out and
# --emit name a file in a fresh temporary directory, or one under a missing
# subdirectory of it, whose OSError must end in exit code 2.
_FIELDS = [["--q", q] for q in ("2", "5", "8", "11", "11", "13", "13")] + [
    ["--p", "5", "--r", "2", "--modulus", "2,4,1"], ["--p", "13"],
    ["--p", "3", "--r", "2", "--modulus", "2,1,1"], ["--q", "41"],
    # malformed selections
    ["--q", "9"], ["--q", "-3"], ["--p", "4"], ["--r", "2"], [],
    ["--p", "5", "--r", "0"], ["--p", "5", "--r", "2", "--modulus", "1,2"],
    ["--p", "5", "--r", "2", "--modulus", "a,b"], ["--q", "13", "--p", "13"],
    *_STRAY_FIELD_OPTIONS,
    # refused: non-ASCII digits, an order past the field-table budget
    ["--q", "١٣"], ["--q", "1000000007"],
    ["--p", "5", "--r", "2", "--modulus", "2,٤,١"]]
_POLYS = ["x", "x^7+2x", "3x^7+7x", "x^7+6x", "x^7", "x^3", "0", "1",
          "0,2,0,0,0,0,0,1", "1,2,3", "x^^oops", "2t", "",
          "(²)x", "²,1", "9" * 5000, "(3+-2)x", "(*t)x"]
_TMP = "<tmp>"
_PATHS = (f"{_TMP}/out.txt", f"{_TMP}/missing/out.txt")
_COMMON = [["--format", v] for v in ("text", "json", "csv")] + [
    ["--out", v] for v in _PATHS]
_WORKERS = [["--workers", v] for v in ("0", "1", "2")]
_FLAGS = {
    "test": [["--property", v] for v in ("pp", "op", "cpp", "no")],
    "classify": [],
    "pairs": [["--family", v] for v in ("-1", "0", "1", "3", "99")] + [
        ["--method", v] for v in ("direct", "table", "both")],
    "enumerate": [["--emit", v] for v in _PATHS],
    "census": [["--degree", v] for v in ("0", "1", "2", "7", "65", "100000", "1000000000")] + [
        ["--property", v] for v in ("pp", "op", "cpp")] + [["--canonical"]]
        + _WORKERS,
    "verify": [["--deep"]] + _WORKERS,
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_FLAGS)))
    argv = [command]
    if command != "verify":
        argv += draw(st.sampled_from(_FIELDS))
    if command in ("test", "classify"):
        argv.append(draw(st.sampled_from(_POLYS)))
    for flag in draw(st.lists(st.sampled_from(_FLAGS[command] + _COMMON),
                              max_size=4)):
        argv += flag
    if command == "census":
        argv += ["--budget", draw(st.sampled_from(["0", "100", "20000"]))]
    if command == "verify":
        argv += ["--field", draw(st.sampled_from(["13", "23", "29", "83"]))]
    if draw(st.integers(0, 9)) == 0:  # an argparse-level usage error
        argv.insert(draw(st.integers(0, len(argv))),
                    draw(st.sampled_from(["--bogus", "nope", "--q"])))
    return argv


@settings(max_examples=100, deadline=None)
@given(_argv())
def test_cli_exit_codes_on_generated_argv(argv):
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([a.replace(_TMP, tmp) for a in argv])
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
