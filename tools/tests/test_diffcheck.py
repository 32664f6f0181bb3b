"""Tests of the output comparison. Run from the repository root:

    python3 -m pytest tools/tests -q
"""

import io
import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "tools"))

import diffcheck  # noqa: E402

TWO = [["test", "--q", "13", "x^7+2x", "--format", "text"],
       ["classify", "--q", "13", "x^7+6x", "--format", "json"]]


def test_head_gives_the_same_outputs_as_itself():
    out = io.StringIO()
    assert diffcheck.compare("HEAD", TWO, out=out) == 0
    lines = out.getvalue().splitlines()
    assert [line.split()[0] for line in lines[:2]] == ["same", "same"]
    assert lines[-1] == "2 same, 0 differ"


def test_a_planted_difference_is_reported_with_its_first_line(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    perm = tmp_path / "src" / "ortho7" / "perm.py"
    text = perm.read_text()
    planted = text.replace("    return _bijective(f)\n", "    return not _bijective(f)\n")
    assert planted != text
    perm.write_text(planted)
    out = io.StringIO()
    assert diffcheck.compare("HEAD", TWO[:1], tree=tmp_path, out=out) == 1
    assert out.getvalue().splitlines() == [
        "DIFF  ortho7 test --q 13 x^7+2x --format text",
        "    line 1 at HEAD: exit 0",  # `test` exits 1 when the property fails
        "    line 1 here: exit 1",
        "0 same, 1 differ",
    ]


def test_timings_are_left_out_of_the_comparison():
    payload = {"q": 13, "results": [{"detail": "d", "elapsed_s": 0.1}],
               "timings": {"elapsed_s": 0.2}}
    slower = {"q": 13, "results": [{"detail": "d", "elapsed_s": 9.0}],
              "timings": {"elapsed_s": 7.0, "candidates_per_s": 1.0}}
    argv = ["verify", "--format", "json"]
    assert (diffcheck.normalise(argv, json.dumps(payload))
            == diffcheck.normalise(argv, json.dumps(slower)))
    text = ["verify", "--format", "text"]
    assert (diffcheck.normalise(text, "[PASS] totals (0.1s): exact\n")
            == diffcheck.normalise(text, "[PASS] totals (12.5s): exact\n"))
    assert diffcheck.first_difference(["a", "b"], ["a"]) == (2, "b", "<end>")
