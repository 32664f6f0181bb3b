"""Tests of the mutant runner. Run from the repository root:

    python3 -m pytest tools/tests -q
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "tools"))

import mutants  # noqa: E402
from mutants import Mutant  # noqa: E402

_SUBTOTAL = ("if r.family.exceptional)", "if not r.family.exceptional)")


def test_every_listed_old_text_occurs_once():
    for m in mutants.MUTANTS:
        assert (ROOT / "src" / "ortho7" / m.file).read_text().count(m.old) == 1, m.name


def test_two_listed_mutants_die(capsys):
    # one killed by a verify check, one by a tier-1 test
    chosen = {"exceptional-subtotal", "totals-nonexistence-orders"}
    assert mutants.main(tuple(m for m in mutants.MUTANTS if m.name in chosen)) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:3] for line in lines[:2]] == [  # in the list's order
        ["killed", "totals-nonexistence-orders:", "tests/test_acceptance.py::test_c4_totals"],
        ["killed", "exceptional-subtotal:", "verify.check_totals"]]
    assert lines[-1] == "2 as expected, 0 failed"


def test_a_survivor_a_stale_entry_and_a_killed_equivalent_fail(capsys):
    planted = (
        Mutant("docstring", "verify.py", '"""Re-derivation of', '"""A re-derivation of',
               ("verify.check_totals",)),
        Mutant("stale", "verify.py", "no such text", "", ("verify.check_totals",)),
        Mutant("no-such-test", "pairs.py", *_SUBTOTAL,
               ("tests/test_acceptance.py::test_no_such_test",)),
        Mutant("no-such-check", "pairs.py", *_SUBTOTAL, ("verify.check_no_such_thing",)),
        Mutant("not-equivalent", "pairs.py", *_SUBTOTAL, ("verify.check_totals",),
               equivalent="a planted claim"),
    )
    assert mutants.main(planted) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in lines[:5]] == [
        ["SURVIVED", "docstring"], ["ERROR", "stale:"], ["ERROR", "no-such-test:"],
        ["ERROR", "no-such-check:"], ["KILLED", "not-equivalent,"]]
    assert lines[-1] == "0 as expected, 5 failed"
