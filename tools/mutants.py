#!/usr/bin/env python3
"""Apply each pinned mutant to a copy of `src/` and run the checks that
should kill it.

    python3 tools/mutants.py

Each entry of `MUTANTS` names a file under `src/ortho7`, a text that occurs
in it exactly once, the text that replaces it, and its killers: tier-1 test
ids (`tests/test_perm.py::test_x`) and verify checks (`verify.check_census`,
called with its defaults).  For each entry the tool copies `src/` into a
temporary directory, applies the mutant, and runs the named tests in one
pytest process and the named checks in one interpreter, each with the copy
first on sys.path.  A failing test, a failing check and one that raises or
runs past `TIMEOUT_S` each kill the mutant.

A mutant that survives is a failure, unless its entry marks it equivalent
and gives the reason; a mutant so marked that is killed is a failure too,
as the reason no longer holds.  An entry whose old text does not occur
exactly once, or whose test id pytest cannot find, is a failure.  After the
entries the tool reports each `verify.check_*` function that killed none of
them.  Exits 1 on any failure, else 0.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 300


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # under src/ortho7
    old: str
    new: str
    killers: tuple[str, ...]
    equivalent: str | None = None  # why no check can kill it


_HORNER = "tests/test_kernels.py::test_census_scan_agrees_with_horner_rows"
_SHIFT = "shift = ((field.sub_t[c1, 1:].T - c1) * place)"

MUTANTS = (
    # perm._scan's sibling table (BENCH_31)
    Mutant("scan-lam-from-zero", "perm.py", _SHIFT,
           "shift = ((field.sub_t[c1, :-1].T - c1) * place)",
           ("verify.check_census", _HORNER)),
    Mutant("scan-plus-lam", "perm.py", _SHIFT,
           "shift = ((field.add_t[c1, 1:].T - c1) * place)",
           ("verify.check_census", _HORNER),
           equivalent="over whole x^1 groups f -> f - lam*x pairs the hits "
                      "counted at lam with those counted at -lam, so n_lam = "
                      "n_-lam and the rows come out the same"),
    Mutant("scan-rows-permuted", "perm.py", _SHIFT,
           "shift = ((field.sub_t[c1][:, field.inv_t[1:]].T - c1) * place)",
           (_HORNER,)),
    # the degree-1 lead has no sibling (PR 27)
    Mutant("scan-negative-sibling", "perm.py",
           'found += (mask.take(sib, mode="clip") & (sib >= 0)).sum(axis=1)',
           'found += mask.take(sib, mode="clip").sum(axis=1)',
           (_HORNER, "tests/test_perm.py::test_census_against_bruteforce")),
    # the class-image index (ROADMAP item 9)
    Mutant("index-drops-a-class", "families.py",
           "codes, ords = class_images(field, field_entries(field))",
           "codes, ords = class_images(field, field_entries(field)[1:])",
           ("verify.check_audit", "verify.check_census")),
    Mutant("x6-shift-sign", "kernels.py",
           "by = field.mul_t[field.neg_t[field.inv_t[field.from_int(7)]]]",
           "by = field.mul_t[field.inv_t[field.from_int(7)]]",
           ("verify.check_audit",
            "tests/test_kernels.py::test_class_lookup_agrees_with_canonical_route")),
    Mutant("index-code-flipped", "families.py",
           "return codes[first], ords[first]",
           "return codes[first] ^ (codes[first] == codes[-1]), ords[first]",
           ("verify.check_audit",
            "tests/test_kernels.py::test_class_lookup_agrees_with_canonical_route")),
    # a lookup answers 0 for a row in no class, also one whose prefix is
    # that of a class code
    Mutant("lookup-miss-reads-a-class", "families.py",
           "out[live[hit]] = ords[pos[hit]]",
           "out[live] = ords[pos]",
           ("verify.check_audit",
            "tests/test_kernels.py::test_class_lookup_agrees_with_canonical_route")),
    # a row without x^7 has the monic columns, and so the code, of x^7
    Mutant("lookup-drops-lead-guard", "families.py",
           "present[prefix] & (rows[:, 7] != 0)",
           "present[prefix]",
           ("tests/test_families.py::test_class_lookup_answers_0_for_a_row_without_x7",)),
    # the prefix stage: a presence table built one digit short drops members
    Mutant("prefix-table-one-digit-short", "families.py",
           "present[codes[first] // q ** (kernels.code_width(field) - k)] = True",
           "present[codes[first] // q ** (kernels.code_width(field) - k + 1)] = True",
           ("verify.check_audit",
            "tests/test_kernels.py::test_class_lookup_agrees_with_canonical_route",
            "tests/test_kernels.py::test_class_lookup_agrees_with_the_one_stage_search")),
    # only equal codes of two classes overlap: x^7 alone repeats q - 1 times
    Mutant("index-refuses-repeats", "families.py",
           "clash = np.flatnonzero(~first[1:] & (ords[1:] != ords[:-1]))",
           "clash = np.flatnonzero(~first[1:])",
           ("verify.check_non_redundancy",)),
    # the one evaluator: f(-x) = E(x^2) - x*O(x^2) reads -x's row of the
    # table, and f(0) is c0
    Mutant("pp-minus-x-through-x", "kernels.py",
           'bits.take(step[z].take(oe, mode="clip"), mode="clip")',
           'bits.take(step[x].take(oe, mode="clip"), mode="clip")',
           ("verify.check_audit",
            "tests/test_kernels.py::test_pp_batch_agrees_with_scalar_check")),
    Mutant("pp-seed-from-c1", "kernels.py",
           "mask = bits.take(cols[0, 0] * np.int16(q))",
           "mask = bits.take(cols[0, 1] * np.int16(q))",
           ("verify.check_audit",
            "tests/test_kernels.py::test_pp_batch_agrees_with_scalar_check")),
    # the audit is one function: its sweep rows count, and a disagreement
    # counts either way
    Mutant("audit-drops-the-sweep", "verify.py",
           "    C = np.zeros((q * q, 8), dtype=np.int64)\n    C[:, 7] = 1\n"
           "    C[:, 3], C[:, 1] = np.divmod(np.arange(q * q), q)\n",
           "    C = np.zeros((0, 8), dtype=np.int64)\n",
           ("tests/test_acceptance.py::test_c8_classification_audit",)),
    Mutant("audit-counts-one-way", "verify.py",
           "direct != (class_lookup(field, C) > 0)",
           "direct > (class_lookup(field, C) > 0)",
           ("tests/test_acceptance.py::test_audit_reports_the_first_failing_order",
            "tests/test_acceptance.py::test_audit_disagreement_fails_alike_on_one_and_two_workers")),
    # the pair grid's line index (CHANGES.md)
    Mutant("pair-cells-uninverted", "kernels.py",
           "return field.inv_t[field.mul_t[1:, 1:]] - 1",
           "return field.mul_t[1:, 1:] - 1",
           ("verify.check_pair_fixtures",
            "tests/test_kernels.py::test_pair_line_agrees_with_the_scalar_check")),
    # c3's one per-family comparison: two unlisted q = 49 families trade a
    # pair, so every published list and every total still holds
    Mutant("fixture-family-counts", "data/reference_results.json",
           '"49": {"2": 40, "3": 320, "4": 320,',
           '"49": {"2": 40, "3": 319, "4": 321,',
           ("verify.check_pair_fixtures",)),
    # c4's nonexistence orders, read from the fixture's zero totals
    Mutant("totals-nonexistence-orders", "verify.py",
           'for q, want in ref["op_totals"].items() if not want)',
           'for q, want in ref["op_totals"].items() if want)',
           ("tests/test_acceptance.py::test_c4_totals",)),
    # one mutant for each verify check that none of the above names
    Mutant("criteria-lead-bound", "canon.py",
           "ok = (lead < ck[t]) & (gt1 < n // ck[t])",
           "ok = (lead < ck[t] - 1) & (gt1 < n // ck[t])",
           ("verify.check_family_tables",)),
    # the one synthetic division behind the shifts: each pass stops a step
    # short
    Mutant("taylor-shift-pass-short", "kernels.py",
           "for j in range(n - 2, k - 1, -1):",
           "for j in range(n - 2, k, -1):",
           ("tests/test_kernels.py::test_expand_shifts_matches_apply_transform",)),
    # the closed-form normal form: the x^7 and x^6 terms of the shift with
    # their sign flipped (the same in characteristic 2)
    Mutant("shift-c-term-sign", "kernels.py",
           "term(math.comb(7, j) - 7 * math.comb(6, j), 7 - j)",
           "term(7 * math.comb(6, j) - math.comb(7, j), 7 - j)",
           ("tests/test_kernels.py::test_normalized_rows_match_the_scalar_reduction",)),
    # the canonical forms read the normal form top digit first, g5..g1
    Mutant("canonical-digits-reversed", "canon.py",
           "H = np.stack(list(kernels.normal_digits(field, C)), axis=-1)",
           "H = np.stack(list(kernels.normal_digits(field, C))[::-1], axis=-1)",
           ("tests/test_canon.py::test_canonical_rows_match_exhaustive_enumeration",
            "verify.check_properties")),
    # the scalar reference the kernels are held to: one Horner step with its
    # columns swapped composes f with cx + b
    Mutant("transform-horner-swapped", "poly.py",
           "zip(g + [0], [0] + g)",
           "zip([0] + g, g + [0])",
           ("tests/test_kernels.py::test_expand_shifts_matches_apply_transform",
            "tests/test_kernels.py::test_normalized_rows_match_the_scalar_reduction")),
    Mutant("code-radix", "kernels.py",
           "code = code * field.q + d",
           "code = code * (field.q - 1) + d",
           ("verify.check_non_redundancy",)),
    Mutant("exceptional-subtotal", "pairs.py",
           "if r.family.exceptional)",
           "if not r.family.exceptional)",
           ("verify.check_totals",)),
    Mutant("table-route-drops-lam-1", "pairs.py",
           "        hit = ords > 0\n",
           "        hit = ords > 0\n        hit[:, 0] = False\n",
           ("verify.check_method_agreement",)),
    # search_pairs decides every class of a batch in one kernel call: each
    # class's dedup must read its own hit row
    Mutant("batch-hits-reversed", "pairs.py",
           "enumerate(zip(entries, hit))",
           "enumerate(zip(entries, hit[::-1]))",
           ("verify.check_pair_fixtures",
            "tests/test_pairs.py::test_a_batch_files_each_class_under_that_class")),
    Mutant("shift-block-repeats", "pairs.py",
           "block[:, 0] = field.add_t[rows[:, :1], elems].ravel()",
           "block[:, 0] = field.add_t[rows[:, :1], elems // 2].ravel()",
           ("verify.check_distinctness",)),
    Mutant("shift-block-scaled", "pairs.py",
           "kernels.expand_shifts(field, sigs, 1, 1, elems, 0)",
           "kernels.expand_shifts(field, sigs, 1, 2, elems, 0)",
           ("verify.check_properties",)),
    # the one array transform a*f(bx+c)+d: d lands on x^1, or a is dropped
    Mutant("transform-constant-on-x1", "kernels.py",
           "out[..., 0] = field.add_t.ravel()[out[..., 0] * q + d]",
           "out[..., 1] = field.add_t.ravel()[out[..., 1] * q + d]",
           ("tests/test_kernels.py::test_expand_shifts_matches_apply_transform",
            "verify.check_properties")),
    Mutant("transform-drops-a", "kernels.py",
           "scale = a  # a*b^j",
           "scale = np.ones_like(a)  # a*b^j",
           ("tests/test_kernels.py::test_expand_shifts_matches_apply_transform",
            "verify.check_totals")),
)

# Run in a fresh interpreter: argv[1] is the mutated src, the rest name checks.
_CHECKS = """\
import sys
sys.path.insert(0, sys.argv[1])
from ortho7 import verify
for name in sys.argv[2:]:
    check = getattr(verify, name)  # a misspelt name is an error, not a kill
    try:
        ok = check().ok
    except Exception:
        ok = False
    print(name, "pass" if ok else "fail", flush=True)
"""
_FAILED = re.compile(r"^(?:FAILED|ERROR) (\S+)", re.M)


def _run(argv, src: Path) -> subprocess.CompletedProcess | None:
    """argv in ROOT with `src` on PYTHONPATH; None past TIMEOUT_S."""
    try:
        return subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=TIMEOUT_S, env=dict(os.environ, PYTHONPATH=str(src)))
    except subprocess.TimeoutExpired:
        return None


def _last_line(text: str) -> str:
    return (text.strip().splitlines() or ["no output"])[-1]


def kills(m: Mutant, src: Path) -> tuple[list[str], str | None]:
    """The killers of `m` that fail on the mutated `src`, and a problem with
    the entry itself (a test id pytest cannot run, a check that cannot be
    called), or None."""
    tests = [k for k in m.killers if "::" in k]
    checks = [k.removeprefix("verify.") for k in m.killers if "::" not in k]
    killed = []
    if tests:
        proc = _run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                     "--tb=no", "-rfE", *tests], src)
        if proc is None:
            killed += [f"{t} (timeout)" for t in tests]
        elif proc.returncode in (2, 3, 4, 5):  # interrupted, internal, usage, none run
            why = proc.stderr.strip().splitlines()[0] if proc.stderr.strip() else (
                _last_line(proc.stdout))  # pytest names an unknown test id on stderr
            return killed, f"pytest exit {proc.returncode}: {why}"
        else:
            failed = {f.split("[")[0] for f in _FAILED.findall(proc.stdout)}
            killed += [t for t in tests if t in failed]
    if checks:
        proc = _run([sys.executable, "-c", _CHECKS, str(src), *checks], src)
        if proc is None:
            killed += [f"verify.{c} (timeout)" for c in checks]
        elif proc.returncode:
            return killed, f"checks exit {proc.returncode}: {_last_line(proc.stderr)}"
        else:
            verdicts = dict(line.split() for line in proc.stdout.splitlines())
            killed += [f"verify.{c}" for c in checks if verdicts[c] == "fail"]
    return killed, None


def judge(m: Mutant, src: Path) -> tuple[str, list[str]]:
    """Apply `m` to a fresh copy of src/ at `src` and run its killers: the
    verdict, which starts with an upper-case word on a failure, and the
    killers that failed."""
    shutil.rmtree(src, ignore_errors=True)
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    path = src / "ortho7" / m.file
    text = path.read_text()
    if text.count(m.old) != 1:
        return f"ERROR     {m.name}: its old text occurs {text.count(m.old)} times", []
    path.write_text(text.replace(m.old, m.new))
    killed, problem = kills(m, src)
    if problem:
        return f"ERROR     {m.name}: {problem}", killed
    if killed:
        return (f"killed    {m.name}: {', '.join(killed)}" if not m.equivalent
                else f"KILLED    {m.name}, marked equivalent: {', '.join(killed)}"), killed
    return (f"SURVIVED  {m.name}" if not m.equivalent
            else f"equivalent {m.name}: {m.equivalent}"), killed


def main(mutants=MUTANTS) -> int:
    failures, owners = 0, set()
    with tempfile.TemporaryDirectory() as tmp:
        for m in mutants:
            t0 = time.perf_counter()
            verdict, killed = judge(m, Path(tmp) / "src")
            owners.update(k.split()[0] for k in killed)
            failures += not verdict[0].islower()
            print(f"{verdict}  ({time.perf_counter() - t0:.1f}s)", flush=True)
    sys.path.insert(0, str(ROOT / "src"))
    from ortho7 import verify
    idle = [f"verify.{n}" for n in sorted(vars(verify))
            if n.startswith("check_") and f"verify.{n}" not in owners]
    print("verify checks that kill no listed mutant: "
          + (", ".join(idle) if idle else "none"))
    print(f"{len(mutants) - failures} as expected, {failures} failed")
    return int(failures > 0)


if __name__ == "__main__":
    sys.exit(main())
