"""Acceptance suite: one test per criterion, each printing a pass/fail
line with its runtime.  Run with `pytest tests/test_acceptance.py -v -s`
(or plain pytest; the lines still print on success with -s).

Criteria and stated targets:
  1 family-table validation (exact, < 1 s)
  2 non-redundancy of every table (exact, < 30 s)
  3 published pair lists / per-system counts / q=49 totals (exact, < 2 min)
  4 orthomorphism totals and exceptional subtotals (exact, < 3 min)
  5 direct vs table-based method agreement (exact, < 5 min)
  6 shift-expansion distinctness (exact, < 2 min; q=49 sampled, where the
    characteristic-7 collapse law replaces the q^2 cardinality: each
    pair's expansion has exactly q distinct vectors, disjoint across
    pairs - see the distinctness check's docstring)
  7 census cross-check: one canonical census per order q = 8, 11, 13,
    17, 19 gives the 0 / 660 / 494 / 272 / 228 op counts, which the
    f - lam*x count equals at every lam in F_q* (lam = -1 is cpp), and
    at 11-19 the mass identity pp = q(q-1)|index| (24,750 / 17,940 /
    56,848 / 38,304 permutations), which proves those class tables
    complete (about 4 s on 2 workers)
  8 classification-vs-direct audit: 1e5 random polynomials per field plus
    the exhaustive x^7 + a3 x^3 + a1 x sweep, zero disagreements
  9 property suite: canonicalisation class constancy and orthomorphism
    shift invariance (the pointwise transform law is
    tests/test_poly.py::test_transform_pointwise_identity_exhaustive)
"""

import ast
import copy
import json
import os
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import pytest

from ortho7 import cli, families, pairs, verify
from ortho7.families import FamilyTable, table_for
from ortho7.pairs import EnumerationReport, count_ops

_reports: dict[int, EnumerationReport] = {}


def _criterion(result):
    print(f"\nACCEPTANCE {result.line()}")
    assert result.ok, result.detail
    return result


def test_c1_family_table_validation():
    result = _criterion(verify.check_family_tables())
    assert result.detail == "105 entries across 9 fields validated"


@pytest.mark.parametrize("plant, detail", [
    (lambda es: es[:-1], "table counts for q=13 do not match the expected 14+1"),
    (lambda es: es[:-1] + (replace(es[-1], ordinal=16),),
     "non-contiguous ordinals in table q=13"),
    # x^7 + x is not a permutation of F_13
    (lambda es: (replace(es[0], coeffs=(0, 0, 0, 0, 1)),) + es[1:],
     "table entry q=13 ordinal 1 is not a permutation polynomial"),
    # x^7 + 11x = e(2x)/2^7 for entry 1, x^7 + 2x: in its class, not canonical
    (lambda es: (replace(es[0], coeffs=(0, 0, 0, 0, 11)),) + es[1:],
     "non-exceptional entry q=13 ordinal 1 fails the canonical criteria"),
], ids=["counts", "ordinals", "non-permutation", "criteria"])
def test_c1_family_tables_fail_on_each_refusal(monkeypatch, plant, detail):
    # the parsed q = 13 table replaced by a planted copy; validate_table's
    # cache is emptied before and after, so no planted verdict outlives it
    tables = families.load_family_tables()
    planted = {**tables, 13: FamilyTable(13, plant(tables[13].entries))}
    monkeypatch.setattr(families, "load_family_tables", lambda: planted)
    families.validate_table.cache_clear()
    try:
        result = verify.check_family_tables()
    finally:
        families.validate_table.cache_clear()
    assert (result.ok, result.detail) == (False, f"q=13: {detail}")


def test_c2_non_redundancy():
    result = verify.check_non_redundancy()
    _criterion(result)
    assert result.detail == ("105 entries, 20448 class images, pairwise "
                             "disjoint per field: no linear relations")


def test_c3_pair_fixtures():
    _criterion(verify.check_pair_fixtures(_reports))


def test_c3_pair_fixtures_fails_on_a_pair_moved_between_unlisted_families():
    # q = 49 publishes a list for family 2 alone: a pair moved from family 3
    # to family 4 keeps every list and total, but not the per-family counts
    rep = verify._report(_reports, 49)
    per = list(rep.per_family)
    src, dst = per[2:4]
    per[2] = replace(src, pairs=src.pairs[1:], signatures=src.signatures[1:])
    per[3] = replace(dst, pairs=dst.pairs + src.pairs[:1],
                     signatures=dst.signatures + src.signatures[:1])
    planted = {**_reports, 49: EnumerationReport(49, per, list(rep.notes))}
    result = verify.check_pair_fixtures(planted)
    assert not result.ok
    want = {"2": 40, "3": 320, "4": 320, "5": 320, "6": 320, "7": 320}
    moved = {**want, "3": 319, "4": 321}
    assert result.detail == f"q=49: family pair counts {moved}, expected {want}"


def _planted_reference(monkeypatch, edit):
    """verify reading a copy of the fixture changed by `edit`; the cached
    fixture itself is left alone."""
    ref = copy.deepcopy(verify.load_reference())
    edit(ref)
    monkeypatch.setattr(verify, "load_reference", lambda: ref)


def test_c3_pair_fixtures_fails_on_a_listed_non_pair(monkeypatch):
    # (1, 1) gives x^7 + 2x - x = x^7 + x, no permutation of F_13
    _planted_reference(monkeypatch,
                       lambda ref: ref["pair_lists"]["13"]["1"].append(["1", "1"]))
    result = verify.check_pair_fixtures(_reports)
    assert (result.ok, result.detail) == (
        False, "q=13 family 1: published list names 1 non-pairs")


def test_c3_pair_fixtures_fails_on_a_wrong_gap_count(monkeypatch):
    _planted_reference(monkeypatch, lambda ref: ref["pair_lists"]["13"]["1"].pop())
    result = verify.check_pair_fixtures(_reports)
    assert (result.ok, result.detail) == (
        False, "q=13 family 1: computed 8 classes, published 7 (+0 known gaps)")


def test_c3_pair_fixtures_fails_on_a_q25_system_count(monkeypatch):
    # the detail lists the computed systems, which are the true fixture's
    want = sorted(verify.load_reference()["system_counts"]["25"])
    _planted_reference(monkeypatch,
                       lambda ref: ref["system_counts"]["25"][0].__setitem__(3, 13))
    result = verify.check_pair_fixtures(_reports)
    head = "q=25 system counts differ: "
    assert not result.ok and result.detail.startswith(head)
    assert sorted(ast.literal_eval(result.detail.removeprefix(head))) == want


def test_c4_totals():
    result = _criterion(verify.check_totals(_reports))
    assert result.detail == ("totals exact (11:7260, 13:6422, 17:4624, 19:4332, "
                             "25:60000, 49:3937640; 0 for 23/27/31/41)")


@pytest.mark.parametrize("key, want, detail", [
    ("op_totals", 6423, "q=13: op_total 6422 != 6423"),
    ("exceptional_pair_totals", 5, "q=13: exceptional pairs 4 != 5"),
])
def test_c4_totals_fail_on_a_wrong_figure(monkeypatch, key, want, detail):
    _planted_reference(monkeypatch, lambda ref: ref[key].__setitem__("13", want))
    result = verify.check_totals(_reports)
    assert (result.ok, result.detail) == (False, detail)


def test_c5_method_agreement():
    _criterion(verify.check_method_agreement())


def test_c5_method_agreement_fails_on_a_pair_one_route_misses():
    # the table route's q = 11 report without the first pair of family 6,
    # the first family with pairs
    rep = count_ops(11, "table")
    per = list(rep.per_family)
    i = next(k for k, r in enumerate(per) if r.pairs)
    per[i] = replace(per[i], pairs=per[i].pairs[1:])
    result = verify.check_method_agreement({(11, "table"): EnumerationReport(11, per)})
    assert (result.ok, result.detail) == (False, "q=11 family 6: direct 10 vs table 9 pairs")


def test_c6_distinctness():
    _criterion(verify.check_distinctness(reports=_reports))


def _planted_q11(plant):
    """The q = 11 report with the second family that has pairs replaced by
    `plant(first, second)`, as a `reports` memo, and that family's ordinal."""
    rep = count_ops(11)
    per = list(rep.per_family)
    i, j = [k for k, r in enumerate(per) if r.pairs][:2]
    per[j] = plant(per[i], per[j])
    return {11: EnumerationReport(11, per, list(rep.notes))}, per[j].family.ordinal


def test_c6_distinctness_fails_on_a_pair_shared_by_two_families():
    # a signature of one family repeated in another: every pair still
    # expands to q^2 vectors, but two pairs' expansions coincide
    def plant(src, dst):
        return replace(dst, pairs=dst.pairs + src.pairs[:1],
                       signatures=dst.signatures + src.signatures[:1])

    result = verify.check_distinctness(reports=_planted_q11(plant)[0])
    assert not result.ok
    assert result.detail == "q=11: expansions of distinct pairs overlap"


def test_c6_distinctness_fails_on_a_short_pair_expansion():
    # the zero signature: its shifts are the q constants, not q^2 vectors
    def plant(src, dst):
        return replace(dst, pairs=dst.pairs + ((1, 1),),
                       signatures=dst.signatures + ((0,) * 8,))

    reports, ordinal = _planted_q11(plant)
    result = verify.check_distinctness(reports=reports)
    assert not result.ok
    assert result.detail == (f"q=11 family {ordinal}: pair expansion gave "
                             f"11 != 121 vectors")


def test_c7_census_oracle():
    result = _criterion(verify.check_census(workers=2, reports=_reports))
    assert result.detail == (
        "canonical counts 8:0, 11:660, 13:494, 17:272, 19:228; every lam count=op; "
        "op_total=count*q; pp=q(q-1)|index| 11:24750, 13:17940, 17:56848, 19:38304")


def test_c7_census_fails_on_an_incomplete_class_table(monkeypatch):
    # the q = 11 index without the codes of one entry: op, cpp and the
    # totals still agree, but the census's permutations outnumber the index
    codes, ords = families.image_codes(11)
    keep = ords != ords[0]
    monkeypatch.setattr(verify, "CENSUS_ORDERS", (11,))
    monkeypatch.setattr(verify, "image_codes",
                        lambda q: (codes[keep], ords[keep]))
    result = verify.check_census(workers=1, reports=_reports)
    assert not result.ok
    assert result.detail == (f"q=11: pp 24750 != q(q-1) * {keep.sum()} index "
                             f"codes: the class table is incomplete")
    assert 0 < keep.sum() < 225


def test_c7_census_fails_on_an_f_minus_lam_x_count_that_is_not_op(monkeypatch):
    # a census one short at lam = -1 (cpp) alone: op and the totals agree,
    # and c7 names every lam count
    real = verify.census_counts

    def short(query, **kw):
        got = real(query, **kw)
        got["lam"][-1] -= 1
        return got

    monkeypatch.setattr(verify, "CENSUS_ORDERS", (11,))
    monkeypatch.setattr(verify, "census_counts", short)
    result = verify.check_census(workers=1, reports=_reports)
    assert not result.ok
    assert result.detail == f"q=11: f - lam*x counts {[660] * 9 + [659]} != op 660"


def _canned_census(monkeypatch, op):
    """c7 at q = 11 alone, its census replaced by canned counts."""
    monkeypatch.setattr(verify, "CENSUS_ORDERS", (11,))
    monkeypatch.setattr(verify, "census_counts",
                        lambda query, **kw: {"op": op, "lam": [op] * 10, "pp": 24_750})


def test_c7_census_fails_on_a_wrong_canonical_count(monkeypatch):
    _canned_census(monkeypatch, 661)
    result = verify.check_census(workers=1, reports=_reports)
    assert (result.ok, result.detail) == (False, "q=11: canonical census 661 != 660")


def test_c7_census_fails_when_op_total_is_not_the_count_times_q(monkeypatch):
    # the census agrees with the fixture; the pair search lost one pair
    _canned_census(monkeypatch, 660)
    result = verify.check_census(workers=1, reports={11: SimpleNamespace(op_total=7260 - 121)})
    assert (result.ok, result.detail) == (False, "q=11: op_total 7139 != canonical 660 * q")


def test_c8_classification_audit():
    # the permutation count shows a row the evaluator dropped even where
    # the table route dropped it too
    result = _criterion(verify.check_audit(n_random=100_000))
    assert result.detail == ("906185 polynomials audited, 268 permutations, "
                             "zero disagreements")


def test_c9_property_suite():
    _criterion(verify.check_properties(reports=_reports))


def test_c9_property_suite_fails_on_a_non_orthomorphism():
    # the shift-invariance input replaced by x^7, a permutation of F_11
    # whose x^7 - x is not one (it maps 0 and 1 to 0): every shift fails
    fake = SimpleNamespace(pair_count=1, signatures=[(0,) * 7 + (1,)])
    result = verify.check_properties(reports={11: SimpleNamespace(per_family=[fake])})
    assert not result.ok
    assert result.detail == "q=11: shift (0,0) breaks OP"


def test_c9_property_suite_fails_on_a_non_canonical_entry(monkeypatch):
    # x^7 + 6x^2 = e(2x)/2^7 for the first q = 11 entry e = x^7 + 5x^2
    table = table_for(11)
    planted = FamilyTable(11, (replace(table.entries[0], coeffs=(0, 0, 0, 6, 0)),)
                          + table.entries[1:])
    monkeypatch.setattr(verify, "table_for", lambda q: planted if q == 11 else table_for(q))
    result = verify.check_properties(reports=_reports)
    assert (result.ok, result.detail) == (False, "q=11: table entry not canonical")


def test_c9_property_suite_names_the_transform_that_breaks_constancy(monkeypatch):
    # the canonical tuple of row 5, the image under the fifth transform of
    # the q = 11 grid (a, b, c) = (1, 1, 4), moved off the entry's
    real = verify.canonical_rows

    def planted(field, rows):
        tuples, t = real(field, rows)
        tuples = tuples.copy()
        tuples[5] = (tuples[5] + 1) % field.q
        return tuples, t

    monkeypatch.setattr(verify, "canonical_rows", planted)
    result = verify.check_properties(reports=_reports)
    assert (result.ok, result.detail) == (
        False, "q=11: class constancy fails under LinearTransform(a=1, b=1, c=4, d=0)")


def test_one_direct_search_per_family(monkeypatch):
    # totals, method agreement and the property suite share one reports
    # memo: each order is searched once per route, all its classes in one
    # call (10 direct, 9 table), so each table family is searched directly
    # once, and so is x^7 at q = 41, the nonexistence order without a table
    calls, searched = Counter(), Counter()
    search = pairs.search_pairs

    def counted(field, entries, method="direct"):
        calls[field.q, method] += 1
        if method == "direct":
            searched.update((field.q, e.coeffs) for e in entries)
        return search(field, entries, method)

    monkeypatch.setattr(pairs, "search_pairs", counted)
    reports = {}
    for check in (verify.check_totals, verify.check_method_agreement,
                  verify.check_properties):
        assert check(reports=reports).ok
    want = Counter((q, e.coeffs) for q in verify.TABLE_ORDERS
                   for e in table_for(q).entries)
    want[41, (0, 0, 0, 0, 0)] += 1
    assert searched == want
    assert sum(searched.values()) == 106
    assert calls == Counter([(q, "direct") for q in (*verify.TABLE_ORDERS, 41)]
                            + [(q, "table") for q in verify.TABLE_ORDERS])
    assert sum(calls.values()) == 19


def _no_fork():
    """An os.fork stand-in that starts nothing."""
    raise AssertionError("forked")


def _lines(results):
    return [(r.name, r.ok, r.detail) for r in results]


def test_run_suite_is_the_same_on_one_and_two_workers(monkeypatch, no_child_left):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    two = _lines(verify.run_suite(workers=2))
    assert no_child_left()
    # one worker runs every audit item here and forks nothing
    monkeypatch.setattr(os, "fork", _no_fork)
    one = _lines(verify.run_suite(workers=1))
    assert no_child_left()
    assert one == two
    assert [name for name, *_ in one] == [
        "family-tables", "non-redundancy", "pair-fixtures", "totals",
        "method-agreement", "distinctness", "classification-audit",
        "property-suite"]
    assert all(ok for _, ok, _ in one)


def test_suite_pool_is_capped_at_the_cpus(monkeypatch, fork_log, no_child_left):
    # workers beyond the CPUs fork no more processes than CPUs - 1; the
    # report chain then stops at its first check
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})

    def planted():
        raise _Planted("chain")

    monkeypatch.setattr(verify, "check_family_tables", planted)
    with pytest.raises(_Planted, match="chain"):
        verify.run_suite(workers=100_000)
    assert len(fork_log) == 2 and no_child_left()


def _plant_disagreements(monkeypatch, orders):
    """The audit's class lookup misreads the first row of every call at
    `orders`, a class for a miss and a miss for a class: one call for the
    x^7 + a3 x^3 + a1 x sweep and one per 2^14 random rows.  Forked workers
    inherit the patch."""
    lookup = verify.class_lookup

    def planted(field, C):
        ords = lookup(field, C)
        if field.q in orders:
            ords = ords.copy()
            ords[0] = 0 if ords[0] else 1
        return ords

    monkeypatch.setattr(verify, "class_lookup", planted)


def test_audit_disagreement_fails_alike_on_one_and_two_workers(monkeypatch, capsys,
                                                               no_child_left):
    _plant_disagreements(monkeypatch, {49})
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    payloads = []
    for workers in ("2", "1"):
        assert cli.main(["verify", "--workers", workers, "--format", "json"]) == 1
        assert no_child_left()
        payloads.append(json.loads(capsys.readouterr().out)["results"])
    details = [[(r["name"], r["ok"], r["detail"]) for r in p] for p in payloads]
    assert details[0] == details[1]
    failed = [(name, detail) for name, ok, detail in details[0] if not ok]
    # the sweep and seven random batches (6 * 2^14 + 1,696 rows)
    assert failed == [("classification-audit", "q=49: 8 disagreements")]


def test_audit_reports_the_first_failing_order(monkeypatch):
    _plant_disagreements(monkeypatch, {13, 49})
    result = verify.check_audit(n_random=1_000)
    # the sweep and one random batch
    assert (result.ok, result.detail) == (False, "q=13: 2 disagreements")


class _Planted(Exception):
    pass


def test_an_error_in_a_forked_audit_item_propagates(monkeypatch, no_child_left):
    parent = os.getpid()
    lookup = verify.class_lookup

    def raising(field, C):
        if os.getpid() != parent:
            raise _Planted(f"q={field.q}")
        return lookup(field, C)

    monkeypatch.setattr(verify, "class_lookup", raising)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    with pytest.raises(_Planted):
        verify.run_suite(workers=2)
    assert no_child_left()
