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
    17, 19 gives the 0 / 660 / 494 / 272 / 228 op counts, cpp = op, and
    at 11-19 the mass identity pp = q(q-1)|index| (24,750 / 17,940 /
    56,848 / 38,304 permutations), which proves those class tables
    complete (about 5-6 s on 2 workers)
  8 classification-vs-direct audit: 1e5 random polynomials per field plus
    the exhaustive x^7 + a3 x^3 + a1 x sweep, zero disagreements
  9 property suite: transversal cardinalities, canonicalisation class
    constancy, orthomorphism shift invariance, pointwise transform law
"""

import json
import os
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import pytest

from ortho7 import cli, families, pairs, verify
from ortho7.families import table_for
from ortho7.pairs import EnumerationReport, count_ops

_reports: dict[int, EnumerationReport] = {}


def _criterion(result):
    print(f"\nACCEPTANCE {result.line()}")
    assert result.ok, result.detail
    return result


def test_c1_family_table_validation():
    _criterion(verify.check_family_tables())


def test_c2_non_redundancy():
    result = verify.check_non_redundancy()
    _criterion(result)
    assert result.detail == ("105 entries, 20448 class images, pairwise "
                             "disjoint per field: no linear relations")


def test_c3_pair_fixtures():
    _criterion(verify.check_pair_fixtures(_reports))


def test_c4_totals():
    _criterion(verify.check_totals(_reports))


def test_c5_method_agreement():
    _criterion(verify.check_method_agreement())


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
        "canonical counts 8:0, 11:660, 13:494, 17:272, 19:228; cpp=op; "
        "op_total=count*q; pp=q(q-1)|index| 11:24750, 13:17940, 17:56848, 19:38304")


def test_c7_census_fails_on_an_incomplete_class_table(monkeypatch):
    # the q = 11 index without the codes of one entry: op, cpp and the
    # totals still agree, but the census's permutations outnumber the index
    codes, ords, shifts = families.image_codes(11)
    keep = ords != ords[0]
    monkeypatch.setattr(verify, "CENSUS_ORDERS", (11,))
    monkeypatch.setattr(verify, "image_codes",
                        lambda q: (codes[keep], ords[keep], shifts[keep]))
    result = verify.check_census(workers=1, reports=_reports)
    assert not result.ok
    assert result.detail == (f"q=11: pp 24750 != q(q-1) * {keep.sum()} index "
                             f"codes: the class table is incomplete")
    assert 0 < keep.sum() < 225


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


def test_one_direct_search_per_family(monkeypatch):
    # totals, method agreement and the property suite share one reports
    # memo: each table family is searched directly once, and so is x^7 at
    # q = 41, the nonexistence order without a table
    calls = Counter()
    search = pairs.search_pairs_direct

    def counted(field, family):
        calls[field.q, family.coeffs] += 1
        return search(field, family)

    monkeypatch.setattr(pairs, "search_pairs_direct", counted)
    reports = {}
    for check in (verify.check_totals, verify.check_method_agreement,
                  verify.check_properties):
        assert check(reports=reports).ok
    want = Counter((q, e.coeffs) for q in verify.TABLE_ORDERS
                   for e in table_for(q).entries)
    want[41, (0, 0, 0, 0, 0)] += 1
    assert calls == want
    assert sum(calls.values()) == 106


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
        verify.run_suite(workers=100_000, audit_n=1_000)
    assert len(fork_log) == 2 and no_child_left()


def _plant_disagreements(monkeypatch, orders):
    """The class index misreads the first row of every batch at `orders`;
    forked workers inherit the patch."""
    lookup = families.class_lookup

    def planted(field, C):
        hit, ords, shifts = lookup(field, C)
        if field.q in orders:
            hit = hit.copy()
            hit[0] = not hit[0]
        return hit, ords, shifts

    monkeypatch.setattr(families, "class_lookup", planted)


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
    assert failed == [("classification-audit", "q=49: 7 disagreements")]


def test_audit_reports_the_first_failing_order(monkeypatch):
    _plant_disagreements(monkeypatch, {13, 49})
    result = verify.check_audit(n_random=1_000)
    assert (result.ok, result.detail) == (False, "q=13: 1 disagreements")


class _Planted(Exception):
    pass


def test_an_error_in_a_forked_audit_item_propagates(monkeypatch, no_child_left):
    parent = os.getpid()
    audit_random = verify.audit_random

    def raising(field, n, seed=0):
        if os.getpid() != parent:
            raise _Planted(f"q={field.q}")
        return audit_random(field, n, seed=seed)

    monkeypatch.setattr(verify, "audit_random", raising)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    with pytest.raises(_Planted):
        verify.run_suite(workers=2, audit_n=1_000)
    assert no_child_left()
