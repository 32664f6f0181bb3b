"""Pair search, both routes, against the published fixtures."""

import dataclasses
import json

import numpy as np
import pytest

from ortho7 import kernels
from ortho7.cli import main
from ortho7.errors import InvalidArgument, UnsupportedOrder
from ortho7.field import field_for
from ortho7.families import field_entries, table_for
from ortho7.pairs import (
    EnumerationReport,
    _dedup,
    count_ops,
    enumerate_ops,
    search_pairs,
    shift_blocks,
)
from ortho7.perm import is_orthomorphism
from ortho7.poly import LinearTransform, Poly, apply_transform


def _family(q, coeffs):
    for e in table_for(q).entries:
        if e.coeffs == coeffs:
            return e
    raise AssertionError(f"no family {coeffs} for q={q}")


def test_family1_pairs_q13(f13):
    res = search_pairs(f13, [_family(13, (0, 0, 0, 0, 2))])[0]
    assert set(res.pairs) == {(2, 5), (1, 10), (1, 3), (1, 5),
                              (2, 9), (2, 8), (2, 10), (1, 7)}
    assert all(is_orthomorphism(Poly(f13, sig)) for sig in res.signatures)


def test_family_pairs_q17():
    f17 = field_for(17)
    res = search_pairs(f17, [_family(17, (1, 0, 13, 0, 7))])[0]
    assert set(res.pairs) == {(1, 12), (2, 6), (3, 4), (4, 3),
                              (5, 16), (6, 2), (7, 9), (8, 10)}


def test_family_pairs_empty_q23():
    f23 = field_for(23)
    res = search_pairs(f23, [_family(23, (1, 1, 0, 4, 9))])[0]
    assert res.pairs == ()


def test_table_route_per_system_q13(f13):
    res = search_pairs(f13, [_family(13, (0, 0, 0, 0, 2))], "table")[0]
    by_target = {(s.target_ordinal, s.vanishing): set(s.pairs)
                 for s in res.systems}
    # matching against family 1 itself gives (2,5) and (1,10)
    assert by_target[(1, False)] == {(2, 5), (1, 10)}
    # family 2 gives four pairs, the vanishing x-coefficient case two more
    assert by_target[(2, False)] == {(1, 3), (1, 5), (2, 9), (2, 8)}
    assert by_target[(15, True)] == {(2, 10), (1, 7)}


def test_table_route_per_system_family3_q13(f13):
    res = search_pairs(f13, [_family(13, (0, 0, 2, 0, 8))], "table")[0]
    by_target = {(s.target_ordinal, s.vanishing): set(s.pairs)
                 for s in res.systems}
    assert by_target[(3, False)] == {(5, 7), (3, 3), (2, 11),
                                     (6, 8), (1, 9), (4, 12)}
    assert by_target[(4, False)] == set()
    assert by_target[(5, False)] == set()


def test_dedup_keeps_smallest_representative(f13):
    # (5,1) and (2,9) scale family 2 to the same polynomial 5x^7+4x;
    # the canonical representative is the lexicographically smaller (2,9)
    fam = _family(13, (0, 0, 0, 0, 6))
    res = search_pairs(f13, [fam])[0]
    assert (2, 9) in res.pairs and (5, 1) not in res.pairs
    rows = kernels.expand_shifts(f13, fam.poly(f13).coeffs, [5, 2], [1, 9], 0, 0)
    assert rows[0].tolist() == rows[1].tolist()
    assert res.signatures[res.pairs.index((2, 9))] == tuple(rows[1].tolist())
    assert len(set(res.signatures)) == len(res.pairs)
    assert list(res.pairs) == sorted(res.pairs)


def _dedup_reference(field, f, hit):
    # the void-record sort of whole rows: the first cell of each distinct row
    a, b = np.nonzero(hit)
    rows = kernels.expand_shifts(field, f.coeffs, a + 1, b + 1, 0, 0)
    first = np.sort(np.unique(rows, axis=0, return_index=True)[1])
    pairs = tuple(zip((a[first] + 1).tolist(), (b[first] + 1).tolist()))
    return pairs, tuple(map(tuple, rows[first].tolist()))


@pytest.mark.parametrize("q", [11, 25, 49, 251])
def test_dedup_matches_the_unique_reference(q):
    # random hit masks over every class entry; at q = 251 (x^7 alone, and a
    # random row of full support) 8-digit base-q row codes overflow int64
    fld = field_for(q)
    rng = np.random.default_rng(q)
    polys = [e.poly(fld) for e in field_entries(fld)]
    if q == 251:
        polys.append(Poly(fld, tuple(rng.integers(1, q, 8).tolist())))
    for f in polys:
        for density in (0.0, 0.05, 0.5, 1.0):
            hit = rng.random((q - 1, q - 1)) < density
            got = _dedup(fld, f.coeffs, hit)
            assert got == _dedup_reference(fld, f, hit), (q, f.coeffs, density)
            assert all(type(c) is int for sig in got[1] for c in sig)


def _shift_reference(field, sig):
    g = Poly(field, sig)
    return [apply_transform(g, LinearTransform(1, 1, gamma, delta)).coeffs
            for gamma in range(field.q) for delta in range(field.q)]


@pytest.mark.parametrize("q", [13, 49])
def test_shift_blocks_match_the_scalar_transform(q):
    # one block per signature, gamma-major then delta, as apply_transform
    # gives g(x+gamma)+delta; at q = 49 gamma only moves the constant
    fld = field_for(q)
    sigs = [sig for r in count_ops(q).per_family for sig in r.signatures[:2]]
    blocks = list(shift_blocks(fld, sigs))
    assert len(blocks) == len(sigs)
    for sig, block in zip(sigs, blocks):
        assert block.shape == (q * q, 8)
        assert [tuple(r) for r in block.tolist()] == _shift_reference(fld, sig)
    assert list(shift_blocks(fld, ())) == []


@pytest.mark.parametrize("q", [11, 13, 17, 19, 23, 25, 27, 31, 49])
def test_method_agreement(q):
    fld = field_for(q)
    entries = table_for(q).entries
    for e, d, t in zip(entries, search_pairs(fld, entries),
                       search_pairs(fld, entries, "table")):
        assert d.pairs == t.pairs, (q, e.ordinal)


@pytest.mark.parametrize("method", ["direct", "table"])
@pytest.mark.parametrize("q", [11, 13, 17, 19, 23, 25, 27, 31, 49, 41])
def test_a_batch_files_each_class_under_that_class(q, method):
    # one kernel call decides the whole batch, and each class gets what a
    # batch of that class alone gets, in the batch's order: a batch that
    # swapped or merged the hits of two classes would differ at the orders
    # with pairs.  A class named twice gets two equal results.
    fld = field_for(q)
    entries = field_entries(fld)
    batch = search_pairs(fld, entries, method)
    assert batch == [search_pairs(fld, [e], method)[0] for e in entries]
    twice = search_pairs(fld, [entries[-1], entries[0], entries[-1]], method)
    assert twice == [batch[-1], batch[0], batch[-1]]


def test_search_pairs_refuses_an_unknown_method(f13):
    with pytest.raises(InvalidArgument, match="unknown method"):
        search_pairs(f13, table_for(13).entries, "tables")


@pytest.mark.parametrize("q,total,exc", [(11, 60, 20), (13, 38, 4),
                                         (17, 16, 0), (19, 12, 3),
                                         (25, 96, 20), (49, 1640, 1640)])
def test_pair_totals(q, total, exc):
    rep = count_ops(q)
    assert rep.pair_total == total
    assert rep.exceptional_pair_total == exc
    assert rep.op_total == total * q * q


def test_q19_report_carries_note():
    rep = count_ops(19)
    assert rep.notes and "3" in rep.notes[0]


def test_enumerate_ops_distinct_and_sound(f13):
    rep = count_ops(13)
    polys = list(enumerate_ops(13, rep))
    assert len(polys) == rep.op_total == 6422
    assert len({p.coeffs for p in polys}) == 6422
    for p in polys[::311]:
        assert is_orthomorphism(p)


def _assert_normal_form(field, polys):
    # each row is already what Poly's own normalisation makes of it
    for p in polys:
        ref = Poly(field, p.coeffs)
        assert p == ref and hash(p) == hash(ref)
        assert all(type(c) is int for c in p.coeffs)
        assert p.degree == 7


def test_enumerate_ops_yields_normal_form_polys(f13, f49):
    # enumerate_ops builds its Polys without Poly's normalisation
    _assert_normal_form(f13, enumerate_ops(13))
    # one pair block per family at q = 49 (six of its ten families have
    # pairs), where (x+gamma)^7 = x^7 + gamma^7
    rep = count_ops(49)
    first = EnumerationReport(49, [
        dataclasses.replace(r, pairs=r.pairs[:1], signatures=r.signatures[:1])
        for r in rep.per_family])
    polys = list(enumerate_ops(49, first))
    assert len(polys) == first.pair_total * 49 * 49 == 6 * 49 * 49
    _assert_normal_form(f49, polys)


def test_enumerate_ops_empty_fields():
    assert list(enumerate_ops(23)) == []
    assert list(enumerate_ops(31)) == []


def test_q49_shift_collapse(f49):
    # characteristic 7: each pair's q^2 shifts produce exactly q distinct
    # polynomials (the additive constant), and op_total still counts
    # parameterizations to match the published figure
    rep = count_ops(49)
    assert rep.op_total == 1640 * 49 * 49
    assert any("parameterization" in n for n in rep.notes)
    fam = [r for r in rep.per_family if r.family.ordinal == 3][0]
    from ortho7.poly import LinearTransform, apply_transform

    g = Poly(f49, fam.signatures[0])
    seen = set()
    for gamma in f49.elements():
        sh = apply_transform(g, LinearTransform(1, 1, gamma, 0))
        co = list(sh.coeffs) + [0] * (8 - len(sh.coeffs))
        for delta in f49.elements():
            seen.add((f49.add(co[0], delta),) + tuple(co[1:]))
    assert len(seen) == 49


def test_nonexistence():
    # the pair search over the classes of each order comes up empty: the
    # tables at 23, 27 and 31, the lone class x^7 at 41 = 6 (mod 7)
    for q in (23, 27, 31, 41):
        assert count_ops(q).pair_total == 0
    with pytest.raises(UnsupportedOrder):
        count_ops(29)  # 29 = 1 (mod 7): no class table, no x^7 rule


def test_report_serialisation_shapes(capsys):
    # the JSON of `enumerate`: one family record per class and the totals
    assert main(["enumerate", "--q", "13", "--format", "json"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["q"] == 13
    assert d["totals"] == {"pair_total": 38, "op_total": 6422,
                           "exceptional_pair_total": 4, "exceptional_op_total": 676}
    assert len(d["results"]) == 15
    rec = d["results"][0]
    assert set(rec) == {"ordinal", "tuple", "exceptional", "method",
                        "pair_count", "pairs"}
