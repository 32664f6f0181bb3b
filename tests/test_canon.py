import itertools
import random

import numpy as np
import pytest

from ortho7 import canon
from ortho7.canon import (
    CanonicalForm,
    canonical_rows,
    canonicalize,
    criteria_mask,
    support_index,
)
from ortho7.errors import (
    CharacteristicSeven,
    DegreeMismatch,
    UniquenessViolation,
)
from ortho7.families import table_for
from ortho7.field import FieldSpec, build_field, field_for
from ortho7.poly import (
    LinearTransform,
    Poly,
    apply_transform,
    parse_poly,
)
from reference import ci_set, ck_set, solve_linear_relation


def test_ck_ci_fixtures(f11, f13):
    # ordered generator powers; as a set {1,2,3,4,6,8}
    assert ck_set(f13, 6) == [1, 2, 4, 8, 3, 6]
    assert set(ck_set(f13, 6)) == {1, 2, 3, 4, 6, 8}
    assert ck_set(f13, 1) == [1]
    assert ck_set(f11, 6) == [1, 2]
    assert ci_set(f13, 12) == [1]
    assert ci_set(f13, 6) == [1, 2]
    assert len(ci_set(f13, 1)) == 12


def test_ck_ci_cardinality_identity():
    for q in (11, 13, 17, 19, 23, 25, 27, 31, 49):
        fld = field_for(q)
        for m in range(1, q + 2):
            assert len(ck_set(fld, m)) * len(ci_set(fld, m)) == q - 1


def criteria_check(poly):
    """criteria_mask on one normalised degree-7 Poly."""
    assert poly.degree == 7 and poly.coeff(7) == 1 and poly.coeff(0) == 0
    assert poly.field.p == 7 or poly.coeff(6) == 0
    return bool(criteria_mask(poly.field, [poly.coeff(i) for i in (5, 4, 3, 2, 1)]))


def test_criteria_fixtures(f13):
    assert not criteria_check(parse_poly(f13, "x^7+5x"))  # 5 not in ck(6)
    assert criteria_check(parse_poly(f13, "x^7+2x"))
    assert criteria_check(parse_poly(f13, "x^7"))  # vacuous


def _criteria_by_sets(fld, g5, g4, g3, g2, g1):
    """The criteria clauses read as membership in the ck_set/ci_set lists."""
    g = (g5, g4, g3, g2, g1)
    t = support_index(g)
    if t == 0:
        return True
    m = 7 - t
    gt1 = g[6 - t] if t >= 2 else 0
    return (g[5 - t] in ck_set(fld, m)
            and (gt1 == 0 or gt1 in ci_set(fld, m))
            and not (fld.q % 7 == 0 and gt1 != 0)
            and not (t == 5 and g4 == 0 and g2 != 0 and g2 not in ci_set(fld, 2))
            and not (t == 4 and g3 == 0 and g2 != 0 and g2 not in ci_set(fld, 3))
            and not (t == 3 and g2 == 0 and fld.q % 4 == 1
                     and g1 != 0 and g1 not in ci_set(fld, 2)))


def test_criteria_read_the_field_they_are_given(f25):
    # two fields of order 25 with different generators: the verdicts must
    # come from each field's own transversals, whatever was asked before
    other = build_field(FieldSpec(5, 2, (2, 1, 1)))
    tuples = [(0, 0) + g for g in itertools.product(range(25), repeat=3)]
    got = [criteria_mask(fld, tuples) for fld in (f25, other)]
    for fld, verdicts in zip((f25, other), got):
        for tup, v in zip(tuples, verdicts.tolist()):
            assert v == _criteria_by_sets(fld, *tup), (fld.spec, tup)
    assert np.count_nonzero(got[0] != got[1]) == 806


def test_criteria_match_the_set_definitions():
    rnd = random.Random(5)
    for q in (11, 13, 17, 19, 23, 25, 27, 29, 31, 37, 41, 49):
        fld = field_for(q)
        tuples = [tuple(rnd.choice((0, rnd.randrange(q))) for _ in range(5))
                  for _ in range(2000)]
        for tup, v in zip(tuples, criteria_mask(fld, tuples).tolist()):
            assert v == _criteria_by_sets(fld, *tup), (q, tup)


def test_support_index():
    assert support_index((0, 0, 0, 0, 0)) == 0
    assert support_index((0, 0, 0, 0, 2)) == 1
    assert support_index((1, 0, 0, 1, 0)) == 5


def test_canonicalize_identity_and_known_class(f13):
    h = parse_poly(f13, "x^7+2x")
    cf, t = canonicalize(h)
    assert isinstance(cf, CanonicalForm)
    assert cf.poly.coeffs == h.coeffs and cf.t_index == 1
    # x^7+5x is not canonical (5 outside ck(6)); its representative is
    # x^7+8x, still of shape (0,0,0,0,a1) with a1 in ck(6)
    cf, t = canonicalize(parse_poly(f13, "x^7+5x"))
    assert cf.tuple5 == (0, 0, 0, 0, 8)
    assert cf.tuple5[4] in ck_set(f13, 6)
    assert apply_transform(parse_poly(f13, "x^7+5x"), t).coeffs == cf.poly.coeffs


@pytest.mark.parametrize("q", [11, 13, 17, 19, 23, 25, 27, 31])
def test_canonicalize_roundtrip_under_random_transforms(q):
    # canonicalize builds its witness (a, b, c, -a*h(c)) in one step: check
    # it at every table order, on images of the canonical table entries
    fld = field_for(q)
    rnd = random.Random(q)
    bases = [e.poly(fld) for e in table_for(q).non_exceptional()]
    for _ in range(80):
        base = rnd.choice(bases)
        t0 = LinearTransform(rnd.randrange(1, q), rnd.randrange(1, q),
                             rnd.randrange(q), rnd.randrange(q))
        h = apply_transform(base, t0)
        cf, tw = canonicalize(h)
        assert cf.poly.coeffs == base.coeffs
        assert apply_transform(h, tw).coeffs == base.coeffs


def _exhaustive_forms(h):
    """Criteria-passing (b, (g5..g1)) over the literal (b, c) in F_q* x F_q
    enumeration, in that order: a and d make h(bx+c) monic with zero
    constant, and a zero x^6 coefficient is kept whatever a is."""
    fld = h.field
    forms = []
    for b in range(1, fld.q):
        for c in fld.elements():
            img = apply_transform(h, LinearTransform(1, b, c, 0))
            if img.coeff(6) != 0:
                continue
            a = fld.inv(img.coeff(7))
            d = fld.neg(fld.mul(a, img.coeff(0)))
            g = apply_transform(img, LinearTransform(a, 1, 0, d))
            tup = tuple(g.coeff(i) for i in (5, 4, 3, 2, 1))
            if _criteria_by_sets(fld, *tup):
                forms.append((b, tup))
    return forms


@pytest.mark.parametrize("q", [11, 13, 17])
def test_canonicalize_matches_exhaustive_enumeration(q):
    fld = field_for(q)
    rnd = random.Random(q)
    for _ in range(8):
        h = Poly(fld, tuple(rnd.randrange(q) for _ in range(7))
                 + (rnd.randrange(1, q),))
        fast, _ = canonicalize(h)
        assert {tup for _, tup in _exhaustive_forms(h)} == {fast.tuple5}


@pytest.mark.parametrize("q", [11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 37, 41])
def test_canonical_rows_match_exhaustive_enumeration(q):
    # random rows, and images a*g(bx+c)+d of sparse normalised g, so that
    # every support index and the zero-coefficient clauses occur
    fld = field_for(q)
    rnd = random.Random(100 + q)
    rows = [tuple(rnd.randrange(q) for _ in range(7)) + (rnd.randrange(1, q),)
            for _ in range(3)]
    for support in ((), (1,), (3, 1), (4, 2), (5, 2), (5, 4, 3, 2, 1)):
        g = [0] * 8
        g[7] = 1
        for i in support:
            g[i] = rnd.randrange(1, q)
        t = LinearTransform(rnd.randrange(1, q), rnd.randrange(1, q),
                            rnd.randrange(q), rnd.randrange(q))
        rows.append(apply_transform(Poly(fld, tuple(g)), t).coeffs)
    tuples, bs = canonical_rows(fld, rows)
    for row, tup, b in zip(rows, tuples.tolist(), bs.tolist()):
        forms = _exhaustive_forms(Poly(fld, row))
        assert {form for _, form in forms} == {tuple(tup)}, (q, row)
        assert forms[0][0] == b, (q, row)


def test_canonicalize_reproves_uniqueness(f13, monkeypatch):
    h = parse_poly(f13, "x^7+2x")
    monkeypatch.setattr(canon, "criteria_mask",
                        lambda field, G: np.ones(np.shape(G)[:-1], dtype=bool))
    with pytest.raises(UniquenessViolation, match="distinct criteria-passing forms"):
        canonicalize(h)
    monkeypatch.setattr(canon, "criteria_mask",
                        lambda field, G: np.zeros(np.shape(G)[:-1], dtype=bool))
    with pytest.raises(UniquenessViolation, match="no criteria-passing form"):
        canonicalize(h)


@pytest.mark.parametrize("fill, message", [
    (True, r"distinct criteria-passing forms .* \(row 4\)"),
    (False, r"no criteria-passing form in the class of row 4 "),
], ids=["all-pass", "none-pass"])
def test_canonical_rows_name_the_row_that_breaks_uniqueness(f13, monkeypatch,
                                                             fill, message):
    # one planted row in the middle of a batch: every rescaling passes, or
    # none does; the other rows keep the real criteria
    rng = np.random.default_rng(4)
    C = rng.integers(1, 13, size=(9, 8))
    real = canon.criteria_mask
    canonical_rows(f13, C)

    def planted(field, G):
        ok = real(field, G)
        ok[4] = fill
        return ok

    monkeypatch.setattr(canon, "criteria_mask", planted)
    with pytest.raises(UniquenessViolation, match=message):
        canonical_rows(f13, C)


def test_canonicalize_guards(f13, f49):
    with pytest.raises(DegreeMismatch):
        canonicalize(parse_poly(f13, "x^3+x"))
    with pytest.raises(CharacteristicSeven):
        canonicalize(parse_poly(f49, "x^7+tx"))


def test_canonical_rows_refuse_a_row_without_x7(f13):
    with pytest.raises(DegreeMismatch, match="^canonical forms need degree-7 rows$"):
        canonical_rows(f13, [parse_poly(f13, "x^7+2x").coeffs, (0, 1, 0, 0, 0, 0, 0, 0)])


def test_solve_linear_relation_fixtures(f13):
    h = parse_poly(f13, "x^7+2x")
    assert any(t.as_tuple() == (1, 1, 0, 0) for t in solve_linear_relation(h, h))
    # the worked nonexistence example: x^7+5x is related to neither
    # x^7+2x nor x^7+6x
    assert solve_linear_relation(parse_poly(f13, "x^7+5x"),
                                 parse_poly(f13, "x^7+2x")) == []
    assert solve_linear_relation(parse_poly(f13, "x^7+5x"),
                                 parse_poly(f13, "x^7+6x")) == []


def test_solve_linear_relation_roundtrip(f25):
    rnd = random.Random(3)
    f = parse_poly(f25, "x^7+tx^5+(3+t)x^3")
    for _ in range(10):
        t0 = LinearTransform(rnd.randrange(1, 25), rnd.randrange(1, 25),
                             rnd.randrange(25), rnd.randrange(25))
        h = apply_transform(f, t0)
        sols = solve_linear_relation(h, f)
        assert any(t.as_tuple() == t0.as_tuple() for t in sols)
        for t in sols:
            assert apply_transform(f, t).coeffs == h.coeffs


def test_solve_linear_relation_degree_guard(f13):
    with pytest.raises(DegreeMismatch):
        solve_linear_relation(parse_poly(f13, "x^2"), parse_poly(f13, "x^7"))
