"""Class-table loading, validation, serialisation, and table-based tests.

The regeneration test at the bottom is the strongest oracle here: it
re-derives a field's entire table from nothing but the criteria and the
direct permutation check, confirming the shipped data is exhaustive and
correctly transcribed.
"""

import numpy as np
import pytest
from importlib import resources

from ortho7.canon import canonical_rows, canonicalize, criteria_mask
from ortho7.errors import DegreeMismatch, InvalidArgument, UnsupportedOrder
from ortho7 import families
from ortho7.families import (
    EXPECTED_COUNTS,
    FamilyEntry,
    FamilyTable,
    class_images,
    class_lookup,
    image_codes,
    image_witness,
    is_pp_by_table,
    load_family_tables,
    table_for,
)
from ortho7.field import FieldSpec, build_field, field_for
from ortho7.kernels import code_member, normalized_code_batch, pp_batch
from ortho7.perm import is_permutation
from ortho7.poly import LinearTransform, apply_transform, parse_poly
from reference import solve_linear_relation


def test_expected_counts_per_field():
    for q, (n_non, n_exc) in EXPECTED_COUNTS.items():
        table = table_for(q)
        assert len(table.non_exceptional()) == n_non
        assert len(table.exceptional()) == n_exc


def test_every_entry_is_a_permutation_polynomial():
    for q in sorted(EXPECTED_COUNTS):
        fld = field_for(q)
        for e in table_for(q).entries:
            assert is_permutation(e.poly(fld)), (q, e.ordinal)


def test_non_exceptional_entries_pass_criteria():
    for q in sorted(EXPECTED_COUNTS):
        if q % 7 == 0:
            continue
        entries = table_for(q).non_exceptional()
        ok = criteria_mask(field_for(q), [e.coeffs for e in entries])
        assert ok.all(), (q, [e.ordinal for e, k in zip(entries, ok) if not k])


@pytest.mark.parametrize("q", [11, 13, 17, 19, 23, 25, 27, 31])
def test_every_entry_is_its_own_canonical_form(q):
    # every entry of a p != 7 table, the exceptional ones included, is the
    # canonical form of its own row: one canonical_rows call per order
    entries = table_for(q).entries
    tuples, _ = canonical_rows(field_for(q), [e.coeff_row() for e in entries])
    assert [tuple(t) for t in tuples.tolist()] == [e.coeffs for e in entries]


HEADER = """\
# Degree-7 permutation polynomial class representatives over F_q:
# one linear-relation class per row, as x^7 + f5 x^5 + f4 x^4 + f3 x^3 + f2 x^2 + f1 x.
# Non-exceptional classes first, then exceptional ones; extension-field
# coefficients in basis form ('3+2t', t = the field's modulus root).
# Source-side corrections, both re-proved by the load-time checks:
#   q=27 ordinal 1 stores the canonical form of x^7 - x^3 + x;
#   q=49 ordinal 10 reconstructs a garbled published line as
#   x^7 + t x^5 + 5t^2 x^3 + 6t^3 x, the unique completion that is a
#   permutation polynomial and is linearly related to no other entry.
q,f5,f4,f3,f2,f1,exceptional,ordinal
"""


def serialize_family_tables(tables: dict[int, FamilyTable]) -> str:
    """The CSV text of the class tables, as `families.csv` ships it."""
    lines = [HEADER.rstrip("\n")]
    for q in sorted(tables):
        field = field_for(q)
        for e in tables[q].entries:
            lits = ",".join(field.format_element(c) for c in e.coeffs)
            lines.append(f"{q},{lits},{1 if e.exceptional else 0},{e.ordinal}")
    return "\n".join(lines) + "\n"


def test_serialisation_roundtrip_is_bit_exact():
    text = resources.files("ortho7").joinpath("data", "families.csv").read_text()
    assert serialize_family_tables(load_family_tables()) == text


def test_entry_10_at_49_is_the_reconstructed_line(f49):
    # entry 10 at q = 49 reconstructs a garbled source line: the stored
    # reading x^7 + t x^5 + 5t^2 x^3 + 6t^3 x
    entry = table_for(49).entries[9]
    assert entry.ordinal == 10
    want = parse_poly(f49, "x^7+tx^5+5t^2x^3+6t^3x")
    assert entry.poly(f49).coeffs == want.coeffs


def test_q27_entry_is_the_canonical_form_of_x7_minus_x3_plus_x(f27):
    entry = table_for(27).non_exceptional()[0]
    literal = parse_poly(f27, "x^7-x^3+x")
    cf, _ = canonicalize(literal)
    assert cf.tuple5 == entry.coeffs
    assert solve_linear_relation(entry.poly(f27), literal)


def test_is_pp_by_table_fixtures(f13, f49):
    e = is_pp_by_table(parse_poly(f13, "x^7+6x"))
    assert e is not None and e.coeffs == (0, 0, 0, 0, 6)
    assert is_pp_by_table(parse_poly(f13, "x^7+5x")) is None
    e = is_pp_by_table(parse_poly(field_for(19), "x^7"))
    assert e is not None and e.exceptional and e.coeffs == (0, 0, 0, 0, 0)
    # characteristic-7 route
    assert is_pp_by_table(parse_poly(f49, "x^7+tx")).ordinal == 3
    assert is_pp_by_table(parse_poly(f49, "x^7+x")) is None
    with pytest.raises(DegreeMismatch):
        is_pp_by_table(parse_poly(f13, "x^3"))


def test_is_pp_by_table_on_transformed_entries():
    import random

    rnd = random.Random(17)
    for q in sorted(EXPECTED_COUNTS):
        fld = field_for(q)
        for e in (table_for(q).entries[0], table_for(q).entries[-1]):
            t = LinearTransform(rnd.randrange(1, q), rnd.randrange(1, q),
                                rnd.randrange(q), rnd.randrange(q))
            got = is_pp_by_table(apply_transform(e.poly(fld), t))
            assert got is not None and got.ordinal == e.ordinal


def _planted_copy(fld, entry, b, c):
    """The monic zero-constant reduction of entry(bx + c), as an extra
    table entry: linearly related to `entry` by construction."""
    img = apply_transform(entry.poly(fld), LinearTransform(1, b, c, 0))
    a = fld.inv(img.coeff(7))
    g = apply_transform(img, LinearTransform(a, 1, 0,
                                             fld.neg(fld.mul(a, img.coeff(0)))))
    assert g.coeff(6) == 0
    n = len(table_for(fld.q).entries)
    return FamilyEntry(fld.q, tuple(g.coeff(i) for i in (5, 4, 3, 2, 1)),
                       entry.exceptional, n + 1)


# (q, entry index, b, c); c != 0 only in characteristic 7, where a shift
# keeps the x^6 coefficient zero
_PLANTS = ((13, 3, 2, 0), (25, 1, 7, 0), (49, 9, 5, 11))


def _image_verdict(fld, source, target):
    """Image-disjointness verdict: target lies in the class of source."""
    images = class_images(fld, [source])[0]
    hit, _ = code_member(images, normalized_code_batch(fld, target.coeff_row()))
    return bool(hit)


def test_image_verdict_agrees_with_linear_relation_search():
    rng = np.random.default_rng(3)
    for q in (11, 13, 25, 49):
        fld = field_for(q)
        entries = table_for(q).entries
        for _ in range(4):
            i, j = rng.choice(len(entries), 2, replace=False)
            related = bool(solve_linear_relation(entries[j].poly(fld),
                                                 entries[i].poly(fld)))
            assert _image_verdict(fld, entries[i], entries[j]) == related
            assert not related
    for q, k, b, c in _PLANTS:
        fld = field_for(q)
        entry = table_for(q).entries[k]
        copy = _planted_copy(fld, entry, b, c)
        assert copy.coeffs != entry.coeffs
        assert solve_linear_relation(copy.poly(fld), entry.poly(fld))
        assert _image_verdict(fld, entry, copy)
        assert _image_verdict(fld, copy, entry)


def test_non_redundancy_flags_planted_related_pair(monkeypatch, fresh_caches):
    from ortho7 import verify

    assert verify.check_non_redundancy().ok
    for q, k, b, c in _PLANTS:
        fld = field_for(q)
        table = table_for(q)
        copy = _planted_copy(fld, table.entries[k], b, c)
        planted = FamilyTable(q, table.entries + (copy,))
        # the check reads the class-image index, which is rebuilt from the
        # planted table once the index built before the plant is cleared
        monkeypatch.setattr(families, "table_for",
                            lambda n, q=q: planted if n == q else table_for(n))
        fresh_caches()
        result = verify.check_non_redundancy()
        assert not result.ok
        assert result.detail.startswith(
            f"q={q}: entries {k + 1} and {copy.ordinal} are linearly related")


def test_image_codes_cover_every_order_and_reject_overlap(monkeypatch, fresh_caches):
    for q in sorted(EXPECTED_COUNTS):
        codes, ords = image_codes(q)
        assert np.all(codes[1:] > codes[:-1])
        assert set(ords.tolist()) == {e.ordinal for e in table_for(q).entries}
    fld = field_for(13)
    table = table_for(13)
    planted = FamilyTable(13, table.entries + (
        _planted_copy(fld, table.entries[0], 3, 0),))
    monkeypatch.setattr(families, "table_for", lambda q: planted)
    fresh_caches()
    with pytest.raises(ValueError, match="overlap"):
        image_codes(13)


def test_image_witness_maps_related_polynomials_onto_their_entry():
    # the classify witness comes from the class-image index at every order
    for q in (11, 13, 25, 41, 49):
        fld = field_for(q)
        rng = np.random.default_rng(q)
        for entry in families.field_entries(fld):
            e = entry.poly(fld)
            for _ in range(4):
                a, b = (int(v) for v in rng.integers(1, q, 2))
                c, d = (int(v) for v in rng.integers(0, q, 2))
                f = apply_transform(e, LinearTransform(a, b, c, d))
                assert is_pp_by_table(f) == entry
                witness = image_witness(f)
                assert apply_transform(f, witness) == e, (q, entry.ordinal)
        # the scalar reference search finds the same transform among its own
        assert witness in solve_linear_relation(e, f), q


@pytest.mark.parametrize("q", [13, 49])
def test_image_witness_refuses_a_polynomial_in_no_class(q):
    # x^7 + x permutes neither F_13 nor F_49, so no class holds it and no
    # transform maps it onto an entry: the refusal names it and the order
    f = parse_poly(field_for(q), "x^7+x")
    assert is_pp_by_table(f) is None and not is_permutation(f)
    with pytest.raises(InvalidArgument, match=rf"^x\^7\+x is in no class at q={q}:"):
        image_witness(f)


def test_x7_rule_orders():
    # is_pp_by_table is a class-image lookup, which needs no hit mask, so
    # q = 83 works although the evaluation kernels stop at q = 63
    for q in (41, 83):
        fld = field_for(q)
        x7 = parse_poly(fld, "x^7")
        assert is_pp_by_table(x7).exceptional
        shifted = apply_transform(x7, LinearTransform(3, 5, 2, 9))
        assert is_pp_by_table(shifted) is not None
        assert is_pp_by_table(parse_poly(fld, "x^7+x")) is None
        assert len(image_codes(q)[0]) == 1  # every x^7 image clears to x^7
        ords = class_lookup(fld, [shifted.coeffs, (0, 1, 0, 0, 0, 0, 0, 1)])
        assert ords.tolist() == [1, 0]
    with pytest.raises(UnsupportedOrder):
        is_pp_by_table(parse_poly(field_for(43), "x^7"))  # 43 = 1 (mod 7)


def test_x7_rule_past_six_digit_codes(fresh_caches):
    # 1483 = 6 (mod 7) lies past q^6 < 2^63; with x^6 cleared the codes
    # have five digits.  A fresh cache lets the large field go afterwards.
    fld = build_field(FieldSpec(1483, 1, (0, 1)))
    x7 = parse_poly(fld, "x^7")
    f = apply_transform(x7, LinearTransform(3, 5, 2, 9))
    assert is_pp_by_table(f).exceptional
    assert apply_transform(f, image_witness(f)) == x7
    assert is_pp_by_table(parse_poly(fld, "x^7+x")) is None
    assert len(families._class_index(fld)[0]) == 1


def test_x7_rule_in_a_field_without_preset():
    # 125 = 6 (mod 7) has no preset field; the class-image index is built
    # in the caller's field
    fld = build_field(FieldSpec(5, 3, (2, 0, 1, 1)))
    x7 = parse_poly(fld, "x^7")
    shifted = apply_transform(x7, LinearTransform(3, 7, 2, 9))
    x7x = parse_poly(fld, "x^7+x")
    assert is_pp_by_table(shifted).exceptional
    assert is_pp_by_table(x7x) is None
    ords = class_lookup(fld, [shifted.coeffs, x7x.coeffs])
    assert ords.tolist() == [1, 0]


@pytest.mark.parametrize("q", [11, 13, 25, 41, 49])
def test_class_lookup_answers_0_for_a_row_without_x7(q):
    # with x^7 coefficient 0 the monic columns come out 0, which is the
    # code of x^7 itself: without the lead guard these rows are filed
    # under x^7's class (a permutation at each of these orders)
    fld = field_for(q)
    x7 = (0,) * 7 + (1,)
    rows = [(0, 5, 0, 0, 0, 0, 0, 0), (0,) * 8, (1, 2, 3, 0, 0, 0, 0, 0), x7]
    ords = class_lookup(fld, rows)
    assert ords[:3].tolist() == [0, 0, 0]
    assert ords[3] == is_pp_by_table(parse_poly(fld, "x^7")).ordinal > 0


def test_an_order_without_a_class_table_is_refused():
    with pytest.raises(UnsupportedOrder, match="^no class table for q=29$"):
        table_for(29)


def test_table_orders_need_the_preset_field():
    # the q = 25 entries are encoded in the preset field; under another
    # primitive modulus the same integers are other polynomials
    fld = build_field(FieldSpec(5, 2, (2, 1, 1)))
    assert fld != field_for(25)
    h = parse_poly(fld, "x^7")
    with pytest.raises(UnsupportedOrder, match="preset field"):
        is_pp_by_table(h)
    with pytest.raises(UnsupportedOrder, match="preset field"):
        class_lookup(fld, h.coeffs)


def _disagreements(fld, C):
    """The rows of C where the direct check `pp_batch` and class membership
    by the class-image index disagree, as verify's audit compares them."""
    return C[pp_batch(fld, C) != (class_lookup(fld, C) > 0)].tolist()


def _support_rows(q, positions):
    """Every monic x^7 + sum a_i x^i with the given support positions, the
    a_i ranging over the whole field (zeros included)."""
    C = np.zeros((q ** len(positions), 8), dtype=np.int64)
    C[:, 7] = 1
    C[:, list(positions)] = np.indices((q,) * len(positions)).reshape(len(positions), -1).T
    return C


@pytest.mark.parametrize("q", [11, 13, 23, 25, 27, 41, 49])
def test_audit_random_small(q):
    # leads uniform over F_q*, the rest over F_q, in verify's draw order
    rng = np.random.default_rng(q)
    C = rng.integers(0, q, size=(4000, 8), dtype=np.int64)
    C[:, 7] = rng.integers(1, q, size=4000, dtype=np.int64)
    assert _disagreements(field_for(q), C) == []
    assert len(C) == 4000


@pytest.mark.parametrize("q", [13, 19, 31])
def test_audit_support_shapes(q):
    C = _support_rows(q, (3, 1))
    assert _disagreements(field_for(q), C) == [] and len(C) == q * q


def test_audit_all_low_support_shapes_q13(f13):
    # exhaustive over canonical x^7 + a_i x^i + a_j x^j for every position
    # pair: every polynomial with at most two nonzero lower coefficients
    from itertools import combinations

    for positions in combinations((1, 2, 3, 4, 5), 2):
        C = _support_rows(13, positions)
        assert _disagreements(f13, C) == [] and len(C) == 169, positions


def test_audit_linear_tail_q23():
    C = _support_rows(23, (1,))
    assert _disagreements(field_for(23), C) == [] and len(C) == 23


def _regenerate_table(q):
    """Independent oracle: every (g5..g1) tuple that passes the criteria
    and is a permutation polynomial, found by exhaustive enumeration."""
    fld = field_for(q)
    tuples = np.indices((q,) * 5).reshape(5, -1).T  # every (g5..g1)
    tuples = tuples[criteria_mask(fld, tuples)]
    rows = np.zeros((len(tuples), 8), dtype=np.int64)
    rows[:, 5:0:-1], rows[:, 7] = tuples, 1
    keep = pp_batch(fld, rows)
    return set(map(tuple, tuples[keep].tolist()))


@pytest.mark.parametrize("q", [11, 13])
def test_table_regeneration_from_scratch(q):
    got = _regenerate_table(q)
    want = {e.coeffs for e in table_for(q).entries}
    assert got == want
