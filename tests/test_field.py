import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ortho7.errors import (
    DivisionByZero,
    DlogOfZero,
    InvalidArgument,
    NonPrimeP,
    NonPrimitiveModulus,
    ParseError,
    ReducibleModulus,
    UnsupportedOrder,
)
from ortho7 import field
from ortho7.field import FieldSpec, build_field, field_for, preset_orders


def test_preset_registry_complete():
    assert preset_orders() == [8, 11, 13, 16, 17, 19, 23, 25, 27, 31, 41, 49]


@pytest.mark.parametrize("q", [8, 11, 13, 16, 17, 19, 23, 25, 27, 31, 41, 49])
def test_preset_generator_has_full_order(q):
    f = field_for(q)
    seen = set(int(v) for v in f.exp_t)
    assert len(seen) == q - 1 and 0 not in seen
    assert f.exp_t[0] == 1
    # the powers of the pinned generator: g^k mod q, or x^k mod the modulus
    if f.r == 1:
        want = [pow(f.theta, k, q) for k in range(q - 1)]
    else:
        want = _x_powers(f.spec.modulus, f.p, q - 1)
    assert f.exp_t.tolist() == want


def test_prime_field_generators_are_least_primitive_roots():
    # classical least primitive roots
    for q, g in ((11, 2), (13, 2), (17, 3), (19, 2), (23, 5), (31, 3), (41, 6)):
        assert field_for(q).theta == g


def test_f13_dlog_fixtures(f13):
    assert f13.theta == 2
    assert f13.dlog(1) == 0
    assert f13.dlog(2) == 1
    assert f13.dlog(8) == 3  # 2^3 = 8
    with pytest.raises(DlogOfZero):
        f13.dlog(0)


def test_f25_modulus_relation_and_primitivity(f25):
    # root of x^2 - x + 2, i.e. theta = theta^2 + 2
    th = f25.theta
    assert f25.add(f25.pow(th, 2), f25.from_int(2)) == th
    assert f25.pow(th, 24) == 1
    assert all(f25.pow(th, k) != 1 for k in range(1, 24))


def test_f49_modulus_relation(f49):
    # root of x^2 + 6x + 3: theta^2 = theta + 4
    th = f49.theta
    assert f49.pow(th, 2) == f49.add(th, f49.from_int(4))
    assert f49.q == 49


def test_inverse_and_fermat_all_presets():
    for q in preset_orders():
        f = field_for(q)
        for a in f.nonzero():
            assert f.mul(a, f.inv(a)) == 1
        for a in f.elements():
            assert f.pow(a, q) == a


@pytest.mark.parametrize("q", preset_orders())
def test_scalar_operations_match_the_tables(q):
    # the scalar operations read the kernels' numpy tables (add, sub, mul
    # and neg are their bound `item`): the same values, as plain ints, also
    # for numpy integer arguments
    f = field_for(q)

    def table_pow(a, n):
        return int(f.exp_t[f.log_t[a] * n % (q - 1)]) if a else int(n == 0)

    for a in range(q):
        ops = [(f.neg, (a,), f.neg_t[a])]
        if a:
            ops.append((f.inv, (a,), f.inv_t[a]))
        for b in range(q):
            ops += [(f.add, (a, b), f.add_t[a, b]), (f.sub, (a, b), f.sub_t[a, b]),
                    (f.mul, (a, b), f.mul_t[a, b]), (f.pow, (a, b), table_pow(a, b))]
        for op, args, want in ops:
            got = op(*args)
            assert type(got) is int and got == want, (op.__name__, args)
            got = op(*map(np.int64, args))
            assert type(got) is int and got == want, (op.__name__, args)


def test_large_field_holds_its_three_tables_and_little_else():
    # q = 1483 (prime, 6 mod 7, a class-index order past the presets): the
    # add, sub and mul tables are 16.8 MiB each; nothing else may grow as q^2
    tracemalloc.start()
    try:
        f = build_field(FieldSpec(1483, 1, (0, 1)))
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert f.add_t.nbytes == f.sub_t.nbytes == f.mul_t.nbytes == 1483**2 * 8
    assert retained <= 56 * 2**20 and peak <= 96 * 2**20, (retained, peak)
    assert f.mul(f.theta, f.inv(f.theta)) == 1 and f.add(1482, 1) == 0


def test_a_preset_whose_generator_disagrees_is_refused(monkeypatch, fresh_caches):
    # the registry names 2 as the generator of F_13; a registry naming 6,
    # also primitive, disagrees with the built field
    entry = dict(field._load_presets()[13], generator_index=6)
    monkeypatch.setattr(field, "_load_presets", lambda: {13: entry})
    with pytest.raises(NonPrimitiveModulus,
                       match="^preset generator mismatch for q=13: built 2, registry says 6$"):
        field_for(13)


def test_orders_past_the_table_budget_are_refused_first(monkeypatch):
    # the budget holds the three 24 q^2-byte tables and reaches q = 6208,
    # the int64 limit of the class-image codes
    assert 24 * field.MAX_ORDER ** 2 <= field.TABLE_BYTES < 24 * (field.MAX_ORDER + 1) ** 2
    assert field.MAX_ORDER >= 6208

    def never(*args):
        raise AssertionError("reached")

    # p^r past the budget: refused before the orbit, and without forming
    # p^r (2^(10^9) alone takes seconds)
    monkeypatch.setattr(field, "_orbit", never)
    for spec in (FieldSpec(3, 20, (2,) + (0,) * 18 + (1, 1)),
                 FieldSpec(2, 10**9, (1, 1)), FieldSpec(83, 2, (1, 1, 1))):
        with pytest.raises(UnsupportedOrder, match="table budget"):
            build_field(spec)
    # an order past it: refused before the trial division of is_prime
    monkeypatch.setattr(field, "is_prime", never)
    for q in (field.MAX_ORDER + 1, 6691, 10**9 + 7, 10**20 + 39):
        with pytest.raises(UnsupportedOrder, match="table budget"):
            build_field(FieldSpec(q, 1, (0, 1)))
        with pytest.raises(UnsupportedOrder, match="table budget"):
            field_for(q)


def test_inv_zero_raises(f13):
    with pytest.raises(DivisionByZero):
        f13.inv(0)
    with pytest.raises(DivisionByZero):
        f13.pow(0, -1)


def test_inv_pow_dlog_refuse_integers_outside_the_field(f49):
    # a negative element would read the tables from their end
    # (inv(-1) was the inverse of 48), and q itself ran past them
    for a in (-1, 49):
        for op in (f49.inv, f49.dlog, lambda a: f49.pow(a, 1)):
            with pytest.raises(InvalidArgument, match="not an element of F_49"):
                op(a)


def test_pow_reduces_exponent_mod_group_order(f13, f25):
    assert f13.pow(2, 12) == 1
    assert f13.pow(2, 12 * 10**9 + 3) == f13.pow(2, 3)
    assert f25.pow(f25.theta, -1) == f25.inv(f25.theta)
    assert f13.pow(0, 0) == 1 and f13.pow(0, 5) == 0


def test_field_axioms_exhaustive_small():
    # all triples for q <= 13
    for q in (11, 13):
        f = field_for(q)
        elems = range(q)
        for a, b, c in itertools.product(elems, repeat=3):
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
            assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 48), st.integers(0, 48), st.integers(0, 48))
def test_field_axioms_random_f49(a, b, c):
    f = field_for(49)
    assert f.add(a, b) == f.add(b, a)
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    assert f.sub(a, b) == f.add(a, f.neg(b))


def test_exp_log_roundtrip_all_presets():
    for q in preset_orders():
        f = field_for(q)
        for x in f.nonzero():
            assert f.exp_t[f.log_t[x]] == x


def test_construction_errors():
    with pytest.raises(NonPrimeP):
        build_field(FieldSpec(12, 1, (0, 1)))
    with pytest.raises(ReducibleModulus):
        build_field(FieldSpec(5, 2, (1, 0, 1)))  # x^2+1 = (x-2)(x-3) mod 5
    with pytest.raises(NonPrimitiveModulus):
        build_field(FieldSpec(5, 2, (2, 0, 1)))  # irreducible, root order 8
    with pytest.raises(ValueError):
        build_field(FieldSpec(5, 2, (1, 1)))  # not degree 2


def _monic(p, d):
    """Every monic polynomial of degree d over F_p, ascending."""
    return [low + (1,) for low in itertools.product(range(p), repeat=d)]


def _pmul(u, v, p):
    out = [0] * (len(u) + len(v) - 1)
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            out[i + j] = (out[i + j] + a * b) % p
    return tuple(out)


def _x_powers(m, p, n):
    """x^0 .. x^(n-1) mod the monic m, as digit-encoded residues, by
    schoolbook multiplication by x and reduction of the top term."""
    r = len(m) - 1
    out, u = [], (1,) + (0,) * (r - 1)
    for _ in range(n):
        out.append(sum(c * p ** k for k, c in enumerate(u)))
        w = list(_pmul(u, (0, 1), p))  # degree r: one reduction step
        u = tuple((w[k] - w[r] * m[k]) % p for k in range(r))
    return out


# (p, r) of every monic modulus built below: 440 moduli in all
_MODULUS_SHAPES = [(2, r) for r in range(2, 7)] + [(3, 2), (3, 3), (3, 4),
                                                   (5, 2), (5, 3), (7, 2)]


def test_every_small_modulus_gets_its_brute_force_verdict():
    built = 0
    for p, r in _MODULUS_SHAPES:
        q = p ** r
        products = {_pmul(u, v, p) for d in range(1, r)
                    for u in _monic(p, d) for v in _monic(p, r - d)}
        primitive = 0
        for m in _monic(p, r):
            built += 1
            powers = _x_powers(m, p, q)
            full = len(set(powers[:q - 1])) == q - 1 and powers[q - 1] == 1
            if m in products:
                with pytest.raises(ReducibleModulus):
                    build_field(FieldSpec(p, r, m))
            elif not full:
                with pytest.raises(NonPrimitiveModulus):
                    build_field(FieldSpec(p, r, m))
            else:
                f = build_field(FieldSpec(p, r, m))
                assert f.theta == p and f.exp_t.tolist() == powers[:q - 1]
                assert len(set(f.exp_t.tolist())) == q - 1
                primitive += 1
        # phi(q - 1) / r primitive monic polynomials of degree r
        phi = sum(1 for k in range(1, q) if math.gcd(k, q - 1) == 1)
        assert primitive == phi // r, (p, r)
    assert built == 440


def test_prime_fields_use_the_brute_force_least_primitive_root():
    for p in range(2, 200):
        if not all(p % d for d in range(2, p)):
            continue
        g = next(g for g in range(1, p)
                 if len({pow(g, k, p) for k in range(p - 1)}) == p - 1)
        f = build_field(FieldSpec(p, 1, (0, 1)))
        assert f.theta == g and f.exp_t.tolist() == [pow(g, k, p)
                                                     for k in range(p - 1)]


def test_non_preset_prime_field_on_demand():
    f = field_for(43)
    assert f.q == 43
    assert f.mul(6, f.inv(6)) == 1
    with pytest.raises(UnsupportedOrder, match="no preset field"):
        field_for(12)


def _reference_literal(f, a):
    """The canonical literal of element a, from its base-p digits: the
    nonzero basis terms in ascending order, coefficient 1 left implicit."""
    digits = [(a // f.p ** k) % f.p for k in range(f.r)]
    parts = []
    for k, d in enumerate(digits):
        if d == 0:
            continue
        if k == 0:
            parts.append(str(d))
        else:
            var = "t" if k == 1 else f"t^{k}"
            parts.append(var if d == 1 else f"{d}{var}")
    return "+".join(parts) if parts else "0"


def test_element_literals_and_roundtrip(f25):
    fields = [field_for(q) for q in preset_orders()]
    fields.append(build_field(FieldSpec(5, 3, (2, 0, 1, 1))))  # q = 125, no preset
    for f in fields:
        assert len(f.literals) == f.q
        for a in f.elements():
            assert f.format_element(a) == _reference_literal(f, a), (f, a)
            assert f.parse_element(f.format_element(a)) == a
    f125 = fields[-1]
    assert f125.format_element(5) == "t" and f125.format_element(124) == "4+4t+4t^2"
    assert f25.parse_element("t^5") == f25.pow(f25.theta, 5)
    assert f25.parse_element("4t^3") == f25.mul(4, f25.pow(f25.theta, 3))
    assert f25.parse_element("3+2t") == f25.add(3, f25.mul(2, f25.theta))
    assert f25.parse_element("-1") == f25.neg(1)
    with pytest.raises(ParseError):
        f25.parse_element("")
    with pytest.raises(ParseError):
        field_for(13).parse_element("2t")  # no generator symbol in prime fields
