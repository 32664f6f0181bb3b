import random

import pytest
from hypothesis import given, settings, strategies as st

from ortho7.errors import InvalidArgument, ParseError
from ortho7.field import field_for
from ortho7.poly import (
    MAX_EXPONENT,
    LinearTransform,
    Poly,
    apply_transform,
    eval_poly,
    format_poly,
    parse_poly,
)


def test_parse_both_literal_forms(f13, f25):
    f = parse_poly(f13, "x^7+2x")
    assert f.coeffs == (0, 2, 0, 0, 0, 0, 0, 1)
    assert parse_poly(f13, "0,2,0,0,0,0,0,1").coeffs == f.coeffs
    assert parse_poly(f13, "x^7 - x^3 + x").coeffs == (0, 1, 0, 12, 0, 0, 0, 1)
    with pytest.raises(ParseError):
        parse_poly(f13, "x^")
    # a sign must carry a term; a doubled sign still reads as one sign
    for text in ("x^7+", "x^7-", "+", "-", "x^7+2x+", " - "):
        with pytest.raises(ParseError):
            parse_poly(f13, text)
    assert parse_poly(f13, "x^7+-x").coeffs == (0, 12, 0, 0, 0, 0, 0, 1)
    # a '*' joins a coefficient to x: with either one missing it dangles
    for text in ("2*", "*x", "x^7+2*", "*", "x*", "2**x", "*2x"):
        with pytest.raises(ParseError):
            parse_poly(f13, text)
    assert parse_poly(f13, "2*x").coeffs == parse_poly(f13, "2x").coeffs == (0, 2)
    assert parse_poly(f25, "(t+1)*x^3").coeffs == parse_poly(f25, "(t+1)x^3").coeffs
    assert parse_poly(f25, "t*x").coeffs == parse_poly(f25, "tx").coeffs
    # a plain coefficient is one element term, so it may be c*t as well
    assert parse_poly(f25, "3*t*x") == parse_poly(f25, "(3t)x") == parse_poly(f25, "3tx")
    assert parse_poly(f25, "x^7+70*t") == parse_poly(f25, "x^7+(70t)")
    with pytest.raises(ParseError):
        parse_poly(f25, "(4**t)x^7")
    # exponents are bounded before the coefficient tuple is built
    assert parse_poly(f13, f"x^{MAX_EXPONENT}").degree == MAX_EXPONENT
    assert parse_poly(f13, "x^007").coeffs == parse_poly(f13, "x^7").coeffs
    assert parse_poly(f13, "x^" + "0" * 100_000 + "7").coeffs == parse_poly(f13, "x^7").coeffs
    for text in (f"x^{MAX_EXPONENT + 1}", "x^99999999", "x^" + "9" * 5000):
        with pytest.raises(ParseError, match=f"limit {MAX_EXPONENT}"):
            parse_poly(f13, text)
    # a long exponent that fails to match fails at once (no backtracking
    # over the split of its zeros)
    with pytest.raises(ParseError, match="bad term"):
        parse_poly(f13, "x^" + "0" * 100_000 + "y")


@st.composite
def _element_sum(draw):
    """An element literal built term by term, with the value field
    arithmetic gives it: 1-4 terms, each a sign run, then a digit run or
    [c[*]]t[^k] with leading zeros, spaces between the pieces."""
    fld = field_for(draw(st.sampled_from([13, 25, 49])))
    space = st.sampled_from(["", "", " "])
    text, value = "", 0
    for i in range(draw(st.integers(1, 4))):
        signs = draw(st.lists(st.sampled_from("+-"), min_size=int(i > 0), max_size=3))
        text += draw(space).join(signs) + draw(space)
        c, k = draw(st.integers(0, 200)), draw(st.integers(0, 100))
        zeros = "0" * draw(st.integers(0, 2))
        if fld.r == 1 or draw(st.booleans()):  # a digit run
            text, val = text + zeros + str(c), fld.from_int(c)
        else:
            coef = draw(st.sampled_from(["", zeros + str(c), zeros + str(c) + "*"]))
            power = draw(st.sampled_from(["", f"^{zeros}{k}"]))
            text += coef + "t" + power
            val = fld.mul(fld.from_int(c) if coef else 1,
                          fld.pow(fld.theta, k if power else 1))
        value = fld.sub(value, val) if signs.count("-") % 2 else fld.add(value, val)
        text += draw(space)
    return fld, text, value


@settings(max_examples=300, deadline=None)
@given(_element_sum())
def test_element_literals_by_construction(case):
    fld, text, value = case
    assert fld.parse_element(text) == value, text
    assert parse_poly(fld, f"({text})x^2") == Poly(fld, (0, 0, value)), text
    assert parse_poly(fld, f"{text},1") == Poly(fld, (value, 1)), text


def test_malformed_element_literals_are_refused(f25, f49):
    for fld in (f25, f49):
        # '²' and the Arabic-Indic three pass str.isdigit: only 0-9 are digits
        for text in ("*t", "4**t", "t^", "3+", "+", "(3)", "t2", "²", "\u0663"):
            with pytest.raises(ParseError):
                fld.parse_element(text)
            with pytest.raises(ParseError):
                parse_poly(fld, f"{text},1")


def test_format_roundtrip(f13, f25):
    for fld, text in ((f13, "3x^7+7x"), (f25, "x^7+(1+4t)x"), (f25, "tx^5+2")):
        p = parse_poly(fld, text)
        assert parse_poly(fld, format_poly(p)).coeffs == p.coeffs
        assert parse_poly(fld, format_poly(p, "vector")).coeffs == p.coeffs


def test_vector_form_edge_rows(f13, f49):
    # no coefficient, one coefficient, and a multi-character literal: each
    # stays one comma-separated field per coefficient
    assert format_poly(Poly(f13, ()), "vector") == ""
    assert format_poly(Poly(f13, (5,)), "vector") == "5"
    assert format_poly(Poly(f49, (9,)), "vector") == "2+t"
    assert format_poly(Poly(f49, (0, 9)), "vector") == "0,2+t"
    row = Poly(f49, (9, 0, 12, 0, 0, 48, 1, 9))
    text = format_poly(row, "vector")
    assert text.split(",") == [f49.literals[c] for c in row.coeffs]
    assert parse_poly(f49, text) == row


def test_trailing_zeros_trimmed(f13):
    assert Poly(f13, (1, 2, 0, 0)).coeffs == (1, 2)
    assert Poly(f13, (0, 0)).coeffs == ()
    assert Poly(f13, ()).degree == -1


def test_eval_fixtures(f13):
    assert eval_poly(parse_poly(f13, "x"), 5) == 5
    f = parse_poly(f13, "x^7+2x")
    assert eval_poly(f, 0) == 0
    assert eval_poly(f, 2) == 2  # 2^7 + 4 = 132 = 2 (mod 13)


def test_apply_transform_fixtures(f13):
    f = parse_poly(f13, "x^7+2x")
    assert apply_transform(f, LinearTransform(1, 1, 0, 0)).coeffs == f.coeffs
    # 2 f(5x) = 3x^7 + 7x
    g = apply_transform(f, LinearTransform(2, 5, 0, 0))
    assert g.coeffs == parse_poly(f13, "3x^7+7x").coeffs
    # f(10x) = 10x^7 + 7x: 10^7 = 10 and 2*10 = 7 (mod 13).  The source
    # account prints this one as 10x^7+10x, an arithmetic slip; the
    # expansion is pinned by the pointwise identity below.
    g = apply_transform(f, LinearTransform(1, 10, 0, 0))
    assert g.coeffs == parse_poly(f13, "10x^7+7x").coeffs
    for x in f13.elements():
        assert eval_poly(g, x) == eval_poly(f, f13.mul(10, x))


@pytest.mark.parametrize("q", [13, 25, 49])
def test_transform_pointwise_identity_exhaustive(q):
    fld = field_for(q)
    rnd = random.Random(q)
    for _ in range(8):
        f = Poly(fld, tuple(rnd.randrange(q) for _ in range(8)))
        t = LinearTransform(rnd.randrange(1, q), rnd.randrange(1, q),
                            rnd.randrange(q), rnd.randrange(q))
        g = apply_transform(f, t)
        for x in fld.elements():
            want = fld.add(fld.mul(t.a, eval_poly(f, fld.add(fld.mul(t.b, x), t.c))), t.d)
            assert eval_poly(g, x) == want


def test_a_blank_literal_is_refused(f13):
    with pytest.raises(ParseError, match="^empty polynomial literal$"):
        parse_poly(f13, "  ")


def test_a_transform_needs_nonzero_a_and_b():
    for args in ((0, 1, 0, 0), (1, 0, 0, 0)):
        with pytest.raises(InvalidArgument, match=r"^linear transform requires a != 0 and b != 0$"):
            LinearTransform(*args)


def test_the_zero_polynomial_formats_and_transforms(f13):
    zero = Poly(f13, ())
    assert format_poly(zero) == "0"
    # a*0(bx+c)+d is the constant d, and the zero polynomial when d = 0
    assert apply_transform(zero, LinearTransform(3, 5, 7, 9)).coeffs == (9,)
    assert apply_transform(zero, LinearTransform(3, 5, 7, 0)).coeffs == ()


@pytest.mark.parametrize("slot", range(4))
@pytest.mark.parametrize("value", [-1, 13])
def test_apply_transform_refuses_a_value_outside_the_field(f13, slot, value):
    # each of a, b, c and d is checked before any arithmetic
    args = [1, 1, 0, 0]
    args[slot] = value
    message = rf"^transform {'abcd'[slot]}={value} is not an element of F_13$"
    with pytest.raises(InvalidArgument, match=message):
        apply_transform(parse_poly(f13, "x^7+2x"), LinearTransform(*args))
