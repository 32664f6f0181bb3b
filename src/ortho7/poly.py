"""Polynomials over a finite field and the linear substitution a*f(bx+c)+d.

Coefficient vectors are ascending tuples of element indexes with trailing
zeros trimmed; the zero polynomial is the empty tuple.  Polynomials are
immutable values, so transforms always return fresh objects and sharing
across workers is safe.  The scalar `apply_transform`, Horner's rule over
polynomials in the field's scalar arithmetic, calls no kernel: it is the
reference the tests hold the array kernels to, and `canonicalize` checks
its witness with it.  The degree-7 normal form itself has one home,
`kernels.normal_digits`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import itemgetter

from .errors import InvalidArgument, ParseError
from .field import ELEMENT_TERM, Field, signed_terms


@dataclass(frozen=True)
class Poly:
    field: Field
    coeffs: tuple[int, ...]

    def __post_init__(self):
        c = tuple(map(int, self.coeffs))
        while c and c[-1] == 0:
            c = c[:-1]
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def _of_normal(cls, field: Field, coeffs: tuple[int, ...]) -> Poly:
        """Poly(field, coeffs) without `__post_init__`.  Precondition: `coeffs`
        is a tuple of Python ints whose last entry is nonzero."""
        f = object.__new__(cls)
        attrs = f.__dict__  # set past the frozen dataclass's guard
        attrs["field"], attrs["coeffs"] = field, coeffs
        return f

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # zero polynomial reports -1

    def coeff(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"Poly({self.field!r}, {format_poly(self)!r})"


@dataclass(frozen=True)
class LinearTransform:
    """Substitution data for x -> a*f(bx+c)+d with a, b nonzero."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if self.a == 0 or self.b == 0:
            raise InvalidArgument("linear transform requires a != 0 and b != 0")

    def as_tuple(self):
        return (self.a, self.b, self.c, self.d)


def eval_poly(f: Poly, x: int) -> int:
    """Horner evaluation; exact table arithmetic."""
    fld = f.field
    acc = 0
    for c in reversed(f.coeffs):
        acc = fld.add(fld.mul(acc, x), c)
    return acc


def apply_transform(f: Poly, t: LinearTransform) -> Poly:
    """Fully expanded coefficient vector of a*f(bx+c)+d: the Horner rule of
    `eval_poly` with the polynomial bx + c in place of the point x, in the
    field's scalar arithmetic and no kernel, as the kernels' shifts and
    normal form are held to it.  Refuses a, b, c or d outside [0, q) with
    InvalidArgument, before any arithmetic."""
    fld = f.field
    for name, v in zip("abcd", t.as_tuple()):
        if not 0 <= v < fld.q:
            raise InvalidArgument(f"transform {name}={v} is not an element of F_{fld.q}")
    mul, add = fld.mul, fld.add
    g = [0]  # the zero polynomial
    for fi in reversed(f.coeffs):  # g <- g*(bx + c) + f_i
        g = [add(mul(t.c, gj), mul(t.b, gj_1)) for gj, gj_1 in zip(g + [0], [0] + g)]
        g[0] = add(g[0], fi)
    g = [mul(t.a, v) for v in g]
    g[0] = add(g[0], t.d)
    return Poly(fld, tuple(g))


# ---------------------------------------------------------------------------
# Text I/O.  Two interchangeable literal syntaxes:
#   vector form:   "0,2,0,0,0,0,0,1"            (ascending coefficients)
#   symbolic form: "x^7+2x", "(3+2t)x^3+tx"     (descending or any order)
# Both read the field's grammar: a vector entry is an element literal, a
# symbolic term a coefficient ('(3+2t)' or one `ELEMENT_TERM`) and/or x^e.

_TERM_RE = re.compile(  # a '*' needs a coefficient before it and x after it
    rf"^(?:(?:\((?P<paren>[^()]+)\)|(?P<plain>{ELEMENT_TERM.pattern}))"
    r"(?:\*(?=x))?)?(?P<var>x(?:\^(?P<exp>[0-9]+))?)?$"
)
# a bound far above any degree the package evaluates; the parser checks it
# before it builds a coefficient tuple as long as the largest exponent
MAX_EXPONENT = 4096


def parse_poly(field: Field, text: str) -> Poly:
    s = text.strip()
    if not s:
        raise ParseError("empty polynomial literal")
    if "," in s:
        parts = [p.strip() for p in s.split(",")]
        try:
            coeffs = [field.parse_element(p) for p in parts]
        except ParseError as e:
            raise ParseError(f"bad coefficient vector {text!r}: {e}") from None
        return Poly(field, tuple(coeffs))
    return _parse_symbolic(field, s)


def _parse_symbolic(field: Field, s: str) -> Poly:
    s = s.replace(" ", "")
    coeffs: dict[int, int] = {}
    for sign, term in signed_terms(s):
        m = _TERM_RE.match(term)
        if not m or (m.group("paren") is None and m.group("plain") is None
                     and m.group("var") is None):
            raise ParseError(f"bad term {term!r} in {s!r}")
        coef_text = m.group("paren") or m.group("plain")
        coef = field.parse_element(coef_text) if coef_text else 1
        if sign < 0:
            coef = field.neg(coef)
        digits = (m.group("exp") or "1").lstrip("0")
        e = 0 if m.group("var") is None else int(digits[:12] or "0")
        if e > MAX_EXPONENT:  # 12 digits already exceed it
            raise ParseError(f"exponent above the limit {MAX_EXPONENT} in {term[:24]!r}")
        coeffs[e] = field.add(coeffs.get(e, 0), coef)
    n = max(coeffs) + 1 if coeffs else 0
    return Poly(field, tuple(coeffs.get(i, 0) for i in range(n)))


def vector_form(literals, coeffs) -> str:
    """The vector form of a coefficient row, as `enumerate --emit` writes."""
    if len(coeffs) < 2:  # itemgetter of one index returns a bare string
        return ",".join([literals[c] for c in coeffs])
    return ",".join(itemgetter(*coeffs)(literals))


def format_poly(f: Poly, form: str = "symbolic") -> str:
    lits = f.field.literals
    if form == "vector":
        return vector_form(lits, f.coeffs)
    if not f.coeffs:
        return "0"
    parts = []
    for i in range(f.degree, -1, -1):
        c = f.coeff(i)
        if c == 0:
            continue
        lit = lits[c]
        if "+" in lit:
            lit = f"({lit})"
        if i == 0:
            parts.append(lit)
        else:
            var = "x" if i == 1 else f"x^{i}"
            parts.append(var if c == 1 else f"{lit}{var}")
    return "+".join(parts)
