"""Finite field construction for small orders q = p^r.

Elements are encoded as integers in [0, q): for prime fields the residue
itself, for extension fields the base-p digit string of the coordinate
vector in the polynomial basis, c_0 + c_1*p + ... + c_{r-1}*p^{r-1}.
Index 0 is the additive identity and index 1 the multiplicative identity.

Arithmetic is table-driven, one int64 numpy array per table.
Construction precomputes exp/log tables for the pinned generator plus
full q x q add/sub/mul tables, so the inner loops downstream (permutation
checks, pair searches, the census) reduce to integer array lookups and
can be handed to numpy wholesale; the scalar add, sub and mul read the
same arrays; `build_field` and `field_for` refuse an order past their
budget, MAX_ORDER.  The q element literals are built once too, so
formatting is a tuple lookup.  `field_for` keeps each field it builds
for the life of the process by `functools.cache`, the package's one memo.

The generator choice is part of the field's identity, not an
implementation detail: the coset-transversal sets used by the canonical
form criteria depend on it.  Prime fields use the least primitive root;
extension fields use the class of x and therefore require the modulus to
be primitive, not merely irreducible.  One loop builds and proves every
field: the orbit of 1 under multiplication by the generator, which is the
exp table when it first returns to 1 after exactly q - 1 steps.  A full
orbit of x makes every nonzero residue mod the modulus a unit, so a
primitive modulus needs no separate irreducibility test.
"""

from __future__ import annotations

import functools
import itertools
import json
import re
from dataclasses import dataclass
from importlib import resources
from math import isqrt

import numpy as np

from .errors import (
    DivisionByZero,
    InvalidArgument,
    NonPrimeP,
    NonPrimitiveModulus,
    ParseError,
    ReducibleModulus,
    UnsupportedOrder,
)


# A Field's three q x q int64 tables (add, sub, mul) cost 24 q^2 bytes;
# within 1 GiB, q <= 6688, past the class route's q <= 6208.
TABLE_BYTES = 1 << 30
MAX_ORDER = isqrt(TABLE_BYTES // 24)


def _check_order(p: int, r: int = 1) -> None:
    """UnsupportedOrder for p^r past MAX_ORDER; no p^r above 2^13 is formed."""
    if r > MAX_ORDER.bit_length() or p ** r > MAX_ORDER:
        raise UnsupportedOrder(
            f"q={p if r == 1 else f'{p}^{r}'} is past the field-table budget: "
            f"24*q^2 bytes within {TABLE_BYTES >> 30} GiB, q <= {MAX_ORDER}")


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    for d in range(3, isqrt(n) + 1, 2):
        if n % d == 0:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Construction recipe: characteristic, extension degree, and monic
    modulus (ascending coefficients, length r+1).  For r = 1 the modulus
    is the placeholder x and is unused."""

    p: int
    r: int
    modulus: tuple[int, ...]

    @property
    def q(self) -> int:
        return self.p ** self.r


class Field:
    """A fully built field F_q with pinned generator and lookup tables.

    Immutable after construction; every operation is pure, so instances
    are safe to share across threads and workers without locking.

    add, sub, mul and neg are the tables' bound `item`, which inv and pow
    call too: a plain int, also for numpy integer arguments, and for one
    argument a flat entry (add(5) is add_t.flat[5], not a TypeError).
    inv and pow refuse an element outside [0, q): InvalidArgument.
    """

    def __init__(self, spec: FieldSpec, theta: int, exp_table: np.ndarray):
        self.spec = spec
        self.p = spec.p
        self.r = spec.r
        self.q = spec.q
        self.theta = theta
        q, p = self.q, self.p

        self.exp_t = exp_table  # length q-1, exp_t[i] = theta^i
        log_t = np.full(q, -1, dtype=np.int64)
        log_t[exp_table] = np.arange(q - 1, dtype=np.int64)
        self.log_t = log_t

        # Digit-wise add/neg; mul through exp/log.
        pw = p ** np.arange(self.r, dtype=np.int64)
        digits = (np.arange(q, dtype=np.int64)[:, None] // pw) % p
        # literals[a] is the canonical literal of element a (format_element).
        self.literals = tuple(_literal(row) for row in digits.tolist())
        self.add_t = ((digits[:, None, :] + digits[None, :, :]) % p) @ pw
        self.neg_t = ((-digits) % p) @ pw
        self.sub_t = self.add_t[:, self.neg_t]

        mul = np.zeros((q, q), dtype=np.int64)
        nz = exp_table
        li = log_t[nz]
        mul[np.ix_(nz, nz)] = exp_table[(li[:, None] + li[None, :]) % (q - 1)]
        self.mul_t = mul

        inv = np.zeros(q, dtype=np.int64)
        inv[nz] = exp_table[(-(li)) % (q - 1)]
        self.inv_t = inv  # inv_t[0] stays 0; inv() guards

        # The scalar operations read the tables: `item` returns a plain int.
        self.add, self.sub, self.mul, self.neg = (
            self.add_t.item, self.sub_t.item, self.mul_t.item, self.neg_t.item)

    # -- scalar operations ------------------------------------------------

    def _element(self, a: int) -> int:
        if not 0 <= a < self.q:
            raise InvalidArgument(f"{a} is not an element of F_{self.q}")
        return a

    def inv(self, a: int) -> int:
        if self._element(a) == 0:
            raise DivisionByZero(f"inv(0) in F_{self.q}")
        return self.inv_t.item(a)

    def pow(self, a: int, n: int) -> int:
        if self._element(a) == 0:
            if n == 0:
                return 1
            if n < 0:
                raise DivisionByZero(f"0**{n} in F_{self.q}")
            return 0
        return self.exp_t.item((self.log_t.item(a) * n) % (self.q - 1))

    def elements(self) -> range:
        return range(self.q)

    def from_int(self, k: int) -> int:
        """Embed an integer via the prime subfield (k mod p)."""
        return k % self.p

    # -- element literals --------------------------------------------------

    def format_element(self, a: int) -> str:
        """Canonical literal: ascending basis terms, e.g. '0', '3', '2t',
        '3+2t', 't^2'.  This exact form is what the parsers round-trip."""
        return self.literals[a]

    def parse_element(self, s: str) -> int:
        """Parse an element literal: `signed_terms` that each match
        `ELEMENT_TERM` ('3+2t', 't^5', '4*t^3', '--1'), spaces ignored.  A
        digit run of any length is reduced mod p, a t exponent mod q - 1."""
        text = s.replace(" ", "")
        if not text:
            raise ParseError("empty element literal")
        acc = 0
        for sign, term in signed_terms(text):
            m = ELEMENT_TERM.fullmatch(term)
            if m is None:
                raise ParseError(f"bad element literal {s!r}")
            c, t, k = m.groups()
            val = _residue(c, self.p) if c else 1
            if t:
                if self.r == 1:
                    raise ParseError(f"generator symbol in prime-field literal {s!r}")
                val = self.mul(val, self.exp_t.item(_residue(k, self.q - 1) if k else 1))
            acc = self.sub(acc, val) if sign < 0 else self.add(acc, val)
        return acc

    def __repr__(self):
        if self.r == 1:
            return f"F({self.p})"
        return f"F({self.p}^{self.r})"

    def __eq__(self, other):
        return isinstance(other, Field) and self.spec == other.spec

    def __hash__(self):
        return hash(self.spec)


# The one literal grammar: a literal is a sum of signed terms, and an
# element term is a digit run or [c[*]]t[^k] (ASCII digits; a '*' needs c).
# `poly._TERM_RE` reads a plain polynomial coefficient with the same text.
ELEMENT_TERM = re.compile(
    r"(?:(?P<c>[0-9]+)(?:\*(?=t))?|(?=t))(?P<t>t(?:\^(?P<k>[0-9]+))?)?")
_SIGNED = re.compile(r"([+-]+)([^+-]*)")  # a sign run and the text after it


def signed_terms(s: str) -> list[tuple[int, str]]:
    """The (sign, term) pairs of s, split at its sign runs outside
    parentheses.  A run multiplies into the sign of the term after it
    ('x^7+-x' is x^7 - x, '--1' is 1); signs inside parentheses belong to
    their term ('(3+2t)x').  A run with no term after it is a ParseError."""
    if "+" not in s and "-" not in s:  # most table literals: no regex pass
        return [(1, s)] if s else []
    terms, depth = [], 0
    for run, text in _SIGNED.findall("+" + s):
        if depth:
            sign, term = terms.pop()
            terms.append((sign, term + run + text))
        elif text:
            terms.append((-1 if run.count("-") % 2 else 1, text))
        else:
            raise ParseError(f"sign without a term in {s!r}")
        depth += text.count("(") - text.count(")")
    return terms


def _residue(run: str, m: int) -> int:
    """A decimal digit run mod m.  int() may refuse a string of more than
    640 digits, so a longer run is read 600 digits at a time."""
    r = 0
    while len(run) > 600:
        r, run = (r * pow(10, 600, m) + int(run[:600])) % m, run[600:]
    return (r * 10 ** len(run) + int(run)) % m


def _literal(digits) -> str:
    """Ascending basis terms of one base-p digit row, '0' for no term."""
    parts = []
    for k, d in enumerate(digits):
        if d:
            var = "" if k == 0 else "t" if k == 1 else f"t^{k}"
            parts.append(var if d == 1 and k else f"{d}{var}")
    return "+".join(parts) or "0"


def _orbit(p: int, red: tuple[int, ...]) -> np.ndarray | None:
    """The exp table of theta, the class of x in F_p[x]/(x^r - red(x)) with
    r = len(red): the orbit of 1 under multiplication by theta, in digit
    encoding.  None unless the orbit first comes back to 1 after exactly
    q - 1 steps, which is when theta has order q - 1."""
    q = p ** len(red)
    pw = [p ** k for k in range(len(red))]
    digits, v, exp = [1] + [0] * (len(red) - 1), 1, []
    for _ in range(q - 1):
        if v == 1 and exp:
            return None
        exp.append(v)
        # x * sum(d_k x^k): shift up one place, fold x^r back in as red
        top = digits[-1]
        digits = [(d + top * c) % p for d, c in zip([0] + digits[:-1], red)]
        v = sum(d * w for d, w in zip(digits, pw))
    return np.array(exp, dtype=np.int64) if v == 1 else None


def _has_low_factor(m: tuple[int, ...], p: int) -> bool:
    """Whether the monic m (ascending) has a monic factor of degree 1 to
    deg(m)/2 over F_p, by trial division: it is reducible exactly then."""
    r = len(m) - 1
    for d in range(1, r // 2 + 1):
        for low in itertools.product(range(p), repeat=d):  # x^d + low(x)
            rem = list(m)
            for k in range(r, d - 1, -1):
                for j, c in enumerate(low):
                    rem[k - d + j] = (rem[k - d + j] - rem[k] * c) % p
            if not any(rem[:d]):
                return True
    return False


def build_field(spec: FieldSpec) -> Field:
    """Construct F_q with its exp table, the orbit of 1 under multiplication
    by theta, which is also the construction's only proof.

    For r = 1, theta is the least g >= 1 whose orbit is full: by
    definition the least primitive root (1 for F_2).  For r > 1, theta is
    the class of x (index p).  A full orbit gives x order q - 1 in
    F_p[x]/(m), so every nonzero residue is a unit, the ring is a field
    and m is irreducible and primitive.  Only when the orbit fails does
    trial division tell a reducible modulus from a non-primitive one.
    An order past MAX_ORDER is refused before any of this.
    """
    p, r = spec.p, spec.r
    _check_order(p)  # before is_prime, whose trial division grows as sqrt(p)
    if not is_prime(p):
        raise NonPrimeP(f"p={p} is not prime")
    if r < 1:
        raise InvalidArgument(f"extension degree r={r} must be >= 1")
    _check_order(p, r)
    if r == 1:
        # x - g is the modulus whose x is g; some g < p is a primitive root
        return next(Field(spec, g, exp) for g in range(1, p)
                    if (exp := _orbit(p, (g,))) is not None)

    modulus = tuple(c % p for c in spec.modulus)
    if len(modulus) != r + 1 or modulus[-1] != 1:
        raise InvalidArgument(f"modulus must be monic of degree {r}, "
                              f"got {spec.modulus}")
    exp = _orbit(p, tuple((-c) % p for c in modulus[:-1]))  # x^r = -m_0 - ...
    if exp is not None:
        return Field(spec, p, exp)  # theta = x, encoded as index p
    if _has_low_factor(modulus, p):
        raise ReducibleModulus(f"{spec.modulus} is reducible over F_{p}")
    raise NonPrimitiveModulus(
        f"root of {spec.modulus} has order < {spec.q - 1} in F_{spec.q}")


# ---------------------------------------------------------------------------
# Preset registry, shipped as a data file.


@functools.cache
def _load_presets() -> dict[int, dict]:
    raw = resources.files("ortho7").joinpath("data", "field_presets.json").read_text()
    return {entry["q"]: entry for entry in json.loads(raw)["presets"]}


@functools.cache
def field_for(q: int) -> Field:
    """Build the preset (or prime) field of order q, once per process."""
    _check_order(q)
    presets = _load_presets()
    if q in presets:
        entry = presets[q]
        spec = FieldSpec(entry["p"], entry["r"], tuple(entry["modulus"]))
        fld = build_field(spec)
        if fld.theta != entry["generator_index"]:
            raise NonPrimitiveModulus(
                f"preset generator mismatch for q={q}: built {fld.theta}, "
                f"registry says {entry['generator_index']}")
        return fld
    if is_prime(q):
        return build_field(FieldSpec(q, 1, (0, 1)))
    raise UnsupportedOrder(f"no preset field of order {q}; give the "
                           f"field by p, r and modulus")
