"""Canonical forms of degree-7 polynomials under a*f(bx+c)+d.

Every degree-7 polynomial over F_q with gcd(q, 7) = 1 is linearly related
to a unique normalised representative x^7 + g5 x^5 + ... + g1 x whose
coefficients satisfy a short list of coset conditions built from two
transversal sets of the generator theta:

    ck_set(m) = { theta^i : 0 <= i < gcd(m, q-1) }
    ci_set(m) = { theta^j : 0 <= j < (q-1)/gcd(m, q-1) }

ck_set(m) picks one representative per coset of the m-th powers, so a
suitable rescaling can always move a leading nonzero coefficient into it;
ci_set(m) then pins down the residual scaling freedom.  Uniqueness of the
representative is asserted at runtime on every call rather than trusted.

Since theta^i has discrete log i, membership is a threshold on the log:
a nonzero v lies in ck_set(m) exactly when dlog(v) < gcd(m, q-1), and in
ci_set(m) exactly when dlog(v) < (q-1)/gcd(m, q-1).  The criteria read
these comparisons; the lists themselves stay as the definitions.

The reduction itself is cheap: after normalisation (monic, zero constant,
zero x^6 coefficient) the only transforms preserving that shape are
x -> b*x rescalings, so canonicalisation scans q-1 candidates.  The tests
compare it with the literal (b, c) enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import (
    CharacteristicSeven,
    DegreeMismatch,
    NotNormalised,
    UniquenessViolation,
)
from .field import Field
from .poly import (
    LinearTransform,
    Poly,
    apply_transform,
    compose_transforms,
    is_normalized_deg7,
    normalize_deg7,
)


def ck_set(field: Field, m: int) -> list[int]:
    """Coset representatives {theta^i : i < gcd(m, q-1)}, theta^0 first."""
    g = gcd(m, field.q - 1)
    return [int(field.exp_t[i]) for i in range(g)]


def ci_set(field: Field, m: int) -> list[int]:
    """Residual-scale pinning set {theta^j : j < (q-1)/gcd(m, q-1)}."""
    n = (field.q - 1) // gcd(m, field.q - 1)
    return [int(field.exp_t[j]) for j in range(n)]


@dataclass(frozen=True)
class CanonicalForm:
    """A normalised representative plus its support index t (largest
    i in [1, 5] with nonzero coefficient; 0 for the bare x^7)."""

    poly: Poly
    t_index: int

    @property
    def tuple5(self) -> tuple[int, int, int, int, int]:
        """(g5, g4, g3, g2, g1)."""
        return tuple(self.poly.coeff(i) for i in (5, 4, 3, 2, 1))


def support_index(g: tuple[int, int, int, int, int]) -> int:
    """Largest i in [1, 5] with g_i != 0 in the tuple (g5, ..., g1); 0 if none."""
    for i in (5, 4, 3, 2, 1):
        if g[5 - i] != 0:
            return i
    return 0


def criteria_check_tuple(field: Field, g5, g4, g3, g2, g1) -> bool:
    """Clause check on a normalised tuple (g5..g1); x^7 passes vacuously.

    Clause (1) reads membership of g_{t-1} as {0} union ci_set: the zero
    coefficient always passes, which matches how the canonical tables use
    the criteria (entries such as (0,0,2,0,8) carry g_{t-1} = 0).
    Membership is the log threshold of the module docstring, read in
    `field` itself.
    """
    g = (g5, g4, g3, g2, g1)
    t = support_index(g)
    if t == 0:
        return True
    n = field.q - 1
    dlog = field.dlog
    m = 7 - t
    if dlog(g[5 - t]) >= gcd(m, n):
        return False
    gt1 = g[5 - (t - 1)] if t >= 2 else 0
    if gt1 != 0 and dlog(gt1) >= n // gcd(m, n):
        return False
    if field.q % 7 == 0 and gt1 != 0:
        return False
    if t == 5 and g4 == 0 and g2 != 0 and dlog(g2) >= n // gcd(2, n):
        return False
    if t == 4 and g3 == 0 and g2 != 0 and dlog(g2) >= n // gcd(3, n):
        return False
    if (t == 3 and g2 == 0 and field.q % 4 == 1
            and g1 != 0 and dlog(g1) >= n // gcd(2, n)):
        return False
    return True


def criteria_check(g) -> bool:
    """Criteria clauses on a CanonicalForm or a normalised degree-7 Poly."""
    poly = g.poly if isinstance(g, CanonicalForm) else g
    if not is_normalized_deg7(poly):
        raise NotNormalised(f"{poly} is not in normalised form")
    return criteria_check_tuple(poly.field, poly.coeff(5), poly.coeff(4),
                                poly.coeff(3), poly.coeff(2), poly.coeff(1))


def canonicalize(h: Poly) -> tuple[CanonicalForm, LinearTransform]:
    """Unique criteria-passing representative of h's linear class.

    Normalises once, then scans the q-1 monic-preserving rescalings
    b^-7 * hn(bx) (the x^6-cancelling shift c is independent of b, so these
    are exactly the candidate transforms (b, c) whose image survives the
    zero-x^6 filter).  The returned transform is the one for the first
    passing b.

    Raises UniquenessViolation if the passing images are not all
    identical: that is the central correctness claim of the table
    machinery, and it is cheap to re-prove on every call.
    """
    field = h.field
    if h.degree != 7:
        raise DegreeMismatch(f"expected degree 7, got {h.degree}")
    if field.p == 7:
        raise CharacteristicSeven(
            "the x^6 coefficient cannot be cleared in characteristic 7; "
            "use the linear-relation search against the order-49 table")

    hn, t0 = normalize_deg7(h)
    hc = [(hn.coeff(i), i) for i in (5, 4, 3, 2, 1)]
    passing = []
    for b in field.nonzero():
        a = field.inv(field.pow(b, 7))
        tup = tuple(field.mul(field.mul(c, field.pow(b, i)), a) for c, i in hc)
        if criteria_check_tuple(field, *tup):
            passing.append((tup, b))
    if not passing:
        raise UniquenessViolation(
            f"no criteria-passing form in the class of {h} (criteria bug?)")
    first, b = passing[0]
    for tup, _ in passing[1:]:
        if tup != first:
            raise UniquenessViolation(
                f"distinct criteria-passing forms {first} and {tup} "
                f"in one linear class over F_{field.q}")
    g5, g4, g3, g2, g1 = first
    tform = compose_transforms(
        field, t0, LinearTransform(field.inv(field.pow(b, 7)), b, 0, 0))
    poly = Poly(field, (0, g1, g2, g3, g4, g5, 0, 1))
    # re-derive the exact transform witnessing h -> poly
    assert apply_transform(h, tform).coeffs == poly.coeffs
    return CanonicalForm(poly, support_index(first)), tform


def solve_linear_relation(h: Poly, f: Poly) -> list[LinearTransform]:
    """All (a, b, c, d) with h = a*f(bx+c)+d.

    Iterates (b, c), derives a from the leading coefficient and d from
    the constant term, and keeps transforms under which the remaining
    coefficients match exactly.
    """
    if h.degree != 7 or f.degree != 7:
        raise DegreeMismatch("linear-relation search needs two degree-7 polynomials")
    field = h.field
    out = []
    h7, h0 = h.coeff(7), h.coeff(0)
    for b in field.nonzero():
        for c in field.elements():
            img = apply_transform(f, LinearTransform(1, b, c, 0))
            a = field.mul(h7, field.inv(img.coeff(7)))
            d = field.sub(h0, field.mul(a, img.coeff(0)))
            if all(field.mul(a, img.coeff(i)) == h.coeff(i)
                   for i in range(1, 7)):
                out.append(LinearTransform(a, b, c, d))
    return out
