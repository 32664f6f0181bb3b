"""Brute-force references the tests hold the package to.  Nothing in the
package calls them: `canon.criteria_mask` reads the transversal sets as log
thresholds, and the class route decides linear relations through codes."""

import json
from importlib import resources
from math import gcd

from ortho7.errors import DegreeMismatch
from ortho7.field import Field
from ortho7.poly import LinearTransform, Poly, apply_transform


def preset_orders() -> list[int]:
    """The orders of the preset fields in ortho7/data/field_presets.json."""
    raw = resources.files("ortho7").joinpath("data", "field_presets.json").read_text()
    return sorted(entry["q"] for entry in json.loads(raw)["presets"])


def ck_set(field: Field, m: int) -> list[int]:
    """Coset representatives {theta^i : i < gcd(m, q-1)}, theta^0 first."""
    g = gcd(m, field.q - 1)
    return [int(field.exp_t[i]) for i in range(g)]


def ci_set(field: Field, m: int) -> list[int]:
    """Residual-scale pinning set {theta^j : j < (q-1)/gcd(m, q-1)}."""
    n = (field.q - 1) // gcd(m, field.q - 1)
    return [int(field.exp_t[j]) for j in range(n)]


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
    for b in range(1, field.q):
        for c in field.elements():
            img = apply_transform(f, LinearTransform(1, b, c, 0))
            a = field.mul(h7, field.inv(img.coeff(7)))
            d = field.sub(h0, field.mul(a, img.coeff(0)))
            if all(field.mul(a, img.coeff(i)) == h.coeff(i)
                   for i in range(1, 7)):
                out.append(LinearTransform(a, b, c, d))
    return out
