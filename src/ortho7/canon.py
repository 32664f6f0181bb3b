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
a nonzero v lies in ck_set(m) exactly when log_t[v] < gcd(m, q-1), and in
ci_set(m) exactly when log_t[v] < (q-1)/gcd(m, q-1).  `criteria_mask`
reads these comparisons in the field's log_t table, for any array of
tuples at once; the lists are the tests' reference (tests/reference.py).

The reduction itself is cheap: after normalisation (monic, zero constant,
zero x^6 coefficient) the only transforms preserving that shape are
x -> b*x rescalings, so each class has q-1 candidates.  One array kernel,
`canonical_rows`, is the canonical-form mechanism: it reads the normal
form `kernels.normal_digits` of a batch of rows, builds all their
rescalings as one (rows, q-1, 5) array, runs the criteria as one mask and
re-proves uniqueness row by row.  `canonicalize` is its batch of one, plus
the transform witness.  The tests compare it with the literal (b, c)
enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from . import kernels
from .errors import (
    CharacteristicSeven,
    DegreeMismatch,
    UniquenessViolation,
)
from .field import Field
from .poly import LinearTransform, Poly, apply_transform, eval_poly


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


def criteria_mask(field: Field, G) -> np.ndarray:
    """Clause check on normalised tuples G[..., :] = (g5..g1), one boolean
    per tuple; x^7 passes vacuously.

    Clause (1) reads membership of g_{t-1} as {0} union ci_set: the zero
    coefficient always passes, which matches how the canonical tables use
    the criteria (entries such as (0,0,2,0,8) carry g_{t-1} = 0).
    Membership is the log threshold of the module docstring, read in
    `field` itself; log_t[0] = -1 lies below every threshold, so a zero
    coefficient never fails a "g != 0 and log_t[g] >= bound" clause.
    """
    G = np.asarray(G, dtype=np.int64)
    n = field.q - 1
    # logs of g5..g1 and of g0 = 0, so that t = 1 reads g_{t-1} = 0
    L = field.log_t[np.concatenate([G, np.zeros_like(G[..., :1])], axis=-1)]
    k = np.argmax(G != 0, axis=-1)[..., None]  # column of g_t
    t = np.where(G.any(axis=-1), 5 - k[..., 0], 0)
    ck = np.array([gcd(7 - i, n) for i in range(6)])  # gcd(m, q-1), m = 7-t
    lead = np.take_along_axis(L, k, axis=-1)[..., 0]
    gt1 = np.take_along_axis(L, k + 1, axis=-1)[..., 0]
    ok = (lead < ck[t]) & (gt1 < n // ck[t])
    if field.q % 7 == 0:
        ok &= gt1 < 0
    ok &= ~((t == 5) & (G[..., 1] == 0) & (L[..., 3] >= n // gcd(2, n)))
    ok &= ~((t == 4) & (G[..., 2] == 0) & (L[..., 3] >= n // gcd(3, n)))
    if field.q % 4 == 1:
        ok &= ~((t == 3) & (G[..., 3] == 0) & (L[..., 4] >= n // gcd(2, n)))
    return ok


def canonical_rows(field: Field, C) -> tuple[np.ndarray, np.ndarray]:
    """Canonical tuples (g5..g1), shape (n, 5), of the degree-7 rows C,
    shape (n, 8), and the first passing b of each row, shape (n,).

    Reads the normal form `kernels.normal_digits` of every row (monic,
    zero x^6 after the shift c = -h6/(7*h7), no constant term), then builds
    the q-1 monic-preserving rescalings b^-7 * hn(bx), that is b^(i-7) * g_i,
    in the element order b = 1..q-1.  The x^6-cancelling shift is independent
    of b, so these are exactly the candidate transforms (b, c) whose image
    survives the zero-x^6 filter.

    Raises UniquenessViolation, naming the row, unless each row has a
    passing rescaling and all of its passing tuples are identical: that is
    the central correctness claim of the table machinery, and it is cheap
    to re-prove on every call.
    """
    if field.p == 7:
        raise CharacteristicSeven(
            "the x^6 coefficient cannot be cleared in characteristic 7; "
            "use the linear-relation search against the order-49 table")
    C = np.asarray(C, dtype=np.int64).reshape(-1, 8)
    if not C[:, 7].all():
        raise DegreeMismatch("canonical forms need degree-7 rows")
    mul, n = field.mul_t, field.q - 1
    H = np.stack(list(kernels.normal_digits(field, C)), axis=-1)  # g5..g1
    b = np.arange(1, field.q)
    scale = field.exp_t[field.log_t[b, None] * np.arange(-2, -7, -1) % n]
    G = mul[scale, H[:, None, :]]  # (rows, b, 5): b^(i-7) * g_i
    passing = criteria_mask(field, G)
    found = passing.any(axis=1)
    if not found.all():
        row = int(np.argmin(found))
        raise UniquenessViolation(
            f"no criteria-passing form in the class of row {row} "
            f"{C[row].tolist()} over F_{field.q} (criteria bug?)")
    first = np.argmax(passing, axis=1)
    T = G[np.arange(len(C)), first]
    clash = passing & (G != T[:, None]).any(axis=-1)
    if clash.any():
        row, j = np.argwhere(clash)[0]
        raise UniquenessViolation(
            f"distinct criteria-passing forms {tuple(T[row].tolist())} and "
            f"{tuple(G[row, j].tolist())} in one linear class over "
            f"F_{field.q} (row {row})")
    return T, b[first]


def canonicalize(h: Poly) -> tuple[CanonicalForm, LinearTransform]:
    """Unique criteria-passing representative of h's linear class: the
    batch of one of `canonical_rows`.

    The returned transform is the normalisation (h7^-1, 1, c, -h(c)/h7),
    c the `x6_shift` of h, followed by the rescaling (b^-7, b, 0, 0) of the
    first passing b: (a, b, c, -a*h(c)) with a = (h7*b^7)^-1.  It is
    re-derived as a witness.
    """
    field = h.field
    if h.degree != 7:
        raise DegreeMismatch(f"expected degree 7, got {h.degree}")
    T, bs = canonical_rows(field, h.coeffs)
    first, b = tuple(T[0].tolist()), int(bs[0])
    g5, g4, g3, g2, g1 = first
    c = int(kernels.x6_shift(field, h.coeffs))
    a = field.inv(field.mul(h.coeff(7), field.pow(b, 7)))
    tform = LinearTransform(a, b, c, field.neg(field.mul(a, eval_poly(h, c))))
    poly = Poly(field, (0, g1, g2, g3, g4, g5, 0, 1))
    # re-derive the exact transform witnessing h -> poly
    assert apply_transform(h, tform).coeffs == poly.coeffs
    return CanonicalForm(poly, support_index(first)), tform
