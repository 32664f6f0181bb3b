"""Orthomorphism pair search, shift expansion, and per-field totals.

Every orthomorphism of degree 7 lives in the linear class of some class
entry f of `families.class_entries` (the table entries, or x^7 alone at
an order q = 6 (mod 7) outside the tables), and within one class
orthomorphism membership is decided by the rescaling alone:
alpha*f(beta*x) is an orthomorphism iff its shifts
alpha*f(beta*(x+gamma))+delta all are, and distinct (gamma, delta) give
distinct polynomials.  So the enumeration reduces to finding the (alpha,
beta) pairs per family, deduplicating pairs that produce the same
polynomial, and multiplying by q^2.  A nonexistence result is the same
search coming back empty at every class of its order.

Two independent routes produce the pair sets from the q-1 rows f - lam*x
of `kernels.pair_line`: alpha*f(beta*x) - x is alpha*(f - lam*x)(beta*x),
lam = (alpha*beta)^-1, so one row decides each cell (`pair_cells`).

  direct      evaluate each row over the whole field, keep the bijections;
  table_based never evaluate: a row is a permutation polynomial iff its
              monic zero-constant reduction is in the class-image index,
              and alpha*f(beta*x) - x is in the row's class.  The hits are
              grouped by target into one system each.  For gcd(q, 7) = 1
              the x^6 and constant terms of alpha*f(beta*x) - x are zero,
              so a relation a*e(bx+c)+d to a target forces c = d = 0: a
              coefficient-matching system over (a, b, alpha, beta) in
              (F_q*)^4, which needs the target's x^2..x^5 support to
              equal the source's.  Every such target gets a system, hit
              or not, so the published per-equation pair counts can be
              checked.

Agreement of the two routes per family is part of the acceptance suite.

Deduplication keeps, for each distinct coefficient vector of
alpha*f(beta*x), the lexicographically smallest (alpha, beta) by element
index.  Both routes run it once over their hit cells, as one array of
`kernels.scaled_rows`, sorted stably by `np.lexsort` over its integer
columns (exact at every order); comparisons with published pair lists are
by set.  One stream of shift blocks, `shift_blocks`, expands the pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Iterator

import numpy as np

from . import kernels
from .families import (
    FamilyEntry,
    class_entries,
    class_lookup,
    field_entries,
)
from .field import Field, field_for
from .poly import Poly

# Known discrepancies in the published tallies, reported alongside the
# computed numbers rather than silently matched.
FIELD_NOTES = {
    19: ("published prose counts 4 exceptional polynomials for this field; "
         "the x^7 family contributes 3 deduplicated pairs, i.e. 3*q^2 "
         "exceptional orthomorphisms"),
    49: ("op_total counts (pair, gamma, delta) parameterizations, matching "
         "the published total; in characteristic 7 the shift expansion runs "
         "through (x+gamma)^7 = x^7 + gamma^7, so each pair yields only q "
         "distinct coefficient vectors (the free additive constant) and the "
         "distinct-polynomial count is pair_total * q = 80360"),
}


@dataclass(frozen=True)
class SystemResult:
    """Outcome of one coefficient-matching system of the table route."""

    target_ordinal: int
    vanishing: bool  # x-coefficient of the image forced to zero
    pairs: tuple[tuple[int, int], ...]

    @property
    def pair_count(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class PairSearchResult:
    family: FamilyEntry
    method: str  # "direct" | "table_based"
    pairs: tuple[tuple[int, int], ...]
    signatures: tuple[tuple[int, ...], ...]  # coeff vector of alpha*f(beta x)
    systems: tuple[SystemResult, ...] | None = None

    @property
    def pair_count(self) -> int:
        return len(self.pairs)


def _dedup(field: Field, f: Poly, hit) -> tuple[tuple, tuple]:
    """The lex-smallest pair per distinct alpha*f(beta*x) among the cells
    of the (q-1, q-1) hit mask, ascending, and their coefficient vectors."""
    a, b = np.nonzero(hit)  # C order: ascending (alpha, beta)
    rows = kernels.scaled_rows(field, f.coeffs, a + 1, b + 1)
    order = np.lexsort(rows.T)  # stable: a run of equal rows starts at its smallest pair
    first = np.sort(order[np.diff(rows[order], axis=0, prepend=-1).any(axis=1)])
    pairs = tuple(zip((a[first] + 1).tolist(), (b[first] + 1).tolist()))
    return pairs, tuple(map(tuple, rows[first].tolist()))


def search_pairs_direct(field: Field, family: FamilyEntry) -> PairSearchResult:
    """All deduplicated (alpha, beta) with alpha*f(beta*x) an orthomorphism,
    by direct evaluation of alpha*f(beta*x) - x over the field."""
    f = family.poly(field)
    pairs, sigs = _dedup(field, f, kernels.op_pair_grid(field, f.coeffs))
    return PairSearchResult(family, "direct", pairs, sigs)


# ---------------------------------------------------------------------------
# Table-based route.


def search_pairs_table_based(field: Field, family: FamilyEntry
                             ) -> PairSearchResult:
    """Pair search that never evaluates the polynomial: class-image lookups
    of the line rows f - lam*x, spread over (F_q*)^2, grouped by target.

    For gcd(q, 7) = 1 every target with the source's x^2..x^5 support has
    a system, and every hit falls in one of them: alpha*f(beta*x) - x has
    no x^6 or constant term, so a relation to a target has c = d = 0 and
    keeps the support.  A target with a zero x-coefficient is marked
    vanishing (the x-coefficient of alpha*f(beta*x) - x must vanish).
    """
    f = family.poly(field)
    hit, ords, _ = class_lookup(field, kernels.pair_line(field, f.coeffs))
    cells = kernels.pair_cells(field)
    pairs, sigs = _dedup(field, f, hit[cells])
    targets = class_entries(field.q)
    zeros = [c == 0 for c in f.coeffs[2:6]]  # the x^2..x^5 support
    per_target = {t.ordinal: [] for t in targets if field.p != 7
                  and [c == 0 for c in t.coeff_row()[2:6]] == zeros}
    # a polynomial lies in one class: each system's pairs are the kept
    # pairs whose image hits its target
    for a, b in pairs:
        ordv = int(ords[cells[a - 1, b - 1]])
        assert field.p == 7 or ordv in per_target, (family.ordinal, ordv)
        per_target.setdefault(ordv, []).append((a, b))
    return PairSearchResult(family, "table_based", pairs, sigs, systems=tuple(
        SystemResult(o, field.p != 7 and targets[o - 1].coeff_row()[1] == 0,
                     tuple(per_target[o])) for o in sorted(per_target)))


# ---------------------------------------------------------------------------
# Field-level enumeration.


@dataclass
class EnumerationReport:
    q: int
    per_family: list[PairSearchResult]
    notes: list[str] = dc_field(default_factory=list)

    @property
    def pair_total(self) -> int:
        return sum(r.pair_count for r in self.per_family)

    @property
    def op_total(self) -> int:
        return self.pair_total * self.q * self.q

    @property
    def exceptional_pair_total(self) -> int:
        return sum(r.pair_count for r in self.per_family
                   if r.family.exceptional)

    @property
    def exceptional_op_total(self) -> int:
        return self.exceptional_pair_total * self.q * self.q

    def to_dict(self, field: Field | None = None) -> dict:
        fld = field or field_for(self.q)
        fmt = fld.format_element
        return {
            "q": self.q,
            "families": [
                {
                    "ordinal": r.family.ordinal,
                    "tuple": [fmt(c) for c in r.family.coeffs],
                    "exceptional": r.family.exceptional,
                    "method": r.method,
                    "pair_count": r.pair_count,
                    "pairs": [[fmt(a), fmt(b)] for a, b in r.pairs],
                }
                for r in self.per_family
            ],
            "totals": {
                "pair_total": self.pair_total,
                "op_total": self.op_total,
                "exceptional_pair_total": self.exceptional_pair_total,
                "exceptional_op_total": self.exceptional_op_total,
            },
            "notes": list(self.notes),
        }


def count_ops(field: Field | int, method: str = "direct") -> EnumerationReport:
    """Per-family pair sets and the derived totals over the classes of one
    field (`field_entries`); an order stands for its preset field."""
    if not isinstance(field, Field):
        field = field_for(field)
    q = field.q
    per = []
    for entry in field_entries(field):
        if method == "direct":
            per.append(search_pairs_direct(field, entry))
        elif method == "table":
            per.append(search_pairs_table_based(field, entry))
        else:
            raise ValueError(f"unknown method {method!r}")
    notes = [FIELD_NOTES[q]] if q in FIELD_NOTES else []
    return EnumerationReport(q, per, notes)


def enumerate_ops(q: int,
                  report: EnumerationReport | None = None) -> Iterator[Poly]:
    """Stream the degree-7 orthomorphisms over F_q: for each family, each
    deduplicated pair, each shift (gamma, delta) in F_q^2, the expanded
    alpha*f(beta*(x+gamma)) + delta.  The stream length equals op_total.

    This is the one-`Poly`-per-row view of the `shift_blocks` of each
    family's signatures, which `enumerate --emit` and the distinctness
    check read directly.  For gcd(q, 7) = 1 the emitted coefficient
    vectors are pairwise distinct.  In characteristic 7 the expansion runs
    through the Frobenius identity (x+gamma)^7 = x^7 + gamma^7, so
    gamma-shifts only move the constant term and each pair repeats its q
    distinct vectors q times (see FIELD_NOTES[49])."""
    field = field_for(q)
    if report is None:
        report = count_ops(q)
    for res in report.per_family:
        for block in shift_blocks(field, res.signatures):
            # normal rows (x^7 coefficient alpha*beta^7*f7 != 0) of Python ints
            for row in zip(*block.T.tolist()):
                yield Poly._of_normal(field, row)


def shift_blocks(field: Field, sigs) -> Iterator[np.ndarray]:
    """The q^2 rows g(x+gamma)+delta of each coefficient vector g of `sigs`,
    gamma-major then delta, one (q^2, 8) block per g: one `expand_shifts`
    call for the batch, then each block fans its q rows out over delta."""
    elems = np.arange(field.q, dtype=np.int64)
    sigs = np.asarray(sigs, dtype=np.int64).reshape(-1, 1, 8)
    for rows in kernels.expand_shifts(field, sigs, 1, elems):
        block = np.repeat(rows, field.q, axis=0)
        block[:, 0] = field.add_t[rows[:, :1], elems].ravel()
        yield block

