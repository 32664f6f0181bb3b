"""Orthomorphism pair search, shift expansion, and per-field totals.

Every orthomorphism of degree 7 lives in the linear class of some class
entry f of `families.field_entries` (the table entries, or x^7 alone at
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
`search_pairs` decides the rows of a batch of classes (every class of an
order, in `count_ops`) in one kernel call of either route.

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
index.  Both routes run it once per class over its hit cells, as one
array of `kernels.expand_shifts` rows at (alpha, beta, 0, 0), sorted stably
by `np.lexsort` over its integer columns (exact at every order);
comparisons with published pair lists are by set.  One stream of shift
blocks, `shift_blocks`, expands the pairs by the same array transform,
and `write_vectors` writes its rows for `enumerate --emit`.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Iterator

import numpy as np

from . import kernels
from .errors import InvalidArgument
from .families import (
    FamilyEntry,
    class_lookup,
    field_entries,
)
from .field import Field, field_for
from .poly import Poly, vector_form

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


def _dedup(field: Field, f, hit) -> tuple[tuple, tuple]:
    """The lex-smallest pair per distinct alpha*f(beta*x) among the cells
    of the (q-1, q-1) hit mask, ascending, and their coefficient vectors;
    f is a coefficient row, lowest degree first."""
    a, b = np.nonzero(hit)  # C order: ascending (alpha, beta)
    rows = kernels.expand_shifts(field, f, a + 1, b + 1, 0, 0)
    order = np.lexsort(rows.T)  # stable: a run of equal rows starts at its smallest pair
    first = np.sort(order[np.diff(rows[order], axis=0, prepend=-1).any(axis=1)])
    pairs = tuple(zip((a[first] + 1).tolist(), (b[first] + 1).tolist()))
    return pairs, tuple(map(tuple, rows[first].tolist()))


def search_pairs(field: Field, entries, method: str = "direct"
                 ) -> list[PairSearchResult]:
    """One result per class entry f of the sequence `entries`, in order:
    the deduplicated (alpha, beta) with alpha*f(beta*x) an orthomorphism,
    from one `pp_batch` call (method "direct") or one `class_lookup` call
    ("table") over the line rows of all entries.

    The table route groups each entry's pairs by target.  For gcd(q, 7) = 1
    every target with the source's x^2..x^5 support has a system, and
    every hit falls in one of them: alpha*f(beta*x) - x has no x^6 or
    constant term, so a relation to a target has c = d = 0 and keeps the
    support.  A target with a zero x-coefficient is marked vanishing (the
    x-coefficient of alpha*f(beta*x) - x must vanish).
    """
    if method not in ("direct", "table"):
        raise InvalidArgument(f"unknown method {method!r}")
    lines = kernels.pair_line(field, [e.coeff_row() for e in entries])  # (m, q-1, 8)
    if method == "direct":
        hit = kernels.pp_batch(field, lines)
    else:
        ords = class_lookup(field, lines)
        hit = ords > 0
        targets = field_entries(field)
    cells, out = kernels.pair_cells(field), []
    for k, (e, h) in enumerate(zip(entries, hit)):
        pairs, sigs = _dedup(field, e.coeff_row(), h[cells])
        if method == "direct":
            out.append(PairSearchResult(e, "direct", pairs, sigs))
            continue
        zeros = [c == 0 for c in e.coeff_row()[2:6]]  # the x^2..x^5 support
        per_target = {t.ordinal: [] for t in targets if field.p != 7
                      and [c == 0 for c in t.coeff_row()[2:6]] == zeros}
        # a polynomial lies in one class: each system's pairs are the kept
        # pairs whose image hits its target
        for a, b in pairs:
            ordv = int(ords[k, cells[a - 1, b - 1]])
            assert field.p == 7 or ordv in per_target, (e.ordinal, ordv)
            per_target.setdefault(ordv, []).append((a, b))
        out.append(PairSearchResult(e, "table_based", pairs, sigs, systems=tuple(
            SystemResult(o, field.p != 7 and targets[o - 1].coeff_row()[1] == 0,
                         tuple(per_target[o])) for o in sorted(per_target))))
    return out


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


def family_record(result: PairSearchResult, fmt) -> dict:
    """One family's pair search as the JSON record of `pairs` and
    `enumerate`, its elements as the literals `fmt` gives."""
    return {"ordinal": result.family.ordinal,
            "tuple": [fmt(c) for c in result.family.coeffs],
            "exceptional": result.family.exceptional,
            "method": result.method,
            "pair_count": result.pair_count,
            "pairs": [[fmt(a), fmt(b)] for a, b in result.pairs]}


def count_ops(field: Field | int, method: str = "direct") -> EnumerationReport:
    """Per-family pair sets and the derived totals over the classes of one
    field (`field_entries`); an order stands for its preset field."""
    if not isinstance(field, Field):
        field = field_for(field)
    per = search_pairs(field, field_entries(field), method)
    q = field.q
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


def write_vectors(field: Field, report: EnumerationReport, fh) -> int:
    """Write the rows of `enumerate_ops` to fh as vector literals, one a
    line and one write per pair (its q^2 shift rows); the rows written."""
    lits, n = field.literals, 0
    for res in report.per_family:
        for block in shift_blocks(field, res.signatures):
            fh.write("\n".join([vector_form(lits, row)
                                for row in zip(*block.T.tolist())]) + "\n")
            n += len(block)
    return n


def shift_blocks(field: Field, sigs) -> Iterator[np.ndarray]:
    """The q^2 rows g(x+gamma)+delta of each coefficient vector g of `sigs`,
    gamma-major then delta, one (q^2, 8) block per g: one `expand_shifts`
    call for the batch, then each block fans its q rows out over delta."""
    elems = np.arange(field.q, dtype=np.int64)
    sigs = np.asarray(sigs, dtype=np.int64).reshape(-1, 1, 8)
    for rows in kernels.expand_shifts(field, sigs, 1, 1, elems, 0):
        block = np.repeat(rows, field.q, axis=0)
        block[:, 0] = field.add_t[rows[:, :1], elems].ravel()
        yield block

