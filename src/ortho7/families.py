"""Class tables of degree-7 permutation polynomials and table-based tests.

Each supported field order ships the complete list of linear-relation
class representatives x^7 + f5 x^5 + ... + f1 x (non-exceptional classes
first, then the exceptional ones), transcribed from the published
classification and re-proved at load time: every entry must pass the
direct permutation check, and non-exceptional entries must satisfy the
canonical-form criteria whenever gcd(q, 7) = 1.  A transcription error
therefore cannot survive import.

Two table entries required source-side corrections, both pinned down by
recomputation (see the data file header): the q = 27 representative is
stored as the canonical form of x^7 - x^3 + x, and entry 10 for q = 49
is an editorial reconstruction of a garbled line, validated as the
unique completion that is a permutation polynomial and is not linearly
related to any other entry.

The class-image index of an order holds the normalised code of every
image e(bx+c) of every class entry; when p != 7 the code clears the x^6
term by a shift, so the images e(bx) already give every code, q-1 per
entry.  Its per-entry image sets are pairwise disjoint exactly when no
two entries are linearly related (the non-redundancy check).

The classes of an order are its table entries or, for orders q = 6
(mod 7) outside the tables, the one class of x^7: a degree-7 permutation
polynomial there must be linearly related to x^7 (`class_entries`).
Membership in them has one route: a lookup of the normalised code in the
class-image index of the caller's field (`class_lookup`), which answers
`is_pp_by_table`, the batched audit, the classify witness and the
table-based pair route at every order.  Table entries are encoded in the
preset field of their order, so another field of a table order is
refused (`field_entries`).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from importlib import resources

import numpy as np

from . import kernels
from .canon import criteria_mask
from .errors import DegreeMismatch, UnsupportedOrder
from .field import Field, field_for
from .poly import LinearTransform, Poly, eval_poly
from .perm import is_permutation

EXPECTED_COUNTS = {
    11: (25, 3), 13: (14, 1), 17: (17, 3), 19: (9, 3), 23: (3, 3),
    25: (3, 3), 27: (1, 1), 31: (3, 3), 49: (1, 9),
}

# Entries whose stored reading is an editorial reconstruction of a
# defective source line (validated at load time like everything else).
RECONSTRUCTED = {(49, 10)}


@dataclass(frozen=True)
class FamilyEntry:
    """One class representative (f5, f4, f3, f2, f1) with metadata."""

    q: int
    coeffs: tuple[int, int, int, int, int]  # (f5, f4, f3, f2, f1)
    exceptional: bool
    ordinal: int

    def poly(self, field: Field) -> Poly:
        return Poly(field, self.coeff_row())

    def coeff_row(self) -> tuple[int, ...]:
        f5, f4, f3, f2, f1 = self.coeffs
        return (0, f1, f2, f3, f4, f5, 0, 1)

    @property
    def reconstructed(self) -> bool:
        return (self.q, self.ordinal) in RECONSTRUCTED


@dataclass(frozen=True)
class FamilyTable:
    q: int
    entries: tuple[FamilyEntry, ...]

    def non_exceptional(self):
        return [e for e in self.entries if not e.exceptional]

    def exceptional(self):
        return [e for e in self.entries if e.exceptional]


_TABLES: dict[int, FamilyTable] | None = None
_VALIDATED: set[int] = set()


def _parse_tables(text: str) -> dict[int, FamilyTable]:
    rows: dict[int, list[FamilyEntry]] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#") or line.startswith("q,"):
            continue
        qs, f5, f4, f3, f2, f1, exc, ordn = [p.strip() for p in line.split(",")]
        q = int(qs)
        field = field_for(q)
        coeffs = tuple(field.parse_element(v) for v in (f5, f4, f3, f2, f1))
        rows.setdefault(q, []).append(
            FamilyEntry(q, coeffs, exc == "1", int(ordn)))
    out = {}
    for q, entries in rows.items():
        entries.sort(key=lambda e: e.ordinal)
        out[q] = FamilyTable(q, tuple(entries))
    return out


def load_family_tables() -> dict[int, FamilyTable]:
    global _TABLES
    if _TABLES is None:
        text = resources.files("ortho7").joinpath("data", "families.csv").read_text()
        _TABLES = _parse_tables(text)
    return _TABLES


def validate_table(q: int) -> FamilyTable:
    """Re-prove the table for one order: counts, permutation property of
    every entry, criteria compliance of non-exceptional entries (when
    gcd(q,7) = 1), and contiguous 1-based ordinals."""
    table = load_family_tables()[q]
    if q in _VALIDATED:
        return table
    field = field_for(q)
    n_non, n_exc = EXPECTED_COUNTS[q]
    if (len(table.non_exceptional()), len(table.exceptional())) != (n_non, n_exc):
        raise ValueError(f"table counts for q={q} do not match the expected "
                         f"{n_non}+{n_exc}")
    if [e.ordinal for e in table.entries] != list(range(1, len(table.entries) + 1)):
        raise ValueError(f"non-contiguous ordinals in table q={q}")
    passes = (criteria_mask(field, [e.coeffs for e in table.entries]) if q % 7
              else np.ones(len(table.entries), dtype=bool))
    for e, ok in zip(table.entries, passes):
        if not is_permutation(e.poly(field)):
            raise ValueError(f"table entry q={q} ordinal {e.ordinal} is not a "
                             f"permutation polynomial")
        if not e.exceptional and not ok:
            raise ValueError(f"non-exceptional entry q={q} ordinal "
                             f"{e.ordinal} fails the canonical criteria")
    _VALIDATED.add(q)
    return table


def table_for(q: int) -> FamilyTable:
    tables = load_family_tables()
    if q not in tables:
        raise UnsupportedOrder(f"no class table for q={q}")
    return validate_table(q)


# ---------------------------------------------------------------------------
# Lookup structures for the kernels.

_CODE_CACHE: dict[int, np.ndarray] = {}
_IMAGE_CACHE: dict[Field, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}


def table_codes(q: int) -> np.ndarray:
    """Sorted base-q codes of the (f5..f1) tuples, for batch lookups.
    No package code reads them: they stay because the benchmark's
    `setup_verify` (perfbench/workloads.py) builds them."""
    if q not in _CODE_CACHE:
        codes = sorted(np.polyval(e.coeffs, q) for e in table_for(q).entries)
        _CODE_CACHE[q] = np.asarray(codes, dtype=np.int64)
    return _CODE_CACHE[q]


def class_entries(q: int) -> tuple[FamilyEntry, ...]:
    """The class representatives of one order: the table entries, or the
    single x^7 entry for q = 6 (mod 7) outside the tables."""
    if q in load_family_tables():
        return table_for(q).entries
    if q % 7 == 6:
        return (FamilyEntry(q, (0, 0, 0, 0, 0), True, 1),)
    raise UnsupportedOrder(f"no class table for q={q} and the x^7 rule "
                           f"does not apply")


def class_images(field: Field, entries):
    """Normalised codes of the images e(bx+c), (b, c) in F_q* x F_q, of
    each entry (deduplicated per entry, sorted by code) with the entry's
    ordinal and first (b, c) per code: the codes of the monic zero-constant
    members of each class, since a and d of a*e(bx+c)+d are forced.  When
    p != 7 the code of e(bx+c) is that of e(bx), so only c = 0 is built."""
    q = field.q
    nc = q if field.p == 7 else 1
    bs = np.repeat(np.arange(1, q, dtype=np.int64), nc)
    cs = np.tile(np.arange(nc, dtype=np.int64), q - 1)
    all_codes, all_ords, all_shifts = [], [], []
    for e in entries:
        rows = kernels.expand_shifts(field, e.coeff_row(), bs, cs)
        codes, first = np.unique(kernels.normalized_code_batch(field, rows),
                                 return_index=True)
        all_codes.append(codes)
        all_ords.append(np.full(len(codes), e.ordinal, dtype=np.int64))
        all_shifts.append(np.stack([bs[first], cs[first]], axis=1))
    codes = np.concatenate(all_codes)
    order = np.argsort(codes, kind="stable")
    return (codes[order], np.concatenate(all_ords)[order],
            np.concatenate(all_shifts)[order])


def image_overlap(codes: np.ndarray, ords: np.ndarray) -> tuple[int, int] | None:
    """Ordinals of two entries whose images share a code in the sorted
    output of `class_images`, or None when the image sets are disjoint."""
    dup = np.flatnonzero(codes[1:] == codes[:-1])
    if dup.size == 0:
        return None
    return int(ords[dup[0]]), int(ords[dup[0] + 1])


def image_codes(q: int):
    """The class-image index of one order in its preset field."""
    return _class_index(field_for(q))


def field_entries(field: Field) -> tuple[FamilyEntry, ...]:
    """`class_entries` of the field's order, refused for a table order
    outside its preset field: table entries are encoded in the preset field
    of their order, while the x^7 entry reads the same in every field."""
    q = field.q
    entries = class_entries(q)
    if q in load_family_tables() and field != field_for(q):
        raise UnsupportedOrder(f"the q={q} class table is encoded in the "
                               f"preset field {field_for(q)!r}")
    return entries


def _class_index(field: Field):
    """`class_images` of every class entry in the given field, cached per
    field.  Classes are disjoint, which is asserted during the build."""
    if field in _IMAGE_CACHE:
        return _IMAGE_CACHE[field]
    q = field.q
    index = class_images(field, field_entries(field))
    overlap = image_overlap(*index[:2])
    if overlap is not None:
        raise ValueError(f"q={q}: entries {overlap[0]} and {overlap[1]} are "
                         f"linearly related; their class images overlap")
    _IMAGE_CACHE[field] = index
    return index


def class_lookup(field: Field, C):
    """Look degree-7 coefficient rows (last axis of C) up in the class-image
    index of the field: the hit mask, and per row the ordinal of the matched
    entry of `class_entries` and the (b, c) the index keeps for the matched
    code (both meaningful only where the row hits)."""
    codes, ords, shifts = _class_index(field)
    hit, pos = kernels.code_member(codes, kernels.normalized_code_batch(field, C))
    return hit, ords[pos], shifts[pos]


def image_witness(h: Poly) -> LinearTransform:
    """A t with apply_transform(h, t) the class entry e matched for h (which
    must be in a class).  The index holds a (b, c) whose e(bx+c) has h's
    code, so e(bx+c) = u*h(x+s) + v with s the `x6_shift` of h (s = 0 when
    p = 7); with c' = c - b*s, e = u*h((x-c')/b) + v, and u and v are forced
    by the x^7 and x^0 terms."""
    fld = h.field
    _, ordv, (b, c) = class_lookup(fld, h.coeffs)
    e = class_entries(fld.q)[int(ordv) - 1].poly(fld)
    b, c = int(b), int(c)
    if fld.p != 7:
        c = fld.sub(c, fld.mul(b, int(kernels.x6_shift(fld, h.coeffs))))
    u = fld.mul(fld.mul(e.coeff(7), fld.pow(b, 7)), fld.inv(h.coeff(7)))
    return LinearTransform(u, fld.inv(b), fld.neg(fld.mul(c, fld.inv(b))),
                           fld.sub(eval_poly(e, c), fld.mul(u, h.coeff(0))))


def is_pp_by_table(h: Poly) -> FamilyEntry | None:
    """Table-based permutation test: the matching class entry, or None, by
    one lookup in the class-image index of h's field.  Supported orders are
    those of `class_entries`, in any field for the x^7 rule, up to the
    int64 limit of the codes (q <= 6208)."""
    if h.degree != 7:
        raise DegreeMismatch(f"expected degree 7, got {h.degree}")
    hit, ordv, _ = class_lookup(h.field, h.coeffs)
    return class_entries(h.field.q)[int(ordv) - 1] if hit else None


@dataclass
class AuditReport:
    q: int
    total: int = 0
    pp_count: int = 0
    disagreements: list = dc_field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.disagreements


def audit_rows(field: Field, rows,
               report: AuditReport | None = None) -> AuditReport:
    """Assert that class membership by the class-image index agrees with
    the direct permutation check on each degree-7 coefficient row;
    disagreements are collected, not raised."""
    if report is None:
        report = AuditReport(field.q)
    C = np.asarray(rows, dtype=np.int64)
    if C.size == 0:
        return report
    direct = kernels.pp_batch(field, C).astype(bool)
    member, _, _ = class_lookup(field, C)
    report.total += len(C)
    report.pp_count += int(direct.sum())
    for i in np.nonzero(direct != member)[0]:
        report.disagreements.append(
            (tuple(int(v) for v in C[i]), bool(direct[i]), bool(member[i])))
    return report


def audit_random(field: Field, n: int, seed: int = 0,
                 batch: int = 1 << 14) -> AuditReport:
    """n uniform random degree-7 polynomials (leading coefficient uniform
    over F_q*, the rest over F_q)."""
    rng = np.random.default_rng(seed)
    report = AuditReport(field.q)
    left = n
    while left > 0:
        b = min(batch, left)
        C = rng.integers(0, field.q, size=(b, 8), dtype=np.int64)
        C[:, 7] = rng.integers(1, field.q, size=b, dtype=np.int64)
        audit_rows(field, C, report)
        left -= b
    return report


def audit_support(field: Field, positions: tuple[int, ...]) -> AuditReport:
    """Exhaustive audit over monic x^7 + sum a_i x^i with the given
    support positions ranging over the whole field (zeros included)."""
    q = field.q
    grids = np.meshgrid(*[np.arange(q)] * len(positions), indexing="ij")
    flat = [g.ravel() for g in grids]
    C = np.zeros((flat[0].size, 8), dtype=np.int64)
    C[:, 7] = 1
    for pos, vals in zip(positions, flat):
        C[:, pos] = vals
    return audit_rows(field, C)
