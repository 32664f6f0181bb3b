"""Class tables of degree-7 permutation polynomials and table-based tests.

Each supported field order ships the complete list of linear-relation
class representatives x^7 + f5 x^5 + ... + f1 x (non-exceptional classes
first, then the exceptional ones), transcribed from the published
classification.  Import validates nothing: `load_family_tables` parses
the rows as they are, and `table_for` re-proves an order at its first
call.  Every entry must pass the direct permutation check, and the
non-exceptional ones the canonical-form criteria when gcd(q, 7) = 1.

Two table entries required source-side corrections, both pinned down by
recomputation (see the data file header): the q = 27 representative is
stored as the canonical form of x^7 - x^3 + x, and entry 10 for q = 49
is an editorial reconstruction of a garbled line, validated as the
unique completion that is a permutation polynomial and is not linearly
related to any other entry.

The class-image index of an order holds the distinct normalised codes
of the images e(bx+c) of its class entries and their ordinals; when
p != 7 the code clears the x^6 term by a shift, so the images e(bx)
already give every code, q-1 per entry.  Its per-entry image sets are
pairwise disjoint exactly when no two entries are linearly related (the
non-redundancy check).  The parsed tables, each validated order and each
field's index are kept for the process, each by a `functools.cache`.

The classes of an order are its table entries or, for orders q = 6
(mod 7) outside the tables, the one class of x^7: a degree-7 permutation
polynomial there must be linearly related to x^7.  `field_entries` lists
them for a field; table entries are encoded in the preset field of their
order, so another field of a table order is refused.  Membership in them
has one route: a lookup of the normalised code in the class-image index
of the caller's field (`class_lookup`, each row's class ordinal or 0),
which answers `is_pp_by_table`, the classify witness, the table-based
pair route and `verify`'s classification audit at every order.  The
index also keeps a presence table of its codes' top digits (up to three,
in at most 2^16 entries): a lookup reads each row's top digits first,
answers 0 for a row whose prefix is absent, and codes and searches only
the rest in full.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from importlib import resources

import numpy as np

from . import kernels
from .canon import criteria_mask
from .errors import DegreeMismatch, InvalidArgument, UnsupportedOrder
from .field import Field, field_for
from .poly import LinearTransform, Poly, eval_poly
from .perm import is_permutation

EXPECTED_COUNTS = {
    11: (25, 3), 13: (14, 1), 17: (17, 3), 19: (9, 3), 23: (3, 3),
    25: (3, 3), 27: (1, 1), 31: (3, 3), 49: (1, 9),
}


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


@dataclass(frozen=True)
class FamilyTable:
    q: int
    entries: tuple[FamilyEntry, ...]

    def non_exceptional(self):
        return [e for e in self.entries if not e.exceptional]

    def exceptional(self):
        return [e for e in self.entries if e.exceptional]


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


@functools.cache
def load_family_tables() -> dict[int, FamilyTable]:
    text = resources.files("ortho7").joinpath("data", "families.csv").read_text()
    return _parse_tables(text)


@functools.cache
def validate_table(q: int) -> FamilyTable:
    """Re-prove the table for one order, once per process: counts,
    permutation property of every entry, criteria compliance of
    non-exceptional entries (when gcd(q,7) = 1), contiguous ordinals."""
    table = load_family_tables()[q]
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
    return table


def table_for(q: int) -> FamilyTable:
    tables = load_family_tables()
    if q not in tables:
        raise UnsupportedOrder(f"no class table for q={q}")
    return validate_table(q)


# ---------------------------------------------------------------------------
# Lookup structures for the kernels.

@functools.cache
def table_codes(q: int) -> np.ndarray:
    """Sorted base-q codes of the (f5..f1) tuples, for batch lookups.
    No package code reads them: they stay because the benchmark's
    `setup_verify` (perfbench/workloads.py) builds them."""
    codes = sorted(np.polyval(e.coeffs, q) for e in table_for(q).entries)
    return np.asarray(codes, dtype=np.int64)


def _image_grid(field: Field, C):
    """The normalised codes of the images e(bx+c) of each degree-7 row e of
    C (last axis) over the image grid, shape C.shape[:-1] + (n,), and the
    grid's b and c: b-major over F_q* x F_q, or c = 0 alone when p != 7,
    where the code of e(bx+c) is that of e(bx)."""
    q = field.q
    nc = q if field.p == 7 else 1
    bs = np.repeat(np.arange(1, q, dtype=np.int64), nc)
    cs = np.tile(np.arange(nc, dtype=np.int64), q - 1)
    rows = kernels.expand_shifts(field, np.asarray(C)[..., None, :], 1, bs, cs, 0)
    return kernels.normalized_code_batch(field, rows), bs, cs


def class_images(field: Field, entries):
    """Normalised codes of the images e(bx+c) of every entry over the image
    grid, with the entry's ordinal, sorted by (code, ordinal), repeats
    kept: the codes of the monic zero-constant members of each class,
    since a and d of a*e(bx+c)+d are forced."""
    codes = _image_grid(field, [e.coeff_row() for e in entries])[0]
    ords = np.repeat([e.ordinal for e in entries], codes.shape[-1])
    order = np.lexsort((ords, codes.ravel()))
    return codes.ravel()[order], ords[order]


def image_codes(q: int):
    """The class-image index of one order in its preset field: its codes
    and their ordinals."""
    return _class_index(field_for(q))[:2]


def field_entries(field: Field) -> tuple[FamilyEntry, ...]:
    """The class representatives of the field's order: the table entries,
    which are encoded in the preset field of their order and refused in
    any other, or the single x^7 entry for q = 6 (mod 7) outside the
    tables, which reads the same in every field."""
    q = field.q
    if q in load_family_tables():
        if field != field_for(q):
            raise UnsupportedOrder(f"the q={q} class table is encoded in the "
                                   f"preset field {field_for(q)!r}")
        return table_for(q).entries
    if q % 7 == 6:
        return (FamilyEntry(q, (0, 0, 0, 0, 0), True, 1),)
    raise UnsupportedOrder(f"no class table for q={q} and the x^7 rule "
                           f"does not apply")


@functools.cache
def _class_index(field: Field):
    """The distinct `class_images` codes of the field's class entries, their
    ordinals and the presence table of their prefixes (`_prefix_width` top
    digits), once per field and process.  Classes are disjoint: two entries
    whose images share a code are refused, and the refusal is not kept."""
    codes, ords = class_images(field, field_entries(field))
    first = np.diff(codes, prepend=-1) != 0  # the first of each run: codes >= 0
    clash = np.flatnonzero(~first[1:] & (ords[1:] != ords[:-1]))
    if clash.size:
        raise ValueError(f"q={field.q}: entries {int(ords[clash[0]])} and "
                         f"{int(ords[clash[0] + 1])} are linearly related; "
                         f"their class images overlap")
    q, k = field.q, _prefix_width(field.q)
    present = np.zeros(q ** k, dtype=bool)
    present[codes[first] // q ** (kernels.code_width(field) - k)] = True
    return codes[first], ords[first], present


def _prefix_width(q: int) -> int:
    """The top digits a lookup reads first: the most, up to 3, whose
    presence table of q^k entries fits 2^16 (3 up to q = 40, 2 up to 256)."""
    return next(k for k in (3, 2, 1) if k == 1 or q ** k <= 1 << 16)


def class_lookup(field: Field, C):
    """Look degree-7 coefficient rows (last axis of C) up in the class-image
    index of the field: per row the ordinal of its class among
    `field_entries` (ordinals run from 1), or 0 for a row in no class,
    such as one whose x^7 coefficient is 0.  A row is read top digit first:
    one whose prefix no class code has answers 0 from its first
    `normal_digits`, and only the rest are coded in full and searched."""
    codes, ords, present = _class_index(field)
    C = np.asarray(C, dtype=np.int64)
    rows = C.reshape(-1, C.shape[-1])
    digits = kernels.normal_digits(field, rows)
    prefix = next(digits)
    for _ in range(_prefix_width(field.q) - 1):
        prefix = prefix * field.q + next(digits)
    live = np.flatnonzero(present[prefix] & (rows[:, 7] != 0))
    hit, pos = kernels.code_member(codes, kernels.normalized_code_batch(field, rows[live]))
    out = np.zeros(len(rows), dtype=ords.dtype)
    out[live[hit]] = ords[pos[hit]]
    return out.reshape(C.shape[:-1])


def image_witness(h: Poly) -> LinearTransform:
    """A t with apply_transform(h, t) the class entry e matched for h, or
    InvalidArgument for an h in no class.  The first (b, c) of the image grid
    whose e(bx+c) has h's code gives e(bx+c) = u*h(x+s) + v with s the
    `x6_shift` of h (s = 0 when p = 7); with c' = c - b*s, e = u*h((x-c')/b)
    + v, and u and v are forced by the x^7 and x^0 terms."""
    if (entry := is_pp_by_table(h)) is None:
        raise InvalidArgument(f"{h} is in no class at q={h.field.q}: no witness to give")
    fld, e = h.field, entry.poly(h.field)
    codes, bs, cs = _image_grid(fld, e.coeffs)
    i = int(np.argmax(codes == kernels.normalized_code_batch(fld, h.coeffs)))
    b, c = int(bs[i]), int(cs[i])
    if fld.p != 7:
        c = fld.sub(c, fld.mul(b, int(kernels.x6_shift(fld, h.coeffs))))
    u = fld.mul(fld.mul(e.coeff(7), fld.pow(b, 7)), fld.inv(h.coeff(7)))
    return LinearTransform(u, fld.inv(b), fld.neg(fld.mul(c, fld.inv(b))),
                           fld.sub(eval_poly(e, c), fld.mul(u, h.coeff(0))))


def is_pp_by_table(h: Poly) -> FamilyEntry | None:
    """Table-based permutation test: the matching class entry, or None, by
    one lookup in the class-image index of h's field.  Supported orders are
    those of `field_entries`, in any field for the x^7 rule, up to the
    int64 limit of the codes (q <= 6208)."""
    if h.degree != 7:
        raise DegreeMismatch(f"expected degree 7, got {h.degree}")
    ordv = int(class_lookup(h.field, h.coeffs))
    return field_entries(h.field)[ordv - 1] if ordv else None

