"""Re-derivation of every quantitative classification claim, as checks.

Each check recomputes one layer of the reproduction from scratch and
compares it against the golden fixtures in data/reference_results.json:

  family_tables     entry counts, permutation property, criteria compliance
  non_redundancy    no two table entries of one field are linearly related
                    (their class-image sets are pairwise disjoint)
  pair_fixtures     per-family pair sets vs the published lists (compared
                    as the polynomials they name, so representative choice
                    cannot matter), every order's per-family pair counts,
                    and the per-system counts for q=25
  totals            orthomorphism totals, exceptional subtotals, and the
                    nonexistence orders (the fixture's zero totals)
  method_agreement  direct evaluation vs table-based search, per family
  distinctness      each pair's q^2 shifts give q^2 distinct coefficient
                    vectors (q at q=49), disjoint across pairs
  census            one exhaustive scan per order of CENSUS_ORDERS
                    reproduces the canonical op counts, with op as the
                    f - lam*x count at every lam and op_total = canonical * q;
                    at those in TABLE_ORDERS too, pp = q(q-1)|index|: the
                    class tables are complete
  audit             table-based and direct permutation tests agree on
                    AUDIT_ROWS random rows per order and a structured sweep
  properties        canonical-form class constancy, shift invariance

The CLI `verify` subcommand and the acceptance test suite both run these.
`run_suite` is one `perm.fork_map`: this process runs the report chain
(every other check, sharing one `reports` memo) while the forked ones (if
any) claim the audit's nine per-order items; the items left when the
chain ends run here.  The fork comes before the chain, so a child
inherits only the tables built before `run_suite` and builds those its
audit orders need itself.  The audit's `elapsed` is the sum of its
per-order busy times.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass
from importlib import resources
from math import ceil

import numpy as np

from . import kernels
from .canon import canonical_rows
from .families import (
    EXPECTED_COUNTS,
    audit_random,
    audit_support,
    image_codes,
    table_for,
)
from .field import field_for
from .pairs import (
    EnumerationReport,
    count_ops,
    shift_blocks,
)
from .perm import CensusQuery, census_counts, fork_map
from .poly import LinearTransform

TABLE_ORDERS = tuple(EXPECTED_COUNTS)
PAPER_ORDERS = (11, 13, 17, 19, 25, 49)  # the orders with orthomorphisms
CENSUS_ORDERS = (8, 11, 13, 17, 19)
AUDIT_ROWS = 100_000  # random rows per order; c8 pins the audit's detail


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str
    elapsed: float

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return f"[{status}] {self.name} ({self.elapsed:.1f}s): {self.detail}"


@functools.cache
def load_reference() -> dict:
    raw = resources.files("ortho7").joinpath("data", "reference_results.json").read_text()
    return json.loads(raw)


def _timed(name):
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs) -> CheckResult:
            t0 = time.perf_counter()
            ok, detail = fn(*args, **kwargs)
            return CheckResult(name, ok, detail, time.perf_counter() - t0)

        return inner

    return wrap


def _report(reports: dict | None, q: int, method: str = "direct") -> EnumerationReport:
    """count_ops(q, method), memoised in `reports` under q or (q, method)."""
    reports = {} if reports is None else reports
    key = q if method == "direct" else (q, method)
    if key not in reports:
        reports[key] = count_ops(q, method)
    return reports[key]


@_timed("family-tables")
def check_family_tables():
    """Counts per field, permutation property of every entry, criteria
    compliance of non-exceptional entries (validated on load)."""
    problems, total = [], 0
    for q in TABLE_ORDERS:
        try:
            total += len(table_for(q).entries)  # validates counts, entries, criteria
        except Exception as e:  # validation failure
            problems.append(f"q={q}: {e}")
    if problems:
        return False, "; ".join(problems)
    return True, f"{total} entries across {len(TABLE_ORDERS)} fields validated"


@_timed("non-redundancy")
def check_non_redundancy():
    """No two entries of one field are linearly related, by class-image
    disjointness.

    For normalised entries (monic, zero constant term), e_j = a*e_i(bx+c)+d
    holds exactly when the monic zero-constant reduction of e_i(bx+c) is
    e_j, because a and d are forced by the leading and constant terms.
    Each entry's image set under all (b, c) contains the entry itself
    (b = 1, c = 0), and image sets are orbits, so two of them are equal or
    disjoint.  Pairwise disjoint image sets per order are therefore
    equivalent to no two entries being linearly related.  The class-image
    index of `families.image_codes` refuses an overlap when it is built.
    When p != 7 a code clears x^6, so it stands for the q images that
    differ by a shift.
    """
    entries = images = 0
    for q in TABLE_ORDERS:
        entries += len(table_for(q).entries)
        try:
            codes = image_codes(q)[0]
        except ValueError as e:  # the index refuses overlapping images
            return False, str(e)
        images += len(codes) * (q if q % 7 else 1)
    return True, (f"{entries} entries, {images} class images, pairwise "
                  f"disjoint per field: no linear relations")


def _published_signature_sets(q: int):
    """Published pair lists mapped to the polynomials they name."""
    ref = load_reference()
    field = field_for(q)
    defects = ref.get("pair_list_defects", {}).get(str(q), {})
    out = {}
    for ord_str, pair_lits in ref["pair_lists"].get(str(q), {}).items():
        ordinal = int(ord_str)
        row = table_for(q).entries[ordinal - 1].coeff_row()
        corrupt = {tuple(p) for p in
                   defects.get(ord_str, {}).get("corrupt", [])}
        ab = np.array([[field.parse_element(lit) for lit in p] for p in pair_lits
                       if tuple(p) not in corrupt], dtype=np.int64).reshape(-1, 2)
        rows = kernels.expand_shifts(field, row, ab[:, 0], ab[:, 1], 0, 0)
        out[ordinal] = (set(map(tuple, rows.tolist())), defects.get(ord_str, {}))
    return out


@_timed("pair-fixtures")
def check_pair_fixtures(reports: dict | None = None):
    """Computed pair sets vs the published lists.

    Lists are compared as sets of generated polynomials alpha*f(beta*x)
    (invariant under the choice of pair representative).  Each order's
    per-family pair counts are compared in one piece, families without a
    published list included; for q = 25 the per-system deduplicated counts
    are the authoritative figures.
    """
    ref = load_reference()
    problems = []
    for q in PAPER_ORDERS:
        rep = _report(reports, q)
        by_ord = {r.family.ordinal: r for r in rep.per_family}
        published = _published_signature_sets(q)
        for ordinal, (sigs, defect) in published.items():
            got = set(by_ord[ordinal].signatures)
            missing_allowed = defect.get("missing_count", 0)
            if not sigs <= got:
                problems.append(f"q={q} family {ordinal}: published list "
                                f"names {len(sigs - got)} non-pairs")
            elif len(got) - len(sigs) != missing_allowed:
                problems.append(
                    f"q={q} family {ordinal}: computed {len(got)} classes, "
                    f"published {len(sigs)} (+{missing_allowed} known gaps)")
        # every family's count: the fixture lists the families with pairs
        counts = {str(o): r.pair_count for o, r in by_ord.items() if r.pair_count}
        if counts != ref["family_pair_counts"][str(q)]:
            problems.append(f"q={q}: family pair counts {counts}, expected "
                            f"{ref['family_pair_counts'][str(q)]}")
    # q=25 per-system counts against the published equation-by-equation data
    got_systems = [[r.family.ordinal, s.target_ordinal, int(s.vanishing), s.pair_count]
                   for r in _report(reports, 25, "table").per_family for s in r.systems]
    if sorted(got_systems) != sorted(ref["system_counts"]["25"]):
        problems.append(f"q=25 system counts differ: {got_systems}")
    if problems:
        return False, "; ".join(problems)
    return True, f"published pair lists reproduced (q={','.join(map(str, PAPER_ORDERS))})"


@_timed("totals")
def check_totals(reports: dict | None = None):
    """Orthomorphism totals and exceptional pair subtotals.  A nonexistence
    order is one whose expected total is 0: its pair search over
    `field_entries` comes back empty."""
    ref = load_reference()
    problems = []
    for q_str, want in ref["op_totals"].items():
        q = int(q_str)
        rep = _report(reports, q)
        if rep.op_total != want:
            problems.append(f"q={q}: op_total {rep.op_total} != {want}")
        want_exc = ref["exceptional_pair_totals"].get(q_str)
        if want_exc is not None and rep.exceptional_pair_total != want_exc:
            problems.append(f"q={q}: exceptional pairs "
                            f"{rep.exceptional_pair_total} != {want_exc}")
    if problems:
        return False, "; ".join(problems)
    counts = ", ".join(f"{q}:{ref['op_totals'][str(q)]}" for q in PAPER_ORDERS)
    nonexistent = "/".join(q for q, want in ref["op_totals"].items() if not want)
    return True, f"totals exact ({counts}; 0 for {nonexistent})"


@_timed("method-agreement")
def check_method_agreement(reports: dict | None = None):
    """The direct and the table route of `search_pairs` find the same pairs
    for every family of every table order."""
    families = 0
    for q in TABLE_ORDERS:
        for d, t in zip(_report(reports, q).per_family,
                        _report(reports, q, "table").per_family):
            if d.pairs != t.pairs:
                return False, (f"q={q} family {d.family.ordinal}: direct "
                               f"{len(d.pairs)} vs table {len(t.pairs)} pairs")
            families += 1
    return True, f"{families} families agree across both methods"


@_timed("distinctness")
def check_distinctness(reports: dict | None = None):
    """Shift-expansion cardinalities, one law for every order: each
    checked pair's q^2 rows g(x+gamma)+delta hold exactly D distinct
    coefficient vectors, and the vectors of all checked pairs of an order
    are disjoint, across families too.

    D is q^2 for gcd(q, 7) = 1, so the stream of q <= 25 holds op_total
    distinct vectors.  For q = 49 the x^6-coefficient step of the
    distinctness argument divides by 7, and indeed (x+gamma)^7 = x^7 +
    gamma^7 in characteristic 7, so gamma-shifts only move the constant
    term and D = q: a family's distinct count is pairs * q while op_total
    keeps the published parameterization count pairs * q^2.  Orders up to
    25 check every pair; q = 49 checks the whole a = 0 family plus a 5%
    pair sample of each other family.  Each pair's block is reduced to its
    distinct base-q codes (49^8 < 2^63).  The sample's seed is 2024.
    """
    rng = np.random.default_rng(2024)
    for q in PAPER_ORDERS:
        rep = _report(reports, q)
        field = field_for(q)
        want = q if field.p == 7 else q * q
        weights = q ** np.arange(8, dtype=np.int64)
        blocks = [weights[:0]]
        for r in rep.per_family:
            n = len(r.signatures)
            take = (n if q != 49 or r.family.coeffs == (0, 0, 0, 0, 0)
                    else ceil(0.05 * n))
            idx = (range(n) if take == n else
                   sorted(rng.choice(n, take, replace=False)))
            for block in shift_blocks(field, [r.signatures[i] for i in idx]):
                codes = np.sort(block @ weights)  # np.unique would import numpy.ma
                codes = codes[np.diff(codes, prepend=-1) != 0]  # distinct: codes >= 0
                if len(codes) != want:
                    return False, (f"q={q} family {r.family.ordinal}: pair "
                                   f"expansion gave {len(codes)} != {want} "
                                   f"vectors")
                blocks.append(codes)
        codes = np.sort(np.concatenate(blocks))
        if np.any(codes[1:] == codes[:-1]):
            return False, f"q={q}: expansions of distinct pairs overlap"
    return True, ("collision-free to q=25; q=49 collapses to q vectors per "
                  "pair (characteristic 7), disjoint across pairs")


@_timed("census")
def check_census(workers: int = 2,
                 reports: dict | None = None):
    """One exhaustive canonical census per order gives pp and the count n_lam
    of permutations f with f - lam*x one too, for every lam in F_q*: op = n_1
    is the published canonical count, op_total = op * q, and at the table
    orders pp = q(q-1)|index|.  Every n_lam = op, since f -> mu*f maps the
    canonical space onto itself and f - lam*x to mu*f - mu*lam*x.  The lam
    other than 1 and -1 make that a check: over whole x^1 groups n_-lam =
    n_lam (so cpp = op) always, as f -> f - lam*x pairs the two rows' hits.
    A permutation with zero constant term is a*g(x + c) - a*g(c) for one
    lead a, one shift c and one g with zero constant and x^6 terms, and
    each index code names such a g that is a permutation, so the mass
    identity proves the class table complete."""
    ref = load_reference()
    details, masses = [], []
    for q in CENSUS_ORDERS:
        want = ref["canonical_census"][str(q)]
        got = census_counts(CensusQuery(field_for(q), 7, True), workers=workers)
        if got["op"] != want:
            return False, f"q={q}: canonical census {got['op']} != {want}"
        if any(n != got["op"] for n in got["lam"]):
            return False, f"q={q}: f - lam*x counts {got['lam']} != op {got['op']}"
        details.append(f"{q}:{got['op']}")
        if q in TABLE_ORDERS:
            rep = _report(reports, q)
            if rep.op_total != got["op"] * q:
                return False, (f"q={q}: op_total {rep.op_total} != "
                               f"canonical {got['op']} * q")
            index = len(image_codes(q)[0])
            if got["pp"] != q * (q - 1) * index:
                return False, (f"q={q}: pp {got['pp']} != q(q-1) * {index} "
                               f"index codes: the class table is incomplete")
            masses.append(f"{q}:{got['pp']}")
    return True, (f"canonical counts {', '.join(details)}; every lam count=op; "
                  f"op_total=count*q; pp=q(q-1)|index| {', '.join(masses)}")


def _audit_order(q: int, n_random: int):
    """One order of the classification audit, its random rows seeded by
    7 + q: (busy seconds, rows, permutations, failure detail or None)."""
    t0 = time.perf_counter()
    rand = audit_random(field_for(q), n_random, seed=7 + q)
    shape = audit_support(field_for(q), (3, 1))
    fail = (f"q={q}: {len(rand.disagreements)} disagreements" if not rand.ok
            else None if shape.ok else f"q={q}: shape audit disagreements")
    return (time.perf_counter() - t0, rand.total + shape.total,
            rand.pp_count + shape.pp_count, fail)


def _audit_result(parts) -> CheckResult:
    """The audit from its parts in TABLE_ORDERS order: first failure wins."""
    busy, rows, pps, fails = zip(*parts)
    fail = next(filter(None, fails), None)
    return CheckResult("classification-audit", not fail, fail or (
        f"{sum(rows)} polynomials audited, {sum(pps)} permutations, "
        f"zero disagreements"), sum(busy))


def check_audit(n_random: int = AUDIT_ROWS) -> CheckResult:
    """Zero disagreements between the table route and direct evaluation:
    n_random random degree-7 polynomials per supported field plus the
    exhaustive x^7 + a3 x^3 + a1 x sweep."""
    return _audit_result([_audit_order(q, n_random) for q in TABLE_ORDERS])


@_timed("property-suite")
def check_properties(reports: dict | None = None):
    """Canonicalisation class constancy and orthomorphism shift
    invariance, on random draws seeded by 11."""
    rng = np.random.default_rng(11)
    # canonical form constant on a class: the entry and its images
    # a*f(bx+c)+d, the full (a, b, c) grid for q <= 13 and 60 random
    # transforms elsewhere, in one batch per order
    for q in (q for q in TABLE_ORDERS if q % 7):
        field = field_for(q)
        entry = table_for(q).non_exceptional()[0]
        f = entry.coeff_row()
        if q <= 13:
            a, b, c = np.indices((q - 1, q - 1, q)).reshape(3, -1)
            a, b, d = a + 1, b + 1, np.zeros_like(c)
        else:
            a, b, c, d = np.array([[rng.integers(1, q), rng.integers(1, q),
                                    rng.integers(0, q), rng.integers(0, q)]
                                   for _ in range(60)]).T
        images = kernels.expand_shifts(field, f, a, b, c, d)
        tuples, _ = canonical_rows(field, np.vstack([f, images]))
        wrong = (tuples != entry.coeffs).any(axis=1)
        if wrong[0]:
            return False, f"q={q}: table entry not canonical"
        if wrong.any():
            i = int(np.argmax(wrong)) - 1
            t = LinearTransform(int(a[i]), int(b[i]), int(c[i]), int(d[i]))
            return False, f"q={q}: class constancy fails under {t}"
    # orthomorphism shift invariance, exhaustive over (gamma, delta): the
    # q^2 rows g(x+gamma)+delta and their rows minus x, one batch each
    for q in PAPER_ORDERS:
        field = field_for(q)
        rep = next(r for r in _report(reports, q).per_family if r.pair_count)
        rows = next(shift_blocks(field, rep.signatures[:1]))
        minus_x = rows.copy()
        minus_x[:, 1] = field.sub_t[rows[:, 1], 1]
        op = kernels.pp_batch(field, rows) & kernels.pp_batch(field, minus_x)
        if not op.all():
            gamma, delta = divmod(int(np.argmin(op)), q)
            return False, f"q={q}: shift ({gamma},{delta}) breaks OP"
    return True, "class constancy, shift invariance"


def run_suite(deep: bool = False, workers: int = 2) -> list[CheckResult]:
    """The full battery, scheduled as the module docstring says; census if `deep`."""
    reports: dict = {}
    (*chain, properties), parts = fork_map(
        _audit_order, [(q, AUDIT_ROWS) for q in TABLE_ORDERS], workers,
        first=lambda: (check_family_tables(), check_non_redundancy(),
                       check_pair_fixtures(reports), check_totals(reports),
                       check_method_agreement(reports), check_distinctness(reports),
                       check_properties(reports)))
    results = [*chain, _audit_result(parts), properties]
    if deep:
        results.append(check_census(workers=workers, reports=reports))
    return results
