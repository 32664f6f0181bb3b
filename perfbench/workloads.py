"""The benchmark workloads: set-up, one timed pass, and the checks.

Each workload is a closed loop with one caller. A pass is the unit the
benchmark times; its checks run afterwards, outside the timed region, on
what the pass returned. Expected figures are the paper's exact counts,
pinned here rather than read from the package's own reference data.

Only public ``ortho7`` functions are called, and the package receives
nothing but the inputs generated here from the seed.
"""

from __future__ import annotations

import hashlib
import math
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from ortho7 import families, field, pairs, perm, poly, verify

TABLE_ORDERS = (11, 13, 17, 19, 23, 25, 27, 31, 49)
CENSUS_WORKERS = 2

# verify ---------------------------------------------------------------------

VERIFY_CHECKS = ("family-tables", "non-redundancy", "pair-fixtures", "totals",
                 "method-agreement", "distinctness", "classification-audit",
                 "property-suite")
TINY_VERIFY_CHECKS = ("family-tables", "pair-fixtures", "totals",
                      "method-agreement", "classification-audit")


def setup_verify(tiny: bool) -> None:
    """Fields, validated tables, lookup codes and class-image index of
    every table order, the order-41 field and the reference data."""
    for q in TABLE_ORDERS + (41,):
        field.field_for(q)
    for q in TABLE_ORDERS:
        families.table_for(q)
        if field.field_for(q).p == 7:
            families.image_codes(q)
        else:
            families.table_codes(q)
    verify.load_reference()


def verify_pass(seed: int, tiny: bool, out_dir: Path):
    if not tiny:
        return verify.run_suite()
    reports = {}
    return [verify.check_family_tables(), verify.check_pair_fixtures(reports),
            verify.check_totals(reports), verify.check_method_agreement(),
            verify.check_audit(n_random=1_000)]


def verify_checks(results, seed: int, tiny: bool) -> list[tuple[str, bool, str]]:
    by_name = {r.name: r for r in results}
    want = TINY_VERIFY_CHECKS if tiny else VERIFY_CHECKS
    return [(name, name in by_name and by_name[name].ok,
             by_name[name].detail if name in by_name else "check not run")
            for name in want]


# census ---------------------------------------------------------------------

# (q, property, expected count) over canonical (zero constant term)
# degree-7 polynomials. q = 8 and the q = 11 op count are the paper's
# canonical census; cpp = op at q = 11 because f -> -f maps one set onto
# the other.
CENSUS_QUERIES = ((8, "op", 0), (11, "op", 660), (11, "cpp", 660))
TINY_CENSUS_QUERIES = ((8, "op", 0), (8, "cpp", 0))


def census_queries(tiny: bool):
    return TINY_CENSUS_QUERIES if tiny else CENSUS_QUERIES


def setup_census(tiny: bool) -> None:
    for q in sorted({q for q, _, _ in census_queries(tiny)}):
        field.field_for(q)


def census_pass(seed: int, tiny: bool, out_dir: Path):
    return [perm.census(perm.CensusQuery(field.field_for(q), 7, True, prop),
                        workers=CENSUS_WORKERS)
            for q, prop, _ in census_queries(tiny)]


def census_checks(counts, seed: int, tiny: bool) -> list[tuple[str, bool, str]]:
    return [(f"q={q} {prop}", got == want, f"{got} (expected {want})")
            for (q, prop, want), got in zip(census_queries(tiny), counts)]


def census_candidates(tiny: bool) -> int:
    return sum(perm.CensusQuery(field.field_for(q), 7, True, prop).space()
               for q, prop, _ in census_queries(tiny))


# emit -----------------------------------------------------------------------

EMIT_ORDERS = (25, 49)
EMIT_FRACTION = 0.025    # share of each q = 49 family's pairs emitted
EMIT_SAMPLE = 64         # rows per order re-checked by direct evaluation
DEFAULT_SEED = 1
# sha256 of the q = 25 rows (all pairs, so the same for every seed) and of
# the whole output for DEFAULT_SEED, keyed by tiny mode.
Q25_DIGEST = "4708cbb13787765efceca3cdfc93bf15d1244e7909eb20ae859413869437ddf7"
FULL_DIGEST = {
    False: "223e776f9da80c492c6e55c327fdcbf1954718da4d834fc527d9f2faf94d501f",
    True: "4e1cd1fdc7ad59562934067f81d6ecfde6bc54b41c368a19c24a62506d0e01a8",
}


def setup_emit(tiny: bool) -> None:
    for q in EMIT_ORDERS:
        field.field_for(q)
        families.table_for(q)


def _subset(report, rng: np.random.Generator, tiny: bool):
    """The report restricted to a seeded share of each family's pairs, in
    the public EnumerationReport / PairSearchResult form."""
    per = []
    for r in report.per_family:
        n = r.pair_count
        take = min(n, 1 if tiny else math.ceil(EMIT_FRACTION * n))
        idx = sorted(int(i) for i in rng.choice(n, take, replace=False)) if n else []
        per.append(pairs.PairSearchResult(
            r.family, r.method, tuple(r.pairs[i] for i in idx),
            tuple(r.signatures[i] for i in idx)))
    return pairs.EnumerationReport(report.q, per, list(report.notes))


@dataclass
class Emission:
    path: Path
    rows: dict[int, int]       # rows written per order
    pair_totals: dict[int, int]


def emit_pass(seed: int, tiny: bool, out_dir: Path) -> Emission:
    """What ``ortho7 enumerate --emit`` writes, for q = 25 (every pair) and
    a seeded subset of the q = 49 pairs, streamed into one file."""
    rng = np.random.default_rng(seed)
    fd, name = tempfile.mkstemp(suffix=".txt", prefix=f"emit-{seed}-", dir=out_dir)
    rows, totals = {}, {}
    with os.fdopen(fd, "w") as fh:
        for q in EMIT_ORDERS:
            report = pairs.count_ops(q)
            if q == 49:
                report = _subset(report, rng, tiny)
            n = 0
            for row in pairs.enumerate_ops(q, report):
                fh.write(poly.format_poly(row, "vector"))
                fh.write("\n")
                n += 1
            rows[q], totals[q] = n, report.pair_total
    return Emission(Path(name), rows, totals)


def emit_checks(em: Emission, seed: int, tiny: bool) -> list[tuple[str, bool, str]]:
    """Row counts, per-pair distinctness and cross-pair disjointness, a
    seeded orthomorphism re-check and the pinned digests."""
    out = []
    with open(em.path, "rb") as fh:
        lines = fh.read().split(b"\n")[:-1]
    want_rows = sum(em.pair_totals[q] * q * q for q in EMIT_ORDERS)
    out.append(("row count", len(lines) == want_rows
                and all(em.rows[q] == em.pair_totals[q] * q * q for q in EMIT_ORDERS),
                f"{len(lines)} rows, expected pairs*q^2 = {want_rows}"))
    n25 = em.rows[25]
    q25, q49 = lines[:n25], lines[n25:]
    out.append(("q=25 distinct", len(set(q25)) == n25,
                f"{len(set(q25))} distinct of {n25}"))
    block = 49 * 49
    per_pair = [set(q49[i:i + block]) for i in range(0, len(q49), block)]
    union = set().union(*per_pair)
    out.append(("q=49 q vectors per pair, disjoint across pairs",
                all(len(s) == 49 for s in per_pair) and len(union) == 49 * len(per_pair),
                f"{len(union)} distinct over {len(per_pair)} pairs"))
    rng = np.random.default_rng(seed)
    bad = 0
    for q, part in ((25, q25), (49, q49)):
        fld = field.field_for(q)
        for i in rng.choice(len(part), min(EMIT_SAMPLE, len(part)), replace=False):
            coeffs = tuple(fld.parse_element(s) for s in part[i].decode().split(","))
            bad += not perm.is_orthomorphism(poly.Poly(fld, coeffs))
    out.append(("sampled rows are orthomorphisms", bad == 0, f"{bad} failures"))
    digest = hashlib.sha256(b"".join(line + b"\n" for line in q25)).hexdigest()
    out.append(("q=25 digest", digest == Q25_DIGEST, digest))
    if seed == DEFAULT_SEED:
        digest = hashlib.sha256(b"".join(line + b"\n" for line in lines)).hexdigest()
        out.append(("output digest", digest == FULL_DIGEST[tiny], digest))
    return out


def emit_rows(em: Emission) -> int:
    return sum(em.rows.values())


@dataclass(frozen=True)
class Workload:
    setup: Callable[[bool], None]
    run_pass: Callable
    checks: Callable
    # wall seconds of one full-size pass on a 2-vCPU Xeon VM, rounded up;
    # it fixes how many passes a run of --seconds makes (see run.passes)
    nominal_pass_s: float


WORKLOADS = {
    "verify": Workload(setup_verify, verify_pass, verify_checks, nominal_pass_s=30),
    "census": Workload(setup_census, census_pass, census_checks, nominal_pass_s=16),
    "emit": Workload(setup_emit, emit_pass, emit_checks, nominal_pass_s=5),
}
