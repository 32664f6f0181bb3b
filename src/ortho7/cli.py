"""Command-line interface.

Subcommands: test, classify, pairs, enumerate, census, verify.  A field
is selected either with --q (preset or prime order) or with the explicit
--p/--r/--modulus triple.  Output formats: text (default), json, csv;
json and text carry identical numeric content.  Exit codes: 0 all
requested checks pass, 1 a verification mismatch, 2 usage or parse
errors (including budget refusals and unwritable output paths).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import __version__, verify as verify_mod
from .canon import canonicalize
from .errors import Ortho7Error, ParseError, UnsupportedOrder
from .families import field_entries, image_witness, is_pp_by_table
from .field import FieldSpec, build_field, field_for
from .pairs import (
    count_ops,
    search_pairs_direct,
    search_pairs_table_based,
    shift_blocks,
)
from .perm import (
    CensusQuery,
    DEFAULT_BUDGET,
    census,
    is_complete_mapping,
    is_orthomorphism,
    is_permutation,
)
from .poly import format_poly, parse_poly, vector_form


def _int_at_least(low: int):
    """An argparse `type` for integers >= `low`."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return parse


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ortho7",
        description="degree-7 orthomorphism polynomials over small finite "
                    "fields: tests, classification, pair search, census")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def add_field_args(sp):
        sp.add_argument("--q", type=int, help="field order (preset or prime)")
        sp.add_argument("--p", type=int, help="characteristic")
        sp.add_argument("--r", type=int, default=1, help="extension degree")
        sp.add_argument("--modulus",
                        help="comma-separated ascending modulus coefficients")

    def add_output(sp):
        sp.add_argument("--format", choices=("text", "json", "csv"),
                        default="text")
        sp.add_argument("--out", help="write output to this path")

    def add_common(sp):
        add_field_args(sp)
        add_output(sp)

    sp = sub.add_parser("test", help="property test for one polynomial")
    sp.add_argument("poly", help="polynomial literal ('x^7+2x' or '0,2,...,1')")
    sp.add_argument("--property", choices=("pp", "op", "cpp"), default="pp")
    add_common(sp)

    sp = sub.add_parser("classify", help="canonical form and matching class")
    sp.add_argument("poly")
    add_common(sp)

    sp = sub.add_parser("pairs", help="orthomorphism pair search per family")
    sp.add_argument("--family", type=int, help="family ordinal (default all)")
    sp.add_argument("--method", choices=("direct", "table", "both"),
                    default="direct")
    add_common(sp)

    sp = sub.add_parser("enumerate", help="count or emit all orthomorphisms")
    sp.add_argument("--emit", help="write one coefficient vector per record "
                                   "to this path")
    add_common(sp)

    sp = sub.add_parser("census", help="exhaustive coefficient-space count")
    sp.add_argument("--degree", type=int, default=7)
    sp.add_argument("--canonical", action="store_true",
                    help="restrict to zero constant term")
    sp.add_argument("--property", choices=("pp", "op", "cpp"), default="op")
    sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    sp.add_argument("--workers", type=_int_at_least(1), default=2,
                    help="CPUs to use, capped at the usable ones (default 2)")
    add_common(sp)

    sp = sub.add_parser("verify", help="re-check the published results")
    sp.add_argument("--field", type=int,
                    help="run only the totals check, for one order")
    # None defaults: cmd_verify refuses these next to --field
    sp.add_argument("--deep", action="store_true", default=None,
                    help="add one canonical census per order q=8,11,13,17,19: "
                         "its op counts, op for every f - lam*x, and the permutation "
                         "count that proves the 11-19 class tables complete "
                         "(about 6 s on 2 workers)")
    sp.add_argument("--audit-n", type=_int_at_least(0),
                    help="rows in the classification audit (default 100000)")
    sp.add_argument("--workers", type=_int_at_least(1),
                    help="CPUs to use, capped at the usable ones: forked "
                         "processes plus this one (default 2)")
    add_output(sp)
    return p


def resolve_field(args):
    has_q = args.q is not None
    has_explicit = args.p is not None
    if has_q == has_explicit:
        raise ParseError("select the field with exactly one of --q or "
                         "--p/--r/--modulus")
    if has_q:
        return field_for(args.q)
    if args.r > 1:
        if not args.modulus:
            raise ParseError("--modulus is required when --r > 1")
        try:
            modulus = tuple(int(v) for v in args.modulus.split(","))
        except ValueError:
            raise ParseError(f"--modulus must be comma-separated integers, "
                             f"got {args.modulus!r}") from None
    else:
        modulus = (0, 1)
    return build_field(FieldSpec(args.p, args.r, modulus))


# ---------------------------------------------------------------------------


def _emit(args, payload: dict, text_lines: list[str], csv_rows: list[list]):
    if args.format == "json":
        out = json.dumps(payload, indent=2) + "\n"
    elif args.format == "csv":
        out = "\n".join(",".join(str(v) for v in row) for row in csv_rows)
        out += "\n"
    else:
        out = "\n".join(text_lines) + "\n"
    if args.out is not None:
        with open(args.out, "w") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)


def cmd_test(args) -> int:
    field = resolve_field(args)
    t0 = time.perf_counter()
    f = parse_poly(field, args.poly)
    checks = {"pp": is_permutation, "op": is_orthomorphism,
              "cpp": is_complete_mapping}
    verdict = checks[args.property](f)
    results = {"poly": format_poly(f), "property": args.property,
               "verdict": verdict}
    lines = [f"{format_poly(f)} over F_{field.q}: {args.property} = {verdict}"]
    if args.property == "pp" and f.degree == 7:
        try:
            entry = is_pp_by_table(f)
        except UnsupportedOrder as e:
            lines.append(f"({e}; direct verdict only)")
        else:
            if entry is None:
                results["family"] = None
                lines.append("class table: no matching family")
            else:
                results["family"] = {"ordinal": entry.ordinal,
                                     "exceptional": entry.exceptional}
                kind = "exceptional" if entry.exceptional else "non-exceptional"
                lines.append(f"class table: family {entry.ordinal} ({kind})")
    payload = {"q": field.q, "command": "test", "results": results,
               "totals": {}, "timings": {"elapsed_s": time.perf_counter() - t0}}
    _emit(args, payload, lines,
          [[field.q, format_poly(f, "vector"), args.property, verdict]])
    return 0


def cmd_classify(args) -> int:
    field = resolve_field(args)
    t0 = time.perf_counter()
    f = parse_poly(field, args.poly)
    entry = is_pp_by_table(f)
    results: dict = {"poly": format_poly(f)}
    lines = []
    if field.p != 7:
        cf, _ = canonicalize(f)
        tup = [field.format_element(c) for c in cf.tuple5]
        results["canonical_tuple"] = tup
        lines.append(f"canonical form: ({', '.join(tup)})  [t-index {cf.t_index}]")
    else:
        results["canonical_tuple"] = None
        lines.append("characteristic 7: classification by the class-image "
                     "index of the table")
    if entry is None:
        results["transform"] = results["family"] = None
        lines.append("not a permutation polynomial")
    else:
        results["transform"] = [field.format_element(v)
                                for v in image_witness(f).as_tuple()]
        lines.append("witnessing transform (a, b, c, d): "
                     f"({', '.join(results['transform'])})")
        results["family"] = {"ordinal": entry.ordinal,
                             "exceptional": entry.exceptional,
                             "tuple": [field.format_element(c)
                                       for c in entry.coeffs]}
        kind = "exceptional" if entry.exceptional else "non-exceptional"
        lines.append(f"family {entry.ordinal} ({kind})")
    payload = {"q": field.q, "command": "classify", "results": results,
               "totals": {}, "timings": {"elapsed_s": time.perf_counter() - t0}}
    _emit(args, payload, lines,
          [[field.q, format_poly(f, "vector"),
            results["family"]["ordinal"] if entry else ""]])
    return 0


def cmd_pairs(args) -> int:
    field = resolve_field(args)
    t0 = time.perf_counter()
    entries = field_entries(field)
    if args.family is not None:
        if not 1 <= args.family <= len(entries):
            raise ParseError(f"--family must be in 1..{len(entries)} for "
                             f"q={field.q}, got {args.family}")
        entries = [entries[args.family - 1]]
    fmt = field.format_element
    results = []
    lines = []
    csv_rows = [["q", "family", "method", "alpha", "beta"]]
    agree = True
    for entry in entries:
        recs = {}
        if args.method in ("direct", "both"):
            recs["direct"] = search_pairs_direct(field, entry)
        if args.method in ("table", "both"):
            recs["table"] = search_pairs_table_based(field, entry)
        shown = recs.get("direct") or recs.get("table")
        pair_lits = [[fmt(a), fmt(b)] for a, b in shown.pairs]
        rec = {"ordinal": entry.ordinal, "exceptional": entry.exceptional,
               "tuple": [fmt(c) for c in entry.coeffs],
               "pair_count": shown.pair_count, "pairs": pair_lits}
        if args.method == "both":
            rec["methods_agree"] = recs["direct"].pairs == recs["table"].pairs
            agree &= rec["methods_agree"]
        results.append(rec)
        lines.append(f"family {entry.ordinal} ({', '.join(rec['tuple'])})"
                     f"{' [exceptional]' if entry.exceptional else ''}: "
                     f"{shown.pair_count} pairs")
        if shown.pairs:
            lines.append("  " + " ".join(f"({a},{b})" for a, b in pair_lits))
        if args.method == "both":
            lines.append(f"  methods agree: {rec['methods_agree']}")
        for a, b in pair_lits:
            csv_rows.append([field.q, entry.ordinal, args.method, a, b])
    total = sum(r["pair_count"] for r in results)
    payload = {"q": field.q, "command": "pairs",
               "results": {"families": results,
                           "methods_agree": agree if args.method == "both" else None},
               "totals": {"pair_total": total},
               "timings": {"elapsed_s": time.perf_counter() - t0}}
    lines.append(f"pair total: {total}")
    _emit(args, payload, lines, csv_rows)
    if args.method == "both" and not agree:
        return 1
    return 0


def cmd_enumerate(args) -> int:
    field = resolve_field(args)
    t0 = time.perf_counter()
    report = count_ops(field)
    summary = report.to_dict(field)
    payload = {"q": field.q, "command": "enumerate",
               "results": summary["families"],
               "totals": summary["totals"],
               "timings": {}}
    payload["results_notes"] = report.notes
    lines = [f"q={field.q}: pair_total={report.pair_total} "
             f"op_total={report.op_total} "
             f"(exceptional pairs {report.exceptional_pair_total})"]
    lines += [f"note: {n}" for n in report.notes]
    csv_rows = [["q", "family", "pair_count"]]
    for r in report.per_family:
        csv_rows.append([field.q, r.family.ordinal, r.pair_count])
    if args.emit is not None:
        lits = field.literals
        n = 0
        with open(args.emit, "w") as fh:
            # one write per pair: its q^2 shift rows as vector literals
            for r in report.per_family:
                for block in shift_blocks(field, r.signatures):
                    fh.write("\n".join([vector_form(lits, row)
                                        for row in zip(*block.T.tolist())]) + "\n")
                    n += len(block)
        lines.append(f"wrote {n} coefficient vectors to {args.emit}")
        payload["results_emitted"] = n
    payload["timings"]["elapsed_s"] = time.perf_counter() - t0
    _emit(args, payload, lines, csv_rows)
    return 0


def cmd_census(args) -> int:
    field = resolve_field(args)
    query = CensusQuery(field, args.degree, args.canonical, args.property)
    t0 = time.perf_counter()
    count = census(query, workers=args.workers, budget=args.budget)
    dt = time.perf_counter() - t0
    space = query.space()
    payload = {"q": field.q, "command": "census",
               "results": {"degree": args.degree, "canonical": args.canonical,
                           "property": args.property, "count": count},
               "totals": {"count": count, "candidates": space},
               "timings": {"elapsed_s": dt,
                           "candidates_per_s": space / dt if dt else None}}
    lines = [f"q={field.q} degree={args.degree} "
             f"{'canonical ' if args.canonical else ''}{args.property}-census: "
             f"{count}  ({space} candidates in {dt:.2f}s)"]
    _emit(args, payload, lines,
          [[field.q, args.degree, int(args.canonical), args.property, count]])
    return 0


def cmd_verify(args) -> int:
    t0 = time.perf_counter()
    suite_opts = {name: getattr(args, name) for name in ("deep", "audit_n", "workers")
                  if getattr(args, name) is not None}
    if args.field is not None:
        if suite_opts:
            flags = ", ".join("--" + name.replace("_", "-") for name in suite_opts)
            raise ParseError(f"--field runs the totals check alone; it takes no {flags}")
        q = args.field
        want = verify_mod.load_reference()["op_totals"].get(str(q))
        if want is None:
            raise UnsupportedOrder(f"no reference totals for q={q}")
        got = count_ops(q).op_total
        ok = got == want
        payload = {"q": q, "command": "verify",
                   "results": {"op_total": got, "expected": want, "ok": ok},
                   "totals": {"pass": int(ok), "fail": int(not ok)},
                   "timings": {"elapsed_s": time.perf_counter() - t0}}
        _emit(args, payload, [f"q={q}: op_total {got} expected {want}: "
                              f"{'PASS' if ok else 'FAIL'}"],
              [[q, got, want, "pass" if ok else "fail"]])
        return 0 if ok else 1

    results = verify_mod.run_suite(**suite_opts)
    ok = all(r.ok for r in results)
    payload = {"q": None, "command": "verify",
               "results": [{"name": r.name, "ok": r.ok, "detail": r.detail,
                            "elapsed_s": r.elapsed} for r in results],
               "totals": {"pass": sum(r.ok for r in results),
                          "fail": sum(not r.ok for r in results)},
               "timings": {"elapsed_s": time.perf_counter() - t0}}
    lines = [r.line() for r in results]
    lines.append(f"{'all checks passed' if ok else 'FAILURES PRESENT'}")
    _emit(args, payload, lines,
          [[r.name, int(r.ok), r.detail] for r in results])
    return 0 if ok else 1


_COMMANDS = {
    "test": cmd_test,
    "classify": cmd_classify,
    "pairs": cmd_pairs,
    "enumerate": cmd_enumerate,
    "census": cmd_census,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2
    try:
        return _COMMANDS[args.command](args)
    except (Ortho7Error, OSError) as e:  # OSError: an unwritable --out/--emit
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError:  # its message is usually empty
        print("error: out of memory: the field tables of this order, q x q "
              "entries each, do not fit", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
