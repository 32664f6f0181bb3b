"""Command-line interface.

Subcommands: test, classify, pairs, enumerate, census, verify.  A field
is selected either with --q (preset or prime order) or with the explicit
--p/--r/--modulus triple; --r or --modulus beside --q, or a --modulus
without r > 1, is a usage error.  An integer option or --modulus entry
is an optional '-' and ASCII digits.  Each `cmd_*` returns a `Record`; `run`
alone times the whole command (`timings.elapsed_s`, field build and
parsing included), builds the payload and writes it as text (default),
json or csv; json and text carry identical numeric content.  Exit codes:
0 all requested checks pass, 1 a verification mismatch, 2 usage or parse
errors (including budget refusals, orders past the field-table budget
and unwritable output paths).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field as dc_field

from . import __version__, verify as verify_mod
from .canon import canonicalize
from .errors import Ortho7Error, ParseError, UnsupportedOrder
from .families import field_entries, image_witness, is_pp_by_table
from .field import FieldSpec, build_field, field_for
from .pairs import (
    count_ops,
    family_record,
    search_pairs,
    write_vectors,
)
from .perm import (
    CensusQuery,
    DEFAULT_BUDGET,
    census,
    is_complete_mapping,
    is_orthomorphism,
    is_permutation,
)
from .poly import format_poly, parse_poly


def _integer(low: int | None = None):
    """The argparse type of every integer option, and the reader of each
    --modulus entry: an optional '-' and ASCII digits, at least `low`."""
    def parse(text: str) -> int:
        if not (text.isascii() and text.removeprefix("-").isdigit()):
            raise ValueError(text)
        value = int(text)  # a ValueError too past int()'s digit limit
        if low is not None and value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    parse.__name__ = "int"  # a ValueError reads "invalid int value: ..."
    return parse


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ortho7",
        description="degree-7 orthomorphism polynomials over small finite "
                    "fields: tests, classification, pair search, census")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def add_output(sp):
        sp.add_argument("--format", choices=("text", "json", "csv"),
                        default="text")
        sp.add_argument("--out", help="write output to this path")

    def add_common(sp):  # the field selection and the output
        sp.add_argument("--q", type=_integer(), help="field order (preset or prime)")
        sp.add_argument("--p", type=_integer(), help="characteristic")
        sp.add_argument("--r", type=_integer(), help="extension degree (default 1)")
        sp.add_argument("--modulus",
                        help="comma-separated ascending modulus coefficients")
        add_output(sp)

    sp = sub.add_parser("test", help="property test for one polynomial")
    sp.add_argument("poly", help="polynomial literal ('x^7+2x' or '0,2,...,1')")
    sp.add_argument("--property", choices=("pp", "op", "cpp"), default="pp")
    add_common(sp)

    sp = sub.add_parser("classify", help="canonical form and matching class")
    sp.add_argument("poly")
    add_common(sp)

    sp = sub.add_parser("pairs", help="orthomorphism pair search per family")
    sp.add_argument("--family", type=_integer(), help="family ordinal (default all)")
    sp.add_argument("--method", choices=("direct", "table", "both"),
                    default="direct")
    add_common(sp)

    sp = sub.add_parser("enumerate", help="count or emit all orthomorphisms")
    sp.add_argument("--emit", help="write one coefficient vector per record "
                                   "to this path")
    add_common(sp)

    sp = sub.add_parser("census", help="exhaustive coefficient-space count")
    sp.add_argument("--degree", type=_integer(), default=7)
    sp.add_argument("--canonical", action="store_true",
                    help="restrict to zero constant term")
    sp.add_argument("--property", choices=("pp", "op", "cpp"), default="op")
    sp.add_argument("--budget", type=_integer(), default=DEFAULT_BUDGET)
    sp.add_argument("--workers", type=_integer(1), default=2,
                    help="CPUs to use, capped at the usable ones (default 2)")
    add_common(sp)

    sp = sub.add_parser("verify", help="re-check the published results")
    sp.add_argument("--field", type=_integer(),
                    help="run only the totals check, for one order")
    # None defaults: cmd_verify refuses these next to --field
    census = verify_mod.CENSUS_ORDERS
    tabled = ",".join(str(q) for q in census if q in verify_mod.TABLE_ORDERS)
    sp.add_argument("--deep", action="store_true", default=None,
                    help=f"add one canonical census per order q={','.join(map(str, census))}: "
                         "its op counts, op for every f - lam*x, and the permutation count that "
                         f"proves the {tabled} class tables complete (about 4-5 s on 2 workers)")
    sp.add_argument("--workers", type=_integer(1),
                    help="CPUs to use, capped at the usable ones: forked "
                         "processes plus this one (default 2)")
    add_output(sp)
    return p


def resolve_field(args):
    if (args.q is None) == (args.p is None):
        raise ParseError("select the field with exactly one of --q or "
                         "--p/--r/--modulus")
    if args.q is not None:
        stray = [f"--{n}" for n in ("r", "modulus") if getattr(args, n) is not None]
        if stray:
            raise ParseError(f"--q selects the field alone; it takes no {', '.join(stray)}")
        return field_for(args.q)
    r, modulus = 1 if args.r is None else args.r, (0, 1)
    if r <= 1 and args.modulus is not None:
        raise ParseError(f"--modulus needs --r > 1, got r={r}")
    if r > 1:
        if not args.modulus:
            raise ParseError("--modulus is required when --r > 1")
        try:
            modulus = tuple(map(_integer(), args.modulus.split(",")))
        except ValueError:
            raise ParseError(f"--modulus must be comma-separated integers, "
                             f"got {args.modulus!r}") from None
    return build_field(FieldSpec(args.p, r, modulus))


@dataclass
class Record:
    """One subcommand's payload q, results and totals, text lines, csv rows,
    exit code, and any payload keys and `timings` entries of its own."""

    q: int | None
    results: object
    totals: dict
    lines: list[str]
    rows: list[list]
    code: int = 0
    extra: dict = dc_field(default_factory=dict)
    timings: dict = dc_field(default_factory=dict)


def _label(entry) -> str:
    return f"family {entry.ordinal} ({'' if entry.exceptional else 'non-'}exceptional)"


def cmd_test(args) -> Record:
    field = resolve_field(args)
    f = parse_poly(field, args.poly)
    verdict = {"pp": is_permutation, "op": is_orthomorphism,
               "cpp": is_complete_mapping}[args.property](f)
    results = {"poly": format_poly(f), "property": args.property, "verdict": verdict}
    lines = [f"{format_poly(f)} over F_{field.q}: {args.property} = {verdict}"]
    if args.property == "pp" and f.degree == 7:
        try:
            entry = is_pp_by_table(f)
        except UnsupportedOrder as e:
            lines.append(f"({e}; direct verdict only)")
        else:
            results["family"] = entry and {"ordinal": entry.ordinal,
                                           "exceptional": entry.exceptional}
            lines.append(f"class table: {_label(entry) if entry else 'no matching family'}")
    return Record(field.q, results, {}, lines,
                  [[field.q, format_poly(f, "vector"), args.property, verdict]])


def cmd_classify(args) -> Record:
    field = resolve_field(args)
    fmt = field.format_element
    f = parse_poly(field, args.poly)
    entry = is_pp_by_table(f)
    results: dict = {"poly": format_poly(f), "canonical_tuple": None}
    if field.p != 7:
        cf, _ = canonicalize(f)
        results["canonical_tuple"] = tup = [fmt(c) for c in cf.tuple5]
        lines = [f"canonical form: ({', '.join(tup)})  [t-index {cf.t_index}]"]
    else:
        lines = ["characteristic 7: classification by the class-image index of the table"]
    results["transform"] = results["family"] = None
    if entry is None:
        lines.append("not a permutation polynomial")
    else:
        results["transform"] = [fmt(v) for v in image_witness(f).as_tuple()]
        lines.append("witnessing transform (a, b, c, d): "
                     f"({', '.join(results['transform'])})")
        results["family"] = {"ordinal": entry.ordinal,
                             "exceptional": entry.exceptional,
                             "tuple": [fmt(c) for c in entry.coeffs]}
        lines.append(_label(entry))
    return Record(field.q, results, {}, lines,
                  [[field.q, format_poly(f, "vector"), entry.ordinal if entry else ""]])


def cmd_pairs(args) -> Record:
    field = resolve_field(args)
    entries = field_entries(field)
    if args.family is not None:
        if not 1 <= args.family <= len(entries):
            raise ParseError(f"--family must be in 1..{len(entries)} for "
                             f"q={field.q}, got {args.family}")
        entries = [entries[args.family - 1]]
    routes = [search_pairs(field, entries, method) for method in ("direct", "table")
              if args.method in (method, "both")]
    results, lines = [], []
    rows = [["q", "family", "method", "alpha", "beta"]]
    for entry, *found in zip(entries, *routes):
        rec = family_record(found[0], field.format_element)
        if args.method == "both":
            rec["methods_agree"] = found[0].pairs == found[1].pairs
        results.append(rec)
        lines.append(f"family {entry.ordinal} ({', '.join(rec['tuple'])})"
                     f"{' [exceptional]' if entry.exceptional else ''}: "
                     f"{rec['pair_count']} pairs")
        if rec["pairs"]:
            lines.append("  " + " ".join(f"({a},{b})" for a, b in rec["pairs"]))
        if args.method == "both":
            lines.append(f"  methods agree: {rec['methods_agree']}")
        rows += [[field.q, entry.ordinal, args.method, a, b] for a, b in rec["pairs"]]
    total = sum(r["pair_count"] for r in results)
    lines.append(f"pair total: {total}")
    agree = all(r["methods_agree"] for r in results) if args.method == "both" else None
    return Record(field.q, {"families": results, "methods_agree": agree},
                  {"pair_total": total}, lines, rows, code=int(agree is False))


def cmd_enumerate(args) -> Record:
    field = resolve_field(args)
    report = count_ops(field)
    lines = [f"q={field.q}: pair_total={report.pair_total} "
             f"op_total={report.op_total} "
             f"(exceptional pairs {report.exceptional_pair_total})"]
    lines += [f"note: {n}" for n in report.notes]
    extra = {"results_notes": report.notes}
    if args.emit is not None:
        with open(args.emit, "w") as fh:
            extra["results_emitted"] = n = write_vectors(field, report, fh)
        lines.append(f"wrote {n} coefficient vectors to {args.emit}")
    totals = {name: getattr(report, name) for name in (
        "pair_total", "op_total", "exceptional_pair_total", "exceptional_op_total")}
    return Record(field.q, [family_record(r, field.format_element)
                            for r in report.per_family], totals, lines,
                  [["q", "family", "pair_count"]] + [
                      [field.q, r.family.ordinal, r.pair_count]
                      for r in report.per_family], extra=extra)


def cmd_census(args) -> Record:
    field = resolve_field(args)
    query = CensusQuery(field, args.degree, args.canonical, args.property)
    t0 = time.perf_counter()  # the scan's own rate, apart from the set-up
    count = census(query, workers=args.workers, budget=args.budget)
    dt = time.perf_counter() - t0
    space = query.space()
    return Record(
        field.q, {"degree": args.degree, "canonical": args.canonical,
                  "property": args.property, "count": count},
        {"count": count, "candidates": space},
        [f"q={field.q} degree={args.degree} "
         f"{'canonical ' if args.canonical else ''}{args.property}-census: "
         f"{count}  ({space} candidates in {dt:.2f}s)"],
        [[field.q, args.degree, int(args.canonical), args.property, count]],
        timings={"candidates_per_s": space / dt if dt else None})


def cmd_verify(args) -> Record:
    suite_opts = {name: getattr(args, name) for name in ("deep", "workers")
                  if getattr(args, name) is not None}
    if args.field is not None:
        if suite_opts:
            flags = ", ".join("--" + name for name in suite_opts)
            raise ParseError(f"--field runs the totals check alone; it takes no {flags}")
        q = args.field
        want = verify_mod.load_reference()["op_totals"].get(str(q))
        if want is None:
            raise UnsupportedOrder(f"no reference totals for q={q}")
        got = count_ops(q).op_total
        ok = got == want
        return Record(q, {"op_total": got, "expected": want, "ok": ok},
                      {"pass": int(ok), "fail": int(not ok)},
                      [f"q={q}: op_total {got} expected {want}: "
                       f"{'PASS' if ok else 'FAIL'}"],
                      [[q, got, want, "pass" if ok else "fail"]], code=int(not ok))
    results = verify_mod.run_suite(**suite_opts)
    ok = all(r.ok for r in results)
    return Record(None, [{"name": r.name, "ok": r.ok, "detail": r.detail,
                          "elapsed_s": r.elapsed} for r in results],
                  {"pass": sum(r.ok for r in results),
                   "fail": sum(not r.ok for r in results)},
                  [r.line() for r in results]
                  + ["all checks passed" if ok else "FAILURES PRESENT"],
                  [[r.name, int(r.ok), r.detail] for r in results], code=int(not ok))


_COMMANDS = {"test": cmd_test, "classify": cmd_classify, "pairs": cmd_pairs,
             "enumerate": cmd_enumerate, "census": cmd_census, "verify": cmd_verify}


def run(args) -> int:
    """The one envelope: time the subcommand, build its payload, write
    the chosen format to stdout or --out, and return its exit code."""
    t0 = time.perf_counter()
    rec = _COMMANDS[args.command](args)
    payload = {"q": rec.q, "command": args.command, "results": rec.results,
               "totals": rec.totals,
               "timings": {"elapsed_s": time.perf_counter() - t0, **rec.timings},
               **rec.extra}
    if args.format == "json":
        out = json.dumps(payload, indent=2) + "\n"
    elif args.format == "csv":
        out = "\n".join(",".join(str(v) for v in row) for row in rec.rows) + "\n"
    else:
        out = "\n".join(rec.lines) + "\n"
    if args.out is None:
        sys.stdout.write(out)
    else:
        with open(args.out, "w") as fh:
            fh.write(out)
    return rec.code


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2
    try:
        return run(args)
    except (Ortho7Error, OSError) as e:  # OSError: an unwritable --out/--emit
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError:  # its message is usually empty
        print("error: out of memory: the field tables of this order, q x q "
              "entries each, do not fit", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
