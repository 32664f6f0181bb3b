"""Which ortho7 functions the traced run wraps, and the per-layer metrics
derived from the trace.

Metric names follow ``<module>.<figure>``: the module whose function the
figure measures. Times are inclusive seconds of outermost calls unless the
name says ``self``; a layer a workload does not reach reads 0.
"""

from __future__ import annotations

from spans import Layer, Tracer
from workloads import VERIFY_CHECKS


def _image_codes(tr: Tracer, args, kwargs, result):
    q = args[0] if args else kwargs["q"]
    tr.set(f"families.image_codes.q{q}", len(result[0]))


def _pair_grid(tr: Tracer, args, kwargs, grid):
    tr.count("kernels.pair_grid_cells", grid.size)
    tr.count("kernels.pair_grid_hits", int(grid.sum()))


def _search_direct(tr: Tracer, args, kwargs, result):
    tr.count("pairs.dedup_out", result.pair_count)


def _audit_rows(tr: Tracer, args, kwargs, result):
    rows = args[1] if len(args) > 1 else kwargs["rows"]
    tr.count("families.audit_rows", len(rows))


def _pp_batch(tr: Tracer, args, kwargs, result):
    tr.count("kernels.pp_batch_rows", len(result))
    tr.count("kernels.pp_batch_survivors", int(result.sum()))


def _census_scan(tr: Tracer, args, kwargs, result):
    start, stop = args[4:6] if len(args) >= 6 else (kwargs["start"], kwargs["stop"])
    tr.count("kernels.census_candidates", stop - start)
    tr.count("kernels.census_hits", result)


def _expand_row(tr: Tracer, args, kwargs, item):
    tr.count("pairs.expand_rows", 1)


VERIFY_CHECK_FUNCS = ("check_family_tables", "check_non_redundancy",
                      "check_pair_fixtures", "check_totals",
                      "check_method_agreement", "check_distinctness",
                      "check_audit", "check_properties")

LAYERS = [
    Layer("field", "build_field"),
    Layer("families", "validate_table"),
    Layer("families", "image_codes", hook=_image_codes),
    Layer("kernels", "normalized_code_batch"),
    Layer("canon", "solve_linear_relation"),
    Layer("canon", "canonicalize"),
    Layer("kernels", "op_pair_grid", hook=_pair_grid),
    Layer("pairs", "search_pairs_direct", hook=_search_direct),
    Layer("pairs", "search_pairs_table_based"),
    Layer("pairs", "count_ops"),
    Layer("pairs", "verify_nonexistence"),
    Layer("families", "audit_random"),
    Layer("families", "audit_support"),
    Layer("families", "audit_rows", hook=_audit_rows),
    Layer("kernels", "pp_batch", hook=_pp_batch),
    Layer("kernels", "table_member_batch"),
    Layer("kernels", "code_member"),
    Layer("kernels", "census_scan", hook=_census_scan),
    Layer("perm", "census"),
    Layer("perm", "is_permutation", "aggregate"),
    Layer("perm", "is_orthomorphism", "aggregate"),
    Layer("perm", "is_complete_mapping", "aggregate"),
    Layer("pairs", "enumerate_ops", "generator", hook=_expand_row),
    Layer("poly", "apply_transform", "aggregate"),
    Layer("poly", "format_poly", "aggregate"),
    Layer("verify", "run_suite"),
] + [Layer("verify", name) for name in VERIFY_CHECK_FUNCS]

_DIRECT = ("perm.is_permutation", "perm.is_orthomorphism",
           "perm.is_complete_mapping")


def layer_metrics(tr: Tracer, check_times: dict[str, float], workers: int,
                  traced_s: float, untraced_s: float) -> dict[str, tuple]:
    """Every per-layer metric as name -> (value, unit). `traced_s` and
    `untraced_s` are the wall times of the traced and the untraced pass."""
    counters = tr.counters()
    c = counters.get
    census_wall = tr.total_s("perm.census")
    busy = tr.total_s("kernels.census_scan")
    m = {
        "field.build_s": (tr.total_s("field.build_field"), "s"),
        "families.validate_s": (tr.total_s("families.validate_table"), "s"),
        "families.image_build_s": (tr.total_s("families.image_codes"), "s"),
        "families.image_codes": (sum(v for k, v in counters.items()
                                     if k.startswith("families.image_codes.")),
                                 "count"),
        "kernels.code_batch_s": (tr.total_s("kernels.normalized_code_batch"), "s"),
        "canon.relation_s": (tr.total_s("canon.solve_linear_relation"), "s"),
        "canon.relation_calls": (tr.calls("canon.solve_linear_relation"), "count"),
        "canon.canonicalize_s": (tr.total_s("canon.canonicalize"), "s"),
        "canon.canonicalize_calls": (tr.calls("canon.canonicalize"), "count"),
        "kernels.pair_grid_s": (tr.total_s("kernels.op_pair_grid"), "s"),
        "kernels.pair_grid_cells": (c("kernels.pair_grid_cells", 0), "count"),
        "kernels.pair_grid_hits": (c("kernels.pair_grid_hits", 0), "count"),
        "pairs.search_direct_s": (tr.total_s("pairs.search_pairs_direct"), "s"),
        "pairs.dedup_self_s": (tr.self_s("pairs.search_pairs_direct"), "s"),
        "pairs.search_table_s": (tr.total_s("pairs.search_pairs_table_based"), "s"),
        # every pair grid is computed inside search_pairs_direct, whose
        # dedup receives the grid's hits and keeps one pair per polynomial
        "pairs.dedup_in": (c("kernels.pair_grid_hits", 0), "count"),
        "pairs.dedup_out": (c("pairs.dedup_out", 0), "count"),
        "families.audit_s": (tr.total_s("families.audit_random")
                             + tr.total_s("families.audit_support"), "s"),
        "families.audit_rows": (c("families.audit_rows", 0), "count"),
        "kernels.pp_batch_s": (tr.total_s("kernels.pp_batch"), "s"),
        "kernels.pp_batch_rows": (c("kernels.pp_batch_rows", 0), "count"),
        "kernels.pp_batch_survivors": (c("kernels.pp_batch_survivors", 0), "count"),
        "kernels.table_member_s": (tr.total_s("kernels.table_member_batch")
                                   + tr.total_s("kernels.code_member"), "s"),
        "perm.direct_checks": (sum(tr.calls(n) for n in _DIRECT), "count"),
        "perm.direct_check_s": (sum(tr.total_s(n) for n in _DIRECT), "s"),
        "kernels.census_scan_s": (busy, "s"),
        "kernels.census_candidates": (c("kernels.census_candidates", 0), "count"),
        "kernels.census_hits": (c("kernels.census_hits", 0), "count"),
        "perm.census_wall_s": (census_wall, "s"),
        "perm.shard_busy_s": (busy, "s"),
        "perm.parallel_eff": (busy / (workers * census_wall) if census_wall else 0.0,
                              "ratio"),
        "pairs.expand_s": (tr.total_s("pairs.enumerate_ops"), "s"),
        "pairs.expand_rows": (c("pairs.expand_rows", 0), "count"),
        "poly.transform_s": (tr.total_s("poly.apply_transform"), "s"),
        "poly.transform_calls": (tr.calls("poly.apply_transform"), "count"),
        "poly.format_s": (tr.total_s("poly.format_poly"), "s"),
        "poly.format_rows": (tr.calls("poly.format_poly"), "count"),
    }
    for name in VERIFY_CHECKS:
        m[f"verify.{name.replace('-', '_')}_s"] = (check_times.get(name, 0.0), "s")
    m["verify.check_share"] = (sum(check_times.values()) / traced_s
                               if check_times else 0.0, "ratio")
    m["trace.untraced_pass_s"] = (untraced_s, "s")
    m["trace.traced_pass_s"] = (traced_s, "s")
    m["trace.overhead_pct"] = (100.0 * (traced_s - untraced_s) / untraced_s, "%")
    return m
