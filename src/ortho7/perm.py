"""Ground-truth property tests by direct evaluation, and the census.

The census is the independent oracle for everything the classification
machinery produces: it iterates the full coefficient space of a degree
(an odometer with the constant coefficient fastest, `CensusQuery.digits`)
and counts the permutations, orthomorphisms and complete mappings in it.
The kernel `kernels.permutation_hits` marks the permutations by meet in
the middle, one boolean mask per scan step; `_scan` derives all three
figures from each mask, since f is an orthomorphism (a complete mapping)
exactly when f and its sibling f - x (f + x), the candidate one step away
in the x^1 coefficient, are both permutations: one gather into the same
mask per hit.  Index ranges are sharded over `fork_map`, whose forks inherit
the scan tables, on whole groups of x^1 digits, so each sibling is in its hit's
shard and step, and totals are sums over shards, independent of the workers.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass
from math import prod

import numpy as np

from . import kernels
from .errors import BudgetExceeded, InvalidArgument
from .field import Field
from .poly import Poly, eval_poly


def _bijective(f: Poly, partner=None) -> bool:
    """True iff x -> f(x) is a bijection and, when a field operation
    `partner` is given, so is x -> partner(f(x), x).  Evaluates f once per
    point, feeds both hit masks, and exits on the first collision."""
    fld = f.field
    hit_f = bytearray(fld.q)
    hit_h = bytearray(fld.q)
    for x in fld.elements():
        v = eval_poly(f, x)
        if hit_f[v]:
            return False
        hit_f[v] = 1
        if partner is not None:
            w = partner(v, x)
            if hit_h[w]:
                return False
            hit_h[w] = 1
    return True


def is_permutation(f: Poly) -> bool:
    """True iff x -> f(x) hits every field element."""
    return _bijective(f)


def is_orthomorphism(f: Poly) -> bool:
    """True iff f and f - x are both permutations."""
    return _bijective(f, f.field.sub)


def is_complete_mapping(f: Poly) -> bool:
    """True iff f and f + x are both permutations."""
    return _bijective(f, f.field.add)


PROPERTIES = ("pp", "op", "cpp")


@dataclass(frozen=True)
class CensusQuery:
    field: Field
    degree: int = 7
    canonical_only: bool = False
    property: str = "op"

    def __post_init__(self):
        if self.degree < 1:
            raise InvalidArgument("census degree must be >= 1")
        if self.property not in PROPERTIES:
            raise InvalidArgument(f"unknown property {self.property!r}")

    def space(self) -> int:
        """Candidate count: (q-1)*q^(degree-1) restricted to zero constant
        term, (q-1)*q^degree otherwise.  (Plain method: the `property`
        field name shadows the builtin decorator in this class body.)"""
        q = self.field.q
        free = self.degree - 1 if self.canonical_only else self.degree
        return (q - 1) * q**free

    def digits(self) -> list[tuple[int, int, int]]:
        """The odometer [(exponent, radix, offset)], lowest digit first: the
        coefficients c[lo..degree-1] (lo = 1 when restricted to zero constant
        term), then lead - 1 with lead in [1, q)."""
        q, lo = self.field.q, int(self.canonical_only)
        return [(e, q, 0) for e in range(lo, self.degree)] + [(self.degree, q - 1, 1)]


DEFAULT_BUDGET = 10**9
# Fewer point gathers (candidates x (q - 1)) run inline; canonical op, inline against forked
# on 2 workers: 2.9 / 7.5 ms at q = 8 (12.8M), 31 / 27 at 11 (177M), 174 / 95 at 13 (696M).
INLINE_GATHERS = 50_000_000


def pool_size(workers: int) -> int:
    """`workers` capped at the CPUs this process may run on: the processes of a `fork_map`."""
    affinity = getattr(os, "sched_getaffinity", None)
    return max(1, min(workers, len(affinity(0)) if affinity else os.cpu_count() or 1))


def fork_map(fn, items, workers: int, first=None):
    """(first(), [fn(*item) for item in items]) on `pool_size(workers)` processes,
    this one and forked ones (none for one item or without os.fork).  Each claims
    one item at a time by an atomic read of its 4-byte number from a pipe filled
    (up to 16384) and closed before the fork; this one runs `first` first.  A
    child sends back its pickled [(number, result)] or error and leaves by
    os._exit; one that sends nothing fails the call, once all are reaped."""
    procs = min(pool_size(workers), len(items)) - 1 if hasattr(os, "fork") else 0
    claims, feed = os.pipe()
    os.write(feed, b"".join(i.to_bytes(4, "little") for i in range(len(items))))
    os.close(feed)

    def claimed():
        while number := os.read(claims, 4):
            i = int.from_bytes(number, "little")
            yield i, fn(*items[i])

    children = []
    try:
        for _ in range(procs):
            out, back = os.pipe()
            if not (pid := os.fork()):
                try:
                    try:
                        reply = list(claimed())
                    except BaseException as exc:
                        reply = exc
                    os.write(back, pickle.dumps(reply))  # may wait for the caller's read
                finally:
                    os._exit(0)
            os.close(back)
            children.append((pid, out))
        head = first() if first else None
        results = dict(claimed())
    finally:
        os.close(claims)
        replies = [b"".join(iter(lambda: os.read(out, 1 << 16), b"")) for _, out in children]
        for pid, out in children:
            os.close(out)
            os.waitpid(pid, 0)
    for reply in replies:  # a child that died, or whose error does not pickle, sent nothing
        got = pickle.loads(reply) if reply else ChildProcessError("a forked worker sent nothing")
        if isinstance(got, BaseException):
            raise got
        results.update(got)
    return head, [results[i] for i in range(len(items))]


def _x1_digit(digits) -> tuple[int, int, int]:
    """(place value, radix, offset) of a layout's x^1 digit.  The candidates
    that differ only in the digits up to it, place * radix of them, make a
    group: each f -/+ x is in its f's group."""
    i = next(i for i, (e, _, _) in enumerate(digits) if e == 1)
    return prod(radix for _, radix, _ in digits[:i]), *digits[i][1:]


def _scan(field, digits, start, stop) -> np.ndarray:
    """pp, op and cpp of candidates [start, stop), a range of whole x^1
    groups.  A hit is an orthomorphism when its sibling, the candidate
    whose x^1 coefficient c1 is c1 - 1 in the field, is a hit too (f - x),
    and a complete mapping likewise with c1 + 1.  The x^1 digit is one of
    the layout's two lowest digits, so a kernel step (whole blocks of the
    lowest d + 1 >= 2 digits, or the range's own ends) holds whole groups
    and each sibling is read from the hit's own mask.  Below the digit's
    offset there is no sibling: that is the lead at degree 1, where f -/+ x
    is constant, and as the lead is the top digit the sibling's offset in
    the mask is negative (which a clipped read would take as offset 0)."""
    place, radix, off = _x1_digit(digits)
    group = place * radix
    c1 = np.arange(group) // place + off  # the x^1 coefficient at each offset in a group
    # the offset from a hit to its f - x (row 0) and f + x (row 1) sibling;
    # int32 offsets within a step (far fewer than 2^31 candidates) keep the
    # lookup's temporaries narrow
    shift = np.array([(t[c1, 1] - c1) * place for t in (field.sub_t, field.add_t)],
                     dtype=np.int32)
    pp, found = 0, np.zeros(2, dtype=np.int64)
    for _, mask in kernels.permutation_hits(field, digits, start, stop):
        hits = np.flatnonzero(mask).astype(np.int32)
        sib = shift.take(hits % group, axis=1)
        sib += hits
        pp += hits.size
        found += (mask.take(sib, mode="clip") & (sib >= 0)).sum(axis=1)
    return np.array([pp, *found])


def census_counts(query: CensusQuery, workers: int = 1,
                  budget: int = DEFAULT_BUDGET) -> dict[str, int]:
    """Exact counts of the permutations ("pp"), orthomorphisms ("op") and
    complete mappings ("cpp") of degree `degree` in the query's space, from
    one scan; `query.property` is not read.

    Deterministic for fixed inputs regardless of `workers`: the candidate
    range is split into contiguous shards of whole x^1 groups, one per
    process of `fork_map`, whose counts are summed.
    """
    # before the budget: no budget lets the kernels scan this order
    kernels.check_hit_mask_order(query.field.q)
    total = query.space()
    if total > 1 << 63:  # the kernels index candidates with int64
        raise BudgetExceeded(f"census space {total} exceeds the int64 index limit 2^63")
    if total > budget:
        raise BudgetExceeded(
            f"census space {total} exceeds budget {budget} "
            f"(q={query.field.q}, degree={query.degree})")
    digits = query.digits()
    group = prod(_x1_digit(digits)[:2])
    kernels.permutation_hits(query.field, digits, 0, 0)  # its tables, before any fork
    slots = pool_size(workers if total * (query.field.q - 1) >= INLINE_GATHERS else 1)
    per = -(-total // group // slots) * group
    cuts = [*range(0, total, per), total]
    _, counts = fork_map(_scan, [(query.field, digits, *ab) for ab in zip(cuts, cuts[1:])], slots)
    return dict(zip(PROPERTIES, map(int, sum(counts))))


def census(query: CensusQuery, workers: int = 1,
           budget: int = DEFAULT_BUDGET) -> int:
    """Exact count of degree-`degree` polynomials with the query's property:
    its figure among the `census_counts` of one scan.  pp counts the
    kernel's permutation hits, op and cpp the hits whose f - x or f + x
    sibling is a hit too (`_scan`)."""
    return census_counts(query, workers, budget)[query.property]
