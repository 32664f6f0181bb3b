"""Ground-truth property tests by direct evaluation, and the census.

The census is the independent oracle for everything the classification
machinery produces: it iterates the full coefficient space of a degree
(an odometer with the constant coefficient fastest, `CensusQuery.digits`)
and counts the permutations, orthomorphisms and complete mappings in it.
The kernel `kernels.permutation_hits` yields the permutations by meet in
the middle; `_counts` derives all three figures from them, since f is an
orthomorphism (a complete mapping) exactly when f and its sibling f - x
(f + x), the candidate one step away in the x^1 coefficient, are both
permutations.  Index ranges are sharded over `fork_pool` on whole groups of
x^1 digits, so each sibling is in its hit's shard, and totals are sums over
shards, hence independent of the worker count.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
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
# A census of fewer point gathers (candidates x (q - 1)) runs inline: q = 11 canonical
# op (177M) takes a median 42 ms inline, 100 ms on a process's first fork pool of 2
# (imports and fork) and 47 ms on later ones; q = 13 (696M) 169, 163 and 140 ms.
INLINE_GATHERS = 400_000_000
# Hits looked up at once: the lookup's temporaries stay near 1.5 MB, however
# dense the permutations (a kernel step yields up to 2^19 of them).
LOOKUP_HITS = 1 << 15


def pool_size(workers: int) -> int:
    """`workers` capped at the CPUs this process may run on: any pool's size."""
    affinity = getattr(os, "sched_getaffinity", None)
    return max(1, min(workers, len(affinity(0)) if affinity else os.cpu_count() or 1))


@contextmanager
def fork_pool(workers: int):
    """The one pool: `pool_size(workers) - 1` forked processes beside the caller, or None."""
    procs = pool_size(workers) - 1
    if procs:  # imported here: ~20 ms that `import ortho7` and one worker skip
        import multiprocessing
        from concurrent.futures.process import ProcessPoolExecutor
    pool = (ProcessPoolExecutor(procs, mp_context=multiprocessing.get_context("fork"))
            if procs and "fork" in multiprocessing.get_all_start_methods() else None)
    try:
        yield pool
    finally:  # what no process has started is dropped
        if pool:
            pool.shutdown(cancel_futures=True)


def _x1_digit(digits) -> tuple[int, int, int]:
    """(place value, radix, offset) of a layout's x^1 digit.  The candidates
    that differ only in the digits up to it, place * radix of them, make a
    group: each f -/+ x is in its f's group."""
    i = next(i for i, (e, _, _) in enumerate(digits) if e == 1)
    return prod(radix for _, radix, _ in digits[:i]), *digits[i][1:]


def _counts(field, x1, hits) -> np.ndarray:
    """pp, op and cpp among sorted permutation `hits` that hold every hit of
    their x^1 groups.  A hit is an orthomorphism when its sibling, the
    candidate whose x^1 coefficient c1 is c1 - 1 in the field, is a hit too
    (f - x), and a complete mapping likewise with c1 + 1.  Below the digit's
    offset there is no sibling: that is the lead at degree 1, where f -/+ x
    is constant, and as the lead is the top digit the sibling index is
    negative, so it is never found."""
    place, radix, off = x1
    c1 = np.arange(radix) + off
    digit = hits // place % radix
    counts = [hits.size]
    for table in (field.sub_t, field.add_t):
        sibling = hits + (table[c1, 1] - c1).take(digit) * place
        found = hits.take(np.searchsorted(hits, sibling), mode="clip") == sibling
        counts.append(np.count_nonzero(found))
    return np.array(counts, dtype=np.int64)


def _scan(field, digits, start, stop) -> np.ndarray:
    """pp, op and cpp of candidates [start, stop), a range of whole x^1
    groups.  The kernel's hits are gathered into slices of LOOKUP_HITS or
    more, each looked up but for its last group, which may go on in the
    next slice."""
    x1 = _x1_digit(digits)
    group = prod(x1[:2])
    counts, pending, n = np.zeros(3, dtype=np.int64), [np.zeros(0, dtype=np.int64)], 0
    for batch in kernels.permutation_hits(field, digits, start, stop):
        for i in range(0, batch.size, LOOKUP_HITS):
            pending.append(batch[i:i + LOOKUP_HITS])
            n += pending[-1].size
            if n >= LOOKUP_HITS:
                hits = np.concatenate(pending)
                cut = np.searchsorted(hits, hits[-1] - hits[-1] % group)
                counts += _counts(field, x1, hits[:cut])
                pending, n = [hits[cut:]], hits.size - cut
    return counts + _counts(field, x1, np.concatenate(pending))


def census_counts(query: CensusQuery, workers: int = 1,
                  budget: int = DEFAULT_BUDGET) -> dict[str, int]:
    """Exact counts of the permutations ("pp"), orthomorphisms ("op") and
    complete mappings ("cpp") of degree `degree` in the query's space, from
    one scan; `query.property` is not read.

    Deterministic for fixed inputs regardless of `workers`: the candidate
    range is split into contiguous shards of whole x^1 groups, one per slot of
    `pool_size(workers)` (this process scans the first), whose counts are
    summed.
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
    with fork_pool(workers if total * (query.field.q - 1) >= INLINE_GATHERS else 1) as pool:
        per = -(-total // group // (pool_size(workers) if pool else 1)) * group
        cuts = [*range(0, total, per), total]
        rest = [pool.submit(_scan, query.field, digits, a, b) for a, b in zip(cuts[1:], cuts[2:])]
        counts = _scan(query.field, digits, 0, cuts[1]) + sum(f.result() for f in rest)
    return dict(zip(PROPERTIES, map(int, counts)))


def census(query: CensusQuery, workers: int = 1,
           budget: int = DEFAULT_BUDGET) -> int:
    """Exact count of degree-`degree` polynomials with the query's property:
    its figure among the `census_counts` of one scan.  pp counts the
    kernel's permutation hits, op and cpp the hits whose f - x or f + x
    sibling is a hit too (`_counts`)."""
    return census_counts(query, workers, budget)[query.property]
