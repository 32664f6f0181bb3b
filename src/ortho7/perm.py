"""Ground-truth property tests by direct evaluation, and the census.

The census is the independent oracle for everything the classification
machinery produces: it iterates the full coefficient space of a degree
(an odometer with the constant coefficient fastest, so index ranges can
be sharded across workers) and counts polynomials whose evaluation map
has the requested property (by meet in the middle, `kernels.census_scan`).
Totals are sums over shards, hence independent of the worker count.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

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


_PROP_CODES = {"pp": kernels.PROP_PP, "op": kernels.PROP_OP, "cpp": kernels.PROP_CPP}


@dataclass(frozen=True)
class CensusQuery:
    field: Field
    degree: int = 7
    canonical_only: bool = False
    property: str = "op"

    def __post_init__(self):
        if self.degree < 1:
            raise InvalidArgument("census degree must be >= 1")
        if self.property not in _PROP_CODES:
            raise InvalidArgument(f"unknown property {self.property!r}")

    def space(self) -> int:
        """Candidate count: (q-1)*q^(degree-1) restricted to zero constant
        term, (q-1)*q^degree otherwise.  (Plain method: the `property`
        field name shadows the builtin decorator in this class body.)"""
        q = self.field.q
        free = self.degree - 1 if self.canonical_only else self.degree
        return (q - 1) * q**free


DEFAULT_BUDGET = 10**9
# A census of fewer point gathers (candidates x (q - 1)) runs inline: the
# pool's lock hand-offs cost more than a second thread saves (q = 8
# canonical op, 12.8M gathers: 3.2 ms on one thread, 6.5 ms on two).
INLINE_GATHERS = 150_000_000


def pool_size(workers: int) -> int:
    """`workers` capped at the CPUs this process may run on: any pool's size."""
    affinity = getattr(os, "sched_getaffinity", None)
    return max(1, min(workers, len(affinity(0)) if affinity else os.cpu_count() or 1))


def census(query: CensusQuery, workers: int = 1,
           budget: int = DEFAULT_BUDGET) -> int:
    """Exact count of degree-`degree` polynomials with the property.

    Deterministic for fixed inputs regardless of `workers`: the candidate
    range is split into contiguous shards, one per thread of a pool of
    `pool_size(workers)`, whose counts are summed.
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
    prop = _PROP_CODES[query.property]

    def run(start: int, stop: int) -> int:
        return kernels.census_scan(query.field, query.degree,
                                   query.canonical_only, prop, start, stop)

    threads = pool_size(workers)
    if threads <= 1 or total * (query.field.q - 1) < INLINE_GATHERS:
        return run(0, total)
    starts = range(0, total, -(-total // threads))  # one shard per thread: even cost
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return sum(pool.map(run, starts, [*starts[1:], total]))
