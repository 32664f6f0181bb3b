"""Ground-truth property tests by direct evaluation, and the census.

The census is the independent oracle for everything the classification
machinery produces: it iterates the full coefficient space of a degree
(an odometer with the constant coefficient fastest, so index ranges can
be sharded over `fork_pool`) and counts polynomials whose evaluation map
has the requested property (by meet in the middle, `kernels.census_scan`).
Totals are sums over shards, hence independent of the worker count.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
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
# A census of fewer point gathers (candidates x (q - 1)) runs inline: q = 11 canonical
# op (177M) takes a median 42 ms inline, 100 ms on a process's first fork pool of 2
# (imports and fork) and 47 ms on later ones; q = 13 (696M) 169, 163 and 140 ms.
INLINE_GATHERS = 400_000_000


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


def _scan(*args) -> int:  # looks kernels.census_scan up where it runs: no scan is pickled
    return kernels.census_scan(*args)


def census(query: CensusQuery, workers: int = 1,
           budget: int = DEFAULT_BUDGET) -> int:
    """Exact count of degree-`degree` polynomials with the property.

    Deterministic for fixed inputs regardless of `workers`: the candidate
    range is split into contiguous shards, one per slot of `pool_size(workers)`
    (this process scans the first), whose counts are summed.
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
    scan = (query.field, query.degree, query.canonical_only, _PROP_CODES[query.property])
    with fork_pool(workers if total * (query.field.q - 1) >= INLINE_GATHERS else 1) as pool:
        cuts = [*range(0, total, -(-total // (pool_size(workers) if pool else 1))), total]
        rest = [pool.submit(_scan, *scan, a, b) for a, b in zip(cuts[1:], cuts[2:])]
        return _scan(*scan, 0, cuts[1]) + sum(f.result() for f in rest)
