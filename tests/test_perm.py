"""Direct property tests and the census, cross-validated against a
plain-python brute-force oracle on small degrees."""

import os
import select
import tracemalloc
from itertools import product

import pytest

from ortho7 import perm
from ortho7.errors import BudgetExceeded
from ortho7.field import field_for
from ortho7.perm import (
    CensusQuery,
    census,
    is_complete_mapping,
    is_orthomorphism,
    is_permutation,
    pool_size,
)
from ortho7.poly import Poly, apply_transform, LinearTransform, parse_poly


def test_permutation_fixtures(f13):
    assert is_permutation(parse_poly(f13, "x"))
    assert is_permutation(parse_poly(f13, "x^7+2x"))
    assert not is_permutation(parse_poly(f13, "x^7+x"))


def test_orthomorphism_fixtures(f13):
    assert not is_orthomorphism(parse_poly(f13, "x"))  # f - x = 0
    assert is_orthomorphism(parse_poly(f13, "3x^7+7x"))
    assert not is_orthomorphism(parse_poly(f13, "x^7+2x"))


def test_orthomorphism_not_preserved_by_scaling(f5):
    # 4x+1 is an orthomorphism of F_5, but rescaling can break the
    # property: 4*(4x+1) = x+4 has slope 1, so f - x degenerates.
    assert is_orthomorphism(parse_poly(f5, "4x+1"))
    assert not is_orthomorphism(parse_poly(f5, "x+4"))  # 4*f
    assert not is_orthomorphism(parse_poly(f5, "x+1"))  # f(4x)


def test_complete_mapping_fixtures(f13):
    assert is_complete_mapping(parse_poly(f13, "x"))
    # derived directly: x^7+3x is not a bijection of F_13
    assert not is_permutation(parse_poly(f13, "x^7+3x"))
    assert not is_complete_mapping(parse_poly(f13, "x^7+2x"))


def test_pp_invariant_under_linear_transform(f11):
    import random

    rnd = random.Random(4)
    for _ in range(40):
        f = Poly(f11, tuple(rnd.randrange(11) for _ in range(7)) + (rnd.randrange(1, 11),))
        t = LinearTransform(rnd.randrange(1, 11), rnd.randrange(1, 11),
                            rnd.randrange(11), rnd.randrange(11))
        assert is_permutation(f) == is_permutation(apply_transform(f, t))


def _brute_census(fld, deg, canonical, prop):
    fn = {"pp": is_permutation, "op": is_orthomorphism,
          "cpp": is_complete_mapping}[prop]
    count = 0
    lows = (0,) if canonical else tuple(fld.elements())
    for lead in fld.nonzero():
        for rest in product(fld.elements(), repeat=deg - 1):
            for c0 in lows:
                if fn(Poly(fld, (c0,) + rest + (lead,))):
                    count += 1
    return count


@pytest.mark.parametrize("q,deg", [(5, 1), (8, 1), (5, 3), (8, 2), (11, 2),
                                   (8, 3), (11, 3), (25, 2)])
@pytest.mark.parametrize("prop", ["pp", "op", "cpp"])
@pytest.mark.parametrize("canonical", [False, True])
def test_census_against_bruteforce(q, deg, prop, canonical, f5):
    fld = f5 if q == 5 else field_for(q)
    want = _brute_census(fld, deg, canonical, prop)
    got = census(CensusQuery(fld, deg, canonical, prop))
    assert got == want


def test_census_canonical_times_q_is_full(f5):
    for fld, deg in ((f5, 3), (field_for(8), 2), (field_for(11), 3)):
        canon = census(CensusQuery(fld, deg, True, "op"))
        full = census(CensusQuery(fld, deg, False, "op"))
        assert canon * fld.q == full


def test_census_worker_independence(monkeypatch, request, f5, f11):
    # with no inline cut, this short space is sharded across the workers
    monkeypatch.setattr(perm, "INLINE_GATHERS", 0)
    q1 = census(CensusQuery(f11, 4, False, "op"), workers=1)
    q3 = census(CensusQuery(f11, 4, False, "op"), workers=3)
    assert q1 == q3
    # then shards on 1, 2 and 3 CPUs (run inline) over both layouts, at
    # degrees where the x^1 digit is the lead (degree 1) or next to it:
    # every count is the brute-force one, so a cut inside a group of
    # candidates that differ only up to the x^1 digit, which separates f
    # from f -/+ x, fails
    _, shards = request.getfixturevalue("pool_log")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    for fld, deg, canonical in product((f5, field_for(8)), (1, 2, 3), (False, True)):
        query = CensusQuery(fld, deg, canonical)
        want = {prop: _brute_census(fld, deg, canonical, prop) for prop in perm.PROPERTIES}
        for workers in (1, 2, 3):
            shards.clear()
            assert perm.census_counts(query, workers=workers) == want, (
                fld.q, deg, canonical, workers)
            groups = 1 if deg == 1 else query.space() // fld.q ** (2 - canonical)
            assert len(shards) == -(-groups // -(-groups // workers))


def test_pool_size_is_capped_at_the_usable_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    assert [pool_size(w) for w in (1, 2, 3, 4, 100_000)] == [1, 2, 3, 3, 3]
    # where the affinity mask is unknown, the CPU count caps
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert pool_size(100_000) == 4
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert pool_size(100_000) == 1


@pytest.fixture
def pool_log(monkeypatch, fork_log):
    """Records, on 2 usable CPUs, the size (its forked processes and this
    one) of each census `fork_map` that forks, and the shards handed to
    any; the forks are real."""
    sizes, shards = [], []
    fork_map = perm.fork_map

    def recording_map(fn, items, workers, first=None):
        shards.extend(item[-2:] for item in items)
        forked = len(fork_log)
        try:
            return fork_map(fn, items, workers, first)
        finally:
            if len(fork_log) > forked:
                sizes.append(1 + len(fork_log) - forked)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(perm, "fork_map", recording_map)
    return sizes, shards


def test_census_processes_and_shards_are_capped_at_the_cpus(monkeypatch, pool_log, f13):
    # 8 workers on 2 CPUs make 2 contiguous shards on a pool of 2 (one
    # forked process and this one), which count every candidate once; on
    # 1 CPU nothing forks.  The query is above the inline cut: 58M
    # candidates, 696M point gathers.
    sizes, shards = pool_log
    query = CensusQuery(f13, 7, True, "op")
    assert query.space() * 12 >= perm.INLINE_GATHERS
    count = census(query, workers=8)
    shards.sort()
    assert sizes == [2] and len(shards) == 2
    assert shards[0][0] == 0 and shards[0][1] == shards[1][0]
    assert shards[1][1] == query.space()
    assert count == census(query, workers=1) == 494
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    census(query, workers=8)
    assert sizes == [2]


def test_short_census_scans_run_inline(monkeypatch, pool_log):
    # the canonical op space at q = 8 (1.8M candidates, 12.8M point
    # gathers) is too short to share and forks nothing; q = 11 (177M) forks
    sizes, _ = pool_log
    monkeypatch.setattr(perm.kernels, "permutation_hits", lambda *args: iter(()))
    census(CensusQuery(field_for(8), 7, True, "op"), workers=2)
    assert sizes == []
    census(CensusQuery(field_for(11), 7, True, "op"), workers=2)
    assert sizes == [2]


@pytest.fixture
def two_cpus(monkeypatch, no_child_left):
    """2 usable CPUs, and no forked process left over afterwards."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    yield
    assert no_child_left()


def test_forked_census_counts_as_one_process(two_cpus):
    # the q = 13 canonical op space is above the inline cut: on 2 workers
    # one forked process scans the second shard
    query = CensusQuery(field_for(13), 7, True, "op")
    assert census(query, workers=1) == census(query, workers=2) == 494


def test_forked_shard_error_reaches_the_caller(monkeypatch, two_cpus, f11):
    # the fork carries the patched scan: only the second, forked shard raises
    monkeypatch.setattr(perm, "INLINE_GATHERS", 0)
    real = perm.kernels.permutation_hits

    def scan(field, digits, start, stop):
        if start > 0:
            raise ValueError(f"shard at {start}")
        return real(field, digits, start, stop)

    monkeypatch.setattr(perm.kernels, "permutation_hits", scan)
    with pytest.raises(ValueError, match="shard at"):
        census(CensusQuery(f11, 4, False, "op"), workers=2)


@pytest.fixture
def handshake():
    """(signal, wait) over two pipes: wait(k) returns True once signal(k) has
    been called in any process (k = 0 or 1), and from then on."""
    pipes = [os.pipe() for _ in range(2)]
    yield (lambda k: os.write(pipes[k][1], b"1"),
           lambda k: bool(select.select([pipes[k][0]], [], [], 60)[0]))
    for fd in sum(pipes, ()):
        os.close(fd)


def test_a_census_shard_that_dies_fails_the_census(monkeypatch, two_cpus, handshake, f11):
    # a forked shard that exits in mid-scan sends nothing: the census raises
    # rather than return the other shard's counts.  This process scans its
    # shard once the child has claimed the other one.
    signal, wait = handshake
    monkeypatch.setattr(perm, "INLINE_GATHERS", 0)
    parent, scan = os.getpid(), perm._scan

    def dying(*args):
        if os.getpid() != parent:
            signal(0)
            os._exit(3)
        assert wait(0)
        return scan(*args)

    monkeypatch.setattr(perm, "_scan", dying)
    with pytest.raises(ChildProcessError, match="sent nothing"):
        census(CensusQuery(f11, 4, False, "op"), workers=2)


def test_fork_map_runs_each_item_once_and_keeps_their_order(two_cpus, fork_log, handshake):
    # the results come back in item order, from both processes: `first`
    # runs here while the child claims, and returns once the child has run
    # an item; the child's next item waits until this process has run one
    signal, wait = handshake
    parent = os.getpid()
    runs, done = os.pipe()

    def item(i):
        os.write(done, bytes([i]))
        if os.getpid() == parent:
            signal(1)
        else:
            signal(0)
            assert wait(1)
        return i * i, os.getpid()

    head, got = perm.fork_map(item, [(i,) for i in range(40)], 2, first=lambda: wait(0))
    os.close(done)
    with open(runs, "rb") as log:
        ran = sorted(log.read())
    assert head is True and len(fork_log) == 1
    assert [square for square, _ in got] == [i * i for i in range(40)]
    assert ran == list(range(40))
    assert {pid for _, pid in got} == {parent, *fork_log}


class _Unpicklable(Exception):
    def __reduce__(self):
        raise TypeError("this error does not pickle")


@pytest.mark.parametrize("error,raised,message", [
    (ValueError("bad item"), ValueError, "bad item"),
    (_Unpicklable("bad item"), ChildProcessError, "sent nothing")])
def test_fork_map_raises_a_childs_error(two_cpus, handshake, error, raised, message):
    # a child's error reaches this process with its type and message; one
    # that does not pickle still fails the call, and nothing hangs.  This
    # process claims items once the child has started one.
    signal, wait = handshake
    parent = os.getpid()

    def item(i):
        signal(0)
        if os.getpid() != parent:
            raise error
        return i

    with pytest.raises(raised, match=message):
        perm.fork_map(item, [(i,) for i in range(8)], 2, first=lambda: wait(0))


def test_fork_map_forks_nothing_for_one_item_or_one_cpu(monkeypatch, two_cpus, fork_log):
    assert perm.fork_map(divmod, [(7, 2)], 2, first=lambda: "head") == ("head", [(3, 1)])
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert perm.fork_map(divmod, [(i, 3) for i in range(9)], 8) == (
        None, [divmod(i, 3) for i in range(9)])
    assert fork_log == []


@pytest.mark.parametrize("q,deg,prop,want,today_mb", [
    (3, 14, "op", 1_062_882, 4.7), (2, 22, "pp", 2_097_152, 9.0)])
def test_dense_census_memory(q, deg, prop, want, today_mb):
    # dense spaces: 2.1M permutations at q = 3, degree 14, and 2.1M at q = 2,
    # degree 22, 16 MB as int64 either way; the hits are looked up a step
    # at a time, so the peak stays within 1.5 times that of a scan that
    # only counts them
    query = CensusQuery(field_for(q), deg, False, prop)
    tracemalloc.start()
    try:
        count = census(query)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == want
    assert peak <= 1.5 * today_mb * 2**20, peak


def test_census_budget_guard(f13):
    query = CensusQuery(f13, 7, False, "op")
    with pytest.raises(BudgetExceeded):
        census(query, budget=10**6)
    assert query.space() == 12 * 13**7


def test_census_refuses_spaces_beyond_an_int64_index():
    # the kernels index candidates with int64: no budget admits more than
    # 2^63 of them, and the refusal comes before any scan
    with pytest.raises(BudgetExceeded, match="int64"):
        census(CensusQuery(field_for(31), 30, False, "pp"), budget=10**60)
    f2 = field_for(2)
    with pytest.raises(BudgetExceeded, match="int64"):
        census(CensusQuery(f2, 64, False, "pp"), budget=1)
    # 2^63 candidates are still indexable: only the budget refuses them
    with pytest.raises(BudgetExceeded, match="budget 1 "):
        census(CensusQuery(f2, 63, False, "pp"), budget=1)


def test_census_space_formula(f11):
    assert CensusQuery(f11, 7, True, "op").space() == 10 * 11**6
    assert CensusQuery(f11, 7, False, "op").space() == 10 * 11**7


def test_full_even_characteristic_census_is_zero():
    # no degree-7 orthomorphisms over F_8, full coefficient space
    f8 = field_for(8)
    assert census(CensusQuery(f8, 7, False, "op"), workers=2) == 0
