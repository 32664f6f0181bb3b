"""Kernel tests: the numpy kernels against the scalar references in
ortho7.perm and ortho7.poly on identical inputs, and the uint64 hit-mask
order guard."""

import tracemalloc
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest

from ortho7 import kernels, perm
from ortho7.canon import canonical_rows
from ortho7.errors import InvalidArgument, UnsupportedOrder
from ortho7.families import (
    EXPECTED_COUNTS,
    FamilyEntry,
    audit_random,
    class_lookup,
    field_entries,
    table_for,
)
from ortho7.field import field_for
from ortho7.pairs import count_ops, search_pairs
from ortho7.perm import CensusQuery, is_orthomorphism, is_permutation
from ortho7.poly import LinearTransform, Poly, apply_transform, eval_poly


def _hits(fld, digits, start, stop):
    """The permutation hits of the kernel in [start, stop), as one array."""
    return np.concatenate([np.zeros(0, dtype=np.int64),
                           *(np.flatnonzero(mask) + first for first, mask
                             in kernels.permutation_hits(fld, digits, start, stop))])


def _group_aligned(start, stop, group):
    """[start, stop) widened to whole groups of `group` candidates."""
    return start - start % group, -(-stop // group) * group


def test_census_range_sharding_consistency():
    # the kernel's hits over 997-candidate slices, and perm's counts over
    # slices of 8 whole x^1 groups (q^2 candidates each), equal those of
    # the whole range; the degree-4 space of F_8 holds orthomorphisms
    for q, deg in ((11, 3), (8, 4)):
        fld = field_for(q)
        query = CensusQuery(fld, deg, False)
        digits, total = query.digits(), query.space()
        whole = _hits(fld, digits, 0, total)
        split = [_hits(fld, digits, s, min(s + 997, total)) for s in range(0, total, 997)]
        assert np.array_equal(np.concatenate(split), whole) and whole.size
        step = 8 * q ** 2
        counts = sum(perm._scan(fld, digits, s, min(s + step, total))
                     for s in range(0, total, step))
        assert counts.tolist() == perm._scan(fld, digits, 0, total).tolist()
    # pp, then the f - lam*x count at each lam in F_8*, all op = cpp (-1 = 1
    # in characteristic 2), since f -> mu*f maps f - lam*x to mu*f - mu*lam*x
    assert counts.tolist() == [1232] + [336] * 7


def _odometer_rows(fld, deg, canonical, start, stop):
    """Ascending coefficient rows of candidates [start, stop) in the census
    index layout: base-q digits c[lo..deg-1], then lead - 1."""
    idx = np.arange(start, stop)
    rows = np.zeros((idx.size, deg + 1), dtype=np.int64)
    for i in range(int(canonical), deg):
        rows[:, i], idx = idx % fld.q, idx // fld.q
    rows[:, deg] = idx + 1
    return rows


def _odometer_index(fld, row, canonical):
    lo, deg = int(canonical), len(row) - 1
    return sum(int(c) * fld.q ** (i - lo) for i, c in enumerate(row[lo:deg], lo)) \
        + (int(row[deg]) - 1) * fld.q ** (deg - lo)


def _horner_hits(fld, rows):
    """The pp hit mask of coefficient rows, then one mask per lam in F_q* of
    the rows f whose f - lam*x permutes too, by the Horner evaluator: one
    pp_batch of the rows, then one of the hits' f - lam*x rows over every lam."""
    pp = kernels.pp_batch(fld, rows)
    shifted = np.tile(rows[pp], (fld.q - 1, 1))  # row block lam - 1: f - lam*x
    shifted[:, 1] = fld.sub_t[shifted[:, 1], np.repeat(np.arange(1, fld.q), pp.sum())]
    lam = np.zeros((fld.q - 1, pp.size), dtype=bool)
    lam[:, pp] = kernels.pp_batch(fld, shifted).reshape(fld.q - 1, -1)
    return [pp, *lam]


def _degree7_hits(fld):
    """A zero-constant permutation polynomial, orthomorphism and complete
    mapping of degree 7 (an orthomorphism f gives the complete mapping -f),
    the first alone at orders without degree-7 orthomorphisms, or nothing
    for orders without a class table."""
    if fld.q not in EXPECTED_COUNTS:
        return {}
    entries = table_for(fld.q).entries
    hits = {"pp": np.array(entries[0].poly(fld).coeffs)}
    op = next((r.signatures[0] for r in search_pairs(fld, entries) if r.pairs), None)
    if op is not None:
        op = np.array((0,) + tuple(op[1:]))  # f + c is an orthomorphism iff f is
        hits.update({"op": op, "cpp": fld.neg_t[op]})
    return hits


@pytest.mark.parametrize("q", [8, 11, 16, 17, 25, 31, 41, 49])
@pytest.mark.parametrize("deg", [1, 2, 6, 7])
def test_census_scan_agrees_with_horner_rows(q, deg):
    # random slices, and for degree 7 a slice around a known hit of each
    # property, start and end at arbitrary offsets, so they cut the
    # census's blocks: the kernel's hits in each slice are the Horner
    # permutations, and perm's pp and f - lam*x counts over the slice
    # widened to whole x^1 groups (q candidates in the canonical layout, q^2
    # in the full one, the whole space at degree 1) are the Horner counts:
    # on a slice the lam counts need not be equal, so these tell c1 - lam
    # from c1 + lam, which the whole space cannot.  The scan gathers rows
    # of three low digits at 8-16, of two at 17-31 and of one at 41 and 49
    # (where the x^1 digit of a non-canonical row is the mid digit), with
    # hits in uint8 at 8, uint16 at 11 and 16, uint32 at 17 and 31 and
    # uint64 at 41 and 49.  It gathers the points x > 0 two per row at 8,
    # 11 and 17 (at 8 the odd last one alone) and one per row elsewhere.
    # At q = 8 and 11 one slice spans more than two steps of the scan (2^19
    # candidates at q = 8 and 17 * 11^4 at q = 11), in degree 6 at q = 8,
    # since no polynomial of degree q - 1 permutes F_q
    fld = field_for(q)
    rng = np.random.default_rng(100 * q + deg)
    hits = _degree7_hits(fld) if deg == 7 else {}
    for canonical in (False, True):
        query = CensusQuery(fld, deg, canonical)
        digits, total = query.digits(), query.space()
        group = total if deg == 1 else q ** (2 - canonical)
        for prop in perm.PROPERTIES:
            slices = [(s, s + int(rng.integers(1, 3000)))
                      for s in rng.integers(0, total, 2)]
            if prop in hits:
                at = _odometer_index(fld, hits[prop], canonical)
                slices.append((at - int(rng.integers(0, 1500)),
                               at + int(rng.integers(1, 1500))))
            if (q, deg) in ((8, 6), (11, 7)) and not canonical:
                start = 3 * q ** 4 + q + 1  # mid-block at both ends
                slices.append((start, start + (1 << 20 if q == 8 else 34 * 11 ** 4) + q))
            for start, stop in slices:
                start, stop = max(int(start), 0), min(int(stop), total)
                lo, hi = _group_aligned(start, stop, group)
                masks = _horner_hits(fld, _odometer_rows(fld, deg, canonical, lo, hi))
                want = np.flatnonzero(masks[0][start - lo:stop - lo]) + start
                got = _hits(fld, digits, start, stop)
                assert np.array_equal(got, want), (canonical, start, stop)
                counts = [int(m.sum()) for m in masks]
                assert perm._scan(fld, digits, lo, hi).tolist() == counts, (canonical, lo, hi)
            if prop in hits:  # the last slice holds the known hit (cpp at lam = -1)
                assert counts[{"pp": 0, "op": 1, "cpp": fld.neg_t[1]}[prop]] >= 1


def test_permutation_hits_read_any_layout():
    # a layout whose digits are not in exponent order: x^3 lowest, then
    # x^1, x^0 (still in the low block), x^2 and the lead x^4 - 1; the
    # hits are the Horner permutations of the rows the digits name
    fld = field_for(8)
    digits = [(3, 8, 0), (1, 8, 0), (0, 8, 0), (2, 8, 0), (4, 7, 1)]
    idx = np.arange(7 * 8 ** 4)
    rows = np.zeros((idx.size, 5), dtype=np.int64)
    for e, radix, off in digits:
        rows[:, e], idx = idx % radix + off, idx // radix
    want = np.flatnonzero(kernels.pp_batch(fld, rows))
    assert want.size and np.array_equal(_hits(fld, digits, 0, len(rows)), want)


@pytest.mark.parametrize("q", [2, 8, 11, 17, 41])
def test_permutation_hits_masks_tile_the_range_on_whole_groups(q):
    # the (first, mask) steps tile any [start, stop) in order, and over a
    # range of whole x^1 groups (the whole space at degree 1) each mask
    # begins and ends on a group, so perm finds every f -/+ x sibling in
    # its hit's own mask.  The orders cover every low-block width (three
    # digits at 2-11, two at 17, one at 41) and mask type (uint8 at 2 and
    # 8, uint16 at 11, uint32 at 17, uint64 at 41); a range spans up to
    # about 24 steps at q = 41 (64K candidates each) and 12 at q = 17
    fld = field_for(q)
    rng = np.random.default_rng(q)
    for deg, canonical in product((1, 2, 7), (False, True)):
        query = CensusQuery(fld, deg, canonical)
        total = query.space()
        group = total if deg == 1 else q ** (2 - canonical)
        for _ in range(3):
            start = int(rng.integers(0, total))
            stop = min(total, start + int(rng.integers(1, 1_500_000)))
            for lo, hi in ((start, stop), _group_aligned(start, stop, group)):
                ends = [lo]
                for first, mask in kernels.permutation_hits(fld, query.digits(), lo, hi):
                    assert first == ends[-1] and mask.dtype == bool and mask.size
                    ends.append(first + mask.size)
                assert ends[-1] == hi, (deg, canonical, lo, hi)
            # the ends of the group-aligned range, the second one scanned
            assert all(end % group == 0 for end in ends), (deg, canonical, ends)


@pytest.mark.parametrize("q", [11, 41])
def test_permutation_hits_refuse_an_x0_digit_in_the_high_block(q):
    # point 0 rides on point 1's gather because the high block (every digit
    # after the lowest d, d = 3 at q = 11 and 1 at q = 41) vanishes at x = 0:
    # a constant-term digit there, or a fixed nonzero constant, is refused
    # at the call; a fixed zero is not
    fld = field_for(q)
    d = 3 if q == 11 else 1
    low = [(e, q, 0) for e in range(1, d + 1)]
    lead = [(d + 2, q - 1, 1)]
    for x0 in ((0, q, 0), (0, 2, 0), (0, 1, 1)):
        for layout in (low + [x0] + lead, low + lead + [x0]):
            with pytest.raises(InvalidArgument, match="x = 0"):
                kernels.permutation_hits(fld, layout, 0, 10)
    kernels.permutation_hits(fld, low + [(0, 1, 0)] + lead, 0, 10)


@pytest.mark.parametrize("q", [8, 11, 13, 16])
def test_permutation_hits_reject_planted_near_misses(q):
    # x with its value at point a moved to that of point b repeats exactly
    # one value and misses a, so its mask lacks one bit.  The scan's first
    # gather reads rows that hold the hits of points 0 and 1 together (and
    # of point 2 at 8 and 11), and it ORs in one gathered row per later
    # point (per pair of points at 8 and 11).  The moves put the repeat
    # within that first gather (a = 1, b = 0), within a later pair at 8 and
    # 11 (a = 4, b = 3), amid the gathered points below or above the
    # missing value, and at the last point read (a = q - 1, a pair's second
    # point at 11).  (A sum of q single bits is the full mask
    # only if no two coincide, so adding rows in place of ORing them counts
    # the same, and no row can tell the two apart.)  The rows have a zero
    # constant and degree q-1 or q-2, so they reach the upper block; their
    # canonical odometer index fits an int64 up to q = 16.
    fld = field_for(q)
    xq1 = Poly(fld, (0,) * (q - 1) + (1,))
    digits = CensusQuery(fld, q - 1, True).digits()
    moves = [(1, 0), (4, 3), (3, 2), (2, 5), (q - 1, q - 2)]
    for a, b in moves:
        c = fld.sub(b, a)  # c*(1 - (x - a)^(q-1)) moves only the value at a
        t = LinearTransform(fld.neg(c), 1, fld.neg(a), c)
        row = list(apply_transform(xq1, t).coeffs)
        row[1] = fld.add(row[1], 1)
        assert row[0] == 0 and not kernels.pp_batch(fld, [row])[0]
        at = _odometer_index(fld, row, True)
        assert _hits(fld, digits, at, at + 1).size == 0, (a, b)
    inverse = [0] * (q - 2) + [1]  # x^(q-2): gcd(q-2, q-1) = 1
    at = _odometer_index(fld, inverse, True)
    digits = CensusQuery(fld, q - 2, True).digits()
    assert _hits(fld, digits, at, at + 1).tolist() == [at]


def test_permutation_hits_memory_at_q61():
    # one call holds its row tables, one chunk of high values and one
    # step's masks: a few MB at q = 61, whatever the slice
    fld = field_for(61)
    query = CensusQuery(fld, 7, True)
    start = query.space() // 2
    tracemalloc.start()
    try:
        for _ in kernels.permutation_hits(fld, query.digits(), start, start + 500_000):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 << 20, peak


@pytest.mark.parametrize("q", [13, 19])
def test_permutation_hits_memory_on_long_slices(q):
    # the high values come for a chunk of steps at a time (about 1 MB), so
    # a long slice peaks no higher than a short one: the whole canonical
    # space at q = 13 (three low digits, 58M candidates) and 60M candidates
    # at q = 19 (two low digits)
    fld = field_for(q)
    query = CensusQuery(fld, 7, True)
    stop = min(query.space(), 60_000_000)
    tracemalloc.start()
    try:
        for _ in kernels.permutation_hits(fld, query.digits(), 0, stop):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20, peak


def test_census_shards_of_uneven_lengths_sum_to_the_count():
    # eight kernel shards of odd lengths, one of them longer than a chunk
    # of the scan's high values, cover the canonical space of q = 11 and
    # yield its 24,750 permutations; perm's counts over shards of odd
    # numbers of whole x^1 groups (11 candidates) are pp and the f - lam*x
    # counts, op = cpp = 660 at every lam
    fld = field_for(11)
    query = CensusQuery(fld, 7, True)
    digits, total = query.digits(), query.space()
    short = [1, 99_999, 7, 3, 14_641, 1_331, 12_345]
    lengths = short[:3] + [total - sum(short)] + short[3:]
    assert sum(lengths) == total and all(n % 2 for n in lengths)
    cuts = np.cumsum([0] + lengths).tolist()
    split = [_hits(fld, digits, a, b) for a, b in zip(cuts, cuts[1:])]
    assert np.array_equal(np.concatenate(split), _hits(fld, digits, 0, total))
    assert sum(h.size for h in split) == 24_750
    groups = [n * 11 for n in short[:3]] + [total - 11 * sum(short)] + [n * 11 for n in short[3:]]
    assert sum(groups) == total and all(n // 11 % 2 for n in groups)
    cuts = np.cumsum([0] + groups).tolist()
    assert sum(perm._scan(fld, digits, a, b)
               for a, b in zip(cuts, cuts[1:])).tolist() == [24_750] + [660] * 10


@pytest.mark.parametrize("q", [11, 13, 23, 25, 41, 49])
def test_pair_line_agrees_with_the_scalar_check(q):
    # the grid of each class is its line rows, evaluated in one batch,
    # spread over the cells
    fld = field_for(q)
    mul = fld.mul
    entries = field_entries(fld)[:3]
    F = [e.poly(fld).coeffs for e in entries]
    grids = kernels.pp_batch(fld, kernels.pair_line(fld, F))[:, kernels.pair_cells(fld)]
    assert grids.shape == (len(F), q - 1, q - 1)
    for e, f, grid in zip(entries, F, grids):
        for a in range(1, q):
            for b in range(1, q):
                # alpha * f(beta x): coefficient i is alpha * f_i * beta^i
                g = Poly(fld, tuple(mul(mul(a, c), fld.pow(b, i))
                                    for i, c in enumerate(f)))
                assert bool(grid[a - 1, b - 1]) == is_orthomorphism(g), (e, a, b)


@pytest.mark.parametrize("q", sorted(EXPECTED_COUNTS))
def test_pair_line_agrees_with_the_full_plane(q):
    # the reference is the whole (alpha, beta) plane of alpha*f(beta*x) - x,
    # built by expand_shifts; both routes read only the q-1 line rows, of
    # every class at once
    fld = field_for(q)
    s = np.arange(1, q)
    cells = kernels.pair_cells(fld)
    entries = table_for(q).entries
    lines = kernels.pair_line(fld, [e.coeff_row() for e in entries])
    grids = kernels.pp_batch(fld, lines)[:, cells]
    ords = class_lookup(fld, lines)
    for k, (e, res) in enumerate(zip(entries, search_pairs(fld, entries, "table"))):
        f = e.poly(fld).coeffs
        plane = kernels.expand_shifts(fld, f, s[:, None], s, 0, 0)
        plane[..., 1] = fld.sub_t[plane[..., 1], 1]
        assert np.array_equal(grids[k], kernels.pp_batch(fld, plane))
        want = class_lookup(fld, plane)
        assert np.array_equal(ords[k][cells], want), e
        # the table route files each kept pair under its cell's ordinal
        filed = [(a, b, t.target_ordinal) for t in res.systems for a, b in t.pairs]
        assert sorted(filed) == sorted(
            (a, b, int(want[a - 1, b - 1])) for a, b in res.pairs), e
        assert all(want[a - 1, b - 1] > 0 for a, b in res.pairs), e


def test_pp_batch_agrees_with_scalar_check():
    # rows of every length 1-10, so that each parity edge shows (a lone c0
    # at length 1 and 2, the lead of E or of O at each length), and
    # characteristic 2 at q = 8 and 16, where x = -x.  Random rows are
    # almost never permutations; a*(bx + c)^k + d with k prime to q - 1 is
    # one at length k + 1 and, padded with zero columns, at every greater
    # length; so are the class entries, at length 8 and up.
    rng = np.random.default_rng(5)
    for q in (8, 11, 16, 25, 27, 49):
        fld = field_for(q)
        positives = [e.poly(fld).coeffs for e in field_entries(fld)] if q in EXPECTED_COUNTS else []
        for k in range(1, 10):
            if np.gcd(k, q - 1) == 1:
                for _ in range(3):
                    a, b = (int(v) for v in rng.integers(1, q, 2))
                    c, d = (int(v) for v in rng.integers(0, q, 2))
                    xk = Poly(fld, (0,) * k + (1,))
                    positives.append(apply_transform(xk, LinearTransform(a, b, c, d)).coeffs)
        for n in range(1, 11):
            pos = np.array([p + (0,) * (n - len(p)) for p in positives if len(p) <= n],
                           dtype=np.int64).reshape(-1, n)
            near = pos.copy()
            near[:, n // 2] = fld.add_t[near[:, n // 2], 1]  # mostly near misses
            C = np.vstack([pos, near, rng.integers(0, q, size=(40, n))])
            bits = kernels.pp_batch(fld, C)
            assert bits[:len(pos)].all() and (n < 2 or len(pos)), (q, n)
            for row, bit in zip(C, bits):
                want = is_permutation(Poly(fld, tuple(int(v) for v in row)))
                assert bool(bit) == want, (q, row)


def test_pp_batch_refuses_coefficients_outside_the_field():
    # -1 would wrap to the element 12 and 13 would index past the tables;
    # the check runs once per call, before any gather
    fld = field_for(13)
    for bad in ([[0, -1]], [[0, 13]], [[0, 1], [0, 13]]):
        with pytest.raises(InvalidArgument, match=r"\[0, 13\)"):
            kernels.pp_batch(fld, bad)
    assert kernels.pp_batch(fld, [[0, 12], [3, 0]]).tolist() == [True, False]


def test_evaluators_return_the_bool_mask_of_the_rows_leading_shape():
    fld = field_for(13)
    rows = np.zeros((2, 3, 8), dtype=np.int64)
    rows[..., 7] = 1
    mask = kernels.pp_batch(fld, rows)
    assert mask.dtype == bool and mask.shape == (2, 3)
    lines = kernels.pair_line(fld, rows)
    assert lines.shape == (2, 3, 12, 8)
    grids = kernels.pp_batch(fld, lines)[..., kernels.pair_cells(fld)]
    assert grids.dtype == bool and grids.shape == (2, 3, 12, 12)


@pytest.mark.parametrize("q", [11, 13, 49])
def test_pp_batch_catches_a_repeat_at_the_last_element(q):
    # e + c*(1 - (x - a)^(q-1)) moves the value of the class entry e at
    # a = q-1 alone, so the row's one repeat shows at the last element
    # evaluated.  Three random rows to each such row make the evaluator
    # compact the batch while these rows are still live.
    fld = field_for(q)
    a, xq1 = q - 1, Poly(fld, (0,) * (q - 1) + (1,))
    entries = [np.pad(e.poly(fld).coeffs, (0, q - 8)) for e in table_for(q).entries]
    # c*(1 - (x - a)^(q-1)) is -c*(x - a)^(q-1) + c
    bumps = [apply_transform(xq1, LinearTransform(fld.neg(c), 1, fld.neg(a), c)).coeffs
             for c in range(1, q)]
    late = [fld.add_t[e, bump] for e in entries for bump in bumps]
    rng = np.random.default_rng(q)
    n = len(entries) + len(late)  # random rows fill up to a multiple of 20 >= 4n
    C = np.vstack(entries + late + [rng.integers(0, q, size=(20 * -(-4 * n // 20) - n, q))])
    order = rng.permutation(len(C))
    bits = kernels.pp_batch(fld, C[order].reshape(4, 5, -1, q))
    assert bits.shape == (4, 5, len(C) // 20)
    got = np.empty(len(C), dtype=bool)
    got[order] = bits.ravel()
    assert np.array_equal(np.nonzero(got)[0], np.arange(len(entries)))
    for row, bit in zip(C, got):
        assert bit == is_permutation(Poly(fld, tuple(int(v) for v in row))), (q, row)


@pytest.mark.parametrize("q", [11, 13, 17, 19, 23, 25, 27, 31, 41])
def test_class_lookup_agrees_with_canonical_route(q):
    # the class-image lookup against the paper's canonical route (the
    # canonical tuple of each row among the class entries): the p != 7
    # table orders, and the x^7 rule at q = 41
    fld = field_for(q)
    rng = np.random.default_rng(q)
    C = rng.integers(0, q, size=(300, 8), dtype=np.int64)
    C[:, 7] = rng.integers(1, q, size=300)
    # a*e(bx+c)+d of every entry, so that positives occur, and the same rows
    # with the x coefficient moved by one, mostly near misses
    related = []
    for e in field_entries(fld):
        for _ in range(4):
            a, b = (int(v) for v in rng.integers(1, q, 2))
            c, d = (int(v) for v in rng.integers(0, q, 2))
            t = LinearTransform(a, b, c, d)
            related.append(apply_transform(e.poly(fld), t).coeffs)
    near = np.array(related)
    near[:, 1] = fld.add_t[near[:, 1], 1]
    C = np.vstack([C, related, near])
    ords = class_lookup(fld, C)
    assert ords[300:300 + len(related)].tolist() == [
        e.ordinal for e in field_entries(fld) for _ in range(4)]
    # a row's ordinal is that of the entry its canonical tuple names, or 0
    tuples, _ = canonical_rows(fld, C)
    ordinal = {e.coeffs: e.ordinal for e in field_entries(fld)}
    for row, o, t in zip(C, ords.tolist(), tuples.tolist()):
        assert o == ordinal.get(tuple(t), 0), (q, row)


@pytest.mark.parametrize("q", [67, 83])
def test_kernels_reject_orders_above_hit_mask(q):
    # one uint64 holds the evaluation hits, so every kernel needs q <= 63
    fld = field_for(q)
    x7 = [0, 0, 0, 0, 0, 0, 0, 1]
    with pytest.raises(UnsupportedOrder, match="q <= 63"):
        kernels.permutation_hits(fld, CensusQuery(fld, 2, False).digits(), 0, 10)
    with pytest.raises(UnsupportedOrder, match="q <= 63"):
        search_pairs(fld, [FamilyEntry(q, (0,) * 5, True, 1)])
    with pytest.raises(UnsupportedOrder, match="q <= 63"):
        kernels.pp_batch(fld, [x7])
    with pytest.raises(UnsupportedOrder, match="q <= 63"):
        audit_random(fld, 10)
    if q % 7 == 6:  # an order the x^7 rule covers: its pair search needs the kernels
        with pytest.raises(UnsupportedOrder, match="q <= 63"):
            count_ops(q)


def test_normalized_codes_reject_orders_that_overflow():
    # five base-q digits fit an int64 up to q = 6208, and six (p = 7, x^6
    # kept) up to q = 1448; the guard runs before any table is read, so a
    # stand-in with only an order and a characteristic suffices
    for q, p in ((6211, 6211), (2401, 7)):
        with pytest.raises(UnsupportedOrder, match="overflow"):
            kernels.normalized_code_batch(SimpleNamespace(q=q, p=p), [0] * 7 + [1])


@pytest.mark.parametrize("q", [13, 25, 49])
def test_normalized_rows_match_the_scalar_reduction(q):
    # the normal form is apply_transform(h, (a, 1, c, -a*h(c))), a = h7^-1,
    # with c the x6_shift for p != 7 and c = 0 (x^6 kept) at q = 49; the
    # class code is its x^1.. digits packed in base q
    fld = field_for(q)
    rng = np.random.default_rng(q)
    C = rng.integers(0, q, size=(60, 8), dtype=np.int64)
    C[:, 7] = rng.integers(1, q, size=60)
    rows = kernels.normalized_rows(fld, C)
    cs = kernels.x6_shift(fld, C) if fld.p != 7 else np.zeros(60, dtype=np.int64)
    for k, row in enumerate(C.tolist()):
        h, a, c = Poly(fld, row), fld.inv(row[7]), int(cs[k])
        g = apply_transform(h, LinearTransform(a, 1, c, fld.neg(fld.mul(a, eval_poly(h, c)))))
        assert g.coeff(7) == 1 and g.coeff(0) == 0
        assert [int(r[k]) for r in rows] == [g.coeff(i) for i in range(1, 7)], (q, row)
    top = 6 if fld.p == 7 else 5
    packed = sum(rows[i] * q ** i for i in range(top))
    assert (kernels.normalized_code_batch(fld, C) == packed).all()


@pytest.mark.parametrize("q", [13, 25, 49])
def test_expand_shifts_matches_apply_transform(q):
    fld = field_for(q)
    rng = np.random.default_rng(q)
    C = rng.integers(0, q, size=(40, 8), dtype=np.int64)
    C[:, 7] = rng.integers(1, q, size=40)
    As, bs = rng.integers(1, q, size=(2, 30))
    cs, ds = rng.integers(0, q, size=(2, 30))
    # every parameter away from the identity in one transform
    assert ((As != 1) & (bs != 1) & (cs != 0) & (ds != 0)).any()

    def ref(row, a, b, c, d):
        g = apply_transform(Poly(fld, tuple(int(v) for v in row)),
                            LinearTransform(int(a), int(b), int(c), int(d)))
        return list(g.coeffs) + [0] * (8 - len(g.coeffs))

    # one row against arrays of (a, b, c, d)
    single = kernels.expand_shifts(fld, C[0], As, bs, cs, ds)
    assert single.shape == (30, 8)
    for k in range(30):
        assert single[k].tolist() == ref(C[0], As[k], bs[k], cs[k], ds[k])
    # a batch of rows, one (a, b, c, d) per row
    batch = kernels.expand_shifts(fld, C[:30], As, bs, cs, ds)
    assert batch.shape == (30, 8)
    for k in range(30):
        assert batch[k].tolist() == ref(C[k], As[k], bs[k], cs[k], ds[k])
    # a batch of rows against every (a, b, c, d): broadcast to (rows, transforms, 8)
    grid = kernels.expand_shifts(fld, C[:, None, :], As, bs, cs, ds)
    assert grid.shape == (40, 30, 8)
    for r, k in zip(rng.integers(0, 40, 25), rng.integers(0, 30, 25)):
        assert grid[r, k].tolist() == ref(C[r], As[k], bs[k], cs[k], ds[k])
    # the pair line: alpha*f(beta*x) - x is alpha*g(beta*x) for the line
    # row g = f - lam*x, lam = (alpha*beta)^-1, that pair_cells names
    line = kernels.pair_line(fld, C[0])
    cells = kernels.pair_cells(fld)
    assert line.shape == (q - 1, 8) and cells.shape == (q - 1, q - 1)
    for a, b in rng.integers(1, q, size=(25, 2)):
        want = ref(C[0], a, b, 0, 0)
        want[1] = fld.sub(want[1], 1)
        assert ref(line[cells[a - 1, b - 1]], a, b, 0, 0) == want
