"""Kernel tests: the numpy kernels against scalar references, and backend
equivalence (the numba kernels and the numpy fallbacks must produce
identical results on identical inputs; those comparisons skip when numba
is not importable)."""

import numpy as np
import pytest

from ortho7 import kernels
from ortho7.field import field_for
from ortho7.families import table_codes, table_for
from ortho7.perm import CensusQuery, census
from ortho7.poly import LinearTransform, Poly, apply_transform

needs_numba = pytest.mark.skipif(not kernels.HAVE_NUMBA,
                                 reason="numba unavailable; nothing to compare")


@needs_numba
def test_census_backend_equivalence():
    for q, deg in ((5, 3), (8, 3), (11, 2), (25, 2)):
        fld = field_for(q) if q != 5 else field_for(11)
        for prop in ("pp", "op", "cpp"):
            for canonical in (False, True):
                query = CensusQuery(fld, deg, canonical, prop)
                a = census(query, backend="numba")
                b = census(query, backend="numpy")
                assert a == b, (q, deg, prop, canonical)


def test_census_range_sharding_consistency():
    fld = field_for(11)
    total = CensusQuery(fld, 3, False, "op").space()
    whole = kernels.census_scan(fld, 3, False, kernels.PROP_OP, 0, total)
    split = sum(kernels.census_scan(fld, 3, False, kernels.PROP_OP, s,
                                    min(s + 997, total))
                for s in range(0, total, 997))
    assert whole == split


@needs_numba
@pytest.mark.parametrize("q", [11, 13, 25, 49])
def test_op_pair_grid_equivalence(q):
    fld = field_for(q)
    for e in table_for(q).entries[:3]:
        f = e.poly(fld).coeffs
        a = kernels.op_pair_grid(fld, f, backend="numba")
        b = kernels.op_pair_grid(fld, f, backend="numpy")
        assert np.array_equal(a, b)


@needs_numba
def test_pp_batch_equivalence():
    rng = np.random.default_rng(5)
    for q in (13, 27, 49):
        fld = field_for(q)
        C = rng.integers(0, q, size=(500, 8), dtype=np.int64)
        C[:, 7] = rng.integers(1, q, size=500)
        a = kernels.pp_batch(fld, C, backend="numba")
        b = kernels.pp_batch(fld, C, backend="numpy")
        assert np.array_equal(a, b)


def test_pp_batch_agrees_with_scalar_check():
    from ortho7.perm import is_permutation

    rng = np.random.default_rng(6)
    fld = field_for(13)
    C = rng.integers(0, 13, size=(200, 8), dtype=np.int64)
    C[:, 7] = rng.integers(1, 13, size=200)
    bits = kernels.pp_batch(fld, C)
    for row, bit in zip(C, bits):
        assert bool(bit) == is_permutation(Poly(fld, tuple(int(v) for v in row)))


def test_table_member_batch_matches_lookup(f13):
    from ortho7.families import is_pp_by_table

    rng = np.random.default_rng(7)
    C = rng.integers(0, 13, size=(300, 8), dtype=np.int64)
    C[:, 7] = rng.integers(1, 13, size=300)
    member = kernels.table_member_batch(f13, C, table_codes(13))
    for row, m in zip(C, member):
        want = is_pp_by_table(Poly(f13, tuple(int(v) for v in row))) is not None
        assert bool(m) == want


def test_backend_selection_env(monkeypatch):
    monkeypatch.setenv("ORTHO7_BACKEND", "numpy")
    assert kernels._pick_backend() == "numpy"
    monkeypatch.setenv("ORTHO7_BACKEND", "auto")
    assert kernels._pick_backend() in ("numba", "numpy")


def test_numpy_census_rejects_large_q():
    # the uint64 hit mask caps the fallback at q <= 63
    with pytest.raises(ValueError):
        kernels._census_scan_np(64, 2, 0, 0, None, None, None, 0, 10)


@pytest.mark.parametrize("q", [13, 25, 49])
def test_expand_shifts_matches_apply_transform(q):
    fld = field_for(q)
    rng = np.random.default_rng(q)
    C = rng.integers(0, q, size=(40, 8), dtype=np.int64)
    C[:, 7] = rng.integers(1, q, size=40)
    bs = rng.integers(1, q, size=30)
    cs = rng.integers(0, q, size=30)

    def ref(row, b, c):
        g = apply_transform(Poly(fld, tuple(int(v) for v in row)),
                            LinearTransform(1, int(b), int(c), 0))
        return list(g.coeffs) + [0] * (8 - len(g.coeffs))

    # one row against arrays of (b, c)
    single = kernels.expand_shifts(fld, C[0], bs, cs)
    assert single.shape == (30, 8)
    for k in range(30):
        assert single[k].tolist() == ref(C[0], bs[k], cs[k])
    # a batch of rows, one (b, c) per row
    batch = kernels.expand_shifts(fld, C[:30], bs, cs)
    assert batch.shape == (30, 8)
    for k in range(30):
        assert batch[k].tolist() == ref(C[k], bs[k], cs[k])
    # a batch of rows against every (b, c): broadcast to (rows, shifts, 8)
    grid = kernels.expand_shifts(fld, C[:, None, :], bs, cs)
    assert grid.shape == (40, 30, 8)
    for r, k in zip(rng.integers(0, 40, 25), rng.integers(0, 30, 25)):
        assert grid[r, k].tolist() == ref(C[r], bs[k], cs[k])
