"""Hot inner loops: candidate census, pair-grid scans, batch checks and
shift expansion.

Two interchangeable backends. The default is a set of numba @njit scalar
kernels with early exit (the census alone visits tens of millions of
candidate polynomials, so this is where the runtime lives). The fallback
is pure-numpy vectorised code using uint64 hit bitmasks, selected with

    ORTHO7_BACKEND=numpy     force the numpy path
    ORTHO7_BACKEND=numba     require the JIT (raise if numba is missing)

and anything else (or unset) picks numba when importable. Both paths
must return identical results; the test suite compares them and
benchmarks/bench_kernels.py measures the gap.

All kernels operate on the integer element encoding and take the field's
add/sub/mul tables as arrays, so they are field-agnostic. The numpy path
packs evaluation hits into one uint64 per candidate and therefore
requires q <= 63, which covers every supported order.

Property codes: 0 = permutation, 1 = orthomorphism (f and f-x),
2 = complete mapping (f and f+x).
"""

from __future__ import annotations

import os

import numpy as np

from .poly import _binomials

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised via ORTHO7_BACKEND=numpy
    HAVE_NUMBA = False

    def njit(*args, **kwargs):
        def wrap(fn):
            return fn

        if args and callable(args[0]):
            return args[0]
        return wrap


def _pick_backend() -> str:
    env = os.environ.get("ORTHO7_BACKEND", "auto").strip().lower()
    if env == "numpy":
        return "numpy"
    if env == "numba":
        if not HAVE_NUMBA:
            raise RuntimeError("ORTHO7_BACKEND=numba but numba is not importable")
        return "numba"
    return "numba" if HAVE_NUMBA else "numpy"


BACKEND = _pick_backend()

PROP_PP, PROP_OP, PROP_CPP = 0, 1, 2


# ---------------------------------------------------------------------------
# Census over coefficient odometers.
#
# Candidate index layout (least-significant digit = lowest iterated
# coefficient, so ranges shard cleanly): the low `deg - lo` base-q digits
# are the coefficients c[lo..deg-1] (lo = 1 when restricted to zero
# constant term), and the top digit is lead - 1 with lead in [1, q).


@njit(cache=True, nogil=True)
def _census_scan_jit(q, deg, lo, prop, mul, add, sub, start, stop):
    c = np.zeros(deg + 1, dtype=np.int64)
    v = start
    for k in range(lo, deg):
        c[k] = v % q
        v //= q
    c[deg] = v + 1
    seen1 = np.full(q, -1, dtype=np.int64)
    seen2 = np.full(q, -1, dtype=np.int64)
    count = 0
    stamp = 0
    n = stop - start
    for _ in range(n):
        ok = True
        for x in range(q):
            acc = c[deg]
            for i in range(deg - 1, -1, -1):
                acc = add[mul[acc, x], c[i]]
            if seen1[acc] == stamp:
                ok = False
                break
            seen1[acc] = stamp
            if prop == 1:
                w = sub[acc, x]
                if seen2[w] == stamp:
                    ok = False
                    break
                seen2[w] = stamp
            elif prop == 2:
                w = add[acc, x]
                if seen2[w] == stamp:
                    ok = False
                    break
                seen2[w] = stamp
        if ok:
            count += 1
        stamp += 1
        k = lo
        while k < deg:
            c[k] += 1
            if c[k] < q:
                break
            c[k] = 0
            k += 1
        if k == deg:
            c[deg] += 1
    return count


def _census_scan_np(q, deg, lo, prop, mul, add, sub, start, stop, chunk=1 << 15):
    if q > 63:
        raise ValueError("numpy census backend packs hits in uint64; needs q <= 63")
    full = np.uint64((1 << q) - 1)
    one = np.uint64(1)
    count = 0
    for s in range(start, stop, chunk):
        e = min(s + chunk, stop)
        idx = np.arange(s, e, dtype=np.int64)
        coef = np.zeros((deg + 1, idx.size), dtype=np.int64)
        v = idx
        for k in range(lo, deg):
            coef[k] = v % q
            v = v // q
        coef[deg] = v + 1
        m1 = np.zeros(idx.size, dtype=np.uint64)
        m2 = np.zeros(idx.size, dtype=np.uint64)
        for x in range(q):
            mx = mul[:, x]
            acc = coef[deg]
            for i in range(deg - 1, -1, -1):
                acc = add[mx[acc], coef[i]]
            m1 |= one << acc.astype(np.uint64)
            if prop == 1:
                m2 |= one << sub[acc, x].astype(np.uint64)
            elif prop == 2:
                m2 |= one << add[acc, x].astype(np.uint64)
        ok = m1 == full
        if prop != 0:
            ok &= m2 == full
        count += int(np.count_nonzero(ok))
    return count


def census_scan(field, deg, canonical, prop, start, stop, backend=None):
    """Count property-satisfying candidates in [start, stop) of the odometer."""
    lo = 1 if canonical else 0
    b = backend or BACKEND
    fn = _census_scan_jit if b == "numba" else _census_scan_np
    return int(fn(field.q, deg, lo, prop, field.mul_t, field.add_t,
                  field.sub_t, start, stop))


# ---------------------------------------------------------------------------
# Pair grid: indicator over (alpha, beta) in (F_q*)^2 of whether
# alpha*f(beta*x) - x evaluates to a permutation.  (alpha*f(beta*x) itself
# is linearly related to f, so when f is a permutation polynomial the
# grid marks exactly the orthomorphism pairs.)


@njit(cache=True, nogil=True)
def _op_pair_grid_jit(q, f, mul, add, sub):
    out = np.zeros((q - 1, q - 1), dtype=np.uint8)
    g = np.zeros(8, dtype=np.int64)
    seen = np.full(q, -1, dtype=np.int64)
    stamp = 0
    for ai in range(1, q):
        for bi in range(1, q):
            bp = 1
            for i in range(8):
                g[i] = mul[mul[ai, f[i]], bp]
                bp = mul[bp, bi]
            g[1] = sub[g[1], 1]
            ok = True
            for x in range(q):
                acc = g[7]
                for i in range(6, -1, -1):
                    acc = add[mul[acc, x], g[i]]
                if seen[acc] == stamp:
                    ok = False
                    break
                seen[acc] = stamp
            if ok:
                out[ai - 1, bi - 1] = 1
            stamp += 1
    return out


def _op_pair_grid_np(q, f, mul, add, sub):
    al = np.arange(1, q, dtype=np.int64)
    be = np.arange(1, q, dtype=np.int64)
    af = mul[al][:, f]  # (q-1, 8): alpha * f_i
    bp = np.ones((q - 1, 8), dtype=np.int64)
    for i in range(1, 8):
        bp[:, i] = mul[bp[:, i - 1], be]
    planes = [mul[af[:, i][:, None], bp[None, :, i]] for i in range(8)]
    planes[1] = sub[planes[1], 1]
    m = np.zeros((q - 1, q - 1), dtype=np.uint64)
    one = np.uint64(1)
    for x in range(q):
        mx = mul[:, x]
        acc = planes[7]
        for i in range(6, -1, -1):
            acc = add[mx[acc], planes[i]]
        m |= one << acc.astype(np.uint64)
    return (m == np.uint64((1 << q) - 1)).astype(np.uint8)


def op_pair_grid(field, coeffs8, backend=None):
    f = np.asarray(coeffs8, dtype=np.int64)
    b = backend or BACKEND
    fn = _op_pair_grid_jit if b == "numba" else _op_pair_grid_np
    return fn(field.q, f, field.mul_t, field.add_t, field.sub_t)


# ---------------------------------------------------------------------------
# Batched direct permutation test (degree-7 coefficient rows).


@njit(cache=True, nogil=True)
def _pp_batch_jit(q, C, mul, add):
    n = C.shape[0]
    deg = C.shape[1] - 1
    out = np.zeros(n, dtype=np.uint8)
    seen = np.full(q, -1, dtype=np.int64)
    for r in range(n):
        ok = True
        for x in range(q):
            acc = C[r, deg]
            for i in range(deg - 1, -1, -1):
                acc = add[mul[acc, x], C[r, i]]
            if seen[acc] == r:
                ok = False
                break
            seen[acc] = r
        if ok:
            out[r] = 1
    return out


def _pp_batch_np(q, C, mul, add):
    deg = C.shape[1] - 1
    m = np.zeros(C.shape[0], dtype=np.uint64)
    one = np.uint64(1)
    for x in range(q):
        mx = mul[:, x]
        acc = C[:, deg]
        for i in range(deg - 1, -1, -1):
            acc = add[mx[acc], C[:, i]]
        m |= one << acc.astype(np.uint64)
    return (m == np.uint64((1 << q) - 1)).astype(np.uint8)


def pp_batch(field, coeff_rows, backend=None):
    """Direct bijection check for each coefficient row (ascending)."""
    C = np.ascontiguousarray(np.asarray(coeff_rows, dtype=np.int64))
    b = backend or BACKEND
    fn = _pp_batch_jit if b == "numba" else _pp_batch_np
    return fn(field.q, C, field.mul_t, field.add_t)


# ---------------------------------------------------------------------------
# Batched classification-route membership.  Array code shared by both
# backends (it is gather-bound, not loop-bound).  Given degree-7 rows it
# reduces each to the canonical-candidate scan and reports whether any
# candidate hits the field's class-table codes.
#
# Tuple code: ((((g5*q + g4)*q + g3)*q + g2)*q + g1.


def tuple_code(q: int, g5, g4, g3, g2, g1):
    return (((g5 * q + g4) * q + g3) * q + g2) * q + g1


def table_member_batch(field, C, table_codes):
    """For each degree-7 row of C decide table membership via the
    normalise-then-rescale candidate scan (requires gcd(q, 7) = 1)."""
    q = field.q
    mul, inv, neg = field.mul_t, field.inv_t, field.neg_t
    C = np.asarray(C, dtype=np.int64)
    lead = C[:, 7]
    if field.p == 7:
        raise ValueError("candidate scan needs gcd(q,7) = 1; use image sets")
    seven = field.from_int(7)
    cstar = neg[mul[C[:, 6], inv[mul[seven, lead]]]]
    HS = expand_shifts(field, C, 1, cstar)  # h(x + cstar), row by row
    inv_lead = inv[lead]
    member = np.zeros(C.shape[0], dtype=bool)
    for b in range(1, q):
        # candidate digits g_i = hs_i * b^(i-7) / lead
        bm = [field.pow(b, i - 7) for i in range(6)]
        digs = [mul[mul[HS[:, i], bm[i]], inv_lead] for i in range(1, 6)]
        code = tuple_code(np.int64(q), digs[4], digs[3], digs[2], digs[1], digs[0])
        member |= code_member(table_codes, code)
    return member


# ---------------------------------------------------------------------------
# Shift expansion: the coefficient rows of f(b*x + c) by the binomial
# expansion, for many (b, c) at once.


def expand_shifts(field, C, bs, cs):
    """Ascending coefficient rows of f(b*x + c) for each row f of C.

    C is one coefficient row (shape (n,)) or a batch (shape (..., n)); its
    leading axes broadcast with the arrays `bs` and `cs` like numpy
    operands, and the result has shape broadcast + (n,).  Coefficient i of
    f contributes binom(i, j) * f_i * b^j * c^(i-j) to coefficient j, with
    the binomials reduced in the field (so 7 * f_7 = 0 when p = 7).
    """
    mul, add = field.mul_t, field.add_t
    C = np.asarray(C, dtype=np.int64)
    bs = np.asarray(bs, dtype=np.int64)
    cs = np.asarray(cs, dtype=np.int64)
    n = C.shape[-1]
    binom = _binomials(field, n - 1)
    bpow, cpow = [np.ones_like(bs)], [np.ones_like(cs)]
    for _ in range(1, n):
        bpow.append(mul[bpow[-1], bs])
        cpow.append(mul[cpow[-1], cs])
    shape = np.broadcast_shapes(C.shape[:-1], bs.shape, cs.shape)
    out = np.zeros(shape + (n,), dtype=np.int64)
    for i in range(n):
        fi = C[..., i]
        if not fi.any():
            continue
        for j in range(i + 1):
            term = mul[mul[fi, binom[i][j]], mul[bpow[j], cpow[i - j]]]
            out[..., j] = add[out[..., j], term]
    return out


def normalized_code_batch(field, C):
    """Monic, zero-constant reduction of degree-7 rows (last axis of C),
    packed as a base-q code over coefficients x^6..x^1 (characteristic-7
    path: the x^6 term cannot be cleared, so it stays part of the code)."""
    q = np.int64(field.q)
    mul, inv = field.mul_t, field.inv_t
    C = np.asarray(C, dtype=np.int64)
    a = inv[C[..., 7]]
    code = np.zeros(C.shape[:-1], dtype=np.int64)
    for i in range(6, 0, -1):
        code = code * q + mul[a, C[..., i]]
    return code


def code_member(codes_sorted, code):
    pos = np.searchsorted(codes_sorted, code)
    pos = np.minimum(pos, len(codes_sorted) - 1)
    return codes_sorted[pos] == code
