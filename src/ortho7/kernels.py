"""Hot inner loops: candidate census, pair-grid scans, batch checks,
shift expansion and class-image code lookups.

Vectorised numpy throughout.  All kernels operate on the integer element
encoding and take the field's add/sub/mul tables as arrays, so they are
field-agnostic.  The evaluating kernels pack each candidate's hits into
one integer of at most 64 bits, so they require q <= 63 (every supported
order).  Every kernel given polynomials takes them as coefficient rows
on the last axis (ascending powers).  One primitive, `scaled_rows`, gives
every rescaling alpha*f(beta*x): the pair dedup (a lexsort of its rows)
and the published pair lists read it.  It is `expand_shifts` with a zero
shift; `pairs.shift_blocks` makes one call per batch of pairs.  The pair grid
(the q-1 rows of `pair_line`) and pp_batch share one evaluator, `_full_hits`:
Horner with one gather per step from an int16 step table, and a collision
sieve that stops evaluating a row once one of its values repeats.  The
census kernel yields, per scan step, a boolean mask of the permutations
among the step's candidates of a given digit layout: it evaluates low and
high coefficient blocks once each (meet in the middle) and gathers whole
rows of per-point (or per-pair) low-block hits.
`normalized_rows` is the one degree-7 normal form (monic, no constant term,
and for p != 7 no x^6 after the shift `x6_shift`): `canon.canonical_rows`
reads it, and `normalized_code_batch` packs it into codes (a code names a
row up to a*f(x+c)+d) that `code_member` finds in a sorted code array, such
as the class-image index of `families.image_codes`.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgument, UnsupportedOrder


def check_hit_mask_order(q: int) -> None:
    """Raise UnsupportedOrder unless one uint64 can hold a hit per element."""
    if q > 63:
        raise UnsupportedOrder(f"the evaluation kernels pack hits in uint64 "
                               f"and need q <= 63, got q={q}")


def _full_hits(field, C):
    """Evaluate polynomials at every x of the field by Horner and report
    which are permutations.

    `C[..., i]` is the array of x^i coefficients (coefficient rows on the
    last axis, any length).  The hits of each row are ORed into a uint64
    mask; the result is the boolean array, of shape C.shape[:-1], of full
    masks.  A row whose value repeats can never fill its mask, so it is
    sieved out: once at least half of the rows still carried have
    collided, only the live ones are kept.  A random row lives about
    sqrt(pi*q/2) points rather than q.  The accumulator is carried times
    q, so each Horner step is one gather of acc*q + c from the int16 table
    step[x, a*q + c] = (a*x + c)*q (q^2 <= 3969 fits).
    """
    q = field.q
    check_hit_mask_order(q)
    step = (field.add_t.astype(np.int16) * q)[field.mul_t.T].reshape(q, q * q)
    deg = C.shape[-1] - 1
    cols = C.reshape(-1, deg + 1).T.astype(np.int16)  # one contiguous row per power
    cols[deg] *= q
    pos = np.arange(cols.shape[1])
    mask = np.zeros(pos.size, dtype=np.uint64)
    clash = np.zeros(pos.size, dtype=bool)
    bits = np.uint64(1) << (np.arange(q * q) // q).astype(np.uint64)  # [v*q] = 1 << v
    for x in range(q):
        sx, acc = step[x], cols[deg]
        for i in range(deg - 1, -1, -1):
            acc = sx.take(acc + cols[i])
        seen = mask | bits.take(acc)
        clash |= seen == mask
        mask = seen
        if 2 * np.count_nonzero(clash) >= max(clash.size, 1):
            live = ~clash
            cols, pos, mask, clash = cols[:, live], pos[live], mask[live], clash[live]
    out = np.zeros(C.shape[:-1], dtype=bool)
    out.flat[pos] = mask == np.uint64((1 << q) - 1)
    return out


# ---------------------------------------------------------------------------
# Census over coefficient odometers.
#
# A layout `digits = [(exponent, radix, offset), ...]`, lowest digit first,
# names candidate i by its mixed-radix digits: the polynomial sum of
# (digit + offset) * x^exponent.  Meet in the middle: f = low + high, with
# the lowest d <= 3 digits in the low block and the mid (next) and upper
# digits in the high block.  Row v of the table R[x] = bits[:, L[x]] holds the
# hits of v + L(x) for every low value: each (high value, x > 0 or pair of
# them) costs one row gather and one OR.  R and its pairs T are capped at 4 MB.
_SCAN_CACHE: dict[tuple, tuple] = {}


def _digit_values(field, powers, idx, digits):
    """Values at every x, shape (q, len(idx)), of the sum of (d + off) * x^e
    over the mixed-radix digits d of idx, with powers[e, x] = x^e and
    digits = [(e, radix, off), ...]."""
    val = np.zeros((field.q, idx.size), dtype=np.int64)
    for e, radix, off in digits:
        val = field.add_t[val, field.mul_t[powers[e][:, None], idx % radix + off]]
        idx = idx // radix
    return val


def permutation_hits(field, digits, start, stop):
    """The permutations among candidates [start, stop) of the odometer
    `digits`: an iterator of (first, mask) pairs, one per step of the scan,
    where mask[i] tells whether candidate first + i is a permutation.  The
    masks tile [start, stop) in order.  A step covers whole blocks of the
    layout's lowest d + 1 digits (d >= 1 is the low block's width), so a
    mask begins and ends on such a block unless start or stop cuts it.  A
    mask is a view of the step's reused buffer: it is valid until the next
    step.  A layout's tables are built at its first call and kept (for forks too).
    Refuses q > 63 and a layout whose high block holds an x^0 digit other
    than a fixed zero, at the call."""
    if (key := (field, tuple(digits))) in _SCAN_CACHE:
        return _hits(field, *_SCAN_CACHE[key], start, stop)
    q, top = field.q, max((e for e, _, _ in digits), default=0)
    check_hit_mask_order(q)
    # the smallest unsigned type that holds q hit bits: less memory traffic
    bits = (1 << field.add_t).astype(np.min_scalar_type((1 << q) - 1))
    # the widest d whose R (q^(d+2) entries) fits 4 MB: 3 up to q = 16, 2 up to 31
    d = next(k for k in (3, 2, 1) if k == 1 or q ** (k + 2) * bits.itemsize <= 1 << 22)
    digits = list(digits) + [(0, 1, 0)] * (d + 1 - len(digits))  # radix 1: a fixed zero
    if any(e == 0 and (radix, off) != (1, 0) for e, radix, off in digits[d:]):
        raise InvalidArgument(f"an x^0 digit must sit in the lowest {d} digits at "
                              f"q={q}: the high block must vanish at x = 0")
    powers = np.array([[field.pow(x, e) for x in range(q)] for e in range(top + 1)])
    nl, nm = int(np.prod([radix for _, radix, _ in digits[:d]])), digits[d][1]
    L = _digit_values(field, powers, np.arange(nl), digits[:d])
    M = _digit_values(field, powers, np.arange(nm), digits[d:d + 1])
    R = bits[np.arange(q)[:, None], L[:, None, :]]  # R[x, v, l] = bits[v, L[x, l]]
    R[1] |= R[0, 0]  # high values vanish at x = 0: point 0 rides on point 1's gather
    # points x, x + 1 in one gather of T[v1*q + v2] = R[x, v1] | R[x + 1, v2] where all
    # pairs fit 4 MB (q <= 11, 17; an odd last x keeps R[x]): a repeat in one loses a bit
    pair = (q - 1) // 2 * q ** (d + 2) * bits.itemsize <= 1 << 22
    T = [(R[x][:, None] | R[x + 1]).reshape(-1, nl) if pair and x + 1 < q else R[x]
         for x in range(1, q, 1 + pair)]
    _SCAN_CACHE[key] = digits[d + 1:], powers, M, T, pair
    return _hits(field, *_SCAN_CACHE[key], start, stop)


def _hits(field, upper, powers, M, T, pair, start, stop):
    """The scan behind `permutation_hits`, given the tables it keeps."""
    q, (nm, nl), dtype = field.q, (M.shape[1], T[0].shape[1]), T[0].dtype
    xs = range(1, q, 1 + pair)  # the first point of each gather
    nb = nm * nl  # the (mid, low) block: candidates per upper value
    # a 512 KB hit mask per step, the fastest measured from q = 8 to 61
    nu, u_stop = max(1, (1 << 19) // (nb * dtype.itemsize)), -(-stop // nb)
    nc = nu * max(1, (1 << 17) // ((q - 1) * nu * nm))  # upper values per chunk: 1 MB of H
    bufs = [np.empty((nu * nm, nl), dtype=dtype) for _ in range(2)]  # mask, hits
    for u0 in range(start // nb, u_stop, nu):
        if (u0 - start // nb) % nc == 0:  # H: the high values at x > 0 of a chunk of steps
            U = _digit_values(field, powers, np.arange(u0, min(u0 + nc, u_stop)), upper)
            H = field.add_t[U[1:, :, None], M[1:, None, :]].reshape(q - 1, -1)
            H, h0 = [H[x - 1] * q + H[x] if pair and x + 1 < q else H[x - 1] for x in xs], u0
        Hs = [h[(u0 - h0) * nm:(u0 - h0 + nu) * nm] for h in H]
        mask, hits = (b[:Hs[0].size] for b in bufs)
        # mode="clip" (indices are in range): "raise" takes into a copy of `out`
        np.take(T[0], Hs[0], axis=0, out=mask, mode="clip")
        for Tx, Hx in zip(T[1:], Hs[1:]):
            np.take(Tx, Hx, axis=0, out=hits, mode="clip")
            mask |= hits
        flags = hits.reshape(-1).view(bool)[:mask.size]  # hits is free: reuse its bytes
        full = np.equal(mask.ravel(), (1 << q) - 1, out=flags)
        first = max(start - u0 * nb, 0)  # a shard that cuts a block yields only its slice
        yield u0 * nb + first, full[first:stop - u0 * nb]


# ---------------------------------------------------------------------------
# Pair grid: indicator over (alpha, beta) in (F_q*)^2 of whether
# alpha*f(beta*x) - x evaluates to a permutation (the orthomorphism pairs
# when f is a permutation polynomial).  At y = beta*x it is alpha*(f(y) -
# lam*y), lam = (alpha*beta)^-1: the line rows f - lam*x decide the cells.


def pair_line(field, coeffs8):
    """The rows f - lam*x over lam in F_q*, as one array L[lam-1], (q-1, 8)."""
    L = np.tile(np.asarray(coeffs8, dtype=np.int64), (field.q - 1, 1))
    L[:, 1] = field.sub_t[L[:, 1], np.arange(1, field.q)]
    return L


def pair_cells(field):
    """The line index lam-1 of each cell [alpha-1, beta-1], shape (q-1, q-1)."""
    return field.inv_t[field.mul_t[1:, 1:]] - 1


def op_pair_grid(field, coeffs8):
    return _full_hits(field, pair_line(field, coeffs8))[pair_cells(field)].astype(np.uint8)


# ---------------------------------------------------------------------------
# Batched direct permutation test (coefficient rows, ascending).


def pp_batch(field, coeff_rows):
    """Direct bijection check for each coefficient row (ascending)."""
    C = np.asarray(coeff_rows, dtype=np.int64)
    return _full_hits(field, C).astype(np.uint8)


# ---------------------------------------------------------------------------
# Shift expansion: the coefficient rows of f(b*x + c), for many (b, c) at
# once.


def expand_shifts(field, C, bs, cs):
    """Ascending coefficient rows of f(b*x + c) for each row f of C.

    C is one coefficient row (shape (n,)) or a batch (shape (..., n)); its
    leading axes broadcast with the arrays `bs` and `cs` like numpy
    operands, and the result has shape broadcast + (n,).  f(x + c) comes
    from repeated synthetic division (the Taylor shift: n(n-1)/2 steps of
    a_j += c * a_{j+1}), exact polynomial arithmetic in the field, so
    characteristic effects such as (x+c)^7 = x^7 + c^7 when p = 7 come out
    right; coefficient j is then scaled by b^j.
    """
    mul, add = field.mul_t, field.add_t
    C = np.asarray(C, dtype=np.int64)
    bs = np.asarray(bs, dtype=np.int64)
    cs = np.asarray(cs, dtype=np.int64)
    n = C.shape[-1]
    a = [C[..., i] for i in range(n)]
    if cs.any():
        for k in range(n - 1):
            for j in range(n - 2, k - 1, -1):
                a[j] = add[a[j], mul[cs, a[j + 1]]]
    shape = np.broadcast_shapes(C.shape[:-1], bs.shape, cs.shape)
    out = np.empty(shape + (n,), dtype=np.int64)
    bpow = np.ones_like(bs)
    for j in range(n):
        out[..., j] = mul[a[j], bpow]
        bpow = mul[bpow, bs]
    return out


def scaled_rows(field, C, alphas, betas):
    """Ascending coefficient rows of alpha*f(beta*x) for each row f of C;
    C, `alphas` and `betas` broadcast as in `expand_shifts`."""
    alphas = np.asarray(alphas, dtype=np.int64)
    return field.mul_t[alphas[..., None], expand_shifts(field, C, betas, 0)]


def x6_shift(field, C):
    """The c = -h6/(7*h7) of degree-7 rows (last axis of C), p != 7: the
    shift whose f(x + c) has a zero x^6 coefficient."""
    mul = field.mul_t
    C = np.asarray(C, dtype=np.int64)
    return field.neg_t[mul[C[..., 6], field.inv_t[mul[field.from_int(7), C[..., 7]]]]]


def normalized_rows(field, C):
    """The degree-7 normal form of rows (last axis of C), as the list of
    its x^1..x^6 coefficient arrays: h(x + c)/h7 less its constant term,
    with c the `x6_shift` of each row when p != 7 (its x^6 is then zero)
    and c = 0 in characteristic 7, where x^6 cannot be cleared."""
    q = field.q
    # flat tables: one index add per gather instead of numpy's 2-D indexing
    mulf, addf = field.mul_t.ravel(), field.add_t.ravel()
    C = np.asarray(C, dtype=np.int64)
    aq = field.inv_t[C[..., 7]] * q
    h = [None] + [mulf[aq + C[..., i]] for i in range(1, 7)]  # monic h1..h6
    if field.p != 7:
        # the synthetic division of `expand_shifts` on the monic row
        # (a_7 = 1), without the steps that only reach a_0 or the final a_6
        s = x6_shift(field, C)
        sq = s * q
        for k in range(6):
            h[6] = addf[h[6] * q + s]
            for j in range(5, max(k, 1) - 1, -1):
                h[j] = addf[h[j] * q + mulf[sq + h[j + 1]]]
        h[6] = np.zeros_like(s)  # the final a_6 is zero by the choice of s
    return h[1:]


def normalized_code_batch(field, C):
    """The `normalized_rows` of degree-7 rows (last axis of C) packed as a
    base-q code.  When p != 7 the x^6 digit is zero and left out, so the
    code runs over x^5..x^1 and every f(x + c) of a row has the row's
    code; in characteristic 7 the x^6 term stays in the code.  The digits
    fit an int64 while q^5 < 2^63 (q <= 6208), and q^6 < 2^63 (q <= 1448)
    when p = 7."""
    top = 6 if field.p == 7 else 5
    if field.q ** top >= 1 << 63:
        raise UnsupportedOrder(f"normalised codes overflow int64 at q={field.q}")
    h = normalized_rows(field, C)
    code = np.zeros(np.shape(h[0]), dtype=np.int64)
    for i in range(top - 1, -1, -1):
        code = code * field.q + h[i]
    return code


def code_member(codes_sorted, code):
    """Look codes up in a sorted code array: the hit mask, and the position
    of each code's match (a valid index, meaningful where it hits)."""
    pos = np.minimum(np.searchsorted(codes_sorted, code), len(codes_sorted) - 1)
    return codes_sorted[pos] == code, pos
