"""Hot inner loops: candidate census, batch checks, the pair line, shift
expansion and class-image code lookups.

Vectorised numpy throughout.  All kernels operate on the integer element
encoding and take the field's add/sub/mul tables as arrays, so they are
field-agnostic.  The evaluating kernels pack each candidate's hits into
one integer of at most 64 bits, so they require q <= 63 (every supported
order).  Every kernel given polynomials takes them as coefficient rows
on the last axis (ascending powers).  One evaluator, `pp_batch`, checks
the audit rows and the line rows (`pair_line`) of the pair search: one
Horner run on the even and odd parts at x^2 per pair {x, -x}, one gather
per step from an int16 step table, and a collision sieve that stops
evaluating a row once one of its values repeats.  The census
kernel yields, per scan step, a boolean mask of the permutations among the
step's candidates of a given digit layout: it evaluates low and high
coefficient blocks once each (meet in the middle) and gathers whole rows
of per-point (or per-pair) low-block hits.
One synthetic division, `_taylor_shift` (f -> f(x + c) through the flat
tables), serves `expand_shifts`, the one array transform a*f(b*x + c) + d
(`poly.apply_transform` over arrays: the class images, the shift blocks of
`pairs.shift_blocks`, and with c = d = 0 every rescaling alpha*f(beta*x) of
the pair dedup and the published pair lists).  One routine, `normal_digits`,
yields the one degree-7 normal form (monic, no constant term, and for
p != 7 no x^6 after the shift `x6_shift`) top digit first, the shift in
closed form from per-field tables over c: `canon.canonical_rows` stacks
it, `normalized_code_batch` packs it into codes (a code names a row up to
a*f(x+c)+d) that `code_member` finds in a sorted code array, such as the
class-image index of `families.image_codes`, and `families.class_lookup`
reads its top digits alone first.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import InvalidArgument, UnsupportedOrder


def check_hit_mask_order(q: int) -> None:
    """Raise UnsupportedOrder unless one uint64 can hold a hit per element."""
    if q > 63:
        raise UnsupportedOrder(f"the evaluation kernels pack hits in uint64 "
                               f"and need q <= 63, got q={q}")


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
    step.  A layout's tables are built at its first call and kept (for forks
    too) by `_scan_tables`.  Refuses q > 63 and a layout whose high block
    holds an x^0 digit other than a fixed zero, at the call."""
    return _hits(field, *_scan_tables(field, tuple(digits)), start, stop)


@functools.cache
def _scan_tables(field, digits):
    """What `_hits` reads for one layout (a tuple): the upper digits, the
    powers x^e, the mid values M, the point (or pair) tables T and whether
    T pairs points; kept per (field, layout) with no bound on the layouts."""
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
    return digits[d + 1:], powers, M, T, pair


def _hits(field, upper, powers, M, T, pair, start, stop):
    """The scan behind `permutation_hits`, given the `_scan_tables`."""
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
# Pair line: at y = beta*x, alpha*f(beta*x) - x is alpha*(f(y) - lam*y),
# lam = (alpha*beta)^-1, so the line rows f - lam*x decide every (alpha,
# beta) in (F_q*)^2: pp_batch(field, pair_line(field, f))[...,
# pair_cells(field)] is the orthomorphism pair grid of a permutation f.


def pair_line(field, C):
    """The rows f - lam*x over lam in F_q* of each row f of C (last axis),
    as one array L[..., lam-1, :] of shape C.shape[:-1] + (q-1, n)."""
    C = np.asarray(C, dtype=np.int64)
    L = np.repeat(C[..., None, :], field.q - 1, axis=-2)
    L[..., 1] = field.sub_t[L[..., 1], np.arange(1, field.q)]
    return L


def pair_cells(field):
    """The line index lam-1 of each cell [alpha-1, beta-1], shape (q-1, q-1)."""
    return field.inv_t[field.mul_t[1:, 1:]] - 1


# ---------------------------------------------------------------------------
# Batched direct permutation test (coefficient rows, ascending).


def pp_batch(field, coeff_rows):
    """Direct bijection check of each coefficient row: evaluate it at every
    x of the field and report whether it is a permutation.

    `coeff_rows[..., i]` is the array of x^i coefficients (rows on the
    last axis, any length), elements in [0, q): anything else is refused.
    The result is the boolean array, of the rows' leading shape, of the
    rows whose hits fill a mask of the narrowest unsigned word holding q
    bits.  f(+-x) = E(x^2) +- x*O(x^2), E and O the even and odd parts of
    f, so one Horner run at y = x^2 serves a pair {x, -x} (one point in
    characteristic 2); f(0) is c0.  E and O share one accumulator carried
    times q: a step a*y + c is one gather of a*q + c from the int16 table
    step[y, a*q + c] = (a*y + c)*q (q^2 <= 3969 fits), and a point is one
    gather of O*q + E.  A row whose value repeats can never fill its mask,
    so it is sieved out: once at least half of the rows still carried have
    collided, only the live ones are kept, until none is left.  A random
    row lives about sqrt(pi*q/2) points rather than q.
    """
    q = field.q
    check_hit_mask_order(q)
    C = np.asarray(coeff_rows, dtype=np.int64)
    if C.size and not 0 <= C.min() <= C.max() < q:
        raise InvalidArgument(f"coefficients must lie in [0, {q}), not {C.min()}..{C.max()}")
    if not C.shape[-1]:  # rows of length 0: the zero polynomial permutes nothing
        return np.zeros(C.shape[:-1], dtype=bool)
    step = (field.add_t.astype(np.int16) * q)[field.mul_t.T].reshape(q, q * q)
    rows = C.reshape(-1, C.shape[-1]).T  # one row per power
    cols = np.zeros((-(-len(rows) // 2), 2, rows.shape[1]), dtype=np.int16)  # O padded with 0
    cols.reshape(2 * len(cols), -1)[:len(rows)] = rows  # cols[k] = (c_2k, c_2k+1)
    word = np.min_scalar_type((1 << q) - 1)  # the narrowest that holds q hits
    bits = (1 << (np.arange(q * q) // q)).astype(word)  # [v*q] = 1 << v
    mask = bits.take(cols[0, 0] * np.int16(q))  # f(0) = c0
    cols[-1] *= np.int16(q)  # the leads of E and O
    neg, sq = field.neg_t.tolist(), field.mul_t.diagonal().tolist()
    pos = np.arange(cols.shape[2])
    clash = np.zeros(pos.size, dtype=bool)
    for x in range(1, q):
        if neg[x] < x or not pos.size:  # {x, -x} was evaluated at -x, or no row is left
            continue
        sy, eo = step[sq[x]], cols[-1]
        for k in range(len(cols) - 2, -1, -1):  # E and O side by side
            eo = sy.take(eo + cols[k], mode="clip")
        oe = eo[1] + eo[0] // np.int16(q)  # O*q + E: E unscaled once
        for z in {x, neg[x]}:
            seen = mask | bits.take(step[z].take(oe, mode="clip"), mode="clip")
            clash |= seen == mask
            mask = seen
        if 2 * np.count_nonzero(clash) >= max(clash.size, 1):
            live = np.flatnonzero(~clash)  # gathers by index: a boolean mask is slower
            cols, pos, mask, clash = cols.take(live, 2), pos[live], mask[live], clash[live]
    out = np.zeros(C.shape[:-1], dtype=bool)
    out.flat[pos] = mask == (1 << q) - 1
    return out


# ---------------------------------------------------------------------------
# Transform: the coefficient rows of a*f(b*x + c) + d, for many (a, b, c, d) at once.


def _taylor_shift(field, a, c):
    """Replace the coefficient columns `a` (a list, lead last) by those of
    f(x + c): the Taylor shift, repeated synthetic division a_j += c*a_{j+1},
    each step one gather from the flat tables."""
    q, n = field.q, len(a)
    mulf, addf = field.mul_t.ravel(), field.add_t.ravel()
    cq = np.asarray(c, dtype=np.int64) * q
    top = mulf[cq + a[-1]]  # c * lead, read by every step of a_{n-2}: the lead stays
    for k in range(n - 1):
        for j in range(n - 2, k - 1, -1):
            a[j] = addf[a[j] * q + (top if j == n - 2 else mulf[cq + a[j + 1]])]


def expand_shifts(field, C, a, b, c, d):
    """Ascending coefficient rows of a*f(b*x + c) + d for each row f of C,
    as `poly.apply_transform` gives them for one polynomial.

    C is one coefficient row (shape (n,)) or a batch (shape (..., n)); its
    leading axes broadcast with the arrays a, b, c and d like numpy
    operands, and the result has shape broadcast + (n,).  f(x + c) comes
    from `_taylor_shift`, exact polynomial arithmetic in the field, so
    characteristic effects such as (x+c)^7 = x^7 + c^7 when p = 7 come out
    right; coefficient j is then scaled by a*b^j, and d is added to x^0.
    """
    q, mulf = field.q, field.mul_t.ravel()
    C = np.asarray(C, dtype=np.int64)
    a, b, c, d = (np.asarray(v, dtype=np.int64) for v in (a, b, c, d))
    cols = [C[..., i] for i in range(C.shape[-1])]
    if c.any():
        _taylor_shift(field, cols, c)
    shape = np.broadcast_shapes(C.shape[:-1], a.shape, b.shape, c.shape, d.shape)
    out = np.empty(shape + C.shape[-1:], dtype=np.int64)
    scale = a  # a*b^j
    for j, col in enumerate(cols):
        out[..., j] = mulf[col * q + scale]
        scale = mulf[scale * q + b]
    if d.any():
        out[..., 0] = field.add_t.ravel()[out[..., 0] * q + d]
    return out


# ---------------------------------------------------------------------------
# The degree-7 normal form and its codes.


def x6_shift(field, C):
    """The c = -h6/(7*h7) of degree-7 rows (last axis of C), p != 7: the
    shift whose f(x + c) has a zero x^6 coefficient (0 where h7 = 0)."""
    C = np.asarray(C, dtype=np.int64)
    by = field.mul_t[field.neg_t[field.inv_t[field.from_int(7)]]]  # times -1/7
    return by[field.mul_t.ravel()[field.inv_t[C[..., 7]] * field.q + C[..., 6]]]


def code_width(field):
    """The digits of a normalised code: x^5..x^1, or x^6..x^1 when p = 7."""
    return 6 if field.p == 7 else 5


@functools.cache
def _shift_terms(field):
    """The c-dependent factors of the shifted normal form (p != 7), as
    tables over c of flat-table offsets (element times q), once per field:
    B[j] lists binom(k, j)*c^(k-j) for k = j+1..5, and A[j] = (binom(7, j)
    - 7*binom(6, j))*c^(7-j), the x^7 and x^6 terms of a monic h with
    h6 = -7c."""
    q, mul = field.q, field.mul_t
    pw = [np.ones(q, dtype=np.int64)]  # pw[e][c] = c^e
    for _ in range(6):
        pw.append(mul[pw[-1], np.arange(q)])

    def term(n, e):
        return mul[field.from_int(n), pw[e]] * q

    A = {j: term(math.comb(7, j) - 7 * math.comb(6, j), 7 - j) for j in range(1, 6)}
    B = {j: [term(math.comb(k, j), k - j) for k in range(j + 1, 6)] for j in range(1, 6)}
    return A, B


def normal_digits(field, C):
    """The digits of the degree-7 normal form of rows (last axis of C), top
    first, one array each as it is asked for: x^6 down to x^1 of the monic
    h = C/C7 when p = 7, and x^5 down to x^1 of h(x + c) when p != 7, c the
    `x6_shift` (its x^6 is zero).  The shift is in closed form, with
    h6 = -7c and h7 = 1:

        h'_j = h_j + sum_{k=j+1..5} binom(k,j)*c^(k-j)*h_k
                   + (binom(7,j) - 7*binom(6,j))*c^(7-j),

    so digit j reads only the monic h_j..h_5 and the `_shift_terms`."""
    q = field.q
    C = np.asarray(C, dtype=np.int64)
    mulf, addf = field.mul_t.ravel(), field.add_t.ravel()
    aq = field.inv_t[C[..., 7]] * q
    if field.p == 7:
        for j in range(6, 0, -1):
            yield mulf[aq + C[..., j]]
        return
    c, (A, B) = x6_shift(field, C), _shift_terms(field)
    h = {}
    for j in range(5, 0, -1):
        h[j] = mulf[aq + C[..., j]]
        acc = addf[A[j][c] + h[j]]
        for k, Bk in enumerate(B[j], j + 1):
            acc = addf[acc * q + mulf[Bk[c] + h[k]]]
        yield acc


def normalized_code_batch(field, C):
    """The `normal_digits` of degree-7 rows (last axis of C) packed as a
    base-q code, top digit most significant.  When p != 7 the x^6 digit is
    zero and left out, so the code runs over x^5..x^1 and every f(x + c) of
    a row has the row's code; in characteristic 7 the x^6 term stays in the
    code.  The digits fit an int64 while q^5 < 2^63 (q <= 6208), and q^6 <
    2^63 (q <= 1448) when p = 7."""
    if field.q ** code_width(field) >= 1 << 63:
        raise UnsupportedOrder(f"normalised codes overflow int64 at q={field.q}")
    digits = normal_digits(field, C)
    code = next(digits)
    for d in digits:
        code = code * field.q + d
    return code


def code_member(codes_sorted, code):
    """Look codes up in a sorted code array: the hit mask, and the position
    of each code's match (a valid index, meaningful where it hits)."""
    pos = np.minimum(np.searchsorted(codes_sorted, code), len(codes_sorted) - 1)
    return codes_sorted[pos] == code, pos
