"""Pure-numpy series kernels: sparse product, merge-add and term sums.

A series is a pair of equal-length int64 arrays (exps, coeffs): exponent
numerators sorted ascending, packed nonzero field coefficients.  Every
field sum adds lane words (FieldSpec.lane_np: an element's D base-p
digits in lanes of 64 // D bits) as integers, reduces each lane mod p
whenever the words added since the last reduction could overflow one,
and repacks the lanes base p at the end; all of it is exact int64.

A product has one path for every field and every window.  Its term pairs
are formed a chunk of rows of the shorter operand at a time, about
_PAIRS pairs per chunk: an outer sum of exponents gives each pair's
slot, an outer sum of logs its lane word (FieldSpec.lane_exp_np), and
one np.add.at adds the chunk's words below cap into their slots.  A slot
is the exponent's offset from the lowest product exponent, or, in
windows wider than _DENSE_WINDOW (high-valuation tails are very sparse),
its rank among the exponents that occur below cap.  The merge-add, like
CinfElem's constructor, sums equal exponents with sum_terms.  Both
kernels take the same twelve arguments, so a caller or tracer handles
them alike; the tests check them against a schoolbook product and merge.
"""

import numpy as np

from ..ffield import lane_digits

_EMPTY = np.empty(0, dtype=np.int64)

# widest window accumulated by offset; wider ones get a slot per
# exponent that occurs
_DENSE_WINDOW = 1 << 17

# term pairs formed at once: a chunk is _PAIRS // len(e2) rows (at least
# one, at most a lane block), so its temporaries stay near a few times
# 8 * _PAIRS bytes
_PAIRS = 1 << 15

# exponent numerators lie strictly inside +-_EXP_BOUND, so each operand
# spans less than 2 * _EXP_BOUND and a position, the sum of two spans,
# fits int64
_EXP_BOUND = 1 << 61


def _lane_block(p, D):
    # words a lane of 64 // D bits takes between two reductions: each adds
    # at most p - 1, on top of the at most p - 1 the last reduction left
    block = ((1 << 64 // D) - 1) // (p - 1) - 1
    assert block >= 1, "a digit lane cannot hold one word"
    return block


def _reduce_lanes(words, p, D, radix):
    """Each lane of words mod p, recombined with digit d weighted radix**d."""
    return lane_digits(words, D) % p @ radix ** np.arange(D, dtype=np.int64)


def distinct(a):
    """The distinct values of a, ascending: np.unique by a sort and a
    neighbour compare, which stays off np.unique's hash path."""
    a = np.sort(a)
    first = np.ones(len(a), dtype=bool)
    first[1:] = a[1:] != a[:-1]
    return a[first]


def sum_terms(e, c, lane, p, D, cap, copies):
    """Field sums of the packed coefficients c of equal exponents e: the
    distinct exponents below cap whose sum is nonzero, ascending, and the
    sums.  One exponent occurs at most copies times; past a lane block the
    words go in a block of terms at a time."""
    ee = distinct(e)
    at = np.searchsorted(ee, e)  # each term's rank among the distinct exponents
    if len(ee) == len(e):
        # no exponent repeats, so there is nothing to add
        cc = np.empty_like(c)
        cc[at] = c
    else:
        block = _lane_block(p, D)
        step = len(e) if copies <= block else block
        acc = np.zeros(len(ee), dtype=np.int64)
        for i in range(0, len(e), step):
            if i:
                acc = _reduce_lanes(acc, p, D, 1 << 64 // D)
            np.add.at(acc, at[i:i + step], lane[c[i:i + step]])
        cc = _reduce_lanes(acc, p, D, p)
    keep = (cc != 0) & (ee < cap)
    return ee[keep], cc[keep]


def series_add_merge(e1, c1, e2, c2, logt, expt, lane, lane_exp, qm1, p, D, cap):
    """Merge-add two canonical series, dropping exponents >= cap and zeros."""
    if len(e1) == 0:
        keep = e2 < cap
        return e2[keep].copy(), c2[keep].copy()
    if len(e2) == 0:
        keep = e1 < cap
        return e1[keep].copy(), c1[keep].copy()
    # canonical operands: one exponent occurs at most twice
    return sum_terms(np.concatenate((e1, e2)), np.concatenate((c1, c2)), lane, p, D, cap, 2)


def series_mul(e1, c1, e2, c2, logt, expt, lane, lane_exp, qm1, p, D, cap):
    """Full sparse product truncated at cap."""
    if len(e1) == 0 or len(e2) == 0:
        return _EMPTY.copy(), _EMPTY.copy()
    if len(e1) > len(e2):
        e1, c1, e2, c2 = e2, c2, e1, c1
    for e in (e1, e2):
        assert -_EXP_BOUND < e[0] and e[-1] < _EXP_BOUND, "exponent outside int64 headroom"
    base = int(e1[0]) + int(e2[0])
    window = int(cap) - base
    if window <= 0:
        return _EMPTY.copy(), _EMPTY.copy()
    d2 = e2 - base
    occ = None  # a wide window's offsets that occur; a slot is a rank in it
    if window > _DENSE_WINDOW:
        offsets = (e1[:, None] + d2).ravel()
        occ = distinct(offsets[offsets < window])
    # a row's slots are distinct, so a row adds one word to a lane
    block = _lane_block(p, D)
    rows = max(1, min(block, _PAIRS // len(e2)))
    l1 = logt[c1]
    l2 = logt[c2]
    acc = np.zeros(window if occ is None else len(occ), dtype=np.int64)
    since = 0  # rows added since the last lane reduction
    for i in range(0, len(e1), rows):
        if int(e1[i]) - int(e1[0]) >= window:
            break  # e1 is sorted: no later row lands below cap
        r = slice(i, i + rows)
        k = min(rows, len(e1) - i)
        if since + k > block:
            nz = np.flatnonzero(acc)
            acc[nz] = _reduce_lanes(acc[nz], p, D, 1 << 64 // D)
            since = 0
        since += k
        assert since <= block, "a digit lane could overflow"
        pos = e1[r, None] + d2
        m = pos < window
        slots = pos[m] if occ is None else np.searchsorted(occ, pos[m])
        np.add.at(acc, slots, lane_exp[(l1[r, None] + l2)[m] % qm1])
    nz = np.flatnonzero(acc)
    coeffs = _reduce_lanes(acc[nz], p, D, p)
    keep = coeffs != 0
    exps = nz if occ is None else occ[nz]
    return exps[keep] + base, coeffs[keep]
