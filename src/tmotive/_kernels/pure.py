"""Pure-numpy series kernels: sparse product and merge-add.

A series is a pair of equal-length int64 arrays (exps, coeffs): exponent
numerators sorted ascending, packed nonzero field coefficients.  Field
arithmetic runs through the log / exp / Zech tables of the owning
FieldSpec.

A product has one path for every field and every window.  Its term pairs
are formed a chunk of rows of the shorter operand at a time, about
_PAIRS pairs per chunk: an outer sum of exponents gives each pair's
slot, an outer sum of logs its lane word (the D base-p digits of its
coefficient in lanes of 64 // D bits, FieldSpec.lane_exp_np), and one
np.add.at adds the chunk's words below cap into their slots.  The lanes
are reduced mod p whenever the rows added since the last reduction could
overflow one, and the touched slots are repacked base p at the end; all
of it is exact int64.  A slot is the exponent's offset from the lowest
product exponent, or, in windows wider than _DENSE_WINDOW (high-valuation
tails are very sparse), its rank among the exponents that occur below
cap.  Both entry points take the same twelve arguments, so a caller or
tracer handles them alike; the tests check them against a schoolbook
product and merge on random inputs.
"""

import numpy as np

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


def _add_arrays(a, b, logt, expt, zecht, qm1):
    """Elementwise field addition of packed coefficient arrays."""
    out = np.where(a == 0, b, a)
    both = (a != 0) & (b != 0)
    if both.any():
        la = logt[a[both]]
        lb = logt[b[both]]
        z = zecht[(lb - la) % qm1]
        vals = np.zeros(la.shape[0], dtype=np.int64)
        good = z >= 0
        vals[good] = expt[(la[good] + z[good]) % qm1]
        out[both] = vals
    return out


def series_add_merge(e1, c1, e2, c2, logt, expt, zecht, lane_exp, qm1, p, D, cap):
    """Merge-add two canonical series, dropping exponents >= cap and zeros."""
    if len(e1) == 0:
        keep = e2 < cap
        return e2[keep].copy(), c2[keep].copy()
    if len(e2) == 0:
        keep = e1 < cap
        return e1[keep].copy(), c1[keep].copy()
    ee = np.union1d(e1, e2)
    a = np.zeros(len(ee), dtype=np.int64)
    a[np.searchsorted(ee, e1)] = c1
    b = np.zeros(len(ee), dtype=np.int64)
    b[np.searchsorted(ee, e2)] = c2
    cc = _add_arrays(a, b, logt, expt, zecht, qm1)
    keep = (cc != 0) & (ee < cap)
    return ee[keep], cc[keep]


def _reduce_lanes(words, p, D, bits, radix):
    """Each lane of words mod p, recombined with digit d weighted radix**d."""
    d = np.arange(D, dtype=np.int64)
    digits = (words[:, None] >> (bits * d)) & ((1 << bits) - 1)
    return digits % p @ radix ** d


def series_mul(e1, c1, e2, c2, logt, expt, zecht, lane_exp, qm1, p, D, cap):
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
        occ = np.unique(offsets[offsets < window])
    bits = 64 // D
    # a lane holds 2**bits - 1; each row adds at most p - 1 to it (a row's
    # slots are distinct), on top of the at most p - 1 that the last
    # reduction left
    block = ((1 << bits) - 1) // (p - 1) - 1
    assert block >= 1, "a digit lane cannot hold one row"
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
            acc[nz] = _reduce_lanes(acc[nz], p, D, bits, 1 << bits)
            since = 0
        since += k
        assert since <= block, "a digit lane could overflow"
        pos = e1[r, None] + d2
        m = pos < window
        slots = pos[m] if occ is None else np.searchsorted(occ, pos[m])
        np.add.at(acc, slots, lane_exp[(l1[r, None] + l2)[m] % qm1])
    nz = np.flatnonzero(acc)
    coeffs = _reduce_lanes(acc[nz], p, D, bits, p)
    keep = coeffs != 0
    exps = nz if occ is None else occ[nz]
    return exps[keep] + base, coeffs[keep]
