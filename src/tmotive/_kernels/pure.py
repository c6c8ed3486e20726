"""Pure-numpy series kernels: sums of sparse products, merge-add and term sums.

A series is a pair of equal-length int64 arrays (exps, coeffs): exponent
numerators sorted ascending, packed nonzero field coefficients.  Every
field sum adds lane words (FieldSpec.lane_np: an element's D base-p
digits in lanes of 64 // D bits) as integers, reduces each lane mod p
whenever the words added since the last reduction could overflow one,
and repacks the lanes base p at the end; all of it is exact int64.

Every product runs through one accumulation loop, series_dot, which sums
any number of products and addends below cap in one window: series_mul
is its one-pair call, except that a one-term factor c t^e only shifts
the other's exponents by e and scales its coefficients by c.  Each
product's term pairs are formed a chunk of rows of its shorter operand
at a time, about _PAIRS pairs per chunk, each chunk only over the
columns its first row lands below cap in: an outer sum of exponents
gives each pair's slot, an outer sum of logs its lane word
(FieldSpec.lane_exp_np, which runs twice over the Q - 1 logs, so a sum
of two needs no modulo), and one np.add.at adds the chunk's words below
cap into their slots.  An addend adds its lane words the same way, as
one row.  A pair or addend whose least term lands at or past cap is
dropped before any array is formed for it.  The rows added since the
last lane reduction are counted across all the pairs and addends of a
call, and the lanes are repacked once, at the end.  A slot is the
exponent's offset from the lowest exponent of the call, or, in windows
wider than _DENSE_WINDOW (high-valuation tails are very sparse), its
rank among the exponents that occur below cap.  The merge-add, like CinfElem's constructor, sums
equal exponents with sum_terms.  series_mul and the merge-add take the
same twelve arguments, so a caller or tracer handles them alike; the
tests check every kernel against a schoolbook product and merge.
"""

import numpy as np

from ..ffield import lane_digits

_EMPTY = np.empty(0, dtype=np.int64)

# widest window accumulated by offset; wider ones get a slot per
# exponent that occurs
_DENSE_WINDOW = 1 << 17

# term pairs formed at once: a chunk is _PAIRS // cols rows, cols the
# columns its first row keeps (at least one row, at most a lane block),
# so its temporaries stay near a few times 8 * _PAIRS bytes
_PAIRS = 1 << 15

# exponent numerators lie strictly inside +-_EXP_BOUND, so each operand
# spans less than 2 * _EXP_BOUND and a position's offset from the lowest
# exponent of a call, at most the sum of two spans, fits int64
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
    """Full sparse product truncated at cap: the one-pair series_dot, except
    that a one-term factor c t^e shifts the other's exponents by e and
    scales its coefficients by c (products of nonzero elements are nonzero
    and the shifted exponents stay distinct), with no accumulator."""
    if len(e2) == 1:
        e1, c1, e2, c2 = e2, c2, e1, c1
    if len(e1) != 1 or not len(e2):
        return series_dot(((e1, c1, e2, c2),), (), logt, lane, lane_exp, qm1, p, D, cap)
    for e in (e1, e2):
        assert -_EXP_BOUND < e[0] and e[-1] < _EXP_BOUND, "exponent outside int64 headroom"
    _lane_block(p, D)
    cut = np.searchsorted(e2, int(cap) - int(e1[0]))
    return e2[:cut] + e1[0], expt[(logt[c2[:cut]] + logt[c1[0]]) % qm1]


def _chunks(pairs, adds, base, logt, lane, lane_exp, window, block):
    """(rows, offsets below window, their lane words) for each addend and
    each chunk of rows of each pair (e1 the shorter operand), whose offsets
    from base are sums of exponents and whose words are lane_exp at sums
    of logs, which the table covers with no modulo.  A chunk takes only
    the columns its first row lands below window in: e1 is sorted, so its
    later rows need no others."""
    for e, c in adds:
        d = e - base
        m = d < window
        yield 1, d[m], lane[c[m]]
    for e1, c1, e2, c2 in pairs:
        d2, l1, l2 = e2 - base, logt[c1], logt[c2]
        i = 0
        while i < len(e1):
            lim = window - int(e1[i])
            cols = len(d2) if lim > int(d2[-1]) else int(np.searchsorted(d2, lim))
            if cols == 0:
                break  # no later row lands below window either
            rows = max(1, min(block, _PAIRS // cols))
            r = slice(i, i + rows)
            pos = e1[r, None] + d2[:cols]
            m = pos < window
            pos, words = pos[m], lane_exp[(l1[r, None] + l2[:cols])[m]]
            yield len(e1[r]), pos, words
            del pos, words  # freed before the next chunk forms its own
            i += rows


def series_dot(pairs, adds, logt, lane, lane_exp, qm1, p, D, cap):
    """Sum of the products (e1, c1) * (e2, c2) over pairs and of the series
    (e, c) in adds, truncated at cap: every term goes into one accumulator,
    whose lanes are repacked once.  lane_exp must run over every sum of
    two logs, at least 2 qm1 - 1 words.  A pair or addend that is
    term-free, or whose least term lands at or past cap, forms nothing."""
    assert len(lane_exp) >= 2 * qm1 - 1, "lane_exp does not cover a sum of two logs"
    pairs = [(e1, c1, e2, c2) if len(e1) <= len(e2) else (e2, c2, e1, c1)
             for e1, c1, e2, c2 in pairs if len(e1) and len(e2)]
    adds = [(e, c) for e, c in adds if len(e)]
    for e in [x for e1, _, e2, _ in pairs for x in (e1, e2)] + [e for e, _ in adds]:
        assert -_EXP_BOUND < e[0] and e[-1] < _EXP_BOUND, "exponent outside int64 headroom"
    # a row's slots are distinct, and so are an addend's, so each adds one
    # word to a lane; the rows since the last reduction count across the call
    block = _lane_block(p, D)
    pairs = [(e1, c1, e2, c2) for e1, c1, e2, c2 in pairs if int(e1[0]) + int(e2[0]) < cap]
    adds = [(e, c) for e, c in adds if int(e[0]) < cap]
    if not pairs and not adds:
        return _EMPTY.copy(), _EMPTY.copy()
    base = min([int(e1[0]) + int(e2[0]) for e1, _, e2, _ in pairs] + [int(e[0]) for e, _ in adds])
    window = int(cap) - base
    chunks = _chunks(pairs, adds, base, logt, lane, lane_exp, window, block)
    occ = None  # a wide window's offsets that occur; a slot is a rank in it
    if window > _DENSE_WINDOW:
        chunks = list(chunks)
        occ = distinct(np.concatenate([pos for _, pos, _ in chunks]))
    acc = np.zeros(window if occ is None else len(occ), dtype=np.int64)
    since = 0  # rows added since the last lane reduction
    for k, pos, words in chunks:
        if since + k > block:
            nz = np.flatnonzero(acc)
            acc[nz] = _reduce_lanes(acc[nz], p, D, 1 << 64 // D)
            since = 0
        since += k
        assert since <= block, "a digit lane could overflow"
        np.add.at(acc, pos if occ is None else np.searchsorted(occ, pos), words)
        del pos, words  # freed before the next chunk forms its own
    nz = np.flatnonzero(acc)
    coeffs = _reduce_lanes(acc[nz], p, D, p)
    keep = coeffs != 0
    exps = nz if occ is None else occ[nz]
    return exps[keep] + base, coeffs[keep]
