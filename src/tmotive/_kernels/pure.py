"""Pure-numpy series kernels: sparse product and merge-add.

A series is a pair of equal-length int64 arrays (exps, coeffs): exponent
numerators sorted ascending, packed nonzero field coefficients.  Field
arithmetic runs through the log / exp / Zech tables of the owning
FieldSpec.

Dense products accumulate lane-packed digit words (one integer add per
product term) when the field provides a lane table (D <= 4), falling
back to Zech addition otherwise.  Both entry points take the same
twelve arguments, so a caller or tracer handles them alike; the tests
check them against a schoolbook product and merge on random inputs.
"""

import numpy as np

_EMPTY = np.empty(0, dtype=np.int64)

# dense accumulation window cap; above this the pairwise path is used
# (high-valuation tails are very sparse)
_DENSE_WINDOW = 1 << 17
_LANE_MASK = (1 << 16) - 1


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


def _repack_lanes(acc, base, p, D):
    """Reduce 16-bit digit lanes mod p and repack to field indices."""
    packed = np.zeros(len(acc), dtype=np.int64)
    mult = 1
    for d in range(D):
        packed += ((acc >> (16 * d)) & _LANE_MASK) % p * mult
        mult *= p
    nz = np.nonzero(packed)[0]
    return nz + base, packed[nz]


def series_mul(e1, c1, e2, c2, logt, expt, zecht, lane_exp, qm1, p, D, cap):
    """Full sparse product truncated at cap."""
    if len(e1) == 0 or len(e2) == 0:
        return _EMPTY.copy(), _EMPTY.copy()
    if len(e1) > len(e2):
        e1, c1, e2, c2 = e2, c2, e1, c1
    base = int(e1[0]) + int(e2[0])
    window = int(cap) - base
    if window <= 0:
        return _EMPTY.copy(), _EMPTY.copy()
    l1 = logt[c1]
    l2 = logt[c2]
    # a 16-bit digit lane sums at most len(e1) products, each digit <= p - 1
    if window <= _DENSE_WINDOW and lane_exp is not None and (p - 1) * len(e1) <= _LANE_MASK:
        acc = np.zeros(window, dtype=np.int64)
        for i in range(len(e1)):
            pos = e2 + (int(e1[i]) - base)
            m = pos < window
            if not m.any():
                continue
            acc[pos[m]] += lane_exp[(l1[i] + l2[m]) % qm1]
        return _repack_lanes(acc, base, p, D)
    if window <= _DENSE_WINDOW:
        acc = np.zeros(window, dtype=np.int64)
        for i in range(len(e1)):
            pos = e2 + (int(e1[i]) - base)
            m = pos < window
            if not m.any():
                continue
            prod = expt[(l1[i] + l2[m]) % qm1]
            sel = pos[m]
            acc[sel] = _add_arrays(acc[sel], prod, logt, expt, zecht, qm1)
        nz = np.nonzero(acc)[0]
        return nz + base, acc[nz]
    # sparse pairwise path: collect, sort, reduce equal exponents
    pe = (e1[:, None] + e2[None, :]).ravel()
    pc = expt[(l1[:, None] + l2[None, :]).ravel() % qm1]
    m = pe < cap
    pe, pc = pe[m], pc[m]
    if len(pe) == 0:
        return _EMPTY.copy(), _EMPTY.copy()
    order = np.argsort(pe, kind="stable")
    pe, pc = pe[order], pc[order]
    out_e = []
    out_c = []
    cur_e = int(pe[0])
    cur_c = int(pc[0])
    for k in range(1, len(pe)):
        if int(pe[k]) == cur_e:
            cur_c = _scalar_add(cur_c, int(pc[k]), logt, expt, zecht, qm1)
        else:
            if cur_c:
                out_e.append(cur_e)
                out_c.append(cur_c)
            cur_e, cur_c = int(pe[k]), int(pc[k])
    if cur_c:
        out_e.append(cur_e)
        out_c.append(cur_c)
    return np.asarray(out_e, dtype=np.int64), np.asarray(out_c, dtype=np.int64)


def _scalar_add(a, b, logt, expt, zecht, qm1):
    if a == 0:
        return b
    if b == 0:
        return a
    z = zecht[(logt[b] - logt[a]) % qm1]
    if z < 0:
        return 0
    return int(expt[(logt[a] + z) % qm1])
