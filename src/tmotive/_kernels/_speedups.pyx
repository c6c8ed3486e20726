# cython: language_level=3, boundscheck=False, wraparound=False, cdivision=True
"""Compiled series kernels: merge-addition and truncated sparse product.

Same contracts and outputs as tmotive._kernels.pure; selected at import
by tmotive._kernels when the extension has been built.  Dense products
accumulate lane-packed digit words (one add per product term) when the
field provides a lane table.
"""

import numpy as np

cimport numpy as cnp

cnp.import_array()

DEF DENSE_WINDOW = 131072
DEF LANE_MASK = 0xFFFF


cdef inline long _modq(long x, long qm1) nogil:
    cdef long r = x % qm1
    if r < 0:
        r += qm1
    return r


cdef inline long _fadd(long a, long b, const long* logt, const long* expt,
                       const long* zecht, long qm1) nogil:
    cdef long la, lb, z
    if a == 0:
        return b
    if b == 0:
        return a
    la = logt[a]
    lb = logt[b]
    z = zecht[_modq(lb - la, qm1)]
    if z < 0:
        return 0
    return expt[_modq(la + z, qm1)]


def series_add_merge(cnp.ndarray[long, ndim=1] e1, cnp.ndarray[long, ndim=1] c1,
                     cnp.ndarray[long, ndim=1] e2, cnp.ndarray[long, ndim=1] c2,
                     cnp.ndarray[long, ndim=1] logt, cnp.ndarray[long, ndim=1] expt,
                     cnp.ndarray[long, ndim=1] zecht, object lane_exp,
                     long qm1, long p, long D, long cap):
    cdef Py_ssize_t n1 = e1.shape[0], n2 = e2.shape[0]
    cdef cnp.ndarray[long, ndim=1] oe = np.empty(n1 + n2, dtype=np.int64)
    cdef cnp.ndarray[long, ndim=1] oc = np.empty(n1 + n2, dtype=np.int64)
    cdef const long* lt = <const long*> logt.data
    cdef const long* et = <const long*> expt.data
    cdef const long* zt = <const long*> zecht.data
    cdef Py_ssize_t i = 0, j = 0, k = 0
    cdef long v
    while i < n1 or j < n2:
        if j >= n2 or (i < n1 and e1[i] < e2[j]):
            if e1[i] < cap:
                oe[k] = e1[i]
                oc[k] = c1[i]
                k += 1
            i += 1
        elif i >= n1 or e2[j] < e1[i]:
            if e2[j] < cap:
                oe[k] = e2[j]
                oc[k] = c2[j]
                k += 1
            j += 1
        else:
            v = _fadd(c1[i], c2[j], lt, et, zt, qm1)
            if v != 0 and e1[i] < cap:
                oe[k] = e1[i]
                oc[k] = v
                k += 1
            i += 1
            j += 1
    return oe[:k].copy(), oc[:k].copy()


def series_mul(cnp.ndarray[long, ndim=1] e1, cnp.ndarray[long, ndim=1] c1,
               cnp.ndarray[long, ndim=1] e2, cnp.ndarray[long, ndim=1] c2,
               cnp.ndarray[long, ndim=1] logt, cnp.ndarray[long, ndim=1] expt,
               cnp.ndarray[long, ndim=1] zecht, object lane_exp,
               long qm1, long p, long D, long cap):
    cdef Py_ssize_t n1 = e1.shape[0], n2 = e2.shape[0]
    empty = np.empty(0, dtype=np.int64)
    if n1 == 0 or n2 == 0:
        return empty, empty.copy()
    if n1 > n2:
        e1, e2 = e2, e1
        c1, c2 = c2, c1
        n1, n2 = n2, n1
    cdef long base = e1[0] + e2[0]
    cdef long window = cap - base
    if window <= 0:
        return empty, empty.copy()
    cdef const long* lt = <const long*> logt.data
    cdef const long* et = <const long*> expt.data
    cdef const long* zt = <const long*> zecht.data
    cdef Py_ssize_t i, j, k
    cdef long pos, prod, li, word, packed, mult, d
    cdef cnp.ndarray[long, ndim=1] acc, lanes
    cdef cnp.ndarray[long, ndim=1] oe, oc
    cdef const long* lx
    # a 16-bit digit lane sums at most n1 products, each digit <= p - 1
    if window <= DENSE_WINDOW and lane_exp is not None and (p - 1) * n1 <= LANE_MASK:
        lanes = lane_exp
        lx = <const long*> lanes.data
        acc = np.zeros(window, dtype=np.int64)
        for i in range(n1):
            li = lt[c1[i]]
            for j in range(n2):
                pos = e1[i] + e2[j] - base
                if pos >= window:
                    break
                acc[pos] += lx[_modq(li + lt[c2[j]], qm1)]
        # repack lanes mod p to field indices
        k = 0
        for pos in range(window):
            if acc[pos] != 0:
                word = acc[pos]
                packed = 0
                mult = 1
                for d in range(D):
                    packed += ((word >> (16 * d)) & LANE_MASK) % p * mult
                    mult *= p
                acc[pos] = packed
                if packed != 0:
                    k += 1
        oe = np.empty(k, dtype=np.int64)
        oc = np.empty(k, dtype=np.int64)
        k = 0
        for pos in range(window):
            if acc[pos] != 0:
                oe[k] = pos + base
                oc[k] = acc[pos]
                k += 1
        return oe, oc
    if window <= DENSE_WINDOW:
        acc = np.zeros(window, dtype=np.int64)
        for i in range(n1):
            li = lt[c1[i]]
            for j in range(n2):
                pos = e1[i] + e2[j] - base
                if pos >= window:
                    break
                prod = et[_modq(li + lt[c2[j]], qm1)]
                acc[pos] = _fadd(acc[pos], prod, lt, et, zt, qm1)
        k = 0
        for pos in range(window):
            if acc[pos] != 0:
                k += 1
        oe = np.empty(k, dtype=np.int64)
        oc = np.empty(k, dtype=np.int64)
        k = 0
        for pos in range(window):
            if acc[pos] != 0:
                oe[k] = pos + base
                oc[k] = acc[pos]
                k += 1
        return oe, oc
    # sparse pairwise path
    pe_l = []
    pc_l = []
    for i in range(n1):
        li = lt[c1[i]]
        for j in range(n2):
            pos = e1[i] + e2[j]
            if pos >= cap:
                break
            pe_l.append(pos)
            pc_l.append(et[_modq(li + lt[c2[j]], qm1)])
    if not pe_l:
        return empty, empty.copy()
    pe = np.asarray(pe_l, dtype=np.int64)
    pc = np.asarray(pc_l, dtype=np.int64)
    order = np.argsort(pe, kind="stable")
    pe = pe[order]
    pc = pc[order]
    cdef cnp.ndarray[long, ndim=1] pev = pe
    cdef cnp.ndarray[long, ndim=1] pcv = pc
    cdef Py_ssize_t m = pev.shape[0]
    oe = np.empty(m, dtype=np.int64)
    oc = np.empty(m, dtype=np.int64)
    cdef long cur_e = pev[0], cur_c = pcv[0]
    k = 0
    for i in range(1, m):
        if pev[i] == cur_e:
            cur_c = _fadd(cur_c, pcv[i], lt, et, zt, qm1)
        else:
            if cur_c != 0:
                oe[k] = cur_e
                oc[k] = cur_c
                k += 1
            cur_e = pev[i]
            cur_c = pcv[i]
    if cur_c != 0:
        oe[k] = cur_e
        oc[k] = cur_c
        k += 1
    return oe[:k].copy(), oc[:k].copy()
