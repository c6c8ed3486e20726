"""The series kernels against a schoolbook product and merge, bit for bit."""

import numpy as np
import pytest

from tmotive.cinf import CinfElem
from tmotive.ffield import ambient_field
from tmotive._kernels import pure


@pytest.fixture(scope="module")
def F():
    return ambient_field(3, 1, 4)


@pytest.fixture(scope="module")
def F9():
    # D = 8 > 4 digits do not fit the 16-bit lanes, so it has no lane table
    G = ambient_field(3, 2, 8)
    assert G.q == 9 and G.lane_exp_np is None
    return G


def _rand_series(rng, G, n, lo=-100, hi=1600):
    e = np.sort(rng.choice(np.arange(lo, hi), size=n, replace=False)).astype(np.int64)
    c = rng.integers(1, G.order, size=n).astype(np.int64)
    return e, c


def _args(G, cap, lanes=True):
    return (G.log_np, G.exp_np, G.zech_np, G.lane_exp_np if lanes else None,
            G.order - 1, G.p, G.D, cap)


def _canonical(acc):
    exps = sorted(e for e, c in acc.items() if c)
    return exps, [acc[e] for e in exps]


def _schoolbook_mul(G, e1, c1, e2, c2, cap):
    acc = {}
    for a, x in zip(e1.tolist(), c1.tolist()):
        for b, y in zip(e2.tolist(), c2.tolist()):
            if a + b < cap:
                acc[a + b] = G.add_packed(acc.get(a + b, 0), G.mul_packed(x, y))
    return _canonical(acc)


def _schoolbook_add(G, e1, c1, e2, c2, cap):
    acc = {}
    for e, c in zip(e1.tolist() + e2.tolist(), c1.tolist() + c2.tolist()):
        if e < cap:
            acc[e] = G.add_packed(acc.get(e, 0), c)
    return _canonical(acc)


def _check_mul(G, e1, c1, e2, c2, cap, lanes=True):
    e, c = pure.series_mul(e1, c1, e2, c2, *_args(G, cap, lanes))
    assert (e.tolist(), c.tolist()) == _schoolbook_mul(G, e1, c1, e2, c2, cap)


def _check_add(G, e1, c1, e2, c2, cap):
    e, c = pure.series_add_merge(e1, c1, e2, c2, *_args(G, cap))
    assert (e.tolist(), c.tolist()) == _schoolbook_add(G, e1, c1, e2, c2, cap)


@pytest.mark.parametrize("size", [1, 7, 60, 400])
def test_mul_matches_schoolbook(F, F9, size):
    # the lane path at q = 3, the Zech dense path at q = 3 with the lane
    # table withheld and at q = 9, which has none
    rng = np.random.default_rng(size)
    for G, lanes in ((F, True), (F, False), (F9, True)):
        for _ in range(4):
            e1, c1 = _rand_series(rng, G, size)
            e2, c2 = _rand_series(rng, G, max(1, size // 2))
            _check_mul(G, e1, c1, e2, c2, int(rng.integers(0, 1700)), lanes)


@pytest.mark.parametrize("size", [1, 9, 300])
def test_add_matches_schoolbook(F, F9, size):
    # a narrow exponent range makes the operands overlap and cancel
    rng = np.random.default_rng(size + 100)
    for G in (F, F9):
        for lo, hi in ((-100, 1600), (0, size + 20)):
            for _ in range(4):
                e1, c1 = _rand_series(rng, G, size, lo, hi)
                e2, c2 = _rand_series(rng, G, size, lo, hi)
                _check_add(G, e1, c1, e2, c2, int(rng.integers(lo, hi + 100)))


def test_cap_at_or_below_base(F, F9):
    rng = np.random.default_rng(3)
    for G in (F, F9):
        e1, c1 = _rand_series(rng, G, 20)
        e2, c2 = _rand_series(rng, G, 10)
        base = int(e1[0]) + int(e2[0])
        for cap in (base - 7, base, base + 1):
            _check_mul(G, e1, c1, e2, c2, cap)
        for cap in (min(int(e1[0]), int(e2[0])) - 1, int(e1[0]), int(e2[0])):
            _check_add(G, e1, c1, e2, c2, cap)
        empty = np.empty(0, dtype=np.int64)
        _check_mul(G, empty, empty, e2, c2, 1700)
        _check_add(G, empty, empty, e2, c2, int(e2[5]))
        _check_add(G, e1, c1, empty, empty, int(e1[5]))


def test_lane_and_zech_paths_agree(F):
    # the dense lane accumulation and the generic Zech path must coincide
    rng = np.random.default_rng(7)
    e1, c1 = _rand_series(rng, F, 50)
    e2, c2 = _rand_series(rng, F, 50)
    cap = 1700
    with_lanes = pure.series_mul(e1, c1, e2, c2, *_args(F, cap))
    no_lanes = pure.series_mul(e1, c1, e2, c2, *_args(F, cap, lanes=False))
    assert np.array_equal(with_lanes[0], no_lanes[0])
    assert np.array_equal(with_lanes[1], no_lanes[1])


def test_lane_guard_depends_on_p():
    # at p = 7 a 16-bit digit lane overflows past 0xFFFF / 6 = 10922
    # overlapping terms; with every product's digits at p - 1, the middle
    # of two 12,000-term series sums 12,000 of them
    F7 = ambient_field(7, 1, 4)
    n = 12000
    e = np.arange(n, dtype=np.int64)
    x = CinfElem(F7, 1, 3 * n, e, np.ones(n, dtype=np.int64))
    y = CinfElem(F7, 1, 3 * n, e, np.full(n, F7.order - 1, dtype=np.int64))
    prod = x * y

    def kernel(lanes):
        return pure.series_mul(x.exps, x.coeffs, y.exps, y.coeffs,
                               *_args(F7, 3 * n, lanes))

    no_lanes = kernel(False)
    # the library product, and a direct kernel call offered the lane table
    for exps, coeffs in ((prod.exps, prod.coeffs), kernel(True)):
        assert np.array_equal(exps, no_lanes[0])
        assert np.array_equal(coeffs, no_lanes[1])


def test_sparse_tail_path(F, F9):
    # windows beyond the dense cap take the pairwise route; exponents on a
    # coarse grid make many products land on one exponent and cancel
    assert 3 * 10 ** 6 > pure._DENSE_WINDOW
    e1 = np.asarray([0, 10 ** 6], dtype=np.int64)
    c1 = np.asarray([1, 2], dtype=np.int64)
    a = pure.series_mul(e1, c1, e1, c1, *_args(F, 3 * 10 ** 6))
    assert list(a[0]) == [0, 10 ** 6, 2 * 10 ** 6]
    rng = np.random.default_rng(5)
    for G in (F, F9):
        for _ in range(4):
            e1, c1 = _rand_series(rng, G, 30, 0, 60)
            e2, c2 = _rand_series(rng, G, 30, 0, 60)
            cap = int(rng.integers(60, 120)) * 10 ** 5
            _check_mul(G, e1 * 10 ** 5, c1, e2 * 10 ** 5, c2, cap)
