"""Backend equivalence: the compiled kernels must match the pure ones bitwise."""

import numpy as np
import pytest

from tmotive.cinf import CinfElem
from tmotive.ffield import ambient_field
from tmotive._kernels import BACKEND, pure

try:
    from tmotive._kernels import _speedups
except ImportError:
    _speedups = None

needs_compiled = pytest.mark.skipif(_speedups is None, reason="extension not built")


@pytest.fixture(scope="module")
def F():
    return ambient_field(3, 1, 4)


def _rand_series(rng, n, lo=-100, hi=1600):
    e = np.sort(rng.choice(np.arange(lo, hi), size=n, replace=False)).astype(np.int64)
    c = rng.integers(1, 81, size=n).astype(np.int64)
    return e, c


def _args(F, cap):
    return (F.log_np, F.exp_np, F.zech_np, F.lane_exp_np, F.order - 1, F.p, F.D, cap)


@needs_compiled
@pytest.mark.parametrize("size", [1, 7, 60, 400])
def test_mul_backends_agree(F, size):
    rng = np.random.default_rng(size)
    for _ in range(8):
        e1, c1 = _rand_series(rng, size)
        e2, c2 = _rand_series(rng, max(1, size // 2))
        cap = int(rng.integers(0, 1700))
        a = pure.series_mul(e1, c1, e2, c2, *_args(F, cap))
        b = _speedups.series_mul(e1, c1, e2, c2, *_args(F, cap))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


@needs_compiled
@pytest.mark.parametrize("size", [1, 9, 300])
def test_add_backends_agree(F, size):
    rng = np.random.default_rng(size + 100)
    for _ in range(8):
        e1, c1 = _rand_series(rng, size)
        e2, c2 = _rand_series(rng, size)
        cap = int(rng.integers(0, 1700))
        a = pure.series_add_merge(e1, c1, e2, c2, *_args(F, cap))
        b = _speedups.series_add_merge(e1, c1, e2, c2, *_args(F, cap))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_lane_and_zech_paths_agree(F):
    # the dense lane accumulation and the generic Zech path must coincide
    rng = np.random.default_rng(7)
    e1, c1 = _rand_series(rng, 50)
    e2, c2 = _rand_series(rng, 50)
    cap = 1700
    with_lanes = pure.series_mul(e1, c1, e2, c2, *_args(F, cap))
    no_lanes = pure.series_mul(e1, c1, e2, c2, F.log_np, F.exp_np, F.zech_np,
                               None, F.order - 1, F.p, F.D, cap)
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
        return pure.series_mul(x.exps, x.coeffs, y.exps, y.coeffs, F7.log_np,
                               F7.exp_np, F7.zech_np, lanes, F7.order - 1,
                               F7.p, F7.D, 3 * n)

    no_lanes = kernel(None)
    # the library product, and a direct kernel call offered the lane table
    for exps, coeffs in ((prod.exps, prod.coeffs), kernel(F7.lane_exp_np)):
        assert np.array_equal(exps, no_lanes[0])
        assert np.array_equal(coeffs, no_lanes[1])


def test_sparse_tail_path(F):
    # windows beyond the dense cap exercise the pairwise route
    e1 = np.asarray([0, 10 ** 6], dtype=np.int64)
    c1 = np.asarray([1, 2], dtype=np.int64)
    a = pure.series_mul(e1, c1, e1, c1, *_args(F, 3 * 10 ** 6))
    assert list(a[0]) == [0, 10 ** 6, 2 * 10 ** 6]
    if _speedups is not None:
        b = _speedups.series_mul(e1, c1, e1, c1, *_args(F, 3 * 10 ** 6))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_backend_reported():
    assert BACKEND in ("pure", "compiled")
