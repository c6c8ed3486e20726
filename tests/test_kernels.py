"""The series kernels against a schoolbook product and merge, bit for bit.

The schoolbook adds field elements digit by digit, from their digit
lists (FFElem.coeffs, FieldSpec.from_coeffs), so it shares no lane
arithmetic with the kernels or with FieldSpec.add_packed, which it also
checks.
"""

from functools import lru_cache

import numpy as np
import pytest

from tmotive import ffield
from tmotive.cinf import CinfElem
from tmotive.ffield import ambient_field, lane_digits
from tmotive._kernels import pure


@pytest.fixture(scope="module")
def F():
    return ambient_field(3, 1, 4)


@pytest.fixture(scope="module")
def F5():
    return ambient_field(5, 1, 4)


@pytest.fixture(scope="module")
def F7():
    return ambient_field(7, 1, 4)


@pytest.fixture(scope="module")
def F9():
    # D = 8 digits, so 8-bit lanes
    G = ambient_field(3, 2, 8)
    assert G.q == 9
    return G


def _rand_series(rng, G, n, lo=-100, hi=1600):
    e = np.sort(rng.choice(np.arange(lo, hi), size=n, replace=False)).astype(np.int64)
    c = rng.integers(1, G.order, size=n).astype(np.int64)
    return e, c


def _args(G, cap):
    return G.log_np, G.exp_np, G.lane_np, G.lane_exp_np, G.order - 1, G.p, G.D, cap


@lru_cache(maxsize=None)
def _digit_lists(G):
    return [G.el(x).coeffs() for x in range(G.order)]


def _schoolbook_sum(G, terms, cap):
    """Canonical sum of (exponent, packed coefficient) terms below cap:
    the digit lists of each exponent's coefficients added as integers,
    then reduced mod p by from_coeffs."""
    digits = _digit_lists(G)
    acc = {}
    for e, c in terms:
        if e < cap:
            acc[e] = [u + v for u, v in zip(acc.get(e, [0] * G.D), digits[c])]
    packed = {e: G.from_coeffs(d).idx for e, d in acc.items()}
    exps = sorted(e for e, c in packed.items() if c)
    return exps, [packed[e] for e in exps]


def _schoolbook_mul(G, e1, c1, e2, c2, cap):
    return _schoolbook_sum(G, ((a + b, G.mul_packed(x, y))
                               for a, x in zip(e1.tolist(), c1.tolist())
                               for b, y in zip(e2.tolist(), c2.tolist())), cap)


def _schoolbook_add(G, e1, c1, e2, c2, cap):
    return _schoolbook_sum(G, zip(e1.tolist() + e2.tolist(), c1.tolist() + c2.tolist()), cap)


def _check_mul(G, e1, c1, e2, c2, cap):
    e, c = pure.series_mul(e1, c1, e2, c2, *_args(G, cap))
    assert (e.tolist(), c.tolist()) == _schoolbook_mul(G, e1, c1, e2, c2, cap)


def _check_add(G, e1, c1, e2, c2, cap):
    e, c = pure.series_add_merge(e1, c1, e2, c2, *_args(G, cap))
    assert (e.tolist(), c.tolist()) == _schoolbook_add(G, e1, c1, e2, c2, cap)


def _check_random_muls(fields, size, seed):
    rng = np.random.default_rng(seed)
    for G in fields:
        for _ in range(4):
            e1, c1 = _rand_series(rng, G, size)
            e2, c2 = _rand_series(rng, G, max(1, size // 2))
            _check_mul(G, e1, c1, e2, c2, int(rng.integers(0, 1700)))


@pytest.mark.parametrize("size", [1, 7, 60, 400])
def test_mul_matches_schoolbook(F, F5, F7, F9, size):
    # 16-bit lanes at p = 3, 5 and 7 (D = 4), 8-bit lanes at q = 9
    _check_random_muls((F, F5, F7, F9), size, size)


@pytest.mark.parametrize("pairs", [1, 1 << 30], ids=["one_row", "block_bound"])
def test_mul_at_chunk_extremes(F, F5, F7, F9, monkeypatch, pairs):
    # one row per chunk, and chunks bounded only by the lane block
    monkeypatch.setattr(pure, "_PAIRS", pairs)
    for size in (7, 400):
        _check_random_muls((F, F5, F7, F9), size, size + pairs)


@pytest.mark.parametrize("size", [1, 9, 300])
def test_add_matches_schoolbook(F, F5, F7, F9, size):
    # a narrow exponent range makes the operands overlap and cancel
    rng = np.random.default_rng(size + 100)
    for G in (F, F5, F7, F9):
        for lo, hi in ((-100, 1600), (0, size + 20)):
            for _ in range(4):
                e1, c1 = _rand_series(rng, G, size, lo, hi)
                e2, c2 = _rand_series(rng, G, size, lo, hi)
                _check_add(G, e1, c1, e2, c2, int(rng.integers(lo, hi + 100)))


def _digit_add(G, a, b):
    return G.from_coeffs([u + v for u, v in zip(G.el(a).coeffs(), G.el(b).coeffs())]).idx


def test_add_packed_matches_digit_oracle(F, F5, F7, F9):
    # every pair at q = 3, zeros and x + (-x) among them
    assert [F.add_packed(a, b) for a in range(F.order) for b in range(F.order)] == [
        _digit_add(F, a, b) for a in range(F.order) for b in range(F.order)]
    rng = np.random.default_rng(11)
    for G in (F5, F7, F9):
        pairs = rng.integers(0, G.order, size=(2000, 2)).tolist()
        pairs += [[a, G.neg_packed(a)] for a, _ in pairs[:100]]
        assert [G.add_packed(a, b) for a, b in pairs] == [_digit_add(G, a, b) for a, b in pairs]


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


def test_one_term_factor_shifts_and_scales(F, F5, F7, F9, monkeypatch):
    # a one-term factor on either side, negative exponents on both, caps
    # past the product, mid-series, at and below its first exponent: the
    # other operand only shifts and scales, with no accumulation
    def no_dot(*args):
        raise AssertionError("a one-term product reached the accumulator")

    rng = np.random.default_rng(23)
    empty = np.empty(0, dtype=np.int64)
    for G in (F, F5, F7, F9):
        for size in (1, 40):
            e1 = np.asarray([rng.integers(-300, 300)], dtype=np.int64)
            c1 = rng.integers(1, G.order, size=1).astype(np.int64)
            e2, c2 = _rand_series(rng, G, size)
            first, last = int(e1[0] + e2[0]), int(e1[0] + e2[-1])
            mid = int(e1[0] + e2[size // 2])
            with monkeypatch.context() as m:
                m.setattr(pure, "series_dot", no_dot)
                for cap in (first - 5, first, first + 1, mid, last, last + 1, 1 << 40):
                    _check_mul(G, e1, c1, e2, c2, cap)
                    _check_mul(G, e2, c2, e1, c1, cap)
        # a term-free other operand
        _check_mul(G, e1, c1, empty, empty, 1700)
        _check_mul(G, empty, empty, e1, c1, 1700)


def _run_product_closed_form(G, n1, n2, step):
    # sum_{i<n1} t^(step i) times sum_{i<n2} c t^(step i) for c = G.order - 1,
    # whose D digits are all p - 1: t^(step s) collects
    # k = min(s, n1 - 1, n2 - 1, n1 + n2 - 2 - s) + 1 copies of c, so each
    # of its digits is -k mod p
    s = np.arange(n1 + n2 - 1)
    k = np.minimum(np.minimum(s, n1 + n2 - 2 - s), min(n1, n2) - 1) + 1
    coeffs = (-k % G.p) * ((G.order - 1) // (G.p - 1))
    keep = coeffs != 0
    return (s[keep] * step).tolist(), coeffs[keep].tolist()


def _run_product(G, n1, n2, step):
    e1 = np.arange(n1, dtype=np.int64) * step
    e2 = np.arange(n2, dtype=np.int64) * step
    full = np.full(n2, G.order - 1, dtype=np.int64)
    got = pure.series_mul(e1, np.ones(n1, dtype=np.int64), e2, full,
                          *_args(G, (n1 + n2) * step))
    return got[0].tolist(), got[1].tolist()


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
    assert (prod.exps.tolist(), prod.coeffs.tolist()) == _run_product_closed_form(F7, n, n, 1)


@pytest.mark.parametrize("step", [1, 10 ** 4])
def test_lane_blocks_at_q9(F9, step):
    # 8-bit lanes hold 255, so at p = 3 a block is 255 // 2 - 1 = 126 rows:
    # the middle slot of two 300-term runs sums 300 digits of value 2, more
    # than two blocks' worth; step 10^4 puts the product in a sparse window.
    # A chunk is _PAIRS // 300 = 109 rows, so its edges fall off the block's
    assert pure._PAIRS // 300 == 109
    assert _run_product(F9, 300, 300, step) == _run_product_closed_form(F9, 300, 300, step)


@pytest.mark.parametrize("step", [1, 10 ** 4])
@pytest.mark.parametrize("n1, n2, rows", [(250, 200, 126), (60, 300, 60)])
def test_unequal_runs_at_q9(F9, n1, n2, rows, step):
    # a chunk is _PAIRS // (longer length) rows of the shorter operand,
    # capped at the 126-row lane block: 200 rows of a swapped pair go in
    # block-bound chunks of 126, and 60 rows of an unswapped one in one chunk
    assert min(126, pure._PAIRS // max(n1, n2), min(n1, n2)) == rows
    assert _run_product(F9, n1, n2, step) == _run_product_closed_form(F9, n1, n2, step)


def test_sparse_tail_path(F, F5, F7, F9):
    # windows beyond the dense cap give a slot to each exponent that occurs;
    # exponents on a coarse grid make many products land on one and cancel
    assert 3 * 10 ** 6 > pure._DENSE_WINDOW
    e1 = np.asarray([0, 10 ** 6], dtype=np.int64)
    c1 = np.asarray([1, 2], dtype=np.int64)
    a = pure.series_mul(e1, c1, e1, c1, *_args(F, 3 * 10 ** 6))
    assert list(a[0]) == [0, 10 ** 6, 2 * 10 ** 6]
    rng = np.random.default_rng(5)
    for G in (F, F5, F7, F9):
        for _ in range(4):
            e1, c1 = _rand_series(rng, G, 30, 0, 60)
            e2, c2 = _rand_series(rng, G, 30, 0, 60)
            cap = int(rng.integers(60, 120)) * 10 ** 5
            _check_mul(G, e1 * 10 ** 5, c1, e2 * 10 ** 5, c2, cap)


def test_kernel_asserts_its_bounds(F):
    # a position is the sum of two operand spans, each under 2**62
    one = np.ones(1, dtype=np.int64)
    for far in (-(1 << 61), 1 << 61):
        e = np.asarray([far], dtype=np.int64)
        with pytest.raises(AssertionError, match="headroom"):
            pure.series_mul(e, one, np.zeros(1, dtype=np.int64), one, *_args(F, 1 << 62))
    # 8-bit lanes cannot take one row of digits up to p - 1 = 255
    with pytest.raises(AssertionError, match="lane"):
        pure.series_mul(np.zeros(1, dtype=np.int64), one, np.zeros(1, dtype=np.int64), one,
                        F.log_np, F.exp_np, F.lane_np, F.lane_exp_np, F.order - 1, 257, 8, 10)
    # the fused kernel checks every operand of every pair, and every addend
    zero = np.zeros(1, dtype=np.int64)
    tables = (F.log_np, F.lane_np, F.lane_exp_np, F.order - 1)
    for far in (-(1 << 61), 1 << 61):
        e = np.asarray([far], dtype=np.int64)
        for pairs, adds in (([(zero, one, zero, one), (zero, one, e, one)], []),
                            ([(zero, one, zero, one)], [(zero, one), (e, one)])):
            with pytest.raises(AssertionError, match="headroom"):
                pure.series_dot(pairs, adds, *tables, F.p, F.D, 1 << 62)
    with pytest.raises(AssertionError, match="lane"):
        pure.series_dot([], [(zero, one)], *tables, 257, 8, 10)


def test_dot_table_covers_every_sum_of_two_logs(F, F5, F7, F9):
    # the kernel indexes lane_exp by a sum of two logs with no modulo: the
    # largest sum, 2 (Q - 2), reads the table's last word, and a table one
    # word shorter than 2 (Q - 1) - 1 is refused
    zero = np.zeros(1, dtype=np.int64)
    for G in (F, F5, F7, F9):
        qm1 = G.order - 1
        top = G.exp_np[qm1 - 1:]  # the element of largest log
        _check_dot(G, [(zero, top, zero, top)], [], 10)
        short = G.lane_exp_np[:2 * qm1 - 2]
        with pytest.raises(AssertionError, match="two logs"):
            pure.series_dot([(zero, top, zero, top)], [], G.log_np, G.lane_np, short,
                            qm1, G.p, G.D, 10)


def test_lane_constants_are_built_once(F, F5, F7, F9):
    # lane_digits and _reduce_lanes read cached shifts and weights: the
    # same results as building b * arange(D) and radix ** arange(D) on
    # every call, on words of summed lanes in one and two dimensions; the
    # shared arrays refuse writes
    rng = np.random.default_rng(31)
    for G in (F, F5, F7, F9):
        bits = 64 // G.D
        words = G.lane_np[rng.integers(0, G.order, size=(3, 4, 50))].sum(axis=0)
        want = (words[..., None] >> (bits * np.arange(G.D))) & ((1 << bits) - 1)
        assert np.array_equal(lane_digits(words, G.D), want)
        for radix in (G.p, 1 << bits):
            flat = words.ravel()
            assert np.array_equal(pure._reduce_lanes(flat, G.p, G.D, radix),
                                  (want.reshape(-1, G.D) % G.p) @ radix ** np.arange(G.D))
            assert pure._radix_powers(radix, G.D) is pure._radix_powers(radix, G.D)
        assert ffield._lane_shifts(G.D) is ffield._lane_shifts(G.D)
        for const in (ffield._lane_shifts(G.D), pure._radix_powers(G.p, G.D)):
            with pytest.raises(ValueError, match="read-only"):
                const[0] = 1


def _schoolbook_dot(G, pairs, adds, cap):
    return _schoolbook_sum(G, [(a + b, G.mul_packed(x, y))
                               for e1, c1, e2, c2 in pairs
                               for a, x in zip(e1.tolist(), c1.tolist())
                               for b, y in zip(e2.tolist(), c2.tolist())]
                           + [t for e, c in adds for t in zip(e.tolist(), c.tolist())], cap)


def _check_dot(G, pairs, adds, cap):
    e, c = pure.series_dot(pairs, adds, G.log_np, G.lane_np, G.lane_exp_np,
                           G.order - 1, G.p, G.D, cap)
    assert (e.tolist(), c.tolist()) == _schoolbook_dot(G, pairs, adds, cap)


_NONE = np.empty(0, dtype=np.int64)


def test_dot_matches_schoolbook(F, F5, F7, F9):
    # random pairs and addends, term-free operands among them, and caps
    # that cut some pairs in the middle and leave others wholly past
    rng = np.random.default_rng(21)
    for G in (F, F5, F7, F9):
        for _ in range(6):
            pairs = [_rand_series(rng, G, int(rng.integers(1, 40)))
                     + _rand_series(rng, G, int(rng.integers(1, 90))) for _ in range(3)]
            adds = [_rand_series(rng, G, int(rng.integers(1, 60)), -200, 2000) for _ in range(2)]
            pairs.append((_NONE, _NONE) + pairs[0][2:])
            pairs.append(pairs[1][:2] + (_NONE, _NONE))
            adds.append((_NONE, _NONE))
            for cap in (int(rng.integers(0, 1700)), 4000):
                _check_dot(G, pairs, adds, cap)
            _check_dot(G, pairs[:1], [], 1200)
            _check_dot(G, [], adds, 1500)
            _check_dot(G, [pairs[3]], [adds[2]], 1500)


def test_dot_pair_wholly_past_cap(F, F9):
    rng = np.random.default_rng(22)
    for G in (F, F9):
        e1, c1 = _rand_series(rng, G, 20, 0, 100)
        e2, c2 = _rand_series(rng, G, 30, 0, 100)
        far = (e1 + 5000, c1, e2 + 5000, c2)
        for cap in (150, int(e1[0] + e2[0]) + 1, 10000, 10001 + int(e1[0] + e2[0])):
            _check_dot(G, [(e1, c1, e2, c2), far], [], cap)
            _check_dot(G, [far], [(e2, c2)], cap)


def test_dot_forms_nothing_for_a_pair_past_cap(F, F9, monkeypatch):
    # a pair or addend whose least term lands at or past cap never reaches
    # _chunks, so no array is formed for it, and the sum is unchanged
    rng = np.random.default_rng(25)
    for G in (F, F9):
        e1, c1 = _rand_series(rng, G, 20, 0, 100)
        e2, c2 = _rand_series(rng, G, 30, 0, 100)
        near = (e1, c1, e2, c2)
        far = (e1 + 5000, c1, e2 + 5000, c2)
        cap = int(far[0][0] + far[2][0])
        seen = []

        def spy(pairs, adds, *rest, real=pure._chunks):
            seen.append(([x[0][0] for x in pairs], [e[0] for e, _ in adds]))
            return real(pairs, adds, *rest)

        monkeypatch.setattr(pure, "_chunks", spy)
        _check_dot(G, [near, far], [(e1, c1), (e2 + cap, c2)], cap)
        _check_dot(G, [far], [(e2 + cap, c2)], cap)
        monkeypatch.undo()
        assert seen == [([int(e1[0])], [int(e1[0])])]


def test_dot_cap_at_or_below_base(F, F9):
    rng = np.random.default_rng(23)
    for G in (F, F9):
        e1, c1 = _rand_series(rng, G, 20)
        e2, c2 = _rand_series(rng, G, 10)
        x, cx = _rand_series(rng, G, 15)
        base = min(int(e1[0]) + int(e2[0]), int(x[0]))
        for cap in (base - 7, base, base + 1):
            _check_dot(G, [(e1, c1, e2, c2)], [(x, cx)], cap)
        _check_dot(G, [], [], 100)


@pytest.mark.parametrize("step", [1, 10 ** 4])
def test_dot_lane_block_counts_across_pairs(F9, step):
    # at q = 9 a lane block is 126 rows: two 100-row pairs that pile the
    # digits p - 1 onto the same slots need a lane reduction between the
    # pairs, which only a count across pairs makes; step 10^4 puts the sum
    # in a sparse window
    assert pure._lane_block(F9.p, F9.D) == 126
    e = np.arange(100, dtype=np.int64) * step
    one = np.ones(100, dtype=np.int64)
    full = np.full(100, F9.order - 1, dtype=np.int64)
    cap = 200 * step
    pairs = [(e, one, e, full), (e, full, e, one)]
    for adds in ([], [(e + 50 * step, full)]):
        _check_dot(F9, pairs, adds, cap)
    # an addend is one row too: 130 of them on the same slots pass a block
    _check_dot(F9, pairs[:1], [(e, full)] * 130, cap)
    _check_dot(F9, [], [(e, full)] * 130, cap)
    e1, c1 = _run_product(F9, 100, 100, step)
    e, c = pure.series_dot(pairs, [], F9.log_np, F9.lane_np, F9.lane_exp_np,
                           F9.order - 1, F9.p, F9.D, cap)
    # both pairs are the same product, so the sum doubles each coefficient
    assert e.tolist() == e1 and c.tolist() == [F9.add_packed(x, x) for x in c1]


def test_dot_wide_window(F, F5, F7, F9):
    # a fused window wider than the dense cap: a pair near 0, and a pair
    # and an addend far above it, whose slots are ranks among the
    # exponents that occur below cap in any of them
    assert 3 * 10 ** 6 > pure._DENSE_WINDOW > 1000
    rng = np.random.default_rng(24)
    for G in (F, F5, F7, F9):
        for _ in range(3):
            near = _rand_series(rng, G, 30, 0, 300) + _rand_series(rng, G, 20, 0, 300)
            e, c = _rand_series(rng, G, 20, 0, 300)
            far = (e + 2 * 10 ** 6, c)
            pair_far = (e + 10 ** 6, c) + _rand_series(rng, G, 10, 10 ** 6, 10 ** 6 + 300)
            for cap in (3 * 10 ** 6, 2 * 10 ** 6 + 150):
                _check_dot(G, [near, pair_far], [far], cap)
