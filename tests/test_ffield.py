import operator
import random
from itertools import permutations
from math import gcd, prod

import numpy as np
import pytest

from tmotive.errors import FieldError, GammaShapeError
from tmotive.ffield import (FFPoly, FieldSpec, ambient_field, default_modulus, det,
                            ffpoly_det, ffpoly_unit_inv, find_root_in_field,
                            omega_split)
from tmotive.latticemap import random_gamma


@pytest.fixture(scope="module")
def F():
    return ambient_field(3, 1, 4)


def zeta(spec):
    """A root of X^(q^2-1) + 1 in the ambient field."""
    m = spec.q * spec.q - 1
    return find_root_in_field([spec.one] + [spec.zero] * (m - 1) + [spec.one])


def test_default_modulus_is_deterministic_and_irreducible():
    assert default_modulus(3, 4) == default_modulus(3, 4)
    spec = FieldSpec(3, 1, 4)
    assert spec.modulus[-1] == 1
    assert spec.order == 81


def test_even_q_rejected():
    with pytest.raises(FieldError):
        FieldSpec(2, 1, 4)


def test_field_axioms_random(F):
    rng = random.Random(0)
    for _ in range(300):
        x = F.el(rng.randrange(F.order))
        y = F.el(rng.randrange(F.order))
        z = F.el(rng.randrange(F.order))
        assert (x + y) + z == x + (y + z)
        assert x + y == y + x
        assert x * (y + z) == x * y + x * z
        assert x + (-x) == F.zero
        if not x.is_zero():
            assert x * x.inv() == F.one
            assert (y / x) * x == y


def test_ff_arith_dispatch(F):
    a, b = F.scalar(2), F.scalar(2)
    assert a + b == F.one  # 2+2 = 4 = 1 mod 3
    assert a * b == F.one
    assert a - b == F.zero
    assert a / b == F.one
    with pytest.raises(ZeroDivisionError):
        a / F.zero


def test_frobenius_is_automorphism_of_order_D(F):
    rng = random.Random(1)
    for _ in range(100):
        x = F.el(rng.randrange(F.order))
        y = F.el(rng.randrange(F.order))
        assert (x * y).frobenius(1) == x.frobenius(1) * y.frobenius(1)
        assert (x + y).frobenius(2) == x.frobenius(2) + y.frobenius(2)
        assert x.frobenius(4) == x          # q^4 = p^D fixes everything
        assert x.frobenius(1).frobenius(1) == x.frobenius(2)
    assert F.omega.frobenius(0) == F.omega


def test_frobenius_fixes_quadratic_subfield(F):
    for packed in F.subfield(2):
        x = F.el(packed)
        assert x.frobenius(2) == x
        assert x.frobenius(6) == x  # any multiple of 2s


def test_larger_odd_field():
    # the construction is not tied to q = 3
    G = ambient_field(5, 1, 4)
    w = G.omega
    assert w.frobenius(1) != w and (w * w).frobenius(1) == w * w
    z = zeta(G)
    assert z ** 24 == -G.one
    assert G.subfield(1) == [0, 1, 2, 3, 4]


def test_frobenius_inverse(F):
    rng = random.Random(2)
    for _ in range(50):
        x = F.el(rng.randrange(F.order))
        assert x.frobenius(-1).frobenius(1) == x


def test_omega_square_in_base_field(F):
    w = F.omega
    assert w.frobenius(1) != w            # omega not in F_q
    w2 = w * w
    assert w2.frobenius(1) == w2          # omega^2 in F_q
    # q = 3 forces omega^2 = 2: the only nonsquare of F_3
    assert w2 == F.scalar(2)
    assert w.frobenius(1) == -w


def test_omega_via_independent_root_search(F):
    # brute-force oracle: a root of X^2 - 2 in the ambient field
    r = find_root_in_field([F.scalar(-2), F.zero, F.one])
    assert r is not None and r * r == F.scalar(2)


def test_zeta_order(F):
    z = zeta(F)
    assert z ** 8 == -F.one
    # the order of zeta is (|F| - 1) / gcd(log zeta, |F| - 1)
    qm1 = F.order - 1
    assert qm1 // gcd(F._log[z.idx], qm1) == 16


def test_find_root_linear_and_absent(F):
    c = F.scalar(2)
    assert find_root_in_field([-c, F.one]) == c        # X - c
    # X^2 - g for a generator g of the full group has no square root iff
    # the log is odd; pick one explicitly
    g = F.el(F.generator)
    if F._log[g.idx] % 2 == 1:
        assert find_root_in_field([-g, F.zero, F.one]) is None


def test_subfields(F):
    fq = F.subfield(1)
    assert len(fq) == 3 and fq == [0, 1, 2]
    fq2 = F.subfield(2)
    assert len(fq2) == 9
    assert F.omega.idx in fq2


def test_omega_split_roundtrip(F):
    rng = random.Random(3)
    w = F.omega
    for x in F.subfield(2):
        a, b = omega_split(F.el(x))
        assert a + w * b == F.el(x)
        assert a.in_subfield(1) and b.in_subfield(1)
    with pytest.raises(GammaShapeError):
        omega_split(F.el(F.generator))  # generator is outside F_9


def test_ffpoly_ring_laws(F):
    rng = random.Random(4)

    def rnd(deg):
        return FFPoly(F, [F.el(rng.randrange(F.order)) for _ in range(deg + 1)])

    for _ in range(40):
        a, b, c = rnd(rng.randrange(4)), rnd(rng.randrange(3)), rnd(rng.randrange(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert (a - a).is_zero() and a + (-a) == a - a
        if not (a.is_zero() or b.is_zero()):
            assert (a * b).degree() == a.degree() + b.degree()
    th = FFPoly.theta(F)
    # Horner evaluation at theta = 1
    acc = F.zero
    for c in reversed((th * th - th).coeffs):
        acc = acc * F.one + c
    assert acc == F.zero


# The oracle for Poly's arithmetic over the field: zero-padded sums, and a
# product that skips zero coefficients into a zero-initialized accumulator.


def _padded(a, b, op):
    n = max(len(a.coeffs), len(b.coeffs))
    return FFPoly(a.spec, [op(a[i], b[i]) for i in range(n)])


def _oracle_mul(a, b):
    if a.is_zero() or b.is_zero():
        return FFPoly(a.spec)
    out = [a.spec.zero] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        if x.is_zero():
            continue
        for j, y in enumerate(b.coeffs):
            out[i + j] = out[i + j] + x * y
    return FFPoly(a.spec, out)


def test_ffpoly_arithmetic_matches_zero_padded_oracle(F):
    rng = random.Random(6)

    def rnd(deg):
        # a nonzero leading coefficient; lower ones are zero about a third
        # of the time, not one time in 81
        if deg < 0:
            return FFPoly(F)
        cs = [F.el(rng.randrange(F.order)) if rng.random() < 0.7 else F.zero
              for _ in range(deg)]
        return FFPoly(F, cs + [F.el(rng.randrange(1, F.order))])

    for _ in range(60):
        da, db = rng.sample(range(-1, 5), 2)
        a, b = rnd(da), rnd(db)
        for x, y in ((a, b), (b, a)):
            assert x + y == _padded(x, y, operator.add)
            assert x - y == _padded(x, y, operator.sub)
            assert x * y == _oracle_mul(x, y)
        assert not (a == b)
        assert a == FFPoly(F, a.coeffs + (F.zero,))


def test_ffpoly_det_matches_cofactor(F):
    rng = random.Random(5)

    def rnd():
        return FFPoly(F, [F.el(rng.randrange(F.order)) for _ in range(2)])

    for _ in range(20):
        m = [[rnd() for _ in range(2)] for _ in range(2)]
        det = ffpoly_det(m)
        assert det == m[0][0] * m[1][1] - m[0][1] * m[1][0]


# The oracle for det on FFPoly matrices: fraction-free Bareiss
# elimination, whose interior divisions are exact, with its own long
# division of polynomials.


def _oracle_exact_div(a, b):
    rem = list(a.coeffs)
    lead_inv = b.coeffs[-1].inv()
    quot = [a.spec.zero] * max(len(rem) - len(b.coeffs) + 1, 0)
    for k in range(len(quot) - 1, -1, -1):
        c = rem[k + len(b.coeffs) - 1] * lead_inv
        quot[k] = c
        for j, y in enumerate(b.coeffs):
            rem[k + j] = rem[k + j] - c * y
    assert all(x.is_zero() for x in rem), "inexact polynomial division"
    return FFPoly(a.spec, quot)


def _bareiss_det(rows):
    m = [list(r) for r in rows]
    n = len(m)
    spec = m[0][0].spec
    sign = 1
    prev = FFPoly.const(spec.one)
    for k in range(n - 1):
        if m[k][k].is_zero():
            for r in range(k + 1, n):
                if not m[r][k].is_zero():
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return FFPoly(spec)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                m[i][j] = _oracle_exact_div(num, prev)
        prev = m[k][k]
    return -m[n - 1][n - 1] if sign < 0 else m[n - 1][n - 1]


@pytest.mark.parametrize("q", [3, 5])
def test_det_matches_bareiss_oracle(q):
    spec = ambient_field(q, 1, 4)
    rng = random.Random(20 + q)

    def rnd():
        # degree at most 2, zero about a quarter of the time
        if rng.random() < 0.25:
            return FFPoly(spec)
        return FFPoly(spec, [spec.el(rng.randrange(spec.order))
                             for _ in range(rng.randrange(1, 4))])

    cases = []
    for n in range(1, 7):
        for _ in range(3):
            cases.append([[rnd() for _ in range(n)] for _ in range(n)])
        m = [[rnd() for _ in range(n)] for _ in range(n)]
        if n == 1:
            cases.append([[FFPoly(spec)]])
            continue
        # singular: the last row a polynomial combination of the others
        last = [FFPoly(spec)] * n
        for r in range(n - 1):
            f = rnd()
            last = [x + f * y for x, y in zip(last, m[r])]
        cases.append(m[:n - 1] + [last])
    singular = 0
    for m in cases:
        want = _bareiss_det(m)
        assert ffpoly_det(m) == want
        singular += want.is_zero()
    assert singular >= 6
    # the assembled block group elements, whose determinants are constants
    for n in (1, 2, 3):
        for k in (0, 1, 2):
            g = random_gamma(spec, n, k, rng)
            a = g.assembled()
            assert ffpoly_det(a) == _bareiss_det(a) == g.det
            assert g.det.is_constant() and not g.det.is_zero()


class _Counted:
    """An integer that counts every product taken in its ring."""

    __slots__ = ("v", "log")

    def __init__(self, v, log):
        self.v, self.log = v, log

    def __add__(self, other):
        return _Counted(self.v + other.v, self.log)

    def __sub__(self, other):
        return _Counted(self.v - other.v, self.log)

    def __neg__(self):
        return _Counted(-self.v, self.log)

    def __mul__(self, other):
        self.log.append(1)
        return _Counted(self.v * other.v, self.log)

    def is_zero(self):
        return self.v == 0


def test_det_forms_each_minor_once():
    # a dense 6 x 6 takes n 2^(n-1) - n = 186 entry products, within the
    # n 2^(n-1) = 192 bound; the naive expansion takes about 1,236
    rng = random.Random(7)
    n = 6
    vals = [[rng.randrange(1, 10) for _ in range(n)] for _ in range(n)]
    log = []
    got = det([[_Counted(v, log) for v in r] for r in vals])
    assert len(log) <= 192
    want = sum((-1) ** sum(a > b for i, a in enumerate(p) for b in p[i + 1:])
               * prod(vals[r][c] for r, c in enumerate(p))
               for p in permutations(range(n)))
    assert got.v == want
    with pytest.raises(ValueError):
        det([])


def test_ffpoly_unit_inverse(F):
    one = FFPoly.const(F.one)
    th = FFPoly.theta(F)
    z = FFPoly(F)
    m = [[one, th], [z, one]]  # transvection: det 1
    inv = ffpoly_unit_inv(m)
    prod = [[sum((m[i][l] * inv[l][j] for l in range(2)), FFPoly(F))
             for j in range(2)] for i in range(2)]
    assert prod[0][0] == one and prod[1][1] == one
    assert prod[0][1].is_zero() and prod[1][0].is_zero()


def test_serialization_roundtrip(F):
    x = F.from_coeffs([2, 1, 0, 0])
    assert x.to_json() == [2, 1, 0, 0]
    assert F.from_coeffs(x.to_json()) == x


# The oracle for the tables: the former builder.  It multiplies packed
# values as digit tuples (schoolbook product, then reduction by the monic
# modulus), takes the first g >= 2 that no g^((Q-1)/l) = 1 rules out, and
# fills exp and log one power of g at a time.


def _oracle_field_mul(spec, a, b):
    p, D, m = spec.p, spec.D, spec.modulus
    da = [a // p ** i % p for i in range(D)]
    db = [b // p ** i % p for i in range(D)]
    prod = [0] * (2 * D - 1)
    for i, x in enumerate(da):
        for j, y in enumerate(db):
            prod[i + j] = (prod[i + j] + x * y) % p
    for k in range(2 * D - 2, D - 1, -1):  # x^k = -x^(k-D) (m_0 + ... + m_(D-1) x^(D-1))
        c, prod[k] = prod[k], 0
        for i in range(D):
            prod[k - D + i] = (prod[k - D + i] - c * m[i]) % p
    return sum(d * p ** i for i, d in enumerate(prod[:D]))


def _oracle_has_full_order(spec, g):
    qm1 = spec.order - 1
    primes, rest, d = [], qm1, 2
    while rest > 1:
        if d * d > rest:
            d = rest
        if rest % d == 0:
            primes.append(d)
            while rest % d == 0:
                rest //= d
        d += 1
    for ell in primes:
        e, acc, base = qm1 // ell, 1, g
        while e:
            if e & 1:
                acc = _oracle_field_mul(spec, acc, base)
            base = _oracle_field_mul(spec, base, base)
            e >>= 1
        if acc == 1:
            return False
    return True


def _oracle_tables(spec):
    Q = spec.order
    g = next(c for c in range(2, Q) if _oracle_has_full_order(spec, c))
    exp, log = [0] * (Q - 1), [-1] * Q
    x = 1
    for j in range(Q - 1):
        exp[j], log[x] = x, j
        x = _oracle_field_mul(spec, x, g)
    return g, exp, log


def _oracle_subfield(spec, log, m):
    size = spec.q ** m
    return [x for x in range(spec.order)
            if x == 0 or log[x] * (size - 1) % (spec.order - 1) == 0]


@pytest.mark.parametrize("p, s", [(3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1)])
def test_tables_match_oracle(p, s):
    spec = ambient_field(p, s)
    g, exp, log = _oracle_tables(spec)
    assert spec.generator == g
    assert spec.exp_np.tolist() == exp and spec._exp == exp
    assert spec.log_np.tolist() == log and spec._log == log
    bits = 64 // spec.D
    lanes = [sum((x // p ** d % p) << (bits * d) for d in range(spec.D)) for x in exp]
    assert spec.lane_exp_np.tolist() == lanes
    assert spec.lane_np.tolist() == [0] + [w for _, w in sorted(zip(exp, lanes))]
    for m in (1, 2):
        assert spec.subfield(m) == _oracle_subfield(spec, log, m)
    # omega: the first element of F_(q^2) - F_q whose square lies in F_q
    qm1, q = spec.order - 1, spec.q
    omega = next(x for x in _oracle_subfield(spec, log, 2)
                 if x and log[x] * (q - 1) % qm1 and 2 * log[x] * (q - 1) % qm1 == 0)
    assert spec.omega.idx == omega


@pytest.mark.parametrize("p, s", [(5, 2), (3, 3)])
def test_large_tables_against_oracle_samples(p, s):
    # the oracle's full tables take seconds here, so sample them instead
    spec = ambient_field(p, s)
    Q, g, exp = spec.order, spec.generator, spec._exp
    assert np.array_equal(np.sort(spec.exp_np), np.arange(1, Q))
    assert spec.log_np[0] == -1
    assert np.array_equal(spec.log_np[spec.exp_np], np.arange(Q - 1))
    rng = random.Random(p * 100 + s)
    for j in rng.sample(range(Q - 1), 300) + [0, Q - 2]:
        assert _oracle_field_mul(spec, exp[j], g) == exp[(j + 1) % (Q - 1)]
    assert _oracle_has_full_order(spec, g)
    assert not any(_oracle_has_full_order(spec, c) for c in range(2, g))
