import operator
import random
from math import gcd

import pytest

from tmotive.errors import FieldError, GammaShapeError
from tmotive.ffield import (FFPoly, FieldSpec, ambient_field, default_modulus,
                            ffpoly_det, ffpoly_unit_inv, find_root_in_field,
                            omega_split)


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


def test_ffpoly_ring_and_division(F):
    rng = random.Random(4)

    def rnd(deg):
        return FFPoly(F, [F.el(rng.randrange(F.order)) for _ in range(deg + 1)])

    for _ in range(40):
        a, b = rnd(rng.randrange(4)), rnd(rng.randrange(3))
        if b.is_zero():
            continue
        q, r = a.divmod(b)
        assert q * b + r == a
        assert r.degree() < b.degree() or r.is_zero()
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
