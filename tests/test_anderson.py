import random
from fractions import Fraction
from math import inf

import pytest

from tmotive import cinf
from tmotive.errors import NeighborhoodError, PrecisionError
from tmotive.ffield import ambient_field
from tmotive.cinf import CinfElem, PolyT, c_inv, q_twist, theta_ij, t_uniformizer
from tmotive.anderson import (exp_coeffs, exp_eval, exp_eval_scalar,
                              functional_residual, make_tmotive, tau_matrix)

N, PU = 8, 200


@pytest.fixture(scope="module")
def F():
    return ambient_field(3, 1, 4)


@pytest.fixture(scope="module")
def base(F):
    return make_tmotive([[CinfElem.zero(F, N, PU * N)]])


def test_base_point_flagged(F, base):
    assert base.is_base_point()
    t = t_uniformizer(F, N, PU)
    assert not make_tmotive([[t]]).is_base_point()


def test_neighborhood_rejection(F):
    th_entry = c_inv(t_uniformizer(F, N, PU))  # valuation -1
    with pytest.raises(NeighborhoodError):
        make_tmotive([[th_entry]])
    t = t_uniformizer(F, N, PU)
    make_tmotive([[t]])  # valuation 1 is accepted


def test_odd_coefficients_vanish_at_base(F, base):
    co = exp_coeffs(base, imax=6)
    assert co.C[1][0][0].is_zero()
    assert co.C[3][0][0].is_zero()
    assert co.C[5][0][0].is_zero()


def test_closed_form_even_coefficients(F, base):
    # independent oracle: invert the product of theta-differences, a
    # different computational path from the recursion's twisted inverses
    co = exp_coeffs(base, imax=8)
    assert co.C[2][0][0].same_terms(c_inv(theta_ij(F, N, PU, 2, 0)))
    assert co.C[4][0][0].same_terms(
        c_inv(theta_ij(F, N, PU, 4, 2) * theta_ij(F, N, PU, 4, 0)))
    for i in range(1, 5):
        prod = None
        for j in range(i):
            f = theta_ij(F, N, PU, 2 * i, 2 * j)
            prod = f if prod is None else prod * f
        assert co.C[2 * i][0][0].same_terms(c_inv(prod))


def test_coefficient_valuations_grow(F, base):
    co = exp_coeffs(base, imax=8)
    vals = [co.C[2 * i][0][0].valuation() for i in range(1, 5)]
    assert vals == sorted(vals)
    assert vals[0] == Fraction(9)    # q^2
    assert vals[1] == Fraction(162)  # 2 q^4


def test_first_coefficient_linear_in_A(F):
    a = t_uniformizer(F, N, PU) ** 3
    co = exp_coeffs(make_tmotive([[a]]))
    assert co.C[1][0][0].same_terms(a * c_inv(theta_ij(F, N, PU, 1, 0)))


def test_recursion_runs_no_newton_inversion(F, monkeypatch):
    # the theta-difference inverses come in closed form, for every motive
    t = t_uniformizer(F, N, PU)
    motive = make_tmotive([[t ** 2 + t ** 5]])
    want = exp_coeffs(motive).C

    def refuse(unit, m):
        raise AssertionError("Newton inversion inside exp_coeffs")

    monkeypatch.setattr(cinf, "_newton_inv_root", refuse)
    got = exp_coeffs(motive).C
    assert len(got) == len(want)
    assert all(a == b for Ca, Cb in zip(got, want) for ra, rb in zip(Ca, Cb)
               for a, b in zip(ra, rb))


def test_valuation_growth_persists_off_base(F):
    a = t_uniformizer(F, N, PU) ** 2
    co = exp_coeffs(make_tmotive([[a]]))
    vals = [co.C[i][0][0].valuation() for i in range(1, co.imax + 1)]
    finite = [v for v in vals if v != inf]
    assert all(b > a_ for a_, b in zip(finite, finite[1:]))


def test_exp_eval_linearity(F):
    a = t_uniformizer(F, N, PU) ** 3
    co = exp_coeffs(make_tmotive([[a]]))
    t = t_uniformizer(F, N, PU)
    x, y = t, t * t
    ex = exp_eval_scalar(co, x)
    ey = exp_eval_scalar(co, y)
    assert (exp_eval_scalar(co, x + y) - ex - ey).is_zero()
    z0 = CinfElem.zero(F, N, PU * N)
    assert exp_eval_scalar(co, z0).is_zero()


def test_exp_eval_reproduces_base_series(F, base):
    # at the base point the evaluation is z + z^9/theta_20 + ... termwise
    co = exp_coeffs(base, imax=6)
    t = t_uniformizer(F, N, PU)
    got = exp_eval_scalar(co, t)
    want = t + (CinfElem.monomial(F, N, PU * N * 9, 9 * N, F.one)
                * c_inv(theta_ij(F, N, PU, 2, 0)))
    want = want + (CinfElem.monomial(F, N, PU * N * 81, 81 * N, F.one)
                   * c_inv(theta_ij(F, N, PU, 4, 2) * theta_ij(F, N, PU, 4, 0)))
    assert got.same_terms(want.truncate(got.prec))


def test_functional_residual_vanishes(F):
    rng = random.Random(0)
    for n in (1, 2):
        A = [[t_uniformizer(F, N, PU) ** rng.randrange(1, 4) for _ in range(n)]
             for _ in range(n)]
        motive = make_tmotive(A)
        co = exp_coeffs(motive)
        z = [t_uniformizer(F, N, PU) ** rng.randrange(1, 3) for _ in range(n)]
        _, vals = functional_residual(motive, z, coeffs=co)
        assert all(v >= PU - 10 for v in vals)
        z0 = [CinfElem.zero(F, N, PU * N) for _ in range(n)]
        resid, _ = functional_residual(motive, z0, coeffs=co)
        assert all(x.is_zero() for x in resid)


def test_tau_matrix_blocks(F):
    t = t_uniformizer(F, N, PU)
    a = t ** 2
    motive = make_tmotive([[a]])
    R = tau_matrix(motive.A, motive.ram, motive.prec)
    assert R[0][0].is_zero()
    assert R[0][1].degree() == 0
    assert R[1][0].degree() == 1           # (T - theta) block
    assert R[1][0].coeffs[0].same_terms(-c_inv(t))
    assert R[1][1].coeffs[0].same_terms(-a)
    # n = 2, one zero and one nonzero off-diagonal entry:
    # [[0, E], [(T - theta) E, -A]] entry by entry
    zero = CinfElem.zero(F, N, PU * N)
    A = [[t ** 2, zero], [t ** 3, t ** 4]]
    motive = make_tmotive(A)
    R = tau_matrix(motive.A, motive.ram, motive.prec)
    n = 2
    one = CinfElem.const(F, N, motive.prec, F.one)
    for i in range(n):
        for j in range(n):
            assert R[i][j].is_zero()
            if i == j:
                assert R[i][n + j] == PolyT.const(one)
                t_minus_theta = R[n + i][j]
                assert t_minus_theta.degree() == 1
                assert t_minus_theta.coeffs[1] == one
                assert t_minus_theta.coeffs[0].same_terms(-c_inv(t))
            else:
                assert R[i][n + j].is_zero()
                assert R[n + i][j].is_zero()
            assert R[n + i][n + j] == (PolyT(F) if A[i][j].is_zero()
                                       else PolyT.const(-A[i][j]))
    assert R[n][n + 1].is_zero() and not R[n + 1][n].is_zero()


def test_eval_below_certified_floor_raises(F, base):
    # coefficients certified for the period's valuation cannot certify an
    # evaluation point that is much larger
    co = exp_coeffs(base)
    far = c_inv(t_uniformizer(F, N, PU)) ** 5  # valuation -5
    with pytest.raises(PrecisionError):
        exp_eval_scalar(co, far)


def _chained_eval(co, z):
    """The per-term oracle: each term vector C_i z^(i) by the chained
    loop a * b + c * d over l, the terms summed one at a time; returns the
    sum and the exact valuation of each term vector."""
    acc, tail = None, []
    for i, Ci in enumerate(co.C):
        zi = [q_twist(x, i) for x in z]
        term = []
        for row in Ci:
            s = row[0] * zi[0]
            for c, x in zip(row[1:], zi[1:]):
                s = s + c * x
            term.append(s)
        acc = term if acc is None else [a + b for a, b in zip(acc, term)]
        tail.append(min(x.valuation() for x in term))
    return acc, tail


def _n2_motive(F):
    t = t_uniformizer(F, N, PU)
    return make_tmotive([[t ** 2, t ** 3], [t, t ** 2]])


def test_exp_eval_is_one_kernel_call_per_component(F, monkeypatch):
    # in the certified branch at n = 2 the whole sum of C_i z^(i) is one
    # fused kernel call per component, run up to exactly the precision
    # that component declares; no product or sum goes through its own call
    co = exp_coeffs(_n2_motive(F))
    t = t_uniformizer(F, N, PU)
    z = [t + t ** 3, t ** 2]
    assert min(x.valuation() for x in z) >= co.floor
    calls = {"series_dot": [], "series_mul": [], "series_add_merge": []}
    for name, seen in calls.items():
        def spy(*args, real=getattr(cinf._kernels, name), seen=seen):
            seen.append(args[-1])
            return real(*args)
        monkeypatch.setattr(cinf._kernels, name, spy)
    got = exp_eval(co, z)
    monkeypatch.undo()
    assert calls["series_mul"] == calls["series_add_merge"] == []
    assert calls["series_dot"] == [x.prec for x in got] and len(got) == 2
    assert got == _chained_eval(co, z)[0]


def test_eval_below_certified_floor_reads_exact_tail(F):
    # coefficients certified for points of valuation >= 1, evaluated below
    # that floor: the tail certificate reads the exact valuation of each
    # term vector, and where it clears the target the result is the
    # per-term chained sum
    co = exp_coeffs(_n2_motive(F), z_floor=Fraction(1))
    t = t_uniformizer(F, N, PU)
    cleared = []
    for v in (-3, -2, -1, Fraction(-1, 2)):
        e = int(v * N)
        z = [CinfElem.monomial(F, N, PU * N, e, F.one),
             CinfElem.monomial(F, N, PU * N, e + N, F.scalar(2)) + t]
        assert min(x.valuation() for x in z) < co.floor
        want, tail = _chained_eval(co, z)
        finite = [x for x in tail[1:] if x != inf]
        ok = len(finite) >= 2 and all(x >= co.target_units for x in finite[-2:])
        cleared.append(ok)
        if ok:
            assert exp_eval(co, z) == want
        else:
            with pytest.raises(PrecisionError):
                exp_eval(co, z)
    assert cleared == [False, True, True, True]
    # the odd term vectors of this motive vanish on z = (x, x): their exact
    # valuations are +inf, so the certificate skips them and fails, where
    # the estimate min_l v(C_i[j][l]) + v(z_l^(i)) would clear the target
    a = t ** 2
    co = exp_coeffs(make_tmotive([[a, -a], [-a, a]]), z_floor=Fraction(1))
    x = CinfElem.monomial(F, N, PU * N, -N, F.one) + t
    _, tail = _chained_eval(co, [x, x])
    assert tail[1::2] == [inf] * len(tail[1::2])
    assert [v for v in tail if v != inf][-2] < co.target_units
    with pytest.raises(PrecisionError):
        exp_eval(co, [x, x])
