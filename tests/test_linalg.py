import random

import pytest

from tmotive import linalg
from tmotive.errors import SingularMatrixError
from tmotive.ffield import ambient_field
from tmotive.cinf import CinfElem, PolyT, theta
from tmotive.linalg import mat_det, mat_inv, mat_mul, mat_solve, pm_det

N, PU = 8, 120


@pytest.fixture(scope="module")
def F():
    return ambient_field(3, 1, 4)


def rand_mat(F, rng, n, vmin=-2, vmax=8):
    out = []
    for _ in range(n):
        row = []
        for _ in range(n):
            terms = {rng.randrange(vmin * N, vmax * N): F.el(rng.randrange(1, F.order))
                     for _ in range(rng.randrange(1, 4))}
            row.append(CinfElem.from_terms(F, N, PU * N, terms.items()))
        out.append(row)
    return out


def test_inverse_roundtrip(F):
    rng = random.Random(0)
    for n in (1, 2, 3):
        for _ in range(6):
            m = rand_mat(F, rng, n)
            try:
                inv = mat_inv(m)
            except SingularMatrixError:
                continue
            prod = mat_mul(m, inv)
            for i in range(n):
                for j in range(n):
                    x = prod[i][j]
                    if i == j:
                        assert x.leading() == (0, F.one) and len(x.exps) == 1
                    else:
                        assert x.is_zero()


def test_solve_matches_inverse(F):
    rng = random.Random(1)
    m = rand_mat(F, rng, 3)
    rhs = rand_mat(F, rng, 3)
    x = mat_solve(m, rhs)
    mx = mat_mul(m, x)
    assert all(mx[i][j].same_terms(rhs[i][j].truncate(x[0][0].prec))
               for i in range(3) for j in range(3)) or \
        all((mx[i][j] - rhs[i][j]).is_zero() for i in range(3) for j in range(3))


def test_det_multiplicative(F):
    rng = random.Random(2)
    for _ in range(5):
        a = rand_mat(F, rng, 2)
        b = rand_mat(F, rng, 2)
        lhs = mat_det(mat_mul(a, b))
        rhs = mat_det(a) * mat_det(b)
        assert (lhs - rhs).is_zero()


def test_det_inverts_only_pivots_with_rows_below(F, monkeypatch):
    # the last pivot has no row left to eliminate, so an n x n determinant
    # without a zero pivot inverts n - 1 pivots
    calls = []
    real = linalg.c_inv
    monkeypatch.setattr(linalg, "c_inv", lambda x: calls.append(x) or real(x))
    rng = random.Random(3)
    for n in (1, 2, 3):
        m = rand_mat(F, rng, n)
        calls.clear()
        assert not mat_det(m).is_zero()
        assert len(calls) == n - 1


def test_singular_raises(F):
    z = CinfElem.zero(F, N, PU * N)
    one = CinfElem.const(F, N, PU * N, F.one)
    with pytest.raises(SingularMatrixError):
        mat_inv([[one, one], [one, one]])


def test_pm_det_2x2(F):
    th = theta(F, N, PU)
    one = CinfElem.const(F, N, PU * N, F.one)
    m = [[PolyT.t_minus(th), PolyT.const(th)],
         [PolyT(F), PolyT.t_minus(th)]]
    d = pm_det(m)
    # (T - th)^2 = T^2 - 2 th T + th^2
    assert d.degree() == 2
    assert d.coeffs[0].same_terms(th * th)
    assert d.coeffs[1].same_terms(th.scale(F.scalar(-2)))
