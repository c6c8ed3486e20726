import random

import pytest

from tmotive import linalg
from tmotive.errors import SingularMatrixError
from tmotive.ffield import FFPoly, ambient_field
from tmotive.cinf import CinfElem, PolyT, theta
from tmotive.linalg import (kron_left, kron_right, mat_det, mat_inv, mat_mul,
                            mat_solve, pm_det, unvec_rowmajor, vec_rowmajor)

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
                        assert x.coeff_at(0) == F.one and len(x.exps) == 1
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


def rand_ffpoly_mat(F, rng, n, deg=2):
    return [[FFPoly(F, [F.el(rng.randrange(F.order)) for _ in range(rng.randrange(deg + 2))])
             for _ in range(n)] for _ in range(n)]


def test_kron_identities_brute_force(F):
    # the defining equations of the vectorization operators, on explicit
    # small matrices: series entries of both valuation signs, then the
    # small nonnegative valuations of the solver's unknowns (n = 2)
    rng = random.Random(3)
    for n, vmin, vmax in ((2, -2, 8), (3, -2, 8), (2, 0, 4)):
        a = rand_mat(F, rng, n, vmin, vmax)
        m = rand_mat(F, rng, n, vmin, vmax)
        zero = CinfElem.zero(F, N, PU * N)
        va = mat_mul(kron_left(a, zero), [[x] for x in vec_rowmajor(m)])
        direct = vec_rowmajor(mat_mul(a, m))
        for got, want in zip(va, direct):
            assert (got[0] - want).is_zero()
        vb = mat_mul(kron_right(a, zero), [[x] for x in vec_rowmajor(m)])
        direct = vec_rowmajor(mat_mul(m, a))
        for got, want in zip(vb, direct):
            assert (got[0] - want).is_zero()
        assert unvec_rowmajor(vec_rowmajor(m), n) == m
    # polynomials in theta over the field, the ring of the linear system:
    # there both sides must agree exactly
    for n in (2, 3):
        a = rand_ffpoly_mat(F, rng, n)
        m = rand_ffpoly_mat(F, rng, n)
        vm = [[x] for x in vec_rowmajor(m)]
        assert [r[0] for r in mat_mul(kron_left(a, FFPoly(F)), vm)] == \
            vec_rowmajor(mat_mul(a, m))
        assert [r[0] for r in mat_mul(kron_right(a, FFPoly(F)), vm)] == \
            vec_rowmajor(mat_mul(m, a))


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
