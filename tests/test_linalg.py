import random

import pytest

from tmotive import ffield, linalg
from tmotive.errors import SingularMatrixError
from tmotive.ffield import ambient_field
from tmotive.cinf import CinfElem, PolyT, c_inv, theta
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


def elimination_det(a):
    """The oracle: elimination with valuation pivoting, the product of the
    pivots with the sign of the row swaps; one c_inv per pivot with rows
    below it."""
    n = len(a)
    m = [list(r) for r in a]
    sign = 1
    det = None
    for col in range(n):
        piv = linalg._pivot_row(col, col, m)
        if piv < 0:
            z = m[col][col]
            return CinfElem.zero(z.spec, z.ram, z.prec)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            sign = -sign
        pv = m[col][col]
        det = pv if det is None else det * pv
        if col == n - 1:
            break
        inv = c_inv(pv)
        for r in range(col + 1, n):
            if m[r][col].is_zero():
                continue
            f = m[r][col] * inv
            m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return -det if sign < 0 else det


@pytest.mark.parametrize("q", [3, 5])
def test_det_matches_elimination_oracle(q, monkeypatch):
    # Laplace expansion against elimination on random series matrices,
    # and on matrices whose last row is a series combination of the others
    # (singular to precision); the expansion inverts nothing
    spec = ambient_field(q, 1, 4)
    rng = random.Random(q)
    cases = []
    for n in (1, 2, 3):
        cases += [rand_mat(spec, rng, n) for _ in range(4)]
        if n > 1:
            m = rand_mat(spec, rng, n)
            f = rand_mat(spec, rng, 1, vmin=0, vmax=4)[0][0]
            last = m[0]
            for r in range(1, n - 1):
                last = [x + f * y for x, y in zip(last, m[r])]
            cases.append(m[:n - 1] + [[x * f for x in last]])
    want = [elimination_det(m) for m in cases]
    calls = []
    monkeypatch.setattr(linalg, "c_inv", lambda x: calls.append(x))
    got = [mat_det(m) for m in cases]
    assert not calls
    assert sum(w.is_zero() for w in want) >= 2
    for g, w in zip(got, want):
        assert g.is_zero() == w.is_zero()
        assert g.valuation() == w.valuation()
        assert g.same_terms(w)


def naive_det(a):
    """The oracle: Laplace expansion along the first row, skipping zero
    entries, recomputing every minor; a zero first row gives its zero
    first entry."""
    n = len(a)
    if n == 1:
        return a[0][0]
    acc = None
    for j in range(n):
        if a[0][j].is_zero():
            continue
        minor = [[a[r][c] for c in range(n) if c != j] for r in range(1, n)]
        term = a[0][j] * naive_det(minor)
        if j % 2 == 1:
            term = -term
        acc = term if acc is None else acc + term
    return a[0][0] if acc is None else acc


def _sparse_series_mat(spec, rng, n):
    # entries of mixed declared precision, about a third of them zero
    out = []
    for _ in range(n):
        row = []
        for _ in range(n):
            prec = rng.randrange(20, PU) * N
            if rng.random() < 0.35:
                row.append(CinfElem.zero(spec, N, prec))
                continue
            terms = {rng.randrange(-2 * N, 8 * N): spec.el(rng.randrange(1, spec.order))
                     for _ in range(rng.randrange(1, 4))}
            row.append(CinfElem.from_terms(spec, N, prec, terms.items()))
        out.append(row)
    return out


@pytest.mark.parametrize("q", [3, 5])
def test_det_matches_naive_expansion(q):
    # the memoized expansion builds the naive one's expression tree, so
    # values and declared precisions agree bit for bit, for series and for
    # PolyT entries, with zero entries and zero first rows
    spec = ambient_field(q, 1, 4)
    rng = random.Random(10 + q)
    cases = []
    for n in (1, 2, 3, 4, 5):
        for _ in range(3):
            m = _sparse_series_mat(spec, rng, n)
            cases.append(m)
            if n > 1:
                zero_row = [CinfElem.zero(spec, N, x.prec) for x in m[0]]
                cases.append([zero_row] + m[1:])
                cases.append(m[:1] + [zero_row] + m[2:])
    for got, want in ((mat_det(m), naive_det(m)) for m in cases):
        assert got == want and got.prec == want.prec
    for n in (1, 2, 3, 4):
        for _ in range(3):
            cs = [_sparse_series_mat(spec, rng, n) for _ in range(2)]
            m = [[PolyT(spec, (a, b)) for a, b in zip(r0, r1)]
                 for r0, r1 in zip(*cs)]
            if n > 1 and rng.random() < 0.5:
                m[0] = [PolyT(spec) for _ in range(n)]
            got, want = mat_det(m), naive_det(m)
            assert got == want
            assert [c.prec for c in got.coeffs] == [c.prec for c in want.coeffs]


def test_one_determinant():
    # one body for every ring; the benchmark's tracer times it as
    # linalg.pm_det (det Phi) and as ffield.ffpoly_det
    assert linalg.mat_det is linalg.pm_det is ffield.ffpoly_det


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
