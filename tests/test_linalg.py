import random

import pytest

from tmotive import _kernels as linalg_kernels, ffield, linalg
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


def chained_mat_mul(a, b):
    """The oracle: each entry a[i][0] * b[0][j] + a[i][1] * b[1][j] + ...,
    one operation at a time."""
    out = []
    for row in a:
        out.append([])
        for j in range(len(b[0])):
            acc = row[0] * b[0][j]
            for k in range(1, len(b)):
                acc = acc + row[k] * b[k][j]
            out[-1].append(acc)
    return out


@pytest.mark.parametrize("q", [3, 5])
def test_mat_mul_is_the_chained_loop(q):
    # series entries go through one cinf.dot per entry, with the chained
    # loop's bits and declared precisions, including zero entries and
    # mixed precisions; PolyT and FFPoly entries take the loop itself
    spec = ambient_field(q, 1, 4)
    rng = random.Random(20 + q)
    for n in (1, 2, 3):
        for _ in range(4):
            a, b = _sparse_series_mat(spec, rng, n), _sparse_series_mat(spec, rng, n)
            got, want = mat_mul(a, b), chained_mat_mul(a, b)
            assert all(g == w and g.prec == w.prec
                       for gr, wr in zip(got, want) for g, w in zip(gr, wr))
            pa = [[PolyT(spec, (x, y)) for x, y in zip(r0, r1)] for r0, r1 in zip(a, b)]
            pb = [[PolyT(spec, (y, x)) for x, y in zip(r0, r1)] for r0, r1 in zip(a, b)]
            got, want = mat_mul(pa, pb), chained_mat_mul(pa, pb)
            assert all(g == w and [c.prec for c in g.coeffs] == [c.prec for c in w.coeffs]
                       for gr, wr in zip(got, want) for g, w in zip(gr, wr))
            fa = [[ffield.FFPoly(spec, [spec.el(rng.randrange(spec.order)) for _ in range(3)])
                   for _ in range(n)] for _ in range(n)]
            fb = [[ffield.FFPoly(spec, [spec.el(rng.randrange(spec.order)) for _ in range(2)])
                   for _ in range(n)] for _ in range(n)]
            assert mat_mul(fa, fb) == chained_mat_mul(fa, fb)


def test_series_mat_mul_is_one_kernel_call_per_entry(monkeypatch):
    spec = ambient_field(3, 1, 4)
    rng = random.Random(7)
    a = _sparse_series_mat(spec, rng, 3)
    b = [row[:2] for row in _sparse_series_mat(spec, rng, 3)]
    calls = {"series_dot": 0, "series_mul": 0, "series_add_merge": 0}
    for name in calls:
        def spy(*args, real=getattr(linalg_kernels, name), name=name):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(linalg_kernels, name, spy)
    got = mat_mul(a, b)
    monkeypatch.undo()
    assert calls == {"series_dot": 6, "series_mul": 0, "series_add_merge": 0}
    assert got == chained_mat_mul(a, b)


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


def full_elimination_solve(a, rhs):
    """The oracle: Gauss-Jordan with valuation pivoting that scales and
    updates every column of each row, settled ones included."""
    n = len(a)
    m = [list(ra) + list(rr) for ra, rr in zip(a, rhs)]
    for col in range(n):
        piv = linalg._pivot_row(col, col, m)
        if piv < 0:
            raise SingularMatrixError(f"no pivot in column {col}")
        m[col], m[piv] = m[piv], m[col]
        inv = c_inv(m[col][col])
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r == col or m[r][col].is_zero():
                continue
            f = m[r][col]
            m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [row[n:] for row in m]


def _solve_cases(spec, rng):
    """(a, rhs) at n = 1, 2, 3 with 1-3 right-hand columns; in half of
    them the leading entry has a high valuation, so column 0 pivots on a
    lower row, and some entries are zero."""
    for n in (1, 2, 3):
        for k in (1, 2, 3):
            for swap in (False, True):
                a = _sparse_series_mat(spec, rng, n)
                if swap and n > 1:
                    a[0][0] = CinfElem.monomial(spec, N, PU * N, 30 * N, spec.el(2))
                    a[1][0] = CinfElem.const(spec, N, PU * N, spec.one) + a[1][0]
                rhs = [row[:k] for row in _sparse_series_mat(spec, rng, max(n, k))[:n]]
                yield a, rhs


@pytest.mark.parametrize("q, s, D", [(3, 1, 4), (5, 1, 4), (3, 2, 8)])
def test_trimmed_solve_matches_full_elimination(q, s, D):
    # every entry the trimmed solve returns, and its declared precision,
    # is the full elimination's, and so is every inverse
    spec = ambient_field(q, s, D)
    rng = random.Random(30 + q * s)
    solved = swapped = 0
    for a, rhs in _solve_cases(spec, rng):
        try:
            want = full_elimination_solve(a, rhs)
        except SingularMatrixError:
            with pytest.raises(SingularMatrixError):
                mat_solve(a, rhs)
            continue
        got = mat_solve(a, rhs)
        assert all(g == w and g.prec == w.prec
                   for gr, wr in zip(got, want) for g, w in zip(gr, wr))
        n = len(a)
        eye_n = linalg.eye(spec, a[0][0].ram, linalg.mat_min_prec(a), n)
        assert all(g == w and g.prec == w.prec
                   for gr, wr in zip(mat_inv(a), full_elimination_solve(a, eye_n))
                   for g, w in zip(gr, wr))
        solved += 1
        swapped += linalg._pivot_row(0, 0, a) != 0
    assert solved >= 12 and swapped >= 4


def test_solve_forms_no_settled_column(monkeypatch):
    # each product is tagged with the column of the entry it updates; while
    # column col is pivoted, every product updates a column right of col.
    # An n = 2 solve with two right-hand columns forms 10 products, n = 1
    # with one forms 1
    spec = ambient_field(3, 1, 4)
    rng = random.Random(40)
    real_mul, real_sub = CinfElem.__mul__, CinfElem.__sub__
    tags, keep, seen, pivot = {}, [], [], []

    def tag(out, col):
        # a tagged object stays alive, so no other object takes its id
        tags[id(out)] = col
        keep.append(out)
        return out

    def mul(x, y):
        cols = [tags[id(v)] for v in (x, y) if id(v) in tags]
        if not cols or not pivot or pivot[-1] is None:
            return real_mul(x, y)  # inside c_inv, or not an entry
        seen.append((pivot[-1], max(cols)))
        return tag(real_mul(x, y), max(cols))

    def sub(x, y):
        out = real_sub(x, y)
        return tag(out, tags[id(x)]) if id(x) in tags else out

    def inv(x):
        col = len(pivot)
        pivot.append(None)
        out = c_inv(x)
        pivot[-1] = col
        return out

    for n, k, count in ((1, 1, 1), (2, 2, 10), (3, 3, None), (3, 1, None)):
        while True:
            a = rand_mat(spec, rng, n)
            rhs = [row[:k] for row in rand_mat(spec, rng, max(n, k))[:n]]
            try:
                want = full_elimination_solve(a, rhs)
            except SingularMatrixError:
                continue
            if all(not x.is_zero() for row in a for x in row):
                break
        tags.clear()
        for row in a:
            for j, x in enumerate(row):
                tag(x, j)
        for row in rhs:
            for j, x in enumerate(row):
                tag(x, n + j)
        seen.clear()
        pivot.clear()
        monkeypatch.setattr(CinfElem, "__mul__", mul)
        monkeypatch.setattr(CinfElem, "__sub__", sub)
        monkeypatch.setattr(linalg, "c_inv", inv)
        got = mat_solve(a, rhs)
        monkeypatch.undo()
        assert got == want
        assert len(pivot) == n and seen
        assert all(col > piv for piv, col in seen), seen
        if count is not None:
            assert len(seen) == count
