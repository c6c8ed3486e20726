"""The one dense matrix layer, for every coefficient ring of the package.

Matrices are plain nested lists whose entries come from one ring: series
(CinfElem), polynomials in T over the series (PolyT) or polynomials in
theta over the ambient field (FFPoly).  Sums, products, block splitting
and vectorization (row-major vec and the Kronecker matrices of left and
right multiplication) use only + and * on entries, so they serve all
three rings.  Where a ring names an operation differently (twists,
valuations, determinants) there is one helper per ring.

Sizes stay tiny (at most a dozen rows), so the implementations favor
clarity: Gauss-Jordan with valuation pivoting for inversion and solving
over the series, Laplace expansion for the small PolyT determinants.
"""

from math import inf

from .cinf import CinfElem, PolyT, c_inv, q_twist
from .errors import SingularMatrixError


def zeros(spec, ram, prec, n):
    return [[CinfElem.zero(spec, ram, prec) for _ in range(n)] for _ in range(n)]


def eye(spec, ram, prec, n, scale=None):
    out = zeros(spec, ram, prec, n)
    c = scale if scale is not None else spec.one
    for i in range(n):
        out[i][i] = CinfElem.const(spec, ram, prec, c)
    return out


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_neg(a):
    return [[-x for x in r] for r in a]


def mat_mul(a, b):
    """The matrix product; it needs only + and * on entries, so it serves
    CinfElem, PolyT and FFPoly matrices alike."""
    rows, inner, cols = len(a), len(b), len(b[0])
    out = []
    for i in range(rows):
        row = []
        for j in range(cols):
            acc = a[i][0] * b[0][j]
            for k in range(1, inner):
                acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(row)
    return out


def mat_twist(a, i):
    return [[q_twist(x, i) for x in r] for r in a]


def mat_min_valuation(a):
    v = inf
    for r in a:
        for x in r:
            v = min(v, x.valuation())
    return v


def mat_min_prec(a):
    return min(x.prec for r in a for x in r)


def _pivot_row(col, start, rows):
    """Row index at or below start with the smallest valuation in col."""
    best, best_v = -1, inf
    for r in range(start, len(rows)):
        x = rows[r][col]
        if not x.is_zero() and x.valuation() < best_v:
            best, best_v = r, x.valuation()
    return best


def mat_solve(a, rhs):
    """Solve a X = rhs by Gauss-Jordan with valuation pivoting.

    Pivots are the largest entries non-archimedeanly (smallest valuation),
    which keeps the elimination exact-to-precision.
    """
    n = len(a)
    m = [list(ra) + list(rr) for ra, rr in zip(a, rhs)]
    for col in range(n):
        piv = _pivot_row(col, col, m)
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


def mat_inv(a):
    spec = a[0][0].spec
    n = len(a)
    ram = a[0][0].ram
    prec = mat_min_prec(a)
    return mat_solve(a, eye(spec, ram, prec, n))


def mat_det(a):
    """Determinant via elimination (product of pivots with sign)."""
    n = len(a)
    m = [list(r) for r in a]
    sign = 1
    det = None
    for col in range(n):
        piv = _pivot_row(col, col, m)
        if piv < 0:
            z = m[col][col]
            return CinfElem.zero(z.spec, z.ram, z.prec)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            sign = -sign
        pv = m[col][col]
        det = pv if det is None else det * pv
        if col == n - 1:
            break  # no row left to eliminate, so no inverse needed
        inv = c_inv(pv)
        for r in range(col + 1, n):
            if m[r][col].is_zero():
                continue
            f = m[r][col] * inv
            m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    if sign < 0:
        det = -det
    return det


def vec_rowmajor(a):
    """Row-major (lexicographic) flattening to a column of entries."""
    return [x for r in a for x in r]


def unvec_rowmajor(v, n):
    return [list(v[i * n:(i + 1) * n]) for i in range(n)]


def kron_left(a, zero):
    """K with vec(a m) = K vec(m): a tensor identity in row-major layout.

    zero fills the entries off the pattern; it is the zero of a's ring.
    """
    n = len(a)
    out = [[zero] * (n * n) for _ in range(n * n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                out[i * n + k][j * n + k] = a[i][j]
    return out


def kron_right(a, zero):
    """K with vec(m a) = K vec(m): block diagonal with transposed blocks."""
    n = len(a)
    out = [[zero] * (n * n) for _ in range(n * n)]
    for b in range(n):
        for i in range(n):
            for j in range(n):
                out[b * n + i][b * n + j] = a[j][i]
    return out


def split_blocks(m, n):
    """Split a 2n x 2n matrix into four n x n blocks."""
    tl = [row[:n] for row in m[:n]]
    tr = [row[n:] for row in m[:n]]
    bl = [row[:n] for row in m[n:]]
    br = [row[n:] for row in m[n:]]
    return tl, tr, bl, br


# -- PolyT matrices ---------------------------------------------------------


def pm_twist(a, i):
    return [[x.twist(i) for x in r] for r in a]


def pm_min_valuation(a):
    v = inf
    for r in a:
        for x in r:
            v = min(v, x.min_valuation())
    return v


def pm_det(a):
    """Laplace expansion; fine for the 2x2 and 4x4 blocks used here."""
    n = len(a)
    if n == 1:
        return a[0][0]
    acc = None
    for j in range(n):
        if a[0][j].is_zero():
            continue
        minor = [[a[r][c] for c in range(n) if c != j] for r in range(1, n)]
        term = a[0][j] * pm_det(minor)
        if j % 2 == 1:
            term = -term
        acc = term if acc is None else acc + term
    if acc is None:
        return PolyT(a[0][0].spec)
    return acc
