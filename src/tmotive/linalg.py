"""The one dense matrix layer, for every coefficient ring of the package.

Matrices are plain nested lists whose entries come from one ring: series
(CinfElem), polynomials in T over the series (PolyT) or polynomials in
theta over the ambient field (FFPoly).  Sums, products, transposes, block
splitting and the determinant use only + and * on entries, and twists
and valuations call the entry's own twist and valuation, so each helper
serves every ring that has the operation.  FFPoly matrices take their
determinant from ffield.ffpoly_det instead (fraction-free Bareiss):
ffield sits below this layer, its ring has exact division, and its
2n x 2n matrices would cost Laplace expansion (2n)! = 720 terms at n = 3.

Sizes stay tiny (at most a dozen rows), so the implementations favor
clarity: Gauss-Jordan with valuation pivoting for inversion and solving
over the series, division-free Laplace expansion for determinants.
"""

from math import inf

from .cinf import CinfElem, c_inv
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


def transpose(a):
    return [list(col) for col in zip(*a)]


def mat_twist(a, i):
    return [[x.twist(i) for x in r] for r in a]


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
    """Laplace expansion along the first row, skipping zero entries.

    Division-free, so it needs only + and * on entries: one body for
    series and PolyT matrices, whose sizes here stay at most 2n x 2n.
    """
    n = len(a)
    if n == 1:
        return a[0][0]
    acc = None
    for j in range(n):
        if a[0][j].is_zero():
            continue
        minor = [[a[r][c] for c in range(n) if c != j] for r in range(1, n)]
        term = a[0][j] * mat_det(minor)
        if j % 2 == 1:
            term = -term
        acc = term if acc is None else acc + term
    return a[0][0] if acc is None else acc  # a zero first row: a zero entry


# the benchmark's tracer times the determinant of Phi under this name
pm_det = mat_det


def split_blocks(m, n):
    """Split a 2n x 2n matrix into four n x n blocks."""
    tl = [row[:n] for row in m[:n]]
    tr = [row[n:] for row in m[:n]]
    bl = [row[:n] for row in m[n:]]
    br = [row[n:] for row in m[n:]]
    return tl, tr, bl, br
