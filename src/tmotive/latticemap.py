"""Periods, perturbed roots, lattices, Siegel matrices and the group action.

The pipeline from a defining matrix A to a Siegel matrix runs:

  1. the quadratic Carlitz period y0: nearest-to-zero root of the base
     exponential, found from the Newton polygon of its two lowest terms
     and refined by the fixed-point step z -> z - Exp(z);
  2. perturbed roots of Exp_A near the anchors y0 e_i and omega y0 e_i,
     same fixed-point step, each update strictly raising the residual
     valuation;
  3. the lattice basis (rows normalized by 1/y0) and its Siegel matrix
     Z, the solution of Z E1 = E2 on the two row blocks E1, E2.  The
     basis has rank 2n exactly when Z lies in the Siegel half-space: its
     imaginary part Im Z = (Z - Zbar)/(2 omega), with the bar conjugating
     the F_{q^2} coefficients, is invertible.  Each Lattice checks this on
     construction and keeps its Z, so Z is formed once per lattice.

Lattices are compared in the sense that matters here: up to a linear
transformation of the ambient space.  Equality is decided by recovering
a polynomial change of basis C over F_q[theta] between the normalized
representatives (a linear problem over F_q once written on the Siegel
matrices) and certifying C invertible with constant determinant.
"""

from fractions import Fraction
from itertools import product

import numpy as np

from . import _kernels
from .anderson import exp_coeffs, exp_eval, make_tmotive
from .cinf import CinfElem, c_conj, c_inv, c_root, contract, q_twist, theta_ij
from .errors import (GammaShapeError, PrecisionError, RecoveryError,
                     SingularMatrixError)
from .ffield import FFPoly, ffpoly_det, lane_digits, omega_split
from .linalg import (eye, mat_add, mat_det, mat_inv, mat_min_prec, mat_min_valuation,
                     mat_mul, mat_solve, mat_sub, split_blocks, transpose)

_PERIOD_CACHE = {}
_MAX_FIXED_POINT_STEPS = 256


# ---------------------------------------------------------------------------
# period


def newton_polygon_root_valuation(pairs):
    """Valuation of the nonzero root determined by the two lowest points.

    pairs: [(exponent_of_z, valuation_of_coefficient)] with the linear
    term first.  Balancing c_a z^a against c_b z^b gives
    v(z) = (v_b - v_a) / (a - b).
    """
    (a, va), (b, vb) = pairs[0], pairs[1]
    return Fraction(vb - va, a - b)


def carlitz_period(spec, ram=None, prec_units=200):
    """Nearest-to-zero root y0 of the base exponential, one fixed choice.

    The leading coefficient is the deterministic field root chosen by
    c_root, so the result is reproducible; any other choice differs by a
    factor in F_{q^2}^* and nothing downstream depends on it.
    """
    q = spec.q
    ram = ram or q * q - 1
    key = (id(spec), ram, prec_units)
    if key in _PERIOD_CACHE:
        return _PERIOD_CACHE[key][0]
    base = make_tmotive([[CinfElem.zero(spec, ram, prec_units * ram)]])
    coeffs = exp_coeffs(base, z_floor=Fraction(-q * q, q * q - 1))
    c2 = coeffs.C[2][0][0]
    v_root = newton_polygon_root_valuation([(1, 0), (q * q, c2.valuation())])
    if v_root != Fraction(-q * q, q * q - 1):
        raise PrecisionError(f"unexpected polygon slope {v_root}")
    # z^(q^2-1) = -theta_20 balances the two lowest terms exactly
    guess = c_root(-theta_ij(spec, ram, prec_units, 2, 0), q * q - 1)
    y0 = perturbed_root([guess], coeffs)[0]
    _PERIOD_CACHE[key] = [y0, None]  # 1/y0 comes with the first lattice
    return y0


def _period_and_inverse(spec, ram, prec_units):
    """y0 and 1/y0; the inverse is formed on the first call and kept
    beside y0 in the period cache."""
    y0 = carlitz_period(spec, ram, prec_units)
    entry = _PERIOD_CACHE[(id(spec), ram, prec_units)]
    if entry[1] is None:
        entry[1] = c_inv(y0)
    return y0, entry[1]


def perturbed_root(anchor, coeffs):
    """The unique root of the exponential near the anchor vector.

    Runs z -> z - Exp(z) by contract.  coeffs are exp_coeffs of the motive;
    callers compute them once and share them between all the roots they need.
    """
    def residual(z):
        r = exp_eval(coeffs, z)
        return r, min(x.valuation() for x in r)

    z, _ = contract(list(anchor), residual,
                    lambda z, r: [a - b for a, b in zip(z, r)], _MAX_FIXED_POINT_STEPS)
    return z


# ---------------------------------------------------------------------------
# lattices and Siegel matrices


class Lattice:
    """Basis rows of a discrete rank-2n module in n-space, with its Siegel matrix.

    The rows split into two n x n blocks E1 (first n rows) and E2.
    Checked on construction, on the Siegel side: E1 is invertible to
    precision, and the Siegel matrix Z, the solution of Z E1 = E2, lies
    in the Siegel half-space, i.e. Im Z = (Z - Zbar) / (2 omega) is
    invertible, which realizes the rank-2n discreteness condition at
    working precision.
    The check leaves ``siegel`` (Z) and ``v_det_im_z`` (the valuation of
    det Im Z) on the lattice.
    """

    __slots__ = ("spec", "n", "rows", "siegel", "v_det_im_z")

    def __init__(self, rows):
        self.rows = [list(r) for r in rows]
        self.n = len(rows) // 2
        self.spec = rows[0][0].spec
        if len(rows) != 2 * self.n or any(len(r) != self.n for r in rows):
            raise ValueError("need 2n rows of length n")
        self._check()

    def blocks(self):
        return [r[:] for r in self.rows[:self.n]], [r[:] for r in self.rows[self.n:]]

    def _check(self):
        """Rank 2n iff E1 and Im Z are invertible.

        Write each entry as x = P + omega Q with P, Q over F_q, and let a
        bar conjugate the F_{q^2} coefficients (c -> c^q, so omega-bar =
        -omega).  Then P = (x + xbar)/2 and Q = (x - xbar)/(2 omega), an
        invertible column operation, so the 2n x 2n matrix [P | Q] is
        invertible iff M = [[E1, E1bar], [E2, E2bar]] is.  The bar is a
        ring automorphism, so E2 = Z E1 gives E2bar = Zbar E1bar, and
        eliminating with E1:

            det M = det E1 * det(E2bar - Z E1bar)
                  = det E1 * det(Zbar - Z) * det E1bar.

        det E1bar is the conjugate of det E1, so the rank condition is
        that E1 is invertible and that det(Z - Zbar) = (2 omega)^n det Im Z
        is nonzero to precision.  E1 is not inverted: Z comes from one
        solve, E1^T Z^T = E2^T, whose elimination finds a pivot in every
        column exactly when E1 is invertible to precision.  Only the
        leading term of det(Z - Zbar) is read (whether it exists, and its
        valuation), so _leading_det forms it from truncated entries.
        """
        e1, e2 = self.blocks()
        try:
            Z = transpose(mat_solve(transpose(e1), transpose(e2)))
        except SingularMatrixError:
            raise SingularMatrixError("first block of lattice basis is singular")
        # the bar must exist on every entry, as the omega-split needs it
        for row in self.rows:
            for x in row:
                c_conj(x)
        det = _leading_det(mat_sub(Z, [[c_conj(x) for x in r] for r in Z]))
        if det.is_zero():
            raise SingularMatrixError("lattice basis does not have full rank 2n")
        self.siegel = SiegelMatrix(Z)
        self.v_det_im_z = det.valuation()


def _leading_det(m):
    """A determinant of the square series matrix m with mat_det(m)'s
    leading term, or term-free exactly when mat_det(m) is; its declared
    precision may be lower.

    The entries are cut at a cap c, starting four units (4 ram) above
    the least entry exponent lo, and c - lo doubles until the cut
    determinant shows a term or c reaches the entries' precision, where
    the cut is a no-op and this is mat_det(m).  A nonzero entry keeps at
    least its leading term, so the expansion skips the same zero entries
    and runs the same tree of products, sums and negations on truncations
    of the full operands.  Each node then declares at most the full
    node's precision and agrees with it below its own, so the cut
    determinant's first term is the full one's leading term.  A 1 x 1
    determinant is its entry, and forms nothing.
    """
    if len(m) == 1:
        return m[0][0]
    top = max(x.prec for r in m for x in r)
    lo = min((int(x.exps[0]) for r in m for x in r if len(x.exps)), default=top)
    c = min(lo + 4 * m[0][0].ram, top)
    while True:
        det = mat_det([[x.truncate(max(c, x.min_exp() + 1)) for x in r] for r in m])
        if c >= top or not det.is_zero():
            return det
        c = min(lo + 2 * (c - lo), top)


class SiegelMatrix:
    """Coordinates of the second half of a lattice basis in the first half."""

    __slots__ = ("Z",)

    def __init__(self, Z):
        self.Z = [list(r) for r in Z]


def lattice_of(motive, coeffs=None):
    """Rows are the perturbed roots at the standard anchors, scaled by 1/y0.

    At the base point this is exactly (E_n; omega E_n).
    """
    spec, n = motive.spec, motive.n
    ram = motive.ram
    y0, inv_y0 = _period_and_inverse(spec, ram, motive.prec // ram)
    if coeffs is None:
        coeffs = exp_coeffs(motive)  # certified down to the period's valuation
    w = spec.omega
    zero = CinfElem.zero(spec, y0.ram, y0.prec)
    rows = []
    for scale in (spec.one, w):
        for i in range(n):
            anchor = [y0.scale(scale) if j == i else zero for j in range(n)]
            root = perturbed_root(anchor, coeffs)
            rows.append([x * inv_y0 for x in root])
    return Lattice(rows)


def siegel_of(lattice):
    """The solution Z of Z E1 = E2 on the two row blocks.

    This is the SiegelMatrix the lattice's rank check formed, shared by
    every caller, not a copy.
    """
    return lattice.siegel


def mu34(siegel):
    """Lattice with basis rows (E_n; Z)."""
    Z = siegel.Z
    spec = Z[0][0].spec
    ram = Z[0][0].ram
    prec = mat_min_prec(Z)
    return Lattice(eye(spec, ram, prec, len(Z)) + [list(r) for r in Z])


def mu13(motive, coeffs=None):
    """Defining matrix to Siegel matrix, through the lattice."""
    return siegel_of(lattice_of(motive, coeffs=coeffs))


# ---------------------------------------------------------------------------
# the slope data of the first-order law


def d10_series(spec, ram=None, prec_units=200):
    """Partial sums of the two root-slope series, with certified tails.

    The j-th term of the unprimed series is y0^(q^(2j+1)) divided by the
    product of theta-differences theta_{2j+1, m} over odd m descending
    from 2j-1, and finally m = 0.  The primed series replaces y0 by
    omega y0.  Returns (d10, d10p); the two are never omega-proportional,
    which is what makes the first-order slope of the lattice map nonzero.
    """
    q = spec.q
    ram = ram or q * q - 1
    y0 = carlitz_period(spec, ram, prec_units)
    w = spec.omega
    target = Fraction(prec_units)
    sums = []
    for scale in (spec.one, w):
        base = y0.scale(scale)
        acc = None
        vals = []
        j = 0
        while True:
            num = q_twist(base, 2 * j + 1)
            den = None
            for m in list(range(2 * j - 1, 0, -2)) + [0]:
                f = theta_ij(spec, ram, prec_units, 2 * j + 1, m)
                den = f if den is None else den * f
            term = num * c_inv(den)
            acc = term if acc is None else acc + term
            vals.append(term.valuation())
            j += 1
            if len(vals) >= 2 and vals[-1] >= target and vals[-1] > vals[-2]:
                break
            if j > 24:
                raise PrecisionError("slope series did not certify its tail")
        sums.append(acc)
    d10, d10p = sums
    if (d10p - d10.scale(w)).is_zero():
        raise PrecisionError("omega-proportional slope series: cannot happen for odd q")
    return d10, d10p


# ---------------------------------------------------------------------------
# the block group and its fractional-linear action


class GammaElem:
    """Element (G, w^2 H; H, G) with G, H matrices over F_q[theta].

    k bounds the theta-degree of the entries.  The determinant ``det`` of
    the assembled matrix is computed once, on construction.  Membership in
    the stabilizer group additionally requires it to be a nonzero
    constant, checked by in_group().
    """

    __slots__ = ("spec", "n", "k", "G", "H", "det")

    def __init__(self, G, H, k=None):
        self.G = [list(r) for r in G]
        self.H = [list(r) for r in H]
        self.n = len(G)
        if not self.n or any(len(mat) != self.n or any(len(r) != self.n for r in mat)
                             for mat in (self.G, self.H)):
            raise GammaShapeError("G and H must be nonempty, square and of equal size")
        self.spec = G[0][0].spec
        deg = 0
        for mat in (self.G, self.H):
            for row in mat:
                for pol in row:
                    if not pol.in_prime_subfield():
                        raise GammaShapeError("entries must have F_q coefficients")
                    deg = max(deg, pol.degree())
        self.k = deg if k is None else k
        if deg > self.k:
            raise GammaShapeError(f"entry degree {deg} exceeds the bound {self.k}")
        self.det = ffpoly_det(self.assembled())
        if self.det.is_zero():
            raise GammaShapeError("assembled block matrix is singular")

    def assembled(self):
        w2 = self.spec.omega * self.spec.omega
        top = [row_g + [pol * w2 for pol in row_h]
               for row_g, row_h in zip(self.G, self.H)]
        bot = [row_h + row_g for row_g, row_h in zip(self.G, self.H)]
        return top + bot

    @classmethod
    def from_assembled(cls, spec, raw):
        """Inverse of assembled(): validate a raw 2n x 2n polynomial matrix.

        Rejects anything whose diagonal blocks differ, whose off-diagonal
        blocks are not omega^2-proportional, or whose determinant is not a
        constant unit of the base field.
        """
        m = len(raw)
        if m % 2 != 0 or any(len(r) != m for r in raw):
            raise GammaShapeError("matrix must be square of even size")
        n = m // 2
        w2 = spec.omega * spec.omega
        G, W, H, G2 = split_blocks(raw, n)
        for i in range(n):
            for j in range(n):
                if G[i][j] != G2[i][j]:
                    raise GammaShapeError("diagonal blocks differ")
                if W[i][j] != H[i][j] * w2:
                    raise GammaShapeError("upper right block is not omega^2 times lower left")
        gamma = cls(G, H)
        if not gamma.in_group():
            raise GammaShapeError("determinant is not a constant unit: not a group element")
        return gamma

    def in_group(self):
        d = self.det
        return (not d.is_zero()) and d.is_constant() and d.constant().in_subfield(1)

    def det_constant(self):
        d = self.det
        if not (d.is_constant() and not d.is_zero()):
            raise GammaShapeError("determinant is not a nonzero constant")
        return d.constant()

    def compose(self, other):
        """Block product; the shape is closed under multiplication."""
        w2 = self.spec.omega * self.spec.omega
        G1, H1, G2, H2 = self.G, self.H, other.G, other.H
        G = mat_add(mat_mul(G1, G2), [[x * w2 for x in r] for r in mat_mul(H1, H2)])
        H = mat_add(mat_mul(H1, G2), mat_mul(G1, H2))
        return GammaElem(G, H, k=self.k + other.k)

    def alpha_poly(self):
        """G + omega H as a matrix of polynomials over F_{q^2}."""
        w = self.spec.omega
        return [[g + h * w for g, h in zip(rg, rh)]
                for rg, rh in zip(self.G, self.H)]

    def to_json(self):
        return {"k": self.k,
                "G": [[p.to_json() for p in r] for r in self.G],
                "H": [[p.to_json() for p in r] for r in self.H]}

    @classmethod
    def from_json(cls, spec, obj):
        def mat(rows):
            return [[FFPoly(spec, [spec.from_coeffs(c) for c in pol]) for pol in r]
                    for r in rows]
        return cls(mat(obj["G"]), mat(obj["H"]), k=int(obj["k"]))


def gamma_from_alpha(spec, umat, k=None):
    """Split a polynomial matrix over F_{q^2} into (G, H) along {1, omega}."""
    n = len(umat)
    G, H = [], []
    for i in range(n):
        rg, rh = [], []
        for j in range(n):
            pol = umat[i][j]
            ga, gb = [], []
            for c in pol.coeffs:
                a, b = omega_split(c)
                ga.append(a)
                gb.append(b)
            rg.append(FFPoly(spec, ga))
            rh.append(FFPoly(spec, gb))
        G.append(rg)
        H.append(rh)
    return GammaElem(G, H, k=k)


def random_gamma(spec, n, k, rng):
    """Random stabilizer element of degree at most k.

    Built as a bounded product of invertible constants and elementary
    transvections on the F_{q^2}[T] side, then split back into blocks.
    For n = 1 the group collapses to the constants, so k is honorary.
    """
    fq2 = spec.subfield(2)
    units = [x for x in fq2 if x != 0]

    def rnd_unit():
        return spec.el(rng.choice(units))

    def rnd_el():
        return spec.el(rng.choice(fq2))

    if n == 1:
        u = FFPoly.const(rnd_unit())
        return gamma_from_alpha(spec, [[u]], k=k)

    def const_invertible():
        while True:
            m = [[rnd_el() for _ in range(n)] for _ in range(n)]
            mat = [[FFPoly.const(x) for x in r] for r in m]
            if not ffpoly_det(mat).is_zero():
                return mat

    budget = k
    acc = const_invertible()
    first = True
    for _ in range(rng.randrange(1, 4)):
        # spend the full budget on the first transvection so degree-k
        # elements actually occur
        d = budget if first else rng.randrange(0, budget + 1)
        first = False
        budget -= d
        i = rng.randrange(n)
        j = rng.randrange(n)
        while j == i:
            j = rng.randrange(n)
        c = rnd_unit()
        coeffs = [spec.zero] * d + [c]
        tv = [[FFPoly.const(spec.one) if a == b else FFPoly(spec)
               for b in range(n)] for a in range(n)]
        tv[i][j] = FFPoly(spec, coeffs)
        acc = mat_mul(mat_mul(acc, tv), const_invertible())
        if budget == 0:
            break
    return gamma_from_alpha(spec, acc, k=k)


def eval_poly_matrix(mat, spec, ram, prec):
    """Evaluate a matrix of theta-polynomials into series entries."""
    out = []
    for row in mat:
        orow = []
        for pol in row:
            terms = [(-ram * d, c) for d, c in enumerate(pol.coeffs) if not c.is_zero()]
            orow.append(CinfElem.from_terms(spec, ram, prec, terms))
        out.append(orow)
    return out


def mobius_raw(blocks_2n, Z):
    """Fractional-linear action Z -> (P Z + Q)(R Z + S)^(-1) of a raw matrix."""
    n = len(Z)
    spec = Z[0][0].spec
    ram = Z[0][0].ram
    prec = mat_min_prec(Z)
    m = eval_poly_matrix(blocks_2n, spec, ram, prec)
    P, Q, R, S = split_blocks(m, n)
    num = mat_add(mat_mul(P, Z), Q)
    den = mat_add(mat_mul(R, Z), S)
    return mat_mul(num, mat_inv(den))


def mobius(gamma, siegel):
    """Action of a block group element on a Siegel matrix."""
    return SiegelMatrix(mobius_raw(gamma.assembled(), siegel.Z))


# ---------------------------------------------------------------------------
# lattice equality up to an ambient linear transformation


def _fp_nullspace(a, p):
    """Nullspace basis of an integer matrix mod p (columns = unknowns).

    Gauss-Jordan elimination brings a to its reduced row echelon form,
    which is unique, so the basis depends on the row space alone: one
    vector per free column, 1 there and minus that column's pivot-row
    entries at the pivots.
    """
    a = np.array(a, dtype=np.int64) % p
    rows, cols = a.shape
    pivots = []
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        nz = np.flatnonzero(a[r:, c])
        if not len(nz):
            continue
        piv = r + int(nz[0])
        a[[r, piv]] = a[[piv, r]]
        a[r, c:] = a[r, c:] * pow(int(a[r, c]), p - 2, p) % p
        # the pivot row is zero left of c, so one outer product clears column c
        f = a[:, c].copy()
        f[r] = 0
        hit = np.flatnonzero(f)
        a[hit, c:] = (a[hit, c:] - np.outer(f[hit], a[r, c:])) % p
        pivots.append(c)
    free = np.setdiff1d(np.arange(cols), pivots)
    basis = np.zeros((len(free), cols), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = -a[:len(pivots), free].T % p
    return list(basis)


def recover_change_of_basis(Z1, Z2, deg_cap, slack_units):
    """Polynomial blocks C = [[X, Y], [U, V]] with Z1 (X + Y Z2) = U + V Z2.

    The relation is linear over F_q in the polynomial coefficients of C.
    Caps are tried in increasing order, so the first solution found is
    degree-minimal and the polynomial-scalar ambiguity c(theta) C never
    enters; at the minimal cap the solution is unique up to F_q^*.
    Solutions must verify against the full series identity to precision
    minus slack, and must have a constant nonzero determinant.

    Rows are read off the field's lane words.  In entry (i, j) the
    unknown theta^d coefficient of block entry (l, m) multiplies a fixed
    series s: Z1[i][l] (X), Z1[i][l] Z2[m][j] (Y), -1 (U) or -Z2[m][j]
    (V).  theta^d only offsets s's exponents by d s.ram, so one
    searchsorted per s reads its coefficients c at every kept exponent
    and every d.  For an F_q-basis element b, the D base-p digits of c b
    are the lanes of lane_exp_np[log c + log b], zero where c = 0; each
    digit is one F_p row.

    The rows of a cap c are the first wants[c] exponents of the union of
    the entry's series' shifted exponents, so the non-product series
    alone bound them (_last_read), and each product Z1[i][l] Z2[m][j] is
    formed only up to the last exponent any cap up to deg_cap reads in it:
    the system, row for row, is the one full products give.  (When the
    rows are cut at a certified precision instead, the bound is taken on
    the cut non-product exponents.)
    """
    spec = Z1[0][0].spec
    p = spec.p
    qm1 = spec.order - 1
    n = len(Z1)
    ram = Z1[0][0].ram
    prec = min(mat_min_prec(Z1), mat_min_prec(Z2))
    tol = Fraction(prec, ram) - slack_units
    log_b = spec.log_np[spec.subfield_basis(1)]
    stride = len(log_b)
    basis_digits = lane_digits(spec.lane_exp_np[log_b], spec.D)
    log_neg = int(spec.log_np[p - 1])
    one = CinfElem.const(spec, ram, prec, spec.one)

    # rows an entry reads at each cap: three per F_p unknown over the n^2
    # entries, and at least 24
    wants = [max(24, (3 * 4 * n * n * (cap + 1) * stride) // max(1, n * n) + 8)
             for cap in range(deg_cap + 1)]

    # per entry (i, j): ((block, l, m), series, negated) for the blocks
    # X, Y, U, V numbered 0-3, the order the unknowns run in before d
    entries = []
    for i in range(n):
        for j in range(n):
            top = _last_read([one] + Z1[i] + [r[j] for r in Z2], ram, wants)
            terms = [((2, i, j), one, True)]
            for l in range(n):
                terms.append(((0, l, j), Z1[i][l], False))
                terms.append(((3, i, l), Z2[l][j], True))
                terms += [((1, l, m), _product_below(Z1[i][l], Z2[m][j], top), False)
                          for m in range(n)]
            entries.append([t for t in terms if len(t[1].exps)])

    for cap, want in enumerate(wants):
        offs = np.arange(cap + 1)
        blocks = []
        for terms in entries:
            if not terms:
                continue
            exps = _kernels.distinct(np.concatenate(
                [(s.exps - (offs * s.ram)[:, None]).ravel() for _, s, _ in terms]))[:want]
            # rows (exponent, digit), columns (block, l, m, d, basis element)
            block = np.zeros((len(exps), spec.D, 4, n, n, cap + 1, stride), dtype=np.int64)
            for (blk, l, m), s, neg in terms:
                target = exps + (offs * s.ram)[:, None]
                at = np.minimum(np.searchsorted(s.exps, target), len(s.exps) - 1)
                log_c = spec.log_np[s.coeffs[at]] + (log_neg if neg else 0)
                words = spec.lane_exp_np[(log_c[..., None] + log_b) % qm1]
                words[s.exps[at] != target] = 0
                block[:, :, blk, l, m] = lane_digits(words, spec.D).transpose(1, 3, 0, 2)
            blocks.append(block.reshape(len(exps) * spec.D, -1))
        if not blocks:
            continue
        null = _fp_nullspace(np.concatenate(blocks), p)
        if not null:
            continue
        if len(null) > 3:
            raise RecoveryError(f"ambiguous recovery: nullspace dimension {len(null)}")
        for combo in _fq_combinations(null, p):
            C = _combo_to_blocks(spec, combo, basis_digits, n, cap)
            if C is None:
                continue
            if _verify_change_of_basis(C, Z1, Z2, tol):
                return C
    raise RecoveryError(f"no polynomial change of basis up to degree {deg_cap}")


def _last_read(series, ram, wants):
    """The highest exponent an entry's rows can read in a product, or None.

    At cap c the rows are the first wants[c] values of the union U_c of
    the entry's series' exponents, each shifted by -d ram for d <= c, and
    a product is read at those values + d ram.  The non-product series
    give a subset A_c of U_c, so the wants[c]-th value of A_c bounds the
    rows; None when some A_c has fewer values.
    """
    tops = []
    for cap, want in enumerate(wants):
        offs = np.arange(cap + 1)
        vals = _kernels.distinct(np.concatenate(
            [(s.exps - (offs * s.ram)[:, None]).ravel() for s in series]))
        if len(vals) < want:
            return None
        tops.append(int(vals[want - 1]) + cap * ram)
    return max(tops, default=None)


def _product_below(a, b, top):
    """a * b with every term at an exponent <= top; all of it for None."""
    if top is None:
        return a * b
    return a.truncate(top + 1 - b.min_exp()) * b.truncate(top + 1 - a.min_exp())


def _fq_combinations(null, p):
    """Nonzero F_p-combinations of up to three nullspace vectors."""
    k = len(null)
    for coeffs in product(range(p), repeat=k):
        if all(c == 0 for c in coeffs):
            continue
        yield sum(c * v for c, v in zip(coeffs, null)) % p


def _combo_to_blocks(spec, vec, basis_digits, n, cap):
    """The blocks C of a nullspace vector, or None unless det C is an F_q unit.

    Each unknown's F_p coordinates times the digit matrix of the F_q basis
    give its coefficient's digits, packed base p.
    """
    p = spec.p
    digits = vec.reshape(-1, len(basis_digits)) @ basis_digits % p
    packed = (digits @ p ** np.arange(spec.D)).reshape(4, n, n, cap + 1)
    X, Y, U, V = [[[FFPoly(spec, [spec.el(int(x)) for x in packed[blk, l, m]])
                    for m in range(n)] for l in range(n)] for blk in range(4)]
    C = [bx + by for bx, by in zip(X, Y)] + [bu + bv for bu, bv in zip(U, V)]
    det = ffpoly_det(C)
    if det.is_zero() or not det.is_constant() or not det.constant().in_subfield(1):
        return None
    return C


def _verify_change_of_basis(C, Z1, Z2, tol):
    n = len(Z1)
    spec = Z1[0][0].spec
    ram = Z1[0][0].ram
    prec = min(mat_min_prec(Z1), mat_min_prec(Z2))
    m = eval_poly_matrix(C, spec, ram, prec)
    X, Y, U, V = split_blocks(m, n)
    lhs = mat_mul(Z1, mat_add(X, mat_mul(Y, Z2)))
    rhs = mat_add(U, mat_mul(V, Z2))
    return mat_min_valuation(mat_sub(lhs, rhs)) >= tol


def lattices_equal(l1, l2, deg_cap=8, slack_units=10):
    """Equality of lattice classes via change-of-basis recovery.

    Returns (True, C) with the recovered blocks on success; (False, None)
    when no bounded-degree polynomial change of basis verifies.
    """
    Z1 = siegel_of(l1).Z
    Z2 = siegel_of(l2).Z
    try:
        C = recover_change_of_basis(Z1, Z2, deg_cap, slack_units)
    except RecoveryError:
        return False, None
    return True, C
