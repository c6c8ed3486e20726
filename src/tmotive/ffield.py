"""Exact arithmetic in a fixed ambient finite field F_{p^D}.

The ambient field houses every scalar of the package: the quadratic
element omega in F_{q^2} - F_q, the roots that c_root takes of leading
coefficients (the period's among them), and all series coefficients.  Elements are
stored as integers in [0, p^D) packing the coefficient vector base p
(low degree first).  A FieldSpec builds discrete log / exp tables and
the lane word of every element once, from the digit vectors of the
generator's powers (multiplying by it is an F_p-linear map on digit
vectors, one D x D matrix mod p): multiplication, inversion and
Frobenius are O(1) table lookups, and addition adds two lane words and
reads each digit back mod p.  The same tables back the series kernels.

q = p^s must be odd: the stabilizer block shape (G, w^2 H; H, G) needs
an omega with omega^2 in F_q, which no even-q field provides.

Poly is the one dense-polynomial arithmetic of the package, shared by
both of its polynomial rings: FFPoly here (F_q[theta], for the block
group elements and their exact determinants) and cinf.PolyT (the
T-polynomials over the series).  det, beside it, is the one determinant
of the package, for FFPoly, PolyT and series matrices alike.
"""

from functools import lru_cache
from math import gcd

import numpy as np

from .errors import FieldError, FieldMismatchError, GammaShapeError


# ---------------------------------------------------------------------------
# dense polynomial helpers over F_p (coefficient tuples, low degree first)

def _ptrim(c):
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return tuple(c[:i])


def _pmod(a, m, p):
    # remainder of a modulo monic-normalized m
    a = list(a)
    dm = len(m) - 1
    inv_lead = pow(m[-1], p - 2, p)
    while len(a) - 1 >= dm and len(a) > 0:
        c = (a[-1] * inv_lead) % p
        if c:
            off = len(a) - 1 - dm
            for j, mj in enumerate(m):
                a[off + j] = (a[off + j] - c * mj) % p
        a.pop()
    return _ptrim(a)


def _factor(n):
    """The distinct prime factors of n, ascending ([] for n < 2)."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _irreducible(mod, p):
    """Trial division of a monic polynomial against all monic polynomials
    of degree at most deg/2.  Feasible for the desk-scale degrees used here."""
    deg = len(mod) - 1
    for d in range(1, deg // 2 + 1):
        for packed in range(p ** d):
            div = _digits(packed, p, d) + (1,)
            if _pmod(mod, div, p) == ():
                return False
    return True


def _digits(packed, p, width):
    out = []
    for _ in range(width):
        packed, r = divmod(packed, p)
        out.append(r)
    return tuple(out)


def _pack(digits, p):
    out = 0
    for d in reversed(digits):
        out = out * p + d
    return out


def default_modulus(p, D):
    """Smallest monic irreducible of degree D over F_p in packed order.

    Deterministic, so a (p, D) pair always names the same ambient field.
    """
    for packed in range(p ** D):
        cand = _digits(packed, p, D) + (1,)
        if _irreducible(cand, p):
            return list(cand)
    raise FieldError(f"no irreducible polynomial of degree {D} over F_{p}")


def _matpow(M, e, p):
    """M^e mod p by square and multiply (sums stay below D p^2)."""
    acc = np.eye(len(M), dtype=np.int64)
    while e:
        if e & 1:
            acc = acc @ M % p
        M = M @ M % p
        e >>= 1
    return acc


@lru_cache(maxsize=None)
def _lane_shifts(D):
    """b * arange(D), b = 64 // D: each lane's shift, built once per D and
    read-only, since every call shares it."""
    shifts = (64 // D) * np.arange(D, dtype=np.int64)
    shifts.flags.writeable = False
    return shifts


def lane_digits(words, D):
    """The D lanes of lane words (FieldSpec.lane_np: digit d in bits
    [b*d, b*d + b), b = 64 // D), on a new last axis; the lane shifts
    come from _lane_shifts, so a call builds no constant."""
    return (words[..., None] >> _lane_shifts(D)) & ((1 << 64 // D) - 1)


# ---------------------------------------------------------------------------


class FieldSpec:
    """Ambient field F_{p^D} containing F_q = F_{p^s}, with 2s | D.

    Packed representation: sum(coeffs[i] * p**i) in [0, p^D).  Tables:

    * ``exp[j]``  packed value of g**j for a fixed generator g,
    * ``log[x]``  discrete log of packed x (log[0] = -1),
    * ``lane_np[x]`` the D digits of packed x, digit d in bits
      [b*d, b*d + b) of one int64 word, b = 64 // D, and
      ``lane_exp_np[j] = lane_np[exp[j mod (Q - 1)]]`` for j < 2(Q - 1),
      Q = p^D: the table twice over, so that the series kernels index it
      by a sum of two logs with no modulo.

    Addition is digit-wise mod p: x + y adds lane_np[x] and lane_np[y]
    and reduces each lane mod p, as the series kernels do for arrays.
    """

    def __init__(self, p, s=1, D=None):
        if _factor(p) != [p]:
            raise FieldError(f"p = {p} is not prime")
        if s < 1:
            raise FieldError("s must be positive")
        q = p ** s
        if q % 2 == 0:
            raise FieldError("even q is not supported: no omega with omega^2 in F_q exists")
        if D is None:
            D = 4 * s
        if D % (2 * s) != 0:
            raise FieldError(f"D = {D} must be a multiple of 2s = {2 * s}")
        self.p = p
        self.s = s
        self.q = q
        self.D = D
        self.order = p ** D
        self.modulus = tuple(default_modulus(p, D))
        self._build_tables()
        self._subfield_cache = {}

    # -- table construction ------------------------------------------------

    def _find_generator(self, X):
        """First packed g >= 2 of full order, with its multiplication
        matrix g(X); X multiplies a digit vector by x."""
        p, qm1 = self.p, self.order - 1
        cofactors = [qm1 // ell for ell in _factor(qm1)]
        eye = np.eye(self.D, dtype=np.int64)
        for cand in range(2, self.order):
            digits = _digits(cand, p, self.D)
            M = digits[-1] * eye
            for c in reversed(digits[:-1]):  # Horner's rule
                M = (M @ X + c * eye) % p
            if not any(np.array_equal(_matpow(M, e, p), eye) for e in cofactors):
                return cand, M
        raise FieldError("no multiplicative generator found")

    def _build_tables(self):
        p, D, Q = self.p, self.D, self.order
        # multiplying by x maps digit vector e_j to e_(j+1), and e_(D-1) to
        # the digits of x^D = -(m_0 + ... + m_(D-1) x^(D-1))
        X = np.zeros((D, D), dtype=np.int64)
        X[1:, :-1] = np.eye(D - 1, dtype=np.int64)
        X[:, -1] = -np.asarray(self.modulus[:D], dtype=np.int64) % p
        g, M = self._find_generator(X)
        # column j of V is the digit vector of g^j; while M = g^n, the
        # next block g^n, ..., g^(2n - 1) is M times the first n columns
        V = np.zeros((D, Q - 1), dtype=np.int64)
        V[0, 0] = 1
        n = 1
        while n < Q - 1:
            V[:, n:2 * n] = M @ V[:, :min(n, Q - 1 - n)] % p
            M = M @ M % p
            n *= 2
        self.generator = g
        self.exp_np = p ** np.arange(D, dtype=np.int64) @ V
        self.log_np = np.full(Q, -1, dtype=np.int64)
        self.log_np[self.exp_np] = np.arange(Q - 1, dtype=np.int64)
        self._exp = self.exp_np.tolist()
        self._log = self.log_np.tolist()
        # one word per element, so a sum adds each term with one integer add
        bits = 64 // D
        lane_exp = (1 << bits * np.arange(D, dtype=np.int64)) @ V
        self.lane_np = np.zeros(Q, dtype=np.int64)
        self.lane_np[self.exp_np] = lane_exp
        # twice over, so a sum of two logs indexes it with no modulo
        self.lane_exp_np = np.concatenate((lane_exp, lane_exp))
        # add_packed's scalar form of lane_digits
        self._lane = self.lane_np.tolist()
        self._lane_places = [(bits * d, p ** d) for d in range(D)]
        self._lane_mask = (1 << bits) - 1

    # -- packed scalar ops ---------------------------------------------------

    def add_packed(self, a, b):
        w = self._lane[a] + self._lane[b]
        p, mask = self.p, self._lane_mask
        return sum((w >> bit & mask) % p * weight for bit, weight in self._lane_places)

    def neg_packed(self, a):
        if a == 0 or self.p == 2:
            return a
        return self._exp[(self._log[a] + self._log[self.p - 1]) % (self.order - 1)]

    def mul_packed(self, a, b):
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.order - 1)]

    def inv_packed(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero in the ambient field")
        return self._exp[(-self._log[a]) % (self.order - 1)]

    def pow_packed(self, a, e):
        if a == 0:
            if e < 0:
                raise ZeroDivisionError("inverse of zero in the ambient field")
            return 0 if e else 1
        return self._exp[(self._log[a] * e) % (self.order - 1)]

    def frob_packed(self, a, i):
        # a^(q^i); negative i uses the inverse automorphism, which always
        # exists because gcd(q, p^D - 1) = 1
        if a == 0:
            return 0
        qi = pow(self.q, i, self.order - 1) if i >= 0 else pow(
            pow(self.q, -1, self.order - 1), -i, self.order - 1)
        return self._exp[(self._log[a] * qi) % (self.order - 1)]

    # -- elements ------------------------------------------------------------

    def el(self, packed):
        return FFElem(self, packed % self.order)

    def from_coeffs(self, coeffs):
        if len(coeffs) > self.D:
            raise FieldError("coefficient vector longer than ambient degree")
        digs = tuple(c % self.p for c in coeffs) + (0,) * (self.D - len(coeffs))
        return FFElem(self, _pack(digs, self.p))

    @property
    def zero(self):
        return FFElem(self, 0)

    @property
    def one(self):
        return FFElem(self, 1)

    def scalar(self, n):
        """Image of the integer n under the prime field embedding."""
        return FFElem(self, n % self.p)

    def subfield(self, m):
        """Packed values of the subfield F_{q^m}, ascending.  Requires m*s | D."""
        if (m * self.s) and self.D % (m * self.s) != 0:
            raise FieldError(f"F_(q^{m}) does not embed in the ambient field")
        if m not in self._subfield_cache:
            size = self.q ** m
            # x != 0 lies in the subfield iff x^(size - 1) = 1
            mask = self.log_np * (size - 1) % (self.order - 1) == 0
            mask[0] = True
            out = np.flatnonzero(mask).tolist()
            if len(out) != size:
                raise FieldError("subfield enumeration failed")
            self._subfield_cache[m] = out
        return self._subfield_cache[m]

    def subfield_basis(self, m):
        """F_p-basis of F_{q^m} inside the ambient field.

        Powers of a multiplicative generator of the subfield; for the
        prime field this is just [1].
        """
        dim = m * self.s
        if dim == 1:
            return [1]
        size = self.q ** m
        for x in self.subfield(m):
            if x and (self.order - 1) // gcd(self._log[x], self.order - 1) == size - 1:
                return [self.pow_packed(x, j) for j in range(dim)]
        raise FieldError("no generator found for the requested subfield")

    @property
    def omega(self):
        """Fixed element of F_{q^2} - F_q whose square lies in F_q.

        Chosen as the first packed value satisfying both conditions, so the
        choice is reproducible per (p, s, D).
        """
        if not hasattr(self, "_omega"):
            for x in self.subfield(2):
                if x == 0:
                    continue
                e = FFElem(self, x)
                if e.frobenius(1) != e and (e * e).frobenius(1) == e * e:
                    self._omega = e
                    break
            else:
                raise FieldError("no omega in F_{q^2} - F_q with omega^2 in F_q")
        return self._omega

    def check(self, other):
        if self is not other:
            raise FieldMismatchError("elements from different ambient fields")

    def __repr__(self):
        return f"FieldSpec(p={self.p}, s={self.s}, D={self.D})"


@lru_cache(maxsize=8)
def ambient_field(p, s=1, D=None):
    """Shared FieldSpec per (p, s, D); table building runs once."""
    return FieldSpec(p, s, D)


class FFElem:
    """Element of the ambient field, immutable, packed representation."""

    __slots__ = ("spec", "idx")

    def __init__(self, spec, idx):
        self.spec = spec
        self.idx = idx

    # -- ring structure ----------------------------------------------------

    def __add__(self, other):
        self.spec.check(other.spec)
        return FFElem(self.spec, self.spec.add_packed(self.idx, other.idx))

    def __sub__(self, other):
        self.spec.check(other.spec)
        return FFElem(self.spec, self.spec.add_packed(self.idx, self.spec.neg_packed(other.idx)))

    def __neg__(self):
        return FFElem(self.spec, self.spec.neg_packed(self.idx))

    def __mul__(self, other):
        self.spec.check(other.spec)
        return FFElem(self.spec, self.spec.mul_packed(self.idx, other.idx))

    def __truediv__(self, other):
        self.spec.check(other.spec)
        return FFElem(self.spec, self.spec.mul_packed(self.idx, self.spec.inv_packed(other.idx)))

    def __pow__(self, e):
        return FFElem(self.spec, self.spec.pow_packed(self.idx, e))

    def inv(self):
        return FFElem(self.spec, self.spec.inv_packed(self.idx))

    def frobenius(self, i=1):
        """q-power Frobenius iterate: self**(q**i).  Negative i inverts."""
        return FFElem(self.spec, self.spec.frob_packed(self.idx, i))

    # -- predicates, conversion ---------------------------------------------

    def is_zero(self):
        return self.idx == 0

    def in_subfield(self, m):
        return self.frobenius(m) == self

    def coeffs(self):
        return list(_digits(self.idx, self.spec.p, self.spec.D))

    def to_json(self):
        return self.coeffs()

    def __eq__(self, other):
        return isinstance(other, FFElem) and self.spec is other.spec and self.idx == other.idx

    def __hash__(self):
        return hash((id(self.spec), self.idx))

    def __repr__(self):
        return f"ff{self.coeffs()}"


# ---------------------------------------------------------------------------
# roots and the omega split


def find_root_in_field(poly):
    """First root (ascending packed order) of a polynomial with FFElem
    coefficients, or None.  Exhaustive scan; the ambient fields are tiny."""
    coeffs = [c for c in poly]
    if all(c.is_zero() for c in coeffs):
        raise ValueError("zero polynomial")
    spec = coeffs[0].spec
    rev = [c.idx for c in reversed(coeffs)]
    for x in range(spec.order):
        acc = 0
        for c in rev:
            acc = spec.mul_packed(acc, x)
            if c:  # c_root's X^m - lead has two nonzero coefficients
                acc = spec.add_packed(acc, c)
        if acc == 0:
            return FFElem(spec, x)
    return None


def omega_split(x):
    """Write x in F_{q^2} as a + omega*b with a, b in F_q.

    Uses a = (x + x^q)/2 and b = (x - x^q)/(2 omega); q odd makes 2 a unit.
    Raises GammaShapeError when x is not in F_{q^2}.
    """
    spec = x.spec
    if not x.in_subfield(2):
        raise GammaShapeError("coefficient outside F_{q^2}")
    xq = x.frobenius(1)
    two = spec.scalar(2)
    a = (x + xq) / two
    b = (x - xq) / (two * spec.omega)
    return a, b


# ---------------------------------------------------------------------------
# dense polynomials


class Poly:
    """Dense polynomial over a coefficient ring, ascending degree.

    The arithmetic asks nothing of a coefficient but +, -, * and is_zero,
    so one class serves both polynomial rings of the package: FFPoly over
    the ambient field and cinf.PolyT over the series.  Trailing
    coefficients that are zero (to precision, for series) are trimmed on
    construction, and every result has the class of its left operand.
    """

    __slots__ = ("spec", "coeffs")

    def __init__(self, spec, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1].is_zero():
            cs.pop()
        self.spec = spec
        self.coeffs = tuple(cs)

    @classmethod
    def const(cls, c):
        return cls(c.spec, (c,))

    def degree(self):
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self):
        return not self.coeffs

    # past the shorter operand the longer one's tail is copied: adding a
    # zero there gives the same element, at the cost of a series merge
    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        tail = a[len(b):] + b[len(a):]
        return type(self)(self.spec, [x + y for x, y in zip(a, b)] + list(tail))

    def __sub__(self, other):
        a, b = self.coeffs, other.coeffs
        tail = list(a[len(b):]) + [-y for y in b[len(a):]]
        return type(self)(self.spec, [x - y for x, y in zip(a, b)] + tail)

    def __neg__(self):
        return type(self)(self.spec, [-c for c in self.coeffs])

    def __mul__(self, other):
        if not isinstance(other, Poly):  # a scalar of the coefficient ring
            return type(self)(self.spec, [c * other for c in self.coeffs])
        if self.is_zero() or other.is_zero():
            return type(self)(self.spec)
        out = [None] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                p = a * b
                out[i + j] = p if out[i + j] is None else out[i + j] + p
        return type(self)(self.spec, out)

    def __eq__(self, other):
        return type(other) is type(self) and self.coeffs == other.coeffs

    def to_json(self):
        return [c.to_json() for c in self.coeffs]

    def __repr__(self):
        return f"{type(self).__name__}({list(self.coeffs)})"


def det(rows):
    """Determinant of a square matrix over any commutative ring of the
    package (FFPoly, PolyT, CinfElem): Laplace expansion along the first
    row, skipping zero entries, with each minor formed once.

    The minor on column subset cols (ascending) takes the last len(cols)
    rows, so the subset alone names it.  A dense n x n takes n 2^(n-1) - n
    entry products.  The expression tree is the naive expansion's, zero
    first rows included (they return their zero first entry), so series
    determinants keep its values and declared precisions.
    """
    if len(rows) == 0:
        raise ValueError("empty matrix")
    return _minor(rows, {}, tuple(range(len(rows))))


def _minor(rows, memo, cols):
    """det's minor on column subset cols and the last len(cols) rows,
    memoized in memo (a module-level function, so a call leaves no
    reference cycle through a closure)."""
    row = rows[len(rows) - len(cols)]
    if len(cols) == 1:
        return row[cols[0]]
    if cols in memo:
        return memo[cols]
    acc = None
    for j, c in enumerate(cols):
        if row[c].is_zero():
            continue
        term = row[c] * _minor(rows, memo, cols[:j] + cols[j + 1:])
        if j % 2 == 1:
            term = -term
        acc = term if acc is None else acc + term
    memo[cols] = out = row[cols[0]] if acc is None else acc
    return out


# the benchmark's tracer times FFPoly determinants under this name
ffpoly_det = det


class FFPoly(Poly):
    """Polynomial in theta over the ambient field.

    Used for the entries of the block group elements over F_q[theta] and
    for their exact determinants and unit inverses.
    """

    __slots__ = ()

    @classmethod
    def theta(cls, spec):
        return cls(spec, (spec.zero, spec.one))

    def is_constant(self):
        return len(self.coeffs) <= 1

    def constant(self):
        return self.coeffs[0] if self.coeffs else self.spec.zero

    def __getitem__(self, i):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else self.spec.zero

    def in_prime_subfield(self):
        return all(c.in_subfield(1) for c in self.coeffs)


def ffpoly_adjugate(rows):
    """Adjugate of a square FFPoly matrix by cofactor expansion."""
    n = len(rows)
    spec = rows[0][0].spec
    if n == 1:
        return [[FFPoly.const(spec.one)]]
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [[rows[r][c] for c in range(n) if c != j]
                     for r in range(n) if r != i]
            cof = ffpoly_det(minor)
            if (i + j) % 2 == 1:
                cof = -cof
            out[j][i] = cof
    return out


def ffpoly_unit_inv(rows):
    """Inverse of a polynomial matrix with constant nonzero determinant.

    Such inverses are again polynomial: adjugate over the determinant.
    """
    d = ffpoly_det(rows)
    if d.is_zero() or not d.is_constant():
        raise ArithmeticError("matrix determinant is not a constant unit")
    dinv = d.constant().inv()
    adj = ffpoly_adjugate(rows)
    return [[p * dinv for p in r] for r in adj]
