"""Truncated Puiseux series over the ambient finite field.

This is the computational model of the completion of the algebraic
closure of F_q((1/theta)).  The uniformizer is t = 1/theta, so v(t) = 1,
v(theta) = -1 and "near zero" means large positive valuation.

A CinfElem stores a ramification index N, an absolute precision
numerator P, and sparse terms {e: c} representing sum c * t^(e/N) over
exponent numerators e < P.  All arithmetic is exact below the tracked
precision; the only lossy step is truncation.  Precision propagation:

* add / sub:   P = min(P_x, P_y)  (at the common ramification)
* mul:         P = min(P_x + v_N(y), P_y + v_N(x)) with v_N the minimal
               stored exponent (P itself for a term-free element)
* inversion:   P = P_x - 2 v_N(x)   (relative precision preserved)
* twist by i:  P multiplies by q^i
* m-th root:   relative precision preserved

Recomputing a pipeline at higher precision and truncating reproduces
the lower-precision run bit for bit; the test suite checks this.
"""

from fractions import Fraction
from math import gcd, inf

import numpy as np

from . import _kernels
from .errors import GammaShapeError, PrecisionError
from .ffield import FFElem, find_root_in_field

_EMPTY = np.empty(0, dtype=np.int64)

# clamp for precision numerators; twisting multiplies P by q^i and the
# extra headroom beyond this is never observable at desk scale
_PREC_CAP = 1 << 44

# largest digit sum a 16-bit lane of the dense product kernels can hold
_LANE_MAX = 0xFFFF


class CinfElem:
    """Immutable truncated Puiseux series.

    Attributes: ``spec`` (FieldSpec), ``ram`` (N), ``prec`` (P, numerator
    units at ram N), ``exps`` / ``coeffs`` (canonical sparse arrays).
    """

    __slots__ = ("spec", "ram", "prec", "exps", "coeffs")

    def __init__(self, spec, ram, prec, exps=None, coeffs=None, _canonical=False):
        self.spec = spec
        self.ram = int(ram)
        self.prec = min(int(prec), _PREC_CAP)
        if exps is None:
            self.exps = _EMPTY
            self.coeffs = _EMPTY
            return
        if _canonical:
            self.exps = exps
            self.coeffs = coeffs
            return
        e = np.asarray(exps, dtype=np.int64)
        c = np.asarray(coeffs, dtype=np.int64)
        order = np.argsort(e, kind="stable")
        e, c = e[order], c[order]
        if len(e) > 1 and (e[1:] == e[:-1]).any():
            # merge repeated exponents with field addition
            me, mc = [], []
            for ei, ci in zip(e.tolist(), c.tolist()):
                if me and me[-1] == ei:
                    mc[-1] = spec.add_packed(mc[-1], ci)
                else:
                    me.append(ei)
                    mc.append(ci)
            e = np.asarray(me, dtype=np.int64)
            c = np.asarray(mc, dtype=np.int64)
        keep = (c != 0) & (e < self.prec)
        self.exps = e[keep]
        self.coeffs = c[keep]

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, spec, ram, prec):
        return cls(spec, ram, prec)

    @classmethod
    def monomial(cls, spec, ram, prec, e, coeff):
        idx = coeff.idx if isinstance(coeff, FFElem) else int(coeff)
        if idx == 0 or e >= prec:
            return cls(spec, ram, prec)
        return cls(spec, ram, prec,
                   np.asarray([e], dtype=np.int64),
                   np.asarray([idx], dtype=np.int64), _canonical=True)

    @classmethod
    def from_terms(cls, spec, ram, prec, terms):
        """terms: iterable of (exponent numerator, FFElem or packed int)."""
        es, cs = [], []
        for e, c in terms:
            es.append(e)
            cs.append(c.idx if isinstance(c, FFElem) else int(c))
        return cls(spec, ram, prec, es, cs)

    @classmethod
    def const(cls, spec, ram, prec, coeff):
        return cls.monomial(spec, ram, prec, 0, coeff)

    # -- introspection -------------------------------------------------------

    def is_zero(self):
        """Zero to the tracked precision."""
        return len(self.exps) == 0

    def valuation(self):
        """Fraction e_min / ram, or +inf for a term-free element."""
        if len(self.exps) == 0:
            return inf
        return Fraction(int(self.exps[0]), self.ram)

    def prec_units(self):
        return Fraction(self.prec, self.ram)

    def min_exp(self):
        """Minimal stored exponent numerator; precision numerator if none."""
        return int(self.exps[0]) if len(self.exps) else self.prec

    def leading(self):
        if len(self.exps) == 0:
            raise PrecisionError("no leading term: element is zero to precision")
        return int(self.exps[0]), FFElem(self.spec, int(self.coeffs[0]))

    def term_items(self):
        return [(int(e), FFElem(self.spec, int(c))) for e, c in zip(self.exps, self.coeffs)]

    def coeff_at(self, e, ram=None):
        """Coefficient of t^(e/ram) (defaults to own ram)."""
        ram = ram or self.ram
        x = self.lift_ram((self.ram * ram) // gcd(self.ram, ram))
        target = e * (x.ram // ram)
        i = np.searchsorted(x.exps, target)
        if i < len(x.exps) and x.exps[i] == target:
            return FFElem(self.spec, int(x.coeffs[i]))
        return self.spec.zero

    # -- ramification and truncation ------------------------------------------

    def lift_ram(self, new_ram):
        if new_ram == self.ram:
            return self
        if new_ram % self.ram != 0:
            raise ValueError("ramification lift must be an integer multiple")
        f = new_ram // self.ram
        return CinfElem(self.spec, new_ram, self.prec * f,
                        self.exps * f, self.coeffs, _canonical=True)

    def truncate(self, new_prec):
        """Restrict to precision numerator new_prec (no-op when larger)."""
        if new_prec >= self.prec:
            return CinfElem(self.spec, self.ram, min(new_prec, self.prec),
                            self.exps, self.coeffs, _canonical=True)
        cut = np.searchsorted(self.exps, new_prec)
        return CinfElem(self.spec, self.ram, new_prec,
                        self.exps[:cut], self.coeffs[:cut], _canonical=True)

    def _common(self, other):
        if self.spec is not other.spec:
            raise ValueError("operands over different ambient fields")
        r = (self.ram * other.ram) // gcd(self.ram, other.ram)
        return self.lift_ram(r), other.lift_ram(r)

    # -- ring operations -------------------------------------------------------

    def __add__(self, other):
        a, b = self._common(other)
        cap = min(a.prec, b.prec)
        s = a.spec
        e, c = _kernels.series_add_merge(
            a.exps, a.coeffs, b.exps, b.coeffs,
            s.log_np, s.exp_np, s.zech_np, s.lane_exp_np,
            s.order - 1, s.p, s.D, cap)
        return CinfElem(s, a.ram, cap, e, c, _canonical=True)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        if self.spec.p == 2 or len(self.coeffs) == 0:
            return self
        spec = self.spec
        lneg = spec._log[spec.p - 1]
        c = spec.exp_np[(spec.log_np[self.coeffs] + lneg) % (spec.order - 1)]
        return CinfElem(spec, self.ram, self.prec, self.exps, c, _canonical=True)

    def __mul__(self, other):
        if isinstance(other, FFElem):
            return self.scale(other)
        a, b = self._common(other)
        cap = min(a.prec + b.min_exp(), b.prec + a.min_exp())
        s = a.spec
        # a 16-bit digit lane sums up to (p - 1) * min(len) products.  The
        # kernels make the same check, but the tracked _speedups.c was
        # generated from an older _speedups.pyx without it and cannot be
        # regenerated without Cython, so the guard stays here too.
        lanes = s.lane_exp_np
        if (s.p - 1) * min(len(a.exps), len(b.exps)) > _LANE_MAX:
            lanes = None
        e, c = _kernels.series_mul(
            a.exps, a.coeffs, b.exps, b.coeffs,
            s.log_np, s.exp_np, s.zech_np, lanes,
            s.order - 1, s.p, s.D, cap)
        return CinfElem(s, a.ram, cap, e, c, _canonical=True)

    def scale(self, coeff):
        """Multiply by a field scalar (exact, precision unchanged)."""
        idx = coeff.idx if isinstance(coeff, FFElem) else int(coeff)
        if idx == 0:
            return CinfElem(self.spec, self.ram, self.prec)
        if idx == 1 or len(self.coeffs) == 0:
            return self
        spec = self.spec
        c = spec.exp_np[(spec.log_np[self.coeffs] + spec._log[idx]) % (spec.order - 1)]
        return CinfElem(spec, self.ram, self.prec, self.exps, c, _canonical=True)

    def shift(self, de):
        """Multiply by t^(de/ram): shift exponents and precision."""
        return CinfElem(self.spec, self.ram, self.prec + de,
                        self.exps + de, self.coeffs, _canonical=True)

    def __pow__(self, n):
        if n < 0:
            return c_inv(self) ** (-n)
        # square-and-multiply; precision settles through the products
        result = None
        base = self
        e = n
        while e:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if e:
                base = base * base
        if result is None:
            return CinfElem.const(self.spec, self.ram, self.prec, self.spec.one)
        return result

    # -- equality ---------------------------------------------------------------

    def __eq__(self, other):
        """Bit-exact: same content and same precision at common ramification."""
        if not isinstance(other, CinfElem):
            return NotImplemented
        a, b = self._common(other)
        return (a.prec == b.prec and len(a.exps) == len(b.exps)
                and bool(np.all(a.exps == b.exps)) and bool(np.all(a.coeffs == b.coeffs)))

    def same_terms(self, other):
        """Content equality to the joint precision, ignoring tracked prec."""
        a, b = self._common(other)
        cap = min(a.prec, b.prec)
        ta, tb = a.truncate(cap), b.truncate(cap)
        return (len(ta.exps) == len(tb.exps) and bool(np.all(ta.exps == tb.exps))
                and bool(np.all(ta.coeffs == tb.coeffs)))

    def __hash__(self):
        raise TypeError("CinfElem is not hashable")

    # -- serialization ------------------------------------------------------------

    def to_json(self):
        return {"ram": self.ram, "prec": self.prec,
                "terms": [[int(e), FFElem(self.spec, int(c)).to_json()]
                          for e, c in zip(self.exps, self.coeffs)]}

    @classmethod
    def from_json(cls, spec, obj):
        terms = [(int(e), spec.from_coeffs(c)) for e, c in obj["terms"]]
        return cls.from_terms(spec, int(obj["ram"]), int(obj["prec"]), terms)

    def __repr__(self):
        parts = [f"{FFElem(self.spec, int(c)).coeffs()}*t^({int(e)}/{self.ram})"
                 for e, c in list(zip(self.exps, self.coeffs))[:4]]
        more = "+..." if len(self.exps) > 4 else ""
        body = " + ".join(parts) if parts else "0"
        return f"<{body}{more} mod t^({self.prec}/{self.ram})>"


# ---------------------------------------------------------------------------
# named constructors


def theta(spec, ram, prec_units):
    """theta = 1/t as a series: single term at exponent -ram."""
    return CinfElem.monomial(spec, ram, prec_units * ram, -ram, spec.one)


def t_uniformizer(spec, ram, prec_units):
    return CinfElem.monomial(spec, ram, prec_units * ram, ram, spec.one)


def theta_q_pow(spec, ram, prec_units, i):
    """theta^(q^i), exact monomial."""
    return CinfElem.monomial(spec, ram, prec_units * ram, -ram * spec.q ** i, spec.one)


def theta_ij(spec, ram, prec_units, i, j):
    """theta^(q^i) - theta^(q^j); the two-term workhorse of every recursion."""
    return theta_q_pow(spec, ram, prec_units, i) - theta_q_pow(spec, ram, prec_units, j)


# ---------------------------------------------------------------------------
# operations


def c_inv(x):
    """Series inverse by leading-monomial peel and Newton doubling.

    x = c t^(e0/N) (1 + u) with v(u) > 0; the unit part is inverted by
    y -> y (2 - (1+u) y), doubling correct digits each step.
    """
    if x.is_zero():
        raise PrecisionError("inverse of an element that is zero to precision")
    e0, lead = x.leading()
    rel = x.prec - e0  # relative precision of x, preserved by inversion
    unit = x.shift(-e0).scale(lead.inv()).truncate(rel)  # 1 + u
    spec = x.spec
    two = CinfElem.const(spec, x.ram, rel, spec.scalar(2))
    y = CinfElem.const(spec, x.ram, rel, spec.one)
    # v(1 - unit*y) doubles per step; rel bounds the needed digit count
    steps = max(1, (rel - 1).bit_length() + 1)
    for _ in range(steps):
        y = (y * (two - unit * y)).truncate(rel)
    return y.scale(lead.inv()).shift(-e0).truncate(x.prec - 2 * e0)


def q_twist(x, i):
    """Exact q^i-power: exponents scale by q^i, coefficients Frobenius-twist.

    Negative i lifts the ramification by q^|i| so exponent division stays
    integral; the coefficient inverse twist always exists in the ambient
    field.  Precision multiplies by q^i.
    """
    if i == 0:
        return x
    spec = x.spec
    if i > 0:
        f = spec.q ** i
        ram = x.ram
        exps = x.exps * f
        prec = x.prec * f
    else:
        f = spec.q ** (-i)
        ram = x.ram * f
        exps = x.exps.copy()
        prec = x.prec
        if ram > (1 << 30):
            raise PrecisionError("ramification overflow in inverse twist")
    if len(x.coeffs):
        qi = pow(spec.q, i, spec.order - 1) if i > 0 else pow(
            pow(spec.q, -1, spec.order - 1), -i, spec.order - 1)
        coeffs = spec.exp_np[(spec.log_np[x.coeffs] * qi) % (spec.order - 1)]
    else:
        coeffs = x.coeffs
    return CinfElem(spec, ram, prec, exps, coeffs, _canonical=True)


def c_conj(x):
    """Conjugate the F_{q^2} coefficients, c -> c^q, exponents unchanged.

    The nontrivial automorphism of F_{q^2}/F_q applied termwise: a ring
    automorphism of the series that fixes F_q coefficients and sends
    omega to -omega, so x = P + omega Q has conjugate P - omega Q.
    Raises GammaShapeError when a coefficient lies outside F_{q^2}.
    """
    spec = x.spec
    qm1 = spec.order - 1
    logs = spec.log_np[x.coeffs]
    # F_{q^2}^* is the subgroup of logs divisible by (p^D - 1)/(q^2 - 1)
    if (logs % (qm1 // (spec.q * spec.q - 1))).any():
        raise GammaShapeError("coefficient outside F_{q^2}")
    coeffs = spec.exp_np[(logs * spec.q) % qm1]
    return CinfElem(spec, x.ram, x.prec, x.exps, coeffs, _canonical=True)


def c_root(x, m):
    """y with y^m = x, for gcd(m, p) = 1.

    Peels the leading monomial, takes the field m-th root of its
    coefficient by exhaustive scan, then Hensel-iterates
    w -> w - (w^m - u)/(m w^(m-1)) on the unit part.  The ramification is
    lifted to N*m when m does not divide the leading exponent.
    """
    spec = x.spec
    if m < 2:
        raise ValueError("root order must be at least 2")
    if m % spec.p == 0:
        raise ValueError("root order divisible by the characteristic")
    if x.is_zero():
        raise PrecisionError("root of an element that is zero to precision")
    if x.min_exp() % m != 0:
        x = x.lift_ram(x.ram * m)
    e0, lead = x.leading()
    rel = x.prec - e0
    unit = x.shift(-e0).scale(lead.inv()).truncate(rel)  # 1 + u, v(u) > 0
    poly = [-lead] + [spec.zero] * (m - 1) + [spec.one]  # X^m - lead
    root = find_root_in_field(poly)
    if root is None:
        raise PrecisionError(
            f"leading coefficient has no {m}-th root in the ambient field; raise D")
    m_inv = spec.scalar(m).inv()
    w = CinfElem.const(spec, x.ram, rel, spec.one)
    while True:
        err = (w ** m - unit).truncate(rel)
        if err.is_zero():
            break
        step = err * c_inv((w ** (m - 1)).scale(spec.scalar(m))).truncate(rel)
        w_new = (w - step).truncate(rel)
        if w_new == w:
            break
        w = w_new
    return (w.scale(root).shift(e0 // m)).truncate(e0 // m + rel)


# ---------------------------------------------------------------------------
# polynomials in the commuting variable T with series coefficients


class PolyT:
    """Polynomial in T over the truncated series ring.

    T commutes with everything and is fixed by the Frobenius twist; the
    twist acts on coefficients only.
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

    @classmethod
    def t_minus(cls, x):
        """T - x for a series x (so the linear coefficient is exactly 1)."""
        one = CinfElem.const(x.spec, x.ram, x.prec, x.spec.one)
        return cls(x.spec, (-x, one))

    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def __getitem__(self, i):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        raise IndexError(i)

    def coeff(self, i, ram=1, prec=None):
        # T-coefficients beyond the stored length are structurally zero,
        # so the fabricated zero carries the precision clamp, not a guess
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        prec = prec if prec is not None else _PREC_CAP
        ram = self.coeffs[0].ram if self.coeffs else ram
        return CinfElem.zero(self.spec, ram, prec)

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return PolyT(self.spec, [self.coeff(i) + other.coeff(i) for i in range(n)])

    def __sub__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return PolyT(self.spec, [self.coeff(i) - other.coeff(i) for i in range(n)])

    def __neg__(self):
        return PolyT(self.spec, [-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, CinfElem):
            return PolyT(self.spec, [c * other for c in self.coeffs])
        if self.is_zero() or other.is_zero():
            return PolyT(self.spec)
        out = [None] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                p = a * b
                out[i + j] = p if out[i + j] is None else out[i + j] + p
        return PolyT(self.spec, out)

    def twist(self, i):
        return PolyT(self.spec, [q_twist(c, i) for c in self.coeffs])

    def eval(self, z):
        if not self.coeffs:
            return CinfElem.zero(z.spec, z.ram, z.prec)
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * z + c
        return acc

    def truncate(self, prec):
        return PolyT(self.spec, [c.truncate(prec) for c in self.coeffs])

    def min_valuation(self):
        vals = [c.valuation() for c in self.coeffs]
        return min(vals) if vals else inf

    def __eq__(self, other):
        return (isinstance(other, PolyT) and len(self.coeffs) == len(other.coeffs)
                and all(a == b for a, b in zip(self.coeffs, other.coeffs)))

    def to_json(self):
        return [c.to_json() for c in self.coeffs]

    def __repr__(self):
        return f"PolyT(deg={self.degree()})"
