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
* dot:         sum of products a_k b_k plus addends x_m, in one kernel
               call: P = the least of each product's mul precision and
               each addend's P, that of the chained sum
* inversion:   P = P_x - 2 v_N(x)   (relative precision preserved)
* twist by i:  P multiplies by q^i
* m-th root:   relative precision preserved

Recomputing a pipeline at higher precision and truncating reproduces
the lower-precision run bit for bit; the test suite checks this.

PolyT, the polynomials in the commuting variable T over these series,
takes its ring arithmetic from ffield.Poly.
"""

from fractions import Fraction
from math import gcd, inf, lcm

import numpy as np

from . import _kernels
from .errors import GammaShapeError, NonContractionError, PrecisionError
from .ffield import FFElem, Poly, find_root_in_field

_EMPTY = np.empty(0, dtype=np.int64)

# clamp for precision numerators (twisting multiplies P by q^i); a
# clamped series drops its terms at or past the clamp
_PREC_CAP = 1 << 44
_INT64_MAX = (1 << 63) - 1


class CinfElem:
    """Immutable truncated Puiseux series.

    Attributes: ``spec`` (FieldSpec), ``ram`` (N), ``prec`` (P, numerator
    units at ram N), ``exps`` / ``coeffs`` (canonical sparse arrays).
    """

    __slots__ = ("spec", "ram", "prec", "exps", "coeffs")

    def __init__(self, spec, ram, prec, exps=None, coeffs=None, _canonical=False):
        self.spec = spec
        self.ram = int(ram)
        self.prec = int(prec)
        if exps is None:
            exps = coeffs = _EMPTY
        elif not _canonical:
            # sort, field-add the coefficients of repeated exponents, cut
            e = np.asarray(exps, dtype=np.int64)
            exps, coeffs = _kernels.sum_terms(e, np.asarray(coeffs, dtype=np.int64),
                                              spec.lane_np, spec.p, spec.D, self.prec, len(e))
        if self.prec > _PREC_CAP:
            self.prec = _PREC_CAP
            cut = np.searchsorted(exps, _PREC_CAP)
            exps, coeffs = exps[:cut], coeffs[:cut]
        self.exps = exps
        self.coeffs = coeffs

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
            s.log_np, s.exp_np, s.lane_np, s.lane_exp_np,
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
        cap = _product_prec(a, b)
        s = a.spec
        e, c = _kernels.series_mul(
            a.exps, a.coeffs, b.exps, b.coeffs,
            s.log_np, s.exp_np, s.lane_np, s.lane_exp_np,
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

    def twist(self, i):
        """The q^i-power q_twist(self, i)."""
        return q_twist(self, i)

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


def _product_prec(a, b):
    """The declared precision of a * b at a common ramification."""
    return min(a.prec + b.min_exp(), b.prec + a.min_exp())


def dot(pairs, adds=()):
    """sum(a * b for a, b in pairs) + sum(adds), in one kernel call.

    Every operand is lifted to the lcm ramification, and the kernel runs
    up to the least precision a term of the chained sum declares (each
    product's as in __mul__, each addend's own), so it forms no product
    term at or past it.  The bits and the precision are those of the
    chained a * b + c * d + ... + x: field addition is associative and
    commutative, a sum keeps the least precision of its terms, and a
    product's terms below a cap do not depend on operand terms that can
    only land above it.  (Near _PREC_CAP, mixed ramifications are the one
    exception: the chain clamps each product's operands at that pair's own
    lcm, this at the lcm of all.)
    """
    pairs, adds = list(pairs), list(adds)
    ops = [x for ab in pairs for x in ab] + adds
    s = ops[0].spec
    if any(x.spec is not s for x in ops):
        raise ValueError("operands over different ambient fields")
    ram = lcm(*(x.ram for x in ops))
    pairs = [(a.lift_ram(ram), b.lift_ram(ram)) for a, b in pairs]
    adds = [x.lift_ram(ram) for x in adds]
    cap = min([_product_prec(a, b) for a, b in pairs] + [x.prec for x in adds])
    e, c = _kernels.series_dot(
        [(a.exps, a.coeffs, b.exps, b.coeffs) for a, b in pairs],
        [(x.exps, x.coeffs) for x in adds],
        s.log_np, s.lane_np, s.lane_exp_np, s.order - 1, s.p, s.D, cap)
    return CinfElem(s, ram, cap, e, c, _canonical=True)


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


def inv_theta_i0(spec, ram, prec_units, i):
    """(theta^(q^i) - theta)^(-1) for i >= 1, in closed form.

    With Q = q^i, theta^Q - theta = t^(-Q) (1 - t^(Q-1)), so the inverse
    is the geometric series t^Q sum_(k>=0) t^(k(Q-1)): coefficient 1 at
    every numerator N Q + k N (Q - 1).  The declared precision is c_inv's
    on theta_ij(spec, ram, prec_units, i, 0), P + 2 N Q with P =
    prec_units * N, clamped at _PREC_CAP by the constructor.
    """
    Q = spec.q ** i
    prec = prec_units * ram + 2 * ram * Q
    exps = np.arange(ram * Q, prec, ram * (Q - 1), dtype=np.int64)
    return CinfElem(spec, ram, prec, exps, np.full(len(exps), spec.one.idx, dtype=np.int64),
                    _canonical=True)


# ---------------------------------------------------------------------------
# operations


def _peel(x):
    """x = lead t^(e0/N) (1 + u) with v(u) > 0, as (e0, lead, 1 + u);
    1 + u keeps the relative precision P - e0 of x."""
    e0, lead = x.leading()
    return e0, lead, x.shift(-e0).scale(lead.inv())


def _newton_inv_root(unit, m):
    """unit^(-1/m) for a unit 1 + w with v(w) > 0 and p not dividing m.

    Newton's iteration y -> y ((m + 1) - unit y^m) / m (Brent-Kung 1978)
    on a halving schedule that starts at the precision already known:
    with e1 the first exponent of w (rel when unit is exactly 1), y = 1 is
    exact mod t^(e1/N).  P_J = rel and P_(j-1) = ceil(P_j / 2) while
    P_j > e1, so P_0 <= e1 < P_1, and step j >= 1 runs on y and unit at
    precision P_j.  v(1 - unit y^m) at least doubles per step, so y
    enters step j exact below P_(j-1) >= P_j / 2 and leaves it exact below
    P_j; the J steps (none when rel <= e1, and then no product is formed)
    end at the unique unit^(-1/m) mod t^(rel/N), the same bits a run of
    every step at full precision gives.
    """
    spec, rel = unit.spec, unit.prec
    e1 = int(unit.exps[1]) if len(unit.exps) > 1 else rel
    schedule = [rel]
    while schedule[-1] > e1:
        schedule.append((schedule[-1] + 1) // 2)
    y = CinfElem.const(spec, unit.ram, schedule[-1], spec.one)
    top = CinfElem.const(spec, unit.ram, rel, spec.scalar(m + 1))
    m_inv = spec.scalar(m).inv()
    for p in reversed(schedule[:-1]):
        # raise y's declared precision; its terms are exact below ceil(p / 2)
        y = CinfElem(spec, unit.ram, p, y.exps, y.coeffs, _canonical=True)
        u = unit.truncate(p)
        y = (y * (top - u * y ** m)).scale(m_inv).truncate(p)
    return y


def contract(x, update, apply, cap):
    """Refine x -> apply(x, delta) until update(x) = (delta, v) has v = +inf.

    Each valuation v must strictly exceed the one before, certifying that
    the map contracts.  Returns x and the number of updates applied; raises
    NonContractionError when v fails to rise or cap updates do not settle.
    """
    v_prev = -inf
    for steps in range(cap):
        delta, v = update(x)
        if v == inf:
            return x, steps
        if v <= v_prev:
            raise NonContractionError(
                f"update valuation stalled at step {steps}: {v_prev} -> {v}")
        v_prev = v
        x = apply(x, delta)
    raise NonContractionError(f"no convergence within the step cap of {cap}")


def c_inv(x):
    """Series inverse: peel the leading monomial, then invert the unit by
    the shared Newton iteration at m = 1, y -> y (2 - unit y), whose steps
    double their precision from e1, the first exponent of unit - 1, up to
    the relative precision rel (none when unit is exactly 1); the inverse
    mod t^rel is unique, so the bits are those of full-precision steps.
    """
    if x.is_zero():
        raise PrecisionError("inverse of an element that is zero to precision")
    e0, lead, unit = _peel(x)
    y = _newton_inv_root(unit, 1)
    return y.scale(lead.inv()).shift(-e0).truncate(x.prec - 2 * e0)


def q_twist(x, i):
    """Exact q^i-power: exponents scale by q^i, coefficients Frobenius-twist.

    Negative i lifts the ramification by q^|i| so exponent division stays
    integral; the coefficient inverse twist always exists in the ambient
    field.  Precision multiplies by q^i, up to the clamp _PREC_CAP, which
    drops the terms at or beyond it (CinfElem's constructor).  Raises
    PrecisionError when a scaled exponent does not fit in int64.
    """
    if i == 0:
        return x
    spec = x.spec
    exps, coeffs = x.exps, x.coeffs
    if i > 0:
        f = spec.q ** i
        ram = x.ram
        if len(exps) and max(-int(exps[0]), int(exps[-1])) > _INT64_MAX // f:
            raise PrecisionError(f"exponent overflow in the twist by q^{i}")
        exps = exps * f
        prec = x.prec * f
    else:
        f = spec.q ** (-i)
        ram = x.ram * f
        prec = x.prec
        if ram > (1 << 30):
            raise PrecisionError("ramification overflow in inverse twist")
    if len(coeffs):
        qi = pow(spec.q, i, spec.order - 1)  # q is a unit mod p^D - 1
        coeffs = spec.exp_np[(spec.log_np[coeffs] * qi) % (spec.order - 1)]
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

    Peels the leading monomial and takes the field m-th root of its
    coefficient.  In the cyclic group F_{p^D}^* a root of X^m = lead
    exists iff gcd(m, p^D - 1) divides log(lead), so that test raises at
    once; the root itself is the first one in packed order, found by
    exhaustive scan.  The unit's root is unit y^(m - 1) with
    y = unit^(-1/m) from the shared Newton iteration
    y -> y ((m + 1) - unit y^m) / m, whose steps double their precision
    from e1, the first exponent of unit - 1, up to the unit's relative
    precision rel (the root mod t^rel is unique, so the bits are those of
    full-precision steps).
    The ramification is lifted to N*m when m does not divide the leading
    exponent.
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
    e0, lead, unit = _peel(x)
    if spec._log[lead.idx] % gcd(m, spec.order - 1):
        raise PrecisionError(
            f"leading coefficient has no {m}-th root in the ambient field; raise D")
    root = find_root_in_field([-lead] + [spec.zero] * (m - 1) + [spec.one])  # X^m - lead
    # both factors are 1 + O(t), so the product keeps the unit's precision
    w = unit * _newton_inv_root(unit, m) ** (m - 1)
    return w.scale(root).shift(e0 // m)


# ---------------------------------------------------------------------------
# polynomials in the commuting variable T with series coefficients


class PolyT(Poly):
    """Polynomial in T over the truncated series ring.

    T commutes with everything and is fixed by the Frobenius twist; the
    twist acts on coefficients only.  The ring arithmetic is Poly's.
    """

    __slots__ = ()

    @classmethod
    def t_minus(cls, x):
        """T - x for a series x (so the linear coefficient is exactly 1)."""
        one = CinfElem.const(x.spec, x.ram, x.prec, x.spec.one)
        return cls(x.spec, (-x, one))

    def twist(self, i):
        return PolyT(self.spec, [q_twist(c, i) for c in self.coeffs])

    def valuation(self):
        """The least valuation of a coefficient, +inf for the zero polynomial."""
        vals = [c.valuation() for c in self.coeffs]
        return min(vals) if vals else inf
