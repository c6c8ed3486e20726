"""Defining data of the rank-2n module family and its exponential.

A member is determined by a square matrix A over the series ring via the
action T e = theta e + A tau e + tau^2 e on a free tau-basis e.  The
exponential is the entire F_q-linear series Exp(z) = sum C_i z^(i)
(entrywise q^i-power twists of the vector z) intertwining scalar theta
with the module's T-action:

    Exp(theta z) = theta Exp(z) + A Exp(z)^(1) + Exp(z)^(2)

Matching twist orders gives the coefficient recursion implemented here:

    C_0 = E_n,   C_i = (theta^(q^i) - theta)^(-1) (A C_{i-1}^(1) + C_{i-2}^(2))

At A = 0 the even coefficients collapse to products of inverted
theta-differences and the odd ones vanish; the tests pin the recursion
against that closed form computed along an independent path.
"""

from fractions import Fraction
from math import inf

from .cinf import CinfElem, PolyT, c_inv, q_twist, theta, theta_ij
from .errors import NeighborhoodError, PrecisionError
from .linalg import (eye, mat_add, mat_min_prec, mat_min_valuation, mat_mul,
                     mat_twist, zeros)

_IMAX_HARD_CAP = 64


class TMotive:
    """The family member M(A): dimension n, rank 2n."""

    __slots__ = ("spec", "n", "A", "v_min", "ram", "prec")

    def __init__(self, A, v_min=1):
        if not A or any(len(r) != len(A) for r in A):
            raise ValueError("A must be square and nonempty")
        self.A = [list(r) for r in A]
        self.n = len(A)
        self.spec = A[0][0].spec
        self.ram = A[0][0].ram
        self.prec = mat_min_prec(A)
        self.v_min = v_min
        for row in A:
            for x in row:
                if x.valuation() < v_min:
                    raise NeighborhoodError(
                        f"entry valuation {x.valuation()} below the floor {v_min}")

    @property
    def r(self):
        return 2 * self.n

    def is_base_point(self):
        """True for A = 0, the n-th power of the quadratic Carlitz module."""
        return all(x.is_zero() for row in self.A for x in row)

    def __repr__(self):
        tag = "base" if self.is_base_point() else f"v>={self.v_min}"
        return f"TMotive(n={self.n}, {tag})"


def make_tmotive(A, v_min=1):
    return TMotive(A, v_min=v_min)


def tau_matrix(A, ram, prec):
    """The tau-action on the T-basis (e, tau e) of M(A), built exactly.

    Block form [[0, E], [(T - theta) E, -A]] as a 2n x 2n PolyT matrix,
    with theta and E at ramification ram and precision numerator prec.
    """
    n = len(A)
    spec = A[0][0].spec
    zero_p = PolyT(spec)
    one = CinfElem.const(spec, ram, prec, spec.one)
    th = theta(spec, ram, prec // ram)
    R = [[zero_p] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        R[i][n + i] = PolyT.const(one)
        R[n + i][i] = PolyT.t_minus(th)
        for j in range(n):
            if not A[i][j].is_zero():
                R[n + i][n + j] = PolyT.const(-A[i][j])
    return R


class ExpCoeffs:
    """Coefficient matrices of the exponential, C[0] the identity.

    ``floor`` records the valuation bound on evaluation points for which
    the truncation at ``imax`` was certified (tail terms fall beyond the
    working precision); exp_eval revalidates against it.
    """

    __slots__ = ("motive", "C", "imax", "floor", "target_units")

    def __init__(self, motive, C, floor, target_units):
        self.motive = motive
        self.C = C
        self.imax = len(C) - 1
        self.floor = floor
        self.target_units = target_units


def _tail_certified(est, target):
    """Last three term-valuation estimates clear the target, and the
    finite ones (zero coefficients estimate to +inf) keep growing."""
    if len(est) < 3 or not all(e >= target for e in est[-3:]):
        return False
    finite = [e for e in est if e != inf]
    return len(finite) < 2 or finite[-1] >= finite[-2]


def exp_coeffs(motive, imax=None, z_floor=None):
    """Run the coefficient recursion up to a certified truncation order.

    With imax given, computes exactly that many steps.  Otherwise grows
    until three consecutive term-valuation estimates v(C_i) + q^i*z_floor
    clear the working precision of the motive and increase monotonically,
    which certifies that the dropped tail lies beyond that precision for
    any evaluation point of valuation >= z_floor.
    """
    spec, n = motive.spec, motive.n
    q = spec.q
    ram, prec = motive.ram, motive.prec
    if z_floor is None:
        z_floor = Fraction(-q * q, q * q - 1)  # the period's valuation
    target_units = Fraction(prec, ram)
    prec_units = prec // ram
    C = [eye(spec, ram, prec, n)]
    prev = zeros(spec, ram, prec, n)  # C_{-1} = 0
    est = []
    i = 0
    while True:
        if imax is not None and i >= imax:
            break
        if imax is None and _tail_certified(est, target_units):
            break
        i += 1
        if i > _IMAX_HARD_CAP or (q ** i) * ram > (1 << 60):
            raise PrecisionError("coefficient recursion did not certify its tail")
        inv_ti0 = c_inv(theta_ij(spec, ram, prec_units, i, 0))
        term = mat_twist(prev, 2) if i >= 2 else zeros(spec, ram, prec, n)
        if not motive.is_base_point():
            term = mat_add(term, mat_mul(motive.A, mat_twist(C[-1], 1)))
        Ci = [[x * inv_ti0 for x in row] for row in term]
        if any(x.prec <= 0 for row in Ci for x in row):
            raise PrecisionError(f"precision exhausted at coefficient {i}")
        prev = C[-1]
        C.append(Ci)
        est.append(mat_min_valuation(Ci) + (q ** i) * z_floor)
    return ExpCoeffs(motive, C, z_floor, target_units)


def _vec_twist(z, i):
    return [q_twist(x, i) for x in z]


def _mat_vec(m, v):
    out = []
    for row in m:
        acc = row[0] * v[0]
        for x, y in zip(row[1:], v[1:]):
            acc = acc + x * y
        out.append(acc)
    return out


def exp_eval(coeffs, z):
    """Evaluate the exponential at a vector z with a certified tail.

    Raises PrecisionError when z falls below the valuation floor the
    coefficient list was certified for and the computed tail terms do not
    clear the target either.
    """
    motive = coeffs.motive
    n = motive.n
    if len(z) != n:
        raise ValueError(f"vector length {len(z)} != dimension {n}")
    zv = min(x.valuation() for x in z)
    acc = None
    tail = []
    for i, Ci in enumerate(coeffs.C):
        term = _mat_vec(Ci, _vec_twist(z, i))
        acc = term if acc is None else [a + t for a, t in zip(acc, term)]
        tail.append(min((x.valuation() for x in term), default=inf))
    if zv < coeffs.floor:
        # the construction-time certificate does not cover this point;
        # require the computed tail itself to clear the target
        finite = [v for v in tail[1:] if v != inf]
        ok = len(finite) >= 2 and all(v >= coeffs.target_units for v in finite[-2:])
        if not ok:
            raise PrecisionError(
                f"evaluation point valuation {zv} below certified floor "
                f"{coeffs.floor}; tail term valuation {finite[-1] if finite else inf}")
    return acc


def exp_eval_scalar(coeffs, z):
    return exp_eval(coeffs, [z])[0]


def functional_residual(motive, z, coeffs=None):
    """Residual of the intertwining identity at z, with entry valuations.

    Returns (residual vector, list of valuations).  All valuations sit at
    or beyond the propagated precision when the coefficients are correct.
    """
    spec = motive.spec
    ram = motive.ram
    if coeffs is None:
        floor = min(min(x.valuation() for x in z) - 1, Fraction(-spec.q ** 2, spec.q ** 2 - 1))
        coeffs = exp_coeffs(motive, z_floor=floor)
    th = theta(spec, ram, motive.prec // ram)
    lhs = exp_eval(coeffs, [x * th for x in z])
    ez = exp_eval(coeffs, z)
    rhs = [x * th for x in ez]
    rhs = [r + s for r, s in zip(rhs, _mat_vec(motive.A, _vec_twist(ez, 1)))]
    rhs = [r + s for r, s in zip(rhs, _vec_twist(ez, 2))]
    resid = [a - b for a, b in zip(lhs, rhs)]
    vals = [x.valuation() for x in resid]
    return resid, vals
