"""The block isomorphism system and its fixed-point solver.

An isomorphism between two family members is a 2n x 2n matrix Phi over
the T-polynomial ring carrying one tau-basis to the other.  Writing Phi
in n x n blocks, tau-equivariance R_A Phi = Phi^(1) R_B is equivalent to
four block relations: the lower blocks are determined by the upper ones,

    Phi21 = (T - theta) Phi12^(1)
    Phi22 = Phi11^(1) - Phi12^(1) B

and the upper blocks satisfy two coupled twisted equations.  The solver
fixes a stabilizer element gamma, anchors Phi11 at the conjugate of its
alpha image (the convention matching the fractional-linear action used
by the lattice layer; see the group notes below), and treats the T-degree
coefficients of the two coupled equations as a square system in the
unknowns B, S_0..S_{k-1}, V_0..V_{k-1}:

    S-rows (k):     S_i  + (twisted, quadratic)            = 0
    M-rows (k+1):   V_{i-1} - theta V_i + Uhat_i B + (...) = A Uhat_i^(1)

The linear part W1 is block triangular with an identity on the S-block
and a Jordan-like theta band on the V-block; theta-weighting the M-rows
telescopes the V-band away, so W1^(-1) applications cost one product
with alpha^T, the inverse of the anchor.  alpha^T is polynomial and
evaluates exactly, so no series matrix is inverted.  Every Picard
update must strictly raise its valuation, which is the runtime form of
'A small enough'.

Group notes.  The group elements and their alpha map live on GammaElem
in the lattice layer: GammaElem.alpha_poly maps (G, w^2 H; H, G) to
G(T) + w H(T), an isomorphism onto GL_n over F_{q^2}[T], and
GammaElem.from_assembled validates a raw block matrix.  The ansatz is
anchored at the inverse transpose of the alpha image (again polynomial:
the determinant is a constant unit).  That choice is forced by two
fixed conventions downstream: lattice bases are rows (so the Siegel
matrix responds to the transpose of the defining matrix at first order)
and the group acts by Z -> (PZ + Q)(RZ + S)^(-1).  With it, the solved B satisfies
action(gamma, Z(B)) = Z(A) for the Siegel matrices of the lattice
layer, for every n.

The determinant of W1 in closed form.  Moving the k n^2 S-columns past
the n^2 B-columns takes k n^4 column swaps and leaves W1 block diagonal:
the identity on the S-block, and the M-rows restricted to [B | V].
Adding theta^i times M-row block i to M-row block 0 clears the V band
from row block 0, which becomes Uhat(theta) (x) I_n on B; what is left
of the V band is block bidiagonal with identity blocks on its diagonal.
So det W1 = (-1)^(kn) det(anchor)^n, the n-th power of the constant
det alpha(gamma)^(-1) with that exact sign; its norm down to F_q is
det(gamma)^(-n), the form the determinant consistency check takes.
The system is never assembled: W1^(-1) is applied through the same
structure.
"""

from fractions import Fraction
from math import inf

from .anderson import TMotive, make_tmotive, tau_matrix
from .cinf import CinfElem, PolyT, contract, q_twist, theta
from .errors import GammaShapeError
from .ffield import ffpoly_det, ffpoly_unit_inv
from .latticemap import (eval_poly_matrix, lattice_of, lattices_equal, mobius,
                         siegel_of)
from .linalg import (mat_add, mat_min_prec, mat_min_valuation, mat_mul, mat_neg,
                     mat_sub, mat_twist, pm_det, split_blocks, transpose, zeros)

_MAX_PICARD_STEPS = 400

# the verdicts of IsoSolution.flags, then the two theorem3_check adds
ISO_FLAGS = ("residuals_ok", "det_phi_unit", "det_consistency", "siegel_match",
             "lattices_equal")


# ---------------------------------------------------------------------------
# the linear system


class LinearSystem:
    """The linearized block system, held by its structure.

    Rows: k S-type equations then k+1 M-type equations; columns: B,
    S_0..S_{k-1}, V_0..V_{k-1}.  The anchor and its coefficient matrices
    Uhat_d determine W1; the right-hand side of the M-rows carries the
    twisted Uhat_i^(1) (zero on the S-rows).
    """

    def __init__(self, spec, n, k, alpha_t, anchor, U_hat, det_w1):
        self.spec = spec
        self.n = n
        self.k = k
        self.alpha_t = alpha_t      # n x n FFPoly, the transpose of alpha
        self.anchor = anchor        # its inverse
        self.U_hat = U_hat          # its coefficient matrices, padded to degree k
        self.det_w1 = det_w1        # constant FFElem

    def apply_w1_inverse(self, s_rhs, m_rhs, alpha_t_hat, u_ser):
        """Solve W1 (B, S, V) = rhs through the block-triangular structure.

        s_rhs: k matrices for the S-rows (the identity block), m_rhs: k+1
        matrices for the M-rows, alpha_t_hat: alpha^T evaluated at theta.
        Theta-weighting the M-rows telescopes the V band away, leaving
        anchor(theta) B = sum theta^i m_rhs[i].  The anchor is the inverse
        of alpha^T, so B = alpha_t_hat sum theta^i m_rhs[i] and no series
        matrix is inverted.  V back-substitutes from the top row down,
        with Uhat_i B = u_ser[i] B (u_ser: the Uhat_d as constant series).
        """
        k = self.k
        S = list(s_rhs)
        acc = None
        for i, R in enumerate(m_rhs):
            term = _mat_theta_shift(R, i)
            acc = term if acc is None else mat_add(acc, term)
        B = mat_mul(alpha_t_hat, acc)
        V = [None] * k
        if k:
            V[k - 1] = mat_sub(m_rhs[k], mat_mul(u_ser[k], B))
            for i in range(k - 1, 0, -1):
                V[i - 1] = mat_add(mat_sub(m_rhs[i], mat_mul(u_ser[i], B)),
                                   _mat_theta_shift(V[i], 1))
        return B, S, V


def _mat_theta_shift(m, d):
    """Multiply a series matrix by theta^d."""
    if d == 0:
        return m
    return [[x.shift(-d * x.ram) for x in row] for row in m]


def build_linear_system(gamma, k=None):
    """The anchor of a stabilizer element, its coefficients and det W1.

    det W1 comes from its closed form (-1)^(kn) det(anchor)^n (see the
    module notes); in_group makes det(anchor) a constant unit.
    """
    if not gamma.in_group():
        raise GammaShapeError("determinant is not a constant unit: not a group element")
    spec, n = gamma.spec, gamma.n
    # anchor: inverse transpose of the alpha image, polynomial because the
    # determinant is a constant unit
    alpha_t = transpose(gamma.alpha_poly())
    anchor = ffpoly_unit_inv(alpha_t)
    deg_alpha = max(0, max(p.degree() for row in alpha_t for p in row))
    deg_anchor = max(0, max(p.degree() for row in anchor for p in row))
    if k is None:
        k = deg_anchor
    if deg_alpha > k or deg_anchor > k:
        raise GammaShapeError(
            f"gamma needs ansatz degree {max(deg_alpha, deg_anchor)}, got {k}")
    U_hat = [[[anchor[i][j][d] for j in range(n)] for i in range(n)]
             for d in range(deg_anchor + 1)]
    U_hat += [[[spec.zero] * n for _ in range(n)] for _ in range(k - deg_anchor)]
    det_w1 = ffpoly_det(anchor).constant() ** n
    if k * n % 2:
        det_w1 = -det_w1
    return LinearSystem(spec, n, k, alpha_t, anchor, U_hat, det_w1)


# ---------------------------------------------------------------------------
# the full equations and the solver


class IsoAnsatz:
    """Unknown blocks of the isomorphism: B and the T-coefficients S_i, V_i."""

    __slots__ = ("B", "S", "V")

    def __init__(self, B, S, V):
        self.B = B
        self.S = S
        self.V = V


class IsoSolution:
    """Solved isomorphism: ansatz, assembled Phi, residual report, determinants.

    The verdicts on a solution live here; each caller passes only its own
    tolerance.
    """

    __slots__ = ("ansatz", "Phi", "residuals", "det_w1", "det_gamma", "det_phi",
                 "steps")

    def __init__(self, ansatz, Phi, residuals, det_w1, det_gamma, det_phi, steps):
        self.ansatz = ansatz
        self.Phi = Phi
        self.residuals = residuals
        self.det_w1 = det_w1
        self.det_gamma = det_gamma
        self.det_phi = det_phi
        self.steps = steps

    @property
    def B(self):
        return self.ansatz.B

    @property
    def det_w1_norm(self):
        """Norm of det W1 down to the base field."""
        return self.det_w1 * self.det_w1.frobenius(1)

    def residuals_ok(self, tol_units):
        """Every block relation and the full identity hold to tol_units."""
        return all(v >= tol_units for v in self.residuals.values())

    def _det_gamma_n(self):
        return self.det_gamma ** len(self.B)

    def det_consistent(self):
        """N(det W1) det(gamma)^n = 1: the norm of det W1 is det(gamma)^(-n)
        under the inverse-transpose anchor."""
        return self.det_w1_norm * self._det_gamma_n() == self.det_gamma.spec.one

    def det_literal(self):
        """The literal form N(det W1) = det(gamma)^n; it agrees with
        det_consistent exactly when det(gamma)^(2n) = 1."""
        return self.det_w1_norm == self._det_gamma_n()

    def det_phi_is_unit(self, tol_units):
        """Degree zero in T to precision, with an invertible constant term."""
        d = self.det_phi
        if not d.coeffs or d.coeffs[0].is_zero():
            return False
        for c in d.coeffs[1:]:
            if not c.is_zero() and c.valuation() < tol_units:
                return False
        return True

    def flags(self, tol_units):
        """The solution's own verdicts, named as in ISO_FLAGS."""
        return {"residuals_ok": self.residuals_ok(tol_units),
                "det_phi_unit": self.det_phi_is_unit(tol_units),
                "det_consistency": self.det_consistent()}


def _phi_blocks(system, ansatz, u_ser, ram, prec):
    """Assemble the four blocks from the ansatz; lower row by the two
    defining relations, exactly."""
    spec, n, k = system.spec, system.n, system.k
    th = theta(spec, ram, prec // ram)
    coeff = [mat_add(u, s) for u, s in zip(u_ser, ansatz.S)] + [u_ser[k]]
    phi11 = [[PolyT(spec, [coeff[d][i][j] for d in range(k + 1)])
              for j in range(n)] for i in range(n)]
    phi12 = [[PolyT(spec, [ansatz.V[d][i][j] for d in range(k)])
              for j in range(n)] for i in range(n)]
    tmth = PolyT.t_minus(th)
    phi21 = [[tmth * x.twist(1) for x in row] for row in phi12]
    bmat = [[PolyT.const(x) for x in row] for row in ansatz.B]
    phi22 = mat_sub(mat_twist(phi11, 1), mat_mul(mat_twist(phi12, 1), bmat))
    return phi11, phi12, phi21, phi22


def _equations(system, motive, ansatz, u_ser):
    """Full residuals of the coupled equations at the current iterate."""
    spec, k = system.spec, system.k
    A = motive.A
    B = ansatz.B
    s_eqs = []
    for i in range(k):
        Si = ansatz.S[i]
        Vi = ansatz.V[i]
        e = mat_sub(Si, mat_twist(Si, 2))
        e = mat_sub(e, mat_mul(A, mat_twist(Vi, 1)))
        e = mat_add(e, mat_mul(mat_twist(Vi, 2), mat_twist(B, 1)))
        s_eqs.append(e)
    m_eqs = []
    for i in range(k + 1):
        P = mat_add(u_ser[i], ansatz.S[i]) if i < k else u_ser[i]
        e = mat_mul(P, B)
        e = mat_sub(e, mat_mul(A, mat_twist(P, 1)))
        Vi = ansatz.V[i] if i < k else None
        Vim1 = ansatz.V[i - 1] if i >= 1 else None
        if Vim1 is not None:
            e = mat_add(e, Vim1)
            e = mat_sub(e, mat_twist(Vim1, 2))
        if Vi is not None:
            e = mat_sub(e, _mat_theta_shift(Vi, 1))
            # + theta^q V_i^(2)
            tw = mat_twist(Vi, 2)
            e = mat_add(e, [[x.shift(-x.ram * spec.q) for x in row] for row in tw])
        m_eqs.append(e)
    return s_eqs, m_eqs


def _min_val(mats):
    return min((mat_min_valuation(m) for m in mats), default=inf)


def solve_iso(motive, gamma, k=None):
    """Find B and the isomorphism Phi for a given stabilizer element.

    Picard iteration on the full equations, run by contract: the update
    valuation must strictly increase (contraction at this A) and vanish
    within _MAX_PICARD_STEPS steps, leaving residuals that vanish to
    working precision.
    """
    system = build_linear_system(gamma, k=k)
    spec, n, k = system.spec, system.n, system.k
    ram, prec = motive.ram, motive.prec
    alpha_t_hat = eval_poly_matrix(system.alpha_t, spec, ram, prec // ram * ram)
    # the anchor's constant matrices Uhat_d as series, built once per solve
    u_ser = [[[CinfElem.monomial(spec, ram, prec, 0, u) for u in row] for row in Ud]
             for Ud in system.U_hat]
    z = zeros(spec, ram, prec, n)
    ansatz = IsoAnsatz([list(r) for r in z],
                       [[list(r) for r in z] for _ in range(k)],
                       [[list(r) for r in z] for _ in range(k)])

    def update(ans):
        s_eqs, m_eqs = _equations(system, motive, ans, u_ser)
        if _min_val(s_eqs + m_eqs) == inf:
            return None, inf
        dB, dS, dV = system.apply_w1_inverse(
            [mat_neg(e) for e in s_eqs], [mat_neg(e) for e in m_eqs], alpha_t_hat, u_ser)
        return (dB, dS, dV), _min_val([dB] + dS + dV)

    def apply(ans, delta):
        dB, dS, dV = delta
        return IsoAnsatz(mat_add(ans.B, dB),
                         [mat_add(s, d) for s, d in zip(ans.S, dS)],
                         [mat_add(v, d) for v, d in zip(ans.V, dV)])

    ansatz, steps = contract(ansatz, update, apply, _MAX_PICARD_STEPS)
    phi11, phi12, phi21, phi22 = _phi_blocks(system, ansatz, u_ser, ram, prec)
    Phi = [r1 + r2 for r1, r2 in zip(phi11, phi12)] + \
          [r1 + r2 for r1, r2 in zip(phi21, phi22)]
    resid = morphism_residual(motive, ansatz.B, Phi)
    det_phi = pm_det(Phi)
    return IsoSolution(ansatz, Phi, resid, system.det_w1, gamma.det_constant(),
                       det_phi, steps)


# ---------------------------------------------------------------------------
# residuals


def morphism_residual(motive_a, B, Phi):
    """Valuation report for the four block relations and the full identity.

    Keys: phi21_def and phi22_def (the two defining relations), block11
    and block12 (the coupled equations), full (tau-equivariance).  All
    entries are +inf exactly when the relation holds to precision.
    """
    A = motive_a.A if isinstance(motive_a, TMotive) else motive_a
    n = len(A)
    ram = A[0][0].ram
    prec = mat_min_prec(A)
    phi11, phi12, phi21, phi22 = split_blocks(Phi, n)
    th = theta(A[0][0].spec, ram, prec // ram)
    tmth = PolyT.t_minus(th)
    a_pm = [[PolyT.const(x) for x in row] for row in A]
    b_pm = [[PolyT.const(x) for x in row] for row in B]

    r1 = mat_sub(phi21, [[tmth * x.twist(1) for x in row] for row in phi12])
    r2 = mat_sub(phi22, mat_sub(mat_twist(phi11, 1), mat_mul(mat_twist(phi12, 1), b_pm)))
    r3 = mat_sub(mat_sub(phi11, mat_mul(a_pm, mat_twist(phi12, 1))),
                 mat_sub(mat_twist(phi11, 2), mat_mul(mat_twist(phi12, 2), mat_twist(b_pm, 1))))
    tmthq = PolyT.t_minus(q_twist(th, 1))
    lhs4 = mat_sub([[tmth * x for x in row] for row in phi12], mat_mul(a_pm, mat_twist(phi11, 1)))
    rhs4 = mat_sub([[tmthq * x for x in row] for row in mat_twist(phi12, 2)],
                   mat_mul(phi11, b_pm))
    r4 = mat_sub(lhs4, rhs4)
    # B's tau-action is built at A's ramification and precision
    full = mat_sub(mat_mul(tau_matrix(A, ram, prec), Phi),
                   mat_mul(mat_twist(Phi, 1), tau_matrix(B, ram, prec)))
    return {
        "phi21_def": mat_min_valuation(r1),
        "phi22_def": mat_min_valuation(r2),
        "block11": mat_min_valuation(r3),
        "block12": mat_min_valuation(r4),
        "full": mat_min_valuation(full),
    }


# ---------------------------------------------------------------------------
# end-to-end verification


def theorem3_check(motive, gamma, k=None, slack=10):
    """Solve for B, then confront the two Siegel matrices and lattices.

    Checks, at tolerance prec - 2*slack: action(gamma, Z(B)) = Z(A); the
    lattice classes agree (polynomial change of basis recovered); the
    residual report of Phi; det Phi a unit; the determinant consistency
    N(det W1) det(gamma)^n = 1 (the literal form N(det W1) = det(gamma)^n
    is IsoSolution.det_literal, not a flag here).  Each of the two
    lattices is built once; both Siegel matrices are the ones their
    lattice checks formed.
    """
    sol = solve_iso(motive, gamma, k=k)
    prec_units = motive.prec // motive.ram
    tol = Fraction(prec_units - 2 * slack)
    motive_b = make_tmotive(sol.B, v_min=min(1, motive.v_min))
    lat_a = lattice_of(motive)
    lat_b = lattice_of(motive_b)
    z_a = siegel_of(lat_a)
    z_b = siegel_of(lat_b)
    img = mobius(gamma, z_b)
    siegel_gap = mat_min_valuation(mat_sub(img.Z, z_a.Z))
    lat_ok, cob = lattices_equal(lat_a, lat_b, deg_cap=2 * gamma.k + 4,
                                 slack_units=slack)
    res_tol = Fraction(prec_units - slack)
    return {
        "B": sol.B,
        "solution": sol,
        "siegel_match": siegel_gap >= tol,
        "siegel_gap": siegel_gap,
        "lattices_equal": lat_ok,
        "change_of_basis": cob,
        "residuals": sol.residuals,
        **sol.flags(res_tol),
        "steps": sol.steps,
    }
