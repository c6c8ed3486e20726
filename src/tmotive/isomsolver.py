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
telescopes the V-band away, so W1^(-1) applications cost one n x n
series inversion.  Every Picard update must strictly raise its
valuation, which is the runtime form of 'A small enough'.

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
layer, for every n.  The determinant of W1 is then (up to sign) the
n-th power of the constant det alpha(gamma)^(-1); its norm down to F_q
is det(gamma)^(-n), the form the determinant consistency check takes.
"""

from fractions import Fraction
from math import inf

from .anderson import TMotive, make_tmotive, tau_matrix
from .cinf import CinfElem, PolyT, q_twist, theta
from .errors import GammaShapeError, NonContractionError, SingularMatrixError
from .ffield import FFPoly, ffpoly_det, ffpoly_unit_inv
from .latticemap import lattice_of, lattices_equal, mobius, siegel_of
from .linalg import (kron_left, kron_right, mat_add, mat_inv, mat_min_prec,
                     mat_min_valuation, mat_mul, mat_neg, mat_sub, mat_twist,
                     pm_det, pm_min_valuation, pm_twist, split_blocks, zeros)

_MAX_PICARD_STEPS = 400


# ---------------------------------------------------------------------------
# the linear system


class LinearSystem:
    """Symbolic and evaluated forms of the linearized block system.

    Rows: k S-type equations then k+1 M-type equations; columns vectorize
    B, S_0..S_{k-1}, V_0..V_{k-1} row-major.  W2 carries the constant
    right-hand side coefficients (zero on the S-rows).
    """

    def __init__(self, spec, n, k, U_hat, W1_sym, W2_sym, det_w1):
        self.spec = spec
        self.n = n
        self.k = k
        self.U_hat = U_hat          # conjugate-anchor coefficient matrices
        self.W1_sym = W1_sym        # FFPoly, square of size (2k+1) n^2
        self.W2_sym = W2_sym        # FFPoly, (2k+1) n^2 by n^2
        self.det_w1 = det_w1        # constant FFElem

    def size(self):
        return (2 * self.k + 1) * self.n * self.n

    def det_w1_norm(self):
        """Norm of det W1 down to the base field."""
        return self.det_w1 * self.det_w1.frobenius(1)

    def alpha_hat_eval(self, ram, prec_units):
        """The theta-evaluated conjugate alpha image, an n x n series matrix."""
        spec, n = self.spec, self.n
        out = zeros(spec, ram, prec_units * ram, n)
        for d, Ud in enumerate(self.U_hat):
            for i in range(n):
                for j in range(n):
                    if not Ud[i][j].is_zero():
                        out[i][j] = out[i][j] + CinfElem.monomial(
                            spec, ram, prec_units * ram, -ram * d, Ud[i][j])
        return out

    def apply_w1_inverse(self, s_rhs, m_rhs, alpha_hat_inv):
        """Solve W1 (B, S, V) = rhs through the block-triangular structure.

        s_rhs: k matrices for the S-rows (the identity block), m_rhs: k+1
        matrices for the M-rows.  Theta-weighting the M-rows telescopes
        the V band away, leaving alpha_hat B = sum theta^i m_rhs[i]; V
        back-substitutes from the top row down.
        """
        k = self.k
        S = list(s_rhs)
        acc = None
        for i, R in enumerate(m_rhs):
            term = _mat_theta_shift(R, i)
            acc = term if acc is None else mat_add(acc, term)
        B = mat_mul(alpha_hat_inv, acc)
        V = [None] * k
        if k:
            V[k - 1] = mat_sub(m_rhs[k], _u_mul(self.U_hat, k, B))
            for i in range(k - 1, 0, -1):
                V[i - 1] = mat_add(mat_sub(m_rhs[i], _u_mul(self.U_hat, i, B)),
                                   _mat_theta_shift(V[i], 1))
        return B, S, V


def _mat_theta_shift(m, d):
    """Multiply a series matrix by theta^d."""
    if d == 0:
        return m
    return [[x.shift(-d * x.ram) for x in row] for row in m]


def _u_mul(U_hat, i, B):
    """Uhat_i B with the constant coefficient matrix embedded as scalars."""
    n = len(B)
    spec = B[0][0].spec
    out = []
    for r in range(n):
        row = []
        for c in range(n):
            acc = None
            for m in range(n):
                u = U_hat[i][r][m]
                if u.is_zero():
                    continue
                t = B[m][c].scale(u)
                acc = t if acc is None else acc + t
            row.append(acc if acc is not None else
                       CinfElem.zero(spec, B[0][0].ram, B[m][c].prec))
        out.append(row)
    return out


def build_linear_system(gamma, k=None):
    """Assemble W1, W2 for a stabilizer element and ansatz degree k.

    The W1 determinant must be a nonzero constant; a singular W1
    contradicts the group structure and raises hard.
    """
    if not gamma.in_group():
        raise GammaShapeError("determinant is not a constant unit: not a group element")
    spec, n = gamma.spec, gamma.n
    # anchor: inverse transpose of the alpha image, polynomial because the
    # determinant is a constant unit
    pols = gamma.alpha_poly()
    anchor = ffpoly_unit_inv([[pols[j][i] for j in range(n)] for i in range(n)])
    deg_alpha = max(0, max(p.degree() for row in pols for p in row))
    deg_anchor = max(0, max(p.degree() for row in anchor for p in row))
    if k is None:
        k = deg_anchor
    if deg_alpha > k or deg_anchor > k:
        raise GammaShapeError(
            f"gamma needs ansatz degree {max(deg_alpha, deg_anchor)}, got {k}")
    U_hat = [[[anchor[i][j][d] for j in range(n)] for i in range(n)]
             for d in range(deg_anchor + 1)]
    U_hat += [[[spec.zero] * n for _ in range(n)] for _ in range(k - deg_anchor)]
    sz = (2 * k + 1) * n * n
    zero = FFPoly(spec)
    one = FFPoly.const(spec.one)
    th = FFPoly.theta(spec)
    W1 = [[zero for _ in range(sz)] for _ in range(sz)]
    W2 = [[zero for _ in range(n * n)] for _ in range(sz)]
    nn = n * n

    def put(W, row0, col0, blk):
        for i, r in enumerate(blk):
            for j, x in enumerate(r):
                if not x.is_zero():
                    W[row0 + i][col0 + j] = x

    # S-rows: identity on the S block
    for i in range(k):
        for t in range(nn):
            W1[i * nn + t][nn + i * nn + t] = one
    # M-rows
    for i in range(k + 1):
        r0 = (k + i) * nn
        u = [[FFPoly.const(x) for x in row] for row in U_hat[i]]
        # (Uhat_i)_l on B and the twisted (Uhat_i^(1))_r on the right-hand side
        put(W1, r0, 0, kron_left(u, zero))
        put(W2, r0, 0, kron_right([[x.frobenius(1) for x in row] for row in u], zero))
        if i >= 1:
            for t in range(nn):
                W1[r0 + t][nn * (1 + k) + (i - 1) * nn + t] = one
        if i < k:
            for t in range(nn):
                W1[r0 + t][nn * (1 + k) + i * nn + t] = -th
    det = ffpoly_det(W1)
    if det.is_zero():
        raise SingularMatrixError("linear system is singular: group structure violated")
    if not det.is_constant():
        raise SingularMatrixError("linear system determinant is not constant")
    return LinearSystem(spec, n, k, U_hat, W1, W2, det.constant())


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

    __slots__ = ("ansatz", "Phi", "residuals", "det_w1", "det_w1_norm",
                 "det_gamma", "det_phi", "steps")

    def __init__(self, ansatz, Phi, residuals, det_w1, det_w1_norm, det_gamma,
                 det_phi, steps):
        self.ansatz = ansatz
        self.Phi = Phi
        self.residuals = residuals
        self.det_w1 = det_w1
        self.det_w1_norm = det_w1_norm
        self.det_gamma = det_gamma
        self.det_phi = det_phi
        self.steps = steps

    @property
    def B(self):
        return self.ansatz.B

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
    tw11 = [[x.twist(1) for x in row] for row in phi11]
    tw12 = [[x.twist(1) for x in row] for row in phi12]
    bmat = [[PolyT.const(x) for x in row] for row in ansatz.B]
    phi22 = mat_sub(tw11, mat_mul(tw12, bmat))
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

    Picard iteration on the full equations; the update valuation must
    strictly increase, certifying contraction at this A.  Converges to
    residuals that vanish to working precision.
    """
    system = build_linear_system(gamma, k=k)
    spec, n, k = system.spec, system.n, system.k
    ram, prec = motive.ram, motive.prec
    prec_units = prec // ram
    alpha_hat = system.alpha_hat_eval(ram, prec_units)
    alpha_hat_inv = mat_inv(alpha_hat)
    # the anchor's constant matrices Uhat_d as series, built once per solve
    u_ser = [[[CinfElem.monomial(spec, ram, prec, 0, u) for u in row] for row in Ud]
             for Ud in system.U_hat]
    z = zeros(spec, ram, prec, n)
    ansatz = IsoAnsatz([list(r) for r in z],
                       [[list(r) for r in z] for _ in range(k)],
                       [[list(r) for r in z] for _ in range(k)])
    v_prev = -inf
    steps = 0
    for _ in range(_MAX_PICARD_STEPS):
        s_eqs, m_eqs = _equations(system, motive, ansatz, u_ser)
        if _min_val(s_eqs + m_eqs) == inf:
            break
        dB, dS, dV = system.apply_w1_inverse(
            [mat_neg(e) for e in s_eqs], [mat_neg(e) for e in m_eqs], alpha_hat_inv)
        v_now = _min_val([dB] + dS + dV)
        if v_now == inf:
            break
        if v_now <= v_prev:
            raise NonContractionError(
                f"update valuation stalled at step {steps}: {v_prev} -> {v_now}; "
                "the defining matrix is too large for this ansatz degree")
        v_prev = v_now
        steps += 1
        ansatz = IsoAnsatz(mat_add(ansatz.B, dB),
                           [mat_add(s, d) for s, d in zip(ansatz.S, dS)],
                           [mat_add(v, d) for v, d in zip(ansatz.V, dV)])
    phi11, phi12, phi21, phi22 = _phi_blocks(system, ansatz, u_ser, ram, prec)
    Phi = [r1 + r2 for r1, r2 in zip(phi11, phi12)] + \
          [r1 + r2 for r1, r2 in zip(phi21, phi22)]
    resid = morphism_residual(motive, ansatz.B, Phi)
    det_phi = pm_det(Phi)
    return IsoSolution(ansatz, Phi, resid, system.det_w1, system.det_w1_norm(),
                       gamma.det_constant(), det_phi, steps)


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
    r2 = mat_sub(phi22, mat_sub(pm_twist(phi11, 1), mat_mul(pm_twist(phi12, 1), b_pm)))
    r3 = mat_sub(mat_sub(phi11, mat_mul(a_pm, pm_twist(phi12, 1))),
                 mat_sub(pm_twist(phi11, 2), mat_mul(pm_twist(phi12, 2), pm_twist(b_pm, 1))))
    tmthq = PolyT.t_minus(q_twist(th, 1))
    lhs4 = mat_sub([[tmth * x for x in row] for row in phi12], mat_mul(a_pm, pm_twist(phi11, 1)))
    rhs4 = mat_sub([[tmthq * x for x in row] for row in pm_twist(phi12, 2)],
                   mat_mul(phi11, b_pm))
    r4 = mat_sub(lhs4, rhs4)
    # B's tau-action is built at A's ramification and precision
    full = mat_sub(mat_mul(tau_matrix(A, ram, prec), Phi),
                   mat_mul(pm_twist(Phi, 1), tau_matrix(B, ram, prec)))
    return {
        "phi21_def": pm_min_valuation(r1),
        "phi22_def": pm_min_valuation(r2),
        "block11": pm_min_valuation(r3),
        "block12": pm_min_valuation(r4),
        "full": pm_min_valuation(full),
    }


# ---------------------------------------------------------------------------
# end-to-end verification


def theorem3_check(motive, gamma, k=None, slack=10):
    """Solve for B, then confront the two Siegel matrices and lattices.

    Checks, at tolerance prec - 2*slack: action(gamma, Z(B)) = Z(A); the
    lattice classes agree (polynomial change of basis recovered); the
    residual report of Phi; det Phi a unit; the determinant consistency
    N(det W1) = det(gamma)^n.  Each of the two lattices is built once;
    both Siegel matrices are the ones their lattice checks formed.
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
        "residuals_ok": sol.residuals_ok(res_tol),
        "det_phi_unit": sol.det_phi_is_unit(res_tol),
        "det_consistency": sol.det_consistent(),
        "steps": sol.steps,
    }
