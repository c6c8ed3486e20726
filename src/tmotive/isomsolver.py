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

Group notes.  alpha maps (G, w^2 H; H, G) to G(T) + w H(T), an
isomorphism onto GL_n over F_{q^2}[T].  The ansatz is anchored at the
inverse transpose of the alpha image (again polynomial: the determinant
is a constant unit).  That choice is forced by two fixed conventions
downstream: lattice bases are rows (so the Siegel matrix responds to
the transpose of the defining matrix at first order) and the group acts
by Z -> (PZ + Q)(RZ + S)^(-1).  With it, the solved B satisfies
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
from .ffield import FFPoly, ffpoly_det, ffpoly_unit_inv, omega_split
from .latticemap import GammaElem, lattice_of, lattices_equal, mobius, siegel_of
from .linalg import (kron_left, kron_right, mat_add, mat_inv, mat_min_prec,
                     mat_min_valuation, mat_mul, mat_neg, mat_sub, mat_twist,
                     pm_det, pm_min_valuation, pm_twist, split_blocks, zeros)

_MAX_PICARD_STEPS = 400


# ---------------------------------------------------------------------------
# alpha


class AlphaImage:
    """Coefficient matrices U_0..U_k over F_{q^2} of G(T) + omega H(T)."""

    __slots__ = ("spec", "n", "U")

    def __init__(self, spec, n, U):
        self.spec = spec
        self.n = n
        self.U = U

    def degree(self):
        return len(self.U) - 1

    def matrix_poly(self):
        spec, n = self.spec, self.n
        return [[FFPoly(spec, [self.U[d][i][j] for d in range(len(self.U))])
                 for j in range(n)] for i in range(n)]

    def det_constant(self):
        d = ffpoly_det(self.matrix_poly())
        if d.is_zero() or not d.is_constant():
            raise GammaShapeError("alpha image determinant is not a nonzero constant")
        return d.constant()

    def frobenius(self, i=1):
        return AlphaImage(self.spec, self.n,
                          [[[c.frobenius(i) for c in row] for row in Ud]
                           for Ud in self.U])


def alpha(gamma):
    """Image of a stabilizer element: U_d = G_d + omega H_d entrywise."""
    if not gamma.in_group():
        raise GammaShapeError("determinant is not a constant unit: not a group element")
    spec, n = gamma.spec, gamma.n
    pols = gamma.alpha_poly()
    deg = max(p.degree() for row in pols for p in row)
    deg = max(deg, 0)
    U = [[[pols[i][j][d] for j in range(n)] for i in range(n)]
         for d in range(deg + 1)]
    return AlphaImage(spec, n, U)


def alpha_from_matrix(spec, raw):
    """Validate the block shape of a raw 2n x 2n polynomial matrix, then map.

    Rejects anything whose diagonal blocks differ, whose off-diagonal
    blocks are not omega^2-proportional, or whose determinant is not a
    constant unit of the base field.
    """
    m = len(raw)
    if m % 2 != 0 or any(len(r) != m for r in raw):
        raise GammaShapeError("matrix must be square of even size")
    n = m // 2
    w2 = spec.omega * spec.omega
    G = [[raw[i][j] for j in range(n)] for i in range(n)]
    G2 = [[raw[n + i][n + j] for j in range(n)] for i in range(n)]
    H = [[raw[n + i][j] for j in range(n)] for i in range(n)]
    W = [[raw[i][n + j] for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            if G[i][j] != G2[i][j]:
                raise GammaShapeError("diagonal blocks differ")
            if W[i][j] != H[i][j] * w2:
                raise GammaShapeError("upper right block is not omega^2 times lower left")
    gamma = GammaElem(G, H)
    return alpha(gamma)


def gamma_reassembles(gamma, image):
    """Invariant: splitting the alpha image back recovers (G, H) exactly."""
    spec, n = gamma.spec, gamma.n
    pols = image.matrix_poly()
    for i in range(n):
        for j in range(n):
            ga, gb = [], []
            for c in pols[i][j].coeffs:
                a, b = omega_split(c)
                ga.append(a)
                gb.append(b)
            if FFPoly(spec, ga) != gamma.G[i][j] or FFPoly(spec, gb) != gamma.H[i][j]:
                return False
    return True


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
    img = alpha(gamma)
    spec, n = gamma.spec, gamma.n
    # anchor: inverse transpose of the alpha image, polynomial because the
    # determinant is a constant unit
    pols = img.matrix_poly()
    anchor = ffpoly_unit_inv([[pols[j][i] for j in range(n)] for i in range(n)])
    deg_anchor = max(max(p.degree() for p in row) for row in anchor)
    deg_anchor = max(deg_anchor, 0)
    if k is None:
        k = deg_anchor
    if img.degree() > k or deg_anchor > k:
        raise GammaShapeError(
            f"gamma needs ansatz degree {max(img.degree(), deg_anchor)}, got {k}")
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
    """Solved isomorphism: ansatz, assembled Phi, residual report, determinants."""

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

    def det_phi_is_unit(self, tol_units):
        """Degree zero in T to precision, with an invertible constant term."""
        d = self.det_phi
        if not d.coeffs or d.coeffs[0].is_zero():
            return False
        for c in d.coeffs[1:]:
            if not c.is_zero() and c.valuation() < tol_units:
                return False
        return True


def _phi_blocks(system, ansatz, ram, prec):
    """Assemble the four blocks from the ansatz; lower row by the two
    defining relations, exactly."""
    spec, n, k = system.spec, system.n, system.k
    th = theta(spec, ram, prec // ram)

    def coeff_mat(d):
        base = [[CinfElem.monomial(spec, ram, prec, 0, system.U_hat[d][i][j])
                 for j in range(n)] for i in range(n)] if d <= system.k else None
        if d < k:
            return mat_add(base, ansatz.S[d])
        return base

    phi11 = [[PolyT(spec, [coeff_mat(d)[i][j] for d in range(k + 1)])
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


def _equations(system, motive, ansatz):
    """Full residuals of the coupled equations at the current iterate."""
    spec, n, k = system.spec, system.n, system.k
    A = motive.A
    ram, prec = motive.ram, motive.prec
    B = ansatz.B

    def umat(d):
        return [[CinfElem.monomial(spec, ram, prec, 0, system.U_hat[d][i][j])
                 for j in range(n)] for i in range(n)]

    s_eqs = []
    for i in range(k):
        Si = ansatz.S[i]
        Vi = ansatz.V[i]
        e = mat_sub(Si, mat_twist(Si, 2))
        e = mat_sub(e, mat_mul(A, mat_twist(Vi, 1)))
        e = mat_add(e, mat_mul(mat_twist(Vi, 2), mat_twist(B, 1)))
        s_eqs.append(e)
    m_eqs = []
    zero = zeros(spec, ram, prec, n)
    for i in range(k + 1):
        P = mat_add(umat(i), ansatz.S[i]) if i < k else umat(i)
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
    z = zeros(spec, ram, prec, n)
    ansatz = IsoAnsatz([list(r) for r in z],
                       [[list(r) for r in z] for _ in range(k)],
                       [[list(r) for r in z] for _ in range(k)])
    v_prev = -inf
    steps = 0
    for _ in range(_MAX_PICARD_STEPS):
        s_eqs, m_eqs = _equations(system, motive, ansatz)
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
    phi11, phi12, phi21, phi22 = _phi_blocks(system, ansatz, ram, prec)
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


def theorem3_check(motive, gamma, k=None, slack=10, deg_cap=None):
    """Solve for B, then confront the two Siegel matrices and lattices.

    Checks, at tolerance prec - 2*slack: action(gamma, Z(B)) = Z(A); the
    lattice classes agree (polynomial change of basis recovered); the
    residual report of Phi; det Phi a unit; the determinant consistency
    N(det W1) = det(gamma)^n.  Each of the two lattices is built once;
    both Siegel matrices are the ones their lattice checks formed.
    """
    sol = solve_iso(motive, gamma, k=k)
    spec, n = motive.spec, motive.n
    ram, prec = motive.ram, motive.prec
    prec_units = prec // ram
    tol = Fraction(prec_units - 2 * slack)
    motive_b = make_tmotive(sol.B, v_min=min(1, motive.v_min))
    lat_a = lattice_of(motive)
    lat_b = lattice_of(motive_b)
    z_a = siegel_of(lat_a)
    z_b = siegel_of(lat_b)
    img = mobius(gamma, z_b)
    siegel_gap = mat_min_valuation(mat_sub(img.Z, z_a.Z))
    cap = deg_cap if deg_cap is not None else 2 * gamma.k + 4
    lat_ok, cob = lattices_equal(lat_a, lat_b, deg_cap=cap, slack_units=slack)
    res_tol = Fraction(prec_units - slack)
    res_ok = all(v >= res_tol for v in sol.residuals.values())
    # N(det W1) = det(gamma)^(-n) under the inverse-transpose anchor
    det_ok = sol.det_w1_norm * sol.det_gamma ** n == spec.one
    return {
        "B": sol.B,
        "solution": sol,
        "siegel_match": siegel_gap >= tol,
        "siegel_gap": siegel_gap,
        "lattices_equal": lat_ok,
        "change_of_basis": cob,
        "residuals": sol.residuals,
        "residuals_ok": res_ok,
        "det_phi_unit": sol.det_phi_is_unit(res_tol),
        "det_consistency": det_ok,
        "steps": sol.steps,
    }
