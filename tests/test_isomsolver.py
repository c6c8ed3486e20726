import random
from collections import Counter
from fractions import Fraction
from math import inf

import pytest

from tmotive.errors import GammaShapeError, NonContractionError
from tmotive.ffield import FFPoly, ambient_field, ffpoly_det
from tmotive.cinf import CinfElem, PolyT, q_twist, t_uniformizer
from tmotive.anderson import make_tmotive
from tmotive.latticemap import (GammaElem, eval_poly_matrix, gamma_from_alpha,
                                mobius, mu13, random_gamma)
from tmotive import ffield, isomsolver, latticemap, linalg
from tmotive.isomsolver import (build_linear_system, morphism_residual, solve_iso,
                                theorem3_check)
from tmotive.linalg import mat_inv, mat_mul, mat_solve, zeros

N, PU = 8, 200
N5 = 24     # q^2 - 1 at q = 5


@pytest.fixture(scope="module")
def F():
    return ambient_field(3, 1, 4)


@pytest.fixture(scope="module")
def F5():
    return ambient_field(5, 1, 4)


def t_pow(F, m):
    return t_uniformizer(F, N, PU) ** m


def rand_small(F, rng, n, lo=3, hi=6, pu=PU, ram=N):
    fq2 = [c for c in F.subfield(2) if c]
    out = []
    for _ in range(n):
        row = []
        for _ in range(n):
            terms = {rng.randrange(lo * ram, hi * ram): F.el(rng.choice(fq2))
                     for _ in range(rng.randrange(1, 3))}
            row.append(CinfElem.from_terms(F, ram, pu * ram, terms.items()))
        out.append(row)
    return out


def identity_gamma(F, n):
    one, z = FFPoly.const(F.one), FFPoly(F)
    return GammaElem([[one if i == j else z for j in range(n)] for i in range(n)],
                     [[z] * n for _ in range(n)], k=0)


# -- alpha --------------------------------------------------------------------


def test_alpha_identity(F):
    pols = identity_gamma(F, 2).alpha_poly()
    assert max(p.degree() for row in pols for p in row) == 0
    assert pols[0][0][0] == F.one and pols[0][1][0].is_zero()


def test_alpha_of_pure_h_block(F):
    g = GammaElem([[FFPoly(F)]], [[FFPoly.const(F.one)]])
    assert g.alpha_poly()[0][0][0] == F.omega


def test_alpha_homomorphism_random(F):
    rng = random.Random(0)
    for n in (1, 2):
        for _ in range(6):
            g1 = random_gamma(F, n, 1, rng)
            g2 = random_gamma(F, n, 1, rng)
            a1 = g1.alpha_poly()
            a2 = g2.alpha_poly()
            a12 = g1.compose(g2).alpha_poly()
            for i in range(n):
                for j in range(n):
                    acc = None
                    for l in range(n):
                        term = a1[i][l] * a2[l][j]
                        acc = term if acc is None else acc + term
                    assert acc == a12[i][j]


def test_alpha_reassembly_invariant(F):
    rng = random.Random(1)
    for n in (1, 2):
        g = random_gamma(F, n, 2, rng)
        back = gamma_from_alpha(F, g.alpha_poly(), k=g.k)
        assert back.G == g.G and back.H == g.H


def test_alpha_from_matrix_validates(F):
    rng = random.Random(2)
    for g in (identity_gamma(F, 1), random_gamma(F, 2, 1, rng)):
        back = GammaElem.from_assembled(F, g.assembled())
        assert back.G == g.G and back.H == g.H
    one, z, th = FFPoly.const(F.one), FFPoly(F), FFPoly.theta(F)
    with pytest.raises(GammaShapeError):
        GammaElem.from_assembled(F, [[one, th], [z, one]])       # off-shape blocks
    with pytest.raises(GammaShapeError):
        # the upper right block is not omega^2 times the lower left
        GammaElem.from_assembled(F, [[one, one], [one, one]])
    with pytest.raises(GammaShapeError):
        # block-shaped and invertible, but det = theta^2 is not a constant
        GammaElem.from_assembled(F, [[th, z], [z, th]])
    with pytest.raises(GammaShapeError):
        GammaElem.from_assembled(F, [[one, z, z]])                # not square


# -- the linear system, assembled as the oracle for its structure ------------
#
# The library never assembles W1 and W2; these helpers build them as
# explicit matrices over F_{q^2}[theta], so that det W1 and W1^(-1) can
# be checked against generic elimination.


def vec_rowmajor(a):
    """Row-major (lexicographic) flattening to a column of entries."""
    return [x for r in a for x in r]


def unvec_rowmajor(v, n):
    """Inverse of vec_rowmajor: the layout kron_left and kron_right assume."""
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


def assemble(system):
    """W1 (square, of size (2k+1) n^2) and W2 ((2k+1) n^2 by n^2).

    Rows: k S-type equations then k+1 M-type equations; columns vectorize
    B, S_0..S_{k-1}, V_0..V_{k-1} row-major.  W2 carries the constant
    right-hand side coefficients (zero on the S-rows).
    """
    spec, n, k = system.spec, system.n, system.k
    nn = n * n
    sz = (2 * k + 1) * nn
    zero = FFPoly(spec)
    W1 = [[zero] * sz for _ in range(sz)]
    W2 = [[zero] * nn for _ in range(sz)]

    def put(W, row0, col0, blk):
        for i, r in enumerate(blk):
            for j, x in enumerate(r):
                W[row0 + i][col0 + j] = x

    def scalar(c):
        return [[c if i == j else zero for j in range(nn)] for i in range(nn)]

    for i in range(k):                          # S-rows: identity on S_i
        put(W1, i * nn, nn * (1 + i), scalar(FFPoly.const(spec.one)))
    for i in range(k + 1):                      # M-rows
        r0 = (k + i) * nn
        u = [[FFPoly.const(x) for x in row] for row in system.U_hat[i]]
        put(W1, r0, 0, kron_left(u, zero))
        uq = [[FFPoly.const(x.frobenius(1)) for x in row] for row in system.U_hat[i]]
        put(W2, r0, 0, kron_right(uq, zero))
        if i >= 1:                              # + V_{i-1}
            put(W1, r0, nn * (k + i), scalar(FFPoly.const(spec.one)))
        if i < k:                               # - theta V_i
            put(W1, r0, nn * (k + 1 + i), scalar(-FFPoly.theta(spec)))
    return W1, W2


def test_kron_identities_brute_force(F):
    # the defining equations of the vectorization operators, on explicit
    # small matrices: series entries of both valuation signs, then the
    # small nonnegative valuations of the solver's unknowns (n = 2)
    rng = random.Random(3)
    for n, vmin, vmax in ((2, -2, 8), (3, -2, 8), (2, 0, 4)):
        a = rand_small(F, rng, n, vmin, vmax)
        m = rand_small(F, rng, n, vmin, vmax)
        zero = CinfElem.zero(F, N, PU * N)
        va = mat_mul(kron_left(a, zero), [[x] for x in vec_rowmajor(m)])
        direct = vec_rowmajor(mat_mul(a, m))
        for got, want in zip(va, direct):
            assert (got[0] - want).is_zero()
        vb = mat_mul(kron_right(a, zero), [[x] for x in vec_rowmajor(m)])
        direct = vec_rowmajor(mat_mul(m, a))
        for got, want in zip(vb, direct):
            assert (got[0] - want).is_zero()
        assert unvec_rowmajor(vec_rowmajor(m), n) == m
    # polynomials in theta over the field, the ring of the linear system:
    # there both sides must agree exactly
    for n in (2, 3):
        a, m = ([[FFPoly(F, [F.el(rng.randrange(F.order))
                             for _ in range(rng.randrange(4))])
                  for _ in range(n)] for _ in range(n)] for _ in range(2))
        vm = [[x] for x in vec_rowmajor(m)]
        assert [r[0] for r in mat_mul(kron_left(a, FFPoly(F)), vm)] == \
            vec_rowmajor(mat_mul(a, m))
        assert [r[0] for r in mat_mul(kron_right(a, FFPoly(F)), vm)] == \
            vec_rowmajor(mat_mul(m, a))


def test_identity_gamma_system_is_identity_on_b(F):
    sys0 = build_linear_system(identity_gamma(F, 1), k=0)
    W1, W2 = assemble(sys0)
    assert W1 == [[FFPoly.const(F.one)]] and W2 == [[FFPoly.const(F.one)]]
    assert sys0.det_w1 == F.one


def test_det_w1_constant_and_norm_relation(F, F5):
    # the closed form (-1)^(kn) det(anchor)^n against the determinant of
    # the assembled W1, exactly, beyond q = 3 where F_3^* = {+-1}
    # would hide a wrong sign or power
    rng = random.Random(4)
    for spec in (F, F5):
        for n in (1, 2):
            for k in (0, 1, 2):
                for _ in range(2):
                    g = random_gamma(spec, n, k, rng)
                    sysm = build_linear_system(g, k=k)
                    d = sysm.det_w1
                    det = ffpoly_det(assemble(sysm)[0])
                    assert det.is_constant() and d == det.constant()
                    assert not d.is_zero() and d.in_subfield(2)
                    # norm of det W1 inverts det(gamma)^n under this anchoring
                    assert d * d.frobenius(1) * g.det_constant() ** n == spec.one


def test_w1_inverse_application_matches_generic_solve(F, F5):
    # the telescoped solve must equal a direct Gauss solve on the
    # evaluated assembled matrix: two independent routes to W1^(-1) rhs
    rng = random.Random(5)
    n, k = 2, 1
    for spec, ram, pu in ((F, N, PU), (F5, N5, 60)):
        g = random_gamma(spec, n, k, rng)
        sysm = build_linear_system(g, k=k)
        ahi = mat_inv(eval_poly_matrix(sysm.anchor, spec, ram, pu * ram))
        u_ser = [[[CinfElem.const(spec, ram, pu * ram, u) for u in row] for row in Ud]
                 for Ud in sysm.U_hat]
        s_rhs = [rand_small(spec, rng, n, 1, 4, pu, ram) for _ in range(k)]
        m_rhs = [rand_small(spec, rng, n, 1, 4, pu, ram) for _ in range(k + 1)]
        B, S, V = sysm.apply_w1_inverse(s_rhs, m_rhs, ahi, u_ser)
        w1 = eval_poly_matrix(assemble(sysm)[0], spec, ram, pu * ram)
        rhs_vec = [[x] for m in s_rhs + m_rhs for x in vec_rowmajor(m)]
        sol = mat_solve(w1, rhs_vec)
        flat = [x for m in ([B] + S + V) for x in vec_rowmajor(m)]
        assert len(flat) == len(sol)
        for got, (want,) in zip(flat, sol):
            assert (got - want).is_zero()


def test_first_order_b_matches_w2(F):
    # B agrees with W1^(-1) W2 vec(A) up to strictly higher valuation
    rng = random.Random(6)
    n, k = 1, 1
    g = random_gamma(F, n, k, rng)
    W1, W2 = assemble(build_linear_system(g, k=k))
    A = rand_small(F, rng, n)
    motive = make_tmotive(A)
    sol = solve_iso(motive, g, k=k)
    w1 = eval_poly_matrix(W1, F, N, PU * N)
    w2 = eval_poly_matrix(W2, F, N, PU * N)
    rhs = mat_mul(w2, [[x] for x in vec_rowmajor(A)])
    lin = mat_solve(w1, rhs)
    b_lin = lin[0][0]
    b_full = sol.B[0][0]
    assert (b_full - b_lin).valuation() > b_lin.valuation()


def test_solve_takes_no_determinant_above_gamma_size(F, monkeypatch):
    # det W1 comes from its closed form: no elimination of the
    # (2k+1) n^2 square system (20 x 20 here) runs during a solve
    rng = random.Random(12)
    n, k = 2, 2
    g = random_gamma(F, n, k, rng)
    A = rand_small(F, rng, n, pu=60)
    sizes = Counter()

    def counting_det(m):
        sizes[len(m)] += 1
        return ffpoly_det(m)

    for module in (ffield, latticemap, isomsolver):
        monkeypatch.setattr(module, "ffpoly_det", counting_det)
    solve_iso(make_tmotive(A), g, k=k)
    assert sizes and max(sizes) <= 2 * n


# -- the solver -----------------------------------------------------------------


def test_solve_inverts_no_series_matrix(F, F5, monkeypatch):
    # W1^(-1) multiplies by alpha^T evaluated exactly: no series matrix
    # inverse runs during a solve, and the solve still certifies
    calls = []
    real = linalg.mat_inv
    for module in (linalg, latticemap, isomsolver):
        monkeypatch.setattr(module, "mat_inv", lambda a: calls.append(a) or real(a),
                            raising=False)
    rng = random.Random(13)
    for spec, ram in ((F, N), (F5, N5)):
        g = random_gamma(spec, 2, 1, rng)
        A = rand_small(spec, rng, 2, pu=60, ram=ram)
        sol = solve_iso(make_tmotive(A), g, k=1)
        assert sol.residuals_ok(Fraction(50))
    assert not calls


def test_solve_runs_to_working_precision(F):
    # a degree-2 gamma at n = 2 whose Uhat_1 and Uhat_2 have a zero row.
    # The Picard loop stops only once the residual vanishes at working
    # precision, and B is the truncation of a rerun at higher precision.
    # A Uhat_i B that declared each zero-row entry at the precision of one
    # entry of B cut the precision of V in every update, so the loop
    # stopped with block12 at valuation 36 and a wrong term in B below its
    # declared precision.
    terms = [[[(28, 43), (36, 42), (45, 77)], [(32, 42), (44, 75)]],
             [[(26, 43), (27, 42)], [(24, 76)]]]

    def pol(*cs):
        return FFPoly(F, [F.el(c) for c in cs])

    g = GammaElem([[pol(2), pol(2, 0, 1)], [pol(), pol(1)]],
                  [[pol(2), pol(2, 0, 1)], [pol(), pol(2)]], k=2)

    def motive(pu):
        return make_tmotive([[CinfElem.from_terms(F, N, pu * N, [(e, F.el(c)) for e, c in x])
                              for x in row] for row in terms])

    lo, hi = solve_iso(motive(60), g, k=2), solve_iso(motive(90), g, k=2)
    assert all(v == inf for v in lo.residuals.values())
    assert all(y.truncate(x.prec) == x for rl, rh in zip(lo.B, hi.B) for x, y in zip(rl, rh))


def test_identity_gamma_solves_exactly(F):
    a = t_pow(F, 3)
    motive = make_tmotive([[a]])
    sol = solve_iso(motive, identity_gamma(F, 1))
    assert sol.B[0][0] == a
    assert all(v == inf for v in sol.residuals.values())
    assert sol.det_phi_is_unit(Fraction(PU - 10))
    # Phi is the identity block matrix
    assert sol.Phi[0][0].coeffs[0].leading() == (0, F.one)
    assert sol.Phi[0][1].is_zero()


def test_solver_determinism(F):
    rng1, rng2 = random.Random(7), random.Random(7)
    g1 = random_gamma(F, 2, 1, rng1)
    g2 = random_gamma(F, 2, 1, rng2)
    A = [[t_pow(F, 3), t_pow(F, 4)], [t_pow(F, 5), t_pow(F, 3)]]
    s1 = solve_iso(make_tmotive(A), g1, k=1)
    s2 = solve_iso(make_tmotive(A), g2, k=1)
    assert s1.B[0][0] == s2.B[0][0] and s1.B[1][1] == s2.B[1][1]
    for r1, r2 in zip(s1.Phi, s2.Phi):
        for p1, p2 in zip(r1, r2):
            assert p1 == p2


def test_solver_residuals_and_units(F, F5):
    rng = random.Random(8)
    tol = Fraction(PU - 10)
    for n, k in ((1, 0), (1, 2), (2, 1)):
        A = rand_small(F, rng, n)
        g = random_gamma(F, n, k, rng)
        sol = solve_iso(make_tmotive(A), g, k=k)
        assert all(v >= tol for v in sol.residuals.values())
        assert sol.residuals_ok(tol)
        assert sol.det_phi_is_unit(tol)
        # q = 3: det(gamma) = +-1, so the checked and the literal identity agree
        assert sol.det_consistent() and sol.det_literal()
    # q = 5 at prec 60; the literal identity is not asserted there: it
    # fails whenever det(gamma)^(2n) != 1, which F_3^* = {+-1} never shows
    tol = Fraction(60 - 10)
    for n, k in ((1, 1), (2, 1)):
        A = rand_small(F5, rng, n, pu=60, ram=N5)
        g = random_gamma(F5, n, k, rng)
        sol = solve_iso(make_tmotive(A), g, k=k)
        assert all(v >= tol for v in sol.residuals.values())
        assert sol.residuals_ok(tol)
        assert sol.det_phi_is_unit(tol)
        assert sol.det_consistent()


def test_picard_step_cap_raises(F, monkeypatch):
    rng = random.Random(5)
    A = rand_small(F, rng, 2, pu=60)
    g = random_gamma(F, 2, 1, rng)
    assert solve_iso(make_tmotive(A), g, k=1).steps == 7
    # one update cannot certify a solve that needs seven
    monkeypatch.setattr(isomsolver, "_MAX_PICARD_STEPS", 1)
    with pytest.raises(NonContractionError):
        solve_iso(make_tmotive(A), g, k=1)


def test_gamma_determinant_computed_once(F, monkeypatch):
    g = random_gamma(F, 1, 1, random.Random(3))
    sizes = Counter()

    def counting_det(m):
        sizes[len(m)] += 1
        return ffpoly_det(m)

    for module in (latticemap, isomsolver):
        monkeypatch.setattr(module, "ffpoly_det", counting_det)
    solve_iso(make_tmotive([[t_pow(F, 3)]]), g)
    assert sizes[2] == 0  # the 2 x 2 assembled gamma: kept from construction
    sizes.clear()
    GammaElem.from_assembled(F, g.assembled())
    assert sizes[2] == 1


def test_nonzero_ansatz_blocks_for_degree_one(F):
    w = F.omega
    U = [[FFPoly.const(F.one), FFPoly(F, [F.zero, w])],
         [FFPoly(F), FFPoly.const(F.one)]]
    g = gamma_from_alpha(F, U, k=1)
    A = [[t_pow(F, 3), t_pow(F, 4)], [t_pow(F, 5), t_pow(F, 3)]]
    sol = solve_iso(make_tmotive(A), g, k=1)
    assert any(not x.is_zero() for m in sol.ansatz.V for r in m for x in r)
    assert all(v == inf or v >= PU - 10 for v in sol.residuals.values())


def test_morphism_residual_detects_corruption(F):
    a = t_pow(F, 3)
    motive = make_tmotive([[a]])
    sol = solve_iso(motive, identity_gamma(F, 1))
    Phi = [row[:] for row in sol.Phi]
    bump = CinfElem.monomial(F, N, PU * N, 2 * N, F.one)
    Phi[0][0] = Phi[0][0] + PolyT.const(bump)
    res = morphism_residual(motive, sol.B, Phi)
    finite = [v for v in res.values() if v != inf]
    assert finite and min(finite) <= 20


def test_random_phi_has_finite_residuals(F):
    rng = random.Random(9)
    a = t_pow(F, 3)
    motive = make_tmotive([[a]])
    Phi = [[PolyT.const(x) for x in row] for row in rand_small(F, rng, 2, lo=0, hi=2)]
    res = morphism_residual(motive, [[a]], Phi)
    assert any(v != inf for v in res.values())


def test_endomorphisms_of_base_power(F):
    # at A = B = 0 any constant invertible W over F_{q^2} placed on the
    # diagonal blocks (with the twisted copy below) is a morphism
    rng = random.Random(10)
    n = 2
    z = CinfElem.zero(F, N, PU * N)
    fq2 = [c for c in F.subfield(2) if c]
    while True:
        W = [[CinfElem.const(F, N, PU * N, F.el(rng.choice(fq2)))
              for _ in range(n)] for _ in range(n)]
        from tmotive.linalg import mat_det
        if not mat_det(W).is_zero():
            break
    Wt = [[q_twist(x, 1) for x in row] for row in W]
    Phi = [[PolyT.const(W[i][j]) if j < n else PolyT(F) for j in range(2 * n)]
           for i in range(n)]
    Phi += [[PolyT(F) if j < n else PolyT.const(Wt[i][j - n]) for j in range(2 * n)]
            for i in range(n)]
    zero_m = zeros(F, N, PU * N, n)
    res = morphism_residual(zero_m, zero_m, Phi)
    assert all(v == inf for v in res.values())


# -- end to end -----------------------------------------------------------------


def test_theorem_pipeline_direction(F):
    rng = random.Random(11)
    A = [[t_pow(F, 3)]]
    motive = make_tmotive(A)
    g = random_gamma(F, 1, 0, rng)
    rep = theorem3_check(motive, g, k=1)
    assert rep["siegel_match"]
    assert rep["lattices_equal"]
    assert rep["residuals_ok"]
    assert rep["det_phi_unit"]
    assert rep["det_consistency"]
