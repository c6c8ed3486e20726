"""Acceptance suite: each criterion is a function returning a result record.

Everything is deterministic for a fixed configuration seed.  The CLI
`accept` subcommand and tests/test_acceptance.py both drive run_all and
print one PASS/FAIL line per criterion.
"""

import random
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import inf

from .anderson import exp_coeffs, exp_eval_scalar, functional_residual, make_tmotive
from .cinf import CinfElem, PolyT, c_inv, theta_ij, t_uniformizer
from .config import Config
from .errors import GammaShapeError, NeighborhoodError
from .ffield import FFPoly
from .latticemap import (GammaElem, SiegelMatrix, carlitz_period, d10_series,
                         lattice_of, lattices_equal, mobius, mu13, mu34,
                         perturbed_root, random_gamma, siegel_of)
from .isomsolver import (ISO_FLAGS as _ISO_FLAGS, morphism_residual, solve_iso,
                         theorem3_check)
from .linalg import eye, mat_sub


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    details: dict = field(default_factory=dict)
    seconds: float = 0.0

    def line(self):
        tag = "PASS" if self.passed else "FAIL"
        return f"{tag} criterion {self.number}: {self.name} ({self.seconds:.1f}s)"


def _vanishes_to(x, units):
    """Certified zero: no terms below the bound and precision past it."""
    return x.prec_units() >= units and x.valuation() >= units


def _random_series(spec, rng, ram, prec, vmin, vmax, nterms=3):
    fq2 = [c for c in spec.subfield(2) if c]
    terms = []
    for _ in range(rng.randrange(1, nterms + 1)):
        e = rng.randrange(vmin * ram, vmax * ram)
        terms.append((e, spec.el(rng.choice(fq2))))
    x = CinfElem.from_terms(spec, ram, prec, terms)
    if x.is_zero():
        return CinfElem.monomial(spec, ram, prec, vmin * ram, spec.one)
    return x


def _random_matrix(spec, rng, n, ram, prec, vmin, vmax):
    return [[_random_series(spec, rng, ram, prec, vmin, vmax) for _ in range(n)]
            for _ in range(n)]


def _omega_eye(spec, ram, prec, n):
    return SiegelMatrix(eye(spec, ram, prec, n, scale=spec.omega))


# ---------------------------------------------------------------------------


def criterion_1(cfg):
    """Base-point coefficients match the closed product form, bit-exactly.

    details["vacuous"] names each C_{2i} whose closed form is term-free:
    its leading term lies past the precision clamp, so both sides are zero.
    """
    t0 = time.time()
    spec, ram = cfg.spec, cfg.ram
    prec = cfg.prec_num
    base = make_tmotive([[CinfElem.zero(spec, ram, prec)]])
    co = exp_coeffs(base, imax=8)
    ok = co.C[1][0][0].is_zero() and co.C[3][0][0].is_zero()
    details = {"odd_vanish": ok, "vacuous": []}
    for i in range(1, 5):
        prod = None
        for j in range(i):
            f = theta_ij(spec, ram, cfg.prec, 2 * i, 2 * j)
            prod = f if prod is None else prod * f
        closed = c_inv(prod)
        match = co.C[2 * i][0][0].same_terms(closed)
        details[f"C{2*i}"] = match
        if closed.is_zero():
            details["vacuous"].append(f"C{2*i}")
        ok = ok and match
    return CriterionResult(1, "base-point coefficients vs closed form", ok,
                           details, time.time() - t0)


def criterion_2(cfg):
    """Period valuation is exact; both anchor multiples are roots."""
    t0 = time.time()
    spec, ram = cfg.spec, cfg.ram
    q = cfg.q
    y0 = carlitz_period(spec, ram, cfg.prec)
    v_ok = y0.valuation() == Fraction(-q * q, q * q - 1)
    base = make_tmotive([[CinfElem.zero(spec, ram, cfg.prec_num)]])
    co = exp_coeffs(base)
    tol = cfg.prec - cfg.slack
    r1 = exp_eval_scalar(co, y0)
    r2 = exp_eval_scalar(co, y0.scale(spec.omega))
    ok = v_ok and _vanishes_to(r1, tol) and _vanishes_to(r2, tol)
    return CriterionResult(2, "period valuation and root residuals", ok,
                           {"v": str(y0.valuation()), "res1": str(r1.valuation()),
                            "res2": str(r2.valuation())}, time.time() - t0)


def criterion_3(cfg, ns=(1, 2)):
    """Intertwining identity residual vanishes on random samples."""
    t0 = time.time()
    spec, ram = cfg.spec, cfg.ram
    prec = cfg.prec_num
    rng = random.Random(cfg.seed + 3000)
    tol = cfg.prec - cfg.slack
    ok = True
    worst = inf
    for n in ns:
        for _ in range(5):
            A = _random_matrix(spec, rng, n, ram, prec, cfg.v_min, cfg.v_min + 3)
            motive = make_tmotive(A, v_min=cfg.v_min)
            co = None
            for _ in range(4):
                z = [_random_series(spec, rng, ram, prec, 1, 5) for _ in range(n)]
                if co is None:
                    floor = min(x.valuation() for x in z) - 1
                    co = exp_coeffs(motive, z_floor=min(floor, Fraction(-9, 8)))
                _, vals = functional_residual(motive, z, coeffs=co)
                worst = min(worst, min(vals))
                ok = ok and all(v >= tol for v in vals)
    return CriterionResult(3, "exponential functional equation", ok,
                           {"worst_residual": str(worst)}, time.time() - t0)


def criterion_4(cfg):
    """First-order slope of the lattice map against the two slope series."""
    t0 = time.time()
    spec, ram = cfg.spec, cfg.ram
    prec = cfg.prec_num
    y0 = carlitz_period(spec, ram, cfg.prec)
    d10, d10p = d10_series(spec, ram, cfg.prec)
    w = spec.omega
    l1 = (d10.scale(w) - d10p) * c_inv(y0)
    l1_ok = (not l1.is_zero()) and l1.valuation() != inf
    sep_ok = not (d10p - d10.scale(w)).is_zero()
    slopes = {}
    root_ok = True
    for m in (8, 12):
        a = t_uniformizer(spec, ram, cfg.prec) ** m
        motive = make_tmotive([[a]])
        co = exp_coeffs(motive)
        # root slope: (root - y0)/a -> -d10 and the omega-anchored analog
        za = perturbed_root([y0], co)[0]
        s_root = (za - y0) * c_inv(a)
        root_ok = root_ok and (s_root + d10).valuation() > d10.valuation()
        zap = perturbed_root([y0.scale(w)], co)[0]
        s_rootp = (zap - y0.scale(w)) * c_inv(a)
        root_ok = root_ok and (s_rootp + d10p).valuation() > d10p.valuation()
        Z = mu13(motive, coeffs=co)
        dz = Z.Z[0][0] - CinfElem.const(spec, ram, prec, w)
        slopes[m] = dz * c_inv(a)
    match_ok = all((slopes[m] - l1).valuation() > l1.valuation() for m in (8, 12))
    agree_ok = (slopes[8] - slopes[12]).valuation() > l1.valuation()
    ok = l1_ok and sep_ok and match_ok and agree_ok and root_ok
    return CriterionResult(4, "first-order slope of the lattice map", ok,
                           {"v_l1": str(l1.valuation()),
                            "slope_gap": str((slopes[8] - l1).valuation()),
                            "root_slopes": root_ok}, time.time() - t0)


def criterion_5(cfg, ns=(1, 2)):
    """The square of maps commutes: both lattice routes agree as classes."""
    t0 = time.time()
    spec, ram = cfg.spec, cfg.ram
    prec = cfg.prec_num
    rng = random.Random(cfg.seed + 5000)
    ok = True
    count = 0
    for n in ns:
        for _ in range(5):
            A = _random_matrix(spec, rng, n, ram, prec, cfg.v_min, cfg.v_min + 3)
            motive = make_tmotive(A, v_min=cfg.v_min)
            co = exp_coeffs(motive)
            l_direct = lattice_of(motive, coeffs=co)
            l_routed = mu34(siegel_of(l_direct))
            eq, _ = lattices_equal(l_direct, l_routed, deg_cap=4,
                                   slack_units=cfg.slack)
            ok = ok and eq
            count += 1
    return CriterionResult(5, "diagram commutes on random members", ok,
                           {"instances": count}, time.time() - t0)


def criterion_6(cfg, ns=(1, 2)):
    """Stabilizer fixes the base Siegel matrix; the action composes."""
    t0 = time.time()
    spec, ram = cfg.spec, cfg.ram
    prec = cfg.prec_num
    rng = random.Random(cfg.seed + 6000)
    ok = True
    for n in ns:
        Zw = _omega_eye(spec, ram, prec, n)
        for _ in range(10):
            g = random_gamma(spec, n, rng.choice([0, 1, 2]), rng)
            img = mobius(g, Zw)
            diff = mat_sub(img.Z, Zw.Z)
            ok = ok and all(len(x.exps) == 0 for r in diff for x in r)
    pairs_ok = True
    for n in ns:
        for _ in range(5):
            g1 = random_gamma(spec, n, 1, rng)
            g2 = random_gamma(spec, n, 1, rng)
            Z = _omega_eye(spec, ram, prec, n).Z
            Z[0][0] = Z[0][0] + _random_series(spec, rng, ram, prec, 2, 5)
            Zs = SiegelMatrix(Z)
            lhs = mobius(g1.compose(g2), Zs)
            rhs = mobius(g1, mobius(g2, Zs))
            pairs_ok = pairs_ok and all(
                x.same_terms(y) for rl, rr in zip(lhs.Z, rhs.Z)
                for x, y in zip(rl, rr))
    ok = ok and pairs_ok
    return CriterionResult(6, "stabilizer fixes the base point; action composes",
                           ok, {"composition": pairs_ok}, time.time() - t0)


def criterion_7(cfg, ns=(1, 2)):
    """Isomorphism pipeline: solve, residuals, determinants, Siegel match."""
    t0 = time.time()
    spec, ram = cfg.spec, cfg.ram
    prec = cfg.prec_num
    rng = random.Random(cfg.seed + 7000)
    runs = 0
    failed_runs = []
    plan = []
    if 1 in ns:
        plan += [(1, k, 5) for k in (0, 1, 2)]
    if 2 in ns:
        plan += [(2, k, 3) for k in (0, 1)]
    for n, k, reps in plan:
        for _ in range(reps):
            A = _random_matrix(spec, rng, n, ram, prec, 3, 6)
            motive = make_tmotive(A, v_min=cfg.v_min)
            g = random_gamma(spec, n, k, rng)
            rep = theorem3_check(motive, g, k=k, slack=cfg.slack)
            # every theorem3_check flag, and the literal determinant identity
            flags = {f: rep[f] for f in _ISO_FLAGS}
            flags["det_literal"] = rep["solution"].det_literal()
            runs += 1
            if not all(flags.values()):
                failed_runs.append({"n": n, "k": k, **flags})
    return CriterionResult(7, "isomorphism pipeline end to end", not failed_runs,
                           {"runs": runs, "failed_runs": failed_runs},
                           time.time() - t0)


def criterion_8(cfg, ns=(1, 2)):
    """Higher-precision reruns truncate to the working-precision outputs."""
    t0 = time.time()
    lo = _pipeline_artifacts(cfg, ns)
    hi = _pipeline_artifacts(replace(cfg, prec=cfg.prec + cfg.prec // 2), ns)
    mism = [key for key, x in lo.items() if not _truncate_match(hi[key], x)]
    return CriterionResult(8, "precision soundness of every pipeline output", not mism,
                           {"mismatched": mism, "artifacts": len(lo)}, time.time() - t0)


def _truncate_match(hi, lo):
    if isinstance(lo, CinfElem):
        a, b = hi._common(lo)
        return a.truncate(b.prec) == b
    if isinstance(lo, (list, tuple)):
        return len(hi) == len(lo) and all(_truncate_match(a, b) for a, b in zip(hi, lo))
    return hi == lo


def _pipeline_artifacts(cfg, ns):
    """A deterministic bundle touching the numeric surface of criteria 1-7."""
    spec, ram, prec_units = cfg.spec, cfg.ram, cfg.prec
    prec = prec_units * ram
    rng = random.Random(cfg.seed + 8000)
    out = {}
    base = make_tmotive([[CinfElem.zero(spec, ram, prec)]])
    co0 = exp_coeffs(base, imax=6)
    out["c2"] = co0.C[2][0][0]
    out["c4"] = co0.C[4][0][0]
    y0 = carlitz_period(spec, ram, prec_units)
    out["y0"] = y0
    d10, d10p = d10_series(spec, ram, prec_units)
    out["d10"] = d10
    out["d10p"] = d10p
    for n in ns:
        A = _random_matrix(spec, rng, n, ram, prec, 3, 6)
        motive = make_tmotive(A, v_min=cfg.v_min)
        co = exp_coeffs(motive)
        z = [_random_series(spec, rng, ram, prec, 1, 4) for _ in range(n)]
        resid, _ = functional_residual(motive, z, coeffs=co)
        out[f"fres{n}"] = resid
        Z = mu13(motive, coeffs=co)
        out[f"mu13_{n}"] = [x for row in Z.Z for x in row]
        g = random_gamma(spec, n, 1, rng)
        sol = solve_iso(motive, g, k=1)
        out[f"B{n}"] = [x for row in sol.B for x in row]
        out[f"phi{n}"] = [c for row in sol.Phi for p in row for c in p.coeffs]
        img = mobius(g, Z)
        out[f"mob{n}"] = [x for row in img.Z for x in row]
    return out


def criterion_9(cfg):
    """Negative controls: bad inputs are rejected, corruption is visible."""
    t0 = time.time()
    spec, ram = cfg.spec, cfg.ram
    prec = cfg.prec_num
    rejected_big = False
    try:
        make_tmotive([[c_inv(t_uniformizer(spec, ram, cfg.prec))]], v_min=cfg.v_min)
    except NeighborhoodError:
        rejected_big = True
    rejected_shape = False
    th = FFPoly.theta(spec)
    one = FFPoly.const(spec.one)
    z = FFPoly(spec)
    bad = [[one, th], [z, one]]  # 2 x 2 without the block structure
    try:
        GammaElem.from_assembled(spec, bad)
    except GammaShapeError:
        rejected_shape = True
    # corrupt a solved isomorphism and expect finite residual valuations
    rng = random.Random(cfg.seed + 9000)
    a = t_uniformizer(spec, ram, cfg.prec) ** 3
    motive = make_tmotive([[a]])
    g = random_gamma(spec, 1, 0, rng)
    sol = solve_iso(motive, g)
    Phi = [row[:] for row in sol.Phi]
    bump = CinfElem.monomial(spec, ram, prec, 2 * ram, spec.one)
    Phi[0][0] = Phi[0][0] + PolyT.const(bump)
    res = morphism_residual(motive, sol.B, Phi)
    corrupted_visible = any(v != inf and v < cfg.prec - cfg.slack
                            for v in res.values())
    ok = rejected_big and rejected_shape and corrupted_visible
    return CriterionResult(9, "negative controls", ok,
                           {"neighborhood": rejected_big, "shape": rejected_shape,
                            "corruption": corrupted_visible}, time.time() - t0)


# ---------------------------------------------------------------------------


_CRITERIA = {
    1: criterion_1,
    2: criterion_2,
    3: criterion_3,
    4: criterion_4,
    5: criterion_5,
    6: criterion_6,
    7: criterion_7,
    8: criterion_8,
    9: criterion_9,
}

_TAKES_NS = {3, 5, 6, 7, 8}


def run_criterion(number, cfg, ns=(1, 2)):
    fn = _CRITERIA[number]
    if number in _TAKES_NS:
        return fn(cfg, ns=ns)
    return fn(cfg)


def run_all(cfg=None, numbers=None, ns=(1, 2), echo=print):
    cfg = cfg or Config()
    numbers = numbers or sorted(_CRITERIA)
    results = []
    for num in numbers:
        res = run_criterion(num, cfg, ns=ns)
        results.append(res)
        if echo:
            echo(res.line())
    return results
