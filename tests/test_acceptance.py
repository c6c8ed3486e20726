"""The acceptance gate: every criterion at its stated tolerance.

Runs with the standard configuration (q = 3, prec = 200 exponent units
at ramification 8, slack 10, fixed seed), plus a short q = 9 pipeline
run.  Criterion runtimes print with pytest -s; the full file takes on
the order of half a minute.
"""

import random

import pytest

from tmotive import acceptance, cinf
from tmotive.acceptance import run_criterion
from tmotive.anderson import make_tmotive
from tmotive.config import Config
from tmotive.isomsolver import theorem3_check
from tmotive.latticemap import random_gamma

CFG = Config()

NAMES = {
    1: "base-point coefficients vs closed form",
    2: "period valuation and root residuals",
    3: "exponential functional equation",
    4: "first-order slope of the lattice map",
    5: "diagram commutes on random members",
    6: "stabilizer fixes the base point; action composes",
    7: "isomorphism pipeline end to end",
    8: "precision soundness of every pipeline output",
    9: "negative controls",
}


@pytest.mark.parametrize("number", sorted(NAMES))
def test_criterion(number):
    res = run_criterion(number, CFG)
    print(res.line())
    assert res.passed, f"criterion {number} failed: {res.details}"


def test_criterion_1_names_coefficients_past_the_precision_clamp(monkeypatch):
    # C8 leads at valuation 4 * 3^8 units, exponent numerator 209,952 at
    # ram 8, past a clamp of 2^17: both sides are zero there, and the
    # details name it (q = 25 meets the real clamp 2^44 the same way)
    monkeypatch.setattr(cinf, "_PREC_CAP", 1 << 17)
    res = acceptance.criterion_1(Config(prec=60))
    assert res.passed, res.details
    assert res.details["vacuous"] == ["C8"]


def test_criterion_8_reruns_above_working_precision(monkeypatch):
    # the rerun sits half the working precision higher, so at prec 300 it
    # does not compare a run with itself
    calls = []

    def spy(cfg, ns):
        calls.append(cfg.prec)
        return {}

    monkeypatch.setattr(acceptance, "_pipeline_artifacts", spy)
    acceptance.criterion_8(Config(prec=300))
    assert calls == [300, 450]


@pytest.mark.xfail(strict=True, reason=(
    "solve_iso stops as soon as the residual vanishes, so the final update "
    "W1^-1(-residual) is never formed and B keeps the precision of the last "
    "applied update: at n = 2, k = 1 it declares 384 numerators where the "
    "final update certifies 368, and the rerun at prec 90 differs from B2 "
    "and phi2 at exponent 368"))
def test_criterion_8_at_prec_60():
    res = acceptance.criterion_8(Config(prec=60))
    assert res.passed, res.details


@pytest.mark.xfail(strict=True, reason=(
    "recover_change_of_basis misses the change of basis on 2 of the 15 runs: "
    "the k = 1 run finds none up to degree 6 and the k = 2 run raises "
    "'ambiguous recovery: nullspace dimension 4', while siegel_match holds "
    "on both; the kept exponents are not cut at the certified precision of "
    "each theta-shifted column, so rows above it read an unknown coefficient "
    "as zero (ROADMAP item 9)"))
def test_criterion_7_at_q9_recovers_every_change_of_basis():
    res = acceptance.criterion_7(Config.from_q(9, prec=30, slack=5), ns=(1,))
    missed = [r for r in res.details["failed_runs"] if not r["lattices_equal"]]
    assert not missed, missed


def test_pipeline_at_q9():
    # D = 8, so the series products run on 8-bit lanes.  The literal
    # determinant identity N(det W1) = det(gamma)^n fails for q > 3 whenever
    # det(gamma)^(2n) != 1, so only the flags criterion 7 requires besides it
    cfg = Config.from_q(9, prec=30, slack=5)
    spec, ram = cfg.spec, cfg.ram
    rng = random.Random(cfg.seed + 7000)
    for k in (0, 1):
        A = acceptance._random_matrix(spec, rng, 1, ram, cfg.prec_num, 3, 6)
        rep = theorem3_check(make_tmotive(A, v_min=cfg.v_min), random_gamma(spec, 1, k, rng),
                             k=k, slack=cfg.slack)
        assert all(rep[f] for f in acceptance._ISO_FLAGS), {f: rep[f] for f in acceptance._ISO_FLAGS}
    res = acceptance.criterion_8(cfg, ns=(1,))
    assert res.passed, res.details
