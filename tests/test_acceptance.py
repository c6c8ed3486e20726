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


@pytest.mark.parametrize("number", [3, 5])
def test_criterion_at_n3(number):
    # n = 3 through the real pipeline: the exponential's functional
    # equation, and the lattice round trip, which runs the 3 x 3 Siegel
    # solve and the rank test's 3 x 3 determinant
    res = run_criterion(number, Config(prec=100), ns=(3,))
    print(res.line())
    assert res.passed, f"criterion {number} failed at n = 3: {res.details}"


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


def test_criterion_7_runs_one_draw_per_larger_n():
    # one k = 0 and one k = 1 draw at n = 3
    res = acceptance.criterion_7(Config(prec=60), ns=(3,))
    assert res.passed and res.details["runs"] == 2, res.details


def test_criterion_7_fails_when_it_runs_nothing():
    res = acceptance.criterion_7(Config(prec=60), ns=())
    assert not res.passed and res.details["runs"] == 0


# criterion 7's failing runs of 15 at n = 1, prec 30, slack 5:
# (det_literal false, lattices_equal false)
_C7_FAILS = {5: (6, 0), 7: (12, 0), 11: (12, 1), 13: (14, 0), 25: (14, 4), 27: (15, 7)}


def _sweep_cases():
    for q, (det, lat) in _C7_FAILS.items():
        for number in sorted(NAMES):
            marks = ()
            if number == 7:
                reason = (f"det_literal is false on {det} of 15 runs: N(det W1) = "
                          "det(gamma)^n holds only when det(gamma)^(2n) = 1 (ROADMAP item 6)")
                if lat:
                    reason += (f"; lattices_equal is false on {lat} while siegel_match "
                               "holds (ROADMAP item 9)")
                marks = pytest.mark.xfail(strict=True, reason=reason)
            yield pytest.param(q, number, marks=marks, id=f"q{q}-c{number}")


@pytest.mark.parametrize("q, number", _sweep_cases())
def test_criterion_at_every_odd_q(q, number):
    # each q's criteria run in a row, so its field tables are built once
    res = run_criterion(number, Config.from_q(q, prec=30, slack=5), ns=(1,))
    assert res.passed, res.details


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
