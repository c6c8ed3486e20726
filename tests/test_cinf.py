import operator
import random
from fractions import Fraction
from math import inf

import pytest

from tmotive import cinf
from tmotive.errors import PrecisionError
from tmotive.ffield import FFElem, FFPoly, ambient_field, find_root_in_field
from tmotive.cinf import (_PREC_CAP, CinfElem, PolyT, c_inv, c_root, inv_theta_i0, q_twist,
                          theta, theta_ij, t_uniformizer)

N, PU = 8, 200


@pytest.fixture(scope="module")
def F():
    return ambient_field(3, 1, 4)


def rand_series(F, rng, vmin=-3, vmax=12, nterms=5, prec=PU * N):
    terms = {}
    for _ in range(rng.randrange(1, nterms + 1)):
        terms[rng.randrange(vmin * N, vmax * N)] = F.el(rng.randrange(1, F.order))
    return CinfElem.from_terms(F, N, prec, terms.items())


def term_items(x):
    """The stored (exponent numerator, coefficient) pairs of a series."""
    return [(int(e), FFElem(x.spec, int(c))) for e, c in zip(x.exps, x.coeffs)]


def coeff_at(x, e):
    """Coefficient of t^(e/x.ram) in x."""
    return dict(term_items(x)).get(e, x.spec.zero)


def poly_eval(p, z):
    """A PolyT evaluated at T = z by Horner's rule."""
    acc = p.coeffs[-1]
    for c in reversed(p.coeffs[:-1]):
        acc = acc * z + c
    return acc


def test_construction_merges_repeated_exponents(F):
    # duplicate exponents in the input must be field-added into canonical
    # form, the only form the series kernels accept
    two = F.scalar(2)
    x = CinfElem.from_terms(F, N, PU * N, [(5, two), (5, two), (3, F.one)])
    assert [e for e, _ in term_items(x)] == [3, 5]
    assert coeff_at(x, 5) == two + two
    y = CinfElem.from_terms(F, N, PU * N, [(7, F.one), (7, two)])
    assert y.is_zero()  # 1 + 2 = 0 mod 3


def _digit_sum(G, cs):
    """Field sum of packed values, digit by digit."""
    digits = [sum(col) for col in zip(*(G.el(c).coeffs() for c in cs))]
    return G.from_coeffs(digits)


@pytest.mark.parametrize("p,s,D,copies", [(3, 2, 8, 128), (3, 2, 8, 300), (7, 1, 4, 11000)])
def test_repeated_exponents_sum_exactly_at_any_multiplicity(p, s, D, copies):
    # an 8-bit lane at q = 9 holds 127 digits of 2, a 16-bit one at p = 7
    # 10,922 digits of 6; a sum of lane words past that overflows into the
    # next digit, so the constructor must reduce between blocks of terms
    G = ambient_field(p, s, D)
    rng = random.Random(copies)
    top = G.order - 1  # every digit p - 1
    mixed = [rng.randrange(G.order) for _ in range(copies)]
    terms = [(3, 2)] * copies + [(5, top)] * copies + [(8, c) for c in mixed]
    rng.shuffle(terms)
    x = CinfElem.from_terms(G, 1, 10, terms)
    want = [(e, _digit_sum(G, cs)) for e, cs in
            ((3, [2] * copies), (5, [top] * copies), (8, mixed))]
    assert term_items(x) == [(e, c) for e, c in want if not c.is_zero()]


def test_no_term_at_or_past_the_clamped_precision(F):
    cap = cinf._PREC_CAP
    x = CinfElem.from_terms(F, 1, cap, [(5, F.one), (cap - 3, F.one), (cap - 1, F.one)])
    near = {"shift": x.shift(2), "lift_ram": x.lift_ram(2), "truncate": x.truncate(cap + 10),
            "from_terms": CinfElem.from_terms(F, 1, cap + 5, [(cap + 1, F.one)]),
            "c_inv": c_inv(CinfElem.monomial(F, 1, 8, -cap, F.one))}
    for name, y in near.items():
        assert y.prec == cap, name
        assert (y.exps < y.prec).all(), name
    assert term_items(near["shift"]) == [(7, F.one), (cap - 1, F.one)]
    assert term_items(near["lift_ram"]) == [(10, F.one)]
    assert near["c_inv"].is_zero()  # its one term, t^cap, is cut


def test_theta_difference_shape(F):
    t20 = theta_ij(F, N, PU, 2, 0)
    assert t20.valuation() == Fraction(-9)
    assert [e for e, _ in term_items(t20)] == [-9 * N, -N]
    cs = [c for _, c in term_items(t20)]
    assert cs[0] == F.one and cs[1] == -F.one


def test_add_sub_and_zero(F):
    rng = random.Random(0)
    for _ in range(40):
        x = rand_series(F, rng)
        z = CinfElem.zero(F, N, x.prec)
        assert (x + z) == x
        assert (x - x).is_zero()
        y = rand_series(F, rng)
        assert (x + y) - y == x.truncate(min(x.prec, y.prec))


def test_mul_monomials_and_prec_shift(F):
    t = t_uniformizer(F, N, PU)
    tt = t * t
    assert term_items(tt) == [(2 * N, F.one)]
    assert tt.prec == t.prec + N  # positive valuation raises absolute precision


def test_valuation_axioms_random(F):
    rng = random.Random(1)
    for _ in range(60):
        x, y = rand_series(F, rng), rand_series(F, rng)
        assert (x * y).valuation() == x.valuation() + y.valuation()
        s = x + y
        if not s.is_zero():
            assert s.valuation() >= min(x.valuation(), y.valuation())
        if x.valuation() != y.valuation() and not s.is_zero():
            assert s.valuation() == min(x.valuation(), y.valuation())


def test_inversion(F):
    rng = random.Random(2)
    t = t_uniformizer(F, N, PU)
    geo = c_inv(t - t * t)  # t^-1 (1 + t + t^2 + ...)
    for k in range(-1, 6):
        assert coeff_at(geo, k * N) == F.one
    assert c_inv(theta(F, N, PU)).same_terms(t)
    for _ in range(25):
        x = rand_series(F, rng)
        prod = x * c_inv(x)
        assert coeff_at(prod, 0) == F.one and len(prod.exps) == 1
        assert c_inv(x).prec == x.prec - 2 * x.min_exp()
    with pytest.raises(PrecisionError):
        c_inv(CinfElem.zero(F, N, 100))


def test_twist_exact_and_homomorphic(F):
    rng = random.Random(3)
    t = t_uniformizer(F, N, PU)
    tw = q_twist(t + t * t, 1)
    assert [e // N for e, _ in term_items(tw)] == [3, 6]  # char-3 power rule
    th10 = theta_ij(F, N, PU, 1, 0)
    assert q_twist(th10, 2).same_terms(theta_ij(F, N, 9 * PU, 3, 2))
    for _ in range(25):
        x, y = rand_series(F, rng), rand_series(F, rng)
        assert q_twist(x * y, 2).same_terms(q_twist(x, 2) * q_twist(y, 2))
        assert q_twist(x + y, 1).same_terms(q_twist(x, 1) + q_twist(y, 1))
        assert q_twist(q_twist(x, 1), 2) == q_twist(x, 3)
        assert q_twist(x, 0) is x


def test_negative_twist_inverts(F):
    rng = random.Random(4)
    for _ in range(10):
        x = rand_series(F, rng)
        assert q_twist(q_twist(x, -1), 1).same_terms(x)
        assert q_twist(q_twist(x, 1), -1).same_terms(x)


def test_root_square_of_uniformizer(F):
    t = t_uniformizer(F, N, PU)
    r = c_root(t * t, 2)
    assert r.same_terms(t.lift_ram(r.ram))


def test_root_unit_series_frozen_coefficients(F):
    # oracle: square the output and compare; the leading coefficients were
    # derived by matching (1 + c1 t + c2 t^2)^2 = 1 + t in characteristic 3
    one = CinfElem.const(F, N, PU * N, F.one)
    t = t_uniformizer(F, N, PU)
    s = c_root(one + t, 2)
    assert (s * s - (one + t)).is_zero()
    assert coeff_at(s, 0) == F.one
    assert coeff_at(s, N) == F.scalar(2)
    assert coeff_at(s, 2 * N) == F.one


def test_root_of_mth_power(F):
    rng = random.Random(5)
    for m in (2, 4):
        x = rand_series(F, rng, vmin=0, vmax=6)
        r = c_root(x ** m, m)
        ratio_m = (r ** m) * c_inv(x.lift_ram(r.ram) ** m)
        assert coeff_at(ratio_m, 0) == F.one and len(ratio_m.exps) == 1


def test_root_rejects_characteristic(F):
    t = t_uniformizer(F, N, PU)
    with pytest.raises(ValueError):
        c_root(t, 3)


def _oracle_inv(x):
    """Full-precision Newton inverse, y -> y (2 - unit y), written out."""
    spec = x.spec
    e0, lead = x.leading()
    rel = x.prec - e0
    unit = x.shift(-e0).scale(lead.inv()).truncate(rel)
    two = CinfElem.const(spec, x.ram, rel, spec.scalar(2))
    y = CinfElem.const(spec, x.ram, rel, spec.one)
    for _ in range(max(1, (rel - 1).bit_length() + 1)):
        y = (y * (two - unit * y)).truncate(rel)
    return y.scale(lead.inv()).shift(-e0).truncate(x.prec - 2 * e0)


def _hensel_root(x, m):
    """m-th root by the Hensel loop w -> w - (w^m - u)/(m w^(m-1)) on the unit."""
    spec = x.spec
    if x.min_exp() % m != 0:
        x = x.lift_ram(x.ram * m)
    e0, lead = x.leading()
    rel = x.prec - e0
    unit = x.shift(-e0).scale(lead.inv()).truncate(rel)
    root = find_root_in_field([-lead] + [spec.zero] * (m - 1) + [spec.one])
    if root is None:
        raise PrecisionError("leading coefficient has no m-th root")
    w = CinfElem.const(spec, x.ram, rel, spec.one)
    while True:
        err = (w ** m - unit).truncate(rel)
        if err.is_zero():
            break
        step = err * _oracle_inv((w ** (m - 1)).scale(spec.scalar(m))).truncate(rel)
        w_new = (w - step).truncate(rel)
        if w_new == w:
            break
        w = w_new
    return (w.scale(root).shift(e0 // m)).truncate(e0 // m + rel)


def _outcome(f, *args):
    try:
        y = f(*args)
    except PrecisionError:
        return "PrecisionError"
    return y.ram, y.prec, y.exps.tolist(), y.coeffs.tolist()


@pytest.mark.parametrize("p,s,D", [(3, 1, 4), (5, 1, 4), (3, 2, 8)])
def test_shared_newton_matches_oracles(p, s, D):
    G = ambient_field(p, s, D)
    q = G.q
    rng = random.Random(11 * p + s)
    for ram in (1, 2, q * q - 1):
        for m in (2, 4, q * q - 1):
            if m % p == 0:
                continue
            terms = {rng.randrange(-2 * ram, 6 * ram): G.el(rng.randrange(1, G.order))
                     for _ in range(rng.randrange(1, 5))}
            x = CinfElem.from_terms(G, ram, 10 * ram, terms.items())
            # an m-th power leading coefficient has a root; a random one may not
            x_pow = x.scale(x.leading()[1].inv() * G.el(rng.randrange(1, G.order)) ** m)
            for y in (x, x_pow):
                assert _outcome(c_inv, y) == _outcome(_oracle_inv, y)
                assert _outcome(c_root, y, m) == _outcome(_hensel_root, y, m)


def _dense_series(G, rng, ram, e0, rel):
    """A series with every exponent from e0 to e0 + rel - 1 drawn at random
    (zeros allowed) and relative precision rel; its leading coefficient is
    a fourth power, so square and fourth roots exist."""
    lead = G.el(rng.randrange(1, G.order)) ** 4
    terms = [(e0, lead)] + [(e0 + k, G.el(rng.randrange(G.order))) for k in range(1, rel)]
    x = CinfElem.from_terms(G, ram, e0 + rel, terms)
    assert x.prec - x.min_exp() == rel
    return x


@pytest.mark.parametrize("p,s,D", [(3, 1, 4), (5, 1, 4), (3, 2, 8)])
def test_doubling_schedule_matches_oracles(p, s, D):
    # rel = 1 runs no step at all; rel = 2^k + 1 is where
    # ceil(P / 2) rounds up at every level of the schedule
    G = ambient_field(p, s, D)
    q = G.q
    rng = random.Random(7 * p + s)
    for ram in (2, q * q - 1):
        for rel in (1, 2, 3, 5, 9, 17, 33, 65, 129):
            # a leading exponent divisible by 4 keeps c_root's rel for m = 2, 4
            x = _dense_series(G, rng, ram, 4 * rng.randrange(-2 * ram, 2 * ram), rel)
            assert _outcome(c_inv, x) == _outcome(_oracle_inv, x)
            for m in (2, 4):
                assert _outcome(c_root, x, m) == _outcome(_hensel_root, x, m)


def test_doubling_schedule_matches_oracles_at_iso_size(F):
    # a dense unit at the iso-q3 size: prec 200 at ram 8, rel = 1600
    x = _dense_series(F, random.Random(13), N, -3 * N, PU * N)
    assert _outcome(c_inv, x) == _outcome(_oracle_inv, x)
    assert _outcome(c_root, x, 4) == _outcome(_hensel_root, x, 4)


def test_newton_precision_doubles_per_step(F, monkeypatch):
    rel = PU * N
    x = _dense_series(F, random.Random(17), N, 0, rel)
    caps = []
    series_mul = cinf._kernels.series_mul

    def spy(*args):
        caps.append(args[-1])
        return series_mul(*args)

    monkeypatch.setattr(cinf._kernels, "series_mul", spy)
    y = c_inv(x)
    monkeypatch.undo()
    # step j = 1..J of J = bitlen(rel - 1) runs at ceil(rel / 2^(J - j))
    # and forms two products, unit y and y (2 - unit y); y = 1 is exact
    # at precision 1, so no step runs there
    J = (rel - 1).bit_length()
    schedule = [-(-rel // 2 ** (J - j)) for j in range(1, J + 1)]
    assert schedule[0] == 2 and schedule[-1] == rel
    assert caps == [P for P in schedule for _ in range(2)]
    assert y == _oracle_inv(x)


def _sparse_series(G, rng, ram, e0, rel, e):
    """lead t^(e0/N) (1 + c t^(e/N) + ...) at relative precision rel: terms at
    e0, e0 + e and three random exponents above that, the ones at or past
    rel cut, so e >= rel leaves a unit of exactly 1; lead is a fourth
    power, so square and fourth roots exist."""
    lead = G.el(rng.randrange(1, G.order)) ** 4
    ks = [e] + [e + rng.randrange(1, rel) for _ in range(3)]
    terms = [(e0, lead)] + [(e0 + k, G.el(rng.randrange(1, G.order))) for k in ks]
    x = CinfElem.from_terms(G, ram, e0 + rel, terms)
    assert x.exps[0] == e0 and (x.exps[1] - e0 == e if e < rel else len(x.exps) == 1)
    return x


@pytest.mark.parametrize("p,s,D", [(3, 1, 4), (5, 1, 4), (3, 2, 8)])
def test_newton_from_the_first_term_matches_oracles(p, s, D):
    # y = 1 is exact below the unit's first non-constant exponent e, so
    # Newton starts there: e = 1 is the old start, e >= rel takes no step
    G = ambient_field(p, s, D)
    rng = random.Random(5 * p + s)
    for ram in (2, G.q * G.q - 1):
        for rel in (40, 129):
            for e in (1, rel // 3, rel - 1, rel, rel + 5):
                x = _sparse_series(G, rng, ram, 4 * rng.randrange(-2 * ram, 2 * ram), rel, e)
                assert _outcome(c_inv, x) == _outcome(_oracle_inv, x)
                for m in (2, 4):
                    assert _outcome(c_root, x, m) == _outcome(_hensel_root, x, m)


def test_newton_steps_run_only_above_the_start(F, monkeypatch):
    rel = PU
    rng = random.Random(19)
    calls = []
    for name in ("series_mul", "series_dot", "series_add_merge"):
        def spy(*args, _name=name, _kernel=getattr(cinf._kernels, name)):
            calls.append((_name, args[-1]))
            return _kernel(*args)
        monkeypatch.setattr(cinf._kernels, name, spy)
    halvings = sorted({-(-rel // 2 ** k) for k in range(rel.bit_length() + 1)})
    for e in (1, rel // 3, rel - 1, rel, rel + 5):
        x = _sparse_series(F, rng, N, 0, rel, e)
        calls.clear()
        y = c_inv(x)
        # a step runs at each halving of rel above e, and forms two
        # products, unit y and y (2 - unit y); exactly 1 makes no kernel call
        caps = [cap for name, cap in calls if name == "series_mul"]
        assert caps == [P for P in halvings if P > e for _ in range(2)]
        assert bool(calls) == (e < rel)
        assert y == _oracle_inv(x)


@pytest.mark.parametrize("p,s,D", [(3, 1, 4), (5, 1, 4), (7, 1, 4), (3, 2, 8)])
def test_inverse_theta_difference_closed_form(p, s, D):
    # every step exp_coeffs may take: q^i ram <= 2^60 (its int64 guard)
    G = ambient_field(p, s, D)
    q = G.q
    clamped = 0
    for ram in (1, q * q - 1):
        for prec_units in (30, 200):
            i = 1
            while q ** i * ram <= 1 << 60:
                want = c_inv(theta_ij(G, ram, prec_units, i, 0))
                got = inv_theta_i0(G, ram, prec_units, i)
                assert got.prec == want.prec
                assert got.exps.tolist() == want.exps.tolist()
                assert got.coeffs.tolist() == want.coeffs.tolist()
                clamped += prec_units * ram + 2 * ram * q ** i > _PREC_CAP
                i += 1
    assert clamped  # the cases past the precision clamp are among them


def test_root_existence_is_decided_before_the_scan(monkeypatch):
    G = ambient_field(3, 2, 8)  # q = 9, 6561 elements
    m = G.q * G.q - 1
    gen = G.el(int(G.exp_np[1]))  # log 1: no m-th root, as gcd(m, 6560) = 80
    scans = []

    def spy(poly):
        scans.append(poly)
        return find_root_in_field(poly)

    monkeypatch.setattr(cinf, "find_root_in_field", spy)
    with pytest.raises(PrecisionError):
        c_root(CinfElem.monomial(G, 1, 30, 0, gen), m)
    assert scans == []
    # a lead with a root still takes the first root in packed order
    lead = gen ** m
    r = c_root(CinfElem.monomial(G, 1, 30, 0, lead), m)
    assert len(scans) == 1
    assert r.leading() == (0, find_root_in_field(scans[0]))


def test_root_existence_matches_the_scan(F):
    for m in (2, 4, 5, 8, 10, 16, 20):
        for idx in range(1, F.order):
            lead = F.el(idx)
            x = CinfElem.monomial(F, 1, 10, 0, lead)
            has = find_root_in_field([-lead] + [F.zero] * (m - 1) + [F.one]) is not None
            assert (_outcome(c_root, x, m) != "PrecisionError") == has


def test_period_guess_root_matches_hensel(F):
    for prec_units in (60, 200):
        x = -theta_ij(F, N, prec_units, 2, 0)
        assert _outcome(c_root, x, 8) == _outcome(_hensel_root, x, 8)


def test_twist_truncates_at_the_precision_clamp(F):
    x = CinfElem.monomial(F, 1, 1 << 44, (1 << 43) - 1, F.one)
    y = q_twist(x, 1)  # the term lands at 3 (2^43 - 1) >= 2^44
    assert y.prec == 1 << 44
    assert y.is_zero()


def test_twist_rejects_int64_exponent_overflow(F):
    x = CinfElem.monomial(F, 1, 1 << 44, (1 << 44) - 1, F.one)
    with pytest.raises(PrecisionError):
        q_twist(x, 12)  # 3^12 (2^44 - 1) > 2^63 - 1


def test_precision_soundness_pipeline(F):
    def pipeline(prec_units):
        t20 = theta_ij(F, N, prec_units, 2, 0)
        x = c_inv(t20 + t_uniformizer(F, N, prec_units))
        y = q_twist(x, 1) * x + c_root(
            CinfElem.const(F, N, prec_units * N, F.one) + t_uniformizer(F, N, prec_units), 2)
        return y

    lo = pipeline(100)
    hi = pipeline(160)
    assert hi.truncate(lo.prec) == lo


def _chained(pairs, adds=()):
    """a * b + c * d + ... + x, one operation at a time."""
    terms = [a * b for a, b in pairs] + list(adds)
    acc = terms[0]
    for x in terms[1:]:
        acc = acc + x
    return acc


def _mixed_series(G, rng, ram):
    # declared precision and valuation vary per operand; some are term-free
    prec = rng.randrange(10, 50) * ram
    if rng.random() < 0.2:
        return CinfElem.zero(G, ram, prec)
    terms = {rng.randrange(-3 * ram, prec): G.el(rng.randrange(1, G.order))
             for _ in range(rng.randrange(1, 12))}
    return CinfElem.from_terms(G, ram, prec, terms.items())


@pytest.mark.parametrize("p,s,D", [(3, 1, 4), (5, 1, 4), (3, 2, 8)])
def test_dot_is_the_chained_sum(p, s, D):
    # the same bits and the same declared precision as the chained sum, at
    # q = 3, 5 and 9, at one ramification and at mixed ones
    G = ambient_field(p, s, D)
    rng = random.Random(40 + G.q)
    for trial in range(40):
        rams = (8,) if trial % 2 else (8, 4, 6, 3)
        pairs = [(_mixed_series(G, rng, rng.choice(rams)), _mixed_series(G, rng, rng.choice(rams)))
                 for _ in range(rng.randrange(1, 6))]
        adds = [_mixed_series(G, rng, rng.choice(rams)) for _ in range(rng.randrange(0, 3))]
        got, want = cinf.dot(pairs, adds), _chained(pairs, adds)
        assert got == want and (got.ram, got.prec) == (want.ram, want.prec)
        a, b = pairs[0]
        one = cinf.dot([(a, b)])
        assert one == a * b and (one.ram, one.prec) == ((a * b).ram, (a * b).prec)
        if adds:
            assert cinf.dot([], adds) == _chained([], adds)


def test_dot_cuts_a_product_to_nothing(F):
    # a product whose terms all lie past the least precision of the sum
    # adds nothing, yet its own precision counts, as in the chained sum
    hi = CinfElem.from_terms(F, N, 100 * N, [(40 * N, F.one), (41 * N, F.scalar(2))])
    lo = CinfElem.from_terms(F, N, 20 * N, [(N, F.one), (3 * N, F.one)])
    one = CinfElem.const(F, N, 100 * N, F.one)
    zero = CinfElem.zero(F, N, 30 * N)
    for pairs, adds in (([(lo, one), (hi, hi)], []), ([(hi, hi)], [lo]),
                        ([(zero, hi), (hi, lo)], []), ([(zero, zero)], [hi])):
        got = cinf.dot(pairs, adds)
        assert got == _chained(pairs, adds)
    assert cinf.dot([(lo, one), (hi, hi)]) == lo
    with pytest.raises(ValueError):
        cinf.dot([(lo, CinfElem.const(ambient_field(5, 1, 4), N, 10 * N, F.one))])


def test_equality_and_ram_lift(F):
    t8 = t_uniformizer(F, N, PU)
    t16 = t8.lift_ram(16)
    assert t8 == t16
    assert t8.same_terms(t16)
    assert not (t8 == t8.truncate(t8.prec - N))  # differing precision


def test_serialization_roundtrip(F):
    rng = random.Random(6)
    for _ in range(10):
        x = rand_series(F, rng)
        assert CinfElem.from_json(F, x.to_json()) == x


def test_poly_t_operations(F):
    th = theta(F, N, PU)
    one = CinfElem.const(F, N, PU * N, F.one)
    tm = PolyT.t_minus(th)
    assert poly_eval(tm, th).is_zero()
    tw = tm.twist(1)
    assert tw.coeffs[0].same_terms(-q_twist(th, 1))
    assert tw.coeffs[1].same_terms(one)
    prod = tm * PolyT(F, (th, one))  # (T-th)(T+th)
    assert prod.degree() == 2
    assert prod.coeffs[1].is_zero()
    assert prod.coeffs[0].same_terms(-(th * th))
    s = tm + tm
    assert s.coeffs[0].same_terms(th.scale(F.scalar(-2)))


# The oracle for Poly's arithmetic over the series: each missing
# T-coefficient of an operand is a zero at the precision clamp, added in.


def _padded_coeff(p, i):
    if i < len(p.coeffs):
        return p.coeffs[i]
    ram = p.coeffs[0].ram if p.coeffs else 1
    return CinfElem.zero(p.spec, ram, cinf._PREC_CAP)


def _padded(x, y, op):
    n = max(len(x.coeffs), len(y.coeffs))
    return PolyT(x.spec, [op(_padded_coeff(x, i), _padded_coeff(y, i)) for i in range(n)])


def _oracle_mul(x, y):
    if x.is_zero() or y.is_zero():
        return PolyT(x.spec)
    out = [None] * (len(x.coeffs) + len(y.coeffs) - 1)
    for i, a in enumerate(x.coeffs):
        for j, b in enumerate(y.coeffs):
            p = a * b
            out[i + j] = p if out[i + j] is None else out[i + j] + p
    return PolyT(x.spec, out)


def _oracle_eq(x, y):
    return len(x.coeffs) == len(y.coeffs) and all(a == b for a, b in zip(x.coeffs, y.coeffs))


def rand_poly_t(F, rng, deg):
    """Series coefficients of varying precision; some middle ones are zero
    to precision."""
    cs = [rand_series(F, rng, prec=rng.randrange(20, PU) * N) for _ in range(deg + 1)]
    for i in range(1, deg):
        if rng.random() < 0.3:
            cs[i] = CinfElem.zero(F, N, rng.randrange(20, PU) * N)
    return PolyT(F, cs)


def test_poly_t_arithmetic_matches_zero_padded_oracle(F):
    rng = random.Random(11)
    for _ in range(30):
        da, db = rng.sample(range(-1, 5), 2)
        a, b = rand_poly_t(F, rng, da), rand_poly_t(F, rng, db)
        for x, y in ((a, b), (b, a)):
            # PolyT equality is CinfElem's, so the precision of every
            # coefficient must match too
            assert x + y == _padded(x, y, operator.add)
            assert x - y == _padded(x, y, operator.sub)
            assert x * y == _oracle_mul(x, y)
        assert not (a == b) and not _oracle_eq(a, b)
        assert a == PolyT(F, a.coeffs) and _oracle_eq(a, PolyT(F, a.coeffs))
        if a.coeffs:
            lower = PolyT(F, (a.coeffs[0].truncate(a.coeffs[0].prec - 1),) + a.coeffs[1:])
            assert not (a == lower) and not _oracle_eq(a, lower)
        assert (a - a).is_zero()
    assert not (FFPoly(F) == PolyT(F)) and not (PolyT(F) == FFPoly(F))


def test_poly_t_sum_merges_only_the_common_coefficients(F, monkeypatch):
    # a sum of degrees a < b runs the merge-add on the a + 1 common
    # coefficients and copies the longer operand's tail
    rng = random.Random(12)
    calls = []
    merge = cinf._kernels.series_add_merge

    def spy(*args):
        calls.append(1)
        return merge(*args)

    monkeypatch.setattr(cinf._kernels, "series_add_merge", spy)
    for da, db in ((0, 3), (1, 4), (2, 2)):
        a = PolyT(F, [rand_series(F, rng) for _ in range(da + 1)])
        b = PolyT(F, [rand_series(F, rng) for _ in range(db + 1)])
        for op in (operator.add, operator.sub):
            for x, y in ((a, b), (b, a)):
                calls.clear()
                op(x, y)
                assert len(calls) == min(da, db) + 1
