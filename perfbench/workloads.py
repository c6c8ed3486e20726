"""Seeded workloads: input generation, the op each one replays, output checks.

Every workload is a fixed schedule of input classes (dimension n, ansatz
degree k, leading valuation band, term count per entry), replayed in
order.  The exponent pattern of every class is drawn once per workload;
what is left of an input is a nonzero coefficient from F_{q^2} per term
and, for the iso workloads, the unit that makes gamma.  Op cost follows
the exponent structure, so every seed runs the same mix of work, and two
seeds differ only by those values.

The seed draws those values uniformly, op by op.  A seed other than the
default redraws any op the default seed runs among its first DIGEST_OPS
ops, so no other seed, the holdout included, repeats an op whose digest
is stored for the default seed.  At n = 1 with one term a class has few
inputs (64 at q = 3), so without that rule seeds would share ops.  Why
each workload exists:

* ``iso-q3``: theorem3_check at q = 3, prec 200, n = 1, k in {0, 1, 2},
  single-term entries of valuation 3-6.  The paper's headline theorem on
  long dense series (operands up to 1600 exponent numerators).
* ``lattice-q3``: the criterion-5 square of maps (exp_coeffs, lattice_of,
  mu34(mu13(...)), lattices_equal) at q = 3, prec 60, n in {1, 2},
  two-term entries at n = 1 and one- or two-term entries at n = 2, of
  valuation 1-4.  No solver and no product with more than 400 terms: it
  bypasses the large-product path and isomsolver.
* ``iso-q5``: theorem3_check at q = 5 (625-element field, ram 24),
  prec 120, n = 1, k in {0, 1}, single-term entries of valuation 3-6.
  Sparse operands in wide windows, and a second field size.

At n = 1 the stabilizer group is the constants, so gamma is
gamma_from_alpha of a constant unit, which is what random_gamma builds
there; the iso workloads build it from the chosen unit directly.
"""

import hashlib
import json
import random
from dataclasses import dataclass

from tmotive.anderson import exp_coeffs, make_tmotive
from tmotive.cinf import CinfElem
from tmotive.ffield import FFPoly, ambient_field
from tmotive.isomsolver import theorem3_check
from tmotive.latticemap import (carlitz_period, gamma_from_alpha, lattice_of,
                                lattices_equal, mu13, mu34)

from run import DEFAULT_SEED

# op inputs generated per run; far more than a run of the declared length
# completes, so the timed phase never runs out of inputs
STREAM_LEN = 400
# ops per seed whose output digests expected.json stores
DIGEST_OPS = 48

ISO_FLAGS = ("residuals_ok", "det_phi_unit", "det_consistency",
             "siegel_match", "lattices_equal")


@dataclass(frozen=True)
class Spec:
    """Static description of a workload."""

    name: str
    kind: str           # "iso" or "lattice"
    q: int
    prec: int           # exponent units of working precision
    schedule: tuple     # classes (n, k, vmin, nterms), replayed in order
    vmax: int           # every term has valuation < vmax

    @property
    def ram(self):
        return self.q * self.q - 1


# Op i of a pass takes its valuation band from i % 4, visiting the bands in
# the order 1 3 2 4, and its n (and term count, or k) from i % 5 (or i % 3,
# i // 4): the strongest cost drivers cycle fastest, so the ops a run
# completes have the same mix of work however many of them fit into its
# time.  lattice-q3 runs one n = 1 op per four n = 2 ops, so that its median
# op falls inside the n = 2 costs rather than on the gap below them.
_BANDS = (0, 2, 1, 3)
_LATTICE_NT = ((1, 2), (2, 1), (2, 2), (2, 1), (2, 2))
WORKLOADS = {
    "iso-q3": Spec("iso-q3", "iso", 3, 200,
                   tuple((1, i % 3, 3 + _BANDS[i % 4], 1) for i in range(12)), 8),
    "lattice-q3": Spec("lattice-q3", "lattice", 3, 60,
                       tuple((_LATTICE_NT[i % 5][0], 0, 1 + _BANDS[i % 4], _LATTICE_NT[i % 5][1])
                             for i in range(20)), 6),
    "iso-q5": Spec("iso-q5", "iso", 5, 120,
                   tuple((1, i // 4, 3 + _BANDS[i % 4], 1) for i in range(8)), 8),
}


@dataclass
class Inputs:
    """Everything the timed phase needs; built during set-up."""

    spec: Spec
    ops: list           # per op: dict(n, k, A, gamma)


def _exponents(rng, ram, vmin, vmax, nterms):
    """nterms distinct exponent numerators; the leading one has valuation
    in [vmin, vmin + 1), the rest lie above it and below vmax."""
    lead = rng.randrange(vmin * ram, (vmin + 1) * ram)
    return [lead] + rng.sample(range(lead + 1, vmax * ram), nterms - 1)


def patterns(spec):
    """Exponent pattern of every op of one pass through the schedule.

    Drawn once per workload, not per seed: op cost follows the exponent
    structure, so every seed measures the same amount of work.
    """
    rng = random.Random(f"{spec.name}:exponents")
    return [[[_exponents(rng, spec.ram, vmin, spec.vmax, nterms) for _ in range(n)]
             for _ in range(n)] for n, _, vmin, nterms in spec.schedule]


def _value_indices(spec, sizes, seed):
    """Per op, an index into its class's input space, drawn from the seed.

    Any other seed redraws the indices the default seed uses for its
    first DIGEST_OPS ops.
    """
    taken = set()
    if seed != DEFAULT_SEED:
        default = _value_indices(spec, sizes, DEFAULT_SEED)[:DIGEST_OPS]
        taken = {(i % len(sizes), x) for i, x in enumerate(default)}
    rng = random.Random(f"{spec.name}:{seed}")
    out = []
    for i in range(STREAM_LEN):
        x = rng.randrange(sizes[i % len(sizes)])
        while (i % len(sizes), x) in taken:
            x = rng.randrange(sizes[i % len(sizes)])
        out.append(x)
    return out


def setup(name, seed):
    """Build the field tables, warm the period cache and draw the inputs."""
    spec = WORKLOADS[name]
    field = ambient_field(spec.q, 1, 4)
    carlitz_period(field, spec.ram, spec.prec)
    units = [c for c in field.subfield(2) if c]
    pats = patterns(spec)
    # a class's inputs: a unit per term and, for iso, one more for gamma
    sizes = [len(units) ** (sum(len(e) for row in p for e in row) + (spec.kind == "iso"))
             for p in pats]
    ops = []
    for i, idx in enumerate(_value_indices(spec, sizes, seed)):
        n, k, _, _ = spec.schedule[i % len(pats)]
        # idx in mixed radix: a unit per term, then gamma's unit
        A = []
        for row in pats[i % len(pats)]:
            A.append([])
            for exps in row:
                terms = []
                for e in exps:
                    idx, c = divmod(idx, len(units))
                    terms.append((e, field.el(units[c])))
                A[-1].append(CinfElem.from_terms(field, spec.ram, spec.prec * spec.ram, terms))
        gamma = None
        if spec.kind == "iso":
            gamma = gamma_from_alpha(field, [[FFPoly.const(field.el(units[idx]))]], k=k)
        ops.append({"n": n, "k": k, "A": A, "gamma": gamma})
    return Inputs(spec, ops)


def run_op(spec, op):
    """One call of the workload's entry point; returns its raw outputs."""
    motive = make_tmotive(op["A"])
    if spec.kind == "iso":
        return theorem3_check(motive, op["gamma"], k=op["k"])
    co = exp_coeffs(motive)
    direct = lattice_of(motive, coeffs=co)
    siegel = mu13(motive, coeffs=co)
    routed = mu34(siegel)
    equal, cob = lattices_equal(direct, routed, deg_cap=4, slack_units=10)
    return {"direct": direct, "siegel": siegel, "routed": routed,
            "lattices_equal": equal, "change_of_basis": cob}


def _mat(m):
    return [[x.to_json() for x in row] for row in m]


def _opt_mat(m):
    return None if m is None else _mat(m)


def serialize(spec, out):
    """The op's numeric outputs as JSON, the input to its digest."""
    if spec.kind == "iso":
        sol = out["solution"]
        return {"B": _mat(out["B"]), "Phi": _mat(sol.Phi),
                "change_of_basis": _opt_mat(out["change_of_basis"]),
                "residuals": {k: str(v) for k, v in sorted(out["residuals"].items())},
                "siegel_gap": str(out["siegel_gap"]), "steps": out["steps"],
                "det_w1": sol.det_w1.to_json(), "det_gamma": sol.det_gamma.to_json()}
    return {"direct": _mat(out["direct"].rows), "siegel": _mat(out["siegel"].Z),
            "routed": _mat(out["routed"].rows),
            "change_of_basis": _opt_mat(out["change_of_basis"])}


def digest(obj):
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def check(spec, op, out):
    """Failure tags for one op's outputs (empty when the op is correct),
    and whether the literal determinant identity of criterion 7 failed.

    The literal identity N(det W1) = det(gamma)^n is recorded, not failed:
    it disagrees with the checked det_consistency form at some q > 3.
    """
    if spec.kind == "iso":
        failed = [f"flag:{f}" for f in ISO_FLAGS if not out[f]]
        sol = out["solution"]
        literal_mismatch = sol.det_w1_norm != sol.det_gamma ** op["n"]
        return failed, literal_mismatch
    return ([] if out["lattices_equal"] else ["flag:lattices_equal"]), False
