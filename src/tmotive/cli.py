"""Command line driver: JSON in, JSON out, deterministic per seed.

Subcommands: period, exp-coeffs, lattice-map, mobius, iso-solve,
slope-check, accept.  Distinct exit codes: 2 schema violation,
3 precision exhaustion, 4 non-contraction, 5 singular or malformed
algebraic input, 1 any other failure (including acceptance FAIL).
"""

import argparse
import json
import sys
from fractions import Fraction
from math import inf

from . import acceptance
from .anderson import exp_coeffs, make_tmotive
from .cinf import CinfElem
from .config import Config
from .errors import (GammaShapeError, NeighborhoodError, NonContractionError,
                     PrecisionError, SchemaError, SingularMatrixError,
                     TMotiveError)
from .latticemap import (GammaElem, SiegelMatrix, carlitz_period, d10_series,
                         lattice_of, mobius, siegel_of)
from .isomsolver import solve_iso

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_SCHEMA = 2
EXIT_PRECISION = 3
EXIT_NONCONTRACTION = 4
EXIT_SINGULAR = 5

_EXIT_BY_ERROR = (
    (SchemaError, EXIT_SCHEMA),
    (PrecisionError, EXIT_PRECISION),
    (NonContractionError, EXIT_NONCONTRACTION),
    (SingularMatrixError, EXIT_SINGULAR),
    (GammaShapeError, EXIT_SINGULAR),
    (NeighborhoodError, EXIT_SINGULAR),
)


def _val_json(v):
    if v == inf:
        return "inf"
    f = Fraction(v)
    return [f.numerator, f.denominator]


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from None


def _series_from_json(spec, obj):
    try:
        if not isinstance(obj["terms"], list):
            raise TypeError("terms must be a list")
        for e, digits in obj["terms"]:
            if not isinstance(e, int) or not isinstance(digits, list):
                raise TypeError("terms must be [exponent, digit-list] pairs")
        return CinfElem.from_json(spec, obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad series object: {exc}") from None


def _matrix_from_json(spec, obj):
    if not isinstance(obj, list) or not obj or not all(isinstance(r, list) for r in obj):
        raise SchemaError("matrix must be a nonempty nested list")
    rows = [[_series_from_json(spec, x) for x in r] for r in obj]
    if any(len(r) != len(rows[0]) for r in rows):
        raise SchemaError("ragged matrix")
    return rows


def _matrix_to_json(m):
    return [[x.to_json() for x in r] for r in m]


def _gamma_from_json(spec, obj):
    try:
        return GammaElem.from_json(spec, obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad gamma object: {exc}") from None


def _config_from_args(args):
    if getattr(args, "config", None):
        cfg = Config.from_json(_load_json(args.config))
    else:
        cfg = Config.from_q(args.q)
    updates = {}
    for name in ("n", "prec", "seed", "slack", "v_min"):
        v = getattr(args, name, None)
        if v is not None:
            updates[name] = v
    if updates:
        cfg = Config(**{**cfg.to_json(), **updates})
    return cfg


def _emit(report, args):
    text = json.dumps(report, indent=2, sort_keys=True)
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# ---------------------------------------------------------------------------
# subcommands


def cmd_period(args):
    cfg = _config_from_args(args)
    y0 = carlitz_period(cfg.spec, cfg.ram, cfg.prec)
    _emit({"config": cfg.to_json(), "y0": y0.to_json(),
           "valuation": _val_json(y0.valuation())}, args)
    return EXIT_OK


def cmd_exp_coeffs(args):
    cfg = _config_from_args(args)
    spec = cfg.spec
    if args.A:
        A = _matrix_from_json(spec, _load_json(args.A))
    else:
        A = [[CinfElem.zero(spec, cfg.ram, cfg.prec_num)
              for _ in range(cfg.n)] for _ in range(cfg.n)]
    motive = make_tmotive(A, v_min=cfg.v_min)
    co = exp_coeffs(motive, imax=args.imax)
    _emit({"config": cfg.to_json(), "imax": co.imax,
           "C": [_matrix_to_json(c) for c in co.C]}, args)
    return EXIT_OK


def cmd_lattice_map(args):
    cfg = _config_from_args(args)
    spec = cfg.spec
    A = _matrix_from_json(spec, _load_json(args.A))
    motive = make_tmotive(A, v_min=cfg.v_min)
    lat = lattice_of(motive)
    sg = siegel_of(lat)
    _emit({"config": cfg.to_json(), "basis": _matrix_to_json(lat.rows),
           "siegel": _matrix_to_json(sg.Z),
           "v_det_im_z": _val_json(lat.v_det_im_z)}, args)
    return EXIT_OK


def cmd_mobius(args):
    cfg = _config_from_args(args)
    spec = cfg.spec
    gamma = _gamma_from_json(spec, _load_json(args.gamma))
    Z = SiegelMatrix(_matrix_from_json(spec, _load_json(args.Z)))
    img = mobius(gamma, Z)
    _emit({"config": cfg.to_json(), "Z": _matrix_to_json(img.Z)}, args)
    return EXIT_OK


def cmd_iso_solve(args):
    cfg = _config_from_args(args)
    spec = cfg.spec
    A = _matrix_from_json(spec, _load_json(args.A))
    gamma = _gamma_from_json(spec, _load_json(args.gamma))
    motive = make_tmotive(A, v_min=cfg.v_min)
    sol = solve_iso(motive, gamma, k=args.k)
    tol = Fraction(cfg.prec - cfg.slack)
    report = {
        "config": cfg.to_json(),
        "B": _matrix_to_json(sol.B),
        "Phi": [[p.to_json() for p in row] for row in sol.Phi],
        "residual_valuations": {k2: _val_json(v) for k2, v in sol.residuals.items()},
        "det_w1": sol.det_w1.to_json(),
        "det_w1_norm": sol.det_w1_norm.to_json(),
        "det_gamma": sol.det_gamma.to_json(),
        "steps": sol.steps,
        "flags": {
            "residuals_ok": sol.residuals_ok(tol),
            "det_phi_unit": sol.det_phi_is_unit(tol),
            "det_consistency": sol.det_consistent(),
        },
    }
    _emit(report, args)
    return EXIT_OK if all(report["flags"].values()) else EXIT_FAIL


def cmd_slope_check(args):
    cfg = _config_from_args(args)
    res = acceptance.criterion_4(cfg)
    spec = cfg.spec
    d10, d10p = d10_series(spec, cfg.ram, cfg.prec)
    _emit({"config": cfg.to_json(), "passed": res.passed,
           "details": res.details, "d10": d10.to_json(), "d10p": d10p.to_json()},
          args)
    return EXIT_OK if res.passed else EXIT_FAIL


def cmd_accept(args):
    cfg = _config_from_args(args)
    ns = (args.n,) if args.n else (1, 2)
    numbers = [int(x) for x in args.only.split(",")] if args.only else None
    results = acceptance.run_all(cfg, numbers=numbers, ns=ns,
                                 echo=lambda s: print(s, file=sys.stderr))
    report = {
        "config": cfg.to_json(),
        "dimensions": list(ns),
        "criteria": [{"number": r.number, "name": r.name, "passed": r.passed,
                      "seconds": round(r.seconds, 2),
                      "details": _jsonable(r.details)} for r in results],
        "all_pass": all(r.passed for r in results),
    }
    _emit(report, args)
    return EXIT_OK if report["all_pass"] else EXIT_FAIL


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, Fraction):
        return _val_json(obj)
    if obj is inf:
        return "inf"
    if isinstance(obj, (bool, int, float, str)) or obj is None:
        return obj
    return str(obj)


# ---------------------------------------------------------------------------


def build_parser():
    top = argparse.ArgumentParser(
        prog="tmotive",
        description="exact lattice-map computations for the rank-2n module family")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, needs_n=False):
        p.add_argument("--q", type=int, default=3, help="field size, an odd prime power")
        p.add_argument("--prec", type=int, default=None, help="precision in exponent units")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--slack", type=int, default=None)
        p.add_argument("--v-min", dest="v_min", type=int, default=None)
        p.add_argument("--config", default=None, help="JSON config file overriding flags")
        p.add_argument("--out", default=None, help="write the JSON report here")
        if needs_n:
            p.add_argument("--n", type=int, default=None, help="dimension")

    p = sub.add_parser("period", help="the base period as a series")
    common(p)
    p.set_defaults(fn=cmd_period)

    p = sub.add_parser("exp-coeffs", help="exponential coefficient matrices")
    common(p, needs_n=True)
    p.add_argument("--imax", type=int, default=None)
    p.add_argument("--A", default=None, help="matrix JSON file (zero matrix if omitted)")
    p.set_defaults(fn=cmd_exp_coeffs)

    p = sub.add_parser("lattice-map", help="lattice basis and Siegel matrix of A")
    common(p)
    p.add_argument("--A", required=True)
    p.set_defaults(fn=cmd_lattice_map)

    p = sub.add_parser("mobius", help="fractional-linear action on a Siegel matrix")
    common(p)
    p.add_argument("--gamma", required=True)
    p.add_argument("--Z", required=True)
    p.set_defaults(fn=cmd_mobius)

    p = sub.add_parser("iso-solve", help="solve the block isomorphism system")
    common(p)
    p.add_argument("--A", required=True)
    p.add_argument("--gamma", required=True)
    p.add_argument("--k", type=int, default=None, help="ansatz degree")
    p.set_defaults(fn=cmd_iso_solve)

    p = sub.add_parser("slope-check", help="first-order slope verification")
    common(p)
    p.set_defaults(fn=cmd_slope_check)

    p = sub.add_parser("accept", help="run the acceptance suite")
    common(p, needs_n=True)
    p.add_argument("--only", default=None, help="comma-separated criterion numbers")
    p.set_defaults(fn=cmd_accept)

    return top


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except TMotiveError as exc:
        for klass, code in _EXIT_BY_ERROR:
            if isinstance(exc, klass):
                print(f"error: {exc}", file=sys.stderr)
                return code
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
