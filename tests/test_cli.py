import json

import pytest

from tmotive import isomsolver
from tmotive.cli import (EXIT_FAIL, EXIT_NONCONTRACTION, EXIT_OK, EXIT_SCHEMA,
                         EXIT_SINGULAR, main)
from tmotive.config import Config
from tmotive.cinf import CinfElem, t_uniformizer

PREC = 60


@pytest.fixture(scope="module")
def cfg():
    return Config(prec=PREC)


@pytest.fixture()
def a_file(tmp_path, cfg):
    spec = cfg.spec
    a = t_uniformizer(spec, cfg.ram, cfg.prec) ** 3
    path = tmp_path / "A.json"
    path.write_text(json.dumps([[a.to_json()]]))
    return str(path)


@pytest.fixture()
def gamma_file(tmp_path):
    # G = 0, H = identity: the omega-swap element
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"k": 0, "G": [[[]]], "H": [[[[1, 0, 0, 0]]]]}))
    return str(path)


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, json.loads(out) if out.strip() else None


def test_period(capsys):
    rc, rep = run(capsys, "period", "--q", "3", "--prec", str(PREC))
    assert rc == EXIT_OK
    assert rep["valuation"] == [-9, 8]
    assert rep["y0"]["ram"] == 8


def test_period_deterministic(capsys):
    rc1, rep1 = run(capsys, "period", "--q", "3", "--prec", str(PREC))
    rc2, rep2 = run(capsys, "period", "--q", "3", "--prec", str(PREC))
    assert rep1 == rep2


def test_exp_coeffs_zero_matrix(capsys):
    rc, rep = run(capsys, "exp-coeffs", "--q", "3", "--n", "1",
                  "--prec", str(PREC), "--imax", "4")
    assert rc == EXIT_OK
    assert rep["imax"] == 4
    assert rep["C"][0][0][0]["terms"] == [[0, [1, 0, 0, 0]]]
    assert rep["C"][1][0][0]["terms"] == []


def test_lattice_map(capsys, a_file):
    rc, rep = run(capsys, "lattice-map", "--A", a_file, "--prec", str(PREC))
    assert rc == EXIT_OK
    z = rep["siegel"][0][0]
    assert z["terms"][0][0] == 0  # leading omega term at exponent zero


def test_lattice_map_reports_im_z_valuation(capsys, tmp_path, cfg):
    # A = 0 gives the base point Z = omega I, where det Im Z = 1
    zero = CinfElem.zero(cfg.spec, cfg.ram, cfg.prec_num)
    path = tmp_path / "A0.json"
    path.write_text(json.dumps([[zero.to_json()]]))
    rc, rep = run(capsys, "lattice-map", "--A", str(path), "--prec", str(PREC))
    assert rc == EXIT_OK
    assert rep["v_det_im_z"] == [0, 1]


def test_mobius_fixes_base(capsys, gamma_file, tmp_path, cfg):
    spec = cfg.spec
    w = CinfElem.const(spec, cfg.ram, cfg.prec_num, spec.omega)
    zpath = tmp_path / "Z.json"
    zpath.write_text(json.dumps([[w.to_json()]]))
    rc, rep = run(capsys, "mobius", "--gamma", gamma_file, "--Z", str(zpath),
                  "--prec", str(PREC))
    assert rc == EXIT_OK
    assert rep["Z"] == [[w.to_json()]]


def test_iso_solve(capsys, a_file, gamma_file, tmp_path):
    out = tmp_path / "report.json"
    rc = main(["iso-solve", "--A", a_file, "--gamma", gamma_file,
               "--prec", str(PREC), "--out", str(out)])
    assert rc == EXIT_OK
    rep = json.loads(out.read_text())
    assert all(rep["flags"].values())
    assert rep["residual_valuations"]["full"] == "inf"
    # B = -A for this gamma: the solved matrix has the same exponents
    assert rep["B"][0][0]["terms"][0][0] == 24


def test_iso_solve_step_cap_exit_code(capsys, a_file, gamma_file, monkeypatch):
    # the solve applies one update; certifying that the next one vanishes
    # takes a second step, which a cap of 1 does not allow
    monkeypatch.setattr(isomsolver, "_MAX_PICARD_STEPS", 1)
    rc = main(["iso-solve", "--A", a_file, "--gamma", gamma_file, "--prec", str(PREC)])
    assert rc == EXIT_NONCONTRACTION


def test_slope_check(capsys):
    rc, rep = run(capsys, "slope-check", "--q", "3", "--prec", "100")
    assert rc == EXIT_OK and rep["passed"]


def test_accept_subset(capsys):
    rc, rep = run(capsys, "accept", "--q", "3", "--n", "1", "--only", "1,2,9")
    assert rc == EXIT_OK
    assert rep["all_pass"] and len(rep["criteria"]) == 3


def test_schema_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"nope": 1}')
    rc = main(["lattice-map", "--A", str(bad)])
    assert rc == EXIT_SCHEMA


def test_neighborhood_exit_code(capsys, tmp_path):
    theta_entry = [[{"ram": 8, "prec": 480, "terms": [[-8, [1, 0, 0, 0]]]}]]
    path = tmp_path / "th.json"
    path.write_text(json.dumps(theta_entry))
    rc = main(["lattice-map", "--A", str(path), "--prec", str(PREC)])
    assert rc == EXIT_SINGULAR


def test_bad_gamma_exit_code(capsys, tmp_path, a_file):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"k": 0, "G": [[[]]], "H": [[[]]]}))  # singular
    rc = main(["iso-solve", "--A", a_file, "--gamma", str(path),
               "--prec", str(PREC)])
    assert rc == EXIT_SINGULAR


@pytest.mark.parametrize("command, flag", [("mobius", "--Z"), ("iso-solve", "--A")])
@pytest.mark.parametrize("blocks", [[], [[]]])
def test_empty_gamma_block_exit_code(capsys, tmp_path, a_file, command, flag, blocks):
    # an empty G or H block is a schema error, not a traceback
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"k": 0, "G": blocks, "H": blocks}))
    rc = main([command, flag, a_file, "--gamma", str(path), "--prec", str(PREC)])
    assert rc == EXIT_SCHEMA


def test_overlong_gamma_coefficient_exit_code(capsys, tmp_path, cfg):
    # a digit list longer than the ambient degree D = 4 is a schema error
    spec = cfg.spec
    w = CinfElem.const(spec, cfg.ram, cfg.prec_num, spec.omega)
    zpath = tmp_path / "Z.json"
    zpath.write_text(json.dumps([[w.to_json()]]))
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps({"k": 0, "G": [[[[1, 0, 0, 0, 0, 0]]]], "H": [[[]]]}))
    rc = main(["mobius", "--gamma", str(gpath), "--Z", str(zpath), "--prec", str(PREC)])
    assert rc == EXIT_SCHEMA


def test_overlong_series_coefficient_exit_code(capsys, tmp_path, cfg):
    entry = {"ram": cfg.ram, "prec": cfg.prec_num, "terms": [[24, [1, 0, 0, 0, 0]]]}
    path = tmp_path / "A.json"
    path.write_text(json.dumps([[entry]]))
    rc = main(["lattice-map", "--A", str(path), "--prec", str(PREC)])
    assert rc == EXIT_SCHEMA


def test_config_file_roundtrip(capsys, tmp_path):
    cfgpath = tmp_path / "cfg.json"
    cfgpath.write_text(json.dumps(Config(prec=PREC).to_json()))
    rc, rep = run(capsys, "period", "--config", str(cfgpath))
    assert rc == EXIT_OK and rep["config"]["prec"] == PREC


_GAMMA_BY_N = {
    # the omega-swap element at n = 1, the identity at n = 2
    1: {"k": 0, "G": [[[]]], "H": [[[[1, 0, 0, 0]]]]},
    2: {"k": 0, "G": [[[[1, 0, 0, 0]], []], [[], [[1, 0, 0, 0]]]],
        "H": [[[], []], [[], []]]},
}


@pytest.mark.parametrize("command, flag, shape, gamma_n", [
    ("lattice-map", "--A", (1, 2), None),
    ("iso-solve", "--A", (1, 2), 1),
    ("iso-solve", "--A", (1, 1), 2),
    ("mobius", "--Z", (2, 2), 1),
    ("mobius", "--Z", (1, 1), 2),
])
def test_misshaped_matrix_exit_code(capsys, tmp_path, cfg, command, flag, shape, gamma_n):
    # a non-square matrix, or one whose size is not gamma's n, is a schema error
    x = (t_uniformizer(cfg.spec, cfg.ram, cfg.prec) ** 3).to_json()
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps([[x] * shape[1]] * shape[0]))
    argv = [command, flag, str(mpath), "--prec", str(PREC)]
    if gamma_n is not None:
        gpath = tmp_path / "g.json"
        gpath.write_text(json.dumps(_GAMMA_BY_N[gamma_n]))
        argv += ["--gamma", str(gpath)]
    assert main(argv) == EXIT_SCHEMA
