import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rhflow.charge_lattice import Spectrum
from rhflow.cli_driver import fmt, fmt_column, load_config, main
from rhflow.errors import ConfigError
from rhflow.rh_solver import solve
from rhflow.spectrum_rays import CentralCharge, alternative_split_phases

PENTAGON = {
    "problem": {
        "R": 4.0,
        "a": [0.0, 0.0],
        "theta": [0.7, 1.3],
        "spectrum": {
            "entries": [[[1, 0], 1], [[-1, 0], 1], [[0, 1], 1], [[0, -1], 1],
                        [[1, 1], 1], [[-1, -1], 1]],
            "support_constant": 0.9,
        },
        "Z": {"z1": [[1.0, 0.0]], "z2": [[0.0, 1.0]]},
    }
}


def write_cfg(tmp_path, doc, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc), encoding="utf-8")
    return p


def test_fmt_round_trips():
    for x in (1 / 3, 2.5e-17, 123456.789):
        assert float(fmt(x)) == x


def test_fmt_column_matches_fmt_on_special_values():
    values = np.array([0.0, -0.0, 5e-324, -5e-324, 1.8e308, -1.8e308, 1 / 3,
                       2.5e-17, np.inf, -np.inf, np.nan])
    assert fmt_column(values) == [fmt(x) for x in values]
    assert fmt_column(values)[:3] == ["0", "-0", "4.9406564584124654e-324"]
    # a table is formatted row by row
    table = np.stack([values, values[::-1]], axis=1)
    assert fmt_column(table) == [fmt(x) for x in table.ravel()]
    assert fmt_column(np.empty((0, 5))) == []


def test_load_config_defaults():
    rc = load_config(json.dumps(PENTAGON), "solve")
    assert rc.solver.M == 128
    assert rc.solver.max_iter == 30
    assert rc.solver.tol == 1e-12


def test_load_config_reports_parse_position():
    with pytest.raises(ConfigError, match="line 1"):
        load_config("{not json", "solve")


def test_load_config_names_bad_field():
    bad = json.loads(json.dumps(PENTAGON))
    bad["problem"]["R"] = -1.0
    with pytest.raises(ConfigError, match="R"):
        load_config(json.dumps(bad), "solve")


def test_load_config_rejects_asymmetric_spectrum():
    bad = json.loads(json.dumps(PENTAGON))
    bad["problem"]["spectrum"]["entries"] = [[[1, 0], 1]]
    with pytest.raises(ConfigError, match="symmetric"):
        load_config(json.dumps(bad), "solve")


def test_load_config_checks_support_property():
    bad = json.loads(json.dumps(PENTAGON))
    bad["problem"]["spectrum"]["support_constant"] = 1.05
    with pytest.raises(Exception, match=r"\|Z\|/norm|support|K ="):
        load_config(json.dumps(bad), "solve")


def test_solve_command_writes_report_and_nodes(tmp_path):
    cfg = write_cfg(tmp_path, PENTAGON)
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["residuals"]["jump"] < 1e-6
    assert report["residuals"]["reality"] < 1e-8
    lines = (out / "nodes.csv").read_text().splitlines()
    assert lines[0] == "s,ray,re_theta1,im_theta1,re_theta2,im_theta2"
    assert len(lines) == 1 + 2 * 128


GENERIC_Z = {"z1": [[1.3, 0.2]], "z2": [[-0.25, 1.1]]}
GENERIC_ENTRIES = [[[1, 0], 1], [[-1, 0], 1], [[0, 1], 1], [[0, -1], 1]]
NODES_CASES = {
    "pentagon": {},
    # Theta stays theta = (0, -0) exactly: -r's rows toggle signed zeros
    "empty_signed_zeros": {"spectrum": {"entries": []}, "theta": [0.0, -0.0], "R": 1.0},
    "single_pair_M16": {"spectrum": {"entries": [[[1, 0], 1], [[-1, 0], 1]],
                                     "support_constant": 0.9}, "R": 1.0, "M": 16},
    "generic_split_M514": {
        "spectrum": {"entries": GENERIC_ENTRIES}, "Z": GENERIC_Z, "R": 1.0, "M": 514,
        "split_phase": alternative_split_phases(
            CentralCharge.constant(1.3 + 0.2j, -0.25 + 1.1j),
            Spectrum.from_pairs([(tuple(c), om) for c, om in GENERIC_ENTRIES]), 0.0)[1]},
}


@pytest.mark.parametrize("name", sorted(NODES_CASES))
def test_nodes_csv_matches_a_field_by_field_reference(tmp_path, name):
    # the reference formats every field by fmt, and -r's rows from the
    # mirrored values themselves, not from r's strings
    doc = {"problem": dict(PENTAGON["problem"], **NODES_CASES[name])}
    state, _ = solve(load_config(json.dumps(doc), "solve").solver)
    lines = ["s,ray,re_theta1,im_theta1,re_theta2,im_theta2"]
    for ray, values in (("r", state.values), ("-r", state.values[::-1].conj())):
        lines += [",".join([fmt(s), ray, fmt(t1.real), fmt(t1.imag), fmt(t2.real),
                            fmt(t2.imag)])
                  for s, (t1, t2) in zip(state.problem.grids[+1].nodes, values)]
    out = tmp_path / "out"
    assert main(["solve", "--config", str(write_cfg(tmp_path, doc)), "--out", str(out)]) == 0
    assert (out / "nodes.csv").read_bytes() == ("\n".join(lines) + "\n").encode()
    if name == "empty_signed_zeros":
        fields = [f for line in lines[1:] for f in line.split(",")]
        assert fields.count("-0") == 4 * state.problem.M and "0" in fields


def test_a_series_order_N_in_the_config_is_ignored(tmp_path):
    # no solve reads a series order: a config that still carries "N" solves
    # to the same nodes, and report.json echoes no N
    outs = []
    for name, problem in (("with_N", dict(PENTAGON["problem"], N=12)),
                          ("without_N", PENTAGON["problem"])):
        cfg = write_cfg(tmp_path, {"problem": problem}, name=f"{name}.json")
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
        outs.append(tmp_path / name)
    assert (outs[0] / "nodes.csv").read_bytes() == (outs[1] / "nodes.csv").read_bytes()
    report = json.loads((outs[0] / "report.json").read_text())
    assert "N" not in report["config"]
    assert report == json.loads((outs[1] / "report.json").read_text())


def test_exit_code_2_on_numerical_failure(tmp_path):
    doc = json.loads(json.dumps(PENTAGON))
    doc["problem"]["R"] = 0.01
    doc["problem"]["tol"] = 1e-14
    cfg = write_cfg(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 2
    diag = json.loads((out / "error.json").read_text())
    assert diag["error"] in ("NonContractionError", "DivergenceError",
                             "TruncationUnsafeError")


def test_exit_code_1_on_config_error(tmp_path):
    cfg = write_cfg(tmp_path, {"problem": {"R": 4.0}})
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1


@pytest.mark.parametrize("where", ["file", "under_a_file"])
def test_exit_code_1_when_out_is_not_a_directory(tmp_path, capsys, where):
    # the output directory cannot be made: a diagnostic, not a traceback
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory")
    out = blocker if where == "file" else blocker / "out"
    cfg = write_cfg(tmp_path, PENTAGON)
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 1
    diag = json.loads(capsys.readouterr().err)
    assert diag["error"] in ("FileExistsError", "NotADirectoryError")
    assert str(blocker) in diag["message"]
    assert blocker.read_text() == "not a directory"


@pytest.mark.parametrize("argv", [
    ["solves", "--config", "c.json", "--out", "o"],
    ["solve", "--config", "c.json"],
    ["solve", "--config", "c.json", "--out", "o", "--seed", "x"],
], ids=["unknown_command", "no_out", "seed_not_int"])
def test_exit_code_2_on_a_usage_error(capsys, argv):
    # argparse's own errors, from the one parser every call shares
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage: rhflow ")


def test_exit_code_1_when_sweep_r_lacks_R_values(tmp_path, capsys):
    # the missing list is found during the run, not while loading
    cfg = write_cfg(tmp_path, PENTAGON)
    assert main(["sweep_r", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "R_values" in capsys.readouterr().err


def test_exit_code_1_when_manufactured_jump_lacks_eta0(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"scalar": {"jump": {"kind": "manufactured"}}})
    assert main(["scalar_bvp", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "scalar.jump.eta0" in capsys.readouterr().err


def test_exit_code_1_when_Z_lacks_z2(tmp_path, capsys):
    doc = json.loads(json.dumps(PENTAGON))
    del doc["problem"]["Z"]["z2"]
    cfg = write_cfg(tmp_path, doc)
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "problem.Z.z2" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("R", "abc"), ("max_iter", "eight"),
                                        ("split_phase", [1, 2]),
                                        # float() and complex() take a boolean as 0 or 1
                                        ("R", True), ("tol", True), ("a", [True, 0]),
                                        ("theta", [True, 1.3])])
def test_exit_code_1_when_a_number_is_wrongly_typed(tmp_path, capsys, key, value):
    doc = json.loads(json.dumps(PENTAGON))
    doc["problem"][key] = value
    cfg = write_cfg(tmp_path, doc)
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert f"problem.{key}" in capsys.readouterr().err


@pytest.mark.parametrize("eta0", [True, [True, 0.0]], ids=["number", "pair"])
def test_exit_code_1_when_scalar_eta0_is_a_boolean(tmp_path, capsys, eta0):
    cfg = write_cfg(tmp_path, {"scalar": {"jump": {"kind": "manufactured", "eta0": eta0}}})
    assert main(["scalar_bvp", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    diag = json.loads(capsys.readouterr().err)
    assert diag["error"] == "ConfigError"
    assert diag["message"].startswith("scalar.jump.eta0")


@pytest.mark.parametrize("command,extras,where", [
    ("smoothness", {"smoothness": {"step": "abc"}}, "smoothness.step"),
    ("smoothness", {"smoothness": {"orders": ["x"]}}, "smoothness.orders"),
    ("smoothness", {"smoothness": 5}, "smoothness must be an object"),
    ("smoothness", {"smoothness": {"direction": [1]}}, "direction"),
    ("sweep_r", {"R_values": ["x"]}, "R_values"),
    ("sweep_r", {"R_values": 5}, "R_values must be a list"),
    ("saddle_check", {"saddle": 5}, "saddle must be an object"),
    ("saddle_check", {"saddle": {"gamma": "ab"}}, "saddle.gamma"),
    ("deform_check", {"deform": {"R": "x"}}, "deform.R"),
    ("pentagon_table", {"table_order": "six"}, "table_order"),
], ids=["step", "orders", "smoothness", "direction", "R_values_entry", "R_values",
        "saddle", "gamma", "deform_R", "table_order"])
def test_exit_code_1_when_a_command_section_is_wrongly_typed(tmp_path, capsys,
                                                             command, extras, where):
    cfg = write_cfg(tmp_path, dict(json.loads(json.dumps(PENTAGON)), **extras))
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    assert where in capsys.readouterr().err
    assert json.loads((out / "error.json").read_text())["error"] == "ConfigError"


@pytest.mark.parametrize("key,value", [
    ("samples", -4), ("samples", 0), ("samples", 1), ("M", 3), ("M", 0),
    ("half_width", -1.0), ("half_width", 0.0), ("half_width", float("inf")),
    ("zeta0_alt", [0.0, -0.7]), ("zeta0_alt", [0.0, 0.0]), ("zeta0_alt", [0.5, 0.0]),
    ("zeta0_alt", [0.0, 1.5]),
], ids=["samples_negative", "samples_0", "samples_1", "M_3", "M_0", "half_width_negative",
        "half_width_0", "half_width_inf", "alt_below", "alt_at_0", "alt_on_line",
        "alt_at_zeta0"])
def test_exit_code_1_when_a_scalar_grid_or_base_point_is_invalid(tmp_path, capsys,
                                                                 monkeypatch, key, value):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the section was checked")

    monkeypatch.setattr("rhflow.cli_driver.solve_scalar_bvp", no_solve)
    scalar = {"jump": {"kind": "manufactured", "eta0": 0.25}, "zeta0_alt": [0.0, 0.7],
              "samples": 20, key: value}
    # json writes and reads Infinity
    cfg = write_cfg(tmp_path, {"scalar": scalar})
    out = tmp_path / "o"
    assert main(["scalar_bvp", "--config", str(cfg), "--out", str(out)]) == 1
    assert f"scalar.{key}" in capsys.readouterr().err
    assert json.loads((out / "error.json").read_text())["error"] == "ConfigError"


@pytest.mark.parametrize("command, extras, where", [
    ("smoothness", {"smoothness": {"step": 0}}, "smoothness.step"),
    ("smoothness", {"smoothness": {"step": -0.01}}, "smoothness.step"),
    ("smoothness", {"smoothness": {"step": 1e300}}, "smoothness.step"),
    ("smoothness", {"smoothness": {"step": float("nan")}}, "smoothness.step"),
    ("smoothness", {"smoothness": {"step": float("inf")}}, "smoothness.step"),
    ("smoothness", {"smoothness": {"step": 1e-120, "orders": [1, 3]}}, "smoothness.step"),
    ("smoothness", {"smoothness": {"orders": []}}, "smoothness.orders"),
    ("smoothness", {"smoothness": {"orders": [2.5]}}, "smoothness.orders"),
    ("smoothness", {"smoothness": {"orders": [1, 4]}}, "smoothness.orders"),
    ("smoothness", {"smoothness": {"orders": [True]}}, "smoothness.orders"),
    ("sweep_r", {"R_values": [1.0, -1]}, "R_values"),
    ("sweep_r", {"R_values": [1.0, 0.0]}, "R_values"),
    ("sweep_r", {"R_values": [2.0, float("inf")]}, "R_values"),
    ("saddle_check", {"saddle": {"R_values": [0.0]}}, "saddle.R_values"),
    ("saddle_check", {"saddle": {"R_values": [4.0, -1.0]}}, "saddle.R_values"),
    ("saddle_check", {"saddle": {"R_values": [float("nan")]}}, "saddle.R_values"),
    ("deform_check", {"deform": {"R": -1.0}}, "deform.R"),
    ("deform_check", {"deform": {"R": 0.0}}, "deform.R"),
    ("deform_check", {"deform": {"R": float("inf")}}, "deform.R"),
    ("saddle_check", {"saddle": {"R_values": []}}, "saddle.R_values"),
], ids=["step_0", "step_negative", "step_1e300", "step_nan", "step_inf", "step_cubed_subnormal",
        "orders_empty", "orders_2.5", "orders_1_4", "orders_bool", "R_negative", "R_0",
        "R_inf", "saddle_R_0", "saddle_R_negative", "saddle_R_nan", "deform_R_negative",
        "deform_R_0", "deform_R_inf", "saddle_R_empty"])
def test_exit_code_1_when_a_probe_or_ladder_key_is_invalid_before_any_solve(
        tmp_path, capsys, monkeypatch, command, extras, where):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the section was checked")

    # sweep_r solves its ladder through cli_driver's solve_batch, smoothness
    # its stencils through rh_solver's; saddle_check and deform_check
    # integrate on the grids of cli_driver's compare and build_ray_grid
    for name in ("rhflow.cli_driver.solve", "rhflow.rh_solver.solve",
                 "rhflow.cli_driver.solve_batch", "rhflow.rh_solver.solve_batch",
                 "rhflow.cli_driver.compare", "rhflow.cli_driver.build_ray_grid"):
        monkeypatch.setattr(name, no_solve)
    # json writes and reads NaN and Infinity
    cfg = write_cfg(tmp_path, dict(json.loads(json.dumps(PENTAGON)), **extras))
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    assert where in capsys.readouterr().err
    assert json.loads((out / "error.json").read_text())["error"] == "ConfigError"


@pytest.mark.parametrize("key, value", [
    ("target_tail", 0), ("target_tail", -1), ("target_tail", float("nan")),
    ("tol", float("nan")), ("tol", float("inf")),
], ids=["tail_zero", "tail_negative", "tail_nan", "tol_nan", "tol_inf"])
def test_exit_code_1_when_tol_or_target_tail_is_not_positive_and_finite(
        tmp_path, capsys, key, value):
    # json writes and reads NaN and Infinity
    doc = json.loads(json.dumps(PENTAGON))
    doc["problem"][key] = value
    cfg = write_cfg(tmp_path, doc)
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    diag = json.loads(capsys.readouterr().err)
    assert diag == {"error": "ConfigError",
                    "message": f"{key} must be positive and finite"}


@pytest.mark.parametrize("path, value, message", [
    (("split_phase",), 3.141592653589793, "lies on the separating line"),
    (("a",), [float("nan"), 0.0], "a must be finite"),
    (("Z", "z1"), [[float("nan"), 0.0]], "Z coefficients must be finite"),
    (("spectrum", "support_constant"), float("nan"),
     "support constant must be finite and >= 0"),
], ids=["split_phase_on_a_ray", "a_nan", "z1_nan", "support_constant_nan"])
def test_exit_code_1_when_the_geometry_is_not_admissible_or_finite(
        tmp_path, capsys, path, value, message):
    doc = json.loads(json.dumps(PENTAGON))
    section = doc["problem"]
    for key in path[:-1]:
        section = section[key]
    section[path[-1]] = value
    cfg = write_cfg(tmp_path, doc)
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    diag = json.loads(capsys.readouterr().err)
    assert diag["error"] == "ConfigError"
    assert message in diag["message"]


def test_sampled_jump_runs_through_the_cli(tmp_path):
    # a continuous jump given by samples, linear between them
    ts = [float(t) for t in np.exp(np.linspace(-8.0, 8.0, 129))]
    ts = [-t for t in reversed(ts)] + ts
    s = np.log(np.abs(ts))
    vals = np.exp(np.where(np.array(ts) > 0, (0.3 + 0.1j) * np.exp(-0.5 * s * s),
                           (0.2 - 0.05j) * np.exp(-0.5 * (s - 0.3) ** 2)))
    doc = {"scalar": {"jump": {"kind": "sampled", "t": ts,
                               "values": [[v.real, v.imag] for v in vals]},
                      "limits": [[1.0, 0.0]] * 4, "zeta0_alt": [0.0, 0.7],
                      "samples": 100}}
    out = tmp_path / "o"
    cfg = write_cfg(tmp_path, doc)
    assert main(["scalar_bvp", "--config", str(cfg), "--out", str(out)]) == 0
    rep = json.loads((out / "scalar_report.json").read_text())
    assert rep["kappa"] == 0
    # the piecewise-linear jump limits the boundary accuracy; the solution
    # does not depend on the base point
    assert rep["residuals"]["boundary"] < 1e-4
    assert rep["residuals"]["uniqueness"] < 1e-12


def test_exit_code_1_when_scalar_section_is_not_an_object(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"scalar": 5})
    assert main(["scalar_bvp", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "scalar must be an object" in capsys.readouterr().err


def test_exit_code_1_when_spectrum_entry_is_malformed(tmp_path, capsys):
    doc = json.loads(json.dumps(PENTAGON))
    doc["problem"]["spectrum"]["entries"][0] = [1, 2]
    cfg = write_cfg(tmp_path, doc)
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "problem.spectrum.entries" in capsys.readouterr().err


NOT_INTEGERS = {
    "M_fraction": ("solve", ("problem", "M"), 128.7, "problem.M"),
    "max_iter_fraction": ("solve", ("problem", "max_iter"), 30.9, "problem.max_iter"),
    "max_iter_bool": ("solve", ("problem", "max_iter"), True, "problem.max_iter"),
    "charge_fraction": ("solve", ("problem", "spectrum", "entries", 0, 0), [1.5, 0],
                        "problem.spectrum.entries"),
    "multiplicity_bool": ("solve", ("problem", "spectrum", "entries", 0, 1), True,
                          "problem.spectrum.entries"),
    "saddle_gamma": ("saddle_check", ("saddle", "gamma"), [1.5, 0], "saddle.gamma"),
    "deform_gamma": ("deform_check", ("deform", "gamma"), [0, True], "deform.gamma"),
    "table_order_fraction": ("pentagon_table", ("table_order",), 8.5, "table_order"),
    "table_order_bool": ("pentagon_table", ("table_order",), True, "table_order"),
    "table_order_0": ("pentagon_table", ("table_order",), 0, "table_order"),
    "table_order_negative": ("pentagon_table", ("table_order",), -2, "table_order"),
    "scalar_M": ("scalar_bvp", ("scalar", "M"), 512.5, "scalar.M"),
    "scalar_samples": ("scalar_bvp", ("scalar", "samples"), 200.5, "scalar.samples"),
    "zero_order": ("scalar_bvp", ("scalar", "zeros", 0, 1), 2.5, "scalar.zeros"),
}


@pytest.mark.parametrize("name", sorted(NOT_INTEGERS))
def test_exit_code_1_when_an_integer_field_is_not_an_integer(tmp_path, capsys, name):
    # int() would truncate a fractional number and take a boolean as 0 or 1
    command, path, value, where = NOT_INTEGERS[name]
    doc = dict(json.loads(json.dumps(PENTAGON)), saddle={}, deform={},
               scalar={"jump": {"kind": "manufactured", "eta0": 0.25},
                       "zeros": [[[0.8, 0.0], 2]]})
    section = doc
    for key in path[:-1]:
        section = section[key]
    section[path[-1]] = value
    cfg = write_cfg(tmp_path, doc)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    diag = json.loads(capsys.readouterr().err)
    assert diag["error"] == "ConfigError"
    assert diag["message"].startswith(where)


def test_integral_floats_are_taken_as_integers():
    doc = json.loads(json.dumps(PENTAGON))
    doc["problem"].update(M=128.0, max_iter=30.0)
    doc["problem"]["spectrum"]["entries"][0] = [[1.0, 0.0], 1.0]
    cfg = load_config(json.dumps(doc), "solve").solver
    assert (cfg.M, cfg.max_iter) == (128, 30)
    assert type(cfg.M) is int and type(cfg.max_iter) is int


def test_exit_code_1_when_max_iter_overflows_int(tmp_path, capsys):
    # json reads 1e999 as inf, which int() cannot convert
    text = json.dumps(dict(PENTAGON["problem"], max_iter="@")).replace('"@"', "1e999")
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"problem": ' + text + "}", encoding="utf-8")
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "problem.max_iter" in capsys.readouterr().err


def test_exit_code_1_when_entries_is_not_a_list(tmp_path, capsys):
    doc = json.loads(json.dumps(PENTAGON))
    doc["problem"]["spectrum"]["entries"] = 5
    cfg = write_cfg(tmp_path, doc)
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "problem.spectrum.entries must be a list" in capsys.readouterr().err


def test_sweep_r_monotone_ratios(tmp_path):
    doc = json.loads(json.dumps(PENTAGON))
    doc["R_values"] = [1.0, 2.0, 4.0, 8.0]
    cfg = write_cfg(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["sweep_r", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 5
    ratios = [float(line.split(",")[3]) for line in lines[1:]]
    assert all(b < a for a, b in zip(ratios, ratios[1:]))


def reference_sweep(doc) -> tuple[int, str | dict]:
    """rhflow sweep_r as a loop of per-rung solve and verify: exit code 0
    and sweep.csv's text, or 2 and the first failing rung's error.json."""
    from rhflow import rh_solver
    from rhflow.errors import RHFlowError
    cfg = load_config(json.dumps(doc), "sweep_r").solver
    rows = ["R,iterations,final_delta,contraction_ratio,jump_residual,reality_residual\n"]
    for R in doc["R_values"]:
        try:
            state, report = rh_solver.solve(dataclasses.replace(cfg, R=R))
        except RHFlowError as exc:
            return 2, {"command": "sweep_r", "error": type(exc).__name__, "message": str(exc)}
        residuals = rh_solver.verify(state)
        ratio = max(report["ratios"]) if report["ratios"] else 0.0
        rows.append(",".join([fmt(R), str(report["iterations"]), fmt(report["deltas"][-1]),
                              fmt(ratio), fmt(residuals["jump"]),
                              fmt(residuals["reality"])]) + "\n")
    return 0, "".join(rows)


def sweep(tmp_path, doc) -> tuple[int, str | dict]:
    """rhflow sweep_r's exit code and sweep.csv's text or error.json."""
    out = tmp_path / "out"
    code = main(["sweep_r", "--config", str(write_cfg(tmp_path, doc)), "--out", str(out)])
    if code:
        return code, json.loads((out / "error.json").read_text())
    return code, (out / "sweep.csv").read_text()


GENERIC_PROBLEM = {"spectrum": {"entries": [[[1, 0], 1], [[-1, 0], 1], [[0, 1], 1],
                                            [[0, -1], 1]]},
                   "Z": {"z1": [[1.3, 0.2]], "z2": [[-0.25, 1.1]]}}


@pytest.mark.parametrize("problem, ladder", [
    ({"M": 128, "max_iter": 100}, [0.15, 0.5, 4.0]),
    ({"M": 512, "max_iter": 100}, [0.3, 1.0, 2.0, 8.0]),
    (dict(GENERIC_PROBLEM, max_iter=100), [0.3, 0.5, 1.0, 2.0, 4.0]),
    ({"a": [0.1, 0.05], "theta": [0.2, 2.3], "max_iter": 100,
      "Z": {"z1": [[1.0, 0.0], [0.5, 0.0]], "z2": [[0.0, 1.0]]}}, [0.3, 1.0, 4.0]),
    ({"M": 64, "max_iter": 100}, [0.5, 4.0, 0.5, 0.3, 4.0]),
], ids=["pentagon_M128", "pentagon_M512", "generic_two_pair", "complex_a", "duplicate_rungs"])
def test_sweep_r_ladder_matches_a_loop_of_solve_and_verify(tmp_path, problem, ladder):
    # the rungs solved as one batch and checked as one stack give the bytes
    # of one solve and one verify per rung
    doc = json.loads(json.dumps(PENTAGON))
    doc["problem"].update(problem)
    doc["R_values"] = ladder
    code, text = sweep(tmp_path, doc)
    assert code == 0
    assert (code, text) == reference_sweep(doc)
    assert len(text.splitlines()) == len(ladder) + 1


@pytest.mark.parametrize("problem, ladder, error", [
    # the first rung fails; the second converges
    ({"max_iter": 5}, [0.3, 4.0], "NonContractionError"),
    # at theta = (3, 3), max_iter 40: R = 0.09 converges at step 39 and then
    # fails the |Y| < 1 guard, R = 0.03 stops unconverged at step 40 and
    # R = 4 converges; ladder order, not step order, picks the error
    ({"theta": [3.0, 3.0], "M": 64, "max_iter": 40}, [0.09, 0.03, 4.0],
     "TruncationUnsafeError"),
    ({"theta": [3.0, 3.0], "M": 64, "max_iter": 40}, [4.0, 0.03, 0.09],
     "NonContractionError"),
], ids=["first_rung", "truncation_before_non_contraction",
        "non_contraction_before_truncation"])
def test_sweep_r_raises_the_loops_first_error(tmp_path, capsys, problem, ladder, error):
    doc = json.loads(json.dumps(PENTAGON))
    doc["problem"].update(problem)
    doc["R_values"] = ladder
    got = sweep(tmp_path, doc)
    assert got == reference_sweep(doc)
    assert got[0] == 2 and got[1]["error"] == error
    assert json.loads(capsys.readouterr().err) == got[1]


def test_sweep_r_raises_a_non_finite_rungs_error_first(tmp_path, monkeypatch):
    # no configuration reaches a non-finite iterate, so every step of the
    # R = 0.5 rung is made to return a NaN; the later R = 0.3 rung stops
    # unconverged at max_iter 5
    from rhflow import rh_solver
    original = rh_solver.iterate_once

    def poisoned(stack):
        new = original(stack)
        for k, cfg in enumerate(stack.cfgs):
            if cfg.R == 0.5:
                new.values[k, 0, 0] = np.nan
        return new

    monkeypatch.setattr(rh_solver, "iterate_once", poisoned)
    doc = json.loads(json.dumps(PENTAGON))
    doc["problem"]["max_iter"] = 5
    doc["R_values"] = [4.0, 0.5, 0.3]
    got = sweep(tmp_path, doc)
    assert got == reference_sweep(doc)
    assert got[1]["error"] == "DivergenceError"
    assert got[1]["message"].startswith("non-finite iterate at step 1; R = 0.5")


def test_sweep_r_solves_and_checks_through_the_traced_names(tmp_path, monkeypatch):
    # the benchmark tracer wraps these rh_solver globals; the stacked
    # solve and checks must still call them, once per member or stack
    from rhflow import rh_solver
    calls = {name: [] for name in ("init_state", "iterate_once", "check_jump",
                                   "check_reality", "asymptotic_theta")}
    for name, seen in calls.items():
        original = getattr(rh_solver, name)

        def traced(arg, _seen=seen, _original=original):
            _seen.append(arg)
            return _original(arg)

        monkeypatch.setattr(rh_solver, name, traced)
    doc = json.loads(json.dumps(PENTAGON))
    doc["problem"].update(M=64, max_iter=100)
    doc["R_values"] = [0.3, 1.0, 4.0]
    out = tmp_path / "out"
    assert main(["sweep_r", "--config", str(write_cfg(tmp_path, doc)), "--out", str(out)]) == 0
    monkeypatch.undo()
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    assert [cfg.R for cfg in calls["init_state"]] == doc["R_values"]
    assert [st.cfg.R for st in calls["asymptotic_theta"]] == [4.0, 1.0, 0.3]  # as they converge
    # one step call per lockstep step: as many as the slowest rung takes
    assert len(calls["iterate_once"]) == max(int(row.split(",")[1]) for row in rows)
    # one stacked check of the three rungs each
    for name in ("check_jump", "check_reality"):
        (checks,) = calls[name]
        assert [st.cfg.R for st in checks.states] == doc["R_values"]


def test_pentagon_table_rows(tmp_path):
    doc = {"table_order": 6}
    cfg = write_cfg(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["pentagon_table", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "pentagon_coeffs.csv").read_text().splitlines()
    assert lines[0] == "c1,c2,side,k,numerator,denominator"
    # the j-axis rows for k = 1: -1/j
    assert "0,2,1,1,-1,2" in lines


def test_saddle_check(tmp_path):
    doc = json.loads(json.dumps(PENTAGON))
    doc["saddle"] = {"gamma": [1, 0], "R_values": [4.0, 16.0], "zeta_factor": [2.0, 0.0]}
    cfg = write_cfg(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["saddle_check", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "saddle.csv").read_text().splitlines()
    errs = [float(line.split(",")[1]) for line in lines[1:]]
    assert errs[1] < errs[0]


def test_deform_check(tmp_path):
    doc = json.loads(json.dumps(PENTAGON))
    doc["deform"] = {"gamma": [0, 1], "R": 6.0}
    cfg = write_cfg(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["deform_check", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "deform.csv").read_text().splitlines()
    for line in lines[1:]:
        assert float(line.split(",")[-1]) < 1e-8


def test_deform_check_bisector_across_the_cut(tmp_path):
    # r at -3pi/4 and the ray of (1, 0) at pi straddle the +-pi cut; the
    # half-sum of their phases points out of the sector between them
    doc = json.loads(json.dumps(PENTAGON))
    doc["deform"] = {"gamma": [1, 0], "R": 2.0}
    cfg = write_cfg(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["deform_check", "--config", str(cfg), "--out", str(out)]) == 0
    rows = (out / "deform.csv").read_text().splitlines()[1:]
    assert [row.split(",")[3] for row in rows] == ["1", "0"]
    for row in rows:
        assert float(row.split(",")[-1]) < 1e-10


@pytest.mark.parametrize("gamma, why", [([1, 1], "on the contour ray"),
                                        ([-1, 0], "does not decay")],
                         ids=["on_r", "obtuse"])
def test_exit_code_1_when_deform_ray_cannot_be_deformed(tmp_path, gamma, why):
    doc = json.loads(json.dumps(PENTAGON))
    doc["deform"] = {"gamma": gamma, "R": 2.0}
    cfg = write_cfg(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["deform_check", "--config", str(cfg), "--out", str(out)]) == 1
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "ConfigError"
    assert why in err["message"]


def test_smoothness_command(tmp_path):
    doc = json.loads(json.dumps(PENTAGON))
    doc["problem"]["M"] = 64
    doc["smoothness"] = {"direction": "theta1", "orders": [1, 2], "step": 0.01}
    cfg = write_cfg(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["smoothness", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "smoothness.csv").read_text().splitlines()
    for line in lines[1:]:
        assert float(line.split(",")[-1]) < 1e-4


def test_smoothness_orders_share_stencil_solves(tmp_path, monkeypatch):
    # orders 1 and 2 at steps h and h/2 need offsets {0, +-h, +-h/2}: five
    # distinct solves, not the 4 + 5 of two separate probes, as one batch
    import rhflow.rh_solver as rh_solver
    calls = []
    real_solve_batch = rh_solver.solve_batch

    def counting(cfgs):
        calls.append(list(cfgs))
        return real_solve_batch(cfgs)

    monkeypatch.setattr(rh_solver, "solve_batch", counting)
    doc = json.loads(json.dumps(PENTAGON))
    doc["problem"]["M"] = 64
    doc["smoothness"] = {"direction": "theta1", "orders": [1, 2], "step": 0.01}
    cfg = write_cfg(tmp_path, doc)
    assert main(["smoothness", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    assert len(calls) == 1 and len(calls[0]) == 5
    assert len(set(calls[0])) == 5


def test_smoothness_builds_each_stencil_point_once(tmp_path, monkeypatch):
    # orders 1 and 2 at steps h and h/2 share their five points: each is
    # shifted from the configuration once, for the batch and both probes
    import rhflow.rh_solver as rh_solver
    shifted = []
    shift = rh_solver._DIRECTIONS["theta1"]

    def counting(cfg, h):
        shifted.append(h)
        return shift(cfg, h)

    monkeypatch.setitem(rh_solver._DIRECTIONS, "theta1", counting)
    doc = json.loads(json.dumps(PENTAGON))
    doc["problem"]["M"] = 64
    doc["smoothness"] = {"direction": "theta1", "orders": [1, 2], "step": 0.01}
    out = tmp_path / "o"
    assert main(["smoothness", "--config", str(write_cfg(tmp_path, doc)), "--out", str(out)]) == 0
    assert sorted(shifted) == [-0.01, -0.005, 0.0, 0.005, 0.01]


def test_smoothness_steps_and_builds_its_members_through_the_traced_names(
        tmp_path, monkeypatch):
    # the benchmark tracer wraps rh_solver's iterate_once and init_state;
    # every Picard step of every stencil member must go through them
    import rhflow.rh_solver as rh_solver
    built, stepped = [], []
    real_init, real_iterate = rh_solver.init_state, rh_solver.iterate_once

    def init_state(cfg):
        built.append(cfg)
        return real_init(cfg)

    def iterate_once(stack):
        stepped.append(len(stack.values))  # the members stepped by this call
        return real_iterate(stack)

    monkeypatch.setattr(rh_solver, "init_state", init_state)
    monkeypatch.setattr(rh_solver, "iterate_once", iterate_once)
    doc = json.loads(json.dumps(PENTAGON))
    doc["problem"].update(M=64, R=0.3)
    doc["smoothness"] = {"direction": "theta1", "orders": [1, 2], "step": 0.01}
    cfg = write_cfg(tmp_path, doc)
    assert main(["smoothness", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    monkeypatch.undo()
    assert len(built) == len(set(built)) == 5
    iterations = [rh_solver.solve(member)[1]["iterations"] for member in built]
    assert sum(stepped) == sum(iterations)
    assert len(stepped) == max(iterations)


def test_scalar_bvp_command(tmp_path):
    doc = {"scalar": {"jump": {"kind": "manufactured", "eta0": 0.25},
                      "zeta0": [0.0, 1.5], "zeta0_alt": [0.0, 0.7],
                      "samples": 100}}
    cfg = write_cfg(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["scalar_bvp", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "scalar_report.json").read_text())
    assert report["kappa"] == 0
    assert report["residuals"]["boundary"] < 1e-6
    assert report["residuals"]["uniqueness"] < 1e-6



def _sampled(values, limits):
    """A sampled-jump scalar section on t = +-e^k, k = -4 .. 4."""
    ts = [float(t) for t in np.exp(np.arange(-4.0, 5.0))]
    ts = [-t for t in reversed(ts)] + ts
    return {"jump": {"kind": "sampled", "t": ts, "values": [values] * len(ts)},
            "limits": limits}


_DECAYED = [math.exp(-3.0 * math.pi), 0.0]   # G(0-0)/G(0+0) = e^{2 pi i (1.5i)}


@pytest.mark.parametrize("scalar, message", [
    ({"jump": {"kind": "manufactured", "eta0": 0.25}, "zeta0": [0.0, -1.0]},
     "zeta0 must lie strictly inside D+"),
    ({"jump": {"kind": "manufactured", "eta0": 0.25}, "zeros": [[[0.8, 0.0], 0]]},
     "zero orders must be positive integers"),
    ({"jump": {"kind": "manufactured", "eta0": 0.25}, "zeros": [[[0.5, 0.5], 1]]},
     "is off the contour"),
    # phase(0) = 0 lies "on" the line; a zero there shifts eta_0 (was exit 2)
    ({"jump": {"kind": "manufactured", "eta0": 0.25}, "zeros": [[[0.0, 0.0], 1]]},
     "zeros: a zero at 0 sits on the jump's discontinuity"),
    (_sampled([1.0, 0.0], [[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [1.0, 0.0]]),
     "endpoint limits must be nonzero"),
    (_sampled([1.0, 0.0], [_DECAYED, [1.0, 0.0], [1.0, 0.0], _DECAYED]),
     "|eta_0| must be below one"),
    (_sampled([0.0, 0.0], [[1.0, 0.0]] * 4),
     "continuous jump function vanishes on the contour"),
    # the limits' principal log gives Re eta0 in (-1/2, 1/2] only: off it, a
    # configured eta0 is refused before the solve, not as a winding (exit 2)
    *(({"jump": {"kind": "manufactured", "eta0": eta0}},
       f"scalar.jump.eta0: Re eta0 = {re!r} is off the branch (-1/2, 1/2]")
      for eta0, re in ((0.51, 0.51), (0.6, 0.6), (-0.7, -0.7), (0.95, 0.95),
                       ([0.6, 0.1], 0.6))),
], ids=["zeta0_below", "zero_order_0", "zero_off_contour", "zero_at_0", "zero_limit",
        "eta0_too_large", "vanishing_jump", "eta0_0.51", "eta0_0.6", "eta0_-0.7",
        "eta0_0.95", "eta0_0.6+0.1i"])
def test_exit_code_1_when_the_scalar_problem_is_not_admissible(tmp_path, capsys,
                                                               scalar, message):
    cfg = write_cfg(tmp_path, {"scalar": dict(scalar, samples=20)})
    out = tmp_path / "o"
    assert main(["scalar_bvp", "--config", str(cfg), "--out", str(out)]) == 1
    diag = json.loads(capsys.readouterr().err)
    assert diag["error"] == "ConfigError" and message in diag["message"]
    assert json.loads((out / "error.json").read_text()) == diag


@pytest.mark.parametrize("eta0", [0.5, -0.5, [0.5, 0.2]])
def test_a_manufactured_eta0_on_the_branch_edge_solves(tmp_path, eta0):
    # |Re eta0| = 1/2 is still taken
    cfg = write_cfg(tmp_path, {"scalar": {"jump": {"kind": "manufactured", "eta0": eta0},
                                          "samples": 20}})
    out = tmp_path / "o"
    assert main(["scalar_bvp", "--config", str(cfg), "--out", str(out)]) == 0
    assert json.loads((out / "scalar_report.json").read_text())["kappa"] == 0


def test_scalar_bvp_takes_eta0_as_a_pair_or_a_number(tmp_path):
    def run(eta0, name):
        doc = {"scalar": {"jump": {"kind": "manufactured", "eta0": eta0},
                          "samples": 40}}
        out = tmp_path / name
        code = main(["scalar_bvp", "--config", str(write_cfg(tmp_path, doc, f"{name}.json")),
                     "--out", str(out)])
        return code, out / "scalar_report.json"

    code_num, bare = run(0.25, "bare")
    code_pair, pair = run([0.25, 0.0], "pair")
    assert code_num == code_pair == 0
    assert pair.read_bytes() == bare.read_bytes()
    assert run([0.1, 0.05], "complex")[0] == 0


def test_sweep_r_artifacts_are_byte_identical_across_runs(tmp_path):
    doc = json.loads(json.dumps(PENTAGON))
    doc["problem"]["M"] = 64
    doc["R_values"] = [2.0, 4.0, 8.0]
    cfg = write_cfg(tmp_path, doc)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["sweep_r", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["sweep_r", "--config", str(cfg), "--out", str(out2)]) == 0
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()


def test_artifacts_are_byte_identical_across_runs(tmp_path):
    cfg = write_cfg(tmp_path, PENTAGON)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["solve", "--config", str(cfg), "--out", str(out1), "--seed", "5"]) == 0
    assert main(["solve", "--config", str(cfg), "--out", str(out2), "--seed", "5"]) == 0
    for name in ("report.json", "nodes.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_solve_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # the node operator is applied by FFT, not by a BLAS product; at M = 514
    # a threaded GEMM split the product differently from the 1-thread one
    doc = json.loads(json.dumps(PENTAGON))
    doc["problem"].update(R=1.0, M=514)
    cfg = write_cfg(tmp_path, doc)
    src = Path(__file__).resolve().parent.parent / "src"
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"t{threads}"
        env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-m", "rhflow.cli_driver", "solve",
                               "--config", str(cfg), "--out", str(out)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outs.append((out / "nodes.csv").read_bytes())
    assert outs[0] == outs[1]


def test_scalar_bvp_drops_samples_at_a_zero_on_a_rotated_line(tmp_path, monkeypatch):
    # on the line at phase 1.2 the zero 0.8 e^{1.2i} sits at t = 0.8, not at
    # its real part 0.29; seed 29 draws a sample 1.4e-4 from t = 0.8
    from rhflow.scalar_bvp import ScalarSolution
    samples = []
    original = ScalarSolution.boundary_residual

    def capturing(self, ts):
        samples.append(np.array(ts))
        return original(self, ts)

    monkeypatch.setattr(ScalarSolution, "boundary_residual", capturing)
    phase, zero = 1.2, 0.8 * np.exp(1.2j)
    base = {"jump": {"kind": "manufactured", "eta0": 0.25}, "line_phase": phase,
            "zeta0": [-1.5 * math.sin(phase), 1.5 * math.cos(phase)], "samples": 400}
    for name, zeros in (("plain", []), ("zero", [[[zero.real, zero.imag], 1]])):
        cfg = write_cfg(tmp_path, {"scalar": dict(base, zeros=zeros)}, f"{name}.json")
        assert main(["scalar_bvp", "--config", str(cfg), "--out", str(tmp_path / name),
                     "--seed", "29"]) == 0
    drawn, kept = samples  # the draw depends on the seed and the count only
    assert np.min(np.abs(drawn - 0.8)) < 1e-3
    assert kept.tolist() == [t for t in drawn if abs(t - 0.8) > 1e-2]
