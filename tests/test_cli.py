import json

import pytest

from rhflow.cli_driver import fmt, load_config, main
from rhflow.errors import ConfigError

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


def test_load_config_defaults():
    rc = load_config(json.dumps(PENTAGON), "solve")
    assert rc.solver.N == 8
    assert rc.solver.M == 128
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


@pytest.mark.parametrize("key, value", [("R", "abc"), ("N", "eight"),
                                        ("split_phase", [1, 2])])
def test_exit_code_1_when_a_number_is_wrongly_typed(tmp_path, capsys, key, value):
    doc = json.loads(json.dumps(PENTAGON))
    doc["problem"][key] = value
    cfg = write_cfg(tmp_path, doc)
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert f"problem.{key}" in capsys.readouterr().err


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


def test_exit_code_1_when_N_overflows_int(tmp_path, capsys):
    # json reads 1e999 as inf, which int() cannot convert
    text = json.dumps(dict(PENTAGON["problem"], N="@")).replace('"@"', "1e999")
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"problem": ' + text + "}", encoding="utf-8")
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "problem.N" in capsys.readouterr().err


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
    # distinct solves, not the 4 + 5 of two separate probes
    import rhflow.rh_solver as rh_solver
    calls = []
    real_solve = rh_solver.solve

    def counting(cfg):
        calls.append(cfg)
        return real_solve(cfg)

    monkeypatch.setattr(rh_solver, "solve", counting)
    doc = json.loads(json.dumps(PENTAGON))
    doc["problem"]["M"] = 64
    doc["smoothness"] = {"direction": "theta1", "orders": [1, 2], "step": 0.01}
    cfg = write_cfg(tmp_path, doc)
    assert main(["smoothness", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    assert len(calls) == 5
    assert len(set(calls)) == 5


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
