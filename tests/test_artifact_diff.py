"""tools/artifact_diff.py: the numeric comparison of two output trees, and\nthe repeat of each op on the tree side."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("artifact_diff",
                                               ROOT / "tools" / "artifact_diff.py")
artifact_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(artifact_diff)


def _tree(root: Path, node_value: str, sup: str, theta0: float) -> Path:
    (root / "solve").mkdir(parents=True)
    (root / "solve" / "nodes.csv").write_text(
        "ray,index,re_theta1\n"
        f"r,0,{node_value}\n"
        "-r,0,0.25\n")
    (root / "smoothness").mkdir()
    (root / "smoothness" / "smoothness.csv").write_text(
        "direction,order,step,sup_derivative\n"
        f"theta1,1,0.01,{sup}\n")
    (root / "solve" / "report.json").write_text(
        json.dumps({"iterations": 6, "theta0": [[theta0, 0.0]], "note": "text"}))
    return root


def test_text_columns_are_skipped_and_numeric_ones_compared(tmp_path):
    base = _tree(tmp_path / "base", "0.5", "1.25", 0.7)
    tree = _tree(tmp_path / "tree", "0.5000000000000001", "1.5", 0.7)
    lines = artifact_diff.numeric_differences(base, tree)
    assert [line.split()[:2] for line in lines] == [
        ["smoothness/smoothness.csv", "sup_derivative:"],
        ["solve/nodes.csv", "re_theta1:"],
    ]
    assert lines[0].endswith(": 0.25")
    assert lines[1].endswith(": 1.11e-16")  # one ulp of 0.5, to 3 digits


def test_csv_fields_are_the_numeric_columns(tmp_path):
    base = _tree(tmp_path / "base", "0.5", "1.25", 0.7)
    fields = artifact_diff._numeric_fields(base / "solve" / "nodes.csv")
    assert fields == {"index": [0.0, 0.0], "re_theta1": [0.5, 0.25]}
    assert artifact_diff._numeric_fields(base / "solve" / "report.json") == {
        "iterations": [6.0], "theta0[0][0]": [0.7], "theta0[0][1]": [0.0]}


def _residual_tree(root: Path, jumps: list, reality: str, boundary: float) -> Path:
    for i, jump in enumerate(jumps):
        (root / f"solve-{i}").mkdir(parents=True)
        (root / f"solve-{i}" / "report.json").write_text(json.dumps(
            {"iterations": 6, "residuals": {"jump": jump, "reality": 1e-16}}))
    (root / "sweep").mkdir()
    (root / "sweep" / "sweep.csv").write_text(
        "R,iterations,jump_residual,reality_residual\n"
        f"4.0,2,1e-14,{reality}\n"
        "0.3,22,1e-13,2e-16\n")
    (root / "scalar").mkdir()
    (root / "scalar" / "scalar_report.json").write_text(
        json.dumps({"eta0": 0.25, "residuals": {"boundary": boundary}}))
    return root


def test_residual_rises_name_the_count_the_largest_rise_and_its_op(tmp_path):
    base = _residual_tree(tmp_path / "base", [1e-7, 2e-7], "1e-16", 4e-12)
    tree = _residual_tree(tmp_path / "tree", [1e-13, 3e-7], "nan", 4e-12)
    lines = artifact_diff.residual_rises(base, tree)
    assert lines == [
        "  report.json residuals.jump: 1 of 2 rose; max 2e-07 -> 3e-07; "
        "largest rise 1e-07 on solve-1",
        "  report.json residuals.reality: 0 of 2 rose; max 1e-16 -> 1e-16",
        "  scalar_report.json residuals.boundary: 0 of 1 rose; max 4e-12 -> 4e-12",
        "  sweep.csv jump_residual: 0 of 2 rose; max 1e-13 -> 1e-13",
        "  sweep.csv reality_residual: 1 of 2 rose; max 2e-16 -> nan; "
        "largest rise inf on sweep",
    ]


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_each_op_run_again_finds_its_problems_cached_and_writes_the_same_bytes(tmp_path):
    # a solve, a sweep over two R, a smoothness probe whose stencil points
    # share one theta-free problem and a scalar solve with its uniqueness
    # check, each run twice in one interpreter
    pentagon = artifact_diff.PENTAGON
    ops = [{"name": "solve", "command": "solve", "seed": 0,
            "doc": {"problem": dict(pentagon, R=0.3, M=64)}},
           {"name": "sweep", "command": "sweep_r", "seed": 0,
            "doc": {"problem": dict(pentagon, M=64), "R_values": [4.0, 1.0]}},
           {"name": "smoothness", "command": "smoothness", "seed": 0,
            "doc": {"problem": dict(pentagon, M=64),
                    "smoothness": {"direction": "theta1", "orders": [1, 2]}}},
           {"name": "scalar", "command": "scalar_bvp", "seed": 0,
            "doc": {"scalar": {"jump": {"kind": "manufactured", "eta0": 0.25},
                               "zeta0_alt": [0.0, 0.7], "M": 128, "samples": 20}}}]
    ops_file = tmp_path / "ops.json"
    ops_file.write_text(json.dumps(ops))
    out, again = tmp_path / "out", tmp_path / "again"
    subprocess.run([sys.executable, str(ROOT / "tools" / "artifact_diff.py"), "--side",
                    str(ROOT / "src"), str(ops_file), str(out), str(again)],
                   check=True, capture_output=True,
                   env=dict(os.environ, OPENBLAS_NUM_THREADS="1"))
    codes = json.loads(Path(f"{out}.codes.json").read_text())
    repeat = json.loads(Path(f"{again}.codes.json").read_text())
    assert codes == repeat["codes"] == {"solve": 0, "sweep": 0, "smoothness": 0, "scalar": 0}
    assert repeat["cache_misses"] == {"theta_free": 0, "eta0_free": 0}
    first = _files(out)
    assert sorted(first) == ["scalar/scalar_report.json", "smoothness/smoothness.csv",
                             "solve/nodes.csv", "solve/report.json", "sweep/sweep.csv"]
    assert _files(again) == first
