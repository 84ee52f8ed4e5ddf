"""tools/layer_times.py: the paired summary of end-to-end runs, and the fixed-op runs."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("layer_times", ROOT / "tools" / "layer_times.py")
layer_times = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(layer_times)


def test_summary_counts_pair_wins_by_each_metrics_direction():
    runs = {"base": [{"ops_per_s": 60.0, "latency_p50_ms": 16.0},
                     {"ops_per_s": 62.0, "latency_p50_ms": 15.0},
                     {"ops_per_s": 58.0, "latency_p50_ms": 17.0}],
            "tree": [{"ops_per_s": 70.0, "latency_p50_ms": 16.0},
                     {"ops_per_s": 61.0, "latency_p50_ms": 14.0},
                     {"ops_per_s": 75.0, "latency_p50_ms": 13.0}]}
    summary = layer_times.summarize(runs, {"ops_per_s": "higher", "latency_p50_ms": "lower"})
    # the second pair loses on throughput; the first ties on latency
    assert summary["ops_per_s"]["tree_wins"] == "2 of 3"
    assert summary["latency_p50_ms"]["tree_wins"] == "2 of 3"
    assert summary["ops_per_s"]["base"]["median"] == 60.0
    assert summary["ops_per_s"]["tree"]["median"] == 70.0
    base = summary["latency_p50_ms"]["base"]
    assert base["q1"] <= base["median"] <= base["q3"]


def test_layer_rounds_are_paired_and_counted_per_layer():
    # three rounds per side; each layer's round medians are paired by round
    def round_(times, iterations=6):
        return {"R=1,M=128": {"iterations": iterations,
                              **{name: list(times.get(name, [1.0, 1.0, 1.0]))
                                 for name in layer_times.LAYERS}}}
    rounds = {"base": [round_({"solve": [3.0, 2.0, 9.0]}), round_({"solve": [2.5, 2.5, 2.5]}),
                       round_({"solve": [2.0, 2.1, 2.2]})],
              "tree": [round_({"solve": [2.0, 0.5, 2.0]}, 7), round_({"solve": [2.6, 2.6, 2.6]}, 7),
                       round_({"solve": [1.0, 1.9, 1.9]}, 7)]}
    case = layer_times.layer_summary(rounds)["R=1,M=128"]
    assert case["iterations"] == {"base": 6, "tree": 7}
    # round medians 3.0, 2.5, 2.1 against 2.0, 2.6, 1.9: the second round is lost
    assert case["solve"]["tree_wins"] == "2 of 3"
    assert case["solve"]["base"]["median"] == 2.5
    assert case["solve"]["tree"]["min"] == 0.5
    assert case["verify"]["tree_wins"] == "0 of 3"  # ties count for neither


def test_scalar_cases_are_summarized_by_their_own_layers():
    # a scalar case has no iteration count and times SCALAR_LAYERS only
    def round_(bv):
        return {"scalar eta0=0.1,zeros=0": {"solve_scalar_bvp": [0.5], "boundary pair": [bv],
                                            "verify_uniqueness": [3.0]}}
    rounds = {"base": [round_(4.0), round_(4.2)], "tree": [round_(2.0), round_(4.5)]}
    case = layer_times.layer_summary(rounds)["scalar eta0=0.1,zeros=0"]
    assert list(case) == list(layer_times.SCALAR_LAYERS)
    assert case["boundary pair"]["tree_wins"] == "1 of 2"
    assert case["boundary pair"]["tree"]["min"] == 2.0


def test_smoothness_cases_are_summarized_by_their_one_layer():
    def round_(ms):
        return {"smoothness theta1,R=4,M=128": {"smoothness": list(ms)}}
    rounds = {"base": [round_([2.0, 2.2]), round_([2.1])], "tree": [round_([1.5]), round_([2.3])]}
    case = layer_times.layer_summary(rounds)["smoothness theta1,R=4,M=128"]
    assert list(case) == ["smoothness"]
    assert case["smoothness"]["tree_wins"] == "1 of 2"
    assert case["smoothness"]["tree"]["min"] == 1.5


def test_each_node_count_times_in_an_interpreter_of_its_own():
    # one child per node count of CASES and one for the scalar cases; the
    # smoothness cases run with the M = 128 cases
    assert layer_times.layer_groups() == ["128", "512", "2048", "scalar"]
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "layer_times.py"),
                           "--layers-of", str(ROOT / "src"), "2048"],
                          capture_output=True, text=True, check=True,
                          env=dict(os.environ, OPENBLAS_NUM_THREADS="1"))
    got = json.loads(proc.stdout.strip().splitlines()[-1])
    assert list(got) == ["R=1,M=2048"]
    assert list(got["R=1,M=2048"]) == ["iterations", *layer_times.LAYERS]


@pytest.mark.parametrize("direction", layer_times.SMOOTHNESS_CASES)
def test_smoothness_layer_formats_what_the_command_writes(tmp_path, direction):
    # the sweep-probe op with its file write stubbed: the texts of its
    # smoothness.csv, and nothing written
    from rhflow import cli_driver, rh_solver
    write = cli_driver._write
    texts = layer_times.smoothness_call(rh_solver, direction, tmp_path)()
    assert cli_driver._write is write and not list(tmp_path.iterdir())
    doc = {"problem": {"R": 4.0, "theta": [0.7, 1.3], "M": 128, "max_iter": 100,
                       "spectrum": {"entries": [[[1, 0], 1], [[-1, 0], 1], [[0, 1], 1],
                                                [[0, -1], 1], [[1, 1], 1], [[-1, -1], 1]],
                                    "support_constant": 0.9},
                       "Z": {"z1": [[1.0, 0.0]], "z2": [[0.0, 1.0]]}},
           "smoothness": {"direction": direction, "orders": [1, 2], "step": 0.01}}
    if direction == "a_re":
        doc["problem"].update(a=[0.1, 0.0], Z={"z1": [[1.0, 0.0], [0.5, 0.0]],
                                                "z2": [[0.0, 1.0]]})
    (tmp_path / "cfg.json").write_text(json.dumps(doc))
    assert cli_driver.main(["smoothness", "--config", str(tmp_path / "cfg.json"),
                            "--out", str(tmp_path / "main")]) == 0
    assert list(texts) == ["smoothness.csv"]
    assert "".join(texts["smoothness.csv"]).encode() == (
        tmp_path / "main" / "smoothness.csv").read_bytes()


def test_sweep_layer_formats_what_the_command_writes(tmp_path):
    # a sweep-probe ladder with its file write stubbed: the texts of its
    # sweep.csv, and nothing written; each call on a fresh configuration
    from rhflow import cli_driver, rh_solver
    write = cli_driver._write
    call = layer_times.sweep_call(rh_solver, tmp_path)
    texts = call()
    assert cli_driver._write is write and not list(tmp_path.iterdir())
    assert call() == texts
    doc = {"problem": {"R": 0.15, "theta": [0.7, 1.3], "M": 128, "max_iter": 100,
                       "spectrum": {"entries": [[[1, 0], 1], [[-1, 0], 1], [[0, 1], 1],
                                                [[0, -1], 1], [[1, 1], 1], [[-1, -1], 1]],
                                    "support_constant": 0.9},
                       "Z": {"z1": [[1.0, 0.0]], "z2": [[0.0, 1.0]]}},
           "R_values": list(layer_times.SWEEP_LADDER)}
    (tmp_path / "cfg.json").write_text(json.dumps(doc))
    assert cli_driver.main(["sweep_r", "--config", str(tmp_path / "cfg.json"),
                            "--out", str(tmp_path / "main")]) == 0
    assert list(texts) == ["sweep.csv"]
    text = "".join(texts["sweep.csv"])
    assert text.encode() == (tmp_path / "main" / "sweep.csv").read_bytes()
    assert len(text.splitlines()) == len(layer_times.SWEEP_LADDER) + 1


def test_sweep_case_is_summarized_by_its_one_layer():
    def round_(ms):
        return {"sweep_r R=0.15,0.5,4,M=128": {"sweep_r": list(ms)}}
    rounds = {"base": [round_([7.2, 7.4]), round_([7.3])], "tree": [round_([6.5]), round_([7.5])]}
    case = layer_times.layer_summary(rounds)["sweep_r R=0.15,0.5,4,M=128"]
    assert list(case) == ["sweep_r"]
    assert case["sweep_r"]["tree_wins"] == "1 of 2"
    assert case["sweep_r"]["tree"]["min"] == 6.5


def test_prepared_sides_hold_compiled_bytecode(tmp_path):
    # a run under PYTHONDONTWRITEBYTECODE=1 loads these instead of compiling
    # the source, so its peak RSS does not read the source's size
    sides = layer_times.make_sides(tmp_path, "HEAD")
    assert sorted(sides) == ["base", "tree"]
    for side in sides.values():
        sources = [p for part in ("src", "bench") for p in (side / part).rglob("*.py")]
        assert any(p.name == "rh_solver.py" for p in sources)
        for source in sources:
            assert Path(importlib.util.cache_from_source(str(source))).is_file(), source


def test_fixed_ops_run_through_the_benchmarks_own_op_runner():
    # a fresh interpreter, as the tool runs it: bench/run.py re-imports rhflow
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "layer_times.py"),
                           "--ops-of", str(ROOT), "solve-verify", "41", "3"],
                          capture_output=True, text=True, check=True,
                          env=dict(os.environ, OPENBLAS_NUM_THREADS="1"))
    got = json.loads(proc.stdout.strip().splitlines()[-1])
    assert got["failed"] == 0
    assert 0.0 < got["residual_max"] < 1e-10
    assert got["peak_rss_mb"] > 0.0


def test_every_layer_call_runs_on_this_tree(tmp_path):
    from rhflow import cli_driver, rh_solver
    iterate, write = rh_solver.iterate_once, cli_driver._write
    iterations, calls = layer_times.layer_calls(rh_solver, 4.0, 64, tmp_path)
    assert iterations >= 2 and list(calls) == list(layer_times.LAYERS)
    _, cold = calls["init_state cold"]()
    assert cold.values.shape == calls["init_state warm"]().values.shape == (64, 2)
    # the steady-state step: every call steps one kept one-member stack from
    # the same iterate, so two calls give the same bytes, at a fixed point
    again = calls["iterate_once"]().values.tobytes()
    stepped = calls["iterate_once"]().values
    assert stepped.tobytes() == again
    solved, _ = calls["solve"]()
    assert np.max(np.abs(stepped[0] - solved.values)) < 1e-11
    assert calls["truncation_guard"]() is None
    assert 0.0 < calls["verify"]()["jump"] < 1e-8
    # format: rhflow solve's artifacts for the solved state, with solve,
    # verify and the file writes stubbed only for the call; write: those
    # texts, written into a new directory per call
    texts = calls["format"]()
    out, again = calls["write"](), calls["write"]()
    assert set(tmp_path.iterdir()) == {out, again}  # format wrote nothing
    assert cli_driver.solve is rh_solver.solve and cli_driver.verify is rh_solver.verify
    assert cli_driver._write is write and rh_solver.iterate_once is iterate
    cfg = {"problem": {"R": 4.0, "theta": [0.7, 1.3], "M": 64, "tol": 1e-12, "max_iter": 100,
                       "spectrum": {"entries": [[[1, 0], 1], [[-1, 0], 1], [[0, 1], 1],
                                                [[0, -1], 1], [[1, 1], 1], [[-1, -1], 1]],
                                    "support_constant": 0.9},
                       "Z": {"z1": [[1.0, 0.0]], "z2": [[0.0, 1.0]]}}}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert cli_driver.main(["solve", "--config", str(tmp_path / "cfg.json"),
                            "--out", str(tmp_path / "main")]) == 0
    assert sorted(texts) == ["nodes.csv", "report.json"]
    for name in texts:
        expected = (tmp_path / "main" / name).read_bytes()
        assert "".join(texts[name]).encode() == expected
        assert (out / name).read_bytes() == (again / name).read_bytes() == expected
