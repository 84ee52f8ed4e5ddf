"""Tests of the benchmark itself: the correctness gate can fail, the tracer
covers every layer it claims, and the inputs follow the seed.

    python -m pytest bench -q
"""

import json
import os
import random
from pathlib import Path

import pytest

import run
import tracer
import workloads
from workloads import Op

RH = {"cli_driver.main", "cli_driver.load_config", "rh_solver.solve",
      "rh_solver.init_state", "rh_solver.iterate_once", "rh_solver.check_jump",
      "rh_solver.check_reality", "rh_solver.asymptotic_theta",
      "rh_solver.evaluate_theta", "stokes_series.stokes_log_coeffs",
      "contour_quadrature.integrate_ray.rh"}
EXPECTED = {
    "solve-verify": RH,
    "sweep-probe": RH | {"rh_solver.smoothness_probe"},
    "scalar-bvp": {"cli_driver.main", "cli_driver.load_config",
                   "scalar_bvp.solve_scalar_bvp", "scalar_bvp.solve_continuous",
                   "scalar_bvp.boundary_residual", "scalar_bvp.verify_uniqueness",
                   "contour_quadrature.integrate_ray.scalar"},
}
ALL_NAMES = {name for _, _, name in tracer.SITES} | {tracer.ROOT}


# ------------------------------------------------------------ tracer coverage

@pytest.fixture(scope="module")
def traced():
    """One block of each workload, traced."""
    return {w: run.run(w, seed=1, seconds=0, trace=True) for w in workloads.WORKLOADS}


def test_expected_names_cover_every_site():
    assert set().union(*EXPECTED.values()) == ALL_NAMES


@pytest.mark.parametrize("workload", sorted(EXPECTED))
def test_tracer_records_every_layer_the_workload_uses(traced, workload):
    counts = traced[workload]["span_counts"]
    missing = [n for n in EXPECTED[workload] if counts.get(n, 0) < 1]
    assert not missing, f"no spans for {missing} on {workload}"
    unexpected = {n: c for n, c in counts.items() if n not in EXPECTED[workload]}
    assert not unexpected, f"spans for {unexpected} on {workload}"
    assert traced[workload]["result"]["correct"]


def test_scalar_bvp_runs_no_rh_solver_or_series_code(traced):
    rec = traced["scalar-bvp"]
    assert not [n for n in rec["span_counts"]
                if n.startswith(("rh_solver.", "stokes_series."))]
    metrics = rec["result"]["metrics"]
    calls = [k for k in metrics if k.startswith(("rh_solver.", "stokes_series."))
             and k.endswith(".calls")]
    assert calls and all(metrics[k]["value"] == 0 for k in calls)


def test_every_lookup_site_is_exercised(traced):
    totals = {}
    for rec in traced.values():
        for site, n in rec["site_calls"].items():
            totals[site] = totals.get(site, 0) + n
    assert set(totals) == {f"{m}:{p}" for m, p, _ in tracer.SITES}
    assert all(n > 0 for n in totals.values()), totals


def test_unresolvable_name_is_an_error():
    run.import_rhflow()
    with pytest.raises(tracer.TracerError):
        tracer.Tracer([("rhflow.rh_solver", "no_such_function", "x")])
    with pytest.raises(tracer.TracerError):
        tracer.Tracer([("rhflow.no_such_module", "solve", "x")])
    with pytest.raises(tracer.TracerError):
        tracer.Tracer([("rhflow.scalar_bvp", "NoSuchClass.method", "x")])


def test_self_time_subtracts_children():
    t = tracer.Tracer(sites=())
    t.spans = [tracer.Span("a", 0.0, 10.0, -1, 0), tracer.Span("b", 1.0, 4.0, 0, 0),
               tracer.Span("c", 2.0, 3.0, 1, 0), tracer.Span("d", 5.0, 6.0, 0, 0)]
    assert t.self_times() == [6.0, 2.0, 1.0, 1.0]


# ------------------------------------------------------------ correctness gate

SOLVE_OP = Op("solve", {"problem": {}}, 0, "solve")
SWEEP_OP = Op("sweep_r", {"problem": {"max_iter": 100}, "R_values": [0.2, 1.0]}, 0, "sweep")
SMOOTH_OP = Op("smoothness", {"problem": {}, "smoothness": {"orders": [1, 2]}}, 0, "probe")
SCALAR_OP = Op("scalar_bvp", {"scalar": {}}, 0, "scalar")

GOOD_REPORT = {"residuals": {"jump": 2e-7, "reality": 1e-15,
                             "asymptotic_real": 0.0, "asymptotic_conj": 0.0}}
SWEEP_HEAD = "R,iterations,final_delta,contraction_ratio,jump_residual,reality_residual\n"
GOOD_SWEEP = SWEEP_HEAD + "0.2,41,9e-13,0.58,3.1e-07,2e-16\n1,6,8e-13,0.012,3e-08,3e-18\n"
SMOOTH_HEAD = "direction,order,step,sup_derivative,rel_change\n"
GOOD_SMOOTH = SMOOTH_HEAD + "theta1,1,0.01,1,2e-13\ntheta1,2,0.01,2e-08,1e-06\n"
GOOD_SCALAR = {"kappa": 0, "residuals": {"boundary": 5e-12, "uniqueness": 2e-8}}


class FakeCli:
    """Stands in for rhflow.cli_driver: writes the given artifact and
    returns the given exit code."""

    def __init__(self, code, name, text):
        self.code, self.name, self.text = code, name, text

    def main(self, argv):
        out = Path(argv[argv.index("--out") + 1])
        out.mkdir(parents=True, exist_ok=True)
        if self.name:
            (out / self.name).write_text(self.text)
        if isinstance(self.code, Exception):
            raise self.code
        return self.code


def doctored(report=None, **residuals):
    rep = json.loads(json.dumps(report or GOOD_REPORT))
    rep["residuals"].update(residuals)
    return json.dumps(rep)


CASES = [
    # (op, exit code, artifact, content, passes)
    (SOLVE_OP, 0, "report.json", doctored(), True),
    (SOLVE_OP, 2, "error.json", "{}", False),
    (SOLVE_OP, 0, "report.json", doctored(jump=2e-6), False),
    (SOLVE_OP, 0, "report.json", doctored(reality=float("nan")), False),
    (SOLVE_OP, 0, "report.json", doctored(asymptotic_conj=1e-8), False),
    (SOLVE_OP, 0, None, "", False),
    (SOLVE_OP, ValueError("boom"), None, "", False),
    (SWEEP_OP, 0, "sweep.csv", GOOD_SWEEP, True),
    (SWEEP_OP, 0, "sweep.csv", GOOD_SWEEP.replace("9e-13", "1e-3"), False),
    (SWEEP_OP, 0, "sweep.csv", GOOD_SWEEP.replace(",0.58,", ",1.2,"), False),
    (SWEEP_OP, 0, "sweep.csv", SWEEP_HEAD + GOOD_SWEEP.splitlines()[1] + "\n", False),
    (SMOOTH_OP, 0, "smoothness.csv", GOOD_SMOOTH, True),
    (SMOOTH_OP, 0, "smoothness.csv", GOOD_SMOOTH.replace("1e-06", "2e-4"), False),
    (SCALAR_OP, 0, "scalar_report.json", json.dumps(GOOD_SCALAR), True),
    (SCALAR_OP, 0, "scalar_report.json", doctored(GOOD_SCALAR, uniqueness=1e-5), False),
    (SCALAR_OP, 0, "scalar_report.json", doctored(GOOD_SCALAR, boundary=1e-5), False),
    (SCALAR_OP, 0, "scalar_report.json",
     json.dumps({**GOOD_SCALAR, "kappa": 1}), False),
]


@pytest.mark.parametrize("op,code,name,text,passes", CASES)
def test_gate(tmp_path, op, code, name, text, passes):
    _, result = run.run_op(FakeCli(code, name, text), op, tmp_path)
    assert result.ok is passes


def test_doctored_ops_count_into_fail_frac(tmp_path):
    outcomes = [run.run_op(FakeCli(code, name, text), op, tmp_path)
                for op, code, name, text, _ in CASES]
    kinds = [op.kind for op, *_ in CASES]
    mix = sorted(set(kinds))
    metrics, detail = run.end_to_end(kinds, [lat for lat, _ in outcomes],
                                     [res for _, res in outcomes], mix, 0.1, 50.0)
    expected = sum(not passes for *_, passes in CASES) / len(CASES)
    assert detail["fail_frac"] == expected > 0
    # the residual of a failing op still counts toward the worst residual
    assert metrics["residual_max"] == pytest.approx(1e-5)


def test_class_medians_drop_a_slow_burst():
    ok = workloads.GateResult(True, 1e-7)
    kinds = ["a", "b"] * 3
    latencies = [1.0, 2.0, 1.0, 2.0, 5.0, 9.0]   # the last two ran in a burst
    metrics, _ = run.end_to_end(kinds, latencies, [ok] * 6, ["a", "a", "b"], 0.1, 50.0)
    assert metrics["ops_per_s"] == pytest.approx(3 / 4)
    assert metrics["latency_p50_ms"] == pytest.approx(1e3)
    # six samples are too few for a percentile tail: the slowest class
    assert metrics["latency_tail_ms"] == pytest.approx(2e3)


# ------------------------------------------------------------ inputs and output

@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_inputs_follow_the_seed(workload):
    def first_blocks(seed):
        gen = workloads.WORKLOADS[workload](random.Random(seed))
        return [[(op.command, op.text(), op.seed) for op in next(gen)] for _ in range(3)]
    assert first_blocks(7) == first_blocks(7)
    assert first_blocks(7) != first_blocks(8)
    # every block runs the same input mix
    gen = workloads.WORKLOADS[workload](random.Random(7))
    mixes = [sorted(op.kind for op in next(gen)) for _ in range(3)]
    assert mixes[0] == mixes[1] == mixes[2]


def test_tail_percentile_leaves_ten_samples_above():
    assert run.tail([float(i) for i in range(100)]) == (89.0, 90.0, 10)
    assert run.tail([float(i) for i in range(21)]) == (10.0, 100.0 * 11 / 21, 10)
    assert run.tail([float(i) for i in range(20)]) is None


def test_untraced_result_has_every_end_to_end_metric():
    rec = run.run("scalar-bvp", seed=2, seconds=0, trace=False)
    declared = run.declared_metrics()["end_to_end"]
    metrics = rec["result"]["metrics"]
    assert list(metrics) == list(declared)
    assert all(metrics[k]["value"] > 0 for k in metrics)
    assert rec["result"]["failed"] == 0 and rec["result"]["attempted"] >= 1


def test_threads_are_pinned(monkeypatch):
    monkeypatch.setenv("RHFLOW_THREADS", "3")
    for var in run.THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    run.pin_threads()
    assert "RHFLOW_THREADS" not in os.environ
    assert all(os.environ[var] == "1" for var in run.THREAD_VARS)


def test_refuses_to_run_without_sources(tmp_path):
    with pytest.raises(run.BenchError):
        run.import_rhflow(tmp_path)
