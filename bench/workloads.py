"""Seeded op generators and the correctness gate for the rhflow benchmark.

An op is one `rhflow` CLI command on one generated JSON config.  Each
workload yields ops in blocks: a block is a seeded permutation of the
workload's discrete input mix, so a run that ends on a block boundary has
run every input class in its fixed proportion whatever the seed.  The seed
draws the order inside each block and the continuous inputs (angles,
sample seeds, ladder rungs).

The gate reads the artifacts a command wrote and applies the tolerances the
repository's own tests assert for that command.  It never trusts the exit
code alone and is applied to every op.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

PENTAGON = {
    "entries": [[[1, 0], 1], [[-1, 0], 1], [[0, 1], 1], [[0, -1], 1],
                [[1, 1], 1], [[-1, -1], 1]],
    "support_constant": 0.9,
}
Z_PENTAGON = {"z1": [[1.0, 0.0]], "z2": [[0.0, 1.0]]}
# test_generic_two_pair_spectrum: asymmetric central charge, two pairs
GENERIC = {"entries": [[[1, 0], 1], [[-1, 0], 1], [[0, 1], 1], [[0, -1], 1]]}
Z_GENERIC = {"z1": [[1.3, 0.2]], "z2": [[-0.25, 1.1]]}
# test_smoothness_probe_a_dependence: z1 = 1 + a/2, evaluated at a = 0.1
Z_LINEAR = {"z1": [[1.0, 0.0], [0.5, 0.0]], "z2": [[0.0, 1.0]]}
TEST_ANGLES = [0.7, 1.3]

# tolerances of tests/test_rh_solver.py, tests/test_cli.py and the
# acceptance criteria; the benchmark may not loosen them
SOLVE_TOL = {"jump": 1e-6, "reality": 1e-8,
             "asymptotic_real": 1e-9, "asymptotic_conj": 1e-9}
SMOOTHNESS_TOL = 1e-4
SCALAR_TOL = {"boundary": 1e-6, "uniqueness": 1e-6}

ARTIFACTS = {"solve": "report.json", "sweep_r": "sweep.csv",
             "smoothness": "smoothness.csv", "scalar_bvp": "scalar_report.json"}


@dataclass(frozen=True)
class Op:
    """One CLI command: its name, its config document, its --seed and its
    input class (inputs of about equal cost)."""

    command: str
    doc: dict
    seed: int
    kind: str

    def text(self) -> str:
        return json.dumps(self.doc, sort_keys=True)


@dataclass(frozen=True)
class GateResult:
    ok: bool
    residual: float | None   # the op's defining-condition residual, if any
    reason: str = ""


def _angles(rng: random.Random) -> list[float]:
    return [rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.0, 2.0 * math.pi)]


def _problem(theta, spectrum, Z, R, N, M, a=(0.0, 0.0)) -> dict:
    return {"R": R, "a": list(a), "theta": theta, "spectrum": spectrum,
            "Z": Z, "N": N, "M": M, "max_iter": 100}


def solve_verify_blocks(rng: random.Random):
    """`rhflow solve`: pentagon or generic two-pair spectrum, R in
    {0.3, 1, 4}, M = 128 in two thirds of the ops and 512 in one third
    (so the median sits in the M = 128 class and the tail in M = 512)."""
    classes = [(name, spec, Z, R, M)
               for name, spec, Z in (("pentagon", PENTAGON, Z_PENTAGON),
                                     ("generic", GENERIC, Z_GENERIC))
               for R in (0.3, 1.0, 4.0)
               for M in (128, 128, 512)]
    while True:
        rng.shuffle(classes)
        yield [Op("solve", {"problem": _problem(_angles(rng), spec, Z, R, 8, M)},
                  rng.randrange(2 ** 31), f"{name} R={R} M={M}")
               for name, spec, Z, R, M in classes]


def sweep_probe_blocks(rng: random.Random):
    """Alternating `rhflow sweep_r` and `rhflow smoothness` at N = 12,
    M = 128.  Each block has one sweep with lowest rung 0.15 and one with
    0.2, and one smoothness probe of each kind.  The two sweeps cost about
    the same, and so do the two probes, so each command is one input class.

    All ops keep the tests' angles (0.7, 1.3): at R = 0.15 the Picard ratio
    depends on the angles, and at some of them 100 steps do not converge."""
    while True:
        lows = [0.15, 0.2]
        probes = ["theta1", "a_re"]
        rng.shuffle(lows)
        rng.shuffle(probes)
        block = []
        for low, probe in zip(lows, probes):
            ladder = [low, rng.choice([0.3, 0.5, 1.0]), rng.choice([2.0, 4.0, 8.0])]
            block.append(Op("sweep_r", {
                "problem": _problem(TEST_ANGLES, PENTAGON, Z_PENTAGON, ladder[0], 12, 128),
                "R_values": ladder}, rng.randrange(2 ** 31), "sweep_r"))
            if probe == "theta1":
                problem = _problem(TEST_ANGLES, PENTAGON, Z_PENTAGON, 4.0, 12, 128)
            else:
                problem = _problem(TEST_ANGLES, PENTAGON, Z_LINEAR, 4.0, 12, 128,
                                   a=(0.1, 0.0))
            block.append(Op("smoothness", {
                "problem": problem,
                "smoothness": {"direction": probe, "orders": [1, 2], "step": 0.01}},
                rng.randrange(2 ** 31), "smoothness"))
        yield block


def scalar_bvp_blocks(rng: random.Random):
    """`rhflow scalar_bvp` on the manufactured jump: eta0 in
    {-0.3, 0.1, 0.25}, with and without an order-2 zero at 0.8."""
    classes = [(eta0, zeros) for eta0 in (-0.3, 0.1, 0.25)
               for zeros in ([], [[[0.8, 0.0], 2]])]
    while True:
        rng.shuffle(classes)
        yield [Op("scalar_bvp", {"scalar": {
                   "jump": {"kind": "manufactured", "eta0": eta0},
                   "zeros": zeros, "zeta0": [0.0, 1.5], "zeta0_alt": [0.0, 0.7],
                   "samples": 200}}, rng.randrange(2 ** 31),
                  f"scalar_bvp eta0={eta0} zeros={len(zeros)}")
               for eta0, zeros in classes]


WORKLOADS = {
    "solve-verify": solve_verify_blocks,
    "sweep-probe": sweep_probe_blocks,
    "scalar-bvp": scalar_bvp_blocks,
}


# ------------------------------------------------------------------ gate

def _below(value, tol: float) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value) and value < tol


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def gate(op: Op, exit_code: int, out: Path) -> GateResult:
    """Check one op's exit code and artifacts against the defining
    conditions; a missing or malformed artifact fails the op."""
    if exit_code != 0:
        return GateResult(False, None, f"exit code {exit_code}")
    path = out / ARTIFACTS[op.command]
    try:
        if op.command == "solve":
            res = json.loads(path.read_text())["residuals"]
            bad = [k for k, tol in SOLVE_TOL.items() if not _below(res.get(k), tol)]
            return GateResult(not bad, res.get("jump"),
                              f"residuals over tolerance: {bad}" if bad else "")
        if op.command == "sweep_r":
            rows = _rows(path)
            ladder = op.doc["R_values"]
            tol = op.doc["problem"].get("tol", 1e-12)
            max_iter = op.doc["problem"]["max_iter"]
            if [float(r["R"]) for r in rows] != [float(R) for R in ladder]:
                return GateResult(False, None, "sweep rows do not match the R ladder")
            for r in rows:
                if not (_below(float(r["final_delta"]), tol)
                        and _below(float(r["contraction_ratio"]), 1.0)
                        and int(r["iterations"]) <= max_iter):
                    return GateResult(False, None, f"row R={r['R']} not converged")
            return GateResult(True, max(float(r["jump_residual"]) for r in rows))
        if op.command == "smoothness":
            rows = _rows(path)
            orders = op.doc["smoothness"]["orders"]
            if [int(r["order"]) for r in rows] != orders:
                return GateResult(False, None, "smoothness rows do not match the orders")
            bad = [r["order"] for r in rows
                   if not _below(float(r["rel_change"]), SMOOTHNESS_TOL)]
            return GateResult(not bad, None,
                              f"rel_change over tolerance at orders {bad}" if bad else "")
        if op.command == "scalar_bvp":
            rep = json.loads(path.read_text())
            res = rep["residuals"]
            bad = [k for k, tol in SCALAR_TOL.items() if not _below(res.get(k), tol)]
            if rep["kappa"] != 0:
                bad.append("kappa")
            return GateResult(not bad, res.get("boundary"),
                              f"over tolerance: {bad}" if bad else "")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return GateResult(False, None, f"unreadable artifact: {exc!r}")
    raise ValueError(f"no gate for command {op.command!r}")
