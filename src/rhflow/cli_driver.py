"""Command line driver: configuration ingestion, experiment orchestration
and bit-stable report emission.

Commands: solve, sweep_r, pentagon_table, saddle_check, scalar_bvp,
deform_check, smoothness.  Configurations are JSON; complex numbers are
[re, im] pairs and polynomials coefficient arrays, low order first.  All
floating-point output is written with 17 significant digits so reruns are
byte-identical.
"""

from __future__ import annotations

import argparse
import cmath
import dataclasses
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .charge_lattice import Charge, Spectrum, require_support
from .contour_quadrature import build_ray_grid, integrate_ray, sweep_sign
from .errors import ConfigError, RHFlowError
from .rh_solver import SolverConfig, smoothness_probe, solve
from .saddle_asymptotics import compare, saddle_point
from .scalar_bvp import (ScalarBVProblem, regularizing_factor, solve_scalar_bvp,
                         verify_uniqueness, zero_factor)
from .spectrum_rays import CentralCharge, admissible_pair, bps_ray, semiflat
from .stokes_series import pentagon_coeff

COMMANDS = ("solve", "sweep_r", "pentagon_table", "saddle_check", "scalar_bvp",
            "deform_check", "smoothness")


def fmt(x: float) -> str:
    return format(float(x), ".17g")


def _number(kind, value, where: str):
    """kind(value), with a wrongly typed value reported as a ConfigError."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _complex(value, where: str) -> complex:
    if not (isinstance(value, (list, tuple)) and len(value) == 2):
        raise ConfigError(f"{where}: complex numbers are [re, im] pairs")
    return complex(_number(float, value[0], where), _number(float, value[1], where))


def _poly(values, where: str) -> tuple[complex, ...]:
    if not isinstance(values, list) or not values:
        raise ConfigError(f"{where}: polynomial coefficient list required")
    return tuple(_complex(v, where) for v in values)


@dataclass(frozen=True)
class RunConfig:
    command: str
    solver: SolverConfig | None
    scalar: dict | None
    extras: dict
    seed: int = 0


def _required(section, key: str, where: str):
    if not isinstance(section, dict) or key not in section:
        raise ConfigError(f"{where}.{key} is required")
    return section[key]


def _section(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be an object")
    return value


def _list(value, where: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{where} must be a list")
    return value


def _charge(value, where: str) -> Charge:
    if not (isinstance(value, list) and len(value) == 2):
        raise ConfigError(f"{where}: charges are [c1, c2] pairs")
    return Charge(_number(int, value[0], where), _number(int, value[1], where))


def _parse_solver(problem: dict) -> SolverConfig:
    for key in ("R", "theta", "spectrum", "Z"):
        _required(problem, key, "problem")
    spec_d = _section(problem["spectrum"], "problem.spectrum")
    entries = []
    where = "problem.spectrum.entries"
    for item in _list(spec_d.get("entries", []), where):
        try:
            (c1, c2), om = item
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{where}: {item!r} is not [[c1, c2], multiplicity]") from exc
        entries.append(((_number(int, c1, where), _number(int, c2, where)),
                        _number(int, om, where)))
    try:
        spectrum = Spectrum.from_pairs(
            entries, _number(float, spec_d.get("support_constant", 0.0),
                             "problem.spectrum.support_constant"))
    except ValueError as exc:
        raise ConfigError(f"problem.spectrum: {exc}") from exc
    zd = problem["Z"]
    Z = CentralCharge(_poly(_required(zd, "z1", "problem.Z"), "problem.Z.z1"),
                      _poly(_required(zd, "z2", "problem.Z"), "problem.Z.z2"))
    theta = problem["theta"]
    if not (isinstance(theta, list) and len(theta) == 2):
        raise ConfigError("problem.theta must be a pair of angles")

    def number(kind, key, default=None):
        return _number(kind, problem.get(key, default), f"problem.{key}")

    cfg = SolverConfig(
        R=number(float, "R"),
        a=_complex(problem.get("a", [0.0, 0.0]), "problem.a"),
        theta=(_number(float, theta[0], "problem.theta"),
               _number(float, theta[1], "problem.theta")),
        spectrum=spectrum,
        Z=Z,
        N=number(int, "N", 8),
        M=number(int, "M", 128),
        target_tail=number(float, "target_tail", 40.0),
        tol=number(float, "tol", 1e-12),
        max_iter=number(int, "max_iter", 30),
        ball_epsilon=number(float, "ball_epsilon", 0.5),
        split_phase=(None if problem.get("split_phase") is None
                     else number(float, "split_phase")),
    )
    cfg.validate()
    return cfg


def load_config(text: str, command: str, seed: int = 0) -> RunConfig:
    """Parse and validate a configuration document for one command.

    Solver commands get the support property checked and the admissible
    direction precomputed here, so bad geometry fails before any run."""
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root must be an object")

    solver = None
    scalar = None
    if command in ("solve", "sweep_r", "saddle_check", "deform_check", "smoothness"):
        if "problem" not in doc:
            raise ConfigError("problem section is required")
        solver = _parse_solver(_section(doc["problem"], "problem"))
        require_support(solver.spectrum, solver.Z, solver.a)
        if solver.spectrum.active():
            admissible_pair(solver.Z, solver.spectrum, solver.a,
                            split_phase=solver.split_phase)
    elif command == "scalar_bvp":
        if "scalar" not in doc:
            raise ConfigError("scalar section is required")
        scalar = _section(doc["scalar"], "scalar")
    return RunConfig(command, solver, scalar, doc, seed)


# ---------------------------------------------------------------- outputs

def _write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _round_floats(obj):
    if isinstance(obj, float):
        return float(fmt(obj))
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_round_floats(v) for v in obj]
    return obj


# ---------------------------------------------------------------- commands

def _cmd_solve(rc: RunConfig, out: Path) -> None:
    state, report = solve(rc.solver)
    _write_json(out / "report.json", _round_floats(report))
    grid = state.problem.grids[+1]
    rows = []
    for ray_idx, label in ((0, "r"), (1, "-r")):
        for i, s in enumerate(grid.nodes):
            v = state.values[ray_idx, i]
            rows.append([fmt(s), label, fmt(v[0].real), fmt(v[0].imag),
                         fmt(v[1].real), fmt(v[1].imag)])
    _write_csv(out / "nodes.csv",
               ["s", "ray", "re_theta1", "im_theta1", "re_theta2", "im_theta2"],
               rows)


def _cmd_sweep_r(rc: RunConfig, out: Path) -> None:
    r_values = [_number(float, R, "R_values")
                for R in _list(rc.extras.get("R_values", []), "R_values")]
    if not r_values:
        raise ConfigError("R_values list is required for sweep_r")
    rows = []
    for R in r_values:
        _, report = solve(dataclasses.replace(rc.solver, R=R))
        ratio = max(report["ratios"]) if report["ratios"] else 0.0
        rows.append([fmt(R), str(report["iterations"]), fmt(report["deltas"][-1]),
                     fmt(ratio), fmt(report["residuals"]["jump"]),
                     fmt(report["residuals"]["reality"])])
    _write_csv(out / "sweep.csv",
               ["R", "iterations", "final_delta", "contraction_ratio",
                "jump_residual", "reality_residual"], rows)


def _cmd_pentagon_table(rc: RunConfig, out: Path) -> None:
    order = _number(int, rc.extras.get("table_order", 8), "table_order")
    rows = []
    for side in (1, -1):
        for k in (1, 2):
            for i in range(-order, order + 1):
                for j in range(-order, order + 1):
                    if (i, j) == (0, 0) or abs(i) + abs(j) > order:
                        continue
                    positive = i > 0 or (i == 0 and j > 0)
                    if (side > 0) != positive:
                        continue
                    val = pentagon_coeff(i, j, k)
                    if val == 0:
                        continue
                    rows.append([str(i), str(j), str(side), str(k),
                                 str(val.numerator), str(val.denominator)])
    _write_csv(out / "pentagon_coeffs.csv",
               ["c1", "c2", "side", "k", "numerator", "denominator"], rows)


def _cmd_saddle_check(rc: RunConfig, out: Path) -> None:
    sd = _section(rc.extras.get("saddle", {}), "saddle")
    gamma = _charge(sd.get("gamma", [1, 0]), "saddle.gamma")
    r_values = [_number(float, r, "saddle.R_values")
                for r in _list(sd.get("R_values", [4.0, 16.0, 64.0]), "saddle.R_values")]
    cfg = rc.solver
    z0 = saddle_point(cfg.Z.of(gamma, cfg.a))
    factor = _complex(sd.get("zeta_factor", [2.0, 0.0]), "saddle.zeta_factor")
    reports = compare(factor * z0, gamma, cfg.Z, cfg.a, cfg.theta, r_values,
                      M=cfg.M, target_tail=cfg.target_tail)
    rows = [[fmt(r.R), fmt(r.rel_error), fmt(abs(r.numeric)), fmt(abs(r.leading))]
            for r in reports]
    _write_csv(out / "saddle.csv", ["R", "rel_error", "abs_numeric", "abs_leading"],
               rows)


def _cmd_deform_check(rc: RunConfig, out: Path) -> None:
    dd = _section(rc.extras.get("deform", {}), "deform")
    gamma = _charge(dd.get("gamma", [0, 1]), "deform.gamma")
    cfg = rc.solver
    R = _number(float, dd.get("R", cfg.R), "deform.R")
    r, _ = admissible_pair(cfg.Z, cfg.spectrum, cfg.a, split_phase=cfg.split_phase)
    ell = bps_ray(cfg.Z, gamma, cfg.a)
    zg = abs(cfg.Z.of(gamma, cfg.a))
    two_pi_R = 2.0 * math.pi * R
    grid_r = build_ray_grid(r, two_pi_R * zg * math.cos(ell.angle_to(r)), 256,
                            cfg.target_tail)
    grid_e = build_ray_grid(ell, two_pi_R * zg, 256, cfg.target_tail)

    def h(zp: complex) -> complex:
        return semiflat(cfg.Z, gamma, cfg.a, cfg.theta, zp, R)

    mid = cmath.exp(0.5j * (r.phase + ell.phase))
    outside = 0.8 * cmath.exp(1j * (r.phase - sweep_sign(r, ell) * 0.4))
    rows = []
    for label, zeta in (("in_sector", mid), ("outside", outside)):
        dens = np.array([h(z) for z in grid_r.points()])
        lhs = integrate_ray(grid_r, dens, zeta, side="off")
        dens_e = np.array([h(z) for z in grid_e.points()])
        rhs0 = integrate_ray(grid_e, dens_e, zeta, side="off")
        crossed = label == "in_sector"
        rhs = rhs0 + (sweep_sign(r, ell) * 4j * math.pi * h(zeta) if crossed else 0)
        rows.append([label, fmt(zeta.real), fmt(zeta.imag), str(int(crossed)),
                     fmt(abs(lhs)), fmt(abs(lhs - rhs) / abs(lhs))])
    _write_csv(out / "deform.csv",
               ["case", "re_zeta", "im_zeta", "residue_applied", "abs_integral",
                "rel_deviation"], rows)


def _cmd_smoothness(rc: RunConfig, out: Path) -> None:
    sm = _section(rc.extras.get("smoothness", {}), "smoothness")
    direction = str(sm.get("direction", "theta1"))  # smoothness_probe names a bad one
    orders = [_number(int, o, "smoothness.orders")
              for o in _list(sm.get("orders", [1, 2]), "smoothness.orders")]
    step = _number(float, sm.get("step", 1e-2), "smoothness.step")
    rows = []
    solutions: dict = {}  # stencil points shared by the orders
    for order in orders:
        probe = smoothness_probe(rc.solver, direction, order, step,
                                 solutions=solutions)
        rows.append([direction, str(order), fmt(step), fmt(probe["sup"]),
                     fmt(probe["rel_change"])])
    _write_csv(out / "smoothness.csv",
               ["direction", "order", "step", "sup_derivative", "rel_change"], rows)


def _scalar_problem(section: dict) -> ScalarBVProblem:
    jump = _section(section.get("jump", {}), "scalar.jump")
    kind = jump.get("kind", "manufactured")
    zeros = []
    for item in _list(section.get("zeros", []), "scalar.zeros"):
        if not (isinstance(item, (list, tuple)) and len(item) == 2):
            raise ConfigError(f"scalar.zeros: {item!r} is not [[re, im], order]")
        zeros.append((_complex(item[0], "scalar.zeros"),
                      _number(int, item[1], "scalar.zeros")))
    zeros = tuple(zeros)
    phase = _number(float, section.get("line_phase", 0.0), "scalar.line_phase")
    zeta0 = _complex(section.get("zeta0", [0.0, 1.5]), "scalar.zeta0")
    if kind == "manufactured":
        eta0 = _number(complex, _required(jump, "eta0", "scalar.jump"),
                       "scalar.jump.eta0")
        amp = _complex(jump.get("bump", [0.3, 0.1]), "scalar.jump.bump")
        probe = ScalarBVProblem(phase, lambda t: 1.0, (1, 1, 1, 1),
                                zeros=zeros, zeta0=zeta0)

        def smooth(t: float) -> complex:
            if t == 0:
                return 0j
            s = math.log(abs(t))
            return amp * math.exp(-0.5 * s * s)

        def G(t: float) -> complex:
            zeta = probe.contour_point(t)
            return (cmath.exp(smooth(t)) * zero_factor(probe, zeta)
                    / regularizing_factor(probe, eta0, zeta))

        eps = 1e-9
        limits = (G(-eps), G(eps), 1.0 + 0j, cmath.exp(2j * math.pi * eta0))
        return ScalarBVProblem(phase, G, limits, zeros=zeros, zeta0=zeta0)
    if kind == "sampled":
        ts = [_number(float, t, "scalar.jump.t")
              for t in _list(_required(jump, "t", "scalar.jump"), "scalar.jump.t")]
        vals = [_complex(v, "scalar.jump.values")
                for v in _list(_required(jump, "values", "scalar.jump"),
                               "scalar.jump.values")]
        if len(ts) != len(vals) or len(ts) < 4:
            raise ConfigError("scalar.jump: matching t/values lists required")
        order = np.argsort(ts)
        ts_a = np.array(ts)[order]
        re = np.array([v.real for v in vals])[order]
        im = np.array([v.imag for v in vals])[order]

        def G(t: float) -> complex:
            return complex(np.interp(t, ts_a, re), np.interp(t, ts_a, im))

        limits = tuple(_complex(v, "scalar.limits")
                       for v in _list(_required(section, "limits", "scalar"),
                                      "scalar.limits"))
        return ScalarBVProblem(phase, G, limits, zeros=zeros, zeta0=zeta0)
    raise ConfigError(f"scalar.jump.kind {kind!r} not recognized")


def _cmd_scalar_bvp(rc: RunConfig, out: Path) -> None:
    section = rc.scalar
    problem = _scalar_problem(section)
    half_width = _number(float, section.get("half_width", 7.0), "scalar.half_width")
    M = _number(int, section.get("M", 512), "scalar.M")
    sol = solve_scalar_bvp(problem, half_width=half_width, M=M)
    n = _number(int, section.get("samples", 200), "scalar.samples")
    rng = np.random.default_rng(rc.seed)
    ts = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), size=n // 2))
    ts = np.concatenate([ts, -ts])
    ts = np.array([t for t in ts
                   if all(abs(t - alpha.real) > 1e-2 for alpha, _ in problem.zeros)])
    residual = sol.boundary_residual(ts)
    payload = {
        "eta0": [sol.eta0.real, sol.eta0.imag],
        "kappa": sol.kappa,
        "residuals": {"boundary": residual},
    }
    alt = section.get("zeta0_alt")
    if alt is not None:
        payload["residuals"]["uniqueness"] = verify_uniqueness(
            problem, _complex(alt, "scalar.zeta0_alt"))
    _write_json(out / "scalar_report.json", _round_floats(payload))


_RUNNERS = {
    "solve": _cmd_solve,
    "sweep_r": _cmd_sweep_r,
    "pentagon_table": _cmd_pentagon_table,
    "saddle_check": _cmd_saddle_check,
    "scalar_bvp": _cmd_scalar_bvp,
    "deform_check": _cmd_deform_check,
    "smoothness": _cmd_smoothness,
}


def run(rc: RunConfig, out_dir: str) -> int:
    """Execute a validated configuration; 0 on success, 1 on a configuration
    error found during the run, 2 on numerical failure.  Artifacts are
    deterministic for identical config and seed."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        _RUNNERS[rc.command](rc, out)
    except RHFlowError as exc:
        diag = {"error": type(exc).__name__, "message": str(exc),
                "command": rc.command}
        _write_json(out / "error.json", diag)
        print(json.dumps(diag, sort_keys=True), file=sys.stderr)
        return 1 if isinstance(exc, ConfigError) else 2
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rhflow",
        description="Riemann-Hilbert fixed-point solver and diagnostics",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="path to a JSON config")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for sampled diagnostic points")
    args = parser.parse_args(argv)
    try:
        text = Path(args.config).read_text(encoding="utf-8")
        rc = load_config(text, args.command, seed=args.seed)
    except (OSError, ConfigError) as exc:
        diag = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(diag, sort_keys=True), file=sys.stderr)
        return 1
    return run(rc, args.out)


if __name__ == "__main__":
    sys.exit(main())
