"""Command line driver: configuration ingestion, experiment orchestration
and bit-stable report emission.

Commands: solve, sweep_r, pentagon_table, saddle_check, scalar_bvp,
deform_check, smoothness.  Configurations are JSON; complex numbers are
[re, im] pairs and polynomials coefficient arrays, low order first.  CSV
floats are written with 17 significant digits and JSON floats as their
repr; both round-trip every double, so reruns are byte-identical.
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
from .contour_quadrature import (build_ray_grid, deform_to_bps_ray, in_swept_sector,
                                 integrate_ray, sweep_sign)
from .errors import ConfigError, NoAdmissibleRayError, RHFlowError
from .rh_solver import (SolverConfig, smoothness_probe, solve, solve_batch, verify,
                        verify_batch)
from .saddle_asymptotics import compare, saddle_point
from .scalar_bvp import (ScalarBVProblem, regularizing_factor, solve_scalar_bvp,
                         verify_uniqueness, zero_factor)
from .spectrum_rays import (EPS_ANGLE, CentralCharge, admissible_pair, bps_ray,
                            semiflat)
from .stokes_series import pentagon_coeff

COMMANDS = ("solve", "sweep_r", "pentagon_table", "saddle_check", "scalar_bvp",
            "deform_check", "smoothness")


def fmt(x: float) -> str:
    return format(float(x), ".17g")


def fmt_column(values: np.ndarray) -> list[str]:
    """fmt of every element of a real array, in C order, from one "%" over
    the whole array: "%.17g" % x formats a Python float exactly as
    format(x, ".17g"), and no such string holds whitespace."""
    return (("%.17g\n" * values.size) % tuple(values.ravel().tolist())).split()


def _number(kind, value, where: str):
    """kind(value), with a wrongly typed value reported as a ConfigError.
    A JSON boolean is one for every kind, where kind() would take it as 0
    or 1; for kind int a fractional number is one too, where int() would
    truncate it, while an integral float such as 128.0 is taken."""
    if isinstance(value, bool):
        raise ConfigError(f"{where}: {value!r} is not a number")
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"{where}: {value!r} is not an integer")
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


def _positive(value, where: str) -> float:
    """value as a positive, finite float, or a ConfigError naming where."""
    x = _number(float, value, where)
    if not (x > 0 and math.isfinite(x)):
        raise ConfigError(f"{where}: {x!r} must be positive and finite")
    return x


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

    Solver commands get the support property and the existence of an
    admissible direction validated here (the direction itself is found
    again by each solve), so bad geometry fails before any run."""
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
            try:
                admissible_pair(solver.Z, solver.spectrum, solver.a,
                                split_phase=solver.split_phase)
            except NoAdmissibleRayError as exc:
                raise ConfigError(f"problem: {exc}") from exc
    elif command == "scalar_bvp":
        if "scalar" not in doc:
            raise ConfigError("scalar section is required")
        scalar = _section(doc["scalar"], "scalar")
    return RunConfig(command, solver, scalar, doc, seed)


# ---------------------------------------------------------------- outputs

def _write(path: Path, *texts: str) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.writelines(texts)


def _write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    _write(path, "".join(",".join(row) + "\n" for row in [header, *rows]))


def _write_json(path: Path, payload: dict) -> None:
    """json writes every float as its repr, which round-trips it, so the
    same payload gives the same bytes."""
    _write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _print_error(exc: Exception, **context) -> dict:
    """Print exc's diagnostic, with context, as one JSON line on stderr, and
    return it."""
    diag = {"error": type(exc).__name__, "message": str(exc), **context}
    print(json.dumps(diag, sort_keys=True), file=sys.stderr)
    return diag


# ---------------------------------------------------------------- commands

def _cmd_solve(rc: RunConfig, out: Path) -> None:
    state, report = solve(rc.solver)
    report["residuals"] = verify(state)
    _write_json(out / "report.json", report)
    M = state.problem.M
    # r's rows [s, Re theta1, Im theta1, Re theta2, Im theta2], row-major
    fields = fmt_column(np.column_stack([state.problem.grids[+1].nodes,
                                         np.ascontiguousarray(state.values).view(float)]))
    # -r's values are conj(r[::-1]) exactly, so its row j is s_j, then the
    # fields of r's row M - 1 - j with each imaginary part's sign toggled
    # (signed zeros included: "0" and "-0" swap)
    mirrored = fields[:]
    for k in range(1, 5):
        column = fields[k - 5::-5]  # r's field k, last row first
        mirrored[k::5] = (column if k % 2 else
                          [x[1:] if x[0] == "-" else "-" + x for x in column])
    _write(out / "nodes.csv", "s,ray,re_theta1,im_theta1,re_theta2,im_theta2\n",
           ("%s,r,%s,%s,%s,%s\n" * M) % tuple(fields),
           ("%s,-r,%s,%s,%s,%s\n" * M) % tuple(mirrored))


def _cmd_sweep_r(rc: RunConfig, out: Path) -> None:
    # every rung checked before the first solve
    r_values = [_positive(R, "R_values")
                for R in _list(rc.extras.get("R_values", []), "R_values")]
    if not r_values:
        raise ConfigError("R_values list is required for sweep_r")
    # the rungs as one batch, then checked as one stack; the first rung
    # that fails, in ladder order, raises
    results = solve_batch([dataclasses.replace(rc.solver, R=R) for R in r_values])
    for result in results:
        if isinstance(result, RHFlowError):
            raise result
    rows = []
    for R, (_, report), residuals in zip(r_values, results,
                                         verify_batch([state for state, _ in results])):
        ratio = max(report["ratios"]) if report["ratios"] else 0.0
        rows.append([fmt(R), str(report["iterations"]), fmt(report["deltas"][-1]),
                     fmt(ratio), fmt(residuals["jump"]), fmt(residuals["reality"])])
    _write_csv(out / "sweep.csv",
               ["R", "iterations", "final_delta", "contraction_ratio",
                "jump_residual", "reality_residual"], rows)


def _cmd_pentagon_table(rc: RunConfig, out: Path) -> None:
    order = _number(int, rc.extras.get("table_order", 8), "table_order")
    if order < 1:
        raise ConfigError(f"table_order: {order!r} must be at least 1")
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
    r_values = [_positive(r, "saddle.R_values")
                for r in _list(sd.get("R_values", [4.0, 16.0, 64.0]), "saddle.R_values")]
    if not r_values:
        raise ConfigError("saddle.R_values must not be empty")
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
    R = _positive(dd.get("R", cfg.R), "deform.R")
    r, _ = admissible_pair(cfg.Z, cfg.spectrum, cfg.a, split_phase=cfg.split_phase)
    ell = bps_ray(cfg.Z, gamma, cfg.a)
    angle = ell.angle_to(r)
    if angle <= EPS_ANGLE:
        raise ConfigError(
            f"deform.gamma ({gamma.c1},{gamma.c2}) has its BPS ray on the contour "
            "ray r; there is no sector to deform across")
    if math.cos(angle) <= 0:
        raise ConfigError(
            f"deform.gamma ({gamma.c1},{gamma.c2}) has its BPS ray at a right or "
            "obtuse angle to the contour ray r; its integrand does not decay along r")
    zg = abs(cfg.Z.of(gamma, cfg.a))
    two_pi_R = 2.0 * math.pi * R
    grid_r = build_ray_grid(r, two_pi_R * zg * math.cos(angle), 256, cfg.target_tail)
    grid_e = build_ray_grid(ell, two_pi_R * zg, 256, cfg.target_tail)

    def h(zp: complex) -> complex:
        return semiflat(cfg.Z, gamma, cfg.a, cfg.theta, zp, R)

    # the half-angle of the two phases bisects the short sector or its
    # opposite, depending on which side of the +-pi cut the rays lie
    mid = cmath.exp(0.5j * (r.phase + ell.phase))
    if not in_swept_sector(mid, r, ell):
        mid = -mid
    outside = 0.8 * cmath.exp(1j * (r.phase - sweep_sign(r, ell) * 0.4))
    dens = np.array([h(z) for z in grid_r.points()])
    rows = []
    for label, zeta in (("in_sector", mid), ("outside", outside)):
        lhs, _ = integrate_ray(grid_r, dens, zeta)  # off r: both limits agree
        rhs, crossed = deform_to_bps_ray(zeta, r, grid_e, h)
        if crossed:
            rhs += sweep_sign(r, ell) * 4j * math.pi * h(zeta)
        rows.append([label, fmt(zeta.real), fmt(zeta.imag), str(int(crossed)),
                     fmt(abs(lhs)), fmt(abs(lhs - rhs) / abs(lhs))])
    _write_csv(out / "deform.csv",
               ["case", "re_zeta", "im_zeta", "residue_applied", "abs_integral",
                "rel_deviation"], rows)


def _cmd_smoothness(rc: RunConfig, out: Path) -> None:
    sm = _section(rc.extras.get("smoothness", {}), "smoothness")
    direction = str(sm.get("direction", "theta1"))  # smoothness_probe names a bad one
    orders = _list(sm.get("orders", [1, 2]), "smoothness.orders")
    if not orders or not all(type(o) is int and o in (1, 2, 3) for o in orders):
        raise ConfigError(f"smoothness.orders: {orders!r} is not a non-empty list of "
                          "the integers 1, 2 or 3")
    step = _positive(sm.get("step", 1e-2), "smoothness.step")
    try:  # the probe divides by step**order, extreme at the highest order
        normal = step ** max(orders) >= sys.float_info.min
    except OverflowError:
        normal = False
    if not normal:
        raise ConfigError(f"smoothness.step: {step!r}**{max(orders)} is not a positive "
                          "normal float")
    rows = [[direction, str(probe["order"]), fmt(step), fmt(probe["sup"]),
             fmt(probe["rel_change"])]
            for probe in smoothness_probe(rc.solver, direction, orders, step)]
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
        eta0 = _required(jump, "eta0", "scalar.jump")
        eta0 = (_complex(eta0, "scalar.jump.eta0") if isinstance(eta0, list)
                else _number(complex, eta0, "scalar.jump.eta0"))
        amp = _complex(jump.get("bump", [0.3, 0.1]), "scalar.jump.bump")
        probe = ScalarBVProblem(phase, lambda t: 1.0, (1, 1, 1, 1),
                                zeros=zeros, zeta0=zeta0)

        def G(t):
            with np.errstate(divide="ignore"):  # t = 0: the bump is 0 there
                s = np.log(np.abs(t))
            zeta = probe.contour_point(t)
            return (np.exp(amp * np.exp(-0.5 * s * s)) * zero_factor(probe, zeta)
                    / regularizing_factor(probe, eta0, zeta))

        # where G is its limit to rounding (an eta_0 off by e drifts log G1 by e log|t|)
        g0m, g0p = G(np.array([-1e-300, 1e-300])).tolist()
        limits = (g0m, g0p, 1.0 + 0j, cmath.exp(2j * math.pi * eta0))
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
        vals_a = np.array(vals)[order]

        def G(t):
            return np.interp(t, ts_a, vals_a)

        limits = tuple(_complex(v, "scalar.limits")
                       for v in _list(_required(section, "limits", "scalar"),
                                      "scalar.limits"))
        return ScalarBVProblem(phase, G, limits, zeros=zeros, zeta0=zeta0)
    raise ConfigError(f"scalar.jump.kind {kind!r} not recognized")


def _cmd_scalar_bvp(rc: RunConfig, out: Path) -> None:
    section = rc.scalar
    problem = _scalar_problem(section)
    half_width = _positive(section.get("half_width", 7.0), "scalar.half_width")
    M = _number(int, section.get("M", 512), "scalar.M")
    if M < 16:
        raise ConfigError("scalar.M must be >= 16")
    n = _number(int, section.get("samples", 200), "scalar.samples")
    if n < 2:
        raise ConfigError("scalar.samples must be >= 2")
    alt = section.get("zeta0_alt")
    if alt is not None:
        alt = _complex(alt, "scalar.zeta0_alt")
        if not problem.in_upper(alt):
            raise ConfigError("scalar.zeta0_alt must lie strictly inside D+")
    sol = solve_scalar_bvp(problem, half_width=half_width, M=M)
    rng = np.random.default_rng(rc.seed)
    ts = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), size=n // 2))
    ts = np.concatenate([ts, -ts])
    # the zeros' line coordinates: alpha = t e^{i line_phase}
    unturn = cmath.exp(-1j * problem.line_phase)
    at = np.array([(alpha * unturn).real for alpha, _ in problem.zeros], dtype=float)
    ts = ts[np.all(np.abs(ts[:, None] - at) > 1e-2, axis=1)]
    residual = sol.boundary_residual(ts)
    payload = {
        "eta0": [sol.eta0.real, sol.eta0.imag],
        "kappa": sol.kappa,
        "residuals": {"boundary": residual},
    }
    if alt is not None:
        payload["residuals"]["uniqueness"] = verify_uniqueness(problem, alt)
    _write_json(out / "scalar_report.json", payload)


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
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file in its place or on its path
        _print_error(exc)
        return 1
    try:
        _RUNNERS[rc.command](rc, out)
    except RHFlowError as exc:
        _write_json(out / "error.json", _print_error(exc, command=rc.command))
        return 1 if isinstance(exc, ConfigError) else 2
    return 0


_PARSER = argparse.ArgumentParser(
    prog="rhflow",
    description="Riemann-Hilbert fixed-point solver and diagnostics",
)
_PARSER.add_argument("command", choices=COMMANDS)
_PARSER.add_argument("--config", required=True, help="path to a JSON config")
_PARSER.add_argument("--out", required=True, help="output directory")
_PARSER.add_argument("--seed", type=int, default=0,
                     help="seed for sampled diagnostic points")


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        text = Path(args.config).read_text(encoding="utf-8")
        rc = load_config(text, args.command, seed=args.seed)
    except (OSError, ConfigError) as exc:
        _print_error(exc)
        return 1
    return run(rc, args.out)


if __name__ == "__main__":
    sys.exit(main())
