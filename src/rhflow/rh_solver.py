"""Fixed-point solver for the nonlinear Riemann-Hilbert problem.

The unknown is the pair of corrected angles Theta = (Theta_1, Theta_2)
sampled on the two contour rays.  One iteration evaluates

    Theta_k <- theta_k - (1/4pi) * [ sum_{g > 0} f_g^k I_r[X^sf_g(Theta)]
                                   + sum_{g < 0} f_g^k I_{-r}[X^sf_g(Theta)] ]

with the coefficient families f from the exact log expansion of the side
jump maps.  Stored node values are the boundary values from the clockwise
side of each outward-oriented ray; with that convention the counterclockwise
limit satisfies the multiplicative jump exactly, which is what check_jump
verifies.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .charge_lattice import Charge, GAMMA1, GAMMA2, Spectrum, require_support
from .contour_quadrature import (build_ray_grid, integrate_ray, on_covered_ray,
                                 pv_coth_closed_form, _derivative_rows)
from .errors import (ConfigError, DivergenceError, NonContractionError,
                     TruncationUnsafeError)
from .spectrum_rays import CentralCharge, RayDirection, admissible_pair, bps_ray
from .stokes_series import stokes_log_coeffs

FOUR_PI = 4.0 * math.pi
LN2 = math.log(2.0)


@dataclass(frozen=True)
class SolverConfig:
    R: float
    a: complex
    theta: tuple[float, float]
    spectrum: Spectrum
    Z: CentralCharge
    N: int = 8
    M: int = 128
    target_tail: float = 40.0
    tol: float = 1e-12
    max_iter: int = 30
    ball_epsilon: float = 0.5
    split_phase: float | None = None

    def validate(self) -> None:
        if not (self.R > 0 and math.isfinite(self.R)):
            raise ConfigError("R must be positive and finite")
        if self.tol <= 0:
            raise ConfigError("tol must be positive")
        if self.N < 1:
            raise ConfigError("series order N must be >= 1")
        if self.M < 16 or self.M % 2:
            raise ConfigError("node count M must be even and >= 16")
        if self.max_iter < 2:
            raise ConfigError("max_iter must allow at least two iterations")
        if not (0 < self.ball_epsilon <= LN2):
            raise ConfigError(
                "ball_epsilon must lie in (0, ln 2] so that |e^{i Theta}| <= 2 "
                "on the ball"
            )
        for t in self.theta:
            if not math.isfinite(t):
                raise ConfigError("theta components must be finite")


def _static_exponents(cfg: SolverConfig, zg: complex | np.ndarray,
                      pts: complex | np.ndarray) -> np.ndarray:
    """pi R (Z_g / zeta' + zeta' conj Z_g) for central charge values zg at
    the points pts (broadcast against each other)."""
    return math.pi * cfg.R * (zg / pts + pts * np.conj(zg))


class _Prepared:
    """Grids, coefficient families and kernel matrices for one configuration."""

    def __init__(self, cfg: SolverConfig):
        cfg.validate()
        require_support(cfg.spectrum, cfg.Z, cfg.a)
        self.cfg = cfg
        self.r, self.classification = admissible_pair(
            cfg.Z, cfg.spectrum, cfg.a, split_phase=cfg.split_phase)
        self.rays = {+1: self.r, -1: self.r.opposite()}

        # coefficient families f per side and basis target
        self.f: dict[int, list[tuple[Charge, complex, complex]]] = {}
        for side in (+1, -1):
            f1 = stokes_log_coeffs(cfg.spectrum, cfg.Z, cfg.a, side, 1, cfg.N, self.r)
            f2 = stokes_log_coeffs(cfg.spectrum, cfg.Z, cfg.a, side, 2, cfg.N, self.r)
            support = sorted(set(f1) | set(f2), key=lambda g: (g.l1, g.c1, g.c2))
            self.f[side] = [(g, complex(f1.get(g, 0)), complex(f2.get(g, 0)))
                            for g in support]

        # one symmetric node set for both rays: slowest decay over both sides
        decay = math.inf
        for side in (+1, -1):
            ray = self.rays[side]
            for g, _, _ in self.f[side]:
                ang = bps_ray(cfg.Z, g, cfg.a).angle_to(ray)
                decay = min(decay,
                            2.0 * math.pi * cfg.R * abs(cfg.Z.of(g, cfg.a)) * math.cos(ang))
        if not math.isfinite(decay):  # empty spectrum: any width will do
            zs = [abs(z) for z in cfg.Z.basis_values(cfg.a)]
            decay = 2.0 * math.pi * cfg.R * min(z for z in zs if z > 0)
        self.grids = {side: build_ray_grid(self.rays[side], decay, cfg.M,
                                           cfg.target_tail)
                      for side in (+1, -1)}

        # static exponents on each side's grid, one row per charge of self.f
        self.static: dict[int, np.ndarray] = {}
        self.central: dict[int, np.ndarray] = {}
        self.coords: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = {}
        for side in (+1, -1):
            charges = self.f[side]
            self.central[side] = np.array([cfg.Z.of(g, cfg.a) for g, _, _ in charges],
                                          dtype=complex)
            self.static[side] = _static_exponents(cfg, self.central[side][:, None],
                                                  self.grids[side].points())
            c1 = np.array([g.c1 for g, _, _ in charges], dtype=float)
            c2 = np.array([g.c2 for g, _, _ in charges], dtype=float)
            fk1 = np.array([v1 for _, v1, _ in charges], dtype=complex)
            fk2 = np.array([v2 for _, _, v2 in charges], dtype=complex)
            self.coords[side] = (c1, c2, fk1, fk2)

        # basis-charge exponents on both grids, for Y evaluation and jump checks
        self.basis_central = np.array([cfg.Z.of(g, cfg.a) for g in (GAMMA1, GAMMA2)])
        self.basis_static = {side: _static_exponents(cfg, self.basis_central[:, None],
                                                     self.grids[side].points())
                             for side in (+1, -1)}

        # kernel machinery shared by both rays (same node set)
        g0 = self.grids[+1]
        s, w, step, L, M = g0.nodes, g0.weights, g0.step, g0.half_width, cfg.M
        diff = s[None, :] - s[:, None]
        with np.errstate(divide="ignore"):
            coth = 1.0 / np.tanh(0.5 * diff)
        np.fill_diagonal(coth, 0.0)
        self.c_same = w[None, :] * coth
        self.row_sum = self.c_same.sum(axis=1)
        self.c_cross = w[None, :] * np.tanh(0.5 * diff)
        self.pv_vec = np.array([pv_coth_closed_form(L, si, step) for si in s])
        self.fd = _derivative_rows(M, np.arange(M), step)
        self.weights = w

    def densities(self, values: np.ndarray) -> dict[int, np.ndarray]:
        """Combined density per side and target, shape (M, 2), from the node
        values of Theta (shape (2, M, 2); axis 0 is the ray: 0 -> r, 1 -> -r)."""
        return {side: self.series(side, self.static[side], values[ray_idx])
                for side, ray_idx in ((+1, 0), (-1, 1))}

    def series(self, side: int, static: np.ndarray, th: np.ndarray) -> np.ndarray:
        """Jump series exponent sum_g f_g^k X_g of one side per target k,
        shape (P, 2), from the static exponents of the side's charges at P
        points (shape (K, P)) and the angles Theta there (shape (P, 2))."""
        c1, c2, f1, f2 = self.coords[side]
        with np.errstate(over="ignore", invalid="ignore"):
            # overflow here means a diverging iterate; the caller checks
            expo = np.exp(static + 1j * (c1[:, None] * th[None, :, 0]
                                         + c2[:, None] * th[None, :, 1]))
            out = np.empty((static.shape[1], 2), dtype=complex)
            out[:, 0] = f1 @ expo
            out[:, 1] = f2 @ expo
        return out

    def boundary_op(self, dens: np.ndarray, sign: int) -> np.ndarray:
        """Boundary value of the ray integral at the ray's own nodes;
        sign +1 gives the counterclockwise limit, -1 the clockwise one."""
        pv = (self.c_same @ dens - self.row_sum[:, None] * dens
              + 2.0 * self.weights[:, None] * (self.fd @ dens)
              + self.pv_vec[:, None] * dens)
        return pv + sign * 2j * math.pi * dens

    def cross_op(self, dens: np.ndarray) -> np.ndarray:
        return self.c_cross @ dens


@dataclass
class ThetaState:
    """Node values of the corrected angles on both contour rays.

    values[0] holds the r ray, values[1] the opposite ray; the last axis is
    the basis index.  Stored values are clockwise-side boundary values.  The
    combined densities are computed from values on first use and kept, so
    values must not be changed in place.
    """

    values: np.ndarray
    problem: _Prepared = field(repr=False, compare=False)
    nu: int = 0
    last_delta: float = math.inf
    ball_exits: list[int] = field(default_factory=list)

    @functools.cached_property
    def densities(self) -> dict[int, np.ndarray]:
        return self.problem.densities(self.values)


def _problem(state: ThetaState, cfg: SolverConfig) -> _Prepared:
    """The state's prepared problem; cfg must be the configuration it was
    built from."""
    prep = state.problem
    if cfg is not prep.cfg and cfg != prep.cfg:
        raise ValueError("cfg is not the configuration this state was built for")
    return prep


def init_state(cfg: SolverConfig) -> ThetaState:
    """Zeroth iterate: Theta identically equal to the reference angles."""
    prep = _Prepared(cfg)
    values = np.zeros((2, cfg.M, 2), dtype=complex)
    values[..., 0] = cfg.theta[0]
    values[..., 1] = cfg.theta[1]
    return ThetaState(values, prep)


def iterate_once(state: ThetaState, cfg: SolverConfig) -> ThetaState:
    """One application of the integral-equation map to the node values."""
    prep = _problem(state, cfg)
    dens = state.densities
    new = np.empty_like(state.values)
    theta_vec = np.array(cfg.theta, dtype=complex)

    same_plus = prep.boundary_op(dens[+1], sign=-1)   # stored side of r
    same_minus = prep.boundary_op(dens[-1], sign=-1)  # stored side of -r
    cross_to_r = prep.cross_op(dens[-1])
    cross_to_mr = prep.cross_op(dens[+1])

    new[0] = theta_vec[None, :] - (same_plus + cross_to_r) / FOUR_PI
    new[1] = theta_vec[None, :] - (cross_to_mr + same_minus) / FOUR_PI

    if not np.all(np.isfinite(new)):
        raise DivergenceError(
            f"non-finite iterate at step {state.nu + 1}; R = {cfg.R:g} is too "
            "small for this spectrum"
        )
    delta = float(np.max(np.abs(new - state.values)))
    ball = float(np.max(np.abs(new - theta_vec[None, None, :])))
    exits = list(state.ball_exits)
    if ball > cfg.ball_epsilon:
        exits.append(state.nu + 1)
    return ThetaState(new, prep, nu=state.nu + 1, last_delta=delta,
                      ball_exits=exits)


def solve(cfg: SolverConfig) -> tuple[ThetaState, dict]:
    """Iterate to the fixed point and assemble the run report.

    At least two iterations always run so that a contraction ratio is
    observed; convergence requires the final ratio below one.
    """
    state = init_state(cfg)
    deltas: list[float] = []
    while state.nu < cfg.max_iter:
        state = iterate_once(state, cfg)
        deltas.append(state.last_delta)
        if state.nu >= 2 and state.last_delta < cfg.tol:
            break
    ratios = [d2 / d1 if d1 > 0 else 0.0 for d1, d2 in zip(deltas, deltas[1:])]
    converged = state.last_delta < cfg.tol
    if not converged:
        bad = max(ratios[1:] or ratios or [math.inf])
        raise NonContractionError(
            f"no convergence in {cfg.max_iter} iterations "
            f"(last delta {state.last_delta:.3e}, worst ratio {bad:.3g}); "
            f"R = {cfg.R:g} is too small for this spectrum"
        )
    theta0 = asymptotic_theta(state, cfg, at=0)
    thetainf = asymptotic_theta(state, cfg, at=math.inf)
    report = {
        "config": {
            "R": cfg.R, "a": [cfg.a.real, cfg.a.imag], "theta": list(cfg.theta),
            "N": cfg.N, "M": cfg.M, "target_tail": cfg.target_tail,
            "tol": cfg.tol, "max_iter": cfg.max_iter,
            "ball_epsilon": cfg.ball_epsilon,
            "contour_phase": state.problem.r.phase,
        },
        "iterations": state.nu,
        "deltas": deltas,
        "ratios": ratios,
        "ball_exits": state.ball_exits,
        "residuals": {
            "jump": check_jump(state, cfg),
            "reality": check_reality(state, cfg),
            "asymptotic_real": max(abs((theta0[k] - cfg.theta[k]).real) for k in (0, 1)),
            "asymptotic_conj": max(abs(theta0[k] - thetainf[k].conjugate()) for k in (0, 1)),
        },
        "theta0": [[t.real, t.imag] for t in theta0],
        "thetainf": [[t.real, t.imag] for t in thetainf],
    }
    return state, report


def evaluate_theta(state: ThetaState, cfg: SolverConfig, zeta,
                   side: str = "auto") -> tuple:
    """Theta at one point or at a 1-D array of points via the integral
    representation; returns the pair (Theta_1, Theta_2) of complex numbers
    or of arrays.

    On a contour ray, side "plus"/"minus" selects the boundary value;
    "auto" returns the stored (clockwise) side there.
    """
    prep = _problem(state, cfg)
    dens = state.densities
    z = np.asarray(zeta, dtype=complex)
    zs = np.atleast_1d(z)
    acc = np.zeros((2, len(zs)), dtype=complex)
    for s in (+1, -1):
        grid = prep.grids[s]
        on = on_covered_ray(grid, zs)
        for k in (0, 1):
            d = dens[s][:, k]
            acc[k, on] += integrate_ray(grid, d, zs[on],
                                        side="minus" if side == "auto" else side)
            acc[k, ~on] += integrate_ray(grid, d, zs[~on], side="off")
    out = np.array(cfg.theta)[:, None] - acc / FOUR_PI
    if z.ndim:
        return out[0], out[1]
    return complex(out[0, 0]), complex(out[1, 0])


def evaluate_Y(state: ThetaState, cfg: SolverConfig, g: Charge, zeta: complex,
               side: str = "auto") -> complex:
    """Solution function for one charge: the semiflat exponential with the
    corrected angles at zeta."""
    if zeta == 0:
        raise ValueError("use asymptotic_theta for the limits at 0 and infinity")
    th1, th2 = evaluate_theta(state, cfg, zeta, side=side)
    thg = g.c1 * th1 + g.c2 * th2
    return complex(np.exp(_static_exponents(cfg, cfg.Z.of(g, cfg.a), zeta) + 1j * thg))


def check_jump(state: ThetaState, cfg: SolverConfig) -> float:
    """Sup relative residual of the multiplicative jump on both rays.

    The counterclockwise boundary values must equal the side's jump map
    applied to the clockwise values: Y+ = Y- * exp(sum_g f_g Y_g^-).  The
    check runs at the nodes and at the midpoints between them; at a node
    the discrete representation satisfies the jump by construction, while
    a midpoint compares the interpolated boundary transform against the
    jump series evaluated on the there-computed solution, so quadrature
    and interpolation error stay visible.
    """
    prep = _problem(state, cfg)
    dens = state.densities
    theta_vec = np.array(cfg.theta, dtype=complex)
    worst = 0.0
    for s, ray_idx in ((+1, 0), (-1, 1)):
        other = -s
        # magnitude guard for the side's own active charges: the jump series
        # across this ray needs |Y_g| < 1 there
        for g, om in cfg.spectrum.active():
            if prep.classification.get(g) != s:
                continue
            stat = _static_exponents(cfg, cfg.Z.of(g, cfg.a), prep.grids[s].points())
            thg = g.c1 * state.values[ray_idx, :, 0] + g.c2 * state.values[ray_idx, :, 1]
            mags = np.abs(np.exp(stat + 1j * thg))
            if np.any(mags >= 1.0):
                raise TruncationUnsafeError(
                    f"|Y| = {mags.max():.3g} >= 1 for charge ({g.c1},{g.c2}) "
                    "on its jump ray; the truncated jump series does not converge"
                )
        cross = prep.cross_op(dens[other][:, :])
        theta_minus = theta_vec[None, :] - (prep.boundary_op(dens[s], -1) + cross) / FOUR_PI
        theta_plus = theta_vec[None, :] - (prep.boundary_op(dens[s], +1) + cross) / FOUR_PI
        y_minus = np.exp(prep.basis_static[s].T + 1j * theta_minus)
        y_plus = np.exp(prep.basis_static[s].T + 1j * theta_plus)
        predicted = y_minus * np.exp(dens[s])
        worst = max(worst, float(np.max(np.abs(predicted - y_plus) / np.abs(y_plus))))
        worst = max(worst, _midpoint_jump_residual(state, cfg, prep, s))
    return worst


def _midpoint_jump_residual(state: ThetaState, cfg: SolverConfig,
                            prep: _Prepared, s: int) -> float:
    grid = prep.grids[s]
    mids = 0.5 * (grid.nodes[:-1] + grid.nodes[1:])
    zeta = np.exp(mids[:: max(1, len(mids) // 32)]) * grid.direction.unit()
    tp = np.stack(evaluate_theta(state, cfg, zeta, side="plus"), axis=1)
    tm = np.stack(evaluate_theta(state, cfg, zeta, side="minus"), axis=1)
    basis = _static_exponents(cfg, prep.basis_central[:, None], zeta).T
    y_plus = np.exp(basis + 1j * tp)
    jump = prep.series(s, _static_exponents(cfg, prep.central[s][:, None], zeta), tm)
    predicted = np.exp(basis + 1j * tm) * np.exp(jump)
    return float(np.max(np.abs(predicted - y_plus) / np.abs(y_plus)))


def reality_samples(cfg: SolverConfig, r: RayDirection, count: int = 64,
                    seed: int = 2026) -> np.ndarray:
    """Deterministic off-contour sample points for the reality check."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        rho = math.exp(rng.uniform(-1.4, 1.4))
        ang = rng.uniform(0.0, 2.0 * math.pi)
        # distance to the contour line, mod pi, keeps both rays excluded
        if abs(math.remainder(ang - r.phase, math.pi)) > 0.15:
            out.append(rho * complex(math.cos(ang), math.sin(ang)))
    return np.array(out)


def check_reality(state: ThetaState, cfg: SolverConfig, count: int = 64) -> float:
    """Sup over samples of |conj(Theta_k(-1/conj zeta)) - Theta_k(zeta)|."""
    prep = _problem(state, cfg)
    z = reality_samples(cfg, prep.r, count)
    direct = np.stack(evaluate_theta(state, cfg, z))
    mirrored = np.stack(evaluate_theta(state, cfg, -1.0 / z.conjugate()))
    return float(np.max(np.abs(mirrored.conj() - direct), initial=0.0))


def asymptotic_theta(state: ThetaState, cfg: SolverConfig, at) -> tuple[complex, complex]:
    """Theta at 0 (kernel -> +1) or at infinity (kernel -> -1).

    The difference from the reference angles is purely imaginary and the two
    limits are complex conjugates of each other.
    """
    prep = _problem(state, cfg)
    dens = state.densities
    sign = 1.0 if at == 0 else -1.0
    w = prep.weights
    out = []
    for k in (0, 1):
        acc = sign * (np.sum(w * dens[+1][:, k]) + np.sum(w * dens[-1][:, k]))
        out.append(cfg.theta[k] - acc / FOUR_PI)
    return out[0], out[1]


_DIRECTIONS = {
    "theta1": lambda cfg, h: dataclasses.replace(cfg, theta=(cfg.theta[0] + h, cfg.theta[1])),
    "theta2": lambda cfg, h: dataclasses.replace(cfg, theta=(cfg.theta[0], cfg.theta[1] + h)),
    "a_re": lambda cfg, h: dataclasses.replace(cfg, a=cfg.a + h),
    "a_im": lambda cfg, h: dataclasses.replace(cfg, a=cfg.a + 1j * h),
}

_STENCILS = {
    1: ((1, 0.5), (-1, -0.5)),
    2: ((1, 1.0), (0, -2.0), (-1, 1.0)),
    3: ((2, 0.5), (1, -1.0), (-1, 1.0), (-2, -0.5)),
}


def smoothness_probe(cfg: SolverConfig, direction: str, order: int,
                     grid_step: float,
                     solutions: dict | None = None) -> dict:
    """Central finite differences of the converged solution in one parameter.

    Solves at the stencil points for steps h and h/2 and reports both
    estimates (node arrays and the zeta -> 0 limit) together with the
    relative change under step halving; a stable value stands in for the
    smoothness of the exact solution.

    solutions maps each solved (shifted) configuration to its node values
    and zeta -> 0 limit; pass one dict to several probes to solve each
    stencil point once across them.  A fresh dict is used by default.
    """
    if direction not in _DIRECTIONS:
        raise ConfigError(f"unknown probe direction {direction!r}")
    if order not in _STENCILS:
        raise ConfigError("probe order must be 1, 2 or 3")
    shift = _DIRECTIONS[direction]
    if solutions is None:
        solutions = {}

    def solved(offset: float):
        shifted = shift(cfg, offset)
        if shifted not in solutions:
            st, _ = solve(shifted)
            t0 = asymptotic_theta(st, shifted, at=0)
            solutions[shifted] = (st.values.copy(), np.array(t0))
        return solutions[shifted]

    def estimate(h: float):
        nodes = np.zeros((2, cfg.M, 2), dtype=complex)
        t0 = np.zeros(2, dtype=complex)
        for mult, coeff in _STENCILS[order]:
            v, t = solved(mult * h)
            nodes += coeff * v
            t0 += coeff * t
        return nodes / h ** order, t0 / h ** order

    nodes_h, t0_h = estimate(grid_step)
    nodes_h2, t0_h2 = estimate(0.5 * grid_step)
    floor = 1e-5  # angles are order-one; differences below this are noise
    denom = max(float(np.max(np.abs(nodes_h2))), floor)
    rel_change = float(np.max(np.abs(nodes_h - nodes_h2))) / denom
    return {
        "direction": direction,
        "order": order,
        "step": grid_step,
        "nodes": nodes_h,
        "nodes_halved": nodes_h2,
        "theta0": t0_h,
        "theta0_halved": t0_h2,
        "rel_change": rel_change,
        "sup": float(np.max(np.abs(nodes_h))),
    }
