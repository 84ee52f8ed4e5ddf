"""Fixed-point solver for the nonlinear Riemann-Hilbert problem.

The unknown is the pair of corrected angles Theta = (Theta_1, Theta_2)
sampled on the two contour rays.  One iteration evaluates

    Theta_k <- theta_k - (1/4pi) * [ I_r[h^k_{+1}(Theta)] + I_{-r}[h^k_{-1}(Theta)] ]

with h^k_s = log(S_s x_k / x_k) the exact log of the side's jump map S_s, the
finite Kontsevich-Soibelman product of the side's active charges, at
x = Y- (Gaiotto-Moore-Neitzke, arXiv:0807.4723).  Stored node values are the
boundary values from the clockwise side of each outward-oriented ray; with
that convention the counterclockwise limit satisfies the multiplicative jump
exactly at the nodes; check_jump verifies it between them, from
evaluate_theta's two limits there.

A state is its node values and its prepared problem; every function of a
state reads the configuration from state.problem.cfg.  iterate_once is the
bare map; solve applies it, keeps the iteration record and returns it with
the converged state; verify returns the residuals of the defining
conditions on that state.  solve keeps one check, truncation_guard, which
keeps the solution where |Y_g| < 1 on the jump rays, the domain in which
the side maps' log series (stokes_series) converge; a state runs it at most
once and keeps its limits at 0 and infinity (state.limits), so verify
repeats neither.

The densities use the split of the semiflat exponential
X_g = exp(pi R (Z_g / zeta + zeta conj Z_g) + i c_g . Theta): _Prepared
stores the first, theta-free exponent of every active charge at the nodes
once per problem, and _SideMap.log applies a side's factors in order, one
exp and one log1p per node and active charge.

At the nodes the ray integrals are two Toeplitz kernels times the weights:
c_same, the coth kernel of a ray on itself by the alternating-point rule
(spectrally accurate for these decaying densities), and c_cross, the tanh
kernel between the rays.  _Prepared keeps their FFTs on circulants of length
2M, and node_transforms applies them in one FFT, product and inverse FFT per
Picard step.  evaluate_theta passes both basis targets of a side as one
(2, M) stack: on a ray to contour_quadrature.band_limited_limits, whose node
rule is c_same's (so it returns the stored values there), else integrate_ray.
"""

from __future__ import annotations

import cmath
import dataclasses
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .charge_lattice import (Charge, GAMMA1, GAMMA2, Spectrum, extend, pairing,
                             require_support)
from .contour_quadrature import (band_limited_limits, build_ray_grid, integrate_ray,
                                 on_covered_ray)
from .errors import (ConfigError, DivergenceError, NonContractionError,
                     TruncationUnsafeError)
from .spectrum_rays import CentralCharge, RayDirection, admissible_pair
from .stokes_series import ordered_side_charges, refinement_sign
# not called by the solver: the benchmark tracer (bench/tracer.py) still
# resolves this name here; drop it when the tracer no longer does
from .stokes_series import stokes_log_coeffs  # noqa: F401

FOUR_PI = 4.0 * math.pi
LN2 = math.log(2.0)


@dataclass(frozen=True)
class SolverConfig:
    R: float
    a: complex
    theta: tuple[float, float]
    spectrum: Spectrum
    Z: CentralCharge
    N: int = 8  # stokes_series' truncation order: validated, unused by the solve
    M: int = 128
    target_tail: float = 40.0
    tol: float = 1e-12
    max_iter: int = 30
    ball_epsilon: float = 0.5
    split_phase: float | None = None

    def validate(self) -> None:
        if not (self.R > 0 and math.isfinite(self.R)):
            raise ConfigError("R must be positive and finite")
        if not (self.tol > 0 and math.isfinite(self.tol)):
            raise ConfigError("tol must be positive and finite")
        if not (self.target_tail > 0 and math.isfinite(self.target_tail)):
            raise ConfigError("target_tail must be positive and finite")
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
        if not cmath.isfinite(self.a):
            raise ConfigError("a must be finite")
        if not all(map(cmath.isfinite, self.Z.z1 + self.Z.z2)):
            raise ConfigError("Z coefficients must be finite")


def _static_exponents(cfg: SolverConfig, zg: complex | np.ndarray,
                      pts: complex | np.ndarray) -> np.ndarray:
    """pi R (Z_g / zeta' + zeta' conj Z_g) for central charge values zg at
    the points pts (broadcast against each other)."""
    return math.pi * cfg.R * (zg / pts + pts * np.conj(zg))


class _SideMap:
    """The jump map of one side: its active charges a_j in
    ordered_side_charges order, which is the order of the
    Kontsevich-Soibelman factors (1 - sigma_j x^{a_j})^{Omega_j <gamma_k, a_j>}
    (as in stokes_series.ks_apply), with their central values."""

    def __init__(self, charges: list[tuple[Charge, int]], basis: tuple[complex, complex]):
        self.charges = charges
        self.central = np.array([extend(g, *basis) for g, _ in charges], dtype=complex)
        self.coords = np.array([(g.c1, g.c2) for g, _ in charges], dtype=float).reshape(-1, 2)
        # per factor j: the earlier factors i that move x^{a_j}, with the
        # power Omega_i <a_j, a_i>; the targets k it moves, with the weight
        # Omega_j <gamma_k, a_j>; and whether -sigma_j x is -x
        self._factors = [
            ([(i, om_i * pairing(g, g_i)) for i, (g_i, om_i) in enumerate(charges[:j])
              if pairing(g, g_i)],
             [(k, om * pairing(gk, g)) for k, gk in enumerate((GAMMA1, GAMMA2))
              if pairing(gk, g)],
             refinement_sign(g) > 0)
            for j, (g, om) in enumerate(charges)]

    def log(self, static: np.ndarray, theta: np.ndarray) -> np.ndarray:
        """log(S x_k / x_k) per target k, shape (P, 2), at the points where
        x_g = exp(static_g + i c_g . Theta), from the theta-free exponents of
        the side's charges there (shape (n, P)) and Theta (shape (P, 2)).

        Factor j adds Omega_j <gamma_k, a_j> log(1 - sigma_j x_j^cur) to
        target k, where x_j^cur is x^{a_j} moved by the factors before it:
        exp(static_j + c_j . (i Theta + delta)) with delta the sum so far.
        Since c_j . delta = sum_{i<j} Omega_i <a_j, a_i> log(1 - sigma_i x_i^cur)
        with integer coefficients, x_j^cur = x_j prod_{i<j} (1 - sigma_i
        x_i^cur)^{Omega_i <a_j, a_i>}: one exp per charge and point, and no
        sum of a small delta into a large exponent.
        """
        delta = np.zeros((2, theta.shape[0]), dtype=complex)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            # exp overflows, and log1p(-1) diverges, only for an iterate far
            # outside |Y| < 1; the caller checks for non-finite values
            x = np.exp(static + 1j * (self.coords[:, :1] * theta[:, 0]
                                      + self.coords[:, 1:] * theta[:, 1]))
            one_minus = []  # 1 - sigma_i x_i^cur of the factors so far
            for xj, (earlier, weights, negate) in zip(x, self._factors):
                for i, q in earlier:  # |q| products or quotients
                    for _ in range(abs(q)):
                        (np.multiply if q > 0 else np.divide)(xj, one_minus[i], out=xj)
                if negate:
                    np.negative(xj, out=xj)
                one_minus.append(1.0 + xj)
                np.log1p(xj, out=xj)
                for k, w in weights:
                    delta[k] += w * xj
        # (2, P) rows keep each target's density contiguous for the ray sums
        return delta.T


class _Prepared:
    """Grids, side maps and the node operator for one configuration."""

    def __init__(self, cfg: SolverConfig):
        cfg.validate()
        require_support(cfg.spectrum, cfg.Z, cfg.a)
        self.cfg = cfg
        self.r, self.classification = admissible_pair(
            cfg.Z, cfg.spectrum, cfg.a, split_phase=cfg.split_phase)
        self.rays = {+1: self.r, -1: self.r.opposite()}

        # the side maps; a side charge's central value lies in its side's
        # open half-plane, so it is nonzero and its BPS ray is defined
        basis = cfg.Z.basis_values(cfg.a)
        self.maps = {side: _SideMap(ordered_side_charges(cfg.spectrum, cfg.Z, cfg.a,
                                                         side, self.r), basis)
                     for side in (+1, -1)}

        # one symmetric node set for both rays: slowest decay over both
        # sides' active charges.  The decay 2 pi R |Z_g| cos(angle) is linear
        # in g (the projection of -Z_g on the ray), so no sum of a side's
        # active charges, such as a monomial of its log series, decays slower
        decay = math.inf
        for side in (+1, -1):
            ray = self.rays[side]
            for zg in self.maps[side].central.tolist():
                ang = RayDirection(cmath.phase(-zg)).angle_to(ray)
                decay = min(decay, 2.0 * math.pi * cfg.R * abs(zg) * math.cos(ang))
        if not math.isfinite(decay):  # empty spectrum: any width will do
            decay = 2.0 * math.pi * cfg.R * min(abs(z) for z in basis if z != 0)
        self.grids = {side: build_ray_grid(self.rays[side], decay, cfg.M,
                                           cfg.target_tail)
                      for side in (+1, -1)}

        # per side: the theta-free exponents pi R (Z_g / zeta + zeta conj Z_g)
        # of the active charges at the nodes, one row per charge
        self.static = {side: _static_exponents(cfg, self.maps[side].central[:, None],
                                               self.grids[side].points())
                       for side in (+1, -1)}

        # central values of the basis charges, for the jump check
        self.basis_central = np.array([extend(g, *basis) for g in (GAMMA1, GAMMA2)])

        # the node operator, shared by both rays (one node set
        # s_j = -L + j step): c_same[i, j] = 2 w_j coth((s_j - s_i)/2) at odd
        # j - i and 0 at even j - i (band_limited_limits' rule at the nodes,
        # Sidi & Israeli 1988), c_cross[i, j] = w_j tanh((s_j - s_i)/2).  Both
        # act on w h by FFT on circulants of length 2M; the 1/2 that recovers
        # each side from the sum and the difference of the sides' densities is
        # folded into the stored spectra, with the 1/2M of the inverse FFT.
        g0 = self.grids[+1]
        M = cfg.M
        cross = np.tanh(0.5 * g0.step * np.arange(1, M))
        same = 2.0 / cross
        same[1::2] = 0.0  # even offsets
        same_hat, cross_hat = _circulant_fft(same), _circulant_fft(cross)
        self.half_spectra = np.repeat([same_hat + cross_hat, same_hat - cross_hat],
                                      2, axis=0) / (4 * M)
        self.weights = g0.weights

    def densities(self, values: np.ndarray) -> dict[int, np.ndarray]:
        """Combined density per side and target, shape (M, 2), from the node
        values of Theta (shape (2, M, 2); axis 0 is the ray: 0 -> r, 1 -> -r)."""
        return {side: self.maps[side].log(self.static[side], values[ray_idx])
                for side, ray_idx in ((+1, 0), (-1, 1))}

    def node_transforms(self, dens: dict[int, np.ndarray]) -> dict[int, np.ndarray]:
        """Principal value, at each side's nodes, of the integral over both
        rays of the two sides' densities (shape (M, 2) each): for side s,
        c_same h_s + c_cross h_-s.

        With u and v the half sum and half difference of h_+1 and h_-1, side
        s is (same + cross) u + s (same - cross) v, from one FFT of the
        weighted (4, M) stack of h_+1 + h_-1 and h_+1 - h_-1 (the halves are
        in the stored spectra), one product with the spectra and one inverse
        FFT.
        """
        M = self.cfg.M
        hp, hm = dens[+1].T, dens[-1].T
        work = np.zeros((4, 2 * M), dtype=complex)  # in place, zero-padded
        np.add(hp, hm, out=work[:2, :M])
        np.subtract(hp, hm, out=work[2:, :M])
        work[:, :M] *= self.weights
        np.fft.fft(work, out=work)
        work *= self.half_spectra
        # unscaled inverse: half_spectra carries the 1/2M
        out = np.fft.ifft(work, norm="forward", out=work)[:, :M]
        return {+1: (out[:2] + out[2:]).T, -1: (out[:2] - out[2:]).T}


def _circulant_fft(k: np.ndarray) -> np.ndarray:
    """FFT of the circulant of length 2M that embeds the Toeplitz matrix
    T[i, j] = k(j - i) of an odd kernel, given as k(1), ..., k(M - 1):
    (T g)_i = ifft(fft(g, 2M) * result)_i for i < M."""
    col = np.zeros(2 * len(k) + 2)
    col[1:len(k) + 1] = -k
    col[len(k) + 2:] = k[::-1]
    return np.fft.fft(col)


@dataclass
class ThetaState:
    """Node values of the corrected angles on both contour rays.

    values[0] holds the r ray, values[1] the opposite ray; the last axis is
    the basis index.  Stored values are clockwise-side boundary values.  The
    combined densities and the limits at 0 and infinity are computed from
    values on first use and kept, and truncation_guard passes at most once,
    so values must not be changed in place.
    """

    values: np.ndarray
    problem: _Prepared = field(repr=False, compare=False)

    @functools.cached_property
    def densities(self) -> dict[int, np.ndarray]:
        return self.problem.densities(self.values)

    @functools.cached_property
    def limits(self) -> tuple[tuple[complex, complex], tuple[complex, complex]]:
        """(Theta(0), Theta(inf)), each a pair over the basis targets."""
        return asymptotic_theta(self)

    def guard(self) -> None:
        """Run truncation_guard on this state unless it has passed before;
        a state that fails it raises on every call."""
        if not getattr(self, "_guarded", False):
            truncation_guard(self)
            self._guarded = True


def init_state(cfg: SolverConfig) -> ThetaState:
    """Zeroth iterate: Theta identically equal to the reference angles."""
    prep = _Prepared(cfg)
    values = np.zeros((2, cfg.M, 2), dtype=complex)
    values[..., 0] = cfg.theta[0]
    values[..., 1] = cfg.theta[1]
    return ThetaState(values, prep)


def iterate_once(state: ThetaState) -> ThetaState:
    """One application of the integral-equation map to the node values."""
    prep = state.problem
    dens = state.densities
    new = np.empty_like(state.values)
    theta_vec = np.array(prep.cfg.theta, dtype=complex)

    pv = prep.node_transforms(dens)
    for s, ray_idx in ((+1, 0), (-1, 1)):
        stored = pv[s] - 2j * math.pi * dens[s]  # the clockwise limit
        new[ray_idx] = theta_vec[None, :] - stored / FOUR_PI
    return ThetaState(new, prep)


def solve(cfg: SolverConfig) -> tuple[ThetaState, dict]:
    """Iterate to the fixed point and assemble the run report (residuals
    are verify's).

    At least two iterations always run so that a contraction ratio is
    observed; convergence requires the final ratio below one.  A step
    whose iterate leaves the ball of radius ball_epsilon about theta is
    recorded in ball_exits, not fatal.  The converged state must pass
    truncation_guard; verify does not run it again on that state.
    """
    state = init_state(cfg)
    theta_vec = np.array(cfg.theta, dtype=complex)
    deltas: list[float] = []
    ball_exits: list[int] = []
    for step in range(1, cfg.max_iter + 1):
        new = iterate_once(state)
        if not np.all(np.isfinite(new.values)):
            raise DivergenceError(
                f"non-finite iterate at step {step}; R = {cfg.R:g} is too "
                "small for this spectrum"
            )
        deltas.append(float(np.max(np.abs(new.values - state.values))))
        if float(np.max(np.abs(new.values - theta_vec))) > cfg.ball_epsilon:
            ball_exits.append(step)
        state = new
        if step >= 2 and deltas[-1] < cfg.tol:
            break
    ratios = [d2 / d1 if d1 > 0 else 0.0 for d1, d2 in zip(deltas, deltas[1:])]
    if not deltas[-1] < cfg.tol:
        bad = max(ratios[1:] or ratios or [math.inf])
        raise NonContractionError(
            f"no convergence in {cfg.max_iter} iterations "
            f"(last delta {deltas[-1]:.3e}, worst ratio {bad:.3g}); "
            f"R = {cfg.R:g} is too small for this spectrum"
        )
    state.guard()
    theta0, thetainf = state.limits
    report = {
        "config": {
            "R": cfg.R, "a": [cfg.a.real, cfg.a.imag], "theta": list(cfg.theta),
            "N": cfg.N, "M": cfg.M, "target_tail": cfg.target_tail,
            "tol": cfg.tol, "max_iter": cfg.max_iter,
            "ball_epsilon": cfg.ball_epsilon,
            "contour_phase": state.problem.r.phase,
        },
        "iterations": len(deltas),
        "deltas": deltas,
        "ratios": ratios,
        "ball_exits": ball_exits,
        "theta0": [[t.real, t.imag] for t in theta0],
        "thetainf": [[t.real, t.imag] for t in thetainf],
    }
    return state, report


def verify(state: ThetaState) -> dict:
    """Residuals of the defining conditions at a solved state, for the
    configuration it was built from: the jump (check_jump), the reality
    involution (check_reality), the real part of Theta(0) - theta
    (asymptotic_real) and |Theta(0) - conj Theta(inf)| (asymptotic_conj)."""
    cfg = state.problem.cfg
    theta0, thetainf = state.limits
    return {
        "jump": check_jump(state),
        "reality": check_reality(state),
        "asymptotic_real": max(abs((theta0[k] - cfg.theta[k]).real) for k in (0, 1)),
        "asymptotic_conj": max(abs(theta0[k] - thetainf[k].conjugate()) for k in (0, 1)),
    }


def evaluate_theta(state: ThetaState, zeta, side: str = "minus") -> tuple:
    """Theta at one point or at a 1-D array of points via the integral
    representation; returns the pair (Theta_1, Theta_2) of complex numbers
    or of arrays.

    On a contour ray, side "plus"/"minus" selects the boundary value by
    band_limited_limits ("minus", the clockwise side, is the stored one);
    "both" returns ((Theta_1+, Theta_2+), (Theta_1-, Theta_2-)) from one
    quadrature pass, whose elements the single sides are.
    """
    if side not in ("plus", "minus", "both"):
        raise ValueError("side must be 'plus', 'minus' or 'both'")
    prep = state.problem
    dens = state.densities
    z = np.asarray(zeta, dtype=complex)
    zs = np.atleast_1d(z)
    acc = np.zeros((2, 2, len(zs)), dtype=complex)  # (plus, minus) x targets
    for s in (+1, -1):
        grid = prep.grids[s]
        on = on_covered_ray(grid, zs)
        rows = dens[s].T  # one density row per basis target
        if on.any():
            acc[:, :, on] += band_limited_limits(grid, rows, zs[on])
        if not on.all():
            acc[:, :, ~on] += integrate_ray(grid, rows, zs[~on], side="off")
    out = np.array(prep.cfg.theta)[:, None] - acc / FOUR_PI
    pairs = [(th[0], th[1]) if z.ndim else (complex(th[0, 0]), complex(th[1, 0]))
             for th in out]
    return tuple(pairs) if side == "both" else pairs[0 if side == "plus" else 1]


def evaluate_Y(state: ThetaState, g: Charge, zeta: complex,
               side: str = "minus") -> complex:
    """Solution function for one charge: the semiflat exponential with the
    corrected angles at zeta."""
    if zeta == 0:
        raise ValueError("use asymptotic_theta for the limits at 0 and infinity")
    th1, th2 = evaluate_theta(state, zeta, side=side)
    thg = g.c1 * th1 + g.c2 * th2
    cfg = state.problem.cfg
    return complex(np.exp(_static_exponents(cfg, cfg.Z.of(g, cfg.a), zeta) + 1j * thg))


def truncation_guard(state: ThetaState) -> None:
    """Raise TruncationUnsafeError where an active charge has |Y_g| >= 1 at
    the nodes of its own jump ray: the log series of the jump map across
    that ray (stokes_series) converges only for |Y_g| < 1, and solutions are
    kept inside that domain, where the exact log the solver iterates is its
    sum."""
    prep = state.problem
    cfg = prep.cfg
    for s, ray_idx in ((+1, 0), (-1, 1)):
        for g, _ in cfg.spectrum.active():
            if prep.classification.get(g) != s:
                continue
            stat = _static_exponents(cfg, cfg.Z.of(g, cfg.a), prep.grids[s].points())
            thg = g.c1 * state.values[ray_idx, :, 0] + g.c2 * state.values[ray_idx, :, 1]
            mags = np.abs(np.exp(stat + 1j * thg))
            if np.any(mags >= 1.0):
                raise TruncationUnsafeError(
                    f"|Y| = {mags.max():.3g} >= 1 for charge ({g.c1},{g.c2}) "
                    "on its jump ray; the log series of its jump map does not converge"
                )


def check_jump(state: ThetaState) -> float:
    """Sup relative residual of the multiplicative jump on both rays.

    The counterclockwise boundary values must equal the side's jump map
    applied to the clockwise values: Y+ = Y- * exp(h(Y-)), with h the exact
    log of the side map that the solver iterates (_SideMap.log).  At a
    node this holds to rounding by construction (Theta+ - Theta- = -i h), so
    the check runs at about 32 midpoints between the nodes of each ray,
    where quadrature error stays visible, and takes both limits there from
    one evaluate_theta call.  A non-finite residual is returned as such.
    """
    prep = state.problem
    cfg = prep.cfg
    state.guard()
    rays = []
    for s in (+1, -1):
        mids = 0.5 * (prep.grids[s].nodes[:-1] + prep.grids[s].nodes[1:])
        rays.append(np.exp(mids[:: max(1, len(mids) // 32)]) * prep.rays[s].unit())
    zeta, n = np.concatenate(rays), len(rays[0])
    plus, minus = evaluate_theta(state, zeta, side="both")
    tm = np.stack(minus, axis=1)
    basis = _static_exponents(cfg, prep.basis_central[:, None], zeta).T
    y_plus = np.exp(basis + 1j * np.stack(plus, axis=1))
    predicted = np.exp(basis + 1j * tm)
    for s, on in ((+1, slice(None, n)), (-1, slice(n, None))):
        side_map = prep.maps[s]
        static = _static_exponents(cfg, side_map.central[:, None], zeta[on])
        predicted[on] *= np.exp(side_map.log(static, tm[on]))
    return float(np.max(np.abs(predicted - y_plus) / np.abs(y_plus)))


@functools.lru_cache(maxsize=32)
def reality_samples(r: RayDirection, count: int = 64, seed: int = 2026) -> np.ndarray:
    """Deterministic off-contour sample points for the reality check, drawn
    once per ray, count and seed and returned read-only."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        rho = math.exp(rng.uniform(-1.4, 1.4))
        ang = rng.uniform(0.0, 2.0 * math.pi)
        # distance to the contour line, mod pi, keeps both rays excluded
        if abs(math.remainder(ang - r.phase, math.pi)) > 0.15:
            out.append(rho * complex(math.cos(ang), math.sin(ang)))
    pts = np.array(out)
    pts.flags.writeable = False
    return pts


def check_reality(state: ThetaState, count: int = 64) -> float:
    """Sup over samples of |conj(Theta_k(-1/conj zeta)) - Theta_k(zeta)|."""
    z = reality_samples(state.problem.r, count)
    both = np.stack(evaluate_theta(state, np.concatenate([z, -1.0 / z.conjugate()])))
    direct, mirrored = both[:, :len(z)], both[:, len(z):]
    return float(np.max(np.abs(mirrored.conj() - direct), initial=0.0))


def asymptotic_theta(state: ThetaState
                     ) -> tuple[tuple[complex, complex], tuple[complex, complex]]:
    """Theta at 0 (kernel -> +1) and at infinity (kernel -> -1), as the pair
    (Theta(0), Theta(inf)), from one weighted sum of the densities; a solved
    state keeps it as state.limits.

    The difference from the reference angles is purely imaginary and the two
    limits are complex conjugates of each other.
    """
    prep = state.problem
    dens = state.densities
    w = prep.weights
    at0, atinf = [], []
    for k in (0, 1):
        acc = np.sum(w * dens[+1][:, k]) + np.sum(w * dens[-1][:, k])
        at0.append(prep.cfg.theta[k] - acc / FOUR_PI)
        atinf.append(prep.cfg.theta[k] + acc / FOUR_PI)
    return (at0[0], at0[1]), (atinf[0], atinf[1])


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
    smoothness of the exact solution.  The stencil points are solved, not
    verified: nothing of verify's residuals enters the probe.

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
            solutions[shifted] = (st.values.copy(), np.array(st.limits[0]))
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
