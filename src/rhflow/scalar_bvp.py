"""Scalar boundary-value problems on an oriented line through the origin.

The jump function may have first-kind discontinuities at 0 and infinity
(with exponents eta_0 = -eta_inf derived from the declared one-sided limits)
and integer-order zeros at points of the contour.  The solution is assembled
as  X+ = const * prod (zeta - alpha_j)^{m_j} * omega+ * Y+,  X- = omega- * Y-
where omega+/omega- absorb the branch behavior at 0 and infinity and Y
solves the regularized continuous problem by a Cauchy transform with the
symmetric kernel: the constant tails of its log density in closed form,
the decaying rest by the spectral band-limited rule on the line.

The contour is parametrized by the signed coordinate t, zeta = t e^{i phase},
oriented from -infinity through 0 to +infinity; D+ is the half-plane on its
left.  Endpoint limits are data: G(0 -/+ 0) along the orientation, and the
"limits at infinity" are the carriers of the jump ratio there (the sampler
itself may drift like |t|^{Re eta_0}).

The jump G is a function of a 1-D array of contour coordinates, and the
branch and zero factors are functions of a 1-D array of points.  A solve
samples G and the zero factor once, at the nodes contour_nodes(half_width,
M), and hands solve_continuous the regularized jump G1 at those nodes.  A
solution is called at one point or a 1-D array of points and returns the
pair (X+, X-) from one quadrature pass; a point is evaluated as an array of
one, so it gets the value it has inside any array bit for bit.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .contour_quadrature import RayGrid, integrate_ray
from .errors import AsymmetricJumpError, ConfigError, NonzeroIndexError
from .spectrum_rays import EPS_ANGLE, RayDirection, _wrap

TWO_PI = 2.0 * math.pi
EXPONENT_TOL = 1e-9  # how far eta_0 + eta_inf may miss an integer
WINDING_TOL = 0.25   # turns of log G1 along the contour taken for index zero


@dataclass(frozen=True)
class ScalarBVProblem:
    line_phase: float
    G: Callable  # 1-D array of contour coordinates t -> G(t)
    limits: tuple[complex, complex, complex, complex]  # G(0-0), G(0+0), G(inf-0), G(inf+0)
    zeros: tuple[tuple[complex, int], ...] = ()
    zeta0: complex = 1.5j

    def contour_point(self, t: float | np.ndarray) -> complex | np.ndarray:
        return t * cmath.exp(1j * self.line_phase)

    def in_upper(self, zeta: complex) -> bool:
        """True if zeta lies in D+, the left half-plane of the oriented line."""
        return _wrap(cmath.phase(zeta) - self.line_phase) > 0

    def validate(self) -> None:
        if not self.in_upper(self.zeta0):
            raise ConfigError("zeta0 must lie strictly inside D+")
        for alpha, m in self.zeros:
            if m < 1:
                raise ConfigError("zero orders must be positive integers")
            if abs(_wrap(cmath.phase(alpha) - self.line_phase)) > 1e-9 and \
               abs(_wrap(cmath.phase(alpha) - self.line_phase - math.pi)) > 1e-9:
                raise ConfigError(f"zero at {alpha} is off the contour")


def jump_exponents(p: ScalarBVProblem) -> tuple[complex, complex]:
    """eta_0 and eta_inf from the declared limits, principal logarithms.

    The symmetric-jump condition demands eta_0 = -eta_inf; anything else
    leaves a winding the index-zero theory cannot absorb.
    """
    g0m, g0p, gim, gip = p.limits
    if g0m == 0 or g0p == 0 or gim == 0 or gip == 0:
        raise ConfigError("endpoint limits must be nonzero")
    eta0 = cmath.log(g0m / g0p) / (2j * math.pi)
    etainf_raw = cmath.log(gim / gip) / (2j * math.pi)
    # the ratios determine the exponents mod 1 only; the symmetric condition
    # demands eta_0 + eta_inf integer and then picks eta_inf = -eta_0 (the
    # principal branch cannot represent -1/2 when the ratio is -1)
    total = eta0 + etainf_raw
    if abs(total - round(total.real)) > EXPONENT_TOL:
        raise AsymmetricJumpError(
            f"eta_0 = {eta0:.6g} and eta_inf = {etainf_raw:.6g} do not cancel"
        )
    if abs(eta0) >= 1:
        raise ConfigError("|eta_0| must be below one for an integrable singularity")
    return eta0, -eta0


def index(eta0: complex, eta_inf: complex) -> int:
    """floor(Re eta_0) + floor(Re eta_inf) + 1; zero for genuine symmetric
    jumps.  Continuous boundary functions (eta_0 = 0) fall outside this
    normalization and are handled by the classical index-zero route."""
    return math.floor(eta0.real) + math.floor(eta_inf.real) + 1


def _nonzero(zeta: np.ndarray, name: str) -> np.ndarray:
    z = zeta.astype(complex)
    if np.any(z == 0):
        raise ValueError(f"{name} is singular at 0")
    return z


def omega_plus(p: ScalarBVProblem, eta0: complex, zeta: np.ndarray) -> np.ndarray:
    """zeta^{eta_0} with the cut along the mid-ray of D-, analytic on D+."""
    z = _nonzero(zeta, "omega+")
    # the argument relative to the line, wrapped to (-pi, pi] without
    # rounding (fmod and the shift of (pi, 2 pi) are exact), then moved into
    # the continuous window (phi - pi/2, phi + 3 pi/2)
    rel = np.fmod(np.angle(z) - p.line_phase, TWO_PI)
    rel[rel > math.pi] -= TWO_PI
    rel[rel < -0.5 * math.pi] += TWO_PI
    return np.exp(eta0 * (np.log(np.abs(z)) + 1j * (p.line_phase + rel)))


def omega_minus(p: ScalarBVProblem, eta0: complex, zeta: np.ndarray) -> np.ndarray:
    """(zeta / (zeta - zeta0))^{eta_0} with the cut on the [0, zeta0] segment,
    analytic on D-."""
    z = _nonzero(zeta, "omega-")
    return np.exp(eta0 * np.log(z / (z - p.zeta0)))


def regularizing_factor(p: ScalarBVProblem, eta0: complex, zeta: np.ndarray) -> np.ndarray:
    """omega- / omega+ = (zeta - zeta0)^{-eta_0} with the cut running from
    zeta0 through 0 into D-; multiplying G by it cancels both endpoint jumps."""
    return omega_minus(p, eta0, zeta) / omega_plus(p, eta0, zeta)


def zero_factor(p: ScalarBVProblem, zeta: np.ndarray) -> np.ndarray:
    out = np.ones(len(zeta), dtype=complex)
    for alpha, m in p.zeros:
        out *= (zeta - alpha) ** m
    return out


@dataclass(frozen=True)
class ContinuousSolution:
    """Cauchy-transform solution of Y+ = G1 Y-: log G1 - c is the tail
    -A tanh(log |t|), transformed in closed form, plus a remainder that
    decays at both ends of both halves, transformed by quadrature."""

    grids: tuple[RayGrid, RayGrid]          # positive half, negative half
    log_density: tuple[np.ndarray, np.ndarray]  # the remainder on each half
    endpoint_log: complex                    # removed constant c
    y_at_infinity: complex
    tail_amplitude: complex                  # A

    def __call__(self, zeta) -> tuple:
        """(Y+, Y-): exp of the kernel transform, normalised by the
        remainder's limit at infinity, at one point or at a 1-D array of
        points.  On the line these are the D+ and D- boundary values, from
        one quadrature pass; off it both hold the one value there."""
        z = np.asarray(zeta, dtype=complex)
        zs = np.atleast_1d(z)
        acc = np.zeros((2, len(zs)), dtype=complex)  # D+ and D- values
        for half, (grid, dens) in enumerate(zip(self.grids, self.log_density)):
            orient = 1.0 if half == 0 else -1.0
            limits = integrate_ray(grid, dens, zs)
            # the line is traversed inward along the negative half, so the
            # geometric D+ side flips there relative to the outward ray
            acc += orient * np.stack(limits[::-1] if half else limits)
        # the tail against (t' + tau)/(t' - tau) dt'/t' = (2/(t' - tau) - 1/t') dt',
        # tau = zeta e^{-i line_phase}: 0 against -1/t' (it is even), residues at
        # tau and +-i for the rest: -A (2 pi i sigma + 4 pi/(tau + i sigma)),
        # sigma = 1 in D+ and -1 in D-; on the line "plus" takes 1, "minus" -1
        tau = zs * np.conj(self.grids[0].direction.unit())
        side = np.where(np.abs(np.sin(np.angle(tau))) <= EPS_ANGLE, 0.0, np.sign(tau.imag))
        sigma = np.stack([np.where(side < 0, -1.0, 1.0), np.where(side > 0, 1.0, -1.0)])
        acc -= self.tail_amplitude * (TWO_PI * 1j * sigma + 4.0 * math.pi / (tau + 1j * sigma))
        out = np.exp(acc / (4j * math.pi)) / self.y_at_infinity
        return (out[0], out[1]) if z.ndim else (complex(out[0, 0]), complex(out[1, 0]))


def contour_nodes(half_width: float, M: int) -> np.ndarray:
    """The 2M contour coordinates at which a solve samples its jump, in
    contour order (t from -inf to +inf): +-e^s at M equally spaced s on
    [-half_width, half_width]."""
    t = np.exp(np.linspace(-half_width, half_width, M))
    return np.concatenate([-t[::-1], t])


def solve_continuous(G1: np.ndarray, line_phase: float, half_width: float = 7.0,
                     M: int = 512) -> ContinuousSolution:
    """Cauchy-transform solution of the continuous problem.

    G1 holds the jump's values at contour_nodes(half_width, M).  log G1
    is tracked continuously along the oriented contour; a nonzero total
    winding is a nonzero-index configuration and is rejected.  The common
    endpoint value c of log G1 is removed before the transform (it re-enters
    as the assembly constant).  What is left tends to A at 0 and to -A at
    infinity, the limits of the tail -A tanh(log |t|), so the quadrature
    sees only a remainder that decays at both ends of both halves, where the
    on-line rule is spectral.  The result is normalized by the remainder's
    limit at infinity.
    """
    pos = RayGrid.uniform(RayDirection(line_phase), half_width, M)
    neg = dataclasses.replace(pos, direction=RayDirection(line_phase + math.pi))
    w = pos.weights

    # G1 on both halves in contour order
    ordered = np.asarray(G1, dtype=complex)
    if np.any(ordered == 0):
        raise ConfigError("continuous jump function vanishes on the contour")

    # continuous branch of log G1 along the contour
    angles = np.unwrap(np.angle(ordered))
    winding = (angles[-1] - angles[0]) / TWO_PI
    logs = np.log(np.abs(ordered)) + 1j * angles
    if abs(winding) > WINDING_TOL:
        raise NonzeroIndexError(
            f"log of the jump winds by {winding:.3f} turns along the contour"
        )
    # the transform needs log G1 continuous at 0 and at infinity separately;
    # constant tails of opposite sign are fine, the closed-form tail takes them
    d_inf = logs[0] - logs[-1]
    d_zero = logs[M - 1] - logs[M]
    if max(abs(d_inf), abs(d_zero)) > 1e-6:
        raise NonzeroIndexError(
            "regularized jump is not continuous at 0 or at infinity "
            f"(gaps {abs(d_zero):.2e}, {abs(d_inf):.2e})"
        )
    c = 0.25 * (logs[0] + logs[-1] + logs[M - 1] + logs[M])
    A = 0.25 * (logs[M - 1] + logs[M] - logs[0] - logs[-1])
    lam = logs - c
    tail = -A * np.tanh(pos.nodes)  # at t = +-e^{s_j} on both halves
    dens_neg = lam[:M][::-1] - tail
    dens_pos = lam[M:] - tail

    # exact limit of the remainder's transform at infinity: the kernel
    # tends to -1 on both halves
    y_inf = cmath.exp(-(np.sum(w * dens_pos) - np.sum(w * dens_neg)) / (4j * math.pi))
    return ContinuousSolution((pos, neg), (dens_pos, dens_neg), c, y_inf, A)


@dataclass(frozen=True)
class ScalarSolution:
    problem: ScalarBVProblem
    eta0: complex
    kappa: int
    continuous: ContinuousSolution

    def __call__(self, zeta) -> tuple:
        """(X+, X-) at one point or at a 1-D array of points, from one
        quadrature pass: on the contour the boundary values from D+
        and from D-; off it the D+ and the D- expressions at the point, of
        which the one for the point's side is the solution there.  X+
        carries the zero factors."""
        z = np.asarray(zeta, dtype=complex)
        zs = np.atleast_1d(z)
        y_plus, y_minus = self.continuous(zs)
        p = self.problem
        c = cmath.exp(self.continuous.endpoint_log)
        xp = c * zero_factor(p, zs) * omega_plus(p, self.eta0, zs) * y_plus
        xm = omega_minus(p, self.eta0, zs) * y_minus
        return (xp, xm) if z.ndim else (complex(xp[0]), complex(xm[0]))

    def boundary_residual(self, samples: np.ndarray) -> float:
        """sup over contour coordinates of |X+ - G X-| / (|X+| + |X-|)."""
        ts = np.asarray(samples, dtype=float)
        xp, xm = self(self.problem.contour_point(ts))
        g = self.problem.G(ts)
        return float(np.max(np.abs(xp - g * xm) / (np.abs(xp) + np.abs(xm)), initial=0.0))


def _exponents(p: ScalarBVProblem) -> tuple[complex, int]:
    """p validated; its exponent eta_0 and its index."""
    p.validate()
    eta0, etainf = jump_exponents(p)
    if eta0 == 0:
        return eta0, 0  # continuous boundary function: classical index-zero route
    return eta0, index(eta0, etainf)


def _solve_sampled(problems: list[ScalarBVProblem], half_width: float,
                   M: int) -> list[ScalarSolution]:
    """Each problem solved on the nodes contour_nodes(half_width, M).  The
    problems differ at most in their base point, which only the branch
    factor depends on: G and the zero factor are sampled once, and each
    problem's regularized jump G1 (the zero factors divided out, the branch
    factor multiplied in) is formed from those samples."""
    exponents = [_exponents(q) for q in problems]
    p = problems[0]
    t = contour_nodes(half_width, M)
    zeta = p.contour_point(t)
    g, zf = p.G(t), zero_factor(p, zeta)
    out = []
    for q, (eta0, kappa) in zip(problems, exponents):
        G1 = regularizing_factor(q, eta0, zeta) * g / zf
        cont = solve_continuous(G1, q.line_phase, half_width=half_width, M=M)
        out.append(ScalarSolution(q, eta0, kappa, cont))
    return out


def solve_scalar_bvp(p: ScalarBVProblem, half_width: float = 7.0,
                     M: int = 512) -> ScalarSolution:
    """Full pipeline: exponents, index, regularization, Cauchy transform."""
    return _solve_sampled([p], half_width, M)[0]


def verify_uniqueness(p: ScalarBVProblem, zeta0_alt: complex,
                      half_width: float = 24.0, M: int = 512) -> float:
    """Solve with two base points in D+ and return the worst relative
    deviation of the solution ratio from a constant over off-contour samples.

    The alternative base point leaves the regularized jump with constant
    tails of opposite sign, which solve_continuous transforms in closed
    form.  The jump nears them only like e^{-|log |t||}, so the width is
    set by solve_continuous's continuity check at the grid ends, which the
    manufactured jumps pass from half-width 14 on; the default 24 keeps a
    margin.  Off the contour the sums converge geometrically in the step,
    so the step can be coarse.

    Both solves share one node set (_solve_sampled), and each solution is
    evaluated once at all 8 samples: X+ is taken at the 4 in D+ and X- at
    the 4 in D-.
    """
    if zeta0_alt == p.zeta0:
        return 0.0
    e_up = cmath.exp(1j * (p.line_phase + 0.5 * math.pi))
    e_dn = cmath.exp(1j * (p.line_phase - 0.5 * math.pi))
    samples = np.array([0.3 * e_up, 1.7 * e_up, 0.9 * e_up * cmath.exp(0.7j),
                        2.5 * e_up * cmath.exp(-0.5j),
                        0.4 * e_dn, 2.1 * e_dn, 1.1 * e_dn * cmath.exp(0.6j),
                        0.7 * e_dn * cmath.exp(-0.8j)])
    values = []
    for sol in _solve_sampled([p, dataclasses.replace(p, zeta0=zeta0_alt)], half_width, M):
        xp, xm = sol(samples)
        values.append(np.concatenate([xp[:4], xm[4:]]))
    ratios = values[0] / values[1]
    return float(np.max(np.abs(ratios - ratios[0]) / np.abs(ratios[0])))
