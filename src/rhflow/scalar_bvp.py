"""Scalar boundary-value problems on an oriented line through the origin.

The jump function may have first-kind discontinuities at 0 and infinity
(with exponents eta_0 = -eta_inf derived from the declared one-sided limits)
and integer-order zeros at points of the contour.  The solution is assembled
as  X+ = const * prod (zeta - alpha_j)^{m_j} * omega+ * Y+,  X- = omega- * Y-
where omega+/omega- absorb the branch behavior at 0 and infinity and Y
solves the regularized continuous problem by a Cauchy transform with the
symmetric kernel.

The contour is parametrized by the signed coordinate t, zeta = t e^{i phase},
oriented from -infinity through 0 to +infinity; D+ is the half-plane on its
left.  Endpoint limits are data: G(0 -/+ 0) along the orientation, and the
"limits at infinity" are the carriers of the jump ratio there (the sampler
itself may drift like |t|^{Re eta_0}).
"""

from __future__ import annotations

import cmath
import dataclasses
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .contour_quadrature import RayGrid, integrate_ray, on_covered_ray
from .errors import AsymmetricJumpError, NonzeroIndexError
from .spectrum_rays import RayDirection, _wrap

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class ScalarBVProblem:
    line_phase: float
    G: Callable[[float], complex]
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
            raise ValueError("zeta0 must lie strictly inside D+")
        for alpha, m in self.zeros:
            if m < 1:
                raise ValueError("zero orders must be positive integers")
            if abs(_wrap(cmath.phase(alpha) - self.line_phase)) > 1e-9 and \
               abs(_wrap(cmath.phase(alpha) - self.line_phase - math.pi)) > 1e-9:
                raise ValueError(f"zero at {alpha} is off the contour")


def jump_exponents(p: ScalarBVProblem, tol: float = 1e-9) -> tuple[complex, complex]:
    """eta_0 and eta_inf from the declared limits, principal logarithms.

    The symmetric-jump condition demands eta_0 = -eta_inf; anything else
    leaves a winding the index-zero theory cannot absorb.
    """
    g0m, g0p, gim, gip = p.limits
    if g0m == 0 or g0p == 0 or gim == 0 or gip == 0:
        raise ValueError("endpoint limits must be nonzero")
    eta0 = cmath.log(g0m / g0p) / (2j * math.pi)
    etainf_raw = cmath.log(gim / gip) / (2j * math.pi)
    # the ratios determine the exponents mod 1 only; the symmetric condition
    # demands eta_0 + eta_inf integer and then picks eta_inf = -eta_0 (the
    # principal branch cannot represent -1/2 when the ratio is -1)
    total = eta0 + etainf_raw
    if abs(total - round(total.real)) > tol:
        raise AsymmetricJumpError(
            f"eta_0 = {eta0:.6g} and eta_inf = {etainf_raw:.6g} do not cancel"
        )
    if abs(eta0) >= 1:
        raise ValueError("|eta_0| must be below one for an integrable singularity")
    return eta0, -eta0


def index(eta0: complex, eta_inf: complex) -> int:
    """floor(Re eta_0) + floor(Re eta_inf) + 1; zero for genuine symmetric
    jumps.  Continuous boundary functions (eta_0 = 0) fall outside this
    normalization and are handled by the classical index-zero route."""
    return math.floor(eta0.real) + math.floor(eta_inf.real) + 1


def omega_plus(p: ScalarBVProblem, eta0: complex, zeta: complex) -> complex:
    """zeta^{eta_0} with the cut along the mid-ray of D-, analytic on D+."""
    if zeta == 0:
        raise ValueError("omega+ is singular at 0")
    rel = _wrap(cmath.phase(zeta) - p.line_phase)
    if rel < -0.5 * math.pi:
        rel += TWO_PI  # continuous argument window (phi - pi/2, phi + 3 pi/2)
    return cmath.exp(eta0 * (math.log(abs(zeta)) + 1j * (p.line_phase + rel)))


def omega_minus(p: ScalarBVProblem, eta0: complex, zeta: complex) -> complex:
    """(zeta / (zeta - zeta0))^{eta_0} with the cut on the [0, zeta0] segment,
    analytic on D-."""
    if zeta == 0:
        raise ValueError("omega- is singular at 0")
    w = zeta / (zeta - p.zeta0)
    return cmath.exp(eta0 * cmath.log(w))


def regularizing_factor(p: ScalarBVProblem, eta0: complex, zeta: complex) -> complex:
    """omega- / omega+ = (zeta - zeta0)^{-eta_0} with the cut running from
    zeta0 through 0 into D-; multiplying G by it cancels both endpoint jumps."""
    return omega_minus(p, eta0, zeta) / omega_plus(p, eta0, zeta)


def zero_factor(p: ScalarBVProblem, zeta: complex) -> complex:
    out = 1.0 + 0j
    for alpha, m in p.zeros:
        out *= (zeta - alpha) ** m
    return out


def regularize(p: ScalarBVProblem, eta0: complex) -> Callable[[float], complex]:
    """Sampler of the continuous jump: the zero factors divided out, the
    branch factor multiplied in.  Equal one-sided limits at 0 and at
    infinity are the contract; they coincide across the two ends as well."""
    def G1(t: float) -> complex:
        zeta = p.contour_point(t)
        return regularizing_factor(p, eta0, zeta) * p.G(t) / zero_factor(p, zeta)
    return G1


@dataclass(frozen=True)
class ContinuousSolution:
    """Cauchy-transform solution of Y+ = G1 Y- with log G1 decaying along
    the contour after removal of the common endpoint constant."""

    p: ScalarBVProblem
    grids: tuple[RayGrid, RayGrid]          # positive half, negative half
    log_density: tuple[np.ndarray, np.ndarray]
    endpoint_log: complex                    # removed constant c
    y_at_infinity: complex

    def __call__(self, zeta, side: str | None = None):
        """Exp of the kernel transform, normalised to one at infinity, at one
        point or at a 1-D array of points.  side ("plus"/"minus") picks the
        D+/D- boundary value at points on the covered contour; without it
        every point must lie off the contour."""
        z = np.asarray(zeta, dtype=complex)
        zs = np.atleast_1d(z)
        acc = np.zeros(len(zs), dtype=complex)
        for half, (grid, dens) in enumerate(zip(self.grids, self.log_density)):
            orient = 1.0 if half == 0 else -1.0
            on = on_covered_ray(grid, zs) & (side is not None)
            # the line is traversed inward along the negative half, so the
            # geometric D+ side flips there relative to the outward ray
            use = "plus" if (side == "plus") == (half == 0) else "minus"
            acc[on] += orient * integrate_ray(grid, dens, zs[on], side=use)
            acc[~on] += orient * integrate_ray(grid, dens, zs[~on], side="off")
        out = _pointwise(lambda a: cmath.exp(a / (4j * math.pi)) / self.y_at_infinity,
                         acc)
        return out if z.ndim else complex(out[0])


def _pointwise(f: Callable, *columns: np.ndarray) -> np.ndarray:
    """f applied per point in Python complex arithmetic.

    numpy's vectorised complex exp, multiply and divide round differently
    from cmath's on some inputs.  The O(1)-per-point tails of the solution
    (branch and zero factors, exp, normalisation) stay in cmath, the
    arithmetic of the scalar jump data, so the written residuals are
    bit-stable; the O(M)-per-point quadrature before them is batched."""
    return np.array([f(*row) for row in zip(*(np.atleast_1d(c).tolist() for c in columns))],
                    dtype=complex)


def solve_continuous(G1: Callable[[float], complex], line_phase: float,
                     p: ScalarBVProblem, half_width: float = 7.0,
                     M: int = 512, winding_tol: float = 0.25,
                     ) -> ContinuousSolution:
    """Cauchy-transform solution of the continuous problem.

    log G1 is tracked continuously along the oriented contour; a nonzero
    total winding is a nonzero-index configuration and is rejected.  The
    common endpoint value of log G1 is removed before the transform (it
    re-enters as the assembly constant), and the result is normalized to
    one at infinity.
    """
    s = np.linspace(-half_width, half_width, M)
    w = np.full(M, s[1] - s[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    pos = RayGrid(RayDirection(line_phase), s, w, half_width, M)
    neg = RayGrid(RayDirection(line_phase + math.pi), s, w, half_width, M)

    g_pos = np.array([G1(t) for t in np.exp(s)], dtype=complex)
    g_neg = np.array([G1(-t) for t in np.exp(s)], dtype=complex)
    if np.any(g_pos == 0) or np.any(g_neg == 0):
        raise ValueError("continuous jump function vanishes on the contour")

    # continuous branch of log G1 in contour order: t from -inf to +inf
    ordered = np.concatenate([g_neg[::-1], g_pos])
    angles = np.unwrap(np.angle(ordered))
    winding = (angles[-1] - angles[0]) / TWO_PI
    logs = np.log(np.abs(ordered)) + 1j * angles
    if abs(winding) > winding_tol:
        raise NonzeroIndexError(
            f"log of the jump winds by {winding:.3f} turns along the contour"
        )
    # the transform needs log G1 continuous at 0 and at infinity separately;
    # constant tails of opposite sign are fine, the two halves cancel them
    d_inf = logs[0] - logs[-1]
    d_zero = logs[M - 1] - logs[M]
    if max(abs(d_inf), abs(d_zero)) > 1e-6:
        raise NonzeroIndexError(
            "regularized jump is not continuous at 0 or at infinity "
            f"(gaps {abs(d_zero):.2e}, {abs(d_inf):.2e})"
        )
    c = 0.25 * (logs[0] + logs[-1] + logs[M - 1] + logs[M])
    lam = logs - c
    dens_neg = lam[:M][::-1]
    dens_pos = lam[M:]

    # exact limit of the raw transform at infinity: the kernel tends to -1
    # on both halves
    y_inf = cmath.exp(-(np.sum(w * dens_pos) - np.sum(w * dens_neg)) / (4j * math.pi))
    return ContinuousSolution(p, (pos, neg), (dens_pos, dens_neg), c, y_inf)


@dataclass(frozen=True)
class ScalarSolution:
    problem: ScalarBVProblem
    eta0: complex
    kappa: int
    continuous: ContinuousSolution

    def x_plus(self, zeta):
        """Solution on D+ and its boundary, at one point or at a 1-D array of
        points; carries the zero factors."""
        c = cmath.exp(self.continuous.endpoint_log)
        out = _pointwise(lambda z, y: (c * zero_factor(self.problem, z)
                                       * omega_plus(self.problem, self.eta0, z) * y),
                         zeta, self.continuous(zeta, "plus"))
        return out if np.ndim(zeta) else complex(out[0])

    def x_minus(self, zeta):
        """Solution on D- and its boundary, at one point or at a 1-D array of
        points."""
        out = _pointwise(lambda z, y: omega_minus(self.problem, self.eta0, z) * y,
                         zeta, self.continuous(zeta, "minus"))
        return out if np.ndim(zeta) else complex(out[0])

    def boundary_residual(self, samples: np.ndarray) -> float:
        """sup over contour coordinates of |X+ - G X-| / (|X+| + |X-|)."""
        ts = np.asarray(samples, dtype=float)
        zeta = self.problem.contour_point(ts)
        xp, xm = self.x_plus(zeta), self.x_minus(zeta)
        g = _pointwise(self.problem.G, ts)
        return float(np.max(np.abs(xp - g * xm) / (np.abs(xp) + np.abs(xm)), initial=0.0))


def solve_scalar_bvp(p: ScalarBVProblem, half_width: float = 7.0,
                     M: int = 512) -> ScalarSolution:
    """Full pipeline: exponents, index, regularization, Cauchy transform."""
    p.validate()
    eta0, etainf = jump_exponents(p)
    kappa = index(eta0, etainf)
    if eta0 == 0:
        kappa = 0  # continuous boundary function: classical index-zero route
    G1 = regularize(p, eta0)
    cont = solve_continuous(G1, p.line_phase, p, half_width=half_width, M=M)
    return ScalarSolution(p, eta0, kappa, cont)


def verify_uniqueness(p: ScalarBVProblem, zeta0_alt: complex,
                      half_width: float = 16.0, M: int = 1024) -> float:
    """Solve with two base points in D+ and return the worst relative
    deviation of the solution ratio from a constant over off-contour samples.

    The alternative base point leaves the regularized jump with constant
    tails of opposite sign, which the paired halves cancel only as e^{-L};
    hence the wider default grid here.
    """
    if zeta0_alt == p.zeta0:
        return 0.0
    sol_a = solve_scalar_bvp(p, half_width, M)
    sol_b = solve_scalar_bvp(dataclasses.replace(p, zeta0=zeta0_alt), half_width, M)
    e_up = cmath.exp(1j * (p.line_phase + 0.5 * math.pi))
    e_dn = cmath.exp(1j * (p.line_phase - 0.5 * math.pi))
    up = [0.3 * e_up, 1.7 * e_up, 0.9 * e_up * cmath.exp(0.7j), 2.5 * e_up * cmath.exp(-0.5j)]
    dn = [0.4 * e_dn, 2.1 * e_dn, 1.1 * e_dn * cmath.exp(0.6j), 0.7 * e_dn * cmath.exp(-0.8j)]
    ratios = [sol_a.x_plus(z) / sol_b.x_plus(z) for z in up]
    ratios += [sol_a.x_minus(z) / sol_b.x_minus(z) for z in dn]
    c = ratios[0]
    return max(abs(r - c) / abs(c) for r in ratios)
