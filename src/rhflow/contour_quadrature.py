"""Ray quadrature for the symmetric Cauchy kernel.

Rays through the origin are parametrized as zeta' = e^(s + i phase), which
turns the measure dzeta'/zeta' into ds and places the peak of the
exponential integrands at s = 0.  Off-ray values are plain trapezoid sums;
boundary values on the integration ray use singularity subtraction with the
closed-form principal value of the coth kernel plus the half-residue term
of the chosen side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularKernelError
from .spectrum_rays import EPS_ANGLE, RayDirection, _wrap


@dataclass(frozen=True)
class RayGrid:
    """Uniform trapezoid grid in the log coordinate along one ray."""

    direction: RayDirection
    nodes: np.ndarray      # s values, symmetric about 0
    weights: np.ndarray
    half_width: float
    count: int

    def points(self) -> np.ndarray:
        return np.exp(self.nodes) * self.direction.unit()

    @property
    def step(self) -> float:
        return 2.0 * self.half_width / (self.count - 1)


def build_ray_grid(direction: RayDirection, decay_scale: float, M: int,
                   target_tail: float) -> RayGrid:
    """Grid wide enough that the slowest integrand tail is e^(-target_tail)
    relative to its peak: e^(-decay (cosh L - 1)) = e^(-target_tail)."""
    if decay_scale <= 0:
        raise ValueError(
            f"no exponential decay along the ray (decay scale {decay_scale:g}); "
            "the ray geometry is not acute"
        )
    if M < 16 or M % 2:
        raise ValueError("node count must be even and at least 16")
    if target_tail <= 0:
        raise ValueError("target tail must be positive")
    L = math.acosh(1.0 + target_tail / decay_scale)
    s = np.linspace(-L, L, M)
    w = np.full(M, s[1] - s[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    return RayGrid(direction, s, w, L, M)


def cauchy_kernel(zeta: complex, zeta_p: complex) -> complex:
    """(zeta' + zeta) / (zeta' - zeta); the dzeta'/zeta' factor is carried
    by the log parametrization of the grids."""
    if zeta_p == zeta:
        raise SingularKernelError("kernel evaluated at coincident points")
    return (zeta_p + zeta) / (zeta_p - zeta)


def on_covered_ray(grid: RayGrid, zeta) -> np.ndarray:
    """True where zeta (a point or an array of points) lies on the grid ray,
    within the angular margin, and inside the covered range |s| <= L."""
    z = np.asarray(zeta, dtype=complex)
    with np.errstate(divide="ignore"):
        s = np.log(np.abs(z))
    rel = np.angle(z * np.conj(grid.direction.unit()))
    return (np.abs(rel) <= EPS_ANGLE) & (np.abs(s) <= grid.half_width)


def pv_coth_closed_form(L: float, s: float, step: float) -> float:
    """PV integral of coth((t - s)/2) over [-L, L].

    The pole is clipped half a step inside the grid so endpoint nodes,
    whose densities are at tail level anyway, stay finite.
    """
    sc = min(max(s, -L + 0.5 * step), L - 0.5 * step)
    return 2.0 * (math.log(math.sinh(0.5 * (L - sc))) -
                  math.log(math.sinh(0.5 * (L + sc))))


def _derivative_rows(M: int, idx: np.ndarray, step: float) -> np.ndarray:
    """Fourth-order central first-derivative stencils at the nodes idx, one
    row each (shifted near the edges, where the integrands are at tail
    level)."""
    j = np.clip(idx, 2, M - 3)
    rows = np.zeros((len(j), M))
    for off, c in ((-2, 1.0), (-1, -8.0), (1, 8.0), (2, -1.0)):
        rows[np.arange(len(j)), j + off] += c / (12.0 * step)
    return rows


def integrate_ray(grid: RayGrid, values: np.ndarray, zeta, side: str = "off"):
    """Trapezoid integral of K(zeta, .) times the sampled density, at one
    point (returns a complex) or at a 1-D array of points (returns an array).

    side="off" requires every zeta away from the covered ray.
    side="plus"/"minus" evaluates boundary values on the covered ray: the
    principal value via subtraction of the density at the pole (the node
    value when the pole sits on a node, with the removable limit 2 h'(s)
    there from a derivative stencil; the interpolated density otherwise),
    plus the half-residue +/- 2 pi i times that density; "plus" is the limit
    from the counterclockwise side of the oriented ray.
    """
    h = np.asarray(values, dtype=complex)
    if h.shape != grid.nodes.shape:
        raise ValueError("density sampled on a different grid")
    z = np.asarray(zeta, dtype=complex)
    if z.ndim > 1:
        raise ValueError("evaluation points must be a point or a 1-D array")
    zs = np.atleast_1d(z)
    if side == "off":
        if np.any(on_covered_ray(grid, zs)):
            raise SingularKernelError(
                "evaluation point lies on the covered part of the integration "
                "ray; use side='plus' or side='minus'"
            )
        # on the ray beyond the grid coverage the kernel pole sits where the
        # density is already at tail level; the sum below is regular
        pts = grid.points()
        diff = pts - zs[:, None]
        if np.any(diff == 0):
            raise SingularKernelError("evaluation point coincides with a grid node")
        # in place: the (points x nodes) work arrays are the memory peak
        terms = pts + zs[:, None]
        terms /= diff
        terms *= grid.weights
        terms *= h
        out = terms.sum(axis=1)
        return out if z.ndim else complex(out[0])
    if side not in ("plus", "minus"):
        raise ValueError("side must be 'off', 'plus' or 'minus'")
    if not np.all(on_covered_ray(grid, zs)):
        raise SingularKernelError("boundary value requested off the covered ray")
    L, step = grid.half_width, grid.step
    # log radii and closed forms per point in scalar math: numpy's vectorised
    # log rounds differently from libm's on some inputs, and the node
    # operator of rh_solver and the written artifacts use libm's
    s_star = np.array([math.log(abs(p)) for p in zs.tolist()], dtype=float)
    i = np.rint((s_star + L) / step).astype(int)
    node = np.abs(grid.nodes[i] - s_star) < 1e-9 * step
    s_pole = np.where(node, grid.nodes[i], s_star)
    h_star = np.where(node, h[i], _interpolate(grid, h, s_star))
    wcoth = np.tanh(0.5 * (grid.nodes - s_pole[:, None]))
    with np.errstate(divide="ignore"):
        np.divide(1.0, wcoth, out=wcoth)
    wcoth[node, i[node]] = 0.0
    wcoth *= grid.weights
    terms = h - h_star[:, None]
    terms *= wcoth
    pv = terms.sum(axis=1)
    pv[node] += (grid.weights[i[node]] * 2.0
                 * np.sum(_derivative_rows(grid.count, i[node], step) * h, axis=1))
    pv += h_star * np.array([pv_coth_closed_form(L, p, step) for p in s_pole.tolist()],
                            dtype=float)
    half_jump = 2.0j * math.pi * h_star
    out = pv + half_jump if side == "plus" else pv - half_jump
    return out if z.ndim else complex(out[0])


def _interpolate(grid: RayGrid, h: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Six-point Lagrange interpolation of a smooth density on the uniform
    grid, at each of the points s."""
    j0 = np.clip(np.floor((s + grid.half_width) / grid.step).astype(int) - 2,
                 0, grid.count - 6)
    idx = j0[:, None] + np.arange(6)
    xs = grid.nodes[idx]
    out = np.zeros(len(s), dtype=complex)
    for a in range(6):
        num, den = np.ones(len(s)), np.ones(len(s))
        for b in range(6):
            if a == b:
                continue
            num *= s - xs[:, b]
            den *= xs[:, a] - xs[:, b]
        out += h[idx[:, a]] * (num / den)
    return out


def sweep_sign(from_dir: RayDirection, to_dir: RayDirection) -> int:
    """+1 if the sweep from one ray to the other is counterclockwise."""
    delta = _wrap(to_dir.phase - from_dir.phase)
    return 1 if delta > 0 else -1


def in_swept_sector(zeta: complex, from_dir: RayDirection,
                    to_dir: RayDirection) -> bool:
    """True iff zeta lies strictly inside the open sector swept from one
    ray to the other (the short way)."""
    delta = _wrap(to_dir.phase - from_dir.phase)
    rel = _wrap(math.atan2(zeta.imag, zeta.real) - from_dir.phase)
    if delta > 0:
        return EPS_ANGLE < rel < delta - EPS_ANGLE
    return delta + EPS_ANGLE < rel < -EPS_ANGLE


def deform_to_bps_ray(zeta: complex, from_dir: RayDirection, to_grid: RayGrid,
                      h_analytic) -> tuple[complex, bool]:
    """Integral moved from one ray to another across a sector where the
    integrand is analytic.

    Returns the integral along the target grid's ray and whether the kernel
    pole at zeta was crossed, in which case the caller owes the residue
    term sweep_sign * 4 pi i * h(zeta).
    """
    to_dir = to_grid.direction
    if to_dir.angle_to(from_dir) > math.pi - EPS_ANGLE:
        raise ValueError("rays are anti-parallel; the swept sector is ambiguous")
    h = np.array([h_analytic(z) for z in to_grid.points()], dtype=complex)
    integral = integrate_ray(to_grid, h, zeta, side="off")
    return integral, in_swept_sector(zeta, from_dir, to_dir)
