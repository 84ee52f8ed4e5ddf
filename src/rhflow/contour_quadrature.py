"""Ray quadrature for the symmetric Cauchy kernel.

Rays through the origin are parametrized as zeta' = e^(s + i phase), which
turns the measure dzeta'/zeta' into ds and places the peak of the
exponential integrands at s = 0.  A Cauchy integral over a ray has two
boundary values on the ray, the Plemelj pair (plus, minus), and one value
off it.  integrate_ray returns that pair at every point, the one value
twice off the ray, and band_limited_limits returns it at points on the
ray.  Off-ray values are plain trapezoid sums.  On the opposite
ray, zeta = -e^{s*} u, the kernel at the node e^{s_j} u is the real
tanh((s_j - s*)/2), the kernel c_cross of rh_solver's node operator between
its two rays, and it acts on the real and imaginary parts of the
densities; every other off-ray point takes the complex kernel.  On the
ray, band_limited_limits serves rh_solver's densities, which decay at both
grid ends: the principal value of their sinc interpolant is spectral, and
at the nodes it is the alternating-point rule.  Scalar densities may keep
constant tails, where sinc interpolation is first order, so integrate_ray,
which the scalar solution and the saddle comparison use, takes singularity
subtraction there: the closed-form principal value of the coth kernel plus
or minus the half-residue term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectrum_rays import EPS_ANGLE, RayDirection, _wrap


@dataclass(frozen=True)
class RayGrid:
    """Uniform trapezoid grid in the log coordinate along one ray."""

    direction: RayDirection
    nodes: np.ndarray      # s values, symmetric about 0
    weights: np.ndarray
    half_width: float
    count: int

    @classmethod
    def uniform(cls, direction: RayDirection, half_width: float, M: int) -> RayGrid:
        """M equally spaced nodes on [-half_width, half_width], trapezoid
        weights (half a step at the two ends)."""
        s = np.linspace(-half_width, half_width, M)
        w = np.full(M, s[1] - s[0])
        w[0] *= 0.5
        w[-1] *= 0.5
        return cls(direction, s, w, half_width, M)

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
    return RayGrid.uniform(direction, math.acosh(1.0 + target_tail / decay_scale), M)


def on_covered_ray(grid: RayGrid, zeta) -> np.ndarray:
    """True where zeta (a point or an array of points) lies on the grid ray,
    within the angular margin, and inside the covered range |s| <= L (a few
    ulps over L still count: log |e^(-L) unit| may round past -L)."""
    z = np.asarray(zeta, dtype=complex)
    with np.errstate(divide="ignore"):
        s = np.log(np.abs(z))
    rel = np.angle(z * np.conj(grid.direction.unit()))
    return (np.abs(rel) <= EPS_ANGLE) & (np.abs(s) <= grid.half_width * (1 + 1e-12))


def on_opposite_ray(grid: RayGrid, zeta) -> np.ndarray:
    """True where zeta (a point or an array of points) lies on the ray
    opposite the grid ray, within on_covered_ray's angular margin, at any
    radius."""
    z = np.asarray(zeta, dtype=complex)
    return np.abs(np.angle(-z * np.conj(grid.direction.unit()))) <= EPS_ANGLE


def pv_coth_closed_form(L: float, s, step: float):
    """PV integral of coth((t - s)/2) over [-L, L], at one pole s or at an
    array of poles.

    The pole is clipped half a step inside the grid so endpoint nodes,
    whose densities are at tail level anyway, stay finite.
    """
    sc = np.clip(s, -L + 0.5 * step, L - 0.5 * step)
    return 2.0 * (np.log(np.sinh(0.5 * (L - sc))) - np.log(np.sinh(0.5 * (L + sc))))


def band_limited_limits(grid: RayGrid, values: np.ndarray, zeta: np.ndarray):
    """Boundary values (plus, minus) = PV +/- 2 pi i h*, each (K, P), of the
    integral of K(zeta, .) times a (K, M) stack of densities at P points on
    the covered ray ("plus" from the counterclockwise side), for the sinc
    interpolant h*(s) = sum_j h_j sinc((s - s_j)/step) (Stenger 1993).  PV is
    the trapezoid sum times 1 - cos(pi (s_j - s)/step), 0 at a coincident
    node (a point within rounding of a node is at it): the alternating-point
    rule at the nodes (Sidi & Israeli 1988), the trapezoid sum at midpoints.
    """
    x = (np.log(np.abs(zeta)) + grid.half_width) / grid.step  # in steps from s_0
    n = np.rint(x)
    d = np.where(np.abs(x - n) <= 4 * np.spacing(float(grid.count)), 0.0, x - n)
    offset = np.arange(grid.count) - (n + d)[:, None]  # (s_j - s) / step
    # cos and sin of pi (s_j - s)/step are (-1)^(j + n) times those of -pi d:
    # P cosines and sines, not P x M, and exact at the nodes
    alt, sign = (-1.0) ** np.arange(grid.count), (-1.0) ** n  # (-1)^j, (-1)^n
    with np.errstate(divide="ignore", invalid="ignore"):
        kernel = grid.weights / np.tanh(0.5 * grid.step * offset)
        kernel *= 1.0 - alt * (sign * np.cos(math.pi * d))[:, None]
        sinc = alt * (sign * np.sin(math.pi * d) / -math.pi)[:, None] / offset
    kernel[offset == 0], sinc[offset == 0] = 0.0, 1.0
    h = np.asarray(values, dtype=complex)[:, None, :]  # row by row: batch-free
    pv = np.sum(kernel * h, axis=2)
    half_jump = 2j * math.pi * np.sum(sinc * h, axis=2)
    return pv + half_jump, pv - half_jump


def integrate_ray(grid: RayGrid, values: np.ndarray, zeta):
    """Trapezoid integral of K(zeta, .) times the sampled density, at one
    point or at a 1-D array of points, as the pair (plus, minus).

    values holds one density (shape (M,)) or a stack of K densities (shape
    (K, M)) on the grid; each element of the pair has the shape of zeta,
    with a leading axis of length K for a stack.  The geometry of the points
    (kernel rows, log radii, closed forms, derivative stencils,
    interpolation weights) is formed once per call and applied to each
    density in turn, so row k of a stacked result equals the call with
    values[k] bit for bit.

    The rule is chosen per point, so a point's value does not depend on the
    batch.  On the covered ray (on_covered_ray) the pair is the two boundary
    values, "plus" the limit from the counterclockwise side of the oriented
    ray (_covered_ray_limits).  Everywhere else the integral has one value,
    which both elements hold: on the opposite ray (on_opposite_ray: within
    the angular margin of -direction.unit(), at any radius) from the real
    kernel w_j tanh((s_j - s*)/2), s* = log |zeta|, on the real and
    imaginary parts of the density, one dot product per point; at every
    other point from the complex kernel w_j (zeta_j + zeta)/(zeta_j - zeta).
    On the ray beyond the grid coverage the kernel pole sits where the
    density is already at tail level, so that sum is regular; a node lies
    on the covered ray (|s| <= L), so no point reaching it is a node.
    """
    h = np.asarray(values, dtype=complex)
    if h.ndim not in (1, 2) or h.shape[-1] != grid.count:
        raise ValueError("density sampled on a different grid")
    rows = np.atleast_2d(h)
    z = np.asarray(zeta, dtype=complex)
    if z.ndim > 1:
        raise ValueError("evaluation points must be a point or a 1-D array")
    zs = np.atleast_1d(z)
    out = np.empty((2, len(rows), len(zs)), dtype=complex)  # (plus, minus)
    covered = on_covered_ray(grid, zs)
    opposite = on_opposite_ray(grid, zs)
    generic = ~(covered | opposite)
    if covered.any():
        out[:, :, covered] = _covered_ray_limits(grid, rows, zs[covered])
    if opposite.any():
        out[:, :, opposite] = _opposite_ray_sums(grid, rows, zs[opposite])
    if generic.any():
        out[:, :, generic] = _off_ray_sums(grid, rows, zs[generic])
    return _shaped(out[0], h, z), _shaped(out[1], h, z)


def _covered_ray_limits(grid: RayGrid, rows: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """(plus, minus), shape (2, K, P), at points on the covered ray: the
    principal value via subtraction of the density h* at the pole (the node
    value when the pole sits on a node, with the removable limit 2 h'(s)
    there from a derivative stencil; the interpolated density otherwise),
    plus or minus the half-residue 2 pi i h*.  The principal value and h*
    are formed once for both limits."""
    L, step = grid.half_width, grid.step
    s_star = np.log(np.abs(zs))
    i = np.rint((s_star + L) / step).astype(int)
    node = np.abs(grid.nodes[i] - s_star) < 1e-9 * step
    s_pole = np.where(node, grid.nodes[i], s_star)
    wcoth = np.subtract(grid.nodes, s_pole[:, None])  # in place from here on
    wcoth *= 0.5
    np.tanh(wcoth, out=wcoth)
    with np.errstate(divide="ignore"):
        np.divide(1.0, wcoth, out=wcoth)
    wcoth[node, i[node]] = 0.0
    wcoth *= grid.weights
    node_weights = grid.weights[i[node]] * 2.0
    # fourth-order derivative stencils at the pole nodes (shifted near the edges)
    j = np.clip(i[node], 2, grid.count - 3)
    stencils = np.zeros((len(j), grid.count))
    for off, c in ((-2, 1.0), (-1, -8.0), (1, 8.0), (2, -1.0)):
        stencils[np.arange(len(j)), j + off] += c / (12.0 * step)
    closed = pv_coth_closed_form(L, s_pole, step)
    idx, lagrange = _lagrange_weights(grid, s_star)
    out = np.empty((2, len(rows), len(zs)), dtype=complex)
    for k, hk in enumerate(rows):
        interpolated = sum(hk[idx[:, a]] * wa for a, wa in enumerate(lagrange))
        h_star = np.where(node, hk[i], interpolated)
        terms = hk - h_star[:, None]
        terms *= wcoth
        pv = terms.sum(axis=1)
        pv[node] += node_weights * np.sum(stencils * hk, axis=1)
        pv += h_star * closed
        half_jump = 2.0j * math.pi * h_star
        out[0, k] = pv + half_jump
        out[1, k] = pv - half_jump
    return out


def _off_ray_sums(grid: RayGrid, rows: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """(K, P) trapezoid sums of the complex kernel times each density row."""
    pts = grid.points()
    # in place: the (points x nodes) work arrays are the memory peak
    kernel = pts + zs[:, None]
    kernel /= pts - zs[:, None]
    kernel *= grid.weights
    out = np.empty((len(rows), len(zs)), dtype=complex)
    for k, hk in enumerate(rows):
        last = k == len(rows) - 1
        out[k] = np.multiply(kernel, hk, out=kernel if last else None).sum(axis=1)
    return out


def _opposite_ray_sums(grid: RayGrid, rows: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """(K, P) trapezoid sums at points on the opposite ray.  There
    zeta = -e^{s*} u, and the kernel (zeta' + zeta)/(zeta' - zeta) at
    zeta' = e^{s_j} u is the real tanh((s_j - s*)/2), rh_solver's c_cross
    kernel between the two rays: it acts on the real and imaginary parts of
    each weighted density, one dot product per point (batch-free)."""
    with np.errstate(divide="ignore"):
        half_s = 0.5 * np.log(np.abs(zs))
    kernel = np.subtract(0.5 * grid.nodes, half_s[:, None])
    np.tanh(kernel, out=kernel)
    out = np.empty((len(rows), len(zs)), dtype=complex)
    for k, hk in enumerate(rows):
        weighted = grid.weights * hk
        out[k].real = np.vecdot(kernel, weighted.real)
        out[k].imag = np.vecdot(kernel, weighted.imag)
    return out


def _shaped(out: np.ndarray, h: np.ndarray, z: np.ndarray):
    """The (K, P) per-density results in the shapes of the density and the
    points."""
    res = out[0] if h.ndim == 1 else out
    if z.ndim:
        return res
    return complex(res[0]) if h.ndim == 1 else res[:, 0]


def _lagrange_weights(grid: RayGrid, s: np.ndarray) -> tuple[np.ndarray, list]:
    """Stencil node indices (shape (P, 6)) and weights (six arrays of length
    P) of six-point Lagrange interpolation on the uniform grid at each of
    the points s."""
    j0 = np.clip(np.floor((s + grid.half_width) / grid.step).astype(int) - 2,
                 0, grid.count - 6)
    idx = j0[:, None] + np.arange(6)
    xs = grid.nodes[idx]
    weights = []
    for a in range(6):
        num, den = np.ones(len(s)), np.ones(len(s))
        for b in range(6):
            if a == b:
                continue
            num *= s - xs[:, b]
            den *= xs[:, a] - xs[:, b]
        weights.append(num / den)
    return idx, weights


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
    term sweep_sign * 4 pi i * h(zeta).  A zeta on the target ray is not
    crossed: the integral there is the limit from the side outside the
    swept sector, the counterclockwise ("plus") one for a counterclockwise
    sweep.
    """
    to_dir = to_grid.direction
    if to_dir.angle_to(from_dir) > math.pi - EPS_ANGLE:
        raise ValueError("rays are anti-parallel; the swept sector is ambiguous")
    h = np.array([h_analytic(z) for z in to_grid.points()], dtype=complex)
    plus, minus = integrate_ray(to_grid, h, zeta)
    integral = plus if sweep_sign(from_dir, to_dir) > 0 else minus
    return integral, in_swept_sector(zeta, from_dir, to_dir)
