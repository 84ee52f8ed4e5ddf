"""Ray quadrature for the symmetric Cauchy kernel.

Rays through the origin are parametrized as zeta' = e^(s + i phase), which
turns the measure dzeta'/zeta' into ds and places the peak of the
exponential integrands at s = 0.  A Cauchy integral over a ray has two
boundary values on the ray, the Plemelj pair (plus, minus), and one value
off it.  integrate_ray returns that pair at every point, the one value
twice off the ray.  On the covered ray it takes band_limited_limits: the
principal value of the density's sinc interpolant, spectral for densities
that decay at both grid ends (rh_solver's, and scalar_bvp's once it has
taken out their constant tails), which at the nodes is the
alternating-point rule.  Off-ray values are plain trapezoid sums.  On the
opposite ray, zeta = -e^{s*} u, the kernel at the node e^{s_j} u is the
real tanh((s_j - s*)/2), the kernel c_cross of rh_solver's node operator
between its two rays, and it acts on the real and imaginary parts of the
densities; every other off-ray point takes the complex kernel.
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


def band_limited_limits(grid: RayGrid, values: np.ndarray, zeta: np.ndarray):
    """Boundary values (plus, minus) = PV +/- 2 pi i h*, each (K, P), of the
    integral of K(zeta, .) times a (K, M) stack of densities at P points on
    the covered ray ("plus" from the counterclockwise side), for the sinc
    interpolant h*(s) = sum_j h_j sinc((s - s_j)/step) (Stenger 1993).  PV is
    the trapezoid sum times 1 - cos(pi (s_j - s)/step): the alternating-point
    rule at the nodes (Sidi & Israeli 1988), the trapezoid sum at midpoints.
    A point within rounding of a node is at it, where h* is the node value.
    """
    M = grid.count
    x = (np.log(np.abs(zeta)) + grid.half_width) / grid.step  # in steps from s_0
    n = np.rint(x)
    d = np.where(np.abs(x - n) <= 4 * np.spacing(float(M)), 0.0, x - n)
    node = np.flatnonzero(d == 0)
    hit = n[node].astype(int)
    # coth((s_j - s)/2) = coth(a - b), a = (j - n) step/2, b = d step/2, is
    # -T_b + (1 - T_b^2)/(T_a - T_b), T = tanh: a Cauchy matrix from 2M - 1
    # values T_a; |b| <= step/4, so T_a - T_b does not cancel.  One block for
    # both kernels: as two (P, M) arrays malloc mapped them afresh every call
    t_all = np.tanh(0.5 * grid.step * np.arange(1 - M, M))
    t_b = np.tanh(0.5 * grid.step * d)
    kernels = np.empty((2, len(zeta), M))  # 1/(T_a - T_b) and step/(s_j - s)
    cauchy, inverse = kernels
    t_a = np.lib.stride_tricks.sliding_window_view(t_all, M)[(M - 1 - n).astype(int)]
    np.subtract(t_a, t_b[:, None], out=cauchy)
    np.subtract(np.arange(M), (n + d)[:, None], out=inverse)
    with np.errstate(divide="ignore"):
        np.divide(1.0, kernels, out=kernels)
    kernels[:, node, hit] = 0.0
    # cos, sin of pi (s_j - s)/step are (-1)^(j + n) those of -pi d: with alt = (-1)^j,
    # PV = coth (w h) - cos_n coth (alt w h) and 2 pi i h* = i sin_n (1/offset) (alt h)
    cos_n, sin_n = (-1.0) ** n * np.cos(math.pi * d), -2.0 * (-1.0) ** n * np.sin(math.pi * d)
    alt = (-1.0) ** np.arange(M)
    out = np.empty((2, len(values), len(zeta)), dtype=complex)
    for k, hk in enumerate(np.asarray(values, dtype=complex)):  # row by row: batch-free
        wh = grid.weights * hk
        awh = alt * wh
        pv = ((1.0 - t_b * t_b) * (_real_dot(cauchy, wh) - cos_n * _real_dot(cauchy, awh))
              - t_b * (wh.sum() - cos_n * awh.sum()))
        half_jump = 1j * sin_n * _real_dot(inverse, alt * hk)
        half_jump[node] = 2j * math.pi * hk[hit]  # the delta at a node
        out[:, k] = pv + half_jump, pv - half_jump
    return out[0], out[1]


def _real_dot(kernel: np.ndarray, h: np.ndarray) -> np.ndarray:
    """(P,) products of a real (P, M) kernel with a complex density, row by
    row (contiguous parts: a strided one makes vecdot several times slower)."""
    out = np.empty(len(kernel), dtype=complex)
    out.real = np.vecdot(kernel, np.ascontiguousarray(h.real))
    out.imag = np.vecdot(kernel, np.ascontiguousarray(h.imag))
    return out


def integrate_ray(grid: RayGrid, values: np.ndarray, zeta):
    """Trapezoid integral of K(zeta, .) times the sampled density, at one
    point or at a 1-D array of points, as the pair (plus, minus).

    values holds one density (shape (M,)) or a stack of K densities (shape
    (K, M)) on the grid; each element of the pair has the shape of zeta,
    with a leading axis of length K for a stack.  The kernel rows of the
    points are formed once per call and applied to each density in turn,
    so row k of a stacked result equals the call with values[k] bit for bit.

    The rule is chosen per point, so a point's value does not depend on the
    batch.  On the covered ray (on_covered_ray) the pair is the two boundary
    values of band_limited_limits, "plus" the limit from the
    counterclockwise side of the oriented ray: spectral where the density
    decays at both grid ends.  Everywhere else the integral has one value,
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
        out[:, :, covered] = band_limited_limits(grid, rows, zs[covered])
    if opposite.any():
        out[:, :, opposite] = _opposite_ray_sums(grid, rows, zs[opposite])
    if generic.any():
        out[:, :, generic] = _off_ray_sums(grid, rows, zs[generic])
    return _shaped(out[0], h, z), _shaped(out[1], h, z)


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
    return np.array([_real_dot(kernel, grid.weights * hk) for hk in rows])


def _shaped(out: np.ndarray, h: np.ndarray, z: np.ndarray):
    """The (K, P) per-density results in the shapes of the density and the
    points."""
    res = out[0] if h.ndim == 1 else out
    if z.ndim:
        return res
    return complex(res[0]) if h.ndim == 1 else res[:, 0]


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
