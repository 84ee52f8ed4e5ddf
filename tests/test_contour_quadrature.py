import cmath
import math

import numpy as np
import pytest

from rhflow.charge_lattice import Charge, pentagon_spectrum
from rhflow.contour_quadrature import (band_limited_limits, build_ray_grid,
                                       deform_to_bps_ray,
                                       in_swept_sector, integrate_ray,
                                       on_covered_ray, on_opposite_ray,
                                       sweep_sign)
from rhflow.rh_solver import SolverConfig, init_state
from rhflow.scalar_bvp import contour_nodes, solve_continuous
from rhflow.spectrum_rays import CentralCharge, RayDirection, bps_ray, semiflat


def grid_on(phase, decay, M=128, tail=40.0):
    return build_ray_grid(RayDirection(phase), decay, M, tail)


def test_grid_half_width():
    g = grid_on(0.0, 2 * math.pi, M=64, tail=40.0)
    assert g.half_width == pytest.approx(math.acosh(1 + 40 / (2 * math.pi)), rel=1e-12)
    assert g.count == 64
    assert g.nodes[0] == -g.nodes[-1]
    assert g.step == pytest.approx(2 * g.half_width / 63)


def test_grid_weights_sum_to_width():
    g = grid_on(1.0, 5.0)
    assert np.sum(g.weights) == pytest.approx(2 * g.half_width)


def test_grid_rejects_bad_inputs():
    with pytest.raises(ValueError, match="decay"):
        grid_on(0.0, 0.0)
    with pytest.raises(ValueError, match="even"):
        build_ray_grid(RayDirection(0.0), 1.0, 65, 40.0)
    with pytest.raises(ValueError, match="even"):
        build_ray_grid(RayDirection(0.0), 1.0, 8, 40.0)


def test_on_covered_ray():
    g = grid_on(0.5, 3.0)
    assert on_covered_ray(g, 2.0 * cmath.exp(0.5j))
    assert not on_covered_ray(g, 2.0 * cmath.exp(0.6j))
    beyond = math.exp(g.half_width + 0.1) * cmath.exp(0.5j)
    assert list(on_covered_ray(g, np.array([2.0 * cmath.exp(0.5j), beyond, 0.0]))) == [
        True, False, False]


def test_zero_density_integrates_to_zero():
    g = grid_on(0.0, 2 * math.pi)
    h = np.zeros(g.count)
    assert integrate_ray(g, h, 2.0j) == (0, 0)
    assert integrate_ray(g, h, 1.0) == (0, 0)


def test_plemelj_jump_is_exact():
    g = grid_on(0.0, 2 * math.pi)
    h = np.exp(-2 * math.pi * np.cosh(g.nodes)) * np.exp(0.3j * g.nodes)
    zeta = math.exp(g.nodes[g.count // 2 + 3])
    plus, minus = integrate_ray(g, h, zeta)
    i = g.count // 2 + 3
    assert plus - minus == pytest.approx(4j * math.pi * h[i], rel=1e-12)


def test_quadrature_self_convergence():
    # doubling the node count moves a smooth off-ray integral below 1e-10
    decay = 2 * math.pi
    vals = {}
    for M in (128, 256):
        g = grid_on(0.0, decay, M=M)
        h = np.exp(-decay * np.cosh(g.nodes)) * np.exp(0.7j * np.sinh(g.nodes))
        vals[M] = integrate_ray(g, h, 0.4 + 1.1j)[0]
    assert abs(vals[128] - vals[256]) / abs(vals[256]) < 1e-10


def test_pv_against_offset_grid_oracle():
    # independent principal value: midpoint nodes straddle the pole, so the
    # odd kernel needs no special handling there
    decay = 3.0
    g = grid_on(0.0, decay, M=256)

    def dens(s):
        return np.exp(-decay * np.cosh(s)) * np.exp(0.2j * np.sinh(s))

    i = g.count // 2 + 6
    si = g.nodes[i]
    plus, _ = integrate_ray(g, dens(g.nodes), math.exp(si))
    pv = plus - 2j * math.pi * dens(np.array([si]))[0]

    M2 = 8192
    mid = np.linspace(-g.half_width, g.half_width, M2 + 1)
    mid = 0.5 * (mid[1:] + mid[:-1])
    # shift the oracle grid so the pole is exactly between two nodes
    shift = si - mid[np.argmin(np.abs(mid - si))] + 0.5 * (mid[1] - mid[0])
    mid = mid + shift
    w = np.full(M2, mid[1] - mid[0])
    kern = 1.0 / np.tanh(0.5 * (mid - si))
    oracle = np.sum(w * kern * dens(mid))
    assert pv == pytest.approx(oracle, rel=2e-6)


def test_sweep_sign_and_sector():
    r = RayDirection(math.pi)
    ell = RayDirection(1.25 * math.pi)
    assert sweep_sign(r, ell) == 1
    assert sweep_sign(ell, r) == -1
    inside = cmath.exp(1.1j * math.pi)
    outside = cmath.exp(0.5j * math.pi)
    assert in_swept_sector(inside, r, ell)
    assert not in_swept_sector(outside, r, ell)


class TestDeformation:
    """Moving a single-charge integral from the contour ray to its own ray."""

    R = 6.0
    Z = CentralCharge.constant(1.0, 1j)
    theta = (0.7, 1.3)

    def setup_method(self):
        g = Charge(0, 1)  # ray at 3pi/2; contour ray r at 5pi/4
        self.gamma = g
        self.r = RayDirection(-0.75 * math.pi)
        self.ell = bps_ray(self.Z, g, 0.0)
        ang = self.ell.angle_to(self.r)
        decay_r = 2 * math.pi * self.R * abs(self.Z.of(g, 0.0)) * math.cos(ang)
        decay_ell = 2 * math.pi * self.R * abs(self.Z.of(g, 0.0))
        self.grid_r = build_ray_grid(self.r, decay_r, 256, 40.0)
        self.grid_ell = build_ray_grid(self.ell, decay_ell, 256, 40.0)

    def h(self, zp):
        # scaled by e^{2 pi R |Z|}: the identities are linear in h, and at
        # R = 6 the unscaled density and its integrals are below 1e-14
        scale = math.exp(2 * math.pi * self.R * abs(self.Z.of(self.gamma, 0.0)))
        return scale * semiflat(self.Z, self.gamma, 0.0, self.theta, zp, self.R)

    def test_residue_applies_inside_sector(self):
        zeta = cmath.exp(1j * (self.ell.phase + self.r.phase) / 2)  # mid-sector
        i_r, _ = integrate_ray(self.grid_r, np.array([self.h(z) for z in self.grid_r.points()]),
                               zeta)
        i_ell, crossed = deform_to_bps_ray(zeta, self.r, self.grid_ell, self.h)
        assert crossed
        term = sweep_sign(self.r, self.ell) * 4j * math.pi * self.h(zeta)
        assert i_r == pytest.approx(i_ell + term, rel=1e-8, abs=0)

    def test_no_residue_outside_sector(self):
        zeta = 0.8 * cmath.exp(1j * (self.r.phase - 0.4))
        i_r, _ = integrate_ray(self.grid_r, np.array([self.h(z) for z in self.grid_r.points()]),
                               zeta)
        i_ell, crossed = deform_to_bps_ray(zeta, self.r, self.grid_ell, self.h)
        assert not crossed
        assert i_r == pytest.approx(i_ell, rel=1e-8, abs=0)

    def test_same_ray_is_identity(self):
        zeta = 0.5 * cmath.exp(1j * (self.r.phase + 1.0))
        i_direct, _ = integrate_ray(self.grid_ell,
                                    np.array([self.h(z) for z in self.grid_ell.points()]),
                                    zeta)
        i_ell, crossed = deform_to_bps_ray(zeta, self.ell, self.grid_ell, self.h)
        assert not crossed
        assert i_ell == i_direct

    def test_a_point_on_the_target_ray_takes_the_limit_from_outside_the_sector(self):
        # the pole on the target ray is not crossed: the integral along a
        # source ray on either side of it is the limit from that side.  The
        # band-limited rule on the target ray is spectral for this decaying
        # density (a few 1e-12 here); the wrong limit is off by
        # 4 pi |h(zeta)|, about 1
        zeta = 1.3 * self.ell.unit()
        other = RayDirection(2 * self.ell.phase - self.r.phase)  # r mirrored in ell
        decay = 2 * math.pi * self.R * abs(self.Z.of(self.gamma, 0.0)) * math.cos(
            self.ell.angle_to(self.r))
        limits = []
        for source in (self.r, other):
            grid = build_ray_grid(source, decay, 256, 40.0)
            i_source, _ = integrate_ray(grid, np.array([self.h(z) for z in grid.points()]),
                                        zeta)
            i_ell, crossed = deform_to_bps_ray(zeta, source, self.grid_ell, self.h)
            assert not crossed
            assert i_source == pytest.approx(i_ell, rel=1e-10, abs=0)
            limits.append(i_ell)
        # the two sources see the two limits, 4 pi i h(zeta) apart
        assert sweep_sign(self.r, self.ell) == -sweep_sign(other, self.ell)
        jump = sweep_sign(self.r, self.ell) * (limits[0] - limits[1])
        assert jump == pytest.approx(4j * math.pi * self.h(zeta), rel=1e-8, abs=0)

    def test_antiparallel_rejected(self):
        with pytest.raises(ValueError, match="anti-parallel"):
            deform_to_bps_ray(1.0j, self.ell.opposite(), self.grid_ell, self.h)


# ---------------- evaluation on arrays of points ----------------

def _rh_half():
    cfg = SolverConfig(R=1.0, a=0.0, theta=(0.7, 1.3), spectrum=pentagon_spectrum(),
                       Z=CentralCharge.constant(1.0, 1j))
    state = init_state(cfg)
    return state.problem.grids[+1], state.densities[+1][:, 0]


def _scalar_half():
    t = contour_nodes(7.0, 256)
    sol = solve_continuous(np.exp(0.2 * np.exp(-np.log(np.abs(t)) ** 2) + 0j),
                           0.3, half_width=7.0, M=256)
    return sol.grids[1], sol.log_density[1]


@pytest.mark.parametrize("half", [_rh_half, _scalar_half], ids=["rh", "scalar"])
def test_every_node_takes_the_covered_ray_rule(half):
    # the off-ray sum divides by (node - zeta), so every node, the end nodes
    # included, must take the boundary rule: a finite pair whose difference
    # is Plemelj's 4 pi i h_j
    g, h = half()
    plus, minus = integrate_ray(g, h, g.points())
    assert np.all(np.isfinite(plus)) and np.all(np.isfinite(minus))
    scale = np.max(np.abs(plus)) + np.max(np.abs(h))
    assert np.max(np.abs(plus - minus - 4j * math.pi * h)) <= 1e-14 * scale


def _batch_points(g):
    """Points on the covered ray at nodes and between them, and off it."""
    u = g.direction.unit()
    on_nodes = np.exp(g.nodes[[1, 5, g.count // 2, g.count - 2]]) * u
    between = np.exp(0.5 * (g.nodes[[1, 40, 77]] + g.nodes[[2, 41, 78]])) * u
    off = np.array([0.4 + 1.1j, -2.0 + 0.3j, 0.05j, 30.0 * u * 1j,
                    math.exp(g.half_width + 1.0) * u])
    return np.concatenate([on_nodes, off[:2], between, off[2:]])


@pytest.mark.parametrize("half", [_rh_half, _scalar_half], ids=["rh", "scalar"])
def test_array_evaluation_matches_single_points_bit_for_bit(half):
    g, h = half()
    pts = _batch_points(g)
    batched = np.array(integrate_ray(g, h, pts))
    single = np.array([integrate_ray(g, h, complex(z)) for z in pts]).T
    assert batched.shape == (2, len(pts))
    assert np.array_equal(batched, single)


@pytest.mark.parametrize("half", [_rh_half, _scalar_half], ids=["rh", "scalar"])
def test_stacked_densities_match_single_densities_bit_for_bit(half):
    g, h = half()
    stack = np.stack([h, (0.3 - 1.1j) * h[::-1], h.conj()])
    strided = np.ascontiguousarray(stack.T).T  # rows as evaluate_theta passes them
    pts = _batch_points(g)
    single = np.array([integrate_ray(g, row, pts) for row in stack]).swapaxes(0, 1)
    for values in (stack, strided):
        batched = np.array(integrate_ray(g, values, pts))
        assert batched.shape == (2, 3, len(pts))
        assert np.array_equal(batched, single)
    for k in (1, 5):  # on the ray and off it
        one_point = np.array(integrate_ray(g, stack, complex(pts[k])))
        assert one_point.shape == (2, 3)
        assert np.array_equal(one_point, single[:, :, k])


def _dense_off_ray(g, values, zeta):
    """The trapezoid sums with the complex kernel formed point by point,
    and the sums of the terms' magnitudes, each (K, P)."""
    pts = g.points()
    kernel = (pts + zeta[:, None]) / (pts - zeta[:, None]) * g.weights
    terms = np.atleast_2d(values)[:, None, :] * kernel
    return terms.sum(axis=2), np.abs(terms).sum(axis=2)


def _opposite_points(g):
    # on the opposite ray at nodes, midpoints and beyond |s| <= L on both ends
    s = np.concatenate([g.nodes[[0, 1, 7, g.count // 2, g.count - 1]],
                        0.5 * (g.nodes[[3, 50]] + g.nodes[[4, 51]]),
                        [g.half_width + 0.5, -g.half_width - 2.0, 3.0 * g.half_width]])
    return -np.exp(s) * g.direction.unit()


@pytest.mark.parametrize("half", [_rh_half, _scalar_half], ids=["rh", "scalar"])
def test_opposite_ray_matches_the_complex_kernel(half):
    # zeta = -e^{s*} u turns the kernel into the real tanh((s_j - s*)/2)
    g, h = half()
    pts = _opposite_points(g)
    assert np.all(on_opposite_ray(g, pts))
    for values in (h, np.stack([h, (0.3 - 1.1j) * h[::-1]])):
        want, scale = _dense_off_ray(g, values, pts)
        for got in integrate_ray(g, values, pts):
            assert np.max(np.abs(np.atleast_2d(got) - want) / scale) <= 1e-15


@pytest.mark.parametrize("half", [_rh_half, _scalar_half], ids=["rh", "scalar"])
def test_opposite_and_generic_points_in_one_batch_match_single_points_bit_for_bit(half):
    g, h = half()
    u = g.direction.unit()
    opposite = _opposite_points(g)
    generic = np.array([0.4 + 1.1j, -2.0 + 0.3j, 30.0 * u * 1j,
                        math.exp(g.half_width + 1.0) * u])
    c = g.count // 2
    covered = np.exp(np.array([g.nodes[c - 5], 0.5 * (g.nodes[c + 7] + g.nodes[c + 8])])) * u
    pts = np.concatenate([opposite[:4], covered[:1], generic[:2], opposite[4:],
                          covered[1:], generic[2:]])
    on = on_covered_ray(g, pts)
    assert on.sum() == 2
    stack = np.stack([h, (0.3 - 1.1j) * h[::-1]])
    for values in (h, stack):
        plus, minus = integrate_ray(g, values, pts)
        for batched, single in ((plus, [integrate_ray(g, values, complex(z))[0] for z in pts]),
                                (minus, [integrate_ray(g, values, complex(z))[1] for z in pts])):
            assert np.array_equal(batched, np.stack(single, axis=-1))
        # one value off the covered ray, two limits on it
        assert np.array_equal(plus[..., ~on], minus[..., ~on])
        assert np.all(plus[..., on] != minus[..., on])


@pytest.mark.parametrize("half", [_rh_half, _scalar_half], ids=["rh", "scalar"])
def test_a_point_just_off_the_opposite_ray_keeps_the_complex_kernel(half):
    g, h = half()
    on = _opposite_points(g)[[2, 5]]
    near = on * cmath.exp(1e-6j)
    assert not np.any(on_opposite_ray(g, near))
    got, _ = integrate_ray(g, h, near)
    want, scale = _dense_off_ray(g, h, near)
    assert np.max(np.abs(got - want[0]) / scale[0]) <= 1e-15
    # the rotation is resolved, not snapped onto the opposite ray
    assert np.min(np.abs(got - integrate_ray(g, h, on)[0]) / scale[0]) > 1e-10


def test_stacked_densities_on_a_different_grid_are_rejected():
    g, h = _rh_half()
    for bad in (np.stack([h[:-1], h[:-1]]), h[None, None, :]):
        with pytest.raises(ValueError, match="different grid"):
            integrate_ray(g, bad, 0.4 + 1.1j)


def test_band_limited_limits_are_one_rule_at_nodes_and_midpoints():
    # at the nodes the alternating-point rule, 2 w_j coth((s_j - s_i)/2) at
    # odd j - i, rebuilt densely from the offsets (j - i) step; at the
    # midpoints the plain trapezoid sum
    g, h = _rh_half()
    stack = np.stack([h, (0.3 - 1.1j) * h[::-1]])
    k = np.subtract.outer(np.arange(g.count), np.arange(g.count)).T  # j - i
    with np.errstate(divide="ignore"):
        alternating = np.where(k % 2 == 1, 2.0 / np.tanh(0.5 * g.step * k), 0.0)
    pv = stack @ (alternating * g.weights).T
    plus, minus = band_limited_limits(g, stack, g.points())
    for got, want in ((plus, pv + 2j * math.pi * stack), (minus, pv - 2j * math.pi * stack)):
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    mids = 0.5 * (g.nodes[:-1] + g.nodes[1:])
    plus, minus = band_limited_limits(g, stack, np.exp(mids) * g.direction.unit())
    trapezoid = stack @ (g.weights / np.tanh(0.5 * (g.nodes - mids[:, None]))).T
    assert np.max(np.abs(0.5 * (plus + minus) - trapezoid)) <= 1e-14 * np.max(np.abs(trapezoid))
