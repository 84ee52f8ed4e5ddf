import cmath
import math

import numpy as np
import pytest

from rhflow.charge_lattice import Charge, pentagon_spectrum
from rhflow.contour_quadrature import (band_limited_limits, build_ray_grid,
                                       deform_to_bps_ray,
                                       in_swept_sector, integrate_ray,
                                       on_covered_ray, pv_coth_closed_form,
                                       sweep_sign)
from rhflow.errors import SingularKernelError
from rhflow.rh_solver import SolverConfig, init_state
from rhflow.scalar_bvp import ScalarBVProblem, solve_continuous
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
    assert integrate_ray(g, h, 2.0j, side="off") == 0
    assert integrate_ray(g, h, 1.0, side="plus") == 0
    assert integrate_ray(g, h, 1.0, side="minus") == 0


def test_off_side_on_ray_rejected():
    g = grid_on(0.0, 2 * math.pi)
    with pytest.raises(SingularKernelError):
        integrate_ray(g, np.ones(g.count), 1.3, side="off")


def test_plemelj_jump_is_exact():
    g = grid_on(0.0, 2 * math.pi)
    h = np.exp(-2 * math.pi * np.cosh(g.nodes)) * np.exp(0.3j * g.nodes)
    zeta = math.exp(g.nodes[g.count // 2 + 3])
    plus = integrate_ray(g, h, zeta, side="plus")
    minus = integrate_ray(g, h, zeta, side="minus")
    i = g.count // 2 + 3
    assert plus - minus == pytest.approx(4j * math.pi * h[i], rel=1e-12)


def test_quadrature_self_convergence():
    # doubling the node count moves a smooth off-ray integral below 1e-10
    decay = 2 * math.pi
    vals = {}
    for M in (128, 256):
        g = grid_on(0.0, decay, M=M)
        h = np.exp(-decay * np.cosh(g.nodes)) * np.exp(0.7j * np.sinh(g.nodes))
        vals[M] = integrate_ray(g, h, 0.4 + 1.1j, side="off")
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
    plus = integrate_ray(g, dens(g.nodes), math.exp(si), side="plus")
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


def test_pv_coth_closed_form_antisymmetric():
    L, step = 2.5, 0.01
    assert pv_coth_closed_form(L, 0.7, step) == pytest.approx(
        -pv_coth_closed_form(L, -0.7, step))
    assert pv_coth_closed_form(L, 0.0, step) == 0.0


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
        return semiflat(self.Z, self.gamma, 0.0, self.theta, zp, self.R)

    def test_residue_applies_inside_sector(self):
        zeta = cmath.exp(1j * (self.ell.phase + self.r.phase) / 2)  # mid-sector
        i_r = integrate_ray(self.grid_r, np.array([self.h(z) for z in self.grid_r.points()]),
                            zeta, side="off")
        i_ell, crossed = deform_to_bps_ray(zeta, self.r, self.grid_ell, self.h)
        assert crossed
        term = sweep_sign(self.r, self.ell) * 4j * math.pi * self.h(zeta)
        assert i_r == pytest.approx(i_ell + term, rel=1e-8)

    def test_no_residue_outside_sector(self):
        zeta = 0.8 * cmath.exp(1j * (self.r.phase - 0.4))
        i_r = integrate_ray(self.grid_r, np.array([self.h(z) for z in self.grid_r.points()]),
                            zeta, side="off")
        i_ell, crossed = deform_to_bps_ray(zeta, self.r, self.grid_ell, self.h)
        assert not crossed
        assert i_r == pytest.approx(i_ell, rel=1e-8)

    def test_same_ray_is_identity(self):
        zeta = 0.5 * cmath.exp(1j * (self.r.phase + 1.0))
        i_direct = integrate_ray(self.grid_ell,
                                 np.array([self.h(z) for z in self.grid_ell.points()]),
                                 zeta, side="off")
        i_ell, crossed = deform_to_bps_ray(zeta, self.ell, self.grid_ell, self.h)
        assert not crossed
        assert i_ell == i_direct

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
    p = ScalarBVProblem(0.3, lambda t: 1.0, (1, 1, 1, 1))
    sol = solve_continuous(lambda t: np.exp(0.2 * np.exp(-np.log(np.abs(t)) ** 2) + 0j),
                           0.3, p, half_width=7.0, M=256)
    return sol.grids[1], sol.log_density[1]


@pytest.mark.parametrize("half", [_rh_half, _scalar_half], ids=["rh", "scalar"])
def test_every_node_is_rejected_off_the_ray(half):
    # integrate_ray's off-ray sum divides by (node - zeta); the on-ray test
    # must reject every node, so no point reaching the sum is a node
    g, h = half()
    for z in g.points():
        with pytest.raises(SingularKernelError, match="covered part"):
            integrate_ray(g, h, z, side="off")
    with pytest.raises(SingularKernelError, match="covered part"):
        integrate_ray(g, h, g.points(), side="off")


@pytest.mark.parametrize("half", [_rh_half, _scalar_half], ids=["rh", "scalar"])
def test_array_evaluation_matches_single_points_bit_for_bit(half):
    g, h = half()
    u = g.direction.unit()
    on_nodes = np.exp(g.nodes[[1, 5, g.count // 2, g.count - 2]]) * u
    between = np.exp(0.5 * (g.nodes[[1, 40, 77]] + g.nodes[[2, 41, 78]])) * u
    off = np.array([0.4 + 1.1j, -2.0 + 0.3j, 0.05j, 30.0 * u * 1j,
                    math.exp(g.half_width + 1.0) * u])
    cases = [("off", off)] + [(side, np.concatenate([on_nodes, between]))
                              for side in ("plus", "minus")]
    for side, pts in cases:
        batched = integrate_ray(g, h, pts, side=side)
        single = np.array([integrate_ray(g, h, complex(z), side=side) for z in pts])
        assert batched.shape == pts.shape
        assert np.array_equal(batched, single), side


def test_array_with_one_bad_point_raises_like_the_single_point():
    g, h = _rh_half()
    u = g.direction.unit()
    good = np.array([0.4 + 1.1j, -2.0 + 0.3j])
    on_ray = 1.3 * u
    for side, bad, fine in (("off", on_ray, good),
                            ("plus", 0.4 + 1.1j, np.array([0.7 * u, 1.9 * u]))):
        with pytest.raises(SingularKernelError) as single:
            integrate_ray(g, h, bad, side=side)
        with pytest.raises(SingularKernelError) as batched:
            integrate_ray(g, h, np.concatenate([fine[:1], [bad], fine[1:]]), side=side)
        assert str(batched.value) == str(single.value)


@pytest.mark.parametrize("half", [_rh_half, _scalar_half], ids=["rh", "scalar"])
def test_stacked_densities_match_single_densities_bit_for_bit(half):
    g, h = half()
    stack = np.stack([h, (0.3 - 1.1j) * h[::-1], h.conj()])
    strided = np.ascontiguousarray(stack.T).T  # rows as evaluate_theta passes them
    u = g.direction.unit()
    on_nodes = np.exp(g.nodes[[1, 5, g.count // 2, g.count - 2]]) * u
    between = np.exp(0.5 * (g.nodes[[1, 40, 77]] + g.nodes[[2, 41, 78]])) * u
    off = np.array([0.4 + 1.1j, -2.0 + 0.3j, 0.05j, 30.0 * u * 1j,
                    math.exp(g.half_width + 1.0) * u])
    cases = [("off", off)] + [(side, np.concatenate([on_nodes, between]))
                              for side in ("plus", "minus")]
    for side, pts in cases:
        single = np.array([integrate_ray(g, row, pts, side=side) for row in stack])
        for values in (stack, strided):
            batched = integrate_ray(g, values, pts, side=side)
            assert batched.shape == (3, len(pts))
            assert np.array_equal(batched, single), side
        one_point = integrate_ray(g, stack, complex(pts[1]), side=side)
        assert one_point.shape == (3,)
        assert np.array_equal(one_point, single[:, 1]), side


def test_stacked_densities_on_a_different_grid_are_rejected():
    g, h = _rh_half()
    for bad in (np.stack([h[:-1], h[:-1]]), h[None, None, :]):
        with pytest.raises(ValueError, match="different grid"):
            integrate_ray(g, bad, 0.4 + 1.1j)


@pytest.mark.parametrize("half", [_rh_half, _scalar_half], ids=["rh", "scalar"])
def test_both_limits_come_from_one_pass_bit_for_bit(half):
    # pv +/- 2 pi i h*: the single sides are the elements of the pair
    g, h = half()
    u = g.direction.unit()
    pts = np.exp(np.concatenate([g.nodes[[1, 5, g.count // 2]],
                                 0.5 * (g.nodes[[1, 40]] + g.nodes[[2, 41]])])) * u
    for values in (h, np.stack([h, h.conj()])):
        for zeta in (pts, complex(pts[3])):
            plus, minus = integrate_ray(g, values, zeta, side="both")
            assert np.array_equal(plus, integrate_ray(g, values, zeta, side="plus"))
            assert np.array_equal(minus, integrate_ray(g, values, zeta, side="minus"))
    with pytest.raises(ValueError, match="side"):
        integrate_ray(g, h, pts, side="left")


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
