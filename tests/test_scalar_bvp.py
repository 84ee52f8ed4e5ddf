import cmath
import dataclasses
import math

import numpy as np
import pytest

from rhflow.errors import AsymmetricJumpError, ConfigError, NonzeroIndexError
from rhflow.scalar_bvp import (ScalarBVProblem, contour_nodes, index, jump_exponents,
                               omega_minus, omega_plus, regularizing_factor,
                               solve_continuous, solve_scalar_bvp, verify_uniqueness,
                               zero_factor)


def bump(t):
    """Smooth density on the contour (a 1-D array of coordinates t),
    decaying at 0 and infinity."""
    with np.errstate(divide="ignore"):
        s = np.log(np.abs(t))
    return np.where(t > 0, (0.3 + 0.1j) * np.exp(-0.5 * s * s),
                    (0.2 - 0.05j) * np.exp(-0.5 * (s - 0.3) ** 2))


def manufactured(eta0: complex, zeta0: complex = 1.5j, phase: float = 0.0,
                 zeros=()) -> ScalarBVProblem:
    """Jump function with prescribed branch exponent, built from the same
    regularizing factor the solver divides out, times a smooth unit."""
    probe = ScalarBVProblem(phase, bump, (1, 1, 1, 1), zeros=tuple(zeros),
                            zeta0=zeta0)

    def G(t):
        zeta = probe.contour_point(t)
        val = np.exp(bump(t)) / regularizing_factor(probe, eta0, zeta)
        return val * zero_factor(probe, zeta)

    g0m, g0p = G(np.array([-1e-300, 1e-300])).tolist()
    return ScalarBVProblem(phase, G, (g0m, g0p, 1.0 + 0j, cmath.exp(2j * math.pi * eta0)),
                           zeros=tuple(zeros), zeta0=zeta0)


# ---------------- exponents and index ----------------

def test_exponent_from_sign_flip():
    p = ScalarBVProblem(0.0, lambda t: 1.0, (-1.0, 1.0, 1.0, -1.0))
    eta0, etainf = jump_exponents(p)
    assert eta0 == pytest.approx(0.5)
    assert etainf == pytest.approx(-0.5)


def test_exponent_continuous_is_zero():
    p = ScalarBVProblem(0.0, lambda t: 2.0, (2.0, 2.0, 2.0, 2.0))
    eta0, etainf = jump_exponents(p)
    assert eta0 == 0 and etainf == 0


def test_exponent_quarter():
    p = ScalarBVProblem(0.0, lambda t: 1.0,
                        (cmath.exp(0.5j * math.pi), 1.0, 1.0, cmath.exp(0.5j * math.pi)))
    eta0, etainf = jump_exponents(p)
    assert eta0 == pytest.approx(0.25)
    assert etainf == pytest.approx(-0.25)


def test_asymmetric_jump_rejected():
    p = ScalarBVProblem(0.0, lambda t: 1.0, (2.0, 1.0, 1.0, 1.3))
    with pytest.raises(AsymmetricJumpError):
        jump_exponents(p)


def test_index_values():
    assert index(0.25, -0.25) == 0
    assert index(0.5, -0.5) == 0
    assert index(0.0, 0.0) == 1


# ---------------- branch factors ----------------

def test_omega_plus_branch_continuity_on_contour():
    p = ScalarBVProblem(0.0, lambda t: 1.0, (1, 1, 1, 1))
    # positive axis: arg 0; negative axis: arg pi (continued through D+)
    positive, negative = omega_plus(p, 0.25, np.array([2.0, -2.0]))
    assert positive == pytest.approx(2.0 ** 0.25)
    assert negative == pytest.approx(2.0 ** 0.25 * cmath.exp(0.25j * math.pi))


def test_regularizing_factor_cancels_the_jump():
    eta0 = 0.25
    p = manufactured(eta0)
    t = np.array([-1e-9, 1e-9, 1e6])
    zeta = p.contour_point(t)
    G1 = regularizing_factor(p, eta0, zeta) * p.G(t) / zero_factor(p, zeta)
    assert abs(G1[0] - G1[1]) < 1e-8
    # far along the line the regularized jump settles to 1 (bump decayed)
    assert G1[2] == pytest.approx(np.exp(bump(t[2:]))[0], rel=1e-5)


def test_manufactured_limits_recover_eta():
    p = manufactured(0.25)
    eta0, etainf = jump_exponents(p)
    assert eta0 == pytest.approx(0.25, abs=1e-7)
    assert etainf == -eta0


# ---------------- continuous solve ----------------

def test_trivial_jump_gives_unit_solution():
    sol = solve_continuous(np.ones(2 * 128, dtype=complex), 0.0, half_width=5.0, M=128)
    for z in (0.5j, -0.7j, 2.0 + 1.0j):
        yp, ym = sol(z)
        assert yp == ym == pytest.approx(1.0, abs=1e-12)


def test_continuous_boundary_ratio():
    p = ScalarBVProblem(0.0, lambda t: 1.0, (1, 1, 1, 1))
    G1 = lambda t: np.exp(bump(t))
    sol = solve_continuous(G1(contour_nodes(7.0, 512)), 0.0, half_width=7.0, M=512)
    ts = np.array([0.3, 1.7, -0.9, -4.0, 12.0])
    yp, ym = sol(p.contour_point(ts))
    assert yp / ym == pytest.approx(G1(ts), rel=1e-8)


def test_winding_jump_rejected():
    # arg of G1 advances by 2 pi along the contour
    G1 = lambda t: np.exp(2j * np.arctan(np.sign(t) * np.log(np.abs(t))))
    with pytest.raises(NonzeroIndexError):
        solve_continuous(G1(contour_nodes(7.0, 256)), 0.0, half_width=7.0, M=256)


def test_discontinuous_regularized_jump_rejected():
    G1 = lambda t: np.exp(np.where(t > 0, 0.4, 0.0) + 0j)  # gap across 0 and infinity
    with pytest.raises(NonzeroIndexError, match="continuous"):
        solve_continuous(G1(contour_nodes(7.0, 256)), 0.0, half_width=7.0, M=256)


def test_opposite_constant_tails_are_handled():
    # log G1 tending to +/- d at the two ends is within the transform's
    # reach: the tail that carries those limits is transformed in closed form
    p = ScalarBVProblem(0.0, lambda t: 1.0, (1, 1, 1, 1))
    G1 = lambda t: np.exp(0.3 * np.tanh(np.log(np.abs(t))) + 0j)
    sol = solve_continuous(G1(contour_nodes(16.0, 1024)), 0.0, half_width=16.0, M=1024)
    ts = np.array([0.5, 2.0, -1.3])
    yp, ym = sol(p.contour_point(ts))
    assert yp / ym == pytest.approx(G1(ts), rel=1e-6)


# ---------------- full pipeline ----------------

class TestQuarterExponent:
    """Manufactured problem with eta_0 = 1/4."""

    @classmethod
    def setup_class(cls):
        cls.p = manufactured(0.25)
        cls.sol = solve_scalar_bvp(cls.p)

    def test_index_zero(self):
        assert self.sol.kappa == 0
        assert self.sol.eta0 == pytest.approx(0.25, abs=1e-7)

    def test_boundary_residual(self):
        rng = np.random.default_rng(11)
        ts = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), size=100))
        ts = np.concatenate([ts, -ts])
        assert self.sol.boundary_residual(ts) < 1e-6

    def test_growth_bound(self):
        # |X| |zeta|^(eta + margin) stays bounded toward the singular ends
        eta = abs(self.sol.eta0.real) + 1e-3
        vals = []
        for expo in range(3, 7):
            xi = 10.0 ** (-expo)
            vals.append(abs(self.sol(xi * 1j)[0]) * xi ** eta)
            vals.append(abs(self.sol(-xi * 1j)[1]) * xi ** eta)
        assert max(vals) < 10 * max(vals[:2]) + 1.0

    def test_singular_end_matches_eta_sign(self):
        # eta_0 > 0: the solutions vanish at 0 like |zeta|^{1/4} and blow up
        # at infinity accordingly
        small = abs(self.sol(1e-6j)[0])
        smaller = abs(self.sol(1e-8j)[0])
        assert smaller < small < 1.0

    def test_uniqueness_in_zeta0(self):
        dev = verify_uniqueness(self.p, 0.7j)
        assert dev < 1e-6


class TestOrderTwoZero:
    """One double zero of the jump function on the contour."""

    alpha = 0.8

    @classmethod
    def setup_class(cls):
        cls.p = manufactured(0.25, zeros=((0.8, 2),))
        cls.sol = solve_scalar_bvp(cls.p)

    def test_boundary_residual_away_from_zero(self):
        ts = [t for t in np.exp(np.linspace(math.log(1e-2), math.log(1e2), 60))
              if abs(t - self.alpha) > 1e-2]
        ts += [-t for t in np.exp(np.linspace(math.log(1e-2), math.log(1e2), 40))]
        assert self.sol.boundary_residual(np.array(ts)) < 1e-6


def test_divided_differences_detect_order_two():
    p = manufactured(0.25, zeros=((0.8, 2),))
    sol = solve_scalar_bvp(p)
    alpha, delta = 0.8, 1e-7
    xs = [sol(alpha + j * delta)[0] for j in range(4)]
    smooth_scale = abs(xs[3] / (3 * delta) ** 2)   # local curvature scale
    dd0 = abs(xs[0])
    dd1 = abs(xs[1] - xs[0]) / delta
    dd2 = abs(xs[2] - 2 * xs[1] + xs[0]) / delta ** 2
    assert dd0 / smooth_scale < 1e-5
    assert dd1 / smooth_scale < 1e-5
    assert dd2 / smooth_scale > 1e-2


def test_zero_factor_on_x_plus_only():
    p = manufactured(0.25, zeros=((0.8, 2),))
    sol = solve_scalar_bvp(p)
    assert abs(sol(0.8 - 0.5j)[1]) > 1e-6  # X- keeps no zero


def test_rescaled_problem_shifts_only_the_constant():
    eta0 = 0.25
    p = manufactured(eta0)
    scale = 2.5 - 1.0j
    G2 = lambda t: scale * p.G(t)
    p2 = ScalarBVProblem(p.line_phase, G2,
                         tuple(scale * l for l in p.limits), zeta0=p.zeta0)
    sol = solve_scalar_bvp(p)
    sol2 = solve_scalar_bvp(p2)
    z = 0.9j
    ratio = sol2(z)[0] / sol(z)[0]
    assert ratio == pytest.approx(scale, rel=1e-8)
    # X- is untouched by the constant
    assert sol2(-0.9j)[1] == pytest.approx(sol(-0.9j)[1], rel=1e-8)


def test_continuous_jump_full_pipeline():
    # no branch exponent at all: the classical continuous route, omega = 1
    probe = ScalarBVProblem(0.0, lambda t: 1.0, (1, 1, 1, 1))
    G = lambda t: np.exp(bump(t))
    lim = (*G(np.array([-1e-12, 1e-12])).tolist(), 1.0 + 0j, 1.0 + 0j)
    p = ScalarBVProblem(0.0, G, lim)
    sol = solve_scalar_bvp(p)
    assert sol.eta0 == pytest.approx(0.0, abs=1e-9)
    assert sol.kappa == 0
    ts = np.concatenate([np.exp(np.linspace(-5, 5, 30)),
                         -np.exp(np.linspace(-5, 5, 30))])
    assert sol.boundary_residual(ts) < 1e-6


def test_a_purely_imaginary_eta0_has_index_zero():
    # G(0-)/G(0+) = 2 with the limits given as positive reals: eta0 is
    # -0.1103i with a real part of exactly 0.0, where floor(0.0) +
    # floor(-0.0) + 1 would read an index of 1; the solve is the index-zero one
    eta0 = cmath.log(2.0) / (2j * math.pi)
    p = dataclasses.replace(manufactured(eta0), limits=(2.0, 1.0, 1.0, 2.0))
    sol = solve_scalar_bvp(p)
    assert sol.eta0.real == 0.0 and sol.eta0.imag == pytest.approx(-0.1103, abs=1e-4)
    assert sol.kappa == 0
    ts = np.concatenate([np.exp(np.linspace(-5, 5, 30)), -np.exp(np.linspace(-5, 5, 30))])
    assert sol.boundary_residual(ts) < 1e-13


def test_zeta0_outside_upper_half_rejected():
    with pytest.raises(ConfigError, match="zeta0"):
        ScalarBVProblem(0.0, lambda t: 1.0, (1, 1, 1, 1), zeta0=-1j).validate()


def test_zero_off_contour_rejected():
    with pytest.raises(ConfigError, match="off the contour"):
        ScalarBVProblem(0.0, lambda t: 1.0, (1, 1, 1, 1),
                        zeros=((0.5 + 0.5j, 1),)).validate()


def test_x_plus_and_x_minus_on_arrays_match_single_points_bit_for_bit():
    # on the contour (at the double zero's neighbour too) and off it on both
    # sides; one call gives both elements of every point's pair
    p = manufactured(0.25, zeros=((0.8 + 0j, 2),))
    sol = solve_scalar_bvp(p, M=256)
    pts = np.concatenate([p.contour_point(np.array([0.3, 1.7, -0.9, -4.0, 12.0, 0.81])),
                          [0.9j, 0.9j * cmath.exp(0.7j), 2.5 + 0.1j,
                           -1.1j + 0.2, 2.0 - 0.5j, 1.1 * cmath.exp(-0.9j)]])
    xp, xm = sol(pts)
    singles = [sol(z) for z in pts.tolist()]
    assert all(type(a) is complex and type(b) is complex for a, b in singles)
    assert np.array_equal(xp, np.array([a for a, _ in singles]))
    assert np.array_equal(xm, np.array([b for _, b in singles]))


def test_one_pass_boundary_values_equal_x_plus_and_x_minus_bit_for_bit():
    # the boundary values X+ and X- of points on the contour come out of one
    # pass the same whether the array holds only them or mixes them with
    # points off the contour
    p = manufactured(0.25, zeros=((0.8, 2),))
    sol = solve_scalar_bvp(p, M=256)
    zs = p.contour_point(np.array([0.3, 1.7, -0.9, -4.0, 12.0, 0.81]))
    xp, xm = sol(zs)
    mixed = np.concatenate([[0.9j, -1.1j + 0.2], zs[::-1], [2.0 - 0.5j]])
    mp, mm = sol(mixed)
    assert np.array_equal(xp, mp[2:-1][::-1])
    assert np.array_equal(xm, mm[2:-1][::-1])


def test_one_pass_side_values_equal_x_plus_and_x_minus_bit_for_bit():
    # one pass over points of D+ and D- together gives each side's points
    # the pair they get from a pass over that side alone
    p = manufactured(0.25, zeros=((0.8, 2),))
    sol = solve_scalar_bvp(p, M=256)
    up = np.array([0.3j, 1.7j, 0.9j * cmath.exp(0.7j), 2.5 + 0.1j])
    dn = np.array([-0.4j, -2.1j, 1.1 * cmath.exp(-0.9j), -0.7 - 0.2j])
    xp, xm = sol(np.concatenate([up, dn]))
    up_p, up_m = sol(up)
    dn_p, dn_m = sol(dn)
    assert np.array_equal(xp, np.concatenate([up_p, dn_p]))
    assert np.array_equal(xm, np.concatenate([up_m, dn_m]))


# ---------------- the elementwise contract ----------------

def _contract_points():
    ts = np.array([0.3, 1.7, -0.9, -4.0, 12.0, 1e-5, -3e4])
    zs = np.concatenate([ScalarBVProblem(0.3, None, (1, 1, 1, 1)).contour_point(ts),
                         [0.9j, -1.1j + 0.2, 2.0 - 0.5j, -0.7 + 0.1j]])
    return ts, zs


def _sampled_jump():
    from rhflow.cli_driver import _scalar_problem
    ts = [float(t) for t in np.concatenate([-np.exp(np.linspace(8, -8, 65)),
                                            np.exp(np.linspace(-8, 8, 65))])]
    vals = [[v.real, v.imag] for v in np.exp(bump(np.array(ts)))]
    return _scalar_problem({"jump": {"kind": "sampled", "t": ts, "values": vals},
                            "limits": [[1.0, 0.0]] * 4})


def _manufactured_cli_jump():
    from rhflow.cli_driver import _scalar_problem
    return _scalar_problem({"jump": {"kind": "manufactured", "eta0": [0.25, 0.05]},
                            "zeros": [[[0.8, 0.0], 2]], "line_phase": 0.3})


@pytest.mark.parametrize("name", ["G-manufactured", "G-cli-manufactured", "G-cli-sampled",
                                  "G1", "omega_plus", "omega_minus",
                                  "regularizing_factor", "zero_factor"])
def test_point_and_array_give_the_same_value_bit_for_bit(name):
    # every function of a 1-D array gives a point, as an array of one, the
    # value it has inside any array: the solution evaluates a point as an
    # array of one, the CLI takes G's two limits at 0 from one array, and a
    # solve forms G1 on all its nodes at once
    eta0 = 0.25 - 0.05j
    p = manufactured(eta0, phase=0.3, zeros=((0.8 * cmath.exp(0.3j), 2),))
    ts, zs = _contract_points()

    def G1(t):  # the regularized jump, as a solve forms it from its samples
        zeta = p.contour_point(t)
        return regularizing_factor(p, eta0, zeta) * p.G(t) / zero_factor(p, zeta)

    of_t = {"G-manufactured": p.G, "G-cli-manufactured": _manufactured_cli_jump().G,
            "G-cli-sampled": _sampled_jump().G, "G1": G1}
    of_zeta = {"omega_plus": lambda z: omega_plus(p, eta0, z),
               "omega_minus": lambda z: omega_minus(p, eta0, z),
               "regularizing_factor": lambda z: regularizing_factor(p, eta0, z),
               "zero_factor": lambda z: zero_factor(p, z)}
    f, pts = (of_t[name], ts) if name in of_t else (of_zeta[name], zs)
    batch = f(pts)
    assert batch.shape == pts.shape
    assert np.array_equal(batch, np.array([f(pts[i:i + 1])[0] for i in range(len(pts))]))


def test_solve_scalar_bvp_samples_the_jump_once_on_all_nodes():
    p = manufactured(0.25)
    calls = []

    def counting(t):
        calls.append(t.copy())
        return p.G(t)

    M = 256
    solve_scalar_bvp(dataclasses.replace(p, G=counting), half_width=7.0, M=M)
    assert len(calls) == 1
    assert np.array_equal(calls[0], contour_nodes(7.0, M))


# ---------------- the uniqueness check ----------------

SCALAR_BVP_JUMPS = [(eta0, zeros) for eta0 in (-0.3, 0.1, 0.25)
                    for zeros in ([], [[[0.8, 0.0], 2]])]


def _cli_manufactured(eta0, zeros):
    """The manufactured jump of `rhflow scalar_bvp` (line phase 0, zeta0 1.5i)."""
    from rhflow.cli_driver import _scalar_problem
    return _scalar_problem({"jump": {"kind": "manufactured", "eta0": eta0}, "zeros": zeros})


def _uniqueness_by_two_solves(p, zeta0_alt, half_width, M):
    """verify_uniqueness as two full solves, each solution evaluated on
    its own at the check's D+ samples for X+ and at its D- samples for X-."""
    sol_a = solve_scalar_bvp(p, half_width, M)
    sol_b = solve_scalar_bvp(dataclasses.replace(p, zeta0=zeta0_alt), half_width, M)
    # the normals of the line, formed as verify_uniqueness forms them (their
    # real parts are rounding, not 0)
    e_up = cmath.exp(1j * (p.line_phase + 0.5 * math.pi))
    e_dn = cmath.exp(1j * (p.line_phase - 0.5 * math.pi))
    up = np.array([0.3 * e_up, 1.7 * e_up, 0.9 * e_up * cmath.exp(0.7j),
                   2.5 * e_up * cmath.exp(-0.5j)])
    dn = np.array([0.4 * e_dn, 2.1 * e_dn, 1.1 * e_dn * cmath.exp(0.6j),
                   0.7 * e_dn * cmath.exp(-0.8j)])
    ratios = np.concatenate([sol_a(up)[0] / sol_b(up)[0], sol_a(dn)[1] / sol_b(dn)[1]])
    return float(np.max(np.abs(ratios - ratios[0]) / np.abs(ratios[0])))


def test_verify_uniqueness_samples_the_jump_once_and_matches_two_full_solves():
    p = _cli_manufactured(0.25, [[[0.8, 0.0], 2]])
    calls = []

    def counting(t):
        calls.append(np.shape(t))
        return p.G(t)

    M = 256
    dev = verify_uniqueness(dataclasses.replace(p, G=counting), 0.7j, 16.0, M)
    assert calls == [(2 * M,)]
    assert dev == _uniqueness_by_two_solves(p, 0.7j, 16.0, M)


@pytest.mark.parametrize("eta0,zeros", SCALAR_BVP_JUMPS,
                         ids=[f"eta0={e}-zeros={len(z)}" for e, z in SCALAR_BVP_JUMPS])
def test_uniqueness_grid_is_set_by_the_tails_not_the_step(eta0, zeros):
    # the alternative base point leaves log G1 with constant tails, which
    # are transformed in closed form: the deviation is at rounding on every
    # grid that passes solve_continuous's continuity check on the tails
    # (half-width 16 and up), whatever the step
    p = _cli_manufactured(eta0, zeros)
    by_M = [verify_uniqueness(p, 0.7j, 16.0, M) for M in (256, 512, 1024)]
    by_width = [verify_uniqueness(p, 0.7j, L, 512) for L in (16.0, 20.0, 24.0)]
    assert max(by_M + by_width + [verify_uniqueness(p, 0.7j)]) < 1e-14


def test_solution_skips_empty_point_sets(monkeypatch):
    # one integrate_ray call per half of the line, each rule applied only
    # to the points that take it
    import rhflow.contour_quadrature as cq
    sol = solve_scalar_bvp(manufactured(0.25), M=128)
    calls = []
    for name in ("band_limited_limits", "_opposite_ray_sums", "_off_ray_sums"):
        original = getattr(cq, name)

        def counting(grid, rows, zs, _name=name, _original=original):
            calls.append((_name, len(zs)))
            return _original(grid, rows, zs)

        monkeypatch.setattr(cq, name, counting)
    sol(np.array([0.5j, 1.0 + 2.0j]))          # off the contour only
    assert calls == [("_off_ray_sums", 2)] * 2
    calls.clear()
    sol(np.array([0.5, 2.0]))                  # on the positive half only
    assert calls == [("band_limited_limits", 2), ("_opposite_ray_sums", 2)]


# ---------------- spectral accuracy on the line ----------------

@pytest.mark.parametrize("eta0,zeros", SCALAR_BVP_JUMPS,
                         ids=[f"eta0={e}-zeros={len(z)}" for e, z in SCALAR_BVP_JUMPS])
def test_boundary_values_are_spectral_in_the_step(eta0, zeros):
    # the remainder of log G1 decays at both ends, so the band-limited rule
    # takes X+ and X- on the line at M = 512 to rounding of an M = 16384
    # solve on the same half-width
    p = _cli_manufactured(eta0, zeros)
    ts = np.exp(np.linspace(math.log(1e-2), math.log(1e2), 9))
    zs = p.contour_point(np.concatenate([ts, -ts, [0.5 * (ts[3] + ts[4])]]))
    got = np.array(solve_scalar_bvp(p, M=512)(zs))
    want = np.array(solve_scalar_bvp(p, M=16384)(zs))
    assert np.max(np.abs(got - want) / np.abs(want)) < 1e-12


@pytest.mark.parametrize("eta0,zeros", SCALAR_BVP_JUMPS,
                         ids=[f"eta0={e}-zeros={len(z)}" for e, z in SCALAR_BVP_JUMPS])
def test_constant_tails_are_transformed_in_closed_form(eta0, zeros):
    # the alternative base point 0.7i leaves log G1 with constant tails of
    # opposite sign: in closed form they cost no accuracy in the step, and
    # the boundary condition holds to rounding
    p = dataclasses.replace(_cli_manufactured(eta0, zeros), zeta0=0.7j)
    ts = np.exp(np.linspace(math.log(1e-2), math.log(1e2), 9))
    ts = np.concatenate([ts, -ts])
    sol = solve_scalar_bvp(p, half_width=24.0, M=512)
    got = np.array(sol(p.contour_point(ts)))
    want = np.array(solve_scalar_bvp(p, half_width=24.0, M=8192)(p.contour_point(ts)))
    assert np.max(np.abs(got - want) / np.abs(want)) < 1e-13
    assert sol.boundary_residual(ts) < 1e-13


def test_manufactured_limits_give_the_configured_exponent():
    # the one-sided limits at 0 are taken where G equals them to rounding
    from rhflow.cli_driver import _scalar_problem
    for eta0, zeros in SCALAR_BVP_JUMPS:
        for phase in (0.0, 1.1):
            p = _scalar_problem({"jump": {"kind": "manufactured", "eta0": eta0},
                                 "zeros": zeros if phase == 0.0 else [],
                                 "line_phase": phase})
            assert abs(jump_exponents(p)[0] - eta0) <= 1e-15


# ---------------- the kept eta0-free problem ----------------

def _clear_line_caches():
    from rhflow import scalar_bvp as sb
    sb.line_problem.cache_clear()
    sb.base_point_log.cache_clear()


def test_solves_that_differ_only_in_eta0_build_the_eta0_free_problem_once():
    # manufactured jumps on one line, base point and grid: the nodes, the
    # grids and both logs are built on the first solve and read by the
    # second, whose X+ and X- are those of a solve on a cleared cache
    from rhflow import scalar_bvp as sb
    zs = np.array([0.3, -1.7, 12.0, 0.9j, 2.0 - 0.5j]) * cmath.exp(0.3j)
    problems = [manufactured(eta0, zeta0=1.1j * cmath.exp(0.3j), phase=0.3)
                for eta0 in (0.25, -0.3 + 0.05j)]
    _clear_line_caches()
    warm = [solve_scalar_bvp(p, half_width=9.0, M=256) for p in problems]
    assert sb.line_problem.cache_info().misses == 1
    assert sb.base_point_log.cache_info()[:2] == (1, 1)  # hits, misses
    assert warm[0].continuous.grids is warm[1].continuous.grids
    for p, sol in zip(problems, warm):
        _clear_line_caches()
        cold = solve_scalar_bvp(p, half_width=9.0, M=256)
        assert cold.continuous.grids is not sol.continuous.grids
        for got, want in zip(sol(zs), cold(zs)):
            assert got.tobytes() == want.tobytes()
    _clear_line_caches()


def test_verify_uniqueness_transforms_both_solutions_in_one_call_per_half(monkeypatch):
    # the stack of both remainders goes through one integrate_ray call per
    # half of the line (two solutions evaluated apart took four), and the
    # deviation is that of two full solves evaluated apart
    import rhflow.scalar_bvp as sb
    p = _cli_manufactured(0.25, [[[0.8, 0.0], 2]])
    calls = []

    def counting(grid, values, zeta):
        calls.append(np.shape(values))
        return original(grid, values, zeta)

    original = sb.integrate_ray
    monkeypatch.setattr(sb, "integrate_ray", counting)
    dev = verify_uniqueness(p, 0.7j, 16.0, 256)
    assert calls == [(2, 256)] * 2
    monkeypatch.undo()
    assert dev == _uniqueness_by_two_solves(p, 0.7j, 16.0, 256)


def test_verify_uniqueness_refuses_the_base_point_itself():
    with pytest.raises(ConfigError, match="zeta0_alt must differ from zeta0"):
        verify_uniqueness(manufactured(0.25), 1.5j)


def test_a_zero_at_the_origin_is_rejected():
    # phase(0) = 0 puts 0 "on" a line of phase 0, but a zero there sits on
    # the jump's discontinuity
    with pytest.raises(ConfigError, match="a zero at 0"):
        ScalarBVProblem(0.0, lambda t: 1.0, (1, 1, 1, 1), zeros=((0j, 1),)).validate()


def test_the_kept_arrays_refuse_writes_and_their_cache_keeps_its_bound():
    from rhflow import scalar_bvp as sb
    from rhflow.session_cache import CACHE_BYTES
    _clear_line_caches()
    line = sb.line_problem(0.0, 7.0, 512)
    log_minus = sb.base_point_log(0.0, 1.5j, 7.0, 512)
    pos, neg = line.grids
    kept = [line.t, line.zeta, line.log_plus, pos.nodes, pos.weights, log_minus]
    assert neg.nodes is pos.nodes and neg.weights is pos.weights
    for arr in kept:
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0
    # t, zeta, log_plus and the shared grid arrays: 1024 * (8 + 16 + 16) +
    # 2 * 512 * 8 bytes
    assert line.nbytes == 49_152 and log_minus.nbytes == 16_384
    # lines at M = 16384 hold 1,572,864 bytes: five fit in CACHE_BYTES, and
    # the least recently used goes first
    big = [sb.line_problem(0.0, 7.0 + i, 16384) for i in range(6)]
    info = sb.line_problem.cache_info()
    assert big[0].nbytes == 1_572_864 and CACHE_BYTES // big[0].nbytes == 5
    assert (info.misses, info.currbytes) == (7, 5 * big[0].nbytes)
    assert info.currbytes <= info.maxbytes == CACHE_BYTES
    assert sb.line_problem(0.0, 12.0, 16384) is big[5]
    assert sb.line_problem(0.0, 7.0, 16384) is not big[0]
    _clear_line_caches()
