import cmath
import math

import numpy as np
import pytest

from rhflow.errors import AsymmetricJumpError, NonzeroIndexError
from rhflow.scalar_bvp import (ScalarBVProblem, index, jump_exponents,
                               omega_plus, regularize, regularizing_factor,
                               solve_continuous, solve_scalar_bvp,
                               verify_uniqueness, zero_factor)


def bump(t: float) -> complex:
    """Smooth density on the contour, decaying at 0 and infinity."""
    if t == 0:
        return 0j
    s = math.log(abs(t))
    if t > 0:
        return (0.3 + 0.1j) * math.exp(-0.5 * s * s)
    return (0.2 - 0.05j) * math.exp(-0.5 * (s - 0.3) ** 2)


def manufactured(eta0: complex, zeta0: complex = 1.5j, phase: float = 0.0,
                 zeros=()) -> ScalarBVProblem:
    """Jump function with prescribed branch exponent, built from the same
    regularizing factor the solver divides out, times a smooth unit."""
    probe = ScalarBVProblem(phase, bump, (1, 1, 1, 1), zeros=tuple(zeros),
                            zeta0=zeta0)

    def G(t: float) -> complex:
        zeta = probe.contour_point(t)
        val = cmath.exp(bump(t)) / regularizing_factor(probe, eta0, zeta)
        return val * zero_factor(probe, zeta)

    eps = 1e-9
    limits = (G(-eps) / cmath.exp(bump(-eps)) * cmath.exp(bump(-eps)),
              G(eps),
              1.0 + 0j,
              cmath.exp(2j * math.pi * eta0))
    return ScalarBVProblem(phase, G, (G(-eps), G(eps), limits[2], limits[3]),
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
    assert omega_plus(p, 0.25, 2.0) == pytest.approx(2.0 ** 0.25)
    assert omega_plus(p, 0.25, -2.0) == pytest.approx(
        2.0 ** 0.25 * cmath.exp(0.25j * math.pi))


def test_regularizing_factor_cancels_the_jump():
    eta0 = 0.25
    p = manufactured(eta0)
    G1 = regularize(p, eta0)
    assert abs(G1(-1e-9) - G1(1e-9)) < 1e-8
    # far along the line the regularized jump settles to 1 (bump decayed)
    assert G1(1e6) == pytest.approx(cmath.exp(bump(1e6)), rel=1e-5)


def test_manufactured_limits_recover_eta():
    p = manufactured(0.25)
    eta0, etainf = jump_exponents(p)
    assert eta0 == pytest.approx(0.25, abs=1e-7)
    assert etainf == -eta0


# ---------------- continuous solve ----------------

def test_trivial_jump_gives_unit_solution():
    p = ScalarBVProblem(0.0, lambda t: 1.0, (1, 1, 1, 1))
    sol = solve_continuous(lambda t: 1.0 + 0j, 0.0, p, half_width=5.0, M=128)
    for z in (0.5j, -0.7j, 2.0 + 1.0j):
        assert sol(z) == pytest.approx(1.0, abs=1e-12)


def test_continuous_boundary_ratio():
    p = ScalarBVProblem(0.0, lambda t: 1.0, (1, 1, 1, 1))
    G1 = lambda t: cmath.exp(bump(t))
    sol = solve_continuous(G1, 0.0, p, half_width=7.0, M=512)
    for t in (0.3, 1.7, -0.9, -4.0, 12.0):
        yp = sol(p.contour_point(t), side="plus")
        ym = sol(p.contour_point(t), side="minus")
        assert yp / ym == pytest.approx(G1(t), rel=1e-8)


def test_winding_jump_rejected():
    p = ScalarBVProblem(0.0, lambda t: 1.0, (1, 1, 1, 1))
    # arg of G1 advances by 2 pi along the contour
    G1 = lambda t: cmath.exp(2j * math.atan(math.log(abs(t)) if t > 0 else -math.log(abs(t))))
    with pytest.raises(NonzeroIndexError):
        solve_continuous(G1, 0.0, p, half_width=7.0, M=256)


def test_discontinuous_regularized_jump_rejected():
    p = ScalarBVProblem(0.0, lambda t: 1.0, (1, 1, 1, 1))
    G1 = lambda t: cmath.exp(0.4 if t > 0 else 0.0)  # gap across 0 and infinity
    with pytest.raises(NonzeroIndexError, match="continuous"):
        solve_continuous(G1, 0.0, p, half_width=7.0, M=256)


def test_opposite_constant_tails_are_handled():
    # log G1 tending to +/- d at the two ends is within the transform's
    # reach: the paired halves cancel the non-decaying parts
    p = ScalarBVProblem(0.0, lambda t: 1.0, (1, 1, 1, 1))
    G1 = lambda t: cmath.exp(0.3 * math.tanh(math.log(abs(t))) if t != 0 else -0.3)
    sol = solve_continuous(G1, 0.0, p, half_width=16.0, M=1024)
    for t in (0.5, 2.0, -1.3):
        yp = sol(p.contour_point(t), side="plus")
        ym = sol(p.contour_point(t), side="minus")
        assert yp / ym == pytest.approx(G1(t), rel=1e-6)


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
            vals.append(abs(self.sol.x_plus(xi * 1j)) * xi ** eta)
            vals.append(abs(self.sol.x_minus(-xi * 1j)) * xi ** eta)
        assert max(vals) < 10 * max(vals[:2]) + 1.0

    def test_singular_end_matches_eta_sign(self):
        # eta_0 > 0: the solutions vanish at 0 like |zeta|^{1/4} and blow up
        # at infinity accordingly
        small = abs(self.sol.x_plus(1e-6j))
        smaller = abs(self.sol.x_plus(1e-8j))
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
    xs = [sol.x_plus(alpha + j * delta) for j in range(4)]
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
    assert abs(sol.x_minus(0.8 - 0.5j)) > 1e-6  # X- keeps no zero


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
    ratio = sol2.x_plus(z) / sol.x_plus(z)
    assert ratio == pytest.approx(scale, rel=1e-8)
    # X- is untouched by the constant
    assert sol2.x_minus(-0.9j) == pytest.approx(sol.x_minus(-0.9j), rel=1e-8)


def test_continuous_jump_full_pipeline():
    # no branch exponent at all: the classical continuous route, omega = 1
    probe = ScalarBVProblem(0.0, lambda t: 1.0, (1, 1, 1, 1))
    G = lambda t: cmath.exp(bump(t))
    lim = (G(-1e-12), G(1e-12), 1.0 + 0j, 1.0 + 0j)
    p = ScalarBVProblem(0.0, G, lim)
    sol = solve_scalar_bvp(p)
    assert sol.eta0 == pytest.approx(0.0, abs=1e-9)
    assert sol.kappa == 0
    ts = np.concatenate([np.exp(np.linspace(-5, 5, 30)),
                         -np.exp(np.linspace(-5, 5, 30))])
    assert sol.boundary_residual(ts) < 1e-6


def test_zeta0_outside_upper_half_rejected():
    with pytest.raises(ValueError, match="zeta0"):
        ScalarBVProblem(0.0, lambda t: 1.0, (1, 1, 1, 1), zeta0=-1j).validate()


def test_zero_off_contour_rejected():
    with pytest.raises(ValueError, match="off the contour"):
        ScalarBVProblem(0.0, lambda t: 1.0, (1, 1, 1, 1),
                        zeros=((0.5 + 0.5j, 1),)).validate()


def test_x_plus_and_x_minus_on_arrays_match_single_points_bit_for_bit():
    p = manufactured(0.25, zeros=((0.8 + 0j, 2),))
    sol = solve_scalar_bvp(p, M=256)
    pts = np.concatenate([p.contour_point(np.array([0.3, 1.7, -0.9, -4.0, 12.0])),
                          [0.9j, -1.1j + 0.2, 2.0 - 0.5j]])
    for f in (sol.x_plus, sol.x_minus):
        assert np.array_equal(f(pts), np.array([f(complex(z)) for z in pts]))
