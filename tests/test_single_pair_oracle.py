"""Closed-form oracle: one BPS pair {+-gamma1} with multiplicity 1.

Since <gamma1, gamma1> = 0, Theta_1 stays theta_1 and X_gamma1 stays
semiflat, so Theta_2 is an explicit Cauchy integral of the side densities.
Across the ray of gamma1 the side map on the basis target is
x2 -> x2 (1 - x1)^{-1}, across that of -gamma1 it is x2 -> x2 (1 - x_{-1});
their logs, truncated at order N, are +sum_n x^n / n and -sum_n x^n / n.
Along either ray the n-th power integrates to
int X_{+-n gamma1} dzeta/zeta = 2 K0(2 pi n R |Z|) e^{+-i n theta_1}, so

    Theta_2(0) = theta_2 - (1/4 pi) sum_n (1/n) 2 K0(2 pi n R |Z|) (e^{i n theta_1} - e^{-i n theta_1})
               = theta_2 - (i/pi) sum_n sin(n theta_1)/n K0(2 pi n R |Z|).

At the nodes and between them the reference is a fine trapezoid rule on the
Gaussian-subtracted principal-value integrand, which is smooth and decays.
"""

import math

import numpy as np
import pytest

from rhflow.charge_lattice import Spectrum
from rhflow.rh_solver import SolverConfig, evaluate_theta, solve
from rhflow.spectrum_rays import CentralCharge
from rhflow.stokes_series import stokes_log_coeffs

PAIR = Spectrum.from_pairs([((1, 0), 1), ((-1, 0), 1)])
Z = CentralCharge.constant(1.0, 1j)
THETA = (0.7, 1.3)
N = 8


def pair_cfg(R: float, M: int) -> SolverConfig:
    return SolverConfig(R=R, a=0.0, theta=THETA, spectrum=PAIR, Z=Z, N=N, M=M)


def k0(x: float) -> float:
    """K0(x) = int_0^inf e^{-x cosh t} dt by the trapezoid rule, step 0.05 on
    [0, 12] (spectrally accurate for this decaying, even integrand)."""
    t = np.arange(0.0, 12.0 + 1e-12, 0.05)
    f = np.exp(-x * np.cosh(t))
    return 0.05 * (f.sum() - 0.5 * (f[0] + f[-1]))


def theta2_at_zero(R: float) -> complex:
    """The order-N sum of the module docstring, side by side: coefficient
    +-1/n of x_{+-n gamma1} times its ray integral 2 K0 e^{+-i n theta_1}."""
    z = abs(Z.of(PAIR.entries[0][0], 0.0))
    acc = 0j
    for side in (+1, -1):
        for n in range(1, N + 1):
            acc += side / n * 2.0 * k0(2 * math.pi * n * R * z) * np.exp(1j * side * n * THETA[0])
    return THETA[1] - acc / (4.0 * math.pi)


@pytest.mark.parametrize("R", [1.0, 0.3, 0.1])
def test_theta1_is_theta1_exactly(R):
    state, _ = solve(pair_cfg(R, 64))
    assert np.all(state.values[..., 0] == THETA[0])
    assert state.limits[0][0] == THETA[0] and state.limits[1][0] == THETA[0]


@pytest.mark.parametrize("M", [64, 128])
@pytest.mark.parametrize("R", [1.0, 0.3, 0.1])
def test_theta2_at_zero_matches_the_bessel_sum(R, M):
    state, _ = solve(pair_cfg(R, M))
    want = theta2_at_zero(R)
    assert abs(want - THETA[1]) > 1e-6  # the correction is not trivial
    assert abs(state.limits[0][1] - want) <= 1e-15


def _density(state, side: int, t: np.ndarray) -> np.ndarray:
    """The target-2 density of one side at the log radii t of its ray, from
    the coefficients of stokes_log_coeffs and the semiflat X_g (exact here)."""
    prep = state.problem
    cfg = prep.cfg
    zeta = np.exp(t) * prep.rays[side].unit()
    out = np.zeros(t.shape, dtype=complex)
    for g, f in stokes_log_coeffs(cfg.spectrum, cfg.Z, cfg.a, side, 2, cfg.N, prep.r).items():
        zg = cfg.Z.of(g, cfg.a)
        theta_g = g.c1 * cfg.theta[0] + g.c2 * cfg.theta[1]
        expo = math.pi * cfg.R * (zg / zeta + zeta * np.conj(zg)) + 1j * theta_g
        live = expo.real > -750.0  # X_g underflows to 0 elsewhere
        out[live] += float(f) * np.exp(expo[live])
    return out


def _reference(state, side: int, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """PV int coth((t - s)/2) h_side(t) dt + int tanh((t - s)/2) h_-side(t) dt
    and h_side(s) at the log radii s, by a fine trapezoid rule on the
    Gaussian-subtracted integrand, du = 0.01 on |u| <= 60, half a step off
    u = 0."""
    du = 0.01
    u = du * (np.arange(-6000, 6000) + 0.5)
    h_pole = _density(state, side, s)
    h_same = _density(state, side, s[:, None] + u)
    h_other = _density(state, -side, s[:, None] + u)
    pv = du * np.sum((h_same - h_pole[:, None] * np.exp(-u * u)) / np.tanh(0.5 * u), axis=1)
    cross = du * np.sum(h_other * np.tanh(0.5 * u), axis=1)
    return pv + cross, h_pole


@pytest.mark.parametrize("R", [1.0, 0.3, 0.1])
def test_node_values_match_a_fine_reference(R):
    # stored node values are the clockwise limits:
    # Theta_2 = theta_2 - [PV int coth((t - s)/2) h_s(t) dt - 2 pi i h_s(s)
    #                      + int tanh((t - s)/2) h_-s(t) dt] / 4 pi
    M = 64
    state, _ = solve(pair_cfg(R, M))
    idx = np.arange(M // 4, 3 * M // 4 + 1)
    s = state.problem.grids[+1].nodes[idx]
    for side, ray in ((+1, 0), (-1, 1)):
        integrals, h = _reference(state, side, s)
        want = THETA[1] - (integrals - 2j * math.pi * h) / (4.0 * math.pi)
        assert np.max(np.abs(want - THETA[1])) > 1e-6
        assert np.max(np.abs(state.values[ray, idx, 1] - want)) <= 1e-13, side


@pytest.mark.parametrize("R", [1.0, 0.3, 0.1])
def test_off_node_limits_match_a_fine_reference(R):
    # both limits of evaluate_theta between the nodes:
    # Theta_2(+-) = theta_2 - [PV ... +- 2 pi i h_s(s) + ...] / 4 pi
    M = 64
    state, _ = solve(pair_cfg(R, M))
    nodes = state.problem.grids[+1].nodes
    s = np.random.default_rng(14).uniform(nodes[M // 4], nodes[3 * M // 4], 12)
    for side in (+1, -1):
        zeta = np.exp(s) * state.problem.rays[side].unit()
        plus, minus = evaluate_theta(state, zeta, side="both")
        integrals, h = _reference(state, side, s)
        for sign, got in ((+1, plus[1]), (-1, minus[1])):
            want = THETA[1] - (integrals + sign * 2j * math.pi * h) / (4.0 * math.pi)
            assert np.max(np.abs(got - want)) <= 1e-13, (side, sign)
