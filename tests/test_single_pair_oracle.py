"""Closed-form oracles: mutually local spectra, {+-gamma1} first.

When every pair of charges in the spectrum pairs to zero, no side factor
moves another (x^cur = x), every X_g stays semiflat with Theta_g = theta_g,
and Theta is an explicit Cauchy integral of the side densities

    h^k_s = sum_{g on side s} <gamma_k, g> Omega_g log(1 - sigma_g X_g),

sigma_g = (-1)^(c1 c2) the refinement sign.  Expanding the log, the n-th
power of X_g integrates along either ray to
int X_g^n dzeta/zeta = 2 K0(2 pi n R |Z_g|) e^{i n theta_g}, so, summed to
all orders,

    Theta_k(0) = theta_k + (1/4 pi) sum_g <gamma_k, g> Omega_g
                 sum_{n >= 1} (sigma_g^n / n) 2 K0(2 pi n R |Z_g|) e^{i n theta_g},

and Theta_k(inf) = 2 theta_k - Theta_k(0) (the kernel tends to -1 there).
For {+-gamma1} with Omega = 1 this is Theta_2(0) = theta_2 - (i/pi)
sum_n sin(n theta_1)/n K0(2 pi n R |Z|).  At the nodes and between them the
reference is a fine trapezoid rule on the Gaussian-subtracted
principal-value integrand of the exact density, which is smooth and decays.
"""

import math

import numpy as np
import pytest

from rhflow.charge_lattice import GAMMA1, GAMMA2, Spectrum, pairing
from rhflow.rh_solver import SolverConfig, evaluate_theta, solve
from rhflow.spectrum_rays import CentralCharge

PAIR = Spectrum.from_pairs([((1, 0), 1), ((-1, 0), 1)])
SPECTRA = {
    "pair_omega2": Spectrum.from_pairs([((1, 0), 2), ((-1, 0), 2)]),
    "diagonal": Spectrum.from_pairs([((1, 1), 1), ((-1, -1), 1)]),  # sigma = -1
    # gamma1 and 2 gamma1 share a BPS ray: each side orders them by a tie
    # key that negation reverses
    "double": Spectrum.from_pairs([((1, 0), 1), ((-1, 0), 1), ((2, 0), 1), ((-2, 0), 1)]),
}
MOVED = {"pair_omega2": [1], "diagonal": [0, 1], "double": [1]}
Z = CentralCharge.constant(1.0, 1j)
THETA = (0.7, 1.3)


def local_cfg(spectrum: Spectrum, R: float, M: int) -> SolverConfig:
    return SolverConfig(R=R, a=0.0, theta=THETA, spectrum=spectrum, Z=Z, M=M)


def pair_cfg(R: float, M: int) -> SolverConfig:
    return local_cfg(PAIR, R, M)


def k0(x: float) -> float:
    """K0(x) = int_0^inf e^{-x cosh t} dt by the trapezoid rule, step 0.05 on
    [0, 12] (spectrally accurate for this decaying, even integrand)."""
    t = np.arange(0.0, 12.0 + 1e-12, 0.05)
    f = np.exp(-x * np.cosh(t))
    return 0.05 * (f.sum() - 0.5 * (f[0] + f[-1]))


def theta_at_zero(spectrum: Spectrum, R: float) -> np.ndarray:
    """The all-orders Bessel sum of the module docstring, per target k; the
    sum over n stops once a term's Bessel factor drops below 1e-20."""
    acc = np.zeros(2, dtype=complex)
    for g, om in spectrum.active():
        sigma = -1 if (g.c1 * g.c2) % 2 else 1
        theta_g = g.c1 * THETA[0] + g.c2 * THETA[1]
        x = 2.0 * math.pi * R * abs(Z.of(g, 0.0))
        total, n = 0j, 1
        while (term := 2.0 * k0(n * x) / n) > 1e-20:
            total += sigma ** n * term * np.exp(1j * n * theta_g)
            n += 1
        acc += om * total * np.array([pairing(GAMMA1, g), pairing(GAMMA2, g)])
    return np.array(THETA) + acc / (4.0 * math.pi)


@pytest.mark.parametrize("R", [1.0, 0.3, 0.1])
def test_theta1_is_theta1_exactly(R):
    state, _ = solve(pair_cfg(R, 64))
    assert np.all(state.values[..., 0] == THETA[0])
    assert state.limits[0][0] == THETA[0] and state.limits[1][0] == THETA[0]


@pytest.mark.parametrize("M", [64, 128])
@pytest.mark.parametrize("R", [1.0, 0.3, 0.1, 0.03])
def test_theta2_at_zero_matches_the_bessel_sum(R, M):
    # the order-8 series missed this by 3.8e-5 at R = 0.1 and 6.5e-3 at 0.03
    state, _ = solve(pair_cfg(R, M))
    want = theta_at_zero(PAIR, R)
    assert abs(want[1] - THETA[1]) > 1e-6  # the correction is not trivial
    assert abs(state.limits[0][1] - want[1]) <= 1e-14
    assert abs(state.limits[1][1] - (2 * THETA[1] - want[1])) <= 1e-14


@pytest.mark.parametrize("M", [64, 128])
@pytest.mark.parametrize("R", [1.0, 0.3, 0.1, 0.03])
@pytest.mark.parametrize("name", sorted(SPECTRA))
def test_local_spectrum_limits_match_the_bessel_sum(name, R, M):
    # Omega = 2 doubles the pair's correction; the diagonal pair moves both
    # targets, with sigma = -1; gamma1 and 2 gamma1 move only Theta_2
    spectrum = SPECTRA[name]
    state, _ = solve(local_cfg(spectrum, R, M))
    want = theta_at_zero(spectrum, R)
    moved = [k for k in (0, 1) if abs(want[k] - THETA[k]) > 1e-6]
    assert moved == MOVED[name]
    for k in (0, 1):
        assert abs(state.limits[0][k] - want[k]) <= 1e-14, k
        assert abs(state.limits[1][k] - (2 * THETA[k] - want[k])) <= 1e-14, k


def _density(state, side: int, t: np.ndarray) -> np.ndarray:
    """The target-2 density of one side at the log radii t of its ray: the
    exact log(1 - sigma X_g) of the side's charges, times <gamma_2, g> Omega_g,
    with X_g semiflat (exact here)."""
    prep, cfg = state.problem, state.cfg
    zeta = np.exp(t) * prep.rays[side].unit()
    out = np.zeros(t.shape, dtype=complex)
    for g, om in cfg.spectrum.active():
        if prep.classification[g] != side:
            continue
        sigma = -1 if (g.c1 * g.c2) % 2 else 1
        zg = cfg.Z.of(g, cfg.a)
        theta_g = g.c1 * cfg.theta[0] + g.c2 * cfg.theta[1]
        expo = math.pi * cfg.R * (zg / zeta + zeta * np.conj(zg)) + 1j * theta_g
        live = expo.real > -750.0  # X_g underflows to 0 elsewhere
        out[live] += pairing(GAMMA2, g) * om * np.log1p(-sigma * np.exp(expo[live]))
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
    for side, values in ((+1, state.values), (-1, state.values[::-1].conj())):
        integrals, h = _reference(state, side, s)
        want = THETA[1] - (integrals - 2j * math.pi * h) / (4.0 * math.pi)
        assert np.max(np.abs(want - THETA[1])) > 1e-6
        assert np.max(np.abs(values[idx, 1] - want)) <= 1e-13, side


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
        plus, minus = evaluate_theta(state, zeta)
        integrals, h = _reference(state, side, s)
        for sign, got in ((+1, plus[1]), (-1, minus[1])):
            want = THETA[1] - (integrals + sign * 2j * math.pi * h) / (4.0 * math.pi)
            assert np.max(np.abs(got - want)) <= 1e-13, (side, sign)
