import math

import numpy as np
import pytest

from rhflow.charge_lattice import Charge, GAMMA1, GAMMA2, Spectrum, pentagon_spectrum
from rhflow.errors import (ConfigError, DivergenceError, NonContractionError,
                           TruncationUnsafeError)
from rhflow.rh_solver import (SolverConfig, ThetaState, _Prepared, asymptotic_theta,
                              check_jump,
                              check_reality, evaluate_Y, evaluate_theta, init_state,
                              iterate_once, smoothness_probe, solve)
from rhflow.spectrum_rays import CentralCharge, alternative_split_phases, semiflat

Z = CentralCharge.constant(1.0, 1j)


def pentagon_cfg(**kw):
    base = dict(R=4.0, a=0.0, theta=(0.7, 1.3), spectrum=pentagon_spectrum(),
                Z=Z, N=8, M=128, tol=1e-12, max_iter=30)
    base.update(kw)
    return SolverConfig(**base)


def empty_cfg(**kw):
    base = dict(R=4.0, a=0.0, theta=(0.7, 1.3), spectrum=Spectrum(()), Z=Z)
    base.update(kw)
    return SolverConfig(**base)


# ---------------- configuration ----------------

def test_config_rejects_bad_fields():
    with pytest.raises(ConfigError, match="R"):
        pentagon_cfg(R=-1.0).validate()
    with pytest.raises(ConfigError, match="M"):
        pentagon_cfg(M=127).validate()
    with pytest.raises(ConfigError, match="ball_epsilon"):
        pentagon_cfg(ball_epsilon=1.0).validate()


# ---------------- iteration basics ----------------

def test_init_state_is_constant_theta():
    st = init_state(empty_cfg(theta=(0.0, 0.0)))
    assert np.all(st.values == 0)
    assert st.nu == 0 and st.last_delta == math.inf


def test_empty_spectrum_fixed_after_one_step():
    cfg = empty_cfg()
    st1 = iterate_once(init_state(cfg), cfg)
    assert st1.last_delta == 0.0
    assert np.all(st1.values[..., 0] == cfg.theta[0])


def test_empty_spectrum_solve_and_residuals():
    cfg = empty_cfg()
    state, report = solve(cfg)
    assert report["iterations"] == 2
    assert report["residuals"]["jump"] == 0.0
    assert report["residuals"]["reality"] == 0.0
    t0 = asymptotic_theta(state, cfg, at=0)
    assert t0[0] == cfg.theta[0] and t0[1] == cfg.theta[1]
    z = 0.5 + 0.8j
    assert evaluate_Y(state, cfg, GAMMA1, z) == pytest.approx(
        semiflat(Z, GAMMA1, 0.0, cfg.theta, z, cfg.R), rel=1e-14)


def test_single_pair_moves_only_theta2():
    spec = Spectrum.from_pairs([((1, 0), 1), ((-1, 0), 1)])
    cfg = empty_cfg(spectrum=spec)
    st1 = iterate_once(init_state(cfg), cfg)
    assert np.all(st1.values[..., 0] == cfg.theta[0])   # pairing with itself is 0
    assert np.any(st1.values[..., 1] != cfg.theta[1])


def test_pentagon_first_step_is_small():
    cfg = pentagon_cfg()
    st1 = iterate_once(init_state(cfg), cfg)
    dev = np.max(np.abs(st1.values - init_state(cfg).values))
    assert dev < 1e-7


def test_solve_computes_densities_once_per_state(monkeypatch):
    # one density set per iterate plus the converged state's for the checks
    calls = []
    original = _Prepared.densities

    def counting(self, values):
        calls.append(1)
        return original(self, values)

    monkeypatch.setattr(_Prepared, "densities", counting)
    _, report = solve(pentagon_cfg())
    assert 0 < len(calls) <= report["iterations"] + 1


def test_state_rejects_a_different_config():
    cfg = pentagon_cfg()
    state, _ = solve(cfg)
    assert check_jump(state, pentagon_cfg()) < 1e-6   # equal config is fine
    with pytest.raises(ValueError):
        asymptotic_theta(state, pentagon_cfg(theta=(0.2, 1.3)), at=0)


@pytest.mark.parametrize("N", [1, 2])
def test_jump_guard_names_a_charge_with_large_Y(N):
    # pushing Im Theta_2 down by K multiplies |Y_g| by e^{c2 K}: e1 stays
    # below 1 and e1 + e2 exceeds it.  At N = 1 the truncated series has no
    # term at e1 + e2, at N = 2 it has one; the guard checks it either way.
    spec = Spectrum.from_pairs([((1, 0), 1), ((-1, 0), 1), ((1, 1), 1), ((-1, -1), 1)])
    cfg = empty_cfg(spectrum=spec, N=N, M=64)
    st = init_state(cfg)
    assert (Charge(1, 1) in [g for g, _, _ in st.problem.f[+1]]) == (N == 2)
    values = st.values.copy()
    values[..., 1] -= 100j
    with pytest.raises(TruncationUnsafeError, match=r"for charge \(1,1\) on its jump ray"):
        check_jump(ThetaState(values, st.problem), cfg)


def test_pentagon_solves_quickly_with_tiny_ratios():
    cfg = pentagon_cfg()
    state, report = solve(cfg)
    assert report["iterations"] <= 30
    assert all(r < 0.05 for r in report["ratios"])
    assert state.last_delta < cfg.tol
    assert not state.ball_exits


def test_converged_state_is_a_fixed_point():
    cfg = pentagon_cfg()
    state, _ = solve(cfg)
    again = iterate_once(state, cfg)
    assert again.last_delta < 10 * cfg.tol


def test_contraction_improves_with_R():
    r4 = solve(pentagon_cfg(R=4.0))[1]["ratios"]
    r8 = solve(pentagon_cfg(R=8.0))[1]["ratios"]
    for a, b in zip(r8, r4):
        assert a < b < 1.0


def test_non_contraction_raises():
    with pytest.raises((NonContractionError, DivergenceError)):
        solve(pentagon_cfg(R=0.01, tol=1e-14))


def test_ball_exit_is_recorded_not_fatal():
    cfg = pentagon_cfg(M=64, ball_epsilon=1e-10)  # every iterate leaves the ball
    state, report = solve(cfg)
    assert report["ball_exits"]
    assert state.last_delta < cfg.tol


def test_init_state_propagates_no_admissible_ray():
    from rhflow.errors import NoAdmissibleRayError
    cfg = pentagon_cfg(split_phase=math.pi)  # separating line on an active ray
    with pytest.raises(NoAdmissibleRayError):
        init_state(cfg)


# ---------------- evaluation and checks ----------------

def test_stored_nodes_are_minus_side_values():
    cfg = pentagon_cfg()
    state, _ = solve(cfg)
    grid = state.problem.grids[+1]
    i = cfg.M // 2 + 5
    zeta = grid.points()[i]
    th = evaluate_theta(state, cfg, zeta, side="minus")
    assert th[0] == pytest.approx(state.values[0, i, 0], rel=1e-10, abs=1e-12)
    assert th[1] == pytest.approx(state.values[0, i, 1], rel=1e-10, abs=1e-12)


def test_Y_is_multiplicative_in_the_charge():
    cfg = pentagon_cfg()
    state, _ = solve(cfg)
    z = 0.4 + 1.2j
    y1 = evaluate_Y(state, cfg, GAMMA1, z)
    y2 = evaluate_Y(state, cfg, GAMMA2, z)
    y12 = evaluate_Y(state, cfg, GAMMA1 + GAMMA2, z)
    assert y12 == pytest.approx(y1 * y2, rel=1e-12)


def test_jump_residual_small():
    cfg = pentagon_cfg()
    state, _ = solve(cfg)
    assert check_jump(state, cfg) < 1e-6


def test_reality_residual_small():
    cfg = pentagon_cfg()
    state, _ = solve(cfg)
    assert check_reality(state, cfg) < 1e-8


def test_asymptotic_limits():
    cfg = pentagon_cfg()
    state, _ = solve(cfg)
    t0 = asymptotic_theta(state, cfg, at=0)
    tinf = asymptotic_theta(state, cfg, at=math.inf)
    for k in (0, 1):
        assert abs((t0[k] - cfg.theta[k]).real) < 1e-9
        assert abs(t0[k] - tinf[k].conjugate()) < 1e-9


def test_evaluate_Y_rejects_origin():
    cfg = empty_cfg()
    state, _ = solve(cfg)
    with pytest.raises(ValueError):
        evaluate_Y(state, cfg, GAMMA1, 0.0)


def test_solution_independent_of_admissible_ray_choice():
    # different separating lines give solutions equal up to a real constant
    cfg = pentagon_cfg()
    state, _ = solve(cfg)
    alt_phases = alternative_split_phases(Z, cfg.spectrum, 0.0)
    assert len(alt_phases) >= 2
    cfg2 = pentagon_cfg(split_phase=alt_phases[1])
    state2, _ = solve(cfg2)
    samples = [0.4 + 1.2j, -0.8 + 0.9j, 1.5 - 0.4j, -0.2 - 1.1j]
    ratios = [evaluate_Y(state, cfg, GAMMA1, z) / evaluate_Y(state2, cfg2, GAMMA1, z)
              for z in samples]
    c = ratios[0]
    assert abs(c.imag) < 1e-6 * abs(c)
    for rho in ratios[1:]:
        assert abs(rho - c) < 1e-6 * abs(c)


# ---------------- smoothness probe ----------------

def test_smoothness_probe_theta_direction():
    cfg = pentagon_cfg(M=64)
    out = smoothness_probe(cfg, "theta1", 1, 1e-2)
    assert out["rel_change"] < 1e-4
    # the identity part of dTheta1/dtheta1 dominates
    assert abs(out["nodes"][0, cfg.M // 2, 0] - 1.0) < 1e-3


def test_smoothness_probe_second_order():
    cfg = pentagon_cfg(M=64)
    out = smoothness_probe(cfg, "theta1", 2, 1e-2)
    assert out["rel_change"] < 1e-4


def test_smoothness_probe_a_dependence():
    # polynomial central charge: z1 = 1 + a/2, real a-derivatives exist
    Za = CentralCharge((1.0, 0.5), (1j,))
    cfg = SolverConfig(R=4.0, a=0.1, theta=(0.7, 1.3), spectrum=pentagon_spectrum(),
                       Z=Za, M=64)
    out1 = smoothness_probe(cfg, "a_re", 1, 2e-2)
    assert out1["rel_change"] < 1e-4
    assert out1["sup"] > 0
    out3 = smoothness_probe(cfg, "a_re", 3, 5e-2)
    assert math.isfinite(out3["sup"])


def test_smoothness_probe_rejects_unknown_direction():
    with pytest.raises(ConfigError):
        smoothness_probe(pentagon_cfg(M=64), "b", 1, 1e-2)


def test_generic_two_pair_spectrum():
    # asymmetric central charge, rays at non-right angles
    Zg = CentralCharge.constant(1.3 + 0.2j, -0.25 + 1.1j)
    spec = Spectrum.from_pairs([((1, 0), 1), ((-1, 0), 1), ((0, 1), 1), ((0, -1), 1)])
    cfg = SolverConfig(R=3.0, a=0.0, theta=(0.4, 2.1), spectrum=spec, Z=Zg,
                       M=128, max_iter=40)
    state, report = solve(cfg)
    assert report["residuals"]["jump"] < 1e-6
    assert report["residuals"]["reality"] < 1e-8
    assert report["residuals"]["asymptotic_real"] < 1e-9
    assert report["residuals"]["asymptotic_conj"] < 1e-9

    # a second admissible split must give the same solution up to a real factor
    alts = alternative_split_phases(Zg, spec, 0.0)
    assert len(alts) >= 2
    cfg2 = SolverConfig(R=3.0, a=0.0, theta=(0.4, 2.1), spectrum=spec, Z=Zg,
                        M=128, max_iter=40, split_phase=alts[1])
    state2, _ = solve(cfg2)
    samples = [0.6 + 0.9j, -1.1 + 0.3j, 0.2 - 1.4j]
    ratios = [evaluate_Y(state, cfg, GAMMA2, z) / evaluate_Y(state2, cfg2, GAMMA2, z)
              for z in samples]
    c = ratios[0]
    assert abs(c.imag) < 1e-6 * abs(c)
    for rho in ratios[1:]:
        assert abs(rho - c) < 1e-6 * abs(c)


def test_reality_residual_invariant_under_angle_period():
    cfg = pentagon_cfg(M=64)
    state, _ = solve(cfg)
    shifted = pentagon_cfg(M=64, theta=(cfg.theta[0] + 2 * math.pi, cfg.theta[1]))
    state2, _ = solve(shifted)
    r1 = check_reality(state, cfg, count=16)
    r2 = check_reality(state2, shifted, count=16)
    assert abs(r1 - r2) < 1e-12
    # the solution functions themselves are periodic in the angles
    z = 0.5 + 0.9j
    assert evaluate_Y(state, cfg, GAMMA1, z) == pytest.approx(
        evaluate_Y(state2, shifted, GAMMA1, z), rel=1e-9)


def test_double_multiplicity_doubles_first_correction():
    base = Spectrum.from_pairs([((1, 0), 1), ((-1, 0), 1)])
    double = Spectrum.from_pairs([((1, 0), 2), ((-1, 0), 2)])
    cfg1 = empty_cfg(spectrum=base)
    cfg2 = empty_cfg(spectrum=double)
    st1 = iterate_once(init_state(cfg1), cfg1)
    st2 = iterate_once(init_state(cfg2), cfg2)
    dev1 = st1.values[..., 1] - cfg1.theta[1]
    dev2 = st2.values[..., 1] - cfg2.theta[1]
    # the first iterate is linear in the coefficient family, which doubles
    assert np.allclose(dev2, 2.0 * dev1, rtol=1e-9)


# ---------------- evaluation on arrays of points ----------------

def test_evaluate_theta_on_an_array_matches_single_points_bit_for_bit():
    cfg = pentagon_cfg(R=1.0)
    state, _ = solve(cfg)
    g = state.problem.grids[+1]
    on_r = np.exp(np.array([g.nodes[9], 0.5 * (g.nodes[30] + g.nodes[31])])) * g.direction.unit()
    pts = np.concatenate([[0.4 + 1.1j, -2.0 + 0.3j], on_r, -on_r])
    for side in ("auto", "plus", "minus"):
        batched = evaluate_theta(state, cfg, pts, side=side)
        single = [evaluate_theta(state, cfg, complex(z), side=side) for z in pts]
        for k in (0, 1):
            assert np.array_equal(batched[k], np.array([t[k] for t in single])), side


def test_solve_evaluates_theta_in_batches(monkeypatch):
    import rhflow.rh_solver as rh
    calls = []
    original = rh.evaluate_theta

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(rh, "evaluate_theta", counting)
    solve(pentagon_cfg(R=1.0))
    assert 0 < len(calls) <= 6


def test_jump_check_sees_discretisation_error():
    # midpoints off the nodes compare the interpolated boundary transform
    # against the jump series, so the residual falls as the grid is refined;
    # at the nodes alone it would hold by construction at every M
    coarse, _ = solve(pentagon_cfg(R=0.3, M=128))
    fine, _ = solve(pentagon_cfg(R=0.3, M=512))
    assert check_jump(coarse, pentagon_cfg(R=0.3, M=128)) >= 100 * check_jump(
        fine, pentagon_cfg(R=0.3, M=512))
