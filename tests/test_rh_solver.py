import dataclasses
import math

import numpy as np
import pytest

from rhflow.charge_lattice import (Charge, GAMMA1, GAMMA2, Spectrum, pairing,
                                   pentagon_spectrum)
from rhflow.contour_quadrature import on_covered_ray
from rhflow.errors import (ConfigError, DivergenceError, NonContractionError,
                           TruncationUnsafeError)
from rhflow.rh_solver import (SolverConfig, ThetaState, _Prepared, asymptotic_theta,
                              check_jump,
                              check_reality, evaluate_Y, evaluate_theta, init_state,
                              iterate_once, smoothness_probe, solve, verify)
from rhflow.spectrum_rays import CentralCharge, alternative_split_phases, semiflat
from rhflow.stokes_series import ordered_side_charges

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
    # a state is its node values and its problem; solve keeps the record
    assert [f.name for f in dataclasses.fields(st)] == ["values", "problem"]


def test_empty_spectrum_fixed_after_one_step():
    cfg = empty_cfg()
    st0 = init_state(cfg)
    st1 = iterate_once(st0)
    assert np.max(np.abs(st1.values - st0.values)) == 0.0
    assert np.all(st1.values[..., 0] == cfg.theta[0])


def test_empty_spectrum_solve_and_residuals():
    cfg = empty_cfg()
    state, report = solve(cfg)
    assert report["iterations"] == 2
    residuals = verify(state)
    assert residuals["jump"] == 0.0
    assert residuals["reality"] == 0.0
    t0, _ = asymptotic_theta(state)
    assert t0[0] == cfg.theta[0] and t0[1] == cfg.theta[1]
    z = 0.5 + 0.8j
    assert evaluate_Y(state, GAMMA1, z) == pytest.approx(
        semiflat(Z, GAMMA1, 0.0, cfg.theta, z, cfg.R), rel=1e-14)


def test_single_pair_moves_only_theta2():
    spec = Spectrum.from_pairs([((1, 0), 1), ((-1, 0), 1)])
    cfg = empty_cfg(spectrum=spec)
    st1 = iterate_once(init_state(cfg))
    assert np.all(st1.values[..., 0] == cfg.theta[0])   # pairing with itself is 0
    assert np.any(st1.values[..., 1] != cfg.theta[1])


def test_pentagon_first_step_is_small():
    cfg = pentagon_cfg()
    st1 = iterate_once(init_state(cfg))
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


@pytest.mark.parametrize("N", [1, 2])
def test_jump_guard_names_a_charge_with_large_Y(N):
    # pushing Im Theta_2 down by K multiplies |Y_g| by e^{c2 K}: e1 stays
    # below 1 and e1 + e2 exceeds it.  The truncation order N does not enter
    # the solve: the side map has e1 + e2 as a factor at every N, and the
    # guard checks it either way
    spec = Spectrum.from_pairs([((1, 0), 1), ((-1, 0), 1), ((1, 1), 1), ((-1, -1), 1)])
    cfg = empty_cfg(spectrum=spec, N=N, M=64)
    st = init_state(cfg)
    assert Charge(1, 1) in [g for g, _ in st.problem.maps[+1].charges]
    other = init_state(empty_cfg(spectrum=spec, N=3 - N, M=64))
    for side in (+1, -1):
        assert np.array_equal(st.densities[side], other.densities[side])
    values = st.values.copy()
    values[..., 1] -= 100j
    with pytest.raises(TruncationUnsafeError, match=r"for charge \(1,1\) on its jump ray"):
        check_jump(ThetaState(values, st.problem))


def test_pentagon_solves_quickly_with_tiny_ratios():
    cfg = pentagon_cfg()
    state, report = solve(cfg)
    assert report["iterations"] <= 30
    assert all(r < 0.05 for r in report["ratios"])
    assert report["deltas"][-1] < cfg.tol
    assert not report["ball_exits"]


def test_converged_state_is_a_fixed_point():
    cfg = pentagon_cfg()
    state, _ = solve(cfg)
    again = iterate_once(state)
    assert np.max(np.abs(again.values - state.values)) < 10 * cfg.tol


def test_contraction_improves_with_R():
    r4 = solve(pentagon_cfg(R=4.0))[1]["ratios"]
    r8 = solve(pentagon_cfg(R=8.0))[1]["ratios"]
    for a, b in zip(r8, r4):
        assert a < b < 1.0


def test_non_contraction_raises():
    # far below the contraction range the map expands; the exact log of the
    # side maps grows like the exponent of Y, so the iterates stay finite
    # and the solve ends at max_iter with the worst ratio above one
    with pytest.raises(NonContractionError) as err:
        solve(pentagon_cfg(R=0.01, tol=1e-14))
    assert str(err.value) == ("no convergence in 30 iterations (last delta 3.579e+00, "
                              "worst ratio 1.41); R = 0.01 is too small for this "
                              "spectrum")


def test_non_finite_iterate_raises_divergence(monkeypatch):
    # the guard for an iterate that overflows: no configuration of the test
    # suite reaches it any more, so a step is made to return a NaN
    import rhflow.rh_solver as rh
    original = rh.iterate_once

    def poisoned(state):
        new = original(state)
        new.values[0, 0, 0] = np.nan
        return new

    monkeypatch.setattr(rh, "iterate_once", poisoned)
    with pytest.raises(DivergenceError, match="non-finite iterate at step 1; R = 4"):
        solve(pentagon_cfg())


def test_slow_contraction_raises_with_last_delta_and_worst_ratio():
    with pytest.raises(NonContractionError) as err:
        solve(pentagon_cfg(R=0.3, max_iter=3))
    assert str(err.value) == ("no convergence in 3 iterations (last delta 1.227e-02, "
                              "worst ratio 0.337); R = 0.3 is too small for this "
                              "spectrum")


@pytest.mark.parametrize("kw", [{}, {"R": 0.3}, {"M": 64, "ball_epsilon": 1e-10}],
                         ids=["R4", "R0.3", "ball_exits"])
def test_solve_record_matches_a_hand_loop(kw):
    cfg = pentagon_cfg(**kw)
    state, report = solve(cfg)
    st = init_state(cfg)
    deltas, exits = [], []
    while len(deltas) < cfg.max_iter:
        new = iterate_once(st)
        deltas.append(float(np.max(np.abs(new.values - st.values))))
        if np.max(np.abs(new.values - np.array(cfg.theta))) > cfg.ball_epsilon:
            exits.append(len(deltas))
        st = new
        if len(deltas) >= 2 and deltas[-1] < cfg.tol:
            break
    assert report["iterations"] == len(deltas)
    assert report["deltas"] == deltas
    assert report["ball_exits"] == exits
    assert np.array_equal(state.values, st.values)
    if "ball_epsilon" in kw:
        assert exits == [1, 2]


def test_ball_exit_is_recorded_not_fatal():
    cfg = pentagon_cfg(M=64, ball_epsilon=1e-10)  # every iterate leaves the ball
    state, report = solve(cfg)
    assert report["ball_exits"]
    assert report["deltas"][-1] < cfg.tol


def test_init_state_propagates_no_admissible_ray():
    from rhflow.errors import NoAdmissibleRayError
    cfg = pentagon_cfg(split_phase=math.pi)  # separating line on an active ray
    with pytest.raises(NoAdmissibleRayError):
        init_state(cfg)


# ---------------- evaluation and checks ----------------

def test_stored_nodes_are_minus_side_values():
    # evaluate_theta's rule on a ray is the node operator's at the nodes,
    # end nodes included
    for kw in (dict(R=8.0, N=12, M=128), dict(R=1.0, M=128), dict(R=0.3, M=64)):
        state, _ = solve(pentagon_cfg(**kw))
        for side, ray in ((+1, 0), (-1, 1)):
            th = evaluate_theta(state, state.problem.grids[side].points(), side="minus")
            for k in (0, 1):
                err = np.max(np.abs(th[k] - state.values[ray, :, k]))
                assert err <= 1e-12, (kw, side, k)


def test_end_nodes_count_as_on_the_ray():
    # log|e^{-L} unit| may round past -L; the first node must still take the
    # on-ray rule, not the off-ray sum with a pole on a node
    state, _ = solve(pentagon_cfg(R=8.0, N=12, M=128))
    for side in (+1, -1):
        grid = state.problem.grids[side]
        evaluate_theta(state, grid.points(), side="both")
        assert np.all(on_covered_ray(grid, grid.points()[[0, -1]]))


def test_Y_is_multiplicative_in_the_charge():
    cfg = pentagon_cfg()
    state, _ = solve(cfg)
    z = 0.4 + 1.2j
    y1 = evaluate_Y(state, GAMMA1, z)
    y2 = evaluate_Y(state, GAMMA2, z)
    y12 = evaluate_Y(state, GAMMA1 + GAMMA2, z)
    assert y12 == pytest.approx(y1 * y2, rel=1e-12)


def test_jump_residual_small():
    cfg = pentagon_cfg()
    state, _ = solve(cfg)
    assert check_jump(state) < 1e-6


def test_reality_residual_small():
    cfg = pentagon_cfg()
    state, _ = solve(cfg)
    assert check_reality(state) < 1e-8


def test_asymptotic_limits():
    cfg = pentagon_cfg()
    state, _ = solve(cfg)
    t0, tinf = asymptotic_theta(state)
    for k in (0, 1):
        assert abs((t0[k] - cfg.theta[k]).real) < 1e-9
        assert abs(t0[k] - tinf[k].conjugate()) < 1e-9


def test_evaluate_Y_rejects_origin():
    cfg = empty_cfg()
    state, _ = solve(cfg)
    with pytest.raises(ValueError):
        evaluate_Y(state, GAMMA1, 0.0)


def test_solution_independent_of_admissible_ray_choice():
    # different separating lines give solutions equal up to a real constant
    cfg = pentagon_cfg()
    state, _ = solve(cfg)
    alt_phases = alternative_split_phases(Z, cfg.spectrum, 0.0)
    assert len(alt_phases) >= 2
    cfg2 = pentagon_cfg(split_phase=alt_phases[1])
    state2, _ = solve(cfg2)
    samples = [0.4 + 1.2j, -0.8 + 0.9j, 1.5 - 0.4j, -0.2 - 1.1j]
    ratios = [evaluate_Y(state, GAMMA1, z) / evaluate_Y(state2, GAMMA1, z)
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


def test_smoothness_probe_verifies_nothing(monkeypatch):
    import rhflow.rh_solver as rh
    calls = []
    for name in ("check_jump", "check_reality", "evaluate_theta"):
        original = getattr(rh, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(rh, name, counting)
    smoothness_probe(pentagon_cfg(M=64), "theta1", 2, 1e-2)
    assert calls == []


def test_solve_guards_each_converged_state_once(monkeypatch):
    import rhflow.rh_solver as rh
    guarded = []
    original = rh.truncation_guard

    def counting(state):
        guarded.append(state.problem.cfg)
        return original(state)

    monkeypatch.setattr(rh, "truncation_guard", counting)
    solutions = {}
    smoothness_probe(pentagon_cfg(M=64), "theta1", 1, 1e-2, solutions=solutions)
    assert len(guarded) == len(solutions) == 4
    assert set(guarded) == set(solutions)


def test_solve_and_verify_guard_and_take_the_limits_once_per_state(monkeypatch):
    import rhflow.rh_solver as rh
    calls = []
    for name in ("truncation_guard", "asymptotic_theta"):
        original = getattr(rh, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(rh, name, counting)
    state, report = solve(pentagon_cfg(R=1.0))
    residuals = verify(state)
    assert sorted(calls) == ["asymptotic_theta", "truncation_guard"]
    assert report["theta0"] == [[t.real, t.imag] for t in state.limits[0]]
    assert residuals["asymptotic_conj"] == max(
        abs(a - b.conjugate()) for a, b in zip(*state.limits))
    # a state that never went through solve is guarded by check_jump, once
    calls.clear()
    fresh = ThetaState(state.values, state.problem)
    assert check_jump(fresh) == check_jump(state)
    check_jump(fresh)
    assert calls == ["truncation_guard"]


def test_smoothness_probe_refuses_a_converged_state_with_large_Y():
    # the iteration converges at R = 0.09, but |Y_(0,1)| reaches 1.01 on its
    # jump ray; the probe verifies nothing and must still fail
    cfg = pentagon_cfg(R=0.09, theta=(3.0, 3.0), M=64, max_iter=200)
    with pytest.raises(TruncationUnsafeError, match=r"for charge \(0,1\) on its jump ray"):
        smoothness_probe(cfg, "theta1", 1, 1e-2)


def test_smoothness_probe_rejects_unknown_direction():
    with pytest.raises(ConfigError):
        smoothness_probe(pentagon_cfg(M=64), "b", 1, 1e-2)


def test_generic_two_pair_spectrum():
    # asymmetric central charge, rays at non-right angles
    Zg = CentralCharge.constant(1.3 + 0.2j, -0.25 + 1.1j)
    spec = Spectrum.from_pairs([((1, 0), 1), ((-1, 0), 1), ((0, 1), 1), ((0, -1), 1)])
    cfg = SolverConfig(R=3.0, a=0.0, theta=(0.4, 2.1), spectrum=spec, Z=Zg,
                       M=128, max_iter=40)
    state, _ = solve(cfg)
    residuals = verify(state)
    assert residuals["jump"] < 1e-6
    assert residuals["reality"] < 1e-8
    assert residuals["asymptotic_real"] < 1e-9
    assert residuals["asymptotic_conj"] < 1e-9

    # a second admissible split must give the same solution up to a real factor
    alts = alternative_split_phases(Zg, spec, 0.0)
    assert len(alts) >= 2
    cfg2 = SolverConfig(R=3.0, a=0.0, theta=(0.4, 2.1), spectrum=spec, Z=Zg,
                        M=128, max_iter=40, split_phase=alts[1])
    state2, _ = solve(cfg2)
    samples = [0.6 + 0.9j, -1.1 + 0.3j, 0.2 - 1.4j]
    ratios = [evaluate_Y(state, GAMMA2, z) / evaluate_Y(state2, GAMMA2, z)
              for z in samples]
    c = ratios[0]
    assert abs(c.imag) < 1e-6 * abs(c)
    for rho in ratios[1:]:
        assert abs(rho - c) < 1e-6 * abs(c)


def test_reality_samples_are_drawn_once_per_ray(monkeypatch):
    # a sweep_r-style run: three verified solves on one ray draw the samples
    # once, and the kept points are the ones a fresh draw gives
    import rhflow.rh_solver as rh
    rh.reality_samples.cache_clear()
    draws = []
    original = np.random.default_rng

    def counting(*args, **kwargs):
        draws.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counting)
    states = [solve(pentagon_cfg(R=R))[0] for R in (4.0, 1.0, 0.3)]
    for state in states:
        verify(state)
    assert len(draws) == 1
    r = states[0].problem.r
    assert all(st.problem.r == r for st in states)
    kept = rh.reality_samples(r, 64)
    assert not kept.flags.writeable
    assert kept.tobytes() == rh.reality_samples.__wrapped__(r, 64).tobytes()


def test_reality_residual_invariant_under_angle_period():
    cfg = pentagon_cfg(M=64)
    state, _ = solve(cfg)
    shifted = pentagon_cfg(M=64, theta=(cfg.theta[0] + 2 * math.pi, cfg.theta[1]))
    state2, _ = solve(shifted)
    r1 = check_reality(state, count=16)
    r2 = check_reality(state2, count=16)
    assert abs(r1 - r2) < 1e-12
    # the solution functions themselves are periodic in the angles
    z = 0.5 + 0.9j
    assert evaluate_Y(state, GAMMA1, z) == pytest.approx(
        evaluate_Y(state2, GAMMA1, z), rel=1e-9)


def test_double_multiplicity_doubles_first_correction():
    base = Spectrum.from_pairs([((1, 0), 1), ((-1, 0), 1)])
    double = Spectrum.from_pairs([((1, 0), 2), ((-1, 0), 2)])
    cfg1 = empty_cfg(spectrum=base)
    cfg2 = empty_cfg(spectrum=double)
    st1 = iterate_once(init_state(cfg1))
    st2 = iterate_once(init_state(cfg2))
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
    for side in ("plus", "minus"):
        batched = evaluate_theta(state, pts, side=side)
        single = [evaluate_theta(state, complex(z), side=side) for z in pts]
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
    verify(solve(pentagon_cfg(R=1.0))[0])
    assert 0 < len(calls) <= 2


def test_jump_check_sees_discretisation_error():
    # midpoints off the nodes compare the boundary transform there against
    # the jump series, so the residual falls as the grid is refined; at the
    # nodes alone it would hold by construction at every M.  The node rule is
    # spectral: M = 128 already sits at the rounding floor of M = 512
    coarse, _ = solve(pentagon_cfg(R=0.3, M=64))
    fine, _ = solve(pentagon_cfg(R=0.3, M=512))
    assert check_jump(coarse) >= 100 * check_jump(fine)


def test_jump_check_propagates_a_nan_node_value():
    state, _ = solve(pentagon_cfg(R=1.0))
    values = state.values.copy()
    values[0, 40, 1] = np.nan
    broken = ThetaState(values, state.problem)
    assert math.isnan(check_jump(broken))
    assert math.isnan(verify(broken)["jump"])


# ---------------- one operator product per step ----------------

def test_solve_makes_few_ray_integrals(monkeypatch):
    # evaluate_theta passes both basis targets of a side in one stacked call
    # and skips empty point sets: two calls per batch, two batches per
    # verification
    import rhflow.rh_solver as rh
    calls = []
    original = rh.integrate_ray

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(rh, "integrate_ray", counting)
    verify(solve(pentagon_cfg(R=1.0))[0])
    assert 0 < len(calls) <= 4


@pytest.mark.parametrize("M", [128, 512, 2048])
def test_iterate_once_matches_the_split_formula(M):
    # Theta_k <- theta_k - [B(-) h_same + C_cross h_other] / 4 pi with
    # B(-) h = C_same h - 2 pi i h, the real node matrices rebuilt densely
    # here: C_same the alternating-point rule 2 w_j coth((s_j - s_i)/2) at odd
    # j - i, C_cross w_j tanh((s_j - s_i)/2), both from the offsets
    # (j - i) step (differences of node values lose digits near the diagonal)
    cfg = pentagon_cfg(R=0.3, M=M)
    state = iterate_once(iterate_once(init_state(cfg)))
    g = state.problem.grids[+1]
    w = g.weights
    k = np.subtract.outer(np.arange(M), np.arange(M)).T  # k[i, j] = j - i
    c_cross = np.tanh(0.5 * g.step * k)
    with np.errstate(divide="ignore"):
        c_same = np.where(k % 2 == 1, 2.0 / c_cross, 0.0) * w
    c_cross *= w
    dens = state.densities
    new = iterate_once(state).values
    theta = np.array(cfg.theta)
    for side, ray in ((+1, 0), (-1, 1)):
        h = dens[side]
        same = c_same @ h - 2j * math.pi * h
        expected = theta - (same + c_cross @ dens[-side]) / (4.0 * math.pi)
        assert np.max(np.abs(new[ray] - expected)) <= 1e-15 * np.max(np.abs(expected))
        assert np.max(np.abs(new[ray] - theta)) > 1e-3  # the correction is not trivial


# ---------------- the exact side maps ----------------

GENERIC_Z = CentralCharge.constant(1.3 + 0.2j, -0.25 + 1.1j)
GENERIC = Spectrum.from_pairs([((1, 0), 1), ((-1, 0), 1), ((0, 1), 1), ((0, -1), 1)])


def ks_product(state, side: int, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The side's Kontsevich-Soibelman product applied to the basis values y
    (shape (P, 2)), factor by factor in ordered_side_charges order: each
    factor multiplies y_k by (1 - sigma_g y^g)^{<gamma_k, g> Omega_g}, with
    y^g from the current y.  Returns the image of y and the log of the image
    over y per target, summed factor by factor as <gamma_k, g> Omega_g
    log(1 - sigma_g y^g)."""
    cfg, prep = state.problem.cfg, state.problem
    y = np.array(y, dtype=complex)
    logs = np.zeros_like(y)
    for g, om in ordered_side_charges(cfg.spectrum, cfg.Z, cfg.a, side, prep.r):
        sigma = -1 if (g.c1 * g.c2) % 2 else 1
        minus_x = -sigma * y[:, 0] ** g.c1 * y[:, 1] ** g.c2
        for k, gk in enumerate((GAMMA1, GAMMA2)):
            p = pairing(gk, g) * om
            y[:, k] *= (1.0 + minus_x) ** p
            logs[:, k] += p * np.log1p(minus_x)
    return y, logs


def basis_Y(state, zeta: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Y_{gamma_k} = exp(pi R (Z_k / zeta + zeta conj Z_k) + i Theta_k), shape (P, 2)."""
    cfg = state.problem.cfg
    zk = np.array(cfg.Z.basis_values(cfg.a))
    return np.exp(math.pi * cfg.R * (zk / zeta[:, None] + zeta[:, None] * zk.conj())
                  + 1j * theta)


@pytest.mark.parametrize("kw", [
    dict(N=8, R=0.3), dict(N=12, R=0.15),
    dict(spectrum=GENERIC, Z=GENERIC_Z, R=0.3), dict(spectrum=Spectrum(()), R=1.0),
], ids=["pentagon_N8", "pentagon_N12", "generic_two_pair", "empty"])
def test_densities_match_one_exp_per_charge(kw):
    # the densities are the log of the side's KS product at Y- on the nodes,
    # here from products of the factors (one exp per basis charge and node)
    cfg = pentagon_cfg(**{"max_iter": 100, **kw})
    state, _ = solve(cfg)
    prep = state.problem
    # the converged state, and one pushed off the real angles (|u| != 1)
    pushed = state.values + 0.3j * np.random.default_rng(7).standard_normal(
        state.values.shape)
    for values in (state.values, pushed):
        got = prep.densities(values)
        for side, ray in ((+1, 0), (-1, 1)):
            y = basis_Y(state, prep.grids[side].points(), values[ray])
            _, want = ks_product(state, side, y)
            assert got[side].shape == (cfg.M, 2)
            rel = np.abs(got[side] - want) / np.maximum(np.abs(want), np.finfo(float).tiny)
            assert np.max(rel, initial=0.0) <= 1e-14, side
    assert np.max(np.abs(pushed.imag)) > 0.5


@pytest.mark.parametrize("R, N", [(0.3, 8), (0.15, 12)])
def test_jump_holds_for_the_exact_side_map(R, N):
    # Y+ = S Y- at every midpoint of both rays, with S the side's KS product
    # applied to Y- in floating point (not the solver's side log); a solve
    # with the order-N series misses it by 7.2e-6 at R = 0.3, N = 8 and by
    # 1.7e-4 at R = 0.15, N = 12
    state, _ = solve(pentagon_cfg(R=R, N=N, M=256, max_iter=100))
    worst = 0.0
    for side in (+1, -1):
        nodes = state.problem.grids[side].nodes
        mids = np.exp(0.5 * (nodes[:-1] + nodes[1:])) * state.problem.rays[side].unit()
        plus, minus = evaluate_theta(state, mids, side="both")
        y_plus = basis_Y(state, mids, np.stack(plus, axis=1))
        predicted, _ = ks_product(state, side, basis_Y(state, mids, np.stack(minus, axis=1)))
        worst = max(worst, float(np.max(np.abs(predicted - y_plus) / np.abs(y_plus))))
    assert worst <= 1e-10
    assert check_jump(state) <= 1e-10


def _arrays(obj):
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from _arrays(v)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            yield from _arrays(v)


def test_prepared_keeps_no_square_array():
    # the node operator is kept as kernel spectra and O(M) vectors; nothing
    # of the problem grows like M^2
    M = 4096
    prep = init_state(pentagon_cfg(M=M)).problem
    sizes = [a.size for a in _arrays(vars(prep))]
    assert sizes and max(sizes) < M * M


def test_evaluate_theta_both_sides_match_the_single_sides_bit_for_bit():
    state, _ = solve(pentagon_cfg(R=1.0))
    g = state.problem.grids[+1]
    mids = np.exp(0.5 * (g.nodes[[3, 40, 77]] + g.nodes[[4, 41, 78]])) * g.direction.unit()
    pts = np.concatenate([mids, [0.4 + 1.1j, -2.0 + 0.3j]])
    for zeta in (pts, complex(pts[1]), complex(pts[4])):
        plus, minus = evaluate_theta(state, zeta, side="both")
        for side, pair in (("plus", plus), ("minus", minus)):
            single = evaluate_theta(state, zeta, side=side)
            assert all(np.array_equal(a, b) for a, b in zip(pair, single)), side
    for bad in ("left", "auto"):
        with pytest.raises(ValueError, match="side"):
            evaluate_theta(state, pts, side=bad)
