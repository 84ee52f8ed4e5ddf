import dataclasses
import math
from collections.abc import Mapping

import numpy as np
import pytest

from rhflow.charge_lattice import (Charge, GAMMA1, GAMMA2, Spectrum, pairing,
                                   pentagon_spectrum)
from rhflow.contour_quadrature import on_covered_ray
from rhflow.errors import (ConfigError, DivergenceError, NonContractionError,
                           TruncationUnsafeError)
from rhflow.rh_solver import (REALITY_OFFSETS, SolverConfig, _SideMap, _ThetaFree,
                              _circulant_fft, asymptotic_theta, check_jump, check_reality,
                              evaluate_Y, evaluate_theta, init_state, iterate_once,
                              midpoint_limits, reality_rays, smoothness_probe, solve,
                              solve_batch, truncation_guard, verify)
from rhflow.spectrum_rays import CentralCharge, alternative_split_phases, semiflat
from rhflow.stokes_series import ordered_side_charges

Z = CentralCharge.constant(1.0, 1j)


def pentagon_cfg(**kw):
    base = dict(R=4.0, a=0.0, theta=(0.7, 1.3), spectrum=pentagon_spectrum(),
                Z=Z, M=128, tol=1e-12, max_iter=30)
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
    cfg = empty_cfg(theta=(0.0, 0.0))
    st = init_state(cfg)
    assert st.values.shape == (cfg.M, 2) and np.all(st.values == 0)
    # a state is r's node values, its config and its theta-free problem;
    # solve keeps the record
    assert [f.name for f in dataclasses.fields(st)] == ["values", "cfg", "problem"]
    assert st.cfg is cfg


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
    # a Picard step forms side +1's density only; both sides' densities are
    # built once, for the converged state's limits
    import rhflow.rh_solver as rh
    calls = []
    original = rh._Stack.finish

    def counting(self, members):
        calls.extend(members)
        return original(self, members)

    monkeypatch.setattr(rh._Stack, "finish", counting)
    solve(pentagon_cfg())
    assert calls == [0]


@pytest.mark.parametrize("omega", [1, 2])
def test_jump_guard_names_a_charge_with_large_Y(omega):
    # pushing Im Theta_2 down by K on r multiplies |Y_g| by e^{c2 K}: e1
    # stays below 1 and e1 + e2 exceeds it.  The guard bounds |Y_g| itself,
    # so it fires whatever the multiplicity Omega(e1 + e2)
    spec = Spectrum.from_pairs([((1, 0), 1), ((-1, 0), 1),
                                ((1, 1), omega), ((-1, -1), omega)])
    st = init_state(empty_cfg(spectrum=spec, M=64))
    assert (Charge(1, 1), omega) in st.problem.maps[+1].charges
    values = st.values.copy()
    values[:, 1] -= 100j
    with pytest.raises(TruncationUnsafeError, match=r"for charge \(1,1\) on its jump ray"):
        truncation_guard(dataclasses.replace(st, values=values))


def reference_guard_message(state):
    """The guard's message by a loop over the active charges in spectrum
    order, side +1 first, each from its own exp at its own ray's nodes; None
    if every |Y_g| < 1.  Also the number of failing charges."""
    cfg, problem = state.cfg, state.problem
    rays = {+1: state.values, -1: state.values[::-1].conj()}
    first, failing = None, 0
    for side in (+1, -1):
        pts = problem.grids[side].points()
        for g, _ in cfg.spectrum.active():
            if problem.classification[g] != side:
                continue
            zg = cfg.Z.of(g, cfg.a)
            thg = g.c1 * rays[side][:, 0] + g.c2 * rays[side][:, 1]
            mags = np.abs(np.exp(math.pi * cfg.R * (zg / pts + pts * np.conj(zg)) + 1j * thg))
            if np.any(mags >= 1.0):
                failing += 1
                first = first or (f"|Y| = {mags.max():.3g} >= 1 for charge ({g.c1},{g.c2}) "
                                  "on its jump ray; the log series of its jump map does "
                                  "not converge")
    return first, failing


@pytest.mark.parametrize("shift", [(0, -100j), (30j, -80j), (-60j, -40j), (-5j, -5j)],
                         ids=["theta2_down", "theta1_up", "both_down", "both_slightly_down"])
def test_one_pass_guard_names_the_first_failing_charge_in_spectrum_order(shift):
    # several charges reach |Y| >= 1; the guard takes one exp per side's
    # stack, in side map order, and must still name the charge a per-charge
    # loop in spectrum order names, with the same modulus
    st = init_state(pentagon_cfg(M=64, R=1.0))
    values = st.values + np.array(shift)
    broken = dataclasses.replace(st, values=values)
    want, failing = reference_guard_message(broken)
    assert failing >= 2
    with pytest.raises(TruncationUnsafeError) as err:
        truncation_guard(broken)
    assert str(err.value) == want
    # the side map orders its charges otherwise: (1,1) before (0,1)
    assert [g for g, _ in st.problem.maps[+1].charges] != [
        g for g, _ in st.cfg.spectrum.active() if st.problem.classification[g] == +1]


def test_one_pass_guard_passes_a_solved_state_as_the_reference_does():
    state, _ = solve(pentagon_cfg(R=0.3))
    assert reference_guard_message(state) == (None, 0)
    truncation_guard(dataclasses.replace(state))


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
        new.values[0, 0] = np.nan
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
    for kw in (dict(R=8.0, M=128), dict(R=1.0, M=128), dict(R=0.3, M=64)):
        state, _ = solve(pentagon_cfg(**kw))
        for side, values in ((+1, state.values), (-1, state.values[::-1].conj())):
            th = evaluate_theta(state, state.problem.grids[side].points())[1]
            for k in (0, 1):
                err = np.max(np.abs(th[k] - values[:, k]))
                assert err <= 1e-12, (kw, side, k)


def test_end_nodes_count_as_on_the_ray():
    # log|e^{-L} unit| may round past -L; the first node must still take the
    # on-ray rule, not the off-ray sum with a pole on a node
    state, _ = solve(pentagon_cfg(R=8.0, M=128))
    for side in (+1, -1):
        grid = state.problem.grids[side]
        evaluate_theta(state, grid.points())
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
    (out,) = smoothness_probe(cfg, "theta1", [1], 1e-2)
    assert out["rel_change"] < 1e-4
    # the identity part of dTheta1/dtheta1 dominates
    assert abs(out["nodes"][cfg.M // 2, 0] - 1.0) < 1e-3


def test_smoothness_probe_second_order():
    cfg = pentagon_cfg(M=64)
    (out,) = smoothness_probe(cfg, "theta1", [2], 1e-2)
    assert out["rel_change"] < 1e-4


def test_smoothness_probe_a_dependence():
    # polynomial central charge: z1 = 1 + a/2, real a-derivatives exist
    Za = CentralCharge((1.0, 0.5), (1j,))
    cfg = SolverConfig(R=4.0, a=0.1, theta=(0.7, 1.3), spectrum=pentagon_spectrum(),
                       Z=Za, M=64)
    (out1,) = smoothness_probe(cfg, "a_re", [1], 2e-2)
    assert out1["rel_change"] < 1e-4
    assert out1["sup"] > 0
    (out3,) = smoothness_probe(cfg, "a_re", [3], 5e-2)
    assert math.isfinite(out3["sup"])


def test_smoothness_probe_verifies_nothing(monkeypatch):
    import rhflow.rh_solver as rh
    calls = []
    for name in ("check_jump", "midpoint_limits", "check_reality", "evaluate_theta"):
        original = getattr(rh, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(rh, name, counting)
    smoothness_probe(pentagon_cfg(M=64), "theta1", [2], 1e-2)
    assert calls == []


def test_solve_guards_each_converged_state_once(monkeypatch):
    # the guard runs in the finishing pass only, never by truncation_guard
    import rhflow.rh_solver as rh
    guarded = []
    original = rh._Stack.finish

    def counting(self, members):
        guarded.extend(self.cfgs[k] for k in members)
        return original(self, members)

    monkeypatch.setattr(rh._Stack, "finish", counting)
    monkeypatch.setattr(rh, "truncation_guard", None)
    limited = []
    original_limits = rh.asymptotic_theta

    def limits(state):
        limited.append(state.cfg)
        return original_limits(state)

    monkeypatch.setattr(rh, "asymptotic_theta", limits)
    smoothness_probe(pentagon_cfg(M=64), "theta1", [1], 1e-2)
    # the four points +-h, +-h/2, each guarded once
    assert sorted(cfg.theta[0] - 0.7 for cfg in guarded) == pytest.approx(
        [-0.01, -0.005, 0.005, 0.01], abs=1e-15)
    # and each member takes its limits once
    assert sorted(map(id, guarded)) == sorted(map(id, limited))


def test_solve_and_verify_guard_and_take_the_limits_once_per_state(monkeypatch):
    import rhflow.rh_solver as rh
    calls = []
    for owner, name in ((rh, "truncation_guard"), (rh, "asymptotic_theta"),
                        (rh._Stack, "finish")):
        original = getattr(owner, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
    state, report = solve(pentagon_cfg(R=1.0))
    residuals = verify(state)
    # the guard runs in solve's one finishing pass; verify runs none
    assert sorted(calls) == ["asymptotic_theta", "finish"]
    assert report["theta0"] == [[t.real, t.imag] for t in state.limits[0]]
    assert residuals["asymptotic_conj"] == max(
        abs(a - b.conjugate()) for a, b in zip(*state.limits))


def test_verify_measures_a_state_outside_the_guard():
    # several charges reach |Y| >= 1: solve would refuse such a state, but
    # verify and check_jump measure it and return its residuals
    st = init_state(pentagon_cfg(M=64, R=1.0))
    broken = dataclasses.replace(st, values=st.values + np.array((-5j, -5j)))
    with pytest.raises(TruncationUnsafeError):
        truncation_guard(broken)
    jump = check_jump(broken)
    residuals = verify(dataclasses.replace(broken))
    assert isinstance(jump, float) and jump > 0
    assert residuals["jump"] == jump
    assert set(residuals) == {"jump", "reality", "asymptotic_real", "asymptotic_conj"}


@pytest.mark.parametrize("batch", [False, True], ids=["solve", "stencil"])
def test_a_finishing_group_costs_one_exponentials(monkeypatch, batch):
    # one exponentials per Picard step, and one for the finishing pass,
    # which gives both the guard outcome and the densities
    import rhflow.rh_solver as rh
    calls = []
    original = rh._SideMap.exponentials

    def counting(self, *args, **kwargs):
        calls.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(rh._SideMap, "exponentials", counting)
    cfg = pentagon_cfg()
    cfgs = ([dataclasses.replace(cfg, theta=(0.7 + h, 1.3)) for h in (0.01, -0.01, 0.005,
                                                                      -0.005, 0.0)]
            if batch else [cfg])
    results = solve_batch(cfgs)
    iterations = {report["iterations"] for _, report in results}
    assert len(iterations) == 1  # the members finish at one step
    assert len(calls) == iterations.pop() + 1


def test_smoothness_probe_refuses_a_converged_state_with_large_Y():
    # the iteration converges at R = 0.09, but |Y_(0,1)| reaches 1.01 on its
    # jump ray; the probe verifies nothing and must still fail
    cfg = pentagon_cfg(R=0.09, theta=(3.0, 3.0), M=64, max_iter=200)
    with pytest.raises(TruncationUnsafeError, match=r"for charge \(0,1\) on its jump ray"):
        smoothness_probe(cfg, "theta1", [1], 1e-2)


def test_smoothness_probe_rejects_unknown_direction():
    with pytest.raises(ConfigError):
        smoothness_probe(pentagon_cfg(M=64), "b", [1], 1e-2)


@pytest.mark.parametrize("direction, orders", [("theta1", [1, 4]), ("b", [1])])
def test_smoothness_probe_checks_its_arguments_before_any_solve(monkeypatch, direction,
                                                                orders):
    import rhflow.rh_solver as rh
    built = []
    monkeypatch.setattr(rh, "solve_batch", built.append)
    with pytest.raises(ConfigError):
        smoothness_probe(pentagon_cfg(M=64), direction, orders, 1e-2)
    assert built == []


def test_smoothness_probe_solves_every_order_as_one_batch_of_distinct_points(monkeypatch):
    # orders 1, 2 and 3 at steps h and h/2 need the offsets {0, +-h/2, +-h,
    # +-2h}: seven points, each built once and solved in one batch, and
    # each probe equals its one-order call bit for bit
    import rhflow.rh_solver as rh
    cfg, h = pentagon_cfg(M=64), 1e-2
    alone = [smoothness_probe(cfg, "theta1", [order], h)[0] for order in (1, 2, 3)]
    batches, shifted = [], []
    solve_batch, shift = rh.solve_batch, rh._DIRECTIONS["theta1"]

    def counting_batch(cfgs):
        batches.append(cfgs)
        return solve_batch(cfgs)

    def counting_shift(cfg, offset):
        shifted.append(offset)
        return shift(cfg, offset)

    monkeypatch.setattr(rh, "solve_batch", counting_batch)
    monkeypatch.setitem(rh._DIRECTIONS, "theta1", counting_shift)
    probes = smoothness_probe(cfg, "theta1", [1, 2, 3], h)
    assert sorted(shifted) == [-2 * h, -h, -h / 2, 0.0, h / 2, h, 2 * h]
    assert len(batches) == 1 and len(batches[0]) == 7
    assert [p["order"] for p in probes] == [1, 2, 3]
    for got, want in zip(probes, alone):
        assert got.keys() == want.keys()
        for key, value in want.items():
            if isinstance(value, np.ndarray):
                assert got[key].tobytes() == value.tobytes()
            else:
                assert got[key] == value


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


def test_reality_residual_invariant_under_angle_period():
    cfg = pentagon_cfg(M=64)
    state, _ = solve(cfg)
    shifted = pentagon_cfg(M=64, theta=(cfg.theta[0] + 2 * math.pi, cfg.theta[1]))
    state2, _ = solve(shifted)
    r1 = check_reality(state)
    r2 = check_reality(state2)
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
    batched = evaluate_theta(state, pts)
    single = [evaluate_theta(state, complex(z)) for z in pts]
    for limit in (0, 1):  # plus, minus
        for k in (0, 1):
            assert np.array_equal(batched[limit][k],
                                  np.array([t[limit][k] for t in single])), limit


def test_verify_calls_no_evaluate_theta(monkeypatch):
    # check_jump takes its limits from midpoint_limits' Toeplitz products;
    # evaluate_theta serves arbitrary points only
    import rhflow.rh_solver as rh
    calls = []
    original = rh.evaluate_theta

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(rh, "evaluate_theta", counting)
    verify(solve(pentagon_cfg(R=1.0))[0])
    assert calls == []


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
    values[40, 1] = np.nan
    broken = dataclasses.replace(state, values=values)
    assert math.isnan(check_jump(broken))
    assert math.isnan(verify(broken)["jump"])


# ---------------- one operator product per step ----------------

def test_verify_makes_no_ray_integrals(monkeypatch):
    # neither solving nor verifying sums a ray point by point: the node
    # operator, midpoint_limits and reality_rays all go through FFTs
    import rhflow.rh_solver as rh
    calls = []
    original = rh.integrate_ray

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(rh, "integrate_ray", counting)
    verify(solve(pentagon_cfg(R=1.0))[0])
    assert calls == []


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
    for side, values in ((+1, new), (-1, new[::-1].conj())):
        h = dens[side]
        same = c_same @ h - 2j * math.pi * h
        expected = theta - (same + c_cross @ dens[-side]) / (4.0 * math.pi)
        assert np.max(np.abs(values - expected)) <= 1e-15 * np.max(np.abs(expected))
        assert np.max(np.abs(values - theta)) > 1e-3  # the correction is not trivial


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
    cfg, prep = state.cfg, state.problem
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
    cfg = state.cfg
    zk = np.array(cfg.Z.basis_values(cfg.a))
    return np.exp(math.pi * cfg.R * (zk / zeta[:, None] + zeta[:, None] * zk.conj())
                  + 1j * theta)


# the pentagon ids name the series order of the benchmark workloads that
# solve at these R (solve-verify at N = 8, sweep-probe at N = 12); the solve
# itself reads no N
@pytest.mark.parametrize("kw", [
    dict(R=0.3), dict(R=0.15),
    dict(spectrum=GENERIC, Z=GENERIC_Z, R=0.3), dict(spectrum=Spectrum(()), R=1.0),
], ids=["pentagon_N8", "pentagon_N12", "generic_two_pair", "empty"])
def test_densities_match_one_exp_per_charge(kw):
    # side +1's density is the log of its KS product at Y- on the r nodes,
    # here from products of the factors (one exp per basis charge and node);
    # side -1's, on -r, is its image under the reality involution
    cfg = pentagon_cfg(**{"max_iter": 100, **kw})
    state, _ = solve(cfg)
    prep = state.problem
    # the converged r values, and ones pushed off the real angles (|u| != 1)
    ray = state.values
    pushed = ray + 0.3j * np.random.default_rng(7).standard_normal(ray.shape)
    for values in (ray, pushed):
        got = dataclasses.replace(state, values=values).densities
        y = basis_Y(state, prep.grids[+1].points(), values)
        _, want = ks_product(state, +1, y)
        assert got[+1].shape == got[-1].shape == (cfg.M, 2)
        rel = np.abs(got[+1] - want) / np.maximum(np.abs(want), np.finfo(float).tiny)
        assert np.max(rel, initial=0.0) <= 1e-14
        assert got[-1].tobytes() == (-got[+1][::-1].conj()).tobytes()
    assert np.max(np.abs(pushed.imag)) > 0.5


def ray_midpoints(state, side: int) -> np.ndarray:
    """The M - 1 points halfway, in log radius, between the nodes of the
    side's ray."""
    nodes = state.problem.grids[side].nodes
    return np.exp(0.5 * (nodes[:-1] + nodes[1:])) * state.problem.rays[side].unit()


def exact_jump_residual(state) -> float:
    """max |S Y- - Y+| / |Y+| over every midpoint of both rays, with Y+-
    from evaluate_theta's dense limits and S the side's KS product applied
    to Y- in floating point (not the solver's side log)."""
    worst = 0.0
    for side in (+1, -1):
        mids = ray_midpoints(state, side)
        plus, minus = evaluate_theta(state, mids)
        y_plus = basis_Y(state, mids, np.stack(plus, axis=1))
        predicted, _ = ks_product(state, side, basis_Y(state, mids, np.stack(minus, axis=1)))
        worst = max(worst, float(np.max(np.abs(predicted - y_plus) / np.abs(y_plus))))
    return worst


@pytest.mark.parametrize("R", [0.3, 0.15], ids=["0.3-8", "0.15-12"])  # R and the series' N
def test_jump_holds_for_the_exact_side_map(R):
    # Y+ = S Y- at every midpoint of both rays; a solve with the order-N
    # series misses it by 7.2e-6 at R = 0.3, N = 8 and by 1.7e-4 at
    # R = 0.15, N = 12
    state, _ = solve(pentagon_cfg(R=R, M=256, max_iter=100))
    assert exact_jump_residual(state) <= 1e-10
    assert check_jump(state) <= 1e-10


@pytest.mark.parametrize("M", [128, 512, 2048])
def test_midpoint_limits_match_the_dense_limits(M):
    # the Toeplitz products at half-integer offsets against evaluate_theta's
    # band_limited_limits and opposite-ray tanh sums at the same midpoints
    # (a strided subset at M = 2048, where the dense kernels are large)
    state, _ = solve(pentagon_cfg(R=0.3, M=M, max_iter=100))
    limits = midpoint_limits(state)
    assert limits.shape == (2, 2, 2, M - 1)
    pick = np.arange(0, M - 1, 1 if M < 2048 else 7)
    for ray, side in enumerate((+1, -1)):
        dense = np.array(evaluate_theta(state, ray_midpoints(state, side)[pick]))
        assert np.max(np.abs(limits[:, ray][..., pick] - dense)) <= 1e-14
        # the two limits differ: the midpoints see the jump
        assert np.max(np.abs(dense[0] - dense[1])) > 1e-3


def test_jump_check_sees_a_node_between_sparse_samples():
    # a node off by 1e-6 breaks the jump at the midpoints next to it (7.3e-9
    # there); a check that samples every 15th midpoint, between 240 and 255,
    # sees it only through the sinc tail (4.9e-10)
    state, _ = solve(pentagon_cfg(R=1.0, M=512))
    values = state.values.copy()
    values[248, 0] += 1e-6
    perturbed = dataclasses.replace(state, values=values)
    got = check_jump(perturbed)
    assert got > 3e-9
    assert got == pytest.approx(exact_jump_residual(perturbed), rel=1e-6)


def _arrays(obj):
    """Every array reachable from obj through mappings, sequences and the
    attributes of plain objects."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, Mapping):
        for v in obj.values():
            yield from _arrays(v)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            yield from _arrays(v)
    elif hasattr(obj, "__dict__"):
        yield from _arrays(vars(obj))


def test_prepared_keeps_no_square_array():
    # the node operator is kept as kernel spectra and O(M) vectors; nothing
    # of the problem grows like M^2
    M = 4096
    shared = init_state(pentagon_cfg(M=M)).problem
    sizes = [a.size for a in _arrays(shared)]
    assert sizes and max(sizes) < M * M


def test_evaluate_theta_pair_is_one_value_off_the_contour():
    # the two limits differ at the midpoints of r and coincide, bit for bit,
    # off the contour, in a batch and at a single point
    state, _ = solve(pentagon_cfg(R=1.0))
    g = state.problem.grids[+1]
    mids = np.exp(0.5 * (g.nodes[[3, 40, 77]] + g.nodes[[4, 41, 78]])) * g.direction.unit()
    plus, minus = evaluate_theta(state, np.concatenate([mids, [0.4 + 1.1j, -2.0 + 0.3j]]))
    for k in (0, 1):
        assert np.all(plus[k][:3] != minus[k][:3])
        assert np.array_equal(plus[k][3:], minus[k][3:])
    plus, minus = evaluate_theta(state, -2.0 + 0.3j)
    assert plus == minus


# ---------------- one ray iterated, the other by the reality involution ----------------

Z_LINEAR = CentralCharge((1.0, 0.5), (1j,))  # z1 = 1 + a/2, z2 = i
DOUBLE = Spectrum.from_pairs([((1, 0), 1), ((-1, 0), 1), ((2, 0), 1), ((-2, 0), 1)])
MIRROR_CASES = {
    "pentagon": dict(R=0.3),
    "generic_two_pair": dict(spectrum=GENERIC, Z=GENERIC_Z, R=0.3),
    "z_linear_complex_a": dict(Z=Z_LINEAR, a=0.1 + 0.05j, R=0.3),
    # a second admissible split, not the default one; its grid needs M = 256
    # for the jump check's bound (4.3e-8 at M = 128)
    "split_phase": dict(R=0.3, M=256,
                        split_phase=alternative_split_phases(Z, pentagon_spectrum(), 0.0)[1]),
    # gamma1 and 2 gamma1 share a BPS ray: the side order breaks the tie by
    # coordinates, which negation reverses
    "double": dict(spectrum=DOUBLE, R=0.1),
}


@pytest.mark.parametrize("name", sorted(MIRROR_CASES))
def test_opposite_ray_is_the_involution_image_bit_for_bit(name):
    state, _ = solve(pentagon_cfg(**{"max_iter": 100, **MIRROR_CASES[name]}))
    values, dens = state.values, state.densities
    assert values.shape == (state.cfg.M, 2)
    assert dens[-1].tobytes() == (-dens[+1][::-1].conj()).tobytes()
    assert np.max(np.abs(values - np.array(state.cfg.theta))) > 1e-6
    # -r's jump is checked with side -1's own map at -r's own midpoints
    assert check_jump(state) <= 1e-10


def test_solve_takes_one_side_log_per_step(monkeypatch):
    # one side log per iterated state and one for the converged state's
    # limits; iterating both rays takes twice that
    calls = []
    original = _SideMap.log

    def counting(self, static, theta, buffers=None):
        calls.append(1)
        return original(self, static, theta, buffers)

    monkeypatch.setattr(_SideMap, "log", counting)
    for R in (1.0, 0.3):
        calls.clear()
        _, report = solve(pentagon_cfg(R=R))
        assert 0 < len(calls) <= report["iterations"] + 1


@pytest.mark.parametrize("R, iterations", [(0.15, 85), (0.3, 22), (1.0, 6)])
def test_pentagon_iteration_counts(R, iterations):
    assert solve(pentagon_cfg(R=R, max_iter=100))[1]["iterations"] == iterations


# ---------------- theta-free problems shared per session ----------------

@pytest.mark.parametrize("change", [
    dict(theta=(0.2, -0.4)), dict(tol=1e-9), dict(max_iter=7), dict(ball_epsilon=0.1),
], ids=["theta", "tol", "max_iter", "ball_epsilon"])
def test_configs_differing_only_in_theta_free_fields_share_one_problem(change):
    cfg = pentagon_cfg(M=64)
    st, other = init_state(cfg), init_state(dataclasses.replace(cfg, **change))
    assert other.problem is st.problem
    assert other.cfg != st.cfg


@pytest.mark.parametrize("change", [
    dict(R=2.0), dict(a=0.01), dict(M=128), dict(target_tail=30.0),
    dict(split_phase=alternative_split_phases(Z, pentagon_spectrum(), 0.0)[1]),
    dict(spectrum=pentagon_spectrum(0.5)), dict(Z=Z_LINEAR),
], ids=["R", "a", "M", "target_tail", "split_phase", "spectrum", "Z"])
def test_a_change_of_a_field_the_problem_reads_builds_a_new_problem(change):
    cfg = pentagon_cfg(M=64, Z=CentralCharge((1.0,), (1j,)))
    assert init_state(dataclasses.replace(cfg, **change)).problem is not init_state(cfg).problem


def test_every_cached_array_is_read_only():
    shared = init_state(pentagon_cfg(M=64)).problem
    arrays = list(_arrays(shared))
    # side +1's exponents at the nodes, both sides' at the midpoints,
    # spectra, the side maps' values and coordinates, the grids' nodes and
    # weights
    assert len(arrays) >= 12
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0
    for name in ("rays", "maps", "grids", "classification"):
        with pytest.raises(TypeError):
            getattr(shared, name)[+1] = None


def test_theta_free_problem_holds_no_more_bytes_than_before_the_one_pass_guard():
    # the guard reads the Picard step's own stack of side +1's exponents at
    # r's nodes and keeps none for -r: the distinct arrays of a pentagon
    # problem at M = 512 held 286,816 bytes with a copy per charge and
    # 262,432 with a stack per side, and 237,856 with a node set per ray
    shared = init_state(pentagon_cfg(M=512)).problem
    assert shared.grids[-1].nodes is shared.grids[+1].nodes
    distinct = {id(arr): arr for arr in _arrays(shared)}
    assert sum(arr.nbytes for arr in distinct.values()) <= 229_664


def test_the_problem_cache_is_bounded_by_the_bytes_of_its_problems():
    # pentagon problems at M = 2048 hold 917,792 bytes each (both rays share
    # one node set): nine fit in CACHE_BYTES, and the least recently used go
    # first
    import rhflow.rh_solver as rh

    def problem(R, M=2048):
        return rh.theta_free_problem(R, 0.0, pentagon_spectrum(), Z, M, 40.0, None)

    rh.theta_free_problem.cache_clear()
    Rs = [1.0 + 0.125 * i for i in range(11)]
    built = [problem(R) for R in Rs[:9]]
    assert problem(Rs[0]) is built[0]  # a hit, now the most recent
    built += [problem(R) for R in Rs[9:]]
    info = rh.theta_free_problem.cache_info()
    size = built[0].nbytes
    assert size == 917_792
    assert rh.CACHE_BYTES // size == 9
    assert (info.hits, info.misses, info.currbytes) == (1, 11, 9 * size)
    assert info.currbytes <= info.maxbytes == rh.CACHE_BYTES
    # Rs[1] and Rs[2] were the least recently used: built again on a miss
    assert problem(Rs[0]) is built[0] and problem(Rs[10]) is built[10]
    assert problem(Rs[1]) is not built[1]
    assert rh.theta_free_problem.cache_info().misses == 12
    # a benchmark working set (14 problems at M <= 512) is never evicted
    rh.theta_free_problem.cache_clear()
    kept = [problem(R, M) for R in Rs[:7] for M in (128, 512)]
    assert [problem(R, M) for R in Rs[:7] for M in (128, 512)] == kept
    assert rh.theta_free_problem.cache_info()[:2] == (14, 14)
    rh.theta_free_problem.cache_clear()


def test_warm_solve_is_bit_identical_to_a_cold_one():
    import rhflow.rh_solver as rh
    cfg = pentagon_cfg(R=0.3, M=64)
    rh.theta_free_problem.cache_clear()
    cold, cold_report = solve(cfg)
    cold_residuals = verify(cold)
    # warm: the shared problem was built for another theta and reused twice
    rh.theta_free_problem.cache_clear()
    solve(dataclasses.replace(cfg, theta=(2.0, -1.0)))
    solve(cfg)
    hits = rh.theta_free_problem.cache_info().hits
    warm, warm_report = solve(cfg)
    assert rh.theta_free_problem.cache_info().hits == hits + 1
    assert warm.problem is not cold.problem
    assert warm.values.tobytes() == cold.values.tobytes()
    assert warm_report == cold_report
    assert verify(warm) == cold_residuals


# ---------------- reality checked on two mirror pairs of rays by FFT ----------------

@pytest.mark.parametrize("kw", [
    dict(R=1.0), dict(spectrum=GENERIC, Z=GENERIC_Z, R=0.3), MIRROR_CASES["split_phase"],
], ids=["pentagon", "generic_two_pair", "split_phase"])
def test_reality_rays_are_theta_at_their_points(kw):
    # the Toeplitz sums by FFT are the trapezoid sums evaluate_theta takes
    # at the node radii of each sample ray
    state, _ = solve(pentagon_cfg(**{"max_iter": 100, **kw}))
    phases, values = reality_rays(state)
    M = state.cfg.M
    assert phases.shape == (2, 2) and values.shape == (2, 2, 2, M)
    r = state.problem.r.phase
    assert np.allclose(phases[:, 0] - r, REALITY_OFFSETS)
    assert np.allclose(phases[:, 1] - phases[:, 0], math.pi)
    assert min(abs(math.remainder(p - r, math.pi)) for p in phases.ravel()) >= 0.15
    pts = np.exp(state.problem.grids[+1].nodes) * np.exp(1j * phases[..., None])
    want = np.stack(evaluate_theta(state, pts.ravel())[1])
    got = np.moveaxis(values, 2, 0).reshape(2, -1)
    assert np.max(np.abs(got - want)) <= 1e-14
    assert np.max(np.abs(values - np.array(state.cfg.theta)[:, None])) > 1e-3


def test_reality_check_reads_side_minus_one_density_off_the_involution_image():
    state, _ = solve(pentagon_cfg(R=1.0))
    assert check_reality(state) < 1e-14
    M = state.cfg.M
    bent = state.densities[-1].copy()
    bent[M // 2, 1] += 1e-6
    perturbed = dataclasses.replace(state)
    perturbed.densities = {+1: state.densities[+1], -1: bent}
    assert check_reality(perturbed) > 1e-8


def test_circulant_fft_applies_any_toeplitz_kernel():
    # kappa(m) for m = -(M - 1) .. M - 1, neither odd nor even, and a stack
    M = 16
    rng = np.random.default_rng(5)
    kappa = rng.standard_normal((2, 2 * M - 1)) + 1j * rng.standard_normal((2, 2 * M - 1))
    g = rng.standard_normal(M) + 1j * rng.standard_normal(M)
    j_minus_i = np.subtract.outer(np.arange(M), np.arange(M)).T
    spectra = _circulant_fft(kappa)
    for k, spectrum in zip(kappa, spectra):
        dense = k[j_minus_i + M - 1] @ g
        got = np.fft.ifft(np.fft.fft(g, 2 * M) * spectrum)[:M]
        assert np.max(np.abs(got - dense)) <= 1e-13 * np.max(np.abs(dense))
        assert _circulant_fft(k).tobytes() == spectrum.tobytes()


# ---------------- Picard steps from states ----------------

def test_iterates_sharing_a_scratch_keep_their_values():
    a = init_state(pentagon_cfg(R=0.3))
    a_values = a.values.copy()
    b = iterate_once(a)
    b_values = b.values.copy()
    c = iterate_once(b)
    iterate_once(c)
    assert a.values.tobytes() == a_values.tobytes()
    assert b.values.tobytes() == b_values.tobytes()
    assert not any(np.shares_memory(x.values, y.values) for x, y in ((a, b), (b, c), (a, c)))


def test_two_solves_interleaved_on_one_problem_give_their_own_values():
    cfgs = [pentagon_cfg(R=0.3), pentagon_cfg(R=0.3, theta=(0.2, -0.4))]
    alone = [solve(cfg) for cfg in cfgs]
    states = [init_state(cfg) for cfg in cfgs]
    assert states[0].problem is states[1].problem
    counts = [report["iterations"] for _, report in alone]
    for step in range(max(counts)):
        states = [iterate_once(st) if step < n else st for st, n in zip(states, counts)]
    for st, (solved, _) in zip(states, alone):
        assert st.values.tobytes() == solved.values.tobytes()


# ---------------- members solved in lockstep on one stack ----------------

def assert_batch_matches_solve(cfgs):
    """Each member's solve_batch result equals its own solve bit for bit:
    values, densities, limits and every report field, or the same error
    type and message."""
    from rhflow.errors import RHFlowError
    results = solve_batch(cfgs)
    assert len(results) == len(cfgs)
    outcomes = []
    for cfg, got in zip(cfgs, results):
        try:
            want_state, want_report = solve(cfg)
        except RHFlowError as exc:
            assert type(got) is type(exc) and str(got) == str(exc)
            outcomes.append(type(exc).__name__)
            continue
        state, report = got
        assert state.cfg is cfg
        assert state.values.tobytes() == want_state.values.tobytes()
        for side in (+1, -1):
            assert state.densities[side].tobytes() == want_state.densities[side].tobytes()
        assert state.limits == want_state.limits
        assert report == want_report
        outcomes.append(report["iterations"])
    return outcomes


def random_thetas(seed):
    return [tuple(t) for t in np.random.default_rng(seed).uniform(0, 2 * math.pi, (16, 2))]


def test_batch_of_random_thetas_matches_each_solve():
    outcomes = assert_batch_matches_solve(
        [pentagon_cfg(R=0.3, theta=theta) for theta in random_thetas(3)])
    assert min(outcomes) == 19 and max(outcomes) == 23


def test_batch_at_small_R_matches_each_solve_as_members_leave_at_their_own_step():
    # members stop at steps 30 to 85 and three do not converge in 100: the
    # stack shrinks as each leaves with its own record or error
    outcomes = assert_batch_matches_solve(
        [pentagon_cfg(R=0.15, theta=theta, max_iter=100) for theta in random_thetas(3)])
    steps = [n for n in outcomes if isinstance(n, int)]
    assert outcomes.count("NonContractionError") == 3
    assert min(steps) == 30 and max(steps) == 85 and len(set(steps)) > 8


@pytest.mark.parametrize("direction", ["a_re", "a_im"])
def test_batch_of_an_a_stencil_matches_each_solve(direction):
    # the members have different theta-free problems on one stack
    base = SolverConfig(R=4.0, a=0.1, theta=(0.7, 1.3), spectrum=pentagon_spectrum(),
                        Z=Z_LINEAR, M=128)
    shift = 0.01 if direction == "a_re" else 0.01j
    cfgs = [dataclasses.replace(base, a=base.a + m * shift) for m in (1, -1, 0.5, -0.5, 0)]
    states = [init_state(cfg) for cfg in cfgs]
    assert len({id(st.problem) for st in states}) == 5
    assert_batch_matches_solve(cfgs)


def test_batch_member_failing_the_guard_gets_its_own_error():
    # the second member converges at R = 0.09 with |Y_(0,1)| >= 1 on its
    # jump ray; the others, at R = 0.3 on another problem, converge
    cfgs = [pentagon_cfg(R=0.3, M=64, max_iter=200),
            pentagon_cfg(R=0.09, theta=(3.0, 3.0), M=64, max_iter=200),
            pentagon_cfg(R=0.3, theta=(0.2, -0.4), M=64, max_iter=200)]
    outcomes = assert_batch_matches_solve(cfgs)
    assert outcomes[1] == "TruncationUnsafeError"
    assert all(isinstance(n, int) for n in outcomes[::2])


def test_batch_groups_members_by_M_and_keeps_their_order():
    # members of another M step on a stack of their own; an invalid one
    # gets its ConfigError and the rest are solved
    cfgs = [pentagon_cfg(M=64), pentagon_cfg(R=1.0), pentagon_cfg(M=127),
            pentagon_cfg(M=64, theta=(0.2, -0.4))]
    outcomes = assert_batch_matches_solve(cfgs)
    assert outcomes[2] == "ConfigError"


def test_batch_steps_every_member_through_iterate_once(monkeypatch):
    import rhflow.rh_solver as rh
    stacks = []
    original = rh.iterate_once

    def counting(stack):
        stacks.append(len(stack.values))
        return original(stack)

    monkeypatch.setattr(rh, "iterate_once", counting)
    cfgs = [pentagon_cfg(R=0.15, theta=theta, max_iter=100) for theta in random_thetas(3)[3:9]]
    results = solve_batch(cfgs)
    # one call per lockstep step, over the members still on the stack
    assert len(stacks) == max(report["iterations"] for _, report in results)
    assert sum(stacks) == sum(report["iterations"] for _, report in results)


def test_a_poisoned_member_diverges_alone(monkeypatch):
    import rhflow.rh_solver as rh
    original = rh.iterate_once

    def poisoned(stack):
        new = original(stack)
        if len(new.values) == 3:
            new.values[1, 0] = np.nan  # the second member, at step 1 only
        return new

    monkeypatch.setattr(rh, "iterate_once", poisoned)
    cfgs = [pentagon_cfg(), pentagon_cfg(theta=(0.2, -0.4)), pentagon_cfg(theta=(1.0, 2.0))]
    results = solve_batch(cfgs)
    assert isinstance(results[1], DivergenceError)
    assert str(results[1]) == ("non-finite iterate at step 1; R = 4 is too small for "
                               "this spectrum")
    monkeypatch.setattr(rh, "iterate_once", original)
    for cfg, result in zip(cfgs[::2], results[::2]):
        assert result[0].values.tobytes() == solve(cfg)[0].values.tobytes()


def test_finishing_members_take_densities_from_their_own_points_only(monkeypatch):
    # a ladder's high-R rung leaves at step 2 while the others still run:
    # its guard and densities come from one exponentials over its own M
    # points, and they are those of its solve alone
    import rhflow.rh_solver as rh
    passes = []
    original_finish, original_exponentials = rh._Stack.finish, rh._SideMap.exponentials

    def finish(self, members):
        passes.append((len(members), []))
        return original_finish(self, members)

    def exponentials(self, static, theta, *buffers):
        if passes:
            passes[-1][1].append(len(theta))
        return original_exponentials(self, static, theta, *buffers)

    monkeypatch.setattr(rh._Stack, "finish", finish)
    monkeypatch.setattr(rh._SideMap, "exponentials", exponentials)
    cfgs = [pentagon_cfg(R=R, max_iter=100) for R in (0.15, 0.5, 4.0, 4.0)]
    results = solve_batch(cfgs)
    monkeypatch.undo()
    # R = 4 twice at step 2, then R = 0.5, then R = 0.15 alone
    assert [finishing for finishing, _ in passes] == [2, 1, 1]
    for finishing, points in passes:
        assert points[:1] == [finishing * 128]
    for cfg, (state, _) in zip(cfgs, results):
        alone, _ = solve(cfg)
        for side in (+1, -1):
            assert state.densities[side].tobytes() == alone.densities[side].tobytes()


def test_verify_batch_matches_each_verify_bit_for_bit(monkeypatch):
    # members of different R, a and M (two stacks, one per M) in one call,
    # against each state's own verify; the results keep the states' order
    import rhflow.rh_solver as rh
    Za = CentralCharge((1.0, 0.5), (1j,))
    cfgs = [pentagon_cfg(R=0.3, M=64, max_iter=100), pentagon_cfg(R=4.0, M=128),
            pentagon_cfg(R=1.0, M=64, a=0.1 + 0.05j, Z=Za, theta=(0.2, 2.3)),
            pentagon_cfg(R=0.15, M=128, max_iter=100), pentagon_cfg(R=4.0, M=64, a=-0.1, Z=Za)]
    states = [solve(cfg)[0] for cfg in cfgs]
    stacks = []
    original = rh.check_jump

    def counting(checks):
        stacks.append([st.cfg.M for st in checks.states])
        return original(checks)

    monkeypatch.setattr(rh, "check_jump", counting)
    batch = rh.verify_batch(states)
    monkeypatch.undo()
    assert sorted(stacks) == [[64, 64, 64], [128, 128]]
    for state, residuals in zip(states, batch):
        alone = verify(dataclasses.replace(state))  # fresh densities, limits and guard
        assert residuals == alone
        assert residuals == verify(state)
        assert isinstance(residuals["jump"], float)
        assert isinstance(check_jump(state), float) and isinstance(check_reality(state), float)
        for key, value in residuals.items():
            assert np.float64(value).tobytes() == np.float64(alone[key]).tobytes(), key


def test_a_nan_member_of_a_batch_verify_keeps_its_nan_to_itself():
    import rhflow.rh_solver as rh
    states = [solve(pentagon_cfg(R=R, theta=theta))[0]
              for R, theta in ((1.0, (0.7, 1.3)), (4.0, (0.2, -0.4)), (1.0, (1.0, 2.0)))]
    values = states[1].values.copy()
    values[40, 1] = np.nan
    states[1] = dataclasses.replace(states[1], values=values)
    batch = rh.verify_batch(states)
    assert math.isnan(batch[1]["jump"])
    for k in (0, 2):
        assert not math.isnan(batch[k]["jump"])
        assert batch[k] == verify(states[k])
