"""Acceptance suite: one test per shipped claim, each printing a PASS/FAIL
line with the measured quantities.

All tolerances are fixed here.  Criterion 5's second clause asserts the
1/R decay of the saddle comparison's error: Laplace's method at an interior
non-degenerate saddle expands in whole powers of 1/R, because the odd-order
terms cancel at any interior saddle with zeta away from zeta0; half powers
come only from an endpoint saddle.
"""

import cmath
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from rhflow.charge_lattice import Charge, GAMMA1, GAMMA2, pentagon_spectrum
from rhflow.cli_driver import main as cli_main
from rhflow.contour_quadrature import build_ray_grid, integrate_ray, sweep_sign
from rhflow.rh_solver import (SolverConfig, asymptotic_theta, check_jump,
                              check_reality, smoothness_probe, solve, verify)
from rhflow.saddle_asymptotics import compare, saddle_point
from rhflow.scalar_bvp import solve_scalar_bvp, verify_uniqueness
from rhflow.spectrum_rays import CentralCharge, admissible_pair, bps_ray, semiflat
from rhflow.stokes_series import pentagon_coeff, stokes_log_coeffs

from test_scalar_bvp import manufactured

Z = CentralCharge.constant(1.0, 1j)
THETA = (0.7, 1.3)


def report(number: int, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def pentagon_cfg(**kw):
    base = dict(R=4.0, a=0.0, theta=THETA, spectrum=pentagon_spectrum(),
                Z=Z, M=128, tol=1e-12, max_iter=30)
    base.update(kw)
    return SolverConfig(**base)


@pytest.fixture(scope="module")
def solved_r4():
    cfg = pentagon_cfg()
    state, rep = solve(cfg)
    return cfg, state, rep, verify(state)


def test_criterion_1_pentagon_coefficient_oracle():
    t0 = time.time()
    spec = pentagon_spectrum()
    r, _ = admissible_pair(Z, spec, 0.0)
    N = 8
    mismatches = 0
    checked = 0
    for side in (+1, -1):
        for k in (1, 2):
            coeffs = stokes_log_coeffs(spec, Z, 0.0, side, k, N, r)
            for i in range(-N, N + 1):
                for j in range(-N, N + 1):
                    if (i, j) == (0, 0) or abs(i) + abs(j) > N:
                        continue
                    in_cone = (i > 0 or (i == 0 and j > 0)) if side > 0 \
                        else (i < 0 or (i == 0 and j < 0))
                    want = pentagon_coeff(i, j, k) if in_cone else Fraction(0)
                    got = coeffs.get(Charge(i, j), Fraction(0))
                    checked += 1
                    if want != got:
                        mismatches += 1
    elapsed = time.time() - t0
    ok = mismatches == 0 and elapsed < 10.0
    assert report(1, ok, f"{checked} exact coefficients, {mismatches} mismatches, "
                         f"{elapsed:.2f} s")


def test_criterion_2_contraction(solved_r4):
    t0 = time.time()
    _, _, rep4, _ = solved_r4
    _, rep8 = solve(pentagon_cfg(R=8.0))
    elapsed = time.time() - t0
    conv = rep4["deltas"][-1] < 1e-12 and rep4["iterations"] <= 30
    small = all(r < 0.05 for r in rep4["ratios"])
    paired = list(zip(rep8["ratios"], rep4["ratios"]))
    improved = bool(paired) and all(r8 < r4 for r8, r4 in paired)
    ok = conv and small and improved and elapsed < 60.0
    assert report(2, ok,
                  f"R=4 converged in {rep4['iterations']} iterations, "
                  f"ratios {['%.2e' % r for r in rep4['ratios']]}, "
                  f"R=8 ratios {['%.2e' % r for r in rep8['ratios']]}, "
                  f"{elapsed:.1f} s")


def test_criterion_3_jump_condition(solved_r4):
    _, _, _, residuals = solved_r4
    at_r4 = residuals["jump"]
    # at R = 4 the residual is round-off at every M; refinement shows at R = 0.3
    coarse = check_jump(solve(pentagon_cfg(R=0.3, M=48))[0])
    fine = check_jump(solve(pentagon_cfg(R=0.3, M=96))[0])
    ok = at_r4 < 1e-6 and coarse >= 100 * fine
    assert report(3, ok, f"residual {at_r4:.3e} at R=4, M=128; at R=0.3 "
                         f"{coarse:.3e} at M=48, {fine:.3e} at M=96")


def test_criterion_4_reality_and_asymptotics(solved_r4):
    cfg, state, _, _ = solved_r4
    reality = check_reality(state)
    t0, tinf = asymptotic_theta(state)
    re_dev = max(abs((t0[k] - cfg.theta[k]).real) for k in (0, 1))
    conj_dev = max(abs(t0[k] - tinf[k].conjugate()) for k in (0, 1))
    ok = reality < 1e-8 and re_dev < 1e-9 and conj_dev < 1e-9
    assert report(4, ok, f"reality {reality:.2e} on two mirror pairs of rays, "
                         f"Re(theta0 - theta) {re_dev:.2e}, "
                         f"|theta0 - conj(thetainf)| {conj_dev:.2e}")


def test_criterion_5a_saddle_leading_error():
    z0 = saddle_point(Z.of(GAMMA1, 0.0))
    rep = compare(2 * z0, GAMMA1, Z, 0.0, THETA, [16.0])[0]
    ok = rep.rel_error < 0.3
    assert report(5, ok, f"relative error {rep.rel_error:.4f} at R=16 (< 0.3)")


def test_criterion_5b_saddle_error_decay_band():
    # With g(s) = K(zeta, zeta0 e^s) and lam = 2 pi R |Z|, Laplace's method on
    # the integral of g(s) e^{-lam cosh s} ds (the nu-moments of 2 K_nu(lam))
    # gives the leading estimate a relative error c1/lam + c2/lam^2 + ... with
    #   c1 = g2/(2 g0) - 1/8,  c2 = 9/128 - 5 g2/(16 g0) + g4/(8 g0),
    # where gk is the k-th derivative of g at s = 0.  At zeta = 2 zeta0,
    # g = (e^s + 2)/(e^s - 2): g0 = -3, g2 = -12, g4 = -300, so c1 = 15/8
    # and c2 = 1449/128.
    # - Order p = log(err16/err64)/log 4: the 1/R model gives
    #   1 + log((1 + c2/(c1 lam16))/(1 + c2/(c1 lam64)))/log 4 = 1.03.  The
    #   band [0.75, 1.25] is centred on 1 and reaches halfway to 1/sqrt(R)
    #   (p = 0.5), so it rejects no decay (p = 0), 1/sqrt(R) and 1/R^2 (p = 2).
    # - lam * rel_error at R = 64 tends to c1 = 15/8; the c2 term adds
    #   c2/lam64 = 0.028, 1.5 % of c1, so 5 % leaves a margin of three.
    zg = Z.of(GAMMA1, 0.0)
    reports = compare(2 * saddle_point(zg), GAMMA1, Z, 0.0, THETA, [16.0, 64.0])
    p = math.log(reports[0].rel_error / reports[1].rel_error) / math.log(4.0)
    scaled = 2.0 * math.pi * 64.0 * abs(zg) * reports[1].rel_error
    ok = 0.75 <= p <= 1.25 and abs(scaled / (15.0 / 8.0) - 1.0) <= 0.05
    assert report(5, ok,
                  f"error order p = {p:.4f} from R=16 to R=64, band "
                  f"[0.75, 1.25]; 2 pi R |Z| rel_error = {scaled:.4f} at "
                  "R=64, Laplace coefficient 15/8 +/- 5 %")


def test_criterion_6_deformation_residue_identity():
    R = 6.0
    gamma = GAMMA2
    r, _ = admissible_pair(Z, pentagon_spectrum(), 0.0)
    ell = bps_ray(Z, gamma, 0.0)
    zg = abs(Z.of(gamma, 0.0))
    grid_r = build_ray_grid(r, 2 * math.pi * R * zg * math.cos(ell.angle_to(r)),
                            256, 40.0)
    grid_e = build_ray_grid(ell, 2 * math.pi * R * zg, 256, 40.0)

    def h(zp):
        return semiflat(Z, gamma, 0.0, THETA, zp, R)

    dens_r = np.array([h(z) for z in grid_r.points()])
    dens_e = np.array([h(z) for z in grid_e.points()])
    inside = cmath.exp(0.5j * (r.phase + ell.phase))
    outside = 0.8 * cmath.exp(1j * (r.phase - sweep_sign(r, ell) * 0.4))
    term = sweep_sign(r, ell) * 4j * math.pi
    lhs_in = integrate_ray(grid_r, dens_r, inside)[0]
    rhs_in = integrate_ray(grid_e, dens_e, inside)[0] + term * h(inside)
    dev_in = abs(lhs_in - rhs_in) / abs(lhs_in)
    lhs_out = integrate_ray(grid_r, dens_r, outside)[0]
    rhs_out = integrate_ray(grid_e, dens_e, outside)[0]
    dev_out = abs(lhs_out - rhs_out) / abs(lhs_out)
    ok = dev_in < 1e-8 and dev_out < 1e-8
    assert report(6, ok, f"with residue {dev_in:.2e}, without {dev_out:.2e} at R=6")


def test_criterion_7_scalar_bvp_quarter_exponent():
    p = manufactured(0.25)
    sol = solve_scalar_bvp(p)
    rng = np.random.default_rng(11)
    ts = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), size=100))
    ts = np.concatenate([ts, -ts])
    residual = sol.boundary_residual(ts)
    # growth bound |X| |xi|^(eta + margin) in the chart of each endpoint:
    # xi = zeta toward 0, xi = 1/zeta toward infinity
    eta = abs(sol.eta0.real) + 1e-3
    at_zero, at_inf = [], []
    for expo in (3, 4, 5, 6):
        xi = 10.0 ** (-expo)
        at_zero.append(abs(sol(1j * xi)[0]) * xi ** eta)
        at_zero.append(abs(sol(-1j * xi)[1]) * xi ** eta)
        at_inf.append(abs(sol(1j / xi)[0]) * xi ** eta)
        at_inf.append(abs(sol(-1j / xi)[1]) * xi ** eta)
    bounded = (max(at_zero) <= max(2.0 * max(at_zero[:2]), 1e-12)
               and max(at_inf) <= max(2.0 * max(at_inf[:2]), 1e-12))
    dev = verify_uniqueness(p, 0.7j)
    ok = (sol.kappa == 0 and residual < 1e-6 and bounded and dev < 1e-6)
    assert report(7, ok, f"index {sol.kappa}, boundary residual {residual:.2e}, "
                         f"growth bounded {bounded}, uniqueness deviation {dev:.2e}")


def test_criterion_8_zero_of_order_two():
    p = manufactured(0.25, zeros=((0.8, 2),))
    sol = solve_scalar_bvp(p)
    alpha, delta = 0.8, 1e-7
    xs = [sol(alpha + j * delta)[0] for j in range(4)]
    scale = abs(xs[3] / (3 * delta) ** 2)
    dd0 = abs(xs[0]) / scale
    dd1 = abs(xs[1] - xs[0]) / delta / scale
    dd2 = abs(xs[2] - 2 * xs[1] + xs[0]) / delta ** 2 / scale
    ok = dd0 < 1e-5 and dd1 < 1e-5 and dd2 > 1e-2
    assert report(8, ok, f"relative divided differences {dd0:.2e}, {dd1:.2e} "
                         f"(< 1e-5), order-2 {dd2:.2f} (> 1e-2)")


def test_criterion_9_smoothness_probe():
    cfg = pentagon_cfg()
    changes = {}
    for direction in ("theta1", "a_re"):
        for out in smoothness_probe(cfg, direction, [1, 2], 1e-2):
            changes[(direction, out["order"])] = out["rel_change"]
    ok = all(v < 1e-4 for v in changes.values())
    detail = ", ".join(f"{d}/order{o}: {v:.1e}" for (d, o), v in changes.items())
    assert report(9, ok, detail)


def test_criterion_10_determinism(tmp_path):
    doc = {
        "problem": {
            "R": 4.0, "a": [0.0, 0.0], "theta": [0.7, 1.3],
            "spectrum": {"entries": [[[1, 0], 1], [[-1, 0], 1], [[0, 1], 1],
                                     [[0, -1], 1], [[1, 1], 1], [[-1, -1], 1]],
                         "support_constant": 0.9},
            "Z": {"z1": [[1.0, 0.0]], "z2": [[0.0, 1.0]]},
            "M": 64,
        },
        "R_values": [2.0, 4.0],
        "table_order": 6,
        "scalar": {"jump": {"kind": "manufactured", "eta0": 0.25},
                   "zeta0": [0.0, 1.5], "samples": 60},
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    artifacts = {"solve": ("report.json", "nodes.csv"),
                 "sweep_r": ("sweep.csv",),
                 "pentagon_table": ("pentagon_coeffs.csv",),
                 "scalar_bvp": ("scalar_report.json",)}
    identical = True
    for command, names in artifacts.items():
        d1, d2 = tmp_path / f"{command}_1", tmp_path / f"{command}_2"
        assert cli_main([command, "--config", str(cfg), "--out", str(d1),
                         "--seed", "3"]) == 0
        assert cli_main([command, "--config", str(cfg), "--out", str(d2),
                         "--seed", "3"]) == 0
        for name in names:
            identical &= (d1 / name).read_bytes() == (d2 / name).read_bytes()
    assert report(10, identical,
                  f"{sum(len(n) for n in artifacts.values())} artifacts "
                  f"byte-identical over {len(artifacts)} commands")
