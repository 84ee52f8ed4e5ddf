import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rhflow import rh_solver, stokes_series
from rhflow.charge_lattice import Charge, GAMMA1, GAMMA2, Spectrum, pairing, pentagon_spectrum
from rhflow.spectrum_rays import CentralCharge, admissible_pair
from rhflow.stokes_series import (TruncatedSeries, identity_state, ks_apply,
                                  log_coeffs_from_state, ordered_side_charges,
                                  pentagon_coeff, side_jump_state, stokes_log_coeffs)

Z = CentralCharge.constant(1.0, 1j)


def charges_leq(n):
    out = []
    for i in range(-n, n + 1):
        for j in range(-n, n + 1):
            if 0 < abs(i) + abs(j) <= n:
                out.append(Charge(i, j))
    return out


# ---------------- series arithmetic ----------------

def test_series_truncation_closed_under_product():
    a = TruncatedSeries({Charge(1, 0): Fraction(1), Charge(2, 1): Fraction(1, 2)}, 3)
    b = TruncatedSeries({Charge(0, 1): Fraction(2)}, 3)
    prod = a * b
    assert prod.coefficients == {Charge(1, 1): Fraction(2)}  # (2,2) dropped


def test_series_pow_int_negative_is_geometric():
    one_minus = TruncatedSeries.one(4) - TruncatedSeries.monomial(Charge(1, 0), 4)
    inv = one_minus.pow_int(-1)
    assert inv.coefficients == {Charge(i, 0): Fraction(1) for i in range(5)}


def test_series_log_of_geometric():
    one_minus = TruncatedSeries.one(4) - TruncatedSeries.monomial(Charge(0, 1), 4)
    logs = one_minus.log_unit()
    assert logs.coefficients == {Charge(0, n): Fraction(-1, n) for n in range(1, 5)}


def test_series_inverse_of_monomial_times_unit():
    # exact below the truncation boundary; the shift by the leading monomial
    # can only lose terms at l1 degree == truncation_order
    s = TruncatedSeries.monomial(Charge(1, 0), 6) * \
        (TruncatedSeries.one(6) + TruncatedSeries.monomial(Charge(0, 1), 6))
    prod = s * s.inverse(Charge(1, 0))
    assert prod.coefficients[Charge(0, 0)] == Fraction(1)
    assert all(g.l1 >= 5 for g in prod.coefficients if g != Charge(0, 0))


# ---------------- single transformations ----------------

def test_ks_apply_zero_pairing_is_identity():
    state = identity_state(4)
    out = ks_apply(GAMMA1, GAMMA1, 1, 4, state)
    assert out == state[GAMMA1]


def test_ks_apply_spec_example():
    # target e2, attached charge e1: exponent <e2, e1> = -1, so the factor is
    # the geometric series and the coefficient at e1 + e2 is +1
    state = identity_state(2)
    out = ks_apply(GAMMA2, GAMMA1, 1, 2, state)
    assert out.coefficients[Charge(1, 1)] == 1
    assert out.coefficients[Charge(0, 1)] == 1


def test_ks_apply_omega_two_is_twice():
    state = identity_state(5)
    once = ks_apply(GAMMA2, GAMMA1, 1, 5, state)
    twice_direct = ks_apply(GAMMA2, GAMMA1, 2, 5, state)
    # applying with omega=1 twice: second application uses the updated image
    mid = {GAMMA1: state[GAMMA1], GAMMA2: once}
    twice_stepped = ks_apply(GAMMA2, GAMMA1, 1, 5, mid)
    assert twice_direct == twice_stepped


def test_ks_apply_rejects_bad_truncation():
    with pytest.raises(ValueError):
        ks_apply(GAMMA2, GAMMA1, 1, 0, identity_state(1))


def test_single_charge_log_matches_direct_expansion():
    # one active pair; log of the composed map on the basis target with
    # pairing -1 is log(1-x)^{-1} = sum x^n / n
    state = side_jump_state([(GAMMA1, 1)], 5)
    coeffs = log_coeffs_from_state(state, 2, 4)
    assert coeffs == {Charge(n, 0): Fraction(1, n) for n in range(1, 5)}
    assert log_coeffs_from_state(state, 1, 4) == {}


def test_empty_side_gives_empty_map():
    state = side_jump_state([], 5)
    assert log_coeffs_from_state(state, 1, 4) == {}


def test_parallel_charges_commute():
    a = side_jump_state([(GAMMA1, 1), (Charge(2, 0), 1)], 6)
    b = side_jump_state([(Charge(2, 0), 1), (GAMMA1, 1)], 6)
    assert a[GAMMA1] == b[GAMMA1] and a[GAMMA2] == b[GAMMA2]


# ---------------- pentagon closed form ----------------

def test_pentagon_coeff_spec_values():
    assert pentagon_coeff(0, 2, 1) == Fraction(-1, 2)
    assert pentagon_coeff(2, 3, 1) == 0
    assert pentagon_coeff(2, 3, 2) == 0
    # row value consistent with expanding the displayed jump maps directly:
    # log of the second map is -log(1 - x1(1 - x2)), whose (1,1) term is -1
    assert pentagon_coeff(1, 1, 2) == -1


def test_pentagon_coeff_rejects_zero_charge():
    with pytest.raises(ValueError):
        pentagon_coeff(0, 0, 1)


def test_pentagon_coeff_vanishes_with_pairing():
    # f factors through pairing with the target: rows with i != 0 vanish for
    # k = 1, the j-axis vanishes for k = 2
    for i in range(1, 5):
        for j in range(0, i + 1):
            assert pentagon_coeff(i, j, 1) == 0
    for j in range(1, 5):
        assert pentagon_coeff(0, j, 2) == 0


def test_pentagon_jump_maps_expand_to_table():
    # direct expansion of x1 -> x1 (1 - x2), x2 -> x2 (1 - x1(1 - x2))^{-1}
    N = 6
    one = TruncatedSeries.one(N + 1)
    x1 = TruncatedSeries.monomial(GAMMA1, N + 1)
    x2 = TruncatedSeries.monomial(GAMMA2, N + 1)
    img1 = x1 * (one - x2)
    img2 = x2 * (one - x1 * (one - x2)).pow_int(-1)
    for k, img, gk in ((1, img1, GAMMA1), (2, img2, GAMMA2)):
        ratio = TruncatedSeries.monomial(-gk, N + 1) * img
        logs = ratio.log_unit()
        for g in charges_leq(N):
            want = pentagon_coeff(g.c1, g.c2, k) if (g.c1 >= 0 and g.c2 >= 0) else Fraction(0)
            got = logs.coefficients.get(g, Fraction(0))
            if g.c1 >= 0 and g.c2 >= 0 and g.l1 <= N:
                assert got == want, (g, k, want, got)


def test_pentagon_composition_order():
    spec = pentagon_spectrum()
    r, _ = admissible_pair(Z, spec, 0.0)
    order = [g for g, _ in ordered_side_charges(spec, Z, 0.0, +1, r)]
    assert order == [GAMMA1, GAMMA1 + GAMMA2, GAMMA2]
    order_neg = [g for g, _ in ordered_side_charges(spec, Z, 0.0, -1, r)]
    assert order_neg == [-GAMMA1, -(GAMMA1 + GAMMA2), -GAMMA2]


def test_stokes_log_coeffs_equals_pentagon_table_exactly():
    # the oracle identity at N = 8, both sides, both targets, exact rationals
    spec = pentagon_spectrum()
    r, _ = admissible_pair(Z, spec, 0.0)
    N = 8
    for side in (+1, -1):
        for k in (1, 2):
            coeffs = stokes_log_coeffs(spec, Z, 0.0, side, k, N, r)
            for g in charges_leq(N):
                in_cone = (g.c1 > 0 or (g.c1 == 0 and g.c2 > 0)) if side > 0 \
                    else (g.c1 < 0 or (g.c1 == 0 and g.c2 < 0))
                want = pentagon_coeff(g.c1, g.c2, k) if in_cone else Fraction(0)
                got = coeffs.get(g, Fraction(0))
                assert got == want, (side, k, g, want, got)


def test_f_odd_under_global_negation():
    # coefficients of the two sides are related by f(-g) = -f(g)
    spec = pentagon_spectrum()
    r, _ = admissible_pair(Z, spec, 0.0)
    for k in (1, 2):
        plus = stokes_log_coeffs(spec, Z, 0.0, +1, k, 6, r)
        minus = stokes_log_coeffs(spec, Z, 0.0, -1, k, 6, r)
        for g, c in plus.items():
            assert minus.get(-g, Fraction(0)) == -c


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=3), st.integers(min_value=-3, max_value=3))
def test_single_pair_f_scales_with_pairing(n, m):
    # one active pair at multiples n*e1 with target pairing m via charge (0? ...)
    spec = Spectrum.from_pairs([((n, 0), 1), ((-n, 0), 1)])
    r, _ = admissible_pair(Z, spec, 0.0)
    coeffs = stokes_log_coeffs(spec, Z, 0.0, +1, 2, 6, r)
    base = Charge(n, 0)
    expo = pairing(GAMMA2, base)
    for mult in range(1, 7):
        g = base * mult
        if g.l1 > 6:
            continue
        assert coeffs.get(g, Fraction(0)) == Fraction(-expo, mult)


# ---------------- no solve composes a series ----------------

def test_second_solve_at_other_R_and_theta_composes_nothing(monkeypatch):
    # the solver iterates the exact side maps: no solve composes a series
    calls = []
    real = stokes_series.side_jump_state

    def counting(charges, N):
        calls.append((tuple(charges), N))
        return real(charges, N)

    monkeypatch.setattr(stokes_series, "side_jump_state", counting)
    cfg = rh_solver.SolverConfig(R=4.0, a=0.0, theta=(0.7, 1.3),
                                 spectrum=pentagon_spectrum(), Z=Z, M=64)
    rh_solver.verify(rh_solver.solve(cfg)[0])
    rh_solver.solve(rh_solver.SolverConfig(R=2.0, a=0.0, theta=(0.2, -0.4),
                                           spectrum=pentagon_spectrum(), Z=Z, M=64))
    assert calls == []
    # the counter sees a composition: the series itself still composes one
    r, _ = admissible_pair(Z, pentagon_spectrum(), 0.0)
    stokes_log_coeffs(pentagon_spectrum(), Z, 0.0, +1, 2, 3, r)
    assert len(calls) == 1


_CANDIDATES = [(1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (1, -1)]


# ---------------- the series as the oracle of the exact side maps ----------------

@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_CANDIDATES), st.integers(1, 2)),
                min_size=1, max_size=3, unique_by=lambda t: t[0]),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_exact_side_log_matches_the_order_12_series(picks, seed):
    # the solver's side log (the KS product of the active charges, factor by
    # factor) against sum_g f_g x^g from stokes_log_coeffs at N = 12, on a
    # random symmetric spectrum at a generic Z.  The series truncates by l1
    # degree, so the points keep |x_a| <= 0.05^{l1(a)} for every active a:
    # every dropped monomial is then below 0.05^13 (at |x_a| <= 0.1 the
    # dropped terms reach 8e-4).  An order-2 error of a wrong factor order,
    # sign or pairing is of size 0.05^2.
    pairs = []
    for (c1, c2), om in picks:
        pairs += [((c1, c2), om), ((-c1, -c2), om)]
    spec = Spectrum.from_pairs(pairs)
    Zg = CentralCharge.constant(1.3 + 0.2j, -0.25 + 1.1j)
    prep = rh_solver.init_state(rh_solver.SolverConfig(
        R=1.0, a=0.0, theta=(0.0, 0.0), spectrum=spec, Z=Zg, M=16)).problem
    rng = np.random.default_rng(seed)
    basis = np.array(Zg.basis_values(0.0))
    for side in (+1, -1):
        side_map = prep.maps[side]
        c = side_map.coords  # (n, 2)
        # log x_g = c_g . ell; with Re ell = -t w + eta, where c_a . w > 0 is
        # the decay of a on its side's ray, t puts every |x_a| in bounds
        w = (-basis * np.conj(prep.rays[side].unit())).real
        eta = rng.normal(size=(64, 2))
        bound = 0.05 ** np.abs(c).sum(axis=1)
        t = np.max((eta @ c.T - np.log(bound)) / (c @ w), axis=1)
        ell = -t[:, None] * w + eta + 1j * rng.uniform(0.0, 2.0 * math.pi, (64, 2))
        ratio = np.abs(np.exp(c @ ell.T)) / bound[:, None]
        assert np.all(ratio <= 1 + 1e-12) and np.all(ratio.max(axis=0) >= 1 - 1e-12)
        got = side_map.log(c @ ell.T, np.zeros((64, 2)))
        # stokes_log_coeffs(spec, Zg, 0.0, side, k, 12, r) for both k, from
        # one composition of the side at N + 1 = 13
        composed = side_jump_state(ordered_side_charges(spec, Zg, 0.0, side, prep.r), 13)
        for k in (1, 2):
            series = log_coeffs_from_state(composed, k, 12)
            want = sum(float(f) * np.exp(g.c1 * ell[:, 0] + g.c2 * ell[:, 1])
                       for g, f in series.items())
            assert np.max(np.abs(got[:, k - 1] - want)) <= 1e-10, (side, k)
