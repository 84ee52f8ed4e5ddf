import math

import numpy as np
import pytest

from rhflow.charge_lattice import Charge, GAMMA1, extend
from rhflow.saddle_asymptotics import (compare, endpoint_estimate,
                                       leading_estimate, saddle_point)
from rhflow.spectrum_rays import CentralCharge

Z = CentralCharge.constant(1.0, 1j)


def test_saddle_point_locations():
    assert saddle_point(1.0) == pytest.approx(-1.0)
    assert saddle_point(1j) == pytest.approx(-1j)
    with pytest.raises(ValueError):
        saddle_point(0.0)


def test_saddle_exponent_value():
    # f(zeta0) = -2|Z|
    for z in (1.0, 1j, 2.0 - 1.5j):
        z0 = saddle_point(z)
        assert z / z0 + z0 * z.conjugate() == pytest.approx(-2.0 * abs(z), rel=1e-12)


def test_leading_estimate_at_origin_is_positive_for_zero_phase():
    # kernel factor is (zeta0 + 0)/(zeta0 - 0) = +1, matching the kernel's
    # value 1 at zeta = 0; the integral of a positive peak is positive
    lead = leading_estimate(0.0, 1.0, 4.0, 0.0)
    assert lead.real > 0
    assert lead == pytest.approx(math.exp(-8 * math.pi) / 2.0, rel=1e-12)


def test_leading_estimate_vanishes_opposite_saddle():
    z0 = saddle_point(1.0)
    assert leading_estimate(-z0, 1.0, 4.0, 0.3) == 0


def test_leading_estimate_worked_value():
    # Z = 1, R = 16, zeta = 2: kernel factor (-1 + 2)/(-1 - 2) = -1/3
    lead = leading_estimate(2.0, 1.0, 16.0, 0.0)
    assert lead == pytest.approx(-(1.0 / 3.0) * math.exp(-32 * math.pi) / 4.0, rel=1e-12)


def test_leading_estimate_sign_matches_quadrature():
    rep = compare(2.0, GAMMA1, Z, 0.0, (0.0, 0.0), [16.0])[0]
    assert rep.numeric.real * rep.leading.real > 0


def test_endpoint_estimate_magnitude_and_flag():
    est = endpoint_estimate(1.0, 4.0, 1.0)
    assert not est.subleading
    assert abs(est.value) == pytest.approx(math.exp(-8 * math.pi) / 4.0, rel=1e-12)
    flagged = endpoint_estimate(1.0, 4.0, 0.0)
    assert flagged.subleading and flagged.value == 0


def test_endpoint_is_half_of_interior_prefactor():
    interior = abs(leading_estimate(0.0, 1.0, 9.0, 0.0))
    endpoint = abs(endpoint_estimate(1.0, 9.0, 1.0).value)
    assert endpoint == pytest.approx(0.5 * interior, rel=1e-12)


def test_compare_error_shrinks_with_R():
    # the saddle is interior and zeta is away from it, so the odd-order
    # corrections cancel and the relative error decays like 1/R:
    # R * rel_error is nearly constant
    z0 = saddle_point(Z.of(GAMMA1, 0.0))
    reports = compare(2 * z0, GAMMA1, Z, 0.0, (0.7, 1.3), [4.0, 16.0, 64.0])
    errs = [r.rel_error for r in reports]
    assert errs[2] < errs[1] < errs[0] < 1.0
    assert errs[1] < 0.3
    scaled = [r.R * e for r, e in zip(reports, errs)]
    assert max(scaled) < 1.6 * min(scaled)


def test_compare_rel_error_finite_past_underflow():
    # e^{-2 pi R |Z|} leaves the double range near R = 118 at |Z| = 1; the
    # relative error must still follow the Laplace coefficient 15/8 at
    # zeta = 2 zeta0 (see acceptance criterion 5b)
    z0 = saddle_point(Z.of(GAMMA1, 0.0))
    for rep in compare(2 * z0, GAMMA1, Z, 0.0, (0.7, 1.3), [128.0, 256.0]):
        assert math.isfinite(rep.rel_error)
        scaled = 2.0 * math.pi * rep.R * rep.rel_error
        assert scaled == pytest.approx(15.0 / 8.0, rel=0.05)

def test_compare_reality_relation():
    # conj(leading(gp, -1/conj zeta)) = -leading(-gp, zeta) for real angles
    rng = np.random.default_rng(3)
    th = (0.7, 1.3)
    for _ in range(8):
        zeta = complex(*rng.normal(size=2))
        for g in (Charge(1, 0), Charge(1, 1), Charge(0, 1)):
            zg = Z.of(g, 0.0)
            lhs = leading_estimate(-1.0 / zeta.conjugate(), zg, 3.0,
                                   extend(g, *th)).conjugate()
            rhs = -leading_estimate(zeta, Z.of(-g, 0.0), 3.0, extend(-g, *th))
            assert lhs == pytest.approx(rhs, rel=1e-12)
