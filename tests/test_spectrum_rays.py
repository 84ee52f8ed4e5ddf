import math

import pytest

from rhflow.charge_lattice import Charge, GAMMA1, GAMMA2, Spectrum, pentagon_spectrum
from rhflow.errors import DegenerateRayError, NoAdmissibleRayError
from rhflow.spectrum_rays import (CentralCharge, RayDirection, admissible_pair,
                                  alternative_split_phases, bps_ray, semiflat)

Z_PENTAGON = CentralCharge.constant(1.0, 1j)


def test_central_charge_polynomial():
    Z = CentralCharge((0.0, 1.0), (1j,))  # z1(a) = a, z2 = i
    assert Z.of(GAMMA1, 0.3) == pytest.approx(0.3)
    assert Z.of(GAMMA1 + GAMMA2, 0.0) == pytest.approx(1j)
    assert Z.of(-GAMMA2, 0.7) == pytest.approx(-1j)


def test_central_charge_derivative():
    Z = CentralCharge((0.5, 2.0, 3.0), (1j,))  # z1 = 0.5 + 2a + 3a^2
    assert Z.of(GAMMA1, 0.2, derivative=1) == pytest.approx(2.0 + 6.0 * 0.2)
    assert Z.of(GAMMA1, 0.2, derivative=2) == pytest.approx(6.0)
    assert Z.of(GAMMA2, 0.2, derivative=1) == 0


def test_semiflat_saddle_value():
    # on the saddle of its own ray the exponent is -2 pi R |Z|
    val = semiflat(Z_PENTAGON, GAMMA1, 0.0, (0.0, 0.0), -1.0, 1.0)
    assert val == pytest.approx(math.exp(-2.0 * math.pi), rel=1e-12)


def test_semiflat_periodic_in_theta():
    a = semiflat(Z_PENTAGON, GAMMA1, 0.0, (0.4, 1.0), 0.3 + 0.2j, 2.0)
    b = semiflat(Z_PENTAGON, GAMMA1, 0.0, (0.4 + 2 * math.pi, 1.0), 0.3 + 0.2j, 2.0)
    assert a == pytest.approx(b, rel=1e-12)


def test_semiflat_zero_zeta_rejected():
    with pytest.raises(ValueError):
        semiflat(Z_PENTAGON, GAMMA1, 0.0, (0.0, 0.0), 0.0, 1.0)


def test_semiflat_multiplicative():
    args = (0.0, (0.7, 1.3), 0.4 - 1.1j, 3.0)
    lhs = semiflat(Z_PENTAGON, GAMMA1 + GAMMA2, *args)
    rhs = semiflat(Z_PENTAGON, GAMMA1, *args) * semiflat(Z_PENTAGON, GAMMA2, *args)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_semiflat_reality():
    zeta = 0.8 + 0.3j
    g = Charge(1, 1)
    lhs = semiflat(Z_PENTAGON, -g, 0.0, (0.7, 1.3), -1.0 / zeta.conjugate(), 2.0)
    rhs = semiflat(Z_PENTAGON, g, 0.0, (0.7, 1.3), zeta, 2.0)
    assert lhs.conjugate() == pytest.approx(rhs, rel=1e-12)


def test_bps_ray_directions():
    assert bps_ray(Z_PENTAGON, GAMMA1, 0.0).phase == pytest.approx(math.pi)
    assert bps_ray(Z_PENTAGON, GAMMA2, 0.0).phase == pytest.approx(-math.pi / 2)
    assert bps_ray(CentralCharge.constant(1 + 1j, 1j), GAMMA1, 0.0).phase == \
        pytest.approx(-3 * math.pi / 4)


def test_bps_ray_degenerate():
    Z = CentralCharge((0.0, 1.0), (1j,))  # z1(a) = a vanishes at a = 0
    with pytest.raises(DegenerateRayError):
        bps_ray(Z, GAMMA1, 0.0)


def test_admissible_pair_pentagon():
    r, cls = admissible_pair(Z_PENTAGON, pentagon_spectrum(), 0.0)
    assert r.phase == pytest.approx(-3 * math.pi / 4)  # 5 pi / 4
    for g in (GAMMA1, GAMMA2, GAMMA1 + GAMMA2):
        assert cls[g] == 1
        assert cls[-g] == -1


def test_admissible_pair_single_pair_lands_on_ray():
    s = Spectrum.from_pairs([((1, 0), 1), ((-1, 0), 1)])
    r, cls = admissible_pair(Z_PENTAGON, s, 0.0)
    assert r.phase == pytest.approx(math.pi)
    assert cls[GAMMA1] == 1


def test_admissible_pair_classification_flips_under_negation():
    _, cls = admissible_pair(Z_PENTAGON, pentagon_spectrum(), 0.0)
    for g, side in cls.items():
        assert cls[-g] == -side


def test_forced_split_on_a_ray_fails():
    # separating line that contains an active ray direction
    with pytest.raises(NoAdmissibleRayError):
        admissible_pair(Z_PENTAGON, pentagon_spectrum(), 0.0, split_phase=math.pi)


def test_alternative_splits_give_valid_pairs():
    s = pentagon_spectrum()
    for psi in alternative_split_phases(Z_PENTAGON, s, 0.0)[1:]:
        r, cls = admissible_pair(Z_PENTAGON, s, 0.0, split_phase=psi)
        assert set(cls.values()) == {1, -1}


def test_ray_direction_wrapping():
    assert RayDirection(3 * math.pi).phase == pytest.approx(math.pi)
    assert RayDirection(0.1).angle_to(RayDirection(-0.1)) == pytest.approx(0.2)


def test_semiflat_decay_bound_on_own_ray():
    # |X^sf| = exp(-pi R |Z| (t + 1/t)) on the charge's own ray, maximal at
    # the unit circle where it equals exp(-2 pi R |Z|)
    R, g = 2.0, GAMMA1
    ray = bps_ray(Z_PENTAGON, g, 0.0)
    peak = math.exp(-2.0 * math.pi * R)
    for t in (0.3, 0.7, 1.0, 1.9, 4.2):
        mag = abs(semiflat(Z_PENTAGON, g, 0.0, (0.4, 0.9), t * ray.unit(), R))
        assert mag == pytest.approx(math.exp(-math.pi * R * (t + 1 / t)), rel=1e-12)
        assert mag <= peak * (1 + 1e-12)
    assert abs(semiflat(Z_PENTAGON, g, 0.0, (0.4, 0.9), ray.unit(), R)) == \
        pytest.approx(peak, rel=1e-12)
