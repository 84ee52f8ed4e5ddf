import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rhflow.charge_lattice import (Charge, GAMMA1, GAMMA2, Spectrum, extend, norm,
                                   pairing, pentagon_spectrum, require_support)
from rhflow.errors import SupportPropertyError
from rhflow.spectrum_rays import CentralCharge

coords = st.integers(min_value=-50, max_value=50)
charges = st.builds(Charge, coords, coords)


def test_pairing_basis():
    assert pairing(GAMMA1, GAMMA2) == 1


def test_pairing_self_vanishes():
    assert pairing(Charge(2, 1), Charge(2, 1)) == 0


def test_pairing_bilinear_example():
    assert pairing(Charge(2, 1), Charge(1, 1)) == 1


@given(charges, charges)
def test_pairing_antisymmetric(g, h):
    assert pairing(g, h) == -pairing(h, g)


@given(charges, charges)
def test_cauchy_schwarz(g, h):
    assert abs(pairing(g, h)) <= norm(g) * norm(h) + 1e-9


def test_norm_values():
    assert norm(Charge(1, 0)) == 1.0
    assert norm(Charge(3, 4)) == 5.0


def test_cauchy_schwarz_example():
    assert abs(pairing(Charge(1, 2), Charge(2, 1))) == 3
    assert norm(Charge(1, 2)) * norm(Charge(2, 1)) == pytest.approx(5.0)


@given(charges, charges)
def test_extend_additive(g, h):
    v1, v2 = 0.3 + 0.4j, -1.1 + 0.2j
    assert extend(g + h, v1, v2) == pytest.approx(extend(g, v1, v2) + extend(h, v1, v2))


def test_extend_values():
    assert extend(Charge(1, 1), 2.0, 3.0) == 5.0
    assert extend(Charge(0, 0), 2.0, 3.0) == 0.0
    assert extend(Charge(-2, 3), 1.0, 1j) == -2 + 3j


def test_negation():
    assert -Charge(2, -3) == Charge(-2, 3)


def test_spectrum_requires_symmetry():
    with pytest.raises(ValueError, match="symmetric"):
        Spectrum(((Charge(1, 0), 1),))


def test_spectrum_rejects_zero_charge():
    with pytest.raises(ValueError, match="zero charge"):
        Spectrum(((Charge(0, 0), 1), (Charge(0, 0), 1)))


def test_pentagon_spectrum_is_symmetric():
    s = pentagon_spectrum()
    for g, om in s.entries:
        assert dict(s.entries)[-g] == om
    assert len(s.entries) == 6


def test_check_support_single_pair():
    Z = CentralCharge.constant(1.0, 1j)
    s = Spectrum.from_pairs([((1, 0), 1), ((-1, 0), 1)], support_constant=0.5)
    assert require_support(s, Z, 0.0) is None
    s2 = Spectrum.from_pairs([((1, 0), 1), ((-1, 0), 1)], support_constant=2.0)
    with pytest.raises(SupportPropertyError):
        require_support(s2, Z, 0.0)


def test_check_support_pentagon():
    # |Z_{e1+e2}| / norm = sqrt(2)/sqrt(2) = 1 > 0.9
    Z = CentralCharge.constant(1.0, 1j)
    s = pentagon_spectrum(support_constant=0.9)
    assert require_support(s, Z, 0.0) is None
    assert math.isclose(abs(Z.of(Charge(1, 1), 0.0)) / norm(Charge(1, 1)), 1.0)


def test_require_support_names_offender():
    Z = CentralCharge.constant(1.0, 1j)
    s = pentagon_spectrum(support_constant=1.05)
    with pytest.raises(SupportPropertyError, match=r"\(1,1\)|\(-1,-1\)|\(1,0\)"):
        require_support(s, Z, 0.0)
