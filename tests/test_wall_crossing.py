"""Wall crossing as an oracle that can fail.

Across a wall of marginal stability the spectrum jumps, between the pentagon
{+-gamma1, +-gamma2, +-(gamma1 + gamma2)} on the side where arg Z_2 > arg Z_1
and {+-gamma1, +-gamma2} on the other, while the solution X_gamma stays
continuous (Gaiotto-Moore-Neitzke, arXiv:0807.4723): the
Kontsevich-Soibelman pentagon identity (arXiv:0811.2435) makes the two
sides' jump maps agree at the wall.  So Theta at a fixed point off both
contour rays, from the pentagon at a and the pair spectrum at -a, differs by
O(|a|); paired the wrong way round it differs by O(1) as a -> 0.  A wrong
factor order in either side map breaks the identity, and the gap no longer
falls.
"""

import cmath

import pytest

from rhflow.charge_lattice import Spectrum, pentagon_spectrum
from rhflow.rh_solver import SolverConfig, evaluate_theta, solve
from rhflow.spectrum_rays import CentralCharge

PENTAGON = pentagon_spectrum(0.5)
PAIRS = Spectrum.from_pairs([((1, 0), 1), ((-1, 0), 1), ((0, 1), 1), ((0, -1), 1)], 0.5)
ZETA = 0.7 * cmath.exp(2.2j)
# the central charge whose basis value turns with a, and the sign of a on
# the pentagon's side of the wall (where arg Z_2 > arg Z_1)
ORIENTATIONS = {
    "Z2_turns": (CentralCharge((1.0,), (1.0, 1j)), +1),  # Z1 = 1, Z2 = 1 + i a
    "Z1_turns": (CentralCharge((1.0, 1j), (1.0,)), -1),  # Z1 = 1 + i a, Z2 = 1
}


def theta_at(spectrum: Spectrum, Z: CentralCharge, a: float) -> tuple:
    cfg = SolverConfig(R=0.5, a=a, theta=(0.7, 1.3), spectrum=spectrum, Z=Z,
                       M=256, max_iter=100)
    return evaluate_theta(solve(cfg)[0], ZETA)[1]


def gap(Z: CentralCharge, a_pentagon: float) -> float:
    """max_k |Theta_k(ZETA)| between the pentagon at a_pentagon and the pair
    spectrum at -a_pentagon."""
    pent = theta_at(PENTAGON, Z, a_pentagon)
    pairs = theta_at(PAIRS, Z, -a_pentagon)
    return max(abs(p - q) for p, q in zip(pent, pairs))


@pytest.mark.parametrize("orientation", sorted(ORIENTATIONS))
def test_theta_is_continuous_across_the_wall(orientation):
    Z, side = ORIENTATIONS[orientation]
    # the right pairing falls linearly in |a| (1.8e-4 at 0.01, 1.8e-5 at
    # 0.001); the wrong one levels off near 5.2e-4
    right = [gap(Z, side * a) for a in (0.01, 0.001)]
    assert right[1] <= 0.2 * right[0]
    assert gap(Z, -side * 0.001) > 4e-4
