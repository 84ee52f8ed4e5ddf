"""Moving a ray integral onto the integrand's own ray, with residue bookkeeping.

The kernel has a pole at the evaluation point.  Deforming the contour from
the admissible ray to the charge's own ray sweeps a sector; if the
evaluation point sits inside, the deformed integral differs by the residue
term, a semiflat exponential times +/- 4 pi i.
"""

import cmath
import math

import numpy as np

from rhflow.charge_lattice import GAMMA2, pentagon_spectrum
from rhflow.contour_quadrature import (build_ray_grid, deform_to_bps_ray,
                                       integrate_ray, sweep_sign)
from rhflow.spectrum_rays import CentralCharge, admissible_pair, bps_ray, semiflat

R = 6.0
Z = CentralCharge.constant(1.0, 1j)
theta = (0.7, 1.3)
gamma = GAMMA2

r, _ = admissible_pair(Z, pentagon_spectrum(), 0.0)
ell = bps_ray(Z, gamma, 0.0)
print(f"contour ray at {r.phase:+.4f} rad, charge ray at {ell.phase:+.4f} rad, "
      f"sweep {'ccw' if sweep_sign(r, ell) > 0 else 'cw'}")

zg = abs(Z.of(gamma, 0.0))
grid_r = build_ray_grid(r, 2 * math.pi * R * zg * math.cos(ell.angle_to(r)), 256, 40.0)
grid_e = build_ray_grid(ell, 2 * math.pi * R * zg, 256, 40.0)


def h(zp):
    return semiflat(Z, gamma, 0.0, theta, zp, R)


dens_r = np.array([h(z) for z in grid_r.points()])
for label, zeta in (("inside the sector ", cmath.exp(0.5j * (r.phase + ell.phase))),
                    ("outside the sector", 0.8 * cmath.exp(1j * (r.phase - 0.4)))):
    lhs = integrate_ray(grid_r, dens_r, zeta)[0]
    moved, crossed = deform_to_bps_ray(zeta, r, grid_e, h)
    term = sweep_sign(r, ell) * 4j * math.pi * h(zeta) if crossed else 0.0
    rhs = moved + term
    print(f"\nzeta {label}: {zeta:.4f}")
    print(f"  integral on the contour ray   {lhs:.12e}")
    print(f"  moved integral {'+ residue' if crossed else '          '}    {rhs:.12e}")
    print(f"  relative deviation            {abs(lhs - rhs) / abs(lhs):.2e}")
