"""Scalar boundary-value problem with a branch jump and a double zero.

The jump function on the real line has a first-kind discontinuity at 0 and
infinity (exponent 1/4) and a zero of order two at t = 0.8.  The solution
splits as a zero factor times branch factors times a Cauchy transform; the
left-side function vanishes quadratically at the zero, the right-side one
does not.
"""

import cmath
import math

import numpy as np

from rhflow.scalar_bvp import (ScalarBVProblem, regularizing_factor, solve_scalar_bvp,
                               verify_uniqueness, zero_factor)

ETA0 = 0.25
ZEROS = ((0.8, 2),)
probe = ScalarBVProblem(0.0, lambda t: 1.0, (1, 1, 1, 1), zeros=ZEROS, zeta0=1.5j)


def G(t):
    """The jump at a 1-D array of contour coordinates: a smooth bump, the
    double zero and the branch factor."""
    with np.errstate(divide="ignore"):  # t = 0: the bump is 0 there
        s = np.log(np.abs(t))
    zeta = probe.contour_point(t)
    return (np.exp((0.3 + 0.1j) * np.exp(-0.5 * s * s)) * zero_factor(probe, zeta)
            / regularizing_factor(probe, ETA0, zeta))


g0m, g0p = G(np.array([-1e-300, 1e-300])).tolist()  # the one-sided limits at 0
p = ScalarBVProblem(0.0, G, (g0m, g0p, 1.0, cmath.exp(2j * math.pi * ETA0)),
                    zeros=ZEROS, zeta0=1.5j)
sol = solve_scalar_bvp(p)
print(f"branch exponent eta0 = {sol.eta0:.9f}, index = {sol.kappa}")

ts = np.concatenate([np.exp(np.linspace(-6, 6, 40)),
                     -np.exp(np.linspace(-6, 6, 40))])
ts = np.array([t for t in ts if abs(t - 0.8) > 1e-2])
print(f"boundary residual over {len(ts)} contour samples: "
      f"{sol.boundary_residual(ts):.3e}")

print("\nbehavior at the double zero on the contour:")
zs = 0.8 + 1e-3 * np.arange(4)
for z, xp, xm in zip(zs, *sol(zs)):
    print(f"  X+({z:.4f}) = {abs(xp):.6e}    X-({z:.4f}) = {abs(xm):.6e}")
print("X+ vanishes quadratically, X- stays away from zero.")

dev = verify_uniqueness(p, 0.7j)
print(f"\ntwo base-point solves differ by a constant to {dev:.3e}")
