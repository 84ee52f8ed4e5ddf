"""Solve the pentagon fixed-point problem and inspect the converged solution.

The spectrum has three charge pairs; the two basis functions are corrected
torus angles sampled on the two contour rays.  Watch the iteration contract,
then verify the multiplicative jump, the reality involution and the limits
at 0 and infinity.
"""

from rhflow.charge_lattice import GAMMA1, GAMMA2, pentagon_spectrum
from rhflow.rh_solver import (SolverConfig, asymptotic_theta, evaluate_Y, solve,
                              verify)
from rhflow.spectrum_rays import CentralCharge

cfg = SolverConfig(
    R=4.0,
    a=0.0,
    theta=(0.7, 1.3),
    spectrum=pentagon_spectrum(support_constant=0.9),
    Z=CentralCharge.constant(1.0, 1j),
)

state, report = solve(cfg)

print(f"contour ray at phase {report['config']['contour_phase']:.6f} rad")
print(f"converged in {report['iterations']} iterations")
for nu, (delta, ratio) in enumerate(zip(report["deltas"],
                                        [None] + report["ratios"]), start=1):
    extra = f"   ratio {ratio:.3e}" if ratio is not None else ""
    print(f"  step {nu}: delta {delta:.3e}{extra}")

print("\nresiduals of the defining conditions:")
for name, value in verify(state).items():
    print(f"  {name:16s} {value:.3e}")

theta0, thetainf = asymptotic_theta(state)
print("\nlimits of the corrected angles:")
for k, (t0, ti) in enumerate(zip(theta0, thetainf), start=1):
    print(f"  theta{k}: at 0 {t0:.15f}   at infinity {ti:.15f}")
print("the shift away from the reference angles is purely imaginary,")
print("and the two limits are complex conjugates.")

z = 0.4 + 1.2j
y1 = evaluate_Y(state, GAMMA1, z)
y2 = evaluate_Y(state, GAMMA2, z)
y12 = evaluate_Y(state, GAMMA1 + GAMMA2, z)
print(f"\nmultiplicativity at zeta = {z}:")
print(f"  Y1 * Y2  = {y1 * y2:.12e}")
print(f"  Y(1,1)   = {y12:.12e}")
