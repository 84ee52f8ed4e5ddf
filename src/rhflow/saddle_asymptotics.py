"""Steepest-descent estimates of the ray integrals, used as an independent
oracle for the solver's bounds.

The integrand K(zeta, .) X^sf along a charge's own ray has the exponent
-2 pi R |Z| cosh(s), with the saddle at s = 0, i.e. at -e^{i arg Z} on the
unit circle.  The leading interior estimate here carries the kernel factor
(zeta0 + zeta)/(zeta0 - zeta) with no extra sign: that is the stationary
value of the outward-oriented, log-parametrized integral, and the quadrature
cross-checks pin it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .charge_lattice import Charge, extend
from .contour_quadrature import build_ray_grid, integrate_ray
from .spectrum_rays import CentralCharge, bps_ray


def saddle_point(Z_gp: complex) -> complex:
    """-e^{i arg Z}: the critical point of Z/zeta + zeta conj(Z), where the
    exponent value is -2|Z|."""
    if Z_gp == 0:
        raise ValueError("saddle undefined for vanishing central charge")
    return -cmath.exp(1j * cmath.phase(Z_gp))


def leading_estimate(zeta: complex, Z_gp: complex, R: float,
                     theta_at_saddle: complex) -> complex:
    """Interior saddle estimate of the ray integral for zeta off the saddle:
    kernel factor at the saddle times e^{i Theta(zeta0)} e^{-2 pi R |Z|} /
    sqrt(R |Z|)."""
    return (_scaled_leading(zeta, Z_gp, R, theta_at_saddle)
            * math.exp(-2.0 * math.pi * R * abs(Z_gp)))


def _scaled_leading(zeta: complex, Z_gp: complex, R: float,
                    theta_at_saddle: complex) -> complex:
    """leading_estimate times e^{2 pi R |Z|}: finite for every R."""
    zeta0 = saddle_point(Z_gp)
    if zeta == zeta0:
        raise ValueError("interior estimate needs zeta != saddle; "
                         "use endpoint_estimate")
    kernel = (zeta0 + zeta) / (zeta0 - zeta)
    amp = 1.0 / math.sqrt(R * abs(Z_gp))
    return kernel * cmath.exp(1j * theta_at_saddle) * amp


@dataclass(frozen=True)
class EndpointEstimate:
    value: complex
    subleading: bool  # True when the symmetrized integrand vanishes at the saddle


def endpoint_estimate(Z_gp: complex, R: float, g_at_saddle: complex) -> EndpointEstimate:
    """On-saddle estimate: the saddle sits at the endpoint of the folded
    integration path, which halves the Gaussian factor.  A vanishing
    g(zeta0) pushes the whole term to the next order in 1/R."""
    if g_at_saddle == 0:
        return EndpointEstimate(0j, True)
    amp = math.exp(-2.0 * math.pi * R * abs(Z_gp)) / (2.0 * math.sqrt(R * abs(Z_gp)))
    return EndpointEstimate(g_at_saddle * amp, False)


@dataclass(frozen=True)
class SaddleReport:
    R: float
    gamma_p: Charge
    zeta: complex
    numeric: complex
    leading: complex
    rel_error: float


def compare(zeta: complex, gamma_p: Charge, Z: CentralCharge, a: complex,
            theta: tuple[float, float], R_list, M: int = 256,
            target_tail: float = 40.0) -> list[SaddleReport]:
    """Quadrature along the charge's own ray versus the leading estimate at
    the constant angle theta_gp, one report per R.

    Both sides carry the factor e^{-2 pi R |Z|}, which leaves the double
    range near 2 pi R |Z| = 745: numeric and leading may underflow to 0 at
    large R.  rel_error is formed with that factor taken out of both and
    stays finite.
    """
    zg = Z.of(gamma_p, a)
    ray = bps_ray(Z, gamma_p, a)
    th_gp = extend(gamma_p, theta[0], theta[1])
    reports = []
    for R in R_list:
        peak = 2.0 * math.pi * R * abs(zg)
        grid = build_ray_grid(ray, peak, M, target_tail)
        pts = grid.points()
        # semiflat densities times e^{peak}: on the ray
        # pi R (Z/zeta' + zeta' conj Z) + peak <= 0, with 0 at the saddle
        dens = np.exp(math.pi * R * zg / pts + 1j * th_gp
                      + math.pi * R * pts * zg.conjugate() + peak)
        # on the ray the mean of the two limits is the principal value, the
        # symmetric counterpart of the interior estimate; off it, the integral
        plus, minus = integrate_ray(grid, dens, zeta)
        numeric = 0.5 * (plus + minus)
        lead = _scaled_leading(zeta, zg, R, th_gp)
        rel = abs(numeric - lead) / abs(lead) if lead != 0 else math.inf
        scale = math.exp(-peak)
        reports.append(SaddleReport(R, gamma_p, zeta, numeric * scale,
                                    lead * scale, rel))
    return reports
