"""Numerical solver for a family of nonlinear Riemann-Hilbert problems.

The package solves the Cauchy-kernel integral equation for the corrected
torus coordinates by fixed-point iteration, checks the multiplicative jump,
reality and asymptotic conditions of the converged solution, provides
steepest-descent estimates as an independent oracle, and solves scalar
boundary-value problems with discontinuous and vanishing jump functions.
"""

from .charge_lattice import (Charge, GAMMA1, GAMMA2, Spectrum, extend, norm,
                             pairing, pentagon_spectrum)
from .errors import (AsymmetricJumpError, ConfigError, DegenerateRayError,
                     DivergenceError, NoAdmissibleRayError, NonContractionError,
                     NonzeroIndexError, RHFlowError, SupportPropertyError,
                     TruncationUnsafeError)
from .spectrum_rays import (CentralCharge, RayDirection, admissible_pair,
                            bps_ray, semiflat)
from .stokes_series import pentagon_coeff

__version__ = "0.1.0"
