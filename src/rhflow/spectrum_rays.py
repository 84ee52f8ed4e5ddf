"""Central charge, semiflat exponentials, active rays and admissible directions."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .charge_lattice import Charge, Spectrum, extend
from .errors import DegenerateRayError, NoAdmissibleRayError

# margin for strict angular comparisons near ray boundaries
EPS_ANGLE = 1e-9


def _wrap(phase: float) -> float:
    """Wrap to (-pi, pi]."""
    w = math.remainder(phase, 2.0 * math.pi)
    if w <= -math.pi:
        w += 2.0 * math.pi
    return w


@dataclass(frozen=True)
class CentralCharge:
    """Holomorphic homomorphism of the lattice, given on the basis by
    polynomials in the base coordinate a (coefficients low order first)."""

    z1: tuple[complex, ...]
    z2: tuple[complex, ...]

    @staticmethod
    def constant(z1: complex, z2: complex) -> "CentralCharge":
        return CentralCharge((z1,), (z2,))

    def _eval(self, coeffs: tuple[complex, ...], a: complex, derivative: int = 0) -> complex:
        out = 0j
        for k in range(len(coeffs) - 1, derivative - 1, -1):
            fac = 1
            for m in range(k, k - derivative, -1):
                fac *= m
            out = out * a + fac * coeffs[k]
        return out

    def basis_values(self, a: complex, derivative: int = 0) -> tuple[complex, complex]:
        return (self._eval(self.z1, a, derivative), self._eval(self.z2, a, derivative))

    def of(self, g: Charge, a: complex, derivative: int = 0) -> complex:
        v1, v2 = self.basis_values(a, derivative)
        return extend(g, v1, v2)


@dataclass(frozen=True)
class RayDirection:
    """Ray {t e^{i phase} : t > 0} through the origin."""

    phase: float

    def __post_init__(self):
        object.__setattr__(self, "phase", _wrap(self.phase))

    def unit(self) -> complex:
        return cmath.exp(1j * self.phase)

    def opposite(self) -> "RayDirection":
        return RayDirection(self.phase + math.pi)

    def angle_to(self, other: "RayDirection") -> float:
        """Unsigned angle in [0, pi]."""
        return abs(_wrap(self.phase - other.phase))


def semiflat(Z: CentralCharge, g: Charge, a: complex, theta: tuple[float, float],
             zeta: complex, R: float) -> complex:
    """exp(pi R Z_g / zeta + i theta_g + pi R zeta conj(Z_g))."""
    if zeta == 0:
        raise ValueError("semiflat evaluation requires zeta != 0")
    zg = Z.of(g, a)
    th = extend(g, theta[0], theta[1])
    return cmath.exp(math.pi * R * zg / zeta + 1j * th + math.pi * R * zeta * zg.conjugate())


def bps_ray(Z: CentralCharge, g: Charge, a: complex) -> RayDirection:
    """Direction of {-t Z_g(a) : t > 0}."""
    zg = Z.of(g, a)
    if zg == 0:
        raise DegenerateRayError(f"Z vanishes for charge ({g.c1},{g.c2}) at a = {a}")
    return RayDirection(cmath.phase(-zg))


def _split_candidates(phases: list[float]) -> list[float]:
    """Candidate separating line angles: midpoints of the gaps between the
    active ray directions taken mod pi, widest gap first."""
    lines = sorted(set(math.remainder(p, math.pi) % math.pi for p in phases))
    gaps = []
    for i, lo in enumerate(lines):
        hi = lines[(i + 1) % len(lines)] if i + 1 < len(lines) else lines[0] + math.pi
        if hi - lo > 2.0 * EPS_ANGLE:
            gaps.append((hi - lo, 0.5 * (lo + hi)))
    gaps.sort(key=lambda t: (-t[0], t[1]))
    return [mid for _, mid in gaps]


def admissible_pair(Z: CentralCharge, spectrum: Spectrum, a: complex,
                    split_phase: float | None = None,
                    ) -> tuple[RayDirection, dict[Charge, int]]:
    """Choose a direction r so every active ray makes a strictly acute angle
    with r or with -r, and classify each active charge by its side.

    The default separating line bisects the widest angular gap between the
    active ray directions, which maximizes the worst-case margin; r is the
    bisector of the positive side's angular span, oriented so that its phase
    lies in (pi/2, 3pi/2].  Passing `split_phase` forces a specific separating
    line (used to cross-check that solutions do not depend on the choice).
    """
    active = spectrum.active()
    if not active:
        return RayDirection(math.pi), {}
    rays = {g: bps_ray(Z, g, a) for g, _ in active}
    phases = [ray.phase for ray in rays.values()]

    if split_phase is None:
        candidates = _split_candidates(phases)
        if not candidates:
            raise NoAdmissibleRayError("active ray directions leave no angular gap")
        psi = candidates[0]
    else:
        psi = split_phase

    # positive side: rays with phase in (psi, psi + pi), strictly
    classification: dict[Charge, int] = {}
    pos_rel = []
    for g, _ in active:
        rel = (rays[g].phase - psi) % (2.0 * math.pi)
        if EPS_ANGLE < rel < math.pi - EPS_ANGLE:
            classification[g] = +1
            pos_rel.append(rel)
        elif math.pi + EPS_ANGLE < rel < 2.0 * math.pi - EPS_ANGLE:
            classification[g] = -1
        else:
            raise NoAdmissibleRayError(
                f"ray of charge ({g.c1},{g.c2}) lies on the separating line"
            )

    span_lo, span_hi = min(pos_rel), max(pos_rel)
    if span_hi - span_lo >= math.pi - 2.0 * EPS_ANGLE:
        raise NoAdmissibleRayError(
            f"positive rays span {span_hi - span_lo:.6f} rad, not contained in an "
            "open half-plane"
        )
    r = RayDirection(psi + 0.5 * (span_lo + span_hi))
    # orient deterministically: phase of r in (pi/2, 3pi/2]
    if not (0.5 * math.pi < (r.phase % (2.0 * math.pi)) <= 1.5 * math.pi):
        r = r.opposite()
        classification = {g: -s for g, s in classification.items()}

    # every ray must be strictly acute to its side's direction
    for g, _ in active:
        side = r if classification[g] > 0 else r.opposite()
        if rays[g].angle_to(side) >= 0.5 * math.pi - EPS_ANGLE:
            raise NoAdmissibleRayError(
                f"ray of charge ({g.c1},{g.c2}) is not strictly acute to r"
            )
    return r, classification


def alternative_split_phases(Z: CentralCharge, spectrum: Spectrum, a: complex) -> list[float]:
    """All valid separating-line angles, widest gap first."""
    active = spectrum.active()
    phases = [bps_ray(Z, g, a).phase for g, _ in active]
    return _split_candidates(phases)
