"""Rank-2 charge lattice: pairing, norm, spectra and linear extension.

Charges are integer vectors c1*e1 + c2*e2 in a fixed basis with
antisymmetric pairing <e1, e2> = 1.  A Spectrum is a finite symmetric
list of (charge, multiplicity) pairs; it fixes which rays are active.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .errors import SupportPropertyError


@dataclass(frozen=True)
class Charge:
    c1: int
    c2: int

    def __add__(self, other: "Charge") -> "Charge":
        return Charge(self.c1 + other.c1, self.c2 + other.c2)

    def __sub__(self, other: "Charge") -> "Charge":
        return Charge(self.c1 - other.c1, self.c2 - other.c2)

    def __neg__(self) -> "Charge":
        return Charge(-self.c1, -self.c2)

    def __mul__(self, n: int) -> "Charge":
        return Charge(n * self.c1, n * self.c2)

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        return self.c1 != 0 or self.c2 != 0

    @property
    def l1(self) -> int:
        return abs(self.c1) + abs(self.c2)


GAMMA1 = Charge(1, 0)
GAMMA2 = Charge(0, 1)


def pairing(g: Charge, h: Charge) -> int:
    """Antisymmetric integer pairing, normalized to pairing(e1, e2) = 1."""
    return g.c1 * h.c2 - g.c2 * h.c1


def norm(g: Charge) -> float:
    """Euclidean norm of the coordinates.

    Positive definite and Cauchy-Schwarz compatible with `pairing`:
    |pairing(g, h)| <= norm(g) * norm(h).
    """
    return math.hypot(g.c1, g.c2)


def extend(g: Charge, v1: complex, v2: complex) -> complex:
    """Linear extension g -> c1*v1 + c2*v2 of values assigned to the basis.

    The same rule extends central charges, torus angles and their
    corrected versions from the basis to the whole lattice.
    """
    return g.c1 * v1 + g.c2 * v2


@dataclass(frozen=True)
class Spectrum:
    """Finite symmetric set of active charges with integer multiplicities."""

    entries: tuple[tuple[Charge, int], ...]
    support_constant: float = 0.0

    def __post_init__(self):
        seen = {}
        for g, om in self.entries:
            if not g:
                raise ValueError("spectrum entry with zero charge")
            if g in seen:
                raise ValueError(f"duplicate spectrum entry {g}")
            seen[g] = om
        for g, om in seen.items():
            if seen.get(-g) != om:
                raise ValueError(
                    f"spectrum not symmetric: {-g} missing or with a different multiplicity"
                )
        # NaN fails every comparison, so require the good case
        if not (0 <= self.support_constant < math.inf):
            raise ValueError("support constant must be finite and >= 0")

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[tuple[int, int], int]],
                   support_constant: float = 0.0) -> "Spectrum":
        return cls(tuple((Charge(c1, c2), om) for (c1, c2), om in pairs),
                   support_constant)

    def active(self) -> list[tuple[Charge, int]]:
        return [(g, om) for g, om in self.entries if om != 0]


def pentagon_spectrum(support_constant: float = 0.0) -> Spectrum:
    """The three-pair spectrum {±e1, ±e2, ±(e1+e2)}, all with multiplicity 1."""
    charges = [GAMMA1, GAMMA2, GAMMA1 + GAMMA2]
    entries = []
    for g in charges:
        entries.append((g, 1))
        entries.append((-g, 1))
    return Spectrum(tuple(entries), support_constant)


def require_support(spectrum: Spectrum, central_charge, a: complex) -> None:
    """Raise SupportPropertyError naming the first offending charge."""
    for g, _ in spectrum.active():
        ratio = abs(central_charge.of(g, a)) / norm(g)
        if ratio <= spectrum.support_constant:
            raise SupportPropertyError(
                f"charge ({g.c1},{g.c2}): |Z|/norm = {ratio:.6g} "
                f"<= K = {spectrum.support_constant:.6g} at a = {a}"
            )
