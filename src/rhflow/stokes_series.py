"""Wall-crossing transformations and exact log-expansion of ray jump maps.

All series arithmetic is exact (Fraction coefficients) over monomials
x^g indexed by lattice charges, truncated by |c1| + |c2| <= N.  Jump
maps for one side of the contour are composed transformation by
transformation in counterclockwise ray order; the composite's log
expansion yields the coefficient family f, the oracle that the solver's
exact side maps are tested against.

The binomial base of each transformation carries the quadratic
refinement sign(g) = (-1)^(c1*c2).  Without it the composed map would
depend on how the active rays are grouped; with it the pentagon
spectrum composes to the same map as its two-wall counterpart, which
is what makes the closed-form coefficient table an exact oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

from .charge_lattice import GAMMA1, GAMMA2, Charge, Spectrum, pairing
from .spectrum_rays import CentralCharge, RayDirection, bps_ray

_ZERO = Charge(0, 0)
_ONE = Fraction(1)


def refinement_sign(g: Charge) -> int:
    """(-1)^(c1*c2); the cocycle sign making composition grouping-independent."""
    return -1 if (g.c1 * g.c2) % 2 else 1


@dataclass(frozen=True)
class TruncatedSeries:
    """Finite rational combination of lattice monomials, closed under
    arithmetic by dropping terms of l1 degree above truncation_order."""

    coefficients: dict[Charge, Fraction] = field(default_factory=dict)
    truncation_order: int = 8

    def __post_init__(self):
        clean = {g: Fraction(c) for g, c in self.coefficients.items()
                 if c != 0 and g.l1 <= self.truncation_order}
        object.__setattr__(self, "coefficients", clean)

    @staticmethod
    def monomial(g: Charge, N: int, coeff=_ONE) -> "TruncatedSeries":
        return TruncatedSeries({g: Fraction(coeff)}, N)

    @staticmethod
    def one(N: int) -> "TruncatedSeries":
        return TruncatedSeries.monomial(_ZERO, N)

    def __eq__(self, other) -> bool:
        return (isinstance(other, TruncatedSeries)
                and self.coefficients == other.coefficients)

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        out = dict(self.coefficients)
        for g, c in other.coefficients.items():
            out[g] = out.get(g, Fraction(0)) + c
        return TruncatedSeries(out, self.truncation_order)

    def scale(self, k) -> "TruncatedSeries":
        k = Fraction(k)
        return TruncatedSeries({g: c * k for g, c in self.coefficients.items()},
                               self.truncation_order)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self + other.scale(-1)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        N = self.truncation_order
        out: dict[Charge, Fraction] = {}
        for g, cg in self.coefficients.items():
            for h, ch in other.coefficients.items():
                s = g + h
                if s.l1 > N:
                    continue
                out[s] = out.get(s, Fraction(0)) + cg * ch
        return TruncatedSeries(out, N)

    def constant_term(self) -> Fraction:
        return self.coefficients.get(_ZERO, Fraction(0))

    def _nonconstant(self) -> "TruncatedSeries":
        rest = {g: c for g, c in self.coefficients.items() if g != _ZERO}
        return TruncatedSeries(rest, self.truncation_order)

    def pow_int(self, n: int) -> "TruncatedSeries":
        """Integer power of a series with constant term 1 (binomial series
        for negative n)."""
        if self.constant_term() != 1:
            raise ValueError("pow_int requires constant term 1")
        N = self.truncation_order
        u = self._nonconstant()
        out = TruncatedSeries.one(N)
        term = TruncatedSeries.one(N)
        coeff = _ONE
        for m in range(1, N + 1):
            term = term * u
            if not term.coefficients:
                break
            coeff = coeff * Fraction(n - m + 1, m)
            if coeff == 0:
                break
            out = out + term.scale(coeff)
        return out

    def log_unit(self) -> "TruncatedSeries":
        """log of a series with constant term 1."""
        if self.constant_term() != 1:
            raise ValueError("log_unit requires constant term 1")
        N = self.truncation_order
        u = self._nonconstant()
        out = TruncatedSeries({}, N)
        term = TruncatedSeries.one(N)
        for m in range(1, N + 1):
            term = term * u
            if not term.coefficients:
                break
            out = out + term.scale(Fraction((-1) ** (m + 1), m))
        return out

    def inverse(self, lead: Charge) -> "TruncatedSeries":
        """Inverse of a series known to have the form x^lead * (1 + ...).

        The leading monomial cannot be inferred from the degrees alone once
        charges of both signs mix, so the caller must name it.
        """
        c0 = self.coefficients.get(lead)
        if not c0:
            raise ValueError(f"series has no term at the stated lead {lead}")
        shifted = TruncatedSeries.monomial(-lead, self.truncation_order,
                                           Fraction(1) / c0) * self
        return TruncatedSeries.monomial(-lead, self.truncation_order,
                                        Fraction(1) / c0) * shifted.pow_int(-1)


def identity_state(N: int) -> dict[Charge, TruncatedSeries]:
    """Images of the basis monomials under the identity transformation."""
    return {GAMMA1: TruncatedSeries.monomial(GAMMA1, N),
            GAMMA2: TruncatedSeries.monomial(GAMMA2, N)}


def _state_power(state: dict[Charge, TruncatedSeries], g: Charge,
                 N: int) -> TruncatedSeries:
    """Image of x^g from the basis images (Laurent powers as needed).

    Basis images keep the form x^{gamma_k} * (1 + ...), so their inverses
    are taken with the known leading monomial."""
    out = TruncatedSeries.one(N)
    for base, n in ((GAMMA1, g.c1), (GAMMA2, g.c2)):
        if n == 0:
            continue
        factor = state[base] if n > 0 else state[base].inverse(base)
        for _ in range(abs(n)):
            out = out * factor
    return out


def ks_apply(target: Charge, g: Charge, omega: int, N: int,
             current: dict[Charge, TruncatedSeries]) -> TruncatedSeries:
    """Image of x^target after one more transformation attached to g.

    The step multiplies the current image of the target by
    (1 - sign(g) * E_g)^(<target, g> * omega), where E_g is the current
    image of x^g; sign(g) is the refinement sign, +1 on the basis charges.
    """
    if N < 1:
        raise ValueError("truncation order must be >= 1")
    state = dict(current)
    if target not in state:
        state[target] = _state_power(current, target, N)
    expo = pairing(target, g) * omega
    if expo == 0:
        return state[target]
    eg = _state_power(current, g, N)
    base = TruncatedSeries.one(N) - eg.scale(refinement_sign(g))
    return state[target] * base.pow_int(expo)


TWO_PI = 6.283185307179586
HALF_PI = 1.5707963267948966


def ordered_side_charges(spectrum: Spectrum, Z: CentralCharge, a: complex,
                         side: int, r: RayDirection) -> list[tuple[Charge, int]]:
    """Active charges of one side in counterclockwise ray order.

    A charge belongs to the side whose direction its ray is strictly acute
    to; the composition order is ascending ray phase measured from the ray
    opposite the side's own direction.
    """
    origin = (r.opposite() if side > 0 else r).phase
    half = []
    for g, om in spectrum.active():
        rel = (bps_ray(Z, g, a).phase - origin) % TWO_PI
        if HALF_PI < rel < 3.0 * HALF_PI:
            half.append((rel, g, om))
        elif not (rel > 3.0 * HALF_PI + 1e-9 or rel < HALF_PI - 1e-9):
            raise ValueError(
                f"charge ({g.c1},{g.c2}) has a ray on the side boundary; "
                "sides are not cleanly separated"
            )
    half.sort(key=lambda t: (t[0], t[1].c1, t[1].c2))
    return [(g, om) for _, g, om in half]


def side_jump_state(charges: list[tuple[Charge, int]], N: int,
                    ) -> dict[Charge, TruncatedSeries]:
    """Compose the transformations of one side over the basis images."""
    state = identity_state(N)
    for g, om in charges:
        state = {k: ks_apply(k, g, om, N, state) for k in (GAMMA1, GAMMA2)}
    return state


def log_coeffs_from_state(state: dict[Charge, TruncatedSeries], k: int,
                          N: int) -> dict[Charge, Fraction]:
    """Coefficients of log(image of x^{gamma_k} / x^{gamma_k}), re-truncated
    to l1 degree N."""
    gk = GAMMA1 if k == 1 else GAMMA2
    ratio = TruncatedSeries.monomial(-gk, state[gk].truncation_order) * state[gk]
    logs = ratio.log_unit()
    return {g: c for g, c in logs.coefficients.items() if g.l1 <= N}


def stokes_log_coeffs(spectrum: Spectrum, Z: CentralCharge, a: complex,
                      side: int, k: int, N: int,
                      r: RayDirection) -> dict[Charge, Fraction]:
    """Coefficient family f for one side and one basis target: the exact
    expansion log((S x_k) / x_k) = sum_g f_g x^g over the side's charges.

    Composed at truncation N + 1 so the division by x^{gamma_k} is exact
    through degree N.
    """
    if N < 1:
        raise ValueError("truncation order must be >= 1")
    if k not in (1, 2):
        raise ValueError("k selects a basis charge, 1 or 2")
    state = side_jump_state(ordered_side_charges(spectrum, Z, a, side, r), N + 1)
    return log_coeffs_from_state(state, k, N)


def pentagon_coeff(i: int, j: int, k: int) -> Fraction:
    """Closed-form coefficient f for the pentagon jump maps, target basis
    charge k, at the charge i*gamma1 + j*gamma2.

    Matches the expansion of the pentagon maps
        x1 -> x1 (1 - x2),   x2 -> x2 (1 - x1 (1 - x2))^{-1}
    and their inverses on the opposite side: -1/j paired with
    <gamma_k, gamma2> on the j-axis, binomial rows paired with
    <gamma_k, gamma1> otherwise, zero outside those cones.
    """
    if (i, j) == (0, 0):
        raise ValueError("coefficient undefined at the zero charge")
    if k not in (1, 2):
        raise ValueError("k selects a basis charge, 1 or 2")
    gk = GAMMA1 if k == 1 else GAMMA2
    if i == 0:
        return Fraction(-1, j) * pairing(gk, GAMMA2)
    if 0 <= j <= i or i <= j <= 0:
        sj = -1 if j % 2 else 1
        return Fraction(-sj, i) * comb(abs(i), abs(j)) * pairing(gk, GAMMA1)
    return Fraction(0)
