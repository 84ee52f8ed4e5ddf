"""Fixed-point solver for the nonlinear Riemann-Hilbert problem.

The unknown is the pair of corrected angles Theta = (Theta_1, Theta_2)
sampled on the two contour rays.  One iteration evaluates

    Theta_k <- theta_k - (1/4pi) * [ I_r[h^k_{+1}(Theta)] + I_{-r}[h^k_{-1}(Theta)] ]

with h^k_s = log(S_s x_k / x_k) the exact log of the side's jump map S_s, the
finite Kontsevich-Soibelman product of the side's active charges, at
x = Y- (Gaiotto-Moore-Neitzke, arXiv:0807.4723).  Stored node values are the
boundary values from the clockwise side of each outward-oriented ray; with
that convention the counterclockwise limit satisfies the multiplicative jump
exactly at the nodes; check_jump verifies it at every midpoint between them,
from the two limits there (midpoint_limits).

Only r is iterated: the reality involution zeta -> -1/conj zeta maps node j
of r to node M-1-j of -r and side +1's charges to side -1's, and the map
commutes with it, so -r's node values and densities are the conjugate
reversals of r's (h_{-1} = -conj h_{+1}).  The reality and asymptotic
residuals of verify hold by construction and read rounding; check_jump on -r,
with side -1's own map at -r's midpoints, is what catches a wrong side -1 map.
check_reality compares Theta at the node radii on two pairs of opposite
off-contour rays (perpendicular to the contour line, and 0.3 rad from r),
from both sides' stored densities by FFT (reality_rays): it catches a side
-1 density that is not side +1's involution image, but not an asymmetric
node set, since both rays share one node set by construction.

A state is r's node values, its configuration and its theta-free problem
(_ThetaFree: rays, side maps, grids, exponents and kernel spectra), which
theta_free_problem builds once per R, a, spectrum, Z, M, target_tail and
split_phase and keeps for the session (session_cache: up to CACHE_BYTES of
their arrays), so the solves of an R ladder or of a theta or a stencil share
it.  It is shared, so it is read-only: its arrays refuse writes.

iterate_once is the bare map; solve applies it, keeps the iteration record
and returns it with the converged state; verify returns the residuals of the
defining conditions on whatever state it is given.  Only solve accepts or
refuses: a fixed point must keep |Y_g| < 1 on the jump rays
(truncation_guard), the domain in which the side maps' log series
(stokes_series) converge.  A state keeps its densities and its limits at 0
and infinity (state.limits), so verify after solve forms neither again.
verify is the one-member case of verify_batch, which checks states that
share M and both side maps' charge order as one stack (_Checks): one
forward FFT of their densities serves both check_jump's midpoint_limits and
check_reality's reality_rays, then one inverse FFT per check and one
_SideMap.log per side over all their midpoints.

solve is the one-member case of solve_batch, which steps solves (members)
that share M and side +1's charge order in lockstep on one member stack
(_Stack): their previous iterates and theta as (2, K, M) rows, their
theta-free exponents side by side for one _SideMap.log over the K M points,
and one (2, K, 2M) FFT and inverse FFT per step, each step one call of
iterate_once on the stack.  Each member leaves the stack at the step where
its own solve stops, with that solve's state and report or error; members
that converge at one step share one finishing pass (_Stack.finish), whose
exponentials give their guard outcomes and, through the rest of the factor
chain, their densities.  Every operation is elementwise or per FFT row, so a member's
numbers are those of its solve bit for bit.  smoothness_probe solves the
distinct stencil points of all its orders as one batch (rhflow smoothness
calls it once), and rhflow sweep_r solves its R ladder as one batch, whose
rungs differ only in their theta-free problems, and checks them by
verify_batch.  Given a state, iterate_once steps a fresh one-member stack.

The densities use the split of the semiflat exponential
X_g = exp(pi R (Z_g / zeta + zeta conj Z_g) + i c_g . Theta): the theta-free
problem stores the first exponent of side +1's charges at the nodes of r
(for the Picard step and for truncation_guard's one exp, which the mirror
makes enough for -r too), and _SideMap.log runs the side's factor chain,
compiled once into a plan of in-place ufunc steps: one exp per node and
active charge, then one log1p over the whole stack.  A Picard step forms
side +1's density only, in its stack's work arrays, so it allocates
nothing.

At the nodes the ray integrals are two Toeplitz kernels times the weights:
c_same, the coth kernel of a ray on itself by the alternating-point rule
(spectrally accurate for these decaying densities), and c_cross, the tanh
kernel between the rays.  The theta-free problem keeps their FFTs on
circulants of length 2M (_circulant_fft, as it does reality_rays'), and a
Picard step applies them on r in one FFT, product and inverse FFT.  At the
midpoints of the rays the limits are Toeplitz products too, at half-integer
offsets: midpoint_limits takes both limits on both rays from three kept
kernel spectra (coth, sinc and tanh) in one FFT and one inverse FFT, which
is all check_jump needs, so verify builds no dense kernel.
evaluate_theta serves arbitrary points and returns the Plemelj pair
(Theta+, Theta-), the same value twice off the contour.  It passes both
basis targets of a side as one (2, M) stack to
contour_quadrature.integrate_ray: on the side's ray its band-limited rule
is c_same's at the nodes (so its "minus" element is the stored values
there) and midpoint_limits' at the midpoints; on the opposite ray its
kernel is c_cross's real tanh, elsewhere the complex Cauchy kernel.
"""

from __future__ import annotations

import cmath
import dataclasses
import functools
import math
import operator
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .charge_lattice import (Charge, GAMMA1, GAMMA2, Spectrum, extend, pairing,
                             require_support)
from .contour_quadrature import build_ray_grid, integrate_ray
from .errors import (ConfigError, DivergenceError, NonContractionError, RHFlowError,
                     TruncationUnsafeError)
# CACHE_BYTES is the bound of theta_free_problem's cache, kept readable here
from .session_cache import CACHE_BYTES, BytesLRU  # noqa: F401
from .spectrum_rays import CentralCharge, RayDirection, admissible_pair
from .stokes_series import ordered_side_charges, refinement_sign
# not called by the solver: the benchmark tracer (bench/tracer.py) still
# resolves this name here; drop it when the tracer no longer does
from .stokes_series import stokes_log_coeffs  # noqa: F401

FOUR_PI = 4.0 * math.pi
TWO_PI_I = 2j * math.pi
LN2 = math.log(2.0)


@dataclass(frozen=True)
class SolverConfig:
    R: float
    a: complex
    theta: tuple[float, float]
    spectrum: Spectrum
    Z: CentralCharge
    M: int = 128
    target_tail: float = 40.0
    tol: float = 1e-12
    max_iter: int = 30
    ball_epsilon: float = 0.5
    split_phase: float | None = None

    def validate(self) -> None:
        if not (self.R > 0 and math.isfinite(self.R)):
            raise ConfigError("R must be positive and finite")
        if not (self.tol > 0 and math.isfinite(self.tol)):
            raise ConfigError("tol must be positive and finite")
        if not (self.target_tail > 0 and math.isfinite(self.target_tail)):
            raise ConfigError("target_tail must be positive and finite")
        if self.M < 16 or self.M % 2:
            raise ConfigError("node count M must be even and >= 16")
        if self.max_iter < 2:
            raise ConfigError("max_iter must allow at least two iterations")
        if not (0 < self.ball_epsilon <= LN2):
            raise ConfigError(
                "ball_epsilon must lie in (0, ln 2] so that |e^{i Theta}| <= 2 "
                "on the ball"
            )
        for t in self.theta:
            if not math.isfinite(t):
                raise ConfigError("theta components must be finite")
        if not cmath.isfinite(self.a):
            raise ConfigError("a must be finite")
        if not all(map(cmath.isfinite, self.Z.z1 + self.Z.z2)):
            raise ConfigError("Z coefficients must be finite")


def _static_exponents(R: float, zg: complex | np.ndarray,
                      pts: complex | np.ndarray) -> np.ndarray:
    """pi R (Z_g / zeta' + zeta' conj Z_g) for central charge values zg at
    the points pts (broadcast against each other)."""
    return math.pi * R * (zg / pts + pts * np.conj(zg))


class _SideMap:
    """The jump map of one side: its active charges a_j in
    ordered_side_charges order, which is the order of the
    Kontsevich-Soibelman factors (1 - sigma_j x^{a_j})^{Omega_j <gamma_k, a_j>}
    (as in stokes_series.ks_apply), with their central values, and that
    factor chain compiled once into a plan of in-place ufunc steps."""

    def __init__(self, charges: list[tuple[Charge, int]], basis: tuple[complex, complex]):
        self.charges = charges
        self.central = np.array([extend(g, *basis) for g, _ in charges], dtype=complex)
        self.coords = np.array([(g.c1, g.c2) for g, _ in charges], dtype=float).reshape(-1, 2)
        # i c_g per basis target, as (n, 1) columns
        self.icoords = tuple(1j * self.coords[:, k:k + 1] for k in (0, 1))
        # steps (ufunc, indices of its operands and out) into log's slots:
        # rows of x (j), of 1 - sigma x (n + j) and of the density (d + k),
        # then all of x, all of the density and the constants 0, 1, ...
        n = len(charges)
        d, zero, one = 2 * n, 2 * n + 4, 2 * n + 5
        chain, terms, constants = [], [], [0.0, 1.0]
        for j, (g, om) in enumerate(charges):
            for i, (g_i, om_i) in enumerate(charges[:j]):
                q = om_i * pairing(g, g_i)
                chain += [(np.multiply if q > 0 else np.divide, (j, n + i, j))] * abs(q)
            if refinement_sign(g) > 0:
                chain.append((np.negative, (j, j)))
            chain.append((np.add, (j, one, n + j)))
            for k, gk in enumerate((GAMMA1, GAMMA2)):
                w = om * pairing(gk, g)
                if w in (1, -1):
                    terms.append((np.add if w > 0 else np.subtract, (d + k, j, d + k)))
                elif w:  # formed in the dead row 1 - sigma_j x_j^cur
                    constants.append(w)
                    terms += [(np.multiply, (zero + len(constants) - 1, j, n + j)),
                              (np.add, (d + k, n + j, d + k))]
        plan = chain + [(np.log1p, (d + 2, d + 2)), (np.copyto, (d + 3, zero))] + terms
        self._plan = tuple((fn, operator.itemgetter(*args)) for fn, args in plan)
        self._constants = tuple(constants)

    def buffers(self, P: int) -> tuple:
        """Fresh buffers for log at P points (x and 1 - sigma x, shape
        (n, P), and the density rows, shape (2, P)) and the plan's steps
        bound to them, as (ufunc, arguments)."""
        x = np.empty((len(self.charges), P), dtype=complex)
        one_minus = np.empty_like(x)
        out = np.empty((2, P), dtype=complex)
        slots = [*x, *one_minus, *out, x, out, *self._constants]
        return x, one_minus, out, tuple((fn, args(slots)) for fn, args in self._plan)

    def exponentials(self, static: np.ndarray, theta: np.ndarray,
                     out: np.ndarray | None = None,
                     tmp: np.ndarray | None = None) -> np.ndarray:
        """x_g = exp(static_g + i c_g . Theta), shape (n, P), from the
        theta-free exponents (shape (n, P)) and Theta (shape (P, 2))."""
        ic1, ic2 = self.icoords
        x = np.multiply(ic1, theta[:, 0], out=out)
        x += np.multiply(ic2, theta[:, 1], out=tmp)
        x += static
        return np.exp(x, out=x)

    def log(self, static: np.ndarray, theta: np.ndarray,
            buffers: tuple | None = None) -> np.ndarray:
        """log(S x_k / x_k) per target k, shape (P, 2), at the points where
        x_g = exp(static_g + i c_g . Theta), from the theta-free exponents of
        the side's charges there (shape (n, P)) and Theta (shape (P, 2)), in
        buffers (self.buffers(P), fresh by default): a view of their rows.

        Factor j adds Omega_j <gamma_k, a_j> log(1 - sigma_j x_j^cur) to
        target k, where x_j^cur is x^{a_j} moved by the factors before it:
        exp(static_j + c_j . (i Theta + delta)) with delta the sum so far.
        Since c_j . delta = sum_{i<j} Omega_i <a_j, a_i> log(1 - sigma_i x_i^cur)
        with integer coefficients, x_j^cur = x_j prod_{i<j} (1 - sigma_i
        x_i^cur)^{Omega_i <a_j, a_i>}: one exp per charge and point, and no
        sum of a small delta into a large exponent.  Later factors read only
        1 - sigma_i x_i^cur, so one log1p over the stack follows the chain,
        and the terms are added in factor order.  exp overflows, and
        log1p(-1) diverges, only far outside |Y| < 1, and a NaN makes
        divisions invalid: the callers silence those warnings.
        """
        buffers = buffers or self.buffers(theta.shape[0])
        self.exponentials(static, theta, *buffers[:2])
        return self._chain(buffers)

    @staticmethod
    def _chain(buffers: tuple) -> np.ndarray:
        """log's factor chain on the exponentials in buffers' x."""
        *_, out, steps = buffers
        for fn, args in steps:
            fn(*args)
        # (2, P) rows keep each target's density contiguous for the ray sums
        return out.T


class _ThetaFree:
    """Everything of a problem that theta does not enter: the contour rays
    and their classification, the side maps, the grids, each side's
    theta-free exponents at its midpoints (check_jump's) and side +1's at
    the nodes of r (the Picard step's and truncation_guard's),
    truncation_guard's charge order, the node operator's spectra and
    weights, and midpoint_limits' and reality_rays' spectra.  Built once
    per (R, a, spectrum, Z, M, target_tail, split_phase) by theta_free_problem and shared by every
    solve with those fields, so every array it holds is read-only and its
    dicts are read-only views."""

    def __init__(self, R: float, a: complex, spectrum: Spectrum, Z: CentralCharge,
                 M: int, target_tail: float, split_phase: float | None):
        require_support(spectrum, Z, a)
        self.M = M
        self.r, classification = admissible_pair(Z, spectrum, a, split_phase=split_phase)
        self.classification = MappingProxyType(classification)
        self.rays = MappingProxyType({+1: self.r, -1: self.r.opposite()})

        # the side maps; a side charge's central value lies in its side's
        # open half-plane, so it is nonzero and its BPS ray is defined
        basis = Z.basis_values(a)
        self.maps = MappingProxyType(
            {side: _SideMap(ordered_side_charges(spectrum, Z, a, side, self.r), basis)
             for side in (+1, -1)})

        # one symmetric node set for both rays: slowest decay over both
        # sides' active charges.  The decay 2 pi R |Z_g| cos(angle) is linear
        # in g (the projection of -Z_g on the ray), so no sum of a side's
        # active charges, such as a monomial of its log series, decays slower
        decay = math.inf
        for side in (+1, -1):
            ray = self.rays[side]
            for zg in self.maps[side].central.tolist():
                ang = RayDirection(cmath.phase(-zg)).angle_to(ray)
                decay = min(decay, 2.0 * math.pi * R * abs(zg) * math.cos(ang))
        if not math.isfinite(decay):  # empty spectrum: any width will do
            decay = 2.0 * math.pi * R * min(abs(z) for z in basis if z != 0)
        grid = build_ray_grid(self.r, decay, M, target_tail)
        self.grids = MappingProxyType(
            {+1: grid, -1: dataclasses.replace(grid, direction=self.rays[-1])})

        # the theta-free exponents pi R (Z_g / zeta + zeta conj Z_g) of side
        # +1's active charges at the nodes of r, one row per charge in its
        # side map's order, for every Picard step and for truncation_guard
        self.static = _static_exponents(R, self.maps[+1].central[:, None],
                                        self.grids[+1].points())

        # truncation_guard's order: side +1's rows in spectrum order
        rank = {g: i for i, (g, _) in enumerate(spectrum.active())}
        charges = self.maps[+1].charges
        self.guard_rows = tuple(sorted(range(len(charges)), key=lambda i: rank[charges[i][0]]))

        # check_jump's: each side's theta-free exponents at the M - 1
        # midpoints e^{(s_i + s_{i+1})/2} of its own ray
        mids = np.exp(0.5 * (self.grids[+1].nodes[:-1] + self.grids[+1].nodes[1:]))
        self.mid_static = MappingProxyType(
            {side: _static_exponents(R, self.maps[side].central[:, None],
                                     mids * self.rays[side].unit())
             for side in (+1, -1)})

        # the node operator, shared by both rays (one node set
        # s_j = -L + j step): c_same[i, j] = 2 w_j coth((s_j - s_i)/2) at odd
        # j - i and 0 at even j - i (band_limited_limits' rule at the nodes,
        # Sidi & Israeli 1988), c_cross[i, j] = w_j tanh((s_j - s_i)/2).  Both
        # act on w h by FFT on circulants of length 2M.  Side -1's w h is
        # -conj of side +1's reversed, so its FFT is -e^{-i pi (M-1) k/M} conj(H_k):
        # that factor (exponent reduced mod 2M) and the 1/2M of the inverse
        # FFT are folded into the stored spectra
        g0 = self.grids[+1]
        cross = np.tanh(0.5 * g0.step * np.arange(1, M))
        same = 2.0 / cross
        same[1::2] = 0.0  # even offsets
        turn = np.exp(-1j * math.pi / M * ((M - 1) * np.arange(2 * M) % (2 * M)))
        self.spectra = np.stack([_circulant_fft(_odd(same)),
                                 -turn * _circulant_fft(_odd(cross))]) / (2 * M)
        self.weights = g0.weights

        # midpoint_limits' kernels at the half-integer offsets m - 1/2 of
        # node j = i + m from midpoint i (band_limited_limits at d = 1/2,
        # where its cos factor vanishes): coth for the own ray's principal
        # value, 2 pi i sinc on the unweighted density for its half jump and
        # tanh for the other ray.  The 1/2M of the inverse FFT is folded in
        m = np.arange(1 - M, M)
        half = m - 0.5
        tanh = np.tanh(0.5 * g0.step * half)
        self.mid_spectra = _circulant_fft(
            np.stack([1.0 / tanh, (1 - 2 * (m % 2)) / (-math.pi * half), tanh])) / (2 * M)
        self.mid_spectra[1] *= 2j * math.pi

        # reality_rays' kernels at the integer offsets m of node j = i + m from
        # node radius i on the ray at phase(r) + alpha, alpha in
        # REALITY_OFFSETS: r's (e^{m step} + rho)/(e^{m step} - rho) with
        # rho = e^{i alpha} and its reciprocal for -r, shape (pair, kernel, 2M):
        # the ray at phase(r) + alpha takes them in this order, its opposite
        # swapped
        rho = np.exp(1j * np.array(REALITY_OFFSETS))[:, None]
        e = np.exp(g0.step * np.arange(1 - M, M))
        num, den = e + rho, e - rho
        self.reality_spectra = _circulant_fft(np.stack([num / den, den / num], axis=1))

        arrays = {id(arr): arr for arr in (
            self.static, *self.mid_static.values(), self.spectra, self.mid_spectra,
            self.reality_spectra,
            *(x for m in self.maps.values() for x in (m.central, m.coords, *m.icoords)),
            *(x for g in self.grids.values() for x in (g.nodes, g.weights)))}
        for arr in arrays.values():
            arr.flags.writeable = False
        # what theta_free_problem's cache counts against its budget
        self.nbytes = sum(arr.nbytes for arr in arrays.values())


@BytesLRU
def theta_free_problem(R: float, a: complex, spectrum: Spectrum, Z: CentralCharge,
                       M: int, target_tail: float,
                       split_phase: float | None) -> _ThetaFree:
    """The shared theta-free problem of these fields, built on first use
    and kept for the session (up to CACHE_BYTES of problems); fields that
    compare equal share one problem."""
    return _ThetaFree(R, a, spectrum, Z, M, target_tail, split_phase)


def _circulant_fft(kappa: np.ndarray) -> np.ndarray:
    """FFT of the circulant of length 2M that embeds the Toeplitz matrix
    T[i, j] = kappa(j - i), given kappa(m) for m = -(M - 1), ..., M - 1 along
    the last axis (a stack of kernels gives a stack of spectra):
    (T g)_i = ifft(fft(g, 2M) * result)_i for i < M."""
    M = (kappa.shape[-1] + 1) // 2
    col = np.zeros(kappa.shape[:-1] + (2 * M,), dtype=kappa.dtype)
    col[..., :M] = kappa[..., M - 1::-1]    # kappa(0), kappa(-1), ..., kappa(1 - M)
    col[..., M + 1:] = kappa[..., :M - 1:-1]  # kappa(M - 1), ..., kappa(1)
    return np.fft.fft(col)


def _odd(k: np.ndarray) -> np.ndarray:
    """The odd kernel with values k(1), ..., k(M - 1), for m = -(M - 1) .. M - 1."""
    return np.concatenate([-k[::-1], [0.0], k])


class _Stack:
    """K Picard iterates on r stepped in lockstep, one per member (solve):
    members share M and side +1's charge order, so one _SideMap.log runs over
    their K M points with each member's theta-free exponents side by side,
    and one (2, K, 2M) FFT and inverse FFT apply their node operators.  It
    holds the members' configurations and problems, the previous iterate and
    theta as (2, K, M) rows (target, member, node) and the step's work
    arrays; values is the newest iterate, shape (K, M, 2), a view of rows."""

    def __init__(self, cfgs: list[SolverConfig], problems: list[_ThetaFree],
                 prev: np.ndarray | None = None):
        K, M = len(cfgs), problems[0].M
        self.cfgs, self.problems = cfgs, problems
        self.map = problems[0].maps[+1]
        self.static = _side_by_side([p.static for p in problems])
        if K == 1:  # the problem's own arrays, broadcast over the one member
            weights, spectra = problems[0].weights, problems[0].spectra
        else:
            weights = np.stack([p.weights for p in problems])
            spectra = np.stack([p.spectra for p in problems], axis=1)  # (2, K, 2M)
        self.weights, (self.same, self.cross) = weights, spectra
        self.log = self.map.buffers(K * M)
        self.padded = np.zeros((2, K, 2 * M), dtype=complex)  # FFT input, zero-padded
        self.fft = (np.empty_like(self.padded), np.empty_like(self.padded))
        self.rows = np.empty((2, K, M), dtype=complex)
        self.values = self.rows.transpose(1, 2, 0)
        # the previous iterate (prev, else init_state's zeroth iterate,
        # theta) and theta, against which one subtraction takes both of
        # solve's distances
        self.ref = np.empty((2, 2, K, M), dtype=complex)
        self.ref[...] = np.array([cfg.theta for cfg in cfgs]).T[:, :, None]
        self.prev, self.theta = self.ref
        if prev is not None:
            self.prev[...] = prev
        # advance's differences and their moduli, in the FFT pair, which the
        # step leaves free: fewer fresh pages per solve at large M
        self.diff = self.fft[1].reshape(self.ref.shape)
        self.mags = self.fft[0].view(float).reshape(-1)[:self.ref.size].reshape(self.ref.shape)
        # views for the step: the log's Theta, shape (K M, 2), and its
        # density rows, the FFT input and the node transforms
        self._log_theta = self.prev.reshape(2, -1).T
        self._h = self.log[2].reshape(2, K, M)
        self._head = self.padded[..., :M]
        self._transforms = self.fft[0][..., :M]

    def select(self, keep: list[int]) -> _Stack:
        """A stack of the members keep, at their previous iterate."""
        return _Stack([self.cfgs[k] for k in keep], [self.problems[k] for k in keep],
                      self.prev[:, keep])

    def step(self) -> None:
        """One application of the integral-equation map to every member's
        previous iterate, into rows: side +1's density h by one
        _SideMap.log over the stack, and c_same h + c_cross h_{-1} with
        h_{-1} = -conj(h[::-1]) on -r by one FFT of the weighted densities,
        one product with each member's spectra (the second of conj(H)) and
        one inverse FFT."""
        self.map.log(self.static, self._log_theta, self.log)
        h = self._h
        work, other = self.fft
        np.multiply(h, self.weights, out=self._head)
        np.fft.fft(self.padded, out=work)
        np.conjugate(work, out=other)
        other *= self.cross
        work *= self.same
        work += other
        # unscaled inverse: spectra carry the 1/2M
        np.fft.ifft(work, norm="forward", out=work)
        stored = np.multiply(TWO_PI_I, h, out=self.rows)
        np.subtract(self._transforms, stored, out=stored)  # the clockwise limit
        stored /= FOUR_PI
        np.subtract(self.theta, stored, out=stored)

    def advance(self) -> np.ndarray:
        """max |new - previous| and max |new - theta| per member, shape
        (2, K), from one subtraction; the new iterate becomes the previous."""
        np.subtract(self.rows, self.ref, out=self.diff)
        distances = np.abs(self.diff, out=self.mags).max(axis=(1, 3))
        np.copyto(self.prev, self.rows)
        return distances

    def finish(self, members: list[int]) -> list:
        """The finishing pass of members (ascending) at their previous
        iterate (after advance, the newest): one _SideMap.exponentials over
        their own points, in the step's log buffers when all of them finish.
        Per member, truncation_guard's error read off |x|, else its
        densities from the rest of the factor chain on those buffers."""
        M = self.problems[0].M
        if len(members) == len(self.cfgs):
            static, theta, buffers = self.static, self._log_theta, self.log
        else:
            static = _side_by_side([self.problems[k].static for k in members])
            theta = self.prev[:, members].reshape(2, -1).T
            buffers = self.map.buffers(len(members) * M)
        x = self.map.exponentials(static, theta, *buffers[:2])
        mags = np.abs(x).reshape(len(x), len(members), M)
        unsafe = (mags >= 1.0).any(axis=(0, 2)).tolist()
        outcomes = [_unsafe(self.problems[k], mags[:, j]) if bad else None
                    for j, (k, bad) in enumerate(zip(members, unsafe))]
        if None in outcomes:
            h = self.map._chain(buffers).T.reshape(2, len(members), M)
            outcomes = [out or _with_mirror(h[:, j].copy().T) for j, out in enumerate(outcomes)]
        return outcomes

    def state(self, k: int) -> ThetaState:
        """Member k's newest iterate as a state of its own values."""
        return ThetaState(self.rows[:, k].copy().T, self.cfgs[k], self.problems[k])


@dataclass
class ThetaState:
    """Node values of the corrected angles on the contour ray r, shape
    (M, 2) with the basis index last, with the configuration they solve and
    its shared theta-free problem.

    Those of -r are their image under the reality involution,
    values[::-1].conj().  Stored values are clockwise-side boundary values.
    The densities per side and target, shape (M, 2), and the limits at 0
    and infinity are computed on first use and kept, so values must not
    change in place.
    """

    values: np.ndarray
    cfg: SolverConfig = field(repr=False, compare=False)
    problem: _ThetaFree = field(repr=False, compare=False)

    @functools.cached_property
    def densities(self) -> dict[int, np.ndarray]:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # see log
            return _with_mirror(self.problem.maps[+1].log(self.problem.static, self.values))

    @functools.cached_property
    def limits(self) -> tuple[tuple[complex, complex], tuple[complex, complex]]:
        """(Theta(0), Theta(inf)), each a pair over the basis targets."""
        return asymptotic_theta(self)


def _side_by_side(arrays: list[np.ndarray]) -> np.ndarray:
    """Per-member (n, P) arrays as one (n, K P) array, member by member; one
    member's own array."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays, axis=1)


def _member_axis(arrays: list[np.ndarray], axis: int) -> np.ndarray:
    """Per-member arrays stacked along a new member axis at axis; one
    member's own array, viewed with that axis."""
    if len(arrays) == 1:
        return arrays[0][(slice(None),) * axis + (None,)]
    return np.stack(arrays, axis)


def _with_mirror(h: np.ndarray) -> dict[int, np.ndarray]:
    """Both sides' densities from side +1's on r, h: side -1's, on -r, is
    its involution image -conj(h[::-1])."""
    return {+1: h, -1: -h[::-1].conj()}


def init_state(cfg: SolverConfig) -> ThetaState:
    """Zeroth iterate: Theta identically equal to the reference angles."""
    cfg.validate()
    problem = theta_free_problem(cfg.R, cfg.a, cfg.spectrum, cfg.Z, cfg.M,
                                 cfg.target_tail, cfg.split_phase)
    values = np.empty((cfg.M, 2), dtype=complex)
    values[...] = cfg.theta
    return ThetaState(values, cfg, problem)


def iterate_once(state):
    """One application of the integral-equation map to the node values of r.

    Given a _Stack (solve_batch's members), it steps every member in place
    and returns the stack, its values the new iterates.  Given a ThetaState,
    it steps a fresh one-member stack at the state's values and returns the
    next state.  It forms side +1's density only; a state's densities (both
    sides) are left to verify and the limits."""
    if isinstance(state, _Stack):
        state.step()
        return state
    stack = _Stack([state.cfg], [state.problem], state.values.T[:, None])
    stack.step()
    return stack.state(0)


def solve(cfg: SolverConfig) -> tuple[ThetaState, dict]:
    """Iterate to the fixed point and assemble the run report (residuals
    are verify's): solve_batch's one-member case.

    At least two iterations always run so that a contraction ratio is
    observed; convergence requires the final ratio below one.  A step
    whose iterate leaves the ball of radius ball_epsilon about theta is
    recorded in ball_exits, not fatal.  The converged state must pass
    truncation_guard, which only solve runs.
    """
    (result,) = solve_batch([cfg])
    if isinstance(result, RHFlowError):
        raise result
    return result


def solve_batch(cfgs: list[SolverConfig]) -> list:
    """Solve each configuration as solve does, and return, in their order,
    solve's (state, report) for each or the RHFlowError solve raises for it.

    Members that share M and side +1's charge order step in lockstep on one
    _Stack, each step one call of iterate_once; a member leaves the stack
    at the step where its own solve stops, with that solve's values,
    report or error.  Members that converge at one step share one
    finishing pass (_Stack.finish) for their guard outcomes and densities.
    """
    results: list = [None] * len(cfgs)
    groups: dict = {}
    for i, cfg in enumerate(cfgs):
        try:
            st = init_state(cfg)
        except RHFlowError as exc:
            results[i] = exc
            continue
        key = (st.problem.M, tuple(st.problem.maps[+1].charges))
        groups.setdefault(key, []).append((i, st))
    for members in groups.values():  # each at init_state's zeroth iterate, theta
        _solve_members([i for i, _ in members],
                       _Stack([st.cfg for _, st in members], [st.problem for _, st in members]),
                       results)
    return results


def _solve_members(index: list[int], stack: _Stack, results: list) -> None:
    """Step stack until every member (results[index[k]] for member k) stops."""
    records = [([], []) for _ in index]  # deltas, ball_exits
    step = 0
    # exp overflows, and log1p(-1) diverges, only for an iterate far
    # outside |Y| < 1; the delta check turns it into a DivergenceError
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while index:
            step += 1
            stack = iterate_once(stack)
            keep, converged = [], []
            for k, (cfg, (record, exits), delta, ball) in enumerate(
                    zip(stack.cfgs, records, *stack.advance().tolist())):
                # the previous iterate is finite, so a NaN or inf in this
                # one makes the delta non-finite
                if not math.isfinite(delta):
                    results[index[k]] = DivergenceError(
                        f"non-finite iterate at step {step}; R = {cfg.R:g} is too "
                        "small for this spectrum")
                    continue
                record.append(delta)
                if ball > cfg.ball_epsilon:
                    exits.append(step)
                if step >= 2 and delta < cfg.tol:
                    converged.append(k)
                elif step == cfg.max_iter:
                    results[index[k]] = _non_contraction(cfg, record)
                else:
                    keep.append(k)
            if converged:
                _converged(stack, converged, [records[k] for k in converged],
                           [index[k] for k in converged], results)
            if len(keep) < len(index):
                index = [index[k] for k in keep]
                records = [records[k] for k in keep]
                if keep:
                    stack = stack.select(keep)


def _ratios(deltas: list[float]) -> list[float]:
    return [d2 / d1 if d1 > 0 else 0.0 for d1, d2 in zip(deltas, deltas[1:])]


def _non_contraction(cfg: SolverConfig, deltas: list[float]) -> NonContractionError:
    ratios = _ratios(deltas)
    bad = max(ratios[1:] or ratios or [math.inf])
    return NonContractionError(
        f"no convergence in {cfg.max_iter} iterations "
        f"(last delta {deltas[-1]:.3e}, worst ratio {bad:.3g}); "
        f"R = {cfg.R:g} is too small for this spectrum")


def _converged(stack: _Stack, members: list[int], records: list, index: list[int],
               results: list) -> None:
    """Each of the stack's members that converged at this step takes its
    truncation_guard error, or its densities, limits and report, from their
    finishing pass, into results[index[j]] for members[j]."""
    for k, outcome, (deltas, ball_exits), i in zip(members, stack.finish(members),
                                                   records, index):
        if isinstance(outcome, TruncationUnsafeError):
            results[i] = outcome
            continue
        st = stack.state(k)
        st.densities = outcome
        cfg = st.cfg
        theta0, thetainf = st.limits
        results[i] = st, {
            "config": {
                "R": cfg.R, "a": [cfg.a.real, cfg.a.imag], "theta": list(cfg.theta),
                "M": cfg.M, "target_tail": cfg.target_tail,
                "tol": cfg.tol, "max_iter": cfg.max_iter,
                "ball_epsilon": cfg.ball_epsilon,
                "contour_phase": st.problem.r.phase,
            },
            "iterations": len(deltas),
            "deltas": deltas,
            "ratios": _ratios(deltas),
            "ball_exits": ball_exits,
            "theta0": [[t.real, t.imag] for t in theta0],
            "thetainf": [[t.real, t.imag] for t in thetainf],
        }


def verify(state: ThetaState) -> dict:
    """Residuals of the defining conditions at a state, for the
    configuration it was built from: the jump (check_jump), the reality
    involution (check_reality), the real part of Theta(0) - theta
    (asymptotic_real) and |Theta(0) - conj Theta(inf)| (asymptotic_conj).
    With -r mirrored from r, the last three read rounding only (see
    check_reality).  It measures and never refuses: a state outside
    |Y| < 1 gets its residuals.  verify_batch's one-member case."""
    (residuals,) = verify_batch([state])
    return residuals


def verify_batch(states: list[ThetaState]) -> list[dict]:
    """verify's residuals of each state, in their order.  States that
    share M and both side maps' charge order are checked as one _Checks
    stack: one forward FFT of their densities serves both checks, then one
    inverse FFT per check and one _SideMap.log per side over their K (M - 1)
    midpoints.  Every operation is elementwise or per FFT row, so each
    state's residuals are those of its verify alone bit for bit."""
    groups: dict = {}
    for i, st in enumerate(states):
        maps = st.problem.maps
        key = st.problem.M, tuple(maps[+1].charges), tuple(maps[-1].charges)
        groups.setdefault(key, []).append(i)
    results: list = [None] * len(states)
    for index in groups.values():
        checks = _Checks([states[i] for i in index])
        for i, jump, reality in zip(index, check_jump(checks).tolist(),
                                    check_reality(checks).tolist()):
            theta = states[i].cfg.theta
            theta0, thetainf = states[i].limits
            results[i] = {
                "jump": jump,
                "reality": reality,
                "asymptotic_real": max(abs((theta0[k] - theta[k]).real) for k in (0, 1)),
                "asymptotic_conj": max(abs(theta0[k] - thetainf[k].conjugate())
                                       for k in (0, 1)),
            }
    return results


def evaluate_theta(state: ThetaState, zeta) -> tuple:
    """Theta at one point or at a 1-D array of points via the integral
    representation, as the pair ((Theta_1+, Theta_2+), (Theta_1-, Theta_2-))
    of complex numbers or of arrays.

    On a contour ray the two elements are the boundary values by
    integrate_ray's band-limited rule ("minus", the clockwise side, is the
    stored one); off the contour both hold Theta there.
    """
    problem = state.problem
    dens = state.densities
    z = np.asarray(zeta, dtype=complex)
    zs = np.atleast_1d(z)
    acc = np.zeros((2, 2, len(zs)), dtype=complex)  # (plus, minus) x targets
    for s in (+1, -1):  # one density row per basis target
        acc += integrate_ray(problem.grids[s], dens[s].T, zs)
    out = np.array(state.cfg.theta)[:, None] - acc / FOUR_PI
    return tuple((th[0], th[1]) if z.ndim else (complex(th[0, 0]), complex(th[1, 0]))
                 for th in out)


def evaluate_Y(state: ThetaState, g: Charge, zeta: complex) -> complex:
    """Solution function for one charge: the semiflat exponential with the
    corrected angles at zeta, from the clockwise (stored) side on a contour
    ray."""
    if zeta == 0:
        raise ValueError("use asymptotic_theta for the limits at 0 and infinity")
    th1, th2 = evaluate_theta(state, zeta)[1]
    thg = g.c1 * th1 + g.c2 * th2
    cfg = state.cfg
    return complex(np.exp(_static_exponents(cfg.R, cfg.Z.of(g, cfg.a), zeta) + 1j * thg))


def _unsafe(problem: _ThetaFree, mags: np.ndarray) -> TruncationUnsafeError | None:
    """truncation_guard's outcome from |x_g| of side +1's charges at the
    nodes of r, shape (n, M): the error naming the first charge in spectrum
    order with |x_g| >= 1 at a node, else None (a NaN passes)."""
    over = (mags >= 1.0).any(axis=1).tolist()
    for i in problem.guard_rows:
        if over[i]:
            g = problem.maps[+1].charges[i][0]
            return TruncationUnsafeError(
                f"|Y| = {mags[i].max():.3g} >= 1 for charge ({g.c1},{g.c2}) "
                "on its jump ray; the log series of its jump map does not converge")
    return None


def truncation_guard(state: ThetaState) -> None:
    """Raise TruncationUnsafeError where an active charge has |Y_g| >= 1 at
    the nodes of its own jump ray: the log series of the jump map across
    that ray (stokes_series) converges only for |Y_g| < 1, and solutions are
    kept inside that domain, where the exact log the solver iterates is its
    sum.  The check runs on r alone: -r's values are r's image under the
    reality involution zeta -> -1/conj zeta, which sends node j of r to node
    M - 1 - j of -r and side +1's charges g to side -1's -g, with |Y_{-g}|
    there equal to |Y_g| at node j of r.  One exp over side +1's (charges,
    M) stack; the failing charge named is the first in spectrum order.
    solve's finishing pass (_Stack.finish) reads the same outcome (_unsafe)
    off its own exponentials."""
    problem = state.problem
    error = _unsafe(problem, np.abs(problem.maps[+1].exponentials(problem.static,
                                                                  state.values)))
    if error is not None:
        raise error


class _Checks:
    """K states checked in one stacked pass: they share M and both side
    maps' charge order.  It holds their weights, midpoint_limits' and
    reality_rays' kernel spectra and check_jump's midpoint exponents per
    side, stacked along a member axis (views of one member's own arrays),
    and, on first use, transforms: one forward FFT of both sides' weighted
    and unweighted densities, which both checks read."""

    def __init__(self, states: list[ThetaState]):
        problems = [st.problem for st in states]
        self.states, self.M = states, problems[0].M
        self.maps = problems[0].maps
        self.weights = _member_axis([p.weights for p in problems], 0)  # (K, M)
        # (kernel, K, 2M) and (pair, kernel, K, 2M)
        self.mid_spectra = _member_axis([p.mid_spectra for p in problems], 1)
        self.reality_spectra = _member_axis([p.reality_spectra for p in problems], 2)
        self.mid_static = {side: _side_by_side([p.mid_static[side] for p in problems])
                           for side in (+1, -1)}
        # theta per target and member, shape (2, K, 1)
        self.theta = np.array([st.cfg.theta for st in states]).T[:, :, None]

    @functools.cached_property
    def transforms(self) -> np.ndarray:
        """The FFTs of the (weighted, unweighted) x side x target x member
        stack of the states' densities, zero-padded to 2M: shape
        (2, 2, 2, K, 2M).  Read-only: both checks take it."""
        M = self.M
        work = np.zeros((2, 2, 2, len(self.states), 2 * M), dtype=complex)
        for k, st in enumerate(self.states):
            for i, side in enumerate((+1, -1)):
                work[1, i, :, k, :M] = st.densities[side].T
        np.multiply(work[1, ..., :M], self.weights, out=work[0, ..., :M])
        np.fft.fft(work, out=work)
        work.flags.writeable = False
        return work

    def midpoint_limits(self) -> np.ndarray:
        """midpoint_limits of every member, shape (2, 2, 2, K, M - 1)
        (limit, ray, target, member, midpoint)."""
        weighted, unweighted = self.transforms
        coth, sinc, tanh = self.mid_spectra
        pv = coth * weighted
        pv += tanh * weighted[::-1]
        limits = np.empty_like(self.transforms)
        # density first: numpy's complex product may fuse a multiply-add, so
        # a * b and b * a can differ in the last bit
        half_jump = np.multiply(unweighted, sinc, out=limits[1])
        np.add(pv, half_jump, out=limits[0])
        np.subtract(pv, half_jump, out=half_jump)
        # unscaled inverse: the spectra carry the 1/2M
        sums = np.fft.ifft(limits, norm="forward", out=limits)[..., :self.M - 1]
        sums /= -FOUR_PI
        sums += self.theta
        return sums

    def reality_rays(self) -> np.ndarray:
        """reality_rays' Theta of every member, shape (2, 2, 2, K, M) (pair,
        ray, target, member, node)."""
        plus, minus = self.transforms[0]
        # sums[pair, ray, target]: side +1's transform under the ray's kernel,
        # plus side -1's under the other one
        kernels = self.reality_spectra[:, :, None]
        sums = np.multiply(plus, kernels)
        term = np.empty_like(sums[:, 0])
        for ray in (0, 1):
            sums[:, ray] += np.multiply(minus, kernels[:, 1 - ray], out=term)
        values = np.fft.ifft(sums, out=sums)[..., :self.M]
        values /= FOUR_PI
        np.subtract(self.theta, values, out=values)
        return values

    def jump(self) -> np.ndarray:
        """check_jump's residual of every member, shape (K,)."""
        plus, minus = self.midpoint_limits()
        K = len(self.states)
        residuals = []
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # see log
            for ray, s in enumerate((+1, -1)):
                log = self.maps[s].log(self.mid_static[s], minus[ray].reshape(2, -1).T)
                diff = (minus[ray] - plus[ray]).reshape(2, -1).T
                # (K (M - 1), 2), member by member
                res = np.abs(np.expm1(1j * diff + log))
                residuals.append(res.reshape(K, -1).max(axis=1))
        return np.maximum(*residuals)

    def reality(self) -> np.ndarray:
        """check_reality's residual of every member, shape (K,)."""
        values = self.reality_rays().transpose(3, 0, 1, 2, 4)  # member first
        direct, mirrored = values[:, :, 0], values[:, :, 1, ..., ::-1]
        return np.abs(mirrored.conj() - direct).reshape(len(self.states), -1).max(
            axis=1, initial=0.0)


def check_jump(state) -> float:
    """Sup relative residual of the multiplicative jump on both rays.

    The counterclockwise boundary values must equal the side's jump map
    applied to the clockwise values: Y+ = Y- * exp(h(Y-)), with h the exact
    log of the side map that the solver iterates (_SideMap.log).  At a
    node this holds to rounding by construction (Theta+ - Theta- = -i h), so
    the check runs at every one of the M - 1 midpoints between the nodes of
    each ray, where quadrature error stays visible, with both limits there
    from midpoint_limits (by FFT) and each side's map at its own ray's
    midpoints.  The residual per midpoint and target is
    |S Y- - Y+| / |Y+| = |exp(i (Theta- - Theta+) + h(Y-)) - 1|, taken by
    expm1 and never through Y+- themselves.  A non-finite residual is
    returned as such.

    Given a ThetaState, its residual; given a _Checks stack (verify_batch's),
    the residual of every member, shape (K,).  It does not guard: a state
    outside |Y| < 1 gets its residual.
    """
    if isinstance(state, _Checks):
        return state.jump()
    return float(_Checks([state]).jump()[0])


def midpoint_limits(state: ThetaState) -> np.ndarray:
    """Theta+ and Theta- at the M - 1 midpoints e^{(s_i + s_{i+1})/2} of r
    and of -r, shape (2, 2, 2, M - 1) (limit: plus, minus; ray: r, -r; basis
    target; midpoint); "plus" is the counterclockwise side of each ray.

    Both rays carry one node set, so node j sits at the half-integer offset
    j - i - 1/2 from midpoint i and each limit is a Toeplitz product: on the
    midpoint's own ray, the principal value is the weighted density under
    coth((j - i - 1/2) step/2) (band_limited_limits at d = 1/2) and the half
    jump +- 2 pi i times the unweighted density under sinc(j - i - 1/2); the
    other ray adds its weighted density under tanh((j - i - 1/2) step/2).
    -r's midpoints take the same kernels with the sides swapped.  One FFT of
    the (weighted, unweighted) x side x target stack of state.densities
    (_Checks.transforms, which reality_rays shares), one product with each
    kept spectrum and one inverse FFT.
    """
    return _Checks([state]).midpoint_limits()[..., 0, :]


# check_reality's sample rays: each at this angle from r, paired with its
# opposite ray; both keep at least 0.15 rad from the contour line
REALITY_OFFSETS = (0.5 * math.pi, 0.3)


def reality_rays(state: ThetaState) -> tuple[np.ndarray, np.ndarray]:
    """Theta at the node radii e^{s_j} on check_reality's sample rays: for
    each offset alpha of REALITY_OFFSETS, the ray at phase(r) + alpha and
    its opposite.  Returns their phases, shape (2, 2) (pair, ray), and
    Theta there, shape (2, 2, 2, M) (pair, ray, basis target, node).

    Both contour rays carry one node set, so at e^{s_i} on the ray at
    phase(r) + alpha the kernel (zeta' + zeta)/(zeta' - zeta) of node j of r
    is kappa(j - i) = (e^{(j - i) step} + rho)/(e^{(j - i) step} - rho) with
    rho = e^{i alpha}, and that of node j of -r is 1/kappa(j - i) (rho -> -rho);
    the opposite ray swaps the two.  The trapezoid sums are Toeplitz
    products, taken by FFT on circulants of length 2M: the FFT of both sides'
    weighted densities (state.densities, side -1's as stored) that
    midpoint_limits takes too (_Checks.transforms), one product with each
    of the theta-free problem's kernel spectra and one inverse FFT.
    """
    values = _Checks([state]).reality_rays()[..., 0, :]
    return state.problem.r.phase + np.add.outer(REALITY_OFFSETS, [0.0, math.pi]), values


def check_reality(state) -> float:
    """Sup of |conj(Theta_k(-1/conj zeta)) - Theta_k(zeta)| over the node
    radii of reality_rays' first ray of each pair; the involution maps its
    point i to point M - 1 - i of the opposite ray.

    It reads both sides' densities, so a side -1 density that is not the
    involution image of side +1's shows; an asymmetric node set cannot,
    since both contour rays share one by construction.  On a solved state
    it reads rounding (see verify).  Given a _Checks stack, as check_jump,
    the residual of every member."""
    if isinstance(state, _Checks):
        return state.reality()
    return float(_Checks([state]).reality()[0])


def asymptotic_theta(state: ThetaState
                     ) -> tuple[tuple[complex, complex], tuple[complex, complex]]:
    """Theta at 0 (kernel -> +1) and at infinity (kernel -> -1), as the pair
    (Theta(0), Theta(inf)), from one weighted sum of the densities; a solved
    state keeps it as state.limits.

    The difference from the reference angles is purely imaginary and the two
    limits are complex conjugates of each other.
    """
    dens = state.densities
    w = state.problem.weights
    theta = state.cfg.theta
    at0, atinf = [], []
    for k in (0, 1):
        acc = np.add.reduce(w * dens[+1][:, k]) + np.add.reduce(w * dens[-1][:, k])
        at0.append(theta[k] - acc / FOUR_PI)
        atinf.append(theta[k] + acc / FOUR_PI)
    return (at0[0], at0[1]), (atinf[0], atinf[1])


_DIRECTIONS = {
    "theta1": lambda cfg, h: dataclasses.replace(cfg, theta=(cfg.theta[0] + h, cfg.theta[1])),
    "theta2": lambda cfg, h: dataclasses.replace(cfg, theta=(cfg.theta[0], cfg.theta[1] + h)),
    "a_re": lambda cfg, h: dataclasses.replace(cfg, a=cfg.a + h),
    "a_im": lambda cfg, h: dataclasses.replace(cfg, a=cfg.a + 1j * h),
}

_STENCILS = {
    1: ((1, 0.5), (-1, -0.5)),
    2: ((1, 1.0), (0, -2.0), (-1, 1.0)),
    3: ((2, 0.5), (1, -1.0), (-1, 1.0), (-2, -0.5)),
}


def smoothness_probe(cfg: SolverConfig, direction: str, orders: list[int],
                     grid_step: float) -> list[dict]:
    """Central finite differences of the converged solution in one
    parameter, one probe per order of orders, in their order.

    Each probe takes its order's stencil of the node values at steps
    h = grid_step and h/2 and reports the estimate at h ("nodes", with its
    sup) and the relative change under step halving ("rel_change"); a
    stable value stands in for the smoothness of the exact solution.  The
    direction and every order are checked before anything is built.  Each
    distinct offset of every stencil is built once and all of them are
    solved as one solve_batch; the error raised is that of the first
    failing point in probe order (order by order, h before h/2).  The
    points are solved, not verified: nothing of verify's residuals enters
    a probe.
    """
    if direction not in _DIRECTIONS:
        raise ConfigError(f"unknown probe direction {direction!r}")
    if any(order not in _STENCILS for order in orders):
        raise ConfigError("probe order must be 1, 2 or 3")
    steps = grid_step, 0.5 * grid_step
    offsets = dict.fromkeys(mult * h for order in orders for h in steps
                            for mult, _ in _STENCILS[order])
    shift = _DIRECTIONS[direction]
    results = solve_batch([shift(cfg, offset) for offset in offsets])
    for result in results:
        if isinstance(result, RHFlowError):
            raise result
    solved = {offset: st.values for offset, (st, _) in zip(offsets, results)}

    def estimate(order: int, h: float) -> np.ndarray:
        nodes = np.zeros((cfg.M, 2), dtype=complex)
        for mult, coeff in _STENCILS[order]:
            nodes += coeff * solved[mult * h]
        return nodes / h ** order

    floor = 1e-5  # angles are order-one; differences below this are noise
    probes = []
    for order in orders:
        nodes_h, nodes_h2 = (estimate(order, h) for h in steps)
        denom = max(float(np.max(np.abs(nodes_h2))), floor)
        probes.append({
            "order": order,
            "nodes": nodes_h,
            "rel_change": float(np.max(np.abs(nodes_h - nodes_h2))) / denom,
            "sup": float(np.max(np.abs(nodes_h))),
        })
    return probes
