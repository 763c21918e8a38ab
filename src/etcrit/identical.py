"""Envelope-theory energies for N identical nonrelativistic particles.

Conventions (natural units, hbar = 1): particles of mass m interact pairwise
through V(r) = -g * v(r) for wells, or V(r) = sign(p) * g * (mu*r)**p for
power-law pseudo-wells.  The approximate eigenvalue solves

    E                = N * p0**2 / (2m) + C2 * V(rho0)
    N * p0**2 / m    = C2 * rho0 * V'(rho0)
    Q                = sqrt(C2) * rho0 * p0

with C2 = N(N-1)/2 pairs and Q the global quantum number.  Eliminating p0
leaves one equation in rho0,

    N * Q**2 / (C2 * m * rho0**3) = C2 * V'(rho0),

solved by a bracketed scan.  The reduced energy E(rho) generically has a
minimum (the reported state) and a maximum; when the attraction is too weak
both disappear and the state is flagged unbound.

The split-improved spectrum replaces Q by weight * radial + angular, where
the weight follows from the curvature of the potential at the stationary
point of the angular-only problem; weight = 2 recovers the plain spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from .errors import UnboundError
from .numerics import Bracket, find_root, geometric_grid, value_or_nan
from .potentials import PotentialWell
from .quantum import StateSpec, global_quantum_number, split_quantum_number

HBAR = 1.0

_SCAN_POINTS = 240
_SCAN_SPAN = (1e-6, 1e6)  # bracket scan range in units of 1/mu


@dataclass(frozen=True)
class IdenticalSystem:
    """N identical particles of mass `mass` with pair coupling `coupling`."""

    n_particles: int
    mass: float
    coupling: float
    well: PotentialWell

    def __post_init__(self):
        if not isinstance(self.n_particles, int) or self.n_particles < 2:
            raise ValueError(f"need an integer n_particles >= 2, got {self.n_particles!r}")
        if not (self.mass > 0.0 and math.isfinite(self.mass)):
            raise ValueError(f"mass must be positive and finite, got {self.mass!r}")
        if not math.isfinite(self.coupling):
            raise ValueError(f"coupling must be finite, got {self.coupling!r}")

    @property
    def pair_count(self) -> float:
        return 0.5 * self.n_particles * (self.n_particles - 1)


@dataclass(frozen=True)
class EtSolution:
    """Converged internal parameters and energy.

    `stationary` is False when no stationary point exists at all (fields are
    NaN); `bound` additionally requires E < 0 (confining power laws with
    p > 0 count as bound at any E).  `multiple_minima` marks non-monotone
    wells whose reduced energy has several local minima; the lowest one is
    reported.
    """

    energy: float
    rho0: float
    p0: float
    q_eff: float
    residuals: Tuple[float, float, float]
    bound: bool
    stationary: bool = True
    multiple_minima: bool = False


def signed_potential(well: PotentialWell, coupling: float
                     ) -> Tuple[Callable[[float], float],
                                Callable[[float], float],
                                Callable[[float], float]]:
    """(V, V', V'') with the sign convention applied to the well shape."""
    sign = -1.0
    if well.power_exponent is not None:
        sign = 1.0 if well.power_exponent > 0 else -1.0
    s = sign * coupling
    return (lambda r: s * well.v(r),
            lambda r: s * well.v1(r),
            lambda r: s * well.v2(r))


def _scan_radii(mu: float) -> List[float]:
    """The radii of every bracket scan over a well of inverse range mu."""
    return geometric_grid(_SCAN_SPAN[0] / mu, _SCAN_SPAN[1] / mu, _SCAN_POINTS)


def _scan_minima(f: Callable[[float], float], mu: float) -> Tuple[List[float], int]:
    """Stationary radii that are minima of the reduced energy.

    f is the stationarity defect (positive where the energy decreases with
    rho); downward sign changes of f are energy minima, upward ones maxima.
    Returns (minima brackets resolved to roots, number of minima found).
    When the scan sees no sign change the single dip case (minimum and
    maximum almost merged, near-critical binding) is recovered by refining
    the scan minimum of f.
    """
    grid = _scan_radii(mu)
    vals = [value_or_nan(f, r) for r in grid]

    minima: List[float] = []
    n_down = 0
    for i in range(_SCAN_POINTS - 1):
        a, b = vals[i], vals[i + 1]
        if math.isnan(a) or math.isnan(b):
            continue
        if a > 0.0 >= b or a >= 0.0 > b:
            n_down += 1
            minima.append(find_root(f, Bracket(grid[i], grid[i + 1])))

    if not minima and not any(math.isnan(v) for v in vals):
        # No crossing seen: either truly unbound or a dip narrower than the
        # grid.  Refine the minimum of f by golden-section search.
        i0 = min(range(_SCAN_POINTS), key=lambda i: vals[i])
        if 0 < i0 < _SCAN_POINTS - 1:
            a, b = grid[i0 - 1], grid[i0 + 1]
            invphi = (math.sqrt(5.0) - 1.0) / 2.0
            c = b - (b - a) * invphi
            d = a + (b - a) * invphi
            fc, fd = value_or_nan(f, c), value_or_nan(f, d)
            for _ in range(200):
                if b - a <= 1e-14 * b:
                    break
                if fc < fd:
                    b, d, fd = d, c, fc
                    c = b - (b - a) * invphi
                    fc = value_or_nan(f, c)
                else:
                    a, c, fc = c, d, fd
                    d = a + (b - a) * invphi
                    fd = value_or_nan(f, d)
            xm = 0.5 * (a + b)
            if value_or_nan(f, xm) < 0.0:
                n_down = 1
                minima.append(find_root(f, Bracket(grid[i0 - 1], xm)))
    return minima, n_down


def _stationary_minima(well: PotentialWell, n_particles: int, mass: float,
                       coupling: float, q: float) -> Tuple[List[float], int]:
    _, v1, _ = signed_potential(well, coupling)
    c2 = 0.5 * n_particles * (n_particles - 1)
    kin = n_particles * (q * HBAR) ** 2 / (c2 * mass)

    def f(rho: float) -> float:
        return kin / rho ** 3 - c2 * v1(rho)

    return _scan_minima(f, well.mu)


def _residuals(sys: IdenticalSystem, q: float, rho: float, p: float,
               energy: float) -> Tuple[float, float, float]:
    v, v1, _ = signed_potential(sys.well, sys.coupling)
    n, m, c2 = sys.n_particles, sys.mass, sys.pair_count
    kin = n * p * p / (2.0 * m)
    pot = c2 * v(rho)
    r_e = abs(energy - kin - pot) / max(abs(energy), abs(kin), abs(pot), 1e-300)
    lhs = n * p * p / m
    rhs = c2 * rho * v1(rho)
    r_s = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
    r_q = abs(q * HBAR - math.sqrt(c2) * rho * p) / max(abs(q * HBAR), 1e-300)
    return (r_e, r_s, r_q)


def _unbound_solution(q: float) -> EtSolution:
    nan = math.nan
    return EtSolution(nan, nan, nan, q, (nan, nan, nan),
                      bound=False, stationary=False)


def _solution_at(sys: IdenticalSystem, q: float, rho: float,
                 multiple: bool) -> EtSolution:
    v, _, _ = signed_potential(sys.well, sys.coupling)
    c2 = sys.pair_count
    p = q * HBAR / (math.sqrt(c2) * rho)
    energy = sys.n_particles * p * p / (2.0 * sys.mass) + c2 * v(rho)
    confining = sys.well.power_exponent is not None and sys.well.power_exponent > 0
    return EtSolution(
        energy=energy, rho0=rho, p0=p, q_eff=q,
        residuals=_residuals(sys, q, rho, p, energy),
        bound=energy < 0.0 or confining,
        multiple_minima=multiple)


def _solve_with_q(sys: IdenticalSystem, q: float) -> EtSolution:
    minima, n_down = _stationary_minima(
        sys.well, sys.n_particles, sys.mass, sys.coupling, q)
    if not minima:
        return _unbound_solution(q)
    best = min((_solution_at(sys, q, rho, n_down > 1) for rho in minima),
               key=lambda s: s.energy)
    return best


def solve_energy(sys: IdenticalSystem, state: StateSpec) -> EtSolution:
    """Energy for the given state; unbound outcomes are values, not errors."""
    _check_state(sys, state)
    return _solve_with_q(sys, global_quantum_number(state))


def solve_energy_q(sys: IdenticalSystem, q: float) -> EtSolution:
    """Same as solve_energy, entering directly at the global quantum number
    (the equations depend on the state only through it)."""
    if not q > 0.0:
        raise ValueError(f"the global quantum number must be positive, got {q!r}")
    return _solve_with_q(sys, float(q))


def energy_exponential_closed(sys: IdenticalSystem, q: float) -> EtSolution:
    """Closed-form energy for the exponential well via the Lambert function.

    With z = (1/3) * (4 mu^2 q^2 / (N (N-1)^2 g m))^(1/3), a stationary point
    exists only for z <= 1/e and the energy is
    -(N(N-1)/2) g (1 + 3 w / 2) exp(3 w), w = W0(-z).  Agrees with
    solve_energy to solver precision; kept as an independent route.
    """
    from .numerics import lambert_w0

    if sys.well.power_exponent is not None or sys.well.name != "exponential":
        raise ValueError("closed form is only valid for exponential wells")
    if sys.coupling <= 0.0:
        return _unbound_solution(q)
    n, m, g = sys.n_particles, sys.mass, sys.coupling
    mu = sys.well.mu
    z = ((4.0 * (mu * q * HBAR) ** 2 / (n * (n - 1) ** 2 * g * m)) ** (1.0 / 3.0)) / 3.0
    if z > math.exp(-1.0):
        return _unbound_solution(q)
    w = lambert_w0(-z)
    energy = -0.5 * n * (n - 1) * g * (1.0 + 1.5 * w) * math.exp(3.0 * w)
    rho = -3.0 * w / mu
    p = q * HBAR / (math.sqrt(sys.pair_count) * rho)
    return EtSolution(
        energy=energy, rho0=rho, p0=p, q_eff=q,
        residuals=_residuals(sys, q, rho, p, energy),
        bound=energy < 0.0)


# p T''(p) / T'(p) for T = p^2 / 2m; the general weight formula is
# sqrt(2 + p T''/T' + rho V''/V') and only this kinetic model ships.
_KINETIC_CURVATURE_RATIO = 1.0


def radial_weight_from_angular(well: PotentialWell, n_particles: int,
                               mass: float, coupling: float,
                               angular: float) -> float:
    """Weight of radial excitations from the angular-only stationary point.

    Solves the stationarity condition with the quantum number replaced by
    the angular part alone, then evaluates
    sqrt(3 + rho * V''(rho) / V'(rho)) there.  Equals sqrt(2 + p) for
    power-law potentials and 2 for the harmonic case.
    """
    minima, _ = _stationary_minima(well, n_particles, mass, coupling, angular)
    if not minima:
        raise UnboundError(
            "no stationary point exists for the angular quantum number alone; "
            "the radial weight is undefined here")
    _, v1, v2 = signed_potential(well, coupling)
    rho = min(minima)
    radicand = 2.0 + _KINETIC_CURVATURE_RATIO + rho * v2(rho) / v1(rho)
    if radicand < 0.0:
        raise ValueError(
            f"negative radicand {radicand:g} in the radial weight at rho={rho:g}")
    return math.sqrt(radicand)


def radial_weight(sys: IdenticalSystem, state: StateSpec) -> float:
    """Radial weight for this system and state (needs D >= 2)."""
    _check_state(sys, state)
    split = split_quantum_number(state)
    return radial_weight_from_angular(
        sys.well, sys.n_particles, sys.mass, sys.coupling, split.angular)


def solve_energy_improved(sys: IdenticalSystem, state: StateSpec,
                          weight: Optional[float] = None) -> EtSolution:
    """Energy with the split quantum number weight * radial + angular.

    The weight defaults to radial_weight(sys, state); passing weight=2
    reproduces solve_energy exactly.  The result is no longer guaranteed to
    bound the true energy from above.
    """
    _check_state(sys, state)
    if weight is None:
        weight = radial_weight(sys, state)
    split = split_quantum_number(state)
    return _solve_with_q(sys, weight * split.radial + split.angular)


def _check_state(sys: IdenticalSystem, state: StateSpec) -> None:
    if state.n_particles != sys.n_particles:
        raise ValueError(
            f"state describes {state.n_particles} particles but the system "
            f"has {sys.n_particles}")
