"""Critical coupling constants for N identical particles.

For a well V = -g v(r) the coupling at which a state with quantum number Q
first binds is

    g_crit = (1 / (rho0**2 v(rho0))) * (2 / (N (N-1)**2)) * Q**2 / m

where rho0 is the positive root of 2 v(rho) + rho v'(rho) = 0 (the
zero-energy stationarity condition).  The well enters only through the
factor 1 / (rho0**2 v(rho0)); masses and the inverse length mu factor out as
mu**2 / m, and ground-state values of consecutive N are related by
g_N / g_{N-1} = (N-1)/N.

The improved variant replaces Q by weight(g) * radial + angular, which makes
the formula a transcendental equation in g; it is solved by damped
fixed-point iteration seeded with the plain value (bracketed root finding as
a fallback).  The plain value is an upper bound of the true critical
coupling for wells; no such guarantee survives the improvement.

Power-law pseudo-wells admit no zero-energy radius; their critical coupling
is the limiting value 0 (attractive, -2 < p < 0) or infinity (repulsive,
p > 0), reported through an explicit flag rather than a float infinity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

from .errors import ConvergenceError, NoRootError, UnboundError
from .identical import HBAR, _scan_radii, radial_weight_from_angular
from .numerics import Bracket, find_root, geometric_grid, value_or_nan
from .potentials import PotentialWell
from .quantum import StateSpec, global_quantum_number, split_quantum_number


@dataclass(frozen=True)
class CriticalResult:
    """Critical coupling and the geometry behind it.

    g_crit is None (with infinite=True) for repulsive power laws.  method is
    "plain" or "improved"; bound_character records whether the value is a
    guaranteed upper bound of the true critical coupling.  trace holds the
    fixed-point iterates of the improved solve.
    """

    g_crit: Optional[float]
    rho0: Optional[float]
    factor: Optional[float]
    method: str
    bound_character: str
    infinite: bool = False
    trace: Tuple[float, ...] = field(default=())


def zero_energy_radius(well: PotentialWell) -> float:
    """Smallest positive root of 2 v(rho) + rho v'(rho) = 0."""
    def condition(rho: float) -> float:
        return 2.0 * well.v(rho) + rho * well.v1(rho)

    grid = _scan_radii(well.mu)
    prev_r, prev_v = grid[0], value_or_nan(condition, grid[0])
    for r in grid[1:]:
        val = value_or_nan(condition, r)
        if not (math.isnan(prev_v) or math.isnan(val)):
            if prev_v == 0.0:
                return prev_r
            if (prev_v > 0.0) != (val > 0.0):
                return find_root(condition, Bracket(prev_r, r))
        prev_r, prev_v = r, val
    raise NoRootError(
        f"well {well.name!r} has no zero-energy radius; critical-coupling "
        "formulas do not apply")


def well_factor(well: PotentialWell) -> float:
    """The shape factor 1 / (rho0**2 v(rho0)) of the critical formula."""
    return _factor_at(well, zero_energy_radius(well))


def _factor_at(well: PotentialWell, rho: float) -> float:
    return 1.0 / (rho * rho * well.v(rho))


def _power_law_limit(p: float, method: str) -> CriticalResult:
    if p > 0.0:
        return CriticalResult(None, None, None, method, "upper_bound",
                              infinite=True)
    return CriticalResult(0.0, None, None, method, "upper_bound")


def critical_coupling(well: PotentialWell, n_particles: int, mass: float,
                      state: StateSpec) -> CriticalResult:
    """Critical coupling for the given state (guaranteed upper bound)."""
    _check_args(well, n_particles, mass, state)
    if well.power_exponent is not None:
        return _power_law_limit(well.power_exponent, "plain")
    rho = zero_energy_radius(well)
    factor = _factor_at(well, rho)
    q = global_quantum_number(state)
    g = _coupling_from_q(factor, n_particles, mass, q)
    return CriticalResult(g, rho, factor, "plain", "upper_bound")


def critical_coupling_improved(well: PotentialWell, n_particles: int,
                               mass: float, state: StateSpec) -> CriticalResult:
    """Critical coupling with the split quantum number (no bound guarantee).

    Solves g = factor * (2 / (N (N-1)^2)) * (weight(g) * radial + angular)^2 / m
    by fixed-point iteration from the plain seed, halving the update when
    successive steps oscillate; falls back to bracketed root finding on
    g - F(g) over [1e-3, 1e3] times the seed.
    """
    _check_args(well, n_particles, mass, state)
    if state.dimension < 2:
        raise ValueError("the improved critical coupling requires D >= 2")
    if well.power_exponent is not None:
        return _power_law_limit(well.power_exponent, "improved")

    split = split_quantum_number(state)
    if split.angular == 0.0:
        # D = 2 ground state: no angular part to anchor the weight
        raise ValueError(
            "the angular quantum number vanishes for this state; the "
            "split-improved critical coupling is undefined")
    rho = zero_energy_radius(well)
    factor = _factor_at(well, rho)

    def mapped(g: float) -> float:
        w = radial_weight_from_angular(well, n_particles, mass, g, split.angular)
        q_eff = w * split.radial + split.angular
        return _coupling_from_q(factor, n_particles, mass, q_eff)

    seed = _coupling_from_q(factor, n_particles, mass, split.total)
    trace = [seed]
    g = seed
    prev_step = 0.0
    converged = False
    try:
        for _ in range(200):
            g_next = mapped(g)
            step = g_next - g
            if prev_step * step < 0.0:
                g_next = g + 0.5 * step  # damp oscillation
                step = 0.5 * step
            trace.append(g_next)
            if abs(step) <= 1e-10 * max(abs(g_next), 1e-300):
                g = g_next
                converged = True
                break
            prev_step = step
            g = g_next
    except (UnboundError, ValueError):
        converged = False

    if not converged:
        g = _bracketed_fixed_point(mapped, seed)
        trace.append(g)
    return CriticalResult(g, rho, factor, "improved", "no_guarantee",
                          trace=tuple(trace))


def _bracketed_fixed_point(mapped, seed: float) -> float:
    """Root of g - mapped(g) over a wide geometric range around the seed."""
    def defect(g: float) -> float:
        try:
            return g - mapped(g)
        except UnboundError:
            return math.nan

    def f(g: float) -> float:
        out = value_or_nan(defect, g)
        if math.isnan(out):
            raise ConvergenceError(
                "improved critical coupling undefined inside bracket")
        return out

    prev = None
    for g in geometric_grid(1e-3 * seed, 1e3 * seed, 120):
        val = value_or_nan(defect, g)
        if math.isnan(val):
            continue
        if prev is not None and (prev[1] > 0.0) != (val > 0.0):
            return find_root(f, Bracket(prev[0], g))
        prev = (g, val)
    raise ConvergenceError(
        "no fixed point found for the improved critical coupling")


def _coupling_from_q(factor: float, n_particles: int, mass: float,
                     q: float) -> float:
    n = n_particles
    return factor * 2.0 / (n * (n - 1) ** 2) * (q * HBAR) ** 2 / mass


def _check_args(well: PotentialWell, n_particles: int, mass: float,
                state: StateSpec) -> None:
    if not isinstance(n_particles, int) or n_particles < 2:
        raise ValueError(f"need an integer n_particles >= 2, got {n_particles!r}")
    if not (mass > 0.0 and math.isfinite(mass)):
        raise ValueError(f"mass must be positive and finite, got {mass!r}")
    if state.n_particles != n_particles:
        raise ValueError(
            f"state describes {state.n_particles} particles, expected {n_particles}")
