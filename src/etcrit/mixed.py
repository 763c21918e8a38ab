"""Envelope theory for Na identical particles plus one distinct particle.

Particle content: Na particles of mass ma interacting pairwise through
g_aa * v_aa, each also coupled to a single particle of mass mb through
g_ab * v_ab (wells enter as V = -g v).  The distinct particle may be an
exact static source, expressed as mb = math.inf; this substitutes the
reduced mass

    mu_ab = Na * ma * mb / (Na * ma + mb)   ->   Na * ma

and drops its kinetic energy, rather than emulating the limit with a large
float.

The internal geometry is described by four positive parameters: the
momentum p_a and pair distance r_aa inside the identical set, and the
relative momentum p_ab and distance r_ab between the set and the distinct
particle, with the derived combinations

    p_a_eff**2  = p_a**2 + p_ab**2 / Na**2
    r_ab_eff**2 = (Na-1)/(2 Na) * r_aa**2 + r_ab**2.

Energies come from a two-equation stationarity system in (r_aa, r_ab);
critical couplings from the zero-energy counterpart, holding one coupling
and solving for the other.  Both are solved in logarithmic variables (so
iterates stay positive) by damped Newton from a small multi-start grid;
"unbound" is declared when no start converges to finite logs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .critical import _factor_at, critical_coupling, zero_energy_radius
from .errors import (ConvergenceError, EtcritError, NoRootError,
                     SingularJacobianError, UnboundError)
from .identical import (HBAR, IdenticalSystem, _scan_minima, signed_potential,
                        solve_energy)
from .numerics import RootConfig, solve_2d
from .potentials import PotentialWell, make_builtin
from .quantum import StateSpec, global_quantum_number

INFINITE = math.inf

_MULTISTART_OFFSETS = (-math.log(2.0), 0.0, math.log(2.0))
_SOLVE_CFG = RootConfig(rel_tol=1e-12, abs_tol=1e-14, max_iter=120)


@dataclass(frozen=True)
class MixedSystem:
    """Na identical particles (mass ma) plus one distinct particle (mass mb).

    mb may be math.inf for an exact static source.  The couplings g_aa and
    g_ab are the held/current values; solvers for a critical coupling ignore
    the field they solve for.
    """

    na: int
    mass_a: float
    mass_b: float
    g_aa: float
    g_ab: float
    well_aa: PotentialWell
    well_ab: PotentialWell

    def __post_init__(self):
        if not isinstance(self.na, int) or self.na < 1:
            raise ValueError(f"need an integer na >= 1, got {self.na!r}")
        if not (self.mass_a > 0.0 and math.isfinite(self.mass_a)):
            raise ValueError(f"mass_a must be positive and finite, got {self.mass_a!r}")
        if not self.mass_b > 0.0:
            raise ValueError(f"mass_b must be positive (or math.inf), got {self.mass_b!r}")
        if not math.isfinite(self.g_aa):
            raise ValueError("g_aa must be finite")

    @property
    def pair_count(self) -> float:
        return 0.5 * self.na * (self.na - 1)

    @property
    def mu_ab(self) -> float:
        return reduced_mass(self.na, self.mass_a, self.mass_b)

    @property
    def static_source(self) -> bool:
        return math.isinf(self.mass_b)


@dataclass(frozen=True)
class MixedGeometry:
    """Converged internal parameters of the mixed system."""

    p_a: float
    r_aa: float
    p_ab: float
    r_ab: float
    p_a_eff: float
    r_ab_eff: float
    residuals: Tuple[float, ...]


@dataclass(frozen=True)
class MixedCritical:
    """One critical coupling computed while the other one is held.

    fixed names the held coupling ("g_aa" or "g_ab"); critical_value is the
    solved one (g_ab is always positive, g_aa may take either sign).
    candidates lists the critical values at every root the multi-start
    search found; the one smallest in magnitude is reported.
    """

    fixed: str
    fixed_value: float
    critical_value: float
    geometry: MixedGeometry
    mu_ab: float
    candidates: Tuple[float, ...] = field(default=())


def reduced_mass(na: int, mass_a: float, mass_b: float) -> float:
    """Na ma mb / (Na ma + mb); equals Na ma for a static source."""
    if na < 1 or mass_a <= 0.0:
        raise ValueError("need na >= 1 and mass_a > 0")
    if math.isinf(mass_b):
        return na * mass_a
    return na * mass_a * mass_b / (na * mass_a + mass_b)


def _q_values(sys: MixedSystem, state_a: StateSpec, state_b: StateSpec
              ) -> Tuple[float, float]:
    if state_a.n_particles != sys.na:
        raise ValueError(
            f"state_a describes {state_a.n_particles} particles, expected {sys.na}")
    if state_b.n_particles != 2:
        raise ValueError("state_b must describe the two-body relative motion "
                         "(exactly one (n,l) pair)")
    return global_quantum_number(state_a), global_quantum_number(state_b)


def _r_ab_eff(na: int, r_aa: float, r_ab: float) -> float:
    return math.sqrt((na - 1) / (2.0 * na) * r_aa * r_aa + r_ab * r_ab)


def _geometry(sys: MixedSystem, qa: float, q2: float, r_aa: float,
              r_ab: float, residuals: Tuple[float, ...]) -> MixedGeometry:
    if sys.na >= 2:
        p_a = qa * HBAR / (math.sqrt(sys.pair_count) * r_aa)
    else:
        p_a = 0.0
    p_ab = q2 * HBAR / r_ab
    p_a_eff = math.sqrt(p_a * p_a + (p_ab / sys.na) ** 2)
    return MixedGeometry(p_a, r_aa, p_ab, r_ab, p_a_eff,
                         _r_ab_eff(sys.na, r_aa, r_ab), residuals)


def _energy_of(sys: MixedSystem, geo: MixedGeometry) -> float:
    v_aa, _, _ = signed_potential(sys.well_aa, sys.g_aa)
    v_ab, _, _ = signed_potential(sys.well_ab, sys.g_ab)
    kin = sys.na * geo.p_a_eff ** 2 / (2.0 * sys.mass_a)
    if not sys.static_source:
        kin += geo.p_ab ** 2 / (2.0 * sys.mass_b)
    pot = sys.na * v_ab(geo.r_ab_eff)
    if sys.na >= 2:
        pot += sys.pair_count * v_aa(geo.r_aa)
    return kin + pot


def _multistart(F, seeds_log: List[Tuple[float, float]]
                ) -> List[Tuple[float, float]]:
    roots: List[Tuple[float, float]] = []
    for guess in seeds_log:
        try:
            sol = solve_2d(F, guess, _SOLVE_CFG)
        except (ConvergenceError, SingularJacobianError, ValueError,
                OverflowError):
            continue
        if not (math.isfinite(sol[0]) and math.isfinite(sol[1])):
            continue
        if all(max(abs(sol[0] - r[0]), abs(sol[1] - r[1])) > 1e-6
               for r in roots):
            roots.append(sol)
    return roots


def _seed_grid(r_seed: float, rr_seed: float) -> List[Tuple[float, float]]:
    base = (math.log(r_seed), math.log(rr_seed))
    return [(base[0] + dx, base[1] + dy)
            for dx in _MULTISTART_OFFSETS for dy in _MULTISTART_OFFSETS]


def _aa_radius_seed(sys: MixedSystem, state_a: StateSpec) -> float:
    if sys.na >= 2 and sys.g_aa > 0.0:
        try:
            sol = solve_energy(
                IdenticalSystem(sys.na, sys.mass_a, sys.g_aa, sys.well_aa),
                state_a)
            if sol.stationary:
                return sol.rho0
        except (EtcritError, ValueError):
            pass
    return _radius_or_range(sys.well_aa)


def _ab_radius_seed(sys: MixedSystem, q2: float) -> float:
    _, v1_ab, _ = signed_potential(sys.well_ab, sys.g_ab)
    kin = (q2 * HBAR) ** 2 / sys.mu_ab

    def f(rr: float) -> float:
        return kin / rr ** 3 - v1_ab(rr)

    if sys.g_ab > 0.0 or sys.well_ab.power_exponent is not None:
        minima, _ = _scan_minima(f, sys.well_ab.mu)
        if minima:
            return min(minima)
    return _radius_or_range(sys.well_ab)


def _radius_or_range(well: PotentialWell) -> float:
    """The zero-energy radius of the well, or its range 1/mu without one."""
    try:
        return zero_energy_radius(well)
    except NoRootError:
        return 1.0 / well.mu


# --- energies ----------------------------------------------------------------

def solve_energy_mixed(sys: MixedSystem, state_a: StateSpec,
                       state_b: StateSpec) -> Tuple[float, MixedGeometry]:
    """Stationary energy and geometry of the mixed system.

    For na = 1 the internal coordinates of the identical set disappear
    (p_a = 0, r_aa = 0) and the problem reduces to the two-body one in the
    reduced mass.  Raises UnboundError when no stationary point exists.
    """
    qa, q2 = _q_values(sys, state_a, state_b)
    if sys.na == 1:
        return _solve_energy_two_body(sys, q2)

    c2 = sys.pair_count
    na = sys.na
    _, v1_aa, _ = signed_potential(sys.well_aa, sys.g_aa)
    _, v1_ab, _ = signed_potential(sys.well_ab, sys.g_ab)
    kin_a = na * (qa * HBAR) ** 2 / (c2 * sys.mass_a)
    kin_ab = (q2 * HBAR) ** 2 / sys.mu_ab

    def F(lr: float, lrr: float) -> Tuple[float, float]:
        try:
            r = math.exp(lr)
            rr = math.exp(lrr)
            rp = _r_ab_eff(na, r, rr)
            t1 = kin_a / (r * r)
            t2 = c2 * v1_aa(r) * r
            t3 = 0.5 * (na - 1) * v1_ab(rp) * r * r / rp
            f1 = (t1 - t2 - t3) / (abs(t1) + abs(t2) + abs(t3) + 1e-300)
            s1 = kin_ab / (rr * rr)
            s2 = na * v1_ab(rp) * rr * rr / rp
            f2 = (s1 - s2) / (abs(s1) + abs(s2) + 1e-300)
            return f1, f2
        except (OverflowError, ValueError, ZeroDivisionError):
            return math.inf, math.inf

    seeds = _seed_grid(_aa_radius_seed(sys, state_a), _ab_radius_seed(sys, q2))
    roots = _multistart(F, seeds)
    if not roots:
        raise UnboundError("mixed system has no stationary point (unbound)")

    best = None
    for lr, lrr in roots:
        try:
            geo = _geometry(sys, qa, q2, math.exp(lr), math.exp(lrr),
                            tuple(abs(x) for x in F(lr, lrr)))
            energy = _energy_of(sys, geo)
        except ArithmeticError as exc:
            # a root so far out that its momenta overflow is a numerical
            # failure of the multistart, not evidence of an unbound system
            raise ConvergenceError(
                f"stationary point at log radii ({lr:.6g}, {lrr:.6g}) has "
                f"no finite geometry") from exc
        if best is None or energy < best[0]:
            best = (energy, geo)
    return best


def _solve_energy_two_body(sys: MixedSystem,
                           q2: float) -> Tuple[float, MixedGeometry]:
    v_ab, v1_ab, _ = signed_potential(sys.well_ab, sys.g_ab)
    kin = (q2 * HBAR) ** 2 / sys.mu_ab

    def f(rr: float) -> float:
        return kin / rr ** 3 - v1_ab(rr)

    minima, _ = _scan_minima(f, sys.well_ab.mu)
    if not minima:
        raise UnboundError("two-body subsystem has no stationary point (unbound)")
    best = None
    for rr in minima:
        scale = abs(kin / rr ** 3) + abs(v1_ab(rr)) + 1e-300
        geo = _geometry(sys, 0.0, q2, 0.0, rr, (abs(f(rr)) / scale,))
        energy = geo.p_ab ** 2 / (2.0 * sys.mu_ab) + v_ab(rr)
        if best is None or energy < best[0]:
            best = (energy, geo)
    return best


# --- critical couplings ------------------------------------------------------

def _require_wells(sys: MixedSystem) -> None:
    if sys.well_aa.power_exponent is not None or sys.well_ab.power_exponent is not None:
        raise ValueError("critical couplings are defined for genuine wells only")


def _critical(sys: MixedSystem, state_a: StateSpec, qa: float, q2: float,
              held: str) -> MixedCritical:
    """Critical value of one coupling while the one named by held ("g_aa"
    or "g_ab") keeps its value in sys.

    At zero energy each coupling obeys coupling * v1 = a - b at the radii
    (r_aa, r_ab).  The multistart solves the held coupling's condition with
    the link relation; the other condition then gives the solved value.
    """
    na = sys.na
    kin_ab = (q2 * HBAR) ** 2 / sys.mu_ab
    kin_aa = (qa * HBAR) ** 2 / sys.mass_a

    def link(r: float, rr: float) -> float:
        """Zero-energy relation tying r_aa and r_ab (dimensionless)."""
        rp = _r_ab_eff(na, r, rr)
        r4 = rr ** 4
        va, v1a = sys.well_aa.v(r), sys.well_aa.v1(r)
        vb, v1b = sys.well_ab.v(rp), sys.well_ab.v1(rp)
        l1 = va * ((na - 1) / (2.0 * na) * r / (r4 * v1a) * kin_ab
                   - 2.0 / (na - 1) * kin_aa / (r ** 3 * v1a))
        l2 = -vb * rp / (r4 * v1b) * kin_ab
        r1 = kin_aa / ((na - 1) * r * r)
        r2 = kin_ab / (2.0 * rr * rr)
        return ((l1 + l2 - r1 - r2)
                / (abs(l1) + abs(l2) + abs(r1) + abs(r2) + 1e-300))

    def condition(coupling: str, r: float, rr: float
                  ) -> Tuple[float, float, float]:
        """(v1, a, b) of the named coupling's condition."""
        if coupling == "g_aa":
            return (sys.well_aa.v1(r), r / (na * na * rr ** 4) * kin_ab,
                    4.0 / (na * (na - 1) ** 2) * kin_aa / r ** 3)
        rp = _r_ab_eff(na, r, rr)
        return sys.well_ab.v1(rp), 0.0, rp / (na * rr ** 4) * kin_ab

    held_value = getattr(sys, held)
    solved = "g_ab" if held == "g_aa" else "g_aa"

    def F(lr: float, lrr: float) -> Tuple[float, float]:
        try:
            r = math.exp(lr)
            rr = math.exp(lrr)
            g1 = link(r, rr)
            v1, a, b = condition(held, r, rr)
            lhs = held_value * v1
            g2 = (lhs - (a - b)) / (abs(lhs) + abs(a) + abs(b) + 1e-300)
            return g1, g2
        except (OverflowError, ValueError, ZeroDivisionError):
            return math.inf, math.inf

    seeds = _seed_grid(_aa_radius_seed(sys, state_a),
                       _radius_or_range(sys.well_ab))
    roots = _multistart(F, seeds)
    if not roots:
        raise UnboundError(
            "no positive-geometry solution: the mixed system cannot reach "
            f"zero energy at this held {held} (unbound)")
    values = []
    for lr, lrr in roots:
        v1, a, b = condition(solved, math.exp(lr), math.exp(lrr))
        values.append(((a - b) / v1, lr, lrr))
    values.sort(key=lambda t: abs(t[0]))
    value, lr, lrr = values[0]
    geo = _geometry(sys, qa, q2, math.exp(lr), math.exp(lrr),
                    tuple(abs(x) for x in F(lr, lrr)))
    return MixedCritical(held, held_value, value, geo, sys.mu_ab,
                         candidates=tuple(v[0] for v in values))


def critical_coupling_ab(sys: MixedSystem, state_a: StateSpec,
                         state_b: StateSpec) -> MixedCritical:
    """Critical value of g_ab while g_aa is held at sys.g_aa.

    For na = 1 the identical-set interaction drops out and the closed
    two-body form applies.  Raises UnboundError when the identical set
    binds by itself at the held g_aa (at or above its own critical
    coupling), or when the zero-energy system has no positive-geometry
    solution.
    """
    qa, q2 = _q_values(sys, state_a, state_b)
    if sys.na == 1:
        return _critical_ab_two_body(sys, q2)
    _require_wells(sys)
    g_self = critical_coupling(sys.well_aa, sys.na, sys.mass_a, state_a).g_crit
    if sys.g_aa >= g_self:
        raise UnboundError(
            f"the {sys.na} identical particles bind by themselves at this "
            f"held g_aa (their critical coupling is {g_self:.6g}); no "
            "critical g_ab exists (unbound)")
    return _critical(sys, state_a, qa, q2, held="g_aa")


def _critical_ab_two_body(sys: MixedSystem, q2: float) -> MixedCritical:
    rho = zero_energy_radius(sys.well_ab)
    g_ab = _factor_at(sys.well_ab, rho) * (q2 * HBAR) ** 2 / (2.0 * sys.mu_ab)
    geo = _geometry(sys, 0.0, q2, 0.0, rho, (0.0, 0.0))
    return MixedCritical("g_aa", sys.g_aa, g_ab, geo, sys.mu_ab,
                         candidates=(g_ab,))


def critical_coupling_aa(sys: MixedSystem, state_a: StateSpec,
                         state_b: StateSpec) -> MixedCritical:
    """Critical value of g_aa while g_ab is held at sys.g_ab (na >= 2).

    The sign of the result is unconstrained: a repulsive g_aa can still
    leave the system bound through the attraction to the distinct particle.
    """
    if sys.na < 2:
        raise ValueError("critical_coupling_aa needs na >= 2")
    if not sys.g_ab > 0.0:
        raise ValueError("binding requires a positive held g_ab")
    _require_wells(sys)
    qa, q2 = _q_values(sys, state_a, state_b)
    return _critical(sys, state_a, qa, q2, held="g_ab")


# --- exponential-well consistency check --------------------------------------

def exponential_consistency_check(na: int, mass_b: float, hold: str,
                                  value: float,
                                  tol: float = 1e-8) -> MixedCritical:
    """Cross-check of the explicit exponential-well critical system.

    For unit-mass identical particles, unit-range exponential wells, and the
    three-dimensional bosonic ground state, the zero-energy system reduces
    to explicit algebraic forms.  This solves those forms directly and
    asserts agreement with the generic path to `tol` relative; disagreement
    signals an implementation bug, not a physics outcome.

    hold is "g_aa" (solve for g_ab) or "g_ab" (solve for g_aa).
    """
    if hold not in ("g_aa", "g_ab"):
        raise ValueError("hold must be 'g_aa' or 'g_ab'")
    well = make_builtin("exponential", 1.0)
    ground_a = StateSpec(((0, 0),) * (na - 1), 3)
    ground_b = StateSpec(((0, 0),), 3)
    sys = MixedSystem(na, 1.0, mass_b,
                      g_aa=value if hold == "g_aa" else 0.0,
                      g_ab=value if hold == "g_ab" else 1.0,
                      well_aa=well, well_ab=well)
    if hold == "g_aa":
        generic = critical_coupling_ab(sys, ground_a, ground_b)
    else:
        generic = critical_coupling_aa(sys, ground_a, ground_b)

    explicit = _explicit_exponential_value(na, mass_b, hold, value)
    scale = max(abs(generic.critical_value), abs(explicit), 1.0)
    if abs(generic.critical_value - explicit) > tol * scale:
        raise EtcritError(
            f"explicit exponential forms give {explicit!r} but the generic "
            f"path gives {generic.critical_value!r}")
    return generic


def _explicit_exponential_value(na: int, mass_b: float, hold: str,
                                value: float) -> float:
    c = 1.0 if math.isinf(mass_b) else (na + mass_b) / mass_b
    if na == 1:
        if hold != "g_aa":
            raise ValueError("with a single identical particle only g_ab can be solved")
        return 9.0 * c * math.e ** 2 / 32.0

    def rp_of(r: float, rr: float) -> float:
        return math.sqrt((na - 1) / (2.0 * na) * r * r + rr * rr)

    def F(lr: float, lrr: float) -> Tuple[float, float]:
        try:
            r, rr = math.exp(lr), math.exp(lrr)
            rp = rp_of(r, rr)
            r4 = rr ** 4
            terms = (-(na - 1) * c / (na * na) * r / r4,
                     4.0 * (na - 1) / r ** 3,
                     2.0 * c / na * rp / r4,
                     -2.0 * (na - 1) / (r * r),
                     -c / na / (rr * rr))
            g1 = sum(terms) / sum(abs(t) for t in terms)
            if hold == "g_aa":
                lhs = value * math.exp(-r)
                rhs = 9.0 / (na * r ** 3) - 2.25 * c / na ** 3 * r / r4
            else:
                lhs = value * math.exp(-rp)
                rhs = 2.25 * c / (na * na) * rp / r4
            g2 = (lhs - rhs) / (abs(lhs) + abs(rhs) + 1e-300)
            return g1, g2
        except (OverflowError, ValueError, ZeroDivisionError):
            return math.inf, math.inf

    roots = _multistart(F, _seed_grid(2.0, 2.0))
    if not roots:
        raise UnboundError("explicit exponential system has no solution")
    best: Optional[float] = None
    for lr, lrr in roots:
        r, rr = math.exp(lr), math.exp(lrr)
        rp = rp_of(r, rr)
        if hold == "g_aa":
            out = 2.25 * c / (na * na) * rp / rr ** 4 * math.exp(rp)
        else:
            out = (9.0 / (na * r ** 3) - 2.25 * c / na ** 3 * r / rr ** 4) * math.exp(r)
        if best is None or abs(out) < abs(best):
            best = out
    return best
