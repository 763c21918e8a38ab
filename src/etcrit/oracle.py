"""Independent two-body validation: a radial Schrodinger eigensolver.

The reduced problem is

    -u'' + [ l(l+1)/r^2 + V(r)/kc ] u = (E/kc) u,    u(0) = u(r_max) = 0,

with kc the coefficient of -d^2/dr^2 (kc = 1 corresponds to two unit-mass
particles in natural units, where the relative kinetic energy is p^2).
Integration is Numerov on a uniform grid, started at r_1 = h with
u(r_1) = r_1**(l+1).  The well is sampled once per grid through its array
form.

Energies: the interior node count jumps by one exactly at each Dirichlet
eigenvalue, so bisection on it first isolates the wanted level between two
energies with n and n+1 nodes.  Brent's method then converges on a smooth
function with one zero there: the discrete Wronskian of the outward
solution and of the inward one (u(r_max) = 0), joined at the outer turning
point.  The box is extended automatically while the wavefunction has not
decayed at r_max, and each larger box starts its search next to the level
found on the smaller one.

Critical couplings are located on the zero-energy solution.  Beyond the
range of the potential that solution is c1 * r**(-l) + c2 * r**(l+1), and
the state reaches threshold exactly when the growing coefficient c2
vanishes.  Both coefficients follow from the last two grid points.  pi
times the node count plus the angle of (c1, c2), with the sign of u after
that many nodes taken out, is a continuous phase that grows monotonically
with the coupling; it equals n * pi + pi / 2 exactly where c2 = 0 with n
nodes, the n-th critical coupling.  On average the phase grows like
sqrt(g) times the integral of sqrt(v) (WKB), so a bracket is grown
geometrically in sqrt(g) from that estimate and closed by Brent's method.
Matching c2 = 0 converges exponentially in r_max (a plain u(r_max) = 0
condition would converge only like 1/r_max for s waves).

For the exponential well with mu = 1 and kc = 1 the s-wave critical
couplings are exact: the zero-energy solution regular at infinity is
J0(2 sqrt(g) e^(-r/2)), and u(0) = 0 forces 2 sqrt(g) to be a zero of J0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from . import kernels
from .errors import BracketError, ConvergenceError, UnboundError
from .identical import potential_sign
from .numerics import Bracket, RootConfig, bessel_j0_zero, find_root
from .potentials import PotentialWell


@dataclass(frozen=True)
class RadialProblem:
    """Reduced radial problem: angular momentum, well, coupling, kc."""

    l: int
    well: PotentialWell
    coupling: float
    kinetic_coefficient: float = 1.0

    def __post_init__(self):
        if not isinstance(self.l, int) or self.l < 0:
            raise ValueError(f"need an integer l >= 0, got {self.l!r}")
        if not self.kinetic_coefficient > 0.0:
            raise ValueError("kinetic_coefficient must be positive")


@dataclass(frozen=True)
class GridSpec:
    """Uniform integration grid on [0, r_max] with `points` steps."""

    r_max: float
    points: int = 8000

    def __post_init__(self):
        if not self.r_max > 0.0:
            raise ValueError("r_max must be positive")
        if self.points < 1000:
            raise ValueError("need at least 1000 grid points")

    @property
    def h(self) -> float:
        return self.r_max / self.points


def default_grid(mu: float) -> GridSpec:
    """Default box sized to the well range: r_max = 40/mu, 8000 points."""
    return GridSpec(40.0 / mu, 8000)


_TAIL_LIMIT = 1e-10
_MAX_EXTENSIONS = 4
# half-width, relative to max(1, |E|), of the first bracket tried around the
# level found on the previous, smaller box
_SEED_WINDOW = 1e-8
_ENERGY_ROOT = RootConfig(rel_tol=1e-14, abs_tol=1e-14, max_iter=200)
# critical couplings: bracket growth factor in sqrt(g) and the search range
# of sqrt(g), in units of mu
_GROW = 1.3
_S_FLOOR = 1e-6
_S_CAP = math.sqrt(1e9)
# the outer form c1 r**-l + c2 r**(l+1) needs a well that has decayed by
# r_max: |v(r_max)| at most this fraction of max |v| on the grid
_EDGE_LIMIT = 1e-6


def _well_on_grid(well: PotentialWell, r: np.ndarray) -> np.ndarray:
    """well.v at every radius in r.

    One call of the array form `v.on_grid`.  Where v has none, or where it
    gives a non-finite value because the formula leaves its domain somewhere
    on the grid, v is called point by point instead, so that the scalar form
    raises its own exception.
    """
    on_grid = getattr(well.v, "on_grid", None)
    if on_grid is not None:
        with np.errstate(all="ignore"):
            values = on_grid(r)
        if np.all(np.isfinite(values)):
            return values
    return np.array([well.v(x) for x in r])


def _effective_potential(prob: RadialProblem, grid: GridSpec) -> np.ndarray:
    h = grid.h
    r = np.arange(1, grid.points + 1) * h
    s = potential_sign(prob.well) * prob.coupling
    w = np.empty(grid.points + 1)
    w[0] = 0.0  # never used: u(0) = 0
    w[1:] = (prob.l * (prob.l + 1) / (r * r)
             + s * _well_on_grid(prob.well, r) / prob.kinetic_coefficient)
    return w


def radial_eigenvalue(prob: RadialProblem, n_nodes: int,
                      grid: Optional[GridSpec] = None) -> float:
    """Energy of the bound state with n_nodes radial nodes.

    Raises UnboundError when no such state exists and ConvergenceError when
    the wavefunction fails to decay even after repeated box extensions.
    States bound more weakly than the box resolution (binding radius beyond
    r_max) are reported unbound, as in any finite-box method.
    """
    if n_nodes < 0:
        raise ValueError("n_nodes must be non-negative")
    if grid is None:
        grid = default_grid(prob.well.mu)
    energy = None
    for _ in range(_MAX_EXTENSIONS):
        energy, tail_ok = _solve_on_grid(prob, n_nodes, grid, energy)
        if tail_ok:
            return energy * prob.kinetic_coefficient
        grid = GridSpec(grid.r_max * 2.0, grid.points * 2)
    raise ConvergenceError(
        f"wavefunction not decayed at r_max = {grid.r_max:g} even after "
        "extensions; increase the grid")


def _solve_on_grid(prob: RadialProblem, n_nodes: int, grid: GridSpec,
                   seed: Optional[float] = None) -> Tuple[float, bool]:
    """The level on one grid; seed is the level on the previous, smaller
    box, which the larger box lowers only slightly."""
    w = _effective_potential(prob, grid)
    h = grid.h
    h2 = h * h
    u1 = h ** (prob.l + 1)

    def count(energy: float) -> int:
        return kernels.numerov_sweep(w, energy, h2, u1)[0]

    if seed is not None:
        half = _SEED_WINDOW * max(1.0, abs(seed))
        lo, hi = seed - half, seed + half
        c_lo, c_hi = count(lo), count(hi)
    if seed is None or not c_lo <= n_nodes < c_hi:
        lo = float(np.min(w[1:])) - 1.0
        # wells bind strictly below zero; only confining pseudo-wells hold
        # their whole spectrum above it
        hi = float(w[-1]) if potential_sign(prob.well) > 0 else 0.0
        c_lo, c_hi = 0, count(hi)
        if not c_hi > n_nodes:
            raise UnboundError(
                f"no bound state with {n_nodes} nodes for l={prob.l}, "
                f"coupling={prob.coupling:g}")
    # bisect on the node count only until [lo, hi] holds this level alone
    while c_lo < n_nodes or c_hi > n_nodes + 1:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            raise ConvergenceError(
                f"levels with {n_nodes} and {n_nodes + 1} nodes are not "
                "separable on this grid")
        c_mid = count(mid)
        if c_mid > n_nodes:
            hi, c_hi = mid, c_mid
        else:
            lo, c_lo = mid, c_mid
    energy = find_root(_mismatch(w, h2, u1, 0.5 * (lo + hi)),
                       Bracket(lo, hi), _ENERGY_ROOT)
    return energy, _tail_decayed(w, h, energy)


def _mismatch(w: np.ndarray, h2: float, u1: float, energy: float):
    """Matching function of the outward and inward solutions, joined at
    the outer turning point of `energy`.

    The outward sweep starts at r = 0, the inward one at r_max with
    u(r_max) = 0, on a reversed copy of w.  Their discrete Wronskian at the
    grid points m, m+1, with each solution normalised there, vanishes
    exactly at the Dirichlet levels of the grid and is smooth between them.
    """
    points = len(w) - 1
    allowed = np.flatnonzero(w[1:] <= energy)
    m = min(int(allowed[-1]) + 1 if allowed.size else 1, points - 1)
    outward = w[:m + 2]
    inward = np.ascontiguousarray(w[:m - 1:-1])  # w[points], ..., w[m]

    def wronskian(e: float) -> float:
        _, u_m, u_next, _ = kernels.numerov_sweep(outward, e, h2, u1)
        _, v_next, v_m, _ = kernels.numerov_sweep(inward, e, h2, 1.0)
        a = math.hypot(u_m, u_next)
        b = math.hypot(v_m, v_next)
        return (u_m / a) * (v_next / b) - (u_next / a) * (v_m / b)

    return wronskian


def _tail_decayed(w: np.ndarray, h: float, energy: float) -> bool:
    """True when the eigenfunction amplitude at the box edge is below
    _TAIL_LIMIT of its maximum.

    The ratio is estimated semiclassically as exp(-int sqrt(W - E) dr) over
    the forbidden region beyond the outer turning point; the raw grid tail
    cannot be used directly because outward integration at a deep eigenvalue
    is dominated there by the exponentially growing admixture.
    """
    kap = np.sqrt(np.maximum(w[1:] - energy, 0.0))
    allowed = np.nonzero(w[1:] <= energy)[0]
    if allowed.size == 0:
        return True
    decay = h * float(np.sum(kap[allowed[-1] + 1:]))
    return decay >= -math.log(_TAIL_LIMIT)


def exact_swave_critical(n_nodes: int) -> float:
    """Exact s-wave critical coupling of the unit exponential well, kc = 1.

    Equals (j_{0,n+1} / 2)**2 with j_{0,k} the k-th zero of J0; available
    for the precomputed range 0 <= n_nodes <= 19.
    """
    if not 0 <= n_nodes <= 19:
        raise ValueError(f"n_nodes out of precomputed range 0..19, got {n_nodes!r}")
    return (bessel_j0_zero(n_nodes + 1) / 2.0) ** 2


def radial_critical_coupling(l: int, n_nodes: int, well: PotentialWell,
                             grid: Optional[GridSpec] = None,
                             kinetic_coefficient: float = 1.0) -> float:
    """Smallest coupling at which the (n_nodes, l) state reaches E = 0.

    Root in s = sqrt(g / kc) of the continuous phase of the zero-energy
    solution, minus its threshold value n_nodes * pi + pi / 2.
    """
    if well.power_exponent is not None:
        raise ValueError("critical couplings are defined for genuine wells only")
    if l < 0 or n_nodes < 0:
        raise ValueError("l and n_nodes must be non-negative")
    if grid is None:
        grid = default_grid(well.mu)
    h = grid.h
    h2 = h * h
    u1 = h ** (l + 1)
    r = np.arange(1, grid.points + 1) * h
    cent = np.empty(grid.points + 1)
    cent[0] = 0.0
    cent[1:] = l * (l + 1) / (r * r)
    vw = np.empty(grid.points + 1)
    vw[0] = 0.0
    vw[1:] = _well_on_grid(well, r)
    if not abs(vw[-1]) <= _EDGE_LIMIT * float(np.max(np.abs(vw))):
        raise BracketError(
            f"well {well.name} has not decayed at r_max = {grid.r_max:g}: "
            f"v(r_max) = {vw[-1]:g}")
    # last two grid points in units of the well range 1/mu
    x_second = (grid.r_max - h) * well.mu
    x_last = grid.r_max * well.mu
    target = math.pi * (n_nodes + 0.5)

    @lru_cache(maxsize=None)  # the search revisits its bracket ends
    def phase_gap(s: float) -> float:
        nodes, u_second, u_last, _ = kernels.numerov_sweep(
            cent - s * s * vw, 0.0, h2, u1)
        # coefficients, up to one positive factor, of the outer solution
        # c1 x**-l + c2 x**(l+1) through the last two points
        c1 = u_second * x_last ** (l + 1) - u_last * x_second ** (l + 1)
        c2 = u_last * x_second ** -l - u_second * x_last ** -l
        if nodes % 2:
            c1, c2 = -c1, -c2
        return math.pi * nodes + math.atan2(c1, c2) - target

    # zero-energy WKB: s * int sqrt(v) dr = (n_nodes + l/2 + 3/4) pi
    slope = h * float(np.sum(np.sqrt(np.maximum(vw, 0.0))))
    s = ((target + math.pi * (0.5 * l + 0.25)) / slope if slope > 0.0
         else well.mu)
    lo = hi = s
    while phase_gap(hi) < 0.0:
        lo, hi = hi, hi * _GROW
        if hi > _S_CAP * well.mu:
            raise BracketError(
                f"no coupling below {(_S_CAP * well.mu) ** 2:g} binds the "
                f"state with {n_nodes} nodes and l = {l}")
    while phase_gap(lo) >= 0.0:
        lo, hi = lo / _GROW, lo
        if lo < _S_FLOOR * well.mu:
            raise BracketError(
                "zero-energy phase does not vanish at tiny couplings")
    s = find_root(phase_gap, Bracket(lo, hi),
                  RootConfig(rel_tol=1e-13, abs_tol=1e-300, max_iter=200))
    return s * s * kinetic_coefficient
