"""Independent two-body validation: a radial Schrodinger eigensolver.

The reduced problem is

    -u'' + [ l(l+1)/r^2 + V(r)/kc ] u = (E/kc) u,    u(0) = u(r_max) = 0,

with kc the coefficient of -d^2/dr^2 (kc = 1 corresponds to two unit-mass
particles in natural units, where the relative kinetic energy is p^2).
Integration is Numerov on a uniform grid, started at r_1 = h with
u(r_1) = r_1**(l+1); eigenvalues come from bisection on the interior node
count, which jumps by one exactly at each Dirichlet eigenvalue.  The box is
extended automatically while the wavefunction has not decayed at r_max.

Critical couplings are located on the zero-energy solution.  Beyond the
range of the potential that solution is c1 * r**(-l) + c2 * r**(l+1), and
the state reaches threshold exactly when the growing coefficient c2
vanishes; c2 is read off the last two grid points as
u_P * r_P**l - u_{P-1} * r_{P-1}**l, and its sign changes only at critical
couplings, so bisection on that matching function is exponentially accurate
in r_max (a plain u(r_max) = 0 condition would converge only like 1/r_max
for s waves).

For the exponential well with mu = 1 and kc = 1 the s-wave critical
couplings are exact: the zero-energy solution regular at infinity is
J0(2 sqrt(g) e^(-r/2)), and u(0) = 0 forces 2 sqrt(g) to be a zero of J0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from . import kernels
from .errors import BracketError, ConvergenceError, UnboundError
from .identical import signed_potential
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


def _effective_potential(prob: RadialProblem, grid: GridSpec) -> np.ndarray:
    h = grid.h
    r = np.arange(1, grid.points + 1) * h
    v, _, _ = signed_potential(prob.well, prob.coupling)
    w = np.empty(grid.points + 1)
    w[0] = 0.0  # never used: u(0) = 0
    w[1:] = (prob.l * (prob.l + 1) / (r * r)
             + np.array([v(x) for x in r]) / prob.kinetic_coefficient)
    return w


def _node_count(w: np.ndarray, energy: float, h2: float, u1: float) -> int:
    return kernels.numerov_sweep(w, energy, h2, u1)[0]


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
    for _ in range(_MAX_EXTENSIONS):
        energy, tail_ok = _solve_on_grid(prob, n_nodes, grid)
        if tail_ok:
            return energy * prob.kinetic_coefficient
        grid = GridSpec(grid.r_max * 2.0, grid.points * 2)
    raise ConvergenceError(
        f"wavefunction not decayed at r_max = {grid.r_max:g} even after "
        "extensions; increase the grid")


def _solve_on_grid(prob: RadialProblem, n_nodes: int,
                   grid: GridSpec) -> Tuple[float, bool]:
    w = _effective_potential(prob, grid)
    h = grid.h
    h2 = h * h
    u1 = h ** (prob.l + 1)
    e_lo = float(np.min(w[1:])) - 1.0
    # wells bind strictly below zero; only confining pseudo-wells hold
    # their whole spectrum above it
    confining = (prob.well.power_exponent is not None
                 and prob.well.power_exponent > 0)
    e_hi = float(w[-1]) if confining else 0.0
    if not _node_count(w, e_hi, h2, u1) > n_nodes:
        raise UnboundError(
            f"no bound state with {n_nodes} nodes for l={prob.l}, "
            f"coupling={prob.coupling:g}")
    for _ in range(240):
        mid = 0.5 * (e_lo + e_hi)
        if mid == e_lo or mid == e_hi:
            break
        if _node_count(w, mid, h2, u1) > n_nodes:
            e_hi = mid
        else:
            e_lo = mid
        if (e_hi - e_lo) <= 1e-14 * max(1.0, abs(e_lo)):
            break
    energy = 0.5 * (e_lo + e_hi)
    return energy, _tail_decayed(w, h, energy)


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

    Bisection on the threshold matching function of the zero-energy
    solution; the node count of that solution brackets the right sign
    change (the n-th critical coupling is the (n+1)-th sign change).
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
    vw[1:] = np.array([well.v(x) for x in r])
    ratio_l = (grid.r_max / (grid.r_max - h)) ** l

    # Work with the scaled coupling gbar = g / kc; w = cent - gbar * v.
    def sweep(gbar: float):
        return kernels.numerov_sweep(cent - gbar * vw, 0.0, h2, u1)

    def match(gbar: float) -> float:
        _, u_second, u_last, _ = sweep(gbar)
        return u_last * ratio_l - u_second

    def count(gbar: float) -> int:
        return sweep(gbar)[0]

    scale = well.mu ** 2
    g_floor = 1e-4 * scale
    g_cap = 1e9 * scale

    # Locate where the grid node count first reaches n_nodes and n_nodes+1.
    g = g_floor
    while count(g) > 0:
        g /= 10.0
        if g < 1e-12 * scale:
            raise BracketError("node count does not vanish at tiny couplings")
    g_zero = g

    def first_with_count(k: int) -> float:
        lo = g_zero
        hi = lo
        while count(hi) < k:
            hi *= 1.6
            if hi > g_cap:
                raise BracketError(
                    f"no coupling below {g_cap:g} produces {k} zero-energy nodes")
        while count(lo) >= k:
            lo /= 1.6
        for _ in range(60):
            mid = math.sqrt(lo * hi)
            if count(mid) >= k:
                hi = mid
            else:
                lo = mid
            if hi - lo <= 1e-3 * hi:
                break
        return hi

    g_hi = first_with_count(n_nodes + 1)
    g_lo = first_with_count(n_nodes) if n_nodes > 0 else g_zero
    if (match(g_lo) > 0.0) == (match(g_hi) > 0.0):
        raise BracketError(
            "threshold matching function does not change sign on the "
            f"node-count bracket [{g_lo:g}, {g_hi:g}]")
    gbar = find_root(match, Bracket(g_lo, g_hi),
                     RootConfig(rel_tol=1e-13, abs_tol=1e-300, max_iter=200))
    return gbar * kinetic_coefficient
