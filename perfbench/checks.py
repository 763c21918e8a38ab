"""Output checks for every workload.

Each result is compared with a value computed apart from the program
(scipy Bessel functions, Lambert W, brentq, and closed forms written out
here), or with a property the method must have.  Nothing is compared with a
stored copy of earlier output.

`check(workload, inputs, records)` returns (failures, worst, extra):
failures lists what is wrong, worst maps each toleranced check to the
largest error seen as a share of its tolerance, and extra holds figures the
traced run reports (the oracle's largest s-wave error).
"""

from __future__ import annotations

import math

from scipy.optimize import brentq
from scipy.special import jn_zeros, jv, lambertw

import workloads as wl


class _Report:
    def __init__(self):
        self.failures = []
        self.worst = {}

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def close(self, name: str, got, want: float, tol: float, label: str,
              abs_tol: float = 0.0) -> float:
        """got within tol (relative) or abs_tol of want; returns the
        relative error."""
        if got is None or not math.isfinite(got):
            self.fail(f"{label}: got {got!r}, want {want!r}")
            return math.inf
        err = abs(got - want)
        limit = max(tol * abs(want), abs_tol)
        self.worst[name] = max(self.worst.get(name, 0.0), err / limit)
        if err > limit:
            self.fail(f"{label}: got {got!r}, want {want!r} "
                      f"(error {err:.3g} > {limit:.3g})")
        return err / abs(want) if want else err

    def holds(self, condition: bool, label: str) -> None:
        if not condition:
            self.fail(label)


# --- oracle ------------------------------------------------------------------

# Numerov's global error is O(h^4 k^4) in the grid step h and the largest
# local wave number k, k^2 being the depth g of the well at r = 0 (for a
# critical coupling, g is the result itself).  A solve is held to
# NUMEROV_C (h k)^4 g, or to ORACLE_FLOOR relative where that is larger:
# rounding over 8000 steps moves the n = 0 critical coupling by up to 5e-11
# relative as mu varies.
NUMEROV_C = 0.01
ORACLE_FLOOR = 3e-10


def _numerov_tol(mu: float, g: float) -> float:
    h = 40.0 / mu / 8000  # the oracle's default grid, r_max = 40/mu
    return NUMEROV_C * (h * h * g) ** 2 * g


def exact_swave_critical(n: int, mu: float) -> float:
    """(j_{0,n+1} / 2)^2 mu^2: exponential well, s wave, n nodes."""
    return (jn_zeros(0, n + 1)[n] / 2.0) ** 2 * mu * mu


def exact_swave_energy(n: int, g: float, mu: float) -> float:
    """s-wave level with n nodes of -u'' - g e^{-mu r} u = E u.

    u = J_nu(2 sqrt(g) e^{-mu r/2} / mu) with nu = 2 sqrt(-E) / mu, and
    u(0) = 0 needs J_nu(2 sqrt(g)/mu) = 0; the level with n nodes is the
    (n+1)-th largest such nu."""
    x = 2.0 * math.sqrt(g) / mu
    grid = [x * i / 4000 for i in range(4001)]
    vals = [jv(nu, x) for nu in grid]
    roots = [brentq(lambda nu: jv(nu, x), a, b, xtol=1e-15, rtol=1e-15)
             for a, b, fa, fb in zip(grid, grid[1:], vals, vals[1:])
             if fa * fb < 0.0]
    roots.sort(reverse=True)
    nu = roots[n]
    return -(nu * mu / 2.0) ** 2


def _check_oracle(inputs, records, rep: _Report) -> dict:
    from etcrit import critical, identical, quantum

    worst_swave = 0.0
    scaled = {}  # (op, well, l, n) -> value / mu^2
    for op, rec in zip(inputs, records):
        if "error" in rec:
            continue
        value, mu, l, n = rec["value"], op["mu"], op["l"], op["n"]
        label = f"oracle {op['op']} {op['well']} l={l} n={n} mu={mu:.4g}"
        scaled[(op["op"], op["well"], l, n)] = value / (mu * mu)
        if op["well"] == "exponential" and l == 0:
            if op["op"] == "crit":
                want = exact_swave_critical(n, mu)
                err = rep.close("oracle.swave_critical", value, want,
                                ORACLE_FLOOR, label, _numerov_tol(mu, want))
                worst_swave = max(worst_swave, err)
            else:
                want = exact_swave_energy(n, op["g"], mu)
                rep.close("oracle.swave_energy", value, want,
                          ORACLE_FLOOR, label, _numerov_tol(mu, op["g"]))
        if op["well"] == "custom":
            continue
        well = wl.make_well(op["well"], mu)
        state = quantum.StateSpec(((n, l),), 3)
        if op["op"] == "crit":
            et = critical.critical_coupling(well, 2, 1.0, state).g_crit
        else:
            sol = identical.solve_energy(
                identical.IdenticalSystem(2, 1.0, op["g"], well), state)
            et = sol.energy if sol.bound else 0.0
        rep.holds(et > value, f"{label}: plain ET {et!r} is not above the "
                              f"oracle's {value!r}")

    for (kind, well, l, n), value in scaled.items():
        for other in ((kind, well, l, n + 1), (kind, well, l + 1, n)):
            if other in scaled:
                rep.holds(scaled[other] > value,
                          f"oracle {kind} {well}: {other[2:]} is not above "
                          f"{(l, n)}")
        if well == "custom" and (kind, "exponential", l, n) in scaled:
            rep.holds(value < scaled[(kind, "exponential", l, n)],
                      f"oracle {kind} (l={l}, n={n}): the deeper custom well "
                      f"is not below the exponential one")
    # every level of one (l, n) chain in the batch, not just neighbours
    for kind in ("crit", "energy"):
        for well in wl.ORACLE_CRIT_LEVELS:
            chain = sorted((n, v) for (k, w, l, n), v in scaled.items()
                           if k == kind and w == well and l == 0)
            rep.holds(all(a[1] < b[1] for a, b in zip(chain, chain[1:])),
                      f"oracle {kind} {well}: s-wave values do not rise "
                      f"with n")
    return {"oracle.crit_rel_err_max": worst_swave}


# --- et-identical ------------------------------------------------------------

ET_CRIT_TOL = 1e-10      # closed-form factor; the zero-energy radius is a
                         # Brent root at 1e-12 and enters to second order
ET_RATIO_TOL = 1e-12     # the ratio law holds to rounding
ET_ENERGY_TOL = 1e-9     # stationary radius from Brent at rel 1e-12
ET_IMPROVED_TOL = 1e-8   # fixed point stops at a 1e-10 relative step


def _derivatives(spec: dict):
    """(v, v', v'') of a well, written out analytically."""
    kind, mu = spec["kind"], spec["mu"]
    exp = math.exp
    if kind == "exponential":
        return (lambda r: exp(-mu * r), lambda r: -mu * exp(-mu * r),
                lambda r: mu * mu * exp(-mu * r))
    if kind == "yukawa":
        return (lambda r: exp(-mu * r) / (mu * r),
                lambda r: -exp(-mu * r) * (mu * r + 1.0) / (mu * r * r),
                lambda r: exp(-mu * r) * ((mu * r) ** 2 + 2.0 * mu * r + 2.0)
                / (mu * r ** 3))
    if kind == "gaussian":
        return (lambda r: exp(-(mu * r) ** 2),
                lambda r: -2.0 * mu * mu * r * exp(-(mu * r) ** 2),
                lambda r: (4.0 * mu ** 4 * r * r - 2.0 * mu * mu)
                * exp(-(mu * r) ** 2))
    if kind == "custom":
        return (lambda r: exp(-mu * r) * (1.0 + mu * r / 2.0),
                lambda r: -exp(-mu * r) * (mu + mu * mu * r) / 2.0,
                lambda r: exp(-mu * r) * mu ** 3 * r / 2.0)
    raise ValueError(kind)


def _stationary_radii(kin: float, c2: float, g: float, spec: dict) -> list:
    """Radii where kin / rho^3 = c2 g |v'(rho)| turns from above to below:
    minima of the reduced ET energy of a well."""
    _, v1, _ = _derivatives(spec)
    mu = spec["mu"]

    def f(rho):
        return kin / rho ** 3 + c2 * g * v1(rho)

    grid = [1e-4 / mu * (1e7) ** (i / 3999) for i in range(4000)]
    vals = []
    for rho in grid:
        try:
            vals.append(f(rho))
        except (OverflowError, ZeroDivisionError):
            vals.append(math.nan)
    return [brentq(f, a, b, xtol=1e-300, rtol=1e-15)
            for a, b, fa, fb in zip(grid, grid[1:], vals, vals[1:])
            if fa > 0.0 >= fb]


def et_energy_ref(spec: dict, n_particles: int, mass: float, q: float,
                  g: float):
    """Independent plain-ET energy for the global quantum number q, or None
    without a stationary point."""
    n = n_particles
    c2 = 0.5 * n * (n - 1)
    kind, mu = spec["kind"], spec["mu"]
    if kind == "exponential":
        z = (4.0 * (mu * q) ** 2 / (n * (n - 1) ** 2 * g * mass)) ** (1 / 3) / 3
        if z > math.exp(-1.0):
            return None
        w = lambertw(-z, 0).real
        return -c2 * g * (1.0 + 1.5 * w) * math.exp(3.0 * w)
    if kind == "power_law":
        p = spec["p"]
        a = n * q * q / (2.0 * mass * c2)
        b = c2 * g * mu ** p
        rho = (2.0 * a / (abs(p) * b)) ** (1.0 / (p + 2.0))
        return math.copysign(1.0 + p / 2.0, p) * b * rho ** p
    v, _, _ = _derivatives(spec)
    kin = n * q * q / (c2 * mass)
    energies = [n * (q / (math.sqrt(c2) * rho)) ** 2 / (2.0 * mass)
                - c2 * g * v(rho)
                for rho in _stationary_radii(kin, c2, g, spec)]
    return min(energies) if energies else None


def weight_ref(spec: dict, n_particles: int, mass: float, g: float,
               angular: float) -> float:
    """sqrt(3 + rho V''/V') at the angular-only stationary radius."""
    n = n_particles
    c2 = 0.5 * n * (n - 1)
    mu = spec["mu"]
    if spec["kind"] == "exponential":
        # rho^3 e^{-mu rho} = N A^2 / (c2^2 m g mu): with y = mu rho / 3,
        # y e^{-y} = s and the smaller root y = -W0(-s) is the minimum
        s = (mu * mu * n * angular ** 2 / (27.0 * c2 * c2 * mass * g)) ** (1 / 3)
        if s > math.exp(-1.0):
            raise ValueError("no angular-only stationary point")
        y = -lambertw(-s, 0).real
        return math.sqrt(3.0 - 3.0 * y)
    radii = _stationary_radii(n * angular ** 2 / (c2 * mass), c2, g, spec)
    if not radii:
        raise ValueError("no angular-only stationary point")
    rho = min(radii)
    _, v1, v2 = _derivatives(spec)
    return math.sqrt(3.0 + rho * v2(rho) / v1(rho))


def _split(pairs, dimension: int):
    radial = sum(n + 0.5 for n, _ in pairs)
    angular = sum(l + (dimension - 2) / 2.0 for _, l in pairs)
    return radial, angular


def improved_critical_ref(op: dict) -> float:
    """Root of g = K (w(g) R + A)^2 by brentq, below the plain value."""
    n, mass = op["N"], op["mass"]
    radial, angular = _split(op["pairs"], op["D"])
    k = wl.well_factor_exact(op["well"]) * 2.0 / (n * (n - 1) ** 2) / mass

    def defect(g):
        w = weight_ref(op["well"], n, mass, g, angular)
        return g - k * (w * radial + angular) ** 2

    hi = k * (2.0 * radial + angular) ** 2
    prev = defect(hi)
    for _ in range(200):
        lo = hi * 0.97
        try:
            val = defect(lo)
        except ValueError:
            break
        if (val > 0.0) != (prev > 0.0):
            return brentq(defect, lo, hi, xtol=1e-300, rtol=1e-15)
        hi, prev = lo, val
    raise ValueError("no fixed point below the plain critical coupling")


def _same_solution(a: dict, b: dict) -> bool:
    def eq(x, y):
        return x == y or (isinstance(x, float) and isinstance(y, float)
                          and math.isnan(x) and math.isnan(y))
    return all(eq(a[k], b[k]) for k in ("energy", "rho0", "p0", "bound",
                                         "stationary"))


def _check_et(inputs, records, rep: _Report) -> dict:
    for i, (op, rec) in enumerate(zip(inputs, records)):
        if "error" in rec:
            continue
        spec, kind = op["well"], op["op"]
        n, mass, pairs, dim = op["N"], op["mass"], op["pairs"], op["D"]
        label = (f"et {kind} {spec['kind']} N={n} D={dim} pairs={pairs} "
                 f"m={mass:.4g} g={op.get('g', 0.0):.4g}")
        q = wl.global_q(pairs, dim)
        if kind == "crit":
            if spec["kind"] == "power_law":
                if spec["p"] > 0:
                    rep.holds(rec["infinite"] and rec["g_crit"] is None,
                              f"{label}: repulsive power law is not infinite")
                else:
                    rep.holds(rec["g_crit"] == 0.0,
                              f"{label}: attractive power law is not 0")
                continue
            want = wl.plain_critical_exact(spec, n, mass, pairs, dim)
            rep.close("et.plain_critical", rec["g_crit"], want, ET_CRIT_TOL,
                      label)
            prev_op = inputs[i - 1] if i else None
            if (prev_op and prev_op["op"] == "crit"
                    and prev_op["well"] == spec and prev_op["N"] == n - 1
                    and prev_op["mass"] == mass and prev_op["D"] == dim
                    and "error" not in records[i - 1]
                    and all(p == [0, 0] for p in pairs + prev_op["pairs"])):
                ratio = rec["g_crit"] / records[i - 1]["g_crit"]
                rep.close("et.ratio_law", ratio, (n - 1) / n, ET_RATIO_TOL,
                          f"{label}: g_N / g_(N-1)")
        elif kind == "crit_improved":
            rep.close("et.improved_critical", rec["g_crit"],
                      improved_critical_ref(op), ET_IMPROVED_TOL, label)
        elif kind == "energy_improved" and op["weight"] == 2.0:
            rep.holds(_same_solution(rec, records[i + 1]),
                      f"{label}: weight 2 differs from the plain solve")
        else:
            if kind == "energy_improved":
                radial, angular = _split(pairs, dim)
                q = weight_ref(spec, n, mass, op["g"], angular) * radial \
                    + angular
            want = et_energy_ref(spec, n, mass, q, op["g"])
            confining = spec["kind"] == "power_law" and spec["p"] > 0
            if not confining and (want is None or want >= 0.0):
                rep.holds(not rec["bound"], f"{label}: bound, want unbound")
                continue
            rep.holds(rec["bound"], f"{label}: unbound, want E = {want!r}")
            rep.close(f"et.energy_{spec['kind']}", rec["energy"], want,
                      ET_ENERGY_TOL, label)
        if kind == "energy" and spec["kind"] not in ("exponential",
                                                     "power_law"):
            # E < 0 exactly above the plain critical coupling
            gc = wl.plain_critical_exact(spec, n, mass, pairs, dim)
            rep.holds(rec["bound"] == (op["g"] > gc),
                      f"{label}: bound is {rec['bound']} at g/g_crit = "
                      f"{op['g'] / gc:.4g}")
    return {}


# --- mixed-scan --------------------------------------------------------------

MIXED_NA1_TOL = 1e-12
# the side checks solve the energy this far (relative) from each reported
# critical value
MIXED_SIDE = 1e-7


def _mixed_bound(na: int, mb: float, g_aa: float, g_ab: float):
    """True when solve_energy_mixed finds E < 0, False when it finds no
    bound state, and the error text when it fails."""
    from etcrit import mixed, potentials, quantum
    from etcrit.errors import UnboundError
    well = potentials.make_builtin("exponential", 1.0)
    state_a = quantum.StateSpec(((0, 0),) * (na - 1), 3)
    state_b = quantum.StateSpec(((0, 0),), 3)
    system = mixed.MixedSystem(na, 1.0, mb, g_aa, g_ab, well, well)
    try:
        energy, _ = mixed.solve_energy_mixed(system, state_a, state_b)
    except UnboundError:
        return False
    except ArithmeticError as exc:  # neither bound nor unbound: a fault
        return f"{type(exc).__name__}: {exc}"
    return energy < 0.0


def _float(text: str):
    return float(text) if text else None


def _check_mixed(inputs, records, rep: _Report) -> dict:
    for scan, rec in zip(inputs, records):
        rows = wl.csv_rows(rec["csv"])
        mb = scan["mb"]
        tag = f"mixed {scan['kind']} mb={mb:.4g}"
        if rec["exit"] != 0 or len(rows) != wl.scan_size(scan):
            continue  # counted as failed
        if scan["kind"] == "energy":
            energies = [_float(row["energy"]) for row in rows]
            for row, energy in zip(rows, energies):
                rep.holds(row["status"] == "ok" and energy is not None
                          and energy < 0.0,
                          f"{tag} Na={scan['Na']} g_ab={row['gab']}: not "
                          f"bound ({row['status']} {row['detail']})")
            if None not in energies:
                rep.holds(all(a > b for a, b in zip(energies, energies[1:])),
                          f"{tag} Na={scan['Na']}: energies {energies} do "
                          f"not fall as g_ab grows")
            continue
        for row in rows:
            if row["status"] == "error":
                continue  # counted as failed
            na = int(row["Na"])
            label = f"{tag} Na={na} hold={row['held_value']}"
            value = _float(row["critical_value"])
            if scan["kind"] == "crit-gab":
                g_aa = scan["g_aa"]
                expect = na == 1 or g_aa < wl.self_binding_gaa(na)
                rep.holds((row["status"] == "ok") == expect,
                          f"{label}: status {row['status']}, but the "
                          f"subsystem {'does not bind' if expect else 'binds'}"
                          f" by itself")
                if na == 1 and value is not None:
                    rep.close("mixed.na1_closed_form", value,
                              wl.na1_critical_gab(mb), MIXED_NA1_TOL, label)
                if row["status"] != "ok" or value is None:
                    continue
                strong = _mixed_bound(na, mb, g_aa, value * (1 + MIXED_SIDE))
                weak = _mixed_bound(na, mb, g_aa, value * (1 - MIXED_SIDE))
            else:
                g_ab = scan["g_ab"]
                rep.holds(row["status"] == "ok",
                          f"{label}: {row['status']} ({row['detail']})")
                if row["status"] != "ok" or value is None:
                    continue
                step = abs(value) * MIXED_SIDE
                strong = _mixed_bound(na, mb, value + step, g_ab)
                weak = _mixed_bound(na, mb, value - step, g_ab)
            rep.holds(strong is True and weak is False,
                      f"{label}: critical {value!r} but bound "
                      f"{strong} just above and {weak} just below")
    return {}


def check(workload: str, inputs: list, records: list):
    """(failures, worst share of each tolerance, extra figures)."""
    rep = _Report()
    run = {"oracle": _check_oracle, "et-identical": _check_et,
           "mixed-scan": _check_mixed}[workload]
    extra = run(inputs, records, rep)
    return rep.failures, rep.worst, extra
