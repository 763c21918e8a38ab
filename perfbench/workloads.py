"""Seeded inputs and one round of operations for each benchmark workload.

`make_inputs` turns a seed into plain data (numbers and strings only), which
the checks read back.  `build` turns that data into the objects the package
takes, `execute` makes every public solver call of one round, and `collect`
turns the raw results into plain records.  Only `execute` is timed.

This module imports nothing but the standard library and etcrit, so the
set-up time measured in a fresh interpreter is the package's own.
"""

from __future__ import annotations

import csv
import io
import math
import os
import random

WORKLOADS = ("oracle", "et-identical", "mixed-scan")

# --- reference well data -----------------------------------------------------
#
# The plain ET critical coupling is factor * 2 / (N (N-1)^2) * Q^2 / m, where
# the factor 1 / (rho0^2 v(rho0)) is known in closed form for every well the
# workloads use; the input generator places couplings relative to it and the
# checks compare with it.

# The custom well exp(-a r)(1 + a r/2): 2 v + r v' = 0 at a r = (1 + sqrt 17)/2.
_CUSTOM_X0 = (1.0 + math.sqrt(17.0)) / 2.0


def custom_expr(a: float) -> str:
    """Expression of the custom well with inverse range a."""
    return f"exp(-{a!r}*r)*(1+{a!r}*r/2)"


def well_factor_exact(spec: dict) -> float:
    """Closed-form 1 / (rho0^2 v(rho0)) of a genuine well."""
    kind, mu = spec["kind"], spec["mu"]
    if kind == "exponential":
        return math.e ** 2 / 4.0 * mu * mu
    if kind in ("yukawa", "gaussian"):
        return math.e * mu * mu
    if kind == "custom":
        x = _CUSTOM_X0
        return mu * mu / (x * x * math.exp(-x) * (1.0 + x / 2.0))
    raise ValueError(f"no critical coupling for {kind!r}")


def global_q(pairs, dimension: int) -> float:
    """Q = sum(2 n + l + D/2) over the N-1 pairs (D >= 2)."""
    return sum(2 * n + l + dimension / 2.0 for n, l in pairs)


def plain_critical_exact(spec: dict, n_particles: int, mass: float,
                         pairs, dimension: int) -> float:
    q = global_q(pairs, dimension)
    n = n_particles
    return well_factor_exact(spec) * 2.0 / (n * (n - 1) ** 2) * q * q / mass


# --- oracle ------------------------------------------------------------------

ORACLE_G = 40.0  # energies at g = 40 mu^2; the (l=0, n=3) level extends the box
ORACLE_CRIT_LEVELS = {
    "exponential": ((0, 0), (0, 1), (0, 3), (0, 15), (1, 0), (2, 0)),
    "yukawa": ((0, 0), (1, 0), (2, 0)),
    "gaussian": ((0, 0), (1, 0)),
    "custom": ((0, 0), (1, 0)),
}
ORACLE_ENERGY_LEVELS = {
    "exponential": ((0, 0), (0, 1), (0, 3), (1, 0), (2, 0)),
    "yukawa": ((0, 0),),
    "gaussian": ((0, 0),),
    "custom": ((0, 0), (1, 0)),
}
MU_RANGE = (0.5, 2.0)


def _oracle_inputs(rng: random.Random) -> list:
    ops = []
    for kind, levels in ORACLE_CRIT_LEVELS.items():
        for l, n in levels:
            ops.append({"op": "crit", "well": kind,
                        "mu": rng.uniform(*MU_RANGE), "l": l, "n": n})
    for kind, levels in ORACLE_ENERGY_LEVELS.items():
        for l, n in levels:
            mu = rng.uniform(*MU_RANGE)
            ops.append({"op": "energy", "well": kind, "mu": mu, "l": l,
                        "n": n, "g": ORACLE_G * mu * mu})
    return ops


def make_well(kind: str, mu: float, p: float | None = None):
    """The package's well of the given kind, range and power-law exponent."""
    from etcrit import potentials
    if kind == "custom":
        return potentials.parse_custom(custom_expr(mu), mu)
    if kind == "power_law":
        return potentials.make_builtin(kind, mu, exponent=p)
    return potentials.make_builtin(kind, mu)


def _build_oracle(ops: list) -> list:
    from etcrit import oracle
    built = []
    for op in ops:
        well = make_well(op["well"], op["mu"])
        if op["op"] == "crit":
            built.append((op["l"], op["n"], well))
        else:
            built.append((oracle.RadialProblem(op["l"], well, op["g"]),
                          op["n"]))
    return built


def _execute_oracle(ops: list, built: list, between) -> list:
    from etcrit import oracle
    out = []
    for op, args in zip(ops, built):
        try:
            if op["op"] == "crit":
                out.append(oracle.radial_critical_coupling(*args))
            else:
                out.append(oracle.radial_eigenvalue(*args))
        except Exception as exc:  # one failed operation, recorded as such
            out.append(exc)
        between()
    return out


# --- et-identical ------------------------------------------------------------

ET_WELLS = ("exponential", "yukawa", "gaussian", "custom")
ET_N_RANGE = (2, 40)
ET_MASS_RANGE = (0.5, 2.0)
ET_POWER_RANGES = ((0.5, 2.0), (-1.5, -0.5))
# couplings in units of the plain critical coupling; with the jitter every
# value stays at least 10% away from it
ET_ENERGY_RATIOS = (0.7, 1.15, 1.5, 2.5, 5.0, 10.0)
ET_IMPROVED_RATIOS = (2.0, 4.0, 8.0)
ET_JITTER = (0.97, 1.03)
ET_REPEATS = 2  # independent draws per well in one round


def _strata(rng: random.Random, k: int, lo: int, hi: int) -> list:
    """k integers, the i-th drawn from the i-th of k equal parts of
    [lo, hi]: every seed spreads its draws over the whole range."""
    width = (hi - lo + 1) / k
    return [rng.randint(lo + int(i * width), lo + int((i + 1) * width) - 1)
            for i in range(k)]


def _et_system(rng: random.Random, well: dict, n_particles: int, i: int,
               need_angular: bool = False) -> dict:
    """The i-th system of a group: D and the excitation alternate with i."""
    dimension = 2 + (i // 2) % 2
    pairs = [[0, 0] for _ in range(n_particles - 1)]
    if i % 2:
        n, l = 0, 0
        while (n, l) == (0, 0):
            n, l = rng.randint(0, 2), rng.randint(0, 2)
        pairs[rng.randrange(n_particles - 1)] = [n, l]
    if need_angular and dimension == 2 and all(l == 0 for _, l in pairs):
        dimension = 3  # D = 2 with l = 0 everywhere has no angular part
    return {"well": well, "N": n_particles, "mass": rng.uniform(*ET_MASS_RANGE),
            "D": dimension, "pairs": pairs}


def _et_group(rng: random.Random, well: dict, k: int,
              need_angular: bool = False) -> list:
    return [_et_system(rng, well, n, i, need_angular)
            for i, n in enumerate(_strata(rng, k, *ET_N_RANGE))]


def _et_inputs(rng: random.Random) -> list:
    wells = [{"kind": kind, "mu": rng.uniform(*MU_RANGE)} for kind in ET_WELLS]
    powers = [{"kind": "power_law", "mu": rng.uniform(*MU_RANGE),
               "p": rng.uniform(*r)} for r in ET_POWER_RANGES]
    ops = []
    ratio_n = _strata(rng, ET_REPEATS * len(wells), 3, ET_N_RANGE[1])
    for well, n0 in zip(wells * ET_REPEATS, ratio_n):
        # a consecutive pair of ground states for the ratio law
        mass = rng.uniform(*ET_MASS_RANGE)
        dimension = rng.choice((2, 3))
        for n_particles in (n0 - 1, n0):
            ops.append({"op": "crit", "well": well, "N": n_particles,
                        "mass": mass, "D": dimension,
                        "pairs": [[0, 0]] * (n_particles - 1)})
        ops += [{"op": "crit", **system} for system in _et_group(rng, well, 6)]
        ops += [{"op": "crit_improved", **system}
                for system in _et_group(rng, well, 4, need_angular=True)]
        for system in _et_group(rng, well, 2):
            gc = plain_critical_exact(well, system["N"], system["mass"],
                                      system["pairs"], system["D"])
            for ratio in ET_ENERGY_RATIOS:
                ops.append({"op": "energy", **system,
                            "g": gc * ratio * rng.uniform(*ET_JITTER)})
        for system in _et_group(rng, well, 1, need_angular=True):
            gc = plain_critical_exact(well, system["N"], system["mass"],
                                      system["pairs"], system["D"])
            for ratio in ET_IMPROVED_RATIOS:
                g = gc * ratio * rng.uniform(*ET_JITTER)
                for op, weight in (("energy_improved", None),
                                   ("energy_improved", 2.0), ("energy", None)):
                    ops.append({"op": op, **system, "g": g, "weight": weight})
    for well in powers:
        ops += [{"op": "crit", **system}
                for system in _et_group(rng, well, ET_REPEATS)]
        for system in _et_group(rng, well, ET_REPEATS):
            for _ in range(3):
                ops.append({"op": "energy", **system,
                            "g": math.exp(rng.uniform(-2.0, 2.0))})
    exp_well = wells[0]
    for i, system in enumerate(_et_group(rng, exp_well, 10 * ET_REPEATS)):
        gc = plain_critical_exact(exp_well, system["N"], system["mass"],
                                  system["pairs"], system["D"])
        ratio = ET_ENERGY_RATIOS[i % len(ET_ENERGY_RATIOS)]
        ops.append({"op": "energy_closed", **system,
                    "g": gc * ratio * rng.uniform(*ET_JITTER)})
    return ops


def _build_et(ops: list) -> list:
    from etcrit import identical, quantum
    wells = {}
    built = []
    for op in ops:
        spec = op["well"]
        key = tuple(sorted(spec.items()))
        if key not in wells:
            wells[key] = make_well(spec["kind"], spec["mu"], spec.get("p"))
        well = wells[key]
        state = quantum.StateSpec(tuple(map(tuple, op["pairs"])), op["D"])
        if op["op"] in ("crit", "crit_improved"):
            built.append((well, op["N"], op["mass"], state))
        elif op["op"] == "energy_closed":
            system = identical.IdenticalSystem(op["N"], op["mass"], op["g"], well)
            built.append((system, quantum.global_quantum_number(state)))
        else:
            system = identical.IdenticalSystem(op["N"], op["mass"], op["g"], well)
            built.append((system, state))
    return built


def _execute_et(ops: list, built: list, between) -> list:
    from etcrit import critical, identical
    out = []
    for op, args in zip(ops, built):
        kind = op["op"]
        try:
            if kind == "crit":
                out.append(critical.critical_coupling(*args))
            elif kind == "crit_improved":
                out.append(critical.critical_coupling_improved(*args))
            elif kind == "energy":
                out.append(identical.solve_energy(*args))
            elif kind == "energy_improved":
                out.append(identical.solve_energy_improved(
                    *args, weight=op["weight"]))
            else:
                out.append(identical.energy_exponential_closed(*args))
        except Exception as exc:  # one failed operation, recorded as such
            out.append(exc)
        between()
    return out


# --- mixed-scan --------------------------------------------------------------

MIXED_NA = 12
MIXED_MB_RANGES = ((1.0, 2.0), (2.0, 5.0))  # and a static source
MIXED_REPEATS = 3  # independent draws of the three scan triples per round
# The held g_aa of the i-th crit-gab scan lies between the self-binding
# thresholds 9 e^2 / (8 Na) of Na = k + 1 and Na = k, k = MIXED_GAA_NA[i],
# so that the Na > k rows are unbound in every seed.  A held g_aa just above
# a threshold can still get a critical g_ab (up to 0.3% above it for Na = 9
# and 11 with mb >= 1, 8% for Na = 2 and mb = 0.5), so each window starts 4%
# above its lower threshold.
MIXED_GAA_NA = (8, 10, 12)
MIXED_GAA_BAND = 0.04
MIXED_HOLD_GAB_RANGE = (0.45, 0.55)  # held g_ab in units of the Na = 1 value
MIXED_ENERGY_GAA_RANGE = (0.2, 0.6)
MIXED_ENERGY_GAB = tuple(1.1 + 0.15 * k for k in range(6))


def na1_critical_gab(mb: float) -> float:
    """Closed-form critical g_ab for Na = 1, unit masses and exponential
    wells: 9 c e^2 / 32 with c = (1 + mb) / mb (c = 1 for a static source)."""
    c = 1.0 if math.isinf(mb) else (1.0 + mb) / mb
    return 9.0 * c * math.e ** 2 / 32.0


def self_binding_gaa(na: int) -> float:
    """Plain ET critical coupling of Na identical unit-mass particles in the
    exponential well, ground state in D = 3: 9 e^2 / (8 Na)."""
    return 9.0 * math.e ** 2 / (8.0 * na)


def _draw_held_gaa(rng: random.Random, na_bound: int) -> float:
    """g_aa at which exactly the Na > na_bound subsystems bind by themselves."""
    hi = self_binding_gaa(na_bound)
    lo = self_binding_gaa(na_bound + 1) * (1.0 + MIXED_GAA_BAND)
    return rng.uniform(lo, hi)


def _mixed_inputs(rng: random.Random) -> list:
    mbs = [mb for _ in range(MIXED_REPEATS)
           for mb in [rng.uniform(*r) for r in MIXED_MB_RANGES] + [math.inf]]
    common = ["--ma", "1", "--well-aa", "exponential",
              "--well-ab", "exponential", "--format", "csv"]
    scans = []
    for mb, na_bound in zip(mbs, MIXED_GAA_NA * MIXED_REPEATS):
        mb_text = "inf" if math.isinf(mb) else repr(mb)
        g_aa = _draw_held_gaa(rng, na_bound)
        scans.append({"kind": "crit-gab", "mb": mb, "g_aa": g_aa,
                      "argv": ["scan", "crit-mixed", "--vary", "Na",
                               "--values", ",".join(map(str, range(1, MIXED_NA + 1))),
                               "--hold", f"gaa={g_aa!r}", "--solve", "gab",
                               "--mb", mb_text] + common})
        g_ab = na1_critical_gab(mb) * rng.uniform(*MIXED_HOLD_GAB_RANGE)
        scans.append({"kind": "crit-gaa", "mb": mb, "g_ab": g_ab,
                      "argv": ["scan", "crit-mixed", "--vary", "Na",
                               "--values", ",".join(map(str, range(2, MIXED_NA + 1))),
                               "--hold", f"gab={g_ab!r}", "--solve", "gaa",
                               "--mb", mb_text] + common})
        na = rng.randint(2, MIXED_NA)
        g_aa = rng.uniform(*MIXED_ENERGY_GAA_RANGE)
        values = [na1_critical_gab(mb) * r for r in MIXED_ENERGY_GAB]
        scans.append({"kind": "energy", "mb": mb, "Na": na, "g_aa": g_aa,
                      "argv": ["scan", "energy-mixed", "--vary", "gab",
                               "--values", ",".join(map(repr, values)),
                               "--Na", str(na), "--gaa", repr(g_aa),
                               "--mb", mb_text] + common})
    return scans


def _build_mixed(scans: list, scratch: str) -> list:
    import etcrit.cli  # noqa: F401  (the scans run through it)
    return [scan["argv"] + ["--output", os.path.join(scratch, f"scan-{i}.csv")]
            for i, scan in enumerate(scans)]


def _execute_mixed(scans: list, built: list, between) -> list:
    from etcrit import cli
    codes = []
    for argv in built:
        codes.append(cli.run(argv))
        between()
    return codes


def _rows_mixed(built: list, codes: list) -> list:
    """Per scan: the exit code and the CSV text it wrote."""
    out = []
    for argv, code in zip(built, codes):
        try:
            with open(argv[-1], encoding="utf-8") as fh:
                text = fh.read()
        except OSError:
            text = ""
        out.append({"exit": code, "csv": text})
        if os.path.exists(argv[-1]):
            os.remove(argv[-1])
    return out


# --- common entry points -----------------------------------------------------

def make_inputs(workload: str, seed: int) -> list:
    """Plain-data inputs of one workload for one seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "oracle":
        return _oracle_inputs(rng)
    if workload == "et-identical":
        return _et_inputs(rng)
    if workload == "mixed-scan":
        return _mixed_inputs(rng)
    raise ValueError(f"unknown workload {workload!r}")


def build(workload: str, inputs: list, scratch: str) -> list:
    """Package objects (or CLI argument lists) for the inputs."""
    if workload == "oracle":
        return _build_oracle(inputs)
    if workload == "et-identical":
        return _build_et(inputs)
    return _build_mixed(inputs, scratch)


def _nothing() -> None:
    pass


def execute(workload: str, inputs: list, built: list, between=_nothing
            ) -> list:
    """One round: every public call of the workload, in order, with
    between() after each (the timer's segment boundary)."""
    if workload == "oracle":
        return _execute_oracle(inputs, built, between)
    if workload == "et-identical":
        return _execute_et(inputs, built, between)
    return _execute_mixed(inputs, built, between)


def _record(value):
    if isinstance(value, Exception):
        return {"error": f"{type(value).__name__}: {value}"}
    if isinstance(value, float):
        return {"value": value}
    if isinstance(value, tuple) or not hasattr(value, "__dataclass_fields__"):
        raise TypeError(f"unexpected result {value!r}")
    return {k: getattr(value, k) for k in value.__dataclass_fields__}


def collect(workload: str, built: list, raw: list) -> list:
    """Plain records of one round's results, one per input entry."""
    if workload == "mixed-scan":
        return _rows_mixed(built, raw)
    return [_record(value) for value in raw]


def scan_size(scan: dict) -> int:
    """Rows one scan writes: one per value of its --values list."""
    argv = scan["argv"]
    return len(argv[argv.index("--values") + 1].split(","))


def operation_count(workload: str, inputs: list) -> int:
    """Public solver calls in one round (one per scan row for mixed-scan)."""
    if workload == "mixed-scan":
        return sum(map(scan_size, inputs))
    return len(inputs)


def csv_rows(text: str) -> list:
    """Rows of a scan's CSV output as dicts keyed by the header."""
    lines = list(csv.reader(io.StringIO(text)))
    return [dict(zip(lines[0], row)) for row in lines[1:]] if lines else []


def failed_count(workload: str, inputs: list, records: list) -> int:
    """Operations of one round that raised, or ended in an error row; a scan
    that exits non-zero or writes the wrong number of rows fails whole."""
    if workload != "mixed-scan":
        return sum("error" in rec for rec in records)
    failed = 0
    for scan, rec in zip(inputs, records):
        rows = csv_rows(rec["csv"])
        if rec["exit"] != 0 or len(rows) != scan_size(scan):
            failed += scan_size(scan)
        else:
            failed += sum(row["status"] == "error" for row in rows)
    return failed
