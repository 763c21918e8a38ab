"""Command-line front end.

Subcommands: crit-id, energy-id, crit-mixed, energy-mixed, oracle, scan,
validate.  Natural units throughout (hbar = 1): masses, couplings, and the
inverse length mu are plain numbers in those units.

Exit codes: 0 success, 2 physically unbound / no solution (not a failure),
1 usage or convergence errors (diagnostics on stderr).

Output formats: an aligned table (6 significant figures), CSV with a fixed
header and full double precision, or JSON (array of row objects with the
same field names).  A --config file holds flag defaults as flat key=value
lines; explicit flags win.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from . import acceptance, critical, identical, mixed, oracle
from .errors import EtcritError, UnboundError
from .mixed import INFINITE, MixedSystem
from .potentials import PotentialWell, make_builtin, parse_custom
from .quantum import StateSpec, parse_state

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNBOUND = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to exit code 2; we reserve 2 for the
    unbound outcome, so raise instead and let run() return 1."""

    def error(self, message):
        raise _UsageError(message)


@dataclass
class ScanSpec:
    """A one-dimensional parameter scan around a base computation."""

    command: str
    vary: str
    values: List[object]
    held: Dict[str, object] = field(default_factory=dict)


# --- shared flag plumbing ----------------------------------------------------

_WELL_CHOICES = ("yukawa", "exponential", "gaussian", "power_law", "custom")


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("table", "csv", "json"),
                   default="table", help="output format (default: table)")
    p.add_argument("--output", metavar="PATH",
                   help="write results to PATH instead of stdout")
    p.add_argument("--config", metavar="FILE",
                   help="flat key=value file with flag defaults")


def _add_well_flags(p: argparse.ArgumentParser, suffix: str = "") -> None:
    tag = f"-{suffix}" if suffix else ""
    p.add_argument(f"--well{tag}", default="exponential",
                   help=f"well shape: {', '.join(_WELL_CHOICES)} "
                        "(default: exponential)")
    p.add_argument(f"--exponent{tag}", type=float, default=None,
                   help="power-law exponent p (> -2, nonzero)")
    p.add_argument(f"--expr{tag}", default=None,
                   help="expression in r for --well custom, e.g. 'exp(-r^2)'")


def _well_from(args, suffix: str = "", mu: Optional[float] = None) -> PotentialWell:
    tag = f"_{suffix}" if suffix else ""
    kind = getattr(args, f"well{tag}")
    if mu is None:
        mu = args.mu
    if kind == "custom":
        expr = getattr(args, f"expr{tag}")
        if expr is None:
            raise _UsageError(f"--well{'-' + suffix if suffix else ''} custom "
                              "needs an expression (--expr flag)")
        return parse_custom(expr, mu)
    if kind == "power_law":
        return make_builtin(kind, mu, exponent=getattr(args, f"exponent{tag}"))
    if kind not in _WELL_CHOICES:
        raise _UsageError(f"unknown well kind {kind!r}")
    return make_builtin(kind, mu)


def _parse_mass_b(text: str) -> float:
    if str(text).strip().lower() in ("inf", "infinite", "infinity"):
        return INFINITE
    return float(text)


def _fmt(value, table: bool) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isinf(value):
            return "inf"
        return format(value, ".6g") if table else repr(value)
    return str(value)


def rows_to_csv(header: Sequence[str], rows: Sequence[Dict[str, object]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(row.get(k), table=False) for k in header])
    return buf.getvalue()


def csv_to_rows(text: str) -> Tuple[List[str], List[List[str]]]:
    reader = csv.reader(io.StringIO(text))
    cells = list(reader)
    return cells[0], cells[1:]


def rows_to_json(header: Sequence[str], rows: Sequence[Dict[str, object]]) -> str:
    out = []
    for row in rows:
        item = {}
        for k in header:
            v = row.get(k)
            if isinstance(v, float) and math.isinf(v):
                v = "inf"
            item[k] = v
        out.append(item)
    return json.dumps(out, indent=2) + "\n"


def rows_to_table(header: Sequence[str], rows: Sequence[Dict[str, object]]) -> str:
    cells = [[_fmt(row.get(k), table=True) for k in header] for row in rows]
    widths = [max(len(h), *(len(c[i]) for c in cells)) if cells else len(h)
              for i, h in enumerate(header)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    for c in cells:
        lines.append("  ".join(x.ljust(w) for x, w in zip(c, widths)).rstrip())
    return "\n".join(lines) + "\n"


def _emit(header, rows, fmt: str, path: Optional[str]) -> None:
    if fmt == "csv":
        text = rows_to_csv(header, rows)
    elif fmt == "json":
        text = rows_to_json(header, rows)
    else:
        text = rows_to_table(header, rows)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# --- computations ------------------------------------------------------------

_HEADERS = {
    "crit-id": ["well", "mu", "N", "mass", "D", "state", "method", "status",
                "g_crit", "rho0", "factor", "detail"],
    "energy-id": ["well", "mu", "N", "mass", "D", "state", "g", "method",
                  "status", "energy", "rho0", "p0", "q_eff", "detail"],
    "crit-mixed": ["Na", "ma", "mb", "well_aa", "well_ab", "mu", "state_a",
                   "state_b", "D", "hold", "held_value", "solve", "status",
                   "critical_value", "r_aa", "r_ab", "p_a", "p_ab",
                   "mu_reduced", "detail"],
    "energy-mixed": ["Na", "ma", "mb", "well_aa", "well_ab", "mu", "gaa",
                     "gab", "state_a", "state_b", "D", "status", "energy",
                     "r_aa", "r_ab", "p_a", "p_ab", "detail"],
    "oracle": ["well", "mu", "l", "n", "g", "quantity", "r_max", "points",
               "status", "value", "detail"],
}


def _compute_crit_id(args) -> Dict[str, object]:
    well = _well_from(args)
    n = args.N
    state = _state_for_identical(args, n)
    row = {"well": args.well, "mu": args.mu, "N": n, "mass": args.mass,
           "D": args.D, "state": _state_display(args), "method": args.method,
           "status": "ok", "detail": ""}
    if args.method == "improved":
        result = critical.critical_coupling_improved(well, n, args.mass, state)
    else:
        result = critical.critical_coupling(well, n, args.mass, state)
    row["g_crit"] = None if result.infinite else result.g_crit
    row["rho0"] = result.rho0
    row["factor"] = result.factor
    if result.infinite:
        row["detail"] = "no finite critical coupling (repulsive power law)"
    return row


def _compute_energy_id(args) -> Dict[str, object]:
    well = _well_from(args)
    n = args.N
    state = _state_for_identical(args, n)
    sysn = identical.IdenticalSystem(n, args.mass, args.g, well)
    if args.method == "improved":
        sol = identical.solve_energy_improved(sysn, state)
    else:
        sol = identical.solve_energy(sysn, state)
    row = {"well": args.well, "mu": args.mu, "N": n, "mass": args.mass,
           "D": args.D, "state": _state_display(args), "g": args.g,
           "method": args.method, "detail": ""}
    if not sol.stationary:
        row.update(status="unbound", energy=None, rho0=None, p0=None,
                   q_eff=sol.q_eff, detail="no stationary point")
    else:
        row.update(status="ok" if sol.bound else "unbound",
                   energy=sol.energy, rho0=sol.rho0, p0=sol.p0,
                   q_eff=sol.q_eff)
        if not sol.bound:
            row["detail"] = "stationary point exists but E >= 0"
    return row


def _state_for_identical(args, n: int) -> StateSpec:
    if getattr(args, "n", None) is not None or getattr(args, "l", None) is not None:
        if args.state != "ground":
            raise _UsageError("--n/--l conflicts with an explicit --state")
        if n != 2:
            raise _UsageError("--n/--l shorthand needs --N 2; use --state")
        nn = args.n if args.n is not None else 0
        ll = args.l if args.l is not None else 0
        return StateSpec(((nn, ll),), args.D)
    return parse_state(args.state, n, args.D)


def _state_display(args) -> str:
    if getattr(args, "n", None) is not None or getattr(args, "l", None) is not None:
        nn = args.n if args.n is not None else 0
        ll = args.l if args.l is not None else 0
        return f"({nn},{ll})"
    return args.state


def _mixed_system(args, g_aa: float, g_ab: float) -> MixedSystem:
    mu_aa = args.mu_aa if args.mu_aa is not None else args.mu
    mu_ab = args.mu_ab if args.mu_ab is not None else args.mu
    well_aa = _well_from(args, "aa", mu_aa)
    well_ab = _well_from(args, "ab", mu_ab)
    return MixedSystem(args.Na, args.ma, args.mb, g_aa, g_ab,
                       well_aa, well_ab)


def _mixed_states(args) -> Tuple[StateSpec, StateSpec]:
    return (parse_state(args.state_a, args.Na, args.D),
            parse_state(args.state_b, 2, args.D))


def _compute_crit_mixed(args) -> Dict[str, object]:
    hold_kind, hold_value = args.hold
    if hold_kind == args.solve:
        raise _UsageError("--hold and --solve name the same coupling")
    row = {"Na": args.Na, "ma": args.ma, "mb": args.mb,
           "well_aa": args.well_aa, "well_ab": args.well_ab, "mu": args.mu,
           "state_a": args.state_a, "state_b": args.state_b, "D": args.D,
           "hold": hold_kind, "held_value": hold_value, "solve": args.solve,
           "status": "ok", "detail": ""}
    state_a, state_b = _mixed_states(args)
    try:
        if args.solve == "gab":
            sysm = _mixed_system(args, g_aa=hold_value, g_ab=1.0)
            result = mixed.critical_coupling_ab(sysm, state_a, state_b)
        else:
            sysm = _mixed_system(args, g_aa=0.0, g_ab=hold_value)
            result = mixed.critical_coupling_aa(sysm, state_a, state_b)
    except UnboundError as exc:
        row.update(status="unbound", critical_value=None, r_aa=None,
                   r_ab=None, p_a=None, p_ab=None, mu_reduced=None,
                   detail=str(exc))
        return row
    geo = result.geometry
    row.update(critical_value=result.critical_value, r_aa=geo.r_aa,
               r_ab=geo.r_ab, p_a=geo.p_a, p_ab=geo.p_ab,
               mu_reduced=result.mu_ab)
    return row


def _compute_energy_mixed(args) -> Dict[str, object]:
    row = {"Na": args.Na, "ma": args.ma, "mb": args.mb,
           "well_aa": args.well_aa, "well_ab": args.well_ab, "mu": args.mu,
           "gaa": args.gaa, "gab": args.gab, "state_a": args.state_a,
           "state_b": args.state_b, "D": args.D, "status": "ok", "detail": ""}
    state_a, state_b = _mixed_states(args)
    sysm = _mixed_system(args, g_aa=args.gaa, g_ab=args.gab)
    try:
        energy, geo = mixed.solve_energy_mixed(sysm, state_a, state_b)
    except UnboundError as exc:
        row.update(status="unbound", energy=None, r_aa=None, r_ab=None,
                   p_a=None, p_ab=None, detail=str(exc))
        return row
    row.update(energy=energy, r_aa=geo.r_aa, r_ab=geo.r_ab, p_a=geo.p_a,
               p_ab=geo.p_ab)
    if energy >= 0.0:
        row["status"] = "unbound"
        row["detail"] = "stationary energy is non-negative"
    return row


def _compute_oracle(args) -> Dict[str, object]:
    well = _well_from(args)
    if args.critical and args.exact:
        raise _UsageError("--critical conflicts with --exact")
    quantity = "critical" if args.critical else "energy"
    if args.exact:
        quantity = "exact-swave-critical"
    grid = None
    if args.r_max is not None or args.points is not None:
        r_max = args.r_max if args.r_max is not None else 40.0 / well.mu
        points = args.points if args.points is not None else 8000
        grid = oracle.GridSpec(r_max, points)
    row = {"well": args.well, "mu": args.mu, "l": args.l, "n": args.n,
           "g": args.g, "quantity": quantity,
           "r_max": grid.r_max if grid else 40.0 / well.mu,
           "points": grid.points if grid else 8000,
           "status": "ok", "detail": ""}
    try:
        if quantity == "exact-swave-critical":
            if args.l != 0:
                raise _UsageError("--exact applies to l = 0 only")
            row["value"] = oracle.exact_swave_critical(args.n)
        elif quantity == "critical":
            row["value"] = oracle.radial_critical_coupling(
                args.l, args.n, well, grid,
                kinetic_coefficient=args.kinetic_coefficient)
        else:
            if args.g is None:
                raise _UsageError("oracle energies need --g")
            prob = oracle.RadialProblem(args.l, well, args.g,
                                        args.kinetic_coefficient)
            row["value"] = oracle.radial_eigenvalue(prob, args.n, grid)
    except UnboundError as exc:
        row.update(status="unbound", value=None, detail=str(exc))
    return row


_COMPUTE = {
    "crit-id": _compute_crit_id,
    "energy-id": _compute_energy_id,
    "crit-mixed": _compute_crit_mixed,
    "energy-mixed": _compute_energy_mixed,
    "oracle": _compute_oracle,
}


# --- scans -------------------------------------------------------------------

def _int_value(text: str) -> int:
    return int(float(text))


def _method_value(text: str) -> str:
    if text not in ("plain", "improved"):
        raise ValueError(f"method must be plain or improved, got {text!r}")
    return text


_SCANNABLE = {
    "crit-id": {"N": _int_value, "mass": float, "mu": float,
                "n": _int_value, "l": _int_value, "method": _method_value},
    "energy-id": {"N": _int_value, "mass": float, "mu": float, "g": float,
                  "n": _int_value, "l": _int_value, "method": _method_value},
    "crit-mixed": {"Na": _int_value, "ma": float, "mb": _parse_mass_b,
                   "hold": float, "mu": float},
    "energy-mixed": {"Na": _int_value, "ma": float, "mb": _parse_mass_b,
                     "gaa": float, "gab": float, "mu": float},
    "oracle": {"g": float, "l": _int_value, "n": _int_value, "mu": float},
}


def _scan_values(args) -> List[object]:
    if args.values is not None:
        raw = [v for v in args.values.split(",") if v.strip()]
    elif args.range is not None:
        parts = args.range.split(":")
        if len(parts) != 3:
            raise _UsageError("--range needs start:stop:step")
        start, stop, step = (float(p) for p in parts)
        if step <= 0:
            raise _UsageError("--range step must be positive")
        count = int(math.floor((stop - start) / step + 1e-9)) + 1
        raw = [repr(start + i * step) for i in range(max(count, 0))]
    else:
        raise _UsageError("scan needs --values or --range")
    if not raw:
        raise _UsageError("empty scan range")
    return raw


def _scan_converter(command: str, vary: str):
    if vary not in _SCANNABLE[command]:
        raise _UsageError(
            f"cannot scan {vary!r} for {command}; choose from "
            f"{', '.join(sorted(_SCANNABLE[command]))}")
    return _SCANNABLE[command][vary]


def run_scan(base_args, command: str, vary: str,
             values: Sequence[str]) -> List[Dict[str, object]]:
    conv = _scan_converter(command, vary)
    compute = _COMPUTE[command]

    def one(value: str) -> Dict[str, object]:
        shown: object = value  # stays text only when it does not convert
        try:
            shown = conv(value)
            point = argparse.Namespace(**vars(base_args))
            if vary == "hold":
                point.hold = (base_args.hold[0], shown)
            else:
                setattr(point, vary, shown)
            return compute(point)
        except _UsageError:
            raise
        except (EtcritError, ValueError) as exc:
            row = {k: None for k in _HEADERS[command]}
            row.update(status="error", detail=f"{type(exc).__name__}: {exc}")
            row[vary if vary != "hold" else "held_value"] = shown
            return row

    return [one(v) for v in values]


def scan(spec: ScanSpec) -> List[Dict[str, object]]:
    """Programmatic scan entry point mirroring the CLI subcommand."""
    argv = [spec.command]
    for key, val in spec.held.items():
        argv.extend([f"--{key}", str(val)])
    parser = _build_parser()
    args = parser.parse_args(argv)
    return run_scan(args, spec.command, spec.vary,
                    [str(v) for v in spec.values])


def validate(stream=None) -> bool:
    """Run the acceptance suite, printing one pass/fail line per criterion."""
    return acceptance.run_report(stream if stream is not None else sys.stdout)


# --- argument parsing --------------------------------------------------------

def _parse_hold(text: str) -> Tuple[str, float]:
    if "=" not in text:
        raise argparse.ArgumentTypeError("--hold expects gaa=VALUE or gab=VALUE")
    key, _, val = text.partition("=")
    key = key.strip().lower()
    if key not in ("gaa", "gab"):
        raise argparse.ArgumentTypeError("--hold expects gaa=VALUE or gab=VALUE")
    return key, float(val)


def _add_identical_flags(p) -> None:
    _add_well_flags(p)
    p.add_argument("--mu", type=float, default=1.0,
                   help="inverse length scale of the well (default 1)")
    p.add_argument("--mass", type=float, default=1.0, help="particle mass")
    p.add_argument("--N", type=int, default=2, help="number of particles")
    p.add_argument("--D", type=int, default=3, help="space dimension")
    p.add_argument("--state", default="ground",
                   help="\"ground\" or \"(n,l);(n,l);...\" with N-1 pairs")
    p.add_argument("--n", type=int, default=None,
                   help="radial quantum number shorthand (N=2 only)")
    p.add_argument("--l", type=int, default=None,
                   help="orbital quantum number shorthand (N=2 only)")


def _add_mixed_flags(p) -> None:
    _add_well_flags(p, "aa")
    _add_well_flags(p, "ab")
    p.add_argument("--mu", type=float, default=1.0,
                   help="inverse length scale for both wells (default 1)")
    p.add_argument("--mu-aa", type=float, default=None,
                   help="override mu for the aa well")
    p.add_argument("--mu-ab", type=float, default=None,
                   help="override mu for the ab well")
    p.add_argument("--Na", type=int, required=True,
                   help="number of identical particles")
    p.add_argument("--ma", type=float, default=1.0, help="mass of each a")
    p.add_argument("--mb", type=_parse_mass_b, default=1.0,
                   help="mass of the distinct particle; \"inf\" = static source")
    p.add_argument("--D", type=int, default=3, help="space dimension")
    p.add_argument("--state-a", default="ground",
                   help="internal state of the identical set")
    p.add_argument("--state-b", default="ground",
                   help="relative state towards the distinct particle")


_EPILOG = """\
units: natural units with hbar = 1; masses, couplings and the inverse well
range mu are plain numbers in those units.

custom wells (--well custom --expr EXPR): expressions over r with numbers,
+ - * / ^ (right-associative power; -r^2 means -(r^2)), parentheses, and
exp, sqrt, ln.  Example: --expr "exp(-r)*(1 + r/2)".

exit codes: 0 success; 2 physically unbound / no solution; 1 usage or
convergence errors.
"""


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="etcrit",
        description="Binding energies and critical coupling constants of "
                    "short-range potential wells (natural units, hbar = 1).",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("crit-id",
                       help="critical coupling for N identical particles")
    _add_identical_flags(p)
    p.add_argument("--method", choices=("plain", "improved"), default="plain")
    _add_output_flags(p)

    p = sub.add_parser("energy-id",
                       help="binding energy for N identical particles")
    _add_identical_flags(p)
    p.add_argument("--g", type=float, required=True, help="coupling constant")
    p.add_argument("--method", choices=("plain", "improved"), default="plain")
    _add_output_flags(p)

    p = sub.add_parser("crit-mixed",
                       help="critical coupling for Na identical + 1 distinct")
    _add_mixed_flags(p)
    p.add_argument("--hold", type=_parse_hold, required=True,
                   metavar="gaa=V|gab=V", help="the held coupling")
    p.add_argument("--solve", choices=("gaa", "gab"), required=True,
                   help="which coupling to solve for")
    _add_output_flags(p)

    p = sub.add_parser("energy-mixed",
                       help="binding energy for Na identical + 1 distinct")
    _add_mixed_flags(p)
    p.add_argument("--gaa", type=float, required=True)
    p.add_argument("--gab", type=float, required=True)
    _add_output_flags(p)

    p = sub.add_parser("oracle",
                       help="independent two-body radial solver")
    _add_well_flags(p)
    p.add_argument("--mu", type=float, default=1.0)
    p.add_argument("--g", type=float, default=None, help="coupling (energies)")
    p.add_argument("--l", type=int, default=0)
    p.add_argument("--n", type=int, default=0, help="node count")
    p.add_argument("--critical", action="store_true",
                   help="critical coupling instead of an energy")
    p.add_argument("--exact", action="store_true",
                   help="exact s-wave critical coupling (Bessel zeros)")
    p.add_argument("--r-max", type=float, default=None)
    p.add_argument("--points", type=int, default=None)
    p.add_argument("--kinetic-coefficient", type=float, default=1.0)
    _add_output_flags(p)

    p = sub.add_parser("scan",
                       help="1-D parameter scan of another subcommand")
    p.add_argument("target", choices=sorted(_COMPUTE),
                   help="subcommand to scan")
    p.add_argument("--vary", required=True, help="parameter to vary")
    p.add_argument("--values", default=None,
                   help="comma-separated values (\"inf\" allowed for mb)")
    p.add_argument("--range", default=None, help="start:stop:step")
    _add_output_flags(p)

    sub.add_parser("validate", help="run the acceptance suite")
    return parser


def _apply_config(argv: List[str]) -> List[str]:
    """Expand --config FILE into flags inserted after the subcommand, so
    explicit command-line flags (which come later) take precedence."""
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    if idx + 1 >= len(argv):
        raise _UsageError("--config needs a file path")
    path = argv[idx + 1]
    rest = argv[:idx] + argv[idx + 2:]
    try:
        lines = open(path, encoding="utf-8").read().splitlines()
    except OSError as exc:
        raise _UsageError(f"cannot read config file: {exc}")
    extra: List[str] = []
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise _UsageError(f"config line {lineno} is not key=value: {line!r}")
        key, _, val = line.partition("=")
        extra.extend([f"--{key.strip()}", val.strip()])
    if not rest:
        return extra
    # Insert after the subcommand token (and after a scan target).
    cut = 1
    if rest[0] == "scan" and len(rest) > 1:
        cut = 2
    return rest[:cut] + extra + rest[cut:]


def run(argv: Sequence[str]) -> int:
    """Execute one CLI invocation; returns the process exit code."""
    try:
        argv = _apply_config(list(argv))
        parser = _build_parser()
        try:
            if argv and argv[0] == "scan":
                # scan consumes its own flags; everything it does not
                # recognize belongs to the target subcommand
                scan_ns, rest = parser.parse_known_args(argv)
                values = _scan_values(scan_ns)
                conv = _scan_converter(scan_ns.target, scan_ns.vary)
                # seed the varied flag so required arguments stay satisfied
                # (per-point values overwrite it); "hold" keeps the explicit
                # flag because it carries which coupling is held
                if scan_ns.vary != "hold":
                    rest = [f"--{scan_ns.vary}", str(conv(values[0]))] + rest
                base_args = parser.parse_args([scan_ns.target] + rest)
                rows = run_scan(base_args, scan_ns.target, scan_ns.vary,
                                values)
                _emit(_HEADERS[scan_ns.target], rows, scan_ns.format,
                      scan_ns.output)
                return EXIT_OK
            args = parser.parse_args(argv)
        except SystemExit as exc:  # --help
            return int(exc.code or 0)

        if args.command == "validate":
            return EXIT_OK if validate(sys.stdout) else EXIT_ERROR

        row = _COMPUTE[args.command](args)
        _emit(_HEADERS[args.command], [row], args.format, args.output)
        if row.get("status") == "unbound":
            sys.stderr.write(f"unbound: {row.get('detail') or 'no solution'}\n")
            return EXIT_UNBOUND
        return EXIT_OK
    except _UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ERROR
    except UnboundError as exc:
        sys.stderr.write(f"unbound: {exc}\n")
        return EXIT_UNBOUND
    except (EtcritError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ERROR


def main(argv: Optional[Sequence[str]] = None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
