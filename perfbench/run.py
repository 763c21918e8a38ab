#!/usr/bin/env python3
"""Benchmark of etcrit: one workload, timed end to end or traced by layer.

    python3 perfbench/run.py --workload oracle --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The package is built from the checkout's
sources with its own `setup.py build_ext` into .bench_build/ (not timed),
and every measurement runs in a fresh interpreter that imports that build:

  setup_s      median time, over SETUP_REPEATS fresh interpreters, from
               process start to etcrit imported and the inputs built
  solves_per_s median over whole rounds of (public solver calls in a round)
               / (round wall time), one process, one call after another
  peak_rss_mb  peak resident memory of the timed process

Both times are scaled to the machine's speed at the moment they are taken,
measured by the reference loop of speed.py.

With --trace 1 the same rounds alternate with rounds run under the span
wrappers of tracing.py and the per-layer figures are printed instead.  The
outputs of the first round are checked by checks.py in this process.  The
last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build"
PKG_DIR = BUILD_DIR / "etcrit-build"
WORKER = HERE / "worker.py"
SETUP_REPEATS = 5
NUMPY_REPEATS = 3
DEADLINE_S = 170.0  # a run ends within 180 s
PACKAGE_FILES = ("setup.py", "pyproject.toml", "README.md")


class BenchError(Exception):
    pass


# --- build -------------------------------------------------------------------

def _sources() -> list:
    src = ROOT / "src" / "etcrit"
    if not src.is_dir():
        raise BenchError(f"no package sources at {src}")
    files = [p for p in sorted(src.rglob("*"))
             if p.is_file() and "__pycache__" not in p.parts
             and p.suffix not in (".so", ".pyd")]
    for name in PACKAGE_FILES:
        if not (ROOT / name).is_file():
            raise BenchError(f"missing {name} at the checkout root")
        files.append(ROOT / name)
    return files


def build_package() -> Path:
    """Copy the package sources into .bench_build and run the repository's
    own `setup.py build_ext --inplace` there; reused while sources match."""
    files = _sources()
    stamp = hashlib.sha256()
    for path in files:
        stamp.update(str(path.relative_to(ROOT)).encode())
        stamp.update(path.read_bytes())
    stamp_file = PKG_DIR / ".stamp"
    if stamp_file.is_file() and stamp_file.read_text() == stamp.hexdigest():
        return PKG_DIR / "src"
    shutil.rmtree(PKG_DIR, ignore_errors=True)
    for path in files:
        dest = PKG_DIR / path.relative_to(ROOT)
        dest.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(path, dest)
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--inplace"],
        cwd=PKG_DIR, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, timeout=600)
    if proc.returncode != 0:
        raise BenchError(f"build_ext failed:\n{proc.stdout}")
    stamp_file.write_text(stamp.hexdigest())
    return PKG_DIR / "src"


# --- fresh interpreters ------------------------------------------------------

def _child_env(pkg_src: Path) -> dict:
    env = dict(os.environ)
    for name in ("ETCRIT_THREADS", "ETCRIT_PURE_PYTHON", "PYTHONPATH"):
        env.pop(name, None)
    env["PYTHONPATH"] = str(pkg_src)
    return env


def _worker_cmd(mode: str, args, scratch: Path) -> list:
    return [sys.executable, str(WORKER), "--mode", mode,
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--scratch", str(scratch)]


def _remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("out of time")
    return left


def _run_child(cmd: list, env: dict, deadline: float) -> dict:
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          timeout=_remaining(deadline))
    if proc.returncode != 0:
        raise BenchError(f"{cmd[3]} worker failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def measure_setup(args, env: dict, scratch: Path, deadline: float) -> float:
    """Median time from starting a fresh interpreter to its "ready" line,
    scaled by the reference loop timed around it; one unmeasured start
    first fills the bytecode cache."""
    times = []
    for i in range(SETUP_REPEATS + 1):
        loop_before = speed.loop_s()
        start = time.perf_counter()
        proc = subprocess.Popen(_worker_cmd("setup", args, scratch), env=env,
                                cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.wait(timeout=_remaining(deadline))
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != "ready" or proc.returncode != 0:
            raise BenchError("setup worker did not get ready")
        loop_after = speed.loop_s()
        if i:
            times.append(elapsed * speed.REFERENCE_S
                         / (0.5 * (loop_before + loop_after)))
    return statistics.median(times)


# --- report ------------------------------------------------------------------

def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True,
                    choices=("oracle", "et-identical", "mixed-scan"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    pkg_src = build_package()
    deadline = time.monotonic() + DEADLINE_S
    env = _child_env(pkg_src)
    scratch = BUILD_DIR / "scratch" / str(os.getpid())
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        setup_s = measure_setup(args, env, scratch, deadline)
        numpy_s = None
        cmd = _worker_cmd("trace" if args.trace else "run", args, scratch)
        if args.trace:
            numpy_s = statistics.median(
                _run_child(_worker_cmd("numpy", args, scratch), env,
                           deadline)["numpy_s"]
                for _ in range(NUMPY_REPEATS))
            traces = BUILD_DIR / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            cmd += ["--trace-file",
                    str(traces / f"{args.workload}-{args.seed}.jsonl")]
        result = _run_child(cmd, env, deadline)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if not Path(result["etcrit_file"]).resolve().is_relative_to(pkg_src):
        raise BenchError(f"etcrit imported from {result['etcrit_file']}")

    sys.path.insert(0, str(pkg_src))
    import checks
    import workloads
    inputs = workloads.make_inputs(args.workload, args.seed)
    failures, worst, extra = checks.check(args.workload, inputs,
                                          result["records"])
    if len(set(result["digests"])) != 1:
        failures.append("rounds gave different outputs")

    per_round = result["ops_per_round"]
    rounds = len(result["round_s"]) + len(result["traced_scaled_round_s"])
    attempted = per_round * rounds
    failed = sum(result["failed"])
    median_round = statistics.median(result["scaled_round_s"])
    print(f"workload {args.workload}  seed {args.seed}  backend "
          f"{result['backend']}  rounds {rounds} x {per_round} calls")
    print(f"unscaled wall clock: "
          f"{per_round / statistics.median(result['round_s']):.6g} solves/s")
    print(f"attempted {attempted}  failed {failed}  checks "
          f"{'passed' if not failures else 'FAILED'}")
    for message in failures[:20]:
        print(f"  check failed: {message}")
    for name, share in sorted(worst.items()):
        print(f"  {name}: largest error {share:.3g} of its tolerance")

    if args.trace:
        traced = statistics.median(result["traced_scaled_round_s"])
        layers = dict(result["layers"])
        layers["oracle.crit_rel_err_max"] = extra.get(
            "oracle.crit_rel_err_max", 0.0)
        layers["setup.numpy_s"] = numpy_s
        layers["trace.overhead_pct"] = (traced / median_round - 1.0) * 100.0
        units = per_layer_units()
        metrics = {name: _metric(layers[name], unit)
                   for name, unit in units.items()}
    else:
        metrics = {
            "solves_per_s": _metric(per_round / median_round, "solves/s"),
            "setup_s": _metric(setup_s, "s"),
            "peak_rss_mb": _metric(result["peak_rss_mb"], "MB"),
        }
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def per_layer_units() -> dict:
    """Name -> unit of every per-layer metric, as BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.TimeoutExpired, OSError, ImportError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(1)
