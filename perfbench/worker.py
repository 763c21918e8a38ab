"""One fresh interpreter of the benchmark: set up a workload, then time it.

Started by run.py with etcrit importable from the benchmark's build of the
package.  Modes:

  setup   import etcrit, build the workload's inputs, print "ready", exit
  numpy   print how long `import numpy` takes, before anything else loads
  run     time whole rounds of the workload until --seconds have passed
  trace   alternate untraced and traced rounds until --seconds have passed

run and trace print one JSON object on their last line of output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time

import speed


def _digest(records: list) -> str:
    return hashlib.sha256(json.dumps(records, sort_keys=True).encode()
                          ).hexdigest()


class _Rounds:
    """Times rounds on the wall clock and scaled (see speed.py)."""

    def __init__(self, workloads, workload, inputs):
        self.workloads = workloads
        self.workload = workload
        self.inputs = inputs
        self.clock = speed.ScaledClock()

    def run(self, built):
        self.clock.start()
        raw = self.workloads.execute(self.workload, self.inputs, built,
                                     self.clock.between)
        elapsed, scaled = self.clock.stop()
        records = self.workloads.collect(self.workload, built, raw)
        return elapsed, scaled, records


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--mode", required=True,
                    choices=("setup", "numpy", "run", "trace"))
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--scratch", required=True)
    ap.add_argument("--trace-file", default=None)
    args = ap.parse_args()

    if args.mode == "numpy":
        start = time.perf_counter()
        import numpy  # noqa: F401
        print(json.dumps({"numpy_s": time.perf_counter() - start}))
        return 0

    import workloads
    inputs = workloads.make_inputs(args.workload, args.seed)
    built = workloads.build(args.workload, inputs, args.scratch)
    if args.mode == "setup":
        print("ready", flush=True)
        return 0

    import etcrit
    from etcrit import kernels

    tracer = None
    traced_built = None
    if args.mode == "trace":
        from tracing import Tracer
        tracer = Tracer()
        traced_built = tracer.trace_wells_in(built)

    per_round = workloads.operation_count(args.workload, inputs)
    round_s, scaled_s, traced_s, digests, failed = [], [], [], [], []
    first = None
    cli_rows = 0
    rounds = _Rounds(workloads, args.workload, inputs)
    deadline = time.perf_counter() + args.seconds
    while not round_s or time.perf_counter() < deadline:
        elapsed, scaled, records = rounds.run(built)
        round_s.append(elapsed)
        scaled_s.append(scaled)
        if first is None:
            first = records
        digests.append(_digest(records))
        failed.append(workloads.failed_count(args.workload, inputs, records))
        if tracer is None:
            continue
        tracer.install()
        try:
            _, scaled, records = rounds.run(traced_built)
        finally:
            tracer.uninstall()
        traced_s.append(scaled)
        digests.append(_digest(records))
        failed.append(workloads.failed_count(args.workload, inputs, records))
        if args.workload == "mixed-scan":
            cli_rows += sum(len(workloads.csv_rows(rec["csv"]))
                            for rec in records)

    result = {
        "backend": kernels.BACKEND,
        "etcrit_file": etcrit.__file__,
        "ops_per_round": per_round,
        "round_s": round_s,
        "scaled_round_s": scaled_s,
        "traced_scaled_round_s": traced_s,
        "failed": failed,
        "digests": digests,
        "records": first,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics(len(traced_s), cli_rows)
        if args.trace_file:
            tracer.dump(args.trace_file)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
