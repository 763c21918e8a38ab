"""Spans around the calls into each etcrit layer, for the traced run.

`Tracer.install` replaces the module-level names through which one layer
calls another with wrappers that record a span (layer, name, start, end,
parent); `uninstall` puts the originals back, so the timed rounds run the
package untouched.  Well evaluations are leaf calls made hundreds of
thousands of times per round: instead of one span each, their count and
time are added to the enclosing span.  A span's self time is its duration
minus the time its child spans and leaf well calls cover.

Spans stay in memory until `dump` writes them out at the end of the run.
"""

from __future__ import annotations

import dataclasses
import json
import math
import statistics
import time
from typing import Callable, List, Optional

_clock = time.perf_counter

# Default Numerov grid of the oracle; longer grids come from box extension.
DEFAULT_POINTS = 8000
# Two Newton roots closer than this in both log coordinates are one root
# (the same rule the mixed solver uses to deduplicate its multistart).
_ROOT_TOL = 1e-6


class Span:
    __slots__ = ("layer", "name", "start", "end", "parent", "child_s",
                 "leaf_evals", "leaf_s", "info")

    def __init__(self, layer: str, name: str, parent: int):
        self.layer = layer
        self.name = name
        self.parent = parent
        self.child_s = 0.0
        self.leaf_evals = 0
        self.leaf_s = 0.0
        self.info = None
        self.end = 0.0
        self.start = _clock()

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s - self.leaf_s


class Tracer:
    """Records spans while installed; one instance per traced process."""

    def __init__(self):
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._patched = []
        self._traced_wells = {}
        self.outside_evals = 0  # well calls made outside any span
        self.outside_s = 0.0

    # --- span plumbing -------------------------------------------------------

    def _open(self, layer: str, name: str) -> Span:
        span = Span(layer, name, self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = _clock()
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child_s += span.duration

    def span(self, layer: str, name: str, fn: Callable,
             on_call: Optional[Callable] = None,
             on_result: Optional[Callable] = None) -> Callable:
        """fn wrapped in a span; on_call may rewrite the arguments and
        on_result may note facts about the result on the span."""
        def traced(*args, **kwargs):
            span = self._open(layer, name)
            try:
                if on_call is not None:
                    args = on_call(span, args)
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(span, result)
                return result
            finally:
                self._close(span)
        return traced

    def leaf(self, fn: Callable) -> Callable:
        """A well callable whose calls are counted and timed on the
        enclosing span."""
        spans, stack = self.spans, self._stack

        def traced(r):
            start = _clock()
            try:
                return fn(r)
            finally:
                elapsed = _clock() - start
                if stack:
                    top = spans[stack[-1]]
                    top.leaf_evals += 1
                    top.leaf_s += elapsed
                else:
                    self.outside_evals += 1
                    self.outside_s += elapsed
        return traced

    def trace_well(self, well):
        """The same well with traced v, v1 and v2 (one twin per well)."""
        twin = self._traced_wells.get(id(well))
        if twin is None:
            twin = dataclasses.replace(
                well, v=self.leaf(well.v), v1=self.leaf(well.v1),
                v2=self.leaf(well.v2))
            self._traced_wells[id(well)] = twin
        return twin

    def trace_wells_in(self, obj):
        """obj with every PotentialWell inside (tuples, lists, and
        dataclasses with a `well` field) replaced by its traced twin."""
        from etcrit.potentials import PotentialWell
        if isinstance(obj, PotentialWell):
            return self.trace_well(obj)
        if isinstance(obj, (tuple, list)):
            return type(obj)(self.trace_wells_in(x) for x in obj)
        if dataclasses.is_dataclass(obj) and hasattr(obj, "well"):
            return dataclasses.replace(obj, well=self.trace_well(obj.well))
        return obj

    # --- installation --------------------------------------------------------

    def _patch(self, module, name: str, replacement) -> None:
        self._patched.append((module, name, getattr(module, name)))
        setattr(module, name, replacement)

    def install(self) -> None:
        from etcrit import (cli, critical, identical, kernels, mixed, numerics,
                            oracle)

        def count_points(span, args):
            span.info = len(args[0]) - 1
            return args

        self._patch(kernels, "numerov_sweep",
                    self.span("kernels", "numerov_sweep",
                              kernels.numerov_sweep, on_call=count_points))
        for name in ("radial_critical_coupling", "radial_eigenvalue"):
            self._patch(oracle, name, self.span("oracle", name,
                                                getattr(oracle, name)))

        def count_evals(span, args):
            fn = args[0]
            span.info = {"evals": 0}

            def counted(*a):
                span.info["evals"] += 1
                return fn(*a)
            return (counted,) + tuple(args[1:])

        def note_root(span, result):
            span.info["root"] = result

        for module in (oracle, identical, critical):
            self._patch(module, "find_root",
                        self.span("numerics", "find_root", numerics.find_root,
                                  on_call=count_evals))
        self._patch(mixed, "solve_2d",
                    self.span("numerics", "solve_2d", numerics.solve_2d,
                              on_call=count_evals, on_result=note_root))

        for name in ("solve_energy", "solve_energy_improved",
                     "energy_exponential_closed"):
            self._patch(identical, name, self.span("identical", name,
                                                   getattr(identical, name)))
        self._patch(critical, "radial_weight_from_angular",
                    self.span("identical", "radial_weight_from_angular",
                              critical.radial_weight_from_angular))
        self._patch(mixed, "solve_energy",
                    self.span("identical", "solve_energy", mixed.solve_energy))

        def note_iterations(span, result):
            span.info = max(len(result.trace) - 1, 0)

        self._patch(critical, "critical_coupling",
                    self.span("critical", "critical_coupling",
                              critical.critical_coupling))
        self._patch(critical, "critical_coupling_improved",
                    self.span("critical", "critical_coupling_improved",
                              critical.critical_coupling_improved,
                              on_result=note_iterations))
        self._patch(mixed, "zero_energy_radius",
                    self.span("critical", "zero_energy_radius",
                              mixed.zero_energy_radius))

        for name in ("critical_coupling_ab", "critical_coupling_aa",
                     "solve_energy_mixed"):
            self._patch(mixed, name, self.span("mixed", name,
                                               getattr(mixed, name)))

        self._patch(cli, "run", self.span("cli", "run", cli.run))
        for name in ("make_builtin", "parse_custom"):
            build_well = getattr(cli, name)
            self._patch(cli, name,
                        lambda *a, _build=build_well, **k:
                        self.trace_well(_build(*a, **k)))

    def uninstall(self) -> None:
        while self._patched:
            module, name, original = self._patched.pop()
            setattr(module, name, original)

    # --- results -------------------------------------------------------------

    def dump(self, path: str) -> None:
        """One JSON line per span: layer, name, start, end, parent index,
        leaf well calls and their time, and what the span noted."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                info = span.info
                if isinstance(info, dict):
                    info = {k: v for k, v in info.items() if k != "root"}
                fh.write(json.dumps([span.layer, span.name, span.start,
                                     span.end, span.parent, span.leaf_evals,
                                     span.leaf_s, info]) + "\n")

    def metrics(self, rounds: int, cli_rows: int) -> dict:
        """Per-layer figures, per traced round where they are sums."""
        spans = self.spans
        per = float(rounds)
        by_layer = {}
        for span in spans:
            by_layer.setdefault(span.layer, []).append(span)

        def layer(name):
            return by_layer.get(name, [])

        def self_s(name):
            return sum(s.self_s for s in layer(name)) / per

        def ratio(a, b):
            return a / b if b else 0.0

        sweeps = layer("kernels")
        sweep_s = sum(s.duration for s in sweeps)
        points = sum(s.info for s in sweeps)
        oracle_spans = layer("oracle")
        find_root = [s for s in layer("numerics") if s.name == "find_root"]
        solve_2d = [s for s in layer("numerics") if s.name == "solve_2d"]
        mixed_spans = layer("mixed")
        improved = [s for s in layer("critical")
                    if s.name == "critical_coupling_improved"]
        return {
            "kernels.sweeps": len(sweeps) / per,
            "kernels.busy_s": sweep_s / per,
            "kernels.points_per_s": ratio(points, sweep_s),
            "oracle.solves": len(oracle_spans) / per,
            "oracle.sweeps_per_solve": ratio(len(sweeps), len(oracle_spans)),
            "oracle.extended_sweeps":
                sum(s.info > DEFAULT_POINTS for s in sweeps) / per,
            "oracle.self_s": self_s("oracle"),
            "oracle.solve_ms_p50":
                statistics.median(s.duration for s in oracle_spans) * 1e3
                if oracle_spans else 0.0,
            "potentials.evals":
                (sum(s.leaf_evals for s in spans) + self.outside_evals) / per,
            "potentials.busy_s":
                (sum(s.leaf_s for s in spans) + self.outside_s) / per,
            "numerics.find_root_calls": len(find_root) / per,
            "numerics.find_root_evals":
                sum(s.info["evals"] for s in find_root) / per,
            "numerics.solve_2d_calls": len(solve_2d) / per,
            "numerics.solve_2d_F_evals":
                sum(s.info["evals"] for s in solve_2d) / per,
            "numerics.solve_2d_useful_ratio":
                ratio(self._distinct_roots(solve_2d), len(solve_2d)),
            "identical.solves": len(layer("identical")) / per,
            "identical.self_s": self_s("identical"),
            "critical.solves": len(layer("critical")) / per,
            "critical.self_s": self_s("critical"),
            "critical.improved_iters": sum(s.info or 0 for s in improved) / per,
            "mixed.solves": len(mixed_spans) / per,
            "mixed.self_s": self_s("mixed"),
            "mixed.seeds_per_solve": ratio(len(solve_2d), len(mixed_spans)),
            "cli.rows": cli_rows / per,
            "cli.self_s": self_s("cli"),
        }

    def _distinct_roots(self, solve_2d: List[Span]) -> int:
        """Distinct converged roots, counted within each enclosing solve."""
        groups = {}
        for span in solve_2d:
            root = span.info.get("root")
            if root is None or not all(map(math.isfinite, root)):
                continue
            groups.setdefault(span.parent, []).append(root)
        distinct = 0
        for roots in groups.values():
            seen = []
            for x, y in roots:
                if all(max(abs(x - a), abs(y - b)) > _ROOT_TOL
                       for a, b in seen):
                    seen.append((x, y))
            distinct += len(seen)
        return distinct
