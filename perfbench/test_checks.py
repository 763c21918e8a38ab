"""Each workload's checks must catch a result that is off by one part in 1e6.

One round of every workload runs in this process, once as it is, where the
checks must pass, and once with one public solver wrapped to scale what it
returns by 1 + 1e-6, where they must fail.  Run from the checkout root with
the package importable:

    PYTHONPATH=src python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import dataclasses
import importlib

import pytest

import checks
import workloads

SEED = 7
SCALE = 1.0 + 1e-6


def _scaled_float(fn):
    return lambda *a, **k: fn(*a, **k) * SCALE


def _scaled_field(field):
    def perturb(fn):
        def wrapped(*a, **k):
            result = fn(*a, **k)
            return dataclasses.replace(
                result, **{field: getattr(result, field) * SCALE})
        return wrapped
    return perturb


# workload -> (module, public function, how its result is perturbed)
PERTURBED = {
    "oracle": ("etcrit.oracle", "radial_critical_coupling", _scaled_float),
    "et-identical": ("etcrit.identical", "solve_energy",
                     _scaled_field("energy")),
    "mixed-scan": ("etcrit.mixed", "critical_coupling_ab",
                   _scaled_field("critical_value")),
}


def _failures(workload: str, scratch: str, monkeypatch, perturb: bool
              ) -> list:
    inputs = workloads.make_inputs(workload, SEED)
    built = workloads.build(workload, inputs, scratch)
    with monkeypatch.context() as patch:
        if perturb:
            module_name, name, wrap = PERTURBED[workload]
            module = importlib.import_module(module_name)
            patch.setattr(module, name, wrap(getattr(module, name)))
        raw = workloads.execute(workload, inputs, built)
    records = workloads.collect(workload, built, raw)
    assert workloads.failed_count(workload, inputs, records) == 0
    return checks.check(workload, inputs, records)[0]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_checks_pass_as_is(workload, tmp_path, monkeypatch):
    assert _failures(workload, str(tmp_path), monkeypatch, False) == []


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_checks_catch_a_perturbed_result(workload, tmp_path, monkeypatch):
    assert _failures(workload, str(tmp_path), monkeypatch, True) != []
