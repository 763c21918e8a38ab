"""The traced benchmark run patches etcrit's module-level names; every name
it patches must exist and be put back afterwards."""

import importlib.util
from pathlib import Path

from etcrit import cli, critical, identical, kernels, mixed, numerics, oracle

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
_MODULES = (cli, critical, identical, kernels, mixed, numerics, oracle)


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _names():
    return {(m.__name__, k): v for m in _MODULES for k, v in vars(m).items()}


def test_install_patches_and_uninstall_restores():
    tracer = _load_tracing().Tracer()
    before = _names()
    tracer.install()
    try:
        during = _names()
    finally:
        tracer.uninstall()
    after = _names()

    assert during.keys() == before.keys() == after.keys()
    patched = {key for key in before if during[key] is not before[key]}
    assert {("etcrit.identical", "find_root"),
            ("etcrit.critical", "find_root"),
            ("etcrit.critical", "radial_weight_from_angular"),
            ("etcrit.mixed", "zero_energy_radius"),
            ("etcrit.mixed", "solve_energy"),
            ("etcrit.mixed", "critical_coupling_ab"),
            ("etcrit.mixed", "critical_coupling_aa")} <= patched
    assert all(after[key] is before[key] for key in before)
