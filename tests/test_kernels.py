"""Backend parity: the compiled Numerov sweep must reproduce the pure-Python
reference bit for bit (the extension is built with FP contraction off).

The compiled kernel is built by the repository's own setup.py into a
temporary directory, so these tests run whenever a C compiler is present,
whether or not the package was built in place."""

import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from etcrit import _numerov_py, kernels
from etcrit.oracle import RadialProblem, radial_eigenvalue
from etcrit.potentials import make_builtin

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="session")
def compiled(tmp_path_factory):
    """etcrit._numerov built from this checkout, never in place into src/."""
    if shutil.which("cc") is None:
        pytest.skip("no C compiler")
    out = tmp_path_factory.mktemp("numerov-build")
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext",
         "--build-lib", str(out / "lib"), "--build-temp", str(out / "tmp")],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    built = sorted((out / "lib" / "etcrit").glob("_numerov*"))
    assert proc.returncode == 0 and len(built) == 1, proc.stdout + proc.stderr
    spec = importlib.util.spec_from_file_location("etcrit._numerov", built[0])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def sample_problem(points=4000, l=1, g=40.0, energy=-5.0):
    h = 40.0 / points
    r = np.arange(1, points + 1) * h
    w = np.empty(points + 1)
    w[0] = 0.0
    w[1:] = l * (l + 1) / (r * r) - g * np.exp(-r)
    return w, energy, h * h, h ** (l + 1)


class TestPurePython:
    def test_counts_nodes(self):
        w, energy, h2, u1 = sample_problem()
        nodes, u_second, u_last, u_max = _numerov_py.numerov_sweep(
            w, energy, h2, u1)
        assert nodes >= 0
        assert u_max >= max(abs(u_second), abs(u_last)) * (1 - 1e-15)

    def test_rescaling_keeps_ratio(self):
        # very negative trial energy forces many rescalings
        w, _, h2, u1 = sample_problem(points=8000)
        nodes, u_second, u_last, u_max = _numerov_py.numerov_sweep(
            w, -8000.0, h2, u1)
        assert np.isfinite(u_second) and np.isfinite(u_last)
        assert abs(u_last) <= 1e250 and u_max <= 1e250
        assert nodes == 0


class TestParity:
    @pytest.mark.parametrize("energy", [-17.0, -5.0, -0.1, 0.0, 3.0, -8000.0])
    def test_bitwise_identical(self, compiled, energy):
        w, _, h2, u1 = sample_problem(points=6000)
        ref = _numerov_py.numerov_sweep(w, energy, h2, u1)
        fast = compiled.numerov_sweep(w, energy, h2, u1)
        assert type(fast[0]) is int
        assert fast[0] == ref[0]
        assert fast[1:] == ref[1:]

    def test_eigenvalue_parity(self, compiled, monkeypatch):
        prob = RadialProblem(1, make_builtin("exponential", 1.0), 40.0)
        monkeypatch.setattr(kernels, "numerov_sweep", compiled.numerov_sweep)
        fast = radial_eigenvalue(prob, 1)
        monkeypatch.setattr(kernels, "numerov_sweep",
                            _numerov_py.numerov_sweep)
        slow = radial_eigenvalue(prob, 1)
        assert slow == fast  # bit-identical bisection path

    @pytest.mark.parametrize("w, error", [
        (np.linspace(0.0, 1.0, 50, dtype=np.float32), TypeError),
        (np.linspace(0.0, 1.0, 100)[::2], ValueError),  # not contiguous
        (np.zeros(1), ValueError),
        (np.zeros((10, 10)), TypeError),
    ], ids=["float32", "strided", "one-point", "2-d"])
    def test_rejects_unusable_buffers(self, compiled, w, error):
        with pytest.raises(error):
            compiled.numerov_sweep(w, -1.0, 0.01, 0.1)

    def test_backend_reported(self):
        assert kernels.BACKEND in ("compiled", "python")
