"""Kernel backend selection.

The radial oracle spends essentially all of its time in the Numerov sweep,
so that one routine exists twice: compiled (etcrit._numerov, a hand-written
C file) and pure Python (etcrit._numerov_py).  The compiled version is
picked at import when available; set ETCRIT_PURE_PYTHON=1 to force the
fallback.  Callers should go through this module's `numerov_sweep` attribute
so the benchmark and tests can repoint it.
"""

from __future__ import annotations

import os

from . import _numerov_py

HAVE_COMPILED = False
if os.environ.get("ETCRIT_PURE_PYTHON") != "1":
    try:
        from . import _numerov  # type: ignore[attr-defined]
        HAVE_COMPILED = True
    except ImportError:
        HAVE_COMPILED = False

if HAVE_COMPILED:
    numerov_sweep = _numerov.numerov_sweep
    BACKEND = "compiled"
else:
    numerov_sweep = _numerov_py.numerov_sweep
    BACKEND = "python"
