"""Shared numerical kernels.

Bracketed 1-D root finding (Brent), a damped 2-D Newton iteration with
finite-difference Jacobian, the geometric grid and guarded evaluation behind
every bracket scan, the principal branch of the Lambert W function, and
zeros of the Bessel function J0.  Everything here is a pure function of its
inputs and safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

from .errors import BracketError, ConvergenceError, SingularJacobianError

_EPS = math.ulp(1.0)
_CBRT_EPS = _EPS ** (1.0 / 3.0)


@dataclass(frozen=True)
class RootConfig:
    """Tolerances and iteration budget shared by the 1-D and 2-D solvers."""

    rel_tol: float = 1e-12
    abs_tol: float = 1e-14
    max_iter: int = 200

    def __post_init__(self):
        if self.rel_tol <= 0.0 or self.abs_tol <= 0.0:
            raise ValueError("tolerances must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass(frozen=True)
class Bracket:
    """An interval [lo, hi] expected to contain a sign change."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"invalid bracket [{self.lo}, {self.hi}]")


DEFAULT_CONFIG = RootConfig()

_BRANCH_X = -math.exp(-1.0)  # left end of the real domain of W0


def lambert_w0(x: float) -> float:
    """Principal real branch of the Lambert W function.

    Returns w >= -1 with w * exp(w) = x, for x >= -1/e.  The iteration is
    Halley's method started from x/(1+x) on the central range, from
    log(x) - log(log(x)) for large x, and from the square-root series in
    sqrt(2*(e*x + 1)) near the branch point, which keeps convergence uniform
    over the whole domain.

    Raises ValueError for x < -1/e: there is no real solution, which callers
    interpret as the absence of a bound state.
    """
    x = float(x)
    if x < _BRANCH_X:
        # Tolerate rounding just below the branch point.
        if x > _BRANCH_X * (1.0 + 1e-12):
            return -1.0
        raise ValueError(f"lambert_w0 requires x >= -1/e, got {x!r}")
    if x == 0.0:
        return 0.0

    d = x - _BRANCH_X
    if d < 0.05:
        p = math.sqrt(2.0 * math.e * d)
        w = -1.0 + p * (1.0 + p * (-1.0 / 3.0 + p * (11.0 / 72.0)))
        if p < 1e-6:
            # Series already at machine precision; Halley would divide 0/0.
            return w
    elif x < math.e:
        w = x / (1.0 + x)
    else:
        lx = math.log(x)
        w = lx - math.log(lx)

    for _ in range(50):
        ew = math.exp(w)
        f = w * ew - x
        wp1 = w + 1.0
        denom = ew * wp1 - (w + 2.0) * f / (2.0 * wp1)
        if denom == 0.0:
            break
        dw = f / denom
        w -= dw
        if abs(dw) <= 4.0 * _EPS * (1.0 + abs(w)):
            break
    return w


def geometric_grid(lo: float, hi: float, points: int) -> List[float]:
    """points values from lo to hi with a constant ratio between neighbours.

    The first value is lo exactly; the last equals hi up to rounding.
    """
    ratio = (hi / lo) ** (1.0 / (points - 1))
    return [lo * ratio ** i for i in range(points)]


def value_or_nan(f: Callable[[float], float], x: float) -> float:
    """f(x), or NaN where f overflows, divides by zero or leaves its domain."""
    try:
        return f(x)
    except (OverflowError, ValueError, ZeroDivisionError):
        return math.nan


def find_root(f: Callable[[float], float], bracket: Bracket,
              cfg: RootConfig = DEFAULT_CONFIG) -> float:
    """Root of f inside a sign-changing bracket.

    Brent's method: bisection safeguarding a secant / inverse-quadratic
    step, so convergence is superlinear on smooth problems but never worse
    than bisection.  The returned point always lies inside the bracket.

    Raises BracketError when f has the same sign at both ends and
    ConvergenceError when the iteration budget is exhausted.
    """
    a, b = float(bracket.lo), float(bracket.hi)
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa > 0.0) == (fb > 0.0):
        raise BracketError(
            f"no sign change on [{a:g}, {b:g}]: f(lo)={fa:g}, f(hi)={fb:g}")

    c, fc = a, fa
    d = e = b - a
    for _ in range(cfg.max_iter):
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = 2.0 * _EPS * abs(b) + 0.5 * (cfg.rel_tol * abs(b) + cfg.abs_tol)
        m = 0.5 * (c - b)
        if abs(m) <= tol or fb == 0.0:
            return b
        if abs(e) < tol or abs(fa) <= abs(fb):
            d = e = m
        else:
            s = fb / fa
            if a == c:
                p = 2.0 * m * s
                q = 1.0 - s
            else:
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            s, e = e, d
            if 2.0 * p < 3.0 * m * q - abs(tol * q) and p < abs(0.5 * s * q):
                d = p / q
            else:
                d = e = m
        a, fa = b, fb
        if abs(d) > tol:
            b += d
        elif m > 0.0:
            b += tol
        else:
            b -= tol
        fb = f(b)
    raise ConvergenceError(
        f"find_root did not converge in {cfg.max_iter} iterations")


def solve_2d(F: Callable[[float, float], Tuple[float, float]],
             guess: Sequence[float],
             cfg: RootConfig = DEFAULT_CONFIG) -> Tuple[float, float]:
    """Damped Newton iteration for a two-equation system F(x, y) = 0.

    The Jacobian is built from central differences with step
    eps**(1/3) * max(1, |x|) per component; the Newton step is halved (up
    to 30 times) until the max-norm residual decreases.  Convergence is
    declared when the max-norm residual drops below
    max(cfg.rel_tol, cfg.abs_tol); callers are expected to feed residuals
    scaled to be dimensionless.

    Raises SingularJacobianError or ConvergenceError on failure.
    """
    x, y = float(guess[0]), float(guess[1])
    fx, fy = F(x, y)
    res = max(abs(fx), abs(fy))
    tol = max(cfg.rel_tol, cfg.abs_tol)
    for _ in range(cfg.max_iter):
        if res <= tol:
            return x, y
        hx = _CBRT_EPS * max(1.0, abs(x))
        hy = _CBRT_EPS * max(1.0, abs(y))
        fpx = F(x + hx, y)
        fmx = F(x - hx, y)
        fpy = F(x, y + hy)
        fmy = F(x, y - hy)
        j11 = (fpx[0] - fmx[0]) / (2.0 * hx)
        j21 = (fpx[1] - fmx[1]) / (2.0 * hx)
        j12 = (fpy[0] - fmy[0]) / (2.0 * hy)
        j22 = (fpy[1] - fmy[1]) / (2.0 * hy)
        det = j11 * j22 - j12 * j21
        scale = max(abs(j11 * j22), abs(j12 * j21), 1e-300)
        if not math.isfinite(det) or abs(det) <= 1e-14 * scale:
            raise SingularJacobianError(
                f"singular Jacobian near ({x:g}, {y:g})")
        dx = (-fx * j22 + fy * j12) / det
        dy = (fx * j21 - fy * j11) / det
        step = 1.0
        for _ in range(30):
            xn, yn = x + step * dx, y + step * dy
            gx, gy = F(xn, yn)
            rn = max(abs(gx), abs(gy))
            if math.isfinite(rn) and rn < res:
                break
            step *= 0.5
        else:
            raise ConvergenceError(
                "solve_2d: step damping failed to reduce the residual")
        x, y, fx, fy, res = xn, yn, gx, gy, rn
    if res <= tol:
        return x, y
    raise ConvergenceError(
        f"solve_2d: residual {res:.3e} after {cfg.max_iter} iterations")


# --- Bessel J0 zeros ---------------------------------------------------------
#
# J0 and J1 are evaluated through their integral representations
#   J0(x) = (1/pi) int_0^pi cos(x sin t) dt
#   J1(x) = (1/pi) int_0^pi cos(t - x sin t) dt
# with the trapezoidal rule, which converges spectrally for these periodic
# integrands; 256 panels give machine accuracy for the arguments needed here
# (x < 70).

_J_PANELS = 256


def _bessel_j0(x: float) -> float:
    h = math.pi / _J_PANELS
    s = 0.5 * (1.0 + math.cos(x * math.sin(math.pi)))
    for k in range(1, _J_PANELS):
        s += math.cos(x * math.sin(k * h))
    return s / _J_PANELS


def _bessel_j1(x: float) -> float:
    h = math.pi / _J_PANELS
    s = 0.5 * (1.0 + math.cos(math.pi - x * math.sin(math.pi)))
    for k in range(1, _J_PANELS):
        t = k * h
        s += math.cos(t - x * math.sin(t))
    return s / _J_PANELS


def bessel_j0_zero(k: int) -> float:
    """k-th positive zero of the Bessel function J0, for 1 <= k <= 20.

    Newton refinement (J0' = -J1) started from McMahon's asymptotic
    expansion; accurate to better than ten significant figures.
    """
    if not isinstance(k, int) or isinstance(k, bool) or not 1 <= k <= 20:
        raise ValueError(f"bessel_j0_zero expects an integer 1 <= k <= 20, got {k!r}")
    beta = (k - 0.25) * math.pi
    b8 = 8.0 * beta
    x = beta + 1.0 / b8 - 124.0 / (3.0 * b8 ** 3) + 120928.0 / (15.0 * b8 ** 5)
    for _ in range(8):
        dx = _bessel_j0(x) / _bessel_j1(x)
        x += dx
        if abs(dx) <= 4.0 * _EPS * x:
            break
    return x
