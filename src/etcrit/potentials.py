"""Dimensionless short-range potential wells v(r) and their derivatives.

A well is the positive shape function in an attractive pair interaction
V(r) = -g * v(r); the coupling g lives with the solvers, not here.  Power-law
pseudo-wells carry their exponent so callers can apply the convention
V(r) = sign(p) * g * (mu*r)**p instead.

Custom wells are parsed from a small expression language::

    expr    := term (("+" | "-") term)*
    term    := factor (("*" | "/") factor)*
    factor  := "-" factor | primary ("^" factor)?
    primary := NUMBER | "r" | ("exp" | "sqrt" | "ln") "(" expr ")"
             | "(" expr ")"

(so -r^2 means -(r^2), and ^ associates to the right)

Derivatives of parsed wells are Richardson-extrapolated central differences;
builtins use closed forms.

The `v` of every well built here also carries `v.on_grid`, the same formula
applied to a numpy array of radii at once (numpy's exp, sqrt and log in
place of the math module's).  A `v` without it, such as one swapped in with
dataclasses.replace, is simply evaluated point by point.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Callable, Optional

from .errors import ExpressionError

_EPS = math.ulp(1.0)
_FD1_STEP = _EPS ** (1.0 / 3.0)
# Second derivatives use a larger step: with the extrapolated second
# difference the rounding term eps/h**2 dominates below h ~ eps**(1/6).
_FD2_STEP = _EPS ** (1.0 / 6.0)


class WellKind(str, Enum):
    YUKAWA = "yukawa"
    EXPONENTIAL = "exponential"
    GAUSSIAN = "gaussian"
    POWER_LAW = "power_law"


class NonPositiveWellWarning(UserWarning):
    """A custom well evaluated non-positive at a probe point."""


@dataclass(frozen=True)
class PotentialWell:
    """Immutable well shape: v(r) with first and second derivatives.

    mu is the inverse length scale of the well; solvers use it to size their
    search brackets.  power_exponent is set only for power-law pseudo-wells.
    """

    name: str
    mu: float
    v: Callable[[float], float]
    v1: Callable[[float], float]
    v2: Callable[[float], float]
    power_exponent: Optional[float] = None

    def __post_init__(self):
        if not (self.mu > 0.0 and math.isfinite(self.mu)):
            raise ValueError(f"mu must be positive and finite, got {self.mu!r}")


def make_builtin(kind: WellKind | str, mu: float,
                 exponent: float | None = None) -> PotentialWell:
    """Construct one of the built-in wells.

    yukawa       exp(-mu*r) / (mu*r)
    exponential  exp(-mu*r)
    gaussian     exp(-(mu*r)**2)
    power_law    (mu*r)**p   with p > -2, p != 0 (pass as `exponent`)
    """
    kind = WellKind(kind)
    mu = float(mu)
    if not (mu > 0.0 and math.isfinite(mu)):
        raise ValueError(f"mu must be positive and finite, got {mu!r}")

    if kind is WellKind.YUKAWA:
        def v(r, mu=mu, exp=math.exp):
            return exp(-mu * r) / (mu * r)

        def v1(r, mu=mu):
            return -math.exp(-mu * r) * (mu * r + 1.0) / (mu * r * r)

        def v2(r, mu=mu):
            x = mu * r
            return math.exp(-x) * (x * x + 2.0 * x + 2.0) / (mu * r ** 3)

        return PotentialWell("yukawa", mu, _on_grid(v), v1, v2)

    if kind is WellKind.EXPONENTIAL:
        def v(r, mu=mu, exp=math.exp):
            return exp(-mu * r)

        def v1(r, mu=mu):
            return -mu * math.exp(-mu * r)

        def v2(r, mu=mu):
            return mu * mu * math.exp(-mu * r)

        return PotentialWell("exponential", mu, _on_grid(v), v1, v2)

    if kind is WellKind.GAUSSIAN:
        def v(r, mu=mu, exp=math.exp):
            return exp(-(mu * r) ** 2)

        def v1(r, mu=mu):
            return -2.0 * mu * mu * r * math.exp(-(mu * r) ** 2)

        def v2(r, mu=mu):
            m2 = mu * mu
            return (4.0 * m2 * m2 * r * r - 2.0 * m2) * math.exp(-(mu * r) ** 2)

        return PotentialWell("gaussian", mu, _on_grid(v), v1, v2)

    # power law
    if exponent is None:
        raise ValueError("power_law well needs an exponent")
    p = float(exponent)
    if not (p > -2.0 and p != 0.0 and math.isfinite(p)):
        raise ValueError(f"power_law exponent must satisfy p > -2, p != 0, got {p!r}")

    def v(r, mu=mu, p=p):
        return (mu * r) ** p

    def v1(r, mu=mu, p=p):
        return p * mu * (mu * r) ** (p - 1.0)

    def v2(r, mu=mu, p=p):
        return p * (p - 1.0) * mu * mu * (mu * r) ** (p - 2.0)

    # (mu*r)**p needs no math-module function: v itself takes arrays
    v.on_grid = v
    return PotentialWell(f"power_law({p:g})", mu, v, v1, v2, power_exponent=p)


# --- expression parser -------------------------------------------------------

_NUMBER_RE = re.compile(r"(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?")
_NAME_RE = re.compile(r"[A-Za-z_]+")

_FUNCTIONS = {"exp": math.exp, "sqrt": math.sqrt, "ln": math.log}


def _grid_functions() -> dict:
    """numpy's counterparts of _FUNCTIONS, which take whole arrays."""
    import numpy
    return {"exp": numpy.exp, "sqrt": numpy.sqrt, "ln": numpy.log}


def _on_grid(v: Callable) -> Callable:
    """v(r, exp=...) of a builtin, with its array form attached."""
    v.on_grid = partial(v, exp=_grid_functions()["exp"])
    return v


def _tokenize(text: str):
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        m = _NUMBER_RE.match(text, pos)
        if m:
            tokens.append(("num", float(m.group()), pos))
            pos = m.end()
            continue
        m = _NAME_RE.match(text, pos)
        if m:
            tokens.append(("name", m.group(), pos))
            pos = m.end()
            continue
        if ch in "+-*/^()":
            tokens.append(("op", ch, pos))
            pos += 1
            continue
        raise ExpressionError(f"unexpected character {ch!r}", pos)
    tokens.append(("end", "", n))
    return tokens


def _power(base: float, exp: float) -> float:
    out = base ** exp
    if isinstance(out, complex):
        raise ValueError(f"non-real power {base!r} ^ {exp!r}")
    return out


class _Parser:
    """Recursive-descent parser producing a closure of r; `functions` maps
    the names exp, sqrt and ln to their implementations."""

    def __init__(self, text: str, functions: dict = _FUNCTIONS):
        self.text = text
        self.functions = functions
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, pos = self.peek()
        if kind == "op" and val == op:
            self.i += 1
            return
        raise ExpressionError(f"expected {op!r}", pos)

    def parse(self):
        fn = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ExpressionError(f"unexpected {val!r}", pos)
        return fn

    def expr(self):
        fn = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                rhs = self.term()
                if val == "+":
                    fn = (lambda a, b: lambda r: a(r) + b(r))(fn, rhs)
                else:
                    fn = (lambda a, b: lambda r: a(r) - b(r))(fn, rhs)
            else:
                return fn

    def term(self):
        fn = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.take()
                rhs = self.factor()
                if val == "*":
                    fn = (lambda a, b: lambda r: a(r) * b(r))(fn, rhs)
                else:
                    fn = (lambda a, b: lambda r: a(r) / b(r))(fn, rhs)
            else:
                return fn

    def factor(self):
        # unary minus binds looser than '^': -r^2 means -(r^2)
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.take()
            inner = self.factor()
            return (lambda a: lambda r: -a(r))(inner)
        fn = self.primary()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.take()
            rhs = self.factor()  # right associative
            return (lambda a, b: lambda r: _power(a(r), b(r)))(fn, rhs)
        return fn

    def primary(self):
        kind, val, pos = self.take()
        if kind == "num":
            return (lambda c: lambda r: c)(val)
        if kind == "name":
            if val == "r":
                return lambda r: r
            if val in self.functions:
                func = self.functions[val]
                self.expect_op("(")
                inner = self.expr()
                self.expect_op(")")
                return (lambda f, a: lambda r: f(a(r)))(func, inner)
            raise ExpressionError(f"unknown identifier {val!r}", pos)
        if kind == "op" and val == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise ExpressionError(
            "unexpected end of expression" if kind == "end" else f"unexpected {val!r}",
            pos)


_PROBE_RADII = (0.5, 1.0, 2.0, 5.0)


def parse_custom(expr: str, mu: float = 1.0) -> PotentialWell:
    """Well from an expression in r, e.g. ``"exp(-r)*(1 + r/2)"``.

    The expression is evaluated literally (any length scale is written into
    it); mu only tells the solvers the inverse-length scale to search around.
    First and second derivatives come from Richardson-extrapolated central
    differences.  Wells that evaluate non-positive at the probe radii are
    accepted but flagged with NonPositiveWellWarning.
    """
    fn = _Parser(expr).parse()

    for r in _PROBE_RADII:
        try:
            val = fn(r)
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise ValueError(f"expression fails to evaluate at r={r}: {exc}") from exc
        if not math.isfinite(val):
            raise ValueError(f"expression is not finite at r={r}")
        if val <= 0.0:
            warnings.warn(
                f"custom well {expr!r} is not positive at r={r}",
                NonPositiveWellWarning, stacklevel=2)
            break

    def v(r, fn=fn):
        return fn(r)

    def v1(r, fn=fn):
        h = _FD1_STEP * max(1.0, abs(r))
        d_h = (fn(r + h) - fn(r - h)) / (2.0 * h)
        d_h2 = (fn(r + 0.5 * h) - fn(r - 0.5 * h)) / h
        return (4.0 * d_h2 - d_h) / 3.0

    def v2(r, fn=fn):
        h = _FD2_STEP * max(1.0, abs(r))
        f0 = fn(r)

        def second(hh):
            return (fn(r + hh) - 2.0 * f0 + fn(r - hh)) / (hh * hh)

        return (4.0 * second(0.5 * h) - second(h)) / 3.0

    v.on_grid = _Parser(expr, _grid_functions()).parse()
    return PotentialWell(f"custom:{expr}", float(mu), v, v1, v2)
