import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from etcrit.errors import ExpressionError
from etcrit.potentials import (NonPositiveWellWarning, WellKind, make_builtin,
                               parse_custom)

RADII = [0.1, 0.2, 0.5, 1.0, 2.0, 3.0, 5.0, 10.0]


def central_diff(f, r, h):
    return (f(r + h) - f(r - h)) / (2.0 * h)


class TestBuiltins:
    def test_point_values(self):
        exp = make_builtin("exponential", 1.0)
        assert exp.v(1.0) == pytest.approx(math.exp(-1.0), rel=1e-14)
        yuk = make_builtin("yukawa", 2.0)
        assert yuk.v(0.5) == pytest.approx(math.exp(-1.0), rel=1e-14)
        gau = make_builtin("gaussian", 2.0)
        assert gau.v1(0.5) == pytest.approx(-2.0 * 4.0 * 0.5 * math.exp(-1.0),
                                            rel=1e-14)

    @pytest.mark.parametrize("kind", ["yukawa", "exponential", "gaussian"])
    @pytest.mark.parametrize("mu", [0.5, 1.0, 3.0])
    def test_derivatives_match_central_differences(self, kind, mu):
        well = make_builtin(kind, mu)
        for r in RADII:
            h = 1e-5 * max(1.0, r)
            d1 = central_diff(well.v, r, h)
            d2 = central_diff(well.v1, r, h)
            assert well.v1(r) == pytest.approx(d1, rel=1e-6)
            assert well.v2(r) == pytest.approx(d2, rel=1e-6)

    def test_power_law_derivatives(self):
        well = make_builtin("power_law", 2.0, exponent=1.5)
        for r in RADII:
            h = 1e-6 * max(1.0, r)
            assert well.v1(r) == pytest.approx(central_diff(well.v, r, h),
                                               rel=1e-7)
        assert well.power_exponent == 1.5

    @given(st.sampled_from(["yukawa", "exponential", "gaussian"]),
           st.floats(min_value=0.1, max_value=10.0),
           st.floats(min_value=0.05, max_value=20.0))
    def test_scaling_identity(self, kind, mu, r):
        scaled = make_builtin(kind, mu)
        unit = make_builtin(kind, 1.0)
        assert scaled.v(r) == unit.v(mu * r)

    def test_monotone_builtins_decrease(self):
        for kind in ("yukawa", "exponential", "gaussian"):
            well = make_builtin(kind, 1.0)
            assert all(well.v(r) > 0.0 for r in RADII)
            assert all(well.v1(r) < 0.0 for r in RADII)

    @pytest.mark.parametrize("kwargs", [
        {"kind": "exponential", "mu": 0.0},
        {"kind": "exponential", "mu": -1.0},
        {"kind": "power_law", "mu": 1.0, "exponent": -2.5},
        {"kind": "power_law", "mu": 1.0, "exponent": 0.0},
        {"kind": "power_law", "mu": 1.0},
    ])
    def test_invalid_arguments(self, kwargs):
        kind = kwargs.pop("kind")
        with pytest.raises(ValueError):
            make_builtin(kind, **kwargs)

    def test_wellkind_enum_roundtrip(self):
        assert WellKind("yukawa") is WellKind.YUKAWA
        assert make_builtin(WellKind.GAUSSIAN, 1.0).name == "gaussian"


class TestParseCustom:
    def test_matches_builtin_exponential(self):
        parsed = parse_custom("exp(-r)", 1.0)
        builtin = make_builtin("exponential", 1.0)
        for i in range(100):
            r = 0.05 + 0.1 * i
            assert parsed.v(r) == pytest.approx(builtin.v(r), rel=1e-12)

    def test_numeric_derivatives(self):
        parsed = parse_custom("exp(-r)", 1.0)
        assert parsed.v1(1.0) == pytest.approx(-math.exp(-1.0), abs=1e-8)
        for r in (0.5, 1.0, 2.0, 4.0):
            assert parsed.v1(r) == pytest.approx(-math.exp(-r), rel=1e-7)
            assert parsed.v2(r) == pytest.approx(math.exp(-r), rel=1e-7)

    def test_grammar_coverage(self):
        cases = {
            "1 + 2*r - r/4": lambda r: 1 + 2 * r - r / 4,
            "r^2 * exp(-r^2)": lambda r: r ** 2 * math.exp(-r ** 2),
            "sqrt(r + 1)": lambda r: math.sqrt(r + 1),
            "ln(1 + r) / r": lambda r: math.log(1 + r) / r,
            "-(-r)": lambda r: r,
            "2^r^2": lambda r: 2.0 ** (r ** 2),  # right-assoc power
            "exp(-1.5e0 * r)": lambda r: math.exp(-1.5 * r),
        }
        for text, ref in cases.items():
            well = parse_custom(text, 1.0)
            for r in (0.3, 1.0, 2.5):
                assert well.v(r) == pytest.approx(ref(r), rel=1e-12), text

    def test_syntax_error_position(self):
        with pytest.raises(ExpressionError) as err:
            parse_custom("exp(-r", 1.0)
        assert err.value.position == 6

    @pytest.mark.parametrize("text, pos", [
        ("2 +", 3),
        ("r @ 2", 2),
        ("foo(r)", 0),
        ("(r", 2),
        ("1 2", 2),
    ])
    def test_more_syntax_errors(self, text, pos):
        with pytest.raises(ExpressionError) as err:
            parse_custom(text, 1.0)
        assert err.value.position == pos

    def test_non_positive_warning(self):
        with pytest.warns(NonPositiveWellWarning):
            parse_custom("r - 1", 1.0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            parse_custom("1/(r - r)", 1.0)

    def test_name_records_expression(self):
        assert parse_custom("exp(-r)", 2.0).name == "custom:exp(-r)"


class TestGridForm:
    """v.on_grid is v applied to a whole array of radii at once."""

    @pytest.mark.parametrize("well", [
        make_builtin("exponential", 1.0),
        make_builtin("exponential", 0.53),
        make_builtin("yukawa", 1.0),
        make_builtin("yukawa", 1.9),
        make_builtin("gaussian", 1.0),
        make_builtin("power_law", 1.0, exponent=2.0),
        make_builtin("power_law", 1.3, exponent=-1.0),
        make_builtin("power_law", 0.8, exponent=1.5),
        parse_custom("exp(-0.8*r)*(1+0.8*r/2)", 0.8),
        parse_custom("sqrt(r + 1) * ln(2 + r) / r^2", 1.0),
        parse_custom("2", 1.0),
    ], ids=lambda well: well.name)
    def test_matches_scalar_within_4_ulp(self, well):
        r, scalar, grid = self.sample(well)
        assert np.all(np.abs(grid - scalar) <= 4 * np.spacing(np.abs(scalar)))

    @pytest.mark.parametrize("mu", [0.53, 0.7, 1.9])
    def test_gaussian_within_the_rounding_of_its_exponent(self, mu):
        # (mu*r)**2 is pow() on a float but an exact square on an array:
        # one ulp apart, which moves exp(-y) by up to y ulp
        r, scalar, grid = self.sample(make_builtin("gaussian", mu))
        y = (mu * r) ** 2
        assert np.all(np.abs(grid - scalar)
                      <= 4 * np.spacing(scalar) + scalar * np.spacing(y))

    @staticmethod
    def sample(well):
        # the radial oracle's default grid: r_max = 40/mu, 8000 steps
        r = np.arange(1, 8001) * (40.0 / well.mu / 8000)
        scalar = np.array([well.v(x) for x in r])
        return r, scalar, np.broadcast_to(well.v.on_grid(r), r.shape)
