import math

import pytest
from hypothesis import given, strategies as st
from scipy import special

from etcrit.critical import zero_energy_radius
from etcrit.errors import BracketError, ConvergenceError, SingularJacobianError
from etcrit.numerics import (Bracket, RootConfig, bessel_j0_zero, find_root,
                             geometric_grid, lambert_w0, solve_2d,
                             value_or_nan)
from etcrit.potentials import PotentialWell


class TestLambertW:
    def test_identity_cases(self):
        assert lambert_w0(0.0) == 0.0
        assert lambert_w0(-math.exp(-1.0)) == pytest.approx(-1.0, abs=1e-12)

    def test_minus_tenth(self):
        w = lambert_w0(-0.1)
        # independent check: substitute back into w e^w = -0.1
        assert w * math.exp(w) == pytest.approx(-0.1, abs=1e-15)
        assert w == pytest.approx(-0.111833, abs=5e-7)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            lambert_w0(-0.5)

    @given(st.floats(min_value=-math.exp(-1.0) + 1e-9, max_value=1e3))
    def test_defining_identity(self, x):
        w = lambert_w0(x)
        assert abs(w * math.exp(w) - x) <= 1e-12 * max(1.0, abs(x))

    def test_against_scipy(self):
        for x in (-0.3678, -0.2, -1e-3, 0.5, 1.0, math.e, 50.0, 1e3):
            assert lambert_w0(x) == pytest.approx(
                float(special.lambertw(x).real), rel=1e-13, abs=1e-13)


class TestFindRoot:
    def test_known_root(self):
        assert find_root(lambda x: x * x - 2.0, Bracket(1.0, 2.0)) == \
            pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_exponential_radius_condition(self):
        # (2 - r) e^{-r} vanishes at r = 2 (algebraic solution)
        root = find_root(lambda r: (2.0 - r) * math.exp(-r), Bracket(1.0, 3.0))
        assert root == pytest.approx(2.0, rel=1e-12)

    def test_no_sign_change(self):
        with pytest.raises(BracketError):
            find_root(lambda x: x + 1.0, Bracket(1.0, 2.0))

    def test_max_iter_exhausted(self):
        cfg = RootConfig(rel_tol=1e-15, abs_tol=1e-300, max_iter=2)
        with pytest.raises(ConvergenceError):
            find_root(lambda x: math.tanh(50.0 * (x - 0.123456789)),
                      Bracket(0.0, 1.0), cfg)

    @given(st.floats(min_value=-5.0, max_value=5.0),
           st.floats(min_value=0.01, max_value=5.0))
    def test_root_inside_bracket(self, center, half_width):
        lo, hi = center - half_width, center + half_width
        root = find_root(lambda x: (x - center) ** 3 + 0.1 * (x - center),
                         Bracket(lo, hi))
        assert lo <= root <= hi
        assert root == pytest.approx(center, abs=1e-6 * max(1, abs(center)))


class TestScanHelpers:
    @pytest.mark.parametrize("lo, hi, points", [
        (1e-6, 1e6, 240), (1e-3 * 4.2, 1e3 * 4.2, 120), (0.5, 2.0, 2),
    ])
    def test_geometric_grid(self, lo, hi, points):
        grid = geometric_grid(lo, hi, points)
        assert len(grid) == points
        assert grid[0] == lo
        assert grid[-1] == pytest.approx(hi, rel=1e-12)
        ratio = grid[1] / grid[0]
        assert ratio > 1.0
        for a, b in zip(grid, grid[1:]):
            assert b / a == pytest.approx(ratio, rel=1e-12)

    def test_value_or_nan(self):
        def f(x):
            if x < 0.0:
                raise ValueError("outside the domain")
            if x == 0.0:
                raise ZeroDivisionError
            if x > 700.0:
                raise OverflowError
            return 2.0 * x

        assert value_or_nan(f, 1.5) == 3.0
        for x in (-1.0, 0.0, 800.0):
            assert math.isnan(value_or_nan(f, x))

    def test_zero_energy_radius_skips_points_that_raise(self):
        # 2 v + r v' = r (r - 2) (r - 5) above r = 0.5 and raises below it;
        # the first of the two sign changes is the zero-energy radius
        def v1(r):
            if r < 0.5:
                raise OverflowError
            return (r - 2.0) * (r - 5.0)

        well = PotentialWell("scan-test", 1.0, v=lambda r: 0.0, v1=v1,
                             v2=lambda r: 0.0)
        assert zero_energy_radius(well) == pytest.approx(2.0, rel=1e-12)


class TestSolve2d:
    def test_linear(self):
        x, y = solve_2d(lambda x, y: (x + y - 3.0, x - y - 1.0), (1.0, 1.0))
        assert (x, y) == pytest.approx((2.0, 1.0), abs=1e-10)

    def test_circle_line(self):
        x, y = solve_2d(lambda x, y: (x * x + y * y - 25.0, x - y - 1.0),
                        (3.0, 2.0))
        assert (x, y) == pytest.approx((4.0, 3.0), abs=1e-10)

    def test_exponential_line(self):
        # exact root of the system as stated: e^0 = 1, 0 + 1 = 1
        x, y = solve_2d(lambda x, y: (math.exp(x) - y, x + y - 1.0), (0.0, 1.0))
        assert (x, y) == pytest.approx((0.0, 1.0), abs=1e-10)

    def test_exponential_line_shifted(self):
        # 1-D reduction e^x = 2 - x, root frozen from a bisection oracle
        def bisect(f, lo, hi):
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if (f(mid) > 0) == (f(lo) > 0):
                    lo = mid
                else:
                    hi = mid
            return 0.5 * (lo + hi)

        expected = bisect(lambda x: math.exp(x) + x - 2.0, 0.0, 1.0)
        assert expected == pytest.approx(0.4429, abs=5e-5)
        x, y = solve_2d(lambda x, y: (math.exp(x) - y, x + y - 2.0), (0.0, 1.0))
        assert x == pytest.approx(expected, rel=1e-10)
        assert y == pytest.approx(2.0 - x, rel=1e-12)

    def test_residual_and_restart(self):
        def F(x, y):
            return (x * x * y - 2.0, x + math.exp(y) - 4.0)

        sol = solve_2d(F, (1.0, 1.0))
        assert max(abs(r) for r in F(*sol)) <= 1e-12
        # restarting from the solution converges immediately
        again = solve_2d(F, sol, RootConfig(max_iter=2))
        assert again == pytest.approx(sol, rel=1e-12)

    def test_singular_jacobian(self):
        with pytest.raises(SingularJacobianError):
            solve_2d(lambda x, y: (x + y - 1.0, 2.0 * x + 2.0 * y - 2.0),
                     (5.0, 5.0))


class TestBesselZeros:
    def test_first_three(self):
        # ten-figure references, so half an ulp of the last printed digit
        assert bessel_j0_zero(1) == pytest.approx(2.404825558, abs=5e-10)
        assert bessel_j0_zero(2) == pytest.approx(5.520078110, abs=5e-9)
        assert bessel_j0_zero(3) == pytest.approx(8.653727913, abs=5e-9)

    def test_against_scipy_all(self):
        reference = special.jn_zeros(0, 20)
        for k in range(1, 21):
            assert bessel_j0_zero(k) == pytest.approx(reference[k - 1],
                                                      rel=1e-12)

    def test_residual_at_zeros(self):
        for k in range(1, 21):
            assert abs(special.j0(bessel_j0_zero(k))) < 1e-10

    @pytest.mark.parametrize("bad", [0, 21, -3, 2.5, "1"])
    def test_out_of_range(self, bad):
        with pytest.raises(ValueError):
            bessel_j0_zero(bad)


class TestConfigs:
    def test_bad_bracket(self):
        with pytest.raises(ValueError):
            Bracket(2.0, 1.0)

    @pytest.mark.parametrize("kwargs", [
        {"rel_tol": 0.0}, {"abs_tol": -1.0}, {"max_iter": 0},
    ])
    def test_bad_config(self, kwargs):
        with pytest.raises(ValueError):
            RootConfig(**kwargs)
