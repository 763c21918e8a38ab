import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy import optimize, special

from etcrit import kernels
from etcrit.errors import BracketError, UnboundError
from etcrit.oracle import (GridSpec, RadialProblem, default_grid,
                           exact_swave_critical, radial_critical_coupling,
                           radial_eigenvalue)
from etcrit.potentials import make_builtin, parse_custom

EXP = make_builtin("exponential", 1.0)


def exact_swave_energy(g, n):
    """Independent route: 2 sqrt(g) must be a zero of J_nu, nu = 2 sqrt(-E);
    the n-th state takes the (n+1)-th order counted downward."""
    x0 = 2.0 * math.sqrt(g)
    orders = []
    grid = np.linspace(1e-6, x0, 2000)
    vals = special.jv(grid, x0)
    for i in range(len(grid) - 1):
        if vals[i] * vals[i + 1] < 0:
            orders.append(optimize.brentq(
                lambda v: special.jv(v, x0), grid[i], grid[i + 1], xtol=1e-13))
    orders.sort(reverse=True)
    return -(orders[n] / 2.0) ** 2


class TestExactSwave:
    def test_values(self):
        assert exact_swave_critical(0) == pytest.approx(1.4458, abs=1e-4)
        assert exact_swave_critical(1) == pytest.approx(7.618, abs=1e-3)
        assert exact_swave_critical(2) == pytest.approx(18.72, abs=1e-2)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            exact_swave_critical(20)
        with pytest.raises(ValueError):
            exact_swave_critical(-1)


class TestRadialEigenvalue:
    def test_swave_spectrum_vs_bessel_orders(self):
        for n in range(4):
            computed = radial_eigenvalue(RadialProblem(0, EXP, 40.0), n)
            assert computed == pytest.approx(exact_swave_energy(40.0, n),
                                             rel=1e-7)

    @pytest.mark.parametrize("l, n, expected", [
        (1, 0, -10.14), (1, 1, -3.35), (1, 2, -0.42),
        (2, 0, -5.03), (2, 1, -0.93), (3, 0, -1.55),
    ])
    def test_nonzero_l_table(self, l, n, expected):
        computed = radial_eigenvalue(RadialProblem(l, EXP, 40.0), n)
        assert computed == pytest.approx(expected, rel=0.01)

    def test_harmonic_reference(self):
        hwell = make_builtin("power_law", 1.0, exponent=2.0)
        for l in (0, 1):
            for n in (0, 1):
                computed = radial_eigenvalue(RadialProblem(l, hwell, 1.0), n)
                assert computed == pytest.approx(4 * n + 2 * l + 3, rel=1e-8)

    def test_kinetic_coefficient_scaling(self):
        # doubling kc doubles energies once g is doubled too
        base = radial_eigenvalue(RadialProblem(0, EXP, 40.0), 0)
        scaled = radial_eigenvalue(
            RadialProblem(0, EXP, 80.0, kinetic_coefficient=2.0), 0)
        assert scaled == pytest.approx(2.0 * base, rel=1e-10)

    def test_grid_convergence(self):
        grid = default_grid(1.0)
        fine = GridSpec(grid.r_max, 2 * grid.points)
        for l, n in ((0, 0), (1, 1), (3, 0)):
            coarse_e = radial_eigenvalue(RadialProblem(l, EXP, 40.0), n, grid)
            fine_e = radial_eigenvalue(RadialProblem(l, EXP, 40.0), n, fine)
            assert abs(fine_e - coarse_e) < 1e-6 * abs(fine_e)

    def test_box_extension_for_shallow_state(self):
        # (l=0, n=3) lies at -0.0768; the default 40-unit box must extend
        # itself rather than return an unconverged value
        computed = radial_eigenvalue(RadialProblem(0, EXP, 40.0), 3)
        assert computed == pytest.approx(exact_swave_energy(40.0, 3), rel=1e-6)

    def test_no_bound_state(self):
        with pytest.raises(UnboundError):
            radial_eigenvalue(RadialProblem(0, EXP, 1.0), 1)
        with pytest.raises(UnboundError):
            radial_eigenvalue(RadialProblem(0, EXP, 0.5), 0)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            GridSpec(0.0, 8000)
        with pytest.raises(ValueError):
            GridSpec(40.0, 100)


class TestRadialCritical:
    def test_swave_matches_bessel_zeros(self):
        for n in range(3):
            got = radial_critical_coupling(0, n, EXP)
            assert got == pytest.approx(exact_swave_critical(n), rel=1e-3)

    @pytest.mark.parametrize("n", range(20))
    def test_swave_within_numerov_error_to_n19(self, n):
        # Numerov's O(h^4 g^2) error on the default grid, or rounding
        # (3e-10 relative) where that is larger
        exact = exact_swave_critical(n)
        h = 40.0 / 8000
        bound = max(3e-10 * exact, 0.01 * (h * h * exact) ** 2 * exact)
        assert abs(radial_critical_coupling(0, n, EXP) - exact) <= bound

    @pytest.mark.parametrize("l", [0, 1, 2])
    def test_rises_strictly_with_n(self, l):
        values = [radial_critical_coupling(l, n, EXP) for n in range(6)]
        assert all(a < b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("l, n, expected", [
        (1, 0, 7.05), (2, 0, 16.3), (1, 1, 16.9), (2, 2, 48.1),
    ])
    def test_nonzero_l_values(self, l, n, expected):
        assert radial_critical_coupling(l, n, EXP) == \
            pytest.approx(expected, rel=0.01)

    def test_et_upper_bound_everywhere(self):
        from etcrit.critical import critical_coupling
        from etcrit.quantum import StateSpec

        for n in range(3):
            for l in range(3):
                et = critical_coupling(EXP, 2, 1.0,
                                       StateSpec(((n, l),), 3)).g_crit
                assert et >= radial_critical_coupling(l, n, EXP)

    def test_scaling_with_mu(self):
        base = radial_critical_coupling(0, 0, EXP)
        scaled = radial_critical_coupling(0, 0, make_builtin("exponential", 2.0))
        assert scaled == pytest.approx(4.0 * base, rel=1e-6)

    def test_rejects_power_law(self):
        with pytest.raises(ValueError):
            radial_critical_coupling(0, 0,
                                     make_builtin("power_law", 1.0, exponent=2.0))

    @pytest.mark.parametrize("expr", ["r", "2", "1/r"])
    def test_rejects_a_well_that_has_not_decayed(self, expr):
        # the outer form c1 r^-l + c2 r^(l+1) needs v ~ 0 at r_max
        with pytest.raises(BracketError, match="not decayed"):
            radial_critical_coupling(0, 0, parse_custom(expr, 1.0))

    def test_replaced_v_is_the_one_solved(self):
        # a v swapped in after construction has no array form of its own,
        # so the solvers must sample it, not the original formula
        doubled = dataclasses.replace(EXP, v=lambda r: 2.0 * EXP.v(r))
        assert radial_critical_coupling(0, 1, doubled) == pytest.approx(
            0.5 * radial_critical_coupling(0, 1, EXP), rel=1e-12)
        assert radial_eigenvalue(RadialProblem(1, doubled, 20.0), 0) == (
            pytest.approx(radial_eigenvalue(RadialProblem(1, EXP, 40.0), 0),
                          rel=1e-12))

    def test_gaussian_well(self):
        gauss = make_builtin("gaussian", 1.0)
        g = radial_critical_coupling(0, 0, gauss)
        # the eigenvalue route brackets the same threshold
        with pytest.raises(UnboundError):
            radial_eigenvalue(RadialProblem(0, gauss, 0.97 * g), 0)
        assert radial_eigenvalue(RadialProblem(0, gauss, 1.3 * g), 0) < 0.0

    @pytest.mark.parametrize("kind, window", [
        ("exponential", 1e-6), ("gaussian", 1e-6),
        # the 1/r origin costs the fixed-step integrator a few digits
        ("yukawa", 1e-4),
    ])
    def test_independent_ode_integrator_brackets_value(self, kind, window):
        from scipy.integrate import solve_ivp

        well = make_builtin(kind, 1.0)
        mine = radial_critical_coupling(0, 0, well)

        def rk_match(gbar):
            def rhs(r, y):
                return [y[1], -gbar * well.v(r) * y[0]]

            sol = solve_ivp(rhs, (1e-6, 40.0), [1e-6, 1.0],
                            rtol=1e-10, atol=1e-12, dense_output=True)
            return sol.sol(40.0)[0] - sol.sol(39.995)[0]

        lo, hi = rk_match(mine * (1 - window)), rk_match(mine * (1 + window))
        assert (lo > 0) != (hi > 0), (
            f"independent integrator puts the {kind} critical coupling "
            f"outside {mine} * (1 +- {window})")


class TestWellOutsideItsDomain:
    def test_same_exception_as_the_scalar_well(self):
        # passes parse_custom's probes (r >= 0.5) but fails below r = 0.1,
        # so the array form gives NaN there and the scalar form raises
        well = parse_custom("exp(-r)*(3+ln(r-0.1))", 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="math domain error"):
                radial_critical_coupling(0, 0, well)
            with pytest.raises(ValueError, match="math domain error"):
                radial_eigenvalue(RadialProblem(0, well, 40.0), 0)


class TestSweepBudget:
    """Kernel calls per solve, counted rather than timed."""

    @pytest.fixture
    def sweeps(self, monkeypatch):
        points = []
        sweep = kernels.numerov_sweep

        def counted(w, *args):
            points.append(len(w) - 1)
            return sweep(w, *args)

        monkeypatch.setattr(kernels, "numerov_sweep", counted)
        return points

    @pytest.mark.parametrize("l", [0, 1, 2])
    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_critical_coupling(self, sweeps, l, n):
        radial_critical_coupling(l, n, EXP)
        assert len(sweeps) <= 30

    def test_box_extension(self, sweeps):
        radial_eigenvalue(RadialProblem(0, EXP, 40.0), 3)
        assert max(sweeps) > default_grid(1.0).points  # the box did extend
        assert len(sweeps) < 159
