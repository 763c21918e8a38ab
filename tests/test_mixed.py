import math
import random

import pytest

from etcrit.critical import critical_coupling
from etcrit.errors import EtcritError, UnboundError
from etcrit.identical import IdenticalSystem, solve_energy
from etcrit.mixed import (INFINITE, MixedSystem, critical_coupling_aa,
                          critical_coupling_ab, exponential_consistency_check,
                          reduced_mass, solve_energy_mixed)
from etcrit.numerics import Bracket, find_root
from etcrit.potentials import make_builtin
from etcrit.quantum import StateSpec, bosonic_ground, global_quantum_number

EXP = make_builtin("exponential", 1.0)
GROUND2 = StateSpec(((0, 0),), 3)


def ground_a(na):
    return StateSpec(((0, 0),) * (na - 1), 3)


def mixed(na, ma, mb, g_aa, g_ab, well_aa=EXP, well_ab=EXP):
    return MixedSystem(na, ma, mb, g_aa, g_ab, well_aa, well_ab)


class TestReducedMass:
    def test_values(self):
        assert reduced_mass(1, 1.0, 1.0) == pytest.approx(0.5)
        assert reduced_mass(10, 1.0, 2.0) == pytest.approx(5.0 / 3.0)
        assert reduced_mass(2, 1.0, INFINITE) == 2.0

    def test_invalid(self):
        with pytest.raises(ValueError):
            reduced_mass(0, 1.0, 1.0)


class TestMixedEnergy:
    def test_single_particle_reduces_to_two_body(self):
        energy, geo = solve_energy_mixed(mixed(1, 1.0, 1.0, 0.0, 40.0),
                                         StateSpec((), 3), GROUND2)
        reference = solve_energy(IdenticalSystem(2, 1.0, 40.0, EXP),
                                 bosonic_ground(2, 3))
        assert energy == pytest.approx(reference.energy, rel=1e-12)
        assert geo.r_ab == pytest.approx(reference.rho0, rel=1e-12)
        assert geo.p_a == 0.0 and geo.r_aa == 0.0

    def test_static_pair_binds_above_threshold(self):
        energy, geo = solve_energy_mixed(mixed(2, 1.0, INFINITE, 0.0, 3.0),
                                         ground_a(2), GROUND2)
        assert energy < 0.0
        assert geo.r_aa > 0 and geo.r_ab > 0

    def test_geometry_identities(self):
        energy, geo = solve_energy_mixed(mixed(3, 1.0, 2.0, 0.3, 5.0),
                                         ground_a(3), GROUND2)
        na = 3
        assert geo.p_a_eff ** 2 == pytest.approx(
            geo.p_a ** 2 + geo.p_ab ** 2 / na ** 2, rel=1e-12)
        assert geo.r_ab_eff ** 2 == pytest.approx(
            (na - 1) / (2 * na) * geo.r_aa ** 2 + geo.r_ab ** 2, rel=1e-12)
        assert all(res <= 1e-9 for res in geo.residuals)

    def test_harmonic_matches_jacobi_spectrum(self):
        # two identical + one distinct in pairwise harmonic interactions:
        # normal modes x (internal pair) and y (pair vs distinct) with
        # w_x = sqrt((4 k_aa + 2 k_ab)/m_a), w_y = sqrt(2 k_ab (2 m_a + m_b)
        # / (m_a m_b)); ground energy (3/2)(w_x + w_y)
        hwell = make_builtin("power_law", 1.0, exponent=2.0)
        for ma, mb, kaa, kab in [(1.0, 3.0, 0.7, 1.3), (2.0, 0.5, 0.2, 2.0)]:
            energy, _ = solve_energy_mixed(
                mixed(2, ma, mb, kaa, kab, hwell, hwell), ground_a(2), GROUND2)
            wx = math.sqrt((4 * kaa + 2 * kab) / ma)
            wy = math.sqrt(2 * kab * (2 * ma + mb) / (ma * mb))
            assert energy == pytest.approx(1.5 * (wx + wy), rel=1e-10)

    def test_harmonic_static_source(self):
        hwell = make_builtin("power_law", 1.0, exponent=2.0)
        ma, kaa, kab = 1.0, 0.7, 1.3
        energy, _ = solve_energy_mixed(
            mixed(2, ma, INFINITE, kaa, kab, hwell, hwell), ground_a(2), GROUND2)
        wx = math.sqrt((4 * kaa + 2 * kab) / ma)
        wy = math.sqrt(2 * kab / ma)
        assert energy == pytest.approx(1.5 * (wx + wy), rel=1e-10)

    def test_unbound_when_attachment_absent(self):
        with pytest.raises(UnboundError):
            solve_energy_mixed(mixed(2, 1.0, INFINITE, 0.1, 1e-6),
                               ground_a(2), GROUND2)

    def test_state_validation(self):
        with pytest.raises(ValueError):
            solve_energy_mixed(mixed(2, 1.0, 1.0, 0.0, 3.0),
                               ground_a(3), GROUND2)
        with pytest.raises(ValueError):
            solve_energy_mixed(mixed(2, 1.0, 1.0, 0.0, 3.0),
                               ground_a(2), bosonic_ground(3, 3))


class TestCriticalAttachment:
    def test_static_single_particle_anchor(self):
        result = critical_coupling_ab(mixed(1, 1.0, INFINITE, 0.0, 1.0),
                                      StateSpec((), 3), GROUND2)
        assert result.critical_value == pytest.approx(2.078, abs=0.001)
        assert result.mu_ab == 1.0

    def test_single_particle_closed_form(self):
        result = critical_coupling_ab(mixed(1, 1.0, 2.0, 0.0, 1.0),
                                      StateSpec((), 3), GROUND2)
        assert result.critical_value == pytest.approx(27 * math.e ** 2 / 64,
                                                      rel=1e-12)

    def test_symmetric_point(self):
        g11 = critical_coupling(EXP, 11, 1.0, bosonic_ground(11, 3)).g_crit
        result = critical_coupling_ab(mixed(10, 1.0, 1.0, g11, 1.0),
                                      ground_a(10), GROUND2)
        assert result.critical_value == pytest.approx(g11, rel=1e-4)

    def test_two_body_reduction_random(self):
        rng = random.Random(11)
        for case in range(10):
            ma = rng.uniform(0.3, 3.0)
            mb = INFINITE if case % 3 == 0 else rng.uniform(0.3, 3.0)
            mu = rng.uniform(0.5, 2.0)
            well = make_builtin("exponential", mu)
            state_b = StateSpec(((rng.randint(0, 1), rng.randint(0, 1)),), 3)
            closed = critical_coupling_ab(
                mixed(1, ma, mb, 0.0, 1.0, well, well),
                StateSpec((), 3), state_b).critical_value

            def energy_at(g):
                return solve_energy_mixed(
                    mixed(1, ma, mb, 0.0, g, well, well),
                    StateSpec((), 3), state_b)[0]

            crossing = find_root(energy_at, Bracket(0.85 * closed, 1.3 * closed))
            assert crossing == pytest.approx(closed, rel=1e-9)

    def test_self_bound_subsystem_has_no_critical(self):
        # nine identical particles at g_aa = 1 bind without the distinct one
        with pytest.raises(UnboundError):
            critical_coupling_ab(mixed(9, 1.0, 2.0, 1.0, 1.0),
                                 ground_a(9), GROUND2)

    def test_no_critical_from_the_self_binding_threshold(self):
        # the pair binds by itself from its own critical coupling 9e^2/16;
        # a critical g_ab exists below that held g_aa and none from it on
        g_self = critical_coupling(EXP, 2, 1.0, ground_a(2)).g_crit
        assert g_self == pytest.approx(9 * math.e ** 2 / 16, rel=1e-10)
        below = critical_coupling_ab(mixed(2, 1.0, 0.5, 0.999 * g_self, 1.0),
                                     ground_a(2), GROUND2)
        assert below.critical_value > 0.0
        for g_aa in (g_self, 1.05 * g_self):
            with pytest.raises(UnboundError):
                critical_coupling_ab(mixed(2, 1.0, 0.5, g_aa, 1.0),
                                     ground_a(2), GROUND2)


class TestCriticalInternal:
    def test_zero_at_single_particle_threshold(self):
        result = critical_coupling_aa(mixed(2, 1.0, INFINITE, 0.0, 2.078),
                                      ground_a(2), GROUND2)
        assert abs(result.critical_value) <= 0.005

    def test_weak_attachment_unbound(self):
        for h in (0.1, 0.2):
            with pytest.raises(UnboundError):
                critical_coupling_aa(mixed(2, 1.0, INFINITE, 0.0, h),
                                     ground_a(2), GROUND2)

    def test_strong_attachment_reports_smallest_root(self):
        # above the single-particle threshold a second zero-energy sheet
        # (pair at its own critical coupling, distinct particle detached)
        # exists; the smallest-|g| root is reported and both are listed
        result = critical_coupling_aa(mixed(2, 1.0, INFINITE, 0.0, 3.0),
                                      ground_a(2), GROUND2)
        assert result.critical_value > 0.0
        assert len(result.candidates) == 2
        assert min(result.candidates) < 0.0

    def test_round_trip(self):
        for na, mb, g_aa in [(3, 1.5, 0.4), (2, INFINITE, 0.5), (5, 2.0, 0.2)]:
            forward = critical_coupling_ab(mixed(na, 1.0, mb, g_aa, 1.0),
                                           ground_a(na), GROUND2)
            back = critical_coupling_aa(
                mixed(na, 1.0, mb, 0.0, forward.critical_value),
                ground_a(na), GROUND2)
            assert back.critical_value == pytest.approx(g_aa, rel=1e-6,
                                                        abs=1e-9)

    def test_requires_multiple_identical(self):
        with pytest.raises(ValueError):
            critical_coupling_aa(mixed(1, 1.0, 1.0, 0.0, 1.0),
                                 StateSpec((), 3), GROUND2)

    def test_requires_positive_attachment(self):
        with pytest.raises(ValueError):
            critical_coupling_aa(mixed(2, 1.0, 1.0, 0.0, -0.5),
                                 ground_a(2), GROUND2)


class TestCriticalResiduals:
    """Both residuals of the zero-energy system are reported, the second one
    recomputed here from the returned geometry (hbar = 1)."""

    @staticmethod
    def second_equation(sysm, held, geo):
        na, r, rr = sysm.na, geo.r_aa, geo.r_ab
        kin_ab = global_quantum_number(GROUND2) ** 2 / sysm.mu_ab
        if held == "g_aa":
            kin_aa = global_quantum_number(ground_a(na)) ** 2 / sysm.mass_a
            lhs = sysm.g_aa * sysm.well_aa.v1(r)
            t1 = r / (na * na * rr ** 4) * kin_ab
            t2 = 4.0 / (na * (na - 1) ** 2) * kin_aa / r ** 3
            return abs(lhs - (t1 - t2)) / (abs(lhs) + abs(t1) + abs(t2))
        rp = geo.r_ab_eff
        lhs = sysm.g_ab * sysm.well_ab.v1(rp)
        rhs = -rp / (na * rr ** 4) * kin_ab
        return abs(lhs - rhs) / (abs(lhs) + abs(rhs))

    @pytest.mark.parametrize("held, sysm", [
        ("g_aa", mixed(5, 1.0, 1.0, 0.5, 1.0)),
        ("g_ab", mixed(2, 1.0, INFINITE, 0.0, 0.6)),
    ], ids=["ab-Na5", "aa-static-pair"])
    def test_second_residual_is_reported(self, held, sysm):
        solve = critical_coupling_ab if held == "g_aa" else critical_coupling_aa
        geo = solve(sysm, ground_a(sysm.na), GROUND2).geometry
        expected = self.second_equation(sysm, held, geo)
        assert geo.residuals[1] == pytest.approx(expected, rel=1e-6,
                                                 abs=1e-22)
        assert geo.residuals[1] < 1e-8


class TestStaticLimit:
    def test_huge_mass_approaches_infinite(self):
        state_a = ground_a(5)
        h_inf = critical_coupling_ab(mixed(5, 1.0, INFINITE, 0.3, 1.0),
                                     state_a, GROUND2).critical_value
        h_big = critical_coupling_ab(mixed(5, 1.0, 1e6, 0.3, 1.0),
                                     state_a, GROUND2).critical_value
        assert h_big == pytest.approx(h_inf, rel=1e-4)

    def test_energy_limit(self):
        e_inf, _ = solve_energy_mixed(mixed(3, 1.0, INFINITE, 0.2, 3.0),
                                      ground_a(3), GROUND2)
        e_big, _ = solve_energy_mixed(mixed(3, 1.0, 1e6, 0.2, 3.0),
                                      ground_a(3), GROUND2)
        assert e_big == pytest.approx(e_inf, rel=1e-4)


class TestExponentialConsistency:
    @pytest.mark.parametrize("na, mb, hold, value", [
        (10, 2.0, "g_aa", 0.5),
        (4, INFINITE, "g_aa", 0.5),
        (2, INFINITE, "g_ab", 2.5),
        (1, 2.0, "g_aa", 0.0),
    ])
    def test_agreement(self, na, mb, hold, value):
        result = exponential_consistency_check(na, mb, hold, value)
        assert math.isfinite(result.critical_value)

    def test_disagreement_detected(self, monkeypatch):
        import etcrit.mixed as mixed_mod

        monkeypatch.setattr(mixed_mod, "_explicit_exponential_value",
                            lambda *args: 1.2345)
        with pytest.raises(EtcritError):
            exponential_consistency_check(4, INFINITE, "g_aa", 0.5)

    def test_bad_hold(self):
        with pytest.raises(ValueError):
            exponential_consistency_check(2, 1.0, "g_xx", 0.5)
