"""Planck-scale identification and the effective kinematic scales."""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from gupmech.algebra import DomainError
from gupmech.constants import (
    CODATA,
    EXTENDED_CONTEXT,
    EffectiveScales,
    GEOMETRY_ONE_D,
    GEOMETRY_THREE_D,
    PhysicalConstants,
    effective_light_speed,
    effective_light_speed_extended,
    effective_velocity_u,
    gamma_from_planck_length,
    geometry_alpha,
    light_speed_deviation,
)

ELECTRON_C_GAMMA = 4.1854622147319584e-23


class TestPhysicalConstants:
    def test_planck_length_derived_from_the_others(self):
        assert CODATA.planck_length == pytest.approx(1.616255e-35, rel=1e-6)
        # sqrt(hbar G / c^3) of the instance's own entries; 4 G doubles it exactly
        heavier = PhysicalConstants(gravitational=4.0 * CODATA.gravitational)
        assert heavier.planck_length == 2.0 * CODATA.planck_length
        with pytest.raises(TypeError):
            PhysicalConstants(planck_length=1.616255e-35)


class TestGammaScale:
    def test_electron_strength(self):
        scale = gamma_from_planck_length(CODATA.electron_mass)
        assert scale.c_gamma == pytest.approx(ELECTRON_C_GAMMA, rel=1e-14)
        # magnitude window: the electron sits at ~4.2e-23
        assert abs(scale.c_gamma / 4.2e-23 - 1.0) < 0.02

    def test_linear_in_mass(self):
        one = gamma_from_planck_length(CODATA.electron_mass)
        two = gamma_from_planck_length(2.0 * CODATA.electron_mass)
        assert two.gamma == pytest.approx(2.0 * one.gamma, rel=1e-15)
        assert two.c_gamma == pytest.approx(2.0 * one.c_gamma, rel=1e-15)

    def test_nonpositive_mass_rejected(self):
        with pytest.raises(ValueError):
            gamma_from_planck_length(0.0)


class TestGeometryAlpha:
    def test_named_geometries(self):
        assert geometry_alpha(GEOMETRY_ONE_D) == math.sqrt(3.0 / 8.0)
        assert geometry_alpha(GEOMETRY_THREE_D) == 0.5

    def test_numeric_multiplier_passes_through(self):
        assert geometry_alpha(0.75) == 0.75

    def test_junk_rejected(self):
        with pytest.raises(ValueError):
            geometry_alpha("two-d")
        with pytest.raises(ValueError):
            geometry_alpha(-1.0)


class TestEffectiveVelocity:
    def test_electron_scale_dwarfs_light_speed(self):
        gamma = gamma_from_planck_length(CODATA.electron_mass).gamma
        ratio_1d = effective_velocity_u(gamma, GEOMETRY_ONE_D) / CODATA.light_speed
        ratio_3d = effective_velocity_u(gamma, GEOMETRY_THREE_D) / CODATA.light_speed
        assert ratio_1d == pytest.approx(1.4630939291253677e22, rel=1e-14)
        assert ratio_3d == pytest.approx(1.1946111907069757e22, rel=1e-14)
        assert abs(ratio_3d / 1.2e22 - 1.0) < 0.05

    def test_inverse_in_gamma(self):
        assert effective_velocity_u(2.0, 1.0) == 0.5
        with pytest.raises(ValueError):
            effective_velocity_u(0.0, GEOMETRY_ONE_D)


class TestLightSpeedDeviation:
    def test_electron_values(self):
        gamma = gamma_from_planck_length(CODATA.electron_mass).gamma
        dev_3d = light_speed_deviation(gamma, GEOMETRY_THREE_D)
        dev_1d = light_speed_deviation(gamma, GEOMETRY_ONE_D)
        assert dev_3d == pytest.approx(3.50361879018979e-45, rel=1e-14)
        assert dev_1d == pytest.approx(2.335745860126527e-45, rel=1e-14)
        assert abs(dev_3d / 3.5e-45 - 1.0) < 0.05

    def test_quadratic_in_gamma(self):
        base = light_speed_deviation(1e-24, GEOMETRY_ONE_D)
        assert light_speed_deviation(2e-24, GEOMETRY_ONE_D) == \
            pytest.approx(4.0 * base, rel=1e-12)

    def test_zero_gamma_means_no_shift(self):
        assert light_speed_deviation(0.0, GEOMETRY_THREE_D) == 0.0


class TestEffectiveLightSpeed:
    def test_zero_gamma_returns_c_exactly(self):
        assert effective_light_speed(0.0, GEOMETRY_ONE_D) == CODATA.light_speed

    def test_planck_scale_shift_rounds_away_in_double(self):
        # The ~1e-45 relative excess is invisible at 1e-16 resolution.
        gamma = gamma_from_planck_length(CODATA.electron_mass).gamma
        assert effective_light_speed(gamma, GEOMETRY_THREE_D) == \
            CODATA.light_speed

    def test_strong_deformation_rejected(self):
        with pytest.raises(DomainError):
            effective_light_speed(1.0, GEOMETRY_ONE_D, light_speed=1.0)

    def test_moderate_shift_visible_in_double(self):
        got = effective_light_speed(0.3, 1.0, light_speed=1.0)
        assert got == pytest.approx(1.0 / math.sqrt(1.0 - 0.09), rel=1e-15)


class TestExtendedPrecision:
    def test_exceeds_c_strictly(self):
        gamma = gamma_from_planck_length(CODATA.electron_mass).gamma
        c_eff = effective_light_speed_extended(gamma, GEOMETRY_THREE_D)
        assert c_eff > Decimal(CODATA.light_speed)

    def test_agrees_with_the_closed_form(self):
        gamma = gamma_from_planck_length(CODATA.electron_mass).gamma
        dev = light_speed_deviation(gamma, GEOMETRY_THREE_D)
        with localcontext(EXTENDED_CONTEXT):
            c_eff = effective_light_speed_extended(gamma, GEOMETRY_THREE_D)
            exact = c_eff / Decimal(CODATA.light_speed) - 1
            assert abs(float(exact / Decimal(dev)) - 1.0) < 1e-6

    @pytest.mark.parametrize("geometry", [GEOMETRY_ONE_D, GEOMETRY_THREE_D])
    def test_matches_exact_rational_arithmetic(self, geometry):
        # Every float enters as an exact fraction, so the gap is the
        # 90-digit rounding alone; 50 digits would leave about 1e-50.
        gamma = gamma_from_planck_length(CODATA.electron_mass).gamma
        c, g, a = (Fraction(v) for v in
                   (CODATA.light_speed, gamma, geometry_alpha(geometry)))
        exact_square = c ** 2 / (1 - (c * g / a) ** 2)
        c_eff = effective_light_speed_extended(gamma, geometry)
        assert abs(Fraction(c_eff) ** 2 / exact_square - 1) < Fraction(1, 10 ** 85)

    def test_strong_deformation_rejected(self):
        with pytest.raises(DomainError):
            effective_light_speed_extended(1.0, GEOMETRY_ONE_D, light_speed=1.0)


@pytest.mark.parametrize("function", [
    effective_light_speed, light_speed_deviation, effective_light_speed_extended])
@pytest.mark.parametrize("gamma, light_speed, name", [
    (math.nan, None, "gamma"),
    (math.inf, None, "gamma"),
    (-1e-24, None, "gamma"),
    (1e-24, math.nan, "light_speed"),
    (1e-24, math.inf, "light_speed"),
    (1e-24, -3.0, "light_speed"),
    (1e-24, 0.0, "light_speed"),
])
def test_light_speed_domain_edges_are_refused(function, gamma, light_speed, name):
    with pytest.raises(ValueError, match=f"^{name} must be finite and"):
        function(gamma, GEOMETRY_THREE_D, light_speed)


class TestEffectiveScales:
    def test_bundle_for_the_electron(self):
        scales = EffectiveScales.for_mass(CODATA.electron_mass,
                                          GEOMETRY_THREE_D)
        assert scales.geometry == GEOMETRY_THREE_D
        assert scales.c_gamma == pytest.approx(ELECTRON_C_GAMMA, rel=1e-14)
        assert scales.u == pytest.approx(0.5 / scales.gamma, rel=1e-15)
        assert scales.deviation == pytest.approx(3.50361879018979e-45,
                                                 rel=1e-14)
        assert scales.c_eff == CODATA.light_speed

    def test_u_is_mass_independent_times_alpha_over_gamma(self):
        # u*gamma = alpha regardless of the particle.
        for mass in (CODATA.electron_mass, 2.0 * CODATA.electron_mass):
            scales = EffectiveScales.for_mass(mass, GEOMETRY_ONE_D)
            assert scales.u * scales.gamma == pytest.approx(
                math.sqrt(3.0 / 8.0), rel=1e-15)
