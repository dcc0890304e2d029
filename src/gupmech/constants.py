"""Pinned physical constants and the effective kinematic scales they set.

Identifying the minimal length hbar*sqrt(beta) with the Planck length
fixes gamma = mass * l_planck / hbar for a given particle, and with it
an effective velocity scale u = alpha/gamma and a shifted light speed
1/c_eff^2 = 1/c^2 - gamma^2/alpha^2.  The geometry multiplier alpha is
sqrt(3/8) for the one-dimensional algebra and 1/2 for the
three-dimensional one.

The shift (c_eff - c)/c is of order 1e-45 for the electron, far below
double-precision resolution of c itself, so the deviation is always
computed from the closed first-order form; a 90-digit `decimal` path
evaluates the exact expression for validation only.
"""

import math
from dataclasses import dataclass
from decimal import Context, Decimal, localcontext
from typing import NamedTuple

from .algebra import DomainError

GEOMETRY_ONE_D = "one-d"
GEOMETRY_THREE_D = "three-d"

# Enough working digits to resolve a 1e-45 perturbation to ~1e-40 and below.
EXTENDED_PRECISION_DPS = 90
EXTENDED_CONTEXT = Context(prec=EXTENDED_PRECISION_DPS)  # localcontext(prec=) needs 3.11


@dataclass(frozen=True)
class PhysicalConstants:
    """SI values: exact light speed, CODATA 2018 for the rest."""

    light_speed: float = 299792458.0          # m/s, exact by definition
    reduced_planck: float = 1.054571817e-34   # J s
    gravitational: float = 6.67430e-11        # m^3 kg^-1 s^-2
    electron_mass: float = 9.1093837015e-31   # kg

    @property
    def planck_length(self) -> float:
        """sqrt(hbar G / c^3) in m, consistent with the other entries by construction."""
        return math.sqrt(self.reduced_planck * self.gravitational / self.light_speed ** 3)


CODATA = PhysicalConstants()


class GammaScale(NamedTuple):
    gamma: float     # s/m in SI
    c_gamma: float   # dimensionless


def gamma_from_planck_length(mass: float) -> GammaScale:
    """gamma = mass * l_planck / hbar from the minimal-length identification, on CODATA.

    Setting hbar * sqrt(beta) equal to the Planck length gives
    sqrt(beta) = l_planck / hbar and hence this gamma; c*gamma is the
    dimensionless strength that all observable shifts scale with.
    """
    if not mass > 0.0:
        raise ValueError(f"mass must be positive, got {mass}")
    gamma = mass * CODATA.planck_length / CODATA.reduced_planck
    return GammaScale(gamma=gamma, c_gamma=CODATA.light_speed * gamma)


def geometry_alpha(geometry) -> float:
    """Multiplier alpha in u = alpha/gamma; accepts a tag or a number."""
    if geometry == GEOMETRY_ONE_D:
        return math.sqrt(3.0 / 8.0)
    if geometry == GEOMETRY_THREE_D:
        return 0.5
    alpha = float(geometry)
    if not alpha > 0.0:
        raise ValueError(f"the geometry multiplier must be positive, got {alpha}")
    return alpha


def effective_velocity_u(gamma: float, geometry) -> float:
    """The emergent velocity scale u = alpha / gamma (monotone inverse in gamma)."""
    if not gamma > 0.0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    return geometry_alpha(geometry) / gamma


def _light_speed_inputs(gamma: float, geometry, light_speed) -> tuple:
    """(c, alpha) for a finite gamma >= 0 and a finite c > 0; c defaults to CODATA."""
    if not (math.isfinite(gamma) and gamma >= 0.0):
        raise ValueError(f"gamma must be finite and nonnegative, got {gamma}")
    c = CODATA.light_speed if light_speed is None else float(light_speed)
    if not (math.isfinite(c) and c > 0.0):
        raise ValueError(f"light_speed must be finite and positive, got {c}")
    return c, geometry_alpha(geometry)


def light_speed_deviation(gamma: float, geometry, light_speed: float = None) -> float:
    """Closed first-order relative shift (c_eff - c)/c = (c gamma)^2 / (2 alpha^2).

    Computed directly from the first-order form; never by subtracting
    nearly equal light speeds, which would lose everything below 1e-16.
    """
    c, alpha = _light_speed_inputs(gamma, geometry, light_speed)
    return (c * gamma) ** 2 / (2.0 * alpha * alpha)


def effective_light_speed(gamma: float, geometry, light_speed: float = None) -> float:
    """c_eff = c / sqrt(1 - (c gamma / alpha)^2) in double precision.

    Exceeds c whenever gamma > 0, though for Planck-scale gamma the excess
    is ~1e-45 relative and rounds away; use light_speed_deviation for the
    shift itself, or the extended-precision variant for validation.
    """
    c, alpha = _light_speed_inputs(gamma, geometry, light_speed)
    shift = (c * gamma / alpha) ** 2
    if shift >= 1.0:
        raise DomainError(
            f"deformation too strong: (c gamma / alpha)^2 = {shift:.6g} >= 1 "
            "leaves no real effective light speed"
        )
    return c / math.sqrt(1.0 - shift)


def effective_light_speed_extended(gamma: float, geometry,
                                   light_speed: float = None) -> Decimal:
    """Exact-form c_eff as a 90-digit Decimal, for validating the closed form."""
    c, alpha = _light_speed_inputs(gamma, geometry, light_speed)
    with localcontext(EXTENDED_CONTEXT):
        cd, gd, ad = Decimal(c), Decimal(gamma), Decimal(alpha)
        shift = (cd * gd / ad) ** 2
        if shift >= 1:
            raise DomainError("deformation too strong: no real effective light speed")
        return cd / (1 - shift).sqrt()


@dataclass(frozen=True)
class EffectiveScales:
    """The derived kinematic numbers for one particle and one geometry, on CODATA."""

    geometry: str
    gamma: float
    c_gamma: float
    u: float
    c_eff: float
    deviation: float

    @classmethod
    def for_mass(cls, mass: float, geometry) -> "EffectiveScales":
        scale = gamma_from_planck_length(mass)
        return cls(
            geometry=str(geometry),
            gamma=scale.gamma,
            c_gamma=scale.c_gamma,
            u=effective_velocity_u(scale.gamma, geometry),
            c_eff=effective_light_speed(scale.gamma, geometry),
            deviation=light_speed_deviation(scale.gamma, geometry),
        )
