"""
How large are these corrections for a real particle?
====================================================

Takes the electron, assumes the minimal-length scale sits at the Planck
length, and works out the characteristic velocity u and the shift it
would impose on an effective light speed.  The numbers explain why the
deformation is invisible: u outruns c by twenty-two orders of magnitude.
"""

from decimal import Decimal, localcontext

from gupmech.constants import (
    CODATA,
    EXTENDED_CONTEXT,
    EXTENDED_PRECISION_DPS,
    GEOMETRY_ONE_D,
    GEOMETRY_THREE_D,
    EffectiveScales,
    effective_light_speed,
    effective_light_speed_extended,
    gamma_from_planck_length,
)

consts = CODATA
m_e = consts.electron_mass
print(f"planck length      {consts.planck_length:.6e} m")
print(f"electron mass      {m_e:.9e} kg")

gamma = gamma_from_planck_length(m_e)
print(f"\nc * gamma = {gamma.c_gamma:.6e}  (dimensionless)")

for geometry in (GEOMETRY_ONE_D, GEOMETRY_THREE_D):
    scales = EffectiveScales.for_mass(m_e, geometry)
    print(f"\n{geometry} geometry:")
    print(f"  u / c               {scales.u / consts.light_speed:.6e}")
    print(f"  relative c shift    {scales.deviation:.6e}")

# The shift is ~3.5e-45: far below the 2e-16 resolution of a double.
# Adding it to c in ordinary floats changes nothing.
c_eff = effective_light_speed(gamma.gamma, GEOMETRY_THREE_D,
                              consts.light_speed)
print(f"\nfloat64 effective light speed == c: {c_eff == consts.light_speed}")

# Ninety decimal digits resolve it: the effective speed is strictly
# above c, by the predicted amount.
extended = effective_light_speed_extended(gamma.gamma, GEOMETRY_THREE_D,
                                          consts.light_speed)
c = Decimal(consts.light_speed)
with localcontext(EXTENDED_CONTEXT):
    shift = (extended - c) / c
print(f"extended precision ({EXTENDED_PRECISION_DPS} digits):"
      f" fractional shift {float(shift):.6e}")
