"""
Boosts between frames at finite invariant speed
===============================================

The deformed free dynamics is covariant under a modified velocity
transformation with a characteristic scale u.  Geometrically the exact
law is a rigid rotation of the (u t, x) plane, so it preserves the
euclidean combination u^2 dt^2 + dx^2 and composes without ever
producing a runaway velocity.
"""

import math

import numpy as np

from gupmech.algebra import DeformationParameters, PhaseState
from gupmech.dynamics import Hamiltonian
from gupmech.frames import (
    GALILEAN_FIRST_ORDER,
    GALILEAN_ORDINARY,
    GalileanBoost,
    euclidean_interval,
    galilean_apply,
    galilean_compose,
    covariance_residual,
    velocity_compose,
)

# An event is a row (t, x1); a batch of events is an (n, 2) array.
u = 1.0
e1 = np.array([0.0, 0.0])
e2 = np.array([1.0, 1.0])

print("interval u^2 dt^2 + dx^2 under increasingly violent boosts:")
base = euclidean_interval(e1, e2, u)
for V in (0.5, 2.0, 50.0):
    boost = GalileanBoost(velocity=V, scale=u)
    after = euclidean_interval(galilean_apply(boost, e1),
                               galilean_apply(boost, e2), u)
    print(f"  V/u = {V:5.1f}: interval {after:.15f} (started {base:.1f})")

# There is no speed limit here: composing two boosts can overshoot any
# bound, and the composition law has a pole instead of an asymptote.
combined = galilean_compose(GalileanBoost(velocity=0.9, scale=u),
                            GalileanBoost(velocity=0.9, scale=u))
print(f"\n0.9 compose 0.9 -> V = {combined.velocity:.6f} (exceeds u)")
print(f"velocity addition 0.5 (+) 0.5 = {velocity_compose(0.5, GalileanBoost(velocity=0.5, scale=u)):.6f}")

# The first-order law is the exact one truncated after V^2/u^2; its
# error falls by 16 when V halves.
events = np.array([[t, x] for t in (0.5, 1.5) for x in (-1.0, 2.0)])
print("\nfirst-order law deviation vs boost velocity:")
previous = None
for V in (0.4, 0.2, 0.1):
    exact = GalileanBoost(velocity=V, scale=u)
    first = GalileanBoost(velocity=V, scale=u, law=GALILEAN_FIRST_ORDER)
    worst = np.max(np.abs(galilean_apply(exact, events)[:, 1]
                          - galilean_apply(first, events)[:, 1]))
    note = f"  ratio {previous / worst:.2f}" if previous else ""
    print(f"  V = {V}: {worst:.3e}{note}")
    previous = worst

# Covariance check: boost a free deformed trajectory with the exact law
# and it stays a straight line with the composed slope.  The ordinary
# galilean law visibly fails.
params = DeformationParameters(beta=0.01, mass=1.0)
kind = Hamiltonian.exact_1d(params)
scale = math.sqrt(3.0 / (8.0 * params.beta))
start = PhaseState.of(0.0, 1.0)
for law in (None, GALILEAN_ORDINARY):
    boost = (GalileanBoost(velocity=0.3 * scale, scale=scale) if law is None
             else GalileanBoost(velocity=0.3 * scale, scale=scale, law=law))
    res = covariance_residual(kind, boost, start, 1.0, 0.01)
    name = law or "exact"
    print(f"\n{name} law: straight-line residual {res:.3e}")
