"""Velocity-momentum inversion, Lagrangians, and action evaluation.

The velocity form of the deformed models comes in two flavors: closed
first-order inversions good for small deformation, and an exact numeric
inversion (safeguarded Newton on the monotone branch of dH/dp).  The
matching Lagrangians carry a quartic velocity correction at first order
and a square-root form whose free action is a Euclidean arc length in
(ut, x) space, measured by `frames.euclidean_interval`.
"""

import math
import operator
import sys
import warnings
from dataclasses import dataclass, field, fields

import numpy as np

from .algebra import DeformationParameters, DomainError, _dot, _square
from .dynamics import (
    Hamiltonian,
    Potential,
    _energy,
    components,
    kinetic_velocity_slope,
    monotone_momentum_limit,
    radial_velocity,
    speed_limit,
)

L_FIRST_ORDER_1D = "first-order-1d"
L_SQRT_1D = "sqrt-1d"
L_FIRST_ORDER_3D = "first-order-3d"
L_RELATIVISTIC = "relativistic"
ALL_LAGRANGIANS = frozenset({L_FIRST_ORDER_1D, L_SQRT_1D, L_FIRST_ORDER_3D, L_RELATIVISTIC})

# Beyond this the first-order momentum formula is an extrapolation.
SMALL_DEFORMATION_BOUND = 0.1

@dataclass(frozen=True)
class Lagrangian:
    """A Lagrangian model tag plus parameters and an external potential.

    `scale_velocity` is the square-root velocity scale u for sqrt-1d and
    the (effective) light speed for the relativistic form.
    """

    model: str
    params: DeformationParameters
    potential: Potential = field(default_factory=Potential)
    scale_velocity: float = 0.0

    def __post_init__(self):
        if self.model not in ALL_LAGRANGIANS:
            raise ValueError(f"unknown Lagrangian model {self.model!r}")
        if self.model in (L_SQRT_1D, L_RELATIVISTIC) and not self.scale_velocity > 0.0:
            raise ValueError(f"model {self.model} needs scale_velocity > 0")
        # derived function, kept off the dataclass fields (and so out of eq and repr)
        object.__setattr__(self, "_kinetic", _kinetic_lagrangian(self))

    def __reduce__(self):
        # the derived function is a closure; pickle the fields and rebuild it
        return type(self), tuple(getattr(self, f.name) for f in fields(self))

    @property
    def dim(self) -> int:
        return 3 if self.model == L_FIRST_ORDER_3D else 1

    @classmethod
    def first_order_1d(cls, params, potential=None) -> "Lagrangian":
        return cls(L_FIRST_ORDER_1D, params, potential or Potential())

    @classmethod
    def first_order_3d(cls, params, potential=None) -> "Lagrangian":
        return cls(L_FIRST_ORDER_3D, params, potential or Potential())

    @classmethod
    def sqrt_1d(cls, params, scale_velocity, potential=None) -> "Lagrangian":
        return cls(L_SQRT_1D, params, potential or Potential(),
                   scale_velocity=float(scale_velocity))

    @classmethod
    def relativistic(cls, params, light_speed, potential=None) -> "Lagrangian":
        return cls(L_RELATIVISTIC, params, potential or Potential(),
                   scale_velocity=float(light_speed))


def _kinetic_lagrangian(kind: Lagrangian):
    """The kinetic part of L as a function of floats: of v in 1D, of v1, v2, v3 in 3D."""
    m, b, w = kind.params.mass, kind.params.beta, kind.scale_velocity
    if kind.model == L_FIRST_ORDER_1D:
        return lambda v: m * v * v / 2.0 - (b * m ** 3 / 3.0) * v ** 4
    if kind.model == L_SQRT_1D:
        return lambda v: m * w * w * (math.sqrt(1.0 + (v / w) ** 2) - 1.0)
    if kind.model == L_FIRST_ORDER_3D:
        def kinetic(*v):
            vsq = _square(v)
            return m * vsq / 2.0 - (b * m ** 3 / 2.0) * vsq * vsq
        return kinetic

    def relativistic(v):
        if abs(v) >= w:
            raise DomainError(f"relativistic Lagrangian needs |v| < {w:.6g}, got {abs(v):.6g}")
        return -m * w * w * math.sqrt(1.0 - (v / w) ** 2)
    return relativistic


def momentum_from_velocity_first_order(xdot, params: DeformationParameters):
    """First-order momentum: 1d p = m v (1 - 4/3 beta m^2 v^2); 3d uses 1 - 2 beta m^2 v^2.

    Accurate to O(beta^2).  A 1-component velocity takes the 1d form.
    Raises ValueError for a non-finite velocity component, OverflowError
    naming the speed when the factor, the momentum or the 3d |v|^2 leaves
    the float range, and warns once the deformation measure beta m^2 v^2
    exceeds SMALL_DEFORMATION_BOUND.
    """
    m = params.mass
    b = params.beta
    v = np.asarray(xdot, dtype=float)
    if not (v.ndim <= 1 and v.size == 1 or v.shape == (3,)):
        raise ValueError("first-order momentum takes 1 or 3 velocity components, "
                         f"got shape {v.shape}")
    vs = _finite(v.ravel().tolist(), "first-order momentum cannot take the non-finite velocity")
    if len(vs) == 1:  # v^2 is not formed alone: only the factor and m v factor can overflow
        v = vs[0]
        measure, label = b * m * m * v * v, "v^2"
        factor = 1.0 - (4.0 / 3.0) * b * m * m * v * v
        formed = ()
    else:
        vsq = _square(vs)
        measure, label = b * m * m * vsq, "|v|^2"
        factor = 1.0 - 2.0 * b * m * m * vsq
        formed = (("|v|^2", [vsq]),)
    momentum = [m * c * factor for c in vs]
    for what, values in formed + (("factor", [factor]), ("m v factor", momentum)):
        if not all(map(math.isfinite, values)):
            raise OverflowError(f"first-order momentum {what} overflowed "
                                f"at speed {math.hypot(*vs):.6g}")
    if measure > SMALL_DEFORMATION_BOUND:
        warnings.warn(
            f"beta*m^2*{label} = {measure:.3g} is outside the small-deformation regime; "
            "the first-order inversion is an extrapolation here",
            RuntimeWarning,
            stacklevel=2,
        )
    return momentum[0] if len(vs) == 1 else np.array(momentum)


def _finite(v, refusal: str):
    """The floats v, 1 or 3 of them, or ValueError(refusal + " v") if one is not finite."""
    if not all(map(math.isfinite, v)):
        raise ValueError(f"{refusal} {v[0] if len(v) == 1 else v}")
    return v


def _floats(kind, values, quantity: str, refusal: str):
    """A position or velocity as the model's kind.dim floats, refused by name unless finite."""
    return _finite(components(kind, values, quantity), f"{refusal} the non-finite {quantity}")


def _bracket_high(kind: Hamiltonian, s: float) -> float:
    """Find hi with radial_velocity(kind, hi) >= s on the monotone branch."""
    m = kind.params.mass
    blim = monotone_momentum_limit(kind)
    if math.isfinite(blim):
        # velocity may stay finite at the branch edge (relativistic case)
        try:
            if radial_velocity(kind, blim) >= s:
                return blim
        except DomainError:
            pass
        # otherwise approach the edge geometrically; velocity diverges there
        for k in range(1, 54):
            cand = blim * (1.0 - 0.5 ** k)
            if radial_velocity(kind, cand) >= s:
                return cand
        raise _unresolvable(kind, s)
    hi = min(max(m * s, 1e-30), sys.float_info.max)
    while not radial_velocity(kind, hi) >= s:
        if hi == sys.float_info.max:
            raise _overflowed(kind, "|p|")
        hi = min(2.0 * hi, sys.float_info.max)
    return hi


def _unresolvable(kind: Hamiltonian, s: float) -> DomainError:
    return DomainError(
        f"speed {s:.6g} is out of reach of {kind.model}: its momentum lies closer to the "
        f"branch edge |p| = {monotone_momentum_limit(kind):.6g} than adjacent floats resolve"
    )


def _overflowed(kind: Hamiltonian, quantity: str) -> OverflowError:
    """A float-range refusal in dynamics' own words; _momentum_exact adds the speed."""
    return OverflowError(f"momentum {quantity} overflowed in the {kind.model} model")


def _solve_radial(kind: Hamiltonian, s: float) -> float:
    """Solve radial_velocity(kind, q) = s > 0 for q >= 0 by safeguarded Newton.

    Initial guess m*s, bisection fallback on the bracketing interval,
    residual tolerance 1e-12 relative.  After 64 Newton iterations the
    bracket is bisected until the residual meets the tolerance.

    Every speed is evaluated through the module name `radial_velocity`:
    bench/spans.py wraps that name to count legendre.newton_evals_per_inversion,
    and bench/test_bench.py needs that count above 1.
    """
    sup = speed_limit(kind)
    if math.isfinite(sup) and s >= sup:
        q_sup = monotone_momentum_limit(kind)
        if s > sup or not math.isfinite(q_sup):
            # above the limit, or at one approached only asymptotically
            raise DomainError(
                f"no momentum on the monotone branch reaches speed {s:.6g} "
                f"(attainable speeds stay below {sup:.6g})"
            )
        return q_sup
    tol = 1e-12 * max(1.0, s)
    q = kind.params.mass * s
    if q == 0.0:
        # m s underflowed, and so did the momentum: where |p|^2 underflows, each
        # model's speed is |p| / m
        return q
    lo = 0.0
    hi = _bracket_high(kind, s)
    q = min(q, hi)
    for _ in range(64):
        r = radial_velocity(kind, q) - s
        if abs(r) <= tol:
            return q
        if r < 0.0:
            lo = q
        else:
            hi = q
        slope = kinetic_velocity_slope(kind, q)
        step_ok = slope > 0.0 and math.isfinite(slope)
        qn = q - r / slope if step_ok else math.nan
        q = qn if lo < qn < hi else 0.5 * (lo + hi)
    # Newton from far above the root of a convex speed shrinks q by about a third a
    # step and never leaves the bracket; bisect it until it stops shrinking.
    while lo < q < hi:
        r = radial_velocity(kind, q) - s
        if abs(r) <= tol:
            return q
        lo, hi = (q, hi) if r < 0.0 else (lo, q)
        q = 0.5 * (lo + hi)
    if math.isfinite(monotone_momentum_limit(kind)):
        # the speed climbs by more than the tolerance between adjacent floats
        raise _unresolvable(kind, s)
    # On an unbounded branch the speed climbs by a few ulps from one float to the next,
    # so the bracket stops only where |p|^2 overflows and the speed jumps to inf.
    raise _overflowed(kind, "|p|^2")


def _momentum_exact(kind: Hamiltonian, v):
    """momentum_from_velocity_exact on a list of 1 or 3 finite floats, as a list of floats."""
    sq = _square(v)
    # |v|, exactly |v[0]| in 1D; outside the normal range |v|^2 has lost digits or
    # overflowed, and hypot scales first
    s = math.sqrt(sq) if sys.float_info.min <= sq < math.inf else math.hypot(*v)
    if s == 0.0:
        return [0.0 * c for c in v]
    try:
        q = _solve_radial(kind, s)
    except OverflowError as err:  # it names the quantity and the model, not the speed
        raise OverflowError(f"{err} at speed {s:.6g}") from err
    return [q * (c / s) for c in v]


def momentum_from_velocity_exact(xdot, kind: Hamiltonian):
    """Invert the analytic velocity relation dH/dp = xdot numerically.

    Returns a float for one-dimensional models and a 3-array for
    three-dimensional ones (momentum parallel to the velocity).  Raises
    ValueError for a non-finite velocity component, DomainError when
    no momentum on the monotone branch reaches the requested speed, or
    one whose momentum sits closer to a finite branch edge than floats
    resolve, and OverflowError when the momentum leaves the float range.
    """
    p = _momentum_exact(kind, _floats(kind, xdot, "velocity", f"{kind.model} cannot invert"))
    return p[0] if kind.dim == 1 else np.array(p)


def lagrangian_value(kind: Lagrangian, x, xdot) -> float:
    """L(x, xdot) for the given model, its kinetic part minus U(x).

    The kinetic part vanishes at rest, except in the relativistic form,
    which keeps its -m c^2 rest term.  Raises ValueError for a position or
    velocity of another size than the model's, or with a non-finite
    component.
    """
    refusal = f"{kind.model} Lagrangian cannot take"
    v = _floats(kind, xdot, "velocity", refusal)
    x = _floats(kind, x, "position", refusal)
    return kind._kinetic(*v) - kind.potential.terms(kind.dim)[0](*x)


def _pairing(hkind: Hamiltonian, x, xdot):
    """(v . p*(v), H(x, p*(v))) on the model's floats, with the exact numeric p*(v)."""
    refusal = f"{hkind.model} Legendre transform cannot take"
    v = _floats(hkind, xdot, "velocity", refusal)
    x = _floats(hkind, x, "position", refusal)
    p = _momentum_exact(hkind, v)
    return _dot(v, p), _energy(hkind, x, p)


def lagrangian_from_hamiltonian(hkind: Hamiltonian):
    """The Legendre transform L(x, v) = v . p*(v) - H(x, p*(v)) as a callable.

    Uses the exact numeric inversion for p*(v); pairing the result with
    `hkind` in legendre_roundtrip_residual closes to round-off by
    construction.
    """

    def value(x, xdot) -> float:
        vp, h = _pairing(hkind, x, xdot)
        return vp - h

    return value


def legendre_roundtrip_residual(lagrangian, hamiltonian: Hamiltonian, xdot, x=None) -> float:
    """|L(x, v) + H(x, p*(v)) - v . p*(v)| with the exact numeric p*(v).

    `lagrangian` is either a Lagrangian or any callable (x, v) -> float.
    Potentials cancel between L and H when both models carry the same one,
    so the residual probes only the kinetic pairing.  Evaluated at the
    origin unless x is given.
    """
    if x is None:
        x = 0.0 if hamiltonian.dim == 1 else np.zeros(3)
    vp, h = _pairing(hamiltonian, x, xdot)
    if isinstance(lagrangian, Lagrangian):
        lag = lagrangian_value(lagrangian, x, xdot)
    else:
        lag = float(lagrangian(x, xdot))
    return abs(lag + h - vp)


@dataclass(frozen=True)
class PathSample:
    """A sampled configuration-space path with derived velocities.

    Velocities come from second-order finite differences of the samples
    (np.gradient); they are stored so that slicing a path preserves them,
    which keeps the trapezoid action exactly additive across a split.
    """

    times: np.ndarray       # (n,)
    positions: np.ndarray   # (n, d)
    velocities: np.ndarray = None  # (n, d)

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim == 1:
            pos = pos[:, None]
        if times.ndim != 1 or times.size < 2:
            raise ValueError("a path needs at least two samples")
        if not (times[1:] > times[:-1]).all():
            raise ValueError("path times must be strictly increasing")
        if pos.shape[0] != times.size or pos.shape[1] not in (1, 3):
            raise ValueError(
                f"positions must be (n,), (n,1) or (n,3) matching times, got {pos.shape}"
            )
        if self.velocities is None:
            order = 2 if times.size >= 3 else 1
            vel = np.gradient(pos, times, axis=0, edge_order=order)
        else:
            vel = np.asarray(self.velocities, dtype=float)
            if vel.ndim == 1:
                vel = vel[:, None]
            if vel.shape != pos.shape:
                raise ValueError("velocities must match positions in shape")
        for arr in (times, pos, vel):
            arr.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "velocities", vel)

    @property
    def dim(self) -> int:
        return self.positions.shape[1]

    def __len__(self) -> int:
        return self.times.size

    def split(self, k: int):
        """Two sub-paths sharing sample k, both keeping the parent velocities."""
        if not 0 < k < len(self) - 1:
            raise ValueError(f"split index must be interior, got {k} of {len(self)}")
        left = PathSample(self.times[: k + 1], self.positions[: k + 1],
                          self.velocities[: k + 1])
        right = PathSample(self.times[k:], self.positions[k:], self.velocities[k:])
        return left, right

    @classmethod
    def from_trajectory(cls, traj) -> "PathSample":
        return cls(traj.times, traj.positions)


def action_along_path(kind: Lagrangian, path: PathSample) -> float:
    """Trapezoid quadrature of L along the path (second-order accurate)."""
    if path.dim != kind.dim:
        raise ValueError(
            f"model {kind.model} expects {kind.dim}-component paths, got {path.dim}"
        )
    energy = kind.potential.terms(kind.dim)[0]
    values = np.fromiter(map(operator.sub, map(kind._kinetic, *path.velocities.T.tolist()),
                             map(energy, *path.positions.T.tolist())), float, len(path))
    return float(np.trapezoid(values, path.times))
