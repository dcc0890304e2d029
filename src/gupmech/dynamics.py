"""Hamiltonian particle models on the deformed phase space.

Six interchangeable kinetic-energy models share one state layout and
one fixed-step integrator:

    exact-1d                      tangent-map kinetic energy
    first-order-1d                quadratic plus quartic correction
    exact-3d                      rational kinetic energy
    first-order-3d                quadratic plus quartic correction
    relativistic-first-order-1d   rest energy plus corrected quartic
    effective-sqrt                square-root form with a velocity scale

The deformation is rotation-invariant, so each model is one `Kinetic`
record of functions of |p|.  Every quantity is computed on floats, one
per axis, with |p|^2 summed left to right.  Hamilton's equations come
with analytic derivatives; a central difference of the energy on the
same floats cross-checks them.  The integrator is classic fixed-step
RK4, one loop per dimension, and records energy along the way, telling
a writer which rows are final after each block of steps.
"""

import math
import sys
from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from .algebra import DeformationParameters, DomainError, PhaseState, _gradients_at, _square

EXACT_1D = "exact-1d"
FIRST_ORDER_1D = "first-order-1d"
EXACT_3D = "exact-3d"
FIRST_ORDER_3D = "first-order-3d"
REL_FIRST_ORDER_1D = "relativistic-first-order-1d"
EFFECTIVE_SQRT = "effective-sqrt"

ONE_D_MODELS = frozenset({EXACT_1D, FIRST_ORDER_1D, REL_FIRST_ORDER_1D, EFFECTIVE_SQRT})
THREE_D_MODELS = frozenset({EXACT_3D, FIRST_ORDER_3D})
ALL_MODELS = ONE_D_MODELS | THREE_D_MODELS

POTENTIAL_FREE = "free"
POTENTIAL_HARMONIC = "harmonic"
POTENTIAL_UNIFORM_FIELD = "uniform-field"
POTENTIAL_KINDS = (POTENTIAL_FREE, POTENTIAL_HARMONIC, POTENTIAL_UNIFORM_FIELD)


@dataclass(frozen=True)
class Potential:
    """External potential: free, isotropic harmonic, or a uniform field.

    The uniform field acts along axis 1 with U = -force * x1, so a positive
    `force` pushes the particle toward larger x1.
    """

    kind: str = POTENTIAL_FREE
    stiffness: float = 0.0
    force: float = 0.0

    def __post_init__(self):
        if self.kind not in POTENTIAL_KINDS:
            raise ValueError(f"unknown potential kind {self.kind!r}")

    @classmethod
    def free(cls) -> "Potential":
        return cls()

    @classmethod
    def harmonic(cls, stiffness: float) -> "Potential":
        return cls(kind=POTENTIAL_HARMONIC, stiffness=float(stiffness))

    @classmethod
    def uniform_field(cls, force: float) -> "Potential":
        return cls(kind=POTENTIAL_UNIFORM_FIELD, force=float(force))

    def terms(self, dim: int):
        """(U, -dU/dx) as functions of floats: x in 1D, x1, x2, x3 in 3D with a 3-tuple force."""
        k = self.stiffness
        f = self.force
        if dim == 1:
            if self.kind == POTENTIAL_HARMONIC:
                return (lambda x: 0.5 * k * (x * x)), (lambda x: -k * x)
            if self.kind == POTENTIAL_UNIFORM_FIELD:
                return (lambda x: -f * x), (lambda x: f)
            return (lambda x: 0.0), (lambda x: 0.0 * x)
        if self.kind == POTENTIAL_HARMONIC:
            return ((lambda a, b, c: 0.5 * k * (a * a + b * b + c * c)),
                    (lambda a, b, c: (-k * a, -k * b, -k * c)))
        if self.kind == POTENTIAL_UNIFORM_FIELD:
            return (lambda a, b, c: -f * a), (lambda a, b, c: (f, 0.0, 0.0))
        return (lambda a, b, c: 0.0), (lambda a, b, c: (0.0 * a, 0.0 * b, 0.0 * c))


@dataclass(frozen=True)
class Kinetic:
    """One kinetic model as functions of |p|, built once per Hamiltonian.

    `energy` and `ratio` take s = |p|^2 and raise DomainError outside the
    model's domain; `ratio` is |dx/dt| / |p|, so dx/dt = p * ratio(s) in
    either dimension.  `slope` is d|dx/dt| / d|p| at q = |p|, unchecked.
    Callers sum s from the float components of p, left to right.
    """

    energy: Callable[[float], float]
    ratio: Callable[[float], float]
    slope: Callable[[float], float]
    momentum_limit: float = math.inf
    monotone_momentum_limit: float = math.inf
    speed_limit: float = math.inf


def _radius(model: str, s: float, limit: float) -> float:
    """|p| = sqrt(s), refused unless strictly inside the domain |p| < limit.

    An infinite s = |p|^2 left the float range, not the domain: OverflowError.
    """
    q = math.sqrt(s)
    if q >= limit:
        if q == math.inf:
            raise OverflowError(f"momentum |p|^2 overflowed in the {model} model")
        raise DomainError(f"momentum |p| = {q:.6g} outside the {model} domain (|p| < {limit:.6g})")
    return q


def _quartic(m: float, a: float, rest: float = 0.0) -> Kinetic:
    """T = rest + |p|^2 / 2m + a |p|^4; with a < 0 the speed peaks at 12 a m |p|^2 = -1.

    With a = 0 the quartic terms are left out, not multiplied by 0, which would make
    nan of a |p|^2 that overflowed.
    """
    if a == 0.0:
        return Kinetic(lambda s: rest + s / (2.0 * m), lambda s: 1.0 / m, lambda q: 1.0 / m)

    def ratio(s):
        return 1.0 / m + 4.0 * a * s

    monotone = speed = math.inf
    if a < 0.0:
        monotone = 1.0 / math.sqrt(-12.0 * a * m)
        speed = monotone * ratio(monotone * monotone)
    return Kinetic(lambda s: rest + s / (2.0 * m) + a * s * s, ratio,
                   lambda q: 1.0 / m + 12.0 * a * q * q,
                   monotone_momentum_limit=monotone, speed_limit=speed)


def _exact_1d(kind) -> Kinetic:
    m = kind.params.mass
    b = kind.params.beta
    if b == 0.0:
        return _quartic(m, 0.0)
    sb = math.sqrt(b)
    limit = (math.pi / 2.0) / sb

    # The domain test is inline; _radius is called only to raise.
    def energy(s):
        q = math.sqrt(s)
        if q >= limit:
            _radius(EXACT_1D, s, limit)
        t = math.tan(sb * q)
        return t * t / (2.0 * m * b)

    def ratio(s):
        q = math.sqrt(s)
        if q >= limit:
            _radius(EXACT_1D, s, limit)
        z = sb * q
        if z == 0.0:
            return 1.0 / m  # tan z / z -> 1
        c = math.cos(z)
        return math.tan(z) / (z * c * c) / m

    def slope(q):
        z = sb * q
        c = math.cos(z)
        sec2 = 1.0 / (c * c)
        t = math.tan(z)
        return sec2 * (sec2 + 2.0 * t * t) / m

    return Kinetic(energy, ratio, slope, limit, limit)


def _first_order_1d(kind) -> Kinetic:
    m = kind.params.mass
    return _quartic(m, kind.params.beta / (3.0 * m))


def _exact_3d(kind) -> Kinetic:
    m = kind.params.mass
    b = kind.params.beta
    if b == 0.0:
        return _quartic(m, 0.0)
    limit = 1.0 / math.sqrt(b)

    def one_minus_bs(s):
        by = b * s
        if by >= 1.0:
            raise DomainError(
                f"momentum outside the {EXACT_3D} domain (beta*|p|^2 = {by:.6g} >= 1)")
        return 1.0 - by

    def slope(q):
        bq = b * q * q
        return (1.0 + 3.0 * bq) / (m * (1.0 - bq) ** 3)

    return Kinetic(lambda s: s / (2.0 * m * one_minus_bs(s)),
                   lambda s: 1.0 / (m * one_minus_bs(s) ** 2), slope, limit, limit)


def _first_order_3d(kind) -> Kinetic:
    m = kind.params.mass
    return _quartic(m, kind.params.beta / (2.0 * m))


def _effective_sqrt(kind) -> Kinetic:
    """T = sign m w^2 (sqrt(1 + sign y) - 1) with y = (|p| / m w)^2.

    The minus branch bounds |p| by m w; the plus branch bounds |dx/dt| by w.
    """
    if not kind.scale_velocity > 0.0:
        raise ValueError("the effective square-root model needs scale_velocity > 0")
    if kind.sqrt_sign not in (-1, 1):
        raise ValueError(f"sqrt_sign must be -1 or +1, got {kind.sqrt_sign}")
    m = kind.params.mass
    w = kind.scale_velocity
    sign = kind.sqrt_sign
    # |p|^2 near (m w)^2 must keep its digits, or the model turns into |p|^2 / 2m unseen
    if not m * w * (m * w) >= sys.float_info.min:
        raise ValueError(f"the {EFFECTIVE_SQRT} model needs (m w)^2 of at least the smallest "
                         f"normal float, got m = {m!r}, w = {w!r}")
    # |p| is scaled by m w and T by m w^2, formed as (m w) w; past the float range T is nan
    for what, value in (("m w", m * w), ("m w^2", m * w * w)):
        if not sys.float_info.min <= value < math.inf:
            raise ValueError(f"the {EFFECTIVE_SQRT} model needs {what} inside the normal float "
                             f"range, got {value!r} with m = {m!r}, w = {w!r}")
    limit = m * w if sign < 0 else math.inf

    def root(s):
        y = _radius(EFFECTIVE_SQRT, s, limit) / (m * w)
        try:
            return math.sqrt(1.0 + sign * y ** 2)
        except OverflowError:  # float ** raises where * would give inf
            raise OverflowError(
                f"momentum (|p| / m w)^2 overflowed in the {EFFECTIVE_SQRT} model") from None

    return Kinetic(lambda s: sign * m * w * w * (root(s) - 1.0),
                   lambda s: 1.0 / (m * root(s)),
                   lambda q: (1.0 + sign * (q / (m * w)) ** 2) ** -1.5 / m,
                   limit, limit, w if sign > 0 else math.inf)


def _relativistic_first_order_1d(kind) -> Kinetic:
    if not kind.light_speed > 0.0:
        raise ValueError("the relativistic model needs light_speed > 0")
    m = kind.params.mass
    return _quartic(m, relativistic_quartic_coefficient(kind),
                    rest=m * kind.light_speed ** 2)


# model tag -> the function that makes its Kinetic record
_MODELS = {
    EXACT_1D: _exact_1d,
    FIRST_ORDER_1D: _first_order_1d,
    EXACT_3D: _exact_3d,
    FIRST_ORDER_3D: _first_order_3d,
    REL_FIRST_ORDER_1D: _relativistic_first_order_1d,
    EFFECTIVE_SQRT: _effective_sqrt,
}


@dataclass(frozen=True)
class Hamiltonian:
    """A kinetic model tag plus its parameters and an external potential.

    `light_speed` matters only to the relativistic model; `scale_velocity`
    and `sqrt_sign` only to the effective square-root model.
    """

    model: str
    params: DeformationParameters
    potential: Potential = field(default_factory=Potential)
    light_speed: float = 0.0
    scale_velocity: float = 0.0
    sqrt_sign: int = -1

    def __post_init__(self):
        make_kinetic = _MODELS.get(self.model)
        if make_kinetic is None:
            raise ValueError(f"unknown model {self.model!r}")
        # derived once, kept off the dataclass fields (and so out of eq and repr)
        object.__setattr__(self, "dim", 3 if self.model in THREE_D_MODELS else 1)
        object.__setattr__(self, "_kinetic", make_kinetic(self))
        object.__setattr__(self, "_potential_terms", self.potential.terms(self.dim))

    def __reduce__(self):
        # the derived functions are closures; pickle the fields and rebuild them
        return type(self), tuple(getattr(self, f.name) for f in fields(self))

    @classmethod
    def exact_1d(cls, params, potential=None) -> "Hamiltonian":
        return cls(EXACT_1D, params, potential or Potential())

    @classmethod
    def first_order_1d(cls, params, potential=None) -> "Hamiltonian":
        return cls(FIRST_ORDER_1D, params, potential or Potential())

    @classmethod
    def exact_3d(cls, params, potential=None) -> "Hamiltonian":
        return cls(EXACT_3D, params, potential or Potential())

    @classmethod
    def first_order_3d(cls, params, potential=None) -> "Hamiltonian":
        return cls(FIRST_ORDER_3D, params, potential or Potential())

    @classmethod
    def relativistic_first_order_1d(cls, params, light_speed, potential=None) -> "Hamiltonian":
        return cls(REL_FIRST_ORDER_1D, params, potential or Potential(),
                   light_speed=float(light_speed))

    @classmethod
    def effective_sqrt(cls, params, scale_velocity, sign=-1, potential=None) -> "Hamiltonian":
        return cls(EFFECTIVE_SQRT, params, potential or Potential(),
                   scale_velocity=float(scale_velocity), sqrt_sign=int(sign))


def relativistic_quartic_coefficient(kind: Hamiltonian) -> float:
    """Coefficient of p^4 in the relativistic model, -(1/(8 m^2 c^2) - beta/3)/m.

    Flips sign when beta grows past 3/(8 m^2 c^2), at which point the
    deformation correction overtakes the relativistic one.
    """
    if kind.model != REL_FIRST_ORDER_1D:
        raise ValueError("only defined for the relativistic model")
    m = kind.params.mass
    c = kind.light_speed
    return -(1.0 / (8.0 * m * m * c * c) - kind.params.beta / 3.0) / m


def rest_energy(kind: Hamiltonian) -> float:
    """Constant offset of the model energy at p = 0 with no potential."""
    return kind._kinetic.energy(0.0)


def momentum_limit(kind: Hamiltonian) -> float:
    """Half-width of the momentum domain (|p|, radial for 3d); inf if unbounded."""
    return kind._kinetic.momentum_limit


def monotone_momentum_limit(kind: Hamiltonian) -> float:
    """Upper end of the branch on which velocity grows with momentum."""
    return kind._kinetic.monotone_momentum_limit


def speed_limit(kind: Hamiltonian) -> float:
    """Supremum of |dx/dt| attainable on the monotone branch; inf if none."""
    return kind._kinetic.speed_limit


def kinetic_velocity_slope(kind: Hamiltonian, q: float) -> float:
    """Radial derivative d|dx/dt| / d|p| at |p| = q >= 0 (Newton helper)."""
    return kind._kinetic.slope(q)


def radial_velocity(kind: Hamiltonian, q: float) -> float:
    """|dx/dt| as a function of |p| = q >= 0 on the monotone branch."""
    return q * kind._kinetic.ratio(q * q)


def components(kind: Hamiltonian, values, name: str):
    """A position, momentum or velocity (`name`) as the model's list of kind.dim floats."""
    v = np.asarray(values, dtype=float)
    if v.ndim > 1 or v.size != kind.dim:
        raise ValueError(
            f"model {kind.model} expects a {kind.dim}-component {name}, got shape {v.shape}"
        )
    return v.ravel().tolist()


def _unpack(kind: Hamiltonian, state: PhaseState):
    """(x, p) as lists of floats; only the size of a PhaseState, checked when built, is tested."""
    if not (isinstance(state, PhaseState) and state.x.size == kind.dim):
        state = PhaseState(components(kind, state.x, "position"),
                           components(kind, state.p, "momentum"))
    return state.x.tolist(), state.p.tolist()


def _energy(kind: Hamiltonian, x, p) -> float:
    """Total energy at the float components x and p."""
    return kind._kinetic.energy(_square(p)) + kind._potential_terms[0](*x)


def hamiltonian_value(kind: Hamiltonian, state: PhaseState) -> float:
    """Total energy of the state under the given model."""
    return _energy(kind, *_unpack(kind, state))


def _rhs(kind: Hamiltonian, x, p):
    """Analytic (dx/dt, dp/dt) = (dH/dp, -dH/dx) at the float components x and p, as lists."""
    r = kind._kinetic.ratio(_square(p))
    force = kind._potential_terms[1](*x)
    return [c * r for c in p], ([force] if kind.dim == 1 else list(force))


def hamilton_rhs(kind: Hamiltonian, state: PhaseState):
    """Analytic (dx/dt, dp/dt) = (dH/dp, -dH/dx) as a pair of arrays."""
    xdot, pdot = _rhs(kind, *_unpack(kind, state))
    return np.array(xdot), np.array(pdot, dtype=float)


def _rhs_fd(kind: Hamiltonian, x, p):
    """(dx/dt, dp/dt) by central differences of the energy at the float components x and p,
    over the probe points and steps of `algebra.numerical_bracket`."""
    grad, = _gradients_at((lambda point: _energy(kind, *point),), x, p)
    return [dh_dp for _, dh_dp in grad], [-dh_dx for dh_dx, _ in grad]


def hamilton_rhs_fd(kind: Hamiltonian, state: PhaseState):
    """(dx/dt, dp/dt) by central differences of the energy, as arrays; test fallback."""
    xdot, pdot = _rhs_fd(kind, *_unpack(kind, state))
    return np.array(xdot), np.array(pdot)


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled phase-space history with per-sample energy."""

    times: np.ndarray      # (n+1,)
    positions: np.ndarray  # (n+1, d)
    momenta: np.ndarray    # (n+1, d)
    energies: np.ndarray   # (n+1,)
    step: float

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        pos = np.asarray(self.positions, dtype=float)
        mom = np.asarray(self.momenta, dtype=float)
        en = np.asarray(self.energies, dtype=float)
        n = times.size
        if pos.shape[0] != n or mom.shape != pos.shape or en.size != n:
            raise ValueError("trajectory arrays must share their leading length")
        if n > 1 and not (times[1:] > times[:-1]).all():
            raise ValueError("trajectory times must be strictly increasing")
        for arr in (times, pos, mom, en):
            arr.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "momenta", mom)
        object.__setattr__(self, "energies", en)

    def __len__(self) -> int:
        return self.times.size

    def state(self, k: int) -> PhaseState:
        return PhaseState(self.positions[k], self.momenta[k])

    @property
    def endpoint(self) -> PhaseState:
        return self.state(-1)


# steps per block of the RK4 loops, whose rows are reported final together
_BLOCK_STEPS = 256


def _private_table(times, dim):
    """Arrays of a trajectory at these times that no one reads before the end."""
    rows = len(times)
    return np.empty((rows, dim)), np.empty((rows, dim)), np.empty(rows), lambda done: None


def integrate(kind: Hamiltonian, initial: PhaseState, t_end: float, dt: float,
              table=_private_table) -> Trajectory:
    """Classic fixed-step RK4 from t = 0 to t_end.

    The requested dt is rounded so that a whole number of uniform steps
    lands exactly on t_end.  A DomainError raised mid-run is re-raised
    with the offending step index attached (attribute `step_index`).  A
    non-finite energy or state, or an arithmetic fault such as an
    overflow mid-run, raises FloatingPointError naming the initial state
    or the first step that holds one.

    `table(times, dim)` gives the position, momentum and energy arrays to
    fill and a function told the number of final rows after each block of
    _BLOCK_STEPS steps, so that a writer such as csvio.TableWriter can
    format them while the next are computed.
    """
    x, p = _unpack(kind, initial)
    if not (math.isfinite(t_end) and t_end > 0.0):
        raise ValueError(f"t_end must be positive and finite, got {t_end}")
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if not math.isfinite(t_end / dt):
        raise ValueError("t_end / dt = inf asks for more steps than memory can hold")
    n = max(1, int(round(t_end / dt)))
    h = t_end / n
    try:  # numpy refuses a size it cannot hold before any write
        times = np.linspace(0.0, t_end, n + 1)
        positions, momenta, energies, finished = table(times, kind.dim)
    except (MemoryError, ValueError) as exc:
        raise ValueError(f"t_end / dt = {t_end / dt:.6g} asks for {n} steps, "
                         "more than memory can hold") from exc

    try:
        energies[0] = _energy(kind, x, p)
    except DomainError as exc:
        raise DomainError(f"initial state outside the model domain: {exc}") from exc
    except ArithmeticError as exc:
        raise FloatingPointError(f"initial state left the float range: {exc}") from exc
    if not math.isfinite(energies[0]):
        raise FloatingPointError(f"initial state has a non-finite energy ({energies[0]})")
    positions[0], momenta[0] = x, p

    def left_float_range(step):
        return FloatingPointError(f"trajectory left the float range at step {step} of {n} "
                                  f"(t = {step * h:.6g})")

    # x and p are one float in 1D and three in 3D, because numpy costs more than the
    # arithmetic on 1- and 3-element arrays; steps are written through flat float views.
    xs, ps, es = (memoryview(a).cast("B").cast("d") for a in (positions, momenta, energies))
    kin = kind._kinetic
    ratio, kinetic_energy = kin.ratio, kin.energy
    potential_energy, force = kind._potential_terms
    half = 0.5 * h
    sixth = h / 6.0
    try:
        if kind.dim == 1:
            (x,), (p,) = x, p
            for block in range(0, n, _BLOCK_STEPS):
                for k in range(block, min(block + _BLOCK_STEPS, n)):
                    vx1 = p * ratio(p * p)
                    vp1 = force(x)
                    p2 = p + half * vp1
                    vx2 = p2 * ratio(p2 * p2)
                    vp2 = force(x + half * vx1)
                    p3 = p + half * vp2
                    vx3 = p3 * ratio(p3 * p3)
                    vp3 = force(x + half * vx2)
                    p4 = p + h * vp3
                    vx4 = p4 * ratio(p4 * p4)
                    vp4 = force(x + h * vx3)
                    x = x + sixth * (vx1 + 2.0 * vx2 + 2.0 * vx3 + vx4)
                    p = p + sixth * (vp1 + 2.0 * vp2 + 2.0 * vp3 + vp4)
                    es[k + 1] = kinetic_energy(p * p) + potential_energy(x)
                    xs[k + 1] = x
                    ps[k + 1] = p
                finished(k + 2)
        else:
            (x1, x2, x3), (p1, p2, p3) = x, p
            # stage rates: velocities a, b, c, d (momenta q, ratio r) and forces fa, fb, fc, fd
            for block in range(0, n, _BLOCK_STEPS):
                for k in range(block, min(block + _BLOCK_STEPS, n)):
                    r = ratio(p1 * p1 + p2 * p2 + p3 * p3)
                    a1, a2, a3 = p1 * r, p2 * r, p3 * r
                    fa1, fa2, fa3 = force(x1, x2, x3)
                    q1, q2, q3 = p1 + half * fa1, p2 + half * fa2, p3 + half * fa3
                    r = ratio(q1 * q1 + q2 * q2 + q3 * q3)
                    b1, b2, b3 = q1 * r, q2 * r, q3 * r
                    fb1, fb2, fb3 = force(x1 + half * a1, x2 + half * a2, x3 + half * a3)
                    q1, q2, q3 = p1 + half * fb1, p2 + half * fb2, p3 + half * fb3
                    r = ratio(q1 * q1 + q2 * q2 + q3 * q3)
                    c1, c2, c3 = q1 * r, q2 * r, q3 * r
                    fc1, fc2, fc3 = force(x1 + half * b1, x2 + half * b2, x3 + half * b3)
                    q1, q2, q3 = p1 + h * fc1, p2 + h * fc2, p3 + h * fc3
                    r = ratio(q1 * q1 + q2 * q2 + q3 * q3)
                    d1, d2, d3 = q1 * r, q2 * r, q3 * r
                    fd1, fd2, fd3 = force(x1 + h * c1, x2 + h * c2, x3 + h * c3)
                    x1 = x1 + sixth * (a1 + 2.0 * b1 + 2.0 * c1 + d1)
                    x2 = x2 + sixth * (a2 + 2.0 * b2 + 2.0 * c2 + d2)
                    x3 = x3 + sixth * (a3 + 2.0 * b3 + 2.0 * c3 + d3)
                    p1 = p1 + sixth * (fa1 + 2.0 * fb1 + 2.0 * fc1 + fd1)
                    p2 = p2 + sixth * (fa2 + 2.0 * fb2 + 2.0 * fc2 + fd2)
                    p3 = p3 + sixth * (fa3 + 2.0 * fb3 + 2.0 * fc3 + fd3)
                    es[k + 1] = (kinetic_energy(p1 * p1 + p2 * p2 + p3 * p3)
                                 + potential_energy(x1, x2, x3))
                    j = 3 * k + 3
                    xs[j], xs[j + 1], xs[j + 2] = x1, x2, x3
                    ps[j], ps[j + 1], ps[j + 2] = p1, p2, p3
                finished(k + 2)
    except DomainError as exc:
        err = DomainError(
            f"trajectory left the model domain at step {k + 1} of {n} "
            f"(t = {(k + 1) * h:.6g}): {exc}"
        )
        err.step_index = k + 1
        raise err from exc
    except ArithmeticError as exc:
        raise left_float_range(k + 1) from exc

    # an array is finite where its min and max are; only a fault builds the row mask
    if not all(math.isfinite(a.min()) and math.isfinite(a.max())
               for a in (energies, positions, momenta)):
        finite = np.isfinite(energies) & np.isfinite(positions).all(1) & np.isfinite(momenta).all(1)
        raise left_float_range(int(np.argmin(finite)))
    return Trajectory(times=times, positions=positions, momenta=momenta,
                      energies=energies, step=h)


def energy_drift(traj: Trajectory) -> float:
    """max_k |E_k - E_0| / max(|E_0|, 1e-30) over the recorded samples.

    Rounding is monotone, so |E_k - E_0| peaks at the largest or the smallest E_k,
    and NaN passes through min and max; abs turns a -0.0 difference into 0.0.
    """
    if len(traj) < 2:
        return 0.0
    e = traj.energies
    e0 = float(e[0])
    return max(abs(float(e.max()) - e0), abs(e0 - float(e.min()))) / max(abs(e0), 1e-30)
