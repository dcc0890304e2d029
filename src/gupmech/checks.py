"""Seeded invariant suites behind the `check` subcommand.

Every check reduces to a single measured number compared against a
tolerance, so a report row is always "name, measured, tolerance,
pass/fail".  Ratio-style checks (convergence orders, halving gaps)
encode the window as measured = |ratio/target - 1| against the allowed
fractional width.  The tolerance_scale knob exists for harness
self-tests: scaling all tolerances to zero must make a healthy suite
fail.
"""

import inspect
import math
import zlib
from dataclasses import dataclass
from decimal import Decimal, localcontext
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from . import constants as consts
from . import _child, _rng, dynamics, frames, legendre
from .algebra import (BRACKET_STEP, DeformationParameters, PhaseState, _contract, _gradients_at,
                      _jacobi, _Point, _square, bracket_xp_1d, bracket_xp_3d, coordinate_function,
                      momentum_function_1d, momentum_function_3d, momentum_map_1d,
                      numerical_bracket)

DEFAULT_SEED = 42

# One verdict per invariant; measured <= tolerance * scale means pass.
CheckBody = Tuple[float, float, str]


@dataclass(frozen=True)
class CheckResult:
    name: str
    measured: float
    tolerance: float
    passed: bool
    detail: str


def _rel(delta, scale):
    return abs(delta) / max(1.0, abs(scale))


def _worst(*values):
    """The largest value, or NaN if any is NaN: max() passes over a NaN sample."""
    return math.nan if any(v != v for v in values) else max(values)


def _draw(rng, count, *ranges):
    """count rows of floats from one rng.random call, value k of a row uniform in ranges[k].

    low + (high - low) * u is rng.uniform's arithmetic, so these are the values
    drawn by one rng.uniform call per value, in this order.
    """
    width = len(ranges)
    u = rng.random(width * count)
    return [[low + (high - low) * c for (low, high), c in zip(ranges, u[k:k + width])]
            for k in range(0, width * count, width)]


def _states(rng, count, beta, fill=0.9):
    """count 3D phase states (x, p) as lists of floats: x in (-2, 2)^3, then p in
    (-1, 1)^3 scaled to beta |p|^2 = fill U(0.1, 1)."""
    states = []
    for row in _draw(rng, count, *[(-2.0, 2.0)] * 3, *[(-1.0, 1.0)] * 3, (0.1, 1.0)):
        x, p = row[:3], row[3:6]
        scale = math.sqrt(fill * row[6] / beta) / math.sqrt(_square(p))
        states.append((x, [c * scale for c in p]))
    return states


# ---------------------------------------------------------------- algebra

_FD_TOL = 10.0 * BRACKET_STEP ** 2


def _check_bracket_1d(rng) -> CheckBody:
    params = DeformationParameters(beta=0.01, mass=1.0)
    big_x = coordinate_function()
    big_p = momentum_function_1d(params)
    worst = 0.0
    for p, x in _draw(rng, 100, (-13.0, 13.0), (-2.0, 2.0)):
        target = bracket_xp_1d(momentum_map_1d(p, params), params)
        got = numerical_bracket(big_x, big_p, _Point((x,), (p,)))
        # The step is coordinate-scaled, so the truncation bound carries
        # the squared scale factor.
        worst = _worst(worst, abs(got - target) / target / max(1.0, p * p))
    return worst, _FD_TOL, "mapped {X,P} vs 1+beta*P^2, 100 states, step-scaled relative"


def _check_bracket_3d(rng) -> CheckBody:
    params = DeformationParameters(beta=0.01, mass=1.0)
    # X_1..X_3, P_1..P_3: gradients taken once per state, contracted pairwise
    fns = ([coordinate_function(axis) for axis in (1, 2, 3)]
           + [momentum_function_3d(params, axis) for axis in (1, 2, 3)])
    worst = 0.0
    for x, p in _states(rng, 40, params.beta):
        scale_sq = max(1.0, *map(abs, p)) ** 2
        big_p = [fns[3 + j]((x, p)) for j in range(3)]
        root = math.sqrt(1.0 + params.beta * _square(big_p))
        coarse, fine = _gradients_at(fns, x, p), _gradients_at(fns, x, p, BRACKET_STEP / 2)
        for i in range(3):
            for j in range(3):
                target = bracket_xp_3d(big_p, i + 1, j + 1, params)
                # Richardson: the h^2 truncation terms of steps h and h/2 cancel
                got = (4.0 * _contract(fine[i], fine[3 + j])
                       - _contract(coarse[i], coarse[3 + j])) / 3.0
                worst = _worst(worst, _rel(got - target, root) / scale_sq)
    return worst, _FD_TOL, "mapped {X_i,P_j} componentwise, 40 states, step-scaled"


def _check_vanishing_brackets(rng) -> CheckBody:
    params = DeformationParameters(beta=0.01, mass=1.0)
    fns = ([coordinate_function(axis) for axis in (1, 2, 3)]
           + [momentum_function_3d(params, axis) for axis in (1, 2, 3)])
    worst = 0.0
    for x, p in _states(rng, 25, params.beta):
        grads = _gradients_at(fns, x, p)
        for i in range(3):
            for j in range(i + 1, 3):
                worst = _worst(worst, abs(_contract(grads[i], grads[j])),
                               abs(_contract(grads[3 + i], grads[3 + j])))
    return worst, _FD_TOL, "{X_i,X_j} and {P_i,P_j} magnitudes, 25 states"


def _check_beta_zero_bound() -> CheckBody:
    beta = 0.01
    params = DeformationParameters(beta=beta, mass=1.0)
    grid = np.linspace(0.05, 0.5, 19) / math.sqrt(beta)
    worst = 0.0
    for p in grid:
        dev = abs(momentum_map_1d(float(p), params) - p)
        worst = _worst(worst, dev / (beta * p ** 3))
    return worst, 1.0, "|P(p) - p| against the beta*|p|^3 bound"


def _check_beta_zero_halving() -> CheckBody:
    beta = 0.01
    grid = np.linspace(0.05, 0.5, 19) / math.sqrt(beta)
    worst = 0.0
    for p in grid:
        dev = momentum_map_1d(float(p), DeformationParameters(beta, 1.0)) - p
        dev_half = momentum_map_1d(float(p), DeformationParameters(beta / 2.0, 1.0)) - p
        worst = _worst(worst, abs(2.0 * dev_half / dev - 1.0))
    return worst, 0.1, "deviation halves when beta halves"


def _check_antisymmetry(rng) -> CheckBody:
    def f(state):
        return state.x[0] * state.p[0]

    def g(state):
        return state.x[0] + state.p[0] ** 2

    worst = 0.0
    for x, p in _draw(rng, 20, (-2.0, 2.0), (-2.0, 2.0)):
        state = _Point((x,), (p,))
        lhs = numerical_bracket(f, g, state)
        rhs = numerical_bracket(g, f, state)
        worst = _worst(worst, _rel(lhs + rhs, lhs))
    return worst, 1e-12, "{f,g} = -{g,f} for mixed polynomial pairs"


def _check_leibniz(rng) -> CheckBody:
    def f(state):
        return state.x[0] ** 2

    def g(state):
        return state.p[0] ** 2

    def h(state):
        return state.x[0] * state.p[0]

    def fg(state):
        return f(state) * g(state)

    worst = 0.0
    for x, p in _draw(rng, 20, (-2.0, 2.0), (-2.0, 2.0)):
        state = _Point((x,), (p,))
        lhs = numerical_bracket(fg, h, state)
        rhs = (f(state) * numerical_bracket(g, h, state)
               + g(state) * numerical_bracket(f, h, state))
        worst = _worst(worst, abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)))
    return worst, _FD_TOL, "{fg,h} = f{g,h} + g{f,h}, relative"


def _check_monotonicity() -> CheckBody:
    params = DeformationParameters(beta=0.01, mass=1.0)
    edge = (math.pi / 2.0) / params.sqrt_beta
    grid = np.linspace(-0.999 * edge, 0.999 * edge, 4001)
    values = np.array([momentum_map_1d(float(p), params) for p in grid])
    ok = bool(np.all(np.diff(values) > 0.0))
    return (0.0 if ok else 1.0), 0.5, "P(p) strictly increasing across the branch"


def _check_jacobi(rng) -> CheckBody:
    params = DeformationParameters(beta=0.01, mass=1.0)
    big_x, big_p = coordinate_function(), momentum_function_1d(params)
    worst = 0.0
    for x, p, a, b in _draw(rng, 10, (-2.0, 2.0), (-8.0, 8.0), (-1.0, 1.0), (-1.0, 1.0)):
        def h(s, a=a, b=b):
            return (a * s[0][0] + b) * s[1][0]

        worst = _worst(worst, _jacobi(big_x, big_p, h, [x], [p]))
    for _ in range(10):
        # one state per draw: the axes below come from the same generator
        x, p = _states(rng, 1, params.beta, fill=0.5)[0]
        i, j, k, l = rng.integers(1, 4, size=4)
        xk = coordinate_function(k)
        pl = momentum_function_3d(params, l)

        def h(s, xk=xk, pl=pl):
            return xk(s) * pl(s)

        xi, pj = coordinate_function(i), momentum_function_3d(params, j)
        worst = _worst(worst, _jacobi(xi, pj, h, x, p))
    return worst, 1e-5, "nested-bracket Jacobi residual, 20 seeded triples"


# --------------------------------------------------------------- dynamics

def _free_hamiltonians(beta):
    params = DeformationParameters(beta=beta, mass=1.0)
    return (dynamics.Hamiltonian.exact_1d(params),
            dynamics.Hamiltonian.first_order_1d(params))


def _energy_gap(one, other, p):
    """|H_one - H_other| at x = 0 and momentum p."""
    state = PhaseState.of(0.0, float(p))
    return abs(dynamics.hamiltonian_value(one, state) - dynamics.hamiltonian_value(other, state))


def _worst_sextic_gap(one, other, grid):
    """The worst energy gap over the momenta in grid, against beta^2 p^6 / m."""
    beta, mass = one.params.beta, one.params.mass
    worst = 0.0
    for p in grid:
        worst = _worst(worst, _energy_gap(one, other, p) / (beta ** 2 * p ** 6 / mass))
    return worst


def _check_model_agreement_bound() -> CheckBody:
    beta = 0.01
    grid = np.linspace(0.02, 0.3, 15) / math.sqrt(beta)
    return _worst_sextic_gap(*_free_hamiltonians(beta), grid), 1.0, "|H_exact - H_first| against beta^2 p^6 / m"


def _check_model_agreement_halving() -> CheckBody:
    beta = 0.01
    worst = 0.0
    for p in np.linspace(0.1, 0.3, 9) / math.sqrt(beta):
        gaps = [_energy_gap(*_free_hamiltonians(b), p) for b in (beta, beta / 2.0)]
        worst = _worst(worst, abs(gaps[0] / gaps[1] / 4.0 - 1.0))
    return worst, 0.2, "energy gap drops 4x when beta halves"


def _check_effective_sqrt_consistency() -> CheckBody:
    beta, mass = 0.01, 1.0
    params = DeformationParameters(beta=beta, mass=mass)
    u = math.sqrt(3.0 / (8.0 * beta * mass * mass))
    eff = dynamics.Hamiltonian.effective_sqrt(params, u, sign=-1)
    grid = np.linspace(0.05, 0.3, 11) / math.sqrt(beta)
    worst = _worst_sextic_gap(eff, dynamics.Hamiltonian.first_order_1d(params), grid)
    return worst, 1.0, "sqrt model at u^2 = 3/(8 beta m^2) vs quartic model"


def _suite_hamiltonians():
    params = DeformationParameters(beta=0.01, mass=1.0)
    params3 = DeformationParameters(beta=0.001, mass=1.0)
    pot = dynamics.Potential.harmonic(0.7)
    u = math.sqrt(3.0 / (8.0 * 0.01))
    return [
        dynamics.Hamiltonian.exact_1d(params, pot),
        dynamics.Hamiltonian.first_order_1d(params, pot),
        dynamics.Hamiltonian.exact_3d(params3, pot),
        dynamics.Hamiltonian.first_order_3d(params3, pot),
        dynamics.Hamiltonian.relativistic_first_order_1d(
            DeformationParameters(beta=0.001, mass=1.0), 10.0, pot),
        dynamics.Hamiltonian.effective_sqrt(params, u, sign=-1, potential=pot),
        dynamics.Hamiltonian.effective_sqrt(params, u, sign=+1, potential=pot),
    ]


def _suite_states(rng, kind, count):
    """count states of a suite model; 1D momenta stay below 0.85 of a branch edge or of 40."""
    if kind.dim == 1:
        limit = min(dynamics.momentum_limit(kind), dynamics.monotone_momentum_limit(kind), 40.0)
        return [([x], [p * limit]) for p, x in _draw(rng, count, (-0.85, 0.85), (-2.0, 2.0))]
    return _states(rng, count, kind.params.beta, fill=0.8)


def _check_rhs_fd_agreement(rng) -> CheckBody:
    worst = 0.0
    for kind in _suite_hamiltonians():
        # on floats: numpy costs more than the arithmetic on 1 and 3 components
        for x, p in _suite_states(rng, kind, 100):
            exact = [c for part in dynamics._rhs(kind, x, p) for c in part]
            fd = [c for part in dynamics._rhs_fd(kind, x, p) for c in part]
            err = _worst(*[abs(a - b) for a, b in zip(exact, fd)])
            worst = _worst(worst, err / max(1.0, *map(abs, exact)))
    return worst, 1e-6, "analytic vs finite-difference RHS, 100 states per model"


def _harmonic_endpoint(dt):
    params = DeformationParameters(beta=0.01, mass=1.0)
    kind = dynamics.Hamiltonian.exact_1d(params, dynamics.Potential.harmonic(1.0))
    end = dynamics.integrate(kind, PhaseState.of(1.0, 0.3), 1.0, dt).endpoint
    return float(end.x[0]), float(end.p[0])


def _rk4_order_errors():
    # Endpoint errors at t = 1 against one shared reference at the finest
    # dt / 8.  The reference's own error, about 3e-17, is over 1,000x below
    # the smallest of these, which is well above round-off.
    x_ref, p_ref = _harmonic_endpoint(2e-3 / 8.0)
    return [math.hypot(x - x_ref, p - p_ref)
            for x, p in map(_harmonic_endpoint, (8e-3, 4e-3, 2e-3))]


def _check_rk4_order() -> CheckBody:
    coarse, mid, fine = _rk4_order_errors()
    worst = _worst(abs(coarse / mid / 16.0 - 1.0), abs(mid / fine / 16.0 - 1.0))
    return worst, 0.25, "endpoint error drops 16x per dt halving"


def _check_relativistic_coefficient() -> CheckBody:
    worst = 0.0
    for mass, c, beta in ((1.0, 10.0, 1e-4), (1.0, 10.0, 1e-2),
                          (2.0, 5.0, 1e-3), (2.0, 5.0, 1e-2)):
        params = DeformationParameters(beta=beta, mass=mass)
        kind = dynamics.Hamiltonian.relativistic_first_order_1d(params, c)
        kappa = 1.0 / (8.0 * mass ** 2 * c ** 2) - beta / 3.0
        got = dynamics.relativistic_quartic_coefficient(kind)
        worst = _worst(worst, _rel(got + kappa / mass, kappa / mass))
        threshold = 3.0 / (8.0 * mass ** 2 * c ** 2)
        if (beta > threshold) != (got > 0.0):
            worst = _worst(worst, 1.0)
    return worst, 1e-12, "quartic coefficient -kappa/m and its sign flip"


# --------------------------------------------------------------- legendre

def _check_inversion_roundtrip(rng) -> CheckBody:
    worst = 0.0
    for kind in _suite_hamiltonians():
        for x, p in _suite_states(rng, kind, 100):
            xdot = dynamics._rhs(kind, x, p)[0]
            back = np.atleast_1d(legendre.momentum_from_velocity_exact(xdot, kind)).tolist()
            err = _worst(*[abs(a - b) for a, b in zip(back, p)])
            worst = _worst(worst, err / max(1.0, *map(abs, p)))
    return worst, 1e-10, "velocity map then exact inversion, 100 states per model"


_GAP_COEFFS = {1: 8.0, 3: 24.0}


def _first_order_gap(dim, params, speed):
    """|p_exact - p_first| at the given speed along axis 1, in 1D or 3D."""
    exact_model = dynamics.Hamiltonian.exact_1d if dim == 1 else dynamics.Hamiltonian.exact_3d
    v = speed if dim == 1 else np.array([speed, 0.0, 0.0])
    exact = np.ravel(legendre.momentum_from_velocity_exact(v, exact_model(params)))[0]
    first = np.ravel(legendre.momentum_from_velocity_first_order(v, params))[0]
    return abs(exact - first)


def _check_first_order_gap_bound() -> CheckBody:
    beta, mass = 0.01, 1.0
    params = DeformationParameters(beta=beta, mass=mass)
    speeds = np.sqrt(np.linspace(0.005, 0.095, 12) / (beta * mass * mass))
    worst = 0.0
    for dim in (1, 3):
        for speed in speeds:
            gap = _first_order_gap(dim, params, float(speed))
            bound = _GAP_COEFFS[dim] * beta ** 2 * mass ** 5 * speed ** 5
            worst = _worst(worst, gap / bound)
    return worst, 1.0, "first-order inversion gap against the beta^2 bound"


def _check_first_order_gap_halving() -> CheckBody:
    mass = 1.0
    worst = 0.0
    # Fixed velocity across the halving; both betas stay inside the
    # small-deformation regime.
    for dim in (1, 3):
        for speed_sq in (0.02, 0.05, 0.09):
            speed = math.sqrt(speed_sq / (0.01 * mass * mass))
            gaps = [_first_order_gap(dim, DeformationParameters(beta=beta, mass=mass), speed)
                    for beta in (0.01, 0.005)]
            worst = _worst(worst, abs(gaps[0] / gaps[1] / 4.0 - 1.0))
    return worst, 0.2, "inversion gap drops 4x when beta halves at fixed velocity"


def _check_sign_structure() -> CheckBody:
    beta, mass = 0.01, 1.0
    deformed = DeformationParameters(beta=beta, mass=mass)
    flat = DeformationParameters(beta=0.0, mass=mass)
    ok = True
    for speed in (0.5, 1.0, 2.0):
        ok &= (legendre.lagrangian_value(legendre.Lagrangian.first_order_1d(deformed),
                                         0.0, speed)
               < legendre.lagrangian_value(legendre.Lagrangian.first_order_1d(flat),
                                           0.0, speed))
        state = PhaseState.of(0.0, speed * mass)
        ok &= (dynamics.hamiltonian_value(
                   dynamics.Hamiltonian.first_order_1d(deformed), state)
               > dynamics.hamiltonian_value(
                   dynamics.Hamiltonian.first_order_1d(flat), state))
    return (0.0 if ok else 1.0), 0.5, "quartic term lowers L and raises H vs beta=0"


def _check_action_additivity() -> CheckBody:
    params = DeformationParameters(beta=0.01, mass=1.0)
    kind = dynamics.Hamiltonian.exact_1d(params, dynamics.Potential.harmonic(1.0))
    lag = legendre.Lagrangian.first_order_1d(params, dynamics.Potential.harmonic(1.0))
    traj = dynamics.integrate(kind, PhaseState.of(1.0, 0.4), 2.0, 1e-3)
    path = legendre.PathSample.from_trajectory(traj)
    whole = legendre.action_along_path(lag, path)
    worst = 0.0
    for k in (301, 1000, 1707):
        head, tail = path.split(k)
        parts = (legendre.action_along_path(lag, head)
                 + legendre.action_along_path(lag, tail))
        worst = _worst(worst, _rel(whole - parts, whole))
    return worst, 1e-12, "split-path actions sum to the whole, relative"


def _check_action_interval_link() -> CheckBody:
    params = DeformationParameters(beta=0.01, mass=1.0)
    u = math.sqrt(3.0 / (8.0 * params.beta * params.mass ** 2))
    lag = legendre.Lagrangian.sqrt_1d(params, u)
    times = np.linspace(0.0, 2.0, 401)
    worst = 0.0
    for speed in (0.5, 2.0, 5.0):
        positions = (0.3 + speed * times).reshape(-1, 1)
        path = legendre.PathSample(times, positions)
        action = legendre.action_along_path(lag, path)
        arc = math.hypot(u * 2.0, speed * 2.0)
        target = params.mass * u * arc - params.mass * u * u * 2.0
        worst = _worst(worst, _rel(action - target, target))
    return worst, 1e-10, "uniform-velocity action vs m*u*(arc length) - m*u^2*T"


# ----------------------------------------------------------------- frames

def _boosted(law, boost, event):
    """A float event moved by law(boost, t', x1'), frames' formula for rows and columns."""
    return [*law(boost, event[0], event[1]), *event[2:]]


def _check_interval_invariance(rng) -> CheckBody:
    u = 1.3
    worst = 0.0
    for dim in (1, 3):
        events = _draw(rng, 100, *[(-2.0, 2.0)] * (1 + dim))
        for (speed,), e1, e2 in zip(_draw(rng, 50, (-10.0, 10.0)), events[::2], events[1::2]):
            boost = frames.GalileanBoost(speed * u, u)
            before = frames._euclidean(e1, e2, u)
            after = frames._euclidean(_boosted(frames._galilean, boost, e1),
                                      _boosted(frames._galilean, boost, e2), u)
            worst = _worst(worst, abs(after - before) / abs(before))
    return worst, 1e-12, "u^2 dt^2 + dx^2 under exact boosts, |V| up to 10u"


def _first_order_law_deviation(events, u, velocity):
    exact = frames.GalileanBoost(velocity, u, law=frames.GALILEAN_EXACT)
    first = frames.GalileanBoost(velocity, u, law=frames.GALILEAN_FIRST_ORDER)
    a = frames.galilean_apply(exact, events)
    b = frames.galilean_apply(first, events)
    return float(np.max(np.abs(a[:, 1:] - b[:, 1:])))


def _check_first_order_convergence(rng) -> CheckBody:
    u = 1.0
    events = np.array(_draw(rng, 50, (-2.0, 2.0), (-2.0, 2.0)))
    devs = [_first_order_law_deviation(events, u, v) for v in (0.4, 0.2, 0.1)]
    worst = _worst(abs(devs[0] / devs[1] / 16.0 - 1.0),
                   abs(devs[1] / devs[2] / 16.0 - 1.0))
    return worst, 0.25, "exact vs first-order spatial gap drops 16x per V halving"


def _check_group_structure(rng) -> CheckBody:
    u = 1.3
    worst = 0.0
    for row in _draw(rng, 25, *[(-0.8, 0.8)] * 3, (-2.0, 2.0), (-2.0, 2.0)):
        b1, b2, b3 = (frames.GalileanBoost(speed * u, u) for speed in row[:3])
        event = row[3:]
        combo = frames.galilean_compose(b1, b2)
        sequential = _boosted(frames._galilean, b2, _boosted(frames._galilean, b1, event))
        direct = _boosted(frames._galilean, combo, event)
        worst = _worst(worst, _rel(direct[0] - sequential[0], sequential[0]),
                       _rel(direct[1] - sequential[1], sequential[1]))
        left = frames.galilean_compose(frames.galilean_compose(b1, b2), b3)
        right = frames.galilean_compose(b1, frames.galilean_compose(b2, b3))
        worst = _worst(worst, _rel(left.velocity - right.velocity, right.velocity))
        identity = frames.galilean_compose(b1, frames.galilean_inverse(b1))
        worst = _worst(worst, abs(identity.velocity), _round_trip_error(b1, event))
    return worst, 1e-12, "composition, associativity, identity, inverse"


def _round_trip_error(boost, event):
    """Relative error of a 1D float event boosted and boosted back, worst coordinate."""
    back = _boosted(frames._galilean, frames.galilean_inverse(boost),
                    _boosted(frames._galilean, boost, event))
    return _worst(_rel(back[0] - event[0], event[0]), _rel(back[1] - event[1], event[1]))


def _check_lorentz_invariance(rng) -> CheckBody:
    c = 1.4
    worst = 0.0
    events = _draw(rng, 100, (-2.0, 2.0), (-2.0, 2.0))
    for (speed,), e1, e2 in zip(_draw(rng, 50, (-0.95, 0.95)), events[::2], events[1::2]):
        boost = frames.LorentzBoost(speed * c, c)
        before = frames._minkowski(e1, e2, c)
        after = frames._minkowski(_boosted(frames._lorentz, boost, e1),
                                  _boosted(frames._lorentz, boost, e2), c)
        dx = e1[1] - e2[1]
        scale = (c * (e1[0] - e2[0])) ** 2 + dx * dx
        worst = _worst(worst, abs(after - before) / scale)
    return worst, 1e-12, "c_eff^2 dt^2 - dx^2 under Lorentz boosts"


def _check_no_speed_limit(rng) -> CheckBody:
    u = 1.3
    boost = frames.GalileanBoost(10.0 * u, u)
    worst = 0.0
    for event in _draw(rng, 20, (-2.0, 2.0), (-2.0, 2.0)):
        worst = _worst(worst, _round_trip_error(boost, event))
    return worst, 1e-12, "V = 10u boost round-trips; no speed ceiling"


def _covariance(law):
    """covariance_residual of a free exact-1d particle under a 0.3 u boost by `law`."""
    params = DeformationParameters(beta=0.01, mass=1.0)
    u = math.sqrt(3.0 / (8.0 * params.beta * params.mass ** 2))
    boost = frames.GalileanBoost(0.3 * u, u, law=law)
    return frames.covariance_residual(dynamics.Hamiltonian.exact_1d(params), boost,
                                      PhaseState.of(0.0, 1.0), 1.0, 1e-3)


def _check_covariance_exact() -> CheckBody:
    return _covariance(frames.GALILEAN_EXACT), 1e-10, "exact law keeps free motion linear with composed slope"


def _check_covariance_control() -> CheckBody:
    residual = _covariance(frames.GALILEAN_ORDINARY)
    return 1e-4 / residual, 1.0, (
        f"ordinary law must fail covariance; residual {residual:.3e}")


# -------------------------------------------------------------- constants

def _check_paper_magnitudes() -> CheckBody:
    scales = consts.EffectiveScales.for_mass(consts.CODATA.electron_mass,
                                             consts.GEOMETRY_THREE_D)
    u_over_c = scales.u / consts.CODATA.light_speed
    worst = _worst(abs(scales.c_gamma / 4.2e-23 - 1.0) / 0.02,
                   abs(u_over_c / 1.2e22 - 1.0) / 0.05,
                   abs(scales.deviation / 3.5e-45 - 1.0) / 0.05)
    return worst, 1.0, (
        f"c*gamma {scales.c_gamma:.4e}, u/c {u_over_c:.4e}, "
        f"shift {scales.deviation:.4e} vs published magnitudes")


def _check_mass_independence() -> CheckBody:
    gamma = 0.2
    seen = set()
    # Power-of-two masses keep beta = gamma^2/m^2 exactly representable,
    # so "bit-identical" is well-posed.
    for mass in (0.5, 1.0, 2.0, 8.0):
        params = DeformationParameters.from_gamma(gamma, mass)
        u = consts.effective_velocity_u(params.gamma, consts.GEOMETRY_THREE_D)
        c_eff = consts.effective_light_speed(params.gamma, consts.GEOMETRY_THREE_D,
                                             light_speed=1.0)
        seen.add((u.hex(), c_eff.hex()))
    return (0.0 if len(seen) == 1 else 1.0), 0.5, (
        "u and c_eff identical across masses at fixed gamma")


def _check_extended_consistency() -> CheckBody:
    gamma = consts.gamma_from_planck_length(consts.CODATA.electron_mass).gamma
    alpha = consts.geometry_alpha(consts.GEOMETRY_THREE_D)
    c = consts.CODATA.light_speed
    with localcontext(consts.EXTENDED_CONTEXT):
        cd, gd, ad = Decimal(c), Decimal(gamma), Decimal(alpha)
        c_eff = consts.effective_light_speed_extended(gamma, consts.GEOMETRY_THREE_D)
        lhs = (cd / c_eff) ** 2
        deviation = (cd * gd) ** 2 / (2 * ad ** 2)
        rhs = 1 - 2 * deviation
        measured = float(abs(lhs / rhs - 1))
    return measured, 1e-20, "c^2/c_eff^2 vs 1 - 2*(first-order shift), extended precision"


def _check_superluminal_shift() -> CheckBody:
    gamma = consts.gamma_from_planck_length(consts.CODATA.electron_mass).gamma
    dev = consts.light_speed_deviation(gamma, consts.GEOMETRY_THREE_D)
    c_eff = consts.effective_light_speed_extended(gamma, consts.GEOMETRY_THREE_D)
    exceeds = c_eff > Decimal(consts.CODATA.light_speed)
    ok = dev > 0.0 and exceeds
    return (0.0 if ok else 1.0), 0.5, "effective light speed exceeds c for gamma > 0"


def _check_closed_vs_exact() -> CheckBody:
    gamma = consts.gamma_from_planck_length(consts.CODATA.electron_mass).gamma
    closed = consts.light_speed_deviation(gamma, consts.GEOMETRY_THREE_D)
    c = Decimal(consts.CODATA.light_speed)
    with localcontext(consts.EXTENDED_CONTEXT):
        c_eff = consts.effective_light_speed_extended(gamma, consts.GEOMETRY_THREE_D)
        exact = (c_eff - c) / c
        measured = float(abs(Decimal(closed) / exact - 1))
    return measured, 1e-6, "closed-form shift vs extended-precision subtraction"


# ------------------------------------------------------------------ suites

_SUITES: Dict[str, List[Tuple[str, Callable]]] = {
    "algebra": [
        ("algebra.bracket-1d-representation", _check_bracket_1d),
        ("algebra.bracket-3d-representation", _check_bracket_3d),
        ("algebra.vanishing-brackets", _check_vanishing_brackets),
        ("algebra.beta-zero-bound", _check_beta_zero_bound),
        ("algebra.beta-zero-halving", _check_beta_zero_halving),
        ("algebra.antisymmetry", _check_antisymmetry),
        ("algebra.leibniz", _check_leibniz),
        ("algebra.monotonicity-1d", _check_monotonicity),
        ("algebra.jacobi-residual", _check_jacobi),
    ],
    "dynamics": [
        ("dynamics.model-agreement-bound", _check_model_agreement_bound),
        ("dynamics.model-agreement-halving", _check_model_agreement_halving),
        ("dynamics.effective-sqrt-consistency", _check_effective_sqrt_consistency),
        ("dynamics.rhs-fd-agreement", _check_rhs_fd_agreement),
        ("dynamics.rk4-order", _check_rk4_order),
        ("dynamics.relativistic-coefficient", _check_relativistic_coefficient),
    ],
    "legendre": [
        ("legendre.inversion-roundtrip", _check_inversion_roundtrip),
        ("legendre.first-order-gap-bound", _check_first_order_gap_bound),
        ("legendre.first-order-gap-halving", _check_first_order_gap_halving),
        ("legendre.sign-structure", _check_sign_structure),
        ("legendre.action-additivity", _check_action_additivity),
        ("legendre.action-interval-link", _check_action_interval_link),
    ],
    "frames": [
        ("frames.interval-invariance", _check_interval_invariance),
        ("frames.first-order-convergence", _check_first_order_convergence),
        ("frames.group-structure", _check_group_structure),
        ("frames.lorentz-invariance", _check_lorentz_invariance),
        ("frames.no-speed-limit", _check_no_speed_limit),
        ("frames.covariance-exact", _check_covariance_exact),
        ("frames.covariance-control", _check_covariance_control),
    ],
    "constants": [
        ("constants.published-magnitudes", _check_paper_magnitudes),
        ("constants.mass-independence", _check_mass_independence),
        ("constants.extended-consistency", _check_extended_consistency),
        ("constants.superluminal-shift", _check_superluminal_shift),
        ("constants.closed-vs-exact", _check_closed_vs_exact),
    ],
}

SUITE_NAMES = tuple(_SUITES) + ("all",)


def _row(seed, name, fn, draws) -> Tuple[float, float, str]:
    """One row's value on seed, given whether fn takes a generator."""
    # crc32 keyed per check: stable across processes, unlike hash().
    rng = [_rng.Generator([seed, zlib.crc32(name.encode())])] if draws else []
    measured, tolerance, detail = fn(*rng)
    return float(measured), float(tolerance), detail


def run_seeds(suite: str, seeds: Sequence[int],
              tolerance_scale: float = 1.0) -> List[List[CheckResult]]:
    """Run one named suite (or all of them) on each seed; the verdict rows of each seed.

    Failures are results, not exceptions; the caller owns exit codes.  Each
    (seed, row) job is queued, seed by seed in suite order, before one fork,
    and this process and the child take one at a time until none is left
    (`_child.Shared`), with the same results as in one process.  A row that
    takes no generator runs once, at the first seed, for every seed.  A job
    that raised, was never delivered or found the queue full runs again here.
    """
    if suite not in SUITE_NAMES:
        raise ValueError(f"unknown suite {suite!r}; expected one of {SUITE_NAMES}")
    names = list(_SUITES) if suite == "all" else [suite]
    rows = [row for block in names for row in _SUITES[block]]
    # a row takes a generator or nothing; one that takes none has one value on every seed
    draws = [bool(inspect.signature(fn).parameters) for _, fn in rows]
    jobs = [(seed, k) for seed in seeds for k in range(len(rows)) if draws[k] or seed == seeds[0]]

    def run(index):
        seed, k = jobs[index]
        return _row(seed, *rows[k], draws[k])

    done = {}
    if len(jobs) > 1 and _child.runs_alongside():
        mine, theirs = _child.Shared(run, len(jobs)).finish(run)
        done = {**mine, **theirs}
    values = {job: done[i] if i in done else run(i) for i, job in enumerate(jobs)}

    def verdict(seed, k):
        measured, tolerance, detail = values[seed if draws[k] else seeds[0], k]
        return CheckResult(rows[k][0], measured, tolerance,
                           bool(measured <= tolerance * tolerance_scale), detail)

    return [[verdict(seed, k) for k in range(len(rows))] for seed in seeds]


def run_suite(suite: str, seed: int = DEFAULT_SEED,
              tolerance_scale: float = 1.0) -> List[CheckResult]:
    """Run one named suite (or all of them) on one seed and return the verdict rows."""
    return run_seeds(suite, [seed], tolerance_scale)[0]
