"""Deformed phase-space algebra realized on ordinary canonical variables.

A quadratic-in-momentum deformation of the canonical bracket is
represented by keeping (x, p) canonical and mapping the physical
momentum through a nonlinear change of variables: a tangent map in
one dimension, an inverse-square-root map in three.  The closed-form
brackets these maps induce live here, together with a central
finite-difference bracket engine used to verify them, and a nested
Jacobi-identity residual.

The scalar maps are functions of a point (x, p), read by index: float
lists, a _Point, or (state.x, state.p) of a PhaseState.  Axis arguments
on the three-dimensional helpers are numbered 1 to 3.
"""

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

EPS = float(np.finfo(float).eps)

# Central differences balance truncation against rounding at h ~ eps^(1/3).
# Nested brackets differentiate already-noisy values, so the outer pass
# widens the step to eps^(1/4) to keep the noise amplification down.
BRACKET_STEP = EPS ** (1.0 / 3.0)
NESTED_BRACKET_STEP = EPS ** 0.25


class DomainError(ValueError):
    """A state or parameter left the validity region of a map or model."""


@dataclass(frozen=True)
class DeformationParameters:
    """Deformation strength beta >= 0 and particle mass > 0.

    gamma = sqrt(beta) * mass is the mass-free combination that controls
    kinematics; it is exposed as a derived property so that
    gamma**2 == beta * mass**2 holds to machine precision by construction.
    """

    beta: float
    mass: float

    def __post_init__(self):
        if not (isinstance(self.beta, (int, float)) and math.isfinite(self.beta)):
            raise ValueError("beta must be a finite number")
        if not (isinstance(self.mass, (int, float)) and math.isfinite(self.mass)):
            raise ValueError("mass must be a finite number")
        if self.beta < 0.0:
            raise ValueError(f"beta must be nonnegative, got {self.beta}")
        if self.mass <= 0.0:
            raise ValueError(f"mass must be positive, got {self.mass}")
        if self.mass < sys.float_info.min:
            raise ValueError(f"mass {self.mass!r} is below the smallest normal float "
                             f"{sys.float_info.min!r}")

    @property
    def gamma(self) -> float:
        return math.sqrt(self.beta) * self.mass

    @property
    def sqrt_beta(self) -> float:
        return math.sqrt(self.beta)

    @classmethod
    def from_gamma(cls, gamma: float, mass: float) -> "DeformationParameters":
        """Build from gamma instead of beta (beta = gamma**2 / mass**2)."""
        for name, value in (("gamma", gamma), ("mass", mass)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be a finite number")
        if gamma < 0.0:
            raise ValueError(f"gamma must be nonnegative, got {gamma}")
        if mass <= 0.0:
            raise ValueError(f"mass must be positive, got {mass}")
        return cls(beta=(gamma / mass) ** 2, mass=mass)


@dataclass(frozen=True)
class PhaseState:
    """Canonical pair (x, p) with one or three components each."""

    x: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        x = np.array(self.x, dtype=float, ndmin=1)
        p = np.array(self.p, dtype=float, ndmin=1)
        if x.shape != p.shape or x.ndim != 1 or x.size not in (1, 3):
            raise ValueError(
                f"x and p must both have 1 or 3 components, got shapes {x.shape} and {p.shape}"
            )
        if not all(map(math.isfinite, x.tolist() + p.tolist())):
            raise ValueError("phase-space components must be finite")
        x.setflags(write=False)
        p.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "p", p)

    @classmethod
    def of(cls, x, p) -> "PhaseState":
        return cls(x=np.asarray(x, dtype=float), p=np.asarray(p, dtype=float))

    @property
    def dim(self) -> int:
        return self.x.size


def momentum_map_1d(p: float, params: DeformationParameters) -> float:
    """Deformed momentum in one dimension, P = tan(sqrt(beta) p) / sqrt(beta).

    Defined on the branch sqrt(beta) |p| < pi/2; beta = 0 passes p through
    untouched rather than evaluating the limit numerically.
    """
    p = float(p)
    if params.beta == 0.0:
        return p
    sb = params.sqrt_beta
    z = sb * p
    if abs(z) >= math.pi / 2.0:
        raise DomainError(
            f"canonical momentum {p} is outside the tangent branch "
            f"(need sqrt(beta)*|p| < pi/2, got {abs(z):.6g})"
        )
    return math.tan(z) / sb

def _square(v) -> float:
    """|v|^2 of 1 or 3 floats, summed left to right, so no BLAS kernel sets its bits."""
    return v[0] * v[0] if len(v) == 1 else v[0] * v[0] + v[1] * v[1] + v[2] * v[2]

def _dot(u, v) -> float:
    """u . v of 1 or 3 floats each, summed left to right as _square is."""
    return u[0] * v[0] if len(u) == 1 else u[0] * v[0] + u[1] * v[1] + u[2] * v[2]

def _map_3d_divisor(p, params: DeformationParameters) -> float:
    """sqrt(1 - beta p^2) of 3 floats for the three-dimensional map, after its domain check."""
    if params.beta == 0.0:
        return 1.0
    bp2 = params.beta * _square(p)
    if bp2 >= 1.0:
        raise DomainError(
            f"canonical momentum is outside the map domain (need beta*|p|^2 < 1, got {bp2:.6g})"
        )
    return math.sqrt(1.0 - bp2)

def momentum_map_3d(p, params: DeformationParameters) -> np.ndarray:
    """Deformed momentum in three dimensions, P_i = p_i / sqrt(1 - beta p^2)."""
    p = np.atleast_1d(np.asarray(p, dtype=float))
    if p.size != 3:
        raise ValueError(f"p must have 3 components, got {p.size}")
    return p / _map_3d_divisor(p.tolist(), params)

def bracket_xp_1d(P: float, params: DeformationParameters) -> float:
    """Closed-form deformed bracket {X, P} = 1 + beta P^2 in one dimension."""
    return 1.0 + params.beta * float(P) ** 2

def bracket_xp_3d(P, i: int, j: int, params: DeformationParameters) -> float:
    """Closed-form {X_i, P_j} = sqrt(1 + beta P^2) (delta_ij + beta P_i P_j).

    i and j are axis numbers in {1, 2, 3}.
    """
    if i not in (1, 2, 3) or j not in (1, 2, 3):
        raise IndexError(f"axis numbers must lie in 1..3, got i={i}, j={j}")
    P = np.atleast_1d(np.asarray(P, dtype=float))
    if P.size != 3:
        raise ValueError(f"P must have 3 components, got {P.size}")
    b = params.beta
    delta = 1.0 if i == j else 0.0
    return math.sqrt(1.0 + b * _square(P.tolist())) * (delta + b * P[i - 1] * P[j - 1])


def _moved(v, i: int, value: float):
    """A copy of the float list v with entry i set to value, which must be finite."""
    if not math.isfinite(value):
        raise ValueError("phase-space components must be finite")
    v = v.copy()
    v[i] = value
    return v


def _probes(x, p, step_scale: float):
    """Per axis, the steps (hx, hp) and the shifted points (x+, x-, p+, p-) of float lists.

    Per coordinate the step is step_scale * max(1, |coordinate|).  Each point
    shares the unmoved list with (x, p), so only the moved coordinate needs checking.
    """
    probes = []
    for i, (xi, pi) in enumerate(zip(x, p)):
        hx = step_scale * max(1.0, abs(xi))
        hp = step_scale * max(1.0, abs(pi))
        shifted = [(_moved(x, i, xi + hx), p), (_moved(x, i, xi - hx), p),
                   (x, _moved(p, i, pi + hp)), (x, _moved(p, i, pi - hp))]
        probes.append((hx, hp, shifted))
    return probes


def _values(f, probes):
    """f at each axis's shifted points, in the order (x+, x-, p+, p-)."""
    return [[f(s) for s in shifted] for _, _, shifted in probes]


def _gradient(values, probes):
    """Per axis (df/dx_i, df/dp_i) by central differences of f's probe values."""
    grad = []
    for (hx, hp, _), (f_xp, f_xm, f_pp, f_pm) in zip(probes, values):
        if not all(map(math.isfinite, (f_xp, f_xm, f_pp, f_pm))):
            raise DomainError(
                "non-finite function value while probing a central difference; "
                "the state is too close to a domain boundary"
            )
        grad.append(((f_xp - f_xm) / (2.0 * hx), (f_pp - f_pm) / (2.0 * hp)))
    return grad


def _gradients_at(fns, x, p, step_scale: float = BRACKET_STEP):
    """Each function's central-difference gradient at the float lists (x, p), on one probe set."""
    probes = _probes(x, p, step_scale)
    return [_gradient(_values(fn, probes), probes) for fn in fns]


def _contract(df, dg) -> float:
    """sum_i (df/dx_i dg/dp_i - df/dp_i dg/dx_i) of two per-axis gradients."""
    # Each difference is divided by its own step before multiplying; the
    # grouped form rounds differently under argument swap and breaks
    # exact antisymmetry.
    total = 0.0
    for (df_dx, df_dp), (dg_dx, dg_dp) in zip(df, dg):
        total += df_dx * dg_dp - df_dp * dg_dx
    return total


class _Point(NamedTuple):
    """A phase-space point as the shells hand it to a caller's function: float tuples."""

    x: tuple
    p: tuple


def _of_point(f):
    """f, a function of a _Point, as a function of a probe point (x, p) of float lists."""
    return lambda point: f(_Point(tuple(point[0]), tuple(point[1])))


def _lists(state):
    """The float lists (x, p) of a PhaseState or a _Point."""
    return [list(v) if isinstance(v, tuple) else v.tolist() for v in (state.x, state.p)]


def numerical_bracket(f, g, state, step_scale: float = BRACKET_STEP) -> float:
    """Canonical Poisson bracket of two phase-space scalars by central differences.

    Parameters
    ----------
    f, g : callables mapping a point to a float.  Each call gets a _Point of
        float tuples, read as `.x` and `.p` or as `[0]` and `[1]`.
    state : point of evaluation, a PhaseState or a _Point.
    step_scale : relative step, finite and positive; per coordinate the
        step is step_scale * max(1, |coordinate|).

    Returns sum_i (df/dx_i dg/dp_i - df/dp_i dg/dx_i), the contraction of
    two central-difference gradients taken over the same probe points.
    Raises DomainError if any probed value fails to be finite, which
    usually means the state sits too close to a representation boundary.
    """
    if not 0.0 < step_scale < math.inf:
        raise ValueError(f"step_scale must be finite and positive, got {step_scale}")
    return _contract(*_gradients_at(map(_of_point, (f, g)), *_lists(state), step_scale))


def jacobi_residual(f, g, h, state) -> float:
    """|{f,{g,h}} + {g,{h,f}} + {h,{f,g}}| with all brackets taken numerically.

    f, g, h and state are as numerical_bracket takes them.  Inner brackets use the
    standard step; the outer pass uses the wider NESTED_BRACKET_STEP so that
    finite-difference noise from the inner evaluations is not amplified.  At each
    outer probe point the gradients of f, g and h are taken once and contracted
    pairwise into the three inner brackets.  For smooth scalars the result is pure
    numerical noise; anything well above ~1e-6 signals a broken bracket.
    """
    return _jacobi(*map(_of_point, (f, g, h)), *_lists(state))


def _jacobi(f, g, h, x, p) -> float:
    """jacobi_residual at the float lists (x, p), of functions of a point (x, p)."""
    outer = _probes(x, p, NESTED_BRACKET_STEP)
    # Per axis and outer probe point: ({g,h}, {h,f}, {f,g}).
    nested = []
    for _, _, shifted in outer:
        row = []
        for s in shifted:
            df, dg, dh = _gradients_at((f, g, h), *s)
            row.append((_contract(dg, dh), _contract(dh, df), _contract(df, dg)))
        nested.append(row)
    b1, b2, b3 = (
        _contract(_gradient(_values(fn, outer), outer),
                  _gradient([[v[k] for v in row] for row in nested], outer))
        for k, fn in enumerate((f, g, h))
    )
    return abs(b1 + b2 + b3)


def coordinate_function(axis: int = 1):
    """Scalar map returning position component `axis` (numbered from 1)."""
    if axis not in (1, 2, 3):
        raise IndexError(f"axis numbers must lie in 1..3, got {axis}")
    return lambda point: point[0][axis - 1]


def momentum_function_1d(params: DeformationParameters):
    """Scalar map returning the deformed momentum of a one-dimensional point."""
    return lambda point: momentum_map_1d(point[1][0], params)


def momentum_function_3d(params: DeformationParameters, axis: int):
    """Scalar map returning deformed momentum component `axis` (numbered from 1)."""
    if axis not in (1, 2, 3):
        raise IndexError(f"axis numbers must lie in 1..3, got {axis}")
    k = axis - 1
    return lambda point: point[1][k] / _map_3d_divisor(point[1], params)
