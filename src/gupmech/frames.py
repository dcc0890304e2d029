"""Frame transformations with a finite velocity scale u instead of a light cone.

The exact boost is a Euclidean rotation in the (ut, x) plane through
tan(phi) = V/u, so the quantity u^2 dt^2 + dx^2 is invariant, boosts
compose through a tangent-addition law, and no velocity bound exists:
the composition is singular on the hyperbola V1 V2 = u^2 rather than at
a limiting speed.  A first-order and an ordinary (undeformed) law are
kept alongside for convergence and control experiments, together with
a standard Lorentz boost parameterized by an effective light speed.

An event is a row (t, x1[, x2, x3]) and a batch of events is an (n, 1+d)
array with the same columns as the events CSV.  Boosts act along axis 1;
remaining components pass through unchanged.
"""

import math
from dataclasses import dataclass

import numpy as np

from .algebra import DomainError, PhaseState
from .dynamics import Hamiltonian, POTENTIAL_FREE, hamilton_rhs, integrate

GALILEAN_EXACT = "exact"
GALILEAN_FIRST_ORDER = "first-order"
GALILEAN_ORDINARY = "ordinary"
GALILEAN_LAWS = (GALILEAN_EXACT, GALILEAN_FIRST_ORDER, GALILEAN_ORDINARY)
# event pairs per block of rows in interval_residual; a constant, not a knob
_PAIR_BLOCK = 4096


def _events(events) -> np.ndarray:
    """One event row (1+d,) or a batch (n, 1+d), d in {1, 3}: columns t, x1[, x2, x3]."""
    events = np.asarray(events, dtype=float)
    if events.ndim not in (1, 2) or events.shape[-1] not in (2, 4):
        raise ValueError(
            f"events must be rows of t, x1 or t, x1, x2, x3; got shape {events.shape}")
    if not np.isfinite(events).all():
        raise ValueError("event coordinates must be finite")
    return events


def _finite_rows(out: np.ndarray) -> np.ndarray:
    """out, or FloatingPointError naming its first non-finite row as a CSV row (index + 2)."""
    bad = np.flatnonzero(~np.isfinite(out).all(axis=-1))
    if bad.size:
        raise FloatingPointError(f"boosted event on CSV row {bad[0] + 2} is not finite")
    return out


@dataclass(frozen=True)
class GalileanBoost:
    """Boost of velocity V at scale u > 0 under one of the three laws."""

    velocity: float
    scale: float
    law: str = GALILEAN_EXACT

    def __post_init__(self):
        if self.law not in GALILEAN_LAWS:
            raise ValueError(f"unknown boost law {self.law!r}")
        if not (math.isfinite(self.scale) and self.scale > 0.0):
            raise ValueError(f"the velocity scale u must be positive, got {self.scale}")
        if not math.isfinite(self.velocity):
            raise ValueError("boost velocity must be finite")


@dataclass(frozen=True)
class LorentzBoost:
    """Standard boost at an effective light speed; requires |V| < light_speed."""

    velocity: float
    light_speed: float

    def __post_init__(self):
        if not (math.isfinite(self.light_speed) and self.light_speed > 0.0):
            raise ValueError(f"light_speed must be positive, got {self.light_speed}")
        if not math.isfinite(self.velocity):
            raise ValueError("boost velocity must be finite")
        if abs(self.velocity) >= self.light_speed:
            raise DomainError(
                f"boost velocity {self.velocity:.6g} must stay below the "
                f"light speed {self.light_speed:.6g}"
            )


def _apply(law, boost, events) -> np.ndarray:
    """law(boost, t', x1') on a row or a batch's columns; the other columns pass through."""
    events = _events(events)
    out = events.copy()
    out[..., 0], out[..., 1] = law(boost, events[..., 0], events[..., 1])
    return _finite_rows(out)


def _galilean(boost: GalileanBoost, t, x1):
    """The rest-frame (t, x1) of galilean_apply, on one event's floats or on columns."""
    V = boost.velocity
    u = boost.scale
    if boost.law == GALILEAN_EXACT:
        denom = math.sqrt(1.0 + (V / u) ** 2)
        return (t - x1 * V / (u * u)) / denom, (x1 + V * t) / denom
    if boost.law == GALILEAN_FIRST_ORDER:
        factor = 1.0 - V * V / (2.0 * u * u)
        return t * factor - x1 * V / (u * u), (x1 + V * t) * factor
    return t, x1 + V * t


@np.errstate(over="ignore", invalid="ignore")
def galilean_apply(boost: GalileanBoost, events) -> np.ndarray:
    """Map moving-frame events (t', x') to the rest frame, row by row.

    Exact law:        x = (x' + V t') / sqrt(1 + V^2/u^2)
                      t = (t' - x' V/u^2) / sqrt(1 + V^2/u^2)
    First-order law:  x = (x' + V t') (1 - V^2/(2u^2))
                      t = t' (1 - V^2/(2u^2)) - x' V/u^2
    Ordinary law:     x = x' + V t',  t = t'

    Takes a row or a batch and returns a new array of the same shape.
    """
    return _apply(_galilean, boost, events)


def galilean_inverse(boost: GalileanBoost) -> GalileanBoost:
    """The boost undoing this one: same law and scale, velocity -V.

    Exact composition with the original gives the identity to round-off;
    for the other laws the pairing is approximate by construction.
    """
    return GalileanBoost(velocity=-boost.velocity, scale=boost.scale, law=boost.law)


def galilean_compose(first: GalileanBoost, second: GalileanBoost) -> GalileanBoost:
    """Tangent-addition composition V = (V1 + V2) / (1 - V1 V2 / u^2).

    Both boosts must use the exact law and share the scale u.  The law is
    singular on V1 V2 = u^2, where the composed rotation reaches a quarter
    turn and no boost velocity represents it.
    """
    if first.law != GALILEAN_EXACT or second.law != GALILEAN_EXACT:
        raise ValueError("composition is defined for the exact law only")
    if first.scale != second.scale:
        raise ValueError(
            f"cannot compose boosts with different scales {first.scale} and {second.scale}"
        )
    return GalileanBoost(velocity=velocity_compose(first.velocity, second),
                         scale=first.scale, law=GALILEAN_EXACT)


def velocity_compose(v: float, boost: GalileanBoost) -> float:
    """Velocity seen from the rest frame: (v + V) / (1 - v V / u^2)."""
    V = boost.velocity
    u = boost.scale
    denom = 1.0 - v * V / (u * u)
    if denom == 0.0:
        raise DomainError(
            f"velocity composition is singular at v*V = u^2 (v={v:.6g}, V={V:.6g})"
        )
    return (v + V) / denom


def _lorentz(boost: LorentzBoost, t, x1):
    """The rest-frame (t, x1) of lorentz_apply, on one event's floats or on columns."""
    V = boost.velocity
    c = boost.light_speed
    gamma = 1.0 / math.sqrt(1.0 - (V / c) ** 2)
    return (t + x1 * V / (c * c)) * gamma, (x1 + V * t) * gamma


@np.errstate(over="ignore", invalid="ignore")
def lorentz_apply(boost: LorentzBoost, events) -> np.ndarray:
    """Standard boost x = (x' + V t') gamma, t = (t' + x' V/c^2) gamma, row by row."""
    return _apply(_lorentz, boost, events)


def _event_pair(e1, e2):
    e1, e2 = _events(e1), _events(e2)
    if e1.shape[-1] != e2.shape[-1]:
        raise ValueError("events must have the same dimension")
    return e1, e2


def _interval_parts(d, scale_sq: float):
    """(scale_sq dt^2, |dx|^2) from event differences d with components first.

    Checks nothing.  Event rows give d as (e2 - e1).T, the residual's blocks as
    (1+d, rows, m) slabs, and two events' float lists a list of floats.  |dx|^2
    adds the squared component planes left to right, as algebra._square does,
    so no BLAS kernel sets its bits.
    """
    dx2 = d[1] * d[1]
    for dk in d[2:]:
        dx2 += dk * dk
    return scale_sq * d[0] * d[0], dx2


@np.errstate(over="ignore", invalid="ignore")
def _interval(e1, e2, scale_sq: float, combine):
    """combine(scale_sq dt^2, |dx|^2) between events, or FloatingPointError if not finite."""
    e1, e2 = _event_pair(e1, e2)
    interval = combine(*_interval_parts((e2 - e1).T, scale_sq))
    if not np.isfinite(interval).all():
        raise FloatingPointError("interval between the events is not finite")
    return interval


def _minkowski(e1, e2, light_speed: float) -> float:
    """minkowski_interval of two events given as float lists; checks nothing."""
    time_part, dx2 = _interval_parts([b - a for a, b in zip(e1, e2)], light_speed ** 2)
    return time_part - dx2


def _euclidean(e1, e2, u: float) -> float:
    """euclidean_interval of two events given as float lists; checks nothing."""
    time_part, dx2 = _interval_parts([b - a for a, b in zip(e1, e2)], u * u)
    return time_part + dx2


def minkowski_interval(e1, e2, light_speed: float):
    """Minkowski interval c^2 dt^2 - |dx|^2 between events, broadcast over rows."""
    if not light_speed > 0.0:
        raise ValueError(f"light_speed must be positive, got {light_speed}")
    return _interval(e1, e2, light_speed ** 2, np.subtract)


def euclidean_interval(e1, e2, u: float):
    """Euclidean-signature interval u^2 dt^2 + |dx|^2 between events, broadcast over rows."""
    if not u > 0.0:
        raise ValueError(f"the velocity scale u must be positive, got {u}")
    return _interval(e1, e2, u * u, np.add)


@np.errstate(over="ignore", invalid="ignore")
def interval_residual(boost, before, after):
    """Worst relative change of the boost's invariant interval over all event pairs.

    The exact Galilean law keeps u^2 dt^2 + |dx|^2 and the Lorentz boost keeps
    c^2 dt^2 - |dx|^2; the first-order and ordinary laws keep no interval and
    give None.  Each pair's change is divided by the positive scale
    s^2 dt^2 + |dx|^2 of the original pair, which is the exact law's interval
    itself and, unlike |c^2 dt^2 - |dx|^2|, does not vanish for near-null
    Lorentz pairs.  before and after are checked once and must be (n, 1+d)
    batches of the same shape.  Each block of rows spanning about _PAIR_BLOCK
    pairs is compared with all later rows at once, so memory stays linear in
    the number of events; the block's pairs on or below its diagonal are
    self-pairs or exact mirrors and cannot move the maximum.  Blocks are cut
    from (1+d, n) component-first copies, so dt and each dx_k are contiguous
    planes and |dx|^2 is one in-place multiply-add per plane; the change
    reuses the block's arrays.  A non-finite interval makes its ratio inf or
    nan and raises FloatingPointError.
    """
    if isinstance(boost, LorentzBoost):
        scale_sq, minkowski = boost.light_speed ** 2, True
    elif boost.law == GALILEAN_EXACT:
        scale_sq, minkowski = boost.scale * boost.scale, False
    else:
        return None
    before, after = _event_pair(before, after)
    if before.ndim != 2 or before.shape != after.shape:
        raise ValueError("before and after must be event batches of the same shape, "
                         f"got {before.shape} and {after.shape}")
    worst = 0.0
    rows = max(1, _PAIR_BLOCK // max(len(before), 1))
    columns = before.T.copy(), after.T.copy()
    for i in range(0, len(before) - 1, rows):
        (time_part, dx2), (mapped_time, mapped_dx2) = (
            _interval_parts(c[:, None, i + 1:] - c[:, i:i + rows, None], scale_sq)
            for c in columns)
        scale = time_part + dx2
        interval = np.subtract(time_part, dx2, out=time_part) if minkowski else scale
        change = (np.subtract if minkowski else np.add)(mapped_time, mapped_dx2, out=mapped_time)
        change -= interval
        np.abs(change, out=change)
        ratio = np.divide(change, np.maximum(scale, 1e-30, out=scale), out=change)
        if not math.isfinite(peak := float(ratio.max())):
            row, col = np.argwhere(~np.isfinite(ratio))[0] + (i + 2, i + 3)
            raise FloatingPointError(f"interval between CSV rows {row} and {col} is not finite")
        worst = max(worst, peak)
    return worst


def covariance_residual(kind: Hamiltonian, boost: GalileanBoost,
                        initial: PhaseState, t_end: float, dt: float) -> float:
    """How far a boosted free trajectory is from the composed uniform motion.

    Integrates the free particle, maps every sampled event through the
    boost, fits a straight line x1(t) in the new frame, and returns the
    maximum deviation from that line plus the mismatch between the fitted
    slope and the tangent-addition composition of the particle velocity.
    Exact-law boosts give round-off; the ordinary law applied to deformed
    dynamics leaves a finite slope defect, which is the control experiment.
    """
    if kind.potential.kind != POTENTIAL_FREE:
        raise ValueError("the covariance probe is defined for free motion")
    traj = integrate(kind, initial, t_end, dt)
    mapped = galilean_apply(boost, np.column_stack((traj.times, traj.positions)))
    t_new, x_new = mapped[:, 0], mapped[:, 1]
    t_mean, x_mean = np.mean(t_new), np.mean(x_new)
    centred = t_new - t_mean
    slope = np.sum(centred * (x_new - x_mean)) / np.sum(centred * centred)
    intercept = x_mean - slope * t_mean
    deviation = float(np.max(np.abs(x_new - (slope * t_new + intercept))))
    v0 = float(hamilton_rhs(kind, initial)[0][0])
    return deviation + abs(slope - velocity_compose(v0, boost))
