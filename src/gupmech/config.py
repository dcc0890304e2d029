"""Flat key/value scenario configs: parse, validate, render, build.

Lines look like `model.kind = exact-1d`; `#` starts a comment line.
Exactly one of model.beta / model.gamma must be supplied unless both are
given consistently (beta = gamma^2 / mass^2).  render_config emits a
canonical document that parses back to an equal config.
"""

import math
from dataclasses import dataclass, fields
from typing import Optional, Tuple

from . import dynamics, frames
from .algebra import DeformationParameters, PhaseState
from .constants import GEOMETRY_ONE_D, GEOMETRY_THREE_D, effective_velocity_u

UNITS_MODES = ("natural", "SI")

BOOST_LAWS = (frames.GALILEAN_EXACT, frames.GALILEAN_FIRST_ORDER,
              frames.GALILEAN_ORDINARY, "lorentz")


class ConfigError(ValueError):
    """Config parse or validation failure, with a line number when known."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class ScenarioConfig:
    kind: str
    mass: float
    beta: float
    gamma: float
    potential: str = "free"
    stiffness: float = 0.0
    force: float = 0.0
    light_speed: float = 0.0
    scale_velocity: float = 0.0
    sqrt_sign: int = -1
    x0: Optional[Tuple[float, ...]] = None
    p0: Optional[Tuple[float, ...]] = None
    t_end: Optional[float] = None
    dt: Optional[float] = None
    units: str = "natural"
    boost_velocity: Optional[float] = None
    boost_scale: Optional[float] = None
    boost_light_speed: Optional[float] = None
    boost_law: Optional[str] = None
    trajectory_path: str = ""
    events_path: str = ""
    report_path: str = ""

    @property
    def dim(self) -> int:
        return 1 if self.kind in dynamics.ONE_D_MODELS else 3

    @property
    def geometry(self) -> str:
        return GEOMETRY_ONE_D if self.dim == 1 else GEOMETRY_THREE_D

    def derived_scale_velocity(self) -> float:
        """The velocity scale u = alpha/gamma set by this model's algebra."""
        if not self.gamma > 0.0:
            raise ConfigError(
                "no velocity scale can be derived with gamma = 0; "
                "set boost.scale (or model.scale_velocity) explicitly"
            )
        return effective_velocity_u(self.gamma, self.geometry)

    def deformation(self) -> DeformationParameters:
        return DeformationParameters(beta=self.beta, mass=self.mass)

    def build_potential(self) -> dynamics.Potential:
        return dynamics.Potential(self.potential, self.stiffness, self.force)

    def build_hamiltonian(self) -> dynamics.Hamiltonian:
        scale = self.scale_velocity
        if self.kind == dynamics.EFFECTIVE_SQRT and not scale:
            scale = self.derived_scale_velocity()
        return dynamics.Hamiltonian(self.kind, self.deformation(), self.build_potential(),
                                    light_speed=self.light_speed, scale_velocity=scale,
                                    sqrt_sign=self.sqrt_sign)

    def build_initial_state(self) -> PhaseState:
        if self.x0 is None or self.p0 is None:
            raise ConfigError("initial.x and initial.p are required to integrate")
        return PhaseState.of(self.x0, self.p0)

    def build_boost(self):
        """The configured frame map, or None when no boost group was given."""
        if self.boost_velocity is None:
            return None
        if self.boost_law == "lorentz":
            if self.boost_light_speed is None:
                raise ConfigError("boost.law = lorentz requires boost.light_speed")
            return frames.LorentzBoost(self.boost_velocity, self.boost_light_speed)
        scale = self.boost_scale
        if scale is None:
            scale = self.derived_scale_velocity()
        law = self.boost_law or frames.GALILEAN_EXACT
        return frames.GalileanBoost(self.boost_velocity, scale, law=law)


_MODEL_KINDS = tuple(sorted(dynamics.ALL_MODELS))

# key -> (field name, parser tag); parser tags: str, float, vector, int
_KEYS = {
    "model.kind": ("kind", "str"),
    "model.mass": ("mass", "float"),
    "model.beta": ("beta", "float"),
    "model.gamma": ("gamma", "float"),
    "model.potential": ("potential", "str"),
    "model.stiffness": ("stiffness", "float"),
    "model.force": ("force", "float"),
    "model.light_speed": ("light_speed", "float"),
    "model.scale_velocity": ("scale_velocity", "float"),
    "model.sqrt_sign": ("sqrt_sign", "int"),
    "initial.x": ("x0", "vector"),
    "initial.p": ("p0", "vector"),
    "t_end": ("t_end", "float"),
    "dt": ("dt", "float"),
    "units": ("units", "str"),
    "boost.velocity": ("boost_velocity", "float"),
    "boost.scale": ("boost_scale", "float"),
    "boost.light_speed": ("boost_light_speed", "float"),
    "boost.law": ("boost_law", "str"),
    "output.trajectory": ("trajectory_path", "str"),
    "output.events": ("events_path", "str"),
    "output.report": ("report_path", "str"),
}


def _parse_float(raw, key, line):
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"{key}: not a number: {raw!r}", line) from None
    if not math.isfinite(value):
        raise ConfigError(f"{key}: must be finite, got {raw}", line)
    return value


def _parse_vector(raw, key, line):
    parts = [s for s in (piece.strip() for piece in raw.split(",")) if s]
    if len(parts) not in (1, 3):
        raise ConfigError(f"{key}: expected 1 or 3 components, got {len(parts)}", line)
    return tuple(_parse_float(part, key, line) for part in parts)


def _parse_int(raw, key, line):
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{key}: not an integer: {raw!r}", line) from None


def _scan(text):
    """Split the document into key -> (raw value, line number)."""
    entries = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"expected 'key = value', got {stripped!r}", line_no)
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _KEYS:
            raise ConfigError(f"unknown key {key!r}", line_no)
        if not raw:
            raise ConfigError(f"{key}: empty value", line_no)
        if key in entries:
            raise ConfigError(f"{key}: duplicate (first given on line {entries[key][1]})",
                              line_no)
        entries[key] = (raw, line_no)
    return entries


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate a scenario document.

    Raises ConfigError with a line number for malformed lines and with the
    offending key name for semantic problems.
    """
    entries = _scan(text)

    values = {}
    for key, (raw, line) in entries.items():
        field, tag = _KEYS[key]
        if tag == "float":
            values[field] = _parse_float(raw, key, line)
        elif tag == "vector":
            values[field] = _parse_vector(raw, key, line)
        elif tag == "int":
            values[field] = _parse_int(raw, key, line)
        else:
            values[field] = raw

    def line_of(key):
        return entries[key][1] if key in entries else None

    for key in ("model.kind", "model.mass"):
        if _KEYS[key][0] not in values:
            raise ConfigError(f"missing required key {key}")

    kind = values["kind"]
    if kind not in dynamics.ALL_MODELS:
        raise ConfigError(
            f"model.kind: unknown model {kind!r}; expected one of {', '.join(_MODEL_KINDS)}",
            line_of("model.kind"))

    mass = values["mass"]
    if not mass > 0.0:
        raise ConfigError(f"model.mass: must be positive, got {mass}",
                          line_of("model.mass"))

    has_beta = "beta" in values
    has_gamma = "gamma" in values
    if not has_beta and not has_gamma:
        raise ConfigError("one of model.beta or model.gamma is required")
    if has_beta and values["beta"] < 0.0:
        raise ConfigError(f"model.beta: must be nonnegative, got {values['beta']}",
                          line_of("model.beta"))
    if has_gamma and values["gamma"] < 0.0:
        raise ConfigError(f"model.gamma: must be nonnegative, got {values['gamma']}",
                          line_of("model.gamma"))
    if has_beta and has_gamma:
        g2 = values["gamma"] ** 2
        b2 = values["beta"] * mass * mass
        if abs(g2 - b2) > 1e-12 * max(g2, b2, 1e-300):
            raise ConfigError(
                "model.beta and model.gamma conflict: "
                f"gamma^2 = {g2!r} but beta*mass^2 = {b2!r}",
                line_of("model.gamma"))
    elif has_beta:
        values["gamma"] = math.sqrt(values["beta"]) * mass
    else:
        values["beta"] = (values["gamma"] / mass) ** 2

    potential = values.get("potential", "free")
    if potential not in ("free", "harmonic", "uniform-field"):
        raise ConfigError(f"model.potential: unknown kind {potential!r}",
                          line_of("model.potential"))
    if potential == "harmonic":
        if "stiffness" not in values:
            raise ConfigError("model.potential = harmonic requires model.stiffness")
        if not values["stiffness"] > 0.0:
            raise ConfigError(
                f"model.stiffness: must be positive, got {values['stiffness']}",
                line_of("model.stiffness"))
    elif "stiffness" in values:
        raise ConfigError("model.stiffness only applies to the harmonic potential",
                          line_of("model.stiffness"))
    if potential == "uniform-field":
        if "force" not in values:
            raise ConfigError("model.potential = uniform-field requires model.force")
        if values["force"] == 0.0:
            raise ConfigError("model.force: a zero field is the free potential",
                              line_of("model.force"))
    elif "force" in values:
        raise ConfigError("model.force only applies to the uniform-field potential",
                          line_of("model.force"))

    if kind == dynamics.REL_FIRST_ORDER_1D:
        if "light_speed" not in values:
            raise ConfigError(f"model.kind = {kind} requires model.light_speed")
        if not values["light_speed"] > 0.0:
            raise ConfigError(
                f"model.light_speed: must be positive, got {values['light_speed']}",
                line_of("model.light_speed"))
    elif "light_speed" in values:
        raise ConfigError("model.light_speed only applies to the relativistic model",
                          line_of("model.light_speed"))

    if kind == dynamics.EFFECTIVE_SQRT:
        if "scale_velocity" in values and not values["scale_velocity"] > 0.0:
            raise ConfigError(
                f"model.scale_velocity: must be positive, got {values['scale_velocity']}",
                line_of("model.scale_velocity"))
        if "sqrt_sign" in values and values["sqrt_sign"] not in (-1, 1):
            raise ConfigError(
                f"model.sqrt_sign: must be -1 or 1, got {values['sqrt_sign']}",
                line_of("model.sqrt_sign"))
    else:
        for key in ("model.scale_velocity", "model.sqrt_sign"):
            if _KEYS[key][0] in values:
                raise ConfigError(f"{key} only applies to the effective-sqrt model",
                                  line_of(key))

    dim = 1 if kind in dynamics.ONE_D_MODELS else 3
    for key in ("initial.x", "initial.p"):
        field = _KEYS[key][0]
        if field in values and len(values[field]) != dim:
            raise ConfigError(
                f"{key}: model {kind} needs {dim} component(s), "
                f"got {len(values[field])}",
                line_of(key))
    if ("x0" in values) != ("p0" in values):
        raise ConfigError("initial.x and initial.p must be given together")

    if "t_end" in values and not values["t_end"] > 0.0:
        raise ConfigError(f"t_end: must be positive, got {values['t_end']}",
                          line_of("t_end"))
    if "dt" in values and not values["dt"] > 0.0:
        raise ConfigError(f"dt: must be positive, got {values['dt']}",
                          line_of("dt"))

    units = values.get("units", "natural")
    if units not in UNITS_MODES:
        raise ConfigError(f"units: expected one of {', '.join(UNITS_MODES)}, got {units!r}",
                          line_of("units"))

    law = values.get("boost_law")
    if law is not None and law not in BOOST_LAWS:
        raise ConfigError(
            f"boost.law: expected one of {', '.join(BOOST_LAWS)}, got {law!r}",
            line_of("boost.law"))
    for key in ("boost.scale", "boost.light_speed", "boost.law"):
        if _KEYS[key][0] in values and "boost_velocity" not in values:
            raise ConfigError(f"{key} given without boost.velocity", line_of(key))
    if law == "lorentz":
        if "boost_scale" in values:
            raise ConfigError("boost.scale only applies to the Galilean boost laws",
                              line_of("boost.scale"))
    elif "boost_light_speed" in values:
        raise ConfigError("boost.light_speed only applies to boost.law = lorentz",
                          line_of("boost.light_speed"))
    if "boost_scale" in values and not values["boost_scale"] > 0.0:
        raise ConfigError(f"boost.scale: must be positive, got {values['boost_scale']}",
                          line_of("boost.scale"))
    if "boost_light_speed" in values and not values["boost_light_speed"] > 0.0:
        raise ConfigError(
            f"boost.light_speed: must be positive, got {values['boost_light_speed']}",
            line_of("boost.light_speed"))

    return ScenarioConfig(**values)


_RENDER_ORDER = (
    "model.kind", "model.mass", "model.beta", "model.gamma",
    "model.potential", "model.stiffness", "model.force",
    "model.light_speed", "model.scale_velocity", "model.sqrt_sign",
    "initial.x", "initial.p", "t_end", "dt", "units",
    "boost.velocity", "boost.scale", "boost.light_speed", "boost.law",
    "output.trajectory", "output.events", "output.report",
)


def render_config(config: ScenarioConfig) -> str:
    """Emit the canonical document; parse_config(render_config(c)) == c."""
    defaults = {f.name: f.default for f in fields(ScenarioConfig)}
    lines = []
    for key in _RENDER_ORDER:
        field, tag = _KEYS[key]
        value = getattr(config, field)
        if value == defaults[field] and key not in (
                "model.kind", "model.mass", "model.beta", "model.gamma"):
            continue
        if tag == "vector":
            rendered = ", ".join(repr(component) for component in value)
        elif tag == "float":
            rendered = repr(value)
        else:
            rendered = str(value)
        lines.append(f"{key} = {rendered}")
    return "\n".join(lines) + "\n"
