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

BOOST_LAWS = frames.GALILEAN_LAWS + ("lorentz",)


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

    def derived_scale_velocity(self, key: str) -> float:
        """The velocity scale u = alpha/gamma set by this model's algebra; key sets u instead."""
        if not self.gamma > 0.0:
            raise ConfigError(
                f"no velocity scale can be derived with gamma = 0; set {key} explicitly")
        return effective_velocity_u(self.gamma, self.geometry)

    def deformation(self) -> DeformationParameters:
        return DeformationParameters(beta=self.beta, mass=self.mass)

    def build_potential(self) -> dynamics.Potential:
        return dynamics.Potential(self.potential, self.stiffness, self.force)

    def build_hamiltonian(self) -> dynamics.Hamiltonian:
        scale = self.scale_velocity
        if self.kind == dynamics.EFFECTIVE_SQRT and not scale:
            scale = self.derived_scale_velocity("model.scale_velocity")
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
            scale = self.derived_scale_velocity("boost.scale")
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

# key -> (selecting key, the selector values it applies under, what it applies to);
# an absent selector reads as None.
_SCOPES = {
    "model.stiffness": ("model.potential", (dynamics.POTENTIAL_HARMONIC,),
                        "the harmonic potential"),
    "model.force": ("model.potential", (dynamics.POTENTIAL_UNIFORM_FIELD,),
                    "the uniform-field potential"),
    "model.light_speed": ("model.kind", (dynamics.REL_FIRST_ORDER_1D,),
                          "the relativistic model"),
    "model.scale_velocity": ("model.kind", (dynamics.EFFECTIVE_SQRT,),
                             "the effective-sqrt model"),
    "model.sqrt_sign": ("model.kind", (dynamics.EFFECTIVE_SQRT,), "the effective-sqrt model"),
    "boost.scale": ("boost.law", (None,) + frames.GALILEAN_LAWS, "the Galilean boost laws"),
    "boost.light_speed": ("boost.law", ("lorentz",), "boost.law = lorentz"),
}

# (selecting key, value) -> the key that value requires
_REQUIRES = {
    ("model.potential", dynamics.POTENTIAL_HARMONIC): "model.stiffness",
    ("model.potential", dynamics.POTENTIAL_UNIFORM_FIELD): "model.force",
    ("model.kind", dynamics.REL_FIRST_ORDER_1D): "model.light_speed",
}

_POSITIVE = ("model.mass", "model.stiffness", "model.light_speed", "model.scale_velocity",
             "t_end", "dt", "boost.scale", "boost.light_speed")


def _parse_float(raw, key, line):
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"{key}: not a number: {raw!r}", line) from None
    if not math.isfinite(value):
        raise ConfigError(f"{key}: must be finite, got {raw}", line)
    return value


def _parse_vector(raw, key, line):
    parts = [piece.strip() for piece in raw.split(",")]
    if "" in parts:
        raise ConfigError(f"{key}: empty component in {raw!r}", line)
    if len(parts) not in (1, 3):
        raise ConfigError(f"{key}: expected 1 or 3 components, got {len(parts)}", line)
    return tuple(_parse_float(part, key, line) for part in parts)


def _parse_int(raw, key, line):
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{key}: not an integer: {raw!r}", line) from None


_PARSERS = {"str": lambda raw, key, line: raw, "float": _parse_float,
            "vector": _parse_vector, "int": _parse_int}


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
    # Keyed by document key until the end, where the fields are named.
    values = {key: _PARSERS[_KEYS[key][1]](raw, key, line)
              for key, (raw, line) in entries.items()}

    def line_of(key):
        return entries[key][1] if key in entries else None

    def finite(key, what, compute):
        """compute(), refused on key's line when it leaves the float range."""
        try:
            value = compute()
            if math.isfinite(value):
                return value
        except OverflowError:
            pass
        raise ConfigError(f"{key}: {what} overflows", line_of(key))

    for key in ("model.kind", "model.mass"):
        if key not in values:
            raise ConfigError(f"missing required key {key}")
    kind = values["model.kind"]
    if kind not in dynamics.ALL_MODELS:
        raise ConfigError(
            f"model.kind: unknown model {kind!r}; expected one of {', '.join(_MODEL_KINDS)}",
            line_of("model.kind"))

    mass = values["model.mass"]
    has_beta = "model.beta" in values
    has_gamma = "model.gamma" in values
    if not has_beta and not has_gamma:
        raise ConfigError("one of model.beta or model.gamma is required")
    for key in ("model.beta", "model.gamma"):
        if key in values and values[key] < 0.0:
            raise ConfigError(f"{key}: must be nonnegative, got {values[key]}", line_of(key))
    if has_beta and has_gamma:
        g2 = finite("model.gamma", "gamma^2", lambda: values["model.gamma"] ** 2)
        b2 = values["model.beta"] * mass * mass
        if abs(g2 - b2) > 1e-12 * max(g2, b2, 1e-300):
            raise ConfigError(
                "model.beta and model.gamma conflict: "
                f"gamma^2 = {g2!r} but beta*mass^2 = {b2!r}",
                line_of("model.gamma"))

    potential = values.get("model.potential", dynamics.POTENTIAL_FREE)
    if potential not in dynamics.POTENTIAL_KINDS:
        raise ConfigError(f"model.potential: unknown kind {potential!r}",
                          line_of("model.potential"))
    units = values.get("units", "natural")
    if units not in UNITS_MODES:
        raise ConfigError(f"units: expected one of {', '.join(UNITS_MODES)}, got {units!r}",
                          line_of("units"))
    law = values.get("boost.law")
    if law is not None and law not in BOOST_LAWS:
        raise ConfigError(f"boost.law: expected one of {', '.join(BOOST_LAWS)}, got {law!r}",
                          line_of("boost.law"))

    for (selector, value), key in _REQUIRES.items():
        if values.get(selector) == value and key not in values:
            raise ConfigError(f"{selector} = {value} requires {key}")
    for key in ("boost.scale", "boost.light_speed", "boost.law"):
        if key in values and "boost.velocity" not in values:
            raise ConfigError(f"{key} given without boost.velocity", line_of(key))
    for key, (selector, allowed, wording) in _SCOPES.items():
        if key in values and values.get(selector) not in allowed:
            raise ConfigError(f"{key} only applies to {wording}", line_of(key))
    for key in _POSITIVE:
        if key in values and not values[key] > 0.0:
            raise ConfigError(f"{key}: must be positive, got {values[key]}", line_of(key))
    if values.get("model.force") == 0.0:
        raise ConfigError("model.force: a zero field is the free potential",
                          line_of("model.force"))
    if values.get("model.sqrt_sign", -1) not in (-1, 1):
        raise ConfigError(f"model.sqrt_sign: must be -1 or 1, got {values['model.sqrt_sign']}",
                          line_of("model.sqrt_sign"))

    if not has_gamma:
        values["model.gamma"] = finite("model.beta", "model.gamma = sqrt(beta) * mass",
                                       lambda: math.sqrt(values["model.beta"]) * mass)
    elif not has_beta:
        values["model.beta"] = finite("model.gamma", "model.beta = (gamma / mass)^2",
                                      lambda: (values["model.gamma"] / mass) ** 2)
    config = ScenarioConfig(**{_KEYS[key][0]: value for key, value in values.items()})
    # Products the relativistic model and the boost laws form from these keys:
    # (key, what, compute, context), refused on the key's line unless the
    # product is a positive float.
    products = []
    if "model.light_speed" in values:
        # the relativistic model's rest energy and the inverse in its quartic coefficient
        c = values["model.light_speed"]
        products += [("model.light_speed", what, compute, f" with model.mass = {mass!r}")
                     for what, compute in (("m c^2", lambda: mass * c ** 2),
                                           ("1 / (8 m^2 c^2)",
                                            lambda: 1.0 / (8.0 * mass * mass * c * c)))]
    if "boost.light_speed" in values:
        # the Lorentz interval's c^2 dt^2
        light = values["boost.light_speed"]
        products.append(("boost.light_speed", "c^2", lambda: light ** 2, ""))
    if "boost.velocity" in values and law in (None, frames.GALILEAN_EXACT,
                                               frames.GALILEAN_FIRST_ORDER):
        # The deformed laws form V / u^2, u^2 dt^2 in the exact interval, and
        # sqrt(1 + (V / u)^2) or V^2 / (2 u^2); u is boost.scale or alpha / gamma.
        speed = values["boost.velocity"]
        scale, scale_key, derived = values.get("boost.scale"), "boost.scale", ""
        if scale is None and config.gamma > 0.0:
            scale = config.derived_scale_velocity("boost.scale")
            scale_key = "model.gamma" if has_gamma else "model.beta"
            derived = f" with the derived boost scale u = {scale!r}"
        if scale is not None:
            products += [(scale_key, "u^2", lambda: scale * scale, derived),
                         ("boost.velocity", "1 + (V / u)^2",
                          lambda: 1.0 + (speed / scale) ** 2, f" with u = {scale!r}")]
    for key, what, compute, context in products:
        try:
            in_range = 0.0 < compute() < math.inf
        except ArithmeticError:
            in_range = False
        if not in_range:
            raise ConfigError(f"{key}: {what} leaves the float range{context}", line_of(key))
    for key in ("initial.x", "initial.p"):
        if key in values and len(values[key]) != config.dim:
            raise ConfigError(f"{key}: model {kind} needs {config.dim} component(s), "
                              f"got {len(values[key])}", line_of(key))
    if ("initial.x" in values) != ("initial.p" in values):
        raise ConfigError("initial.x and initial.p must be given together")
    return config


def render_config(config: ScenarioConfig) -> str:
    """Emit the canonical document; parse_config(render_config(c)) == c."""
    defaults = {f.name: f.default for f in fields(ScenarioConfig)}
    lines = []
    for key, (field, tag) in _KEYS.items():
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
