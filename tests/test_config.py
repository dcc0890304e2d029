"""Scenario documents: scanning, validation, rendering, CSV tables."""

import errno
import hashlib
import mmap
import os
import pickle
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gupmech import cli, csvio
from gupmech import config as config_module
from gupmech.config import ConfigError, ScenarioConfig, parse_config, render_config
from gupmech.csvio import (
    CsvFormatError,
    event_header,
    read_events,
    read_trajectory,
    trajectory_header,
    write_events,
    write_trajectory,
)
from gupmech.dynamics import Hamiltonian, PhaseState, Trajectory, integrate
from gupmech.frames import GalileanBoost, LorentzBoost, galilean_apply
from gupmech.algebra import DeformationParameters

MINIMAL = """\
model.kind = exact-1d
model.mass = 1.0
model.beta = 0.01
"""

EXACT_3D = """\
model.kind = exact-3d
model.mass = 1.0
model.beta = 0.01
"""

EFFECTIVE_SQRT = """\
model.kind = effective-sqrt
model.mass = 1.0
model.beta = 0.01
"""

RELATIVISTIC = """\
model.kind = relativistic-first-order-1d
model.mass = 1.0
model.beta = 0.0001
"""

BOOST = MINIMAL + "boost.velocity = 0.5\n"

# One fault per document: id -> (document, str(err), err.line).  Every
# ConfigError that parse_config can raise appears at least once, so a
# change to the validation code must keep each message and line number.
SINGLE_FAULTS = {
    "scan-no-equals": (
        "model.kind exact-1d\n",
        "line 1: expected 'key = value', got 'model.kind exact-1d'", 1),
    "scan-unknown-key": (
        MINIMAL + "model.hbar = 1.0\n", "line 4: unknown key 'model.hbar'", 4),
    "scan-empty-value": ("model.kind =\n", "line 1: model.kind: empty value", 1),
    "scan-duplicate": (
        MINIMAL + "model.mass = 2.0\n",
        "line 4: model.mass: duplicate (first given on line 2)", 4),
    "float-not-a-number": (
        "model.kind = exact-1d\nmodel.mass = heavy\n",
        "line 2: model.mass: not a number: 'heavy'", 2),
    "float-infinite": (
        "model.kind = exact-1d\nmodel.mass = inf\n",
        "line 2: model.mass: must be finite, got inf", 2),
    "float-nan": (
        "model.kind = exact-1d\nmodel.mass = nan\n",
        "line 2: model.mass: must be finite, got nan", 2),
    "vector-arity": (
        MINIMAL + "initial.x = 1.0, 2.0\n",
        "line 4: initial.x: expected 1 or 3 components, got 2", 4),
    "vector-bad-component": (
        EXACT_3D + "initial.x = 0.0, a, 1.0\n", "line 4: initial.x: not a number: 'a'", 4),
    "vector-empty-inner-component": (
        EXACT_3D + "initial.x = 1,,2,3\ninitial.p = 0, 0, 0\n",
        "line 4: initial.x: empty component in '1,,2,3'", 4),
    "vector-empty-trailing-component": (
        EXACT_3D + "initial.x = 0, 0, 0\ninitial.p = 0,0,0,\n",
        "line 5: initial.p: empty component in '0,0,0,'", 5),
    "int-not-an-integer": (
        EFFECTIVE_SQRT + "model.sqrt_sign = 1.5\n",
        "line 4: model.sqrt_sign: not an integer: '1.5'", 4),
    "missing-kind": (
        "model.mass = 1.0\nmodel.beta = 0.01\n", "missing required key model.kind", None),
    "missing-mass": (
        "model.kind = exact-1d\nmodel.beta = 0.01\n", "missing required key model.mass", None),
    "unknown-kind": (
        "model.kind = exact-2d\nmodel.mass = 1.0\nmodel.beta = 0.01\n",
        "line 1: model.kind: unknown model 'exact-2d'; expected one of effective-sqrt, "
        "exact-1d, exact-3d, first-order-1d, first-order-3d, relativistic-first-order-1d", 1),
    "unknown-potential": (
        MINIMAL + "model.potential = quartic\n",
        "line 4: model.potential: unknown kind 'quartic'", 4),
    "unknown-units": (
        MINIMAL + "units = imperial\n",
        "line 4: units: expected one of natural, SI, got 'imperial'", 4),
    "unknown-boost-law": (
        BOOST + "boost.law = euler\n",
        "line 5: boost.law: expected one of exact, first-order, ordinary, lorentz, "
        "got 'euler'", 5),
    "beta-or-gamma-missing": (
        "model.kind = exact-1d\nmodel.mass = 1.0\n",
        "one of model.beta or model.gamma is required", None),
    "negative-beta": (
        "model.kind = exact-1d\nmodel.mass = 1.0\nmodel.beta = -0.01\n",
        "line 3: model.beta: must be nonnegative, got -0.01", 3),
    "negative-gamma": (
        "model.kind = exact-1d\nmodel.mass = 1.0\nmodel.gamma = -0.1\n",
        "line 3: model.gamma: must be nonnegative, got -0.1", 3),
    "beta-gamma-conflict": (
        MINIMAL + "model.gamma = 0.2\n",
        "line 4: model.beta and model.gamma conflict: gamma^2 = 0.04000000000000001 "
        "but beta*mass^2 = 0.01", 4),
    "scope-stiffness": (
        MINIMAL + "model.stiffness = 1.0\n",
        "line 4: model.stiffness only applies to the harmonic potential", 4),
    "scope-force": (
        MINIMAL + "model.force = 1.0\n",
        "line 4: model.force only applies to the uniform-field potential", 4),
    "scope-light-speed": (
        MINIMAL + "model.light_speed = 10.0\n",
        "line 4: model.light_speed only applies to the relativistic model", 4),
    "scope-scale-velocity": (
        MINIMAL + "model.scale_velocity = 2.0\n",
        "line 4: model.scale_velocity only applies to the effective-sqrt model", 4),
    "scope-sqrt-sign": (
        MINIMAL + "model.sqrt_sign = 1\n",
        "line 4: model.sqrt_sign only applies to the effective-sqrt model", 4),
    "scope-boost-scale": (
        BOOST + "boost.law = lorentz\nboost.scale = 2.0\nboost.light_speed = 1.0\n",
        "line 6: boost.scale only applies to the Galilean boost laws", 6),
    "scope-boost-light-speed": (
        BOOST + "boost.law = first-order\nboost.light_speed = 1.0\n",
        "line 6: boost.light_speed only applies to boost.law = lorentz", 6),
    "requires-stiffness": (
        MINIMAL + "model.potential = harmonic\n",
        "model.potential = harmonic requires model.stiffness", None),
    "requires-force": (
        MINIMAL + "model.potential = uniform-field\n",
        "model.potential = uniform-field requires model.force", None),
    "requires-light-speed": (
        RELATIVISTIC,
        "model.kind = relativistic-first-order-1d requires model.light_speed", None),
    "positive-mass": (
        "model.kind = exact-1d\nmodel.mass = 0.0\nmodel.beta = 0.01\n",
        "line 2: model.mass: must be positive, got 0.0", 2),
    "positive-stiffness": (
        MINIMAL + "model.potential = harmonic\nmodel.stiffness = -1.5\n",
        "line 5: model.stiffness: must be positive, got -1.5", 5),
    "positive-light-speed": (
        RELATIVISTIC + "model.light_speed = 0.0\n",
        "line 4: model.light_speed: must be positive, got 0.0", 4),
    "positive-scale-velocity": (
        EFFECTIVE_SQRT + "model.scale_velocity = -2.0\n",
        "line 4: model.scale_velocity: must be positive, got -2.0", 4),
    "positive-t-end": (
        MINIMAL + "t_end = 0.0\n", "line 4: t_end: must be positive, got 0.0", 4),
    "positive-dt": (
        MINIMAL + "t_end = 1.0\ndt = -0.1\n", "line 5: dt: must be positive, got -0.1", 5),
    "positive-boost-scale": (
        BOOST + "boost.scale = 0.0\n", "line 5: boost.scale: must be positive, got 0.0", 5),
    "positive-boost-light-speed": (
        BOOST + "boost.law = lorentz\nboost.light_speed = -1.0\n",
        "line 6: boost.light_speed: must be positive, got -1.0", 6),
    "zero-force": (
        MINIMAL + "model.potential = uniform-field\nmodel.force = 0.0\n",
        "line 5: model.force: a zero field is the free potential", 5),
    "sqrt-sign": (
        EFFECTIVE_SQRT + "model.sqrt_sign = 0\n",
        "line 4: model.sqrt_sign: must be -1 or 1, got 0", 4),
    "arity-x": (
        EXACT_3D + "initial.x = 0.0\ninitial.p = 1.0, 0.0, 0.0\n",
        "line 4: initial.x: model exact-3d needs 3 component(s), got 1", 4),
    "arity-p": (
        MINIMAL + "initial.x = 0.0\ninitial.p = 1.0, 0.0, 0.0\n",
        "line 5: initial.p: model exact-1d needs 1 component(s), got 3", 5),
    "pair-x-only": (
        MINIMAL + "initial.x = 0.0\n", "initial.x and initial.p must be given together", None),
    "pair-p-only": (
        MINIMAL + "initial.p = 1.0\n", "initial.x and initial.p must be given together", None),
    "no-velocity-scale": (
        MINIMAL + "boost.scale = 2.0\n", "line 4: boost.scale given without boost.velocity", 4),
    "no-velocity-light-speed": (
        MINIMAL + "boost.light_speed = 1.0\n",
        "line 4: boost.light_speed given without boost.velocity", 4),
    "no-velocity-law": (
        MINIMAL + "boost.law = exact\n", "line 4: boost.law given without boost.velocity", 4),
    "overflow-gamma-squared": (
        MINIMAL + "model.gamma = 1e200\n", "line 4: model.gamma: gamma^2 overflows", 4),
    "overflow-derived-beta": (
        "model.kind = exact-1d\nmodel.mass = 1.0\nmodel.gamma = 1e200\n",
        "line 3: model.gamma: model.beta = (gamma / mass)^2 overflows", 3),
    "overflow-derived-beta-small-mass": (
        "model.kind = exact-1d\nmodel.mass = 1e-300\nmodel.gamma = 1.0\n",
        "line 3: model.gamma: model.beta = (gamma / mass)^2 overflows", 3),
    "overflow-derived-gamma": (
        "model.kind = exact-1d\nmodel.mass = 1e300\nmodel.beta = 1e300\n",
        "line 3: model.beta: model.gamma = sqrt(beta) * mass overflows", 3),
    "range-light-speed-overflow": (
        RELATIVISTIC + "model.light_speed = 1e200\n",
        "line 4: model.light_speed: m c^2 leaves the float range with model.mass = 1.0", 4),
    "range-light-speed-underflow": (
        RELATIVISTIC + "model.light_speed = 1e-300\n",
        "line 4: model.light_speed: m c^2 leaves the float range with model.mass = 1.0", 4),
    "range-light-speed-tiny-mass": (
        RELATIVISTIC.replace("model.mass = 1.0", "model.mass = 1e-300")
        + "model.light_speed = 10.0\n",
        "line 4: model.light_speed: 1 / (8 m^2 c^2) leaves the float range "
        "with model.mass = 1e-300", 4),
    "range-boost-velocity-overflow": (
        MINIMAL + "boost.velocity = 1e200\nboost.scale = 1.0\n",
        "line 4: boost.velocity: 1 + (V / u)^2 leaves the float range with u = 1.0", 4),
    "range-boost-velocity-derived-scale": (
        MINIMAL + "boost.velocity = 1e200\n",
        "line 4: boost.velocity: 1 + (V / u)^2 leaves the float range "
        "with u = 6.123724356957944", 4),
    "range-boost-derived-scale-overflow": (
        "model.kind = exact-1d\nmodel.mass = 1.0\nmodel.beta = 1e-320\nboost.velocity = 1.0\n",
        "line 3: model.beta: u^2 leaves the float range "
        "with the derived boost scale u = 6.123758444394844e+159", 3),
    "range-boost-scale-underflow": (
        BOOST + "boost.scale = 1e-300\n", "line 5: boost.scale: u^2 leaves the float range", 5),
    "range-first-order-scale-underflow": (
        BOOST + "boost.law = first-order\nboost.scale = 1e-300\n",
        "line 6: boost.scale: u^2 leaves the float range", 6),
    "range-lorentz-light-speed-overflow": (
        BOOST + "boost.law = lorentz\nboost.light_speed = 1e200\n",
        "line 6: boost.light_speed: c^2 leaves the float range", 6),
    "subnormal-mass": (
        "model.kind = exact-1d\nmodel.mass = 1e-320\nmodel.beta = 0.01\n",
        "line 2: model.mass: 1e-320 is below the smallest normal float "
        "2.2250738585072014e-308", 2),
    "range-sqrt-scale-subnormal": (
        EFFECTIVE_SQRT.replace("model.mass = 1.0", "model.mass = 1e-160")
        + "model.scale_velocity = 1.0\n",
        "line 4: model.scale_velocity: (m w)^2 = 1e-320 is below the smallest normal float "
        "with m = 1e-160, w = 1.0", 4),
    "range-sqrt-scale-zero": (
        EFFECTIVE_SQRT.replace("model.mass = 1.0", "model.mass = 1e-170")
        + "model.scale_velocity = 1.0\nmodel.sqrt_sign = 1\n",
        "line 4: model.scale_velocity: (m w)^2 = 0.0 is below the smallest normal float "
        "with m = 1e-170, w = 1.0", 4),
    "range-sqrt-derived-scale": (
        "model.kind = effective-sqrt\nmodel.mass = 1.0\nmodel.beta = 1.7e308\n",
        "line 3: model.beta: (m w)^2 = 2.205882352941175e-309 is below the smallest normal "
        "float with m = 1.0, w = 4.696682183138621e-155", 3),
}


@pytest.mark.parametrize("doc, message, line", list(SINGLE_FAULTS.values()),
                         ids=list(SINGLE_FAULTS))
def test_single_fault_message_and_line(doc, message, line):
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert str(err.value) == message
    assert err.value.line == line


class TestScan:
    def test_minimal_document(self):
        config = parse_config(MINIMAL)
        assert config.kind == "exact-1d"
        assert config.beta == 0.01
        assert config.gamma == pytest.approx(0.1, rel=1e-15)
        assert config.potential == "free"
        assert config.units == "natural"

    def test_comments_and_blanks_skipped(self):
        config = parse_config(
            "# scenario\n\nmodel.kind = exact-1d\n  # indented comment\n"
            "model.mass = 1.0\nmodel.beta = 0.01\n")
        assert config.kind == "exact-1d"

    def test_unknown_key_carries_its_line(self):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL + "model.hbar = 1.0\n")
        assert err.value.line == 4
        assert "unknown key" in str(err.value)

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(MINIMAL + "model.mass = 2.0\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config("model.kind exact-1d\n")
        assert err.value.line == 1

    def test_empty_value_rejected(self):
        with pytest.raises(ConfigError, match="empty value"):
            parse_config("model.kind =\n")

    def test_non_numeric_value_rejected(self):
        with pytest.raises(ConfigError, match="not a number"):
            parse_config("model.kind = exact-1d\nmodel.mass = heavy\n")


class TestValidation:
    def test_kind_and_mass_required(self):
        with pytest.raises(ConfigError, match="model.kind"):
            parse_config("model.mass = 1.0\n")
        with pytest.raises(ConfigError, match="model.mass"):
            parse_config("model.kind = exact-1d\n")

    def test_unknown_model_lists_the_choices(self):
        with pytest.raises(ConfigError, match="exact-3d"):
            parse_config("model.kind = exact-2d\nmodel.mass = 1.0\n"
                         "model.beta = 0.01\n")

    def test_beta_or_gamma_required(self):
        with pytest.raises(ConfigError, match="model.beta or model.gamma"):
            parse_config("model.kind = exact-1d\nmodel.mass = 1.0\n")

    def test_gamma_alone_derives_beta(self):
        config = parse_config(
            "model.kind = exact-1d\nmodel.mass = 2.0\nmodel.gamma = 0.2\n")
        assert config.beta == pytest.approx(0.01, rel=1e-15)

    def test_consistent_pair_accepted(self):
        config = parse_config(MINIMAL + "model.gamma = 0.1\n")
        assert config.beta == 0.01

    def test_conflicting_pair_rejected_with_both_values(self):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL + "model.gamma = 0.2\n")
        message = str(err.value)
        assert "gamma^2 = 0.04000000000000001" in message
        assert "beta*mass^2 = 0.01" in message

    def test_harmonic_needs_stiffness(self):
        with pytest.raises(ConfigError, match="stiffness"):
            parse_config(MINIMAL + "model.potential = harmonic\n")

    def test_stray_stiffness_rejected(self):
        with pytest.raises(ConfigError, match="only applies"):
            parse_config(MINIMAL + "model.stiffness = 1.0\n")

    def test_uniform_field_needs_nonzero_force(self):
        with pytest.raises(ConfigError, match="model.force"):
            parse_config(MINIMAL + "model.potential = uniform-field\n")
        with pytest.raises(ConfigError, match="zero field"):
            parse_config(MINIMAL + "model.potential = uniform-field\n"
                                   "model.force = 0.0\n")

    def test_light_speed_scoped_to_the_relativistic_model(self):
        with pytest.raises(ConfigError, match="model.light_speed"):
            parse_config("model.kind = relativistic-first-order-1d\n"
                         "model.mass = 1.0\nmodel.beta = 0.0001\n")
        with pytest.raises(ConfigError, match="only applies"):
            parse_config(MINIMAL + "model.light_speed = 10.0\n")

    def test_sqrt_options_scoped_to_their_model(self):
        with pytest.raises(ConfigError, match="only applies"):
            parse_config(MINIMAL + "model.sqrt_sign = 1\n")
        with pytest.raises(ConfigError, match="-1 or 1"):
            parse_config("model.kind = effective-sqrt\nmodel.mass = 1.0\n"
                         "model.beta = 0.01\nmodel.sqrt_sign = 0\n")

    def test_initial_state_arity_follows_the_model(self):
        with pytest.raises(ConfigError, match="3 component"):
            parse_config("model.kind = exact-3d\nmodel.mass = 1.0\n"
                         "model.beta = 0.01\ninitial.x = 0.0\n"
                         "initial.p = 1.0\n")
        with pytest.raises(ConfigError, match="given together"):
            parse_config(MINIMAL + "initial.x = 0.0\n")

    def test_time_grid_must_be_positive(self):
        with pytest.raises(ConfigError, match="t_end"):
            parse_config(MINIMAL + "t_end = 0.0\n")
        with pytest.raises(ConfigError, match="dt"):
            parse_config(MINIMAL + "t_end = 1.0\ndt = -0.1\n")

    def test_units_vocabulary(self):
        assert parse_config(MINIMAL + "units = SI\n").units == "SI"
        with pytest.raises(ConfigError, match="units"):
            parse_config(MINIMAL + "units = imperial\n")

    def test_boost_subkeys_need_a_velocity(self):
        with pytest.raises(ConfigError, match="without boost.velocity"):
            parse_config(MINIMAL + "boost.scale = 2.0\n")
        with pytest.raises(ConfigError, match="boost.law"):
            parse_config(MINIMAL + "boost.velocity = 1.0\nboost.law = euler\n")

    def test_boost_scale_refused_under_lorentz(self):
        doc = (MINIMAL + "boost.velocity = 0.5\nboost.law = lorentz\n"
               "boost.scale = 2.0\nboost.light_speed = 1.0\n")
        with pytest.raises(ConfigError, match="boost.scale only applies") as err:
            parse_config(doc)
        assert err.value.line == 6

    @pytest.mark.parametrize("law", ["default", "exact", "first-order", "ordinary"])
    def test_boost_light_speed_refused_under_galilean_laws(self, law):
        law_line = "" if law == "default" else f"boost.law = {law}\n"
        doc = MINIMAL + "boost.velocity = 0.5\n" + law_line + "boost.light_speed = 1.0\n"
        with pytest.raises(ConfigError, match="boost.light_speed only applies") as err:
            parse_config(doc)
        assert err.value.line == doc.count("\n")


def _readme_key_table():
    """(keys, value, applies to) per row of the README's table of config keys."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("Every key, its values and where it applies:\n\n")[1].split("\n\n")[0]
    rows = []
    for line in table.splitlines()[2:]:  # below the header and its rule
        keys, value, applies = (cell.strip() for cell in line.strip("|").split(" | "))
        rows.append((re.findall(r"`([^`]+)`", keys), value, applies))
    return rows


def test_readme_documents_every_key():
    rows = _readme_key_table()
    # every key once, in the schema's order
    assert [key for keys, _, _ in rows for key in keys] == list(config_module._KEYS)
    for keys, value, applies in rows:
        for key in keys:
            rule = config_module._KEYS[key].metadata
            assert ("> 0" in value) == rule["positive"], key
            assert bool(re.search(r"\bonly\b", applies)) == (rule["scope"] is not None), key
            assert ("which requires it" in applies) == rule["required"], key


# Documents that break two rules, the later rule on an earlier line: the first
# fault in the README's order is the one reported.
_TWO_FAULTS = {
    "required-then-scope": (
        "model.kind = exact-1d\nmodel.mass = 1.0\nmodel.beta = 0.01\n"
        "model.force = 1.0\nmodel.potential = harmonic\n",
        "model.potential = harmonic requires model.stiffness"),
    "required-then-positive": (
        "model.kind = relativistic-first-order-1d\nmodel.mass = 1.0\nmodel.beta = 0.01\n"
        "dt = 0\n",
        "model.kind = relativistic-first-order-1d requires model.light_speed"),
    "boost-velocity-then-scope": (
        "model.kind = exact-1d\nmodel.mass = 1.0\nmodel.beta = 0.01\n"
        "model.scale_velocity = 1.0\nboost.law = exact\n",
        "line 5: boost.law given without boost.velocity"),
    "scope-then-positive": (
        "model.kind = exact-1d\nmodel.mass = 1.0\nmodel.beta = 0.01\n"
        "t_end = -1.0\nmodel.sqrt_sign = 1\n",
        "line 5: model.sqrt_sign only applies to the effective-sqrt model"),
    "positive-then-zero-force": (
        "model.kind = exact-1d\nmodel.mass = 1.0\nmodel.beta = 0.01\n"
        "model.potential = uniform-field\nmodel.force = 0.0\ndt = -1.0\n",
        "line 6: dt: must be positive, got -1.0"),
    "positive-then-subnormal-mass": (
        "model.kind = exact-1d\nmodel.mass = 1e-320\nmodel.beta = 0.01\ndt = -1.0\n",
        "line 4: dt: must be positive, got -1.0"),
    "subnormal-mass-then-zero-force": (
        "model.potential = uniform-field\nmodel.force = 0.0\nmodel.kind = exact-1d\n"
        "model.mass = 1e-320\nmodel.beta = 0.01\n",
        "line 4: model.mass: 1e-320 is below the smallest normal float "
        "2.2250738585072014e-308"),
    "boost-range-then-sqrt-scale": (
        "model.kind = effective-sqrt\nmodel.mass = 1e-170\nmodel.beta = 0.01\n"
        "model.scale_velocity = 1.0\nboost.velocity = 1e200\nboost.scale = 1.0\n",
        "line 5: boost.velocity: 1 + (V / u)^2 leaves the float range with u = 1.0"),
    "sqrt-scale-then-initial-length": (
        "initial.x = 0, 0, 0\ninitial.p = 0, 0, 0\nmodel.kind = effective-sqrt\n"
        "model.mass = 1e-170\nmodel.beta = 0.01\nmodel.scale_velocity = 1.0\n",
        "line 6: model.scale_velocity: (m w)^2 = 0.0 is below the smallest normal float "
        "with m = 1e-170, w = 1.0"),
}


@pytest.mark.parametrize("doc, message", list(_TWO_FAULTS.values()), ids=list(_TWO_FAULTS))
def test_the_first_fault_in_the_readme_order_is_reported(doc, message):
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert str(err.value) == message


class TestBuilders:
    def test_hamiltonian_from_config(self):
        config = parse_config(MINIMAL + "model.potential = harmonic\n"
                                        "model.stiffness = 2.0\n")
        kind = config.build_hamiltonian()
        assert kind.model == "exact-1d"
        assert kind.potential.stiffness == 2.0

    def test_initial_state_requires_both_vectors(self):
        config = parse_config(MINIMAL)
        with pytest.raises(ConfigError):
            config.build_initial_state()
        config = parse_config(MINIMAL + "initial.x = 0.0\ninitial.p = 1.0\n")
        state = config.build_initial_state()
        assert state.p[0] == 1.0

    def test_galilean_boost_defaults_to_the_derived_scale(self):
        config = parse_config(MINIMAL + "boost.velocity = 0.5\n")
        boost = config.build_boost()
        assert isinstance(boost, GalileanBoost)
        assert boost.law == "exact"
        # alpha/gamma for the 1d algebra at gamma = 0.1
        assert boost.scale == pytest.approx((3.0 / 8.0) ** 0.5 / 0.1, rel=1e-15)

    def test_boost_scale_underivable_at_zero_gamma(self):
        config = parse_config("model.kind = exact-1d\nmodel.mass = 1.0\n"
                              "model.beta = 0.0\nboost.velocity = 0.5\n")
        with pytest.raises(ConfigError, match="boost.scale"):
            config.build_boost()

    def test_lorentz_boost_needs_its_light_speed(self):
        config = parse_config(MINIMAL + "boost.velocity = 0.5\n"
                                        "boost.law = lorentz\n")
        with pytest.raises(ConfigError, match="light_speed"):
            config.build_boost()
        config = parse_config(MINIMAL + "boost.velocity = 0.5\n"
                                        "boost.law = lorentz\n"
                                        "boost.light_speed = 1.0\n")
        assert isinstance(config.build_boost(), LorentzBoost)

    def test_no_boost_group_builds_none(self):
        assert parse_config(MINIMAL).build_boost() is None

    def test_effective_sqrt_scale_defaults_to_derived(self):
        config = parse_config("model.kind = effective-sqrt\nmodel.mass = 1.0\n"
                              "model.beta = 0.01\n")
        kind = config.build_hamiltonian()
        assert kind.scale_velocity == pytest.approx((3.0 / 8.0) ** 0.5 / 0.1,
                                                    rel=1e-15)


class TestRender:
    def test_round_trip_of_a_rich_scenario(self):
        doc = (MINIMAL + "model.potential = harmonic\nmodel.stiffness = 1.5\n"
               "initial.x = 1.0\ninitial.p = 0.0\nt_end = 2.0\ndt = 0.001\n"
               "units = SI\nboost.velocity = 0.25\nboost.scale = 6.0\n"
               "output.trajectory = out.csv\n")
        config = parse_config(doc)
        assert parse_config(render_config(config)) == config

    def test_defaults_are_omitted(self):
        rendered = render_config(parse_config(MINIMAL))
        assert "potential" not in rendered
        assert "model.kind = exact-1d" in rendered

    @given(st.floats(min_value=1e-6, max_value=10.0),
           st.floats(min_value=1e-3, max_value=100.0))
    @settings(max_examples=100)
    def test_round_trip_over_random_parameters(self, beta, mass):
        doc = (f"model.kind = first-order-1d\nmodel.mass = {mass!r}\n"
               f"model.beta = {beta!r}\n")
        config = parse_config(doc)
        assert parse_config(render_config(config)) == config


# Cells whose repr() is easy to get wrong: signed zero, subnormals, 17
# significant digits, exponent forms and whole numbers.
_AWKWARD_CELLS = (-0.0, 0.0, 5e-324, -2.225073858507203e-309, 0.30000000000000004,
                  -1.2345678901234567e-07, 1.7976931348623157e308, 1e16, 1e-5, 3.0)


def seeded_trajectory(dim, rows=2500):
    """A Trajectory of seeded values over many magnitudes, longer than one write block."""
    rng = np.random.default_rng(20 + dim)
    width = 2 * dim + 1
    cells = rng.standard_normal((rows, width)) * 10.0 ** rng.integers(-300, 300, (rows, width))
    for k, value in enumerate(_AWKWARD_CELLS):
        cells[(37 * k) % rows::len(_AWKWARD_CELLS) * 11, k % width] = value
    times = np.cumsum(rng.uniform(0.001, 0.1, rows))
    # the second time must stay above the first, -0.0, whatever the first two draws
    times -= 0.05 if rows < 2 or times[1] > 0.05 else times[0]
    times[0] = -0.0
    return Trajectory(times=times, positions=cells[:, :dim], momenta=cells[:, dim:2 * dim],
                      energies=cells[:, 2 * dim], step=0.05)


# sha256 of write_trajectory(seeded_trajectory(dim)), recorded from the
# writer that formatted one numpy scalar per cell.
PINNED_TRAJECTORY_SHA256 = {
    1: "cf2c18c78fe6abed1819d05ec16038ff69f5d04448403b3e9ae76522fbdf61f2",
    3: "371649da987193c9912cc32e959266cb3b359d49db46384fee19f5d635b15865",
}


# Rows of the tables pinned below: odd, not a whole number of write blocks,
# and long enough that a TableWriter splits a trajectory of them between
# two processes.
SPLIT_PIN_ROWS = 4999

# sha256 of each table of SPLIT_PIN_ROWS rows, recorded from the writer
# that formatted every row in one process.
PINNED_SPLIT_SHA256 = {
    "trajectory-1d": "ee9dfdd685af6bc118ae443da71beec1d32f41579b10a55207d1f1e6669f22b8",
    "trajectory-3d": "d6dbf107f54c9896aeacf5cc67932a7b27386d08ae9582c06b65c6b75aaf2f05",
    "events-3d": "6423655bb3e43219efcd84bc788f8d6d85ebf0f9fd1719d1747dac5be5e8256d",
}


class TestTrajectoryCsv:
    def _trajectory(self):
        kind = Hamiltonian.first_order_1d(
            DeformationParameters(beta=0.01, mass=1.0))
        return integrate(kind, PhaseState.of(0.0, 1.0), t_end=0.5, dt=0.1)

    def test_round_trip_is_bit_exact(self, tmp_path):
        traj = self._trajectory()
        path = tmp_path / "traj.csv"
        write_trajectory(path, traj)
        table = read_trajectory(path)
        np.testing.assert_array_equal(table.times, traj.times)
        np.testing.assert_array_equal(table.positions, traj.positions)
        np.testing.assert_array_equal(table.momenta, traj.momenta)
        np.testing.assert_array_equal(table.energies, traj.energies)

    def test_header_and_line_endings(self, tmp_path):
        path = tmp_path / "traj.csv"
        write_trajectory(path, self._trajectory())
        blob = path.read_bytes()
        assert b"\r" not in blob
        assert blob.startswith(b"t,x1,p1,energy\n")

    def test_ragged_row_rejected_with_its_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,x1,p1,energy\n0.0,1.0,2.0,3.0\n0.1,1.0\n")
        with pytest.raises(CsvFormatError) as err:
            read_trajectory(path)
        assert err.value.row == 3

    def test_non_numeric_cell_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,x1,p1,energy\n0.0,one,2.0,3.0\n")
        with pytest.raises(CsvFormatError, match="row 2"):
            read_trajectory(path)

    def test_a_malformed_cell_names_its_file(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,x1,p1,energy\n0.0,one,2.0,3.0\n")
        with pytest.raises(CsvFormatError) as err:
            read_trajectory(path)
        assert str(err.value) == f"{path}: row 2: not a number: 'one'"

    def test_a_cell_past_the_field_limit_is_rejected_with_its_row(self, tmp_path):
        # csv.reader's own error, not a ValueError, for a cell of more than 131,072 characters
        path = tmp_path / "long.csv"
        path.write_text("t,x1,p1,energy\n0.0,1.0,2.0,3.0\n0.1," + "1" * 200_000 + ",2.0,3.0\n")
        with pytest.raises(CsvFormatError) as err:
            read_trajectory(path)
        assert err.value.row == 3
        assert str(err.value).startswith(f"{path}: row 3: field larger than field limit")

    def test_unrecognized_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,pos,mom,E\n")
        with pytest.raises(CsvFormatError, match="header"):
            read_trajectory(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(CsvFormatError, match="empty"):
            read_trajectory(path)

    @pytest.mark.parametrize("dim", sorted(PINNED_TRAJECTORY_SHA256))
    def test_written_bytes_are_pinned(self, tmp_path, dim):
        path = tmp_path / "traj.csv"
        traj = seeded_trajectory(dim)
        write_trajectory(path, traj)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_TRAJECTORY_SHA256[dim]
        np.testing.assert_array_equal(read_trajectory(path).positions, traj.positions)

    @pytest.mark.parametrize("rows", [*range(2, 65), 5001, 5003])
    @pytest.mark.parametrize("dim", (1, 3))
    def test_seeded_tables_take_any_row_count(self, tmp_path, dim, rows):
        traj = seeded_trajectory(dim, rows)
        assert len(traj) == rows and traj.times[0].hex() == "-0x0.0p+0"
        path = tmp_path / "traj.csv"
        write_trajectory(path, traj)
        np.testing.assert_array_equal(read_trajectory(path).times, traj.times)



class TestEventCsv:
    def test_round_trip_1d_and_3d(self, tmp_path):
        for events in (np.array([[0.0, 1.0], [0.5, -2.0]]),
                       np.array([[0.0, 1.0, 2.0, 3.0]])):
            path = tmp_path / "events.csv"
            write_events(path, events)
            back = read_events(path)
            assert back.shape == events.shape
            np.testing.assert_array_equal(back, events)

    def test_empty_write_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_events(tmp_path / "none.csv", [])

    def test_header_only_file_rejected(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("t,x1\n")
        with pytest.raises(CsvFormatError, match="no event rows"):
            read_events(path)


# Cells whose repr() is easy to get wrong, cycled through every table below.
_WRITER_CELLS = (-0.0, 5e-324, 1e-5, 1e16, 0.1 + 0.2, 1.7976931348623157e308)


def _writer_table(rows, width, seed):
    """Seeded (rows, width) floats over many magnitudes with _WRITER_CELLS in every other cell."""
    rng = np.random.default_rng(seed)
    table = rng.standard_normal((rows, width)) * 10.0 ** rng.integers(-300, 300, (rows, width))
    table.flat[::2] = np.resize(_WRITER_CELLS, (table.size + 1) // 2)
    return table


def _write_as_integrated(path, traj):
    """Write traj from the arrays of TableWriter.trajectory, filled as `integrate` fills them."""
    with csvio.TableWriter() as writer:
        positions, momenta, energies, ready = writer.trajectory(traj.times, traj.positions.shape[1])
        positions[:], momenta[:], energies[:] = traj.positions, traj.momenta, traj.energies
        ready(len(traj))
        write_trajectory(path, traj, writer)


def _per_row_bytes(header, table):
    """What a per-row repr() writer puts out for these rows."""
    lines = [",".join(header)] + [",".join(map(repr, row)) for row in table.tolist()]
    return ("\n".join(lines) + "\n").encode("utf-8")


# 2 rows, one block minus, at and plus one row, and two blocks plus one
_WRITER_ROWS = (2, 255, 256, 257, 513)


@pytest.fixture(params=["as-set", "split-every-table"])
def split_rows(request, monkeypatch, two_cpus):
    """The row count above which a TableWriter forks: as set, or 0 so every trajectory is split.

    Split at 0, the child and this process take the blocks of every
    trajectory above, the one-row last block of 257 and 513 rows included,
    from one queue, each process whichever blocks the timing gives it.
    """
    if request.param == "split-every-table":
        monkeypatch.setattr(csvio, "_SPLIT_ROWS", 0)
    return csvio._SPLIT_ROWS


def _rows_writer_failing_in(monkeypatch, side):
    """Make csvio's row writer raise in the forked child or in this process only."""
    here = os.getpid()
    write_rows = csvio._write_rows

    def writer(*args):
        if (os.getpid() == here) == (side == "parent"):
            raise RuntimeError(f"row formatting failed in the {side}")
        return write_rows(*args)

    monkeypatch.setattr(csvio, "_write_rows", writer)


class TestWriterBytes:
    @pytest.mark.parametrize("rows", _WRITER_ROWS)
    @pytest.mark.parametrize("dim", (1, 3))
    def test_trajectory_matches_the_per_row_writer(self, tmp_path, forks, dim, rows,
                                                   split_rows):
        table = _writer_table(rows, 2 * dim + 2, seed=10 * rows + dim)
        table[:, 0] = np.arange(rows) * 0.1
        table[0, 0] = -0.0
        traj = Trajectory(times=table[:, 0], positions=table[:, 1:1 + dim],
                          momenta=table[:, 1 + dim:1 + 2 * dim], energies=table[:, -1], step=0.1)
        path = tmp_path / "traj.csv"
        write_trajectory(path, traj)
        assert path.read_bytes() == _per_row_bytes(trajectory_header(dim), table)
        assert forks == []
        _write_as_integrated(path, traj)
        assert path.read_bytes() == _per_row_bytes(trajectory_header(dim), table)
        assert len(forks) == (rows > split_rows)

    @pytest.mark.parametrize("rows", _WRITER_ROWS)
    @pytest.mark.parametrize("dim", (1, 3))
    def test_events_match_the_per_row_writer(self, tmp_path, dim, rows):
        table = _writer_table(rows, 1 + dim, seed=10 * rows + dim + 5)
        path = tmp_path / "events.csv"
        write_events(path, table)
        assert path.read_bytes() == _per_row_bytes(event_header(dim), table)

    @pytest.mark.parametrize("name", sorted(PINNED_SPLIT_SHA256))
    def test_long_tables_are_pinned(self, tmp_path, name):
        assert SPLIT_PIN_ROWS > csvio._SPLIT_ROWS
        path = tmp_path / "table.csv"
        if name == "events-3d":
            write_events(path, _writer_table(SPLIT_PIN_ROWS, 4, seed=SPLIT_PIN_ROWS))
        else:
            write_trajectory(path, seeded_trajectory(int(name[-2]), SPLIT_PIN_ROWS))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_SPLIT_SHA256[name]

    @pytest.mark.parametrize("offset", (-1, 0, 1))
    @pytest.mark.parametrize("dim", (1, 3))
    def test_tables_split_only_above_the_threshold(self, tmp_path, forks, dim, offset):
        rows = csvio._SPLIT_ROWS + offset
        table = _writer_table(rows, 2 * dim + 2, seed=rows + dim)
        table[:, 0] = np.arange(rows) * 0.1
        traj = Trajectory(times=table[:, 0], positions=table[:, 1:1 + dim],
                          momenta=table[:, 1 + dim:1 + 2 * dim], energies=table[:, -1], step=0.1)
        path = tmp_path / "traj.csv"
        _write_as_integrated(path, traj)
        assert path.read_bytes() == _per_row_bytes(trajectory_header(dim), table)
        assert len(forks) == (offset > 0)

    def test_finished_tables_fork_nothing(self, tmp_path, forks):
        events = _writer_table(SPLIT_PIN_ROWS, 4, seed=SPLIT_PIN_ROWS)
        write_events(tmp_path / "events.csv", events)
        assert (tmp_path / "events.csv").read_bytes() == _per_row_bytes(event_header(3), events)
        traj = seeded_trajectory(3, SPLIT_PIN_ROWS)
        write_trajectory(tmp_path / "traj.csv", traj)
        table = np.column_stack([traj.times, traj.positions, traj.momenta, traj.energies])
        assert (tmp_path / "traj.csv").read_bytes() == \
            _per_row_bytes(trajectory_header(3), table)
        assert forks == []

    def test_transform_forks_nothing(self, tmp_path, capsys, forks):
        events = np.random.default_rng(5000).standard_normal((5000, 4))
        write_events(tmp_path / "events.csv", events)
        (tmp_path / "run.cfg").write_text(
            EXACT_3D + "boost.velocity = 0.5\nboost.scale = 2.0\n"
            f"output.events = {tmp_path / 'out.csv'}\n")
        code = cli.main(["transform", "--config", str(tmp_path / "run.cfg"),
                         "--events", str(tmp_path / "events.csv")])
        assert (code, capsys.readouterr().err) == (0, "")
        mapped = galilean_apply(GalileanBoost(0.5, 2.0), events)
        assert (tmp_path / "out.csv").read_bytes() == _per_row_bytes(event_header(3), mapped)
        assert forks == []


class TestSplitWriterProcesses:
    """The forked writer of a long trajectory's blocks leaves nothing behind."""

    @pytest.fixture(autouse=True)
    def _temporary_directory(self, tmp_path, monkeypatch, two_cpus, descriptors_kept):
        # tempfile puts its unnamed files here, so a named one would show
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
        (tmp_path / "tmp").mkdir()
        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert list((tmp_path / "tmp").iterdir()) == []

    def test_a_long_write_reaps_its_child(self, tmp_path, forks):
        path = tmp_path / "traj.csv"
        _write_as_integrated(path, seeded_trajectory(3, SPLIT_PIN_ROWS))
        assert len(forks) == 1
        assert hashlib.sha256(path.read_bytes()).hexdigest() == \
            PINNED_SPLIT_SHA256["trajectory-3d"]

    def test_a_failing_child_s_blocks_are_written_here(self, tmp_path, monkeypatch, forks):
        # every block it takes fails there and is left out, so this process formats them all
        _rows_writer_failing_in(monkeypatch, "child")
        path = tmp_path / "traj.csv"
        _write_as_integrated(path, seeded_trajectory(1, SPLIT_PIN_ROWS))
        assert len(forks) == 1
        assert hashlib.sha256(path.read_bytes()).hexdigest() == \
            PINNED_SPLIT_SHA256["trajectory-1d"]

    def test_a_held_child_and_this_process_both_take_blocks(self, tmp_path, monkeypatch, forks):
        # The child is held on its first block until this process has formatted
        # one, and this process on its first until the child has taken one.
        here = os.getpid()
        child_blocks = tmp_path / "child-blocks"

        def wait(path):
            deadline = time.monotonic() + 60
            while not path.exists():
                assert time.monotonic() < deadline, f"no {path.name}"
                time.sleep(0.001)

        write_rows = csvio._write_rows
        formatted_here = []

        def writer(handle, line, columns, start, stop):
            block = start // csvio._BLOCK_ROWS
            if os.getpid() == here:
                wait(child_blocks)
                write_rows(handle, line, columns, start, stop)
                formatted_here.append(block)
                (tmp_path / "formatted-here").touch()
                return
            first = not child_blocks.exists()
            with open(child_blocks, "a") as handle_of_blocks:
                handle_of_blocks.write(f"{block}\n")
            if first:
                wait(tmp_path / "formatted-here")
            write_rows(handle, line, columns, start, stop)

        monkeypatch.setattr(csvio, "_write_rows", writer)
        kind = Hamiltonian.exact_1d(DeformationParameters(beta=0.01, mass=1.0))
        path = tmp_path / "traj.csv"
        with csvio.TableWriter() as table_writer:
            traj = integrate(kind, PhaseState.of(0.0, 1.0), 4.998, 0.001, table_writer.trajectory)
            write_trajectory(path, traj, table_writer)
        taken_there = [int(k) for k in child_blocks.read_text().split()]
        assert len(traj) == SPLIT_PIN_ROWS and len(forks) == 1
        assert formatted_here and taken_there
        assert sorted(formatted_here + taken_there) == list(range(20))
        table = np.column_stack([traj.times, traj.positions, traj.momenta, traj.energies])
        assert path.read_bytes() == _per_row_bytes(trajectory_header(1), table)

    def test_blocks_the_child_never_delivers_are_written_here(self, tmp_path, monkeypatch,
                                                               forks):
        # where its blocks are cannot be pickled, so it exits 1 with none delivered
        here = os.getpid()
        child_took = tmp_path / "child-took"
        write_rows, dump = csvio._write_rows, pickle.dump

        def dump_here_only(*args, **kwargs):
            if os.getpid() != here:
                raise pickle.PicklingError("the child's blocks cannot be sent")
            return dump(*args, **kwargs)

        def writer(*args):
            if os.getpid() != here:
                child_took.touch()
            else:  # held until the child takes a block
                deadline = time.monotonic() + 60
                while not child_took.exists():
                    assert time.monotonic() < deadline, "the child took no block"
                    time.sleep(0.001)
            return write_rows(*args)

        monkeypatch.setattr(pickle, "dump", dump_here_only)
        monkeypatch.setattr(csvio, "_write_rows", writer)
        path = tmp_path / "traj.csv"
        _write_as_integrated(path, seeded_trajectory(3, SPLIT_PIN_ROWS))
        assert len(forks) == 1 and child_took.exists()
        assert hashlib.sha256(path.read_bytes()).hexdigest() == \
            PINNED_SPLIT_SHA256["trajectory-3d"]

    @pytest.mark.parametrize("room", (0, 1, 7))
    def test_blocks_past_a_full_queue_are_written_here(self, tmp_path, monkeypatch, forks,
                                                       room):
        # the queue's pipe takes `room` blocks and then refuses every write
        write, queued = os.write, []

        def full_after_room(fd, data):
            data = data[:4 * (room - len(queued))]
            if not data:
                raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
            queued.extend(range(len(data) // 4))
            return write(fd, data)

        monkeypatch.setattr(os, "write", full_after_room)
        kind = Hamiltonian.exact_1d(DeformationParameters(beta=0.01, mass=1.0))
        path = tmp_path / "traj.csv"
        with csvio.TableWriter() as writer:
            traj = integrate(kind, PhaseState.of(0.0, 1.0), 4.998, 0.001, writer.trajectory)
            write_trajectory(path, traj, writer)
        assert len(queued) == room and len(forks) == 1
        table = np.column_stack([traj.times, traj.positions, traj.momenta, traj.energies])
        assert path.read_bytes() == _per_row_bytes(trajectory_header(1), table)

    @pytest.mark.parametrize("steps", (1, 255, 256, 511, 600, 1500, 3000))
    def test_overlapped_writes_match_one_process(self, tmp_path, monkeypatch, forks, steps):
        # forked at every size, so the child and this process meet at whatever
        # block the timing gives, from the first block to the last
        monkeypatch.setattr(csvio, "_SPLIT_ROWS", 0)
        kind = Hamiltonian.exact_3d(DeformationParameters(beta=0.01, mass=1.0))
        path = tmp_path / "traj.csv"
        for _ in range(3):
            with csvio.TableWriter() as writer:
                traj = integrate(kind, PhaseState.of([1.0, 0.0, 0.5], [0.5, 2.5, -1.0]),
                                 steps * 0.001, 0.001, writer.trajectory)
                write_trajectory(path, traj, writer)
            table = np.column_stack([traj.times, traj.positions, traj.momenta, traj.energies])
            assert path.read_bytes() == _per_row_bytes(trajectory_header(3), table)
        assert len(forks) == 3

    def test_a_failing_part_of_this_process_reaps_the_child(self, tmp_path, monkeypatch, forks):
        _rows_writer_failing_in(monkeypatch, "parent")
        with pytest.raises(RuntimeError, match="failed in the parent"):
            _write_as_integrated(tmp_path / "traj.csv", seeded_trajectory(3, SPLIT_PIN_ROWS))
        assert len(forks) == 1

    # the call refused, the calls of it that go through first, and its error
    @pytest.mark.parametrize("module, name, passed, error", [
        (mmap, "mmap", 0, OSError(errno.ENOMEM, "Cannot allocate memory")),
        (mmap, "mmap", 0, OverflowError("Python int too large to convert to C ssize_t")),
        (os, "fork", 0, BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")),
        (tempfile, "TemporaryFile", 0, OSError(errno.EMFILE, "Too many open files")),
        (tempfile, "TemporaryFile", 1, OSError(errno.EMFILE, "Too many open files")),
        (os, "pipe", 0, OSError(errno.EMFILE, "Too many open files")),
        (os, "pipe", 1, OSError(errno.EMFILE, "Too many open files")),
    ], ids=["ENOMEM-shared-mapping", "oversized-shared-mapping", "EAGAIN", "EMFILE-unnamed-file",
            "EMFILE-second-unnamed-file", "EMFILE-ready-pipe", "EMFILE-child-value"])
    def test_a_failed_fork_writes_every_row_here(self, tmp_path, monkeypatch, forks,
                                                 module, name, passed, error):
        calls, call = [], getattr(module, name)

        def no_fork(*args, **kwargs):
            calls.append(None)
            if len(calls) > passed:
                raise error
            return call(*args, **kwargs)

        monkeypatch.setattr(module, name, no_fork)
        path = tmp_path / "traj.csv"
        _write_as_integrated(path, seeded_trajectory(3, SPLIT_PIN_ROWS))
        assert len(calls) == passed + 1 and forks == []  # refused on the way to the fork
        assert hashlib.sha256(path.read_bytes()).hexdigest() == \
            PINNED_SPLIT_SHA256["trajectory-3d"]

    def test_one_allowed_cpu_writes_every_row_here(self, tmp_path, monkeypatch, two_cpus, forks):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        path = tmp_path / "traj.csv"
        _write_as_integrated(path, seeded_trajectory(1, SPLIT_PIN_ROWS))
        assert forks == []
        assert hashlib.sha256(path.read_bytes()).hexdigest() == \
            PINNED_SPLIT_SHA256["trajectory-1d"]
        # the same write forks once where two CPUs are allowed
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: two_cpus, raising=False)
        _write_as_integrated(path, seeded_trajectory(1, SPLIT_PIN_ROWS))
        assert len(forks) == 1

    def test_one_allowed_cpu_allocates_the_trajectory_arrays_apart(self, monkeypatch, forks):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        with csvio.TableWriter() as writer:
            *arrays, _ = writer.trajectory(np.arange(SPLIT_PIN_ROWS) * 0.1, 3)
        assert forks == []
        assert [a.shape for a in arrays] == [(SPLIT_PIN_ROWS, 3), (SPLIT_PIN_ROWS, 3),
                                             (SPLIT_PIN_ROWS,)]
        # slices of one block that do not overlap share no memory either,
        # so each array must own its data
        assert all(a.flags.owndata for a in arrays)

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity") or
                        len(os.sched_getaffinity(0)) < 2, reason="needs two allowed CPUs")
    def test_the_child_flushes_no_inherited_buffer(self, tmp_path):
        # stdout to a pipe is block-buffered: text printed before the fork and
        # still unflushed would show twice if the child flushed it on exit
        script = ("import os, sys\n"
                  "import numpy as np\n"
                  "from gupmech import csvio\n"
                  "forks, fork = [], os.fork\n"
                  "os.fork = lambda: forks.append(os.getpid()) or fork()\n"
                  "print('before')\n"
                  "with csvio.TableWriter() as writer:\n"
                  f"    x, p, energy, ready = writer.trajectory(np.arange({SPLIT_PIN_ROWS}) * 0.1, 1)\n"
                  "    x[:], p[:], energy[:] = 1.0, 2.0, 3.0\n"
                  "    writer.write(sys.argv[1], csvio.trajectory_header(1))\n"
                  "print('after', len(forks))\n")
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(Path(csvio.__file__).parents[1])
        path = tmp_path / "traj.csv"
        done = subprocess.run([sys.executable, "-c", script, str(path)],
                              capture_output=True, text=True, env=env, timeout=60)
        assert (done.returncode, done.stdout, done.stderr) == (0, "before\nafter 1\n", "")
        table = np.column_stack([np.arange(SPLIT_PIN_ROWS) * 0.1, np.ones(SPLIT_PIN_ROWS),
                                 np.full(SPLIT_PIN_ROWS, 2.0), np.full(SPLIT_PIN_ROWS, 3.0)])
        assert path.read_bytes() == _per_row_bytes(trajectory_header(1), table)
