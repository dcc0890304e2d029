"""Refusals of library inputs that no other test reaches, each by its whole message."""

import math
import re

import numpy as np
import pytest

from gupmech.algebra import (DeformationParameters, bracket_xp_3d, coordinate_function,
                             momentum_function_3d)
from gupmech.checks import run_suite
from gupmech.csvio import write_events
from gupmech.dynamics import Hamiltonian
from gupmech.frames import GalileanBoost, LorentzBoost
from gupmech.legendre import PathSample, momentum_from_velocity_exact

_PARAMS = DeformationParameters(beta=0.01, mass=1.0)
_TIMES = np.linspace(0.0, 1.0, 4)

# (id, call on a scratch path, exception, message)
_REFUSALS = [
    ("beta-nan", lambda path: DeformationParameters(math.nan, 1.0),
     ValueError, "beta must be a finite number"),
    ("mass-inf", lambda path: DeformationParameters(0.01, math.inf),
     ValueError, "mass must be a finite number"),
    ("gamma-negative", lambda path: DeformationParameters.from_gamma(-1.0, 1.0),
     ValueError, "gamma must be nonnegative, got -1.0"),
    ("gamma-mass-zero", lambda path: DeformationParameters.from_gamma(1.0, 0.0),
     ValueError, "mass must be positive, got 0.0"),
    ("gamma-mass-negative", lambda path: DeformationParameters.from_gamma(1.0, -1.0),
     ValueError, "mass must be positive, got -1.0"),
    # the inversion raised a bare ZeroDivisionError from 1 / (m (1 - beta |p|^2)^2)
    ("mass-subnormal", lambda path: momentum_from_velocity_exact(
        [0.0, 1e-3, 0.0], Hamiltonian("exact-3d", DeformationParameters(1e-300, 1e-320))),
     ValueError, "mass 1e-320 is below the smallest normal float 2.2250738585072014e-308"),
    ("gamma-mass-subnormal", lambda path: DeformationParameters.from_gamma(0.0, 5e-324),
     ValueError, "mass 5e-324 is below the smallest normal float 2.2250738585072014e-308"),
    ("bracket-3d-two", lambda path: bracket_xp_3d([1.0, 2.0], 1, 2, _PARAMS),
     ValueError, "P must have 3 components, got 2"),
    ("bracket-3d-four", lambda path: bracket_xp_3d([1.0, 2.0, 3.0, 4.0], 1, 2, _PARAMS),
     ValueError, "P must have 3 components, got 4"),
    ("coordinate-axis-0", lambda path: coordinate_function(0),
     IndexError, "axis numbers must lie in 1..3, got 0"),
    ("momentum-axis-4", lambda path: momentum_function_3d(_PARAMS, 4),
     IndexError, "axis numbers must lie in 1..3, got 4"),
    ("galilean-velocity-inf", lambda path: GalileanBoost(math.inf, 2.0),
     ValueError, "boost velocity must be finite"),
    ("lorentz-light-speed-0", lambda path: LorentzBoost(0.5, 0.0),
     ValueError, "light_speed must be positive, got 0.0"),
    ("lorentz-velocity-inf", lambda path: LorentzBoost(-math.inf, 2.0),
     ValueError, "boost velocity must be finite"),
    ("path-velocities-shape", lambda path: PathSample(_TIMES, _TIMES, np.zeros((4, 3))),
     ValueError, "velocities must match positions in shape"),
    ("events-three-columns", lambda path: write_events(path, np.zeros((2, 3))),
     ValueError, "events must be an (n, 2) or (n, 4) array, got (2, 3)"),
    ("suite-unknown", lambda path: run_suite("nope"),
     ValueError, "unknown suite 'nope'; expected one of "
                 "('algebra', 'dynamics', 'legendre', 'frames', 'constants', 'all')"),
]


@pytest.mark.parametrize("call, error, message", [case[1:] for case in _REFUSALS],
                         ids=[case[0] for case in _REFUSALS])
def test_each_refusal_says_what_it_refused(tmp_path, call, error, message):
    path = tmp_path / "events.csv"
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(path)
    assert not path.exists()
