"""Every check row's seed-42 measurement, pinned bit for bit."""

import functools
import math

import numpy as np
import pytest

from gupmech import dynamics, frames, legendre
from gupmech.checks import _rk4_order_errors, run_suite

# float.hex of each row's `measured` at seed 42, recorded while algebra
# probes were built through the validating PhaseState constructor and the
# 1D RK4 loop called its square and radius helpers on every stage, and
# dynamics.rk4-order compared dt = 8e-3, 4e-3 and 2e-3 with one shared
# reference at 2.5e-4, and the constants rows ran on 90-digit decimal.
# Rows near round-off, such as the residuals of exact identities, move
# with any reordering of arithmetic, so a change that keeps these pins
# keeps every output bit.
_PINNED_ROWS = {
    "algebra.bracket-1d-representation": "0x1.91abf17c8d19fp-37",
    "algebra.bracket-3d-representation": "0x1.0608800f6fbcap-32",
    "algebra.vanishing-brackets": "0x0.0p+0",
    "algebra.beta-zero-bound": "0x1.7b4f5bf34749ap-2",
    "algebra.beta-zero-halving": "0x1.aff398007ae00p-5",
    "algebra.antisymmetry": "0x0.0p+0",
    "algebra.leibniz": "0x1.d1a4000000000p-34",
    "algebra.monotonicity-1d": "0x0.0p+0",
    "algebra.jacobi-residual": "0x1.6c6e0ba800000p-23",
    "dynamics.model-agreement-bound": "0x1.95d434c8fbf36p-3",
    "dynamics.model-agreement-halving": "0x1.918a467a75cc0p-6",
    "dynamics.effective-sqrt-consistency": "0x1.0cb2977fce66bp-1",
    "dynamics.rhs-fd-agreement": "0x1.014e2a598e89ep-29",
    "dynamics.rk4-order": "0x1.c98208292fa00p-10",
    "dynamics.relativistic-coefficient": "0x0.0p+0",
    "legendre.inversion-roundtrip": "0x1.eeac44a7eab55p-37",
    "legendre.first-order-gap-bound": "0x1.077034855d749p-1",
    "legendre.first-order-gap-halving": "0x1.4c00dad258644p-3",
    "legendre.sign-structure": "0x0.0p+0",
    "legendre.action-additivity": "0x1.0000000000000p-54",
    "legendre.action-interval-link": "0x1.cba4ded7d1d11p-50",
    "frames.interval-invariance": "0x1.05012fbca9ffbp-50",
    "frames.first-order-convergence": "0x1.85367363289c0p-5",
    "frames.group-structure": "0x1.cb5a47aff370ap-52",
    "frames.lorentz-invariance": "0x1.cd2a6413538c0p-48",
    "frames.no-speed-limit": "0x1.0000000000000p-52",
    "frames.covariance-exact": "0x1.348152b7df787p-46",
    "frames.covariance-control": "0x1.600f4b93064c6p-11",
    "constants.published-magnitudes": "0x1.6271eed1c3470p-3",
    "constants.mass-independence": "0x0.0p+0",
    "constants.extended-consistency": "0x0.0p+0",
    "constants.superluminal-shift": "0x0.0p+0",
    "constants.closed-vs-exact": "0x1.dadd8c9c7b329p-57",
}


@functools.lru_cache(maxsize=None)
def _measured():
    return {row.name: row.measured for row in run_suite("all", seed=42)}


def test_every_row_is_pinned():
    assert sorted(_measured()) == sorted(_PINNED_ROWS)


@pytest.mark.parametrize("name", sorted(_PINNED_ROWS))
def test_seed_42_measurement_is_pinned(name):
    assert _measured()[name].hex() == _PINNED_ROWS[name]


def test_rk4_order_measures_truncation_not_round_off():
    errors = _rk4_order_errors()
    assert all(error > 1e-13 for error in errors)
    for coarse, fine in zip(errors, errors[1:]):
        assert coarse / fine == pytest.approx(16.0, abs=0.5)


def test_suite_step_count(monkeypatch):
    # A cost guard without timing: rk4-order takes 4,875 RK4 steps (125 +
    # 250 + 500 and a 4,000-step reference), the other rows 4,000.
    steps = []
    integrate = dynamics.integrate

    def counted(*args, **kwargs):
        trajectory = integrate(*args, **kwargs)
        steps.append(len(trajectory) - 1)
        return trajectory

    for module in (dynamics, frames):
        monkeypatch.setattr(module, "integrate", counted)
    run_suite("all")
    assert sum(steps) == 8875


def _nan_on_call(function, call):
    """function, except that its call-th call returns NaN in every value."""
    calls = []

    def poisoned(*args, **kwargs):
        calls.append(None)
        result = function(*args, **kwargs)
        return np.multiply(result, math.nan) if len(calls) == call else result

    return poisoned


@pytest.mark.parametrize("module, function, suite, row", [
    (dynamics, "hamilton_rhs_fd", "dynamics", "dynamics.rhs-fd-agreement"),
    (legendre, "momentum_from_velocity_exact", "legendre", "legendre.inversion-roundtrip"),
], ids=["rhs-fd-agreement", "inversion-roundtrip"])
def test_a_nan_sample_fails_its_row(monkeypatch, module, function, suite, row):
    monkeypatch.setattr(module, function, _nan_on_call(getattr(module, function), 50))
    result = {r.name: r for r in run_suite(suite)}[row]
    assert math.isnan(result.measured) and not result.passed
