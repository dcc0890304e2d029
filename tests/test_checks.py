"""Check rows whose measurements run through shared library code, pinned bit for bit."""

import functools

import pytest

from gupmech.checks import run_suite

# float.hex of each row's `measured` at seed 42, recorded while dynamics
# kept its own central-difference loop, the bracket checks wrote out
# their closed forms and each constants function repeated its preamble.
_PINNED_ROWS = {
    "algebra.bracket-1d-representation": "0x1.91abf17c8d19fp-37",
    "algebra.bracket-3d-representation": "0x1.0608800f6fbcap-32",
    "dynamics.rhs-fd-agreement": "0x1.014e2a598e89ep-29",
    "legendre.first-order-gap-bound": "0x1.077034855d749p-1",
    "legendre.first-order-gap-halving": "0x1.4c00dad258644p-3",
    "constants.published-magnitudes": "0x1.6271eed1c3470p-3",
    "constants.mass-independence": "0x0.0p+0",
    "constants.extended-consistency": "0x1.0000000000000p-301",
    "constants.superluminal-shift": "0x0.0p+0",
    "constants.closed-vs-exact": "0x1.dadd8c9c7b329p-57",
}


@functools.lru_cache(maxsize=None)
def _measured(suite):
    return {row.name: row.measured for row in run_suite(suite, seed=42)}


@pytest.mark.parametrize("name", sorted(_PINNED_ROWS))
def test_seed_42_measurement_is_pinned(name):
    assert _measured(name.split(".")[0])[name].hex() == _PINNED_ROWS[name]
