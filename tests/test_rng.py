"""The check rows' generator against numpy's `default_rng`, its reference: the seeding of
every drawing row's key, both draws and the half word kept between them, Lemire's
rejection branch, and the seeds and spans it refuses."""

import inspect
import zlib

import numpy as np
import pytest

from gupmech._rng import Generator
from gupmech.checks import _SUITES, run_suite

_DRAWING_ROWS = [name for block in _SUITES.values() for name, fn in block
                 if inspect.signature(fn).parameters]

# 2**40 + 7 takes two entropy words, 2**70 three, and 2**100 four, which with
# the name's word leaves one past the pool for SeedSequence's last mixing loop
_SEEDS = list(range(20)) + [2 ** 40 + 7, 2 ** 70, 2 ** 100]


def _numpy_state(rng):
    """PCG64's (state, inc) and its kept half word, None when it keeps none."""
    state = rng.bit_generator.state
    return (state["state"]["state"], state["state"]["inc"],
            state["uinteger"] if state["has_uint32"] else None)


def _state(gen):
    return gen._state, gen._inc, gen._half


@pytest.mark.parametrize("seed", _SEEDS)
def test_each_drawing_rows_key_seeds_numpys_state(seed):
    for name in _DRAWING_ROWS:
        key = [seed, zlib.crc32(name.encode())]
        gen, rng = Generator(key), np.random.default_rng(key)
        assert _state(gen) == _numpy_state(rng), name
        assert [c.hex() for c in gen.random(3)] == [c.hex() for c in rng.random(3).tolist()]


def test_numpy_integer_and_bool_seeds_take_their_value():
    for key in ([np.uint32(7), np.int64(3)], [True, 0], [0], [2 ** 32], []):
        assert _state(Generator(key)) == _numpy_state(np.random.default_rng(key)), key


@pytest.mark.parametrize("seed", (0, 42, 2 ** 70))
def test_random_and_integers_interleaved_give_numpys_values(seed):
    gen, rng = Generator([seed, 5]), np.random.default_rng([seed, 5])
    # 3 and 1 integers leave a half word kept, which the next integers call takes
    # first and a random call in between leaves in place
    for n, size in ((0, 4), (1, 3), (7, 4), (700, 1), (1, 4), (7, 3), (0, 1), (700, 4)):
        assert [c.hex() for c in gen.random(n)] == [c.hex() for c in rng.random(n).tolist()]
        assert _state(gen) == _numpy_state(rng)
        assert gen.integers(1, 4, size=size) == rng.integers(1, 4, size=size).tolist()
        assert _state(gen) == _numpy_state(rng)


@pytest.mark.parametrize("low, high", [(0, 2), (-5, 2), (10, 1010), (0, 2 ** 31 + 1),
                                       (-3, 2 ** 32 - 3)])
def test_integers_on_every_span_of_the_32_bit_path(low, high):
    gen, rng = Generator([9]), np.random.default_rng(9)
    for size in (1, 4, 5):
        assert gen.integers(low, high, size=size) == rng.integers(low, high, size=size).tolist()
    assert _state(gen) == _numpy_state(rng)


@pytest.mark.parametrize("span, rejected", [
    (3, 0),  # threshold (2**32 - 3) % 3 = 1: only a word of 0 is refused
    (7, pow(7, -1, 2 ** 32)),  # threshold 4, and this word leaves 1 in the low half
])
def test_lemire_draws_again_below_the_threshold(span, rejected):
    gen, words = Generator([0]), iter([rejected, 2 ** 31, 2 ** 32 - 1])
    gen._next32 = words.__next__
    assert gen.integers(10, 10 + span, size=1) == [10 + (2 ** 31 * span >> 32)]
    assert gen.integers(10, 10 + span, size=1) == [10 + ((2 ** 32 - 1) * span >> 32)]
    assert next(words, None) is None


@pytest.mark.parametrize("span", (-1, 0, 1, 2 ** 32 + 1, 2 ** 64))
def test_integers_refuses_a_span_outside_the_32_bit_path(span):
    gen = Generator([0])
    with pytest.raises(ValueError, match=rf"^integers: span {span} is outside 2\.\.2\*\*32"):
        gen.integers(5, 5 + span, size=1)
    assert _state(gen) == _state(Generator([0]))


@pytest.mark.parametrize("seed, error", [(-1, ValueError), (-2 ** 70, ValueError),
                                         (1.5, TypeError), (np.float64(2.0), TypeError)])
def test_a_seed_numpy_refuses_is_refused_with_its_error(seed, error):
    with pytest.raises(error) as numpy_refusal:
        np.random.default_rng([seed, 5])
    with pytest.raises(error, match=f"^{numpy_refusal.value}$"):
        Generator([seed, 5])
    with pytest.raises(error, match=f"^{numpy_refusal.value}$"):
        run_suite("algebra", seed=seed)


@pytest.mark.parametrize("seed", ("7", None, [7]))
def test_a_seed_that_is_no_integer_is_refused(seed):
    with pytest.raises(TypeError, match="^seed must be integer$"):
        Generator([seed, 5])
