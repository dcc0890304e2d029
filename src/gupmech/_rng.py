"""The check rows' random stream: numpy's `default_rng(key)` bits on Python ints, without
`numpy.random` and the OpenSSL-backed entropy it loads, which no keyed row uses.  The key
is hashed as numpy's `SeedSequence` hashes it, into the seed of PCG64, a 128-bit LCG with
XSL-RR output (O'Neill 2014, HMC-CS-2014-0905)."""

import operator

_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hasher(const, mult):
    """SeedSequence's hash of a 32-bit word; each call moves const on by mult."""
    def hashed(value):
        nonlocal const
        value ^= const
        const = const * mult & _M32
        value = value * const & _M32
        return value ^ value >> 16
    return hashed


def _seed_state(key):
    """SeedSequence(key).generate_state(4, uint64): the seed numpy gives PCG64."""
    words = []
    for n in key:
        try:
            n = operator.index(n)
        except TypeError:  # numpy's message; it also parsed decimal strings, which this refuses
            raise TypeError("seed must be integer") from None
        if n < 0:
            raise ValueError("expected non-negative integer")
        words.append(n & _M32)
        while n > _M32:
            n >>= 32
            words.append(n & _M32)
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)

    def mix(x, y):
        value = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return value ^ value >> 16

    pool = [hashmix(word) for word in (words + [0] * 4)[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        pool = [mix(value, hashmix(word)) for value in pool]
    drawn = list(map(_hasher(0x8B51F9DD, 0x58F38DED), pool + pool))
    return [drawn[k] | drawn[k + 1] << 32 for k in range(0, 8, 2)]


class Generator:
    """numpy's `default_rng(key)` for a sequence of non-negative ints, with its
    `random(n)` and its `integers(low, high, size)` on spans of 2 to 2**32."""

    def __init__(self, key):
        high, low, seq_high, seq_low = _seed_state(key)
        # pcg_setseq_128_srandom_r: step from 0, add the initial state, step again
        self._inc = (seq_high << 65 | seq_low << 1 | 1) & _M128
        self._state = ((self._inc + (high << 64 | low)) * _PCG_MULT + self._inc) & _M128
        self._half = None  # the high half of a 64-bit output, kept for the next 32-bit draw

    def _outputs(self, n):
        """The next n 64-bit outputs: one LCG step each, then XSL-RR of the new state."""
        state, inc, out = self._state, self._inc, []
        for _ in range(n):
            state = (state * _PCG_MULT + inc) & _M128
            x, rot = (state >> 64 ^ state) & _M64, state >> 122
            out.append((x >> rot | x << 64 - rot) & _M64)
        self._state = state
        return out

    def random(self, n):
        """n doubles in [0, 1), each the top 53 bits of one 64-bit output."""
        return [(value >> 11) * 2.0 ** -53 for value in self._outputs(n)]

    def _next32(self):
        """The low half of a fresh 64-bit output, or the high half the last call kept."""
        if self._half is None:
            [value] = self._outputs(1)
            self._half = value >> 32
            return value & _M32
        half, self._half = self._half, None
        return half

    def integers(self, low, high, size):
        """size ints in [low, high) by numpy's buffered 32-bit Lemire path."""
        span = high - low
        if not 2 <= span <= 1 << 32:  # numpy draws none for 1, and 64-bit words past 2**32
            raise ValueError(f"integers: span {span} is outside 2..2**32, "
                             "the spans of the 32-bit Lemire path")
        threshold, out = ((1 << 32) - span) % span, []
        for _ in range(size):
            m = self._next32() * span
            while m & _M32 < threshold:  # a rejection keeps every value equally likely
                m = self._next32() * span
            out.append(low + (m >> 32))
        return out
