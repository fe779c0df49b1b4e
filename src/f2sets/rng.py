"""Seeded 64-bit generator used by every randomized routine in the package.

xorshift64* with the shift triple (12, 25, 27) and the multiplier
0x2545F4914F6CDD1D. Fixed here so that identical seeds reproduce identical
searches on every platform and Python version.

Block draws. The three shift-XOR steps are linear over GF(2) in the 64-bit
state, so the state k steps after s is the XOR of the states k steps after
e_b over the set bits b of s. `shuffle` and `sample_bits` take up to
`_BLOCK` states at once from one cached table of those columns, multiply by
the constant in uint64 arithmetic (which wraps mod 2^64, as the scalar
`& _MASK` does) and reduce the outputs as a vector. They return exactly what
the scalar draws return and leave the same final state. `sample_bits`
converts each output to float64 and divides by 2^64: one rounding, the one
Python's int division makes, then an exact power-of-two scaling. A `shuffle`
draw that `randrange` would reject is taken by `randrange` itself, from the
state before it. `generators.random_subset` reads its draws from `_states`
too: randrange(2^r) never rejects, so each draw is the low r bits of one
output, and it sets the state to that of the last draw it uses.
"""

from __future__ import annotations

import numpy as np

from .core import _mask_to_bits

_MASK = (1 << 64) - 1
_MULT = 0x2545F4914F6CDD1D
_BLOCK = 4096  # states per block: caps the cached table at 2 MB

# Row b, column k: the state k + 1 steps after the state e_b (only bit b
# set). Grown to the longest block drawn so far; every version holds the same
# columns, so generators (and threads) can share it.
_columns = np.zeros((64, 0), dtype=np.uint64)


def _state_columns(k: int) -> np.ndarray:
    """The first k columns of the table, growing it if needed."""
    global _columns
    table = _columns
    have = table.shape[1]
    if have < k:
        grown = np.empty((64, k), dtype=np.uint64)
        grown[:, :have] = table
        x = table[:, -1] if have else np.uint64(1) << np.arange(64, dtype=np.uint64)
        for i in range(have, k):
            x = x ^ (x >> np.uint64(12))
            x = x ^ (x << np.uint64(25))
            x = x ^ (x >> np.uint64(27))
            grown[:, i] = x
        _columns = table = grown
    return table[:, :k]


class Xorshift64:
    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = (seed & _MASK) or 0x9E3779B97F4A7C15

    def next_u64(self) -> int:
        x = self.state
        x ^= x >> 12
        x = (x ^ (x << 25)) & _MASK
        x ^= x >> 27
        self.state = x
        return (x * _MULT) & _MASK

    def _states(self, k: int) -> np.ndarray:
        """The next k <= `_BLOCK` states as uint64, without advancing."""
        set_bits = [b for b in range(64) if (self.state >> b) & 1]
        return np.bitwise_xor.reduce(_state_columns(k)[set_bits], axis=0)

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection on the top 64-bit range."""
        if n <= 0:
            raise ValueError("randrange needs n >= 1")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            x = self.next_u64()
            if x < limit:
                return x % n

    def random(self) -> float:
        return self.next_u64() / (1 << 64)

    def shuffle(self, items: list) -> None:
        """Fisher-Yates from the top: position i swaps with randrange(i + 1)."""
        i = len(items) - 1
        while i >= 1:
            k = min(i, _BLOCK)
            states = self._states(k)
            x = states * np.uint64(_MULT)
            n = np.arange(i + 1, i + 1 - k, -1, dtype=np.uint64)
            rem = (np.uint64(0) - n) % n  # 2^64 mod n
            # randrange rejects x >= 2^64 - rem, a range that is empty when rem = 0.
            rejected = np.flatnonzero((rem != 0) & (x >= np.uint64(0) - rem))
            stop = int(rejected[0]) if len(rejected) else k
            for j in (x[:stop] % n[:stop]).tolist():
                items[i], items[j] = items[j], items[i]
                i -= 1
            if stop:
                self.state = int(states[stop - 1])
            if stop < k:
                j = self.randrange(i + 1)
                items[i], items[j] = items[j], items[i]
                i -= 1

    def sample_bits(self, n: int, density: float) -> int:
        """Random n-bit integer where each bit is set with the given probability:
        bit i is set when the i-th draw of `random` is below `density`."""
        bits = 0
        for start in range(0, n, _BLOCK):
            states = self._states(min(_BLOCK, n - start))
            self.state = int(states[-1])
            hits = (states * np.uint64(_MULT)).astype(np.float64) / float(1 << 64) < density
            bits |= _mask_to_bits(hits) << start
        return bits
