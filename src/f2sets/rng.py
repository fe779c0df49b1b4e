"""Seeded 64-bit generator used by every randomized routine in the package.

xorshift64* with the shift triple (12, 25, 27) and the multiplier
0x2545F4914F6CDD1D. Fixed here so that identical seeds reproduce identical
searches on every platform and Python version.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1
_MULT = 0x2545F4914F6CDD1D


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
        for i in range(len(items) - 1, 0, -1):
            j = self.randrange(i + 1)
            items[i], items[j] = items[j], items[i]

    def sample_bits(self, n: int, density: float) -> int:
        """Random n-bit integer where each bit is set with the given probability."""
        bits = 0
        for i in range(n):
            if self.random() < density:
                bits |= 1 << i
        return bits
