import pytest

from f2sets.rng import _BLOCK, _MASK, _MULT, Xorshift64


def scalar_shuffle(rng, items):
    """The one-draw-at-a-time Fisher-Yates loop the block shuffle must match."""
    for i in range(len(items) - 1, 0, -1):
        j = rng.randrange(i + 1)
        items[i], items[j] = items[j], items[i]


def scalar_sample_bits(rng, n, density):
    bits = 0
    for i in range(n):
        if rng.random() < density:
            bits |= 1 << i
    return bits


def unshift_right(y, s):
    x = y
    for _ in range(64 // s + 1):
        x = y ^ (x >> s)
    return x


def unshift_left(y, s):
    x = y
    for _ in range(64 // s + 1):
        x = y ^ ((x << s) & _MASK)
    return x


def step_back(x):
    """The state whose successor under xorshift64 is x."""
    return unshift_right(unshift_left(unshift_right(x, 27), 25), 12)


LENGTHS = [*range(0, 601), _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 5]


@pytest.mark.parametrize("seed", [1, 7, 2026, (1 << 63) + 12345, _MASK])
def test_block_draws_match_the_scalar_loops(seed):
    got, want = Xorshift64(seed), Xorshift64(seed)
    for n in LENGTHS:
        a, b = list(range(n)), list(range(n))
        got.shuffle(a)
        scalar_shuffle(want, b)
        assert a == b and got.state == want.state, n
        density = (n % 11) / 10
        assert got.sample_bits(n, density) == scalar_sample_bits(want, n, density), n
        assert got.state == want.state, n


def test_step_back_inverts_the_generator():
    rng = Xorshift64(99)
    for _ in range(50):
        before = rng.state
        rng.next_u64()
        assert step_back(rng.state) == before


@pytest.mark.parametrize("length, at", [(601, 0), (601, 7), (601, 598), (_BLOCK + 9, _BLOCK + 2)])
def test_rejected_draw_takes_the_scalar_path(length, at):
    # A state whose output is 2^64 - 1, which randrange(n) rejects for every n
    # that is not a power of two; place it at draw `at` of the shuffle.
    target = (_MASK * pow(_MULT, -1, 1 << 64)) & _MASK
    start = target
    for _ in range(at + 1):
        start = step_back(start)
    probe = Xorshift64(1)
    probe.state = start
    assert [probe.next_u64() for _ in range(at + 1)][-1] == _MASK
    n = length - at
    assert (1 << 64) % n  # n is no power of two, so randrange(n) rejects 2^64 - 1

    got, want = Xorshift64(1), Xorshift64(1)
    got.state = want.state = start
    a, b = list(range(length)), list(range(length))
    got.shuffle(a)
    scalar_shuffle(want, b)
    assert a == b and got.state == want.state
