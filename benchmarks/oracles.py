"""Reference computations for the benchmark's output checks.

Nothing here imports f2sets. Sets are plain Python collections of integers,
bitmask integers or numpy index arrays; every function recomputes its answer
from the definitions, so a check never compares the program with itself.

Run `python3 benchmarks/oracles.py` to regenerate the one recorded value the
checks use (the number of rank-5 saturating sets of size 9 that contain the
standard basis).
"""

from __future__ import annotations

import itertools
from collections import Counter

import numpy as np

# -- small ranks, plain Python


def sumset_bits(elems) -> int:
    """2A as a bitmask: every a ^ b with a, b in A (0 included when A is non-empty)."""
    out = 0
    for a in elems:
        for b in elems:
            out |= 1 << (a ^ b)
    return out


def covers(elems, r: int) -> bool:
    """A together with 2A is the whole group."""
    bits = sumset_bits(elems)
    for a in elems:
        bits |= 1 << a
    return bits == (1 << (1 << r)) - 1


def is_minimal_saturating(elems, r: int) -> bool:
    elems = list(elems)
    if not elems or 0 in elems or not covers(elems, r):
        return False
    return not any(covers(elems[:i] + elems[i + 1:], r) for i in range(len(elems)))


def is_sum_free(elems) -> bool:
    s = set(elems)
    return not any((a ^ b) in s for a in s for b in s)


def is_complete_cap(elems, r: int) -> bool:
    """Maximal sum-free: sum-free and no nonzero element can be adjoined."""
    return 0 not in elems and is_sum_free(elems) and covers(list(elems), r)


def is_shifted_cap(elems, r: int) -> bool:
    """A is a complete cap S, or {s} ∪ (s + (S \\ {s})) for a complete cap S and s in S.

    The second form gives S back as {s} ∪ (s + (A \\ {s})) for the same s.
    """
    elems = list(elems)
    if is_complete_cap(elems, r):
        return True
    for s in elems:
        S = [s] + [s ^ a for a in elems if a != s]
        if is_complete_cap(S, r):
            return True
    return False


def unordered_counts(elems) -> Counter:
    """Unordered representations of each element of 2S; 0 counts the |S| pairs (a, a)."""
    elems = sorted(elems)
    counts = Counter({0: len(elems)} if elems else {})
    for i, a in enumerate(elems):
        for b in elems[i + 1:]:
            counts[a ^ b] += 1
    return counts


def rank4_scan() -> tuple[Counter, int]:
    """Plain scan of all 2^15 sets of nonzero elements of the rank-4 group.

    Returns the size spectrum of the minimal saturating sets and the sum of
    |S| + 1 over the maximal sum-free sets. Bit e - 1 of a mask stands for
    element e; 2A and A ∪ 2A are built up one element at a time.
    """
    full = (1 << 16) - 1
    total = 1 << 15
    two = [0] * total  # 2A as a 16-bit mask
    for mask in range(1, total):
        x = mask.bit_length()  # the largest element
        rest = mask ^ (1 << (x - 1))
        t = two[rest] | 1
        m = rest
        while m:
            low = m & -m
            t |= 1 << (low.bit_length() ^ x)
            m ^= low
        two[mask] = t
    cover = [two[m] | (m << 1) for m in range(total)]
    spectrum: Counter = Counter()
    converse = 0
    for mask in range(1, total):
        if cover[mask] != full:
            continue
        size = mask.bit_count()
        if not (two[mask] & (mask << 1)):
            converse += size + 1  # maximal sum-free
        m = mask
        minimal = True
        while m:
            low = m & -m
            if cover[mask ^ low] == full:
                minimal = False
                break
            m ^= low
        if minimal:
            spectrum[size] += 1
    return spectrum, converse


def basis_saturating_counts(r: int, max_extra: int) -> Counter:
    """Saturating sets of size r + k (k <= max_extra) containing the standard basis.

    A saturating set spans the group, so some linear image of it contains the
    standard basis: the smallest saturating size is the smallest size found here.
    """
    basis = [1 << i for i in range(r)]
    others = [x for x in range(1, 1 << r) if x & (x - 1)]
    out: Counter = Counter()
    for k in range(max_extra + 1):
        for extra in itertools.combinations(others, k):
            if covers(basis + list(extra), r):
                out[r + k] += 1
    return out


# Saturating sets of size 9 at rank 5 that contain the standard basis, as
# counted by basis_saturating_counts(5, 4); `python3 benchmarks/oracles.py`
# prints the count again.
RANK5_SIZE9_SATURATING_WITH_BASIS = 80


# -- larger ranks, numpy index arrays (int64 element lists)


def bits_indices(bits: int) -> np.ndarray:
    """Positions of the set bits of a non-negative integer, ascending."""
    raw = np.frombuffer(bits.to_bytes(max(1, (bits.bit_length() + 7) // 8), "little"),
                        dtype=np.uint8)
    return np.flatnonzero(np.unpackbits(raw, bitorder="little"))


def indicator(idx: np.ndarray, n: int) -> np.ndarray:
    ind = np.zeros(n, dtype=bool)
    ind[idx] = True
    return ind


def pair_support(bidx: np.ndarray, cidx: np.ndarray, n: int) -> np.ndarray:
    """Sorted elements b ^ c, built by translating C by each b in turn.

    Stops early once every element is covered, so dense operands cost little.
    """
    if len(bidx) > len(cidx):
        bidx, cidx = cidx, bidx
    hit = np.zeros(n, dtype=bool)
    for i, b in enumerate(bidx):
        hit[cidx ^ b] = True
        if i % 64 == 63 and hit.all():
            break
    return np.flatnonzero(hit)


def pair_counts(bidx: np.ndarray, cidx: np.ndarray, n: int) -> np.ndarray:
    """Ordered counts N(d) = #{(b, c) : b ^ c = d}, one translate of C per b."""
    if len(bidx) > len(cidx):
        bidx, cidx = cidx, bidx
    counts = np.zeros(n, dtype=np.int64)
    for b in bidx:
        counts[cidx ^ b] += 1  # x -> x ^ b is a bijection: no repeated index
    return counts


def self_count(ind: np.ndarray, d: int) -> int:
    """N(d) for A with indicator a: the sum over i of a[i] * a[i ^ d]."""
    n = len(ind)
    return int(np.count_nonzero(ind & ind[np.arange(n) ^ d]))


def fixes(ind: np.ndarray, idx: np.ndarray, g: int) -> bool:
    """A + g = A."""
    return bool(ind[idx ^ g].all())


def is_round(idx: np.ndarray, n: int) -> bool:
    """Removing any one element shrinks 2A, each 2(A \\ {a}) rebuilt from scratch."""
    if len(idx) <= 1:
        return True
    full = len(pair_support(idx, idx, n))
    for k in range(len(idx)):
        rest = np.delete(idx, k)
        if len(pair_support(rest, rest, n)) == full:
            return False
    return True


def unique_sums(idx: np.ndarray) -> list[int]:
    """Elements with exactly one unordered representation (a, b), a <= b."""
    counts = unordered_counts(int(x) for x in idx)
    return sorted(d for d, c in counts.items() if c == 1)


# Lovász: the rank of the Tutte matrix with random values in a field is twice
# the matching number, except with probability at most n/p per draw. A random
# draw can only lose rank, so the largest of a few draws is taken.
_PRIME = 2147483647


def _rank_mod_p(mat: np.ndarray) -> int:
    m = mat.copy()
    rows, cols = m.shape
    rank = 0
    for c in range(cols):
        pivot = next((i for i in range(rank, rows) if m[i, c]), None)
        if pivot is None:
            continue
        m[[rank, pivot]] = m[[pivot, rank]]
        inv = pow(int(m[rank, c]), _PRIME - 2, _PRIME)
        m[rank] = (m[rank] * inv) % _PRIME
        below = np.flatnonzero(m[rank + 1:, c]) + rank + 1
        if len(below):
            factors = m[below, c].reshape(-1, 1)
            m[below] = (m[below] - (factors * m[rank]) % _PRIME) % _PRIME
        rank += 1
    return rank


def matching_number(n: int, edges: list[tuple[int, int]], rng: np.random.Generator,
                    draws: int = 3) -> int:
    """Maximum matching size of a graph on vertices 0..n-1, via the Tutte matrix."""
    if not edges:
        return 0
    best = 0
    for _ in range(draws):
        t = np.zeros((n, n), dtype=np.int64)
        for i, j in edges:
            v = int(rng.integers(1, _PRIME))
            t[i, j] = v
            t[j, i] = _PRIME - v
        best = max(best, _rank_mod_p(t) // 2)
    return best


def ur_graph_edges(elems: list[int]) -> list[tuple[int, int]]:
    """Pairs (i, j) of positions in elems whose sum has exactly one unordered
    representation."""
    pairs: dict[int, list[tuple[int, int]]] = {}
    for i, a in enumerate(elems):
        for j in range(i + 1, len(elems)):
            pairs.setdefault(a ^ elems[j], []).append((i, j))
    return [p[0] for p in pairs.values() if len(p) == 1]


if __name__ == "__main__":
    counts = basis_saturating_counts(5, 4)
    print(f"rank-5 saturating sets containing the standard basis, by size: {dict(counts)}")
    print(f"recorded for size 9: {RANK5_SIZE9_SATURATING_WITH_BASIS}")
