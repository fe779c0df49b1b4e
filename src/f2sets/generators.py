"""Seeded generators for test and fuzz corpora: random sets, sum-free sets,
round sets of varied shapes, census fixtures, and the sharpness families.

Everything is driven by the package xorshift generator, so a fixed seed
reproduces the exact corpus on any platform.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from .core import (
    ElementSet,
    Subgroup,
    _basis_and_inverse,
    _mask_to_bits,
    apply_linear,
    linear_image,
    translate_bits,
)
from .rng import _BLOCK, _MULT, Xorshift64
from .sumsets import _removals_losing, _unique_nonzero, rep_counts
from .structure import CensusError, coset_census
from .urgraph import build, isolated_edges


def random_subset(rng: Xorshift64, r: int, size: int) -> ElementSet:
    """`size` distinct points, each drawn by randrange(2^r) until one is new.

    randrange(2^r) never rejects: each draw is the low r bits of one output.
    So the outputs are taken in blocks of states (`Xorshift64._states`), and
    the generator is left at the state of the draw that filled the set. A
    set of up to half the group, as the corpora ask for, takes about 1.4
    draws a point, so a block of twice the points still missing (plus 16)
    nearly always suffices: the 629 calls of one `roundprops` round never
    needed a second."""
    n = 1 << r
    if size > n:
        raise ValueError("requested size exceeds the universe")
    taken = bytearray(n)
    elems: list[int] = []
    low = np.uint64(n - 1)
    while len(elems) < size:
        states = rng._states(min(_BLOCK, 2 * (size - len(elems)) + 16))
        for i, e in enumerate(((states * np.uint64(_MULT)) & low).tolist()):
            if not taken[e]:
                taken[e] = 1
                elems.append(e)
                if len(elems) == size:
                    rng.state = int(states[i])
                    break
        else:
            rng.state = int(states[-1])
    return ElementSet.from_elements(r, elems)


def random_sum_free(rng: Xorshift64, r: int, *, maximal: bool = False) -> ElementSet:
    """Greedy random sum-free set; with maximal=True, grown until no element
    can be adjoined (a complete cap).

    The points are tried in shuffled order, with A ∪ 2A kept as a byte table
    over the group: adjoining x marks x and x + a for every a already in A.
    Without maximal, each point is then kept, in ascending order, when its
    draw of `random` is below 0.7 (`sample_bits`)."""
    n = 1 << r
    order = list(range(1, n))
    rng.shuffle(order)
    covered = bytearray(n)
    elems: list[int] = []
    for x in order:
        if covered[x]:
            continue
        covered[x] = 1
        for a in elems:
            covered[x ^ a] = 1
        elems.append(x)
    elems.sort()
    if not maximal:
        # Drop a random fraction to escape maximality.
        keep = rng.sample_bits(len(elems), 0.7)
        elems = [e for i, e in enumerate(elems) if (keep >> i) & 1]
    return ElementSet.from_elements(r, elems)


def _drop_redundant(bits: int, planes: list[int], redundant: list[int], p: int, r: int) -> int:
    """Remove a = redundant[p] from the set A (bits) and return A ∖ {a}.

    `redundant` is the ascending list of A ∖ (A + U(A)) and `planes` hold
    the unordered counts M(d) = N(d)/2 of the nonzero sums: bit d of plane
    i is bit i of M(d). Both are updated in place. Each sum of
    T = a + (A ∖ {a}) loses its pair with a, so the planes are lowered by
    one on T through a borrow chain. No sum loses its last pair, as a has no
    unique partner; the sums F of T left with one pair give both ends of it
    a partner, so they leave `redundant`, and nothing else changes there
    (the shrinking fact of the `sumsets` docstring)."""
    a = redundant.pop(p)
    bits ^= 1 << a
    t = translate_bits(bits, a, r)
    borrow = t
    for i, plane in enumerate(planes):
        planes[i] = plane ^ borrow
        borrow &= ~plane
        if not borrow:
            break
    fell = t & planes[0]  # F: the sums of T whose count is now 1
    for plane in planes[1:]:
        if not fell:
            break
        fell &= ~plane
    partnered = 0
    while fell:
        low = fell & -fell
        fell ^= low
        partnered |= translate_bits(bits, low.bit_length() - 1, r)
    partnered &= bits
    while partnered:
        low = partnered & -partnered
        partnered ^= low
        x = low.bit_length() - 1
        i = bisect_left(redundant, x)
        if i < len(redundant) and redundant[i] == x:
            del redundant[i]
    return bits


def trim_to_round(A: ElementSet, rng: Xorshift64) -> ElementSet:
    """Remove redundant elements (removal keeps 2A) until the set is round.

    By the removal rule of `sumsets` the redundant elements are
    A ∖ (A + U(A)): those with no unique partner, no b in A with a + b a
    unique nonzero sum. Each step draws uniformly among them in ascending
    order and removes the draw with `_drop_redundant`, which keeps the
    redundant list and the count planes of the set so far. The list only
    ever shrinks, and it is empty at two points (their sum is unique), so
    the set keeps at least two."""
    r = A.rank
    if len(A) <= 1:
        return A
    bits = A.bits
    counts = rep_counts(A).counts
    half = counts >> 1
    half[0] = 0
    planes = [_mask_to_bits((half >> i) & 1) for i in range(max(1, int(half.max()).bit_length()))]
    redundant = A.difference(_removals_losing(A, _unique_nonzero(counts, r))).elements()
    while redundant:
        bits = _drop_redundant(bits, planes, redundant, rng.randrange(len(redundant)), r)
    return ElementSet(r, bits)


def random_round_set(rng: Xorshift64, r: int) -> ElementSet:
    """A round set of varied shape: a shifted sum-free star, a trimmed random
    set, or a trimmed union of structured pieces."""
    n = 1 << r
    kind = rng.randrange(10)
    if kind < 5:
        S = random_sum_free(rng, r, maximal=kind < 2)
        if len(S) == 0:
            S = ElementSet.from_elements(r, [1 + rng.randrange(n - 1)])
        return S.with_zero().translate(rng.randrange(n))
    if kind < 8:
        lo = max(3, (1 << max(r - 2, 1)) // 2)
        size = lo + rng.randrange(max(1, n // 2 - lo))
        return trim_to_round(random_subset(rng, r, min(size, n - 1)), rng)
    # Union of a subgroup coset with a random sprinkle, then trimmed.
    dim = 1 + rng.randrange(max(1, r - 1))
    gens = [1 + rng.randrange(n - 1) for _ in range(dim)]
    H = Subgroup.generated_by(r, gens)
    base = H.coset(rng.randrange(n))
    extra = random_subset(rng, r, rng.randrange(max(1, n // 4)) + 1)
    return trim_to_round(base.union(extra), rng)


def round_set_suite(r: int, count: int, seed: int) -> list[ElementSet]:
    """Deterministic corpus of non-empty round sets for the property suite."""
    rng = Xorshift64(seed ^ (r << 32))
    out = []
    while len(out) < count:
        A = random_round_set(rng, r)
        if len(A) >= 1:
            out.append(A)
    return out


def sharpness_pair(r: int) -> tuple[ElementSet, ElementSet]:
    """B = e1 + H and C = e2 + H for an index-4 subgroup H: disjoint sets with
    |B| + |C| = 2^(r-1) whose union also avoids B + C."""
    if r < 2:
        raise ValueError("sharpness family needs rank >= 2")
    H = Subgroup.generated_by(r, (1 << i for i in range(r - 2)))
    e1 = 1 << (r - 1)
    e2 = 1 << (r - 2)
    return H.coset(e1), H.coset(e2)


def random_invertible(rng: Xorshift64, r: int) -> list[int]:
    """A uniformly random invertible matrix as column images of the basis."""
    while True:
        cols = [1 + rng.randrange((1 << r) - 1) for _ in range(r)]
        if _basis_and_inverse(cols, r)[0] == cols:
            return cols


# Round sets with two isolated edges whose census satisfies every per-coset
# unique-sum bound. Found by seeded random search (random sets trimmed to
# round, filtered on the isolated-edge and bound conditions); each entry is
# (rank, elements, first edge, second edge). Fresh instances are produced as
# random linear images, re-verified from scratch.
CENSUS_BASES: tuple[tuple[int, tuple[int, ...], tuple[int, int], tuple[int, int]], ...] = (
    (6, (0, 8, 11, 12, 20, 28, 38, 42, 49, 57, 61, 62), (0, 11), (8, 38)),
    (6, (0, 1, 8, 12, 15, 19, 23, 24, 34, 43, 44, 48, 52, 54, 56, 57), (0, 34), (12, 15)),
    (6, (0, 5, 6, 15, 17, 18, 19, 28, 32, 38, 42, 44, 56, 57, 58, 59), (0, 5), (6, 15)),
    (6, (0, 11, 13, 15, 16, 17, 21, 26, 33, 35, 37, 41, 49, 53, 57, 62), (0, 13), (57, 62)),
    (6, (0, 10, 14, 16, 17, 20, 27, 29, 32, 41, 45, 49, 50, 51, 61, 62), (0, 62), (10, 61)),
    (6, (0, 3, 7, 9, 12, 14, 20, 23, 25, 27, 40, 43, 51, 52, 54, 60), (0, 54), (9, 27)),
    (6, (0, 1, 7, 16, 17, 18, 21, 25, 27, 28, 38, 39, 41, 49, 56, 63), (0, 49), (16, 63)),
    (6, (0, 13, 21, 28, 39, 47, 51, 54, 55, 58, 59, 63), (0, 63), (13, 51)),
    (6, (0, 4, 8, 11, 12, 14, 19, 28, 32, 34, 41, 46, 49, 52, 54, 60), (0, 54), (12, 28)),
    (6, (0, 6, 9, 10, 12, 14, 51, 52, 60, 61, 62, 63), (0, 60), (6, 61)),
    (6, (0, 11, 13, 16, 18, 19, 21, 22, 34, 36, 40, 41, 44, 60, 61, 62), (0, 19), (18, 21)),
    (7, (0, 4, 6, 8, 11, 20, 25, 37, 40, 41, 43, 44, 45, 46, 56, 61, 62, 66, 67, 89,
         102, 107, 108, 114, 115, 124), (0, 115), (43, 66)),
    (7, (0, 14, 17, 20, 30, 42, 44, 46, 51, 74, 75, 79, 82, 86, 88, 97, 99, 100, 109,
         112, 113, 115, 117, 120), (0, 113), (97, 109)),
    (7, (0, 5, 15, 21, 22, 24, 27, 38, 53, 55, 67, 68, 69, 74, 78, 82, 88, 90, 91, 98,
         110, 111, 112, 113, 127), (0, 5), (27, 53)),
    (7, (0, 5, 8, 11, 12, 20, 24, 30, 32, 40, 41, 55, 59, 72, 73, 87, 89, 91, 99, 103,
         104, 110, 114, 119, 124, 125), (0, 103), (89, 91)),
    (7, (0, 12, 20, 25, 27, 29, 42, 45, 46, 47, 51, 53, 56, 61, 63, 67, 75, 77, 80, 93,
         96, 101, 113, 114, 122), (0, 67), (45, 101)),
    (7, (0, 8, 9, 10, 22, 29, 30, 36, 38, 42, 43, 49, 54, 59, 62, 65, 66, 72, 75, 80,
         81, 86, 90, 92, 94, 117), (0, 42), (92, 117)),
    (7, (0, 2, 12, 16, 25, 29, 33, 38, 50, 52, 53, 54, 55, 61, 62, 76, 79, 80, 85, 89,
         106, 109, 112, 115, 119), (0, 79), (33, 54)),
    (7, (0, 3, 4, 12, 14, 23, 32, 57, 58, 62, 63, 68, 69, 76, 78, 80, 84, 85, 86, 88,
         89, 95, 114, 116, 117, 123), (0, 95), (4, 89)),
    (7, (0, 6, 9, 15, 25, 28, 29, 48, 54, 55, 62, 65, 68, 73, 81, 84, 87, 88, 92, 99,
         117, 120, 124, 127), (0, 120), (81, 99)),
    (7, (0, 3, 7, 16, 17, 20, 32, 39, 43, 48, 52, 57, 63, 65, 66, 75, 76, 81, 87, 91,
         92, 93, 94, 99, 107, 122), (0, 57), (3, 32)),
)


def census_fixture_suite(r: int, count: int, seed: int) -> list[tuple[ElementSet, tuple[int, int], tuple[int, int]]]:
    """Deterministic round sets with two isolated edges whose census passes every
    bound, produced as verified random linear images of the base pool."""
    bases = [b for b in CENSUS_BASES if b[0] == r]
    if not bases:
        raise ValueError(f"no census bases at rank {r}")
    rng = Xorshift64(seed ^ (r << 40))
    out = []
    seen = set()
    while len(out) < count:
        rank, elems, first, second = bases[rng.randrange(len(bases))]
        cols = random_invertible(rng, r)
        A = linear_image(ElementSet.from_elements(r, elems), cols)
        f = tuple(sorted((apply_linear(cols, first[0]), apply_linear(cols, first[1]))))
        s = tuple(sorted((apply_linear(cols, second[0]), apply_linear(cols, second[1]))))
        if A.bits in seen:
            continue
        seen.add(A.bits)
        # Linear maps fix 0, so the first edge still contains 0.
        try:
            coset_census(A, f, s)
        except CensusError:
            continue
        out.append((A, f, s))
    return out


def round_sets_with_isolated_edges(r: int, count: int, seed: int, budget: int = 200000
                                   ) -> list[tuple[ElementSet, tuple[int, int], tuple[int, int]]]:
    """Freshly searched round sets with two isolated edges, translated so one
    edge sits at 0. No bound filtering: the census identities are unconditional
    but the sharper unique-sum bounds may fail below the size threshold."""
    rng = Xorshift64(seed ^ (r << 48))
    n = 1 << r
    out = []
    tries = 0
    while len(out) < count and tries < budget:
        tries += 1
        size = 10 + rng.randrange(max(4, n // 2 - 10))
        A = trim_to_round(random_subset(rng, r, min(size, n - 1)), rng)
        if len(A) < 6:
            continue
        G = build(A)
        iso = isolated_edges(G)
        if len(iso) < 2:
            continue
        u, v = iso[0]
        At = A.translate(u)
        first = (0, u ^ v)
        x, y = iso[1]
        second = tuple(sorted((x ^ u, y ^ u)))
        out.append((At, first, second))
    return out
