from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from f2sets import ElementSet, generators, is_round, is_sum_free, span, sumset
from f2sets.generators import (
    CENSUS_BASES,
    _drop_redundant,
    census_fixture_suite,
    linear_image,
    random_invertible,
    random_round_set,
    random_subset,
    random_sum_free,
    round_set_suite,
    sharpness_pair,
    trim_to_round,
)
from f2sets.rng import Xorshift64
from f2sets.structure import coset_census
from f2sets.sumsets import _removals_losing, _unique_nonzero, rep_counts
from f2sets.urgraph import build, isolated_edges

from conftest import oracle_rep_counts, scalar_random_subset, scalar_random_sum_free


def test_round_set_suite_is_round_and_deterministic():
    a = round_set_suite(4, 200, seed=5)
    b = round_set_suite(4, 200, seed=5)
    assert [x.bits for x in a] == [x.bits for x in b]
    assert all(is_round(A) for A in a)
    sizes = {len(A) for A in a}
    assert len(sizes) > 3  # varied shapes, not a single family


def test_trim_to_round_preserves_sumset():
    rng = Xorshift64(3)
    for _ in range(50):
        bits = rng.sample_bits(32, 0.4)
        A = ElementSet(5, bits)
        R = trim_to_round(A, rng)
        assert is_round(R)
        if len(A) > 0:
            assert sumset(R, R) == sumset(A, A)


def reference_trim_to_round(A, rng):
    """Plain-loop trim: recount after every removal, same draw order."""
    while True:
        counts = oracle_rep_counts(A)
        redundant = [a for a in A if not any(b != a and counts[a ^ b] == 2 for b in A)]
        if len(A) <= 1 or not redundant:
            return A
        A = A.without_element(redundant[rng.randrange(len(redundant))])


def test_trim_to_round_matches_reference():
    # Same seed, same draws: the corpora built on trim_to_round depend on it.
    source = Xorshift64(8)
    for r in (1, 2, 3, 4, 5, 6, 7):
        for _ in range(20):
            A = ElementSet(r, source.sample_bits(1 << r, 0.5))
            seed = source.next_u64()
            got_rng, want_rng = Xorshift64(seed), Xorshift64(seed)
            assert trim_to_round(A, got_rng) == reference_trim_to_round(A, want_rng)
            assert got_rng.next_u64() == want_rng.next_u64()


def plane_counts(planes, r):
    """The count each group element holds in the bit planes of trim_to_round."""
    return [sum(((p >> d) & 1) << i for i, p in enumerate(planes)) for d in range(1 << r)]


random_sets = st.tuples(st.integers(1, 9), st.integers(0, 2**64 - 1),
                        st.floats(0.0, 1.0), st.booleans())


def draw_set(case):
    r, seed, density, with_zero = case
    A = ElementSet(r, Xorshift64(seed).sample_bits(1 << r, density))
    return A.with_zero() if with_zero else A.nonzero()


@settings(max_examples=80, deadline=None)
@given(random_sets, st.integers(0, 2**64 - 1))
def test_trim_steps_keep_planes_and_redundant_set_equal_to_a_recount(case, seed):
    # A step hook: every removal trim_to_round makes is checked before and after.
    A = draw_set(case)
    r = A.rank
    steps = []

    def assert_state(bits, planes, redundant):
        B = ElementSet(r, bits)
        fresh = rep_counts(B).counts
        assert plane_counts(planes, r) == [0] + (fresh[1:] // 2).tolist()
        assert redundant == B.difference(_removals_losing(B, _unique_nonzero(fresh, r))).elements()

    def checked(bits, planes, redundant, p, rank):
        assert_state(bits, planes, redundant)
        a = redundant[p]
        before = set(redundant)
        after = _drop_redundant(bits, planes, redundant, p, rank)
        assert after == bits & ~(1 << a)
        assert_state(after, planes, redundant)
        assert set(redundant) <= before - {a}  # R never gains an element
        steps.append(a)
        return after

    with mock.patch.object(generators, "_drop_redundant", checked):
        R = trim_to_round(A, Xorshift64(seed))
    assert len(steps) == len(A) - len(R)
    assert is_round(R)


@pytest.mark.parametrize("r", range(1, 13))
def test_random_subset_matches_the_scalar_loop(r):
    n = 1 << r
    source = Xorshift64(r)
    # Empty, full, and sizes whose draws take more than one block at rank 12.
    sizes = {0, 1, n // 3, n // 2, n - 1, n} | ({4000, 4090} if r == 12 else set())
    for size in sorted(sizes):
        seed = source.next_u64()
        got, want = Xorshift64(seed), Xorshift64(seed)
        assert random_subset(got, r, size) == scalar_random_subset(want, r, size), size
        assert got.state == want.state, size


@pytest.mark.parametrize("r", range(1, 13))
def test_random_sum_free_matches_the_scalar_loop(r):
    source = Xorshift64(100 + r)
    for _ in range(3 if r > 10 else 10):
        seed = source.next_u64()
        for maximal in (False, True):
            got, want = Xorshift64(seed), Xorshift64(seed)
            S = random_sum_free(got, r, maximal=maximal)
            assert S == scalar_random_sum_free(want, r, maximal)
            assert got.state == want.state
            assert is_sum_free(S)


def test_random_sum_free():
    rng = Xorshift64(4)
    for _ in range(30):
        S = random_sum_free(rng, 5, maximal=True)
        assert is_sum_free(S)
        assert sumset(S, S).union(S).is_full()


def test_random_invertible_spans():
    rng = Xorshift64(5)
    for r in (2, 4, 6):
        for _ in range(20):
            cols = random_invertible(rng, r)
            assert span(ElementSet.from_elements(r, cols)).dim == r


# random_invertible outputs recorded before it shared core._echelon_insert:
# (seed, rank) -> three successive matrices and the next raw draw.
RANDOM_INVERTIBLE = {
    (1, 2): ([[2, 3], [2, 1], [3, 2]], 15011257152325972353),
    (2, 3): ([[6, 3, 1], [4, 2, 5], [5, 3, 4]], 4640032404552860777),
    (5, 4): ([[3, 6, 14, 10], [5, 9, 1, 10], [8, 6, 15, 11]], 16804155141958556269),
    (9, 6): ([[4, 55, 7, 19, 34, 61], [23, 19, 27, 61, 36, 52], [22, 46, 32, 15, 39, 3]],
             14270025057512230275),
    (42, 8): ([[57, 200, 78, 133, 44, 52, 145, 5], [206, 251, 33, 121, 201, 195, 222, 153],
               [180, 241, 96, 111, 225, 153, 106, 191]], 6704777267908281807),
}

# census_fixture_suite(6, 30, seed=8) set bits, recorded at the same point.
CENSUS_R6_SEED8 = [
    6917573008260728433, 437469324958050561, 9394895859914637833,
    451486997930935301, 40537347401736195, 297541045854712321,
    11962691462317491369, 6953566620898444493, 3107484857699140125,
    1176594007678650465, 6341637032133068305, 16429276597927350293,
    9948733092925735745, 117093887738151445, 91639073642382999,
    2473197586723410453, 9529628391021871131, 14582803504584196101,
    1155314460708044865, 289497616021523713, 4613673944577781761,
    2306417160555077633, 186340932520640673, 4722027920426541273,
    2889130079995592963, 45673747378635285, 9809097277625729155,
    8091473201014507653, 306915517590446087, 3034977573873688577,
]


def test_random_invertible_draws_are_unchanged():
    for (seed, r), (want, next_draw) in RANDOM_INVERTIBLE.items():
        rng = Xorshift64(seed)
        assert [random_invertible(rng, r) for _ in range(3)] == want
        assert rng.next_u64() == next_draw
    suite = census_fixture_suite(6, 30, seed=8)
    assert [A.bits for A, _, _ in suite] == CENSUS_R6_SEED8


def test_linear_image_preserves_structure():
    rng = Xorshift64(6)
    S = random_sum_free(rng, 5, maximal=True)
    cols = random_invertible(rng, 5)
    img = linear_image(S, cols)
    assert len(img) == len(S)
    assert is_sum_free(img)


def test_sharpness_pair_properties():
    for r in (2, 4, 6, 8):
        B, C = sharpness_pair(r)
        assert len(B) == len(C) == 1 << (r - 2)
        assert B.isdisjoint(C)
        assert B.union(C).isdisjoint(sumset(B, C))


def test_census_bases_all_valid():
    for rank, elems, first, second in CENSUS_BASES:
        A = ElementSet.from_elements(rank, elems)
        assert is_round(A)
        G = build(A)
        iso = isolated_edges(G)
        assert first in iso and second in iso
        census = coset_census(A, first, second)
        assert census.identities_hold() and census.dg_bounds_hold


def test_census_fixture_suite_deterministic_and_distinct():
    a = census_fixture_suite(6, 30, seed=8)
    b = census_fixture_suite(6, 30, seed=8)
    assert [(x.bits, f, s) for x, f, s in a] == [(x.bits, f, s) for x, f, s in b]
    assert len({x.bits for x, _, _ in a}) == 30


def test_random_round_set_shapes():
    rng = Xorshift64(7)
    star_like = 0
    for _ in range(100):
        A = random_round_set(rng, 5)
        assert is_round(A)
        if len(A) >= 2:
            G = build(A)
            if any(G.degree(i) == G.n - 1 for i in range(G.n)):
                star_like += 1
    assert 0 < star_like < 100  # both star and non-star shapes occur
