import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from f2sets import (
    ElementSet,
    Subgroup,
    alldisjoint_check,
    is_maximal_sum_free,
    is_minimal_saturating,
    is_round,
    is_saturating,
    is_sum_free,
    kneser_check,
    mult_sumset,
    rep_counts,
    s2_bound_check,
    sfnotround_check,
    sumset,
    two_a,
    unique_sums,
)
from f2sets import core, sumsets
from f2sets.core import indices_to_bits
from f2sets.fuzz import qualifying_sum_free_sets
from f2sets.generators import sharpness_pair
from f2sets.sumsets import (
    _PY_PAIR_LIMIT,
    _SPARSE_PAIRS_PER_POINT,
    _SPARSE_PRODUCT_LIMIT,
    _cross_counts,
    _cross_counts_dense,
    _cross_counts_sparse,
    _takes_pairs,
    _walsh,
    _two_and_unique,
    RepCountTable,
    _unique_nonzero,
    php_covered,
)

from conftest import (
    oracle_is_minimal_saturating,
    oracle_is_round,
    oracle_mult_sumset,
    oracle_rep_counts,
    oracle_sumset,
    oracle_unique_sums,
)

small_sets = st.integers(min_value=1, max_value=6).flatmap(
    lambda r: st.tuples(st.just(r), st.integers(min_value=0, max_value=(1 << (1 << r)) - 1))
)


def els(r, elements):
    return ElementSet.from_elements(r, elements)


# -- sumset


def test_sumset_examples():
    assert sumset(els(3, [1, 2]), els(3, [1, 2])).elements() == [0, 3]
    B = els(3, [1, 5, 6])
    assert sumset(B, ElementSet.empty(3)) == ElementSet.empty(3)
    assert sumset(B, els(3, [0])) == B
    assert 0 in two_a(B)


def test_coset_sumset_is_subgroup():
    H = Subgroup.generated_by(3, [1, 2])
    coset = H.coset(4)
    assert two_a(coset) == H.members


@settings(max_examples=200, deadline=None)
@given(small_sets, small_sets)
def test_sumset_matches_oracle(rb, rc):
    r = rb[0]
    B = ElementSet(r, rb[1])
    C = ElementSet(r, rc[1] & ((1 << (1 << r)) - 1))
    assert set(sumset(B, C).elements()) == oracle_sumset(B, C)


def test_sumset_numpy_branch_matches_oracle():
    # Operand sizes past the Python pair loop that the dispatch sends to the
    # numpy pairs kernel, which the small-rank property test above rarely reaches.
    rnd = random.Random(11)
    r = 10
    H = Subgroup.generated_by(r, [1 << i for i in range(6)])
    coset = H.coset(0b1011000000)
    part = els(r, rnd.sample(coset.elements(), 40))
    cases = [
        (coset, part),  # every XOR lands in H: each sum repeats 40 times
        (part, coset),
        (coset, coset),
        (els(r, rnd.sample(range(1 << r), 50)), els(r, rnd.sample(range(1 << r), 60))),
        (els(r, rnd.sample(range(1 << r), 70)), els(r, rnd.sample(range(1 << r), 70))),
        (els(12, rnd.sample(range(1 << 12), 200)), els(12, rnd.sample(range(1 << 12), 300))),
    ]
    for B, C in cases:
        assert len(B) * len(C) > _PY_PAIR_LIMIT and _takes_pairs(B, C)
        assert set(sumset(B, C).elements()) == oracle_sumset(B, C)
    assert sumset(coset, part) == H.members
    # Either side of the Python pair loop's limit: B = C with 16 and 17 points
    # (120 and 136 XORs), B != C with 128 and 130 pairs.
    assert 128 <= _PY_PAIR_LIMIT < 130
    for r in (6, 10):
        for nb, nc in ((16, None), (17, None), (8, 16), (10, 13)):
            B = els(r, rnd.sample(range(1 << r), nb))
            C = B if nc is None else els(r, rnd.sample(range(1 << r), nc))
            assert set(sumset(B, C).elements()) == oracle_sumset(B, C)
            assert set(mult_sumset(B, C, 2).elements()) == oracle_mult_sumset(B, C, 2)
            assert [int(x) for x in rep_counts(B).counts] == oracle_rep_counts(B)


def test_pairs_and_dense_branches_meet_at_the_cut_over():
    # The numpy pairs kernel serves |B| * |C| <= _SPARSE_PAIRS_PER_POINT * 2^r
    # and the dense table anything larger; both sides of the cut must match
    # the oracles, for B = C and for B != C.
    rnd = random.Random(12)
    for r in (6, 10, 14):
        cut = _SPARSE_PAIRS_PER_POINT << r
        assert cut <= _SPARSE_PRODUCT_LIMIT
        n = math.isqrt(cut)
        seen = set()
        for nb, nc in ((n, n), (n + 1, n + 1), (n, n + 1)):
            B = els(r, rnd.sample(range(1 << r), nb))
            for C in (B, els(r, rnd.sample(range(1 << r), nc))):
                seen.add(_takes_pairs(B, C))
                assert _takes_pairs(B, C) == (len(B) * len(C) <= cut)
                assert set(sumset(B, C).elements()) == oracle_sumset(B, C)
                assert set(mult_sumset(B, C, 2).elements()) == oracle_mult_sumset(B, C, 2)
            assert [int(x) for x in rep_counts(B).counts] == oracle_rep_counts(B)
        assert seen == {True, False}


def test_dense_kernel_exact_past_2_to_the_53():
    # float64, which holds the product and the inverse transform, holds
    # integers exactly below 2^53. The crude bound on the
    # inverse transform, 2^r |B| |C|, passes it at rank 18 for the full group
    # (2^54) and at rank 20 for half density (about 2^58); the kernel must
    # still be exact there, and at rank 24, the top of the range, where the
    # kernel's own bound is 2^48.
    for r in (17, 18, 24):
        assert np.all(_cross_counts_dense(ElementSet.full(r), ElementSet.full(r)) == 1 << r)
    rng = np.random.default_rng(20)
    for r in (20, 24):
        points = np.arange(1 << r)
        member = rng.random(1 << r) < 0.5
        A = ElementSet(r, indices_to_bits(np.flatnonzero(member), r))
        counts = _cross_counts_dense(A, A)
        assert counts.sum() == len(A) ** 2
        assert counts[0] == len(A)
        for d in rng.choice(1 << r, 16, replace=False).tolist():
            assert counts[d] == np.count_nonzero(member & member[points ^ d])
        del counts
    # A coset of H and its complement: their transforms multiply to a
    # negative value on the dual of H (bar 0). b + c = d needs c = b + d
    # outside B, that is d outside H, so N(d) = |B| there and 0 on H.
    r = 18
    H = Subgroup.generated_by(r, rng.choice(1 << r, 10).tolist())
    B = H.coset(int(rng.integers(1 << r)))
    in_h = np.isin(np.arange(1 << r), H.members.indices())
    assert np.array_equal(_cross_counts_dense(B, B.complement()), np.where(in_h, 0, len(B)))


def test_kernels_agree_exhaustively():
    rnd = random.Random(1)
    for _ in range(300):
        r = rnd.randint(1, 10)
        B = ElementSet(r, rnd.getrandbits(1 << r))
        C = ElementSet(r, rnd.getrandbits(1 << r))
        assert np.array_equal(_cross_counts_dense(B, C), _cross_counts_sparse(B, C))


def test_max_rank_is_within_the_float32_forward_bound():
    # The dense kernel's forward transforms run in float32, exact while every
    # value is at most |B| <= 2^MAX_RANK <= 2^24.
    assert core.MAX_RANK <= 24, (
        "the float32 forward Walsh-Hadamard pass of _cross_counts_dense is exact "
        "only up to rank 24; raising MAX_RANK needs a float64 forward pass"
    )


def test_float32_walsh_equals_the_float64_transform():
    rng = np.random.default_rng(25)
    table = rng.random(1 << 20) < 0.5
    single = _walsh(table.astype(np.float32), 20)
    double = _walsh(table.astype(np.float64), 20)
    assert single.dtype == np.float32 and double.dtype == np.float64
    assert np.array_equal(single.astype(np.float64), double)
    assert double[0] == np.count_nonzero(table)


def test_float32_walsh_reaches_2_to_the_24_exactly():
    # The full rank-24 group is the one input whose forward value reaches
    # 2^24; float32 holds every integer up to 2^24, but not 2^24 + 1.
    out = _walsh(np.ones(1 << 24, dtype=np.float32), 24)
    assert out.dtype == np.float32
    assert out[0] == 1 << 24
    assert not np.any(out[1:])


def _float64_counts(B, C):
    """The dense table with a float64 product and inverse at every size: the
    reference the float32 inverse must equal."""
    r = B.rank
    b, c = np.zeros(1 << r), np.zeros(1 << r)
    b[B.indices()] = 1
    c[C.indices()] = 1
    return _walsh(_walsh(b, r) * _walsh(c, r), r).astype(np.int64) >> r


@pytest.fixture
def walsh_dtypes(monkeypatch):
    """The dtypes of the tables that reach `_walsh`, in call order."""
    seen = []

    def recording(table, r):
        seen.append(table.dtype)
        return _walsh(table, r)

    monkeypatch.setattr(sumsets, "_walsh", recording)
    return seen


def _subgroup_of_order(r, k, rng):
    while True:
        H = Subgroup.generated_by(r, rng.integers(1, 1 << r, k).tolist())
        if H.dim == k:
            return H


def test_float32_inverse_at_the_bound_on_subgroups(walsh_dtypes):
    # B = C = H of order 2^15: |B| |C| = 2^30, and H meets the kernel's bound
    # sum_s |P(s)| <= 2^r sqrt(|B| |C|) with equality. Rank 24 takes the
    # most factor passes, 5. N(d) = |H| on H and 0 off it.
    rng = np.random.default_rng(26)
    for r in (16, 20, 24):
        H = _subgroup_of_order(r, 15, rng)
        expected = np.zeros(1 << r, dtype=np.int64)
        expected[H.members.indices()] = 1 << 15
        walsh_dtypes.clear()
        assert np.array_equal(_cross_counts_dense(H.members, H.members), expected), r
        assert walsh_dtypes == [np.float32, np.float32], r


def test_float32_inverse_equals_float64_on_a_random_set_of_2_to_the_15(walsh_dtypes):
    rng = np.random.default_rng(2615)
    r = 20
    A = els(r, rng.choice(1 << r, 1 << 15, replace=False).tolist())
    assert np.array_equal(_cross_counts_dense(A, A), _float64_counts(A, A))
    assert walsh_dtypes == [np.float32, np.float32]


def test_float32_inverse_on_a_coset_and_its_complement(walsh_dtypes):
    # The transforms of a coset of H and of its complement have opposite
    # signs on the dual of H (bar 0), so those products are negative.
    # N(d) = |B| off H and 0 on H. At rank 16 H is a hyperplane and
    # |B| |C| = 2^30; at rank 20 |H| = 2^10 and |B| |C| = 2^30 - 2^20.
    rng = np.random.default_rng(2616)
    for r, k in ((16, 15), (20, 10)):
        H = _subgroup_of_order(r, k, rng)
        B = H.coset(int(rng.integers(1 << r)))
        C = B.complement()
        assert len(B) * len(C) <= 1 << 30
        b, c = np.zeros(1 << r, dtype=np.float32), np.zeros(1 << r, dtype=np.float32)
        b[B.indices()] = 1
        c[C.indices()] = 1
        assert (_walsh(b, r) * _walsh(c, r)).min() < 0
        expected = np.full(1 << r, len(B), dtype=np.int64)
        expected[H.members.indices()] = 0
        walsh_dtypes.clear()
        assert np.array_equal(_cross_counts_dense(B, C), expected), r
        assert walsh_dtypes == [np.float32] * 3, r


def test_dense_inverse_takes_float64_just_past_2_to_the_30(walsh_dtypes):
    # 2^30 + 1 = 1025 * 1047553: one pair past the float32 bound takes the
    # float64 product and inverse; the pair at 2^30 (C the whole rank-20
    # group, N(d) = |B|) stays in float32.
    rng = np.random.default_rng(2630)
    r = 20
    B = els(r, rng.choice(1 << r, 1025, replace=False).tolist())
    C = els(r, rng.choice(1 << r, 1023, replace=False).tolist()).complement()
    assert len(B) * len(C) == (1 << 30) + 1
    assert np.array_equal(_cross_counts_dense(B, C), _float64_counts(B, C))
    assert walsh_dtypes == [np.float32, np.float32, np.float64]
    walsh_dtypes.clear()
    B = B.without_element(B.min_element())
    assert np.array_equal(_cross_counts_dense(B, ElementSet.full(r)), np.full(1 << r, 1024))
    assert walsh_dtypes == [np.float32, np.float32, np.float32]


def _dense_closed_forms(r, rnd):
    """(B, C, N) with N the known count table of B + C, for B = C and B != C."""
    n = 1 << r
    full, points = ElementSet.full(r), np.arange(n)
    p, q = rnd.sample(range(n), 2)
    u = rnd.randrange(1, n)  # H = {x : u.x = 0}, a hyperplane
    in_h = np.array([bin(x & u).count("1") % 2 == 0 for x in range(n)])
    t = rnd.randrange(n)
    coset = els(r, np.flatnonzero(in_h[points ^ t]).tolist())
    delta = lambda d: (points == d).astype(np.int64)
    yield full, full, np.full(n, n)
    yield full, els(r, [p]), np.ones(n, dtype=np.int64)
    yield els(r, [p]), els(r, [p]), delta(0)
    yield els(r, [p]), els(r, [q]), delta(p ^ q)
    miss_p, miss_q = full.without_element(p), full.without_element(q)
    yield miss_p, miss_p, np.where(points == 0, n - 1, n - 2)
    yield miss_p, miss_q, np.where(points == p ^ q, n - 1, n - 2)
    yield miss_p, els(r, [p]), 1 - delta(0)
    yield coset, coset, np.where(in_h, n // 2, 0)
    yield coset, coset.complement(), np.where(in_h, 0, n // 2)


def test_dense_kernel_closed_forms_and_pairs_at_ranks_11_to_16():
    rnd = random.Random(16)
    for r in range(11, 17):
        for B, C, expected in _dense_closed_forms(r, rnd):
            assert np.array_equal(_cross_counts_dense(B, C), expected), (r, len(B), len(C))
        for _ in range(4):
            nb = rnd.randint(1, min(1 << r, 1 << 11))
            nc = rnd.randint(1, min(1 << r, (1 << 22) // nb))
            B = els(r, rnd.sample(range(1 << r), nb))
            for C in (B, els(r, rnd.sample(range(1 << r), nc))):
                assert np.array_equal(_cross_counts_dense(B, C), _cross_counts_sparse(B, C))


# -- representation counts


def test_rep_counts_examples():
    t = rep_counts(els(3, [1]))
    assert t.ordered(0) == 1 and t.total() == 1
    t = rep_counts(els(3, [0, 1, 2, 4]))
    assert t.ordered(0) == 4
    for d in (1, 2, 3, 4, 5, 6):
        assert t.ordered(d) == 2
    assert t.ordered(7) == 0
    assert t.unordered(3) == 1
    assert t.unordered(0) == 4
    for r in range(1, 9):
        for A in [ElementSet.empty(r)] + [els(r, [a]) for a in (0, 1, (1 << r) - 1)]:
            t = rep_counts(A)
            assert [int(x) for x in t.counts] == oracle_rep_counts(A)
            assert t.size == len(A) and t.total() == len(A)


@settings(max_examples=150, deadline=None)
@given(small_sets)
def test_rep_counts_match_double_loop(rb):
    r, bits = rb
    A = ElementSet(r, bits)
    got = rep_counts(A)
    want = oracle_rep_counts(A)
    assert [int(x) for x in got.counts] == want
    assert got.total() == len(A) ** 2
    assert set(got.support().elements()) == oracle_sumset(A, A)


def test_counting_identity_random():
    rnd = random.Random(2)
    for _ in range(1000):
        r = rnd.randint(1, 8)
        A = ElementSet(r, rnd.getrandbits(1 << r))
        assert rep_counts(A).total() == len(A) ** 2


# -- unique sums


def test_unique_sums_examples():
    assert unique_sums(els(3, [0, 5])).elements() == [5]
    assert unique_sums(els(3, [0, 1, 2, 4])).elements() == [1, 2, 3, 4, 5, 6]
    H = Subgroup.generated_by(3, [1, 2])
    assert unique_sums(H.coset(4)).elements() == []
    assert unique_sums(els(3, [6])).elements() == [0]


@settings(max_examples=200, deadline=None)
@given(small_sets)
def test_unique_sums_match_pair_oracle(rb):
    r, bits = rb
    A = ElementSet(r, bits)
    assert set(unique_sums(A).elements()) == oracle_unique_sums(A)


@settings(max_examples=120, deadline=None)
@given(small_sets, st.data())
def test_unique_sums_translation_invariant(rb, data):
    r, bits = rb
    g = data.draw(st.integers(min_value=0, max_value=(1 << r) - 1))
    A = ElementSet(r, bits)
    assert unique_sums(A.translate(g)) == unique_sums(A)


@settings(max_examples=120, deadline=None)
@given(small_sets)
def test_unique_sums_inside_sumset(rb):
    r, bits = rb
    A = ElementSet(r, bits)
    D = unique_sums(A)
    assert D.issubset(two_a(A)) or len(A) == 0
    if len(A) >= 2:
        assert 0 not in D


# -- multiplicity sumsets


def test_mult_sumset_examples():
    B = els(3, [0, 1, 2, 4])
    assert mult_sumset(B, B, 1) == sumset(B, B)
    assert 0 in mult_sumset(B, B, 4)
    with pytest.raises(ValueError):
        mult_sumset(B, B, 0)


def test_php_cover_bound():
    rnd = random.Random(3)
    for _ in range(100):
        r = rnd.randint(1, 6)
        n = 1 << r
        kappa = rnd.randint(1, 3)
        size_b = rnd.randint(max(1, n - 4), n)
        size_c = n + kappa - size_b
        if size_c > n or size_c < 1:
            continue
        perm = list(range(n))
        rnd.shuffle(perm)
        B = els(r, perm[:size_b])
        rnd.shuffle(perm)
        C = els(r, perm[:size_c])
        assert php_covered(B, C, kappa)


# -- predicates


def test_sum_free_examples():
    assert is_sum_free(els(2, [1, 2]))
    rep = is_sum_free(els(3, [0, 3]))
    assert not rep and rep.witness["triple"] == [0, 0, 0]
    rep = is_sum_free(els(3, [1, 2, 3]))
    assert not rep
    a, b, d = rep.witness["triple"]
    assert a ^ b == d and {a, b, d} <= {1, 2, 3}


def test_maximal_sum_free_examples():
    assert is_maximal_sum_free(els(2, [1, 2]))
    rep = is_maximal_sum_free(els(3, [1]))
    assert not rep and "adjoinable" in rep.witness
    g = rep.witness["adjoinable"]
    bigger = els(3, [1]).with_element(g)
    assert is_sum_free(bigger)


def test_saturating_examples():
    assert is_saturating(els(3, [4, 5, 6, 7]))
    rep = is_saturating(els(3, [1]))
    assert not rep and "uncovered" in rep.witness
    with pytest.raises(ValueError):
        is_saturating(els(3, [0, 1]))
    assert not is_saturating(ElementSet.empty(3))


def test_minimal_saturating_examples():
    # both classical constructions at r=3
    assert is_minimal_saturating(els(3, [4, 5, 6, 7]))
    assert is_minimal_saturating(els(3, [1, 2, 3, 4]))
    rep = is_minimal_saturating(els(2, [1, 2, 3]))
    assert not rep and "removable" in rep.witness
    a = rep.witness["removable"]
    assert is_saturating(els(2, [1, 2, 3]).without_element(a))


def test_minimal_saturating_matches_oracle_exhaustive_r3():
    for mask in range(1 << 7):
        A = ElementSet(3, mask << 1)
        assert bool(is_minimal_saturating(A)) == oracle_is_minimal_saturating(A), A


def test_pair_pass_matches_the_count_table():
    # 2A and U(A) from one pass over the pairs, on both sides of _PY_PAIR_LIMIT.
    rnd = random.Random(20)
    sizes = set()
    for _ in range(4000):
        r = rnd.randint(1, 7)
        n = 1 << r
        A = ElementSet.from_elements(r, rnd.sample(range(n), rnd.randint(0, min(n, 20))))
        table = rep_counts(A)
        assert _two_and_unique(A) == (table.support().bits, _unique_nonzero(table.counts, r).bits)
        sizes.add(len(A))
    assert max(sizes) * (max(sizes) - 1) // 2 > _PY_PAIR_LIMIT


@pytest.mark.parametrize("limit", [0, 10**6])
def test_both_sides_of_the_pair_pass_equal_the_oracle(monkeypatch, limit):
    # Limit 0 sends every set to the count table, 10^6 every set to the loop.
    rnd = random.Random(23)
    monkeypatch.setattr(sumsets, "_PY_PAIR_LIMIT", limit)
    for r in range(4, 10):
        for n in range(10, min(17, 1 << r) + 1):
            A = els(r, rnd.sample(range(1 << r), n))
            two, unique = _two_and_unique(A)
            assert unique == ElementSet.from_elements(r, oracle_unique_sums(A)).bits
            assert two == ElementSet.from_elements(r, oracle_sumset(A, A)).bits


def test_pair_pass_hands_over_at_half_the_pairs(monkeypatch):
    # The pass makes two big-int updates a pair, so it stops at n(n-1) > _PY_PAIR_LIMIT.
    tables = []
    monkeypatch.setattr(sumsets, "rep_counts", lambda A: tables.append(len(A)) or rep_counts(A))
    for n in (11, 12):
        _two_and_unique(els(8, range(n)))
    assert 11 * 10 <= _PY_PAIR_LIMIT < 12 * 11
    assert tables == [12]


def _counting(monkeypatch, *names):
    """Wrap the named sumsets functions; the dict counts their calls."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _real=getattr(sumsets, name)):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(sumsets, name, counted)
    return calls


def test_maximal_sum_free_takes_one_sumset(monkeypatch):
    coset = ElementSet(12, ((1 << 2048) - 1) << 2048)  # the points with the top bit set
    calls = _counting(monkeypatch, "sumset")
    assert is_maximal_sum_free(coset)
    assert calls == {"sumset": 1}
    # A failing input keeps the witnesses of the parts.
    lined = coset.with_element(1)
    assert is_maximal_sum_free(lined).witness == is_sum_free(lined).witness
    assert is_maximal_sum_free(coset.without_element(2048)).witness == {"adjoinable": 2048}


def test_sfnotround_reads_one_count_table(monkeypatch):
    S = qualifying_sum_free_sets(6, 2)[0]
    calls = _counting(monkeypatch, "sumset", "rep_counts")
    assert sfnotround_check(S, 2)
    assert calls == {"sumset": 0, "rep_counts": 1}


def test_sfnotround_reports_a_forged_short_count(monkeypatch):
    S = qualifying_sum_free_sets(5, 2)[0]
    counts = rep_counts(S).counts
    d = int(np.flatnonzero(counts)[-1])

    def forge(x):  # the table of S with N(x) set to 2
        table = counts.copy()
        table[x] = 2
        monkeypatch.setattr(sumsets, "rep_counts", lambda _: RepCountTable(S.rank, len(S), table))

    forge(d)  # one pair left at d: count 1 < kappa
    rep = sfnotround_check(S, 2)
    assert not rep and rep.witness == {"element": d, "count": 1, "kappa": 2}
    forge(0)  # N(0) = |S| is no pair count; a small one is ignored
    assert sfnotround_check(S, 2)
    forge(S.min_element())  # a count on S itself: not sum-free
    with pytest.raises(ValueError, match="sum-free"):
        sfnotround_check(S, 2)


def test_round_examples():
    assert is_round(ElementSet.empty(4))
    assert is_round(els(3, [5]))
    H = Subgroup.generated_by(3, [1, 2])
    rep = is_round(H.members)
    assert not rep
    a = rep.witness["redundant"]
    rest = H.members.without_element(a)
    assert two_a(rest) == two_a(H.members)
    # shifted sum-free star is round
    S = els(4, [1, 2, 4, 8, 15])
    for g in (0, 7, 13):
        assert is_round(S.with_zero().translate(g))


def test_round_matches_removal_oracle_exhaustive_r3():
    for bits in range(1 << 8):
        A = ElementSet(3, bits)
        assert bool(is_round(A)) == oracle_is_round(A), A


def test_round_matches_removal_oracle_random_r46():
    rnd = random.Random(4)
    for _ in range(400):
        r = rnd.randint(4, 6)
        A = ElementSet(r, rnd.getrandbits(1 << r))
        assert bool(is_round(A)) == oracle_is_round(A), A


def test_round_matches_graph_randomized_up_to_r8():
    from f2sets.urgraph import build

    rnd = random.Random(9)
    for _ in range(250):
        r = rnd.randint(5, 8)
        bits = rnd.getrandbits(1 << r)
        A = ElementSet(r, bits)
        if len(A) < 2:
            continue
        G = build(A)
        no_isolated = all(G.degree(i) > 0 for i in range(G.n))
        assert bool(is_round(A)) == no_isolated, A


@settings(max_examples=100, deadline=None)
@given(small_sets, st.data())
def test_round_translation_invariance(rb, data):
    r, bits = rb
    g = data.draw(st.integers(min_value=0, max_value=(1 << r) - 1))
    A = ElementSet(r, bits)
    assert bool(is_round(A.translate(g))) == bool(is_round(A))


def test_predicates_invariant_under_linear_maps():
    from f2sets.generators import linear_image, random_invertible
    from f2sets.rng import Xorshift64

    rng = Xorshift64(2026)
    rnd = random.Random(2026)
    for _ in range(300):
        r = rnd.randint(2, 6)
        A = ElementSet(r, rnd.getrandbits(1 << r))
        cols = random_invertible(rng, r)
        img = linear_image(A, cols)
        assert bool(is_sum_free(img)) == bool(is_sum_free(A))
        assert bool(is_round(img)) == bool(is_round(A))
        if 0 not in A:
            assert bool(is_saturating(img)) == bool(is_saturating(A))
            assert bool(is_minimal_saturating(img)) == bool(is_minimal_saturating(A))


def test_sumset_with_own_period_is_identity():
    from f2sets import period

    rnd = random.Random(8)
    for _ in range(300):
        r = rnd.randint(1, 6)
        bits = rnd.getrandbits(1 << r)
        if not bits:
            continue
        A = ElementSet(r, bits)
        assert sumset(A, period(A).members) == A


def test_sum_free_maximality_equals_minimal_saturating_without_lines():
    # at r <= 4: S maximal sum-free <=> S minimal saturating and S ∩ 2S = ∅
    for r in (2, 3, 4):
        for mask in range(1 << ((1 << r) - 1)):
            S = ElementSet(r, mask << 1)
            if len(S) == 0:
                continue
            lhs = bool(is_maximal_sum_free(S))
            rhs = bool(is_minimal_saturating(S)) and S.isdisjoint(two_a(S))
            assert lhs == rhs, S


# -- the additive lemma checks


def test_kneser_subgroup_case():
    H = Subgroup.generated_by(4, [1, 2])
    assert kneser_check(H.members, H.members)
    rep = kneser_check(ElementSet.full(4), ElementSet.full(4))
    assert rep


def test_kneser_requires_nonempty():
    with pytest.raises(ValueError):
        kneser_check(ElementSet.empty(3), ElementSet.full(3))


def test_kneser_structured_fuzz():
    rnd = random.Random(5)
    triggered = 0
    for _ in range(2000):
        r = rnd.randint(1, 8)
        n = 1 << r
        H = Subgroup.generated_by(r, [rnd.randrange(1, n) for _ in range(rnd.randint(0, r))])
        bbits = 0
        for _ in range(rnd.randint(1, 3)):
            bbits |= H.coset(rnd.randrange(n)).bits
        cbits = 0
        for _ in range(rnd.randint(1, 3)):
            cbits |= H.coset(rnd.randrange(n)).bits
        if rnd.random() < 0.4:
            bbits |= 1 << rnd.randrange(n)
        B, C = ElementSet(r, bbits), ElementSet(r, cbits)
        rep = kneser_check(B, C)
        assert rep, rep.witness
        if rep.detail is None:
            triggered += 1
    assert triggered > 100


def test_alldisjoint_examples():
    # boundary: |B| + |C| = 2^(r-1) exactly is rejected and genuinely disjoint
    for r in (2, 3, 4, 5, 6):
        B, C = sharpness_pair(r)
        assert B.isdisjoint(C)
        assert B.union(C).isdisjoint(sumset(B, C))
        with pytest.raises(ValueError):
            alldisjoint_check(B, C)
    with pytest.raises(ValueError):
        alldisjoint_check(els(2, [1]), els(2, [2]))


def test_alldisjoint_fuzz():
    rnd = random.Random(6)
    done = 0
    while done < 1500:
        r = rnd.randint(1, 8)
        n = 1 << r
        perm = list(range(n))
        rnd.shuffle(perm)
        nb = rnd.randint(1, n - 1)
        nc = rnd.randint(1, n - nb)
        if nb + nc <= n // 2:
            continue
        B = els(r, perm[:nb])
        C = els(r, perm[nb:nb + nc])
        assert alldisjoint_check(B, C)
        done += 1


def test_s2_bound_trivial_and_fuzz():
    G4 = ElementSet.full(4)
    assert s2_bound_check(G4, G4)
    rnd = random.Random(7)
    for _ in range(2000):
        r = rnd.randint(2, 8)
        B = ElementSet(r, rnd.getrandbits(1 << r))
        C = ElementSet(r, rnd.getrandbits(1 << r))
        if len(B) < 2 or len(C) < 2:
            continue
        assert s2_bound_check(B, C)
    with pytest.raises(ValueError):
        s2_bound_check(els(3, [1]), els(3, [1, 2]))


def test_sfnotround_coset_case():
    H = Subgroup.generated_by(5, [1, 2, 4, 8])
    S = H.coset(16)  # 16 elements, sum-free
    rep = sfnotround_check(S, 2)
    assert rep
    # every element of 2S has 8 unordered representations; spot check
    t = rep_counts(S)
    for c in two_a(S):
        assert t.unordered(c) >= 8 if c else t.unordered(c) == 16


def test_sfnotround_preconditions():
    H = Subgroup.generated_by(5, [1, 2, 4, 8])
    S = H.coset(16)
    small = ElementSet.from_elements(5, S.elements()[:10])  # exactly 2^(r-2) + 2
    with pytest.raises(ValueError):
        sfnotround_check(small, 2)
    with pytest.raises(ValueError):
        sfnotround_check(S, 1)
    with pytest.raises(ValueError):
        sfnotround_check(ElementSet.from_elements(5, [1, 2, 3] + list(range(16, 26))), 2)


def test_split_counts_above_dense_rank_match_sparse():
    # Above rank 20 the count dispatch goes to the dense kernel, which is
    # exact through rank 26: past the pairs limit of 2^22 its tables must
    # equal the pairwise kernel's.
    rng = np.random.default_rng(21)
    r = 21
    B = ElementSet.from_elements(r, rng.choice(1 << r, 2100, replace=False).tolist())
    C = ElementSet.from_elements(r, rng.choice(1 << r, 2050, replace=False).tolist())
    assert not _takes_pairs(B, B) and not _takes_pairs(B, C)
    assert np.array_equal(_cross_counts(B, B), _cross_counts_sparse(B, B))
    assert np.array_equal(_cross_counts(B, C), _cross_counts_sparse(B, C))
    assert np.array_equal(rep_counts(B).counts, _cross_counts_sparse(B, B))


def test_rep_counts_half_density_rank21():
    from f2sets.core import indices_to_bits

    # |A|^2 ~ 10^12 pairs: the sparse kernel cannot hold them, the dense
    # table must. N(d) = |A ∩ (A + d)| is checked directly for a few d.
    rng = np.random.default_rng(5)
    r = 21
    member = rng.random(1 << r) < 0.5
    A = ElementSet(r, indices_to_bits(np.flatnonzero(member), r))
    table = rep_counts(A)
    assert table.ordered(0) == len(A)
    assert table.total() == len(A) ** 2
    points = np.arange(1 << r)
    for d in rng.choice(1 << r, 4, replace=False).tolist() + [1 << (r - 1)]:
        assert table.ordered(d) == int(np.count_nonzero(member & member[points ^ d]))
    assert sumset(A, A) == table.support()


def test_sumset_above_dense_rank_matches_oracle():
    # 2100^2 pairs exceed the pairwise kernel's limit at rank 21, so the
    # dense count table, exact through rank 26, serves sumset.
    rng = np.random.default_rng(22)
    r = 21
    B = ElementSet.from_elements(r, rng.choice(1 << r, 2100, replace=False).tolist())
    C = ElementSet.from_elements(r, rng.choice(1 << r, 2100, replace=False).tolist())
    assert sumset(B, C).elements() == sorted(oracle_sumset(B, C))
