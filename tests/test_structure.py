import collections
import functools
import hashlib
import json
import os
import random
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

import f2sets
from f2sets import (
    ElementSet,
    Subgroup,
    is_maximal_sum_free,
    is_minimal_saturating,
    is_sum_free,
    unique_sums,
)
from f2sets.generators import (
    census_fixture_suite,
    random_sum_free,
    round_sets_with_isolated_edges,
)
from f2sets.structure import (
    CensusError,
    Decomposition,
    classify_max_sumfree,
    construct_cap_replacement,
    construct_coset,
    construct_punctured,
    construct_shifted_cap,
    construct_subgroup_union,
    coset_census,
    decompose_round,
    decompose_saturating,
    is_blocking,
    is_minimal_blocking,
    tangent_construction,
)
from f2sets.rng import Xorshift64
from f2sets import structure, sumsets, urgraph
from f2sets.urgraph import build, spanning_star_centers

from conftest import (
    oracle_blocking_reports,
    oracle_decompose_round,
    oracle_decompose_saturating,
    oracle_lines,
)


def els(r, elements):
    return ElementSet.from_elements(r, elements)


def five_point_form_r5():
    bits = 0
    for b in (1, 2, 4, 8, 15):
        for h in (0, 16):
            bits |= 1 << (b ^ h)
    return ElementSet(5, bits)


# -- decompositions


def test_decompose_coset_construction():
    A = construct_coset(3)
    decs = decompose_saturating(A)
    assert decs
    for d in decs:
        assert d.expand() == A
        assert is_maximal_sum_free(d.base)
        assert d.shift == 0 or d.shift in d.base


def test_decompose_requires_no_zero():
    with pytest.raises(ValueError):
        decompose_saturating(els(3, [0, 1]))


def test_subgroup_union_has_no_decomposition():
    A = construct_subgroup_union(4)
    assert is_minimal_saturating(A)
    assert decompose_saturating(A) == []


def test_subgroup_union_general():
    F = Subgroup.generated_by(5, [16, 8])
    H = Subgroup.generated_by(5, [1, 2, 4])
    A = construct_subgroup_union(5, F, H)
    assert len(A) == 4 + 8 - 2
    assert is_minimal_saturating(A)
    assert decompose_saturating(A) == []


def test_decompose_round_two_element():
    A = els(3, [1, 3])
    decs = decompose_round(A)
    assert {d.shift for d in decs} == {1, 3}
    for d in decs:
        assert d.expand() == A
        assert is_sum_free(d.base)
    with pytest.raises(ValueError):
        decompose_round(els(3, [1]))


def test_decompose_round_of_coset_empty():
    A = construct_coset(3)
    assert decompose_round(A) == []


def test_decompose_round_agrees_with_star_centers():
    rnd = random.Random(21)
    agree = 0
    for _ in range(4000):
        r = rnd.randint(2, 5)
        bits = rnd.getrandbits(1 << r)
        A = ElementSet(r, bits)
        if len(A) < 2:
            continue
        centers = spanning_star_centers(build(A))
        decs = decompose_round(A)
        assert sorted(d.shift for d in decs) == centers.elements(), A
        agree += 1
    assert agree > 3000


def test_decompositions_equal_the_per_shift_oracles_at_ranks_0_to_4():
    # Every set: the round forms of each |A| >= 2 and the shifted-cap forms
    # of each A without 0, with shifts, bases and order. The oracles'
    # predicates are memoised per base, so rank 4 takes a few seconds.
    for r in range(5):
        sum_free = functools.lru_cache(maxsize=None)(is_sum_free)
        maximal = functools.lru_cache(maxsize=None)(is_maximal_sum_free)
        for bits in range(1 << (1 << r)):
            A = ElementSet(r, bits)
            if len(A) >= 2:
                assert decompose_round(A) == oracle_decompose_round(A, sum_free), A
            if not bits & 1:
                assert decompose_saturating(A) == oracle_decompose_saturating(A, maximal), A
    # The empty set has no form at rank 0 too, where 2({0}) is the group.
    assert decompose_saturating(ElementSet(0, 0)) == []


def test_decompositions_equal_the_oracles_on_random_sets_and_shifted_caps():
    rnd = random.Random(22)
    for _ in range(300):
        r = rnd.randint(5, 7)
        A = ElementSet(r, rnd.getrandbits(1 << r))
        if len(A) >= 2:
            assert decompose_round(A) == oracle_decompose_round(A), A
        assert decompose_saturating(A.nonzero()) == oracle_decompose_saturating(A.nonzero()), A
    rng = Xorshift64(22)
    for _ in range(60):
        r = 3 + rng.randrange(6)
        S = random_sum_free(rng, r, maximal=True)
        shifts = S.with_zero().elements()
        for s in (shifts[rng.randrange(len(shifts))], 0):
            A = construct_shifted_cap(S, s)
            decs = decompose_saturating(A)
            assert decs == oracle_decompose_saturating(A), (S, s)
            assert Decomposition("saturating", s, S) in decs
            assert decompose_round(A.with_zero()) == oracle_decompose_round(A.with_zero())


def test_star_forms_take_one_unique_sum_pass_and_one_predicate_per_shift(monkeypatch):
    # The rank-12 star {0} ∪ (e + H), 2,049 points, has the one shift 0, and
    # its coset e + H has no round shift; a per-shift loop would test every
    # point.
    calls = collections.Counter()
    for name in ("_two_and_unique", "is_sum_free", "is_maximal_sum_free"):
        def counted(*args, _name=name, _real=getattr(structure, name)):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(structure, name, counted)
    r = 12
    coset = construct_coset(r)
    star = coset.with_zero()
    assert decompose_round(star) == [Decomposition("round", 0, coset)]
    assert calls == {"_two_and_unique": 1, "is_sum_free": 1}
    calls.clear()
    assert decompose_saturating(coset) == [Decomposition("saturating", 0, coset)]
    assert calls == {"_two_and_unique": 1, "is_maximal_sum_free": 1}
    calls.clear()
    assert decompose_round(coset) == []
    assert calls == {"_two_and_unique": 1}


def test_forged_unique_sums_raise_internal_error():
    # Marking every nonzero sum of the whole rank-2 group as unique makes
    # every point a shift; the base check must raise, under python -O too.
    script = textwrap.dedent("""
        from f2sets import ElementSet, InternalError, structure

        real = structure._two_and_unique

        def forged(A):
            two, unique = real(A)
            return two, two & ~1

        structure._two_and_unique = forged
        for decompose, A in ((structure.decompose_round, ElementSet(2, 0b1111)),
                             (structure.decompose_saturating, ElementSet(2, 0b1110))):
            try:
                decompose(A)
            except InternalError:
                print("raised")
    """)
    src = str(Path(f2sets.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for flags in ([], ["-O"]):
        proc = subprocess.run([sys.executable, *flags, "-c", script],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.stdout.split() == ["raised", "raised"], (flags, proc.stderr)


# -- classification of maximal sum-free sets


def test_classify_index_two_coset():
    for r in (1, 2, 3, 4, 5, 6):
        S = construct_coset(r)
        cls = classify_max_sumfree(S)
        assert cls.tag == "index_two_coset"
        assert cls.coset_subgroup is not None
        assert cls.coset_subgroup.index == 2


def test_classify_five_point_form():
    S = five_point_form_r5()
    assert len(S) == 10
    cls = classify_max_sumfree(S)
    assert cls.tag == "five_point_form"
    assert cls.period_subgroup is not None and cls.period_subgroup.index == 16
    pts = cls.quotient_points
    assert pts is not None and len(pts) == 5
    total = 0
    for p in pts:
        total ^= p
    assert total == 0
    # r=4 degenerate: the five points alone
    S4 = els(4, [1, 2, 4, 8, 15])
    assert classify_max_sumfree(S4).tag == "five_point_form"


def test_classify_rejects_non_maximal():
    with pytest.raises(ValueError):
        classify_max_sumfree(els(4, [1, 2]))


def test_classify_other_exists_below_bound():
    # the 9-element complete cap at r=5 is neither shape
    from f2sets.search import enumerate_classes

    rep = enumerate_classes(5, "maximal-sum-free", action="linear", size_max=9)
    nine = [S for e in rep.entries if e.size == 9 for S in e.representatives]
    assert nine and all(classify_max_sumfree(S).tag == "other" for S in nine)


# -- constructions


def test_constructions_are_minimal_saturating():
    for r in (2, 3, 4, 5):
        assert is_minimal_saturating(construct_coset(r))
        assert is_minimal_saturating(construct_punctured(r))
    S = five_point_form_r5()
    for s in [0] + S.elements():
        A = construct_shifted_cap(S, s)
        assert is_minimal_saturating(A)
        assert len(A) == len(S)
        got = decompose_saturating(A)
        assert any(d.shift == s and d.base == S for d in got)


def test_cap_replacement_equals_shifted_form():
    S = five_point_form_r5()
    s = S.elements()[3]
    assert construct_cap_replacement(S, s) == construct_shifted_cap(S, s)
    with pytest.raises(ValueError):
        construct_cap_replacement(S, 0)


def test_cap_replacement_is_not_a_cap_at_r6():
    # above the classification bound the replaced set always has a line
    for base_kind in ("coset", "five-point"):
        if base_kind == "coset":
            S = construct_coset(6)
        else:
            bits = 0
            for b in (1, 2, 4, 8, 15):
                for h in Subgroup.generated_by(6, [16, 32]).members:
                    bits |= 1 << (b ^ h)
            S = ElementSet(6, bits)
        assert is_maximal_sum_free(S)
        assert len(S) > 9 * 2
        for s in S.elements()[:3]:
            replaced = construct_cap_replacement(S, s)
            assert not is_sum_free(replaced)


def test_construct_dispatch_and_errors():
    A = construct_coset(3)
    assert A.elements() == [4, 5, 6, 7]
    with pytest.raises(ValueError):
        construct_subgroup_union(3)
    with pytest.raises(ValueError):
        construct_shifted_cap(els(3, [1, 2, 3]), 1)


def test_construct_subgroup_union_size():
    for r in (4, 5, 6):
        A = construct_subgroup_union(r)
        assert len(A) == (1 << (r - 2)) + 2


# -- blocking sets


def test_lines_enumeration():
    got = list(oracle_lines(2))
    assert got == [(1, 2, 3)]
    got3 = list(oracle_lines(3))
    assert len(got3) == 7
    for x, y, z in got3:
        assert x < y < z and x ^ y ^ z == 0


def test_blocking_examples():
    B = Subgroup.generated_by(4, [1, 2, 4]).members.nonzero()
    assert is_blocking(B)
    rep = is_blocking(els(4, [1]))
    assert not rep and "line" in rep.witness
    with pytest.raises(ValueError):
        is_blocking(els(3, [0, 1]))


def test_blocking_reports_match_the_line_scan():
    # Every set at ranks 1-4, then seeded sets at ranks 5-7: random ones, and
    # complements of random complete caps with at most one point toggled, so
    # that blocking and minimal-blocking verdicts of both kinds occur.
    sets = [ElementSet(r, mask << 1) for r in range(1, 5) for mask in range(1 << ((1 << r) - 1))]
    rnd = random.Random(16)
    for r in (5, 6, 7):
        for k in range(12):
            if k % 3 == 0:
                bits = rnd.getrandbits(1 << r)
            else:
                bits = random_sum_free(Xorshift64(100 * r + k), r, maximal=True).complement().bits
                for _ in range(k % 3 - 1):
                    bits ^= 1 << rnd.randrange(1, 1 << r)
            sets.append(ElementSet(r, bits & ~1))
    verdicts = set()
    for B in sets:
        got = (is_blocking(B).to_json(), is_minimal_blocking(B).to_json())
        assert got == oracle_blocking_reports(B), B
        if B.rank >= 5:
            verdicts.add((got[0]["verdict"], got[1]["verdict"]))
    assert verdicts == {(False, False), (True, False), (True, True)}


def test_minimal_blocking_at_rank_10_is_fast():
    # The per-point line rescan this replaced took about 29 s on a 2-vCPU
    # host; through the complementary cap it is one sumset.
    B = construct_coset(10).complement().nonzero()
    t0 = time.perf_counter()
    assert is_minimal_blocking(B)
    assert time.perf_counter() - t0 < 5.0


def test_minimal_blocking_takes_one_sumset(monkeypatch):
    # The cap complement of the rank-12 coset: one 2C serves the blocking
    # test and the removal test.
    B = construct_coset(12).complement().nonzero()
    calls = collections.Counter()
    real = sumsets.sumset
    monkeypatch.setattr(sumsets, "sumset", lambda *sets: calls.update(["sumset"]) or real(*sets))
    assert is_minimal_blocking(B)
    assert calls == {"sumset": 1}


def test_blocking_duality_random():
    rnd = random.Random(22)
    for _ in range(3000):
        r = rnd.randint(2, 5)
        B = ElementSet(r, rnd.getrandbits(1 << r) & ~1)
        assert bool(is_blocking(B)) == bool(is_sum_free(B.complement().nonzero()))


def test_minimal_blocking_duality_exhaustive_r3():
    for mask in range(1 << 7):
        B = ElementSet(3, mask << 1)
        lhs = bool(is_minimal_blocking(B))
        rhs = bool(is_maximal_sum_free(B.complement().nonzero()))
        assert lhs == rhs, B


def test_tangent_construction():
    B = Subgroup.generated_by(4, [1, 2, 4]).members.nonzero()
    s = 8
    T = tangent_construction(B, s)
    assert s in T
    for b in T.without_element(s):
        assert b in B and (s ^ b) not in B
    with pytest.raises(ValueError):
        tangent_construction(B, 1)
    with pytest.raises(ValueError):
        tangent_construction(B, 0)


def test_blocking_dual_route_matches_cap_route_exhaustively_r4():
    # every size-8 minimal saturating set at r=4, through both doors:
    # shifted-cap form on one side, complement blocking set plus tangent
    # construction on the other
    from f2sets.search import plain_scan

    big = plain_scan(4, lambda A: len(A) == 8 and bool(is_minimal_saturating(A)))
    assert len(big) == 135
    for A in big:
        decs = decompose_saturating(A)
        assert decs
        for d in decs:
            blocker = d.base.complement().nonzero()
            assert is_minimal_blocking(blocker)
            if d.shift == 0:
                assert A == d.base
            else:
                assert A == tangent_construction(blocker, d.shift)


def test_equivalence_class_surrogate_r5():
    # desk-scale surrogate of the four-class picture: each large cap class
    # yields exactly one replacement class, independent of the fixed point,
    # and the replacement is never equivalent to a cap
    from f2sets.search import canonical_form, enumerate_classes

    rep = enumerate_classes(5, "maximal-sum-free", action="linear")
    caps = {e.size: e.representatives[0] for e in rep.entries}
    classes = set()
    for size in (16, 10):
        S = caps[size]
        cap_canon = canonical_form(S, "linear").set.bits
        replaced = {
            canonical_form(construct_cap_replacement(S, s), "linear").set.bits
            for s in S
        }
        assert len(replaced) == 1
        assert cap_canon not in replaced
        assert not is_sum_free(construct_cap_replacement(S, S.min_element()))
        classes.add(cap_canon)
        classes.update(replaced)
    # second representative of the index-2 family gives the same class
    other = construct_coset(5, g=17)
    assert (
        canonical_form(construct_cap_replacement(other, 17), "linear").set.bits
        in classes
    )
    assert len(classes) == 4


def test_tangent_equals_cap_replacement_through_duality():
    # S a complete cap, B its blocking complement, s in S: the tangent points
    # of B seen from s are exactly the replaced cap. (b in B is tangent iff
    # s + b lands in S, and s + (S minus s) avoids both 0 and S.)
    for S in (five_point_form_r5(), construct_coset(5), construct_coset(4)):
        B = S.complement().nonzero()
        assert is_minimal_blocking(B)
        for s in S.elements()[:4]:
            T = tangent_construction(B, s)
            assert T == construct_cap_replacement(S, s)
            for b in T.without_element(s):
                line = {s, b, s ^ b}
                assert line & set(B.elements()) == {b}


# -- coset census


def test_census_on_fixture_suite():
    for r in (6, 7):
        for A, first, second in census_fixture_suite(r, 10, seed=2):
            census = coset_census(A, first, second)
            assert census.identities_hold()
            assert census.dg_bounds_hold
            assert census.count("30") == 0 and census.count("40") == 0
            total = sum(census.type_counts.values())
            assert total == (1 << (r - 3)) - 1
            weighted = sum(int(k[0]) * v for k, v in census.type_counts.items())
            assert weighted == len(A) - 4


def test_census_against_bucketing_oracle():
    A, first, second = census_fixture_suite(6, 1, seed=3)[0]
    census = coset_census(A, first, second)
    a1 = first[1]
    a2, a3 = second
    L = Subgroup.generated_by(6, [a1, a2, a3])
    D = unique_sums(A)
    # brute bucketing by coset representative
    buckets = {}
    for x in range(64):
        rep = min((x ^ h) for h in L.members.elements())
        buckets.setdefault(rep, [0, 0])
    for x in A:
        rep = min((x ^ h) for h in L.members.elements())
        buckets[rep][0] += 1
    for x in D:
        rep = min((x ^ h) for h in L.members.elements())
        buckets[rep][1] += 1
    by_rep = {}
    for rec in census.records:
        rep = min((rec.rep ^ h) for h in L.members.elements())
        by_rep[rep] = rec
    assert set(by_rep) == set(buckets)
    for rep, (a_count, d_count) in buckets.items():
        assert by_rep[rep].set_count == a_count
        assert by_rep[rep].unique_count == d_count


def test_census_subgroup_shapes():
    A, first, second = census_fixture_suite(6, 1, seed=4)[0]
    census = coset_census(A, first, second)
    assert census.edge_span.order == 8
    assert census.side_minus.order == 4
    assert census.side_plus.order == 4
    assert census.core_pair.order == 2
    assert census.label_span.order == 4
    inter = census.side_minus.members.intersect(census.side_plus.members)
    assert inter == census.core_pair.members
    a1 = first[1]
    a2, a3 = second
    assert a1 ^ a2 ^ a3 in census.core_pair.members


def test_census_preconditions():
    with pytest.raises(CensusError):
        coset_census(els(3, [1, 2]))  # no zero
    with pytest.raises(CensusError):
        coset_census(els(3, [0, 1]))  # round but only one edge
    star = Subgroup.generated_by(5, [1, 2, 4, 8]).members.translate(16).with_zero()
    with pytest.raises(CensusError):
        coset_census(star)  # spanning star: no isolated edge pair
    nonround = Subgroup.generated_by(4, [1, 2]).members
    with pytest.raises(CensusError):
        coset_census(nonround)


def test_census_identities_hold_even_below_size_threshold():
    # freshly searched sets: identities are unconditional; the sharper bounds
    # may fail below the size hypothesis and must then be reported, not raised
    found = round_sets_with_isolated_edges(6, 12, seed=5)
    assert len(found) == 12
    for A, first, second in found:
        try:
            census = coset_census(A, first, second)
        except CensusError:
            continue  # e.g. dependent edges or extra elements in the edge span
        assert census.identities_hold()
        if census.size_hypothesis:
            assert census.dg_bounds_hold


def test_census_payloads_are_pinned(monkeypatch):
    # The digest was recorded when roundness and D(A) each took a count
    # table of their own; the census reads both off its graph's one table.
    fixtures = (census_fixture_suite(6, 10, seed=2) + census_fixture_suite(7, 10, seed=2)
                + round_sets_with_isolated_edges(6, 12, seed=5))
    calls = []
    real = sumsets.rep_counts

    def counted(A):
        calls.append(A)
        return real(A)

    monkeypatch.setattr(sumsets, "rep_counts", counted)
    monkeypatch.setattr(urgraph, "rep_counts", counted)
    payloads = [coset_census(A, first, second).to_json() for A, first, second in fixtures]
    assert calls == [A for A, _, _ in fixtures]
    digest = hashlib.sha256(json.dumps(payloads, sort_keys=True).encode()).hexdigest()
    assert digest == "0cc3d28eac5186d7f8432a0db574e7848855b02270051705980ef236af2e5582"


def test_census_json_schema():
    A, first, second = census_fixture_suite(7, 1, seed=6)[0]
    payload = coset_census(A, first, second).to_json()
    for key in ("r", "size", "first_edge", "second_edge", "subgroup_bases",
                "type_counts", "identities_hold", "dg_bounds_hold", "records"):
        assert key in payload
    assert len(payload["records"]) == 1 << (payload["r"] - 3)
