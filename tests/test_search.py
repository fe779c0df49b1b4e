import itertools
import random
import time

import numpy as np
import pytest

from f2sets import (
    ElementSet,
    is_maximal_sum_free,
    is_minimal_saturating,
    is_round,
    is_sum_free,
    sumset,
    unique_sums,
)
from f2sets.generators import linear_image
from f2sets.rng import Xorshift64
from f2sets.search import (
    MinimalSaturatingProfile,
    SearchBudget,
    _AuditLog,
    _Enumerator,
    _lattice_scan,
    _recheck_canonical_prune,
    _recheck_cap_drop,
    _recheck_profile_prune,
    _subtree_worker,
    canonical_form,
    enumerate_classes,
    find_example,
    plain_scan,
    second_largest_check,
    threshold_value,
    verify_classification,
    verify_factdt,
    _is_canonical,
    _word_less,
)

from conftest import apply_map


def els(r, elements):
    return ElementSet.from_elements(r, elements)


# -- canonical forms


def test_gl2_identifies_all_pairs():
    a = canonical_form(els(2, [1, 2]), "linear").set
    b = canonical_form(els(2, [1, 3]), "linear").set
    c = canonical_form(els(2, [2, 3]), "linear").set
    assert a == b == c


def test_canonical_linear_rejects_zero_without_override():
    with pytest.raises(ValueError):
        canonical_form(els(3, [0, 1]), "linear")
    ok = canonical_form(els(3, [0, 1]), "linear", allow_zero=True).set
    assert 0 in ok


def test_canonical_idempotent_and_invariant(gl3):
    rnd = random.Random(31)
    for _ in range(300):
        bits = rnd.getrandbits(8) & ~1
        A = ElementSet(3, bits)
        c = canonical_form(A, "linear").set
        assert canonical_form(c, "linear").set == c
        cols = list(rnd.choice(gl3))
        image = linear_image(A, cols)
        assert canonical_form(image, "linear").set == c


def test_canonical_matches_full_orbit_minimum(gl3):
    for mask in range(1 << 7):
        bits = mask << 1
        best = bits
        for cols in gl3:
            img = linear_image(ElementSet(3, bits), cols).bits
            if _word_less(img, best):
                best = img
        A = ElementSet(3, bits)
        assert canonical_form(A, "linear").set.bits == best
        assert _is_canonical(A, "linear")[0] == (bits == best)


def test_class_count_of_triples_matches_burnside_oracle(gl3):
    # explicit orbit partition of all C(7,3) subsets under all 168 maps
    orbits = set()
    for combo in itertools.combinations(range(1, 8), 3):
        bits = sum(1 << e for e in combo)
        best = bits
        for cols in gl3:
            img = linear_image(ElementSet(3, bits), cols).bits
            if _word_less(img, best):
                best = img
        orbits.add(best)
    report = enumerate_classes(3, "any", action="linear", size_min=3, size_max=3)
    assert report.count_for(3) == len(orbits)
    reps = {s.bits for e in report.entries for s in e.representatives}
    assert reps == orbits


def test_affine_canonical_contains_zero():
    rnd = random.Random(32)
    for _ in range(100):
        bits = rnd.getrandbits(16)
        if not bits:
            continue
        c = canonical_form(ElementSet(4, bits), "affine").set
        assert 0 in c
        assert len(c) == bits.bit_count()


def _orbit_minima(r, maps, sets):
    """Lexicographic orbit minimum of each set under the given maps, by brute
    force. X precedes Y when the least element of X ^ Y is in X, i.e. when X
    is larger with element order reversed, so the minimum is an argmax."""
    n = 1 << r
    perm = np.array([[apply_map(cols, e) for e in range(n)] for cols in maps])
    rev = np.left_shift(np.int64(1), (n - 1) - perm)  # image of e, element order reversed
    out = []
    for bits in sets:
        members = [e for e in range(n) if (bits >> e) & 1]
        best = int(rev[:, members].sum(axis=1).max()) if members else 0
        out.append(sum(1 << (n - 1 - i) for i in range(n) if (best >> i) & 1))
    return out


def test_engine_matches_orbit_minimum_gl4_sampled(gl4):
    rnd = random.Random(34)
    sets = []
    for size in range(1, 16):
        for _ in range(12):
            sets.append(sum(1 << e for e in rnd.sample(range(1, 16), size)))
    minima = _orbit_minima(4, gl4, sets)
    sets += minima  # the minima themselves must test canonical
    for bits, best in zip(sets, minima + minima):
        A = ElementSet(4, bits)
        assert canonical_form(A, "linear").set.bits == best
        assert _is_canonical(A, "linear")[0] == (bits == best)


def _affine_orbit_minima(r, gl, sets):
    """Orbit minima under the affine group, by brute force: the orbit of A is
    every linear image of every translate A + t."""
    n = 1 << r
    translates = [sum(1 << (e ^ t) for e in range(n) if (bits >> e) & 1)
                  for bits in sets for t in range(n)]
    minima = _orbit_minima(r, gl, translates)
    out = []
    for i in range(len(sets)):
        best = minima[i * n]
        for cand in minima[i * n + 1:(i + 1) * n]:
            if _word_less(cand, best):
                best = cand
        out.append(best)
    return out


def _check_affine_verdicts(r, sets, minima):
    for bits, best in zip(sets, minima):
        A = ElementSet(r, bits)
        assert canonical_form(A, "affine").set.bits == best
        ok, cert, _ = _is_canonical(A, "affine")
        assert ok == (bits == best)
        if not ok:
            assert _recheck_canonical_prune(A, cert)


def test_affine_verdicts_match_agl3_exhaustively(gl3):
    sets = list(range(1 << 8))
    _check_affine_verdicts(3, sets, _affine_orbit_minima(3, gl3, sets))


def test_affine_verdicts_match_agl4_sampled(gl4):
    rnd = random.Random(35)
    sets = [sum(1 << e for e in rnd.sample(range(16), size))
            for size in range(1, 17) for _ in range(6)]
    minima = _affine_orbit_minima(4, gl4, sets)
    # The minima themselves must test canonical.
    _check_affine_verdicts(4, sets + minima, minima + minima)


@pytest.mark.parametrize("predicate", ["any", "round"])
def test_affine_enumeration_matches_agl3_orbit_minima(gl3, predicate):
    accept = (lambda A: True) if predicate == "any" else (lambda A: bool(is_round(A)))
    sets = [A.bits for A in plain_scan(3, accept, include_zero=True)]
    classes = {}
    for bits in set(_affine_orbit_minima(3, gl3, sets)):
        classes.setdefault(bits.bit_count(), set()).add(bits)
    report = enumerate_classes(3, predicate, action="affine")
    assert report.complete
    assert {e.size: {s.bits for s in e.representatives} for e in report.entries} == classes


def test_affine_enumeration_rejects_zero_free_predicates():
    for predicate in ("minimal-saturating", "maximal-sum-free", "saturating", "sum-free"):
        with pytest.raises(ValueError):
            enumerate_classes(4, predicate, action="affine")


def test_is_canonical_witness_is_verifiable():
    rnd = random.Random(33)
    seen_witness = 0
    for _ in range(200):
        bits = rnd.getrandbits(32) & ~1
        A = ElementSet(5, bits)
        ok, cert, _ = _is_canonical(A, "linear")
        if not ok and cert["cols"]:
            img = linear_image(A, cert["cols"]).bits
            assert _word_less(img, bits)
            seen_witness += 1
    assert seen_witness > 100


# -- orderly enumeration


def test_enumeration_matches_plain_scan_exhaustively(gl3):
    for predicate, accept in [
        ("sum-free", lambda A: bool(is_sum_free(A))),
        ("minimal-saturating", lambda A: len(A) > 0 and bool(is_minimal_saturating(A))),
        ("maximal-sum-free", lambda A: bool(is_maximal_sum_free(A)) and 0 not in A),
    ]:
        for r in (2, 3):
            report = enumerate_classes(r, predicate, action="linear")
            labeled = plain_scan(r, accept)
            classes = {}
            for A in labeled:
                c = canonical_form(A, "linear").set.bits
                classes.setdefault(len(A), set()).add(c)
            assert {e.size: e.class_count for e in report.entries} == {
                k: len(v) for k, v in classes.items()
            }, (predicate, r)
            for e in report.entries:
                assert {s.bits for s in e.representatives} == classes[e.size]


def test_enumeration_matches_plain_scan_r4_strata():
    # sum-free strata up to size 6 at r=4
    report = enumerate_classes(4, "sum-free", action="linear", size_max=6)
    labeled = plain_scan(4, lambda A: len(A) <= 6 and bool(is_sum_free(A)))
    classes = {}
    for A in labeled:
        classes.setdefault(len(A), set()).add(canonical_form(A, "linear").set.bits)
    for e in report.entries:
        assert e.class_count == len(classes[e.size])


def test_every_representative_passes_its_predicate():
    report = enumerate_classes(5, "minimal-saturating", action="linear")
    for e in report.entries:
        for A in e.representatives:
            assert is_minimal_saturating(A)
    report = enumerate_classes(5, "maximal-sum-free", action="linear")
    for e in report.entries:
        for A in e.representatives:
            assert is_maximal_sum_free(A)


def test_enumeration_deterministic_and_parallel_equal():
    key = lambda rep: [(e.size, e.class_count, tuple(s.bits for s in e.representatives))
                       for e in rep.entries] + [rep.nodes]
    for predicate in ("maximal-sum-free", "minimal-saturating"):
        a = enumerate_classes(5, predicate, action="linear")
        b = enumerate_classes(5, predicate, action="linear")
        c = enumerate_classes(5, predicate, action="linear", threads=2)
        assert key(a) == key(b) == key(c)


def test_parallel_head_splits_into_enough_subtrees():
    # Under the linear action the tree is a path down to {1, 2}; the head
    # must go deeper than that before it has subtrees to hand out.
    head = _Enumerator(5, "minimal-saturating", "linear", 0, None, SearchBudget(), None)
    head.split(4)
    assert len(head.frontier) >= 4
    assert len({node[0] for node in head.frontier}) == len(head.frontier)


def test_pool_task_stops_at_the_run_deadline():
    # A task handed out after the run's time budget is spent visits one node.
    head = _Enumerator(6, "minimal-saturating", "linear", 0, None, SearchBudget(), None)
    head.split(4)
    node = head.frontier[-1]
    started = time.monotonic() - 5
    args = (6, "minimal-saturating", "linear", 0, None, node, None, 1.0, started)
    hits, nodes, exceeded = _subtree_worker(args)
    assert exceeded and nodes == 1 and not hits


@pytest.mark.parametrize("threads", [2, 4])
def test_node_budget_holds_across_threads(threads):
    key = lambda rep: [(e.size, e.class_count, tuple(s.bits for s in e.representatives))
                       for e in rep.entries] + [rep.nodes]
    # Head and pool tasks draw on one node count, not one budget per task:
    # like the sequential run, the run stops at the first node past the
    # limit (a lost update to the shared count would show as more nodes).
    capped = enumerate_classes(5, "minimal-saturating", action="linear",
                               budget=SearchBudget(max_nodes=100), threads=threads)
    assert not capped.complete
    assert capped.nodes == 101
    sequential = enumerate_classes(5, "minimal-saturating", action="linear")
    ample = enumerate_classes(5, "minimal-saturating", action="linear",
                              budget=SearchBudget(max_nodes=10**6), threads=threads)
    assert ample.complete
    assert key(ample) == key(sequential)


def test_budget_exhaustion_reports_incomplete():
    report = enumerate_classes(5, "sum-free", action="linear",
                               budget=SearchBudget(max_nodes=5))
    assert not report.complete
    payload = report.to_json()
    assert payload["complete"] is False


def test_audit_mode_rechecks_pruned_nodes():
    report = enumerate_classes(5, "minimal-saturating", action="linear",
                               audit=True, seed=9)
    assert report.audit is not None
    assert report.audit["checked"] > 0
    assert report.audit["failures"] == 0
    # The stabiliser-orbit rule only reorders how rejects are found: the
    # tree, its prune count and the classes stay those of the plain search.
    assert {e.size: e.class_count for e in report.entries} == {9: 2, 10: 7, 11: 1, 16: 2}
    assert report.nodes == 271
    assert report.audit["pruned_total"] == 2603


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_minimal_saturating_profile_state_matches_scratch(r):
    # Every subset of the nonzero points, reached by ascending extends: the
    # state is (P, 2P ∪ {0}, U(P)), and extend prunes exactly the sets with a
    # covering single removal. A pruned child's walk goes on from its state
    # recomputed from scratch, so supersets of pruned sets are checked too.
    profile = MinimalSaturatingProfile()

    def scratch(bits):
        P = ElementSet(r, bits)
        return (bits, sumset(P, P).bits | 1, unique_sums(P).bits & ~1)

    root = profile.root(r)
    assert root == scratch(0)
    stack = [(0, root, 0)]
    visited = 0
    while stack:
        bits, state, last = stack.pop()
        for x in range(last + 1, 1 << r):
            child = bits | (1 << x)
            got = profile.extend(r, state, x)
            want = scratch(child)
            pruned = _recheck_profile_prune("minimal-saturating", ElementSet(r, child))
            assert (got is None) == pruned, child
            assert got is None or got == want, child
            stack.append((child, want, x))
            visited += 1
    assert visited == (1 << ((1 << r) - 1)) - 1


@pytest.mark.parametrize("predicate", ["minimal-saturating", "maximal-sum-free"])
def test_size_cap_keeps_the_uncapped_entries(predicate):
    key = lambda entries: [(e.size, e.class_count, tuple(s.bits for s in e.representatives))
                           for e in entries]
    # Rank 4 runs every cap; some of its classes end at the top point 15, so
    # no point is left above them to add.
    for r, caps in ((4, range(1, 16)), (5, range(9, 17))):
        full = enumerate_classes(r, predicate, action="linear")
        tops = {s.bits.bit_length() - 1 for e in full.entries for s in e.representatives}
        assert r == 5 or (1 << r) - 1 in tops
        for cap in caps:
            capped = enumerate_classes(r, predicate, action="linear", size_max=cap)
            assert capped.complete
            assert key(capped.entries) == key(e for e in full.entries if e.size <= cap), (r, cap)


# The size-13 classes of the rank-6 minimal saturating stratum, as the search
# found them before it dropped children the cap leaves unable to cover.
RANK6_CAP13 = [
    [1, 2, 3, 4, 5, 6, 8, 16, 31, 32, 47, 55, 56],
    [1, 2, 3, 4, 5, 8, 10, 16, 28, 32, 44, 55, 59],
    [1, 2, 3, 4, 5, 8, 9, 16, 30, 32, 46, 50, 61],
    [1, 2, 3, 4, 5, 6, 8, 16, 25, 32, 41, 49, 62],
    [1, 2, 3, 4, 5, 6, 8, 16, 24, 32, 40, 48, 63],
    [1, 2, 3, 4, 5, 8, 9, 16, 30, 32, 46, 48, 63],
    [1, 2, 4, 7, 8, 11, 13, 16, 30, 32, 46, 49, 63],
    [1, 2, 3, 4, 5, 8, 14, 16, 25, 32, 41, 54, 63],
]


def test_rank6_stratum_at_cap_13():
    report = enumerate_classes(6, "minimal-saturating", action="linear", size_max=13)
    assert report.complete
    assert [(e.size, e.class_count) for e in report.entries] == [(13, 8)]
    assert [s.elements() for s in report.entries[0].representatives] == RANK6_CAP13
    # Nodes left by the coverage bound of docs/search-pruning.md §6.
    assert report.nodes == 427


def test_cap_drops_carry_valid_certificates():
    for predicate in ("minimal-saturating", "maximal-sum-free"):
        log = _AuditLog(10**6, 9)
        walker = _Enumerator(5, predicate, "linear", 0, 10, SearchBudget(), log)
        walker.run()
        drops = [e for e in log.samples if e["kind"] == "cap"]
        assert drops
        for e in drops:
            assert _recheck_cap_drop(predicate, ElementSet(5, e["bits"]), e["extra"])
    report = enumerate_classes(5, "minimal-saturating", action="linear", size_max=10,
                               audit=True, seed=9)
    assert report.audit["failures"] == 0
    assert report.audit["checked"] == report.audit["sampled"] > 0
    # A saturating set already covers the group: no cap can justify dropping
    # it, and an entry of unknown kind is never taken as checked.
    covering = report.entries[0].representatives[0]
    forged = _AuditLog(10, 1)
    forged.record("cap", 5, covering.bits, {"room": 0})
    forged.record("mystery", 5, covering.bits, None)
    result = forged.verify("minimal-saturating")
    assert result["failures"] == 2
    assert result["failed_entries"] == [
        {"kind": "cap", "r": 5, "set": covering.to_json(), "extra": {"room": 0}},
        {"kind": "mystery", "r": 5, "set": covering.to_json(), "extra": None},
    ]


def test_cap_recheck_counts_points_above_the_maximum():
    # Without its largest point y, a minimal saturating set S covers less than
    # the group, and y alone completes it: room 1 can never justify a drop.
    for e in enumerate_classes(5, "minimal-saturating", action="linear").entries:
        for S in e.representatives:
            top = max(S)
            rest = S.without_element(top)
            assert not _recheck_cap_drop("minimal-saturating", rest, {"room": 1})
            # With no room at all, the uncovered points stay uncovered.
            assert _recheck_cap_drop("minimal-saturating", rest, {"room": 0})


def _check_orbit_rule_rejects(r, predicate, action):
    log = _AuditLog(10**6, 9)
    walker = _Enumerator(r, predicate, action, 0, None, SearchBudget(), log)
    walker.run()
    orbit = [e for e in log.samples
             if e["kind"] == "canonical" and e["extra"].get("rule") == "orbit"]
    canonical = [e for e in log.samples if e["kind"] == "canonical"]
    assert len(orbit) > len(canonical) // 2
    for e in orbit:
        A = ElementSet(r, e["bits"])
        assert _recheck_canonical_prune(A, e["extra"])
        # The map fixes the parent and moves the new point below itself.
        top = e["bits"].bit_length() - 1
        parent = e["bits"] ^ (1 << top)
        cols = e["extra"]["cols"]
        assert linear_image(ElementSet(r, parent), cols).bits == parent
        assert apply_map(cols, top) < top


def test_orbit_rule_rejects_carry_valid_certificates():
    _check_orbit_rule_rejects(5, "minimal-saturating", "linear")


def test_orbit_rule_runs_under_the_affine_action():
    # The recorded automorphisms are linear maps fixing the parent, so they
    # lie in the affine group as well.
    _check_orbit_rule_rejects(4, "any", "affine")


def test_converse_enumeration_keeps_the_budget():
    started = time.monotonic()
    out = verify_classification(6, budget=SearchBudget(max_seconds=1))
    assert time.monotonic() - started < 10
    assert out["complete"] is False and out["verdict"] is False
    # A node limit counts both runs; `nodes` counts the first (271 nodes,
    # then 39 for the maximal sum-free sets).
    out = verify_classification(5, budget=SearchBudget(max_nodes=300))
    assert out["nodes"] == 271 and out["complete"] is False
    assert verify_classification(5, budget=SearchBudget(max_nodes=310))["complete"]


def test_r5_maximal_sum_free_sizes():
    report = enumerate_classes(5, "maximal-sum-free", action="linear")
    assert report.complete
    assert {e.size: e.class_count for e in report.entries} == {9: 1, 10: 1, 16: 1}


def test_r5_minimal_saturating_spectrum():
    report = enumerate_classes(5, "minimal-saturating", action="linear")
    assert report.complete
    got = {e.size: e.class_count for e in report.entries}
    assert got == {9: 2, 10: 7, 11: 1, 16: 2}
    assert report.max_size() == 16


# -- verifiers


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_lattice_scan_matches_plain_scan(r):
    minimal, max_sf = _lattice_scan(r)
    assert minimal == plain_scan(r, lambda A: len(A) > 0 and bool(is_minimal_saturating(A)))
    assert max_sf == plain_scan(r, lambda A: bool(is_maximal_sum_free(A)))


def test_threshold_values():
    from fractions import Fraction

    assert threshold_value("paper", 4) == Fraction(44, 9) + 3
    assert threshold_value("light", 4) == Fraction(16, 3) + 2
    assert threshold_value("25/2", 6) == Fraction(25, 2)
    with pytest.raises(ValueError):
        threshold_value("nope", 4)


def test_verify_classification_r3():
    out = verify_classification(3, "paper")
    assert out["verdict"] and out["converse_ok"]
    assert out["max_size"] == 4


def test_verify_classification_r5_light_threshold():
    out = verify_classification(5, "light")
    assert out["verdict"] and out["complete"]


def test_verify_factdt_r4():
    out = verify_factdt(4)
    assert out["verdict"]
    assert set(out["tags"]) == {"index_two_coset", "five_point_form"}


def test_second_largest_r4():
    out = second_largest_check(4)
    assert out["largest"] == 8
    assert out["family_sizes"] == [8, 5]
    assert out["surrogate"] is True


def test_find_example_deterministic():
    a = find_example(5, "minimal-saturating", 11, seed=77)
    b = find_example(5, "minimal-saturating", 11, seed=77)
    assert a is not None and a == b
    assert is_minimal_saturating(a)
    c = find_example(5, "minimal-saturating", 11, seed=78)
    assert c is not None and is_minimal_saturating(c)


# find_example("maximal-sum-free") results recorded before it shared the
# greedy cap grower of generators.random_sum_free.
FIND_MAX_SUM_FREE = {
    (4, 5, 1): [2, 4, 7, 10, 11],
    (4, 6, 3): None,
    (5, 9, 7): [2, 6, 7, 12, 15, 16, 17, 24, 25],
    (5, 10, 11): [1, 4, 6, 8, 11, 17, 18, 24, 29, 31],
    (5, 16, 2): [1, 3, 5, 7, 8, 10, 12, 14, 16, 18, 20, 22, 25, 27, 29, 31],
    (6, 17, 5): [1, 2, 7, 19, 23, 25, 26, 28, 31, 35, 37, 42, 47, 49, 55, 59, 62],
}


def test_find_example_maximal_sum_free_is_unchanged():
    for (r, size, seed), want in FIND_MAX_SUM_FREE.items():
        got = find_example(r, "maximal-sum-free", size, seed, max_restarts=3000)
        assert (got and got.elements()) == want, (r, size, seed)


# find_example("minimal-saturating") results recorded before its trimmer
# took the removable elements from one count table per removal.
FIND_MIN_SATURATING = {
    (3, 4, 1): [2, 3, 4, 5],
    (4, 5, 2): [3, 4, 6, 8, 9],
    (4, 6, 3): [4, 6, 9, 10, 12, 13],
    (4, 7, 4): None,
    (4, 8, 9): [3, 5, 6, 9, 10, 11, 12, 15],
    (5, 9, 5): [2, 5, 6, 14, 15, 16, 17, 30, 31],
    (5, 10, 6): [2, 5, 8, 9, 14, 16, 18, 19, 23, 29],
    (5, 11, 77): [1, 2, 4, 8, 9, 11, 14, 17, 19, 28, 29],
    (5, 12, 8): None,
    (5, 16, 2): None,
    (6, 13, 3): [6, 8, 18, 21, 22, 23, 26, 32, 34, 41, 49, 55, 59],
    (6, 17, 4): [2, 5, 6, 8, 9, 11, 14, 21, 30, 33, 35, 38, 40, 43, 45, 50, 51],
    (6, 22, 5): None,
}


def test_find_example_minimal_saturating_is_unchanged():
    for (r, size, seed), want in FIND_MIN_SATURATING.items():
        got = find_example(r, "minimal-saturating", size, seed, max_restarts=300)
        assert (got and got.elements()) == want, (r, size, seed)


def test_find_example_returns_none_when_impossible():
    assert find_example(3, "maximal-sum-free", 3, seed=1, max_restarts=500) is None


def test_minimal_saturating_found_sets_are_round_after_zero():
    # every minimal saturating set has a round variant: itself or with 0 added
    for r in (3, 4, 5):
        report = enumerate_classes(r, "minimal-saturating", action="linear")
        for e in report.entries:
            for A in e.representatives:
                assert is_round(A) or is_round(A.with_zero())


def test_xorshift_reference_values():
    rng = Xorshift64(1)
    first = [rng.next_u64() for _ in range(3)]
    rng2 = Xorshift64(1)
    assert [rng2.next_u64() for _ in range(3)] == first
    assert all(0 <= x < (1 << 64) for x in first)
    counts = [0, 0]
    rng3 = Xorshift64(99)
    for _ in range(1000):
        counts[rng3.randrange(2)] += 1
    assert 350 < counts[0] < 650
