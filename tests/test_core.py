import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from f2sets import (
    ElementSet,
    InternalError,
    QuotientView,
    RankMismatchError,
    Subgroup,
    add,
    is_subgroup,
    period,
    quotient_project,
    span,
    subgroup_sum,
    sumset,
)
from f2sets import core
from f2sets.core import translate_bits

from conftest import oracle_period, oracle_span, oracle_translate

small_sets = st.integers(min_value=1, max_value=6).flatmap(
    lambda r: st.tuples(st.just(r), st.integers(min_value=0, max_value=(1 << (1 << r)) - 1))
)


def test_add_is_xor():
    assert add(0b101, 0b011) == 0b110
    assert add(13, 0) == 13
    assert add(9, 9) == 0


def test_add_range_check():
    with pytest.raises(RankMismatchError):
        add(9, 1, rank=3)


def test_set_literal_round_trip():
    A = ElementSet.from_elements(4, [3, 1, 9])
    assert A.to_json() == {"r": 4, "elements": [1, 3, 9]}
    assert ElementSet.from_json(A.to_json()) == A
    assert ElementSet.from_json(A.to_hex_json()) == A


def test_set_literal_validation():
    with pytest.raises(ValueError):
        ElementSet.from_json({"r": 3, "elements": [8]})
    with pytest.raises(ValueError):
        ElementSet.from_json({"r": 4, "bits_hex": "ff"})  # wrong width
    with pytest.raises(ValueError):
        ElementSet.from_json({"elements": [1]})


def test_set_literal_elements_must_be_integers():
    # JSON true would read as element 1, and 1.5 would fail deep inside; the
    # literal rejects both and names the entry.
    for bad, shown in ((True, "True"), (1.5, "1.5"), (None, "None"), ("1", "'1'")):
        with pytest.raises(ValueError, match=f"integers, got {re.escape(shown)}$"):
            ElementSet.from_json({"r": 2, "elements": [1, bad]})
    with pytest.raises(ValueError, match="bits_hex must be a string, got 5"):
        ElementSet.from_json({"r": 2, "bits_hex": 5})


def test_set_algebra_basics():
    A = ElementSet.from_elements(3, [1, 2, 3])
    B = ElementSet.from_elements(3, [3, 4])
    assert (A | B).elements() == [1, 2, 3, 4]
    assert (A & B).elements() == [3]
    assert (A - B).elements() == [1, 2]
    assert A.complement().elements() == [0, 4, 5, 6, 7]
    assert ElementSet.empty(3).complement() == ElementSet.full(3)
    with pytest.raises(RankMismatchError):
        A | ElementSet.empty(2)


def test_translate_examples():
    A = ElementSet.from_elements(3, [0])
    assert A.translate(5).elements() == [5]
    B = ElementSet.from_elements(3, [1, 6])
    assert B.translate(0) == B
    assert B.translate(3).translate(3) == B


@settings(max_examples=200, deadline=None)
@given(small_sets, st.data())
def test_translate_involution_and_cardinality(rb, data):
    r, bits = rb
    g = data.draw(st.integers(min_value=0, max_value=(1 << r) - 1))
    A = ElementSet(r, bits)
    T = A.translate(g)
    assert len(T) == len(A)
    assert T.translate(g) == A


@settings(max_examples=100, deadline=None)
@given(small_sets, st.data())
def test_period_invariant_under_translation(rb, data):
    r, bits = rb
    g = data.draw(st.integers(min_value=0, max_value=(1 << r) - 1))
    A = ElementSet(r, bits)
    assert period(A.translate(g)).basis == period(A).basis


def test_span_examples():
    assert span(ElementSet.empty(4)).members.elements() == [0]
    sub = span(ElementSet.from_elements(3, [1, 2]))
    assert sub.members.elements() == [0, 1, 2, 3]
    dependent = span(ElementSet.from_elements(3, [0b011, 0b101, 0b110]))
    assert dependent.order == 4


@settings(max_examples=150, deadline=None)
@given(small_sets)
def test_span_matches_closure_oracle(rb):
    r, bits = rb
    A = ElementSet(r, bits)
    got = set(span(A).members.elements())
    assert got == oracle_span(A.elements(), r)


def test_span_basis_is_canonical():
    # The reduced basis only depends on the subgroup, not the generators.
    a = Subgroup.generated_by(4, [3, 5, 6])
    b = Subgroup.generated_by(4, [6, 5])
    c = Subgroup.generated_by(4, [5, 3])
    assert a.basis == b.basis == c.basis
    assert a == b


def test_subgroup_membership_closed():
    H = Subgroup.generated_by(5, [7, 9, 21])
    members = H.members.elements()
    assert 0 in H
    for x in members[:8]:
        for y in members[:8]:
            assert (x ^ y) in H
    assert H.order == len(members)


def test_period_examples():
    H = Subgroup.generated_by(3, [1, 2])
    coset = H.coset(4)
    assert period(coset).members == H.members
    assert period(ElementSet.from_elements(3, [1])).order == 1
    assert period(ElementSet.empty(3)).order == 8
    assert period(ElementSet.full(3)).order == 8


@settings(max_examples=120, deadline=None)
@given(small_sets)
def test_period_matches_scan_oracle(rb):
    r, bits = rb
    A = ElementSet(r, bits)
    assert set(period(A).members.elements()) == oracle_period(A)


@settings(max_examples=80, deadline=None)
@given(small_sets, st.data())
def test_union_with_forced_period(rb, data):
    # B together with B + h is stabilized by h.
    r, bits = rb
    h = data.draw(st.integers(min_value=1, max_value=(1 << r) - 1))
    A = ElementSet(r, bits)
    U = A | A.translate(h)
    assert h in period(U).members


coset_unions = st.integers(min_value=1, max_value=10).flatmap(
    lambda r: st.tuples(
        st.just(r),
        st.lists(st.integers(0, (1 << r) - 1), max_size=r),  # subgroup generators
        st.lists(st.integers(0, (1 << r) - 1), min_size=1, max_size=6),  # coset shifts
        st.one_of(st.none(), st.integers(0, (1 << r) - 1)),  # one point toggled
    )
)


@settings(max_examples=60, deadline=None)
@given(coset_unions)
def test_period_of_coset_unions_matches_scan_oracle(case):
    # Unions of cosets have large periods (the confirm step); one toggled
    # point leaves a small one (the eliminate step).
    r, gens, shifts, noise = case
    H = Subgroup.generated_by(r, gens)
    bits = 0
    for g in shifts:
        bits |= H.coset(g).bits
    if noise is not None:
        bits ^= 1 << noise
    A = ElementSet(r, bits)
    assert period(A) == Subgroup.generated_by(r, oracle_period(A))


def test_period_of_highrank_coset_triple():
    # 3 cosets of an index-64 H inside one coset of an index-16 K ⊇ H: 3 of
    # the 4 points of K/H have no nonzero period, so the period is H itself.
    rng = random.Random(16)
    r = 16
    gens = []
    while len(gens) < r - 6:
        v = rng.randrange(1, 1 << r)
        if Subgroup.generated_by(r, gens + [v]).dim > len(gens):
            gens.append(v)
    H = Subgroup.generated_by(r, gens)
    k1 = next(v for v in iter(lambda: rng.randrange(1 << r), None) if v not in H)
    k2 = next(v for v in iter(lambda: rng.randrange(1 << r), None)
              if v not in H and v ^ k1 not in H)
    g = rng.randrange(1 << r)
    B = H.coset(g) | H.coset(g ^ k1) | H.coset(g ^ k2)
    P = period(B)
    assert P == H
    assert all(B.translate(v) == B for v in P.basis)
    assert period(B.without_element(g)).order == 1


def test_period_invariant_guard_raises(monkeypatch):
    # A basis vector that moves B must raise, under python -O as well.
    B = Subgroup.generated_by(4, [1, 2]).coset(4)
    monkeypatch.setattr(core, "_reduced_basis", lambda gens: tuple(8 for _ in gens))
    with pytest.raises(InternalError) as caught:
        period(B)
    # An internal failure is not an input error: the CLI must not exit 2 on it.
    assert not isinstance(caught.value, ValueError)


def test_subgroup_sum_is_the_sumset_with_the_members():
    rng = random.Random(3)
    for _ in range(200):
        r = rng.randrange(1, 11)
        n = 1 << r
        H = Subgroup.generated_by(r, [rng.randrange(n) for _ in range(rng.randrange(r + 1))])
        B = ElementSet.from_elements(r, rng.sample(range(n), rng.randrange(n + 1)))
        assert subgroup_sum(B, H) == sumset(B, H.members)
    with pytest.raises(RankMismatchError):
        subgroup_sum(ElementSet.full(3), Subgroup.whole_group(4))


def test_quotient_examples():
    H = Subgroup.generated_by(3, [1, 2])
    assert quotient_project(H.members, H).elements() == [0]
    assert quotient_project(ElementSet.full(3), H).elements() == [0, 1]
    view = QuotientView(H)
    assert view.image_rank == 1
    # transversal representatives are stable and pairwise inequivalent
    reps = view.transversal
    assert len(reps) == 2
    assert view.project(reps[1]) == 1
    assert view.reduce(reps[1] ^ 3) == reps[1]


def test_quotient_counts_match_bucketing():
    H = Subgroup.generated_by(4, [3, 12])
    B = ElementSet.from_elements(4, [1, 2, 3, 7, 9, 14])
    img = quotient_project(B, H)
    buckets = {QuotientView(H).reduce(x) for x in B}
    assert len(img) == len(buckets)


@settings(max_examples=100, deadline=None)
@given(small_sets)
def test_quotient_class_counts_sum(rb):
    r, bits = rb
    A = ElementSet(r, bits)
    H = span(ElementSet.from_elements(r, [e for e in A.elements()[:2]]))
    view = QuotientView(H)
    per_class = {}
    for x in A:
        per_class[view.project(x)] = per_class.get(view.project(x), 0) + 1
    assert sum(per_class.values()) == len(A)
    assert set(per_class) == set(view.project_set(A).elements())


def test_quotient_view_matches_pivot_clearing():
    # The coset representative clears H's pivot bits (H's basis is reduced
    # echelon); its free bits, packed in ascending order, are the label.
    rng = random.Random(11)
    for r in range(1, 9):
        for _ in range(12):
            H = Subgroup.generated_by(r, [rng.randrange(1, 1 << r) for _ in range(rng.randrange(r + 1))])
            pivots = {v.bit_length() - 1 for v in H.basis}
            free = [i for i in range(r) if i not in pivots]
            view = QuotientView(H)
            assert len(view.transversal) == 1 << len(free) == 1 << view.image_rank
            for x in range(1 << r):
                rep = x
                for v in H.basis:
                    if (rep >> (v.bit_length() - 1)) & 1:
                        rep ^= v
                label = sum(((rep >> i) & 1) << j for j, i in enumerate(free))
                assert view.reduce(x) == rep
                assert view.project(x) == label
                assert view.transversal[label] == rep


def test_is_subgroup():
    assert is_subgroup(Subgroup.generated_by(4, [5, 9]).members)
    assert not is_subgroup(ElementSet.from_elements(4, [0, 1, 2]))
    assert not is_subgroup(ElementSet.from_elements(4, [1, 2, 3]))


def test_immutability():
    A = ElementSet.from_elements(3, [1])
    with pytest.raises(AttributeError):
        A.bits = 0
    assert hash(A) == hash(ElementSet.from_elements(3, [1]))


def test_translate_bits_matches_elementwise():
    import random

    rnd = random.Random(0)
    for _ in range(200):
        r = rnd.randint(1, 8)
        bits = rnd.getrandbits(1 << r)
        g = rnd.randrange(1 << r)
        got = translate_bits(bits, g, r)
        want = 0
        for e in range(1 << r):
            if (bits >> e) & 1:
                want |= 1 << (e ^ g)
        assert got == want


def test_iteration_matches_membership_on_both_paths():
    # __iter__ and indices() peel bits for small sets and unpack with numpy
    # for large ones, each at its own cut; both must list exactly the
    # members, in ascending order.
    from f2sets.core import _INDICES_LOOP_MAX, _ITER_LOOP_MAX

    rnd = random.Random(7)
    for r in (1, 3, 6, 9, 14):
        n = 1 << r
        cuts = (_ITER_LOOP_MAX, _ITER_LOOP_MAX + 1, _INDICES_LOOP_MAX, _INDICES_LOOP_MAX + 1)
        for size in {0, 1, n // 2, n} | {min(n, c) for c in cuts}:
            members = sorted(rnd.sample(range(n), size))
            A = ElementSet.from_elements(r, members)
            assert list(A) == members
            assert A.indices().dtype == np.int64
            assert A.indices().tolist() == members


def test_from_elements_matches_on_both_paths():
    # Bits are set one by one up to _FROM_LOOP_MAX members and scattered with
    # numpy above; both must give the plain sum of powers and reject the same
    # out-of-range element.
    from f2sets.core import _FROM_LOOP_MAX

    rnd = random.Random(8)
    for r in (9, 12, 21):
        n = 1 << r
        for size in (_FROM_LOOP_MAX, _FROM_LOOP_MAX + 1, 4 * _FROM_LOOP_MAX):
            members = rnd.sample(range(n), size)
            assert ElementSet.from_elements(r, members).bits == sum(1 << e for e in members)
            assert ElementSet.from_elements(r, iter(members + members[:3])).bits == \
                sum(1 << e for e in members)
            for bad in (-1, n):
                with pytest.raises(ValueError, match=f"element {bad} out of range"):
                    ElementSet.from_elements(r, members[:-1] + [bad])


def test_swap_masks_match_the_division_formula():
    from f2sets.core import _full_mask, _swap_mask

    for r in range(1, 11):
        for i in range(r):
            s = 1 << i
            assert _swap_mask(r, i) == _full_mask(r) // ((1 << (2 * s)) - 1) * ((1 << s) - 1)


@pytest.mark.parametrize("r", range(1, 13))
def test_translate_bits_matches_the_oracle(r):
    rng = random.Random(r)
    n = 1 << r
    for _ in range(20):
        bits = rng.getrandbits(n)
        g = rng.randrange(n)
        assert translate_bits(bits, g, r) == oracle_translate(bits, g)
    assert [translate_bits(1, g, r) for g in range(n)] == [1 << g for g in range(n)]
    if r <= 4:
        # The uint16 arrays of search._lattice_scan: every entry at once.
        arr = np.array([rng.getrandbits(n) for _ in range(64)], dtype=np.uint16)
        for g in range(n):
            moved = translate_bits(arr, g, r)
            assert moved.dtype == np.uint16
            assert moved.tolist() == [oracle_translate(int(b), g) for b in arr]


def test_no_assert_statements_in_the_package():
    # Invariants must hold under python -O, which strips assert statements,
    # and a failed invariant raises core.InternalError, not AssertionError.
    import ast
    from pathlib import Path

    import f2sets

    def raises_assertion_error(node):
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return isinstance(exc, ast.Name) and exc.id == "AssertionError"

    found = []
    for path in sorted(Path(f2sets.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)
                  or (isinstance(node, ast.Raise) and raises_assertion_error(node))]
    assert found == []


def test_basis_and_inverse_matches_its_definition():
    from f2sets.core import _basis_and_inverse, apply_linear

    rnd = random.Random(11)
    for _ in range(400):
        r = rnd.randint(1, 10)
        vectors = [rnd.randrange(1 << r) for _ in range(rnd.randint(0, r + 3))]
        vectors += [0] + rnd.sample(vectors, min(2, len(vectors)))  # dependent entries
        rnd.shuffle(vectors)
        # Oracle: greedy over the inputs, then over the unit vectors in
        # ascending order, against the span kept as a set.
        expected, spanned = [], {0}
        for v in vectors + [1 << i for i in range(r)]:
            if v not in spanned:
                expected.append(v)
                spanned |= {s ^ v for s in spanned}
        basis, inverse = _basis_and_inverse(vectors, r)
        assert basis == expected and len(basis) == len(inverse) == r
        for i, b in enumerate(basis):
            assert apply_linear(inverse, b) == 1 << i
