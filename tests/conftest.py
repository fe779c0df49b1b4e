"""Shared brute-force oracles. Everything here recomputes from the definitions
with plain loops, independent of the package kernels it is used to check."""

from __future__ import annotations

import itertools

import pytest

from f2sets import ElementSet, is_maximal_sum_free, is_sum_free
from f2sets.structure import Decomposition


def oracle_rep_counts(A: ElementSet) -> list[int]:
    """Ordered counts by double loop over the cartesian square."""
    counts = [0] * (1 << A.rank)
    elems = A.elements()
    for a in elems:
        for b in elems:
            counts[a ^ b] += 1
    return counts


def oracle_mult_sumset(B: ElementSet, C: ElementSet, k: int) -> set[int]:
    """Elements with at least k ordered pairs (b, c), by double loop."""
    counts = [0] * (1 << B.rank)
    cs = C.elements()
    for b in B.elements():
        for c in cs:
            counts[b ^ c] += 1
    return {d for d, n in enumerate(counts) if n >= k}


def oracle_unique_sums(A: ElementSet) -> set[int]:
    """Unordered pair enumeration, with (a, a) as the representation of 0."""
    reps: dict[int, set[frozenset]] = {}
    elems = A.elements()
    for i, a in enumerate(elems):
        for b in elems[i:]:
            reps.setdefault(a ^ b, set()).add(frozenset((a, b)))
    return {d for d, pairs in reps.items() if len(pairs) == 1}


def oracle_urgraph(A: ElementSet) -> tuple:
    """(vertices, adj, edges, labels) of the unique-representation graph, by
    listing the pairs i < j of vertex indices behind each sum."""
    verts = A.elements()
    pairs: dict[int, list[tuple[int, int]]] = {}
    for i, a in enumerate(verts):
        for j in range(i + 1, len(verts)):
            pairs.setdefault(a ^ verts[j], []).append((i, j))
    edges = sorted(p[0] for p in pairs.values() if len(p) == 1)
    adj = [0] * len(verts)
    for i, j in edges:
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return tuple(verts), tuple(adj), tuple(edges), tuple(verts[i] ^ verts[j] for i, j in edges)


def oracle_sumset(B: ElementSet, C: ElementSet) -> set[int]:
    cs = C.elements()  # listed once: iterating a high-rank ElementSet is slow
    return {b ^ c for b in B.elements() for c in cs}


def oracle_translate(bits: int, g: int) -> int:
    """The set bits + g, one element at a time."""
    out = 0
    x = 0
    while bits >> x:
        if (bits >> x) & 1:
            out |= 1 << (x ^ g)
        x += 1
    return out


def scalar_random_subset(rng, r: int, size: int) -> ElementSet:
    """`generators.random_subset` as one randrange per draw."""
    n = 1 << r
    bits = 0
    count = 0
    while count < size:
        e = rng.randrange(n)
        if not (bits >> e) & 1:
            bits |= 1 << e
            count += 1
    return ElementSet(r, bits)


def scalar_random_sum_free(rng, r: int, maximal: bool) -> ElementSet:
    """`generators.random_sum_free` with A and 2A as integers, one translate
    per adjoined point and one `random` draw per point kept or dropped."""
    order = list(range(1, 1 << r))
    rng.shuffle(order)
    bits = 0
    two = 1
    for x in order:
        if (bits >> x) & 1 or (two >> x) & 1:
            continue
        two |= oracle_translate(bits, x) | 1
        bits |= 1 << x
    A = ElementSet(r, bits)
    if maximal:
        return A
    return ElementSet.from_elements(r, [e for e in A if rng.random() < 0.7])


def oracle_span(elems, r) -> set[int]:
    """Closure under XOR to a fixpoint."""
    members = {0} | set(elems)
    while True:
        new = {a ^ b for a in members for b in members}
        if new <= members:
            return members
        members |= new


def oracle_period(B: ElementSet) -> set[int]:
    """Definitional scan over all shifts."""
    out = set()
    bset = set(B.elements())
    for g in range(1 << B.rank):
        if {b ^ g for b in bset} == bset:
            out.add(g)
    return out


def oracle_is_round(A: ElementSet) -> bool:
    """Remove each element and compare sumsets from scratch."""
    if len(A) <= 1:
        return True
    full = oracle_sumset(A, A)
    for a in A:
        rest = A.without_element(a)
        if oracle_sumset(rest, rest) == full:
            return False
    return True


def oracle_is_minimal_saturating(A: ElementSet) -> bool:
    if 0 in A or len(A) == 0:
        return False
    n = 1 << A.rank
    if set(A.elements()) | oracle_sumset(A, A) != set(range(n)):
        return False
    for a in A:
        rest = A.without_element(a)
        if set(rest.elements()) | oracle_sumset(rest, rest) == set(range(n)):
            return False
    return True


def oracle_lines(r: int):
    """All lines as ordered triples x < y < x + y."""
    n = 1 << r
    for x in range(1, n):
        for y in range(x + 1, n):
            z = x ^ y
            if z > y:
                yield (x, y, z)


def oracle_blocking_reports(B: ElementSet) -> tuple[dict, dict]:
    """The JSON reports of `blocking` and `minimal-blocking` by line scan: the
    first line missing B, then the first point whose removal still blocks."""
    def missed(bits: int):
        return next(([x, y, z] for x, y, z in oracle_lines(B.rank)
                     if not ((bits >> x) | (bits >> y) | (bits >> z)) & 1), None)

    line = missed(B.bits)
    if line is not None:
        return ({"predicate": "blocking", "verdict": False, "witness": {"line": line}},
                {"predicate": "minimal-blocking", "verdict": False, "witness": {"line": line},
                 "detail": "not blocking"})
    minimal = {"predicate": "minimal-blocking", "verdict": True}
    for b in B.elements():
        if missed(B.bits & ~(1 << b)) is None:
            minimal = {"predicate": "minimal-blocking", "verdict": False,
                       "witness": {"removable": b}}
            break
    return {"predicate": "blocking", "verdict": True}, minimal


def oracle_matching(n: int, edges) -> int:
    """Exhaustive search over edge subsets; fine for |E| <= 20."""
    edges = list(edges)
    best = 0
    for k in range(len(edges), 0, -1):
        if k <= best:
            break
        for combo in itertools.combinations(edges, k):
            seen = set()
            ok = True
            for i, j in combo:
                if i in seen or j in seen:
                    ok = False
                    break
                seen.add(i)
                seen.add(j)
            if ok:
                best = k
                break
    return best


def all_invertible_maps(r: int) -> list[tuple[int, ...]]:
    """Every invertible map as a tuple of basis-vector images (r <= 4)."""
    n = 1 << r
    out = []
    for cols in itertools.product(range(1, n), repeat=r):
        piv = {}
        ok = True
        for c in cols:
            v = c
            while v:
                lead = v.bit_length() - 1
                if lead not in piv:
                    piv[lead] = v
                    break
                v ^= piv[lead]
            else:
                ok = False
                break
        if ok:
            out.append(cols)
    return out


def apply_map(cols, x: int) -> int:
    out = 0
    for i, c in enumerate(cols):
        if (x >> i) & 1:
            out ^= c
    return out


@pytest.fixture(scope="session")
def gl3():
    return all_invertible_maps(3)


@pytest.fixture(scope="session")
def gl4():
    return all_invertible_maps(4)


def oracle_decompose_saturating(A: ElementSet, maximal_sum_free=None) -> list:
    """Shifted-cap forms by one maximal-sum-free test per candidate shift in
    A ∪ {0}: the definition, in ascending shift order. `maximal_sum_free`
    replaces the library predicate, for instance by a memoised one."""
    check = maximal_sum_free or is_maximal_sum_free
    out = []
    for s in A.with_zero():
        base = A.with_zero().translate(s).nonzero()
        if check(base):
            out.append(Decomposition("saturating", s, base))
    return out


def oracle_decompose_round(A: ElementSet, sum_free=None) -> list:
    """Round forms A = g + (S ∪ {0}) by one sum-free test per g in A."""
    check = sum_free or is_sum_free
    out = []
    for g in A:
        base = A.translate(g).nonzero()
        if check(base):
            out.append(Decomposition("round", g, base))
    return out


def oracle_min_image(elems, bound=None, testing=False):
    """The linear minimal-image walk without the block classification or seeds.

    Preimages are chosen for the slots 1, 2, 4, ... in ascending order, and
    every member outside the span is tried for the next slot in ascending
    order; slots inside the span are forced, and a branch ends at its first
    slot above the incumbent (the set's own word, or `bound`). Siblings are
    skipped only by the automorphisms that tied placements reveal on the way.
    Returns the least of the set's images and the bound as its ascending
    members, or with `testing` whether no image of the nonzero points
    `elems` precedes the bound."""
    elems = sorted(elems)
    inc = list(elems if bound is None else bound)
    auts = []
    first = []

    class Improved(Exception):
        pass

    def place(idx, slots):
        # Compare the next placed slots with the incumbent from position idx.
        for slot in slots:
            if idx == len(inc):
                inc.append(slot)
            elif slot != inc[idx]:
                if slot > inc[idx]:
                    return None
                if testing:
                    raise Improved
                del inc[idx:]
                inc.append(slot)
                first.clear()
            idx += 1
        return idx

    def walk(plist, image, idx):
        if idx == len(elems):
            if not first:
                first.append({q: x for x, q in image.items()})
            else:
                gamma = {x: first[0][image[x]] for x in elems}
                if any(gamma[x] != x for x in elems):
                    auts.append(gamma)
            return
        c = 1 << len(plist)
        if place(idx, [c]) is None:
            return
        explored = set()
        gens = []
        scanned = 0
        for a in elems:
            if a in image or a in explored:
                continue
            child = dict(image)
            for v, q in image.items():
                child[v ^ a] = q | c
            block = sorted(child[x] for x in elems if x in child and x not in image)
            nxt = place(idx + 1, block[1:])
            if nxt is not None:
                walk(plist + [a], child, nxt)
            if len(auts) > scanned:
                gens += [g for g in auts[scanned:] if all(g[p] == p for p in plist)]
                scanned = len(auts)
            frontier = [a]
            while gens and frontier:
                y = frontier.pop()
                for g in gens:
                    if g[y] not in explored:
                        explored.add(g[y])
                        frontier.append(g[y])

    try:
        walk([], {0: 0}, 0)
    except Improved:
        return False
    return True if testing else inc
