import os
import random
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

import f2sets
from f2sets import ElementSet, Subgroup, is_round, is_sum_free, unique_sums
from f2sets import urgraph
from f2sets.urgraph import (
    MatchingResult,
    UrGraph,
    build,
    degree_sum_check,
    isolated_edges,
    matching_number,
    spanning_star_centers,
    triangle_witness,
    two_star_partition,
)

from conftest import oracle_matching, oracle_urgraph


def els(r, elements):
    return ElementSet.from_elements(r, elements)


def test_build_two_element_set():
    G = build(els(3, [0, 5]))
    assert G.vertices == (0, 5)
    assert G.edges == ((0, 1),)
    assert G.edge_labels == (5,)


def _parts(G):
    return G.vertices, G.adj, G.edges, G.edge_labels


def test_build_matches_pair_oracle_exhaustively_at_small_ranks():
    for r in (1, 2, 3):
        for bits in range(1, 1 << (1 << r)):
            A = ElementSet(r, bits)
            assert _parts(build(A)) == oracle_urgraph(A), A


@pytest.mark.parametrize("row_pairs", [None, 5])
def test_build_matches_pair_oracle_on_random_sets(monkeypatch, row_pairs):
    # row_pairs = 5 scans one row per block, so edges come from many blocks.
    if row_pairs is not None:
        monkeypatch.setattr(urgraph, "_SPARSE_PRODUCT_LIMIT", row_pairs)
    rnd = random.Random(14)
    for _ in range(150):
        r = rnd.randint(4, 9)
        n = 1 << r
        A = ElementSet.from_elements(r, rnd.sample(range(n), rnd.randint(1, min(n, 120))))
        G = build(A)
        assert _parts(G) == oracle_urgraph(A), A
        assert all(type(x) is int for part in (G.adj, G.edge_labels, *G.edges) for x in part)


def test_build_star_at_rank_twelve_spans_two_row_blocks():
    H = Subgroup.generated_by(12, [1 << i for i in range(11)])
    G = build(H.coset(1 << 11).with_zero())
    assert G.n == 2049 and G.n * G.n > urgraph._SPARSE_PRODUCT_LIMIT
    assert G.edges == tuple((0, j) for j in range(1, 2049))
    assert G.edge_labels == G.vertices[1:]
    assert G.degree(0) == 2048


def test_build_guard_raises_on_a_wrong_count_table():
    # A count table marking a sum with no pair as unique leaves the edge count
    # short; the guard must raise, under python -O as well.
    script = textwrap.dedent("""
        from f2sets import ElementSet, InternalError, urgraph
        from f2sets.sumsets import RepCountTable

        real = urgraph.rep_counts

        def forged(A):
            counts = real(A).counts.copy()
            counts[7] = 2
            return RepCountTable(A.rank, len(A), counts)

        urgraph.rep_counts = forged
        try:
            urgraph.build(ElementSet.from_elements(3, [0, 1]))
        except InternalError:
            print("raised")
    """)
    src = str(Path(f2sets.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for flags in ([], ["-O"]):
        proc = subprocess.run([sys.executable, *flags, "-c", script],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.stdout.strip() == "raised", (flags, proc.stderr)


def test_build_rejects_empty():
    with pytest.raises(ValueError):
        build(ElementSet.empty(3))


def test_complete_graph_case():
    G = build(els(3, [0, 1, 2, 4]))
    assert len(G.edges) == 6
    assert sorted(G.degrees()) == [3, 3, 3, 3]


def test_edge_count_is_unique_sum_count():
    rnd = random.Random(11)
    for _ in range(500):
        r = rnd.randint(1, 6)
        bits = rnd.getrandbits(1 << r)
        if not bits:
            continue
        A = ElementSet(r, bits)
        G = build(A)
        if len(A) >= 2:
            assert len(G.edges) == len(unique_sums(A))
        labels = set(G.edge_labels)
        assert labels <= set(unique_sums(A).elements())


def test_edge_labels_are_sums():
    A = els(4, [0, 1, 2, 4, 8, 15])
    G = build(A)
    for (i, j), d in zip(G.edges, G.edge_labels):
        assert G.vertices[i] ^ G.vertices[j] == d


def test_isolated_edges():
    G = build(els(3, [0, 5]))
    assert isolated_edges(G) == [(0, 5)]
    # spanning star with >= 3 vertices has no isolated edges
    H = Subgroup.generated_by(4, [1, 2, 4])
    star = H.coset(8).with_zero()
    assert isolated_edges(build(star)) == []


def test_triangle_example_from_subgroup_union():
    # (span(e1,e2) ∪ H) minus 0 at r=4: vertices e1, e2, e1+e2 form a triangle
    from f2sets.structure import construct_subgroup_union

    A = construct_subgroup_union(4)
    G = build(A)
    tri = triangle_witness(G)
    assert tri is not None
    # the generator pair and its sum induce a triangle
    idx = {v: i for i, v in enumerate(G.vertices)}
    for a, b in ((4, 8), (4, 12), (8, 12)):
        assert (G.adj[idx[a]] >> idx[b]) & 1
    # with 0 added the set has 2^(r-2) + 3 elements and is triangle-free,
    # but its unique sums are not sum-free
    A0 = A.with_zero()
    assert len(A0) == 7
    G0 = build(A0)
    assert triangle_witness(G0) is None
    assert not is_sum_free(unique_sums(A0))


def test_star_has_no_triangle():
    H = Subgroup.generated_by(4, [1, 2, 4])
    star = H.coset(8).with_zero()
    assert triangle_witness(build(star)) is None


def test_spanning_star_centers():
    H = Subgroup.generated_by(4, [1, 2, 4])
    star = H.coset(8).with_zero()
    assert spanning_star_centers(build(star)).elements() == [0]
    G = build(els(3, [0, 1, 2, 4]))
    assert spanning_star_centers(G).elements() == [0, 1, 2, 4]
    coset = H.coset(8)
    assert spanning_star_centers(build(coset)).elements() == []
    with pytest.raises(ValueError):
        spanning_star_centers(build(els(3, [1])))


def test_matching_star_and_single_edge():
    assert matching_number(build(els(3, [0, 5]))).size == 1
    H = Subgroup.generated_by(4, [1, 2, 4])
    star = H.coset(8).with_zero()
    m = matching_number(build(star))
    assert m.size == 1 and len(m.edges) == 1


def test_matching_against_exhaustive_oracle():
    rnd = random.Random(12)
    checked = 0
    while checked < 250:
        r = rnd.randint(2, 5)
        bits = rnd.getrandbits(1 << r)
        if bits.bit_count() < 2:
            continue
        A = ElementSet(r, bits)
        G = build(A)
        if len(G.edges) > 16:
            continue
        got = matching_number(G)
        assert got.size == oracle_matching(G.n, G.edges)
        seen = set()
        for i, j in got.edges:
            assert (i, j) in G.edges
            assert i not in seen and j not in seen
            seen.add(i)
            seen.add(j)
        checked += 1


def star_graph(r):
    """The graph of {0} ∪ (e + H) for the hyperplane H, built edge by edge:
    every leaf sum is unique, and from rank 3 no sum of two leaves is."""
    H = Subgroup.generated_by(r, [1 << i for i in range(r - 1)])
    verts = (0, *H.coset(1 << (r - 1)).elements())
    n = len(verts)
    edges = tuple((0, j) for j in range(1, n))
    adj = (((1 << n) - 1) ^ 1, *([1] * (n - 1)))
    return UrGraph(r, verts, adj, edges, verts[1:])


def test_matching_is_fast_on_rank_sixteen_star_and_edgeless_set():
    for r in (3, 4, 5):
        G = star_graph(r)
        assert G == build(ElementSet.from_elements(r, G.vertices))
        assert matching_number(G).size == oracle_matching(G.n, G.edges) == 1
    H = Subgroup.generated_by(16, [1 << i for i in range(15)])
    edgeless = build(H.coset(1 << 15))
    assert edgeless.n == 1 << 15 and not edgeless.edges
    for G, want in ((star_graph(16), ((0, 1),)), (edgeless, ())):
        start = time.perf_counter()
        m = matching_number(G)
        assert time.perf_counter() - start < 5.0  # the quadratic search took 9-30 s
        assert m.edges == want


def graph_from_edges(n, edges):
    """A general UrGraph on the vertices 0..n-1, built edge by edge."""
    edges = tuple(sorted({(min(i, j), max(i, j)) for i, j in edges}))
    adj = [0] * n
    for i, j in edges:
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return UrGraph(max(1, (n - 1).bit_length()), tuple(range(n)), tuple(adj), edges,
                   tuple(i ^ j for i, j in edges))


def cycle(vs):
    return [(vs[k], vs[(k + 1) % len(vs)]) for k in range(len(vs))]


GENERAL_GRAPHS = {
    "odd cycles": [(k, cycle(range(k))) for k in (3, 5, 7, 9, 11)],
    # A triangle, a 5-cycle and a 7-cycle sharing edges; two 5-cycles joined
    # through one vertex; the Petersen graph. Over the vertex orders below the
    # searches contract 12 blossoms, 5 of them around an earlier one.
    "nested blossoms": [
        (9, cycle([0, 1, 2]) + cycle([0, 3, 4, 5, 1]) + cycle([3, 6, 7, 8, 5, 4, 2])),
        (11, cycle(range(5)) + cycle(range(6, 11)) + [(4, 5), (5, 6)]),
        (10, cycle(range(5)) + [(k, k + 5) for k in range(5)]
         + [(5, 7), (7, 9), (9, 6), (6, 8), (8, 5)]),
    ],
    "pendant chains": [(k, [(i, i + 1) for i in range(k - 1)]) for k in (2, 3, 6, 9)]
    + [(8, cycle(range(5)) + [(0, 5), (5, 6), (2, 7)])],
    "disjoint stars": [(12, [(0, k) for k in range(1, 4)] + [(4, k) for k in range(5, 9)]
                        + [(9, 10), (9, 11)])],
    "K4": [(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])],
}


@pytest.mark.parametrize("family", sorted(GENERAL_GRAPHS))
def test_matching_against_oracle_on_general_graphs(family):
    # Every vertex order: the degree-one rule, the greedy start and the
    # searches all take vertices lowest index first.
    rnd = random.Random(15)
    for n, edges in GENERAL_GRAPHS[family]:
        for _ in range(12):
            perm = list(range(n))
            rnd.shuffle(perm)
            G = graph_from_edges(n, [(perm[i], perm[j]) for i, j in edges])
            m = matching_number(G)
            assert m.size == len(m.edges) == oracle_matching(n, G.edges), (family, G.edges)
            assert list(m.edges) == sorted(m.edges)
            ends = [v for e in m.edges for v in e]
            assert set(m.edges) <= set(G.edges) and len(set(ends)) == len(ends)


def test_rank_sixteen_star_needs_no_augmenting_search(monkeypatch):
    calls = []
    real = urgraph._search

    def counted(*args):
        calls.append(real(*args))
        return calls[-1]

    monkeypatch.setattr(urgraph, "_search", counted)
    assert matching_number(star_graph(16)).edges == ((0, 1),)
    assert calls == []
    # K4 minus the edge 23 has no pendant vertex. The greedy start takes 01
    # and strands 2 and 3; one search augments along 2-0-1-3.
    G = graph_from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    assert matching_number(G).edges == ((0, 2), (1, 3))
    assert calls == [0]
    # K_{2,10}: the greedy start matches both hubs; the first stranded leaf's
    # search fails and kills its tree, so the other seven leaves are skipped.
    calls.clear()
    G = graph_from_edges(12, [(hub, k) for hub in (0, 1) for k in range(2, 12)])
    assert matching_number(G).edges == ((0, 2), (1, 3))
    assert calls == [0b11111]


def test_matching_certificate_sorted():
    G = build(els(3, [0, 1, 2, 4]))
    m = matching_number(G)
    assert isinstance(m, MatchingResult)
    assert list(m.edges) == sorted(m.edges)


def test_degree_sum_check_on_star():
    # 0 ∪ S for S a maximal sum-free set of size 2^(r-1): the star satisfies
    # the bound with |D| = |A| - 1
    H = Subgroup.generated_by(5, [1, 2, 4, 8])
    S = H.coset(16)
    A = S.with_zero()
    assert len(A) == 17
    assert degree_sum_check(build(A))
    with pytest.raises(ValueError):
        degree_sum_check(build(els(5, [1, 2, 3])))


def test_round_iff_no_isolated_vertices_exhaustive_small():
    for r in (2, 3):
        for bits in range(1, 1 << (1 << r)):
            A = ElementSet(r, bits)
            if len(A) < 2:
                continue
            G = build(A)
            no_isolated = all(G.degree(i) > 0 for i in range(G.n))
            assert bool(is_round(A)) == no_isolated, A


def test_two_star_partition_shapes():
    # single star
    H = Subgroup.generated_by(4, [1, 2, 4])
    star = H.coset(8).with_zero()
    p = two_star_partition(build(star))
    assert p is not None and not p.shared
    # complete graph on 4 vertices is not two-star coverable
    assert two_star_partition(build(els(3, [0, 1, 2, 4]))) is None


def test_two_star_partition_on_round_set_graphs():
    # triangle-free graphs of round sets with matching number <= 2 and at
    # least 6 vertices decompose as one or two stars
    from f2sets.generators import round_set_suite

    covered = 0
    for r in (4, 5, 6):
        for A in round_set_suite(r, 400, seed=31):
            if len(A) < 6:
                continue
            G = build(A)
            if triangle_witness(G) is not None:
                continue
            if matching_number(G).size > 2:
                continue
            assert two_star_partition(G) is not None, A
            covered += 1
    assert covered > 50


def test_two_star_partition_recovers_edges():
    # synthetic: a graph that is exactly two stars joined at the centers
    class Fake:
        pass

    rnd = random.Random(13)
    for _ in range(100):
        n = rnd.randint(6, 10)
        v1, v2 = 0, 1
        assign = [rnd.choice([1, 2]) for _ in range(2, n)]
        edges = set()
        for k, side in enumerate(assign, start=2):
            if side == 1:
                edges.add((v1, k))
            else:
                edges.add((v2, k))
        if rnd.random() < 0.5:
            edges.add((v1, v2))
        G = Fake()
        G.n = n
        G.vertices = tuple(range(n))
        adj = [0] * n
        for i, j in edges:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        G.adj = tuple(adj)
        G.edges = tuple(sorted(edges))
        p = two_star_partition(G)
        assert p is not None
        # partition must reproduce the edge set exactly
        rebuilt = {(min(p.v1, x), max(p.v1, x)) for x in p.shared + p.only_v1}
        rebuilt |= {(min(p.v2, x), max(p.v2, x)) for x in p.shared + p.only_v2}
        if p.center_edge:
            rebuilt.add((min(p.v1, p.v2), max(p.v1, p.v2)))
        assert rebuilt == edges


def _degree_bound_graphs(rnd):
    """Random graphs without isolated vertices for the edge-count bound."""
    n = rnd.randint(2, 9)
    edges = set()
    for _ in range(rnd.randint(1, 16)):
        i, j = rnd.randrange(n), rnd.randrange(n)
        if i != j:
            edges.add((min(i, j), max(i, j)))
    touched = {v for e in edges for v in e}
    verts = sorted(touched)
    remap = {v: k for k, v in enumerate(verts)}
    edges = {(remap[i], remap[j]) for i, j in edges}
    return len(verts), edges


def test_edge_count_bound_and_matching_bound_on_fixtures():
    # |E| >= (1 - 1/delta) |V| with delta the min edge degree sum, and
    # |V| <= |E| + matching number, on graphs without isolated vertices
    rnd = random.Random(14)
    for _ in range(300):
        n, edges = _degree_bound_graphs(rnd)
        if not edges:
            continue
        deg = [0] * n
        for i, j in edges:
            deg[i] += 1
            deg[j] += 1
        delta = min(deg[i] + deg[j] for i, j in edges)
        assert len(edges) >= (1 - 1 / delta) * n
        t = oracle_matching(n, edges)
        assert n <= len(edges) + t


def test_edge_count_bound_equality_case():
    # disjoint union of stars with delta vertices each attains equality
    delta = 4
    stars = 3
    n = stars * delta
    edges = set()
    for s in range(stars):
        base = s * delta
        for leaf in range(1, delta):
            edges.add((base, base + leaf))
    deg = [0] * n
    for i, j in edges:
        deg[i] += 1
        deg[j] += 1
    assert min(deg[i] + deg[j] for i, j in edges) == delta
    assert len(edges) == (1 - 1 / delta) * n


def test_graph_json_schema():
    G = build(els(3, [0, 1, 2, 4]))
    payload = G.to_json()
    assert set(payload) == {"r", "vertices", "edges", "labels"}
    assert payload["vertices"] == [0, 1, 2, 4]
    assert all(len(e) == 2 for e in payload["edges"])
    assert len(payload["labels"]) == len(payload["edges"])
