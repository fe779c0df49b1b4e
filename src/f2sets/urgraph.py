"""The unique-representation graph of a set: vertices are the elements, and two
vertices are adjacent when their sum has exactly one unordered representation.

The graph is materialized (vertex list plus adjacency bit-rows) for desk-scale
sets: building it scans all vertex pairs once some nonzero sum is unique, which
takes seconds for the rank-16 star {0} ∪ (H-coset). Analyses are pure; matching
is exact via augmenting paths with blossom contraction, so non-bipartite
instances are fine.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .core import ElementSet, InternalError
from .sumsets import _SPARSE_PRODUCT_LIMIT, PredicateReport, rep_counts


@dataclass(frozen=True)
class UrGraph:
    """Vertices in ascending element order; adj rows are bitmasks over indices."""

    rank: int
    vertices: tuple[int, ...]
    adj: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]  # (i, j) with i < j, sorted
    edge_labels: tuple[int, ...]  # label of edges[k] is vertices[i] ^ vertices[j]

    @property
    def n(self) -> int:
        return len(self.vertices)

    def degree(self, i: int) -> int:
        return self.adj[i].bit_count()

    def degrees(self) -> list[int]:
        return [row.bit_count() for row in self.adj]

    def to_json(self) -> dict:
        return {
            "r": self.rank,
            "vertices": list(self.vertices),
            "edges": [list(e) for e in self.edges],
            "labels": list(self.edge_labels),
        }


def build(A: ElementSet) -> UrGraph:
    """Graph on A with an edge (a1, a2) whenever a1 + a2 is a unique sum.

    One count table marks the unique nonzero sums. The index pairs i < j are
    scanned from the diagonal on, in row blocks of at most
    `_SPARSE_PRODUCT_LIMIT` pairs, so the edges come out sorted, one per
    unique nonzero sum.
    """
    if len(A) == 0:
        raise ValueError("cannot build a graph on the empty set")
    verts = tuple(A.elements())
    n = len(verts)
    unique = rep_counts(A).counts == 2
    unique[0] = False  # N(0) = |A|, never a pair of distinct vertices
    want = int(np.count_nonzero(unique))
    edges: list[tuple[int, int]] = []
    labels: list[int] = []
    if want:
        idx = A.indices()
        rows = max(1, _SPARSE_PRODUCT_LIMIT // n)
        for start in range(0, n, rows):
            sums = np.bitwise_xor.outer(idx[start : start + rows], idx[start:])
            ii, jj = np.nonzero(np.triu(unique[sums], 1))
            labels += sums[ii, jj].tolist()
            edges += zip((ii + start).tolist(), (jj + start).tolist())
    if len(edges) != want:
        raise InternalError(f"{len(edges)} edges for {want} unique nonzero sums")
    adj = [0] * n
    for i, j in edges:
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return UrGraph(A.rank, verts, tuple(adj), tuple(edges), tuple(labels))


def isolated_edges(G: UrGraph) -> list[tuple[int, int]]:
    """Edges whose two endpoints both have degree 1, as sorted value pairs."""
    out = []
    for i, j in G.edges:
        if G.degree(i) == 1 and G.degree(j) == 1:
            out.append((G.vertices[i], G.vertices[j]))
    return out


def triangle_witness(G: UrGraph) -> tuple[int, int, int] | None:
    """Some triangle of the graph as a vertex-value triple, or None."""
    for i, j in G.edges:
        common = G.adj[i] & G.adj[j]
        if common:
            k = (common & -common).bit_length() - 1
            return tuple(sorted((G.vertices[i], G.vertices[j], G.vertices[k])))
    return None


def spanning_star_centers(G: UrGraph) -> ElementSet:
    """Vertices adjacent to every other vertex."""
    if G.n < 2:
        raise ValueError("spanning stars need at least two vertices")
    centers = [G.vertices[i] for i in range(G.n) if G.degree(i) == G.n - 1]
    return ElementSet.from_elements(G.rank, centers)


@dataclass(frozen=True)
class MatchingResult:
    size: int
    edges: tuple[tuple[int, int], ...]  # vertex-index pairs, i < j, sorted

    def to_json(self) -> dict:
        return {"size": self.size, "edges": [list(e) for e in self.edges]}


def _find_augmenting(nbrs: list[list[int]], match: list[int], root: int) -> bool:
    """One search for an augmenting path from the unmatched root; augments
    `match` and returns True when it finds one. The search state covers only
    the vertices it reaches (a vertex missing from `base` is its own base),
    so a search costs what it visits, not the vertex count."""
    used = {root}
    parent: dict[int, int] = {}
    base: dict[int, int] = {}
    queue = deque([root])

    def lca(a: int, b: int) -> int:
        seen = set()
        while True:
            a = base.get(a, a)
            seen.add(a)
            if match[a] == -1:
                break
            a = parent[match[a]]
        while True:
            b = base.get(b, b)
            if b in seen:
                return b
            b = parent[match[b]]

    def mark_path(v: int, b: int, child: int, blossom: set[int]) -> None:
        while base.get(v, v) != b:
            blossom.add(base.get(v, v))
            blossom.add(base.get(match[v], match[v]))
            parent[v] = child
            child = match[v]
            v = parent[match[v]]

    while queue:
        v = queue.popleft()
        for to in nbrs[v]:
            if base.get(v, v) == base.get(to, to) or match[v] == to:
                continue
            if to == root or (match[to] != -1 and match[to] in parent):
                cur = lca(v, to)
                blossom: set[int] = set()
                mark_path(v, cur, to, blossom)
                mark_path(to, cur, v, blossom)
                # Only reached vertices can have a base in the blossom;
                # ascending order keeps the queue order of a full scan.
                for i in sorted(used.union(parent)):
                    if base.get(i, i) in blossom:
                        base[i] = cur
                        if i not in used:
                            used.add(i)
                            queue.append(i)
            elif to not in parent:
                parent[to] = v
                if match[to] == -1:
                    # Augment along the alternating path back to the root.
                    while to != -1:
                        prev = parent[to]
                        after = match[prev]
                        match[to] = prev
                        match[prev] = to
                        to = after
                    return True
                used.add(match[to])
                queue.append(match[to])
    return False


def matching_number(G: UrGraph) -> MatchingResult:
    """Exact maximum matching with an explicit certificate."""
    n = G.n
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for i, j in G.edges:  # sorted edges give ascending neighbour lists
        nbrs[i].append(j)
        nbrs[j].append(i)
    match = [-1] * n
    # Greedy warm start keeps the augmenting phase short.
    for i, j in G.edges:
        if match[i] == -1 and match[j] == -1:
            match[i] = j
            match[j] = i
    for v in range(n):
        if match[v] == -1 and nbrs[v]:
            _find_augmenting(nbrs, match, v)
    pairs = sorted((i, match[i]) for i in range(n) if match[i] > i)
    return MatchingResult(len(pairs), tuple(pairs))


def degree_sum_check(G: UrGraph) -> PredicateReport:
    """For the graph G of A with |A| > 2^(r-2) + 3, every edge (a1, a2) satisfies
    deg(a1) + deg(a2) >= |A| + |D(A)| - 2^(r-1), where |D(A)| is the edge count."""
    r = G.rank
    if r < 2 or G.n <= (1 << (r - 2)) + 3:
        raise ValueError("degree_sum_check needs |A| > 2^(r-2) + 3")
    need = G.n + len(G.edges) - (1 << (r - 1))
    degs = G.degrees()
    for i, j in G.edges:
        if degs[i] + degs[j] < need:
            return PredicateReport(
                "degree-sum", False,
                witness={"edge": [G.vertices[i], G.vertices[j]],
                         "deg_sum": degs[i] + degs[j], "bound": need},
            )
    return PredicateReport("degree-sum", True)


@dataclass(frozen=True)
class TwoStarPartition:
    """Certificate that a graph is a star or a union of two stars: every edge
    touches v1 or v2, and the remaining vertices split by which centers they see."""

    v1: int
    v2: int
    shared: tuple[int, ...]  # adjacent to both centers
    only_v1: tuple[int, ...]
    only_v2: tuple[int, ...]
    center_edge: bool


def two_star_partition(G: UrGraph) -> TwoStarPartition | None:
    """Recover the two-star decomposition if {v1, v2} is a vertex cover; else None.

    Vertices are reported as values. Any graph without isolated vertices whose
    edges are covered by two vertices fits; a single star is returned with the
    smallest leaf as the second center.
    """
    n = G.n
    all_mask = (1 << n) - 1
    for i in range(n):
        for j in range(i + 1, n):
            cover = (1 << i) | (1 << j)
            if all((1 << a) & cover or (1 << b) & cover for a, b in G.edges):
                shared = G.adj[i] & G.adj[j] & ~cover
                only_i = G.adj[i] & ~G.adj[j] & ~cover
                only_j = G.adj[j] & ~G.adj[i] & ~cover
                outside = all_mask & ~cover & ~(shared | only_i | only_j)
                if outside:
                    continue  # isolated or uncovered vertices: not the lemma shape
                to_vals = lambda mask: tuple(
                    G.vertices[k] for k in range(n) if (mask >> k) & 1
                )
                return TwoStarPartition(
                    G.vertices[i],
                    G.vertices[j],
                    to_vals(shared),
                    to_vals(only_i),
                    to_vals(only_j),
                    bool((G.adj[i] >> j) & 1),
                )
    return None
