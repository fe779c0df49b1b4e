"""The unique-representation graph of a set: vertices are the elements, and two
vertices are adjacent when their sum has exactly one unordered representation.

The graph is materialized (vertex list plus adjacency bit-rows) since the sets
of interest stay small at desk scale. Analyses are pure; matching is exact via
augmenting paths with blossom contraction, so non-bipartite instances are fine.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .core import ElementSet, InternalError, _peel_bits, translate_bits
from .sumsets import PredicateReport, unique_sums


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

    def neighbors(self, i: int) -> list[int]:
        return _peel_bits(self.adj[i])

    def to_json(self) -> dict:
        return {
            "r": self.rank,
            "vertices": list(self.vertices),
            "edges": [list(e) for e in self.edges],
            "labels": list(self.edge_labels),
        }


def build(A: ElementSet) -> UrGraph:
    """Graph on A with an edge (a1, a2) whenever a1 + a2 is a unique sum.

    The edge count equals the number of unique sums whenever |A| >= 2.
    """
    if len(A) == 0:
        raise ValueError("cannot build a graph on the empty set")
    verts = tuple(A.elements())
    index = {v: i for i, v in enumerate(verts)}
    n = len(verts)
    adj = [0] * n
    edges: list[tuple[int, int]] = []
    labels: list[int] = []
    if n > 1:
        for d in unique_sums(A):
            if d == 0:
                continue
            both = A.bits & translate_bits(A.bits, d, A.rank)
            if both.bit_count() != 2:
                raise InternalError(f"unique sum {d} does not come from exactly one pair")
            a = (both & -both).bit_length() - 1
            i, j = index[a], index[a ^ d]
            if i > j:
                i, j = j, i
            adj[i] |= 1 << j
            adj[j] |= 1 << i
            edges.append((i, j))
            labels.append(d)
    order = sorted(range(len(edges)), key=lambda k: edges[k])
    return UrGraph(
        A.rank,
        verts,
        tuple(adj),
        tuple(edges[k] for k in order),
        tuple(labels[k] for k in order),
    )


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


def _find_augmenting(n: int, nbrs: list[list[int]], match: list[int], root: int) -> bool:
    used = [False] * n
    parent = [-1] * n
    base = list(range(n))
    used[root] = True
    queue = deque([root])

    def lca(a: int, b: int) -> int:
        seen = [False] * n
        while True:
            a = base[a]
            seen[a] = True
            if match[a] == -1:
                break
            a = parent[match[a]]
        while True:
            b = base[b]
            if seen[b]:
                return b
            b = parent[match[b]]

    def mark_path(v: int, b: int, child: int, blossom: list[bool]) -> None:
        while base[v] != b:
            blossom[base[v]] = True
            blossom[base[match[v]]] = True
            parent[v] = child
            child = match[v]
            v = parent[match[v]]

    while queue:
        v = queue.popleft()
        for to in nbrs[v]:
            if base[v] == base[to] or match[v] == to:
                continue
            if to == root or (match[to] != -1 and parent[match[to]] != -1):
                cur = lca(v, to)
                blossom = [False] * n
                mark_path(v, cur, to, blossom)
                mark_path(to, cur, v, blossom)
                for i in range(n):
                    if blossom[base[i]]:
                        base[i] = cur
                        if not used[i]:
                            used[i] = True
                            queue.append(i)
            elif parent[to] == -1:
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
                used[match[to]] = True
                queue.append(match[to])
    return False


def matching_number(G: UrGraph) -> MatchingResult:
    """Exact maximum matching with an explicit certificate."""
    n = G.n
    nbrs = [G.neighbors(i) for i in range(n)]
    match = [-1] * n
    # Greedy warm start keeps the augmenting phase short.
    for i, j in G.edges:
        if match[i] == -1 and match[j] == -1:
            match[i] = j
            match[j] = i
    for v in range(n):
        if match[v] == -1:
            _find_augmenting(n, nbrs, match, v)
    pairs = sorted((i, match[i]) for i in range(n) if match[i] > i)
    return MatchingResult(len(pairs), tuple(pairs))


def degree_sum_check(A: ElementSet) -> PredicateReport:
    """For |A| > 2^(r-2) + 3, every edge (a1, a2) satisfies
    deg(a1) + deg(a2) >= |A| + |D(A)| - 2^(r-1)."""
    r = A.rank
    if r < 2 or len(A) <= (1 << (r - 2)) + 3:
        raise ValueError("degree_sum_check needs |A| > 2^(r-2) + 3")
    G = build(A)
    need = len(A) + len(G.edges) - (1 << (r - 1))
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
