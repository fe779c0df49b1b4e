"""The unique-representation graph of a set: vertices are the elements, and two
vertices are adjacent when their sum has exactly one unordered representation.

The graph is materialized (vertex list plus adjacency bit-rows) for desk-scale
sets: building it scans all vertex pairs once some nonzero sum is unique, which
takes seconds for the rank-16 star {0} ∪ (H-coset). Analyses are pure.

Matching is exact on any graph: a degree-one reduction, then blossom searches
that drop failed trees. `matching_number` says why each step is exact. The
searches contract blossoms, as the graphs left after the reduction have odd
cycles.
"""

from __future__ import annotations

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

    One count table marks the unique nonzero sums. The index pairs are
    scanned from the diagonal on, in row blocks of at most
    `_SPARSE_PRODUCT_LIMIT` pairs. One `np.packbits` of a block's hit matrix
    gives the block's adjacency rows from the block start on: rows of at
    most 64 bits are read as uint64 words, longer ones by `int.from_bytes`.
    The hits right of the diagonal are the edges, sorted, one per unique
    nonzero sum. Only sets larger than one block have neighbours before a
    block's start: the far ends of edges from earlier blocks, set one bit
    per edge.
    """
    if len(A) == 0:
        raise ValueError("cannot build a graph on the empty set")
    idx = A.indices()
    verts = tuple(idx.tolist())
    n = len(verts)
    unique = rep_counts(A).counts == 2
    unique[0] = False  # N(0) = |A|, never a pair of distinct vertices
    want = int(np.count_nonzero(unique))
    adj = [0] * n
    edges: list[tuple[int, int]] = []
    labels: list[int] = []
    far: list[tuple[int, int]] = []  # edges (i, j) with j past the block of i
    if want:
        rows = max(1, _SPARSE_PRODUCT_LIMIT // n)
        for start in range(0, n, rows):
            sums = np.bitwise_xor.outer(idx[start : start + rows], idx[start:])
            hit = unique[sums]
            packed = np.packbits(hit, axis=1, bitorder="little")
            width = packed.shape[1]
            if width <= 8:  # rows of at most 64 bits: one uint64 word each
                words = np.zeros((len(hit), 8), np.uint8)
                words[:, :width] = packed
                got = words.view("<u8").ravel().tolist()
            else:
                flat = packed.tobytes()
                got = [int.from_bytes(flat[k : k + width], "little")
                       for k in range(0, len(flat), width)]
            adj[start : start + rows] = [row << start for row in got] if start else got
            hits = hit.ravel().nonzero()[0]
            ii, jj = np.divmod(hits, n - start)
            upper = jj > ii
            labels += sums.ravel()[hits[upper]].tolist()
            ii = ii[upper]
            jj = jj[upper]
            if start:
                ii += start
                jj += start
            edges += zip(ii.tolist(), jj.tolist())
            if start + rows < n:
                past = jj >= start + rows
                far += zip(ii[past].tolist(), jj[past].tolist())
    for i, j in far:
        adj[j] |= 1 << i
    if len(edges) != want:
        raise InternalError(f"{len(edges)} edges for {want} unique nonzero sums")
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


def _search(adj, alive, match, root, parent, base, outer) -> int:
    """One blossom search from the unmatched root over the `alive` vertices.

    Returns 0 after augmenting `match` along the path it finds. When there is
    none, the vertices it reached form a Hungarian tree, returned as a mask.
    `parent`, `base` and `outer` are scratch arrays, reset on the reached
    vertices before returning, so a search costs what it visits, not the
    vertex count."""
    outer[root] = 1
    tree = [root]  # every vertex the search reaches, in the order reached
    queue = [root]  # outer vertices, each scanned once
    head = 0
    found = False

    def lca(a: int, b: int) -> int:
        seen = set()
        while True:
            a = base[a]
            seen.add(a)
            if match[a] == -1:
                break
            a = parent[match[a]]
        while True:
            b = base[b]
            if b in seen:
                return b
            b = parent[match[b]]

    def mark_path(v: int, b: int, child: int, blossom: set[int]) -> None:
        while base[v] != b:
            blossom.add(base[v])
            blossom.add(base[match[v]])
            parent[v] = child
            child = match[v]
            v = parent[child]

    while head < len(queue) and not found:
        v = queue[head]
        head += 1
        rest = adj[v] & alive
        while rest:
            low = rest & -rest
            rest ^= low
            to = low.bit_length() - 1
            if base[v] == base[to] or match[v] == to:
                continue
            if to == root or (match[to] != -1 and parent[match[to]] != -1):
                cur = lca(v, to)
                blossom: set[int] = set()
                mark_path(v, cur, to, blossom)
                mark_path(to, cur, v, blossom)
                # Every vertex whose base is in the blossom is in the tree.
                for i in tree:
                    if base[i] in blossom:
                        base[i] = cur
                        if not outer[i]:
                            outer[i] = 1
                            queue.append(i)
            elif parent[to] == -1:
                parent[to] = v
                tree.append(to)
                if match[to] == -1:
                    # Augment along the alternating path back to the root.
                    while to != -1:
                        prev = parent[to]
                        after = match[prev]
                        match[to] = prev
                        match[prev] = to
                        to = after
                    found = True
                    break
                to = match[to]
                outer[to] = 1
                tree.append(to)
                queue.append(to)
    reached = 0
    for i in tree:
        parent[i] = -1
        base[i] = i
        outer[i] = 0
        reached |= 1 << i
    return 0 if found else reached


def matching_number(G: UrGraph) -> MatchingResult:
    """Exact maximum matching with an explicit certificate: a degree-one
    reduction, then blossom searches that drop failed trees.

    - Degree-one reduction (Karp and Sipser, 1981). A pendant vertex v, one
      with a single active neighbour u, is matched to u, and both leave the
      graph. This is exact: a maximum matching that misses v matches u, and
      trading u's edge for uv keeps its size. Pendant vertices go lowest
      index first, so a star keeps the edge to its first leaf.
    - On what is left, a greedy start, then one blossom search from each
      unmatched vertex while two of them are alive. A search that fails has
      grown a Hungarian tree, and no augmenting path of this matching or of
      any later one enters it (Edmonds, 1965). So its vertices are dead to
      the later searches, and a root whose neighbours are all dead is skipped.
    """
    n = G.n
    adj = G.adj
    match = [-1] * n
    active = (1 << n) - 1  # unmatched vertices with a neighbour among them
    pendant = 0  # the active vertices with exactly one active neighbour
    for v, degree in enumerate(map(int.bit_count, adj)):
        if degree < 2:
            if degree:
                pendant |= 1 << v
            else:
                active ^= 1 << v
    while pendant:
        v = (pendant & -pendant).bit_length() - 1
        u = (adj[v] & active).bit_length() - 1
        match[u] = v
        match[v] = u
        active ^= (1 << u) | (1 << v)
        # u's pendant neighbours are isolated now; the others lost one.
        rest = adj[u] & active
        active &= ~(rest & pendant)
        rest &= ~pendant
        pendant &= active
        while rest:
            low = rest & -rest
            rest ^= low
            row = adj[low.bit_length() - 1] & active  # it had two or more
            if row & (row - 1) == 0:
                pendant |= low
    # Greedy start: each vertex, lowest first, to its lowest unmatched
    # neighbour. A vertex left unmatched had no unmatched neighbour, so it is
    # no neighbour of a later unmatched one: `rest`, the unmatched vertices
    # not yet visited, holds every candidate.
    free = []
    rest = active
    while rest:
        low = rest & -rest
        v = low.bit_length() - 1
        row = adj[v] & rest
        if row:
            high = row & -row
            w = high.bit_length() - 1
            match[v] = w
            match[w] = v
            rest ^= low | high
        else:
            rest ^= low
            free.append(v)
    if len(free) > 1:
        alive = active
        parent = [-1] * n
        base = list(range(n))
        outer = bytearray(n)
        left = len(free)  # unmatched vertices still alive
        for root in free:
            if left < 2:
                break
            if match[root] != -1:
                continue  # the far end of an earlier augmenting path
            left -= 1
            if not adj[root] & alive:
                alive ^= 1 << root  # its neighbours are all dead
                continue
            tree = _search(adj, alive, match, root, parent, base, outer)
            if tree:
                alive &= ~tree
            else:
                left -= 1
    pairs = [(i, j) for i, j in enumerate(match) if j > i]
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
