"""Structural forms of saturating and round sets: shifted-cap decompositions,
the two shapes of large maximal sum-free sets, named constructions, blocking
predicates read off the complementary cap, and the two-isolated-edges census.

Every certificate returned here re-expands to its input bit-exactly; callers
can round-trip any decomposition without recomputation.

Both decompositions read their shifts off U(A), the nonzero sums with one
unordered pair (`sumsets._two_and_unique`), by two facts.

Shift rule. For |A| >= 2, g in A is a round shift ((A + g) ∖ {0} sum-free)
iff A + g ⊆ U(A) ∪ {0}. Proof: the translate has a line iff g = a + b + c
for pairwise distinct a, b, c in A (none is g, as b + c != 0), iff some
g + a, a != g, equals b + c for a pair {b, c} != {g, a}, that is, is not in
U(A). So the shifts are the star centres of the unique-representation
graph, and A ∩ (A + M), M = 2A ∖ (U(A) ∪ {0}), holds the other points.

Saturating reduction. If 0 is not in A and A ∪ 2A = G, every base
B = ((A ∪ {0}) + s) ∖ {0} is non-empty with B ∪ 2B = 2(A ∪ {0}) = G, so it
is maximal sum-free iff sum-free: the shifted-cap forms of A are the round
forms of A ∪ {0}, with the same shifts, bases and order. Otherwise
B ∪ 2B ∪ {0} = A ∪ 2A ∪ {0} is not G, or A = B = ∅ (at rank 0, 2({0}) = G),
and A has no form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

from .core import (
    ElementSet,
    InternalError,
    QuotientView,
    Subgroup,
    period,
    span,
)
from .sumsets import (
    PredicateReport,
    _two_and_unique,
    is_maximal_sum_free,
    is_sum_free,
    sumset,
    two_a,
)
from . import urgraph


@dataclass(frozen=True)
class Decomposition:
    """A = shift + (base ∪ {0}), minus 0 for the saturating form, whose base is
    maximal sum-free with shift in base ∪ {0}; the round form has a sum-free
    base. `expand` is the one place the shifted-cap map is written."""

    kind: Literal["saturating", "round"]
    shift: int
    base: ElementSet

    def expand(self) -> ElementSet:
        shifted = self.base.with_zero().translate(self.shift)
        return shifted.nonzero() if self.kind == "saturating" else shifted

    def to_json(self) -> dict:
        return {"kind": self.kind, "shift": self.shift, "base": self.base.to_json()}


def decompose_saturating(A: ElementSet) -> list[Decomposition]:
    """All shifted-cap representations of A; empty when A is not of that form.
    A shift lies in A ∪ {0}, since the expansion holds shift + 0 unless 0."""
    if 0 in A:
        raise ValueError("saturating sets exclude 0")
    return _shifted_forms(A, "saturating")


def decompose_round(A: ElementSet) -> list[Decomposition]:
    """All representations A = g + (S ∪ {0}) with S sum-free."""
    if len(A) < 2:
        raise ValueError("decompose_round needs |A| >= 2")
    return _shifted_forms(A, "round")


def _shifted_forms(A: ElementSet, kind: Literal["saturating", "round"]) -> list[Decomposition]:
    """The forms of one kind by the shift rule on A ∪ {0} (saturating) or A:
    one pass for 2A and U(A), one sumset, one predicate per shift found."""
    full = A.with_zero() if kind == "saturating" else A
    two, unique = _two_and_unique(full)
    if kind == "saturating" and not (len(A) and ElementSet(A.rank, two).is_full()):
        return []
    shared = ElementSet(A.rank, two & ~unique & ~1)
    check = is_maximal_sum_free if kind == "saturating" else is_sum_free
    out = []
    for g in full.difference(sumset(full, shared)):
        dec = Decomposition(kind, g, full.translate(g).nonzero())
        if dec.expand() != A or not check(dec.base):
            raise InternalError(f"{kind} form with shift {g} fails its check")
        out.append(dec)
    return out


@dataclass(frozen=True)
class SumfreeClass:
    """Shape of a maximal sum-free set: the nonzero coset of an index-2 subgroup,
    a five-point form B + H with H of index 16, or neither."""

    tag: Literal["index_two_coset", "five_point_form", "other"]
    coset_subgroup: Subgroup | None = None
    period_subgroup: Subgroup | None = None
    quotient_points: ElementSet | None = None

    def to_json(self) -> dict:
        out: dict = {"tag": self.tag}
        if self.coset_subgroup is not None:
            out["coset_subgroup_basis"] = list(self.coset_subgroup.basis)
        if self.period_subgroup is not None:
            out["period_basis"] = list(self.period_subgroup.basis)
        if self.quotient_points is not None:
            # The points live in the rank-4 quotient by the period subgroup.
            out["quotient_points"] = self.quotient_points.to_json()
        return out


def classify_max_sumfree(S: ElementSet) -> SumfreeClass:
    """Classify a maximal sum-free set by shape; inputs failing maximality are rejected."""
    if not is_maximal_sum_free(S):
        raise ValueError("classify_max_sumfree needs a maximal sum-free set")
    r = S.rank
    # Index-2 coset: translating by any member must give the subgroup itself.
    if len(S) == 1 << (r - 1):
        shifted = S.translate(S.min_element())
        H = span(shifted)
        if H.members == shifted:
            return SumfreeClass("index_two_coset", coset_subgroup=H)
    # Five-point form: the period has index 16 and the projection is five
    # points spanning the rank-4 quotient with zero sum.
    if r >= 4:
        H = period(S)
        if H.index == 16:
            view = QuotientView(H)
            pts = view.project_set(S)
            total = 0
            for p in pts:
                total ^= p
            if len(pts) == 5 and total == 0 and span(pts).dim == 4:
                return SumfreeClass(
                    "five_point_form", period_subgroup=H, quotient_points=pts
                )
    return SumfreeClass("other")


# -- constructions


def construct_coset(r: int, g: int | None = None) -> ElementSet:
    """The nonzero coset g + H of the index-2 subgroup H spanned by the first
    r - 1 unit vectors, g by default its least point: minimal saturating."""
    H = Subgroup.generated_by(r, (1 << i for i in range(r - 1)))
    if g is None:
        g = H.members.complement().min_element()
    if g in H.members:
        raise ValueError("g must lie outside the subgroup")
    return H.coset(g)


def construct_punctured(r: int, g: int | None = None) -> ElementSet:
    """{g} together with the nonzero part of the subgroup H of
    `construct_coset`: the shifted-cap form of the coset g + H with shift g,
    minimal saturating."""
    coset = construct_coset(r, g)
    g = coset.min_element() if g is None else g
    return Decomposition("saturating", g, coset).expand()


def construct_shifted_cap(base: ElementSet, shift: int) -> ElementSet:
    """(shift + (base ∪ {0})) \\ {0} for a maximal sum-free base and shift in base ∪ {0}."""
    if not is_maximal_sum_free(base):
        raise ValueError("construct_shifted_cap needs a maximal sum-free base")
    if shift != 0 and shift not in base:
        raise ValueError("shift must lie in the base or be 0")
    return Decomposition("saturating", shift, base).expand()


def construct_cap_replacement(base: ElementSet, shift: int) -> ElementSet:
    """Replace every other point of a complete cap by the third point on its
    line through the fixed point: {shift} ∪ (shift + (base \\ {shift}))."""
    if not is_maximal_sum_free(base):
        raise ValueError("construct_cap_replacement needs a complete cap")
    if shift not in base:
        raise ValueError("the fixed point must belong to the cap")
    out = base.without_element(shift).translate(shift).with_element(shift)
    # Same set as the shifted-cap form with the same parameters.
    if out != construct_shifted_cap(base, shift):
        raise InternalError("cap replacement differs from the shifted-cap form")
    return out


def construct_subgroup_union(r: int, first: Subgroup | None = None, second: Subgroup | None = None) -> ElementSet:
    """(F ∪ H) \\ {0} for complementary subgroups with |F|, |H| >= 4: a minimal
    saturating set admitting no shifted-cap form."""
    if (first is None) != (second is None):
        raise ValueError("provide both subgroups or neither")
    if first is None:
        if r < 4:
            raise ValueError("construct_subgroup_union needs rank >= 4")
        first = Subgroup.generated_by(r, (1 << (r - 1), 1 << (r - 2)))
        second = Subgroup.generated_by(r, (1 << i for i in range(r - 2)))
    if first.rank != r or second.rank != r:
        raise ValueError("rank mismatch")
    if first.order < 4 or second.order < 4:
        raise ValueError("both subgroups need order >= 4")
    if first.dim + second.dim != r or len(first.members.intersect(second.members)) != 1:
        raise ValueError("subgroups must be complementary")
    return first.members.union(second.members).nonzero()


# -- blocking sets (points are nonzero; a line is a triple {x, y, x+y}). B meets
# every line iff the other nonzero points C hold none: iff C is a cap (sum-free).


def is_blocking(B: ElementSet) -> PredicateReport:
    """Every line meets B: C = complement of B ∪ {0} is sum-free. A false
    verdict names the first line x < y < x + y avoiding B. Its least point
    is d = min(C ∩ 2C), and its middle point the first a in C with a + d in
    C, which is the triple `is_sum_free` reports."""
    if 0 in B:
        raise ValueError("blocking sets live on the nonzero points")
    sf = is_sum_free(B.complement().nonzero())
    if sf:
        return PredicateReport("blocking", True)
    return PredicateReport("blocking", False, witness={"line": sorted(sf.witness["triple"])})


def is_minimal_blocking(B: ElementSet) -> PredicateReport:
    """Blocking, and every point is on some line met only at that point. B ∖ {b}
    still blocks iff C ∪ {b} is sum-free, iff b is not in 2C. 2C is computed
    once; a B that does not block takes its line from `is_blocking`."""
    if 0 in B:
        raise ValueError("blocking sets live on the nonzero points")
    C = B.complement().nonzero()
    two = two_a(C)
    if not C.isdisjoint(two):
        return PredicateReport("minimal-blocking", False, witness=is_blocking(B).witness,
                               detail="not blocking")
    removable = B.difference(two)
    if len(removable):
        return PredicateReport("minimal-blocking", False,
                               witness={"removable": removable.min_element()})
    return PredicateReport("minimal-blocking", True)


def tangent_construction(B: ElementSet, s: int) -> ElementSet:
    """{s} plus the points b of B whose line through s is tangent to B.

    The line through s and b is {s, b, s + b}; it is tangent exactly when
    s + b stays outside B.
    """
    if 0 in B:
        raise ValueError("blocking sets live on the nonzero points")
    if s == 0:
        raise ValueError("0 cannot be used as a point")
    if s in B:
        raise ValueError("the external point must avoid B")
    out = B.bits & ~B.translate(s).bits
    return ElementSet(B.rank, out | (1 << s))


# -- coset census for round sets with two isolated edges


class CensusError(ValueError):
    """Input violates the census preconditions or an asserted coset fact."""


@dataclass(frozen=True)
class CosetRecord:
    rep: int
    set_count: int  # |A ∩ (rep + L)|
    unique_count: int  # |D(A) ∩ (rep + L)|
    tag: str  # "0", "1", "2-", "20", "2+", "3-", "3+", "4-" or "4+"


@dataclass(frozen=True)
class CosetCensus:
    """Distribution of a round set over the cosets of the order-8 subgroup spanned
    by the endpoints of two isolated edges (0, a1) and (a2, a3).

    Subgroups: edge_span = <a1, a2, a3> (order 8), side_minus = <a3, a1+a2>,
    side_plus = <a2, a1+a3>, core_pair = <a1+a2+a3>, label_span = <a1, a2+a3>.
    Types count the nonzero cosets only. Facts that follow from the isolated
    edges alone (the two counting identities, |A_g| <= 4, the single-coset
    property, zero unique sums on types 20/3/4 off the edge span) are enforced
    at build time. The sharper unique-sum bounds (exactly 2 on the edge span,
    at most 2 on types 1/2-/2+, at most 4 on type 0) additionally need
    |A| > 2^(r-2) + 3; they are recorded in dg_bounds_hold / dg_violations and
    enforced only when that size hypothesis is met.
    """

    rank: int
    set_size: int
    first_edge: tuple[int, int]
    second_edge: tuple[int, int]
    edge_span: Subgroup
    side_minus: Subgroup
    side_plus: Subgroup
    core_pair: Subgroup
    label_span: Subgroup
    records: tuple[CosetRecord, ...]
    type_counts: dict[str, int]
    dg_bounds_hold: bool
    dg_violations: tuple[str, ...]

    def count(self, tag: str) -> int:
        return self.type_counts.get(tag, 0)

    @property
    def size_hypothesis(self) -> bool:
        return self.set_size > (1 << (self.rank - 2)) + 3

    def identities_hold(self) -> bool:
        total = sum(self.type_counts.values())
        weighted = sum(int(k[0]) * v for k, v in self.type_counts.items())
        return (
            total == (1 << (self.rank - 3)) - 1
            and weighted == self.set_size - 4
        )

    def to_json(self) -> dict:
        return {
            "r": self.rank,
            "size": self.set_size,
            "first_edge": list(self.first_edge),
            "second_edge": list(self.second_edge),
            "subgroup_bases": {
                "edge_span": list(self.edge_span.basis),
                "side_minus": list(self.side_minus.basis),
                "side_plus": list(self.side_plus.basis),
                "core_pair": list(self.core_pair.basis),
                "label_span": list(self.label_span.basis),
            },
            "type_counts": dict(sorted(self.type_counts.items())),
            "identities_hold": self.identities_hold(),
            "dg_bounds_hold": self.dg_bounds_hold,
            "dg_violations": list(self.dg_violations),
            "records": [
                {"rep": rec.rep, "in_set": rec.set_count,
                 "unique_sums": rec.unique_count, "type": rec.tag}
                for rec in self.records
            ],
        }


def _choose_isolated_edges(edges: list[tuple[int, int]]) -> tuple[tuple[int, int], tuple[int, int]]:
    zero_edges = [e for e in edges if e[0] == 0]
    if not zero_edges:
        raise CensusError("the set must be translated so that (0, a1) is an isolated edge")
    first = zero_edges[0]
    rest = [e for e in edges if e != first]
    if not rest:
        raise CensusError("need at least two isolated edges")
    return first, rest[0]


def coset_census(
    A: ElementSet,
    first_edge: tuple[int, int] | None = None,
    second_edge: tuple[int, int] | None = None,
) -> CosetCensus:
    """Census of A over the cosets of <a1, a2, a3>.

    Preconditions: r >= 3, 0 in A, the graph of A has two or more isolated
    edges, one of them at 0. When the edges are not supplied, the
    lexicographically smallest valid pair is used.
    """
    r = A.rank
    if r < 3:
        raise CensusError("census needs rank >= 3")
    if 0 not in A:
        raise CensusError("the set must contain 0")
    # Round iff no vertex is isolated (a singleton is round); D(A) is the edge labels.
    G = urgraph.build(A)
    if len(A) > 1 and not all(G.adj):
        raise CensusError("the set must be round")
    iso = urgraph.isolated_edges(G)
    if len(iso) < 2:
        raise CensusError("need at least two isolated edges")
    if first_edge is None or second_edge is None:
        first_edge, second_edge = _choose_isolated_edges(iso)
    if first_edge not in iso or second_edge not in iso:
        raise CensusError("chosen edges are not isolated edges of the graph")
    if first_edge[0] != 0:
        raise CensusError("the first edge must contain 0")
    a1 = first_edge[1]
    a2, a3 = second_edge

    L = Subgroup.generated_by(r, (a1, a2, a3))
    if L.dim != 3:
        # Dependence would force the two isolated edges to share their unique-sum
        # label, i.e. to be the same edge.
        raise CensusError(
            f"edge endpoints {a1}, {a2}, {a3} are linearly dependent; "
            "distinct isolated edges cannot produce this"
        )
    K_minus = Subgroup.generated_by(r, (a3, a1 ^ a2))
    K_plus = Subgroup.generated_by(r, (a2, a1 ^ a3))
    H = Subgroup.generated_by(r, (a1 ^ a2 ^ a3,))
    M = Subgroup.generated_by(r, (a1, a2 ^ a3))

    if A.intersect(L.members) != ElementSet.from_elements(r, [0, a1, a2, a3]):
        raise CensusError("A must meet the edge span exactly in {0, a1, a2, a3}")

    D = ElementSet.from_elements(r, G.edge_labels)
    view = QuotientView(L)
    km_view = QuotientView(K_minus)
    kp_view = QuotientView(K_plus)

    sigma = a1 ^ a2 ^ a3
    records = []
    counts: dict[str, int] = {}
    conditional: list[str] = []
    for rep in view.transversal:
        coset = L.coset(rep)
        A_g = A.intersect(coset)
        D_g = D.intersect(coset)
        size = len(A_g)
        if size > 4:
            raise CensusError(f"coset at {rep} holds {size} > 4 elements of A")
        in_L = rep in L.members
        tag = str(size)
        if in_L:
            # Unconditional on the edge span: D contains the two edge labels
            # and avoids 0 and the four cross sums; only sigma is size-dependent.
            if a1 not in D_g or (a2 ^ a3) not in D_g:
                raise CensusError("edge labels must be unique sums")
            stray = D_g.bits & ~((1 << a1) | (1 << (a2 ^ a3)) | (1 << sigma))
            if stray:
                raise CensusError("unique sums on the edge span outside the allowed three")
            if sigma in D_g:
                conditional.append(f"edge span: |D_g| = {len(D_g)} != 2")
        else:
            if size >= 2:
                km = len(km_view.project_set(A_g))
                kp = len(kp_view.project_set(A_g))
                if min(km, kp) > 1:
                    raise CensusError(
                        f"coset at {rep}: A_g spreads over both order-4 subgroup "
                        f"coset families ({km}, {kp})"
                    )
                if km == 1 and kp == 1:
                    tag += "0"
                elif km == 1:
                    tag += "-"
                else:
                    tag += "+"
            if tag in ("20", "3-", "3+", "4-", "4+"):
                if len(D_g):
                    raise CensusError(
                        f"coset at {rep} (type {tag}) must carry no unique sums"
                    )
            elif tag in ("1", "2-", "2+"):
                if len(D_g) > 2:
                    conditional.append(
                        f"coset at {rep} (type {tag}): |D_g| = {len(D_g)} > 2"
                    )
            elif len(D_g) > 4:
                conditional.append(f"coset at {rep} (type 0): |D_g| = {len(D_g)} > 4")
            counts[tag] = counts.get(tag, 0) + 1
        records.append(CosetRecord(rep, size, len(D_g), tag))

    census = CosetCensus(
        rank=r,
        set_size=len(A),
        first_edge=first_edge,
        second_edge=second_edge,
        edge_span=L,
        side_minus=K_minus,
        side_plus=K_plus,
        core_pair=H,
        label_span=M,
        records=tuple(records),
        type_counts=counts,
        dg_bounds_hold=not conditional,
        dg_violations=tuple(conditional),
    )
    if census.count("30") or census.count("40"):
        raise CensusError("types 3 and 4 cannot have both quotient images trivial")
    if not census.identities_hold():
        raise CensusError("census identities failed")
    if census.size_hypothesis and conditional:
        raise CensusError(
            "bounds guaranteed by |A| > 2^(r-2) + 3 failed: " + "; ".join(conditional)
        )
    return census
