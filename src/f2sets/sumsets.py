"""Sumsets, representation counts, unique sums, and the set predicates built on them.

Sum kernels, one per regime, all exact:

- Python pair loop (`_pair_sum_bits`), for `sumset` only, while it performs
  at most `_PY_PAIR_LIMIT` = 128 XORs: n(n-1)/2 for B = C, |B|*|C|
  otherwise. The numpy pairs kernel costs 10-25 us at these sizes; the loop
  ties with it at 100-130 pairs for B != C and at 55-90 XORs for B = C, and
  at 703 XORs (B = C, 38 points) takes 66-120 us against 13-23 us (ranks
  4-10; 2 vCPUs, Python 3.11, numpy 2.4).
- numpy pairs (`_pair_xors`), up to `_SPARSE_PRODUCT_LIMIT` = 2^22 ordered
  pairs (a 32 MB XOR array): `sumset` scatters the XORs into an indicator,
  count tables bincount them. At rank 20 with 10^6 pairs the scatter takes
  10 ms against 15 ms for reading the support of a bincount. The limit
  ignores the rank: past about 2.5*10^5 pairs at rank >= 10 the dense kernel
  is already faster.
- Walsh-Hadamard dense (`_cross_counts_dense`), past that limit up to rank
  `_DENSE_MAX_RANK` = 20: the full ordered table in O(r * 2^r), exact in
  int64 because intermediate magnitudes are bounded by 2^(3r).
- Split (`_cross_counts_split`), above rank 20: both operands split on the
  top coordinate and exact rank-(r-1) tables are added.

Count tables (`rep_counts`, `mult_sumset` with k >= 2) take the last three
through `_cross_counts`; `sumset` takes all four, reading the support of a
count table past the numpy limit.

Counting conventions: RepCountTable stores ordered counts N(d) over A x A.
The unordered count of d != 0 is N(d)/2, and of d = 0 is |A| (each pair
(a, a) counted once). Operations that quantify representations state which
convention they use.

Removal rule. Write U(A) = {d != 0 : N(d) = 2} for the nonzero unique sums.
Dropping a from A removes the ordered pairs (a, y) and (y, a). Two distinct
unordered pairs with one sum are disjoint, so d loses its last pair exactly
when its only pair contains a, and for |A| >= 2

    2(A ∖ {a}) = 2A ∖ {d in U(A) : a + d in A}.

So for watched points W inside U(A), the elements whose removal loses a point
of W are A ∩ (A + W), one sumset (`_removals_losing`). Round sets, minimal
saturating sets, the search profile and both trimmers all use this one rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .core import (
    ElementSet,
    InternalError,
    RankMismatchError,
    _bits_to_mask,
    _mask_to_bits,
    indices_to_bits,
    period,
)

# Kernel cut-overs; the module docstring gives the measurement behind each.
_PY_PAIR_LIMIT = 128
_SPARSE_PRODUCT_LIMIT = 1 << 22
_DENSE_MAX_RANK = 20


@dataclass(frozen=True)
class PredicateReport:
    """Outcome of a predicate check. A false verdict always carries a witness."""

    name: str
    verdict: bool
    witness: Any = None
    detail: str | None = None

    def __bool__(self) -> bool:
        return self.verdict

    def to_json(self) -> dict:
        out: dict[str, Any] = {"predicate": self.name, "verdict": self.verdict}
        if self.witness is not None:
            out["witness"] = self.witness
        if self.detail is not None:
            out["detail"] = self.detail
        return out


@dataclass(frozen=True)
class RepCountTable:
    """Ordered representation counts N(d) = #{(a1, a2) in A x A : a1 + a2 = d}."""

    rank: int
    size: int  # |A|
    counts: np.ndarray  # int64, length 2^rank, read-only

    def __post_init__(self):
        self.counts.setflags(write=False)

    def ordered(self, d: int) -> int:
        return int(self.counts[d])

    def unordered(self, d: int) -> int:
        if d == 0:
            return self.size
        return int(self.counts[d]) // 2

    def support(self) -> ElementSet:
        """The sumset 2A: all d with at least one representation."""
        return ElementSet(self.rank, _mask_to_bits(self.counts != 0))

    def total(self) -> int:
        return int(self.counts.sum())


def _walsh_int64(arr: np.ndarray) -> np.ndarray:
    out = arr.astype(np.int64, copy=True)
    h = 1
    n = len(out)
    while h < n:
        view = out.reshape(-1, 2, h)
        top = view[:, 0, :] + view[:, 1, :]
        bot = view[:, 0, :] - view[:, 1, :]
        view[:, 0, :] = top
        view[:, 1, :] = bot
        h *= 2
    return out


def _cross_counts_dense(B: ElementSet, C: ElementSet) -> np.ndarray:
    r = B.rank
    if r > _DENSE_MAX_RANK:
        raise InternalError(f"dense kernel called at rank {r}, exact only up to {_DENSE_MAX_RANK}")
    fb = _walsh_int64(_bits_to_mask(B.bits, r))
    if C.bits == B.bits:
        fb *= fb
    else:
        fb *= _walsh_int64(_bits_to_mask(C.bits, r))
    out = _walsh_int64(fb)
    out >>= r  # exact: the inverse transform is divisible by 2^r
    return out


def _pair_xors(B: ElementSet, C: ElementSet) -> np.ndarray:
    """Every b + c over B x C, repeats included, as one flat array."""
    bi = B.indices()
    ci = bi if C.bits == B.bits else C.indices()
    return np.bitwise_xor.outer(bi, ci).ravel()


def _cross_counts_sparse(B: ElementSet, C: ElementSet) -> np.ndarray:
    return np.bincount(_pair_xors(B, C), minlength=1 << B.rank).astype(np.int64, copy=False)


def _cross_counts_split(B: ElementSet, C: ElementSet) -> np.ndarray:
    """Counts above the dense kernel's exact rank. Each operand splits on the
    top coordinate into rank r-1 halves, B = B0 | (B1 + top); the low half of
    the table is B0*C0 + B1*C1 and the high half B0*C1 + B1*C0."""
    h = B.rank - 1
    width = 1 << h
    low = (1 << width) - 1
    b0, b1 = ElementSet(h, B.bits & low), ElementSet(h, B.bits >> width)
    c0, c1 = ElementSet(h, C.bits & low), ElementSet(h, C.bits >> width)
    lower = _cross_counts(b0, c0) + _cross_counts(b1, c1)
    if B.bits == C.bits:
        upper = 2 * _cross_counts(b0, b1)
    else:
        upper = _cross_counts(b0, c1) + _cross_counts(b1, c0)
    return np.concatenate((lower, upper))


def _cross_counts(B: ElementSet, C: ElementSet) -> np.ndarray:
    """Ordered counts of b + c over B x C: the one count dispatch."""
    if len(B) * len(C) <= _SPARSE_PRODUCT_LIMIT:
        return _cross_counts_sparse(B, C)
    if B.rank <= _DENSE_MAX_RANK:
        return _cross_counts_dense(B, C)
    return _cross_counts_split(B, C)


def rep_counts(A: ElementSet) -> RepCountTable:
    """Full ordered representation table for A + A."""
    return RepCountTable(A.rank, len(A), _cross_counts(A, A))


def _pair_sum_bits(bs: list[int], cs: list[int], same: bool) -> int:
    """The Python pair loop: every b + c, or for B = C the pairs i < j plus 0 = b + b."""
    bits = 1 if same else 0
    for i, b in enumerate(bs):
        for c in cs[i + 1 :] if same else cs:
            bits |= 1 << (b ^ c)
    return bits


def sumset(B: ElementSet, C: ElementSet) -> ElementSet:
    """Exact support of {b + c : b in B, c in C}."""
    if B.rank != C.rank:
        raise RankMismatchError(f"rank {B.rank} vs {C.rank}")
    r = B.rank
    nb, nc = len(B), len(C)
    if nb == 0 or nc == 0:
        return ElementSet.empty(r)
    same = B.bits == C.bits
    if (nb * (nb - 1) // 2 if same else nb * nc) <= _PY_PAIR_LIMIT:
        bs = B.elements()  # listed once: each iteration peels the 2^r-bit integer
        return ElementSet(r, _pair_sum_bits(bs, bs if same else C.elements(), same))
    if nb * nc <= _SPARSE_PRODUCT_LIMIT:
        # indices_to_bits scatters into an indicator, so repeated XORs collapse there.
        return ElementSet(r, indices_to_bits(_pair_xors(B, C), r))
    return ElementSet(r, _mask_to_bits(_cross_counts(B, C) != 0))


def two_a(A: ElementSet) -> ElementSet:
    return sumset(A, A)


def mult_sumset(B: ElementSet, C: ElementSet, k: int) -> ElementSet:
    """Elements with at least k ordered representations as b + c."""
    if k < 1:
        raise ValueError("multiplicity k must be >= 1")
    if B.rank != C.rank:
        raise RankMismatchError(f"rank {B.rank} vs {C.rank}")
    if k == 1:
        return sumset(B, C)
    return ElementSet(B.rank, _mask_to_bits(_cross_counts(B, C) >= k))


def _unique_nonzero(counts: np.ndarray, rank: int) -> ElementSet:
    """U(A): the d != 0 whose ordered count is exactly 2 (one unordered pair)."""
    return ElementSet(rank, _mask_to_bits(counts == 2) & ~1)


def _removals_losing(A: ElementSet, W: ElementSet) -> ElementSet:
    """The elements of A whose removal drops a point of W from 2A, for W
    inside U(A): by the removal rule (module docstring) they are A ∩ (A + W)."""
    return A.intersect(sumset(A, W))


def unique_sums(A: ElementSet) -> ElementSet:
    """The set of elements with exactly one unordered representation from A + A."""
    bits = _unique_nonzero(rep_counts(A).counts, A.rank).bits
    if len(A) == 1:
        bits |= 1  # 0 = a + a is the unique representation
    return ElementSet(A.rank, bits)


# -- predicates


def is_sum_free(A: ElementSet) -> PredicateReport:
    """A is sum-free iff A and 2A are disjoint (no internal lines)."""
    hit = A.intersect(two_a(A))
    if len(hit) == 0:
        return PredicateReport("sum-free", True)
    d = hit.min_element()
    for a in A:
        if (a ^ d) in A:
            return PredicateReport(
                "sum-free", False, witness={"triple": [a, a ^ d, d]},
                detail=f"{a} + {a ^ d} = {d}, all in the set",
            )
    raise InternalError("unreachable: element of 2A without a pair")


def is_maximal_sum_free(A: ElementSet) -> PredicateReport:
    """Maximal sum-free iff sum-free and A, 2A partition the group."""
    sf = is_sum_free(A)
    if not sf:
        return PredicateReport("maximal-sum-free", False, witness=sf.witness, detail=sf.detail)
    uncovered = A.union(two_a(A)).complement()
    if len(uncovered):
        g = uncovered.min_element()
        return PredicateReport(
            "maximal-sum-free", False, witness={"adjoinable": g},
            detail=f"{g} can be adjoined keeping the set sum-free",
        )
    return PredicateReport("maximal-sum-free", True)


def is_saturating(A: ElementSet) -> PredicateReport:
    """Saturating iff A together with 2A covers the whole group. Requires 0 not in A."""
    if 0 in A:
        raise ValueError("saturating sets live in the nonzero part of the group")
    if len(A) == 0:
        return PredicateReport("saturating", False, witness={"uncovered": 0})
    uncovered = A.union(two_a(A)).complement()
    if len(uncovered):
        return PredicateReport("saturating", False, witness={"uncovered": uncovered.min_element()})
    return PredicateReport("saturating", True)


def is_minimal_saturating(A: ElementSet) -> PredicateReport:
    """Minimal saturating: saturating, and removing any single element breaks it.

    Removing a from a saturating A keeps it saturating iff a stays covered
    (a in 2A: 0 is not in A, so no pair for a involves a) and no point
    outside A loses its last pair, which by the removal rule leaves
    (A ∩ 2A) ∖ (A + (U(A) ∖ A)) as the removable elements.
    """
    if 0 in A:
        raise ValueError("saturating sets live in the nonzero part of the group")
    table = rep_counts(A)
    two = table.support()
    uncovered = A.union(two).complement()
    if len(uncovered):
        return PredicateReport("minimal-saturating", False, detail="not saturating",
                               witness={"uncovered": uncovered.min_element()})
    outside = _unique_nonzero(table.counts, A.rank).difference(A)
    removable = A.intersect(two).difference(_removals_losing(A, outside))
    if len(removable):
        return PredicateReport("minimal-saturating", False,
                               witness={"removable": removable.min_element()})
    return PredicateReport("minimal-saturating", True)


def is_round(A: ElementSet) -> PredicateReport:
    """Round: removing any single element strictly shrinks the sumset 2A.

    By the removal rule the redundant elements are A ∖ (A + U(A)) (the
    empty and singleton sets are round by convention).
    """
    if len(A) <= 1:
        return PredicateReport("round", True)
    unique = _unique_nonzero(rep_counts(A).counts, A.rank)
    redundant = A.difference(_removals_losing(A, unique))
    if len(redundant):
        return PredicateReport("round", False, witness={"redundant": redundant.min_element()})
    return PredicateReport("round", True)


def kneser_check(B: ElementSet, C: ElementSet) -> PredicateReport:
    """When |B+C| <= |B| + |C| - 1, the period H of B+C must satisfy
    |B+C| = |B+H| + |C+H| - |H|. A false verdict would indicate a bug here,
    not a counterexample to the theorem."""
    if len(B) == 0 or len(C) == 0:
        raise ValueError("kneser_check needs non-empty sets")
    S = sumset(B, C)
    if len(S) > len(B) + len(C) - 1:
        return PredicateReport("kneser", True, detail="hypothesis |B+C| <= |B|+|C|-1 not triggered")
    H = period(S)
    bh = len(sumset(B, H.members))
    ch = len(sumset(C, H.members))
    lhs = len(S)
    rhs = bh + ch - H.order
    if lhs == rhs:
        return PredicateReport("kneser", True)
    return PredicateReport(
        "kneser", False,
        witness={"B": B.to_json(), "C": C.to_json(), "lhs": lhs, "rhs": rhs,
                 "period_basis": list(H.basis)},
    )


def alldisjoint_check(B: ElementSet, C: ElementSet) -> PredicateReport:
    """Disjoint B, C with |B| + |C| > 2^(r-1): their union must meet B + C."""
    if B.rank != C.rank:
        raise RankMismatchError(f"rank {B.rank} vs {C.rank}")
    r = B.rank
    if len(B) == 0 or len(C) == 0:
        raise ValueError("alldisjoint_check needs non-empty sets")
    if not B.isdisjoint(C):
        raise ValueError("alldisjoint_check needs disjoint sets")
    if len(B) + len(C) <= 1 << (r - 1):
        raise ValueError("alldisjoint_check needs |B| + |C| > 2^(r-1)")
    meet = B.union(C).intersect(sumset(B, C))
    if len(meet):
        return PredicateReport("alldisjoint", True, detail=f"common element {meet.min_element()}")
    return PredicateReport(
        "alldisjoint", False, witness={"B": B.to_json(), "C": C.to_json()},
    )


def s2_bound_check(B: ElementSet, C: ElementSet) -> PredicateReport:
    """|B ⊞2 C| >= min(2|B| + 2|C| - 4 - 2^r, |B| - 1) for |B|, |C| >= 2."""
    if B.rank != C.rank:
        raise RankMismatchError(f"rank {B.rank} vs {C.rank}")
    if len(B) < 2 or len(C) < 2:
        raise ValueError("s2_bound_check needs |B| >= 2 and |C| >= 2")
    m2 = len(mult_sumset(B, C, 2))
    bound = min(2 * len(B) + 2 * len(C) - 4 - (1 << B.rank), len(B) - 1)
    if m2 >= bound:
        return PredicateReport("s2-bound", True, detail=f"|B⊞2C| = {m2} >= {bound}")
    return PredicateReport(
        "s2-bound", False,
        witness={"B": B.to_json(), "C": C.to_json(), "m2": m2, "bound": bound},
    )


def sfnotround_check(S: ElementSet, kappa: int) -> PredicateReport:
    """Sum-free S with |S| > 2^(r-2) + kappa: every element of 2S has at least
    kappa unordered representations."""
    if kappa < 2:
        raise ValueError("kappa must be >= 2")
    r = S.rank
    if r < 2:
        raise ValueError("rank must be >= 2")
    if not is_sum_free(S):
        raise ValueError("sfnotround_check needs a sum-free set")
    if len(S) <= (1 << (r - 2)) + kappa:
        raise ValueError("sfnotround_check needs |S| > 2^(r-2) + kappa")
    table = rep_counts(S)
    for c in table.support():
        got = table.unordered(c)
        if got < kappa:
            return PredicateReport(
                "sfnotround", False, witness={"element": c, "count": got, "kappa": kappa},
            )
    return PredicateReport("sfnotround", True)


def php_covered(B: ElementSet, C: ElementSet, kappa: int) -> PredicateReport:
    """Pigeonhole bound: |B| + |C| >= 2^r + kappa forces every element to have
    at least kappa ordered representations as b + c."""
    if kappa < 1:
        raise ValueError("kappa must be >= 1")
    r = B.rank
    if len(B) + len(C) < (1 << r) + kappa:
        raise ValueError("php_covered needs |B| + |C| >= 2^r + kappa")
    if mult_sumset(B, C, kappa).is_full():
        return PredicateReport("php-cover", True)
    missing = mult_sumset(B, C, kappa).complement().min_element()
    return PredicateReport("php-cover", False, witness={"element": missing})
