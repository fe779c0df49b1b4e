"""Sumsets, representation counts, unique sums, and the set predicates built on them.

Sum kernels, one per regime, all exact:

- Python pair loop (`_pair_sum_bits`), for `sumset` only, while it performs
  at most `_PY_PAIR_LIMIT` = 128 XORs: n(n-1)/2 for B = C, |B|*|C|
  otherwise. The numpy pairs kernel costs 10-25 us at these sizes; the loop
  ties with it at 100-130 pairs for B != C and at 55-90 XORs for B = C, and
  at 703 XORs (B = C, 38 points) takes 66-120 us against 13-23 us (ranks
  4-10; 2 vCPUs, Python 3.11, numpy 2.4).
- numpy pairs (`_pair_xors`), while |B|*|C| <= min(`_SPARSE_PAIRS_PER_POINT`
  * 2^r, `_SPARSE_PRODUCT_LIMIT`): `_takes_pairs`, the one regime test of
  `sumset` and `_cross_counts`. `sumset` scatters the XORs into an
  indicator, count tables bincount them. The kernel costs about 3.5 ns a
  pair, the dense table a fixed 15-40 us plus about 13 ns a group element
  at rank 14, so the dense table wins from about 64 pairs per point at
  rank 6, 24-48 at rank 7, 24 at rank 8, 8-16 at rank 9, 8 at ranks 10-11
  and at most 4 from rank 12 (sweeps in BENCH_9.json and, with float32
  forward passes, BENCH_25.json; 2 vCPUs, numpy 2.4, OpenBLAS 0.3.31).
  `_SPARSE_PAIRS_PER_POINT` = 16 is where rank 9 crosses. It costs up to
  1.7x on 20-40 us calls at ranks 5-7, and keeps every table of a
  classification run (at most 16 pairs per point) on this kernel.
  `_SPARSE_PRODUCT_LIMIT` = 2^22 caps the XOR array at 32 MB.
- Walsh-Hadamard dense (`_cross_counts_dense`), at every rank: N =
  H(Hb * Hc) / 2^r for the 0/1 tables b, c. `_walsh` applies H_r as a
  Kronecker product of Hadamard factors of rank <= `_WALSH_FACTOR_RANK` =
  5, one BLAS matmul each, in the float dtype of its input. The forward
  passes run in float32: each value is a signed sum of distinct 0/1
  entries, at most |B| <= 2^24 = 2^MAX_RANK, so float32 holds it exactly.
  The product and the inverse run in float64, below 2^(2r) <= 2^48. One
  float32 transform takes 0.34-0.38 ms at rank 16, 3.2-3.4 ms at rank 20
  and 0.11-0.13 s at rank 24, against 0.88-0.95 ms, 14-17 ms and
  0.23-0.26 s in float64 (BENCH_25.json), and 112-120 ms at rank 20 for the
  int64 radix-2 butterflies the float64 transform replaced (BENCH_9.json).
  In float64, up to rank 12 factor ranks 4-7 differ by at most 1.5x; from
  rank 13 factors of rank 6-7 take up to 3x longer than rank 5, and rank 4
  is 1.2-1.5x slower at ranks 5, 9 and 10 but faster at ranks 15 and 20.
  The bounds are proved in `_cross_counts_dense`.

Count tables (`rep_counts`, `mult_sumset` with k >= 2) take the last two
through `_cross_counts`; `sumset` takes all three, reading the support of a
dense table outside the numpy regime.

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
of W are A ∩ (A + W), one sumset (`_removals_losing`). Round sets use this
set form directly. For saturating sets W = U(A) ∖ A, and the one helper
`_saturating_removable` gives the removable elements to
`is_minimal_saturating`, the search profile and the `find_example` trimmer.
`_two_and_unique` is the one source of 2A and U(A) as bits for `is_round`,
`is_minimal_saturating`, `unique_sums`, the `find_example` trimmer and the
shift rule of `structure`: one pass over the pairs i < j while
n(n-1) <= `_PY_PAIR_LIMIT`, a count table above. Its pass makes two big-int
updates per pair where `sumset`'s loop makes one, so it hands over at half
the pairs: the loop takes 10.3-13.6 us against 11.2-12.6 us for the table
at 66 pairs, and 20.7-22.9 against 13.1-13.6 us at 120 (ranks 4-8; 2 vCPUs,
Python 3.11, numpy 2.4).

Per element, a is in A + U(A) iff it has a unique partner, some b != a in
A with N(a + b) = 2; call a redundant when it has none. Removing redundant
elements only ever shrinks the redundant set R = A ∖ (A + U(A)):

- every sum a + b of a redundant a has N(a + b) >= 4, so the removal takes
  no sum's last pair and no element loses a unique partner;
- a sum whose count falls from 4 to 2 gives both ends of its one remaining
  pair a partner.

`generators.trim_to_round` relies on this. It keeps R and the unordered
counts M = N/2 as bit planes. Per removal it lowers the planes on the
translate a + (A ∖ {a}) and drops from R both ends of the last pair of
each sum left at M = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
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
    subgroup_sum,
)

# Kernel cut-overs and the transform's factor rank; the module docstring
# gives the measurement behind each.
_PY_PAIR_LIMIT = 128
_SPARSE_PAIRS_PER_POINT = 16
_SPARSE_PRODUCT_LIMIT = 1 << 22
_WALSH_FACTOR_RANK = 5


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


@lru_cache(maxsize=None)
def _hadamard(a: int, dtype: type) -> np.ndarray:
    """The 2^a x 2^a Sylvester matrix, entry (i, j) = (-1)^popcount(i & j),
    in the float dtype `dtype`: one cached factor per rank and dtype."""
    h = np.ones((1, 1), dtype=dtype)
    for _ in range(a):
        h = np.block([[h, h], [h, -h]])
    h.setflags(write=False)
    return h


def _walsh(table: np.ndarray, r: int) -> np.ndarray:
    """Walsh-Hadamard transform of a length-2^r float table, in its dtype.

    H_r is the Kronecker product of the Hadamard factors of ⌈r / f⌉ bit
    groups of near-equal rank <= f = `_WALSH_FACTOR_RANK`. Each step
    multiplies the leading axis by its factor and moves it last (X^T H), so
    every factor is one BLAS matmul (sgemm for float32, dgemm for float64)
    and the axes are back in order after the last one. The caller picks the
    dtype; `_cross_counts_dense` says why each of its passes is exact."""
    out = table
    groups = -(-r // _WALSH_FACTOR_RANK)
    for i in range(groups):
        a = (r + i) // groups  # the group ranks sum to r
        out = out.reshape(1 << a, -1).T @ _hadamard(a, out.dtype.type)
    return out.reshape(-1)


def _cross_counts_dense(B: ElementSet, C: ElementSet) -> np.ndarray:
    """Ordered counts by the convolution theorem, N = H(Hb * Hc) / 2^r.

    The forward transforms run in float32, the product and the inverse in
    float64. Every value either pass holds is an integer, and a float type
    adds integers exactly, in any order, while every partial sum stays
    within its integer range: 2^24 for float32, 2^53 for float64. So the
    order BLAS sums in does not matter.

    - Forward: H has ±1 entries and b is a 0/1 table, so every intermediate
      value, across factors too, and every partial sum a GEMM forms is a
      signed sum of distinct entries of b. Its magnitude is at most
      |B| <= 2^r <= 2^24 at `core.MAX_RANK` = 24; the one value that
      reaches 2^24 is Hb(0) of the full rank-24 group.
    - Product: |Hb(s) Hc(s)| <= |B| |C| <= 2^48, so it is formed in float64.
    - Inverse: every partial sum, across factors too, is a signed sum of some
      of the products, so it is bounded by
      sum_s |Hb(s) Hc(s)| <= 2^r sqrt(|B| |C|) <= 2^(2r) (Cauchy-Schwarz, and
      Parseval: sum_s Hb(s)^2 = 2^r |B|). That is 2^48 at rank 24.

    The float32 bound is the binding one: exactness holds up to rank 24.
    With float32 forward passes a call takes 23 ms for B = C and 30 ms for
    B != C at rank 20, and 0.61 and 0.76 s at rank 24, against 26, 39 ms
    and 0.74, 1.12 s with float64 ones (medians of 3; BENCH_25.json). The
    float64 inverse, 0.23-0.26 s at rank 24, is now the largest pass.

    Memory is a few 2^r tables, 128 MB each in float64 at rank 24, where a
    process peaks near 465 MB (2 vCPUs, numpy 2.4): 100-140 MB above summing
    rank-20 tables over the top coordinates, which took 6-8x longer."""
    r = B.rank
    fb = _walsh(_bits_to_mask(B.bits, r).astype(np.float32), r)
    fc = fb if C.bits == B.bits else _walsh(_bits_to_mask(C.bits, r).astype(np.float32), r)
    prod = np.multiply(fb, fc, dtype=np.float64)
    del fb, fc  # freed before the inverse makes its 2^r float64 tables
    out = _walsh(prod, r).astype(np.int64)
    out >>= r  # exact: the inverse transform is divisible by 2^r
    return out


def _pair_xors(B: ElementSet, C: ElementSet) -> np.ndarray:
    """Every b + c over B x C, repeats included, as one flat array."""
    bi = B.indices()
    ci = bi if C.bits == B.bits else C.indices()
    return np.bitwise_xor.outer(bi, ci).ravel()


def _cross_counts_sparse(B: ElementSet, C: ElementSet) -> np.ndarray:
    return np.bincount(_pair_xors(B, C), minlength=1 << B.rank).astype(np.int64, copy=False)


def _takes_pairs(B: ElementSet, C: ElementSet) -> bool:
    """Whether B x C goes to the numpy pairs kernel rather than a 2^r table."""
    return len(B) * len(C) <= min(_SPARSE_PAIRS_PER_POINT << B.rank, _SPARSE_PRODUCT_LIMIT)


def _cross_counts(B: ElementSet, C: ElementSet) -> np.ndarray:
    """Ordered counts of b + c over B x C: the one count dispatch."""
    if _takes_pairs(B, C):
        return _cross_counts_sparse(B, C)
    return _cross_counts_dense(B, C)


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
    if _takes_pairs(B, C):
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


def _two_and_unique(A: ElementSet) -> tuple[int, int]:
    """2A and U(A) as bits. While n(n-1) <= `_PY_PAIR_LIMIT` (half the
    pairs of `sumset`'s loop; module docstring), from one pass over the
    pairs i < j: with `once` the sums met at least once and `twice` those
    met again, 2A = once ∪ {0} and U(A) = once ∖ twice. Otherwise from the
    count table."""
    elems = A.elements()
    n = len(elems)
    if n * (n - 1) > _PY_PAIR_LIMIT:
        counts = rep_counts(A).counts
        return _mask_to_bits(counts != 0), _unique_nonzero(counts, A.rank).bits
    once = twice = 0
    for i, b in enumerate(elems):
        for c in elems[i + 1 :]:
            bit = 1 << (b ^ c)
            twice |= once & bit
            once |= bit
    return (once | 1) if n else 0, once & ~twice


def _saturating_removable(A: ElementSet, two: int, unique: int) -> int:
    """The elements of a saturating A (0 not in A) whose removal keeps it
    saturating, as bits, from 2A and U(A) as bits: a stays covered iff a is
    in 2A (no pair for a involves a), and by the removal rule no point
    outside A loses its last pair iff a is not in A + (U(A) ∖ A)."""
    return A.bits & two & ~_removals_losing(A, ElementSet(A.rank, unique & ~A.bits)).bits


def unique_sums(A: ElementSet) -> ElementSet:
    """Elements with exactly one unordered representation in A + A: U(A), and 0 if |A| = 1."""
    return ElementSet(A.rank, _two_and_unique(A)[1] | (len(A) == 1))


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
    """Maximal sum-free iff sum-free and A, 2A partition the group. 2A is
    computed once; an input that is not sum-free takes its line from
    `is_sum_free`."""
    two = two_a(A)
    if not A.isdisjoint(two):
        sf = is_sum_free(A)
        return PredicateReport("maximal-sum-free", False, witness=sf.witness, detail=sf.detail)
    uncovered = A.union(two).complement()
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
    uncovered = A.union(two_a(A)).complement()
    if len(uncovered):
        return PredicateReport("saturating", False, witness={"uncovered": uncovered.min_element()})
    return PredicateReport("saturating", True)


def is_minimal_saturating(A: ElementSet) -> PredicateReport:
    """Minimal saturating: saturating, and no element is removable in the
    sense of `_saturating_removable`."""
    if 0 in A:
        raise ValueError("saturating sets live in the nonzero part of the group")
    two, unique = _two_and_unique(A)
    uncovered = ElementSet(A.rank, A.bits | two).complement()
    if len(uncovered):
        return PredicateReport("minimal-saturating", False, detail="not saturating",
                               witness={"uncovered": uncovered.min_element()})
    removable = _saturating_removable(A, two, unique)
    if removable:
        return PredicateReport("minimal-saturating", False,
                               witness={"removable": ElementSet(A.rank, removable).min_element()})
    return PredicateReport("minimal-saturating", True)


def is_round(A: ElementSet) -> PredicateReport:
    """Round: removing any single element strictly shrinks the sumset 2A.

    By the removal rule the redundant elements are A ∖ (A + U(A)) (the
    empty and singleton sets are round by convention).
    """
    if len(A) <= 1:
        return PredicateReport("round", True)
    unique = ElementSet(A.rank, _two_and_unique(A)[1])
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
    bh = len(subgroup_sum(B, H))
    ch = len(subgroup_sum(C, H))
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
    kappa unordered representations.

    Both facts come from one count table N: S is sum-free iff S misses
    supp N = 2S, and the witness is the least d != 0 with 0 < N(d) < 2 kappa
    (0 is excluded: its count N(0) = |S| is not twice an unordered count)."""
    if kappa < 2:
        raise ValueError("kappa must be >= 2")
    r = S.rank
    if r < 2:
        raise ValueError("rank must be >= 2")
    counts = rep_counts(S).counts
    if S.bits & _mask_to_bits(counts != 0):
        raise ValueError("sfnotround_check needs a sum-free set")
    if len(S) <= (1 << (r - 2)) + kappa:
        raise ValueError("sfnotround_check needs |S| > 2^(r-2) + kappa")
    short = np.flatnonzero((counts[1:] > 0) & (counts[1:] < 2 * kappa))
    if len(short):
        d = int(short[0]) + 1
        return PredicateReport("sfnotround", False,
                               witness={"element": d, "count": int(counts[d]) // 2, "kappa": kappa})
    return PredicateReport("sfnotround", True)


def php_covered(B: ElementSet, C: ElementSet, kappa: int) -> PredicateReport:
    """Pigeonhole bound: |B| + |C| >= 2^r + kappa forces every element to have
    at least kappa ordered representations as b + c."""
    if kappa < 1:
        raise ValueError("kappa must be >= 1")
    r = B.rank
    if len(B) + len(C) < (1 << r) + kappa:
        raise ValueError("php_covered needs |B| + |C| >= 2^r + kappa")
    covered = mult_sumset(B, C, kappa)
    if covered.is_full():
        return PredicateReport("php-cover", True)
    return PredicateReport("php-cover", False,
                           witness={"element": covered.complement().min_element()})
