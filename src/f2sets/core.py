"""Exact arithmetic and set algebra for the elementary abelian 2-group of rank r.

Group elements are integers in [0, 2^r) with XOR as the group operation, so
every element is its own inverse and 0 is the identity. Subsets are immutable
bitsets backed by arbitrary-precision integers: bit i of the backing integer
records membership of element i. All operations are pure functions; values can
be shared freely between workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Iterator

import numpy as np

MAX_RANK = 24

# ElementSet.elements() peels bits off the backing integer up to this many
# members; each step costs O(2^r) bits, so larger sets unpack with numpy,
# whose ~5 us fixed cost the bit loop beats only on small sets.
_ITER_LOOP_MAX = 32

# ElementSet.indices() peels bits up to this many members instead of
# unpacking all 2^r bits. The loop wins up to 16-20 members at ranks 5-8
# and up to 24-32 at ranks 10-20 (6 points at rank 4: 2.9 against 7.0 us;
# 32 at rank 8: 11.6 against 8.3 us).
_INDICES_LOOP_MAX = 16

# ElementSet.from_elements sets bits one by one up to this many members, each
# step rewriting the 2^r-bit integer; past it, one numpy scatter is cheaper
# (measured crossover: 64-256 members at ranks 8-16).
_FROM_LOOP_MAX = 128


class RankMismatchError(ValueError):
    """Raised when two values from groups of different rank are combined."""


class InternalError(RuntimeError):
    """A correctness invariant of the library failed: a bug, never bad input.

    Not a ValueError, so the CLI cannot report it as an input error."""


def validate_rank(r: int, *, minimum: int = 1) -> int:
    if not isinstance(r, int) or isinstance(r, bool):
        raise TypeError(f"rank must be an integer, got {r!r}")
    if r < minimum or r > MAX_RANK:
        raise ValueError(f"rank must be in [{minimum}, {MAX_RANK}], got {r}")
    return r


def group_order(r: int) -> int:
    return 1 << r


def add(x: int, y: int, rank: int | None = None) -> int:
    """Group addition: coordinatewise XOR. add(x, x) == 0 for every x."""
    if rank is not None:
        n = group_order(rank)
        if not (0 <= x < n and 0 <= y < n):
            raise RankMismatchError(f"elements {x}, {y} out of range for rank {rank}")
    return x ^ y


@lru_cache(maxsize=None)
def _full_mask(r: int) -> int:
    return (1 << (1 << r)) - 1


@lru_cache(maxsize=None)
def _swap_mask(r: int, i: int) -> int:
    # Bits whose index has coordinate i clear: s ones, s zeros, repeated.
    # Doubling the pattern costs O(2^r) in all; a big-int division does not.
    s = 1 << i
    mask = (1 << s) - 1
    width = 2 * s
    while width < 1 << r:
        mask |= mask << width
        width *= 2
    return mask


@lru_cache(maxsize=None)
def _swap_table(r: int) -> tuple[tuple[int, int], ...]:
    """(2^i, `_swap_mask`(r, i)) for every coordinate i below r: the swaps
    that translate by 2^i, one per coordinate."""
    return tuple((1 << i, _swap_mask(r, i)) for i in range(r))


def translate_bits(bits: int, g: int, r: int) -> int:
    """Permute a 2^r-bit set integer by XOR-ing every index with g.

    Also permutes every entry of an unsigned numpy array of such sets."""
    for s, m in _swap_table(r):
        if g & s:
            bits = ((bits & m) << s) | ((bits >> s) & m)
    return bits


def _close_bits(bits: int, basis: Iterable[int], r: int) -> int:
    """The 2^r-bit set plus the span of basis: one translate per basis vector."""
    for v in basis:
        bits |= translate_bits(bits, v, r)
    return bits


def _bits_to_mask(bits: int, r: int) -> np.ndarray:
    """A 2^r-bit integer as a 0/1 uint8 table over the group: entry i is bit i."""
    n = 1 << r
    buf = bits.to_bytes(max(1, n // 8), "little")
    return np.unpackbits(np.frombuffer(buf, dtype=np.uint8), bitorder="little", count=n)


def _mask_to_bits(mask: np.ndarray) -> int:
    """The indices where a boolean (or 0/1) table over the group is true, as bits."""
    return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")


def bits_to_indices(bits: int, r: int) -> np.ndarray:
    """Set-bit positions of a 2^r-bit integer as an int64 array."""
    return np.flatnonzero(_bits_to_mask(bits, r))


def _peel_bits(b: int) -> list[int]:
    """Set-bit positions of b, ascending, taking the lowest bit off one at a time."""
    out = []
    while b:
        low = b & -b
        out.append(low.bit_length() - 1)
        b ^= low
    return out


def indices_to_bits(indices: np.ndarray, r: int) -> int:
    flat = np.zeros(1 << r, dtype=np.uint8)
    flat[indices] = 1
    return _mask_to_bits(flat)


class ElementSet:
    """An immutable subset of the rank-r group, stored as a 2^r-bit integer.

    Membership, cardinality and equality are O(1)-ish bit operations; the
    boolean algebra and XOR-translation are exact at any rank up to MAX_RANK.
    Instances are hashable and safe to share.
    """

    __slots__ = ("rank", "bits")

    def __init__(self, rank: int, bits: int):
        validate_rank(rank, minimum=0)
        if bits < 0 or bits > _full_mask(rank):
            raise ValueError(f"bits out of range for rank {rank}")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "bits", bits)

    def __setattr__(self, name, value):
        raise AttributeError("ElementSet is immutable")

    @classmethod
    def empty(cls, rank: int) -> "ElementSet":
        return cls(rank, 0)

    @classmethod
    def full(cls, rank: int) -> "ElementSet":
        return cls(rank, _full_mask(rank))

    @classmethod
    def from_elements(cls, rank: int, elements: Iterable[int]) -> "ElementSet":
        validate_rank(rank, minimum=0)
        n = group_order(rank)
        elements = list(elements)
        if len(elements) > _FROM_LOOP_MAX:
            arr = np.asarray(elements)
            if arr.dtype.kind in "iu":  # anything else takes the loop and its errors
                bad = (arr < 0) | (arr >= n)
                if bad.any():
                    raise ValueError(f"element {arr[bad][0]} out of range for rank {rank}")
                return cls(rank, indices_to_bits(arr, rank))
        bits = 0
        for e in elements:
            if not (0 <= e < n):
                raise ValueError(f"element {e} out of range for rank {rank}")
            bits |= 1 << e
        return cls(rank, bits)

    # -- JSON set literal: {"r": int, "elements": [...]} or {"r": int, "bits_hex": "..."}

    @classmethod
    def from_json(cls, obj: dict) -> "ElementSet":
        if not isinstance(obj, dict) or "r" not in obj:
            raise ValueError("set literal must be an object with an 'r' field")
        rank = obj["r"]
        validate_rank(rank)
        if "elements" in obj:
            elements = obj["elements"]
            for e in elements:  # JSON true would pass as 1, and 1.5 fail deep inside
                if type(e) is not int:
                    raise ValueError(f"set elements must be integers, got {e!r}")
            return cls.from_elements(rank, elements)
        if "bits_hex" in obj:
            hexstr = obj["bits_hex"]
            if not isinstance(hexstr, str):
                raise ValueError(f"bits_hex must be a string, got {hexstr!r}")
            expected = max(1, (1 << rank) // 4)
            if len(hexstr) != expected:
                raise ValueError(
                    f"bits_hex must have {expected} hex chars for rank {rank}, got {len(hexstr)}"
                )
            # Little-endian nibbles: first char covers elements 0..3.
            return cls(rank, int(hexstr[::-1], 16))
        raise ValueError("set literal needs 'elements' or 'bits_hex'")

    def to_json(self) -> dict:
        return {"r": self.rank, "elements": self.elements()}

    def to_hex_json(self) -> dict:
        width = max(1, (1 << self.rank) // 4)
        hexstr = format(self.bits, f"0{width}x")[::-1]
        return {"r": self.rank, "bits_hex": hexstr}

    # -- basic protocol

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __contains__(self, e: int) -> bool:
        return 0 <= e < group_order(self.rank) and (self.bits >> e) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements())

    def elements(self) -> list[int]:
        if self.bits.bit_count() > _ITER_LOOP_MAX:
            return bits_to_indices(self.bits, self.rank).tolist()
        return _peel_bits(self.bits)

    def indices(self) -> np.ndarray:
        if self.bits.bit_count() <= _INDICES_LOOP_MAX:
            return np.array(_peel_bits(self.bits), dtype=np.int64)
        return bits_to_indices(self.bits, self.rank)

    def min_element(self) -> int:
        if not self.bits:
            raise ValueError("empty set has no minimum")
        return (self.bits & -self.bits).bit_length() - 1

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ElementSet)
            and self.rank == other.rank
            and self.bits == other.bits
        )

    def __hash__(self) -> int:
        return hash((self.rank, self.bits))

    def __repr__(self) -> str:
        inside = ",".join(str(e) for e in self)
        return f"ElementSet(r={self.rank}, {{{inside}}})"

    def _check_rank(self, other: "ElementSet") -> None:
        if self.rank != other.rank:
            raise RankMismatchError(f"rank {self.rank} vs {other.rank}")

    # -- set algebra

    def union(self, other: "ElementSet") -> "ElementSet":
        self._check_rank(other)
        return ElementSet(self.rank, self.bits | other.bits)

    def intersect(self, other: "ElementSet") -> "ElementSet":
        self._check_rank(other)
        return ElementSet(self.rank, self.bits & other.bits)

    def difference(self, other: "ElementSet") -> "ElementSet":
        self._check_rank(other)
        return ElementSet(self.rank, self.bits & ~other.bits & _full_mask(self.rank))

    def complement(self) -> "ElementSet":
        return ElementSet(self.rank, self.bits ^ _full_mask(self.rank))

    __or__ = union
    __and__ = intersect
    __sub__ = difference

    def isdisjoint(self, other: "ElementSet") -> bool:
        self._check_rank(other)
        return self.bits & other.bits == 0

    def issubset(self, other: "ElementSet") -> bool:
        self._check_rank(other)
        return self.bits & ~other.bits == 0

    def with_element(self, e: int) -> "ElementSet":
        if not (0 <= e < group_order(self.rank)):
            raise ValueError(f"element {e} out of range for rank {self.rank}")
        return ElementSet(self.rank, self.bits | (1 << e))

    def without_element(self, e: int) -> "ElementSet":
        return ElementSet(self.rank, self.bits & ~(1 << e))

    def with_zero(self) -> "ElementSet":
        return ElementSet(self.rank, self.bits | 1)

    def nonzero(self) -> "ElementSet":
        return ElementSet(self.rank, self.bits & ~1)

    def translate(self, g: int) -> "ElementSet":
        """The set {b + g : b in self}; an involution for fixed g."""
        if not (0 <= g < group_order(self.rank)):
            raise RankMismatchError(f"element {g} out of range for rank {self.rank}")
        return ElementSet(self.rank, translate_bits(self.bits, g, self.rank))

    def is_full(self) -> bool:
        return self.bits == _full_mask(self.rank)


def _echelon_insert(pivots: dict[int, int], v: int) -> int:
    """Reduce v against the pivot rows; return the surviving residue (0 if dependent)."""
    while v:
        lead = v.bit_length() - 1
        if lead not in pivots:
            return v
        v ^= pivots[lead]
    return 0


def _reduced_basis(vectors: Iterable[int]) -> tuple[int, ...]:
    """Reduced row-echelon basis over F2: unique per subgroup, pivots descending."""
    pivots: dict[int, int] = {}
    for v in vectors:
        res = _echelon_insert(pivots, v)
        if res:
            pivots[res.bit_length() - 1] = res
    # Back-substitute so each pivot bit occurs in exactly one basis vector.
    for lead in sorted(pivots, reverse=True):
        for other in pivots:
            if other != lead and (pivots[other] >> lead) & 1:
                pivots[other] ^= pivots[lead]
    return tuple(pivots[lead] for lead in sorted(pivots, reverse=True))


def _basis_and_inverse(vectors: Iterable[int], r: int) -> tuple[list[int], list[int]]:
    """A basis of the rank-r group and the inverse of its change of coordinates.

    basis is the independent vectors in input order, then the unit vectors
    outside their span in ascending order. inverse[j] is the coordinate mask
    of 1 << j in that basis: the columns of the map basis[i] -> 1 << i.
    """
    rows: dict[int, tuple[int, int]] = {}  # leading bit -> (row, basis coordinates)
    basis: list[int] = []
    for u in [*vectors, *(1 << i for i in range(r))]:
        v, combo = u, 1 << len(basis)
        while v and v.bit_length() - 1 in rows:
            w, c = rows[v.bit_length() - 1]
            v ^= w
            combo ^= c
        if v:
            rows[v.bit_length() - 1] = (v, combo)
            basis.append(u)
    inverse = []
    for j in range(r):
        x, combo = 1 << j, 0
        while x:
            w, c = rows[x.bit_length() - 1]
            x ^= w
            combo ^= c
        inverse.append(combo)
    return basis, inverse


def apply_linear(cols: list[int], x: int) -> int:
    """Image of x under the linear map whose column j is the image of 1 << j."""
    out = 0
    i = 0
    while x:
        if x & 1:
            out ^= cols[i]
        x >>= 1
        i += 1
    return out


def linear_image(A: ElementSet, cols: list[int]) -> ElementSet:
    n = 1 << A.rank
    bits = 0
    for x in A:
        y = apply_linear(cols, x)
        if not 0 <= y < n:
            raise ValueError(f"image {y} out of range for rank {A.rank}")
        bits |= 1 << y
    return ElementSet(A.rank, bits)


@dataclass(frozen=True)
class Subgroup:
    """A subgroup given by its reduced echelon basis plus the membership bitset.

    The basis is unique for the subgroup, so dataclass equality doubles as
    subgroup equality.
    """

    rank: int
    basis: tuple[int, ...]
    members: ElementSet

    @classmethod
    def generated_by(cls, rank: int, generators: Iterable[int]) -> "Subgroup":
        validate_rank(rank, minimum=0)
        n = group_order(rank)
        gens = list(generators)
        for g in gens:
            if not (0 <= g < n):
                raise ValueError(f"generator {g} out of range for rank {rank}")
        basis = _reduced_basis(gens)
        return cls(rank, basis, ElementSet(rank, _close_bits(1, basis, rank)))

    @classmethod
    def whole_group(cls, rank: int) -> "Subgroup":
        return cls.generated_by(rank, (1 << i for i in range(rank)))

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def order(self) -> int:
        return 1 << self.dim

    @property
    def index(self) -> int:
        return 1 << (self.rank - self.dim)

    def __contains__(self, e: int) -> bool:
        return e in self.members

    def coset(self, g: int) -> ElementSet:
        return self.members.translate(g)


def span(source: ElementSet | Iterable[int], rank: int | None = None) -> Subgroup:
    """Smallest subgroup containing the given elements; span of nothing is {0}."""
    if isinstance(source, ElementSet):
        return Subgroup.generated_by(source.rank, source)
    if rank is None:
        raise ValueError("rank is required when spanning a bare iterable")
    return Subgroup.generated_by(rank, source)


def is_subgroup(B: ElementSet) -> bool:
    return 0 in B and span(B).members == B


def period(B: ElementSet) -> Subgroup:
    """The stabilizer {g : B + g = B}. Equals the whole group iff B is empty or full.

    Found by candidate elimination. Every shift that fixes B lies in b0 + B,
    b0 = min B, so the candidates start as (b0 + B) ∖ {0}, and the stabiliser
    found so far is P = {0}. The least candidate g is tested with one translate:
    - if B + g = B, then g joins P, and the new coset g + P leaves the
      candidates;
    - otherwise some x in B has x + g outside B, and every shift that fixes B
      lies in x + B, so the candidates shrink to those in x + B. That drops
      g, and all of g + P too, since B is P-periodic.
    Each step costs two 2^r-bit translates and removes at least one
    candidate, so at most 2·|B| translates in all; in practice about dim P
    plus a few, because one failing x typically cuts the candidates to a
    small fraction.
    """
    r = B.rank
    if len(B) == 0 or B.is_full():
        return Subgroup.whole_group(r)
    bits = B.bits
    found = 1  # P, as bits
    gens = []
    candidates = translate_bits(bits, B.min_element(), r) & ~1
    while candidates:
        g = (candidates & -candidates).bit_length() - 1
        moved = translate_bits(bits, g, r)
        if moved == bits:
            coset = translate_bits(found, g, r)
            found |= coset
            candidates &= ~coset
            gens.append(g)
        else:
            escape = bits & ~moved  # x in B with x + g outside B
            x = (escape & -escape).bit_length() - 1
            candidates &= translate_bits(bits, x, r)
    basis = _reduced_basis(gens)
    # Each accepted shift lay outside P, and each basis vector must fix B.
    if len(basis) != len(gens) or any(translate_bits(bits, v, r) != bits for v in basis):
        raise InternalError(f"period: shifts {gens} do not span a stabiliser of B")
    return Subgroup(r, basis, ElementSet(r, found))


def subgroup_sum(B: ElementSet, H: Subgroup) -> ElementSet:
    """B + H, the union of the cosets of H that meet B."""
    if B.rank != H.rank:
        raise RankMismatchError(f"rank {B.rank} vs {H.rank}")
    return ElementSet(B.rank, _close_bits(B.bits, H.basis, B.rank))


@dataclass(frozen=True)
class QuotientView:
    """Coset labelling for a subgroup H: project onto the rank (r - dim H) quotient.

    Coordinates are taken in `_basis_and_inverse(H.basis, r)`: H's basis, then
    the unit vectors at H's free (non-pivot) bits. The label of x is its
    coordinates past H's; its coset representative is that combination of
    the trailing unit vectors, the element of x + H whose pivot bits vanish.
    """

    subgroup: Subgroup

    @property
    def rank(self) -> int:
        return self.subgroup.rank

    @property
    def image_rank(self) -> int:
        return self.rank - self.subgroup.dim

    @cached_property
    def _coordinates(self) -> tuple[list[int], list[int]]:
        basis, inverse = _basis_and_inverse(self.subgroup.basis, self.rank)
        return basis[self.subgroup.dim:], inverse

    def reduce(self, x: int) -> int:
        """Canonical representative of x + H (pivot coordinates cleared)."""
        return apply_linear(self._coordinates[0], self.project(x))

    def project(self, x: int) -> int:
        return apply_linear(self._coordinates[1], x) >> self.subgroup.dim

    @cached_property
    def transversal(self) -> tuple[int, ...]:
        free = self._coordinates[0]
        return tuple(apply_linear(free, label) for label in range(1 << self.image_rank))

    def project_set(self, B: ElementSet) -> ElementSet:
        if B.rank != self.rank:
            raise RankMismatchError(f"rank {B.rank} vs {self.rank}")
        out = 0
        for x in B:
            out |= 1 << self.project(x)
        return ElementSet(self.image_rank, out)


def quotient_project(B: ElementSet, H: Subgroup) -> ElementSet:
    """Image of B under the canonical map onto the quotient by H."""
    return QuotientView(H).project_set(B)
