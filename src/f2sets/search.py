"""Isomorph-free exhaustive search and randomized example hunting.

Canonical forms are lexicographically minimal orbit images: set X precedes Y
when the smallest element in their symmetric difference lies in X. The minimal
image under the invertible linear maps is computed by a backtracking search
that assigns preimages slot by slot. Because slots are claimed greedily in
ascending order, the image-side basis is always 1, 2, 4, ..., which makes
span membership a range test and preimage lookup a bit decomposition.

Enumeration is orderly generation: a set is kept only if it is canonical, and
children extend by elements above the current maximum. Removing the largest
element of a canonical set leaves a canonical set, so the canonical sets form
a tree and every equivalence class is visited exactly once. Profile prunes
must be subset-closed with respect to the target family. Under a size cap,
profiles whose accepted sets must cover the group drop children that too few
points remain to complete. A child that an automorphism of its parent moves
below itself is rejected without a test; the affine test computes one
translate per orbit of the set's automorphisms.
The proofs live in docs/search-pruning.md.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Literal

import numpy as np

from .core import (
    ElementSet,
    InternalError,
    _full_mask,
    _swap_mask,
    group_order,
    translate_bits,
)
from .generators import linear_image, random_sum_free
from .rng import Xorshift64
from .sumsets import (
    _removals_losing,
    _unique_nonzero,
    is_maximal_sum_free,
    is_minimal_saturating,
    is_round,
    is_sum_free,
    rep_counts,
    sumset,
    unique_sums,
)
from .structure import classify_max_sumfree, decompose_saturating
from . import urgraph

Action = Literal["linear", "affine", "none"]


class _NotCanonical(Exception):
    def __init__(self, witness_cols: list[int]):
        self.witness_cols = witness_cols


def _word_less(x_bits: int, y_bits: int) -> bool:
    """Set order used everywhere: the set containing the smallest element of the
    symmetric difference comes first."""
    diff = x_bits ^ y_bits
    if diff == 0:
        return False
    return bool(x_bits & (diff & -diff))


def _span_image(y: int, plist, doms) -> int:
    """Image of y in span(plist) under plist[j] -> 1 << j: bit j is set exactly
    when y lies outside doms[j], the span mask of plist[:j]."""
    q = 0
    j = len(plist)
    while y:
        j -= 1
        if not (doms[j] >> y) & 1:
            q |= 1 << j
            y ^= plist[j]
    return q


class _MinImage:
    """Backtracking minimal-image engine for the linear action on nonzero sets.

    Slots of the image word are decided in ascending order against the best
    word seen so far. Preimage basis vectors pair with image slots 1, 2, 4, ...
    so the image span is always the range [0, 2^k). Images are computed only
    when needed, from the chosen preimages and their span masks.
    """

    def __init__(self, r: int, elems: tuple[int, ...]):
        self.r = r
        self.n = 1 << r
        self.elems = elems
        self.size = len(elems)
        self.setbits = sum(1 << x for x in elems)
        self.swaps = [_swap_mask(r, i) for i in range(r)]
        self.auts: list[dict[int, int]] = []

    def canonical_bits(self) -> int:
        if not self.elems:
            return 0
        self._run(testing=False)
        bits = 0
        for c in self.incumbent:
            bits |= 1 << c
        return bits

    def is_canonical(self) -> tuple[bool, list[int] | None]:
        """True when no linear image precedes the set; otherwise a witness map
        (column images) achieving a strictly smaller image. Automorphisms met
        on the way stay in self.auts."""
        if not self.elems:
            return True, None
        try:
            self._run(testing=True)
        except _NotCanonical as hit:
            return False, hit.witness_cols
        return True, None

    def _run(self, testing: bool) -> None:
        self.incumbent = list(self.elems)
        self.testing = testing
        self.auts = []
        self._first_map: dict[int, int] | None = None
        self._walk((), (1,), 0, 0, 0)

    # state: plist = chosen preimages (the image of plist[i] is 1 << i),
    # doms[j] = span mask of plist[:j] (doms[-1] spans all of plist), det =
    # bits of images of the members inside the span, f = last decided slot,
    # idx = members placed so far.

    def _walk(self, plist, doms, det, f, idx) -> None:
        inc = self.incumbent
        # Slots inside the span are forced: settle the covered members above f
        # in ascending order, abandoning the branch at the first excess.
        above = det >> (f + 1)
        while above:
            low = above & -above
            above ^= low
            c = f + low.bit_length()
            if idx == len(inc):
                inc.append(c)
            elif c != inc[idx]:
                if c > inc[idx]:
                    return
                self._improve(c, idx, plist)
            idx += 1

        if det.bit_count() == self.size:
            # The word matched the incumbent; harvest the automorphism.
            self._completed(plist, doms)
            return

        # Next member must take the first free slot; branch over preimages.
        k = len(plist)
        c = 1 << k
        dom = doms[k]
        if idx == len(inc):
            inc.append(c)
        elif c != inc[idx]:
            if c > inc[idx]:
                return
            a = next(x for x in self.elems if not (dom >> x) & 1)
            self._improve(c, idx, plist + (a,))
        setbits = self.setbits
        swaps = self.swaps
        explored: set[int] = set()
        gens: list[dict[int, int]] = []
        scanned = 0
        for a in self.elems:
            if (dom >> a) & 1 or a in explored:
                continue
            # coset = dom translated by a (core.translate_bits, inlined).
            coset = dom
            i = 0
            g = a
            while g:
                if g & 1:
                    s = 1 << i
                    m = swaps[i]
                    coset = ((coset & m) << s) | ((coset >> s) & m)
                g >>= 1
                i += 1
            # Members of the new coset x = a + y take images c | image(y);
            # _span_image, inlined.
            det2 = det
            hits = setbits & coset
            while hits:
                low = hits & -hits
                hits ^= low
                y = (low.bit_length() - 1) ^ a
                q = c
                j = k
                while y:
                    j -= 1
                    if not (doms[j] >> y) & 1:
                        q |= 1 << j
                        y ^= plist[j]
                det2 |= 1 << q
            self._walk(plist + (a,), doms + (dom | coset,), det2, c, idx + 1)
            # Siblings reachable from a by an automorphism fixing the chosen
            # preimages explore the same image words; skip them. Automorphisms
            # are only ever appended, so only the new ones need the filter.
            auts = self.auts
            if len(auts) > scanned:
                gens.extend(g for g in auts[scanned:] if all(g[p] == p for p in plist))
                scanned = len(auts)
            if gens:
                frontier = [a]
                explored.add(a)
                while frontier:
                    y = frontier.pop()
                    for g in gens:
                        z = g[y]
                        if z not in explored:
                            explored.add(z)
                            frontier.append(z)

    def _improve(self, c: int, idx: int, plist) -> None:
        """Slot c beats the incumbent at position idx: a witness in test mode,
        otherwise the start of a new incumbent."""
        if self.testing:
            raise _NotCanonical(self._witness(plist))
        del self.incumbent[idx:]
        self.incumbent.append(c)
        self._first_map = None

    def _completed(self, plist, doms) -> None:
        """A full placement tied the incumbent: record the automorphism it
        induces relative to the first such placement."""
        image = {x: _span_image(x, plist, doms) for x in self.elems}
        if self._first_map is None:
            self._first_map = image
            self._first_inverse = {v: k for k, v in image.items()}
            return
        gamma = {x: self._first_inverse[image[x]] for x in self.elems}
        if any(gamma[x] != x for x in self.elems):
            self.auts.append(gamma)

    def _witness(self, plist) -> list[int]:
        """Column images of a full invertible map sending the set strictly below
        itself; the partial slot assignment is completed arbitrarily."""
        dom = {0: 0}
        for i, p in enumerate(plist):
            q = 1 << i
            for s in list(dom):
                dom[s ^ p] = dom[s] ^ q
        img_used = set(dom.values())
        next_q = 1
        for cand in range(1, self.n):
            if len(dom) == self.n:
                break
            if cand in dom:
                continue
            while next_q in img_used:
                next_q += 1
            q = next_q
            for s in list(dom):
                dom[s ^ cand] = dom[s] ^ q
            img_used.update(dom.values())
        return [dom[1 << i] for i in range(self.r)]


@dataclass(frozen=True)
class CanonicalForm:
    set: ElementSet
    action: Action


def _linear_canonical_bits(A: ElementSet) -> int:
    zero = A.bits & 1
    engine = _MinImage(A.rank, tuple(A.nonzero().elements()))
    return engine.canonical_bits() | zero


class _StabiliserOrbits:
    """Orbits on the group of the automorphisms recorded for a canonical set P.

    Each automorphism, known on the points of P, is linear on span(P); it is
    extended to an invertible map of the group by the identity on a
    complement of span(P), and so still fixes P setwise. If one such map
    sends x to y < x, it sends P + {x} to P + {y}, which precedes P + {x}:
    the child P + {x} is not canonical. Any subgroup of Aut(P) gives sound
    rejections.

    Orbits are explored only from the points asked about. A map is kept as
    the images of echelon rows: row[k] has leading bit k and is a sum of
    basis vectors (points of P, then unit vectors), so reducing x by the
    rows and summing their images gives the image of x in r steps.
    """

    def __init__(self, r: int, bits: int, auts):
        self.r = r
        rows: dict[int, tuple[int, int]] = {}  # leading bit -> (row, basis indices)
        basis = []
        for u in list(ElementSet(r, bits & ~1)) + [1 << i for i in range(r)]:
            v, combo = u, 1 << len(basis)
            while v and v.bit_length() - 1 in rows:
                w, c = rows[v.bit_length() - 1]
                v ^= w
                combo ^= c
            if v:
                rows[v.bit_length() - 1] = (v, combo)
                basis.append(u)
        self.rows = [rows[k][0] for k in range(r)]
        maps = {}
        for g in auts:
            img = [g.get(u, u) for u in basis]  # complement vectors lie outside P: fixed
            m = []
            for k in range(r):
                w, combo = 0, rows[k][1]
                while combo:
                    low = combo & -combo
                    w ^= img[low.bit_length() - 1]
                    combo ^= low
                m.append(w)
            maps[tuple(m)] = None
        self.maps = list(maps)
        self._least: dict[int, int] = {}

    def _image(self, m, x: int) -> int:
        y = 0
        while x:
            k = x.bit_length() - 1
            x ^= self.rows[k]
            y ^= m[k]
        return y

    def least(self, x: int) -> int:
        """The least point of the orbit of x."""
        if x not in self._least:
            orbit = {x}
            frontier = [x]
            while frontier:
                y = frontier.pop()
                for m in self.maps:
                    z = self._image(m, y)
                    if z not in orbit:
                        orbit.add(z)
                        frontier.append(z)
            low = min(orbit)
            for y in orbit:
                self._least[y] = low
        return self._least[x]

    def witness(self, x: int) -> list[int]:
        """Columns of a composed map sending x below itself."""
        seen = {x: [1 << i for i in range(self.r)]}
        frontier = [x]
        while frontier:
            y = frontier.pop()
            for m in self.maps:
                z = self._image(m, y)
                if z not in seen:
                    cols = [self._image(m, c) for c in seen[y]]
                    if z < x:
                        return cols
                    seen[z] = cols
                    frontier.append(z)
        raise InternalError(f"{x} is the least point of its orbit")


def _translate_forms(A: ElementSet, auts):
    """(g, linear canonical form of A + g) for the least nonzero g of A in each
    orbit of the group the automorphisms generate, in ascending order of g.

    A linear h with h(A) = A sends A + g to A + h(g), so translates by points
    of one orbit share their linear canonical form. Any subgroup of Aut(A)
    is sound; missing automorphisms only leave more translates to compute.
    """
    orbits = _StabiliserOrbits(A.rank, A.bits, auts)
    for g in A.nonzero():
        if orbits.least(g) == g:
            yield g, _linear_canonical_bits(A.translate(g))


def _affine_canonical_bits(A: ElementSet) -> int:
    if len(A) == 0:
        return 0
    # The translates by points of A are those of A0 = A + min(A), which holds 0.
    A0 = A.translate(A.min_element())
    engine = _MinImage(A.rank, tuple(A0.nonzero().elements()))
    best = engine.canonical_bits() | 1
    for _, cand in _translate_forms(A0, engine.auts):
        if _word_less(cand, best):
            best = cand
    return best


def canonical_form(A: ElementSet, action: Action = "linear", *,
                   allow_zero: bool = False) -> CanonicalForm:
    """Lexicographically minimal orbit image of A under the chosen action.

    The linear action fixes 0, so a set containing 0 is only accepted with
    allow_zero (its zero is carried through unchanged). The affine canonical
    form of a non-empty set always contains 0.
    """
    if action == "none":
        return CanonicalForm(A, action)
    if action == "linear":
        if 0 in A and not allow_zero:
            raise ValueError("0 is a fixed point of the linear action; "
                             "pass allow_zero=True to canonicalize anyway")
        return CanonicalForm(ElementSet(A.rank, _linear_canonical_bits(A)), action)
    if action == "affine":
        return CanonicalForm(ElementSet(A.rank, _affine_canonical_bits(A)), action)
    raise ValueError(f"unknown action {action!r}")


def _is_canonical(A: ElementSet, action: Action) -> tuple[bool, dict | None, list]:
    """Canonicity test: the verdict, a verifiable rejection certificate, and
    the automorphisms of A (linear maps fixing 0) that the test recorded;
    a rejection returns none."""
    if action == "none" or (action == "affine" and len(A) == 0):
        return True, None, []
    if action not in ("linear", "affine"):
        raise ValueError(f"unknown action {action!r}")
    if action == "affine" and 0 not in A:
        return False, {"kind": "affine", "shift": A.min_element(), "cols": None}, []
    engine = _MinImage(A.rank, tuple(A.nonzero().elements()))
    ok, cols = engine.is_canonical()
    if not ok:
        cert = ({"kind": "linear", "cols": cols} if action == "linear"
                else {"kind": "affine", "shift": 0, "cols": cols})
        return False, cert, []
    if action == "affine":
        for g, cand in _translate_forms(A, engine.auts):
            if _word_less(cand, A.bits):
                return False, {"kind": "affine", "shift": g, "cols": None}, []
    return True, None, engine.auts


# -- search profiles (incremental per-node state; prunes are subset-closed)


def _can_cover(r: int, bits: int, covered: int, room: int) -> bool:
    """Whether `room` more points, all above the maximum of the set `bits` as
    orderly children add them, can complete what it covers to the group.

    The i-th added point z covers at most the points of {z} ∪ (z + bits)
    not covered yet, at most g for the best z above the maximum, and the
    i - 1 sums z + z_j with earlier added points. At most
    room' = min(room, points above the maximum) points can be added, so
    they cover at most room'·g + room'(room' - 1)/2 new points. Since
    g <= |bits| + 1, the cheaper room·|bits| + room(room + 1)/2 bound is
    tried first, and g is only scanned for until room'·g suffices.
    """
    n = 1 << r
    deficit = n - covered.bit_count()
    if room * bits.bit_count() + room * (room + 1) // 2 < deficit:
        return False
    top = bits.bit_length() - 1
    room = min(room, n - 1 - top)
    need = deficit - room * (room - 1) // 2
    if need <= 0:
        return True
    uncovered = _full_mask(r) ^ covered
    for y in range(top + 1, n):
        gain = (((1 << y) | translate_bits(bits, y, r)) & uncovered).bit_count()
        if room * gain >= need:
            return True
    return False


class SumFreeProfile:
    """Prune: the partial set must itself be sum-free. The incremental state
    carries the sumset bits; accepted sets are re-confirmed through the public
    predicate so the search reports nothing the library would not."""

    def root(self, r: int):
        return (0, 0)  # (bits, 2A bits; 2A of the empty set is empty)

    def extend(self, r: int, state, x: int):
        bits, two = state
        if (two >> x) & 1:
            return None
        new_two = two | translate_bits(bits, x, r) | 1
        new_bits = bits | (1 << x)
        if new_bits & new_two:
            return None
        return (new_bits, new_two)

    def accept(self, r: int, state) -> bool:
        return bool(is_sum_free(ElementSet(r, state[0])))


class MaximalSumFreeProfile(SumFreeProfile):
    def accept(self, r: int, state) -> bool:
        bits, two = state
        if (bits | two) != _full_mask(r):
            return False
        return bool(is_maximal_sum_free(ElementSet(r, bits)))

    def reachable(self, r: int, state, room: int) -> bool:
        """Whether a superset with at most `room` more points can cover the
        group with A ∪ 2A, as `accept` requires."""
        bits, two = state
        return _can_cover(r, bits, bits | two, room)


class MinimalSaturatingProfile:
    """Prune: no single removal of the partial set may already cover the group.

    Subsets of a minimal saturating set always pass: a covering removal in the
    subset would stay covering in the full set, contradicting minimality.

    The state of P is (P, 2P ∪ {0}, U(P)) as bitsets, U(P) the nonzero unique
    sums. Adding x > max P adds the sums T = x + P; they are distinct, so each
    gains one pair: U' = (U ∖ T) ∪ (T ∖ 2P) and 2P' = 2P ∪ T ∪ {0}. A covering
    P' is pruned when (P' ∩ 2P') ∖ (P' + (U' ∖ P')) is non-empty, the removal
    rule of `sumsets` (docs/search-pruning.md §2).
    """

    def root(self, r: int):
        return (0, 1, 0)

    def extend(self, r: int, state, x: int):
        bits, two, unique = state
        t = translate_bits(bits, x, r)
        unique = (unique & ~t) | (t & ~two)
        two |= t | 1
        bits |= 1 << x
        if bits | two == _full_mask(r):
            P = ElementSet(r, bits)
            outside = ElementSet(r, unique & ~bits)
            if bits & two & ~_removals_losing(P, outside).bits:
                return None
        return (bits, two, unique)

    def accept(self, r: int, state) -> bool:
        bits, two, _ = state
        if bits | two != _full_mask(r):
            return False
        return bool(is_minimal_saturating(ElementSet(r, bits)))

    def reachable(self, r: int, state, room: int) -> bool:
        """Whether a superset with at most `room` more points can cover the
        group, as `accept` requires."""
        bits, two, _ = state
        return _can_cover(r, bits, bits | two, room)


class PlainProfile:
    """No pruning: enumerate every subset (use only at tiny ranks)."""

    def __init__(self, accept_fn: Callable[[ElementSet], bool], name: str):
        self._accept = accept_fn
        self.name = name

    def root(self, r: int):
        return 0

    def extend(self, r: int, state, x: int):
        return state | (1 << x)

    def accept(self, r: int, state) -> bool:
        return self._accept(ElementSet(r, state))


PROFILES: dict[str, Callable[[], object]] = {
    "sum-free": SumFreeProfile,
    "maximal-sum-free": MaximalSumFreeProfile,
    "minimal-saturating": MinimalSaturatingProfile,
    "round": lambda: PlainProfile(lambda A: bool(is_round(A)), "round"),
    "saturating": lambda: PlainProfile(
        lambda A: 0 not in A and bool(sumset(A, A).union(A).is_full()), "saturating"
    ),
    "any": lambda: PlainProfile(lambda A: True, "any"),
}

_ZERO_ALLOWED = {"round", "any"}


@dataclass
class SearchBudget:
    """Node and time limits of a run. A pool task under a node limit also
    holds `shared`, the run's node count (a multiprocessing.Value): the limit
    applies to that count, so a threaded run stops one node past it, as the
    sequential run does; a tick that finds it already passed counts no node."""

    max_nodes: int | None = None
    max_seconds: float | None = None
    started: float = field(default_factory=time.monotonic)
    nodes: int = 0
    exceeded: bool = False
    shared: Any = None

    def tick(self) -> bool:
        if self.shared is not None:
            with self.shared.get_lock():
                if self.shared.value > self.max_nodes:
                    self.exceeded = True
                    return True
                self.shared.value += 1
                if self.shared.value > self.max_nodes:
                    self.exceeded = True
        self.nodes += 1
        if self.max_nodes is not None and self.nodes > self.max_nodes:
            self.exceeded = True
        elif (self.max_seconds is not None
              and time.monotonic() - self.started > self.max_seconds):
            self.exceeded = True
        return self.exceeded


@dataclass(frozen=True)
class SpectrumEntry:
    size: int
    class_count: int
    representatives: tuple[ElementSet, ...]


@dataclass
class SpectrumReport:
    rank: int
    predicate: str
    action: Action
    entries: list[SpectrumEntry]
    complete: bool
    nodes: int
    elapsed: float
    audit: dict | None = None

    def sizes(self) -> list[int]:
        return [e.size for e in self.entries]

    def count_for(self, size: int) -> int:
        for e in self.entries:
            if e.size == size:
                return e.class_count
        return 0

    def max_size(self) -> int | None:
        return max((e.size for e in self.entries), default=None)

    def to_json(self, *, include_representatives: bool = True) -> dict:
        entries = []
        for e in self.entries:
            item: dict = {"size": e.size, "class_count": e.class_count}
            if include_representatives:
                item["representatives"] = [s.to_json() for s in e.representatives]
            entries.append(item)
        return {
            "r": self.rank,
            "predicate": self.predicate,
            "action": self.action,
            "complete": self.complete,
            "nodes": self.nodes,
            "elapsed_seconds": round(self.elapsed, 3),
            "entries": entries,
            "audit": self.audit,
        }

    def to_tsv(self) -> str:
        lines = ["size\tclass_count\trepresentative"]
        for e in self.entries:
            rep = ",".join(str(v) for v in e.representatives[0]) if e.representatives else ""
            lines.append(f"{e.size}\t{e.class_count}\t{rep}")
        return "\n".join(lines) + "\n"


class _AuditLog:
    """Reservoir sample of pruned nodes, re-checkable by independent oracles."""

    def __init__(self, capacity: int, seed: int):
        self.capacity = capacity
        self.rng = Xorshift64(seed or 1)
        self.samples: list[dict] = []
        self.seen = 0

    def record(self, kind: str, r: int, bits: int, extra) -> None:
        self.seen += 1
        entry = {"kind": kind, "r": r, "bits": bits, "extra": extra}
        if len(self.samples) < self.capacity:
            self.samples.append(entry)
        else:
            j = self.rng.randrange(self.seen)
            if j < self.capacity:
                self.samples[j] = entry

    def verify(self, predicate: str) -> dict:
        checked = 0
        failures = []
        for entry in self.samples:
            r = entry["r"]
            A = ElementSet(r, entry["bits"])
            kind = entry["kind"]
            if kind == "profile":
                ok = _recheck_profile_prune(predicate, A)
            elif kind == "canonical":
                ok = _recheck_canonical_prune(A, entry["extra"])
            elif kind == "cap":
                ok = _recheck_cap_drop(predicate, A, entry["extra"])
            else:
                ok = False
            checked += 1
            if not ok:
                failures.append({"kind": kind, "r": r, "set": A.to_json(),
                                 "extra": entry["extra"]})
        return {
            "sampled": len(self.samples),
            "pruned_total": self.seen,
            "checked": checked,
            "failures": len(failures),
            "failed_entries": failures,
        }


def _recheck_profile_prune(predicate: str, A: ElementSet) -> bool:
    """Re-derive a profile rejection with the plain definitional oracles."""
    if predicate in ("sum-free", "maximal-sum-free"):
        return not is_sum_free(A)
    if predicate == "minimal-saturating":
        full = ElementSet.full(A.rank)
        for a in A:
            rest = A.without_element(a)
            if rest.union(sumset(rest, rest)) == full:
                return True
        return False
    return True


def _recheck_cap_drop(predicate: str, A: ElementSet, extra) -> bool:
    """Re-derive a cap drop: with plain sumsets, A ∪ 2A must be too small for
    `room` more points above max(A) to complete it to the group, which both
    profiles that drop children at the cap require of every accepted set.
    With m = min(room, points above max(A)) and g the most points any such y
    adds through {y} ∪ (y + A), the drop needs |A ∪ 2A| + m·g + m(m-1)/2 < 2^r."""
    if predicate not in ("minimal-saturating", "maximal-sum-free") or not len(A):
        return False
    room = extra.get("room") if isinstance(extra, dict) else None
    if not isinstance(room, int) or room < 0:
        return False
    r = A.rank
    covered = A.union(sumset(A, A))
    top = max(A)
    gain = 0
    for y in range(top + 1, 1 << r):
        Y = ElementSet.from_elements(r, [y])
        gain = max(gain, len(Y.union(sumset(A, Y)).difference(covered)))
    m = min(room, (1 << r) - 1 - top)
    return len(covered) + m * gain + m * (m - 1) // 2 < 1 << r


def _recheck_canonical_prune(A: ElementSet, extra) -> bool:
    if not isinstance(extra, dict):
        return False
    if extra.get("cols"):
        cols = extra["cols"]
        if not _word_less(linear_image(A, cols).bits, A.bits):
            return False
        # The witness must be invertible: its columns span the group.
        from .core import span as _span
        return _span(ElementSet.from_elements(A.rank, cols)).dim == A.rank
    if extra.get("kind") == "affine":
        shift = extra["shift"]
        cand = _affine_canonical_bits(A)
        return _word_less(cand, A.bits) or (shift == A.min_element() and 0 not in A)
    return False


class _Enumerator:
    """One orderly-generation DFS over canonical sets.

    With stop_depth set (see `split`), visited nodes of that size are not
    expanded but kept in `frontier` as (bits, state, last, auts), the
    arguments of `expand`.
    """

    def __init__(self, r: int, predicate: str, action: Action,
                 size_min: int, size_max: int | None,
                 budget: SearchBudget, log: _AuditLog | None):
        self.r = r
        self.n = group_order(r)
        self.predicate = predicate
        self.profile = PROFILES[predicate]()
        self.action = action
        self.size_min = size_min
        self.size_max = size_max
        self.budget = budget
        self.log = log
        self.stop_depth: int | None = None
        self.hits: dict[int, list[int]] = {}
        self.frontier: list[tuple] = []
        # Profiles whose accepted sets must cover the group can drop children
        # that the size cap leaves too few points to get there.
        self._reachable = (getattr(self.profile, "reachable", None)
                           if size_max is not None else None)

    def start_element(self) -> int:
        return 0 if (self.action != "linear" and self.predicate in _ZERO_ALLOWED) else 1

    def run(self) -> None:
        self._visit(0, self.profile.root(self.r), self.start_element() - 1)

    def split(self, count: int) -> None:
        """Visit the head of the tree level by level until the frontier holds
        at least `count` nodes, the tree ends or the budget runs out."""
        self.stop_depth = 0
        self.run()
        while self.frontier and len(self.frontier) < count and not self.budget.exceeded:
            level, self.frontier = self.frontier, []
            self.stop_depth += 1
            for node in level:
                self.expand(*node)
                if self.budget.exceeded:
                    break

    def _visit(self, bits: int, state, last: int, auts=()) -> None:
        if self.budget.tick():
            return
        size = bits.bit_count()
        if size >= self.size_min and (self.size_max is None or size <= self.size_max):
            if self.profile.accept(self.r, state):
                self.hits.setdefault(size, []).append(bits)
        if self.size_max is not None and size >= self.size_max:
            return
        if self.stop_depth is not None and size >= self.stop_depth:
            self.frontier.append((bits, state, last, auts))
            return
        self.expand(bits, state, last, auts)

    def expand(self, bits: int, state, last: int, auts=()) -> None:
        """Visit the canonical children of a node already visited."""
        orbits = _StabiliserOrbits(self.r, bits, auts) if auts else None
        reachable = self._reachable
        if reachable is not None:
            room = self.size_max - bits.bit_count() - 1
        for x in range(last + 1, self.n):
            state2 = self.profile.extend(self.r, state, x)
            child_bits = bits | (1 << x)
            if state2 is None:
                if self.log:
                    self.log.record("profile", self.r, child_bits, None)
                continue
            if reachable is not None and not reachable(self.r, state2, room):
                if self.log:
                    self.log.record("cap", self.r, child_bits, {"room": room})
                continue
            if orbits is not None and orbits.least(x) < x:
                if self.log:
                    self.log.record("canonical", self.r, child_bits,
                                    {"kind": "linear", "cols": orbits.witness(x),
                                     "rule": "orbit"})
                continue
            ok, cert, child_auts = _is_canonical(ElementSet(self.r, child_bits), self.action)
            if not ok:
                if self.log:
                    self.log.record("canonical", self.r, child_bits, cert)
                continue
            self._visit(child_bits, state2, x, child_auts)
            if self.budget.exceeded:
                return


_run_nodes = None  # in a pool worker under a node limit: the run's node count


def _init_worker(counter) -> None:
    global _run_nodes
    _run_nodes = counter


def _subtree_worker(args: tuple) -> tuple[dict[int, list[int]], int, bool]:
    """Expand one frontier node; the head already visited (and counted) it.
    The time budget runs from the head's start: the monotonic clock is
    system-wide, so every task stops at the same deadline."""
    (r, predicate, action, size_min, size_max, node,
     max_nodes, max_seconds, started) = args
    budget = SearchBudget(max_nodes=max_nodes, max_seconds=max_seconds, started=started,
                          shared=_run_nodes)
    walker = _Enumerator(r, predicate, action, size_min, size_max, budget, None)
    walker.expand(*node)
    return walker.hits, budget.nodes, budget.exceeded


def enumerate_classes(
    r: int,
    predicate: str,
    *,
    action: Action = "linear",
    size_min: int = 0,
    size_max: int | None = None,
    budget: SearchBudget | None = None,
    audit: bool = False,
    audit_capacity: int = 1000,
    seed: int = 0,
    threads: int = 1,
) -> SpectrumReport:
    """Isomorph-free enumeration of all sets satisfying the predicate.

    size_max caps the DFS depth: use only when supersets above the cap cannot
    satisfy the predicate, or the run is reported for that stratum alone.
    With threads > 1 the head of the tree is searched level by level until
    its frontier holds at least 2 * threads subtrees; those run in a process
    pool, and the merged report equals the sequential one entry for entry.
    A budget may go on from an earlier run: its limits bound both runs, and
    the report's `nodes` counts this run's nodes alone.
    """
    if predicate not in PROFILES:
        raise ValueError(f"unknown predicate {predicate!r}; options: {sorted(PROFILES)}")
    if action == "affine" and predicate not in _ZERO_ALLOWED:
        # Every non-empty affine canonical form holds 0, which such a set excludes.
        raise ValueError(f"the affine action needs a predicate that admits 0 "
                         f"({', '.join(sorted(_ZERO_ALLOWED))}), not {predicate!r}")
    budget = budget or SearchBudget()
    log = _AuditLog(audit_capacity, seed) if audit else None
    t0 = time.monotonic()

    nodes_before = budget.nodes
    walker = _Enumerator(r, predicate, action, size_min, size_max, budget, log)
    if threads <= 1:
        walker.run()
    else:
        walker.split(2 * threads)
    if walker.frontier and not budget.exceeded:
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import Value
        tasks = [
            (r, predicate, action, size_min, size_max, node,
             budget.max_nodes, budget.max_seconds, budget.started)
            for node in walker.frontier
        ]
        # The node count is shared from the head's count on; a task that
        # takes it past the limit reports itself exceeded.
        counter = Value("q", budget.nodes) if budget.max_nodes is not None else None
        with ProcessPoolExecutor(max_workers=threads, initializer=_init_worker,
                                 initargs=(counter,)) as pool:
            for sub_hits, sub_nodes, sub_exceeded in pool.map(_subtree_worker, tasks):
                budget.nodes += sub_nodes
                budget.exceeded = budget.exceeded or sub_exceeded
                for size, reps in sub_hits.items():
                    walker.hits.setdefault(size, []).extend(reps)

    entries = [
        SpectrumEntry(size, len(reps),
                      tuple(ElementSet(r, b) for b in sorted(reps)))
        for size, reps in sorted(walker.hits.items())
    ]
    report = SpectrumReport(
        rank=r,
        predicate=predicate,
        action=action,
        entries=entries,
        complete=not budget.exceeded,
        nodes=budget.nodes - nodes_before,
        elapsed=time.monotonic() - t0,
    )
    if log:
        report.audit = log.verify(predicate)
    return report


def plain_scan(
    r: int,
    accept: Callable[[ElementSet], bool],
    *,
    include_zero: bool = False,
) -> list[ElementSet]:
    """Exhaustive scan over all subsets (of the nonzero part by default),
    one predicate call per subset. Practical only for r <= 4; serves as the
    reference for the symmetry-reduced enumeration and for the subset-lattice
    pass of `verify_classification`."""
    if r > 4 and not include_zero:
        raise ValueError("plain scan above rank 4 is not a desk-scale operation")
    width = (1 << r) - (0 if include_zero else 1)
    shift = 0 if include_zero else 1
    out = []
    for mask in range(1 << width):
        A = ElementSet(r, mask << shift)
        if accept(A):
            out.append(A)
    return out


def _lattice_scan(r: int) -> tuple[list[ElementSet], list[ElementSet]]:
    """Minimal saturating and maximal sum-free subsets of the nonzero points,
    in one exhaustive pass over the subset lattice (r <= 4).

    Mask m stands for the set m << 1. With x the largest point of m and
    m' = m without x, 2m = 2m' ∪ (x + m') ∪ {0}: one translate per mask,
    done for all masks with the same largest point at once. A set fits in
    2^r <= 16 bits. m covers when m ∪ 2m is the group; covering is kept by
    supersets, so m is minimal saturating when it covers and no m without a
    does, and maximal sum-free when it covers and m ∩ 2m is empty. Every hit
    is re-confirmed with the public predicates.
    """
    if r > 4:
        raise ValueError("the subset-lattice pass is for ranks up to 4")
    two = np.zeros(1, dtype=np.uint16)  # 2 of the empty set is empty
    for x in range(1, 1 << r):
        below = np.arange(len(two), dtype=np.uint16) << 1  # the masks without x
        # translate_bits permutes the bits of every array entry at once.
        two = np.concatenate([two, two | translate_bits(below, x, r) | 1])
    masks = np.arange(len(two), dtype=np.uint16)
    sets = masks << 1
    cover = (sets | two) == _full_mask(r)
    removal_covers = np.zeros_like(cover)
    for i in range((1 << r) - 1):
        removal_covers |= ((masks >> i) & 1).astype(bool) & cover[masks ^ (1 << i)]
    minimal = [ElementSet(r, int(b)) for b in sets[cover & ~removal_covers]]
    max_sf = [ElementSet(r, int(b)) for b in sets[cover & ((sets & two) == 0)]]
    for check, found in ((is_minimal_saturating, minimal), (is_maximal_sum_free, max_sf)):
        for A in found:
            if not check(A):
                raise InternalError(f"lattice pass and {check.__name__} disagree on "
                                    f"{A.elements()}")
    return minimal, max_sf


def threshold_value(name: str, r: int) -> Fraction:
    """Named size thresholds, evaluated exactly."""
    if name == "paper":
        return Fraction(11 * (1 << r), 36) + 3
    if name == "light":
        return Fraction(1 << r, 3) + 2
    try:
        return Fraction(name)
    except ValueError:
        raise ValueError(f"threshold must be 'paper', 'light', or a rational, got {name!r}")


def verify_classification(
    r: int,
    threshold: str | Fraction = "paper",
    *,
    budget: SearchBudget | None = None,
    audit: bool = False,
    seed: int = 0,
    threads: int = 1,
) -> dict:
    """Check that every minimal saturating set larger than the threshold admits
    a shifted-cap decomposition, and that every shifted-cap construction is
    minimal saturating.

    At r <= 4 this is one exhaustive pass over the subset lattice that finds
    both families (`_lattice_scan`); above, isomorph-free DFS runs for the
    minimal saturating sets and for the maximal sum-free sets the converse
    builds from, under one budget. The returned report carries the size
    spectrum, the converse check, and any counterexample verbatim.
    """
    thr = threshold if isinstance(threshold, Fraction) else threshold_value(threshold, r)
    t0 = time.monotonic()
    complete = True
    audit_result = None
    if r <= 4:
        minimal_sets, max_sf = _lattice_scan(r)
        nodes = 1 << ((1 << r) - 1)
    else:
        # One budget bounds both enumerations; `nodes` counts the first alone.
        budget = budget or SearchBudget()
        report = enumerate_classes(r, "minimal-saturating", action="linear", budget=budget,
                                   audit=audit, seed=seed, threads=threads)
        sf_report = enumerate_classes(r, "maximal-sum-free", action="linear",
                                      budget=budget, threads=threads)
        minimal_sets = [A for e in report.entries for A in e.representatives]
        max_sf = [S for e in sf_report.entries for S in e.representatives]
        complete = report.complete and sf_report.complete
        nodes = report.nodes
        audit_result = report.audit

    counterexamples: list[ElementSet] = []
    spectrum: dict[int, int] = {}
    for A in minimal_sets:
        spectrum[len(A)] = spectrum.get(len(A), 0) + 1
        if len(A) > thr and not decompose_saturating(A):
            counterexamples.append(A)
    # The lattice pass lists every minimal saturating set, so each built set
    # must be among them; a DFS lists class representatives only.
    listed = {A.bits for A in minimal_sets} if r <= 4 else None
    converse_ok = True
    converse_count = 0
    for S in max_sf:
        for s in S.with_zero():
            built = S.with_zero().translate(s).nonzero()
            converse_count += 1
            if ((listed is not None and built.bits not in listed)
                    or not is_minimal_saturating(built)):
                converse_ok = False
                counterexamples.append(built)

    return {
        "r": r,
        "threshold": str(thr),
        "threshold_float": float(thr),
        "complete": complete,
        "verdict": complete and not counterexamples and converse_ok,
        "counterexamples": [A.to_json() for A in counterexamples],
        "spectrum": {str(k): v for k, v in sorted(spectrum.items())},
        "max_size": max(spectrum, default=None),
        "converse_ok": converse_ok,
        "converse_checked": converse_count,
        "nodes": nodes,
        "elapsed_seconds": round(time.monotonic() - t0, 3),
        "audit": audit_result,
    }


def find_example(
    r: int,
    predicate: str,
    target_size: int,
    seed: int = 0,
    *,
    max_restarts: int = 20000,
) -> ElementSet | None:
    """Randomized hunt for an example of the given size: greedy random cover,
    random trimming to a minimal set, plus restart-based local search.
    Deterministic for a fixed seed; the result, if any, is re-verified."""
    rng = Xorshift64(seed ^ (r << 16) ^ (target_size << 8) or 1)
    n = group_order(r)
    full = _full_mask(r)

    if predicate == "minimal-saturating":
        check = is_minimal_saturating
    elif predicate == "maximal-sum-free":
        check = is_maximal_sum_free
    else:
        raise ValueError(f"find_example supports minimal-saturating and "
                         f"maximal-sum-free, not {predicate!r}")

    def random_saturating() -> int:
        bits = 0
        two = 0
        while (bits | two) != full:
            x = 1 + rng.randrange(n - 1)
            if (bits >> x) & 1:
                continue
            two |= translate_bits(bits, x, r) | 1
            bits |= 1 << x
        return bits

    def trim(bits: int) -> int:
        # Remove elements in random order while the union keeps covering: the
        # first removable one in shuffled order, by the removal rule.
        while True:
            A = ElementSet(r, bits)
            elems = A.elements()
            rng.shuffle(elems)
            table = rep_counts(A)
            outside = _unique_nonzero(table.counts, r).difference(A)
            removable = bits & table.support().bits & ~_removals_losing(A, outside).bits
            a = next((a for a in elems if (removable >> a) & 1), None)
            if a is None:
                return bits
            bits ^= 1 << a

    for _ in range(max_restarts):
        if predicate == "minimal-saturating":
            bits = trim(random_saturating())
        else:
            bits = random_sum_free(rng, r, maximal=True).bits
        if bits.bit_count() == target_size:
            A = ElementSet(r, bits)
            if check(A):
                return A
    return None


def second_largest_check(r: int = 5, *, budget: SearchBudget | None = None) -> dict:
    """Desk-scale surrogate for the second-largest-size statement: report the
    top sizes of minimal saturating sets and compare them with 2^(r-1) and
    5 * 2^(r-4). The comparison is recorded, not asserted; the original claim
    concerns r >= 9."""
    report = enumerate_classes(r, "minimal-saturating", action="linear", budget=budget)
    sizes = sorted(report.sizes(), reverse=True)
    largest = sizes[0] if sizes else None
    second = sizes[1] if len(sizes) > 1 else None
    family = [1 << (r - 1), 5 * (1 << (r - 4))] if r >= 4 else [1 << (r - 1)]
    return {
        "r": r,
        "complete": report.complete,
        "surrogate": True,
        "note": "the size-ordering claim applies from rank 9 up; this run records "
                "the desk-scale picture only",
        "observed_sizes": sorted(set(report.sizes()), reverse=True),
        "largest": largest,
        "second_largest": second,
        "family_sizes": family,
        "largest_matches": largest == family[0] if largest is not None else None,
        "second_matches_family": second == family[1] if second is not None and len(family) > 1 else None,
    }


def verify_factdt(r: int = 5, *, budget: SearchBudget | None = None) -> dict:
    """Enumerate maximal sum-free classes and confirm every class larger than
    9 * 2^(r-5) is an index-2 coset or the five-point form."""
    report = enumerate_classes(r, "maximal-sum-free", action="linear", budget=budget)
    bound = Fraction(9 * (1 << r), 32)
    bad = []
    tags: dict[str, int] = {}
    checked = 0
    for entry in report.entries:
        for S in entry.representatives:
            if len(S) > bound:
                checked += 1
                tag = classify_max_sumfree(S).tag
                tags[tag] = tags.get(tag, 0) + 1
                if tag == "other":
                    bad.append(S)
    return {
        "r": r,
        "complete": report.complete,
        "verdict": report.complete and not bad,
        "size_bound": str(bound),
        "checked_classes": checked,
        "tags": tags,
        "sizes": sorted(set(report.sizes())),
        "counterexamples": [S.to_json() for S in bad],
    }


def round_property_check(A: ElementSet) -> dict:
    """Bundle of the round-set facts: at least half as many unique sums as
    elements, size at most unique sums plus matching number, triangle-freeness
    and sum-free unique sums at the size thresholds, and the edge degree bound."""
    r = A.rank
    out: dict = {"r": r, "size": len(A), "violations": []}
    if not is_round(A):
        out["violations"].append("input not round")
        return out
    D = unique_sums(A)
    out["unique_sums"] = len(D)
    if 2 * len(D) < len(A):
        out["violations"].append("unique sums fewer than half the size")
    if len(A) >= 2:
        G = urgraph.build(A)
        t = urgraph.matching_number(G).size
        out["matching"] = t
        if len(A) > len(D) + t:
            out["violations"].append("size exceeds unique sums plus matching")
        if r >= 2 and len(A) >= (1 << (r - 2)) + 3:
            if urgraph.triangle_witness(G) is not None:
                out["violations"].append("triangle at or above the threshold")
        if r >= 2 and len(A) > (1 << (r - 2)) + 3:
            if not is_sum_free(D):
                out["violations"].append("unique sums not sum-free above the threshold")
            if not urgraph.degree_sum_check(A):
                out["violations"].append("edge degree bound failed")
    out["ok"] = not out["violations"]
    return out
