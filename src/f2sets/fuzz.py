"""Seeded fuzz harnesses for the additive lemmas and the round-set property
suite. Every harness returns a JSON-able report with the number of checks,
how often the interesting hypothesis actually fired, and any violations
(there should never be one; a violation is an implementation bug, so the
offending input is reported verbatim).
"""

from __future__ import annotations

from .core import ElementSet, InternalError, Subgroup, _full_mask
from .generators import census_fixture_suite, round_set_suite, sharpness_pair
from .rng import Xorshift64
from .search import enumerate_classes, round_property_check
from .structure import coset_census
from .sumsets import (
    alldisjoint_check,
    is_sum_free,
    kneser_check,
    php_covered,
    s2_bound_check,
    sfnotround_check,
    sumset,
)


def _random_set(rng: Xorshift64, r: int, *, nonempty: bool = True) -> ElementSet:
    n = 1 << r
    density = 0.05 + 0.9 * rng.random()
    bits = rng.sample_bits(n, density)
    if nonempty and bits == 0:
        bits = 1 << rng.randrange(n)
    return ElementSet(r, bits)


def _random_structured(rng: Xorshift64, r: int) -> ElementSet:
    """Union of cosets of a random subgroup, plus optional noise: keeps the
    periodic configurations that make the additive statements non-vacuous."""
    n = 1 << r
    dim = rng.randrange(r + 1)
    H = Subgroup.generated_by(r, [1 + rng.randrange(n - 1) for _ in range(dim)])
    bits = 0
    cosets = 1 + rng.randrange(max(1, (n // H.order) // 2))
    for _ in range(cosets):
        bits |= H.coset(rng.randrange(n)).bits
    if rng.random() < 0.3:
        bits |= rng.sample_bits(n, 0.05)
    if bits == 0:
        bits = 1
    return ElementSet(r, bits)


def fuzz_kneser(max_rank: int, iters: int, seed: int) -> dict:
    rng = Xorshift64(seed or 1)
    triggered = 0
    violations = []
    for _ in range(iters):
        r = 1 + rng.randrange(max_rank)
        if rng.random() < 0.5:
            B, C = _random_structured(rng, r), _random_structured(rng, r)
        else:
            B, C = _random_set(rng, r), _random_set(rng, r)
        rep = kneser_check(B, C)
        if rep.detail is None:
            triggered += 1
        if not rep:
            violations.append(rep.witness)
    return {
        "lemma": "kneser",
        "iterations": iters,
        "hypothesis_triggered": triggered,
        "violations": violations,
    }


def fuzz_s2(max_rank: int, iters: int, seed: int) -> dict:
    if max_rank < 2:
        raise ValueError(f"fuzz s2 draws pairs of rank 2 and up: --r must be >= 2, not {max_rank}")
    rng = Xorshift64(seed or 1)
    violations = []
    nontrivial = 0
    for _ in range(iters):
        r = 2 + rng.randrange(max_rank - 1)
        while True:
            B = _random_set(rng, r) if rng.random() < 0.6 else _random_structured(rng, r)
            C = _random_set(rng, r) if rng.random() < 0.6 else _random_structured(rng, r)
            if len(B) >= 2 and len(C) >= 2:
                break
        rep = s2_bound_check(B, C)
        bound = min(2 * len(B) + 2 * len(C) - 4 - (1 << r), len(B) - 1)
        if bound > 0:
            nontrivial += 1
        if not rep:
            violations.append(rep.witness)
    return {
        "lemma": "s2-bound",
        "iterations": iters,
        "nontrivial_bound": nontrivial,
        "violations": violations,
    }


def fuzz_alldisjoint(max_rank: int, iters: int, seed: int) -> dict:
    rng = Xorshift64(seed or 1)
    violations = []
    sharpness = []
    done = 0
    while done < iters:
        r = 1 + rng.randrange(max_rank)
        n = 1 << r
        half = n // 2
        want_b = 1 + rng.randrange(half)
        want_c = half + 1 - want_b + rng.randrange(max(1, half // 2))
        if want_b + want_c > n:
            continue
        perm = list(range(n))
        rng.shuffle(perm)
        B = ElementSet.from_elements(r, perm[:want_b])
        C = ElementSet.from_elements(r, perm[want_b:want_b + want_c])
        if len(B) + len(C) <= half:
            continue
        rep = alldisjoint_check(B, C)
        done += 1
        if not rep:
            violations.append(rep.witness)
    # The boundary family: disjoint index-4 cosets with |B| + |C| = 2^(r-1)
    # exactly; the union avoids the sumset, so the bound is sharp.
    for r in range(2, max_rank + 1):
        B, C = sharpness_pair(r)
        ok = (
            B.isdisjoint(C)
            and B.union(C).isdisjoint(sumset(B, C))
            and len(B) + len(C) == 1 << (r - 1)
        )
        rejected = False
        try:
            alldisjoint_check(B, C)
        except ValueError:
            rejected = True
        sharpness.append({"r": r, "witness_ok": ok, "precondition_rejected": rejected})
        if not (ok and rejected):
            violations.append({"sharpness_r": r})
    return {
        "lemma": "alldisjoint",
        "iterations": done,
        "sharpness": sharpness,
        "violations": violations,
    }


def fuzz_php(max_rank: int, iters: int, seed: int) -> dict:
    """Draws until `iters` checks have run (kappa = 1 always qualifies)."""
    rng = Xorshift64(seed or 1)
    violations = []
    done = 0
    while done < iters:
        r = 1 + rng.randrange(max_rank)
        n = 1 << r
        kappa = 1 + rng.randrange(4)
        size_b = max(1, n - rng.randrange(n // 2 + 1))
        size_c = min(n, n + kappa - size_b + rng.randrange(3))
        if size_b + size_c < n + kappa or size_c > n:
            continue
        perm = list(range(n))
        rng.shuffle(perm)
        B = ElementSet.from_elements(r, perm[:size_b])
        rng.shuffle(perm)
        C = ElementSet.from_elements(r, perm[:size_c])
        rep = php_covered(B, C, kappa)
        done += 1
        if not rep:
            violations.append({"r": r, "kappa": kappa, "witness": rep.witness})
    return {"lemma": "php-cover", "iterations": done, "violations": violations}


def _embedded_coset_family(r: int, kappa: int) -> list[ElementSet]:
    """Qualifying sum-free sets inside the nonzero coset of an index-2 subgroup,
    one per equivalence class.

    Subsets of the coset g + H correspond to subsets of H, and the stabilizer
    of the coset acts on them as the affine group of H. Classes of large
    subsets are enumerated through their small complements under the affine
    action.
    """
    inner = r - 1
    floor = (1 << (r - 2)) + kappa
    max_complement = (1 << inner) - floor - 1
    if max_complement < 0:
        return []
    report = enumerate_classes(inner, "any", action="affine", size_max=max_complement)
    out = []
    for entry in report.entries:
        for small in entry.representatives:
            # The complement of small in H, moved to the coset 2^inner + H.
            S = ElementSet(r, (_full_mask(inner) ^ small.bits) << (1 << inner))
            if len(S) <= floor:
                raise InternalError(f"coset family member of size {len(S)} <= {floor}")
            out.append(S)
    return out


def _five_point_family(r: int, kappa: int) -> list[ElementSet]:
    base = ElementSet.from_elements(4, [1, 2, 4, 8, 15])
    H = Subgroup.generated_by(r, (1 << i for i in range(4, r)))
    bits = 0
    for b in base:
        bits |= H.coset(b).bits
    S = ElementSet(r, bits)
    floor = (1 << (r - 2)) + kappa
    out = []
    if len(S) > floor:
        out.append(S)
    for x in S:
        T = S.without_element(x)
        if len(T) > floor:
            out.append(T)
    return out


def qualifying_sum_free_sets(r: int, kappa: int) -> list[ElementSet]:
    """Sum-free sets with |S| > 2^(r-2) + kappa, at least one per linear class.

    Ranks 2 to 5 are enumerated directly (isomorph-free DFS over sum-free
    sets), one representative per class. At rank 6 a qualifying set has at
    least 19 points and lies in a maximal sum-free set as large. The library's
    own run, `spectrum maximal-sum-free --r 6`, finds exactly two such
    classes, the 32-point coset and the 20-point five-point set
    (docs/search-pruning.md §8). So rank 6 lists the coset family, one set
    per class, then the five-point set and each of its one-point deletions
    that clears the floor. The 20 deletions are one class, so at kappa = 2
    the 133 sets fall into 114 classes; at kappa = 3 no deletion clears the
    floor.
    """
    if not 2 <= r <= 6:
        raise ValueError(f"qualifying sets are generated at ranks 2 to 6 only, not {r}")
    floor = (1 << (r - 2)) + kappa
    if r <= 5:
        report = enumerate_classes(r, "sum-free", action="linear", size_min=floor + 1)
        out = []
        for entry in report.entries:
            out.extend(entry.representatives)
        return out
    return _embedded_coset_family(r, kappa) + _five_point_family(r, kappa)


# A larger kappa only raises the size floor, so its family is the smallest
# kappa's family filtered by size, in the same order.
SFNOTROUND_KAPPAS = (2, 3)


def fuzz_sfnotround(ranks=(5, 6)) -> dict:
    checked = 0
    violations = []
    per_rank = {}
    for r in ranks:
        family = qualifying_sum_free_sets(r, SFNOTROUND_KAPPAS[0])
        for kappa in SFNOTROUND_KAPPAS:
            floor = (1 << (r - 2)) + kappa
            sets = [S for S in family if len(S) > floor]
            per_rank[f"r{r}_kappa{kappa}"] = len(sets)
            for S in sets:
                if not is_sum_free(S):
                    raise InternalError(f"qualifying set {S.elements()} is not sum-free")
                rep = sfnotround_check(S, kappa)
                checked += 1
                if not rep:
                    violations.append({"r": r, "kappa": kappa, "witness": rep.witness})
    return {
        "lemma": "sfnotround",
        "checked_sets": checked,
        "family_sizes": per_rank,
        "violations": violations,
    }


def fuzz_round_properties(r: int, count: int, seed: int) -> dict:
    suite = round_set_suite(r, count, seed)
    violations = []
    large = 0
    for A in suite:
        out = round_property_check(A)
        if r >= 2 and len(A) >= (1 << (r - 2)) + 3:
            large += 1
        if not out["ok"]:
            violations.append({"set": A.to_json(), "violations": out["violations"]})
    return {
        "suite": "round-properties",
        "r": r,
        "sets": count,
        "at_or_above_threshold": large,
        "violations": violations,
    }


def fuzz_census(r: int, count: int, seed: int) -> dict:
    fixtures = census_fixture_suite(r, count, seed)
    violations = []
    for A, first, second in fixtures:
        census = coset_census(A, first, second)
        if not census.identities_hold():
            violations.append({"set": A.to_json(), "problem": "identities"})
        if not census.dg_bounds_hold:
            violations.append({"set": A.to_json(), "problem": census.dg_violations})
    return {
        "suite": "census",
        "r": r,
        "sets": len(fixtures),
        "violations": violations,
    }
