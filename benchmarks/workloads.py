"""The four benchmark workloads.

Each workload draws its inputs from the seed in its constructor, runs one
round of fixed operations in `run_round`, and checks a round's outputs in
`check`, outside any timed region. `run_round(op)` passes every operation
through `op(fn, *args)`, which times it and counts it as attempted or failed.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import numpy as np

import oracles


def _cli(main, argv: list[str]) -> dict:
    """One in-process `f2sets` command; a non-zero exit code fails the operation."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"f2sets {' '.join(argv[:3])} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def _payload(text: str) -> dict:
    doc = json.loads(text)
    doc.pop("elapsed_seconds", None)  # the only field that differs between rounds
    return doc


def _pack_bits(r: int, idx: np.ndarray) -> int:
    """The 2^r-bit integer with bit e set for each element e."""
    ind = np.zeros(1 << r, dtype=np.uint8)
    ind[idx] = 1
    return int.from_bytes(np.packbits(ind, bitorder="little").tobytes(), "little")


def _hex_literal(r: int, idx: np.ndarray) -> str:
    """The `bits_hex` set literal: little-endian nibbles, element 0 in the first."""
    bits = _pack_bits(r, idx)
    return json.dumps({"r": r, "bits_hex": format(bits, f"0{(1 << r) // 4}x")[::-1]})


def _elements(idx: np.ndarray) -> list[int]:
    return [int(x) for x in idx]


class Problems(list):
    """Descriptions of failed output checks."""

    def need(self, ok: bool, what: str) -> None:
        if not ok:
            self.append(what)


class Workload:
    name = ""
    imports: tuple[str, ...] = ()  # modules a user of this workload imports

    def __init__(self, f2, seed: int):
        self.f2 = f2
        self.rng = np.random.default_rng([seed, sum(map(ord, self.name))])

    def element_set(self, r: int, idx: np.ndarray):
        return self.f2.ElementSet(r, _pack_bits(r, idx))

    def random_indices(self, r: int, density: float) -> np.ndarray:
        idx = np.flatnonzero(self.rng.random(1 << r) < density)
        return idx if len(idx) else np.array([int(self.rng.integers(1 << r))])

    def subgroup(self, r: int, dim: int) -> tuple[np.ndarray, list[int]]:
        """Members (sorted) and generators of the span of `dim` random elements."""
        members = np.zeros(1, dtype=np.int64)
        gens = []
        for _ in range(dim):
            g = int(self.rng.integers(1, 1 << r))
            gens.append(g)
            members = np.union1d(members, members ^ g)
        return members, gens


class Classify(Workload):
    """The paper's classification checked by exhaustive search, through the CLI."""

    name = "classify"
    imports = ("f2sets.cli",)
    RANK6_CAP = 13  # smallest cap with a non-empty rank-6 stratum (8 classes of size 13)

    def __init__(self, f2, seed):
        super().__init__(f2, seed)
        audit_seed = int(self.rng.integers(1, 1 << 31))
        self.commands = [
            ["verify", "classification", "--r", "4", "--threshold", "paper"],
            ["verify", "classification", "--r", "5", "--threshold", "paper", "--audit",
             "--seed", str(audit_seed)],
            ["verify", "factdt", "--r", "5"],
            ["fuzz", "sfnotround"],
            ["enumerate", "minimal-saturating", "--r", "6", "--size-max", str(self.RANK6_CAP)],
        ]

    def run_round(self, op):
        main = self.f2.cli.main
        texts = [op(_cli, main, argv) for argv in self.commands]
        return [None if t is None else _payload(t) for t in texts]

    def check(self, outputs) -> list[str]:
        problems = Problems()
        need = problems.need
        r4, r5, factdt, sfnotround, r6 = outputs
        main = self.f2.cli.main

        for label, p in (("r4", r4), ("r5", r5)):
            if p is None:
                continue
            need(p["verdict"] and p["complete"] and p["converse_ok"]
                 and p["counterexamples"] == [], f"classification {label} verdict {p}")

        if r4 is not None:
            spectrum, converse = oracles.rank4_scan()
            need(r4["spectrum"] == {str(k): v for k, v in sorted(spectrum.items())},
                 f"r4 spectrum {r4['spectrum']} != plain scan {dict(spectrum)}")
            need(r4["converse_checked"] == converse,
                 f"r4 converse_checked {r4['converse_checked']} != {converse}")

        if r5 is not None:
            small = oracles.basis_saturating_counts(5, 4)
            need(min(small) == 9 and small[9] == oracles.RANK5_SIZE9_SATURATING_WITH_BASIS,
                 f"rank-5 basis brute force found {dict(small)}")
            need(min(int(k) for k in r5["spectrum"]) == 9, f"r5 smallest size {r5['spectrum']}")
            audit = r5["audit"] or {}
            need(audit.get("failures") == 0
                 and audit.get("checked", 0) >= min(1000, audit.get("pruned_total", 0)),
                 f"r5 audit {audit}")
            reps = _payload(_cli(main, ["enumerate", "minimal-saturating", "--r", "5"]))
            need({str(e["size"]): e["class_count"] for e in reps["entries"]} == r5["spectrum"],
                 "r5 enumerate spectrum differs from verify spectrum")
            threshold = Fraction(11 * 32, 36) + 3
            for e in reps["entries"]:
                for rep in e["representatives"]:
                    elems = rep["elements"]
                    need(oracles.is_minimal_saturating(elems, 5), f"r5 not minimal: {elems}")
                    if len(elems) > threshold:
                        need(oracles.is_shifted_cap(elems, 5), f"r5 not a shifted cap: {elems}")
            caps = _payload(_cli(main, ["enumerate", "maximal-sum-free", "--r", "5"]))
            cap_sets = [rep["elements"] for e in caps["entries"] for rep in e["representatives"]]
            for S in cap_sets:
                need(oracles.is_complete_cap(S, 5), f"r5 not a complete cap: {S}")
            need(r5["converse_checked"] == sum(len(S) + 1 for S in cap_sets),
                 f"r5 converse_checked {r5['converse_checked']}")
            if factdt is not None:
                need(factdt["verdict"] and factdt["complete"]
                     and set(factdt["tags"]) <= {"index_two_coset", "five_point_form"}
                     and factdt["checked_classes"] == sum(len(S) > 9 for S in cap_sets),
                     f"factdt {factdt}")

        if sfnotround is not None:
            need(sfnotround["ok"] and not sfnotround["violations"], "sfnotround violations")
            total = 0
            for key, count in sfnotround["family_sizes"].items():
                r, kappa = (int(x) for x in key[1:].split("_kappa"))
                family = self.f2.fuzz.qualifying_sum_free_sets(r, kappa)
                need(len(family) == count, f"sfnotround {key}: {len(family)} sets, payload {count}")
                total += count
                for S in family:
                    elems = S.elements()
                    counts = oracles.unordered_counts(elems)
                    need(oracles.is_sum_free(elems) and len(elems) > (1 << (r - 2)) + kappa
                         and min(counts.values()) >= kappa,
                         f"sfnotround {key}: set {elems} fails the recount")
            need(sfnotround["checked_sets"] == total, "sfnotround checked_sets")

        if r6 is not None:
            need(r6["complete"], "r6 stratum incomplete")
            sizes = [e["size"] for e in r6["entries"]]
            need(sizes and max(sizes) <= self.RANK6_CAP, f"r6 stratum sizes {sizes}")
            for e in r6["entries"]:
                need(e["class_count"] == len(e["representatives"]), "r6 class count")
                for rep in e["representatives"]:
                    need(oracles.is_minimal_saturating(rep["elements"], 6),
                         f"r6 not minimal: {rep['elements']}")
        return problems


class RoundProps(Workload):
    """Round-set corpora at ranks 8 and 9, each set through the property bundle."""

    name = "roundprops"
    imports = ("f2sets.generators", "f2sets.search")
    SUITES = ((8, 1000), (9, 250))  # (rank, sets) per round
    SAMPLE = 10  # sets per rank recomputed by the plain checks

    def __init__(self, f2, seed):
        super().__init__(f2, seed)
        self.suite_seeds = [int(self.rng.integers(1, 1 << 31)) for _ in self.SUITES]

    def run_round(self, op):
        suites = [self.f2.generators.round_set_suite(r, count, s)
                  for (r, count), s in zip(self.SUITES, self.suite_seeds)]
        check = self.f2.search.round_property_check
        results = [[op(check, A) for A in suite] for suite in suites]
        return [[A.bits for A in suite] for suite in suites], results

    def check(self, outputs) -> list[str]:
        problems = []
        suites, results = outputs
        for (r, count), bits, res in zip(self.SUITES, suites, results):
            if len(bits) != count or not all(bits):
                problems.append(f"rank {r}: suite of {len(bits)} sets, or an empty set")
            bad = [o for o in res if isinstance(o, dict) and not o.get("ok")]
            if bad:
                problems.append(f"rank {r}: {len(bad)} property checks not ok, first {bad[0]}")
            n = 1 << r
            for k in self.rng.choice(len(bits), size=min(self.SAMPLE, len(bits)), replace=False):
                out = res[k]
                if not isinstance(out, dict):
                    continue
                idx = oracles.bits_indices(bits[k])
                elems = _elements(idx)
                if not oracles.is_round(idx, n):
                    problems.append(f"rank {r}: set {k} is not round by plain removal")
                if out.get("unique_sums") != len(oracles.unique_sums(idx)):
                    problems.append(f"rank {r}: set {k} unique sums {out.get('unique_sums')}")
                if len(elems) >= 2:
                    edges = oracles.ur_graph_edges(elems)
                    nu = oracles.matching_number(len(elems), edges, self.rng)
                    if out.get("matching") != nu:
                        problems.append(f"rank {r}: set {k} matching {out.get('matching')} != {nu}")
        return problems


class Fuzz(Workload):
    """Lemma checks on many small pairs: random densities and coset unions, ranks 1-10."""

    name = "fuzz"
    imports = ("f2sets.sumsets",)
    # Pairs per rank and lemma in one round; each rank gets the same share so
    # that the cost of a round does not depend on the seed's draw of ranks.
    PER_RANK = {"kneser": 180, "s2": 72, "alldisjoint": 72, "php": 72}
    MAX_RANK = 10

    def __init__(self, f2, seed):
        super().__init__(f2, seed)
        self.cases = []  # (lemma, B, C, kappa or None, bidx, cidx)
        for r in range(1, self.MAX_RANK + 1):
            for lemma, count in self.PER_RANK.items():
                if lemma == "s2" and r < 2:
                    continue
                for i in range(count):
                    self.cases.append(self._case(lemma, r, i))

    def _mixed(self, r: int, structured: bool) -> np.ndarray:
        if not structured:
            return self.random_indices(r, 0.05 + 0.9 * self.rng.random())
        n = 1 << r
        members, _ = self.subgroup(r, int(self.rng.integers(0, r + 1)))
        index = n // len(members)
        picked = [members ^ int(self.rng.integers(n))
                  for _ in range(1 + int(self.rng.integers(max(1, index // 2))))]
        if self.rng.random() < 0.3:
            picked.append(self.random_indices(r, 0.05))
        return np.unique(np.concatenate(picked))

    def _case(self, lemma: str, r: int, i: int):
        n = 1 << r
        kappa = None
        if lemma in ("kneser", "s2"):
            structured = i % 2 == 1  # half random density, half coset unions
            while True:
                bidx, cidx = self._mixed(r, structured), self._mixed(r, structured)
                if lemma == "kneser" or (len(bidx) >= 2 and len(cidx) >= 2):
                    break
        elif lemma == "alldisjoint":
            half = n // 2
            want_b = 1 + int(self.rng.integers(half))
            want_c = min(n - want_b, half + 1 - want_b + int(self.rng.integers(max(1, half // 2))))
            perm = self.rng.permutation(n)
            bidx, cidx = np.sort(perm[:want_b]), np.sort(perm[want_b:want_b + want_c])
        else:  # php
            kappa = int(self.rng.integers(1, min(4, n) + 1))
            size_b = int(self.rng.integers(kappa, n + 1))
            size_c = min(n, n + kappa - size_b + int(self.rng.integers(0, 3)))
            bidx = np.sort(self.rng.permutation(n)[:size_b])
            cidx = np.sort(self.rng.permutation(n)[:size_c])
        return lemma, self.element_set(r, bidx), self.element_set(r, cidx), kappa, bidx, cidx

    def run_round(self, op):
        s = self.f2.sumsets
        fns = {"kneser": s.kneser_check, "s2": s.s2_bound_check,
               "alldisjoint": s.alldisjoint_check, "php": s.php_covered}
        out = []
        for lemma, B, C, kappa, _, _ in self.cases:
            rep = op(fns[lemma], B, C, kappa) if lemma == "php" else op(fns[lemma], B, C)
            out.append((rep.verdict, rep.detail) if hasattr(rep, "verdict") else rep)
        return out

    def check(self, outputs) -> list[str]:
        problems = []
        s = self.f2.sumsets
        for (lemma, B, C, kappa, bidx, cidx), out in zip(self.cases, outputs):
            if not isinstance(out, tuple):
                continue
            verdict, detail = out
            r = B.rank
            n = 1 << r
            where = f"{lemma} r={r} |B|={len(bidx)} |C|={len(cidx)}"
            if not verdict:
                problems.append(f"{where}: false verdict")
            counts = oracles.pair_counts(bidx, cidx, n)
            if lemma == "kneser":
                size = int(np.count_nonzero(counts))
                fired = size <= len(bidx) + len(cidx) - 1
                if fired != (detail is None):
                    problems.append(f"{where}: hypothesis fired {detail is None}, plain {fired}")
                if len(s.sumset(B, C)) != size:
                    problems.append(f"{where}: |B+C| differs from plain {size}")
            elif lemma == "s2":
                m2 = int(np.count_nonzero(counts >= 2))
                if len(s.mult_sumset(B, C, 2)) != m2:
                    problems.append(f"{where}: |B ⊞2 C| differs from plain {m2}")
            elif lemma == "alldisjoint":
                union = np.union1d(bidx, cidx)
                if not counts[union].any():
                    problems.append(f"{where}: plain union misses B + C")
            elif counts.min() < kappa:
                problems.append(f"{where}: plain counts below kappa {kappa}")
        return problems


class HighRank(Workload):
    """A few large kernel calls at ranks 12-20, and the CLI on a dense rank-16/17 set."""

    name = "highrank"
    imports = ("f2sets.sumsets", "f2sets.cli")
    REP_COUNTS = 2  # random half-density rank-20 sets
    SPARSE = 2  # 1000-element rank-20 sets, summed with themselves
    DENSE_PAIRS = 2  # pairs of different 2,500-element rank-18 sets
    COSET_RANKS = (12, 13, 14, 15, 16)
    CLI_RANKS = (16, 17)  # 30%-dense sets
    SAMPLED_COUNTS = 8

    def __init__(self, f2, seed):
        super().__init__(f2, seed)
        self.tables = [self.random_indices(20, 0.5) for _ in range(self.REP_COUNTS)]
        self.sparse = [np.sort(self.rng.choice(1 << 20, 1000, replace=False))
                       for _ in range(self.SPARSE)]
        self.dense = [tuple(np.sort(self.rng.choice(1 << 18, 2500, replace=False))
                            for _ in range(2)) for _ in range(self.DENSE_PAIRS)]
        self.cosets = [self._coset_pair(r) for r in self.COSET_RANKS]
        self.cli_sets = [self.random_indices(r, 0.3) for r in self.CLI_RANKS]
        self.inputs = {
            "tables": [self.element_set(20, i) for i in self.tables],
            "sparse": [self.element_set(20, i) for i in self.sparse],
            "dense": [(self.element_set(18, b), self.element_set(18, c)) for b, c in self.dense],
            "cosets": [(self.element_set(r, b), self.element_set(r, c))
                       for r, (b, c, _) in zip(self.COSET_RANKS, self.cosets)],
            "cli": [["sumset", "--set", _hex_literal(r, i)]
                    for r, i in zip(self.CLI_RANKS, self.cli_sets)],
        }

    def _coset_pair(self, r: int):
        """B: 3 cosets and C: 2 cosets of an index-64 subgroup H, each inside one
        coset of an index-16 subgroup K ⊇ H, so |B + C| <= 4|H| and Kneser's
        hypothesis fires."""
        n = 1 << r
        members, gens = self.subgroup(r, r - 6)
        while len(members) != n >> 6:
            members, gens = self.subgroup(r, r - 6)
        while True:
            k1, k2 = (int(x) for x in self.rng.integers(1, n, size=2))
            K = np.union1d(np.union1d(members, members ^ k1),
                           np.union1d(members ^ k2, members ^ k1 ^ k2))
            if len(K) == n >> 4:
                break
        labels = [0, k1, k2, k1 ^ k2]
        g1, g2 = (int(x) for x in self.rng.integers(n, size=2))
        b = np.unique(np.concatenate([members ^ g1 ^ x for x in labels[:3]]))
        c = np.unique(np.concatenate([members ^ g2 ^ x for x in labels[1:3]]))
        return b, c, gens

    def run_round(self, op):
        s = self.f2.sumsets
        inp = self.inputs
        out = {
            "tables": [op(s.rep_counts, A) for A in inp["tables"]],
            "sparse": [op(s.sumset, A, A) for A in inp["sparse"]],
            "dense": [(op(s.sumset, B, C), op(s.mult_sumset, B, C, 2)) for B, C in inp["dense"]],
            "kneser": [op(s.kneser_check, B, C) for B, C in inp["cosets"]],
            "period": [op(self.f2.core.period, B) for B, _ in inp["cosets"]],
            "cli": [op(_cli, self.f2.cli.main, argv) for argv in inp["cli"]],
        }
        # Round outputs are compared with each other, so keep comparable forms.
        out["tables"] = [t.counts.tobytes() if hasattr(t, "counts") else t for t in out["tables"]]
        out["kneser"] = [(k.verdict, k.detail) if hasattr(k, "verdict") else k
                         for k in out["kneser"]]
        out["period"] = [p.basis if hasattr(p, "basis") else p for p in out["period"]]
        return out

    def check(self, out) -> list[str]:
        problems = Problems()
        need = problems.need

        for idx, raw in zip(self.tables, out["tables"]):
            if not isinstance(raw, bytes):
                continue
            counts = np.frombuffer(raw, dtype=np.int64)
            ind = oracles.indicator(idx, 1 << 20)
            need(int(counts.sum()) == len(idx) ** 2 and int(counts[0]) == len(idx),
                 "rep_counts total or N(0)")
            for d in self.rng.integers(1, 1 << 20, size=self.SAMPLED_COUNTS):
                need(int(counts[d]) == oracles.self_count(ind, int(d)), f"rep_counts N({d})")
        for idx, S in zip(self.sparse, out["sparse"]):
            if hasattr(S, "bits"):
                need(np.array_equal(S.indices(), oracles.pair_support(idx, idx, 1 << 20)),
                     "rank-20 sparse sumset")
        for (b, c), pair in zip(self.dense, out["dense"]):
            S, M = pair
            counts = oracles.pair_counts(b, c, 1 << 18)
            if hasattr(S, "bits"):
                need(np.array_equal(S.indices(), np.flatnonzero(counts)), "rank-18 sumset")
            if hasattr(M, "bits"):
                need(np.array_equal(M.indices(), np.flatnonzero(counts >= 2)),
                     "rank-18 mult_sumset k=2")
        for r, (b, c, gens), k, basis in zip(self.COSET_RANKS, self.cosets,
                                             out["kneser"], out["period"]):
            n = 1 << r
            if isinstance(k, tuple):
                size = len(oracles.pair_support(b, c, n))
                need(k[0] and (k[1] is None) == (size <= len(b) + len(c) - 1),
                     f"kneser r={r}: {k}, plain |B+C| = {size}")
            if not isinstance(basis, tuple):
                continue
            ind = oracles.indicator(b, n)
            need(all(oracles.fixes(ind, b, v) for v in basis), f"period r={r}: basis moves B")
            members = np.zeros(1, dtype=np.int64)
            for v in basis:
                members = np.union1d(members, members ^ v)
            need(len(members) == 1 << len(basis), f"period r={r}: dependent basis")
            need(all(g in set(members.tolist()) for g in gens), f"period r={r}: misses H")
            outside = np.setdiff1d(self.rng.integers(0, n, size=32), members)[:16]
            need(not any(oracles.fixes(ind, b, int(g)) for g in outside),
                 f"period r={r}: an element outside the period fixes B")
        for r, idx, text in zip(self.CLI_RANKS, self.cli_sets, out["cli"]):
            if isinstance(text, str):
                doc = json.loads(text)
                want = oracles.pair_support(idx, idx, 1 << r)
                need(doc["sumset"]["elements"] == _elements(want) and doc["count"] == len(want),
                     f"cli sumset r={r}")
        return problems


WORKLOADS = {w.name: w for w in (Classify, RoundProps, Fuzz, HighRank)}
