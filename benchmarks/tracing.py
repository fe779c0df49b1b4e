"""Spans and counters around the calls into each f2sets module.

The tracer wraps public functions and methods from outside the program: it
replaces every binding of a wrapped function in the f2sets modules (so names
bound by `from .x import y` are covered too) and restores them on exit. Each
wrapped call becomes a span (name, start, end, parent). Functions called
often enough that a span per call would distort the run keep a count and
summed times only. Self time is a call's duration minus the part covered by
its wrapped children. Spans stay in memory until `write` saves them.
"""

from __future__ import annotations

import functools
import json
import time
from pathlib import Path

perf_counter = time.perf_counter

# (module, attribute path, metric name, kind). Kinds: "span" records a span
# per call; "hot" keeps count and times only; "count" keeps the call count
# only; "iter" counts calls and yielded elements of a generator method.
TARGETS = [
    ("core", "translate_bits", "core.translate_bits", "count"),
    ("core", "indices_to_bits", "core.indices_to_bits", "hot"),
    ("core", "period", "core.period", "span"),
    ("core", "ElementSet.__iter__", "core.ElementSet.iter", "iter"),
    ("core", "Subgroup.generated_by", "core.Subgroup.generated_by", "hot"),
    ("sumsets", "sumset", "sumsets.sumset", "hot"),
    ("sumsets", "rep_counts", "sumsets.rep_counts", "hot"),
    ("sumsets", "mult_sumset", "sumsets.mult_sumset", "hot"),
    ("sumsets", "kneser_check", "sumsets.kneser_check", "hot"),
    ("sumsets", "s2_bound_check", "sumsets.s2_bound_check", "hot"),
    ("sumsets", "alldisjoint_check", "sumsets.alldisjoint_check", "hot"),
    ("sumsets", "php_covered", "sumsets.php_covered", "hot"),
    ("sumsets", "is_round", "sumsets.is_round", "hot"),
    ("sumsets", "unique_sums", "sumsets.unique_sums", "hot"),
    ("sumsets", "is_minimal_saturating", "sumsets.is_minimal_saturating", "hot"),
    ("sumsets", "is_sum_free", "sumsets.is_sum_free", "hot"),
    ("sumsets", "is_maximal_sum_free", "sumsets.is_maximal_sum_free", "hot"),
    ("sumsets", "sfnotround_check", "sumsets.sfnotround_check", "span"),
    ("search", "enumerate_classes", "search.enumerate_classes", "span"),
    ("search", "plain_scan", "search.plain_scan", "span"),
    ("search", "verify_classification", "search.verify_classification", "span"),
    ("search", "round_property_check", "search.round_property_check", "span"),
    ("search", "SumFreeProfile.extend", "search.profile.extend", "hot"),
    ("search", "SumFreeProfile.accept", "search.profile.accept", "hot"),
    ("search", "MaximalSumFreeProfile.accept", "search.profile.accept", "hot"),
    ("search", "MinimalSaturatingProfile.extend", "search.profile.extend", "hot"),
    ("search", "MinimalSaturatingProfile.accept", "search.profile.accept", "hot"),
    ("search", "PlainProfile.extend", "search.profile.extend", "hot"),
    ("search", "PlainProfile.accept", "search.profile.accept", "hot"),
    ("urgraph", "build", "urgraph.build", "span"),
    ("urgraph", "matching_number", "urgraph.matching_number", "span"),
    ("urgraph", "triangle_witness", "urgraph.triangle_witness", "span"),
    ("urgraph", "degree_sum_check", "urgraph.degree_sum_check", "span"),
    ("structure", "decompose_saturating", "structure.decompose_saturating", "hot"),
    ("structure", "classify_max_sumfree", "structure.classify_max_sumfree", "span"),
    ("generators", "trim_to_round", "generators.trim_to_round", "span"),
    ("generators", "round_set_suite", "generators.round_set_suite", "span"),
    ("generators", "random_sum_free", "generators.random_sum_free", "span"),
    ("fuzz", "qualifying_sum_free_sets", "fuzz.qualifying_sum_free_sets", "span"),
    ("cli", "main", "cli.main", "span"),
]

# The per-layer metrics every traced run prints, with their units.
LAYER_METRICS = {
    "search.enumerate_classes.self_s": "s",
    "search.nodes": "count",
    "search.children_tried": "count",
    "search.profile_prunes": "count",
    "search.canonical_rejects": "count",
    "search.node_yield": "ratio",
    "search.profile.extend.self_s": "s",
    "search.profile.accept.self_s": "s",
    "search.plain_scan.self_s": "s",
    "search.verify_classification.self_s": "s",
    "search.round_property_check.self_s": "s",
    **{f"sumsets.sumset.{regime}.{what}": unit
       for regime in ("py", "numpy", "dense", "translate")
       for what, unit in (("calls", "count"), ("self_s", "s"))},
    "sumsets.sumset.pairs": "count",
    "sumsets.dense.transforms": "count",
    "sumsets.dense.bytes_computed": "bytes",
    "sumsets.rep_counts.self_s": "s",
    "sumsets.mult_sumset.self_s": "s",
    "sumsets.kneser_check.self_s": "s",
    "sumsets.lemma_checks.self_s": "s",
    "sumsets.is_round.self_s": "s",
    "sumsets.unique_sums.self_s": "s",
    "sumsets.is_minimal_saturating.calls": "count",
    "sumsets.is_minimal_saturating.self_s": "s",
    "sumsets.is_sum_free.self_s": "s",
    "sumsets.is_maximal_sum_free.self_s": "s",
    "sumsets.sfnotround_check.self_s": "s",
    "core.period.calls": "count",
    "core.period.self_s": "s",
    "core.ElementSet.iter.calls": "count",
    "core.ElementSet.iter.yielded": "count",
    "core.ElementSet.iter.words_computed": "count",
    "core.translate_bits.calls": "count",
    "core.indices_to_bits.self_s": "s",
    "core.Subgroup.generated_by.self_s": "s",
    "urgraph.build.self_s": "s",
    "urgraph.matching_number.self_s": "s",
    "urgraph.triangle_witness.self_s": "s",
    "urgraph.degree_sum_check.self_s": "s",
    "structure.decompose_saturating.self_s": "s",
    "structure.classify_max_sumfree.self_s": "s",
    "generators.trim_to_round.calls": "count",
    "generators.trim_to_round.self_s": "s",
    "generators.trim_to_round.removed": "count",
    "generators.round_set_suite.self_s": "s",
    "generators.random_sum_free.self_s": "s",
    "fuzz.qualifying_sum_free_sets.self_s": "s",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_pct": "%",
}


class Tracer:
    """Install with `with Tracer(f2sets) as tr:`; read `tr.layer_metrics()` afterwards."""

    def __init__(self, package):
        self.modules = {name: getattr(package, name) for name in
                        ("core", "sumsets", "search", "urgraph", "structure",
                         "generators", "fuzz", "cli")}
        self.names: list[str] = []
        self.spans: list[tuple[int, int, float, float, int]] = []
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: dict[str, int] = {}
        self._stack = [[0.0, -1]]  # [child time, span id] per open call
        self._restore: list[tuple[object, str, object]] = []
        sumsets = self.modules["sumsets"]
        # Cut-overs read at run time, so a re-tuned kernel is classified by its own limits.
        self.py_limit = getattr(sumsets, "_PY_PRODUCT_LIMIT", 1500)
        self.sparse_limit = getattr(sumsets, "_SPARSE_PRODUCT_LIMIT", 1 << 22)
        self.dense_max_rank = getattr(sumsets, "_DENSE_MAX_RANK", 20)
        # metric -> (before(args) returning the stats name, after(args, result))
        self._hooks = {
            "sumsets.sumset": (self._before_sumset, None),
            "sumsets.rep_counts": (self._before_rep_counts, None),
            "sumsets.mult_sumset": (self._before_mult_sumset, None),
            "search.enumerate_classes": (None, self._after_enumerate_classes),
            "search.profile.extend": (None, self._after_extend),
            "generators.trim_to_round": (None, self._after_trim_to_round),
        }

    # -- installation

    def __enter__(self):
        for module_name, path, metric, kind in TARGETS:
            owner = self.modules[module_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = owner.__dict__[attr] if outer else getattr(owner, attr)
            func = raw.__func__ if isinstance(raw, classmethod) else raw
            wrapped = self._wrap(metric, kind, func)
            if isinstance(raw, classmethod):
                wrapped = classmethod(wrapped)
            if outer:
                self._set(owner, attr, wrapped)
            else:
                # Every module-level binding of the function, wherever imported.
                for module in self.modules.values():
                    for key, value in list(vars(module).items()):
                        if value is func:
                            self._set(module, key, wrapped)
        return self

    def __exit__(self, *exc):
        for owner, attr, old in reversed(self._restore):
            setattr(owner, attr, old)
        self._restore.clear()
        return False

    def _set(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    # -- wrappers

    def _count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _wrap(self, metric: str, kind: str, func):
        if kind == "count":
            @functools.wraps(func)
            def counted(*args, **kwargs):
                # Inlined: translate_bits runs millions of times per round.
                self.counts[metric] = self.counts.get(metric, 0) + 1
                return func(*args, **kwargs)
            return counted
        if kind == "iter":
            @functools.wraps(func)
            def iterated(elements):
                self._count(metric + ".calls")
                words = max(1, (1 << elements.rank) // 64)
                n = 0
                try:
                    for x in func(elements):
                        n += 1
                        yield x
                finally:
                    self._count(metric + ".yielded", n)
                    self._count(metric + ".words_computed", n * words)
            return iterated

        before, after = self._hooks.get(metric, (None, None))
        record_span = kind == "span"
        if metric not in self.names:
            self.names.append(metric)
        name_id = self.names.index(metric)
        stack = self._stack

        @functools.wraps(func)
        def timed(*args, **kwargs):
            name = before(args) if before else metric
            parent = stack[-1][1]
            # A call without a span passes its parent on to its children.
            frame = [0.0, len(self.spans) if record_span else parent]
            if record_span:
                self.spans.append(None)  # reserve the id; filled in on exit
            stack.append(frame)
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                stack[-1][0] += duration
                stat = self.stats.get(name)
                if stat is None:
                    stat = self.stats[name] = [0, 0.0, 0.0]
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[0]
                if record_span:
                    self.spans[frame[1]] = (frame[1], name_id, start, end, parent)
            if after:
                after(args, result)
            return result
        return timed

    def _before_sumset(self, args) -> str:
        B, C = args[0], args[1]
        nb, nc = len(B), len(C)
        product = nb * nc
        if product <= self.py_limit:
            regime = "py"
        elif product <= self.sparse_limit:
            regime = "numpy"
        elif B.rank <= self.dense_max_rank:
            regime = "dense"
            self._transforms(B.rank, 2 if B.bits == C.bits else 3)
        else:
            regime = "translate"
        if regime in ("py", "numpy"):
            self._count("sumsets.sumset.pairs", product)
        return "sumsets.sumset." + regime

    def _counts_kernel(self, B, C) -> None:
        """Mirror of the count-table dispatch: dense past the sparse limit."""
        if len(B) * len(C) > self.sparse_limit and B.rank <= self.dense_max_rank:
            self._transforms(B.rank, 2 if B.bits == C.bits else 3)

    def _before_rep_counts(self, args) -> str:
        A = args[0]
        if not (A.rank <= 8 and len(A) ** 2 <= 4096):
            self._counts_kernel(A, A)
        return "sumsets.rep_counts"

    def _before_mult_sumset(self, args) -> str:
        if len(args) > 2 and args[2] >= 2:
            self._counts_kernel(args[0], args[1])
        return "sumsets.mult_sumset"

    def _transforms(self, r: int, count: int) -> None:
        self._count("sumsets.dense.transforms", count)
        # Each length-2^r int64 transform reads and writes every entry at each of r levels.
        self._count("sumsets.dense.bytes_computed", count * r * 2 * 8 * (1 << r))

    def _after_enumerate_classes(self, args, report) -> None:
        self._count("search.nodes", report.nodes)
        self._count("search.enumerations")

    def _after_extend(self, args, state) -> None:
        if state is None:
            self._count("search.profile_prunes")

    def _after_trim_to_round(self, args, result) -> None:
        self._count("generators.trim_to_round.removed", len(args[0]) - len(result))

    # -- results

    def _self(self, *names: str) -> float:
        return sum(self.stats.get(n, (0, 0.0, 0.0))[2] for n in names)

    def _calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def layer_metrics(self) -> dict[str, float]:
        c = self.counts
        extend_calls = self._calls("search.profile.extend")
        prunes = c.get("search.profile_prunes", 0)
        nodes = c.get("search.nodes", 0)
        out = {
            "search.nodes": nodes,
            "search.children_tried": extend_calls,
            "search.profile_prunes": prunes,
            # Children that pass the profile are either visited (a node other
            # than a root) or rejected as non-canonical.
            "search.canonical_rejects": (extend_calls - prunes)
            - (nodes - c.get("search.enumerations", 0)),
            "search.node_yield": nodes / extend_calls if extend_calls else 0.0,
            "sumsets.sumset.pairs": c.get("sumsets.sumset.pairs", 0),
            "sumsets.dense.transforms": c.get("sumsets.dense.transforms", 0),
            "sumsets.dense.bytes_computed": c.get("sumsets.dense.bytes_computed", 0),
            "sumsets.lemma_checks.self_s": self._self(
                "sumsets.s2_bound_check", "sumsets.alldisjoint_check", "sumsets.php_covered"),
            "generators.trim_to_round.removed": c.get("generators.trim_to_round.removed", 0),
            "core.translate_bits.calls": c.get("core.translate_bits", 0),
        }
        for key in ("calls", "yielded", "words_computed"):
            out[f"core.ElementSet.iter.{key}"] = c.get(f"core.ElementSet.iter.{key}", 0)
        for metric in LAYER_METRICS:
            if metric in out or metric.startswith("trace."):
                continue
            base, what = metric.rsplit(".", 1)
            if what == "self_s":
                out[metric] = self._self(base)
            elif what == "calls":
                out[metric] = self._calls(base)
        return out

    def write(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            **meta,
            "span_fields": ["id", "name", "start_s", "end_s", "parent"],
            "names": self.names,
            "spans": [s for s in self.spans if s is not None],
            "aggregates": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                           for k, v in sorted(self.stats.items())},
            "counts": dict(sorted(self.counts.items())),
        }
        path.write_text(json.dumps(doc, separators=(",", ":")))
