"""f2sets benchmark: one workload per run, closed loop, single process.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The workload draws its inputs from the seed,
then repeats whole rounds of the same operations for S seconds (at least
one round; no round is started that would end past S), checks the outputs outside the timed region, and prints
one JSON object as its last line of output. With --trace 0 it reports the
end-to-end metrics; with --trace 1 it alternates untraced and traced rounds
and reports the per-layer metrics, the tracing overhead, and writes the
spans to benchmarks/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    k = max(0, min(len(ordered) - 1, -(-len(ordered) * q // 100) - 1))
    return ordered[int(k)]


def setup_seconds(imports: tuple[str, ...]) -> float:
    """Median wall time of a fresh interpreter that imports f2sets and the
    workload's modules, then exits."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = "import f2sets; " + "; ".join(f"import {m}" for m in imports)
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True, cwd=ROOT)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Ops:
    """Times each operation of a round and counts the ones that fail."""

    def __init__(self):
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def __call__(self, fn, *args):
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{getattr(fn, '__name__', fn)}: {exc!r}")
            return None
        self.latencies.append(time.perf_counter() - start)
        return result


def run_rounds(workload, seconds: float, tracer=None):
    """Whole rounds that fit in `seconds`, at least one. With a tracer, rounds
    alternate untraced and traced (one of each at least)."""
    ops = Ops()
    walls = {False: [], True: []}
    first = None
    mismatched = 0
    started = time.perf_counter()
    while True:
        traced = tracer is not None and len(walls[False]) > len(walls[True])
        start = time.perf_counter()
        if traced:
            with tracer:
                outputs = workload.run_round(ops)
        else:
            outputs = workload.run_round(ops)
        walls[traced].append(time.perf_counter() - start)
        if first is None:
            first = outputs
        elif outputs != first:
            mismatched += 1
        # Start no round that the last one says would end past the deadline.
        done = time.perf_counter() - started + walls[traced][-1] > seconds
        if done and (tracer is None or walls[True]):
            break
    return ops, walls, first, mismatched


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "f2sets" / "__init__.py").is_file():
        print(f"f2sets sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; options: {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    cls = WORKLOADS[args.workload]
    setup_s = None if args.trace else setup_seconds(cls.imports)

    import f2sets
    import f2sets.cli
    import f2sets.fuzz
    import f2sets.generators
    import f2sets.search

    workload = cls(f2sets, args.seed)
    tracer = None
    if args.trace:
        from tracing import LAYER_METRICS, Tracer
        tracer = Tracer(f2sets)
    ops, walls, outputs, mismatched = run_rounds(workload, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems = workload.check(outputs)
    if mismatched:
        problems.append(f"{mismatched} rounds gave outputs different from the first round")
    for p in problems[:10] + ops.errors:
        print(f"{args.workload}: {p}", file=sys.stderr)

    if args.trace:
        rounds = len(walls[True])
        layer = tracer.layer_metrics()
        # Per traced round: every traced round runs the same operations.
        layer = {k: v / rounds if k != "search.node_yield" else v for k, v in layer.items()}
        untraced, traced = statistics.median(walls[False]), statistics.median(walls[True])
        layer["trace.overhead_s"] = traced - untraced
        layer["trace.overhead_pct"] = 100 * (traced - untraced) / untraced
        metrics = {k: {"value": layer[k], "unit": unit} for k, unit in LAYER_METRICS.items()}
        tracer.write(HERE / "results" / f"trace-{args.workload}-seed{args.seed}.json",
                     {"workload": args.workload, "seed": args.seed, "traced_rounds": rounds})
    else:
        lat_ms = [x * 1000 for x in ops.latencies] or [0.0]
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            # The mean, not the median: the host alternates fast and slow
            # phases, and the median of rounds jumps from one to the other.
            "wall_s": {"value": statistics.fmean(walls[False]), "unit": "s"},
            "op_p50_ms": {"value": percentile(lat_ms, 50), "unit": "ms"},
            "op_p99_ms": {"value": percentile(lat_ms, 99), "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        rounds = len(walls[False])
        print(f"{args.workload}: {rounds} rounds, {len(ops.latencies)} timed operations, "
              f"round seconds {[round(w, 3) for w in walls[False]]}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
