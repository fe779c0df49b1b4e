"""The benchmark tracer (benchmarks/tracing.py) wraps f2sets functions by
module and name. Every name it targets must resolve, and a CLI call must
still reach the wrapped library functions."""

import io
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import f2sets
import f2sets.cli
import f2sets.fuzz
import f2sets.generators
import f2sets.search

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
MODULES = ("core", "sumsets", "search", "urgraph", "structure", "generators", "fuzz", "cli")


def _bindings():
    return {name: dict(vars(getattr(f2sets, name))) for name in MODULES}


def test_tracer_enters_and_exits_cleanly(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    from tracing import Tracer

    before = _bindings()
    with Tracer(f2sets) as tracer:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            assert f2sets.cli.main(["verify", "classification", "--r", "3"]) == 0
    assert _bindings() == before
    metrics = tracer.layer_metrics()
    assert metrics["cli.main.calls"] == 1
    assert metrics["search.verify_classification.self_s"] > 0
