"""Command-line front door. Every command prints one JSON document to stdout
and a one-line human summary to stderr.

Exit codes: 0 when the verdict is true or the operation succeeded, 1 when a
check returned a false verdict (the witness is in the JSON), 2 for usage or
input errors. Each command accepts only the flags it reads; a flag read only for
some values of its positional argument, or only with another flag, is a usage
error otherwise.

`_emit` is the one path to stdout. Commands put the sets they print in the
payload as ElementSets, and `_emit` writes their element lists from the
members' indices through a table of 4-digit chunks, byte for byte what
`json.dumps(payload, sort_keys=True)` made of `to_json()`: 3.1 ms against
15 ms for `tolist` and `json.dumps` at 2^17 elements (BENCH_29.json). `main`
builds its parser once per process.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .core import ElementSet, InternalError, validate_rank
from .search import (
    SearchBudget,
    canonical_form,
    enumerate_classes,
    find_example,
    second_largest_check,
    verify_classification,
    verify_factdt,
)
from .structure import (
    CensusError,
    classify_max_sumfree,
    construct_cap_replacement,
    construct_coset,
    construct_punctured,
    construct_shifted_cap,
    construct_subgroup_union,
    coset_census,
    decompose_round,
    decompose_saturating,
    is_blocking,
    is_minimal_blocking,
    tangent_construction,
)
from .sumsets import (
    _cross_counts,
    alldisjoint_check,
    is_maximal_sum_free,
    is_minimal_saturating,
    is_round,
    is_saturating,
    is_sum_free,
    kneser_check,
    s2_bound_check,
    sfnotround_check,
    sumset,
    unique_sums,
)
from . import fuzz, urgraph

CHECKS = {
    "sum-free": is_sum_free,
    "maximal-sum-free": is_maximal_sum_free,
    "saturating": is_saturating,
    "minimal-saturating": is_minimal_saturating,
    "round": is_round,
    "blocking": is_blocking,
    "minimal-blocking": is_minimal_blocking,
}

BINARY_CHECKS = {
    "kneser": kneser_check,
    "alldisjoint": alldisjoint_check,
    "s2": s2_bound_check,
}

# Constructions built from --r alone, and those built from a base set and --shift.
RANK_CONSTRUCTIONS = {
    "coset": construct_coset,
    "punctured": construct_punctured,
    "subgroup-union": construct_subgroup_union,
}

BASE_CONSTRUCTIONS = {
    "shifted-cap": construct_shifted_cap,
    "cap-replacement": construct_cap_replacement,
}

# Seeded harnesses, each called as harness(rank, iterations, seed).
FUZZ_HARNESSES = {
    "kneser": fuzz.fuzz_kneser,
    "s2": fuzz.fuzz_s2,
    "alldisjoint": fuzz.fuzz_alldisjoint,
    "php": fuzz.fuzz_php,
    "round-props": fuzz.fuzz_round_properties,
    "census": fuzz.fuzz_census,
}


class UsageError(Exception):
    pass


def _version_string() -> str:
    try:
        described = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=5,
            cwd=Path(__file__).resolve().parent,
        )
        if described.returncode == 0 and described.stdout.strip():
            return f"{__version__}+{described.stdout.strip()}"
    except (OSError, subprocess.SubprocessError):
        pass
    return __version__


class _VersionAction(argparse.Action):
    """`--version`, with the git lookup deferred until the flag is given."""

    def __init__(self, option_strings, dest=argparse.SUPPRESS):
        super().__init__(option_strings, dest, nargs=0, default=argparse.SUPPRESS,
                         help="show program's version number and exit")

    def __call__(self, parser, namespace, values, option_string=None):
        print(_version_string())
        parser.exit()


def _load_set(args, second: bool = False) -> ElementSet:
    """The set literal of --set (or --file, --stdin), or of --set2 if second."""
    if second:
        literal, flag = args.set2, "--set2"
    else:
        literal, flag = args.set, "--set"
        if literal is None and args.file:
            flag = "--file"
            try:
                literal = Path(args.file).read_text()
            except (OSError, UnicodeDecodeError) as exc:
                raise UsageError(f"cannot read --file: {exc}")
        if literal is None and args.stdin:
            literal, flag = sys.stdin.read(), "--stdin"
    if literal is None:
        raise UsageError(f"missing {flag}")
    try:
        obj = json.loads(literal)
        A = ElementSet.from_json(obj)
    except (ValueError, TypeError) as exc:
        raise UsageError(f"bad set literal for {flag}: {exc}")
    if args.r is not None and A.rank != args.r:
        raise UsageError(f"--r {args.r} conflicts with the set literal rank {A.rank}")
    return A


def _reject_unread(args, readers, *dests: str) -> None:
    """A usage error for each given flag that only `readers` read."""
    for dest in dests:
        value = getattr(args, dest)  # None, or False for --stdin, when not given
        if value is not None and value is not False:
            flag = dest.replace("_", "-")
            raise UsageError(f"--{flag} is read only by {args.command} {', '.join(readers)}")


@functools.cache
def _digit_chunks() -> np.ndarray:
    """The four zero-padded ASCII digits of each of 0..9999, packed in one uint32."""
    n = np.arange(10_000)
    digits = np.stack([n // 1000, n // 100 % 10, n // 10 % 10, n % 10], axis=1) + ord("0")
    chunks = digits.astype(np.uint8).view(np.uint32).ravel()
    chunks.setflags(write=False)
    return chunks


_COMMA_SPACE = int.from_bytes(b", \0\0", sys.byteorder)
_POWERS_OF_TEN = [10**d for d in range(1, 8)]


def _element_list(values: np.ndarray) -> str:
    """`json.dumps(values.tolist())` for ascending integers below 10^8.

    Row i is values[i] as eight zero-padded digits, two chunks of
    `_digit_chunks`, then ", ". Ascending values of d digits are one run of
    rows, copied to the output as their last d + 2 bytes in one strided
    assignment; the final ", " becomes "]"."""
    n = len(values)
    if not n:
        return "[]"
    hi, lo = np.divmod(values.astype(np.uint32), 10_000)
    chunks = _digit_chunks()
    rows = np.empty((n, 3), dtype=np.uint32)
    rows[:, 0] = chunks[hi]
    rows[:, 1] = chunks[lo]
    rows[:, 2] = _COMMA_SPACE
    rows = rows.view(np.uint8)  # (n, 12): eight digits, ", ", two unused bytes
    cuts = [0, *np.searchsorted(values, _POWERS_OF_TEN).tolist(), n]
    runs = [(w, a, b) for w, a, b in zip(range(3, 11), cuts, cuts[1:]) if b > a]
    out = np.empty(1 + sum((b - a) * w for w, a, b in runs), dtype=np.uint8)
    out[0] = ord("[")
    at = 1
    for w, a, b in runs:
        out[at:at + (b - a) * w].reshape(b - a, w)[:] = rows[a:b, 10 - w:10]
        at += (b - a) * w
    out[-2] = ord("]")
    return out[:-1].tobytes().decode("ascii")


# `_emit`'s encoder writes this string in place of each ElementSet, and the
# rendered set replaces it. No command line can hold it: argv has no NULs.
_SET_TOKEN = "\0set\0"


def _emit(payload: dict, summary: str, code: int) -> int:
    """Print the payload as sorted JSON, the summary to stderr, and return code.

    An ElementSet anywhere in the payload prints as its set literal
    {"elements": [...], "r": r}, with the list from `_element_list`: the
    same bytes as `json.dumps` of `to_json()`, without a Python int per element."""
    sets = []

    def element_set(obj):
        if not isinstance(obj, ElementSet):
            raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
        sets.append(obj)
        return _SET_TOKEN

    pieces = json.dumps(payload, sort_keys=True, default=element_set).split(json.dumps(_SET_TOKEN))
    if len(pieces) != len(sets) + 1:
        raise InternalError(f"{len(pieces) - 1} set tokens in the JSON for {len(sets)} sets")
    text = [pieces[0]]
    for S, rest in zip(sets, pieces[1:]):
        text += ['{"elements": ', _element_list(S.indices()), f', "r": {S.rank}}}', rest]
    print("".join(text))
    print(summary, file=sys.stderr)
    return code


def _budget(args) -> SearchBudget:
    return SearchBudget(max_nodes=args.budget_nodes, max_seconds=args.budget_secs)


def _search_options(args) -> dict:
    """The budget, audit, seed and threads of a search command; --seed is the
    audit's sampling seed, so it needs --audit."""
    if not args.audit:
        _reject_unread(args, ["--audit"], "seed")
    return {"budget": _budget(args), "audit": args.audit,
            "seed": 0 if args.seed is None else args.seed,
            "threads": 1 if args.threads is None else args.threads}


def cmd_check(args) -> int:
    name = args.predicate
    if name not in BINARY_CHECKS:
        _reject_unread(args, BINARY_CHECKS, "set2")
    if name != "sfnotround":
        _reject_unread(args, ["sfnotround"], "kappa")
    A = _load_set(args)
    if name in BINARY_CHECKS:
        report = BINARY_CHECKS[name](A, _load_set(args, second=True))
    elif name == "sfnotround":
        report = sfnotround_check(A, 2 if args.kappa is None else args.kappa)
    else:
        report = CHECKS[name](A)
    code = 0 if report.verdict else 1
    return _emit(report.to_json(), f"{name}: {report.verdict}", code)


def cmd_dset(args) -> int:
    A = _load_set(args)
    D = unique_sums(A)
    payload = {"input": A, "unique_sums": D, "count": len(D)}
    return _emit(payload, f"|D| = {len(D)}", 0)


def cmd_sumset(args) -> int:
    B = _load_set(args)
    C = B if args.set2 is None else _load_set(args, second=True)
    S = sumset(B, C)
    payload = {"sumset": S, "count": len(S)}
    if args.counts:
        payload["ordered_counts"] = _cross_counts(B, C).tolist()
    return _emit(payload, f"|B+C| = {len(S)}", 0)


def cmd_graph(args) -> int:
    A = _load_set(args)
    G = urgraph.build(A)
    payload = G.to_json()
    payload["isolated_edges"] = [list(e) for e in urgraph.isolated_edges(G)]
    payload["matching_number"] = urgraph.matching_number(G).size
    tri = urgraph.triangle_witness(G)
    payload["triangle"] = list(tri) if tri else None
    if G.n >= 2:
        payload["star_centers"] = urgraph.spanning_star_centers(G).to_json()["elements"]
    return _emit(payload, f"graph: {G.n} vertices, {len(G.edges)} edges", 0)


def cmd_decompose(args) -> int:
    A = _load_set(args)
    decs = (decompose_saturating if args.form == "saturating" else decompose_round)(A)
    payload = {"form": args.form, "decompositions": [d.to_json() for d in decs], "count": len(decs)}
    return _emit(payload, f"{len(decs)} decomposition(s)", 0 if decs else 1)


def cmd_classify_sumfree(args) -> int:
    S = _load_set(args)
    cls = classify_max_sumfree(S)
    return _emit(cls.to_json(), f"class: {cls.tag}", 0 if cls.tag != "other" else 1)


def cmd_census(args) -> int:
    A = _load_set(args)
    census = coset_census(A)
    payload = census.to_json()
    ok = census.identities_hold() and census.dg_bounds_hold
    return _emit(payload, f"census: identities ok, bounds {'ok' if census.dg_bounds_hold else 'conditional'}",
                 0 if ok else 1)


def cmd_construct(args) -> int:
    if args.kind in RANK_CONSTRUCTIONS:
        _reject_unread(args, BASE_CONSTRUCTIONS, "set", "file", "stdin", "shift")
        if args.r is None:
            raise UsageError("--r is required for this construction")
        A = RANK_CONSTRUCTIONS[args.kind](args.r)
    else:
        base = _load_set(args)
        if args.shift is None:
            raise UsageError("--shift is required for this construction")
        A = BASE_CONSTRUCTIONS[args.kind](base, args.shift)
    return _emit({"kind": args.kind, "set": A, "size": len(A)},
                 f"built {args.kind}: {len(A)} elements", 0)


def cmd_tangent(args) -> int:
    T = tangent_construction(_load_set(args), args.shift)
    return _emit({"set": T, "size": len(T)}, f"tangent set: {len(T)}", 0)


def cmd_canonical(args) -> int:
    A = _load_set(args)
    form = canonical_form(A, args.action, allow_zero=True)
    return _emit({"action": args.action, "canonical": form.set},
                 "canonical form computed", 0)


def cmd_enumerate(args) -> int:
    report = enumerate_classes(
        args.r,
        args.predicate,
        action=args.action,
        size_min=args.size_min,
        size_max=args.size_max,
        **_search_options(args),
    )
    payload = report.to_json(include_representatives=args.command == "enumerate")
    if args.tsv:
        try:
            Path(args.tsv).write_text(report.to_tsv())
        except OSError as exc:
            raise UsageError(f"cannot write --tsv: {exc}")
    code = 0 if report.complete else 1
    status = "complete" if report.complete else "INCOMPLETE"
    return _emit(payload, f"enumerate {args.predicate} r={args.r}: {status}, "
                          f"{sum(e.class_count for e in report.entries)} classes", code)


def cmd_verify(args) -> int:
    if args.theorem == "classification":
        if args.r <= 4:  # one lattice pass: no search to budget, audit or split
            _reject_unread(args, ["classification --r >= 5"], "audit", "budget_nodes",
                           "budget_secs", "threads", "seed")
        payload = verify_classification(args.r, args.threshold, **_search_options(args))
        ok = payload["verdict"]
    elif args.theorem == "factdt":
        payload = verify_factdt(args.r, budget=_budget(args))
        ok = payload["verdict"]
    else:
        payload = second_largest_check(args.r, budget=_budget(args))
        ok = payload["complete"]
    return _emit(payload, f"verify {args.theorem}: {'ok' if ok else 'FAILED'}",
                 0 if ok else 1)


def cmd_find_example(args) -> int:
    found = find_example(args.r, args.predicate, args.size, seed=args.seed,
                         max_restarts=args.restarts)
    if found is None:
        return _emit({"found": None, "predicate": args.predicate, "size": args.size},
                     "no example found within budget", 1)
    return _emit({"found": found, "predicate": args.predicate,
                  "size": args.size}, f"example found: {len(found)} elements", 0)


def cmd_fuzz(args) -> int:
    t0 = time.monotonic()
    if args.lemma == "sfnotround":
        _reject_unread(args, FUZZ_HARNESSES, "iters", "seed")
        out = fuzz.fuzz_sfnotround((5, 6) if args.r is None else (args.r,))
    else:
        default_r = 7 if args.lemma == "census" else 8  # census bases: ranks 6 and 7
        out = FUZZ_HARNESSES[args.lemma](default_r if args.r is None else args.r,
                                         1000 if args.iters is None else args.iters,
                                         args.seed or 0)
    out["elapsed_seconds"] = round(time.monotonic() - t0, 3)
    out["ok"] = not out["violations"]
    return _emit(out, f"fuzz {args.lemma}: {'ok' if out['ok'] else 'VIOLATIONS'}",
                 0 if out["ok"] else 1)


def _flag_type(kind, accept, what: str):
    """An argparse type: `kind` of the text, kept when `accept` holds, else a
    usage error naming `what` the flag takes."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = None
        if value is None or not accept(value):
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return value
    return parse


_COUNT = _flag_type(int, lambda v: v >= 0, "a non-negative integer")
_WORKERS = _flag_type(int, lambda v: v > 0, "a positive integer")
_SECONDS = _flag_type(float, lambda v: math.isfinite(v) and v >= 0,
                      "a finite non-negative number")


def _add_set(p: argparse.ArgumentParser) -> None:
    p.add_argument("--r", type=int, help="group rank")
    p.add_argument("--set", help="set literal JSON")
    p.add_argument("--file", help="read the set literal from a file")
    p.add_argument("--stdin", action="store_true", help="read the set literal from stdin")


def _add_budget(p: argparse.ArgumentParser, *, search: bool = False) -> None:
    """The shared search budget; with search, also the audit, its seed and the threads."""
    if search:
        p.add_argument("--seed", type=int, help="audit sampling seed; default 0")
        p.add_argument("--threads", type=_WORKERS, help="default 1")
        p.add_argument("--audit", action="store_true",
                       help="re-check a sample of pruned nodes with plain oracles")
    p.add_argument("--budget-nodes", type=_COUNT)
    p.add_argument("--budget-secs", type=_SECONDS)


def build_parser() -> argparse.ArgumentParser:
    # argparse makes a help formatter, which looks up the terminal width, for
    # every argument it adds; the width is looked up once per build instead.
    formatter = functools.partial(argparse.HelpFormatter,
                                  width=shutil.get_terminal_size().columns - 2)
    parser_class = functools.partial(argparse.ArgumentParser, formatter_class=formatter)
    parser = parser_class(
        prog="f2sets",
        description="Subsets of the rank-r group of XOR: predicates, structure, search.",
    )
    parser.add_argument("--version", action=_VersionAction)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=parser_class)

    p = sub.add_parser("check", help="evaluate a predicate on a set")
    p.add_argument("predicate", choices=[*CHECKS, *BINARY_CHECKS, "sfnotround"])
    _add_set(p)
    p.add_argument("--set2", help="second set literal JSON (kneser, alldisjoint, s2)")
    p.add_argument("--kappa", type=int, help="sfnotround only; default 2")
    p.set_defaults(func=cmd_check)

    for name, func, help_ in (
        ("dset", cmd_dset, "unique sums of a set"),
        ("graph", cmd_graph, "unique-representation graph of a set"),
        ("classify-sumfree", cmd_classify_sumfree, "shape of a maximal sum-free set"),
        ("census", cmd_census, "coset census of a round set with two isolated edges"),
    ):
        p = sub.add_parser(name, help=help_)
        _add_set(p)
        p.set_defaults(func=func)

    p = sub.add_parser("sumset", help="sumset of one or two sets")
    _add_set(p)
    p.add_argument("--set2", help="second set literal JSON")
    p.add_argument("--counts", action="store_true", help="include the ordered count table")
    p.set_defaults(func=cmd_sumset)

    p = sub.add_parser("decompose", help="shifted-cap or round decompositions")
    _add_set(p)
    p.add_argument("--form", choices=["saturating", "round"], default="saturating")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("construct", help="build one of the named set families")
    p.add_argument("kind", choices=[*RANK_CONSTRUCTIONS, *BASE_CONSTRUCTIONS])
    _add_set(p)
    p.add_argument("--shift", type=int, help="shifted-cap and cap-replacement only")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("tangent", help="tangent-line construction from a blocking set")
    _add_set(p)
    p.add_argument("--shift", type=int, required=True, help="the external point")
    p.set_defaults(func=cmd_tangent)

    p = sub.add_parser("canonical", help="canonical form under a symmetry action")
    _add_set(p)
    p.add_argument("--action", choices=["linear", "affine", "none"], default="linear")
    p.set_defaults(func=cmd_canonical)

    for name, help_ in (("enumerate", "isomorph-free enumeration with representatives"),
                        ("spectrum", "size spectrum (no representatives in the JSON)")):
        p = sub.add_parser(name, help=help_)
        p.add_argument("predicate")
        p.add_argument("--r", type=int, required=True, help="group rank")
        p.add_argument("--action", choices=["linear", "affine", "none"], default="linear")
        p.add_argument("--size-min", type=_COUNT, default=0)
        p.add_argument("--size-max", type=_COUNT)
        _add_budget(p, search=True)
        p.add_argument("--tsv", help="also write a size/count/representative TSV file")
        p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("verify", help="run a theorem verifier")
    p.set_defaults(func=cmd_verify)
    theorems = p.add_subparsers(dest="theorem", required=True, parser_class=parser_class)
    p = theorems.add_parser("classification")
    p.add_argument("--r", type=int, required=True, help="group rank")
    p.add_argument("--threshold", default="paper",
                   help="paper, light, or an exact rational like 25/2")
    _add_budget(p, search=True)
    for name in ("factdt", "second-largest"):
        p = theorems.add_parser(name)
        p.add_argument("--r", type=int, default=5, help="group rank")
        _add_budget(p)

    p = sub.add_parser("find-example", help="randomized search for an example of a given size")
    p.add_argument("predicate")
    p.add_argument("--r", type=int, required=True, help="group rank")
    p.add_argument("--size", type=_COUNT, required=True)
    p.add_argument("--seed", type=int, default=0, help="generator seed")
    p.add_argument("--restarts", type=_COUNT, default=20000)
    p.set_defaults(func=cmd_find_example)

    p = sub.add_parser("fuzz", help="run a seeded fuzz harness")
    p.add_argument("lemma", choices=[*FUZZ_HARNESSES, "sfnotround"])
    p.add_argument("--r", type=int, help="group rank (sfnotround: the one rank to check)")
    p.add_argument("--iters", type=_COUNT, help="default 1000; not for sfnotround")
    p.add_argument("--seed", type=int, help="generator seed; not for sfnotround")
    p.set_defaults(func=cmd_fuzz)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first call of `main`. The
    `cmd_*` functions are bound when it is built; `_version_string` and
    everything a command calls are looked up when they run."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors and 0 on --version/--help
        return int(exc.code or 0)
    try:
        if args.r is not None:
            validate_rank(args.r)
        return args.func(args)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except (ValueError, CensusError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
