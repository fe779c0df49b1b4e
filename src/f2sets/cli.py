"""Command-line front door. Every command prints one JSON document to stdout
and a one-line human summary to stderr.

Exit codes: 0 when the verdict is true or the operation succeeded, 1 when a
check returned a false verdict (the witness is in the JSON), 2 for usage or
input errors.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from . import __version__
from .core import ElementSet, validate_rank
from .fuzz import run_fuzz
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
    construct,
    coset_census,
    decompose_round,
    decompose_saturating,
    is_blocking,
    is_minimal_blocking,
    tangent_construction,
)
from .sumsets import (
    alldisjoint_check,
    is_maximal_sum_free,
    is_minimal_saturating,
    is_round,
    is_saturating,
    is_sum_free,
    kneser_check,
    rep_counts,
    s2_bound_check,
    sfnotround_check,
    sumset,
    unique_sums,
)
from . import urgraph

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


def _load_set(args, attr: str = "set", required: bool = True) -> ElementSet | None:
    literal = getattr(args, attr.replace("-", "_"), None)
    if literal is None and attr == "set" and getattr(args, "file", None):
        literal = Path(args.file).read_text()
    if literal is None and attr == "set" and getattr(args, "stdin", False):
        literal = sys.stdin.read()
    if literal is None:
        if required:
            raise UsageError(f"missing --{attr}")
        return None
    try:
        obj = json.loads(literal)
        A = ElementSet.from_json(obj)
    except (ValueError, TypeError) as exc:
        raise UsageError(f"bad set literal for --{attr}: {exc}")
    if getattr(args, "r", None) is not None and A.rank != args.r:
        raise UsageError(f"--r {args.r} conflicts with the set literal rank {A.rank}")
    return A


def _emit(payload: dict, summary: str, code: int) -> int:
    print(json.dumps(payload, sort_keys=True))
    print(summary, file=sys.stderr)
    return code


def _budget(args) -> SearchBudget:
    return SearchBudget(
        max_nodes=getattr(args, "budget_nodes", None),
        max_seconds=getattr(args, "budget_secs", None),
    )


def cmd_check(args) -> int:
    name = args.predicate
    if name in BINARY_CHECKS:
        B = _load_set(args)
        C = _load_set(args, "set2")
        report = BINARY_CHECKS[name](B, C)
    elif name == "sfnotround":
        S = _load_set(args)
        report = sfnotround_check(S, args.kappa)
    elif name in CHECKS:
        report = CHECKS[name](_load_set(args))
    else:
        raise UsageError(
            f"unknown predicate {name!r}; options: "
            + ", ".join(sorted(list(CHECKS) + list(BINARY_CHECKS) + ["sfnotround"]))
        )
    code = 0 if report.verdict else 1
    return _emit(report.to_json(), f"{name}: {report.verdict}", code)


def cmd_dset(args) -> int:
    A = _load_set(args)
    D = unique_sums(A)
    payload = {"input": A.to_json(), "unique_sums": D.to_json(), "count": len(D)}
    return _emit(payload, f"|D| = {len(D)}", 0)


def cmd_sumset(args) -> int:
    B = _load_set(args)
    C = _load_set(args, "set2", required=False) or B
    S = sumset(B, C)
    payload = {"sumset": S.to_json(), "count": len(S)}
    if args.counts and C.bits == B.bits:
        payload["ordered_counts"] = [int(c) for c in rep_counts(B).counts]
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
    if args.form == "saturating":
        decs = decompose_saturating(A)
    else:
        decs = decompose_round(A)
    payload = {
        "form": args.form,
        "decompositions": [d.to_json() for d in decs],
        "count": len(decs),
    }
    code = 0 if decs else 1
    return _emit(payload, f"{len(decs)} decomposition(s)", code)


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
    params: dict = {}
    if args.kind in ("coset", "punctured", "subgroup-union"):
        if args.r is None:
            raise UsageError("--r is required for this construction")
        params["r"] = args.r
    if args.kind in ("shifted-cap", "cap-replacement"):
        params["base"] = _load_set(args)
        if args.shift is None:
            raise UsageError("--shift is required for this construction")
        params["shift"] = args.shift
    A = construct(args.kind, **params)
    return _emit({"kind": args.kind, "set": A.to_json(), "size": len(A)},
                 f"built {args.kind}: {len(A)} elements", 0)


def cmd_tangent(args) -> int:
    B = _load_set(args)
    if args.shift is None:
        raise UsageError("--shift (the external point) is required")
    T = tangent_construction(B, args.shift)
    return _emit({"set": T.to_json(), "size": len(T)}, f"tangent set: {len(T)}", 0)


def cmd_canonical(args) -> int:
    A = _load_set(args)
    form = canonical_form(A, args.action, allow_zero=True)
    return _emit({"action": args.action, "canonical": form.set.to_json()},
                 "canonical form computed", 0)


def cmd_enumerate(args, compact: bool = False) -> int:
    if args.r is None:
        raise UsageError("--r is required")
    report = enumerate_classes(
        args.r,
        args.predicate,
        action=args.action,
        size_min=args.size_min or 0,
        size_max=args.size_max,
        budget=_budget(args),
        audit=args.audit,
        seed=args.seed,
        threads=args.threads,
    )
    payload = report.to_json(include_representatives=not compact)
    if args.tsv:
        Path(args.tsv).write_text(report.to_tsv())
    code = 0 if report.complete else 1
    status = "complete" if report.complete else "INCOMPLETE"
    return _emit(payload, f"enumerate {args.predicate} r={args.r}: {status}, "
                          f"{sum(e.class_count for e in report.entries)} classes", code)


def cmd_verify(args) -> int:
    if args.theorem == "classification":
        if args.r is None:
            raise UsageError("--r is required")
        payload = verify_classification(
            args.r, args.threshold, budget=_budget(args), audit=args.audit,
            seed=args.seed, threads=args.threads,
        )
        ok = payload["verdict"]
    elif args.theorem == "factdt":
        payload = verify_factdt(5 if args.r is None else args.r, budget=_budget(args))
        ok = payload["verdict"]
    elif args.theorem == "second-largest":
        payload = second_largest_check(5 if args.r is None else args.r, budget=_budget(args))
        ok = payload["complete"]
    else:
        raise UsageError("verify takes one of: classification, factdt, second-largest")
    return _emit(payload, f"verify {args.theorem}: {'ok' if ok else 'FAILED'}",
                 0 if ok else 1)


def cmd_find_example(args) -> int:
    if args.r is None or args.size is None:
        raise UsageError("--r and --size are required")
    found = find_example(args.r, args.predicate, args.size, seed=args.seed,
                         max_restarts=args.restarts)
    if found is None:
        return _emit({"found": None, "predicate": args.predicate, "size": args.size},
                     "no example found within budget", 1)
    return _emit({"found": found.to_json(), "predicate": args.predicate,
                  "size": args.size}, f"example found: {len(found)} elements", 0)


def cmd_fuzz(args) -> int:
    out = run_fuzz(args.lemma, r=8 if args.r is None else args.r, iters=args.iters, seed=args.seed)
    code = 0 if out["ok"] else 1
    return _emit(out, f"fuzz {args.lemma}: {'ok' if out['ok'] else 'VIOLATIONS'}", code)


def cmd_spectrum(args) -> int:
    return cmd_enumerate(args, compact=True)


def _add_common(p: argparse.ArgumentParser, *, with_set: bool = False,
                with_search: bool = False) -> None:
    p.add_argument("--r", type=int, help="group rank")
    p.add_argument("--seed", type=int, default=0, help="generator seed")
    if with_set:
        p.add_argument("--set", help="set literal JSON")
        p.add_argument("--set2", help="second set literal JSON")
        p.add_argument("--file", help="read the set literal from a file")
        p.add_argument("--stdin", action="store_true", help="read the set literal from stdin")
    if with_search:
        p.add_argument("--action", choices=["linear", "affine", "none"], default="linear")
        p.add_argument("--size-min", type=int, default=0)
        p.add_argument("--size-max", type=int)
        p.add_argument("--threads", type=int, default=1)
        p.add_argument("--budget-nodes", type=int)
        p.add_argument("--budget-secs", type=float)
        p.add_argument("--audit", action="store_true",
                       help="re-check a sample of pruned nodes with plain oracles")
        p.add_argument("--tsv", help="also write a size/count/representative TSV file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="f2sets",
        description="Subsets of the rank-r group of XOR: predicates, structure, search.",
    )
    parser.add_argument("--version", action=_VersionAction)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="evaluate a predicate on a set")
    p.add_argument("predicate")
    p.add_argument("--kappa", type=int, default=2)
    _add_common(p, with_set=True)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("dset", help="unique sums of a set")
    _add_common(p, with_set=True)
    p.set_defaults(func=cmd_dset)

    p = sub.add_parser("sumset", help="sumset of one or two sets")
    p.add_argument("--counts", action="store_true", help="include the ordered count table")
    _add_common(p, with_set=True)
    p.set_defaults(func=cmd_sumset)

    p = sub.add_parser("graph", help="unique-representation graph of a set")
    _add_common(p, with_set=True)
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("decompose", help="shifted-cap or round decompositions")
    p.add_argument("--form", choices=["saturating", "round"], default="saturating")
    _add_common(p, with_set=True)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("classify-sumfree", help="shape of a maximal sum-free set")
    _add_common(p, with_set=True)
    p.set_defaults(func=cmd_classify_sumfree)

    p = sub.add_parser("census", help="coset census of a round set with two isolated edges")
    _add_common(p, with_set=True)
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("construct", help="build one of the named set families")
    p.add_argument("kind", choices=["coset", "punctured", "shifted-cap",
                                    "cap-replacement", "subgroup-union"])
    p.add_argument("--shift", type=int)
    _add_common(p, with_set=True)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("tangent", help="tangent-line construction from a blocking set")
    p.add_argument("--shift", type=int, help="the external point")
    _add_common(p, with_set=True)
    p.set_defaults(func=cmd_tangent)

    p = sub.add_parser("canonical", help="canonical form under a symmetry action")
    p.add_argument("--action", choices=["linear", "affine", "none"], default="linear")
    _add_common(p, with_set=True)
    p.set_defaults(func=cmd_canonical)

    p = sub.add_parser("enumerate", help="isomorph-free enumeration with representatives")
    p.add_argument("predicate")
    _add_common(p, with_search=True)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("spectrum", help="size spectrum (no representatives in the JSON)")
    p.add_argument("predicate")
    _add_common(p, with_search=True)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("verify", help="run a theorem verifier")
    p.add_argument("theorem", choices=["classification", "factdt", "second-largest"])
    p.add_argument("--threshold", default="paper",
                   help="paper, light, or an exact rational like 25/2")
    _add_common(p, with_search=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("find-example", help="randomized search for an example of a given size")
    p.add_argument("predicate")
    p.add_argument("--size", type=int)
    p.add_argument("--restarts", type=int, default=20000)
    _add_common(p)
    p.set_defaults(func=cmd_find_example)

    p = sub.add_parser("fuzz", help="run a seeded fuzz harness")
    p.add_argument("lemma")
    p.add_argument("--iters", type=int, default=1000)
    _add_common(p)
    p.set_defaults(func=cmd_fuzz)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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
