import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import f2sets
from f2sets.cli import main
from f2sets.generators import census_fixture_suite


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    text = out.getvalue()
    payload = json.loads(text) if text.strip() else None
    return code, payload, err.getvalue()


def set_arg(r, elements):
    return json.dumps({"r": r, "elements": list(elements)})


def test_check_true_exit_zero():
    code, payload, err = run_cli(
        ["check", "minimal-saturating", "--set", set_arg(3, [4, 5, 6, 7])]
    )
    assert code == 0
    assert payload["verdict"] is True
    assert "minimal-saturating" in err


def test_check_false_exit_one_with_witness():
    code, payload, _ = run_cli(["check", "round", "--set", set_arg(3, [0, 1, 2, 3])])
    assert code == 1
    assert payload["verdict"] is False
    assert "witness" in payload


def test_check_binary_predicates():
    code, payload, _ = run_cli([
        "check", "kneser",
        "--set", set_arg(4, range(4)),
        "--set2", set_arg(4, range(4, 8)),
    ])
    assert code == 0
    code, payload, _ = run_cli([
        "check", "s2",
        "--set", set_arg(3, [1, 2, 4]),
        "--set2", set_arg(3, [1, 2, 4]),
    ])
    assert code == 0


def test_check_sfnotround_kappa():
    coset = set_arg(5, range(16, 32))
    code, payload, _ = run_cli(["check", "sfnotround", "--set", coset, "--kappa", "3"])
    assert code == 0


def test_usage_errors_exit_two():
    code, _, err = run_cli(["check", "sum-free"])
    assert code == 2 and "missing" in err
    code, _, _ = run_cli(["check", "no-such-predicate", "--set", set_arg(2, [1])])
    assert code == 2
    code, _, _ = run_cli(["check", "sum-free", "--set", '{"r":3,"elements":[9]}'])
    assert code == 2
    code, _, _ = run_cli(["dset", "--r", "4", "--set", set_arg(3, [1])])
    assert code == 2
    code, _, _ = run_cli(["census", "--set", set_arg(3, [1, 2])])
    assert code == 2


def test_count_flags_are_checked_at_the_boundary():
    # A negative count, a worker count below 1 and seconds that are negative
    # or not finite are usage errors: exit 2, nothing on stdout.
    for argv in (
        ["fuzz", "kneser", "--r", "3", "--iters", "-2"],
        ["fuzz", "round-props", "--r", "3", "--iters", "-4"],
        ["enumerate", "any", "--r", "2", "--threads", "-3"],
        ["enumerate", "any", "--r", "2", "--threads", "0"],
        ["enumerate", "any", "--r", "2", "--budget-nodes", "-1"],
        ["enumerate", "any", "--r", "2", "--budget-secs", "-1"],
        ["enumerate", "any", "--r", "2", "--budget-secs", "nan"],
        ["spectrum", "any", "--r", "2", "--budget-secs", "inf"],
        ["spectrum", "any", "--r", "2", "--size-min", "-1"],
        ["spectrum", "any", "--r", "2", "--size-max", "-1"],
        ["verify", "classification", "--r", "5", "--threads", "0"],
        ["verify", "factdt", "--budget-nodes", "-1"],
        ["verify", "second-largest", "--budget-secs", "nan"],
        ["find-example", "minimal-saturating", "--r", "3", "--size", "-2"],
        ["find-example", "minimal-saturating", "--r", "3", "--size", "4", "--restarts", "-1"],
    ):
        code, payload, err = run_cli(argv)
        assert (code, payload) == (2, None), argv
        assert f"got '{argv[-1]}'" in err, argv
    # Zero is a count, and one worker is the default.
    for argv in (
        ["fuzz", "kneser", "--r", "3", "--iters", "0"],
        ["spectrum", "any", "--r", "2", "--size-max", "0", "--threads", "1",
         "--budget-nodes", "0", "--budget-secs", "0"],
        ["find-example", "minimal-saturating", "--r", "3", "--size", "4", "--restarts", "0"],
    ):
        assert run_cli(argv)[0] != 2, argv


def test_set_literal_elements_must_be_integers_at_the_cli():
    for literal, shown in (('{"r":2,"elements":[true]}', "True"),
                           ('{"r":2,"elements":[1.5]}', "1.5"),
                           ('{"r":2,"bits_hex":5}', "5")):
        code, payload, err = run_cli(["check", "sum-free", "--set", literal])
        assert (code, payload) == (2, None) and f"got {shown}" in err, literal


def test_stdout_is_pure_json():
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        main(["graph", "--set", set_arg(3, [0, 1, 2, 4])])
    json.loads(out.getvalue())  # must parse as a single document


def test_dset_and_sumset(monkeypatch):
    code, payload, _ = run_cli(["dset", "--set", set_arg(3, [0, 1, 2, 4])])
    assert payload["unique_sums"]["elements"] == [1, 2, 3, 4, 5, 6]
    code, payload, _ = run_cli(["sumset", "--set", set_arg(3, [1, 2]), "--counts"])
    assert payload["sumset"]["elements"] == [0, 3]
    assert payload["ordered_counts"] == [2, 0, 0, 2, 0, 0, 0, 0]
    code, payload, _ = run_cli(["sumset", "--set", set_arg(3, [1, 2]), "--set2", set_arg(3, [])])
    assert code == 0 and payload == {"sumset": {"r": 3, "elements": []}, "count": 0}

    # Without --counts no count table is built.
    def unused(*sets):
        raise RuntimeError("count table built without --counts")

    monkeypatch.setattr("f2sets.cli._cross_counts", unused)
    code, payload, _ = run_cli(["sumset", "--set", set_arg(3, [1, 2])])
    assert code == 0
    assert payload == {"sumset": {"r": 3, "elements": [0, 3]}, "count": 2}


def test_sumset_counts_of_two_sets_is_the_cross_table():
    B, C = [1, 2, 7, 9, 12], [0, 3, 5, 9]
    code, payload, _ = run_cli(["sumset", "--set", set_arg(4, B), "--set2", set_arg(4, C),
                                "--counts"])
    counts = payload["ordered_counts"]
    assert code == 0 and sum(counts) == len(B) * len(C)
    assert counts == [sum(b ^ c == d for b in B for c in C) for d in range(16)]
    assert payload["sumset"]["elements"] == [d for d in range(16) if counts[d]]


def test_graph_payload():
    code, payload, _ = run_cli(["graph", "--set", set_arg(3, [0, 5])])
    assert payload["edges"] == [[0, 1]]
    assert payload["labels"] == [5]
    assert payload["isolated_edges"] == [[0, 5]]
    assert payload["matching_number"] == 1


def test_decompose_exit_codes():
    code, payload, _ = run_cli(["decompose", "--set", set_arg(3, [4, 5, 6, 7])])
    assert code == 0 and payload["count"] >= 1
    code, payload, _ = run_cli(["construct", "subgroup-union", "--r", "4"])
    built = payload["set"]
    code, payload, _ = run_cli(["decompose", "--set", json.dumps(built)])
    assert code == 1 and payload["count"] == 0


def test_decompose_round_form():
    code, payload, _ = run_cli([
        "decompose", "--form", "round", "--set", set_arg(3, [1, 3])
    ])
    assert code == 0 and payload["count"] == 2


def test_classify_and_construct():
    code, payload, _ = run_cli(["construct", "coset", "--r", "5"])
    coset = payload["set"]
    code, payload, _ = run_cli(["classify-sumfree", "--set", json.dumps(coset)])
    assert code == 0 and payload["tag"] == "index_two_coset"


def test_construct_shifted_cap_flow():
    coset = set_arg(4, range(8, 16))
    code, payload, _ = run_cli(
        ["construct", "shifted-cap", "--set", coset, "--shift", "9"]
    )
    assert code == 0
    code, check, _ = run_cli(
        ["check", "minimal-saturating", "--set", json.dumps(payload["set"])]
    )
    assert code == 0 and check["verdict"]


def test_census_command():
    A, first, second = census_fixture_suite(6, 1, seed=12)[0]
    code, payload, _ = run_cli(["census", "--set", json.dumps(A.to_json())])
    assert code == 0
    assert payload["identities_hold"] and payload["dg_bounds_hold"]


def test_enumerate_and_spectrum():
    code, payload, _ = run_cli(["enumerate", "maximal-sum-free", "--r", "4"])
    assert code == 0 and payload["complete"]
    sizes = {e["size"]: e["class_count"] for e in payload["entries"]}
    assert sizes == {5: 1, 8: 1}
    assert all("representatives" in e for e in payload["entries"])
    code, compact, _ = run_cli(["spectrum", "maximal-sum-free", "--r", "4"])
    assert code == 0
    assert all("representatives" not in e for e in compact["entries"])


def test_enumerate_budget_incomplete_exit_one():
    code, payload, _ = run_cli(
        ["enumerate", "sum-free", "--r", "5", "--budget-nodes", "3"]
    )
    assert code == 1 and payload["complete"] is False


def test_enumerate_affine_rejects_zero_free_predicates():
    # Every non-empty affine canonical form holds 0, so a predicate that
    # excludes 0 would report an empty, complete spectrum.
    for predicate in ("minimal-saturating", "maximal-sum-free", "saturating", "sum-free"):
        code, payload, err = run_cli(
            ["enumerate", predicate, "--r", "4", "--action", "affine"]
        )
        assert code == 2 and payload is None and "affine" in err, predicate
    code, payload, _ = run_cli(["enumerate", "round", "--r", "3", "--action", "affine"])
    assert code == 0 and payload["entries"]


def test_enumerate_tsv(tmp_path):
    tsv = tmp_path / "spec.tsv"
    code, _, _ = run_cli(
        ["enumerate", "maximal-sum-free", "--r", "4", "--tsv", str(tsv)]
    )
    assert code == 0
    lines = tsv.read_text().splitlines()
    assert lines[0] == "size\tclass_count\trepresentative"
    assert len(lines) == 3


def test_unreadable_files_and_bad_json_exit_two_naming_the_flag(tmp_path, monkeypatch):
    bad = tmp_path / "bad.json"
    bad.write_text("{bad")
    for argv, flag in (
        (["dset", "--file", str(tmp_path / "missing.json")], "--file"),
        (["dset", "--file", str(tmp_path)], "--file"),
        (["dset", "--file", str(bad)], "--file"),
        (["enumerate", "any", "--r", "2", "--tsv", str(tmp_path / "no" / "x.tsv")], "--tsv"),
    ):
        code, payload, err = run_cli(argv)
        assert code == 2 and payload is None, argv
        assert flag in err and "--set" not in err, argv
    monkeypatch.setattr(sys, "stdin", io.StringIO("{bad"))
    code, payload, err = run_cli(["dset", "--stdin"])
    assert code == 2 and payload is None
    assert "--stdin" in err and "--set" not in err


def test_verify_commands():
    code, payload, _ = run_cli(["verify", "classification", "--r", "4"])
    assert code == 0 and payload["verdict"]
    code, payload, _ = run_cli(["verify", "factdt", "--r", "4"])
    assert code == 0 and payload["verdict"]
    code, payload, _ = run_cli(["verify", "second-largest", "--r", "4"])
    assert code == 0 and payload["largest"] == 8


def test_verify_factdt_r6_is_pinned():
    # Above 9 * 2^(r-5) = 18 the rank-6 maximal sum-free classes are the
    # 20-point five-point form and the 32-point index-2 coset.
    code, payload, _ = run_cli(["verify", "factdt", "--r", "6"])
    assert code == 0
    assert payload["complete"] and payload["verdict"]
    assert payload["checked_classes"] == 2
    assert payload["tags"] == {"five_point_form": 1, "index_two_coset": 1}
    assert payload["sizes"] == [13, 17, 18, 20, 32]


def test_verify_threshold_expression():
    code, payload, _ = run_cli(
        ["verify", "classification", "--r", "3", "--threshold", "7/2"]
    )
    assert code == 0
    assert payload["threshold"] == "7/2"


def test_verify_threshold_division_by_zero_exits_two():
    code, payload, err = run_cli(
        ["verify", "classification", "--r", "3", "--threshold", "1/0"]
    )
    assert code == 2 and payload is None
    assert "threshold" in err


def test_rank_is_checked_at_the_cli_boundary():
    for argv in (["fuzz", "kneser", "--r", "0", "--iters", "5"],
                 ["verify", "factdt", "--r", "0"],
                 ["enumerate", "any", "--r", "-1"],
                 ["enumerate", "any", "--r", "25"]):
        code, payload, err = run_cli(argv)
        assert code == 2 and payload is None, argv
        assert "rank must be in [1, 24]" in err, argv


def test_find_example_cli():
    code, payload, _ = run_cli([
        "find-example", "minimal-saturating", "--r", "5", "--size", "11", "--seed", "1",
    ])
    assert code == 0 and len(payload["found"]["elements"]) == 11
    code, payload, _ = run_cli([
        "find-example", "maximal-sum-free", "--r", "5", "--size", "11",
        "--seed", "1", "--restarts", "500",
    ])
    assert code == 1 and payload["found"] is None


def test_fuzz_cli():
    code, payload, _ = run_cli(["fuzz", "kneser", "--r", "6", "--iters", "300", "--seed", "7"])
    assert code == 0 and payload["ok"]
    code, payload, _ = run_cli(["fuzz", "unknown-lemma"])
    assert code == 2
    # sfnotround checks ranks 5 and 6, or the one rank --r names.
    code, payload, _ = run_cli(["fuzz", "sfnotround", "--r", "5"])
    assert code == 0 and payload["ok"]
    assert payload["family_sizes"] == {"r5_kappa2": 8, "r5_kappa3": 6}
    assert payload["checked_sets"] == 8 + 6


def test_fuzz_php_runs_every_check_it_reports(monkeypatch):
    import f2sets.fuzz as fuzz

    calls = []
    real = fuzz.php_covered
    monkeypatch.setattr(fuzz, "php_covered", lambda *a: calls.append(a) or real(*a))
    for r in ("1", "8"):
        calls.clear()
        code, payload, _ = run_cli(["fuzz", "php", "--r", r, "--iters", "200", "--seed", "7"])
        assert code == 0 and payload["ok"] and payload["lemma"] == "php-cover"
        assert payload["iterations"] == len(calls) == 200


def test_fuzz_s2_draws_no_pair_above_the_requested_rank(monkeypatch):
    import f2sets.fuzz as fuzz

    code, payload, err = run_cli(["fuzz", "s2", "--r", "1", "--iters", "5"])
    assert code == 2 and payload is None and "--r" in err
    ranks = set()
    real = fuzz.s2_bound_check
    monkeypatch.setattr(fuzz, "s2_bound_check", lambda B, C: ranks.add(B.rank) or real(B, C))
    code, payload, _ = run_cli(["fuzz", "s2", "--r", "2", "--iters", "50", "--seed", "3"])
    assert code == 0 and payload["ok"] and payload["iterations"] == 50
    assert ranks == {2}


def test_fuzz_census_cli():
    code, payload, _ = run_cli(["fuzz", "census", "--r", "6", "--iters", "4", "--seed", "3"])
    assert code == 0 and payload["ok"]
    assert (payload["suite"], payload["r"], payload["sets"]) == ("census", 6, 4)
    # The census fixtures are linear images of base sets at ranks 6 and 7 only.
    code, payload, err = run_cli(["fuzz", "census", "--r", "5", "--iters", "4"])
    assert code == 2 and payload is None
    assert "no census bases at rank 5" in err
    # Without --r it runs at rank 7, the highest rank with bases; rank 8 has none.
    code, payload, _ = run_cli(["fuzz", "census", "--iters", "3"])
    assert code == 0 and payload["ok"] and (payload["r"], payload["sets"]) == (7, 3)
    code, payload, err = run_cli(["fuzz", "census", "--r", "8", "--iters", "3"])
    assert code == 2 and "no census bases at rank 8" in err


def test_tangent_cli_equals_cap_replacement():
    # B is the blocking complement of a complete cap S; seen from s in S its
    # tangent points are the replaced cap.
    five_point = [b ^ h for b in (1, 2, 4, 8, 15) for h in (0, 16)]
    for S in (sorted(five_point), list(range(16, 32))):
        B = [x for x in range(1, 32) if x not in S]
        for s in S[:3]:
            code, tangent, _ = run_cli(["tangent", "--set", set_arg(5, B), "--shift", str(s)])
            assert code == 0
            code, replaced, _ = run_cli(["construct", "cap-replacement",
                                         "--set", set_arg(5, S), "--shift", str(s)])
            assert code == 0
            assert (tangent["set"], tangent["size"]) == (replaced["set"], replaced["size"])
        code, payload, err = run_cli(["tangent", "--set", set_arg(5, B), "--shift", str(B[0])])
        assert code == 2 and payload is None
        assert "must avoid B" in err


def test_flags_a_command_does_not_read_exit_two(tmp_path):
    S = set_arg(3, [1, 2, 4])
    tsv = tmp_path / "spec.tsv"
    classification = ["verify", "classification", "--r", "3", "--tsv", str(tsv)]
    for argv in (
        ["dset", "--set", S, "--seed", "1"],
        ["graph", "--set", S, "--set2", S],
        classification,
        [*classification, "--size-max", "3"],
        [*classification, "--size-max", "3", "--action", "affine"],
        ["verify", "factdt", "--r", "4", "--audit"],
        ["verify", "factdt", "--r", "4", "--audit", "--threads", "2"],
        ["verify", "second-largest", "--r", "4", "--threshold", "paper"],
        ["check", "round", "--set", S, "--set2", S],
        ["check", "round", "--set", S, "--set2", S, "--kappa", "3"],
        ["check", "kneser", "--set", S, "--set2", S, "--kappa", "2"],
        ["construct", "coset", "--r", "4", "--shift", "3"],
        ["construct", "punctured", "--r", "4", "--stdin"],
        ["construct", "mystery", "--r", "4"],
        ["fuzz", "sfnotround", "--iters", "5"],
        ["fuzz", "sfnotround", "--seed", "0"],
        ["fuzz", "sfnotround", "--r", "9"],
    ):
        code, payload, err = run_cli(argv)
        assert code == 2 and payload is None, argv
    assert not tsv.exists()
    # A flag read for some values of the positional argument names those values.
    _, _, err = run_cli(["check", "round", "--set", S, "--set2", S])
    assert "--set2 is read only by check kneser, alldisjoint, s2" in err
    _, _, err = run_cli(["construct", "coset", "--r", "4", "--shift", "0"])
    assert "--shift is read only by construct shifted-cap, cap-replacement" in err
    _, _, err = run_cli(["fuzz", "sfnotround", "--iters", "5"])
    assert "--iters is read only by fuzz kneser" in err


def test_search_flags_at_rank_four_and_seed_without_audit_exit_two():
    # verify classification at r <= 4 is one lattice pass: it reads --threshold alone.
    base = ["verify", "classification", "--r", "4"]
    for extra in (["--audit"], ["--budget-nodes", "1"], ["--budget-secs", "1"],
                  ["--threads", "2"], ["--seed", "5"]):
        code, payload, err = run_cli([*base, *extra])
        assert code == 2 and payload is None, extra
        assert f"{extra[0]} is read only by verify classification --r >= 5" in err
    code, payload, _ = run_cli(["verify", "classification", "--r", "3", "--threshold", "light"])
    assert code == 0 and payload["verdict"] is True
    # --seed is the audit's sampling seed.
    for command in ("enumerate", "spectrum"):
        code, payload, err = run_cli([command, "any", "--r", "3", "--seed", "5"])
        assert code == 2 and payload is None
        assert "--seed is read only by " + command + " --audit" in err
    code, payload, _ = run_cli(["enumerate", "any", "--r", "3", "--seed", "5", "--audit"])
    assert code == 0 and payload["complete"] is True


def test_canonical_cli():
    code, payload, _ = run_cli(["canonical", "--set", set_arg(2, [2, 3]), "--action", "linear"])
    assert code == 0 and payload["canonical"]["elements"] == [1, 2]


def test_cli_as_subprocess():
    # end-to-end through a real process: exit code and JSON contract. The
    # process imports the package under test, wherever pytest found it.
    src = str(Path(f2sets.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "f2sets.cli", "check", "sum-free",
         "--set", set_arg(2, [1, 2])],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdict"] is True
    proc = subprocess.run(
        [sys.executable, "-m", "f2sets.cli", "--version"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip()


def test_enumerate_time_budget_stops_close_to_limit():
    code, payload, _ = run_cli(
        ["enumerate", "minimal-saturating", "--r", "6", "--budget-secs", "1"]
    )
    assert code == 1 and payload["complete"] is False
    assert payload["elapsed_seconds"] < 4


def test_threaded_time_budget_bounds_the_whole_run():
    # Every pool task stops at the deadline of the whole run.
    t0 = time.monotonic()
    code, payload, _ = run_cli(
        ["enumerate", "minimal-saturating", "--r", "6", "--budget-secs", "1", "--threads", "2"]
    )
    assert code == 1 and payload["complete"] is False
    assert time.monotonic() - t0 < 4


def test_version_is_computed_only_for_the_flag(monkeypatch):
    import f2sets.cli as cli

    def no_git():
        raise AssertionError("version looked up without --version")

    monkeypatch.setattr(cli, "_version_string", no_git)
    code, payload, _ = run_cli(["check", "sum-free", "--set", set_arg(2, [1, 2])])
    assert code == 0 and payload["verdict"] is True
    monkeypatch.setattr(cli, "_version_string", lambda: "9.9.9+test")
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["--version"]) == 0
    assert out.getvalue() == "9.9.9+test\n"


# SHA-1 of the JSON payloads of the five commands of the `classify`
# benchmark workload, with `elapsed_seconds` dropped, recorded before the
# canonicity engine took seeds, block masks and the span rule.
CLASSIFY_PAYLOADS_SHA1 = "ab7fad9a973e25f368c726eed3a03051cacb9064"


def test_classify_workload_payloads_are_pinned():
    import hashlib

    commands = [
        ["verify", "classification", "--r", "4", "--threshold", "paper"],
        ["verify", "classification", "--r", "5", "--threshold", "paper", "--audit",
         "--seed", "7"],
        ["verify", "factdt", "--r", "5"],
        ["fuzz", "sfnotround"],
        ["enumerate", "minimal-saturating", "--r", "6", "--size-max", "13"],
    ]
    payloads = []
    for argv in commands:
        code, payload, _ = run_cli(argv)
        assert code == 0, argv
        payload.pop("elapsed_seconds", None)
        payloads.append(payload)
    assert payloads[1]["nodes"] == 271 and payloads[1]["audit"]["pruned_total"] == 2603
    assert payloads[1]["audit"]["failures"] == 0
    digest = hashlib.sha1(json.dumps(payloads, sort_keys=True).encode()).hexdigest()
    assert digest == CLASSIFY_PAYLOADS_SHA1
