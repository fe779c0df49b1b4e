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

    # Without --counts no count table is built.
    def unused(A):
        raise RuntimeError("count table built without --counts")

    monkeypatch.setattr("f2sets.cli.rep_counts", unused)
    code, payload, _ = run_cli(["sumset", "--set", set_arg(3, [1, 2])])
    assert code == 0
    assert payload == {"sumset": {"r": 3, "elements": [0, 3]}, "count": 2}


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


def test_verify_commands():
    code, payload, _ = run_cli(["verify", "classification", "--r", "4"])
    assert code == 0 and payload["verdict"]
    code, payload, _ = run_cli(["verify", "factdt", "--r", "4"])
    assert code == 0 and payload["verdict"]
    code, payload, _ = run_cli(["verify", "second-largest", "--r", "4"])
    assert code == 0 and payload["largest"] == 8


def test_verify_threshold_expression():
    code, payload, _ = run_cli(
        ["verify", "classification", "--r", "3", "--threshold", "7/2"]
    )
    assert code == 0
    assert payload["threshold"] == "7/2"


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
