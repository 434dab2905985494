import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import symbreak
from symbreak.cli import main
from symbreak.graph_core import (
    complete_graph,
    cycle_graph,
    from_edge_list,
    parse_graph6,
    path_graph,
    to_graph6,
)
from symbreak.transforms import subdivision_graph


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_transform_subdivision(capsys):
    s = to_graph6(cycle_graph(4))
    code, out, _ = run_cli(capsys, "transform", "--op", "subdivision", "--graph6", s)
    assert code == 0
    assert out.strip() == to_graph6(subdivision_graph(cycle_graph(4)))


def test_transform_labels_json(capsys):
    s = to_graph6(path_graph(3))
    code, out, _ = run_cli(capsys, "transform", "--op", "middle", "--graph6", s, "--labels")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    labels = json.loads(lines[1])
    assert labels["0"] == {"kind": "original", "source": [0]}
    assert labels["3"] == {"kind": "edge_vertex", "source": [0, 1]}


def test_transform_bad_graph6_is_input_error(capsys):
    code, _, err = run_cli(capsys, "transform", "--op", "line", "--graph6", "!!bad")
    assert code == 2
    assert "error:" in err


def test_aut_order_and_list(capsys):
    s = to_graph6(cycle_graph(4))
    code, out, _ = run_cli(capsys, "aut", "--graph6", s)
    assert code == 0
    assert out.strip() == "8"
    code, out, _ = run_cli(capsys, "aut", "--graph6", s, "--list")
    lines = out.strip().splitlines()
    assert lines[0] == "8" and len(lines) == 9
    assert lines[1].split() == ["0", "1", "2", "3"]


def test_invariant_json(capsys):
    s = to_graph6(cycle_graph(6))
    code, out, _ = run_cli(capsys, "invariant", "--which", "chi,D,chiD", "--graph6", s, "--witness")
    assert code == 0
    lines = [json.loads(l) for l in out.strip().splitlines()]
    assert [l["kind"] for l in lines] == ["chi", "D", "chiD"]
    assert [l["value"] for l in lines] == [2, 2, 4]
    assert all(l["certified"] for l in lines)
    assert lines[1]["witness"]["vertices"] == {
        "0": 1, "1": 1, "2": 2, "3": 1, "4": 2, "5": 2,
    }


def test_invariant_edge_witness(capsys):
    s = to_graph6(path_graph(3))
    code, out, _ = run_cli(capsys, "invariant", "--which", "Dp", "--graph6", s, "--witness")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 2
    assert set(payload["witness"]["edges"]) == {"0,1", "1,2"}


def test_invariant_total_witness_has_vertices_and_edges(capsys):
    s = to_graph6(path_graph(3))
    code, out, _ = run_cli(capsys, "invariant", "--which", "Dpp", "--graph6", s, "--witness")
    assert code == 0
    witness = json.loads(out)["witness"]
    assert set(witness) == {"vertices", "edges"}
    assert set(witness["vertices"]) == {"0", "1", "2"}
    assert set(witness["edges"]) == {"0,1", "1,2"}


def test_invariant_empty_stdin_is_input_error(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    code, out, err = run_cli(capsys, "invariant", "--which", "chi")
    assert code == 2 and out == ""
    assert "expected one graph6 line on stdin" in err


def test_invariant_unknown_kind(capsys):
    code, _, err = run_cli(capsys, "invariant", "--which", "zeta", "--graph6", "Bw")
    assert code == 2 and "unknown invariant" in err


@pytest.mark.parametrize("which", [",", ""])
def test_invariant_empty_which_is_usage_error(capsys, which):
    code, out, err = run_cli(capsys, "invariant", "--which", which, "--graph6", "Bw")
    assert code == 2 and out == "" and err.startswith("error:") and "Traceback" not in err


def test_invariant_reads_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(to_graph6(complete_graph(4)) + "\n"))
    code, out, _ = run_cli(capsys, "invariant", "--which", "chi")
    assert code == 0 and json.loads(out)["value"] == 4


@pytest.mark.parametrize("via", ["stdin", "flag"])
def test_aut_reads_graph_after_nauty_header(capsys, monkeypatch, via):
    import io

    line = ">>graph6<<" + to_graph6(path_graph(3))
    if via == "stdin":
        monkeypatch.setattr("sys.stdin", io.StringIO(line + "\n"))
        code, out, err = run_cli(capsys, "aut")
    else:
        code, out, err = run_cli(capsys, "aut", "--graph6", line)
    assert (code, out, err) == (0, "2\n", "")


@pytest.mark.parametrize("builtin", ["2", "0"])
def test_verify_empty_order_range_is_input_error(capsys, builtin):
    # --builtin N sweeps orders 3..N; below 3 the range is empty
    code, out, err = run_cli(capsys, "verify", "--theorem", "thm-3.3", "--builtin", builtin)
    assert code == 2 and out == ""
    assert err == f"error: corpus order range 3..{builtin} is empty\n"


def test_construct_exceptional(capsys):
    code, out, _ = run_cli(capsys, "construct", "--which", "exceptional", "--graph", "K3,3")
    assert code == 0
    payload = json.loads(out)
    assert payload["palette"] == 5
    assert payload["certification"] == {
        "proper": True, "distinguishing": True, "used_fallback": False,
    }
    assert payload["coloring"]["edges"]["0,6"] == 1


def test_construct_thm47_by_graph6(capsys):
    s = to_graph6(path_graph(4))
    code, out, _ = run_cli(capsys, "construct", "--which", "thm47", "--graph", s)
    assert code == 0
    payload = json.loads(out)
    assert payload["palette"] == 3
    assert payload["certification"]["proper"] and payload["certification"]["distinguishing"]


def test_construct_lift(capsys):
    code, out, _ = run_cli(capsys, "construct", "--which", "lift", "--graph", "K1,4")
    assert code == 0
    payload = json.loads(out)
    assert payload["palette"] == 2
    assert payload["certification"]["distinguishing"]


def test_construct_contract_violation_is_input_error(capsys):
    code, _, err = run_cli(capsys, "construct", "--which", "exceptional", "--graph", "P4")
    assert code == 2 and "error:" in err


def test_gen_and_verify_roundtrip(tmp_path, capsys):
    corpus_file = tmp_path / "n4.g6"
    code, _, err = run_cli(
        capsys, "gen", "--max-order", "4", "--min-order", "3", "--connected",
        "--out", str(corpus_file),
    )
    assert code == 0
    lines = [l for l in corpus_file.read_text().splitlines() if l and not l.startswith(">>")]
    assert len(lines) == 8
    report_file = tmp_path / "report.json"
    code, _, err = run_cli(
        capsys, "verify", "--theorem", "thm-3.3", "--corpus", str(corpus_file),
        "--out", str(report_file),
    )
    assert code == 0
    payload = json.loads(report_file.read_text())
    assert payload["summary"] == {
        "checked": 8, "passed": 8, "failed": 0, "paper_inconsistent": 0,
    }


def test_gen_to_stdout(capsys):
    code, out, _ = run_cli(capsys, "gen", "--max-order", "3", "--min-order", "3", "--connected")
    assert code == 0
    assert len(out.strip().splitlines()) == 2


def test_gen_order_cap_is_input_error(capsys):
    code, _, err = run_cli(capsys, "gen", "--max-order", "9")
    assert code == 2 and "builtin enumeration is limited" in err


def test_verify_builtin_exit_zero(capsys):
    code, out, err = run_cli(capsys, "verify", "--theorem", "lemma-2.4", "--builtin", "4")
    assert code == 0
    assert json.loads(out)["summary"]["failed"] == 0
    assert "lemma-2.4" in err  # human summary goes to stderr


@pytest.mark.parametrize("jobs", ["0", "-5"])
def test_verify_jobs_below_one_is_input_error(capsys, jobs):
    code, _, err = run_cli(capsys, "verify", "--theorem", "thm-3.3", "--builtin", "3", "--jobs", jobs)
    assert code == 2 and err.startswith("error:") and "Traceback" not in err


def test_verify_unknown_theorem_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--theorem", "thm-0.0", "--builtin", "3"])
    assert exc.value.code == 2


def test_verify_missing_corpus_file_is_input_error(capsys):
    code, _, err = run_cli(capsys, "verify", "--theorem", "thm-3.3", "--corpus", "/nonexistent.g6")
    assert code == 2


def test_verify_error_record_yields_exit_two(tmp_path, capsys):
    # a graph past the certification cap produces an error record, which
    # counts as a failure; with no counterexample the exit code is 2, not 1
    from symbreak.graph_core import path_graph, write_graph6_file

    corpus_file = tmp_path / "toobig.g6"
    write_graph6_file(str(corpus_file), [path_graph(35)])
    code, out, err = run_cli(
        capsys, "verify", "--theorem", "thm-3.3", "--corpus", str(corpus_file)
    )
    assert code == 2
    assert err.splitlines()[-1] == "1 error rows"
    payload = json.loads(out)
    assert payload["summary"]["failed"] == 1
    assert payload["records"][0]["status"] == "error"
    assert "ResourceCapError" in payload["records"][0]["note"]
    assert payload["counterexamples"] == [to_graph6(path_graph(35))]


def test_verify_tsv_output(tmp_path, capsys):
    out_file = tmp_path / "r.tsv"
    code, _, _ = run_cli(
        capsys, "verify", "--theorem", "lemma-2.4", "--builtin", "3",
        "--format", "tsv", "--out", str(out_file),
    )
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0].startswith("graph6\t")
    assert len(lines) == 3  # header + the two connected order-3 graphs


@pytest.mark.parametrize(
    "argv",
    [
        ("aut", "--graph6", "DqK"),
        ("invariant", "--which", "chi", "--graph6", "DqK"),
        ("verify", "--theorem", "thm-3.3", "--builtin", "4"),
    ],
)
@pytest.mark.parametrize("value", ["abc", "0", "-3"])
def test_bad_max_vertices_env_is_input_error(capsys, monkeypatch, argv, value):
    monkeypatch.setenv("SYMBREAK_MAX_VERTICES", value)
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert "error:" in err and "SYMBREAK_MAX_VERTICES" in err
    assert "Traceback" not in err


def test_verify_non_ascii_corpus_byte_is_input_error(tmp_path, capsys):
    corpus_file = tmp_path / "bad.g6"
    corpus_file.write_bytes(b"F?B~w\n\xff\n")
    code, _, err = run_cli(capsys, "verify", "--theorem", "thm-3.3", "--corpus", str(corpus_file))
    assert code == 2
    assert f"error: {corpus_file}:2: non-ASCII byte 0xff (byte offset 0)" in err
    assert "Traceback" not in err


def test_verify_truncated_corpus_line_reports_offset_once(tmp_path, capsys):
    corpus_file = tmp_path / "short.g6"
    corpus_file.write_text("F?B~w\nF?B~w\nF?B~\n")
    code, _, err = run_cli(capsys, "verify", "--theorem", "thm-3.3", "--corpus", str(corpus_file))
    assert code == 2
    expected = f"{corpus_file}:3: expected 5 characters for order 7, got 4 (byte offset 4)"
    assert f"error: {expected}" in err
    assert err.count("(byte offset") == 1
    assert "Traceback" not in err


def test_invariant_witness_only_out_of_budget(monkeypatch, capsys):
    # With the node budget spent at every palette, witness-only mode still
    # answers (the all-distinct coloring, uncertified) instead of crashing.
    monkeypatch.setattr("symbreak.invariants._WITNESS_ONLY_NODE_BUDGET", 1)
    s = to_graph6(cycle_graph(6))
    code, out, _ = run_cli(capsys, "invariant", "--which", "Dp", "--witness-only", "--graph6", s)
    assert code == 0
    assert json.loads(out) == {"kind": "Dp", "value": 6, "certified": False}


@pytest.mark.parametrize("graph", ["C4", "C5"])
def test_construct_lift_refuses_cycles(capsys, graph):
    # S(Cn) = C2n has rotations that lift no automorphism of Cn; on C4 and C5
    # the lift was printed with "distinguishing": false and exit 0.
    code, out, err = run_cli(capsys, "construct", "--which", "lift", "--graph", graph)
    assert code == 2 and out == ""
    assert err == "error: subdivision_lift_coloring does not apply to cycles\n"


def test_construct_lift_on_path_is_unchanged(capsys):
    code, out, _ = run_cli(capsys, "construct", "--which", "lift", "--graph", "P4")
    assert code == 0
    assert json.loads(out) == {
        "construction": "lift",
        "graph6": "F?p`_",
        "palette": 2,
        "coloring": {"vertices": {"0": 1, "1": 1, "2": 1, "3": 1, "4": 1, "5": 1, "6": 2}},
        "certification": {"proper": False, "distinguishing": True, "used_fallback": False},
    }


_EVERY_SUBCOMMAND = [
    ("gen", "--max-order", "3"),
    ("verify", "--theorem", "thm-3.3", "--builtin", "3"),
    ("transform", "--op", "line", "--graph6", "DqK"),
    ("invariant", "--which", "chi", "--graph6", "DqK"),
    ("aut", "--graph6", "DqK"),
    ("construct", "--which", "thm47", "--graph", "P4"),
]

_INPUT_ERRORS = {
    "missing corpus file": (None, ("verify", "--theorem", "thm-3.3", "--corpus", "{tmp}/missing.g6")),
    "directory as corpus": (None, ("verify", "--theorem", "thm-3.3", "--corpus", "{tmp}")),
    "bad graph6": (None, ("invariant", "--which", "chi", "--graph6", "!!bad")),
    "disconnected graph": (
        None, ("invariant", "--which", "D", "--graph6", to_graph6(from_edge_list(3, [(0, 1)]))),
    ),
    "edgeless Dp": (None, ("invariant", "--which", "Dp", "--graph6", "@")),
    "jobs 0": (None, ("verify", "--theorem", "thm-3.3", "--builtin", "3", "--jobs", "0")),
    "empty order range": (None, ("verify", "--theorem", "thm-3.3", "--builtin", "2")),
    # K1,11: 39,916,800 automorphisms, past the order cap; refused before
    # any element is built.
    "aut past the order cap": (None, ("aut", "--graph6", "KsaCCA?_C?O?")),
    **{f"SYMBREAK_MAX_VERTICES=x on {argv[0]}": ("x", argv) for argv in _EVERY_SUBCOMMAND},
}

# Each row runs in a child process whose address space is capped, so that a
# row that starts building a huge group fails with MemoryError within
# seconds instead of filling the machine's memory.
_CHILD_ADDRESS_SPACE = 1 << 30
_CHILD_MAIN = "import sys; from symbreak.cli import main; sys.exit(main(sys.argv[1:]))"


def _limit_address_space():
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    soft = _CHILD_ADDRESS_SPACE
    if hard != resource.RLIM_INFINITY:
        soft = min(soft, hard)
    resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


@pytest.mark.parametrize("env, argv", _INPUT_ERRORS.values(), ids=list(_INPUT_ERRORS))
def test_input_and_environment_errors_exit_two(tmp_path, env, argv):
    child_env = dict(os.environ, PYTHONPATH=str(Path(symbreak.__file__).parents[1]))
    child_env.pop("SYMBREAK_MAX_VERTICES", None)
    if env is not None:
        child_env["SYMBREAK_MAX_VERTICES"] = env
    done = subprocess.run(
        [sys.executable, "-c", _CHILD_MAIN, *(a.replace("{tmp}", str(tmp_path)) for a in argv)],
        env=child_env, cwd=tmp_path, capture_output=True, text=True, timeout=120,
        preexec_fn=_limit_address_space,
    )
    err = done.stderr
    assert done.returncode == 2, err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err
