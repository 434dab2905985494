import hashlib
import itertools
import json
from pathlib import Path

import pytest

from symbreak import harness
from symbreak.errors import MalformedInputError
from symbreak.graph_core import (
    complete_graph,
    cycle_graph,
    from_edge_list,
    is_connected,
    parse_graph6,
    to_graph6,
    write_graph6_file,
)
from symbreak.harness import (
    CHECKS,
    CorpusSpec,
    VerificationReport,
    emit_report,
    enumerate_corpus,
    report_exit_code,
    report_to_dict,
    run_check,
)

from oracles import brute_is_isomorphic


def test_builtin_counts_match_published_values(corpus):
    assert [len(corpus[n]) for n in (3, 4, 5, 6)] == [2, 6, 21, 112]


@pytest.mark.parametrize(
    "connected_only, counts, digest",
    [
        (True, [1, 1, 2, 6, 21, 112],  # OEIS A001349
         "129a8436896e7e6dad253b37ec23d14aab4dc3be89f9508892a174cc841df51c"),
        (False, [1, 2, 4, 11, 34, 156],  # OEIS A000088
         "2f19be32300e959a20473fa052d87ee337e9fa2d6db48263f8baf8c53c7b7629"),
    ],
)
def test_builtin_corpus_is_pinned(connected_only, counts, digest):
    # digests recorded from the edge-subset scan that the augmentation replaced:
    # same classes, same labelling, same order
    graphs = enumerate_corpus(CorpusSpec(min_order=1, max_order=6, connected_only=connected_only))
    assert [sum(G.n == n for G in graphs) for n in range(1, 7)] == counts
    text = "".join(to_graph6(G) + "\n" for G in graphs)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_builtin_counts_match_pairwise_isomorphism_dedup():
    # independent oracle: enumerate all connected labeled graphs and dedup by
    # scanning bijections
    for n, expected in ((3, 2), (4, 6), (5, 21)):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        reps = []
        for mask in range(1 << len(pairs)):
            G = from_edge_list(n, [pairs[k] for k in range(len(pairs)) if (mask >> k) & 1])
            if not is_connected(G):
                continue
            if not any(brute_is_isomorphic(G, H) for H in reps):
                reps.append(G)
        assert len(reps) == expected


def test_augmentation_reproduces_shipped_order7_corpus(order7_path):
    # the shipped file is frozen; order 7 is beyond the builtin cap but the
    # enumerator itself has no cap
    from symbreak.harness import _isomorphism_classes

    with open(order7_path) as fh:
        lines = [l.strip() for l in fh if l.strip() and not l.startswith(">>")]
    assert [to_graph6(G) for G in _isomorphism_classes(7, True)] == lines


def test_all_graphs_of_order_7_are_pinned():
    # at order 7 the degree filter of the all-graphs enumeration drops most
    # children; the digest was recorded from the enumerator that labelled
    # every child
    from symbreak.harness import _isomorphism_classes

    graphs = _isomorphism_classes(7, False)
    assert len(graphs) == 1044  # OEIS A000088
    text = "".join(to_graph6(G) + "\n" for G in graphs)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "43b5b292f86ba1b109ade7d5a9257d33d8188b8ae621086b9de3ace7dbf4ddcd"
    )


def test_canonical_deletion_labels_under_half_the_children(monkeypatch):
    # labelling every child of orders 2..6 takes 759 canonical forms
    from symbreak import harness

    real = harness.canonical_form
    calls = []

    def counted(G):
        calls.append(G.n)
        return real(G)

    harness._isomorphism_classes.cache_clear()
    try:
        with monkeypatch.context() as m:
            m.setattr(harness, "canonical_form", counted)
            counts = [len(harness._isomorphism_classes(n, True)) for n in range(1, 7)]
    finally:
        # later tests must not read classes enumerated under the wrapper
        harness._isomorphism_classes.cache_clear()
    assert counts == [1, 1, 2, 6, 21, 112]
    assert len(calls) < 759 / 2


@pytest.mark.parametrize("density", [0.15, 0.35, 0.6])
def test_cut_test_matches_connectivity_of_the_deleted_graph(density):
    import random

    from symbreak.harness import _connected_without
    from symbreak.symmetry import _adjacency_masks

    rng = random.Random(f"cut-{density}")
    seen = {True: 0, False: 0}
    for n in range(2, 21):
        for _ in range(4):
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density]
            masks = _adjacency_masks(n, edges)
            for v in range(n):
                rest = from_edge_list(n - 1, [
                    (a - (a > v), b - (b > v)) for a, b in edges if v not in (a, b)
                ])
                expected = is_connected(rest)
                assert _connected_without(masks, v) is expected, (n, edges, v)
                seen[expected] += 1
    assert seen[True] and seen[False]


def test_enumerate_corpus_builtin_caps_and_filters():
    with pytest.raises(MalformedInputError):
        enumerate_corpus(CorpusSpec(max_order=7))
    all_graphs = enumerate_corpus(CorpusSpec(max_order=4, connected_only=False))
    assert len(all_graphs) == 1 + 2 + 4 + 11
    non_cycle = enumerate_corpus(CorpusSpec(min_order=3, max_order=4, non_cycle=True))
    assert len(non_cycle) == 2 + 6 - 2  # C3 and C4 dropped


def test_enumerate_corpus_from_file(tmp_path, corpus):
    path = tmp_path / "c.g6"
    write_graph6_file(str(path), corpus[4] + corpus[5])
    spec = CorpusSpec(source="file", path=str(path), min_order=5, max_order=5)
    got = enumerate_corpus(spec)
    assert got == list(corpus[5])


def test_unknown_theorem_id():
    with pytest.raises(MalformedInputError):
        run_check("thm-9.9", CorpusSpec(max_order=3))


@pytest.mark.parametrize(
    "check_id",
    ["fact-2.3-1", "fact-2.3-3", "lemma-2.4", "thm-3.3", "thm-4.5", "lemma-4.2",
     "lemma-4.3", "lemma-4.4", "remark-4.8"],
)
def test_checks_pass_on_small_corpus(check_id):
    spec = CorpusSpec(min_order=3, max_order=4)
    report = run_check(check_id, spec)
    assert report.summary["failed"] == 0
    assert report.summary["checked"] == report.summary["passed"] + report.summary["failed"]
    assert report_exit_code(report) == 0


def test_lemma_2_5_rows_are_the_four_exceptions():
    report = run_check("lemma-2.5", CorpusSpec(min_order=3, max_order=6))
    assert report.summary == {
        "checked": 4, "passed": 4, "failed": 0, "paper_inconsistent": 0,
    }
    assert {r["values"]["exception"] for r in report.records} == {"C4", "C6", "K4", "K3,3"}


def test_thm_2_8_on_exceptions_measures_delta_plus_two():
    report = run_check("thm-2.8", CorpusSpec(min_order=3, max_order=4))
    by_exc = {r["values"]["exception"]: r for r in report.records if r["values"]["exception"]}
    assert set(by_exc) == {"C4", "K4"}
    for r in by_exc.values():
        assert r["values"]["chiD_middle"] == r["max_degree"] + 2
        assert r["status"] == "pass"


def test_thm_4_7_cycle_three_flagged_inconsistent():
    report = run_check("thm-4.7", CorpusSpec(min_order=3, max_order=3))
    flagged = [r for r in report.records if r["status"] == "paper-inconsistent"]
    assert len(flagged) == 1
    row = flagged[0]
    assert row["values"]["cycle"] == 3
    assert row["values"]["chiD_subdivision"] == 4  # the measured value
    assert row["values"]["claimed_values"] == [3, 4]
    assert report.summary["failed"] == 0


def test_cor_3_5_star_rows():
    report = run_check("cor-3.5", CorpusSpec(min_order=3, max_order=3))
    stars = [r for r in report.records if r["note"].startswith("star")]
    assert [r["values"]["D_subdivision"] for r in stars] == [2, 2, 2, 3, 3, 3, 3, 3]
    assert all(r["status"] == "pass" for r in stars)


def test_run_check_parallel_matches_serial():
    spec = CorpusSpec(min_order=3, max_order=5)
    serial = run_check("thm-3.3", spec, jobs=1)
    parallel = run_check("thm-3.3", spec, jobs=4)
    assert report_to_dict(serial) == report_to_dict(parallel)


def test_run_check_pool_no_larger_than_task_count(monkeypatch):
    # records the requested pool size and maps in-process: no real workers
    import symbreak.harness as harness

    sizes = []
    tasks = []

    class StubPool:
        def __init__(self, size):
            sizes.append(size)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            tasks.extend(items)
            return [fn(x) for x in items]

    class StubContext:
        Pool = StubPool

    monkeypatch.setattr(harness.multiprocessing, "get_context", lambda method: StubContext)
    spec = CorpusSpec(min_order=3, max_order=3)
    report = run_check("thm-3.3", spec, jobs=8)
    assert sizes == [2]  # the two connected graphs of order 3
    assert report_to_dict(report) == report_to_dict(run_check("thm-3.3", spec))
    # workers receive compact graph6 lines, not Graph objects
    assert tasks == [("thm-3.3", to_graph6(G)) for G in enumerate_corpus(spec)]


def test_serial_sweep_makes_no_graph6_round_trip(tmp_path, order7_path, monkeypatch):
    import symbreak.harness as harness

    with open(order7_path) as fh:
        lines = [l for l in fh if l.strip() and not l.startswith(">>")][:20]
    path = tmp_path / "slice.g6"
    path.write_text("".join(lines))
    spec = CorpusSpec(source="file", path=str(path), max_order=62)
    parsed = []
    real = harness.parse_graph6
    monkeypatch.setattr(harness, "parse_graph6", lambda line: parsed.append(line) or real(line))
    report = run_check("thm-3.3", spec, jobs=1)
    assert report.summary["checked"] == 20 and parsed == []


def test_run_check_parallel_matches_serial_on_file_corpus(tmp_path, order7_path):
    # slice of the shipped order-7 corpus, short enough for a unit test
    with open(order7_path) as fh:
        lines = [l for l in fh if l.strip() and not l.startswith(">>")][:40]
    path = tmp_path / "slice.g6"
    path.write_text("".join(lines))
    spec = CorpusSpec(source="file", path=str(path), max_order=62)
    serial = run_check("thm-3.3", spec, jobs=1)
    parallel = run_check("thm-3.3", spec, jobs=3)
    assert report_to_dict(serial) == report_to_dict(parallel)
    assert serial.summary["checked"] == 40 and serial.summary["failed"] == 0


def test_order7_thm_2_8_report_is_pinned(tmp_path, order7_path, monkeypatch):
    # Theorem (1), chi_D(M(G)) = Delta(G) + 1, over all 853 connected graphs
    # of order 7: the report of `verify --theorem thm-2.8 --corpus
    # data/connected_order7.g6`, run from the repository root.
    monkeypatch.chdir(Path(order7_path).parent.parent)
    spec = CorpusSpec(source="file", path="data/connected_order7.g6", max_order=62)
    report = run_check("thm-2.8", spec)
    out = tmp_path / "thm-2.8.json"
    emit_report(report, "json", str(out))
    data = out.read_bytes()
    assert len(data) == 305_738
    assert hashlib.sha256(data).hexdigest() == (
        "bb08712f6898580f1e317897be8eab837156fda3e6bb90d42b4f096b5a43589e"
    )
    assert report.summary["checked"] == 853 and report.summary["failed"] == 0


def test_order7_fact_2_3_1_report_is_pinned(tmp_path, order7_path, monkeypatch):
    # Fact 2.3(1), M(G) isomorphic to L(G+), over all 853 connected graphs of
    # order 7: the report of `verify --theorem fact-2.3-1 --corpus
    # data/connected_order7.g6`, run from the repository root.
    monkeypatch.chdir(Path(order7_path).parent.parent)
    spec = CorpusSpec(source="file", path="data/connected_order7.g6", max_order=62)
    report = run_check("fact-2.3-1", spec)
    out = tmp_path / "fact-2.3-1.json"
    emit_report(report, "json", str(out))
    data = out.read_bytes()
    assert len(data) == 169_261
    assert hashlib.sha256(data).hexdigest() == (
        "98889b2c6ef490acb05e0fb3a6ec3d0bd1be33bd108023e64ea6f0cfa0d09c6b"
    )
    assert report.summary["checked"] == 853 and report.summary["failed"] == 0


@pytest.mark.parametrize("source, checked", [("builtin", 141), ("file", 853)])
def test_fact_2_3_1_map_checks_on_every_graph(source, checked, order7_path):
    # the map of the proof certifies every pair; a fault in the numbering of
    # middle_graph or endline_graph shows here as a failed record
    if source == "builtin":
        spec = CorpusSpec(source="builtin", max_order=6, min_order=3)
    else:
        spec = CorpusSpec(source="file", path=order7_path, max_order=62)
    report = run_check("fact-2.3-1", spec)
    assert report.summary["checked"] == checked and report.summary["failed"] == 0


def test_hypothesis_filters_reject_ineligible_graphs(tmp_path):
    path = tmp_path / "bad.g6"
    disconnected = from_edge_list(4, [(0, 1), (2, 3)])
    write_graph6_file(str(path), [complete_graph(3)])
    spec = CorpusSpec(source="file", path=str(path), max_order=62)
    report = run_check("thm-3.3", spec)
    assert report.summary["failed"] == 0
    assert all(r["n"] >= 3 for r in report.records)
    assert to_graph6(disconnected) not in [r["graph6"] for r in report.records]


def test_per_graph_failure_becomes_error_record():
    # evaluation errors must degrade to an error record, not crash the sweep
    from symbreak.harness import _evaluate_one

    disconnected = from_edge_list(4, [(0, 1), (2, 3)])
    record = _evaluate_one(("thm-3.3", to_graph6(disconnected)))
    assert record["status"] == "error"
    assert "ContractError" in record["note"]


def test_emit_report_empty_corpus(tmp_path, capsys):
    report = run_check("thm-3.3", CorpusSpec(min_order=1, max_order=2))
    assert report.summary == {
        "checked": 0, "passed": 0, "failed": 0, "paper_inconsistent": 0,
    }
    emit_report(report, "json", None)
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["checked"] == 0
    assert payload["records"] == [] and payload["counterexamples"] == []


def test_emit_report_json_deterministic(tmp_path):
    report = run_check("lemma-2.4", CorpusSpec(min_order=3, max_order=4))
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    emit_report(report, "json", str(p1))
    emit_report(report, "json", str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    payload = json.loads(p1.read_text())
    assert list(payload) == ["schema", "theorem", "corpus", "summary", "counterexamples", "records"]
    assert "wall_time" not in p1.read_text()


def test_emit_report_tsv(tmp_path):
    report = run_check("lemma-2.4", CorpusSpec(min_order=3, max_order=4))
    path = tmp_path / "r.tsv"
    emit_report(report, "tsv", str(path))
    lines = path.read_text().splitlines()
    assert lines[0].split("\t") == ["graph6", "n", "max_degree", "status", "note", "values"]
    assert len(lines) == 1 + report.summary["checked"]


def test_emit_report_unknown_format():
    report = run_check("lemma-2.4", CorpusSpec(min_order=3, max_order=3))
    with pytest.raises(MalformedInputError):
        emit_report(report, "xml", None)


def test_exit_code_contract_on_failure():
    failing = VerificationReport(
        theorem="thm-3.3",
        corpus="synthetic",
        records=(
            {"graph6": "Bw", "n": 3, "max_degree": 2, "status": "fail", "note": "", "values": {}},
        ),
        summary={"checked": 1, "passed": 0, "failed": 1, "paper_inconsistent": 0},
        counterexamples=("Bw",),
    )
    assert report_exit_code(failing) == 1


@pytest.mark.parametrize("statuses, code", [(("error", "fail"), 1), (("error", "error"), 2)])
def test_exit_code_separates_counterexamples_from_errors(statuses, code):
    # exit 1 needs a counterexample; error rows alone (a cap, a bad graph) give 2
    records = tuple(
        {"graph6": g6, "n": 3, "max_degree": 2, "status": st, "note": "", "values": {}}
        for g6, st in zip(("Bg", "Bw"), statuses)
    )
    report = VerificationReport(
        theorem="thm-3.3",
        corpus="synthetic",
        records=records,
        summary={"checked": 2, "passed": 0, "failed": 2, "paper_inconsistent": 0},
        counterexamples=("Bg", "Bw"),
    )
    assert report_exit_code(report) == code


def test_report_record_fields(corpus):
    report = run_check("thm-3.3", CorpusSpec(min_order=3, max_order=3))
    assert report.summary["checked"] == 2
    for r in report.records:
        assert set(r) == {"graph6", "n", "max_degree", "status", "note", "values"}
        assert r["status"] == "pass"
    assert len(report.counterexamples) == 0
    assert report.wall_time_s >= 0


def test_all_check_ids_registered():
    assert set(CHECKS) == {
        "fact-2.3-1", "fact-2.3-3", "lemma-2.4", "lemma-2.5", "thm-2.8",
        "thm-3.3", "cor-3.5", "lemma-4.2", "lemma-4.3", "lemma-4.4",
        "thm-4.5", "thm-4.7", "remark-4.8",
    }


@pytest.mark.parametrize(
    "check, G, values",
    [
        (harness._check_lemma_4_4, cycle_graph(4), {"aut_order_subdivision": 16, "violations": 8}),
        (harness._check_lemma_4_2, parse_graph6("C`"), {"aut_order": 8, "violations": 4}),
    ],
    ids=["lemma-4.4 C4", "lemma-4.2 2K2"],
)
def test_lemma_sweeps_count_violations(check, G, values):
    # Outside the lemmas' hypotheses (a cycle, a disconnected graph) the
    # counterexample path no corpus row reaches: a failed record counting the
    # offending elements of the listed group.
    row = check(G)
    assert (row["status"], row["values"]) == ("fail", values)
