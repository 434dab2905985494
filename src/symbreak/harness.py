"""Corpus enumeration, theorem verification sweeps, and report emission.

Each registered check is a pure predicate over one graph; a sweep maps it
over a corpus (builtin exhaustive enumeration up to order 6, or a graph6
file), collects per-graph records, and summarizes counterexamples.  Reports
are deterministic: byte-identical for the same check, corpus and tie-break
rules, regardless of the worker count.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import sys
import time
from dataclasses import dataclass, field
from functools import cache
from typing import Callable, Optional

from .constructions import (
    EXCEPTIONAL_GRAPHS,
    exception_name,
    exceptional_endline_coloring,
    endline_extension_coloring,
    subdivision_proper_distinguishing,
)
from .errors import MalformedInputError
from .graph_core import (
    Graph,
    bipartition,
    complete_graph,
    cycle_graph,
    from_edge_list,
    is_connected,
    is_cycle_graph,
    is_irreducible,
    max_degree,
    parse_graph6,
    read_graph6_file,
    star_graph,
    to_graph6,
)
from .invariants import (
    distinguishing_chromatic_index,
    distinguishing_chromatic_number,
    distinguishing_index,
    distinguishing_number,
    total_distinguishing_number,
)
from .symmetry import automorphism_group, canonical_form, is_isomorphic, is_isomorphism
from .transforms import endline_graph, line_graph, middle_graph, subdivision_graph

BUILTIN_MAX_ORDER = 6


# ---------------------------------------------------------------------------
# Corpus
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CorpusSpec:
    """Where sweep graphs come from and which filters apply."""

    source: str = "builtin"  # "builtin" | "file"
    max_order: int = BUILTIN_MAX_ORDER
    min_order: int = 1
    path: Optional[str] = None
    connected_only: bool = True
    non_cycle: bool = False

    def describe(self) -> str:
        prefix = "builtin:" if self.source == "builtin" else f"file:{self.path},"
        return (
            f"{prefix}orders={self.min_order}..{self.max_order},"
            f"connected={self.connected_only},non_cycle={self.non_cycle}"
        )


@cache
def _isomorphism_classes(n: int, connected_only: bool) -> tuple[Graph, ...]:
    """Every isomorphism class on n vertices once, canonically labelled and
    sorted by graph6, by vertex augmentation: each class on n-1 vertices gains
    vertex n-1 joined to each neighbour subset (nonempty when connected_only),
    deduplicated on canonical form.  Complete: deleting a vertex (a non-cut
    vertex, when connected) leaves a class on n-1 vertices."""
    if n == 1:
        return (from_edge_list(1, []),)
    reps = {
        canonical_form(from_edge_list(
            n, G.edges + tuple((v, n - 1) for v in range(n - 1) if (mask >> v) & 1)
        ))
        for G in _isomorphism_classes(n - 1, connected_only)
        for mask in range(int(connected_only), 1 << (n - 1))
    }
    return tuple(parse_graph6(s) for s in sorted(reps))


def enumerate_corpus(spec: CorpusSpec) -> list[Graph]:
    """Materialize the corpus: each isomorphism class once (builtin) or the
    file's graphs in file order, with the spec's filters applied."""
    if spec.min_order < 1:
        raise MalformedInputError("corpus min_order must be >= 1")
    if spec.max_order < spec.min_order:
        raise MalformedInputError(f"corpus order range {spec.min_order}..{spec.max_order} is empty")
    if spec.source == "builtin":
        if spec.max_order > BUILTIN_MAX_ORDER:
            raise MalformedInputError(
                f"builtin enumeration is limited to order <= {BUILTIN_MAX_ORDER}; "
                "use a graph6 corpus file for larger orders"
            )
        graphs: list[Graph] = []
        for n in range(spec.min_order, spec.max_order + 1):
            graphs.extend(_isomorphism_classes(n, spec.connected_only))
    elif spec.source == "file":
        if not spec.path:
            raise MalformedInputError("file corpus needs a path")
        graphs = read_graph6_file(spec.path)
        graphs = [
            G
            for G in graphs
            if spec.min_order <= G.n <= spec.max_order
            and (not spec.connected_only or is_connected(G))
        ]
    else:
        raise MalformedInputError(f"unknown corpus source {spec.source!r}")
    if spec.non_cycle:
        graphs = [G for G in graphs if not is_cycle_graph(G)]
    return graphs


# ---------------------------------------------------------------------------
# Per-graph check predicates
# ---------------------------------------------------------------------------

def _ceil_sqrt(x: int) -> int:
    return math.isqrt(x - 1) + 1 if x > 0 else 0


def _record(G: Graph, values: dict, status: str, note: str = "") -> dict:
    return {
        "graph6": to_graph6(G),
        "n": G.n,
        "max_degree": max_degree(G),
        "status": status,
        "note": note,
        "values": dict(sorted(values.items())),
    }


def _hyp_basic(G: Graph) -> bool:
    return G.n >= 3 and is_connected(G)


def _hyp_noncycle(G: Graph) -> bool:
    return _hyp_basic(G) and not is_cycle_graph(G)


def _hyp_bipartite(G: Graph) -> bool:
    return _hyp_basic(G) and bipartition(G) is not None


def _hyp_exception(G: Graph) -> bool:
    return _hyp_basic(G) and exception_name(G) is not None


def _check_fact_2_3_1(G: Graph) -> dict:
    """M(G) is isomorphic to L(G+) by the map of the proof: vertex v goes to
    the pendant edge (v, n+v), and edge vertex n+k to the edge G.edges[k];
    vertex k of L(G+) is G+.edges[k]."""
    M = middle_graph(G)
    Gp = endline_graph(G)
    L = line_graph(Gp)
    rank = {e: k for k, e in enumerate(Gp.edges)}
    images = [(v, G.n + v) for v in range(G.n)] + list(G.edges)
    iso = is_isomorphism(M, L, tuple(rank[e] for e in images))
    values = {"middle_order": M.n, "isomorphic": iso}
    return _record(G, values, "pass" if iso else "fail")


def _check_fact_2_3_3(G: Graph) -> dict:
    delta = max_degree(G)
    exc = exception_name(G)
    iv = distinguishing_chromatic_index(G)
    ok = (iv.value == delta + 2) if exc else (iv.value <= delta + 1)
    values = {"chiDp": iv.value, "certified": iv.certified, "exception": exc or ""}
    return _record(G, values, "pass" if ok and iv.certified else "fail")


def _check_lemma_2_4(G: Graph) -> dict:
    """`violations` counts group elements: non-identity ones of Aut(G+) fixing V(G) pointwise."""
    Gp = endline_graph(G)
    aut = automorphism_group(Gp)
    n = G.n
    bad = sum(1 for p in aut.nonidentity() if all(p[i] == i for i in range(n)))
    values = {"aut_order_endline": aut.order, "violations": bad}
    return _record(G, values, "pass" if bad == 0 else "fail")


def _check_lemma_2_5(G: Graph) -> dict:
    delta = max_degree(G)
    iv = distinguishing_chromatic_index(endline_graph(G))
    values = {
        "chiDp_endline": iv.value,
        "expected": delta + 2,
        "certified": iv.certified,
        "exception": exception_name(G) or "",
    }
    ok = iv.value == delta + 2 and iv.certified
    return _record(G, values, "pass" if ok else "fail")


def _check_thm_2_8(G: Graph) -> dict:
    delta = max_degree(G)
    exc = exception_name(G)
    expected = delta + 2 if exc else delta + 1
    iv = distinguishing_chromatic_number(middle_graph(G))
    if exc:
        cons = exceptional_endline_coloring(EXCEPTIONAL_GRAPHS[exc])
    else:
        cons = endline_extension_coloring(G)
    values = {
        "chiD_middle": iv.value,
        "expected": expected,
        "certified": iv.certified,
        "exception": exc or "",
        "construction_palette": cons.palette,
        "construction_certified": cons.certified,
        "construction_fallback": cons.used_fallback,
    }
    ok = (
        iv.value == expected
        and iv.certified
        and cons.certified
        and cons.palette == expected
    )
    note = "construction fell back to exact search" if cons.used_fallback else ""
    return _record(G, values, "pass" if ok else "fail", note)


def _check_thm_3_3(G: Graph) -> dict:
    ds = distinguishing_number(subdivision_graph(G))
    dpp = total_distinguishing_number(G)
    values = {
        "D_subdivision": ds.value,
        "Dpp": dpp.value,
        "certified": ds.certified and dpp.certified,
    }
    ok = ds.value == dpp.value and ds.certified and dpp.certified
    return _record(G, values, "pass" if ok else "fail")


def _check_cor_3_5(G: Graph) -> dict:
    ds = distinguishing_number(subdivision_graph(G)).value
    bound = _ceil_sqrt(max_degree(G))
    dv = distinguishing_number(G).value
    dp = distinguishing_index(G).value
    values = {
        "D_subdivision": ds,
        "ceil_sqrt_max_degree": bound,
        "D": dv,
        "Dp": dp,
    }
    ok = ds <= bound and ds <= min(dv, dp)
    status = "pass" if ok else "fail"
    note = ""
    if ok and dv > 1 and not ds < min(dv, dp):
        # The literal strict bound fails on such graphs; record, don't fail.
        status = "paper-inconsistent"
        note = f"strict bound violated: D(S(G))={ds}, min(D,D')={min(dv, dp)}"
    return _record(G, values, status, note)


def _cor_3_5_star_rows() -> list[dict]:
    rows = []
    for m in range(2, 10):
        G = star_graph(m)
        ds = distinguishing_number(subdivision_graph(G))
        expected = _ceil_sqrt(m)
        values = {"m": m, "D_subdivision": ds.value, "expected": expected,
                  "certified": ds.certified}
        ok = ds.value == expected and ds.certified
        rows.append(_record(G, values, "pass" if ok else "fail", f"star K(1,{m})"))
    return rows


def _check_lemma_4_2(G: Graph) -> dict:
    """`violations` counts group elements: those neither keeping nor swapping the sides."""
    U, W = bipartition(G)
    sides = (set(U), set(W))
    aut = automorphism_group(G)
    bad = sum(1 for p in aut if {p[u] for u in U} not in sides)
    values = {"aut_order": aut.order, "violations": bad}
    return _record(G, values, "pass" if bad == 0 else "fail")


def _check_lemma_4_3(G: Graph) -> dict:
    """`violations` counts group elements: non-identity ones fixing a side pointwise."""
    U, W = bipartition(G)
    aut = automorphism_group(G)
    bad = sum(1 for p in aut.nonidentity()
              if all(p[u] == u for u in U) or all(p[w] == w for w in W))
    values = {"aut_order": aut.order, "irreducible": is_irreducible(G), "violations": bad}
    return _record(G, values, "pass" if bad == 0 else "fail")


def _check_lemma_4_4(G: Graph) -> dict:
    """`violations` counts group elements: those of Aut(S(G)) moving V(G) off itself."""
    S = subdivision_graph(G)
    aut = automorphism_group(S)
    originals = set(range(G.n))
    bad = sum(1 for p in aut if {p[v] for v in originals} != originals)
    values = {"aut_order_subdivision": aut.order, "violations": bad}
    return _record(G, values, "pass" if bad == 0 else "fail")


def _check_thm_4_5(G: Graph) -> dict:
    d = distinguishing_number(G).value
    chid = distinguishing_chromatic_number(G).value
    order = automorphism_group(G).order
    values = {"D": d, "chiD": chid, "aut_order": order}
    if d != 1 and chid == 2:
        return _record(G, values, "pass" if order == 2 else "fail")
    return _record(G, values, "pass", "hypothesis not met (vacuous)")


def _check_thm_4_7(G: Graph) -> dict:
    d = distinguishing_number(G).value
    cons = subdivision_proper_distinguishing(G)
    chids = distinguishing_chromatic_number(subdivision_graph(G))
    if d >= 3:
        ok = cons.certified and cons.palette == d and chids.value <= d
        expected = f"<= {d}"
    elif d == 2:
        ok = cons.certified and cons.palette == 3 and chids.value == 3
        expected = "3"
    else:
        ok = cons.certified and cons.palette == 2 and chids.value == 2
        expected = "2"
    values = {
        "D": d,
        "chiD_subdivision": chids.value,
        "expected_chiD_subdivision": expected,
        "certified": chids.certified,
        "construction_palette": cons.palette,
        "construction_certified": cons.certified,
    }
    return _record(G, values, "pass" if ok and chids.certified else "fail")


def _thm_4_7_extra_rows() -> list[dict]:
    rows = []
    K5p = endline_graph(complete_graph(5))
    d = distinguishing_number(K5p)
    chids = distinguishing_chromatic_number(subdivision_graph(K5p))
    values = {"D": d.value, "chiD_subdivision": chids.value,
              "certified": d.certified and chids.certified}
    ok = d.value == 3 and chids.value == 3 and d.certified and chids.certified
    rows.append(_record(K5p, values, "pass" if ok else "fail", "sharpness: endline of K5"))
    for n in range(3, 9):
        C = cycle_graph(n)
        S = subdivision_graph(C)
        iso = is_isomorphic(S, cycle_graph(2 * n)) is not None
        d = distinguishing_number(C).value
        chids = distinguishing_chromatic_number(S)
        values = {
            "cycle": n,
            "subdivision_is_C2n": iso,
            "D": d,
            "chiD_subdivision": chids.value,
            "certified": chids.certified,
        }
        if n == 3:
            # Two incompatible values are claimed for this row (3 via the
            # case analysis, 4 via the sharpness remark); record the measured
            # one and flag the row instead of passing or failing it.
            values["claimed_values"] = [3, 4]
            rows.append(
                _record(
                    C,
                    values,
                    "paper-inconsistent",
                    f"cycle 3: claims disagree (3 vs 4); measured chiD(S(C3))={chids.value}",
                )
            )
            continue
        expected = d if n in (4, 5) else d + 1
        ok = iso and chids.value == expected and chids.certified
        rows.append(_record(C, values, "pass" if ok else "fail", f"cycle {n}"))
    return rows


def _check_remark_4_8(G: Graph) -> dict:
    chids = distinguishing_chromatic_number(subdivision_graph(G)).value
    dpp = total_distinguishing_number(G).value
    values = {"chiD_subdivision": chids, "Dpp": dpp, "bound": 2 * dpp}
    return _record(G, values, "pass" if chids <= 2 * dpp else "fail")


def _remark_4_8_extra_rows() -> list[dict]:
    C3 = cycle_graph(3)
    chids = distinguishing_chromatic_number(subdivision_graph(C3)).value
    dpp = total_distinguishing_number(C3).value
    values = {"chiD_subdivision": chids, "Dpp": dpp, "bound": 2 * dpp}
    ok = chids == 4 and chids == 2 * dpp
    return [_record(C3, values, "pass" if ok else "fail", "sharpness: cycle 3")]


@dataclass(frozen=True)
class TheoremCheck:
    """A registered verification predicate over single graphs."""

    id: str
    description: str
    hypothesis: Callable[[Graph], bool]
    evaluate: Callable[[Graph], dict]
    extra_rows: Optional[Callable[[], list[dict]]] = None


CHECKS: dict[str, TheoremCheck] = {
    c.id: c
    for c in [
        TheoremCheck(
            "fact-2.3-1",
            "middle graph is isomorphic to the line graph of the endline graph",
            _hyp_basic,
            _check_fact_2_3_1,
        ),
        TheoremCheck(
            "fact-2.3-3",
            "distinguishing chromatic index is at most max degree + 1 outside "
            "the four exceptional graphs, where it is max degree + 2",
            _hyp_basic,
            _check_fact_2_3_3,
        ),
        TheoremCheck(
            "lemma-2.4",
            "an endline-graph automorphism fixing every original vertex is the identity",
            _hyp_basic,
            _check_lemma_2_4,
        ),
        TheoremCheck(
            "lemma-2.5",
            "the endline graphs of the four exceptional graphs have "
            "distinguishing chromatic index max degree + 2",
            _hyp_exception,
            _check_lemma_2_5,
        ),
        TheoremCheck(
            "thm-2.8",
            "distinguishing chromatic number of the middle graph is max degree + 1, "
            "or + 2 for the four exceptional graphs",
            _hyp_basic,
            _check_thm_2_8,
        ),
        TheoremCheck(
            "thm-3.3",
            "distinguishing number of the subdivision graph equals the total "
            "distinguishing number",
            _hyp_basic,
            _check_thm_3_3,
        ),
        TheoremCheck(
            "cor-3.5",
            "subdivision distinguishing number bounded by ceil(sqrt(max degree)) "
            "and by min(D, D'); stars are sharp",
            _hyp_basic,
            _check_cor_3_5,
            _cor_3_5_star_rows,
        ),
        TheoremCheck(
            "lemma-4.2",
            "every automorphism of a connected bipartite graph preserves or swaps "
            "the two classes",
            _hyp_bipartite,
            _check_lemma_4_2,
        ),
        TheoremCheck(
            "lemma-4.3",
            "in a bipartite irreducible graph only the identity fixes one class pointwise",
            lambda G: _hyp_bipartite(G) and is_irreducible(G),
            _check_lemma_4_3,
        ),
        TheoremCheck(
            "lemma-4.4",
            "subdivision-graph automorphisms of non-cycles map originals to originals",
            _hyp_noncycle,
            _check_lemma_4_4,
        ),
        TheoremCheck(
            "thm-4.5",
            "D not 1 and distinguishing chromatic number 2 force an automorphism "
            "group of order 2",
            _hyp_basic,
            _check_thm_4_5,
        ),
        TheoremCheck(
            "thm-4.7",
            "distinguishing chromatic number of subdivision graphs by cases on D, "
            "with certified constructions; cycles tabulated separately",
            _hyp_noncycle,
            _check_thm_4_7,
            _thm_4_7_extra_rows,
        ),
        TheoremCheck(
            "remark-4.8",
            "distinguishing chromatic number of the subdivision graph is at most "
            "twice the total distinguishing number",
            _hyp_basic,
            _check_remark_4_8,
            _remark_4_8_extra_rows,
        ),
    ]
}


# ---------------------------------------------------------------------------
# Sweeps and reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VerificationReport:
    theorem: str
    corpus: str
    records: tuple[dict, ...]
    summary: dict
    counterexamples: tuple[str, ...]
    wall_time_s: float = field(compare=False, default=0.0)


def _evaluate(check_id: str, G: Graph) -> dict:
    try:
        return CHECKS[check_id].evaluate(G)
    except Exception as exc:  # error record, not a crash of the whole sweep
        return _record(G, {}, "error", f"{type(exc).__name__}: {exc}")


def _evaluate_one(args: tuple[str, str]) -> dict:
    """A pool worker's task: the check id and the graph as one graph6 line."""
    check_id, g6 = args
    return _evaluate(check_id, parse_graph6(g6))


def run_check(check_id: str, spec: CorpusSpec, jobs: int = 1) -> VerificationReport:
    """Evaluate one registered check over every hypothesis-satisfying corpus
    graph, plus the check's fixed extra rows (stars, cycles, sharpness).
    Serially each corpus graph is evaluated in place; pool workers receive
    it as one graph6 line."""
    if check_id not in CHECKS:
        raise MalformedInputError(
            f"unknown theorem id {check_id!r}; known: {', '.join(sorted(CHECKS))}"
        )
    if jobs < 1:
        raise MalformedInputError(f"jobs must be >= 1, got {jobs}")
    check = CHECKS[check_id]
    start = time.monotonic()
    graphs = [G for G in enumerate_corpus(spec) if check.hypothesis(G)]
    workers = min(jobs, len(graphs))
    if workers > 1:
        tasks = [(check_id, to_graph6(G)) for G in graphs]
        with multiprocessing.get_context("fork").Pool(workers) as pool:
            records = pool.map(_evaluate_one, tasks)
    else:
        records = [_evaluate(check_id, G) for G in graphs]
    if check.extra_rows is not None:
        records.extend(check.extra_rows())
    records.sort(key=lambda r: (r["n"], r["graph6"], r["note"]))
    failed = [r for r in records if r["status"] in ("fail", "error")]
    inconsistent = [r for r in records if r["status"] == "paper-inconsistent"]
    summary = {
        "checked": len(records),
        "passed": len(records) - len(failed),
        "failed": len(failed),
        "paper_inconsistent": len(inconsistent),
    }
    return VerificationReport(
        theorem=check_id,
        corpus=spec.describe(),
        records=tuple(records),
        summary=summary,
        counterexamples=tuple(r["graph6"] for r in failed),
        wall_time_s=time.monotonic() - start,
    )


def report_to_dict(report: VerificationReport) -> dict:
    """JSON payload with a fixed field order.  Wall time is deliberately
    excluded so identical runs emit identical bytes."""
    return {
        "schema": "symbreak-report/1",
        "theorem": report.theorem,
        "corpus": report.corpus,
        "summary": report.summary,
        "counterexamples": list(report.counterexamples),
        "records": list(report.records),
    }


def report_exit_code(report: VerificationReport) -> int:
    """0 when every row passed, 1 when some row is a counterexample (``fail``),
    and 2 when every failed row is an ``error`` (the check could not run)."""
    if report.summary["failed"] == 0:
        return 0
    return 1 if any(r["status"] == "fail" for r in report.records) else 2


def emit_report(report: VerificationReport, format: str = "json", path: Optional[str] = None) -> None:
    """Write the report as JSON or TSV to a path, or to stdout when path is None."""
    if format == "json":
        text = json.dumps(report_to_dict(report), indent=2) + "\n"
    elif format == "tsv":
        lines = ["graph6\tn\tmax_degree\tstatus\tnote\tvalues"]
        for r in report.records:
            values = json.dumps(r["values"], sort_keys=True, separators=(",", ":"))
            lines.append(
                f"{r['graph6']}\t{r['n']}\t{r['max_degree']}\t{r['status']}\t{r['note']}\t{values}"
            )
        text = "\n".join(lines) + "\n"
    else:
        raise MalformedInputError(f"unknown report format {format!r}")
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
