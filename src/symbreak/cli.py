"""Command-line surface: gen, verify, transform, invariant, aut, construct.

Exit codes: 0 success / all checks passed, 1 a verification sweep found a
counterexample, 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .colorings import EdgeColoring, TotalColoring, VertexColoring
from .constructions import (
    endline_extension_coloring,
    exceptional_endline_coloring,
    subdivision_lift_coloring,
    subdivision_proper_distinguishing,
)
from .errors import SymbreakError
from .graph_core import (
    Graph,
    graph_from_name,
    parse_graph6,
    to_graph6,
    write_graph6_file,
)
from .harness import (
    CHECKS,
    CorpusSpec,
    emit_report,
    enumerate_corpus,
    report_exit_code,
    run_check,
)
from .invariants import INVARIANT_FUNCTIONS
from .symmetry import DEFAULT_VERTEX_CAP, automorphism_group, vertex_cap
from .transforms import endline_graph, line_graph, middle_graph, subdivision_graph


def _graph_argument(text: Optional[str]) -> Graph:
    """One graph6 line from the flag value, or from stdin when omitted."""
    if text is None:
        text = sys.stdin.readline()
        if not text.strip():
            raise SymbreakError("expected one graph6 line on stdin")
    return parse_graph6(text.strip())


def _graph_by_name_or_graph6(text: str) -> Graph:
    try:
        return graph_from_name(text)
    except SymbreakError:
        return parse_graph6(text)


def _label_map(G: Graph) -> dict:
    out = {}
    for idx, lab in enumerate(G.labels):
        if lab.is_edge_vertex:
            out[str(idx)] = {"kind": lab.kind, "source": [lab.a, lab.b]}
        else:
            out[str(idx)] = {"kind": lab.kind, "source": [lab.a]}
    return out


def _coloring_json(witness) -> object:
    if isinstance(witness, VertexColoring):
        return {"vertices": {str(v): c for v, c in enumerate(witness.colors)}}
    if isinstance(witness, EdgeColoring):
        return {"edges": {f"{u},{v}": c for (u, v), c in zip(witness.edges, witness.colors)}}
    if isinstance(witness, TotalColoring):
        return {
            "vertices": {str(v): c for v, c in enumerate(witness.vertex_part.colors)},
            "edges": {
                f"{u},{v}": c
                for (u, v), c in zip(witness.edge_part.edges, witness.edge_part.colors)
            },
        }
    raise SymbreakError(f"cannot serialize witness of type {type(witness).__name__}")


def _cmd_gen(args) -> int:
    spec = CorpusSpec(
        source="builtin",
        max_order=args.max_order,
        min_order=args.min_order,
        connected_only=args.connected,
    )
    graphs = enumerate_corpus(spec)
    if args.out:
        write_graph6_file(args.out, graphs)
        print(f"wrote {len(graphs)} graphs to {args.out}", file=sys.stderr)
    else:
        for G in graphs:
            print(to_graph6(G))
    return 0


def _cmd_verify(args) -> int:
    if args.builtin is not None:
        spec = CorpusSpec(source="builtin", max_order=args.builtin, min_order=3)
    else:
        spec = CorpusSpec(source="file", path=args.corpus, max_order=62)
    report = run_check(args.theorem, spec, jobs=args.jobs)
    emit_report(report, format=args.format, path=args.out)
    s = report.summary
    print(
        f"{args.theorem}: checked={s['checked']} passed={s['passed']} "
        f"failed={s['failed']} paper_inconsistent={s['paper_inconsistent']} "
        f"({report.wall_time_s:.1f}s)",
        file=sys.stderr,
    )
    code = report_exit_code(report)
    if code == 2:
        print(f"{s['failed']} error rows", file=sys.stderr)
    return code


def _cmd_transform(args) -> int:
    G = _graph_argument(args.graph6)
    op = {
        "line": line_graph,
        "endline": endline_graph,
        "subdivision": subdivision_graph,
        "middle": middle_graph,
    }[args.op]
    H = op(G)
    print(to_graph6(H))
    if args.labels:
        print(json.dumps(_label_map(H), sort_keys=True))
    return 0


def _cmd_invariant(args) -> int:
    G = _graph_argument(args.graph6)
    kinds = [k.strip() for k in args.which.split(",") if k.strip()]
    if not kinds:
        raise SymbreakError(
            f"--which names no invariant; known: {', '.join(INVARIANT_FUNCTIONS)}"
        )
    for kind in kinds:
        if kind not in INVARIANT_FUNCTIONS:
            raise SymbreakError(
                f"unknown invariant {kind!r}; known: {', '.join(INVARIANT_FUNCTIONS)}"
            )
    for kind in kinds:
        iv = INVARIANT_FUNCTIONS[kind](G, witness_only=args.witness_only)
        payload = {"kind": iv.kind, "value": iv.value, "certified": iv.certified}
        if args.witness:
            payload["witness"] = _coloring_json(iv.witness)
        print(json.dumps(payload, sort_keys=False))
    return 0


def _cmd_aut(args) -> int:
    G = _graph_argument(args.graph6)
    aut = automorphism_group(G)
    print(aut.order)
    if args.list:
        for p in aut.elements:
            print(" ".join(str(i) for i in p))
    return 0


_CONSTRUCTIONS = {
    "exceptional": exceptional_endline_coloring,
    "thm28": endline_extension_coloring,
    "lift": subdivision_lift_coloring,
    "thm47": subdivision_proper_distinguishing,
}


def _cmd_construct(args) -> int:
    res = _CONSTRUCTIONS[args.which](_graph_by_name_or_graph6(args.graph))
    payload = {
        "construction": args.which,
        "graph6": to_graph6(res.graph),
        "palette": res.palette,
        "coloring": _coloring_json(res.coloring),
        "certification": {
            "proper": res.proper,
            "distinguishing": res.distinguishing,
            "used_fallback": res.used_fallback,
        },
    }
    print(json.dumps(payload, sort_keys=False))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symbreak",
        description="Exact symmetry-breaking invariants of small graphs and "
        "verification sweeps over exhaustive corpora.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="enumerate small graphs up to isomorphism as graph6")
    p.add_argument("--max-order", type=int, required=True)
    p.add_argument("--min-order", type=int, default=1)
    p.add_argument("--connected", action="store_true", help="connected graphs only")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("verify", help="run one verification sweep")
    p.add_argument("--theorem", required=True, choices=sorted(CHECKS))
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--corpus", help="graph6 corpus file")
    src.add_argument("--builtin", type=int, help="builtin corpus up to this order")
    p.add_argument("--jobs", type=int, default=1, help="worker processes, at least 1")
    p.add_argument("--out")
    p.add_argument("--format", choices=["json", "tsv"], default="json")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("transform", help="apply a graph transformation")
    p.add_argument("--op", required=True, choices=["line", "endline", "subdivision", "middle"])
    p.add_argument("--graph6", help="input graph6 line (default: read stdin)")
    p.add_argument("--labels", action="store_true", help="also print the label map as JSON")
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("invariant", help="compute invariants of one graph")
    p.add_argument("--which", required=True, help="comma list of chi,D,chiD,Dp,chiDp,Dpp")
    p.add_argument("--graph6", help="input graph6 line (default: read stdin)")
    p.add_argument("--witness", action="store_true")
    p.add_argument(
        "--witness-only",
        action="store_true",
        help="upper-bound mode: skip exhaustive certification (bypasses the 30-position "
        "certification cap; the automorphism caps still apply)",
    )
    p.set_defaults(func=_cmd_invariant)

    p = sub.add_parser("aut", help="automorphism group of one graph")
    p.add_argument("--graph6", help="input graph6 line (default: read stdin)")
    p.add_argument("--list", action="store_true", help="print every permutation")
    p.set_defaults(func=_cmd_aut)

    p = sub.add_parser("construct", help="build one of the explicit colorings")
    p.add_argument("--which", required=True, choices=list(_CONSTRUCTIONS))
    p.add_argument("--graph", required=True, help="graph name (C6, K4, K3,3, ...) or graph6")
    p.set_defaults(func=_cmd_construct)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # Checked before dispatch: inside a sweep a bad value would turn into
        # per-record errors and read as a counterexample.
        vertex_cap(None, DEFAULT_VERTEX_CAP)
        return args.func(args)
    except SymbreakError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
