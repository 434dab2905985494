#!/usr/bin/env python3
"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record.py

Run from the root of a checkout whose outputs are known to be right.  It
writes perfbench/expected.json: for every sweep of both sweep workloads the
SHA-256 of the report bytes and the record count, and for the fixed query
draw each query's (graph index, transform, kind, value).  The values are
certified, and every witness is re-checked here as the benchmark does.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys

from run import HERE, ORDER7, ROOT, WORKLOADS, Queries, Sweeps, draw_queries, load_symbreak


def record_sweeps(sb, workload: Sweeps) -> dict:
    out = {}
    for check in workload.checks:
        sb.clear_invariant_cache()
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = sb.cli.main(["verify", "--theorem", check, *workload.corpus_args])
        text = buf.getvalue()
        if code != 0:
            raise SystemExit(f"{workload.name} {check}: exit code {code}")
        out[check] = {
            "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
            "records": len(json.loads(text)["records"]),
        }
        print(workload.name, check, out[check], file=sys.stderr)
    return out


def record_queries(sb) -> dict:
    queries, dropped = draw_queries(sb, sb.read_graph6_file(ORDER7))
    draw = []
    for gi, tname, kind, H in queries:
        sb.clear_invariant_cache()
        iv = sb.INVARIANT_FUNCTIONS[kind](H)
        if not Queries._valid(sb, kind, H, iv.value, iv):
            raise SystemExit(f"query {gi} {tname} {kind}: invalid answer {iv}")
        draw.append([gi, tname, kind, iv.value])
    return {"dropped_by_cap": dropped, "draw": draw}


def main() -> int:
    os.chdir(ROOT)
    sb = load_symbreak()
    sweeps = {name: record_sweeps(sb, w) for name, w in WORKLOADS.items() if isinstance(w, Sweeps)}
    queries = record_queries(sb)
    # One query per line keeps the file readable and its diffs small.
    draw = ",\n".join("   " + json.dumps(q) for q in queries["draw"])
    text = (
        '{\n "sweeps": ' + json.dumps(sweeps, indent=1).replace("\n", "\n ") + ",\n"
        f' "queries": {{\n  "dropped_by_cap": {queries["dropped_by_cap"]},\n'
        f'  "draw": [\n{draw}\n  ]\n }}\n}}\n'
    )
    json.loads(text)
    with open(HERE / "expected.json", "w", encoding="utf-8") as fh:
        fh.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
