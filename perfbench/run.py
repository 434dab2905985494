#!/usr/bin/env python3
"""The symbreak benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.  All
load is serial: one process acts as one closed-loop client and sends its
next call only when the previous one has returned.

Workloads (see perfbench/NOTES.md for why each was chosen):

* ``builtin6-sweeps``: all 13 ``symbreak verify`` sweeps over the builtin
  corpus of orders 3..6, enumerated once in set-up.
* ``order7-sweeps``: the 11 sweeps other than thm-2.8 and cor-3.5 over
  ``data/connected_order7.g6``.
* ``invariant-queries``: a fixed draw of 2,000 single-graph
  ``INVARIANT_FUNCTIONS[kind](H)`` calls on transformed order-7 graphs,
  sent in an order drawn from ``--seed``.

With ``--trace 0`` the timed phase repeats whole passes over the workload
until ``--seconds`` have passed and reports the end-to-end metrics, each
time scaled by the host's speed while it was taken (perfbench/hostspeed.py).
With ``--trace 1`` it makes exactly one pass, so that every counter is
deterministic, with every layer's public functions wrapped from outside
(perfbench/tracing.py), and reports the per-layer metrics.

Every output is checked after its pass, outside the timed region: each
sweep's report bytes against the SHA-256 recorded in perfbench/expected.json,
each query's value against the recorded value and its witness with the
package's independent checkers.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import importlib
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from hostspeed import REFERENCE_S, ScaledClock
from tracing import Tracer, span_overhead_s

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

ORDER7 = "data/connected_order7.g6"  # relative: the path is part of the report bytes
# cor-3.5 goes last, so that the other sweeps' many short records are timed
# before its star rows have put a 362,880-element group on the heap.
ALL_CHECKS = (
    "fact-2.3-1", "fact-2.3-3", "lemma-2.4", "lemma-2.5", "lemma-4.2", "lemma-4.3",
    "lemma-4.4", "remark-4.8", "thm-2.8", "thm-3.3", "thm-4.5", "thm-4.7", "cor-3.5",
)
TRANSFORMS = ("none", "line", "endline", "subdivision", "middle")
KINDS = ("chi", "D", "chiD", "Dp", "chiDp", "Dpp")
EDGE_KINDS = ("Dp", "chiDp", "Dpp")
PROPER_KINDS = ("chi", "chiD", "chiDp")
CERTIFY_CAP = 30  # symbreak.invariants.DEFAULT_CERTIFY_CAP
QUERIES = 2000
QUERY_DRAW_SEED = 0


def load_symbreak():
    """Import the package from the checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "symbreak" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no symbreak package under {src}")
    sys.path.insert(0, str(src))
    sb = importlib.import_module("symbreak")
    importlib.import_module("symbreak.cli")  # the package does not import its CLI itself
    if Path(sb.__file__).resolve().parent != src / "symbreak":
        raise SystemExit(f"perfbench: imported symbreak from {sb.__file__}, not {src}")
    return sb


def positions(H, kind: str) -> int:
    """Colour positions the exact search certifies over, as the cap counts them."""
    if kind in ("chi", "D", "chiD"):
        return H.n
    if kind in ("Dp", "chiDp"):
        return H.num_edges
    return H.n + H.num_edges


def transform(sb, name: str, G):
    return G if name == "none" else getattr(sb.transforms, f"{name}_graph")(G)


def load_expected() -> dict:
    with open(HERE / "expected.json", encoding="utf-8") as fh:
        return json.load(fh)


def draw_queries(sb, graphs) -> tuple[list[tuple], int]:
    """QUERIES draws of (graph, transform, kind) with the transform applied.

    A draw is kept only if the exact search would accept it: at most
    CERTIFY_CAP positions, and edges when the kind colours edges.  The draw
    seed is fixed so that every run measures the same set of queries; the
    benchmark's --seed then fixes the order they are sent in.  A seeded
    draw would put the few queries of 0.1 s to 1.8 s (out of a median of
    0.5 ms) in some runs and not others, and run_s would spread by about
    0.45 of its median across seeds (see perfbench/NOTES.md).
    """
    rng = random.Random(QUERY_DRAW_SEED)
    queries, dropped = [], 0
    while len(queries) < QUERIES:
        gi = rng.randrange(len(graphs))
        tname = rng.choice(TRANSFORMS)
        kind = rng.choice(KINDS)
        H = transform(sb, tname, graphs[gi])
        if positions(H, kind) > CERTIFY_CAP or (kind in EDGE_KINDS and H.num_edges == 0):
            dropped += 1
            continue
        queries.append((gi, tname, kind, H))
    return queries, dropped


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def timed_records(registry: dict, checks, spans: list):
    """Time each record a sweep evaluates, through the public CHECKS registry.

    A sweep looks its check up in CHECKS for every graph, so swapping in a
    timed copy of the entry times each per-graph evaluation, and each call
    of the fixed extra rows (star, cycle and sharpness rows) as one
    (start, end) span of perf_counter() readings, appended to ``spans``.
    """
    def timed(fn):
        def call(*args):
            start = time.perf_counter()
            try:
                return fn(*args)
            finally:
                spans.append((start, time.perf_counter()))
        return call

    saved = {c: registry[c] for c in checks}
    for c, check in saved.items():
        extra = check.extra_rows and timed(check.extra_rows)
        registry[c] = dataclasses.replace(check, evaluate=timed(check.evaluate), extra_rows=extra)
    try:
        yield
    finally:
        registry.update(saved)


class Sweeps:
    """Each sweep is one ``symbreak verify`` call through ``cli.main``; each
    record of its report is one operation, timed by ``timed_records``."""

    def __init__(self, name: str, checks: tuple[str, ...], corpus_args: list[str], expect_calls):
        self.name = name
        self.checks = checks
        self.corpus_args = corpus_args
        self.expect_calls = expect_calls

    def setup(self, sb, seed: int, expected: dict):
        if self.corpus_args[0] == "--builtin":
            spec = sb.CorpusSpec(source="builtin", max_order=6, min_order=3)
        else:
            spec = sb.CorpusSpec(source="file", path=ORDER7, max_order=62)
        return {"corpus": len(sb.enumerate_corpus(spec))}

    def describe(self, state) -> list[str]:
        return [f"corpus graphs: {state['corpus']}, sweeps: {len(self.checks)}"]

    def run_pass(self, sb, state, failures: Counter, spans: list):
        """One pass; appends each record's span to ``spans`` and returns the
        raw outputs."""
        outputs = []
        with timed_records(sb.CHECKS, self.checks, spans):
            for check in self.checks:
                sb.clear_invariant_cache()
                out, err = io.StringIO(), io.StringIO()
                try:
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        code = sb.cli.main(["verify", "--theorem", check, *self.corpus_args])
                except Exception as exc:  # a program failure is a failed operation
                    code = None
                    failures[type(exc).__name__] += 1
                outputs.append((check, code, out.getvalue()))
        return outputs

    def verify(self, sb, state, outputs, expected, failures: Counter) -> tuple[int, int]:
        attempted = failed = 0
        for check, code, text in outputs:
            want = expected["sweeps"][self.name][check]
            attempted += want["records"]
            if code is None or code == 2:  # raised, or refused its input
                failed += want["records"]
                if code == 2:
                    failures["exit code 2"] += 1
                continue
            bad = sum(r["status"] in ("fail", "error") for r in json.loads(text)["records"])
            if hashlib.sha256(text.encode("utf-8")).hexdigest() != want["sha256"]:
                failures["report digest mismatch"] += 1
                bad = max(bad, 1)
            failed += bad
        return attempted, failed


class Queries:
    """Each operation is one ``INVARIANT_FUNCTIONS[kind](H)`` call with the
    memo cleared first, as a one-shot ``symbreak invariant`` would see it."""

    name = "invariant-queries"
    expect_calls = (
        "automorphism_group", "chromatic_number", "distinguishing_number",
        "distinguishing_chromatic_number", "distinguishing_index",
        "distinguishing_chromatic_index", "total_distinguishing_number",
        "line_graph", "endline_graph", "subdivision_graph", "middle_graph",
        "read_graph6_file", "parse_graph6", "to_graph6",
    )

    def setup(self, sb, seed: int, expected: dict):
        graphs = sb.read_graph6_file(ORDER7)
        queries, dropped = draw_queries(sb, graphs)
        recorded = expected["queries"]["draw"]
        if [q[:3] for q in queries] != [tuple(r[:3]) for r in recorded]:
            raise SystemExit("perfbench: the query draw differs from perfbench/expected.json")
        queries = [q + (r[3],) for q, r in zip(queries, recorded)]
        random.Random(seed).shuffle(queries)
        return {"queries": queries, "dropped": dropped}

    def describe(self, state) -> list[str]:
        mix = Counter((t, k) for _, t, k, _, _ in state["queries"])
        lines = [f"queries: {len(state['queries'])}, draws dropped by the cap: {state['dropped']}"]
        for t in TRANSFORMS:
            lines.append(f"  {t:<12}" + " ".join(f"{k}={mix[(t, k)]}" for k in KINDS))
        return lines

    def run_pass(self, sb, state, failures: Counter, spans: list):
        table = sb.INVARIANT_FUNCTIONS
        clear = sb.clear_invariant_cache
        outputs = []
        for _, _, kind, H, _ in state["queries"]:
            clear()
            start = time.perf_counter()
            try:
                value = table[kind](H)
            except Exception as exc:  # a program failure is a failed operation
                value = None
                failures[type(exc).__name__] += 1
            spans.append((start, time.perf_counter()))
            outputs.append(value)
        return outputs

    def verify(self, sb, state, outputs, expected, failures: Counter) -> tuple[int, int]:
        checked = state.setdefault("checked", {})
        failed = 0
        for i, ((_, _, kind, H, want), iv) in enumerate(zip(state["queries"], outputs)):
            if iv is None:
                failed += 1
            elif checked.get(i) == iv:
                continue  # identical to an answer already validated below
            elif not self._valid(sb, kind, H, want, iv):
                failures[f"invalid {kind} answer"] += 1
                failed += 1
            else:
                checked[i] = iv
        return len(outputs), failed

    @staticmethod
    def _valid(sb, kind, H, want, iv) -> bool:
        if iv.kind != kind or iv.value != want or not iv.certified:
            return False
        if iv.witness.palette != iv.value:
            return False
        if kind in PROPER_KINDS and not sb.is_proper(H, iv.witness):
            return False
        return kind == "chi" or sb.is_distinguishing(H, iv.witness)


_SWEEP7 = tuple(c for c in ALL_CHECKS if c not in ("thm-2.8", "cor-3.5"))
_COMMON_CALLS = (
    "main", "run_check", "emit_report", "enumerate_corpus", "automorphism_group",
    "canonical_labeling", "is_isomorphic", "is_distinguishing", "is_proper", "preserves",
    "chromatic_number", "distinguishing_number", "distinguishing_chromatic_number",
    "distinguishing_chromatic_index", "total_distinguishing_number",
    "line_graph", "endline_graph", "subdivision_graph", "middle_graph",
    "exception_name", "subdivision_proper_distinguishing", "parse_graph6", "to_graph6",
)
WORKLOADS = {
    "builtin6-sweeps": Sweeps(
        "builtin6-sweeps", ALL_CHECKS, ["--builtin", "6"],
        _COMMON_CALLS + (
            "canonical_form", "distinguishing_index", "exceptional_endline_coloring",
            "endline_extension_coloring",
        ),
    ),
    "order7-sweeps": Sweeps(
        "order7-sweeps", _SWEEP7, ["--corpus", ORDER7], _COMMON_CALLS + ("read_graph6_file",)
    ),
    "invariant-queries": Queries(),
}
SETUP_SAMPLES = 3


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------

def timed_setup(workload, seed: int, expected: dict):
    """Import the package and build the workload's inputs, timed together.

    Returns the scaled and the unscaled seconds (perfbench/hostspeed.py).
    """
    with ScaledClock() as clock:
        start = time.perf_counter()
        sb = load_symbreak()
        state = workload.setup(sb, seed, expected)
        end = time.perf_counter()
    return (clock.scale(start, end), clock.unscaled(start, end)), sb, state


def child_setup_seconds(name: str, seed: int) -> tuple[float, float]:
    """One set-up in a fresh interpreter, so that the import is paid again."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", name, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: set-up of {name} failed in a child process")
    scaled, raw = proc.stdout.split()[-2:]
    return float(scaled), float(raw)


PERCENTILE_BAND = 0.01


def percentile(values: list[float], q: float) -> float:
    """The mean of the values ranked within half of PERCENTILE_BAND of the
    q-quantile.

    A single order statistic jumps when operations of nearly equal cost swap
    ranks across a gap in the distribution: on builtin6-sweeps the record at
    the 99th percentile costs either about 24 ms or about 30 ms from one pass
    to the next.  The mean over a band of one percentile point of ranks
    moves smoothly instead.
    """
    ordered = sorted(values)
    n = len(ordered)
    lo = max(0, math.ceil((q - PERCENTILE_BAND / 2) * n) - 1)
    hi = max(lo + 1, min(n, math.ceil((q + PERCENTILE_BAND / 2) * n)))
    return statistics.fmean(ordered[lo:hi])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    os.chdir(ROOT)
    workload = WORKLOADS[args.workload]

    expected = load_expected()
    if args.setup_only:
        scaled, raw = timed_setup(workload, args.seed, expected)[0]
        print(f"{scaled:.9f} {raw:.9f}")
        return 0

    tracer = None
    if args.trace:
        # Wrap after the import and before the inputs are built, so that the
        # set-up's corpus and canonical-form work is traced too.
        sb = load_symbreak()
        tracer = Tracer()
        tracer.install(sb)
        state = workload.setup(sb, args.seed, expected)
    else:
        setups = [child_setup_seconds(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]
        seconds, sb, state = timed_setup(workload, args.seed, expected)
        setups.append(seconds)
    for line in workload.describe(state):
        print(line)

    failures: Counter = Counter()
    spans: list[tuple[float, float]] = []  # one per operation
    passes: list[tuple[float, float]] = []
    attempted = failed = 0
    # A timed run scales its times by the host's speed (perfbench/hostspeed.py);
    # a traced run makes one pass and reports only the tracer's figures.
    with contextlib.nullcontext() if tracer else ScaledClock() as clock:
        phase_start = time.perf_counter()
        while True:
            start = time.perf_counter()
            outputs = workload.run_pass(sb, state, failures, spans)
            passes.append((start, time.perf_counter()))
            with tracer.paused() if tracer else contextlib.nullcontext():
                a, f = workload.verify(sb, state, outputs, expected, failures)
            attempted += a
            failed += f
            if tracer or time.perf_counter() - phase_start >= args.seconds:
                break

    correct = failed == 0
    if tracer:
        tracer.uninstall()
        missing = tracer.uncalled(workload.expect_calls)
        if missing:
            print(f"self-check: no calls recorded for {', '.join(missing)}", file=sys.stderr)
            correct = False
        metrics = tracer.metrics()
        metrics["tracing.overhead_s"] = (span_overhead_s() * len(tracer.spans), "s")
        tracer.write_spans(str(ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}.spans.jsonl"))
    else:
        latencies = [clock.scale(s, e) for s, e in spans]
        metrics = {
            "setup_s": (statistics.median(s for s, _ in setups), "s"),
            "run_s": (statistics.median(clock.scale(s, e) for s, e in passes), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "query_p50_ms": (percentile(latencies, 0.50) * 1e3, "ms"),
            "query_p99_ms": (percentile(latencies, 0.99) * 1e3, "ms"),
        }
        print(f"unscaled: setup_s {statistics.median(u for _, u in setups)}, "
              f"run_s {statistics.median(clock.unscaled(s, e) for s, e in passes)}; "
              f"host speed samples {len(clock.samples)}, median "
              f"{statistics.median(clock.samples) * 1e3:.3f} ms against {REFERENCE_S * 1e3:.3f} ms")
    for kind, n in sorted(failures.items()):
        print(f"failure: {kind} x{n}", file=sys.stderr)
    print(f"passes {len(passes)}, operations {attempted}, failed {failed}, "
          f"failed_ratio {failed / attempted if attempted else 0.0:.6f}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
