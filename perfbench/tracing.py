"""Outside-in tracing of symbreak's layers.

Each public function listed in LAYERS is replaced by a timing wrapper in
every ``symbreak.*`` module namespace that holds it (``from .x import f``
gives each importing module its own reference), and in the
``INVARIANT_FUNCTIONS`` table.  A span is recorded per call: name, start,
end and the span that caused it.  A layer's self time is its spans' time
minus the time of the child spans they contain.  Nothing under ``src/`` is
changed; the wrappers are removed again by ``Tracer.uninstall``.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
import weakref
from collections import Counter
from contextlib import contextmanager

INVARIANT_KINDS = {
    "chi": "chromatic_number",
    "D": "distinguishing_number",
    "chiD": "distinguishing_chromatic_number",
    "Dp": "distinguishing_index",
    "chiDp": "distinguishing_chromatic_index",
    "Dpp": "total_distinguishing_number",
}


def _functions(module: str, *names: str) -> tuple[tuple[str, str], ...]:
    return tuple((module, name) for name in names)


# layer -> the public functions, as (module, name), timed as that layer
LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    "harness.corpus": _functions("harness", "enumerate_corpus"),
    "harness.sweep": _functions("harness", "run_check"),
    "harness.report": _functions("harness", "emit_report"),
    "cli": _functions("cli", "main"),
    "symmetry.aut": _functions("symmetry", "automorphism_group"),
    "symmetry.canon": _functions("symmetry", "canonical_form", "canonical_labeling", "is_isomorphic"),
    "checkers": _functions("invariants", "is_distinguishing", "is_proper")
    + _functions("symmetry", "preserves", "stabilizer"),
    **{f"invariants.{k}": _functions("invariants", f) for k, f in INVARIANT_KINDS.items()},
    "transforms": _functions(
        "transforms", "line_graph", "endline_graph", "subdivision_graph", "middle_graph"
    ),
    "constructions": _functions(
        "constructions",
        "exception_name",
        "exceptional_endline_coloring",
        "endline_extension_coloring",
        "subdivision_proper_distinguishing",
        "lift_total_to_subdivision",
        "restrict_subdivision_to_total",
    ),
    "graph_core.graph6": _functions("graph_core", "parse_graph6", "to_graph6", "read_graph6_file"),
}


class Tracer:
    """Records spans and work counters for wrapped symbreak functions."""

    def __init__(self) -> None:
        self.active = True
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.stack: list[list] = []  # [span id, child seconds]
        self.calls: Counter = Counter()  # per function
        self.layer_calls: Counter = Counter()
        self.layer_self: Counter = Counter()
        self.counts: Counter = Counter()
        self._groups: dict[int, weakref.ref] = {}
        self._memo: dict[tuple, object] = {}
        self._restore: list[tuple[object, str, object]] = []
        self._table_restore: dict[str, object] = {}

    # -- installation -----------------------------------------------------

    def install(self, package) -> None:
        """Rebind every listed function in every loaded symbreak module."""
        observers = self._observers()
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == package.__name__ or name.startswith(package.__name__ + "."))
        ]
        for layer, funcs in LAYERS.items():
            for modname, fname in funcs:
                original = getattr(sys.modules[f"{package.__name__}.{modname}"], fname)
                wrapped = self._wrap(layer, fname, original, observers.get(fname))
                for mod in modules:
                    if getattr(mod, fname, None) is original:
                        self._restore.append((mod, fname, original))
                        setattr(mod, fname, wrapped)
        table = sys.modules[f"{package.__name__}.invariants"].INVARIANT_FUNCTIONS
        home = sys.modules[f"{package.__name__}.invariants"]
        for kind, fname in INVARIANT_KINDS.items():
            self._table_restore[kind] = table[kind]
            table[kind] = getattr(home, fname)
        self._table = table

    def uninstall(self) -> None:
        for mod, fname, original in reversed(self._restore):
            setattr(mod, fname, original)
        self._table.update(self._table_restore)
        self._restore.clear()

    @contextmanager
    def paused(self):
        """Calls made inside run unrecorded (e.g. the benchmark's own checks)."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    # -- recording --------------------------------------------------------

    def _wrap(self, layer: str, fname: str, fn, observe=None):
        spans, stack = self.spans, self.stack
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = len(spans)
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            spans.append(None)  # reserve the id; filled in below
            stack.append(frame)
            before = observe.before(args, kwargs) if observe and observe.before else None
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                dur = end - start
                self.layer_self[layer] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                spans[sid] = (sid, parent, fname, start, end)
                self.calls[fname] += 1
                self.layer_calls[layer] += 1
            if observe:
                observe.after(args, kwargs, result, before)
            return result

        return wrapper

    def _observers(self) -> dict:
        return {
            "enumerate_corpus": _Obs(after=lambda a, k, r, b: self._add("harness.corpus.graphs", len(r))),
            "run_check": _Obs(after=lambda a, k, r, b: self._add("harness.sweep.records", len(r.records))),
            "emit_report": _Obs(before=_stdout_position, after=self._report_bytes),
            "automorphism_group": _Obs(after=self._aut_returned),
            "endline_extension_coloring": _Obs(after=self._construction),
            "exceptional_endline_coloring": _Obs(after=self._construction),
            "subdivision_proper_distinguishing": _Obs(after=self._construction),
            **{f: _Obs(after=self._invariant_returned(kind)) for kind, f in INVARIANT_KINDS.items()},
        }

    def _add(self, key: str, n: int) -> None:
        self.counts[key] += n

    def _report_bytes(self, args, kwargs, result, before) -> None:
        after = _stdout_position(args, kwargs)
        if before is not None and after is not None:
            self.counts["harness.report.bytes"] += after - before

    def _aut_returned(self, args, kwargs, group, before) -> None:
        ref = self._groups.get(id(group))
        if ref is not None and ref() is group:
            self.counts["symmetry.aut.reused"] += 1
        else:
            self._groups[id(group)] = weakref.ref(group)
            self.counts["symmetry.aut.elements"] += group.order

    def _construction(self, args, kwargs, result, before) -> None:
        self.counts["constructions.fallbacks"] += int(result.used_fallback)

    def _invariant_returned(self, kind: str):
        def after(args, kwargs, value, before) -> None:
            # A memo hit hands back the very object an earlier call returned
            # for the same graph; a fresh computation builds a new one.
            G = args[0]
            key = (kind, G.n, G.edges)
            if self._memo.get(key) is value:
                self.counts["invariants.memo_hits"] += 1
            else:
                self._memo[key] = value

        return after

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        c, calls = self.counts, self.layer_calls
        out: dict[str, tuple[float, str]] = {}

        def layer(name: str, *extra: tuple[str, str, float]) -> None:
            if name not in ("harness.corpus", "harness.sweep", "harness.report", "cli"):
                out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.self_s"] = (float(self.layer_self[name]), "s")
            for metric, unit, value in extra:
                out[f"{name}.{metric}"] = (value, unit)

        layer("harness.corpus", ("graphs", "count", c["harness.corpus.graphs"]))
        layer("harness.sweep", ("records", "count", c["harness.sweep.records"]))
        layer("harness.report", ("bytes", "bytes", c["harness.report.bytes"]))
        layer("cli")
        layer(
            "symmetry.aut",
            ("elements", "count", c["symmetry.aut.elements"]),
            ("reuse_ratio", "ratio", _ratio(c["symmetry.aut.reused"], calls["symmetry.aut"])),
        )
        layer("symmetry.canon")
        layer("checkers")
        for kind in INVARIANT_KINDS:
            layer(f"invariants.{kind}")
        invariant_calls = sum(calls[f"invariants.{kind}"] for kind in INVARIANT_KINDS)
        out["invariants.memo_ratio"] = (_ratio(c["invariants.memo_hits"], invariant_calls), "ratio")
        layer("transforms")
        layer("constructions", ("fallbacks", "count", c["constructions.fallbacks"]))
        layer("graph_core.graph6")
        return out

    def uncalled(self, expected: tuple[str, ...]) -> list[str]:
        """Functions the workload should exercise that recorded no call."""
        return [f for f in expected if self.calls[f] == 0]

    def write_spans(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps([sid, parent, name, round(start, 9), round(end, 9)]) + "\n")


class _Obs:
    __slots__ = ("before", "after")

    def __init__(self, after, before=None) -> None:
        self.before = before
        self.after = after


def _stdout_position(args, kwargs):
    """Characters written so far to a captured standard output, where the
    report goes when no path is given (the JSON report is ASCII, so these
    are bytes); None when it cannot be told."""
    if kwargs.get("path", args[2] if len(args) > 2 else None) is not None:
        return None
    try:
        return sys.stdout.tell()
    except (OSError, ValueError, AttributeError):
        return None


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def span_overhead_s() -> float:
    """Median extra cost of one recorded span, from a wrapped no-op."""
    def noop(x):
        return x

    calls = 20000
    costs = []
    for _ in range(5):
        t = Tracer()
        wrapped = t._wrap("calibration", "noop", noop)
        start = time.perf_counter()
        for i in range(calls):
            noop(i)
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for i in range(calls):
            wrapped(i)
        traced = time.perf_counter() - start
        costs.append(max(traced - bare, 0.0) / calls)
    costs.sort()
    return costs[len(costs) // 2]
