"""Per-layer tracing from outside the program.

:class:`Tracer` replaces public functions of ``frontdoor`` with wrappers
that open a span around each call.  ``search.py``, ``listing.py`` and
``cli.py`` bind the functions they use at import time, so the wrappers go
into the namespaces of the modules that call them.  Spans nest on one
stack; a span's self time is its duration minus the durations of the
spans it directly encloses.  Spans are folded into per-name totals as
they close, so memory stays flat however many calls a run makes.
"""

from __future__ import annotations

import functools
import gc
import time
from collections import defaultdict

clock = time.perf_counter

# spans reported as "<name>.calls" and "<name>.s" (self time), as "<name>.s"
# only, and as "<name>.total_s" (including the spans inside)
SPAN_CALLS_AND_SELF = (
    "graph.moral_after_cut",
    "graph.expand_latents",
    "separation.is_separated",
    "separation.causal_path_graph",
    "separation.connecting_path",
    "search.check_criterion",
    "search.extension",
    "search.observed_neighbors",
    "textformat.parse",
)
SPAN_SELF_ONLY = (
    "search.stage1",
    "search.stage2",
    "search.interception",
    "listing.prepare",
    "estimand.render",
)
SPAN_TOTAL = ("search.find", "search.stage1", "search.stage2")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name in SPAN_CALLS_AND_SELF:
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
    for name in SPAN_SELF_ONLY:
        units[f"{name}.s"] = "s"
    for name in SPAN_TOTAL:
        units[f"{name}.total_s"] = "s"
    units.update({
        "cli.self_s": "s",
        "listing.feasibility_checks": "count",
        "listing.checks_per_set": "checks/set",
        "listing.max_checks_per_gap": "count",
        "listing.extensions_per_set": "ext/set",
        "runtime.gc.collections": "count",
        "runtime.gc.s": "s",
        "trace.overhead_pct": "%",
    })
    return units


class Tracer:
    def __init__(self, prog):
        self.prog = prog
        self.stack: list[list] = []  # open spans: [name, time in children, start]
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.sets = 0
        self.checks = 0
        self.max_gap_checks = 0
        self.gc_collections = 0
        self.gc_s = 0.0
        self._gc_t0 = 0.0
        self._patched: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> list:
        frame = [name, 0.0, clock()]
        self.stack.append(frame)
        return frame

    def _close(self, frame: list) -> None:
        dur = clock() - frame[2]
        self.stack.pop()
        name = frame[0]
        self.calls[name] += 1
        self.total_s[name] += dur
        self.self_s[name] += dur - frame[1]
        if self.stack:
            self.stack[-1][1] += dur

    def _span(self, fn, name: str, under: tuple[str, str] | None = None):
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = under[1] if under and stack and stack[-1][0] == under[0] else name
            frame = self._open(span)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(frame)

        return wrapper

    def _listing(self, fn):
        ListStats = self.prog.listing.ListStats

        @functools.wraps(fn)
        def wrapper(*args, stats=None, **kwargs):
            stats = ListStats() if stats is None else stats
            return self._walk(fn(*args, stats=stats, **kwargs), stats)

        return wrapper

    def _walk(self, stream, stats):
        """Count feasibility checks per gap between two emitted sets."""
        last = None
        try:
            for z in stream:
                if last is not None:
                    self.max_gap_checks = max(self.max_gap_checks, stats.find_calls - last)
                last = stats.find_calls
                self.sets += 1
                yield z
        finally:
            self.checks += stats.find_calls

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_t0 = clock()
        else:
            self.gc_s += clock() - self._gc_t0
            self.gc_collections += 1

    # -- install / remove ----------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        p = self.prog
        admg, searcher = p.graph.ADMG, p.search.BlockingSearch
        plan = [
            (admg, "moral_after_cut", "graph.moral_after_cut"),
            (admg, "expand_latents", "graph.expand_latents"),
            (p.listing, "is_separated", "separation.is_separated"),
            (p.search, "causal_path_graph", "separation.causal_path_graph"),
            (p.listing, "causal_path_graph", "separation.causal_path_graph"),
            (p.search, "connecting_path", "separation.connecting_path"),
            (p.search, "check_criterion", "search.check_criterion"),
            (p.search, "second_condition_candidates", "search.stage1"),
            (p.search, "third_condition_candidates", "search.stage2"),
            (p.search, "find_adjustment_set", "search.find"),
            (searcher, "extension", "search.extension"),
            (searcher, "prepare", "listing.prepare"),
            (p.search, "observed_neighbors", "search.observed_neighbors"),
        ]
        if p.cli is not None:
            plan += [
                (p.cli, "main", "cli.main"),
                (p.cli, "parse_graph_file", "textformat.parse"),
                (p.cli, "check_criterion", "search.check_criterion"),
                (p.cli, "find_adjustment_set", "search.find"),
                (p.cli, "adjustment_formula", "estimand.render"),
                (p.cli, "render_text", "estimand.render"),
                (p.cli, "render_json", "estimand.render"),
            ]
        for owner, attr, name in plan:
            self._patch(owner, attr, self._span(getattr(owner, attr), name))
        # is_separated called by find itself tests interception on the
        # causal path graph
        self._patch(p.search, "is_separated",
                    self._span(p.search.is_separated, "separation.is_separated",
                               under=("search.find", "search.interception")))
        self._patch(p.listing, "list_adjustment_sets", self._listing(p.listing.list_adjustment_sets))
        if p.cli is not None:
            self._patch(p.cli, "list_adjustment_sets", self._listing(p.cli.list_adjustment_sets))
        gc.callbacks.append(self._on_gc)

    def remove(self) -> None:
        gc.callbacks.remove(self._on_gc)
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    # -- results ---------------------------------------------------------------

    def metrics(self, rounds: int, overhead_pct: float) -> dict[str, float]:
        """Per-layer figures per round of the workload."""
        out: dict[str, float] = {}
        for name in SPAN_CALLS_AND_SELF:
            out[f"{name}.calls"] = self.calls.get(name, 0) / rounds
            out[f"{name}.s"] = self.self_s.get(name, 0.0) / rounds
        for name in SPAN_SELF_ONLY:
            out[f"{name}.s"] = self.self_s.get(name, 0.0) / rounds
        for name in SPAN_TOTAL:
            out[f"{name}.total_s"] = self.total_s.get(name, 0.0) / rounds
        extensions = self.calls.get("search.extension", 0)
        out.update({
            "cli.self_s": self.self_s.get("cli.main", 0.0) / rounds,
            "listing.feasibility_checks": self.checks / rounds,
            "listing.checks_per_set": self.checks / self.sets if self.sets else 0.0,
            "listing.max_checks_per_gap": self.max_gap_checks,
            "listing.extensions_per_set": extensions / self.sets if self.sets else 0.0,
            "runtime.gc.collections": self.gc_collections / rounds,
            "runtime.gc.s": self.gc_s / rounds,
            "trace.overhead_pct": overhead_pct,
        })
        return out
