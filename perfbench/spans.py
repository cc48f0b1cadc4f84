"""Outside-in layer tracing.

The program is not changed: :meth:`Tracer.install` replaces the package's
public functions, at the module attribute where their caller looks them up,
with a wrapper that records a span (name, start, end, parent span,
operation id) and the layer's counters.  :meth:`Tracer.uninstall` puts the
originals back.

Self time is folded per operation, so counts and self times cover every
operation of the traced run while memory stays bounded; the spans
themselves are kept in memory up to ``span_cap`` and written out when the
run ends.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable


def _is_hit(result: Any) -> int:
    return result is not None


@dataclass(frozen=True)
class Point:
    """One wrapped attribute: ``module.attr`` recorded as span ``span``."""

    module: str
    attr: str
    span: str
    counter: str | None = None  # counter fed from the return value
    count: Callable[[Any], int] | None = None


# Each function is wrapped where its caller looks it up, so a call through
# another module's reference would be missed.  The benchmark's own calls go
# through fuzzygame.matrix / .solver / .oracle; the CLI's through fuzzygame.cli;
# the pipeline's phases through fuzzygame.solver; the check's oracle call
# through fuzzygame.oracle.
POINTS = (
    Point("fuzzygame.cli", "main", "cli.main"),
    Point("fuzzygame.cli", "parse_matrix", "matrix.parse_matrix"),
    Point("fuzzygame.matrix", "parse_matrix", "matrix.parse_matrix"),
    Point("fuzzygame.solver", "submatrix", "matrix.submatrix"),
    Point("fuzzygame.solver", "di_fuzzy", "fuzzy.di_fuzzy"),
    Point("fuzzygame.cli", "solve_pipeline", "solver.solve_pipeline"),
    Point("fuzzygame.solver", "solve_pipeline", "solver.solve_pipeline"),
    Point("fuzzygame.solver", "find_saddle", "solver.find_saddle", "hits", _is_hit),
    Point("fuzzygame.solver", "reduce_dominance", "solver.reduce_dominance",
          "deletions", lambda result: len(result.trace)),
    Point("fuzzygame.solver", "row_dominates", "solver.row_dominates", "hits", _is_hit),
    Point("fuzzygame.solver", "col_dominates", "solver.col_dominates", "hits", _is_hit),
    Point("fuzzygame.solver", "convex_row_dominates", "solver.convex_row_dominates",
          "hits", _is_hit),
    Point("fuzzygame.solver", "convex_col_dominates", "solver.convex_col_dominates",
          "hits", _is_hit),
    Point("fuzzygame.solver", "solve_2x2", "solver.solve_2x2"),
    Point("fuzzygame.solver", "enumerate_subgames", "solver.enumerate_subgames"),
    Point("fuzzygame.oracle", "oracle_value", "oracle.oracle_value"),
    Point("fuzzygame.oracle", "oracle_check", "oracle.oracle_check"),
)

# Exceptions counted per span: (span, exception class name) -> counter.
RAISE_COUNTERS = {("solver.solve_pipeline", "NotReducibleError"): "not_reducible"}


def self_times(spans: list[list[int]]) -> list[int]:
    """Self time of each span: its duration minus what its children cover.

    ``spans`` holds ``[name_id, parent, start, end]`` records in start order,
    ``parent`` being an index into ``spans`` or -1.  A child's interval is
    clipped to its parent's, and overlapping children are counted once.
    """
    own = [end - start for _, _, start, end in spans]
    covered_to = [start for _, _, start, _ in spans]
    for _, parent, start, end in spans:
        if parent < 0:
            continue
        p_end = spans[parent][3]
        lo = max(start, covered_to[parent])
        hi = min(end, p_end)
        if hi > lo:
            own[parent] -= hi - lo
            covered_to[parent] = hi
    return own


class Tracer:
    """Span recorder for one traced run; not thread-safe (the benchmark has one client)."""

    def __init__(self, span_cap: int = 50_000) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_cap = span_cap
        # (operation, span index, name id, parent index, start ns, end ns)
        self.kept: list[tuple[int, int, int, int, int, int]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.counters: dict[str, int] = defaultdict(int)
        self._spans: list[list[int]] = []
        self._parent = -1
        self._op = 0
        self._installed: list[tuple[Any, str, Any]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, span: str, fn: Callable, counter: str | None = None,
             count: Callable[[Any], int] | None = None) -> Callable:
        nid = self._name_id(span)
        counters = self.counters
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            spans = self._spans
            parent = self._parent
            rec = [nid, parent, 0, 0]
            self._parent = len(spans)
            spans.append(rec)
            rec[2] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[3] = clock()
                self._parent = parent
                name = RAISE_COUNTERS.get((span, type(exc).__name__))
                if name is not None:
                    counters[f"{span}.{name}"] += 1
                raise
            rec[3] = clock()
            self._parent = parent
            if counter is not None:
                counters[f"{span}.{counter}"] += count(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def end_operation(self) -> None:
        """Fold the finished operation's spans into the totals and start the next one."""
        spans = self._spans
        names = self.names
        for (nid, parent, start, end), own in zip(spans, self_times(spans)):
            self.calls[names[nid]] += 1
            self.self_ns[names[nid]] += own
        room = self.span_cap - len(self.kept)
        for idx, (nid, parent, start, end) in enumerate(spans[:max(room, 0)]):
            self.kept.append((self._op, idx, nid, parent, start, end))
        self._spans = []
        self._parent = -1
        self._op += 1

    def install(self, points: tuple[Point, ...] = POINTS) -> None:
        for point in points:
            module = sys.modules[point.module]
            original = getattr(module, point.attr)
            self._installed.append((module, point.attr, original))
            setattr(module, point.attr,
                    self.wrap(point.span, original, point.counter, point.count))

    def uninstall(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    def write(self, path) -> None:
        """Write the kept spans as JSON lines, one span per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for op, idx, nid, parent, start, end in self.kept:
                fh.write(json.dumps({
                    "op": op, "span": idx, "name": self.names[nid],
                    "parent": parent, "start_ns": start, "end_ns": end,
                }) + "\n")
