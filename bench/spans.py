"""In-memory spans and counts recorded around calls into the program.

A span has a name, start, end, parent and the group it belongs to (one
pass over a workload's operations).  Spans stay in memory until the run
ends.  A layer's self time is its span's duration minus the time its
child spans cover.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    group: str


class Tracer:
    """Records spans only while ``on``; when off, ``span`` costs one
    generator round trip and records nothing."""

    def __init__(self):
        self.on = False
        self.group = ""
        self.spans: list[Span] = []
        self.counts: dict[tuple[str, str], float] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.on:
            yield
            return
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.group))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx].end = time.perf_counter()

    def count(self, name: str, value: float) -> None:
        if self.on:
            self.counts[(self.group, name)] = value

    def self_times(self) -> dict[str, dict[str, list[float]]]:
        """group -> span name -> self time of each pass (summed per pass).

        A group name carries a ``#k`` suffix per pass; passes of one group
        are the list entries.
        """
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        per_pass: dict[tuple[str, str], float] = {}
        for i, s in enumerate(self.spans):
            key = (s.group, s.name)
            per_pass[key] = per_pass.get(key, 0.0) + (s.end - s.start) - child[i]
        out: dict[str, dict[str, list[float]]] = {}
        for (group, name), t in per_pass.items():
            base = group.split("#")[0]
            out.setdefault(base, {}).setdefault(name, []).append(t)
        return out


def layer_metrics(tracer: Tracer, order: list[str]) -> dict[str, float]:
    """Per span name, the median over passes of its self time in one pass
    (summed over the pass's calls), and the counts; each taken from the
    first group in ``order`` that recorded it."""
    times = tracer.self_times()
    out: dict[str, float] = {}
    for group in order:
        for name, vals in times.get(group, {}).items():
            # a span named like "cli.command_s.embed" already is a metric name
            key = name if "_s." in name else name + "_s"
            out.setdefault(key, statistics.median(vals))
    for group in order:
        for (g, name), value in tracer.counts.items():
            if g.split("#")[0] == group:
                out.setdefault(name, value)
    return out
