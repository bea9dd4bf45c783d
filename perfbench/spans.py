"""Benchmark-side spans: record them, nest them, split wall time by layer.

A span is a named interval (``start``/``end`` on one clock) that belongs to
one job (``job``: a case of a ``paper-*`` pass or one ``service-mix``
submission) and, once :meth:`SpanLog.link` has run, to a parent span.  The
benchmark records spans around its own calls into each layer, and may add
intervals the program already reports (spans of a ``repro.trace.Tracer``
passed to a public entry point, job timestamps from ``GET /jobs``).

Self time splits the root span's wall time across span names without
double counting: a span's *self intervals* are its interval minus those of
its children, and each instant of the run is shared equally among the self
intervals in progress at that instant.  With one thread of work (the
``paper-*`` workloads) that is the ordinary "duration minus children";
with overlapping jobs (``service-mix``) concurrent layers split the
instant.  Either way the self times add up to the root span exactly.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass
from typing import Iterator

#: span names that are the harness itself, not a layer of the program: their
#: self time is the ``residual_s`` of the layer-sum report
HARNESS_SPANS = frozenset({"pass", "case", "run", "job"})


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    job: str | None
    parent: int | None = None


class SpanLog:
    """Spans of one traced run, kept in memory until :meth:`write`."""

    enabled = True

    def __init__(self):
        self.spans: list[Span] = []

    @contextmanager
    def span(self, name: str, job: str | None = None) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, start, time.perf_counter(), job)

    def add(self, name: str, start: float, end: float,
            job: str | None = None) -> None:
        """Record an interval timed elsewhere (same clock as the run's)."""
        self.spans.append(Span(len(self.spans), name, start, max(start, end), job))

    def link(self) -> Span:
        """Set every span's parent by interval containment; return the root.

        The root is the one span without a job (``pass`` or ``run``).  Spans
        of one job nest among themselves; a job's outermost spans hang off
        the root.
        """
        roots = [s for s in self.spans if s.job is None]
        if len(roots) != 1:
            raise ValueError(f"expected one root span, found {len(roots)}")
        root = roots[0]
        by_job: dict[str, list[Span]] = defaultdict(list)
        for span in self.spans:
            if span.job is not None:
                by_job[span.job].append(span)
        for spans in by_job.values():
            spans.sort(key=lambda s: (s.start, -s.end, s.id))
            stack: list[Span] = []
            for span in spans:
                while stack and span.end > stack[-1].end:
                    stack.pop()
                span.parent = stack[-1].id if stack else root.id
                stack.append(span)
        return root

    def self_times(self) -> dict[str, float]:
        """Wall time attributed to each span name (see the module doc)."""
        root = self.link()
        children: dict[int, list[Span]] = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append(span)
        events: list[tuple[float, int, str]] = []
        for span in self.spans:
            for a, b in _subtract(span, children[span.id]):
                events.append((a, 1, span.name))
                events.append((b, -1, span.name))
        events.sort()
        shares: dict[str, float] = defaultdict(float)
        active: dict[str, int] = defaultdict(int)
        n_active = 0
        previous = root.start
        for t, delta, name in events:
            if n_active and t > previous:
                dt = t - previous
                for active_name, count in active.items():
                    if count:
                        shares[active_name] += dt * count / n_active
            previous = max(previous, t)
            active[name] += delta
            n_active += delta
        return dict(shares)

    def write(self, path) -> None:
        with open(path, "w") as handle:
            json.dump([asdict(s) for s in self.spans], handle)


class NullSpanLog:
    """The untraced stand-in: every span is a no-op."""

    enabled = False

    def span(self, name: str, job: str | None = None):
        return nullcontext()


def _subtract(span: Span, children: list[Span]) -> list[tuple[float, float]]:
    """``span``'s interval minus the union of its children's intervals."""
    pieces = []
    cursor = span.start
    for child in sorted(children, key=lambda c: c.start):
        if child.start > cursor:
            pieces.append((cursor, min(child.start, span.end)))
        cursor = max(cursor, child.end)
    if cursor < span.end:
        pieces.append((cursor, span.end))
    return [(a, b) for a, b in pieces if b > a]


def layer_report(workload: str, self_times: dict[str, float], wall_s: float,
                 overhead_ratio: float) -> tuple[list[str], float, float]:
    """The layer-sum table of one traced run, the sum of the layers' self
    times, and ``residual_s`` (the self time of the harness spans).  Layers plus residual should equal the
    measured ``wall_s``; the table shows both so a gap is visible."""
    layers = {n: s for n, s in self_times.items() if n not in HARNESS_SPANS}
    layer_sum = sum(layers.values())
    residual = sum(s for n, s in self_times.items() if n in HARNESS_SPANS)
    lines = [f"layer-sum report: {workload}",
             f"  {'layer (self time)':<28}{'s':>12}{'share':>9}"]
    for name, seconds in sorted(layers.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {name:<28}{seconds:>12.4f}{seconds / wall_s:>9.1%}")
    lines += [
        f"  {'sum of layers':<28}{layer_sum:>12.4f}{layer_sum / wall_s:>9.1%}",
        f"  {'residual_s':<28}{residual:>12.4f}{residual / wall_s:>9.1%}",
        f"  {'wall_s (traced)':<28}{wall_s:>12.4f}",
        f"  {'layers + residual':<28}{layer_sum + residual:>12.4f}",
        f"  {'trace.overhead_ratio':<28}{overhead_ratio:>12.4f}",
    ]
    return lines, layer_sum, residual
