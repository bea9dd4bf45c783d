"""Aggregation and rendering of JSONL trace files.

``stsyn trace-report run.jsonl`` prints the per-span wall-time breakdown
(the paper's per-pass times) with each span's self time, so the "% of
run" column adds up to 100%, then one table per counter section declared
in :mod:`repro.trace.counters` (BDD operations, heuristic passes,
portfolio, transport, certificates, service, fuzz).

Multiple files aggregate naturally: spans concatenate, counters sum
(each file's *last* cumulative snapshot wins within the file), so a
portfolio run's per-worker traces can be reported together or first
combined with :func:`merge_traces`.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from ..metrics.reporting import ResultTable, render_tables, safe_percent
from .counters import DECLARED, SECTIONS


def iter_events(path: str | os.PathLike) -> Iterator[dict]:
    """Yield the JSON events of one trace file, skipping malformed lines.

    A cancelled portfolio loser may have been killed mid-write; its last
    line can be truncated and must not poison the report.
    """
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(record, dict):
                yield record


@dataclass
class SpanAgg:
    """Aggregate of all closed spans sharing one name."""

    count: int = 0
    total: float = 0.0
    max: float = 0.0
    #: time of the instances that were root spans (no parent)
    root_total: float = 0.0

    def add(self, dur: float, parent) -> None:
        self.count += 1
        self.total += dur
        self.max = max(self.max, dur)
        if parent is None:
            self.root_total += dur


@dataclass
class TraceSummary:
    """Everything the report renders, aggregated across trace files."""

    spans: dict[str, SpanAgg] = field(default_factory=dict)
    #: span name -> summed duration of the spans whose parent has that name
    child_time: dict[str, float] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)
    metas: list[dict] = field(default_factory=list)
    n_events: int = 0
    n_files: int = 0

    @property
    def wall_time(self) -> float:
        """Total time of root spans — the percentage base for the span table."""
        return sum(a.root_total for a in self.spans.values())

    def self_time(self, name: str) -> float:
        """Time spent in spans called ``name`` outside their child spans.

        Over the spans of complete trace files the self times add up to
        :attr:`wall_time`: each span's duration is counted once, by the
        span itself, and subtracted once, from its parent's name.
        """
        return self.spans[name].total - self.child_time.get(name, 0.0)


def summarize(paths: Sequence[str | os.PathLike]) -> TraceSummary:
    summary = TraceSummary()
    for path in paths:
        summary.n_files += 1
        # cumulative: last snapshot wins *per source* — a merged file holds
        # one stream per original file, tagged "src" by merge_traces
        source_counters: dict[str | None, dict] = {}
        for record in iter_events(path):
            summary.n_events += 1
            kind = record.get("type")
            if kind == "span":
                dur, parent = float(record.get("dur", 0.0)), record.get("parent")
                agg = summary.spans.setdefault(str(record.get("name")), SpanAgg())
                agg.add(dur, parent)
                if parent is not None:
                    key = str(parent)
                    summary.child_time[key] = summary.child_time.get(key, 0.0) + dur
            elif kind == "counters":
                values = record.get("values")
                if isinstance(values, dict):
                    source_counters[record.get("src")] = values
            elif kind == "meta":
                summary.metas.append(record)
        for values in source_counters.values():
            for name, value in values.items():
                if isinstance(value, (int, float)):
                    summary.counters[name] = (
                        summary.counters.get(name, 0) + int(value)
                    )
    return summary


def render_report(summary: TraceSummary) -> str:
    """The spans table, one table per declared counter section present in
    the trace (:data:`repro.trace.counters.SECTIONS`), then any undeclared
    counters."""
    spans = ResultTable(
        "Trace spans (wall time)",
        ["span", "calls", "total (s)", "self (s)", "mean (ms)", "% of run"],
        note=f"{summary.n_files} trace file(s), {summary.n_events} events; "
        "% of run is self time (nested spans excluded)",
    )
    wall = summary.wall_time
    own = {name: summary.self_time(name) for name in summary.spans}
    for name in sorted(own, key=lambda n: -own[n]):
        agg = summary.spans[name]
        spans.add(
            name,
            agg.count,
            agg.total,
            own[name],
            1000.0 * agg.total / agg.count if agg.count else 0.0,
            safe_percent(own[name], wall),
        )
    tables = [spans]

    counters = summary.counters
    for section in SECTIONS:
        if not any(name in counters for name, _meaning in section.counters):
            continue
        table = ResultTable(section.title, ["counter", "value"], note=section.note)
        for name, meaning in section.counters:
            table.add(meaning, counters.get(name, 0))
        for rate in section.rates:
            table.add(
                rate.label,
                safe_percent(
                    counters.get(rate.numerator, 0),
                    sum(counters.get(name, 0) for name in rate.denominator),
                ),
            )
        tables.append(table)

    undeclared = sorted(set(counters) - DECLARED)
    if undeclared:
        table = ResultTable("Counters", ["counter", "value"])
        for name in undeclared:
            table.add(name, counters[name])
        tables.append(table)

    return render_tables(tables)


def trace_report(paths: Sequence[str | os.PathLike]) -> str:
    """One-call convenience: summarize + render."""
    return render_report(summarize(paths))


def merge_traces(
    paths: Iterable[str | os.PathLike], out_path: str | os.PathLike
) -> int:
    """Concatenate trace files into one, tagging every event with its
    source file stem (``"src"``); returns the number of events written.

    Used by the parallel portfolio so the winning worker's profile — and
    the partial traces of cancelled losers — survive in a single artifact.
    """
    written = 0
    with open(out_path, "w") as out:
        for path in paths:
            src = os.path.splitext(os.path.basename(os.fspath(path)))[0]
            for record in iter_events(path):
                record["src"] = src
                out.write(json.dumps(record, default=str) + "\n")
                written += 1
    return written
