"""Structured tracing and counters (spans, JSONL sinks, reports).

See :mod:`repro.trace.tracer` for the event schema,
:mod:`repro.trace.counters` for the declared counters and
:mod:`repro.trace.report` for aggregation; README's "Observability"
section documents the end-to-end workflow.
"""

from .report import (
    SpanAgg,
    TraceSummary,
    iter_events,
    merge_traces,
    render_report,
    summarize,
    trace_report,
)
from .tail import TailBuffer, follow_jsonl, format_record, parse_record
from .tracer import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    current_tracer,
    record_bdd_counters,
    use_tracer,
)

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "SpanAgg",
    "TailBuffer",
    "TraceSummary",
    "Tracer",
    "current_tracer",
    "follow_jsonl",
    "format_record",
    "iter_events",
    "merge_traces",
    "parse_record",
    "record_bdd_counters",
    "render_report",
    "summarize",
    "trace_report",
    "use_tracer",
]
