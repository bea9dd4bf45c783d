"""Instrumentation: phase timers, counters and report rendering."""

from .reporting import (
    ResultTable,
    format_value,
    render_tables,
    safe_percent,
)
from .stats import SynthesisStats

__all__ = [
    "ResultTable",
    "SynthesisStats",
    "format_value",
    "render_tables",
    "safe_percent",
]
