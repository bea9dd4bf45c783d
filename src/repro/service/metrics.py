"""Service counters and the ``/metrics`` report.

:class:`ServiceMetrics` is a thread-safe counter bag — HTTP handlers run
on the asyncio loop while synthesis races complete in executor threads,
and both sides increment.  The ``/metrics`` endpoint renders the counters
two ways:

* ``?format=json`` — the raw counter dict plus job-state census, which is
  what CI asserts against (``service.cache_hits == 1`` after a warm
  resubmission);
* default — the human tables of ``stsyn trace-report``: the service
  counters are folded into a :class:`~repro.trace.report.TraceSummary`
  together with every finished job's merged trace, so one ``curl`` shows
  the Service table *and* the portfolio/transport/certificate tables of
  the work the service actually ran.
"""

from __future__ import annotations

import threading
import time


class ServiceMetrics:
    """Monotonic counters for one ``stsyn serve`` process."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {}
        self.started = time.time()

    def inc(self, name: str, value: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def get(self, name: str) -> int:
        with self._lock:
            return self._counters.get(name, 0)

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return dict(self._counters)

    # ------------------------------------------------------------------
    def render(self, trace_paths=()) -> str:
        """Human report: service counters + the traces of completed jobs."""
        from ..trace.report import render_report, summarize

        summary = summarize(list(trace_paths))
        for name, value in self.snapshot().items():
            summary.counters[name] = summary.counters.get(name, 0) + value
        return render_report(summary)


class ServiceTracer:
    """The tracer for work the service does itself inside a job (the store
    lookup): spans and events go to the job's trace, counters to
    :class:`ServiceMetrics`.  The human ``/metrics`` report folds the job
    traces and the service counters together, so a counter kept in both
    would be counted twice."""

    def __init__(self, tracer, metrics: ServiceMetrics):
        self.span = tracer.span
        self.event = tracer.event
        self.count = metrics.inc
