"""Aggregation and rendering of JSONL trace files.

``stsyn trace-report run.jsonl`` prints the per-span wall-time breakdown
(the paper's per-pass times), the counter table (deadlocks resolved per
pass, cycle-resolution work) and the BDD operation counters (``ite`` calls
and memo hit rates — the observable cost of the symbolic engine).

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
    #: True when at least one instance was a root span (no parent)
    root: bool = False

    def add(self, dur: float, parent) -> None:
        self.count += 1
        self.total += dur
        self.max = max(self.max, dur)
        if parent is None:
            self.root = True


@dataclass
class TraceSummary:
    """Everything the report renders, aggregated across trace files."""

    spans: dict[str, SpanAgg] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)
    metas: list[dict] = field(default_factory=list)
    n_events: int = 0
    n_files: int = 0

    @property
    def wall_time(self) -> float:
        """Total time of root spans — the percentage base for the span table."""
        return sum(a.total for a in self.spans.values() if a.root)


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
                agg = summary.spans.setdefault(str(record.get("name")), SpanAgg())
                agg.add(float(record.get("dur", 0.0)), record.get("parent"))
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
    tables = []

    spans = ResultTable(
        "Trace spans (wall time)",
        ["span", "calls", "total (s)", "mean (ms)", "% of run"],
        note=f"{summary.n_files} trace file(s), {summary.n_events} events",
    )
    wall = summary.wall_time
    for name in sorted(summary.spans, key=lambda n: -summary.spans[n].total):
        agg = summary.spans[name]
        spans.add(
            name,
            agg.count,
            agg.total,
            1000.0 * agg.total / agg.count if agg.count else 0.0,
            safe_percent(agg.total, wall),
        )
    tables.append(spans)

    bdd = ResultTable(
        "BDD manager",
        ["counter", "value"],
        note="ite/memo counters are always-on tallies from repro.bdd",
    )
    ite_calls = summary.counters.get("bdd.ite_calls", 0)
    ite_hits = summary.counters.get("bdd.ite_cache_hits", 0)
    bdd.add("ite calls", ite_calls)
    bdd.add("ite memo hits", ite_hits)
    bdd.add("ite memo hit rate (%)", safe_percent(ite_hits, ite_calls))
    op_lookups = summary.counters.get("bdd.op_cache_lookups", 0)
    op_hits = summary.counters.get("bdd.op_cache_hits", 0)
    bdd.add("op-cache lookups", op_lookups)
    bdd.add("op-cache hit rate (%)", safe_percent(op_hits, op_lookups))
    bdd.add("unique-table nodes", summary.counters.get("bdd.unique_nodes", 0))
    bdd.add("live nodes (final)", summary.counters.get("bdd.live_nodes", 0))
    bdd.add("peak live nodes", summary.counters.get("bdd.peak_live_nodes", 0))
    bdd.add("gc runs", summary.counters.get("bdd.gc_runs", 0))
    bdd.add("gc nodes collected", summary.counters.get("bdd.gc_collected", 0))
    bdd.add("reorder runs", summary.counters.get("bdd.reorder_runs", 0))
    bdd.add("reorder swaps", summary.counters.get("bdd.reorder_swaps", 0))
    tables.append(bdd)

    portfolio_counters = {
        name: value
        for name, value in summary.counters.items()
        if name.startswith("portfolio.") or name == "precompute_reused"
    }
    if portfolio_counters:
        portfolio = ResultTable(
            "Portfolio scheduler",
            ["counter", "value"],
            note="shared-precompute portfolio: cache + cooperative cancellation",
        )
        hits = portfolio_counters.get("portfolio.cache_hits", 0)
        misses = portfolio_counters.get("portfolio.cache_misses", 0)
        portfolio.add("cache hits", hits)
        portfolio.add("cache misses", misses)
        portfolio.add("cache hit rate (%)", safe_percent(hits, hits + misses))
        portfolio.add(
            "losers cancelled cooperatively",
            portfolio_counters.get("portfolio.losers_cancelled", 0),
        )
        portfolio.add(
            "precompute reuses (workers)",
            portfolio_counters.get("precompute_reused", 0),
        )
        portfolio.add(
            "worker crashes",
            portfolio_counters.get("portfolio.worker_crashes", 0),
        )
        portfolio.add(
            "watchdog kills",
            portfolio_counters.get("portfolio.watchdog_kills", 0),
        )
        portfolio.add(
            "retries (requeued configs)",
            portfolio_counters.get("portfolio.retries", 0),
        )
        portfolio.add(
            "resume skips",
            portfolio_counters.get("portfolio.resume_skips", 0),
        )
        portfolio.add(
            "cache entries quarantined",
            portfolio_counters.get("portfolio.cache_quarantined", 0),
        )
        tables.append(portfolio)

    transport_counters = {
        name: value
        for name, value in summary.counters.items()
        if name.startswith("transport.")
    }
    if transport_counters:
        transport = ResultTable(
            "Transport",
            ["counter", "value"],
            note="distributed race: leases, duplicates, shared-store hygiene",
        )
        transport.add(
            "remote dispatches",
            transport_counters.get("transport.remote_dispatches", 0),
        )
        transport.add(
            "reconnects", transport_counters.get("transport.reconnects", 0)
        )
        transport.add(
            "lease expiries",
            transport_counters.get("transport.lease_expiries", 0),
        )
        duplicates = transport_counters.get("transport.duplicate_results", 0)
        accepted = transport_counters.get("transport.duplicates_accepted", 0)
        transport.add("duplicate results", duplicates)
        transport.add("duplicates accepted (cert re-check)", accepted)
        transport.add(
            "degraded to local slots",
            transport_counters.get("transport.degraded_to_local", 0),
        )
        transport.add(
            "store partials quarantined",
            transport_counters.get("transport.store_partials_swept", 0),
        )
        transport.add(
            "stale store claims released",
            transport_counters.get("transport.stale_claims_released", 0),
        )
        transport.add(
            "store claim conflicts",
            transport_counters.get("transport.claim_conflicts", 0),
        )
        tables.append(transport)

    cert_counters = {
        name: value
        for name, value in summary.counters.items()
        if name.startswith("cert.")
    }
    if cert_counters:
        certs = ResultTable(
            "Certificates",
            ["counter", "value"],
            note="convergence certificates: emission + independent re-checks",
        )
        certs.add("certificates emitted", cert_counters.get("cert.emitted", 0))
        passed = cert_counters.get("cert.check_pass", 0)
        failed = cert_counters.get("cert.check_fail", 0)
        certs.add("checks passed", passed)
        certs.add("checks failed", failed)
        certs.add("check pass rate (%)", safe_percent(passed, passed + failed))
        tables.append(certs)

    service_counters = {
        name: value
        for name, value in summary.counters.items()
        if name.startswith("service.")
    }
    if service_counters:
        service = ResultTable(
            "Service",
            ["counter", "value"],
            note="stsyn serve: job admission, cache-backed answers, streams",
        )
        service.add(
            "jobs submitted", service_counters.get("service.jobs_submitted", 0)
        )
        service.add(
            "jobs rejected (backpressure/faults)",
            service_counters.get("service.jobs_rejected", 0),
        )
        hits = service_counters.get("service.cache_hits", 0)
        runs = service_counters.get("service.synth_runs", 0)
        service.add("answered from store (cert re-check)", hits)
        service.add("fresh synthesis runs", runs)
        service.add("store answer rate (%)", safe_percent(hits, hits + runs))
        service.add(
            "store entries quarantined",
            service_counters.get("service.store_quarantined", 0),
        )
        service.add(
            "jobs cancelled", service_counters.get("service.jobs_cancelled", 0)
        )
        service.add(
            "jobs failed", service_counters.get("service.jobs_failed", 0)
        )
        service.add(
            "trace streams served",
            service_counters.get("service.trace_streams", 0),
        )
        service.add(
            "streams dropped (fault drill)",
            service_counters.get("service.stream_drops", 0),
        )
        tables.append(service)

    fuzz_counters = {
        name: value
        for name, value in summary.counters.items()
        if name.startswith("fuzz.")
    }
    if fuzz_counters:
        fuzz = ResultTable(
            "Fuzz",
            ["counter", "value"],
            note="differential fuzz campaign (stsyn fuzz; see docs/FUZZING.md)",
        )
        generated = fuzz_counters.get("fuzz.generated", 0)
        fuzz.add("iterations", fuzz_counters.get("fuzz.iterations", 0))
        fuzz.add("instances generated", generated)
        rejects = fuzz_counters.get("fuzz.gen_rejects", 0)
        fuzz.add("generator rejects", rejects)
        fuzz.add(
            "generator accept rate (%)",
            safe_percent(generated, generated + rejects),
        )
        fuzz.add("states explored", fuzz_counters.get("fuzz.states_explored", 0))
        fuzz.add("oracle runs", fuzz_counters.get("fuzz.oracle_runs", 0))
        fuzz.add("findings", fuzz_counters.get("fuzz.findings", 0))
        fuzz.add("shrink steps accepted", fuzz_counters.get("fuzz.shrink_steps", 0))
        fuzz.add(
            "shrink candidates tried",
            fuzz_counters.get("fuzz.shrink_attempts", 0),
        )
        fuzz.add("corpus entries written", fuzz_counters.get("fuzz.corpus_entries", 0))
        tables.append(fuzz)

    counters = ResultTable("Counters", ["counter", "value"])
    for name in sorted(summary.counters):
        if (
            name.startswith("bdd.")
            or name.startswith("portfolio.")
            or name.startswith("transport.")
            or name.startswith("cert.")
            or name.startswith("service.")
            or name.startswith("fuzz.")
        ):
            continue
        counters.add(name, summary.counters[name])
    tables.append(counters)

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
