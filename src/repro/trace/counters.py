"""Every trace counter the program emits, declared once.

Each :class:`Section` is one layer of the program.  It lists the counters
that layer emits, each with its meaning, which ``stsyn trace-report``
prints as the row label, plus the rates derived from them.
:func:`repro.trace.report.render_report` renders one table per section
from this declaration and puts any undeclared counter (an old trace, a
benchmark's own ``substrate.*`` gauges) in a trailing "Counters" table.

Nothing here is consulted when a counter is bumped: ``Tracer.count`` and
``SynthesisStats.bump`` take any name.  ``tests/test_trace_counters.py``
checks that every name the program emits is declared here exactly once.
"""

from __future__ import annotations

from typing import NamedTuple


class Rate(NamedTuple):
    """``numerator / sum(denominator)`` as a percentage row."""

    label: str
    numerator: str
    denominator: tuple[str, ...]


class Section(NamedTuple):
    title: str
    note: str
    #: ``(counter name, meaning)`` pairs, in report row order
    counters: tuple[tuple[str, str], ...]
    rates: tuple[Rate, ...] = ()


def _unlabelled(*names: str) -> tuple[tuple[str, str], ...]:
    """Counters whose raw name is their row label."""
    return tuple((name, name) for name in names)


SECTIONS: tuple[Section, ...] = (
    Section(
        "BDD manager",
        "ite/memo counters are always-on tallies from repro.bdd",
        (
            ("bdd.ite_calls", "ite calls"),
            ("bdd.ite_terminal", "ite terminal cases"),
            ("bdd.ite_cache_hits", "ite memo hits"),
            ("bdd.ite_cache_entries", "ite memo entries (final)"),
            ("bdd.op_cache_lookups", "op-cache lookups"),
            ("bdd.op_cache_hits", "op-cache hits"),
            ("bdd.op_cache_entries", "op-cache entries (final)"),
            ("bdd.relprod_many_calls", "fused union-image calls"),
            ("bdd.unique_nodes", "unique-table nodes"),
            ("bdd.live_nodes", "live nodes (final)"),
            ("bdd.peak_live_nodes", "peak live nodes"),
            ("bdd.gc_runs", "gc runs"),
            ("bdd.gc_collected", "gc nodes collected"),
            ("bdd.reorder_runs", "reorder runs"),
            ("bdd.reorder_swaps", "reorder swaps"),
        ),
        (
            Rate("ite memo hit rate (%)", "bdd.ite_cache_hits",
                 ("bdd.ite_calls",)),
            Rate("op-cache hit rate (%)", "bdd.op_cache_hits",
                 ("bdd.op_cache_lookups",)),
        ),
    ),
    Section(
        "Core heuristic",
        "ComputeRanks, Add_Recovery passes and Identify_Resolve_Cycles "
        "(both engines)",
        _unlabelled(
            "portfolio_attempts",
            "rank_levels",
            "rank_states_explored",
            "pass1_runs",
            "pass2_runs",
            "pass3_runs",
            "pass1_deadlocks_resolved",
            "pass2_deadlocks_resolved",
            "pass3_deadlocks_resolved",
            "groups_added",
            "groups_removed",
            "identify_resolve_cycles_calls",
            "scc_detections",
            "cycles_resolved",
            "groups_rejected_cycles",
        ),
    ),
    Section(
        "Symbolic engine",
        "partitioned relations, SCC tasks and pass-boundary GC",
        _unlabelled(
            "symbolic.partition_count",
            "scc_skipped_by_backward_check",
            "scc.gentilini_tasks",
            "scc.xie_beerel_picks",
            "scc.lockstep_picks",
            "gc_passes",
        ),
    ),
    Section(
        "Portfolio scheduler",
        "shared-precompute portfolio: cache + cooperative cancellation",
        (
            ("portfolio.cache_hits", "cache hits"),
            ("portfolio.cache_misses", "cache misses"),
            ("portfolio.losers_cancelled", "losers cancelled cooperatively"),
            ("precompute_reused", "precompute reuses (workers)"),
            ("portfolio.worker_crashes", "worker crashes"),
            ("portfolio.watchdog_kills", "watchdog kills"),
            ("portfolio.retries", "retries (requeued configs)"),
            ("portfolio.resume_skips", "resume skips"),
            ("portfolio.cache_quarantined", "cache entries quarantined"),
        ),
        (
            Rate("cache hit rate (%)", "portfolio.cache_hits",
                 ("portfolio.cache_hits", "portfolio.cache_misses")),
        ),
    ),
    Section(
        "Transport",
        "distributed race: leases, duplicates, shared-store hygiene",
        (
            ("transport.remote_dispatches", "remote dispatches"),
            ("transport.reconnects", "reconnects"),
            ("transport.lease_expiries", "lease expiries"),
            ("transport.duplicate_results", "duplicate results"),
            ("transport.duplicates_accepted",
             "duplicates accepted (cert re-check)"),
            ("transport.degraded_to_local", "degraded to local slots"),
            ("transport.store_partials_swept", "store partials quarantined"),
            ("transport.stale_claims_released", "stale store claims released"),
            ("transport.claim_conflicts", "store claim conflicts"),
        ),
    ),
    Section(
        "Certificates",
        "convergence certificates: emission + independent re-checks",
        (
            ("cert.emitted", "certificates emitted"),
            ("cert.check_pass", "checks passed"),
            ("cert.check_fail", "checks failed"),
        ),
        (
            Rate("check pass rate (%)", "cert.check_pass",
                 ("cert.check_pass", "cert.check_fail")),
        ),
    ),
    Section(
        "Service",
        "stsyn serve: job admission, cache-backed answers, streams",
        (
            ("service.jobs_submitted", "jobs submitted"),
            ("service.jobs_rejected", "jobs rejected (backpressure/faults)"),
            ("service.cache_hits", "answered from store (cert re-check)"),
            ("service.synth_runs", "fresh synthesis runs"),
            ("service.store_quarantined", "store entries quarantined"),
            ("service.jobs_cancelled", "jobs cancelled"),
            ("service.jobs_failed", "jobs failed"),
            ("service.trace_streams", "trace streams served"),
            ("service.stream_drops", "streams dropped (fault drill)"),
        ),
        (
            Rate("store answer rate (%)", "service.cache_hits",
                 ("service.cache_hits", "service.synth_runs")),
        ),
    ),
    Section(
        "Fuzz",
        "differential fuzz campaign (stsyn fuzz; see docs/FUZZING.md)",
        (
            ("fuzz.iterations", "iterations"),
            ("fuzz.generated", "instances generated"),
            ("fuzz.gen_rejects", "generator rejects"),
            ("fuzz.states_explored", "states explored"),
            ("fuzz.oracle_runs", "oracle runs"),
            ("fuzz.findings", "findings"),
            ("fuzz.shrink_steps", "shrink steps accepted"),
            ("fuzz.shrink_attempts", "shrink candidates tried"),
            ("fuzz.corpus_entries", "corpus entries written"),
        ),
        (
            Rate("generator accept rate (%)", "fuzz.generated",
                 ("fuzz.generated", "fuzz.gen_rejects")),
        ),
    ),
)

#: every declared counter name
DECLARED: frozenset[str] = frozenset(
    name for section in SECTIONS for name, _meaning in section.counters
)
