"""Symbolic substrate scaling: the partitioned engine at growing sizes.

Pins the fast-substrate claims of ``benchmarks/SUBSTRATE_SCALING.md`` to
measured numbers:

* ``ComputeRanks`` over clustered frameless partitions (relation build +
  backward BFS) on the two ring case studies, checked against the
  explicit engine's rank sizes and p_im groups;
* full synthesis, checked against the explicit engine's groups, with the
  BDD manager's always-on counters (``ite_calls``, ``peak_live_nodes``,
  ``gc_*``) as evidence;
* the pass-boundary GC ablation: peak live nodes with GC vs. with
  ``collect_garbage`` stubbed out.

The ``smoke`` tests are small (seconds) and run in CI with a trace file
uploaded as an artifact; the full sweep is for local runs:

    PYTHONPATH=src python -m pytest benchmarks/test_substrate_scaling.py -q
    PYTHONPATH=src python -m pytest benchmarks/test_substrate_scaling.py -q -k smoke
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time

import pytest

from repro.core import add_strong_convergence
from repro.core.ranking import compute_ranks
from repro.explicit.graph import TransitionView
from repro.explicit.scc import cyclic_sccs
from repro.metrics.stats import SynthesisStats
from repro.protocols.coloring import coloring, coloring_symbolic
from repro.protocols.matching import matching
from repro.symbolic import (
    SymbolicProtocol,
    add_strong_convergence_symbolic,
    compute_ranks_symbolic,
    gentilini_sccs,
)
from repro.symbolic.engine import SymbolicSynthesisState
from repro.trace.tracer import NullTracer, Tracer, record_bdd_counters

FIGURE_RANKS = "Substrate: ComputeRanks — clustered partitions"
FIGURE_SYNTH = "Substrate: full synthesis — clustered partitions"
FIGURE_GC = "Substrate: pass-boundary GC — peak live nodes"
FIGURE_KERNEL = "Substrate: kernel gauge — ComputeRanks and SCC decomposition"

TRACE_PATH = os.environ.get("SUBSTRATE_TRACE", "substrate-trace.jsonl")
BENCH_JSON = os.environ.get("SUBSTRATE_BENCH_JSON", "BENCH_substrate.json")


def _git_commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        ).stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def _setup(name: str, k: int):
    if name == "coloring":
        return coloring_symbolic(k)
    protocol, invariant = matching(k)
    sp = SymbolicProtocol(protocol)
    return protocol, sp, sp.sym.from_predicate(invariant)


def _ranks_timed(name: str, k: int, tracer):
    _protocol, sp, inv = _setup(name, k)
    t0 = time.perf_counter()
    ranking = compute_ranks_symbolic(sp, inv, tracer=tracer)
    elapsed = time.perf_counter() - t0
    record_bdd_counters(tracer, sp.sym.bdd, prefix=f"substrate.{name}_k{k}")
    tracer.counter_set(f"substrate.ranks_ms.{name}_k{k}", int(elapsed * 1e3))
    return elapsed, ranking, sp


def _synth_timed(name: str, k: int, tracer):
    protocol, sp, inv = _setup(name, k)
    stats = SynthesisStats(tracer=tracer)
    t0 = time.perf_counter()
    result = add_strong_convergence_symbolic(protocol, inv, sp=sp, stats=stats)
    elapsed = time.perf_counter() - t0
    counters = sp.sym.bdd.counters()
    record_bdd_counters(tracer, sp.sym.bdd, prefix=f"substrate.{name}_k{k}")
    tracer.counter_set(f"substrate.synth_ms.{name}_k{k}", int(elapsed * 1e3))
    return elapsed, result, counters


def _explicit_ranks(name: str, k: int):
    """``(rank sizes, p_im groups)`` from the explicit engine."""
    protocol, invariant = (coloring if name == "coloring" else matching)(k)
    ranking = compute_ranks(protocol, invariant)
    histogram = ranking.rank_histogram()
    sizes = [histogram.get(i, 0) for i in range(ranking.max_rank + 1)]
    return sizes, ranking.pim_groups


def _explicit_synthesis(name: str, k: int):
    protocol, invariant = (coloring if name == "coloring" else matching)(k)
    return add_strong_convergence(protocol, invariant)


def _check_ranks(name: str, k: int, ranking) -> None:
    sizes, pim_groups = _explicit_ranks(name, k)
    assert ranking.rank_sizes() == sizes
    assert ranking.pim_groups == pim_groups


def _check_synthesis(name: str, k: int, result) -> None:
    explicit = _explicit_synthesis(name, k)
    assert result.success and explicit.success
    assert result.pss_groups == explicit.protocol.groups


# ----------------------------------------------------------------------
# smoke (CI): correctness + counters on small instances, traced
# ----------------------------------------------------------------------


RANKS_COLUMNS = ["case", "ComputeRanks (s)", "partitions"]
SYNTH_COLUMNS = ["case", "synthesis (s)", "peak live nodes", "ITE calls"]


@pytest.mark.parametrize("name,k", [("coloring", 5), ("matching", 5)])
def test_smoke_ranks_partitioned(name, k, figure_report):
    figure_report.register(
        FIGURE_RANKS,
        columns=RANKS_COLUMNS,
        note="ComputeRanks = p_im relation build + backward BFS",
    )
    with Tracer(TRACE_PATH, benchmark="substrate-smoke") as tracer:
        elapsed, ranking, sp = _ranks_timed(name, k, tracer)
        tracer.flush_counters()
    _check_ranks(name, k, ranking)
    assert len(sp.clusters) >= 1
    figure_report.add_row(
        FIGURE_RANKS, [f"{name} k={k} (smoke)", elapsed, len(sp.clusters)]
    )


def test_smoke_synthesis_counters_traced(figure_report):
    figure_report.register(FIGURE_SYNTH, columns=SYNTH_COLUMNS)
    with Tracer(TRACE_PATH + ".synth", benchmark="substrate-smoke") as tracer:
        elapsed, result, counters = _synth_timed("matching", 5, tracer)
        tracer.flush_counters()
    _check_synthesis("matching", 5, result)
    assert counters["gc_runs"] >= 1
    assert counters["gc_collected"] > 0
    assert counters["peak_live_nodes"] > 0
    figure_report.add_row(
        FIGURE_SYNTH,
        ["matching k=5 (smoke)", elapsed, counters["peak_live_nodes"],
         counters["ite_calls"]],
    )


# ----------------------------------------------------------------------
# kernel gauge (CI): the BDD kernel on the fixpoint workloads
# ----------------------------------------------------------------------


def _kernel_ranks(name: str, k: int):
    """One cold ComputeRanks on a fresh manager: ``(elapsed, ranking,
    counters)``.  A warm re-run on the same manager is fully memoized
    (sub-millisecond) and would gauge nothing but probe overhead, so the
    cold first-run cost is the honest number."""
    _protocol, sp, inv = _setup(name, k)
    with NullTracer() as tracer:
        t0 = time.perf_counter()
        ranking = compute_ranks_symbolic(sp, inv, tracer=tracer)
        elapsed = time.perf_counter() - t0
    return elapsed, ranking, sp.sym.bdd.counters()


def _kernel_scc(name: str, k: int):
    """One cold Gentilini SCC decomposition of the non-invariant region —
    the SCC-heavy gauge workload.  Returns ``(elapsed, state-count
    multiset of the SCCs, counters)``."""
    protocol, sp, inv = _setup(name, k)
    sym = sp.sym
    relations = sp.clustered_partitions(protocol.groups)
    region = sym.bdd.diff(sym.domain_cur, inv)
    t0 = time.perf_counter()
    sccs = gentilini_sccs(sym, relations, region)
    elapsed = time.perf_counter() - t0
    return elapsed, sorted(sym.count_states(c) for c in sccs), sym.bdd.counters()


def _explicit_scc_sizes(name: str, k: int) -> list[int]:
    """State-count multiset of the cyclic SCCs outside I, explicitly."""
    protocol, invariant = (coloring if name == "coloring" else matching)(k)
    view = TransitionView.of_protocol(protocol)
    sccs = cyclic_sccs(view, protocol.space.size, within=~invariant.mask)
    return sorted(len(c) for c in sccs)


#: ``(workload, protocol, k)`` gauge cases; ``scc`` exercises the fused
#: image operators + batched fixpoints on the cycle-resolution workload
GAUGE_CASES = [
    ("ranks", "coloring", 9),
    ("ranks", "matching", 8),
    ("scc", "matching", 8),
]

#: cold runs per case; the best one is recorded
BEST_OF = 5


@pytest.mark.parametrize("cases", [
    pytest.param(GAUGE_CASES, id="smoke"),
])
def test_smoke_kernel_gauge_emits_bench_json(cases, figure_report):
    """The BDD kernel on ComputeRanks + SCC decomposition.

    Each case runs ``BEST_OF`` times cold, on a fresh manager, and records
    the best time, so one scheduler hiccup cannot skew the record.  The
    results are checked against the explicit engine: rank sizes and p_im
    groups for the ranking cases, the SCC state-count multiset for the SCC
    case.  Emits ``BENCH_substrate.json`` (path: ``SUBSTRATE_BENCH_JSON``)
    as the workflow artifact consumed by
    ``benchmarks/SUBSTRATE_SCALING.md``.
    """
    figure_report.register(
        FIGURE_KERNEL,
        columns=["case", "kernel (s)", "ITE calls", "peak live nodes"],
        note=f"best of {BEST_OF} cold runs; results checked against the "
             "explicit engine",
    )
    rows = []
    for workload, name, k in cases:
        run = _kernel_ranks if workload == "ranks" else _kernel_scc
        case = f"{name} k={k}" if workload == "ranks" else f"scc {name} k={k}"
        elapsed, result, counters = run(name, k)
        for _ in range(BEST_OF - 1):
            elapsed = min(elapsed, run(name, k)[0])
        if workload == "ranks":
            _check_ranks(name, k, result)
        else:
            assert result == _explicit_scc_sizes(name, k)
        rows.append({
            "case": case,
            "workload": workload,
            "kernel_s": round(elapsed, 4),
            "peak_live_nodes": counters["peak_live_nodes"],
            "ite_calls": counters["ite_calls"],
        })
        figure_report.add_row(
            FIGURE_KERNEL,
            [case, elapsed, counters["ite_calls"], counters["peak_live_nodes"]],
        )
    payload = {
        "benchmark": "substrate-kernel-gauge",
        "commit": _git_commit(),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "best_of": BEST_OF,
        "workload": "compute_ranks_symbolic + gentilini_sccs, partitioned relation",
        "cases": rows,
    }
    with open(BENCH_JSON, "w") as handle:
        json.dump(payload, handle, indent=2)


# ----------------------------------------------------------------------
# full sweep (local): the named sizes of SUBSTRATE_SCALING.md
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name,k", [("coloring", 9), ("matching", 8)])
def test_ranks_scaling(name, k, figure_report):
    figure_report.register(FIGURE_RANKS, columns=RANKS_COLUMNS)
    # best of two: the absolute times here are ~100 ms, where a single run
    # is at the mercy of scheduler noise on a loaded box
    with NullTracer() as tracer:
        elapsed, ranking, sp = _ranks_timed(name, k, tracer)
        elapsed = min(elapsed, _ranks_timed(name, k, tracer)[0])
    _check_ranks(name, k, ranking)
    figure_report.add_row(
        FIGURE_RANKS, [f"{name} k={k}", elapsed, len(sp.clusters)]
    )


@pytest.mark.parametrize("name,k", [("coloring", 9), ("matching", 8)])
def test_synthesis_scaling(name, k, figure_report):
    figure_report.register(FIGURE_SYNTH, columns=SYNTH_COLUMNS)
    with NullTracer() as tracer:
        elapsed, result, counters = _synth_timed(name, k, tracer)
    _check_synthesis(name, k, result)
    figure_report.add_row(
        FIGURE_SYNTH,
        [f"{name} k={k}", elapsed, counters["peak_live_nodes"],
         counters["ite_calls"]],
    )


def test_gc_reduces_peak_live_nodes(figure_report, monkeypatch):
    """Ablation: stub out pass-boundary GC and compare peak live nodes."""
    figure_report.register(
        FIGURE_GC,
        columns=["case", "peak (GC on)", "peak (GC off)", "reduction", "collected"],
    )
    with NullTracer() as tracer:
        _t, _res, with_gc = _synth_timed("coloring", 9, tracer)
        monkeypatch.setattr(
            SymbolicSynthesisState, "collect_garbage", lambda self, extra=(): 0
        )
        _t, _res, without_gc = _synth_timed("coloring", 9, tracer)
    assert with_gc["gc_collected"] > 0
    assert without_gc["gc_collected"] == 0
    assert with_gc["peak_live_nodes"] < without_gc["peak_live_nodes"]
    figure_report.add_row(
        FIGURE_GC,
        ["coloring k=9",
         with_gc["peak_live_nodes"], without_gc["peak_live_nodes"],
         f"{without_gc['peak_live_nodes'] / with_gc['peak_live_nodes']:.2f}x",
         with_gc["gc_collected"]],
    )
