"""The ``paper-explicit`` and ``paper-symbolic`` workloads: closed loop, one
client, in-process, one pass over the paper's case studies per repetition.

Each case runs the public entry points a user would (for the explicit
engine, those of ``stsyn certify`` plus ``stsyn check-cert``: ``synthesize``,
which re-checks its winner with ``check_solution``, then certificate
emission and ``check_certificate``) and records the facts
``expected.json`` pins.  With a :class:`spans.SpanLog` the case is also
split into layers: spans around each call, plus the ``ranking``/``scc``/
``portfolio.*`` spans the program already reports when handed a
``repro.trace.Tracer``.
"""

from __future__ import annotations

import resource
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass

from repro import (
    CertificateError,
    SynthesisError,
    Tracer,
    check_certificate,
    check_certificate_symbolic,
    coloring,
    matching,
    synthesize,
    token_ring,
    two_ring,
)
from repro.metrics import SynthesisStats
from repro.protocols.coloring import coloring_invariant_bdd, coloring_symbolic
from repro.symbolic import SymbolicProtocol, add_strong_convergence_symbolic
from repro.verify.symbolic import analyze_stabilization_symbolic

from inputs import paper_case_order

#: program span name -> benchmark layer, per engine; program spans not
#: listed here fold into the enclosing benchmark span
EXPLICIT_PROGRAM_SPANS = {
    "portfolio.precompute": "precompute",
    "ranking": "core.ranking",
    "scc": "explicit.scc",
    "verify.check_solution": "verify.check_solution",
}
SYMBOLIC_PROGRAM_SPANS = {"ranking": "symbolic.ranking", "scc": "symbolic.scc"}

#: BDD manager counters summed over every manager a pass creates
BDD_SUMMED = ("ite_calls", "ite_cache_hits", "op_cache_lookups",
              "op_cache_hits", "gc_collected")


@dataclass
class PassResult:
    wall_s: float
    #: case -> seconds, in run order
    case_seconds: dict[str, float]
    #: case -> observed facts, compared with ``expected.json``
    outcomes: dict[str, dict]
    #: per-layer counts (traced passes only)
    counts: dict[str, float]


def run_pass(workload: str, seed: int, spans) -> PassResult:
    """One pass over the workload's cases in the seeded order."""
    run_case = _explicit_case if workload == "paper-explicit" else _symbolic_case
    counts: dict[str, float] = defaultdict(float)
    case_seconds, outcomes = {}, {}
    clock = time.perf_counter
    with spans.span("pass"):
        start = clock()
        for case in paper_case_order(workload, seed):
            t0 = clock()
            with spans.span("case", case):
                try:
                    outcomes[case] = run_case(case, spans, counts)
                except Exception as exc:  # an unexpected error fails the case
                    traceback.print_exc()
                    outcomes[case] = {"verdict": f"error: {type(exc).__name__}: {exc}"}
            case_seconds[case] = clock() - t0
        wall = clock() - start
    return PassResult(wall, case_seconds, outcomes, dict(counts))


def peak_rss_mb() -> float:
    """Peak resident memory of this process (the ``paper-*`` workloads run
    no child process)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# explicit engine
# ----------------------------------------------------------------------
EXPLICIT_BUILDERS = {
    "matching-11": (matching, (11,)),
    "token-ring-6-5": (token_ring, (6, 5)),
    "two-ring": (two_ring, ()),
    "coloring-13": (coloring, (13,)),
}


def _explicit_case(case: str, spans, counts) -> dict:
    builder, args = EXPLICIT_BUILDERS[case]
    tracer = Tracer(None) if spans.enabled else None
    with spans.span("protocols.build", case):
        protocol, invariant = builder(*args)
    try:
        with spans.span("core.heuristic", case):
            portfolio = synthesize(protocol, invariant, tracer=tracer)
    except SynthesisError as exc:
        return {"verdict": type(exc).__name__}
    result = portfolio.result
    outcome = {
        "verdict": "success" if portfolio.success else "heuristic-failure",
        "pass_completed": result.pass_completed,
        "cyclic_sccs": len(result.stats.scc_sizes),
    }
    if portfolio.success:
        # synthesize re-checked the winner with check_solution, as in
        # ``stsyn certify``; its span is the program's verify.check_solution
        outcome["check_solution"] = result.verified
        with spans.span("cert.emit", case):
            cert = result.certificate()
        try:
            with spans.span("cert.check", case):
                check_certificate(protocol, invariant, cert)
            outcome["check_certificate"] = True
        except CertificateError as exc:
            outcome["check_certificate"] = f"rejected: {exc}"
    if tracer is not None:
        _import_program_spans(tracer, spans, case, EXPLICIT_PROGRAM_SPANS)
        attempts = [r for r in tracer.records if r.get("name") == "portfolio.attempt"]
        counts["core.attempts"] += len(attempts)
        counts["core.wasted_s"] += sum(
            r["dur"] for r in attempts if not r["attrs"].get("success"))
        counts["explicit.scc_count"] += tracer.counters.get("cycles_resolved", 0)
    return outcome


# ----------------------------------------------------------------------
# symbolic engine
# ----------------------------------------------------------------------
def _symbolic_case(case: str, spans, counts) -> dict:
    traced = spans.enabled
    tracer = Tracer(None) if traced else None
    stats = SynthesisStats.traced(tracer)
    managers = []
    if case == "matching-7":
        with spans.span("protocols.build", case):
            protocol, predicate = matching(7)
        with spans.span("symbolic.encode", case):
            sp = SymbolicProtocol(protocol)
            invariant = sp.sym.from_predicate(predicate)
    else:
        k = int(case.split("-")[1])
        with spans.span("symbolic.encode", case):
            protocol, sp, invariant = coloring_symbolic(k)
    managers.append(sp.sym.bdd)
    try:
        with spans.span("symbolic.passes", case):
            result = add_strong_convergence_symbolic(
                protocol, invariant, sp=sp, stats=stats)
    except SynthesisError as exc:
        return {"verdict": type(exc).__name__}
    outcome = {
        "verdict": "success" if result.success else "heuristic-failure",
        "pass_completed": result.pass_completed,
        "cyclic_sccs": len(result.stats.scc_sizes),
        "groups": sum(len(g) for g in result.pss_groups),
    }
    if result.success and case == "matching-7":
        with spans.span("cert.emit", case):
            cert = result.certificate()
        with spans.span("symbolic.encode", case):
            check_sp = SymbolicProtocol(protocol)
        managers.append(check_sp.sym.bdd)
        try:
            with spans.span("cert.check_symbolic", case):
                check_certificate_symbolic(protocol, predicate, cert, sp=check_sp)
            outcome["check_certificate_symbolic"] = True
        except CertificateError as exc:
            outcome["check_certificate_symbolic"] = f"rejected: {exc}"
    elif result.success and case == "coloring-9":
        with spans.span("symbolic.encode", case):
            pss = result.to_protocol()
            check_sp = SymbolicProtocol(pss)
            check_invariant = coloring_invariant_bdd(check_sp.sym, 9)
        managers.append(check_sp.sym.bdd)
        with spans.span("verify.symbolic", case):
            verdict = analyze_stabilization_symbolic(
                pss, check_invariant, sp=check_sp)
        outcome["analyze_stabilization_symbolic"] = verdict.strongly_stabilizing
    if traced:
        _import_program_spans(tracer, spans, case, SYMBOLIC_PROGRAM_SPANS)
        for bdd in managers:
            values = bdd.counters()
            for name in BDD_SUMMED:
                counts[f"bdd.{name}"] += values[name]
            counts["bdd.peak_live_nodes"] = max(
                counts["bdd.peak_live_nodes"], values["peak_live_nodes"])
    return outcome


def _import_program_spans(tracer, spans, job: str, mapping: dict) -> None:
    """Copy the program's own spans of one case into the benchmark's log."""
    for record in tracer.records:
        if record.get("type") == "span" and record["name"] in mapping:
            start = record["start"]
            spans.add(mapping[record["name"]], start, start + record["dur"], job)



# ----------------------------------------------------------------------
# correctness gate
# ----------------------------------------------------------------------
def check_outcomes(workload: str, outcomes: dict, expected: dict) -> dict:
    """Case -> mismatches with ``expected.json``, for the cases that fail."""
    problems = {}
    for case, outcome in outcomes.items():
        want, found = expected[workload][case], []
        if outcome["verdict"] != want["verdict"]:
            problems[case] = [
                f"verdict {outcome['verdict']}, expected {want['verdict']}"]
            continue
        for checker in want.get("checks", []):
            if outcome.get(checker) is not True:
                found.append(f"{checker} gave {outcome.get(checker)!r}")
        for fact in ("cyclic_sccs", "groups"):
            if fact in want and outcome.get(fact) != want[fact]:
                found.append(f"{fact} {outcome.get(fact)}, expected {want[fact]}")
        if "max_pass" in want and outcome["pass_completed"] > want["max_pass"]:
            found.append(f"finished in pass {outcome['pass_completed']}, "
                         f"expected by pass {want['max_pass']}")
        if found:
            problems[case] = found
    return problems
