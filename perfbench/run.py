"""The STSyn benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload paper-explicit --seed 1 --seconds 12 --trace 0

``--workload`` is ``paper-explicit``, ``paper-symbolic`` or ``service-mix``
(see ``NOTES.md``).  The run builds nothing: it imports the program from
``src/`` of the checkout it sits in, and exits with code 2 when that is
missing.  Every input is a pure function of ``--seed``.

``--trace 0`` measures untraced and prints the end-to-end metrics;
``--trace 1`` runs once untraced (the reference) and once with the
benchmark's spans on, prints the layer-sum report and the per-layer
metrics, and writes the spans to ``perfbench/_work/``.  Either way the
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` (jobs or cases whose output was wrong, refused
or unfinished) and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from inputs import MIN_SERVICE_JOBS
from measure import median, percentile, seconds_since_start

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"

WORKLOADS = ("paper-explicit", "paper-symbolic", "service-mix")
#: offered ``service-mix`` rate, jobs/s: half of the highest rate that kept
#: job_p95_s <= 1 s without a growing backlog, 48 jobs/s (NOTES.md)
SERVICE_RATE = 24.0
#: set-ups measured per untraced run: this run's own plus fresh processes
SETUP_REPEATS = 7

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "jobs_per_s": "1/s",
    "cold_job_s": "s",
    "peak_rss_mb": "MB",
}
#: job latency percentiles: printed by every run, but reported in the result
#: line only by traced runs, as ungated per-layer metrics, because their
#: run-to-run spread on a shared 2-core machine exceeds any allowed bound
#: (see NOTES.md)
LATENCY_UNITS = {"job_p50_s": "s", "job_p95_s": "s"}

#: per-layer metric -> span name whose self time it reports
SELF_TIME_METRICS = {
    "protocols.build_s": "protocols.build",
    "precompute.s": "precompute",
    "core.ranking_s": "core.ranking",
    "core.heuristic_s": "core.heuristic",
    "explicit.scc_s": "explicit.scc",
    "verify.check_solution_s": "verify.check_solution",
    "verify.symbolic_s": "verify.symbolic",
    "cert.emit_s": "cert.emit",
    "cert.check_s": "cert.check",
    "cert.check_symbolic_s": "cert.check_symbolic",
    "symbolic.encode_s": "symbolic.encode",
    "symbolic.ranking_s": "symbolic.ranking",
    "symbolic.scc_s": "symbolic.scc",
    "symbolic.passes_s": "symbolic.passes",
}
#: every per-layer metric and its unit; a layer a workload does not run
#: reports 0
PER_LAYER_UNITS = {
    **{name: "s" for name in SELF_TIME_METRICS},
    "explicit.scc_count": "count",
    "core.attempts": "count",
    "core.wasted_s": "s",
    "bdd.ite_calls": "count",
    "bdd.ite_hit_ratio": "ratio",
    "bdd.op_hit_ratio": "ratio",
    "bdd.peak_live_nodes": "count",
    "bdd.gc_collected": "count",
    "service.submit_s": "s",
    "service.queue_wait_p95_s": "s",
    "service.run_miss_s": "s",
    "service.run_hit_s": "s",
    "service.store_hit_ratio": "ratio",
    "service.cert_verified_ratio": "ratio",
    "loadgen.late_max_s": "s",
    "residual_s": "s",
    "trace.layer_sum_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_ratio": "ratio",
    **LATENCY_UNITS,
}


def load_program() -> None:
    """Put the checkout's ``src/`` first on the path and import the program
    from there, or exit 2 without a result."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {src}: {exc}",
              file=sys.stderr)
        sys.exit(2)
    if src not in Path(repro.__file__).resolve().parents:
        print(f"perfbench: imported repro from {repro.__file__}, not {src}",
              file=sys.stderr)
        sys.exit(2)


def finish(problems: list[str], attempted: int, failed: int,
           metrics: dict, units: dict) -> str:
    """Print the metrics and every failure; return the JSON result line."""
    for name, unit in units.items():
        print(f"  {name:<28}{metrics[name]:>14.6g} {unit}")
    for problem in problems:
        print(f"FAILED: {problem}")
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    })


def traced_metrics(args, log, traced_wall: float, untraced_wall: float) -> dict:
    """Print the layer-sum report, write the spans, and return the per-layer
    metrics the spans give (every other one starts at 0)."""
    from spans import layer_report

    self_times = log.self_times()
    overhead = traced_wall / untraced_wall - 1
    lines, layer_sum, residual = layer_report(
        args.workload, self_times, traced_wall, overhead)
    print("\n".join(lines))
    WORK.mkdir(exist_ok=True)
    log.write(WORK / f"spans-{args.workload}-{args.seed}.json")
    metrics = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    for metric, span in SELF_TIME_METRICS.items():
        metrics[metric] = self_times.get(span, 0.0)
    metrics.update({
        "residual_s": residual,
        "trace.layer_sum_s": layer_sum,
        "trace.wall_s": traced_wall,
        "trace.overhead_ratio": overhead,
    })
    return metrics


def case_latencies(seconds: list[float]) -> dict:
    return {"job_p50_s": percentile(seconds, 0.50),
            "job_p95_s": percentile(seconds, 0.95)}


def print_latencies(latencies: dict) -> None:
    for name, unit in LATENCY_UNITS.items():
        print(f"  {name:<28}{latencies[name]:>14.6g} {unit}  (not gated)")


def setup_probes(workload: str, seed: int, own: float) -> float:
    """Median set-up time over this run and fresh processes doing the same."""
    times = [own]
    for _ in range(SETUP_REPEATS - 1):
        out = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(json.loads(out.stdout.splitlines()[-1])["setup_s"])
    print(f"  set-ups (s): {', '.join(f'{t:.4f}' for t in times)}")
    return median(times)


# ----------------------------------------------------------------------
# paper-explicit and paper-symbolic
# ----------------------------------------------------------------------
def run_paper(args, expected: dict) -> str:
    import paper
    from inputs import paper_case_order
    from spans import NullSpanLog, SpanLog

    order = paper_case_order(args.workload, args.seed)
    if args.setup_probe:
        return json.dumps({"setup_s": seconds_since_start()})
    own_setup = seconds_since_start()
    print(f"{args.workload}: seed {args.seed}, case order {order}")

    passes = [paper.run_pass(args.workload, args.seed, NullSpanLog())]
    if args.trace:
        log = SpanLog()
        passes.append(paper.run_pass(args.workload, args.seed, log))
    else:
        while sum(p.wall_s for p in passes) < args.seconds:
            passes.append(paper.run_pass(args.workload, args.seed, NullSpanLog()))
    problems, failed, attempted = [], 0, 0
    for p in passes:
        cases = ", ".join(f"{c} {s:.3f}" for c, s in p.case_seconds.items())
        print(f"  pass {p.wall_s:.3f} s: {cases}")
        found = paper.check_outcomes(args.workload, p.outcomes, expected)
        problems += [f"{case}: {why}" for case, whys in found.items() for why in whys]
        failed += len(found)
        attempted += len(p.outcomes)

    if args.trace:
        untraced, traced = passes
        metrics = traced_metrics(args, log, traced.wall_s, untraced.wall_s)
        counts = traced.counts
        for name in ("explicit.scc_count", "core.attempts", "core.wasted_s",
                     "bdd.ite_calls", "bdd.peak_live_nodes", "bdd.gc_collected"):
            metrics[name] = counts.get(name, 0)
        if counts.get("bdd.ite_calls"):
            metrics["bdd.ite_hit_ratio"] = counts["bdd.ite_cache_hits"] / counts["bdd.ite_calls"]
            metrics["bdd.op_hit_ratio"] = counts["bdd.op_cache_hits"] / counts["bdd.op_cache_lookups"]
        metrics.update(case_latencies(list(traced.case_seconds.values())))
        return finish(problems, attempted, failed, metrics, PER_LAYER_UNITS)

    case_seconds = [s for p in passes for s in p.case_seconds.values()]
    metrics = {
        "setup_s": setup_probes(args.workload, args.seed, own_setup),
        "wall_s": median([p.wall_s for p in passes]),
        "jobs_per_s": len(case_seconds) / sum(p.wall_s for p in passes),
        "cold_job_s": sum(case_seconds) / len(case_seconds),
        "peak_rss_mb": paper.peak_rss_mb(),
    }
    print(f"  {len(passes)} pass(es), {len(case_seconds)} case latencies "
          f"(job_p95_s is the slowest case), failed_ratio {failed}/{attempted}")
    print_latencies(case_latencies(case_seconds))
    return finish(problems, attempted, failed, metrics, END_TO_END_UNITS)


# ----------------------------------------------------------------------
# service-mix
# ----------------------------------------------------------------------
def run_service(args, expected: dict) -> str:
    import service_mix
    from inputs import service_stream
    from spans import SpanLog

    rate = args.rate or SERVICE_RATE
    stream = service_stream(args.seed, service_jobs(args.seconds), rate)
    WORK.mkdir(exist_ok=True)
    server = service_mix.Server(WORK)
    if args.setup_probe:
        setup = seconds_since_start()
        server.stop()
        return json.dumps({"setup_s": setup})
    own_setup = seconds_since_start()
    repeats = sum(job["repeat"] for job in stream)
    print(f"service-mix: seed {args.seed}, {len(stream)} jobs at {rate} jobs/s "
          f"over {stream[-1]['due']:.2f} s, {repeats} repeats")

    runs = []
    try:
        runs.append(service_mix.run_service_mix(stream, server, expected))
    finally:
        server.stop()
    if args.trace:
        server = service_mix.Server(WORK)
        try:
            runs.append(service_mix.run_service_mix(stream, server, expected))
        finally:
            server.stop()
    problems = [p for run in runs for p in run.problems]
    failed = sum(service_mix.job_failed(job) for run in runs for job in run.jobs)
    attempted = sum(len(run.jobs) for run in runs)
    for run in runs:
        drain = run.last_end - run.jobs[-1]["due_at"]
        print(f"  run {run.wall_s:.3f} s, drained {drain:.3f} s after the last "
              f"due time, generator late by at most {run.late_max_s:.4f} s")

    if args.trace:
        untraced, traced = runs
        log = SpanLog()
        service_mix.record_spans(traced, log)
        metrics = traced_metrics(args, log, traced.wall_s, untraced.wall_s)
        metrics.update(service_mix.layer_metrics(traced))
        metrics.update(service_mix.end_to_end(traced)[1])
        return finish(problems, attempted, failed, metrics, PER_LAYER_UNITS)

    metrics, latencies, samples = service_mix.end_to_end(runs[0])
    metrics["setup_s"] = setup_probes(args.workload, args.seed, own_setup)
    print(f"  {samples['jobs']} job latencies, {samples['beyond_p95']} beyond "
          f"p95, {samples['misses']} cold runs (cold_job_s) and {samples['hits']} "
          f"store hits, failed_ratio {failed}/{attempted}")
    print_latencies(latencies)
    return finish(problems, attempted, failed, metrics, END_TO_END_UNITS)


def service_jobs(seconds: float) -> int:
    """Jobs in a ``service-mix`` run: the offered rate over ``--seconds``."""
    return round(SERVICE_RATE * seconds)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=12.0,
                        help="measured time: at least one whole pass for "
                        "paper-*, the arrival window for service-mix")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rate", type=float, default=None,
                        help="service-mix: offer the same jobs at this rate in "
                        f"jobs/s instead of {SERVICE_RATE} (the saturation "
                        "sweep in NOTES.md)")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "service-mix" and service_jobs(args.seconds) < MIN_SERVICE_JOBS:
        parser.error(f"service-mix needs --seconds for at least "
                     f"{MIN_SERVICE_JOBS} jobs at {SERVICE_RATE} jobs/s")
    load_program()
    expected = json.loads((HERE / "expected.json").read_text())
    runner = run_service if args.workload == "service-mix" else run_paper
    print(runner(args, expected), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
