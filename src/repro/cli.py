"""STSyn command-line interface.

Examples::

    stsyn synthesize token-ring -k 4 -d 3
    stsyn synthesize matching -k 7 --print-actions
    stsyn synthesize coloring -k 20 --engine symbolic
    stsyn verify token-ring -k 4 -d 3
    stsyn analyze matching -k 5
    stsyn rank token-ring -k 4 -d 3
    stsyn synthesize token-ring -k 4 --trace run.jsonl
    stsyn trace-report run.jsonl
    stsyn certify token-ring -k 4 -d 3 --out tr.cert.json
    stsyn check-cert tr.cert.json token-ring -k 4 -d 3
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from contextlib import contextmanager


def _dsl_builder(source: str):
    """Top-level (picklable) builder for ``--file`` protocols, so spawn-started
    portfolio workers can recompile the source text themselves."""
    from .dsl import compile_protocol

    return compile_protocol(source)


def _default(value, fallback: int) -> int:
    return fallback if value is None else value


@contextmanager
def _input_errors():
    """A ``ValueError`` while building the protocol or its BDD encoding
    means the requested size or domain is invalid (``-k 2`` for a ring,
    an encoding past the kernel's variable bound): one line, exit 2."""
    try:
        yield
    except ValueError as exc:
        print(f"stsyn: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


def _builder_spec(args):
    """``(builder, builder_args)`` for the parallel portfolio — a picklable
    top-level callable plus plain arguments (satisfies both fork and spawn)."""
    from .protocols import (
        coloring,
        gouda_acharya_matching,
        matching,
        token_ring,
        two_ring,
    )

    if getattr(args, "file", None):
        with open(args.file) as handle:
            return _dsl_builder, (handle.read(),)
    name = args.protocol
    if name == "token-ring":
        return token_ring, (_default(args.k, 4), _default(args.domain, 3))
    if name == "matching":
        return matching, (_default(args.k, 5),)
    if name == "coloring":
        return coloring, (_default(args.k, 5),)
    if name == "two-ring":
        return two_ring, ()
    if name == "gouda-acharya":
        return gouda_acharya_matching, (_default(args.k, 5),)
    raise SystemExit(f"unknown protocol {name!r}")


def _build(args):
    builder, builder_args = _builder_spec(args)
    with _input_errors():
        return builder(*builder_args)


def _make_tracer(args, command: str = "synthesize"):
    from .trace import NULL_TRACER, Tracer

    path = getattr(args, "trace", None)
    if not path:
        return NULL_TRACER
    try:
        return Tracer(
            path,
            command=command,
            protocol=getattr(args, "protocol", None),
            engine=getattr(args, "engine", None),
        )
    except OSError as exc:
        print(f"stsyn: cannot write trace {path}: {exc.strerror}", file=sys.stderr)
        raise SystemExit(2) from None


def _cmd_synthesize(args) -> int:
    from .core import synthesize
    from .dsl.pretty import format_protocol
    from .metrics import SynthesisStats
    from .trace import use_tracer

    if args.engine == "explicit" and (
        args.workers is not None or args.cache_dir is not None
    ):
        return _synthesize_portfolio(args)

    tracer = _make_tracer(args)
    t0 = time.perf_counter()
    try:
        if args.engine == "symbolic":
            with use_tracer(tracer):
                if args.protocol != "coloring":
                    from .symbolic import (
                        SymbolicProtocol,
                        add_strong_convergence_symbolic,
                    )

                    protocol, invariant = _build(args)
                    with _input_errors():
                        sp = SymbolicProtocol(protocol)
                    inv = sp.sym.from_predicate(invariant)
                else:
                    from .protocols.coloring import coloring_symbolic
                    from .symbolic import add_strong_convergence_symbolic

                    with _input_errors():
                        protocol, sp, inv = coloring_symbolic(_default(args.k, 5))
                if args.auto_reorder:
                    sp.sym.bdd.auto_reorder = True
                res = add_strong_convergence_symbolic(
                    protocol, inv, sp=sp, stats=SynthesisStats(tracer=tracer)
                )
            elapsed = time.perf_counter() - t0
            print(f"success: {res.success} (pass {res.pass_completed}, {elapsed:.2f}s)")
            print(f"recovery groups added: {res.n_added}")
            if args.print_actions and res.success:
                print(format_protocol(res.to_protocol(), added_only=res.added_groups))
            if args.emit_cert and res.success:
                res.certificate().save(args.emit_cert)
                print(f"certificate written to {args.emit_cert}")
            if tracer.enabled:
                print(f"trace written to {args.trace}")
            return 0 if res.success else 1

        protocol, invariant = _build(args)
        with use_tracer(tracer):
            portfolio = synthesize(protocol, invariant, tracer=tracer)
        elapsed = time.perf_counter() - t0
        print(portfolio.summary())
        print(f"wall time: {elapsed:.2f}s")
        if args.print_actions and portfolio.success:
            print("\nsynthesized protocol:")
            print(format_protocol(portfolio.result.protocol))
            print("\nadded recovery only:")
            print(
                format_protocol(
                    portfolio.result.protocol,
                    added_only=portfolio.result.added_groups,
                )
            )
        if args.emit_cert and portfolio.success:
            portfolio.result.certificate().save(args.emit_cert)
            print(f"certificate written to {args.emit_cert}")
        if tracer.enabled:
            print(f"trace written to {args.trace}")
        return 0 if portfolio.success else 1
    finally:
        tracer.close()


def _parse_workers(value):
    """``--workers`` is either a process count (``4``) or a comma-separated
    list of remote worker endpoints (``host1:9178,host2:9178``).  Returns
    ``(n_workers, endpoints)`` with exactly one of the two set."""
    if value is None:
        return None, None
    try:
        return int(value), None
    except ValueError:
        pass
    endpoints = [part.strip() for part in value.split(",") if part.strip()]
    if not endpoints or not all(":" in part for part in endpoints):
        raise SystemExit(
            f"--workers must be a count or host:port[,host:port...], "
            f"got {value!r}"
        )
    return None, endpoints


def _synthesize_portfolio(args) -> int:
    """Multi-process portfolio run (``--workers`` / ``--cache-dir``).

    Shares the schedule-independent precompute across workers, memoises
    outcomes on disk when ``--cache-dir`` is given, and — with ``--trace``
    interpreted as a *directory* — writes per-worker traces plus the
    parent's ``portfolio.jsonl``, merged into ``merged.jsonl``.  With
    ``--workers host:port,...`` the race runs on remote ``stsyn worker``
    servers instead of local processes (lease-based failure detection,
    degrading to local slots when remotes are lost).
    """

    from .parallel import synthesize_parallel

    if args.resume and not args.cache_dir:
        raise SystemExit("--resume requires --cache-dir")
    builder, builder_args = _builder_spec(args)
    n_workers, endpoints = _parse_workers(args.workers)
    trace_dir = args.trace or None
    t0 = time.perf_counter()
    with _input_errors():
        winner, completed = synthesize_parallel(
            builder,
            builder_args,
            n_workers=n_workers,
            trace_dir=trace_dir,
            cache_dir=args.cache_dir,
            hard_deadline=args.hard_deadline,
            max_retries=args.max_retries,
            resume=args.resume,
            worker_endpoints=endpoints,
            lease_timeout=args.lease_timeout,
        )
    elapsed = time.perf_counter() - t0
    n_cached = sum(1 for o in completed if o.cached)
    n_resumed = sum(1 for o in completed if o.resumed)
    n_crashed = sum(1 for o in completed if o.crashed)
    print(f"portfolio outcomes: {len(completed)} "
          f"({n_cached} from cache, {n_resumed} resumed)")
    if n_crashed:
        print(f"crashed out       : {n_crashed} config(s) "
              f"(retries exhausted; see trace counters)")
    if winner.success:
        print(f"winning config    : {winner.config.describe()}"
              + (" [cached]" if winner.cached else ""))
    else:
        print("no configuration succeeded")
        print(f"best attempt      : {winner.config.describe()} "
              f"({winner.remaining_deadlocks} deadlocks remain)")
    print(f"wall time: {elapsed:.2f}s")
    if args.print_actions and winner.success:
        from .dsl.pretty import format_protocol

        protocol, _invariant = builder(*builder_args)
        print(format_protocol(protocol.with_groups(winner.pss_groups)))
    if args.emit_cert and winner.success:
        from .cert import ConvergenceCertificate
        from .cert.emit import emit_certificate_from_groups

        if winner.certificate is not None:
            cert = ConvergenceCertificate.from_payload(winner.certificate)
        else:
            # certificate-less winner (e.g. a pre-certificate cache entry):
            # recompute the witness from the recorded groups
            protocol, invariant = builder(*builder_args)
            cert = emit_certificate_from_groups(
                protocol,
                invariant,
                [set(map(tuple, g)) for g in winner.pss_groups],
                mode="strong",
                schedule=winner.config.schedule,
            )
        cert.save(args.emit_cert)
        print(f"certificate written to {args.emit_cert}")
    if trace_dir is not None:
        print(f"traces written to {os.path.join(trace_dir, 'merged.jsonl')}")
    return 0 if winner.success else 1


def _cmd_worker(args) -> int:
    """``stsyn worker --listen host:port`` — one node of a distributed race.

    Serves one coordinator connection at a time: runs each shipped config
    through the full heuristic, heartbeats while computing, and honours
    cancel frames through the standard cooperative-cancellation path.  A
    dropped coordinator cancels the running job and the server returns to
    accepting, so a crashed sweep never wedges the fleet.
    """
    import signal

    from .parallel.transport import run_worker_server

    jobs = run_worker_server(
        args.listen,
        max_jobs=args.max_jobs,
        drain_timeout=args.drain_timeout,
        log=lambda line: print(line, flush=True),
    )
    # a drained worker has nothing left to stop: a late SIGTERM/SIGINT
    # (e.g. a supervisor's second signal) must not kill it with -15 while
    # the interpreter shuts down.  Ignored process-wide, not masked: a
    # mask covers only this thread, and the server's daemon threads are
    # still alive to take the signal
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, signal.SIG_IGN)
    print(f"worker served {jobs} job(s)")
    return 0


def _cmd_serve(args) -> int:
    """``stsyn serve`` — the synthesis service (see docs/ARCHITECTURE.md)."""
    from .service import run_service

    _n_workers, endpoints = (None, None)
    if args.workers:
        _n_workers, endpoints = _parse_workers(args.workers)
        if endpoints is None:
            raise SystemExit(
                "--workers takes remote endpoints (host:port,...); "
                "local fleet width is --max-concurrent"
            )
    run_service(
        args.data_dir,
        host=args.host,
        port=args.port,
        max_concurrent=args.max_concurrent,
        max_queued=args.max_queued,
        worker_endpoints=endpoints,
        lease_timeout=args.lease_timeout,
        soft_deadline=args.soft_deadline,
        log=lambda line: print(line, flush=True),
    )
    return 0


def _cmd_trace_report(args) -> int:
    from .trace import trace_report

    if args.follow:
        if len(args.paths) != 1:
            print("--follow takes exactly one trace file", file=sys.stderr)
            return 2
        return _follow_trace(args.paths[0])
    missing = [p for p in args.paths if not os.path.exists(p)]
    if missing:
        print(f"no such trace file: {', '.join(missing)}", file=sys.stderr)
        return 2
    print(trace_report(args.paths))
    return 0


def _follow_trace(path: str) -> int:
    """``stsyn trace-report --follow``: tail a live JSONL trace.

    Shares the torn-last-line guard with the service's streaming endpoint
    (:mod:`repro.trace.tail`): a line the writer is mid-flushing is held
    back until its newline arrives, never printed half-parsed.
    """
    from .trace import follow_jsonl, format_record

    try:
        for record in follow_jsonl(path):
            print(format_record(record), flush=True)
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_verify(args) -> int:
    from .verify import analyze_stabilization

    protocol, invariant = _build(args)
    verdict = analyze_stabilization(protocol, invariant)
    print(verdict.describe())
    ok = (
        verdict.weakly_stabilizing
        if args.mode == "weak"
        else verdict.strongly_stabilizing
    )
    return 0 if ok else 1


def _cmd_certify(args) -> int:
    """Synthesize and write a standalone convergence certificate."""
    from .faults.runtime import FaultPlan

    protocol, invariant = _build(args)
    t0 = time.perf_counter()
    if args.mode == "weak":
        if args.engine == "symbolic":
            raise SystemExit("weak certificates require --engine explicit")
        from .core.weak import synthesize_weak

        result = synthesize_weak(protocol, invariant, minimize=True)
        cert = result.certificate()
    elif args.engine == "symbolic":
        from .symbolic import SymbolicProtocol, add_strong_convergence_symbolic

        with _input_errors():
            sp = SymbolicProtocol(protocol)
        inv = sp.sym.from_predicate(invariant)
        res = add_strong_convergence_symbolic(protocol, inv, sp=sp)
        if not res.success:
            print("synthesis failed; no certificate to emit", file=sys.stderr)
            return 1
        cert = res.certificate()
    else:
        from .core import synthesize

        portfolio = synthesize(protocol, invariant)
        if not portfolio.success:
            print("synthesis failed; no certificate to emit", file=sys.stderr)
            return 1
        cert = portfolio.result.certificate()
    elapsed = time.perf_counter() - t0
    # REPRO_FAULT_PLAN's corrupt_certificate knob drives the CI tamper drill
    cert.save(args.out, fault_plan=FaultPlan.from_env())
    print(
        f"certificate: mode={cert.mode} engine={cert.engine} "
        f"encoding={cert.encoding} max_rank={cert.max_rank} "
        f"schema={cert.schema}"
    )
    print(f"certificate written to {args.out} ({elapsed:.2f}s)")
    return 0


def _cmd_check_cert(args) -> int:
    """Independently re-check a certificate against the input protocol."""
    from .cert import (
        CertificateError,
        CertificateViolation,
        ConvergenceCertificate,
        check_certificate_symbolic,
        validate_certificate,
    )

    try:
        cert = ConvergenceCertificate.load(args.cert)
    except (OSError, CertificateError) as exc:
        print(f"unreadable certificate {args.cert}: {exc}", file=sys.stderr)
        return 2
    protocol, invariant = _build(args)
    t0 = time.perf_counter()
    if args.engine == "symbolic":
        violation = None
        try:
            check = check_certificate_symbolic(protocol, invariant, cert)
        except CertificateViolation as exc:
            check, violation = None, exc
        except CertificateError as exc:
            print(f"certificate REJECTED: {exc}")
            return 1
    else:
        check, violation = validate_certificate(protocol, invariant, cert)
    elapsed = time.perf_counter() - t0
    if violation is not None:
        print("certificate REJECTED:")
        print(violation.describe())
        return 1
    print(f"{check.describe()} ({elapsed * 1000:.1f} ms)")
    return 0


def _cmd_analyze(args) -> int:
    from .analysis import analyze_local_correctability, analyze_symmetry

    protocol, invariant = _build(args)
    report = analyze_local_correctability(protocol, invariant)
    print(f"locally correctable: {report.locally_correctable}")
    print(f"  {report.reason}")
    try:
        print(analyze_symmetry(protocol).describe())
    except ValueError:
        print("symmetry: topology is not a simple ring; skipped")
    return 0


def _cmd_rank(args) -> int:
    from .core import compute_ranks

    protocol, invariant = _build(args)
    ranking = compute_ranks(protocol, invariant)
    hist = ranking.rank_histogram()
    print(f"max rank M = {ranking.max_rank}")
    for rank in sorted(hist):
        label = "inf" if rank == -1 else str(rank)
        print(f"  rank {label:>3}: {hist[rank]} states")
    print(
        "stabilizing version exists"
        if ranking.admits_stabilization()
        else "NO stabilizing version exists (Theorem IV.1)"
    )
    return 0


def _cmd_fuzz(args) -> int:
    from .fuzz import GeneratorConfig, resolve_oracles, run_fuzz
    from .trace import use_tracer

    try:
        resolve_oracles(args.oracle)
    except ValueError as exc:
        print(f"stsyn: {exc}", file=sys.stderr)
        return 2
    overrides = {}
    if args.max_processes is not None:
        overrides["max_processes"] = args.max_processes
    if args.max_states is not None:
        overrides["max_states"] = args.max_states
    if args.topology:
        overrides["topologies"] = tuple(args.topology)
    config = GeneratorConfig(**overrides)
    tracer = _make_tracer(args, command="fuzz")
    try:
        with use_tracer(tracer):
            report = run_fuzz(
                args.seed,
                args.iterations,
                oracle_names=args.oracle,
                generator_config=config,
                minimize=args.minimize,
                corpus_dir=args.corpus_dir,
                time_budget=args.time_budget,
            )
        print(report.render())
        if tracer.enabled:
            print(f"trace written to {args.trace}")
        return 1 if report.n_findings else 0
    finally:
        tracer.close()


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stsyn",
        description="STSyn — automated design of convergence (IPDPS 2011 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    protocols = ["token-ring", "matching", "coloring", "two-ring", "gouda-acharya"]

    def add_common(p):
        p.add_argument(
            "protocol",
            choices=protocols,
            nargs="?",
            default="token-ring",
            help="built-in case study (ignored with --file)",
        )
        p.add_argument("-k", type=int, default=None, help="number of processes")
        p.add_argument(
            "-d", "--domain", type=int, default=None, help="variable domain size"
        )
        p.add_argument(
            "--file",
            default=None,
            help="compile the protocol from a .stsyn guarded-command file",
        )

    p_syn = sub.add_parser("synthesize", help="add strong convergence")
    add_common(p_syn)
    p_syn.add_argument(
        "--engine", choices=["explicit", "symbolic"], default="explicit"
    )
    p_syn.add_argument(
        "--print-actions", action="store_true", help="print guarded commands"
    )
    p_syn.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write a JSONL trace of the run (see 'stsyn trace-report'); "
        "with --workers/--cache-dir this is a trace *directory*",
    )
    p_syn.add_argument(
        "--workers",
        default=None,
        metavar="N|HOST:PORT,...",
        help="race the portfolio across N local worker processes with "
        "shared precompute, or across remote 'stsyn worker' endpoints "
        "given as host:port[,host:port...] (explicit engine only)",
    )
    p_syn.add_argument(
        "--lease-timeout",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="remote workers only: re-dispatch a config whose worker has "
        "not heartbeat for this long (default 10)",
    )
    p_syn.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="on-disk synthesis memo cache: repeat runs of an already-solved "
        "(protocol, schedule, options) config return without spawning workers",
    )
    p_syn.add_argument(
        "--resume",
        action="store_true",
        help="replay every outcome stored in --cache-dir, crashed-out and "
        "deadline-cancelled ones included, instead of re-running it "
        "(checkpoint/resume after a killed sweep)",
    )
    p_syn.add_argument(
        "--hard-deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="watchdog: terminate and requeue a worker stuck on one config "
        "longer than this (distinct from the cooperative soft deadline)",
    )
    p_syn.add_argument(
        "--max-retries",
        type=int,
        default=2,
        metavar="N",
        help="requeue a crashed/hung config at most N times "
        "(capped exponential backoff); default 2",
    )
    p_syn.add_argument(
        "--auto-reorder",
        action="store_true",
        help="enable size-triggered dynamic BDD variable reordering "
        "(symbolic engine only)",
    )
    p_syn.add_argument(
        "--emit-cert",
        default=None,
        metavar="PATH",
        help="write the convergence certificate of a successful synthesis "
        "(check it later with 'stsyn check-cert')",
    )
    p_syn.set_defaults(func=_cmd_synthesize)

    p_worker = sub.add_parser(
        "worker",
        help="serve portfolio jobs to remote coordinators over TCP "
        "(pair with 'stsyn synthesize --workers host:port,...')",
    )
    p_worker.add_argument(
        "--listen",
        default="127.0.0.1:9178",
        metavar="HOST:PORT",
        help="address to listen on (default 127.0.0.1:9178; port 0 picks "
        "a free port and prints it)",
    )
    p_worker.add_argument(
        "--max-jobs",
        type=int,
        default=None,
        metavar="N",
        help="exit after serving N jobs (default: serve forever)",
    )
    p_worker.add_argument(
        "--drain-timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="on SIGTERM/SIGINT: stop accepting, finish the in-flight job "
        "for up to this long (then cancel it cooperatively), send final "
        "heartbeats and exit 0 (default 30)",
    )
    p_worker.set_defaults(func=_cmd_worker)

    p_serve = sub.add_parser(
        "serve",
        help="synthesis-as-a-service: HTTP job API with streaming traces "
        "and a certificate-backed result store",
    )
    p_serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    p_serve.add_argument(
        "--port",
        type=int,
        default=9180,
        help="listen port (default 9180; 0 picks a free port and prints it)",
    )
    p_serve.add_argument(
        "--data-dir",
        default="stsyn-service",
        metavar="DIR",
        help="service state: job artifacts under DIR/jobs, the "
        "content-addressed result store under DIR/store (default "
        "./stsyn-service)",
    )
    p_serve.add_argument(
        "--workers",
        default=None,
        metavar="HOST:PORT,...",
        help="remote 'stsyn worker' endpoints to race jobs on "
        "(default: local worker processes)",
    )
    p_serve.add_argument(
        "--max-concurrent",
        type=int,
        default=2,
        metavar="N",
        help="jobs racing at once; the rest wait queued (default 2)",
    )
    p_serve.add_argument(
        "--max-queued",
        type=int,
        default=64,
        metavar="N",
        help="admission queue bound; beyond it submissions get 429 "
        "(default 64)",
    )
    p_serve.add_argument(
        "--lease-timeout",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="remote workers only: re-dispatch a config whose worker has "
        "not heartbeat for this long (default 10)",
    )
    p_serve.add_argument(
        "--soft-deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-job cooperative budget passed to every race",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_trace = sub.add_parser(
        "trace-report",
        help="summarize JSONL trace files (spans, counters, BDD stats)",
    )
    p_trace.add_argument("paths", nargs="+", help="trace files to aggregate")
    p_trace.add_argument(
        "--follow",
        action="store_true",
        help="tail one live JSONL trace, printing records as the writer "
        "flushes them (torn last lines are held back, never half-printed)",
    )
    p_trace.set_defaults(func=_cmd_trace_report)

    p_ver = sub.add_parser("verify", help="check stabilization of the input")
    add_common(p_ver)
    p_ver.add_argument(
        "--mode",
        choices=["strong", "weak"],
        default="strong",
        help="which stabilization property gates the exit status "
        "(default strong); the full verdict is printed either way",
    )
    p_ver.set_defaults(func=_cmd_verify)

    p_cert = sub.add_parser(
        "certify",
        help="synthesize and write a standalone convergence certificate",
    )
    add_common(p_cert)
    p_cert.add_argument(
        "--mode", choices=["strong", "weak"], default="strong"
    )
    p_cert.add_argument(
        "--engine", choices=["explicit", "symbolic"], default="explicit"
    )
    p_cert.add_argument(
        "--out",
        required=True,
        metavar="PATH",
        help="where to write the certificate JSON",
    )
    p_cert.set_defaults(func=_cmd_certify)

    p_chk = sub.add_parser(
        "check-cert",
        help="independently re-check a certificate (no re-synthesis); "
        "non-zero exit on rejection, for CI gating",
    )
    p_chk.add_argument("cert", help="certificate JSON written by 'certify'")
    add_common(p_chk)
    p_chk.add_argument(
        "--engine", choices=["explicit", "symbolic"], default="explicit"
    )
    p_chk.set_defaults(func=_cmd_check_cert)

    p_ana = sub.add_parser("analyze", help="local correctability and symmetry")
    add_common(p_ana)
    p_ana.set_defaults(func=_cmd_analyze)

    p_rank = sub.add_parser("rank", help="ComputeRanks histogram")
    add_common(p_rank)
    p_rank.set_defaults(func=_cmd_rank)

    p_fuzz = sub.add_parser(
        "fuzz",
        help="differential fuzzing: random protocols through the "
        "cross-engine oracle bank (see docs/FUZZING.md)",
    )
    p_fuzz.add_argument(
        "--seed", type=int, default=0, help="campaign master seed"
    )
    p_fuzz.add_argument(
        "--iterations", type=int, default=50, metavar="N",
        help="instances to generate (default 50)",
    )
    p_fuzz.add_argument(
        "--time-budget",
        type=float,
        default=None,
        metavar="SECONDS",
        help="stop after this much wall clock; makes the iteration count "
        "time-dependent, so the run is no longer bit-for-bit reproducible",
    )
    p_fuzz.add_argument(
        "--oracle",
        action="append",
        default=None,
        metavar="NAME",
        help="oracle to run (repeatable or comma-separated); names, 'default' "
        "(all in-process oracles) or 'all' (adds the multi-process "
        "'portfolio' oracle)",
    )
    p_fuzz.add_argument(
        "--minimize",
        action="store_true",
        help="shrink failing instances before reporting/persisting them",
    )
    p_fuzz.add_argument(
        "--corpus-dir",
        default=None,
        metavar="DIR",
        help="persist failing instances here as .stsyn + .json regression "
        "entries (the committed corpus lives in tests/corpus/)",
    )
    p_fuzz.add_argument(
        "--max-processes", type=int, default=None, metavar="K",
        help="cap on generated process count",
    )
    p_fuzz.add_argument(
        "--max-states", type=int, default=None, metavar="N",
        help="cap on generated state-space size",
    )
    p_fuzz.add_argument(
        "--topology",
        action="append",
        default=None,
        choices=["ring", "path", "grid", "torus", "erdos_renyi"],
        help="restrict generation to these topologies (repeatable)",
    )
    p_fuzz.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write a JSONL trace (fuzz.* counters; see 'stsyn trace-report')",
    )
    p_fuzz.set_defaults(func=_cmd_fuzz)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away (``stsyn ... | head``): send the rest of the
        # output to devnull so the interpreter's final flush cannot fail too
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
