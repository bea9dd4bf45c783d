"""Parallel portfolio synthesis (paper Figure 1): a fault-tolerant race.

"For each schedule, we can instantiate one instance of our heuristic on a
separate machine" — here, on worker *processes*.  Workers race over the
configuration portfolio; the first verified success wins and the rest are
cancelled.  One machine per schedule only pays off at scale if a single
lost machine cannot take down the whole race, so the runtime is built for
survivability (see ``docs/ARCHITECTURE.md``, "Fault tolerance"):

* **supervised dispatch** — jobs travel as JSON frames to dedicated
  workers over :mod:`repro.parallel.transport`: local slots are child
  processes on a ``socket.socketpair()`` by default, remote ``stsyn
  worker`` endpoints are reached over TCP with ``worker_endpoints=...``.
  A worker killed by the OOM killer or a segfault costs exactly its own
  config: the parent sees the channel die, requeues the config with
  capped exponential backoff, replaces the worker and keeps the race
  going;
* **leases** — silence is not death (a network partition or a wedged
  worker delivers nothing), so every dispatched config carries a lease:
  the worker heartbeats while computing (a local slot's lease starts at
  its hello, once the process is up), missed heartbeats past
  ``lease_timeout`` expire the lease and re-dispatch the config (same
  capped backoff), and a *late* result from the expired lease is accepted
  only if its convergence certificate independently re-checks
  (``transport.duplicate_results`` / ``transport.duplicates_accepted``);
  when remote capacity is lost the race degrades to local slots
  (``transport.degraded_to_local``) rather than stalling;
* **watchdog** — a per-config *hard* deadline (distinct from the
  cooperative ``soft_deadline`` that workers poll themselves): a worker
  wedged past it is terminated and replaced, its config requeued.  The
  effective limit is ``hard_deadline + options.stall_seconds`` so the
  simulated slow machines of the paper's heterogeneous setting are not
  penalised for their stall;
* **checkpoint/resume** — with ``cache_dir`` set, every settled outcome
  (done, crashed-out or deadline-cancelled) is stored in the cache
  (:mod:`repro.parallel.cache`) as it settles; ``resume=True`` replays
  those entries instead of re-running their configs after a SIGKILL or
  power loss;
* **fault injection** — a per-race :class:`repro.faults.FaultPlan` (or
  the ``REPRO_FAULT_PLAN`` environment variable) deterministically crashes
  or hangs targeted workers, drops, delays or duplicates their frames,
  corrupts cache entries and drops trace files, so all of the above is
  testable in CI.

Crash/kill/retry activity flows into the parent trace as the
``portfolio.worker_crashes`` / ``portfolio.watchdog_kills`` /
``portfolio.retries`` counters, rendered by ``stsyn trace-report``.

The other cooperating parts are unchanged from the shared-precompute
engine: :mod:`repro.parallel.precompute` (one-shot schedule-independent
work, zero-copy under fork, shared-memory rank array under spawn),
:mod:`repro.parallel.scheduler` (cost-ordered queue, soft deadlines,
cooperative :class:`CancelToken`) and :mod:`repro.parallel.cache` (the
on-disk outcome store; stored successes are re-trusted through
:func:`repro.cert.trust_outcome`, corrupt or untrusted entries are
quarantined).  With ``trace_dir`` set, every
worker attempt streams its own JSONL trace and the parent writes
``portfolio.jsonl``; whatever survives merges into ``merged.jsonl``.
"""

from __future__ import annotations

import dataclasses
import multiprocessing as mp
import os
import time
from collections import deque
from contextlib import ExitStack
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from typing import Callable, Sequence

from ..core.exceptions import PortfolioError, TransportError
from ..core.heuristic import HeuristicOptions
from ..core.synthesizer import SynthesisConfig, check_winner, default_portfolio
from ..faults import runtime as fault_runtime
from ..faults.runtime import FaultPlan
from ..metrics.stats import SynthesisStats
from ..trace.tracer import NULL_TRACER, Tracer
from .cache import SynthesisCache, protocol_fingerprint
from .precompute import (
    PortfolioPrecompute,
    PrecomputeSpec,
    SharedRankArray,
    precompute_portfolio,
)
from .scheduler import CancelToken, CostModel, order_portfolio
from .transport import (
    Message,
    WorkerChannel,
    WorkerTransport,
    builder_ref,
    outcome_from_payload,
)

#: builder: () -> (protocol, invariant); must be a picklable top-level callable
Builder = Callable[[], tuple]

#: name of the parent-side trace file inside ``trace_dir``
PARENT_TRACE = "portfolio.jsonl"

#: supervisor poll interval: result wait, liveness and watchdog checks
POLL_INTERVAL = 0.05


@dataclass
class ParallelOutcome:
    """Result of one worker: enough to reconstruct the winning protocol."""

    config: SynthesisConfig
    success: bool
    pss_groups: list[set[tuple[int, int]]] | None
    remaining_deadlocks: int
    timers: dict[str, float]
    counters: dict[str, int] = field(default_factory=dict)
    #: this worker's JSONL trace file (None when tracing was off)
    trace_path: str | None = None
    #: True when the run stopped cooperatively instead of completing
    cancelled: bool = False
    #: why: "cancelled" (a winner verified first) or "deadline" (over budget)
    cancel_reason: str | None = None
    #: True when the outcome came from the on-disk cache (no worker ran)
    cached: bool = False
    #: worker wall-clock in seconds (as recorded, for stored outcomes)
    duration: float = 0.0
    #: True when every attempt died (crash or watchdog kill) — the config
    #: was retried ``retries`` times and never produced an answer
    crashed: bool = False
    #: how many times the config was requeued after a crash/kill
    retries: int = 0
    #: True when the outcome was replayed from the store by ``resume=True``
    resumed: bool = False
    #: JSON payload of the :class:`ConvergenceCertificate` the worker's
    #: winner check emitted and accepted (None when the run failed); the
    #: parent — and later store readers — trust the recorded
    #: ``pss_groups`` only by re-checking it, and refuse a success without
    #: one
    certificate: dict | None = None


# ----------------------------------------------------------------------
# the worker side: one job, and the local slot's process
# ----------------------------------------------------------------------


def _worker(
    context: dict, config, index: int, trace_path, attempt: int, cancel_event
) -> ParallelOutcome:
    """Run one job in a worker.

    ``context`` holds the soft deadline, the builder and the precompute the
    worker starts from (None when precompute is not shared, or on a remote
    worker: the job then rebuilds everything from the builder).
    ``cancel_event`` is set by the worker's connection loop when a
    ``cancel`` frame arrives.
    """
    from ..core.exceptions import SynthesisCancelled
    from ..core.heuristic import add_strong_convergence

    fault_runtime.set_fault_context(config.describe(), attempt)
    precompute = context["precompute"]
    cancel = CancelToken.with_budget(
        event=cancel_event, budget=context["soft_deadline"]
    )
    tracer = (
        Tracer(
            trace_path, worker=index, attempt=attempt, config=config.describe()
        )
        if trace_path is not None
        else NULL_TRACER
    )
    t0 = time.perf_counter()
    try:
        if precompute is not None:
            protocol, invariant = precompute.protocol, precompute.invariant
        else:
            protocol, invariant = context["builder"](*context["builder_args"])
        tracer.event(
            "worker.start",
            protocol=protocol.name,
            shared_precompute=precompute is not None,
        )
        fault_runtime.fault_point("worker.start")
        stats = SynthesisStats(tracer=tracer)
        try:
            result = add_strong_convergence(
                protocol,
                invariant,
                schedule=config.schedule,
                options=config.options,
                stats=stats,
                precompute=precompute,
                cancel=cancel,
            )
        except SynthesisCancelled as exc:
            tracer.event("worker.cancelled", reason=exc.reason)
            return ParallelOutcome(
                config=config,
                success=False,
                pss_groups=None,
                remaining_deadlocks=-1,
                timers=dict(stats.timers),
                counters=dict(stats.counters),
                trace_path=trace_path,
                cancelled=True,
                cancel_reason=exc.reason,
                duration=time.perf_counter() - t0,
                retries=attempt,
            )
        success = result.success
        certificate = None
        if success:
            check_winner(
                protocol, invariant, result, config.describe(), tracer
            )
            certificate = result.certificate().to_payload()
        tracer.event("worker.done", success=success)
        return ParallelOutcome(
            config=config,
            success=success,
            pss_groups=(
                [set(g) for g in result.protocol.groups] if success else None
            ),
            remaining_deadlocks=(
                0 if success else result.remaining_deadlocks.count()
            ),
            timers=dict(stats.timers),
            counters=dict(stats.counters),
            trace_path=trace_path,
            duration=time.perf_counter() - t0,
            retries=attempt,
            certificate=certificate,
        )
    finally:
        tracer.close()


def _local_slot_main(
    sock, soft_deadline, builder, builder_args, precompute, fault_plan
) -> None:
    """Entry point of one local worker process.

    ``precompute`` is the race's own :class:`PortfolioPrecompute` under
    fork (a ``Process`` argument, inherited zero-copy without pickling) or
    its picklable :class:`PrecomputeSpec` under spawn, rebuilt here once
    with the rank array attached from shared memory; None when precompute
    sharing is disabled.  The process then serves its end of the
    socketpair with the connection loop ``stsyn worker`` runs.
    """
    from .transport import WorkerServer

    # a forked child must not inherit a partition (or a job context) that
    # an in-process worker server tripped in the parent
    fault_runtime.heal_partition()
    fault_runtime.set_fault_context("", 0)
    fault_runtime.install_fault_plan(fault_plan)
    if isinstance(precompute, PrecomputeSpec):
        precompute = precompute.rebuild()
    context = {
        "soft_deadline": soft_deadline,
        "builder": builder,
        "builder_args": builder_args,
        "precompute": precompute,
    }

    def run_job(frame: dict, config, cancel) -> ParallelOutcome:
        return _worker(
            context, config, int(frame["index"]), frame.get("trace_path"),
            int(frame["attempt"]), cancel,
        )

    try:
        WorkerServer().serve_connection(sock, run_job)
    except KeyboardInterrupt:
        pass
    finally:
        sock.close()


def merge_worker_traces(
    trace_dir: str | os.PathLike, fault_plan: FaultPlan | None = None
) -> str | None:
    """Merge ``portfolio.jsonl`` (parent) and every ``worker_*.jsonl`` under
    ``trace_dir`` into ``merged.jsonl``; returns its path (None when no
    trace files exist).  Honours ``fault_plan``'s ``drop_trace_file`` (the
    drill for a worker trace lost to a full disk or node failure)."""
    from ..trace.report import merge_traces

    trace_dir = os.fspath(trace_dir)
    paths = []
    for name in sorted(os.listdir(trace_dir)):
        if not (name.startswith("worker_") and name.endswith(".jsonl")):
            continue
        path = os.path.join(trace_dir, name)
        if fault_runtime.should_drop_trace(name, fault_plan):
            try:
                os.remove(path)
            except OSError:
                pass
            continue
        paths.append(path)
    parent = os.path.join(trace_dir, PARENT_TRACE)
    if os.path.exists(parent):
        paths.insert(0, parent)
    if not paths:
        return None
    merged = os.path.join(trace_dir, "merged.jsonl")
    merge_traces(paths, merged)
    return merged


def _clear_stale_traces(trace_dir: str | os.PathLike) -> None:
    """Remove ``worker_*.jsonl`` / ``merged.jsonl`` left by a previous run in
    the same directory, so :func:`merge_worker_traces` cannot resurrect
    another race's traces into this run's ``merged.jsonl``."""
    trace_dir = os.fspath(trace_dir)
    for name in os.listdir(trace_dir):
        if name == "merged.jsonl" or (
            name.startswith("worker_") and name.endswith(".jsonl")
        ):
            try:
                os.remove(os.path.join(trace_dir, name))
            except OSError:
                pass


def _get_mp_context(start_method: str | None):
    """The multiprocessing context: fork where available (zero-copy
    precompute), spawn elsewhere (Windows, macOS default)."""
    available = mp.get_all_start_methods()
    if start_method is None:
        start_method = "fork" if "fork" in available else "spawn"
    elif start_method not in available:
        raise ValueError(
            f"start method {start_method!r} unavailable (have {available})"
        )
    return mp.get_context(start_method), start_method


def _pick_best(outcomes: Sequence[ParallelOutcome]) -> ParallelOutcome:
    """Best failure: fewest remaining deadlocks among completed runs;
    crashed-out and cancelled runs (unknown deadlock count) only as a last
    resort.  Raises :class:`PortfolioError` when nothing survived at all."""
    if not outcomes:
        raise PortfolioError(
            "portfolio produced no reportable outcome: every run was "
            "race-cancelled or lost before completing"
        )
    finished = [o for o in outcomes if not o.cancelled and not o.crashed]
    if finished:
        return min(finished, key=lambda o: o.remaining_deadlocks)
    crashed = [o for o in outcomes if o.crashed]
    if crashed:
        return crashed[0]
    return outcomes[0]


# ----------------------------------------------------------------------
# the supervisor: crash isolation, watchdog, capped retries
# ----------------------------------------------------------------------


@dataclass
class _Job:
    config: SynthesisConfig
    index: int
    attempt: int = 0
    #: monotonic instant before which the job must not be dispatched
    eligible_at: float = 0.0
    #: the worker trace this attempt writes (None: untraced or remote)
    trace_path: str | None = None


class _Slot:
    """One supervised worker slot: its channel, lease and current assignment."""

    __slots__ = ("channel", "job", "started", "last_beat", "lease_id")

    def __init__(self, channel: WorkerChannel):
        self.channel: WorkerChannel | None = channel
        self.job: _Job | None = None
        self.started = 0.0
        #: last proof of life for the current lease (heartbeat, dispatch,
        #: or a liveness check before a local slot's hello)
        self.last_beat = 0.0
        self.lease_id: str | None = None


def _retry_delay(
    attempt: int, index: int, base: float, cap: float
) -> float:
    """Capped exponential backoff with deterministic jitter (no shared RNG:
    the jitter is a hash of (job index, attempt), so retries of different
    configs spread out and tests replay identically)."""
    delay = min(base * (2.0 ** attempt), cap)
    jitter = ((index * 2654435761 + attempt * 40503) % 1000) / 1000.0
    return delay * (1.0 + 0.25 * jitter)


class _Supervisor:
    """Supervised dispatch loop replacing the bare ``Pool.imap_unordered``.

    Each job goes to a dedicated worker channel obtained from a transport;
    a dead channel (EOF, dead process, socket error) requeues its config
    with backoff (up to ``max_retries``) and the transport supplies a
    replacement.  A worker running one config past the hard deadline is
    killed by the watchdog and handled the same way.

    Every channel also runs the **lease protocol**: a busy slot whose last
    heartbeat is older than ``lease_timeout`` has its lease expired — the
    config is re-dispatched with the same backoff, while the silent channel
    moves to the ``suspects`` list and keeps being pumped.  A late result
    from an expired lease (or a retransmitted duplicate frame) is counted
    as ``transport.duplicate_results`` and accepted only when it claims
    success *and* ``verify_duplicate`` independently re-establishes trust
    (certificate check); everything else is discarded.

    When a winner verifies, or the caller sets ``cancel_event``, every busy
    slot is sent a ``cancel`` frame and nothing more is dispatched; the
    busy workers get ``cancel_grace`` seconds to exit cooperatively
    (keeping their traces) before shutdown terminates whatever is left.
    """

    def __init__(
        self,
        transport,
        n_workers: int,
        jobs: Sequence[_Job],
        *,
        cancel_event,
        tracer,
        trace_path_for: Callable[[int, int], str | None],
        hard_deadline: float | None,
        max_retries: int,
        retry_backoff: float,
        retry_backoff_cap: float,
        cancel_grace: float,
        on_result: Callable[[ParallelOutcome], None],
        lease_timeout: float = 10.0,
        verify_duplicate: Callable[[ParallelOutcome], bool] | None = None,
    ):
        self.transport = transport
        self.n_workers = n_workers
        self.pending: deque[_Job] = deque(jobs)
        self.cancel_event = cancel_event
        self.tracer = tracer
        self.trace_path_for = trace_path_for
        self.hard_deadline = hard_deadline
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        self.retry_backoff_cap = retry_backoff_cap
        self.cancel_grace = cancel_grace
        self.on_result = on_result
        self.lease_timeout = lease_timeout
        self.verify_duplicate = verify_duplicate
        self.slots: list[_Slot] = []
        #: every lease ever granted (lease id -> job) — kept after settling
        #: so late duplicate results can still be matched to their config
        self.leases: dict[str, _Job] = {}
        #: settled outcome per job index (result recorded or crashed out)
        self.settled: dict[int, ParallelOutcome] = {}
        #: expired-lease channels, still pumped for their late result
        self.suspects: list[WorkerChannel] = []
        self.completed: list[ParallelOutcome] = []
        self.winner: ParallelOutcome | None = None
        self.error: BaseException | None = None
        #: True once the caller's ``cancel_event`` was seen set
        self.cancelled = False
        self.grace_deadline = 0.0
        self.suspect_deadline: float | None = None
        self._lease_seq = 0

    # -- lifecycle -----------------------------------------------------
    def run(self) -> tuple[ParallelOutcome | None, list[ParallelOutcome]]:
        self.slots = [
            _Slot(channel)
            for channel in self.transport.open(
                min(self.n_workers, len(self.pending))
            )
        ]
        try:
            while not self._done():
                self._check_cancel()
                self._dispatch()
                self._collect()
                self._check_liveness()
        finally:
            self._shutdown()
        if self.error is not None:
            raise self.error
        return self.winner, self.completed

    def _done(self) -> bool:
        if self.error is not None:
            return True
        busy = any(s.job is not None for s in self.slots)
        if self.winner is not None or self.cancelled:
            return not busy or time.monotonic() >= self.grace_deadline
        if busy or self.pending:
            self.suspect_deadline = None
            return False
        if self.suspects:
            # everything settled without a winner, but an expired-lease
            # worker may still deliver a verifiable late result: linger
            # one more lease period before giving up on the suspects
            now = time.monotonic()
            if self.suspect_deadline is None:
                self.suspect_deadline = now + max(
                    self.lease_timeout, 2 * POLL_INTERVAL
                )
            return now >= self.suspect_deadline
        return True

    @property
    def _racing(self) -> bool:
        return self.winner is None and self.error is None and not self.cancelled

    def _cancel_busy(self) -> None:
        """Tell every busy worker to stop, and give it ``cancel_grace``
        seconds to exit at its next pass/rank boundary."""
        for slot in self.slots:
            if slot.channel is not None and slot.job is not None:
                slot.channel.send_cancel()
        self.grace_deadline = time.monotonic() + self.cancel_grace

    def _check_cancel(self) -> None:
        if (
            self._racing
            and self.cancel_event is not None
            and self.cancel_event.is_set()
        ):
            self.cancelled = True
            self.pending.clear()
            self._cancel_busy()

    # -- dispatch ------------------------------------------------------
    def _pop_eligible(self, now: float) -> _Job | None:
        for i, job in enumerate(self.pending):
            if job.eligible_at <= now:
                del self.pending[i]
                return job
        return None

    def _dispatch(self) -> None:
        if not self._racing:
            return
        now = time.monotonic()
        for slot in self.slots:
            if slot.channel is None or slot.job is not None:
                continue
            job = self._pop_eligible(now)
            if job is None:
                return
            self._lease_seq += 1
            lease_id = f"lease-{self._lease_seq}"
            slot.job = job
            slot.lease_id = lease_id
            slot.started = now
            slot.last_beat = now
            self.leases[lease_id] = job
            remote = slot.channel.remote
            # a remote worker cannot write into this host's trace dir
            job.trace_path = (
                None if remote else self.trace_path_for(job.index, job.attempt)
            )
            payload = {
                "lease_id": lease_id,
                "config": job.config,
                "index": job.index,
                "attempt": job.attempt,
                "trace_path": job.trace_path,
            }
            try:
                slot.channel.send_job(payload)
            except TransportError:
                self._fail(slot, kind="crash")
                continue
            if remote:
                self.tracer.count("transport.remote_dispatches")

    # -- results -------------------------------------------------------
    def _collect(self) -> None:
        slot_map = {
            s.channel.wait_handle(): s
            for s in self.slots
            if s.channel is not None and s.job is not None
        }
        suspect_map = {c.wait_handle(): c for c in self.suspects}
        handles = list(slot_map) + list(suspect_map)
        if not handles:
            # only backoff-delayed retries (or nothing) remain runnable
            time.sleep(POLL_INTERVAL)
            return
        for handle in mp_connection.wait(handles, timeout=POLL_INTERVAL):
            slot = slot_map.get(handle)
            if slot is not None:
                try:
                    messages = slot.channel.pump()
                except TransportError:
                    self._fail(slot, kind="crash")
                    continue
                for message in messages:
                    self._on_message(slot, message)
                    if self.error is not None:
                        return
            else:
                channel = suspect_map[handle]
                try:
                    messages = channel.pump()
                except TransportError:
                    self._drop_suspect(channel)
                    continue
                for message in messages:
                    self._on_stale(message)

    def _decode(self, message: Message, job: _Job) -> ParallelOutcome:
        outcome = outcome_from_payload(job.config, message.payload or {})
        outcome.trace_path = job.trace_path
        return outcome

    def _on_message(self, slot: _Slot, message: Message) -> None:
        if message.kind == "heartbeat":
            if message.lease_id == slot.lease_id:
                slot.last_beat = time.monotonic()
            return
        if message.lease_id != slot.lease_id:
            # a frame for a lease this slot no longer holds — e.g. the
            # second copy of a retransmitted result
            self._on_stale(message)
            return
        job = slot.job
        slot.job = None
        slot.lease_id = None
        if message.kind == "error":
            exc = message.error
            if isinstance(exc, TransportError):
                # infrastructure refusal (busy/confused worker), not an
                # answer: treat like a crash so the config is retried
                slot.job = job
                self._fail(slot, kind="crash")
                return
            self.error = exc
            return
        if job.index in self.settled:
            # the config already settled via a duplicate/re-dispatch race
            self.tracer.count("transport.duplicate_results")
            return
        outcome = self._decode(message, job)
        self.settled[job.index] = outcome
        self._record(outcome)

    def _on_stale(self, message: Message) -> None:
        """Adjudicate a result that arrived after its lease expired (or a
        retransmitted duplicate): count it, and accept a claimed success
        only after independent re-verification."""
        if message.kind != "result":
            return  # heartbeats of an expired lease: too late
        job = self.leases.get(message.lease_id)
        if job is None:
            return
        self.tracer.count("transport.duplicate_results")
        self.tracer.event(
            "transport.duplicate_result",
            config=job.config.describe(),
            lease=message.lease_id,
        )
        prior = self.settled.get(job.index)
        if prior is not None and not (prior.crashed or prior.cancelled):
            return  # the config already has a real answer: pure duplicate
        if self.winner is not None and prior is not None:
            return  # race already decided and this config settled: ignore
        outcome = self._decode(message, job)
        if (
            outcome.success
            and self.verify_duplicate is not None
            and self.verify_duplicate(outcome)
        ):
            # the late worker's answer re-verified independently: accept
            # it, upgrading a crashed-out settle from the expired lease
            self.tracer.count("transport.duplicates_accepted")
            if prior is not None and prior in self.completed:
                self.completed.remove(prior)
            self.settled[job.index] = outcome
            # the re-dispatched copy (if still queued) is now redundant
            self.pending = deque(
                j for j in self.pending if j.index != job.index
            )
            self._record(outcome)
        else:
            self.tracer.event(
                "transport.duplicate_discarded",
                config=job.config.describe(),
                success=outcome.success,
            )

    def _record(self, outcome: ParallelOutcome) -> None:
        if outcome.cancelled and outcome.cancel_reason == "cancelled":
            self.tracer.count("portfolio.losers_cancelled")
            return
        self.completed.append(outcome)
        self.on_result(outcome)
        if outcome.success and self.winner is None:
            self.winner = outcome
            self._cancel_busy()

    # -- crash isolation, watchdog + lease expiry ----------------------
    def _check_liveness(self) -> None:
        now = time.monotonic()
        for slot in self.slots:
            if slot.channel is None or slot.job is None:
                continue
            if not slot.channel.alive():
                self._fail(slot, kind="crash")
                continue
            if not slot.channel.greeted:
                # a local slot's lease starts at its hello: process start-up
                # and the spawn-mode precompute rebuild send no heartbeats
                slot.last_beat = now
            if now - slot.last_beat > self.lease_timeout:
                self._fail(slot, kind="lease")
            elif self._racing and self.hard_deadline is not None:
                limit = (
                    self.hard_deadline + slot.job.config.options.stall_seconds
                )
                if now - slot.started > limit:
                    self._fail(slot, kind="watchdog")

    def _fail(self, slot: _Slot, *, kind: str) -> None:
        job, started = slot.job, slot.started
        channel = slot.channel
        slot.job = None
        slot.lease_id = None
        slot.channel = None
        if kind == "lease":
            self.tracer.count("transport.lease_expiries")
            self.tracer.event(
                "transport.lease_expired",
                config=job.config.describe(),
                attempt=job.attempt,
                worker=channel.worker_id,
            )
            # the worker may only be partitioned away, still computing:
            # keep pumping its socket so a late result can be adjudicated
            self.suspects.append(channel)
        elif kind == "watchdog":
            self.tracer.count("portfolio.watchdog_kills")
            self.tracer.event(
                "portfolio.watchdog_kill",
                config=job.config.describe(),
                attempt=job.attempt,
            )
            channel.kill()
            channel.close()
        else:
            self.tracer.count("portfolio.worker_crashes")
            self.tracer.event(
                "portfolio.worker_crash",
                config=job.config.describe(),
                attempt=job.attempt,
                exitcode=channel.exitcode(),
            )
            channel.kill()
            channel.close()
        if self._racing and job.attempt < self.max_retries:
            delay = _retry_delay(
                job.attempt, job.index, self.retry_backoff,
                self.retry_backoff_cap,
            )
            self.pending.append(
                _Job(
                    job.config,
                    job.index,
                    job.attempt + 1,
                    time.monotonic() + delay,
                )
            )
            self.tracer.count("portfolio.retries")
            self.tracer.event(
                "portfolio.retry",
                config=job.config.describe(),
                attempt=job.attempt + 1,
                delay=round(delay, 3),
            )
        elif job.index not in self.settled:
            crashed_out = ParallelOutcome(
                config=job.config,
                success=False,
                pss_groups=None,
                remaining_deadlocks=-1,
                timers={},
                crashed=True,
                retries=job.attempt,
                duration=time.monotonic() - started,
            )
            self.settled[job.index] = crashed_out
            self._record(crashed_out)
        if self._racing and self.pending:
            slot.channel = self.transport.replace(channel, reason=kind)

    # -- teardown ------------------------------------------------------
    def _drop_suspect(self, channel: WorkerChannel) -> None:
        try:
            channel.close()
        finally:
            if channel in self.suspects:
                self.suspects.remove(channel)

    def _shutdown(self) -> None:
        for slot in self.slots:
            if slot.channel is not None and slot.job is None:
                slot.channel.send_shutdown()
        for slot in self.slots:
            if slot.channel is not None:
                slot.channel.close()
        for channel in list(self.suspects):
            self._drop_suspect(channel)


# ----------------------------------------------------------------------
# the race
# ----------------------------------------------------------------------


def synthesize_parallel(
    builder: Builder,
    builder_args: tuple = (),
    *,
    configs: Sequence[SynthesisConfig] | None = None,
    n_workers: int | None = None,
    base_options: HeuristicOptions | None = None,
    trace_dir: str | os.PathLike | None = None,
    cache_dir: str | os.PathLike | None = None,
    soft_deadline: float | None = None,
    hard_deadline: float | None = None,
    max_retries: int = 2,
    retry_backoff: float = 0.5,
    retry_backoff_cap: float = 8.0,
    resume: bool = False,
    fault_plan: FaultPlan | None = None,
    share_precompute: bool = True,
    start_method: str | None = None,
    cancel_grace: float = 2.0,
    worker_endpoints: Sequence[str] | None = None,
    lease_timeout: float = 10.0,
    cancel_event=None,
) -> tuple[ParallelOutcome, list[ParallelOutcome]]:
    """Race the portfolio across supervised worker processes.

    Returns ``(winner_or_best, completed_outcomes)``.  The protocol is built
    **once** in the parent; its schedule-independent preprocessing is shared
    with every worker (``share_precompute=False`` restores the old
    recompute-everything fan-out, for benchmarking).  The config queue is
    cost-ordered from earlier observed timings (persisted in ``cache_dir``),
    may hold more configs than workers, and drains adaptively: when a
    success verifies, a ``cancel`` frame stops each loser cooperatively at
    its next pass/rank boundary, with termination after ``cancel_grace``
    seconds as the backstop.  Race-cancelled losers are dropped from
    ``completed_outcomes``; deadline-cancelled runs are kept (marked
    ``cancelled``/``cancel_reason="deadline"``).

    Fault tolerance: a worker that dies (OOM kill, segfault, ``os._exit``)
    or exceeds ``hard_deadline`` (watchdog) loses only its own config, which
    is requeued up to ``max_retries`` times with capped exponential backoff
    (``retry_backoff`` .. ``retry_backoff_cap`` seconds, deterministic
    jitter); after exhaustion the config settles as a
    ``ParallelOutcome(crashed=True, retries=N)``.  ``fault_plan`` (default:
    parsed from ``REPRO_FAULT_PLAN``) injects deterministic crashes, hangs,
    corruption and network faults for drills.  It applies to this race
    only (its workers, cache writes and trace merge), never process-wide.

    With ``cache_dir``, every settled outcome is stored on disk as it
    settles (:class:`~repro.parallel.cache.SynthesisCache`).  Repeat runs
    resolve completed configs from the store without spawning workers;
    ``resume=True`` also replays crashed-out and deadline-cancelled
    entries, so a sweep killed by SIGKILL restarts where it stopped.  A
    stored, resumed or late-arriving winner is trusted only through
    :func:`repro.cert.trust_outcome`, which re-checks its convergence
    certificate; a record without a certificate is refused like one whose
    certificate fails.  Refused stored records are quarantined and their
    configs re-run; a refused late result is discarded.  With
    ``trace_dir``, each worker attempt writes
    ``worker_<index>[_r<attempt>].jsonl``, the parent writes
    ``portfolio.jsonl``, and everything surviving merges into
    ``merged.jsonl`` (stale traces from earlier runs are removed first).

    Distributed mode: ``worker_endpoints=["host:port", ...]`` races the
    portfolio across remote ``stsyn worker`` servers over TCP instead of
    local processes (the builder must be an importable module-level
    callable with JSON-serialisable args — remote workers re-import it).
    Local and remote slots speak the same frame protocol, so failure
    detection is lease-based for both: a worker silent for
    ``lease_timeout`` seconds has its config re-dispatched with the same
    capped backoff; a late duplicate result is accepted only after its
    certificate re-checks.  Unreachable/lost endpoints degrade to local
    worker processes, so the race completes even with every remote gone.

    ``cancel_event`` (anything with ``is_set()``, e.g. a
    ``threading.Event`` or a ``multiprocessing.Event``) lets an external
    owner — the ``stsyn serve`` orchestrator cancelling a job — abort the
    whole race cooperatively: the supervisor checks it on every loop turn
    and, once it is set, stops dispatching and sends every busy worker the
    ``cancel`` frame a verified winner triggers, so workers stop at their
    next checkpoint.  A race aborted this way with no winner raises
    :class:`~repro.core.exceptions.PortfolioError` (every run was
    race-cancelled), which the owner maps to "cancelled".
    """
    # local import: repro.cert reaches back into repro.parallel.cache for
    # the protocol fingerprint, so importing it at module top would cycle
    from ..cert import trust_outcome

    if resume and cache_dir is None:
        raise ValueError("resume=True requires cache_dir")
    if fault_plan is None:
        fault_plan = FaultPlan.from_env()

    protocol, invariant = builder(*builder_args)
    config_list = (
        list(configs)
        if configs is not None
        else default_portfolio(protocol.n_processes, base_options=base_options)
    )
    if not config_list:
        raise ValueError("empty portfolio")

    if trace_dir is not None:
        os.makedirs(trace_dir, exist_ok=True)
        _clear_stale_traces(trace_dir)
        tracer = Tracer(
            os.path.join(os.fspath(trace_dir), PARENT_TRACE),
            role="portfolio-parent",
            protocol=protocol.name,
        )
    else:
        tracer = NULL_TRACER

    cache = SynthesisCache(cache_dir) if cache_dir is not None else None
    cost_model = CostModel.in_dir(cache_dir)
    fingerprint = (
        protocol_fingerprint(protocol, invariant)
        if cache_dir is not None
        else ""
    )

    try:
        config_list = order_portfolio(
            config_list, fingerprint, cost_model if cache_dir else None
        )

        # ------------------------------------------------------------------
        # store sweep: settled configs never reach the workers
        # ------------------------------------------------------------------
        completed: list[ParallelOutcome] = []
        winner: ParallelOutcome | None = None
        pending: list[SynthesisConfig] = []
        for config in config_list:
            if cache is None:
                pending.append(config)
                continue
            hit = cache.get(
                fingerprint,
                config,
                protocol,
                invariant,
                tracer=tracer,
                resume=resume,
            )
            if hit is None:
                tracer.event("cache.miss", config=config.describe())
                tracer.count("portfolio.cache_misses")
                pending.append(config)
                continue
            if hit.resumed:
                tracer.event(
                    "portfolio.resume_skip",
                    config=config.describe(),
                    success=hit.success,
                    crashed=hit.crashed,
                )
                tracer.count("portfolio.resume_skips")
            else:
                tracer.event(
                    "cache.hit", config=config.describe(), success=hit.success
                )
                tracer.count("portfolio.cache_hits")
            completed.append(hit)
            if hit.success and winner is None:
                winner = hit
        if cache is not None and cache.quarantined:
            tracer.counter_set(
                "portfolio.cache_quarantined", cache.quarantined
            )
        if winner is not None:
            tracer.event(
                "portfolio.winner",
                config=winner.config.describe(),
                cached=True,
            )
            return winner, completed
        if not pending:
            return _pick_best(completed), completed

        # ------------------------------------------------------------------
        # shared precompute (one-shot, parent-side) + supervised race
        # ------------------------------------------------------------------
        ctx, method = _get_mp_context(start_method)
        with ExitStack() as stack:
            # what each local worker starts from: the precompute itself
            # under fork, its picklable spec under spawn, None unshared
            shared: PortfolioPrecompute | PrecomputeSpec | None = None
            if share_precompute:
                precompute = precompute_portfolio(
                    protocol, invariant, stats=SynthesisStats(tracer=tracer)
                )
                if method != "fork":
                    shared_rank = SharedRankArray.create(
                        precompute.ranking.rank
                    )
                    # cleanup runs even if anything below raises (spec
                    # construction, worker spawn, the race itself), so
                    # spawn-mode failures cannot leak /dev/shm segments
                    stack.callback(shared_rank.unlink)
                    stack.callback(shared_rank.close)
                    shared = PrecomputeSpec.from_precompute(
                        precompute, builder, builder_args, shared_rank
                    )
                else:
                    shared = precompute

            if worker_endpoints:
                n_workers = n_workers or len(worker_endpoints)
            else:
                n_workers = n_workers or min(len(pending), mp.cpu_count())
            tracer.event(
                "portfolio.schedule",
                n_configs=len(pending),
                n_workers=n_workers,
                start_method=method,
                shared_precompute=share_precompute,
                hard_deadline=hard_deadline,
                max_retries=max_retries,
                resume=resume,
                fault_plan=fault_plan is not None,
                transport="tcp" if worker_endpoints else "local",
                endpoints=list(worker_endpoints) if worker_endpoints else None,
                order=[c.describe() for c in pending],
            )

            def trace_path_for(index: int, attempt: int) -> str | None:
                if trace_dir is None:
                    return None
                suffix = f"_r{attempt}" if attempt else ""
                return os.path.join(
                    os.fspath(trace_dir), f"worker_{index}{suffix}.jsonl"
                )

            def on_result(outcome: ParallelOutcome) -> None:
                if not outcome.cancelled and not outcome.crashed:
                    cost_model.observe(
                        fingerprint, outcome.config, outcome.duration
                    )
                if cache is not None:
                    cache.put(fingerprint, outcome, fault_plan=fault_plan)

            def verify_duplicate(outcome: ParallelOutcome) -> bool:
                return trust_outcome(
                    protocol,
                    invariant,
                    outcome.pss_groups,
                    outcome.certificate,
                    tracer=tracer,
                ) is None

            remote_fields = None
            if worker_endpoints:
                remote_fields = dict(
                    builder=builder_ref(builder, builder_args),
                    soft_deadline=soft_deadline,
                    fault_plan=(
                        dataclasses.asdict(fault_plan)
                        if fault_plan is not None
                        else None
                    ),
                )
            transport = WorkerTransport(
                ctx,
                _local_slot_main,
                (soft_deadline, builder, builder_args, shared, fault_plan),
                heartbeat_interval=max(0.05, min(1.0, lease_timeout / 4)),
                endpoints=worker_endpoints or (),
                remote_fields=remote_fields,
                tracer=tracer,
            )
            supervisor = _Supervisor(
                transport,
                n_workers,
                [_Job(config, index) for index, config in enumerate(pending)],
                cancel_event=cancel_event,
                tracer=tracer,
                trace_path_for=trace_path_for,
                hard_deadline=hard_deadline,
                max_retries=max_retries,
                retry_backoff=retry_backoff,
                retry_backoff_cap=retry_backoff_cap,
                cancel_grace=cancel_grace,
                on_result=on_result,
                lease_timeout=lease_timeout,
                verify_duplicate=verify_duplicate,
            )
            winner, raced = supervisor.run()
            completed.extend(raced)
        cost_model.save()
        if winner is not None:
            tracer.event(
                "portfolio.winner", config=winner.config.describe(), cached=False
            )
            return winner, completed
        return _pick_best(completed), completed
    finally:
        if cache is not None:
            # shared-store hygiene counters, surfaced next to transport.*
            for name, value in (
                ("transport.store_partials_swept", cache.partials_swept),
                ("transport.stale_claims_released", cache.stale_claims_released),
                ("transport.claim_conflicts", cache.claim_conflicts),
            ):
                if value:
                    tracer.counter_set(name, value)
        tracer.close()
        if trace_dir is not None:
            merge_worker_traces(trace_dir, fault_plan)
