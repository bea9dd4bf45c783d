"""The asyncio job orchestrator behind ``stsyn serve``.

One event loop multiplexes every concurrent job over one supervised
fleet.  The flow per job:

1. **admit** — :meth:`Orchestrator.submit` validates the payload
   (:class:`~repro.service.jobs.JobSpec`), runs the service fault knobs
   (``reject_job`` → refused with 503, ``slow_admit`` → delayed
   admission) and pushes onto the bounded fair queue — a full queue is a
   429, not unbounded memory;
2. **schedule** — the admission loop pops jobs round-robin across tenants
   and starts each under an ``asyncio.Semaphore(max_concurrent)``, so the
   fleet runs at a bounded width while everything else waits queued;
3. **consult the store** — the job's protocol is built once and the
   content-addressed store (:class:`~repro.parallel.cache.SynthesisCache`)
   is swept; a stored success that :func:`repro.cert.trust_outcome`
   re-trusts (its convergence certificate re-checks independently) answers
   the job in milliseconds (``service.cache_hits``), an untrusted entry is
   quarantined and falls through (``service.store_quarantined``,
   ``cert.check_fail``);
4. **race** — on a miss, ``synthesize_parallel`` runs in an executor
   thread (the race itself is process/TCP-parallel; the loop thread only
   blocks on admission) against local slots or the configured remote
   ``stsyn worker`` endpoints, with ``cache_dir`` pointed at the store so
   completion repopulates it (``service.synth_runs``);
5. **settle** — artifacts land in the job directory (``certificate.json``,
   ``solution.json``), the job trace records the terminal event, and the
   job reaches ``done``/``failed``/``cancelled``.

Cancellation (``DELETE /jobs/<id>``) removes a queued job outright; a
running job has its per-job ``threading.Event`` set.  The race's
supervisor sees it on its next loop turn and sends every busy worker the
same ``cancel`` frame a verified winner triggers — workers stop at their
next pass/rank boundary, the race raises ``PortfolioError`` (nothing
survived) and the orchestrator maps that to ``cancelled``.
"""

from __future__ import annotations

import asyncio
import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from ..core.exceptions import PortfolioError
from ..faults import runtime as fault_runtime
from ..parallel.cache import SynthesisCache, protocol_fingerprint
from ..parallel.pool import ParallelOutcome
from ..trace.tracer import Tracer
from .jobs import InvalidJob, Job, JobQueue, JobRegistry, JobSpec
from .metrics import ServiceMetrics, ServiceTracer


class ServiceRejected(Exception):
    """Admission refused (fault drill or backpressure); maps to 503/429."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


class Orchestrator:
    """Owns the queue, the store, the fleet and every job's lifecycle."""

    def __init__(
        self,
        data_dir: str | os.PathLike,
        *,
        max_concurrent: int = 2,
        max_queued: int = 64,
        n_workers: int | None = None,
        worker_endpoints: list[str] | None = None,
        lease_timeout: float = 10.0,
        soft_deadline: float | None = None,
        metrics: ServiceMetrics | None = None,
    ):
        self.data_dir = os.fspath(data_dir)
        self.jobs_dir = os.path.join(self.data_dir, "jobs")
        os.makedirs(self.jobs_dir, exist_ok=True)
        self.store_dir = os.path.join(self.data_dir, "store")
        self.registry = JobRegistry()
        self.queue = JobQueue(max_queued=max_queued)
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self.max_concurrent = max_concurrent
        self.n_workers = n_workers
        self.worker_endpoints = list(worker_endpoints or [])
        self.lease_timeout = lease_timeout
        self.soft_deadline = soft_deadline
        self._semaphore = asyncio.Semaphore(max_concurrent)
        self._wakeup = asyncio.Event()
        self._closing = False
        self._admission_task: asyncio.Task | None = None
        self._job_tasks: set[asyncio.Task] = set()
        # one executor thread per concurrent race: the thread blocks on the
        # supervisor loop while the actual work runs in worker processes
        self._executor = ThreadPoolExecutor(
            max_workers=max_concurrent, thread_name_prefix="stsyn-job"
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        self._admission_task = asyncio.get_running_loop().create_task(
            self._admission_loop()
        )

    async def close(self) -> None:
        """Stop admitting, cancel running races, wait for them to settle."""
        self._closing = True
        self._wakeup.set()
        for job in self.registry.all():
            if job.state == "running" and job.cancel_event is not None:
                job.cancel_requested = True
                job.cancel_event.set()
        if self._admission_task is not None:
            self._admission_task.cancel()
            try:
                await self._admission_task
            except asyncio.CancelledError:
                pass
        if self._job_tasks:
            await asyncio.gather(*self._job_tasks, return_exceptions=True)
        self._executor.shutdown(wait=True)
        for job in self.registry.all():
            if job.tracer is not None:
                job.tracer.close()  # idempotent; settles still-queued jobs

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    async def submit(self, payload: dict) -> Job:
        """Validate, run fault knobs, queue; raises on refusal."""
        spec = JobSpec.from_payload(payload)  # InvalidJob -> 400 upstream
        description = spec.describe()
        if fault_runtime.should_reject_job(description):
            self.metrics.inc("service.jobs_rejected")
            raise ServiceRejected(
                503, "admission refused by fault drill (reject_job)"
            )
        delay = fault_runtime.admit_delay(description)
        if delay > 0:
            # slow-admit drill: the client sees latency, not an error
            await asyncio.sleep(delay)
        if self._closing:
            self.metrics.inc("service.jobs_rejected")
            raise ServiceRejected(503, "service is shutting down")
        job = self.registry.create(spec, self.jobs_dir)
        if not self.queue.push(job):
            job.state = "failed"
            job.error = "queue full"
            self.metrics.inc("service.jobs_rejected")
            raise ServiceRejected(
                429,
                f"job queue is full ({self.queue.max_queued} queued); retry later",
            )
        self.metrics.inc("service.jobs_submitted")
        job.tracer = Tracer(job.trace_path, job=job.id, tenant=spec.tenant)
        job.tracer.event("job.submitted", spec=spec.to_payload())
        self._wakeup.set()
        return job

    async def _admission_loop(self) -> None:
        while not self._closing:
            job = self.queue.pop()
            if job is None:
                self._wakeup.clear()
                await self._wakeup.wait()
                continue
            await self._semaphore.acquire()
            if job.cancel_requested:
                # cancelled while queued, after pop: settle without running
                self._semaphore.release()
                self._settle_cancelled(job)
                continue
            task = asyncio.get_running_loop().create_task(self._run_job(job))
            self._job_tasks.add(task)
            task.add_done_callback(self._job_tasks.discard)

    # ------------------------------------------------------------------
    # cancellation
    # ------------------------------------------------------------------
    def cancel(self, job: Job) -> bool:
        """Cooperative cancel; True when the request changed anything."""
        if job.terminal:
            return False
        job.cancel_requested = True
        if job.state == "queued" and self.queue.remove(job):
            self._settle_cancelled(job)
            return True
        if job.cancel_event is not None:
            job.cancel_event.set()
        return True

    def _settle_cancelled(self, job: Job) -> None:
        job.state = "cancelled"
        job.finished = time.time()
        self.metrics.inc("service.jobs_cancelled")
        if job.tracer is not None:
            job.tracer.event("job.cancelled", while_state="queued")
            job.tracer.close()

    # ------------------------------------------------------------------
    # the job body
    # ------------------------------------------------------------------
    async def _run_job(self, job: Job) -> None:
        loop = asyncio.get_running_loop()
        job.state = "running"
        job.started = time.time()
        try:
            await loop.run_in_executor(self._executor, self._execute, job)
        except Exception as exc:  # defensive: _execute handles its own errors
            job.state = "failed"
            job.error = f"internal error: {exc}"
            self.metrics.inc("service.jobs_failed")
        finally:
            job.finished = time.time()
            self._semaphore.release()

    def _execute(self, job: Job) -> None:
        """Blocking job body — runs in an executor thread."""
        from ..parallel.pool import synthesize_parallel

        spec = job.spec
        tracer = job.tracer if job.tracer is not None else Tracer(None)
        try:
            tracer.event("job.start")
            builder, builder_args = spec.builder_spec()
            protocol, invariant = builder(*builder_args)
            configs = spec.configs(protocol.n_processes)
            tracer.event(
                "job.portfolio",
                protocol=protocol.name,
                n_configs=len(configs),
                transport="tcp" if self.worker_endpoints else "local",
            )

            hit = self._stored_success(protocol, invariant, configs, tracer)
            if hit is not None:
                # counters live in ServiceMetrics only: /metrics folds the
                # snapshot into the job traces, so emitting them into the
                # trace as well would double-count
                self.metrics.inc("service.cache_hits")
                job.cache_hit = True
                job.cert_verified = hit.certificate is not None
                self._finish(job, hit, tracer, cached=True)
                return

            self.metrics.inc("service.synth_runs")
            job.cancel_event = threading.Event()
            race_dir = os.path.join(job.job_dir, "race")
            try:
                # inside the try so a cancel that lands between the
                # running transition and dispatch settles as cancelled
                if job.cancel_requested:
                    raise PortfolioError("cancelled before dispatch")
                winner, _completed = synthesize_parallel(
                    builder,
                    builder_args,
                    configs=configs,
                    n_workers=self.n_workers,
                    trace_dir=race_dir,
                    cache_dir=self.store_dir,
                    soft_deadline=self.soft_deadline,
                    worker_endpoints=self.worker_endpoints or None,
                    lease_timeout=self.lease_timeout,
                    cancel_event=job.cancel_event,
                )
            except PortfolioError:
                if job.cancel_requested:
                    job.state = "cancelled"
                    self.metrics.inc("service.jobs_cancelled")
                    tracer.event("job.cancelled", while_state="running")
                    return
                raise
            if job.cancel_requested and not winner.success:
                job.state = "cancelled"
                self.metrics.inc("service.jobs_cancelled")
                tracer.event("job.cancelled", while_state="running")
                return
            job.cert_verified = winner.certificate is not None
            self._finish(job, winner, tracer, cached=False)
        except InvalidJob as exc:
            job.state = "failed"
            job.error = str(exc)
            self.metrics.inc("service.jobs_failed")
            tracer.event("job.failed", error=str(exc))
        except Exception as exc:
            job.state = "failed"
            job.error = f"{type(exc).__name__}: {exc}"
            self.metrics.inc("service.jobs_failed")
            tracer.event("job.failed", error=job.error)
        finally:
            tracer.close()

    def _stored_success(
        self, protocol, invariant, configs, tracer
    ) -> ParallelOutcome | None:
        """The first stored success across the job's portfolio that the
        store still trusts.  The lookup is never paranoid, so an entry with
        a certificate is trusted through it (``job.cert_verified``).

        A stored failure is no answer for the service (another schedule
        might succeed), so only a success short-circuits the fleet.  The
        store quarantines an untrusted success and the scan continues.
        """
        # one store view per job: its quarantine tally is then this job's
        # alone, although executor threads run lookups concurrently
        store = SynthesisCache(self.store_dir)
        fingerprint = protocol_fingerprint(protocol, invariant)
        lookup = ServiceTracer(tracer, self.metrics)
        try:
            for config in configs:
                hit = store.get(
                    fingerprint, config, protocol, invariant, tracer=lookup
                )
                if hit is not None and hit.success:
                    return hit
            return None
        finally:
            if store.quarantined:
                self.metrics.inc(
                    "service.store_quarantined", store.quarantined
                )

    def _finish(self, job: Job, outcome, tracer, *, cached: bool) -> None:
        """Write artifacts and settle the terminal state."""
        job.success = bool(outcome.success)
        job.winning_config = outcome.config.describe()
        if outcome.certificate is not None:
            with open(job.certificate_path, "w") as handle:
                json.dump(outcome.certificate, handle, indent=2)
        if outcome.pss_groups is not None:
            solution = {
                "config": outcome.config.describe(),
                "schedule": list(outcome.config.schedule),
                "success": outcome.success,
                "cached": cached,
                "remaining_deadlocks": outcome.remaining_deadlocks,
                "pss_groups": [sorted(g) for g in outcome.pss_groups],
            }
            with open(job.solution_path, "w") as handle:
                json.dump(solution, handle, indent=2)
        job.state = "done"
        tracer.event(
            "job.done",
            success=job.success,
            cached=cached,
            cert_verified=job.cert_verified,
            config=job.winning_config,
        )

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def trace_paths(self) -> list[str]:
        """Every job trace plus each race's merged trace (for /metrics)."""
        paths = []
        for job in self.registry.all():
            if os.path.exists(job.trace_path):
                paths.append(job.trace_path)
            merged = os.path.join(job.job_dir, "race", "merged.jsonl")
            if os.path.exists(merged):
                paths.append(merged)
        return paths
