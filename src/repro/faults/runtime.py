"""Deterministic runtime fault injection for the portfolio engine.

Distinct from the *protocol-level* transient-fault machinery in
:mod:`repro.faults.injection` (which perturbs protocol state to measure
convergence): this module injects *infrastructure* failures — worker
crashes, hangs, cache corruption, lost trace files — at named hook points,
so every failure mode the fault-tolerant portfolio runtime guards against
is reproducible in tests and CI instead of only observable in production.

A :class:`FaultPlan` is a small, picklable record of what to break and
where.  Worker and service hook points call :func:`fault_point` (worker
start, heuristic pass boundaries) or the ``should_*`` predicates, which
read the plan installed for their process; with no plan installed every
hook is a cheap no-op.  The portfolio's parent-side hooks (cache writes,
certificate stores, trace merging) take the race's own plan as an
argument instead, so concurrent races never swap plans.

Targets are matched with ``"<site>@<substring>"`` specs: the part before
``@`` names the hook site (``worker.start``, ``pass.1`` ...), the part
after it is a substring of the worker's config description (for cache and
trace faults: the config description / trace file name).  A bare spec with
no ``@`` matches any site.  Worker faults fire only while the job's attempt
number is below ``max_fires`` — so a crash-on-first-attempt plan lets the
retry succeed, deterministically.

Environment knob: ``REPRO_FAULT_PLAN`` holds a JSON object of
:class:`FaultPlan` fields; :func:`repro.parallel.synthesize_parallel`
auto-loads it for its race and ``stsyn serve`` installs it at startup, so
CI can run fault drills without touching code.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from dataclasses import dataclass

#: environment variable holding a JSON-encoded :class:`FaultPlan`
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"


@dataclass(frozen=True)
class FaultPlan:
    """What to break, where, and how often (all fields optional)."""

    #: ``"<site>@<config substring>"`` — ``os._exit`` the worker there
    crash_worker_at: str | None = None
    #: ``"<site>@<config substring>"`` — sleep ``hang_seconds`` there,
    #: ignoring every cancellation token (only the watchdog can stop it)
    hang_worker_at: str | None = None
    #: config-description substring — truncate the cache entry just written
    corrupt_cache_entry: str | None = None
    #: ``"<site>@<substring>"`` — tamper a convergence certificate at
    #: ``cert.store`` (cache record, matched on the config description) or
    #: ``cert.write`` (file save, matched on the file name); the drill that
    #: proves downstream consumers reject a corrupted witness
    corrupt_certificate: str | None = None
    #: trace-file-name substring — delete the file before traces merge
    drop_trace_file: str | None = None
    #: exit code for :attr:`crash_worker_at` (1 ≈ segfault/OOM-kill victim)
    crash_exit_code: int = 1
    hang_seconds: float = 3600.0
    #: worker faults fire only while ``attempt < max_fires``
    max_fires: int = 1

    # -- network knobs (every worker slot; see repro.parallel.transport) -
    #: ``"<frame kind>@<config substring>"`` — silently discard matching
    #: outbound frames (``heartbeat``, ``result``, ``job``); one lost frame,
    #: exactly what a flaky switch does
    drop_frame: str | None = None
    #: ``"<frame kind>@<config substring>"`` — sleep ``delay_frame_seconds``
    #: before sending the matching frame (congestion / slow link)
    delay_frame: str | None = None
    delay_frame_seconds: float = 0.5
    #: config-description substring — send the worker's result frame twice
    #: (retransmission after a lost ACK); the coordinator must dedupe
    duplicate_result: str | None = None
    #: ``"<frame kind>@<config substring>"`` — on the first matching send,
    #: black-hole *every* outbound frame for ``partition_seconds`` (a network
    #: partition: the worker keeps computing, the coordinator sees silence,
    #: the lease expires, and the late result arrives after the heal)
    partition: str | None = None
    partition_seconds: float = 2.0
    #: config-description substring — suppress heartbeats and delay the
    #: result by ``stale_lease_seconds``, so it lands after the lease
    #: expired and exercises the duplicate/stale-result acceptance path
    stale_lease: str | None = None
    stale_lease_seconds: float = 2.0

    # -- service knobs (stsyn serve; see repro.service) ------------------
    #: ``"job.submit@<job description substring>"`` — refuse the matching
    #: submission with 503 at admission (an overloaded or degraded
    #: control plane); clients must see a clean error, not a hang
    reject_job: str | None = None
    #: ``"job.admit@<job description substring>"`` — sleep
    #: ``slow_admit_seconds`` between admission and dispatch (a saturated
    #: orchestrator); status must report "queued" throughout
    slow_admit: str | None = None
    slow_admit_seconds: float = 0.5
    #: ``"trace.stream@<job description substring>"`` — sever the matching
    #: trace stream mid-flight (a proxy timeout / dropped client); the job
    #: itself must be unaffected and the stream re-attachable
    drop_stream: str | None = None

    @classmethod
    def from_env(cls, environ=None) -> "FaultPlan | None":
        """Parse :data:`FAULT_PLAN_ENV` (None when unset/empty)."""
        raw = (os.environ if environ is None else environ).get(FAULT_PLAN_ENV)
        if not raw:
            return None
        try:
            payload = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"{FAULT_PLAN_ENV} is not valid JSON: {exc}"
            ) from exc
        if not isinstance(payload, dict):
            raise ValueError(f"{FAULT_PLAN_ENV} must be a JSON object")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(f"{FAULT_PLAN_ENV} has unknown keys: {unknown}")
        return cls(**payload)

    def to_env(self) -> str:
        """JSON string for :data:`FAULT_PLAN_ENV` (round-trips ``from_env``)."""
        return json.dumps(dataclasses.asdict(self))


# ----------------------------------------------------------------------
# per-process active plan + worker context
# ----------------------------------------------------------------------

_PLAN: FaultPlan | None = None
_CONTEXT: dict = {"config": "", "attempt": 0}


def install_fault_plan(plan: FaultPlan | None) -> None:
    """Activate ``plan`` for this process (None deactivates)."""
    global _PLAN
    _PLAN = plan


def active_fault_plan() -> FaultPlan | None:
    return _PLAN


def set_fault_context(config: str, attempt: int) -> None:
    """Tell the hooks which job this process is currently running."""
    _CONTEXT["config"] = config
    _CONTEXT["attempt"] = int(attempt)


def _spec_matches(spec: str | None, site: str, needle: str) -> bool:
    if not spec or not needle:
        return False
    pattern = spec
    if "@" in spec:
        want_site, _, pattern = spec.partition("@")
        if want_site and want_site != site:
            return False
    return pattern in needle


def fault_point(site: str, **info) -> None:
    """Worker-side hook: crash or hang here if the active plan says so.

    Called at worker start and heuristic pass boundaries.  A crash is an
    ``os._exit`` — no cleanup, no excepthook, exactly what an OOM kill looks
    like from the parent.  A hang is a plain sleep that ignores every
    cancellation token, so only the parent watchdog can reclaim the worker.
    """
    plan = _PLAN
    if plan is None or _CONTEXT["attempt"] >= plan.max_fires:
        return
    config = _CONTEXT["config"]
    if _spec_matches(plan.crash_worker_at, site, config):
        os._exit(plan.crash_exit_code)
    if _spec_matches(plan.hang_worker_at, site, config):
        deadline = time.monotonic() + plan.hang_seconds
        while time.monotonic() < deadline:
            time.sleep(0.05)


def should_corrupt_cache(
    config_description: str, plan: FaultPlan | None
) -> bool:
    """Parent-side hook: corrupt the cache entry just written for this
    config, per the race's ``plan``?"""
    return plan is not None and _spec_matches(
        plan.corrupt_cache_entry, "cache.put", config_description
    )


def should_corrupt_cert(site: str, needle: str, plan: FaultPlan | None) -> bool:
    """Parent-side hook: tamper the certificate being stored/written here?

    ``site`` is ``"cert.store"`` (certificate embedded in a cache record)
    or ``"cert.write"`` (certificate saved to its own file); ``needle`` is
    the config description / file name the spec is matched against.
    """
    return plan is not None and _spec_matches(
        plan.corrupt_certificate, site, needle
    )


def should_reject_job(job_description: str) -> bool:
    """Service-side hook: refuse this submission at admission (503)?

    Matched at site ``job.submit`` against the job's description
    (``"<tenant>/<protocol>"``).  Unlike the worker knobs this is not
    attempt-gated — the service retries nothing; the *client* decides.
    """
    plan = _PLAN
    return plan is not None and _spec_matches(
        plan.reject_job, "job.submit", job_description
    )


def admit_delay(job_description: str) -> float:
    """Service-side hook: seconds to hold this job between admission and
    dispatch (site ``job.admit``) — the slow-admit drill."""
    plan = _PLAN
    if plan is not None and _spec_matches(
        plan.slow_admit, "job.admit", job_description
    ):
        return plan.slow_admit_seconds
    return 0.0


def should_drop_stream(job_description: str) -> bool:
    """Service-side hook: sever this trace stream mid-flight (site
    ``trace.stream``)?  Fires once per armed plan via ``max_fires``-free
    matching — the stream endpoint counts ``service.stream_drops`` and the
    client simply reconnects."""
    plan = _PLAN
    return plan is not None and _spec_matches(
        plan.drop_stream, "trace.stream", job_description
    )


def should_drop_trace(filename: str, plan: FaultPlan | None) -> bool:
    """Parent-side hook: delete this worker trace before merging, per the
    race's ``plan``?"""
    return plan is not None and _spec_matches(
        plan.drop_trace_file, "trace.merge", filename
    )


# ----------------------------------------------------------------------
# network faults (worker-side hooks of repro.parallel.transport)
# ----------------------------------------------------------------------

#: monotonic instant until which this process drops every outbound frame
_PARTITION_UNTIL: float = 0.0


def _worker_fault_armed(plan: FaultPlan | None) -> bool:
    return plan is not None and _CONTEXT["attempt"] < plan.max_fires


def partition_active() -> bool:
    """Is this process currently inside an injected network partition?"""
    return time.monotonic() < _PARTITION_UNTIL


def heal_partition() -> None:
    """End any injected partition now.

    A real worker process dies with its partition, but in-process
    :class:`~repro.parallel.transport.WorkerServer` threads (tests, the
    chaos drill) share this module's state across drills — each one must
    heal the network before the next begins, and a local worker slot
    forked from such a process heals at startup.
    """
    global _PARTITION_UNTIL
    _PARTITION_UNTIL = 0.0


def maybe_start_partition(frame_kind: str) -> None:
    """Worker-side hook: begin a partition if the plan targets this frame.

    Matched like every other knob — ``"<frame kind>@<config substring>"``
    against the job this process is running.  Once fired, *all* outbound
    frames (heartbeats and results alike) are dropped for
    ``partition_seconds``; the coordinator sees the same silence a real
    partition produces and must recover via the lease protocol.
    """
    global _PARTITION_UNTIL
    plan = _PLAN
    if not _worker_fault_armed(plan) or partition_active():
        return
    if _spec_matches(plan.partition, frame_kind, _CONTEXT["config"]):
        _PARTITION_UNTIL = time.monotonic() + plan.partition_seconds


def should_drop_frame(frame_kind: str) -> bool:
    """Worker-side hook: discard this outbound frame?  Covers both the
    one-shot ``drop_frame`` knob and an active injected partition."""
    maybe_start_partition(frame_kind)
    if partition_active():
        return True
    plan = _PLAN
    return _worker_fault_armed(plan) and _spec_matches(
        plan.drop_frame, frame_kind, _CONTEXT["config"]
    )


def frame_delay(frame_kind: str) -> float:
    """Worker-side hook: seconds to sleep before sending this frame."""
    plan = _PLAN
    if _worker_fault_armed(plan) and _spec_matches(
        plan.delay_frame, frame_kind, _CONTEXT["config"]
    ):
        return plan.delay_frame_seconds
    return 0.0


def should_duplicate_result() -> bool:
    """Worker-side hook: send the result frame twice (lost-ACK retransmit)?"""
    plan = _PLAN
    return _worker_fault_armed(plan) and _spec_matches(
        plan.duplicate_result, "result", _CONTEXT["config"]
    )


def stale_lease_delay() -> float:
    """Worker-side hook: seconds to silently sit on the finished result
    (heartbeats suppressed) so it arrives after the lease expired."""
    plan = _PLAN
    if _worker_fault_armed(plan) and _spec_matches(
        plan.stale_lease, "result", _CONTEXT["config"]
    ):
        return plan.stale_lease_seconds
    return 0.0
