"""Job model for the synthesis service: specs, lifecycle, fair queueing.

A **job** is one synthesis request: a protocol (builtin parameters or
``.stsyn`` source), an optional pinned schedule and heuristic options, and
a tenant for fairness accounting.  Every job races the paper's three-pass
heuristic portfolio.

:class:`JobSpec` validates untrusted JSON into a typed record (every
violation raises :class:`InvalidJob`, which the server maps to a 400);
:class:`Job` tracks one submission through ``queued → running →
done|failed|cancelled`` with millisecond timestamps and artifact paths;
:class:`JobQueue` is the bounded admission queue with round-robin
per-tenant fairness — one chatty tenant cannot starve the rest, and a
full queue refuses new work (429) instead of growing without bound.
"""

from __future__ import annotations

import dataclasses
import itertools
import os
import threading
import time
import uuid
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Callable

from ..core.heuristic import HeuristicOptions
from ..core.synthesizer import SynthesisConfig, default_portfolio

#: builtin protocols a job may name, mirroring the CLI
BUILTIN_PROTOCOLS = (
    "token-ring",
    "matching",
    "coloring",
    "two-ring",
    "gouda-acharya",
)

#: job lifecycle states
STATES = ("queued", "running", "done", "failed", "cancelled")


class InvalidJob(ValueError):
    """A submission payload the service refuses (mapped to HTTP 400)."""


def dsl_builder(source: str):
    """Module-level builder for ``.stsyn`` source jobs — importable, so the
    TCP transport can ship it to remote workers as a builder reference."""
    from ..dsl import compile_protocol

    return compile_protocol(source)


def _builtin_builder(name: str, args: tuple):
    from ..protocols import (
        coloring,
        gouda_acharya_matching,
        matching,
        token_ring,
        two_ring,
    )

    table = {
        "token-ring": token_ring,
        "matching": matching,
        "coloring": coloring,
        "two-ring": two_ring,
        "gouda-acharya": gouda_acharya_matching,
    }
    return table[name], args


@dataclass(frozen=True)
class JobSpec:
    """A validated synthesis request."""

    protocol: str | None = None
    k: int | None = None
    domain: int | None = None
    source: str | None = None
    schedule: tuple[int, ...] | None = None
    options: dict | None = None
    tenant: str = "default"

    # ------------------------------------------------------------------
    @classmethod
    def from_payload(cls, payload: dict) -> "JobSpec":
        """Validate an untrusted JSON submission; raises :class:`InvalidJob`."""
        if not isinstance(payload, dict):
            raise InvalidJob("job payload must be a JSON object")
        known = {
            "protocol", "k", "d", "domain", "source", "schedule",
            "options", "tenant",
        }
        unknown = sorted(set(payload) - known)
        if unknown:
            raise InvalidJob(f"unknown job fields: {unknown}")

        source = payload.get("source")
        protocol = payload.get("protocol")
        if source is not None and not isinstance(source, str):
            raise InvalidJob("'source' must be a string of .stsyn text")
        if source is None:
            if protocol is None:
                raise InvalidJob(
                    "job needs either 'source' (.stsyn text) or 'protocol' "
                    f"(one of {list(BUILTIN_PROTOCOLS)})"
                )
            if protocol not in BUILTIN_PROTOCOLS:
                raise InvalidJob(
                    f"unknown protocol {protocol!r}; builtins: "
                    f"{list(BUILTIN_PROTOCOLS)}"
                )
        elif protocol is not None:
            raise InvalidJob("'source' and 'protocol' are mutually exclusive")

        def _int_or_none(name: str):
            value = payload.get(name)
            if value is None:
                return None
            if not isinstance(value, int) or isinstance(value, bool):
                raise InvalidJob(f"{name!r} must be an integer")
            if not 1 <= value <= 64:
                raise InvalidJob(f"{name!r} out of range (1..64): {value}")
            return value

        k = _int_or_none("k")
        domain = _int_or_none("d") or _int_or_none("domain")

        schedule = payload.get("schedule")
        if schedule is not None:
            if not isinstance(schedule, list) or not all(
                isinstance(v, int) and not isinstance(v, bool) for v in schedule
            ):
                raise InvalidJob("'schedule' must be a list of process indices")
            schedule = tuple(schedule)

        options = payload.get("options")
        if options is not None:
            if not isinstance(options, dict):
                raise InvalidJob("'options' must be a JSON object")
            valid = {f.name for f in dataclasses.fields(HeuristicOptions)}
            bad = sorted(set(options) - valid)
            if bad:
                raise InvalidJob(
                    f"unknown heuristic options: {bad}; valid: {sorted(valid)}"
                )
            try:
                HeuristicOptions(**options)
            except (TypeError, ValueError) as exc:
                raise InvalidJob(f"bad heuristic options: {exc}")

        tenant = str(payload.get("tenant", "default"))[:64] or "default"
        return cls(
            protocol=protocol,
            k=k,
            domain=domain,
            source=source,
            schedule=schedule,
            options=dict(options) if options else None,
            tenant=tenant,
        )

    # ------------------------------------------------------------------
    def describe(self) -> str:
        """Fault-knob matching target: ``<tenant>/<protocol-or-source>``."""
        what = self.protocol if self.source is None else "stsyn-source"
        return f"{self.tenant}/{what}"

    def builder_spec(self) -> tuple[Callable, tuple]:
        """``(builder, args)`` — a picklable, transport-shippable pair."""
        if self.source is not None:
            return dsl_builder, (self.source,)
        if self.protocol == "token-ring":
            return _builtin_builder(
                "token-ring", (self.k or 4, self.domain or 3)
            )
        if self.protocol == "two-ring":
            return _builtin_builder("two-ring", ())
        return _builtin_builder(self.protocol, (self.k or 5,))

    def base_options(self) -> HeuristicOptions:
        return HeuristicOptions(**self.options) if self.options else HeuristicOptions()

    def configs(self, n_processes: int) -> list[SynthesisConfig]:
        """The portfolio this job races: the single pinned config when a
        schedule is given, the default portfolio otherwise."""
        base = self.base_options()
        if self.schedule is not None:
            if sorted(self.schedule) != list(range(n_processes)):
                raise InvalidJob(
                    f"'schedule' must be a permutation of 0..{n_processes - 1}"
                )
            return [SynthesisConfig(tuple(self.schedule), base)]
        return default_portfolio(n_processes, base_options=base)

    def to_payload(self) -> dict:
        return {
            "protocol": self.protocol,
            "k": self.k,
            "domain": self.domain,
            "source_bytes": len(self.source) if self.source else None,
            "schedule": list(self.schedule) if self.schedule else None,
            "options": self.options,
            "tenant": self.tenant,
        }


@dataclass
class Job:
    """One submission moving through the service."""

    id: str
    spec: JobSpec
    job_dir: str
    state: str = "queued"
    created: float = field(default_factory=time.time)
    started: float | None = None
    finished: float | None = None
    #: set on completion
    success: bool | None = None
    cache_hit: bool = False
    #: True when the answer's certificate passed the independent checker
    cert_verified: bool = False
    winning_config: str | None = None
    error: str | None = None
    #: event set by DELETE — the race's supervisor turns it into ``cancel``
    #: frames that workers poll at pass/rank boundaries
    cancel_event: object | None = None
    cancel_requested: bool = False
    #: the job's line-flushed JSONL tracer, open from submission until the
    #: terminal state — what GET /jobs/<id>/trace streams live
    tracer: object | None = None

    @property
    def trace_path(self) -> str:
        return os.path.join(self.job_dir, "trace.jsonl")

    @property
    def certificate_path(self) -> str:
        return os.path.join(self.job_dir, "certificate.json")

    @property
    def solution_path(self) -> str:
        return os.path.join(self.job_dir, "solution.json")

    @property
    def terminal(self) -> bool:
        return self.state in ("done", "failed", "cancelled")

    def to_payload(self) -> dict:
        payload = {
            "id": self.id,
            "state": self.state,
            "spec": self.spec.to_payload(),
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "success": self.success,
            "cache_hit": self.cache_hit,
            "cert_verified": self.cert_verified,
            "winning_config": self.winning_config,
            "error": self.error,
            "links": {
                "self": f"/jobs/{self.id}",
                "trace": f"/jobs/{self.id}/trace",
                "certificate": f"/jobs/{self.id}/certificate",
                "solution": f"/jobs/{self.id}/solution",
            },
        }
        return payload


class JobQueue:
    """Bounded admission queue with round-robin per-tenant fairness.

    ``push`` refuses beyond ``max_queued`` (the server answers 429).
    ``pop`` serves tenants in rotation: each call takes the next tenant's
    oldest job, so a tenant submitting hundreds of jobs shares the fleet
    equally with one submitting a single job.  Thread-safe: the asyncio
    orchestrator and HTTP handlers run in one loop, but tests and the
    metrics endpoint may peek from other threads.
    """

    def __init__(self, max_queued: int = 64):
        self.max_queued = max_queued
        self._tenants: "OrderedDict[str, deque[Job]]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return sum(len(q) for q in self._tenants.values())

    def push(self, job: Job) -> bool:
        with self._lock:
            if sum(len(q) for q in self._tenants.values()) >= self.max_queued:
                return False
            self._tenants.setdefault(job.spec.tenant, deque()).append(job)
            return True

    def pop(self) -> Job | None:
        """The next job, round-robin across tenants (None when empty)."""
        with self._lock:
            for tenant in list(self._tenants):
                queue = self._tenants[tenant]
                if not queue:
                    del self._tenants[tenant]
                    continue
                job = queue.popleft()
                # rotate: this tenant goes to the back of the service order
                self._tenants.move_to_end(tenant)
                if not queue:
                    del self._tenants[tenant]
                return job
            return None

    def remove(self, job: Job) -> bool:
        """Drop a still-queued job (DELETE before admission)."""
        with self._lock:
            queue = self._tenants.get(job.spec.tenant)
            if queue is None:
                return False
            try:
                queue.remove(job)
            except ValueError:
                return False
            if not queue:
                del self._tenants[job.spec.tenant]
            return True


class JobRegistry:
    """Id → job map plus monotone id assignment."""

    def __init__(self):
        self._jobs: "OrderedDict[str, Job]" = OrderedDict()
        self._lock = threading.Lock()
        self._seq = itertools.count(1)

    def create(self, spec: JobSpec, jobs_dir: str) -> Job:
        job_id = f"j{next(self._seq):04d}-{uuid.uuid4().hex[:8]}"
        job_dir = os.path.join(jobs_dir, job_id)
        os.makedirs(job_dir, exist_ok=True)
        job = Job(id=job_id, spec=spec, job_dir=job_dir)
        with self._lock:
            self._jobs[job_id] = job
        return job

    def get(self, job_id: str) -> Job | None:
        with self._lock:
            return self._jobs.get(job_id)

    def all(self) -> list[Job]:
        with self._lock:
            return list(self._jobs.values())

    def counts(self) -> dict[str, int]:
        with self._lock:
            counts = dict.fromkeys(STATES, 0)
            for job in self._jobs.values():
                counts[job.state] = counts.get(job.state, 0) + 1
            return counts
