"""Synthesis-as-a-service: the ``stsyn serve`` subsystem.

A stdlib-only asyncio HTTP/JSON server that turns the portfolio runtime
into a long-lived endpoint: jobs arrive over HTTP, race on the supervised
fleet (local processes or remote ``stsyn worker`` endpoints), stream their
line-flushed JSONL traces live, and are answered from the
certificate-backed content-addressed store when an identical request was
already solved — re-trusted through the independent certificate checker,
never taken on faith.

Modules:

``http``          stdlib HTTP/1.1 parsing, JSON responses, chunked/SSE streams
``jobs``          job specs, lifecycle states, the fair bounded queue
``orchestrator``  the asyncio admission loop, the store lookup (re-trust or
                  quarantine) + executor-thread races
``metrics``       service counters and the /metrics report
``server``        routing, ``run_service``, the embeddable :class:`ServiceHandle`
"""

from .http import HttpError, MAX_BODY_BYTES, MAX_HEADER_BYTES
from .jobs import (
    BUILTIN_PROTOCOLS,
    InvalidJob,
    Job,
    JobQueue,
    JobRegistry,
    JobSpec,
)
from .metrics import ServiceMetrics
from .orchestrator import Orchestrator, ServiceRejected
from .server import DEFAULT_SERVICE_PORT, Service, ServiceHandle, run_service

__all__ = [
    "BUILTIN_PROTOCOLS",
    "DEFAULT_SERVICE_PORT",
    "HttpError",
    "InvalidJob",
    "Job",
    "JobQueue",
    "JobRegistry",
    "JobSpec",
    "MAX_BODY_BYTES",
    "MAX_HEADER_BYTES",
    "Orchestrator",
    "Service",
    "ServiceHandle",
    "ServiceMetrics",
    "ServiceRejected",
    "run_service",
]
