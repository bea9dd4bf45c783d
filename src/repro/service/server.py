"""``stsyn serve``: the HTTP face of the synthesis service.

Routing only — the wire mechanics live in :mod:`repro.service.http`, the
job lifecycle in :mod:`repro.service.orchestrator`.  The API:

==========  =============================  =======================================
method      path                           meaning
==========  =============================  =======================================
``POST``    ``/jobs``                      submit (``.stsyn`` source or builtin
                                           protocol + schedule/options) → 202
``GET``     ``/jobs/<id>``                 status JSON
``GET``     ``/jobs/<id>/trace``           live stream of the job's JSONL trace
                                           (SSE with ``Accept: text/event-stream``,
                                           NDJSON otherwise); ends when the job
                                           reaches a terminal state
``GET``     ``/jobs/<id>/certificate``     the winner's convergence certificate
``GET``     ``/jobs/<id>/solution``        the winning PSS groups
``DELETE``  ``/jobs/<id>``                 cooperative cancel
``GET``     ``/healthz``                   liveness + queue census
``GET``     ``/metrics``                   service counters (+ portfolio/transport
                                           tables); ``?format=json`` for machines
==========  =============================  =======================================

Every connection serves one request (``Connection: close``); malformed or
oversized requests get a JSON 4xx, never a traceback.  The
``drop_stream`` fault knob severs a trace stream mid-flight *without* the
terminating chunk — clients observe a truncated chunked body, which is
exactly what a crashed service looks like, and ``service.stream_drops``
counts it.

:class:`ServiceHandle` embeds the whole service in a background thread —
the test suite's harness, and handy for notebooks.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Sequence

from ..faults import runtime as fault_runtime
from .http import (
    ChunkedStream,
    HttpError,
    Request,
    read_request,
    send_error,
    send_json,
    send_response,
)
from .jobs import InvalidJob, Job
from .metrics import ServiceMetrics
from .orchestrator import Orchestrator, ServiceRejected

#: default port for ``stsyn serve`` (workers default to 9178)
DEFAULT_SERVICE_PORT = 9180

#: trace-stream poll cadence (the tracer line-flushes, so new bytes appear
#: promptly; this bounds added latency, not correctness)
STREAM_POLL_INTERVAL = 0.1


class Service:
    """One ``stsyn serve`` instance: asyncio server + orchestrator."""

    def __init__(
        self,
        data_dir: str,
        *,
        host: str = "127.0.0.1",
        port: int = DEFAULT_SERVICE_PORT,
        max_concurrent: int = 2,
        max_queued: int = 64,
        n_workers: int | None = None,
        worker_endpoints: Sequence[str] | None = None,
        lease_timeout: float = 10.0,
        soft_deadline: float | None = None,
        log=None,
    ):
        self.host = host
        self.port = port
        self.log = log if log is not None else (lambda _msg: None)
        self.metrics = ServiceMetrics()
        self.orchestrator = Orchestrator(
            data_dir,
            max_concurrent=max_concurrent,
            max_queued=max_queued,
            n_workers=n_workers,
            worker_endpoints=list(worker_endpoints or []),
            lease_timeout=lease_timeout,
            soft_deadline=soft_deadline,
            metrics=self.metrics,
        )
        self._server: asyncio.base_events.Server | None = None

    # ------------------------------------------------------------------
    async def start(self) -> None:
        self.orchestrator.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]
        self.log(f"stsyn serve: listening on {self.host}:{self.port}")

    async def serve_forever(self) -> None:
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self.orchestrator.close()

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        try:
            try:
                request = await read_request(reader)
            except HttpError as exc:
                await send_error(writer, exc.status, exc.message)
                return
            except asyncio.TimeoutError:
                await send_error(writer, 408, "timed out reading the request")
                return
            if request is None:
                return
            try:
                await self._route(request, writer)
            except HttpError as exc:
                await send_error(writer, exc.status, exc.message)
            except ServiceRejected as exc:
                await send_error(writer, exc.status, exc.message)
            except InvalidJob as exc:
                await send_error(writer, 400, str(exc))
            except (ConnectionResetError, BrokenPipeError):
                raise
            except Exception as exc:
                self.log(f"stsyn serve: internal error: {exc!r}")
                await send_error(writer, 500, f"internal error: {type(exc).__name__}")
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away; nothing to answer
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _route(self, request: Request, writer) -> None:
        parts = [p for p in request.path.split("/") if p]
        method = request.method

        if request.path == "/healthz" and method == "GET":
            await send_json(
                writer,
                200,
                {
                    "ok": True,
                    "jobs": self.orchestrator.registry.counts(),
                    "queued": len(self.orchestrator.queue),
                    "workers": list(self.orchestrator.worker_endpoints) or "local",
                },
            )
            return

        if request.path == "/metrics" and method == "GET":
            if request.query.get("format") == "json":
                await send_json(
                    writer,
                    200,
                    {
                        "counters": self.metrics.snapshot(),
                        "jobs": self.orchestrator.registry.counts(),
                        "queued": len(self.orchestrator.queue),
                    },
                )
            else:
                report = self.metrics.render(self.orchestrator.trace_paths())
                await send_response(
                    writer,
                    200,
                    report.encode(),
                    content_type="text/plain; charset=utf-8",
                )
            return

        if parts and parts[0] == "jobs":
            if len(parts) == 1:
                if method == "POST":
                    job = await self.orchestrator.submit(request.json())
                    await send_json(writer, 202, job.to_payload())
                elif method == "GET":
                    await send_json(
                        writer,
                        200,
                        {"jobs": [j.to_payload() for j in
                                  self.orchestrator.registry.all()]},
                    )
                else:
                    raise HttpError(405, f"{method} not allowed on /jobs")
                return
            job = self.orchestrator.registry.get(parts[1])
            if job is None:
                raise HttpError(404, f"no such job: {parts[1]}")
            if len(parts) == 2:
                if method == "GET":
                    await send_json(writer, 200, job.to_payload())
                elif method == "DELETE":
                    if job.terminal:
                        raise HttpError(
                            409, f"job already terminal ({job.state})"
                        )
                    self.orchestrator.cancel(job)
                    await send_json(
                        writer, 202, {"id": job.id, "cancelling": True}
                    )
                else:
                    raise HttpError(405, f"{method} not allowed on a job")
                return
            if method != "GET":
                raise HttpError(405, f"{method} not allowed here")
            if parts[2] == "trace":
                await self._stream_trace(job, request, writer)
                return
            if parts[2] in ("certificate", "solution"):
                await self._send_artifact(job, parts[2], writer)
                return
            raise HttpError(404, f"unknown job resource: {parts[2]}")

        raise HttpError(404, f"no route for {method} {request.path}")

    # ------------------------------------------------------------------
    async def _send_artifact(self, job: Job, which: str, writer) -> None:
        path = (
            job.certificate_path if which == "certificate"
            else job.solution_path
        )
        try:
            with open(path, "rb") as handle:
                body = handle.read()
        except FileNotFoundError:
            if not job.terminal:
                raise HttpError(
                    409,
                    f"job is {job.state}; the {which} is not available yet",
                )
            raise HttpError(
                404,
                f"job {job.id} finished ({job.state}, success={job.success}) "
                f"without a {which}",
            )
        await send_response(writer, 200, body)

    async def _stream_trace(self, job: Job, request: Request, writer) -> None:
        """Tail the job's line-flushed JSONL trace over a chunked response.

        The stream replays the trace from the beginning, then follows new
        lines until the job reaches a terminal state (or the client gives
        up).  :class:`~repro.trace.tail.TailBuffer` guards the torn last
        line the tracer may be mid-writing.
        """
        from ..trace.tail import TailBuffer

        self.metrics.inc("service.trace_streams")
        stream = ChunkedStream(
            writer, sse=request.accepts("text/event-stream")
        )
        await stream.start()
        buffer = TailBuffer()
        description = job.spec.describe()
        position = 0
        sent = 0
        try:
            while True:
                data = b""
                try:
                    with open(job.trace_path, "rb") as handle:
                        handle.seek(position)
                        data = handle.read()
                        position = handle.tell()
                except FileNotFoundError:
                    pass
                for line in buffer.feed(data):
                    await stream.send(line)
                    sent += 1
                    if sent == 1 and fault_runtime.should_drop_stream(
                        description
                    ):
                        # drill: sever without the terminating chunk — the
                        # client sees a truncated chunked body
                        self.metrics.inc("service.stream_drops")
                        return
                if job.terminal:
                    tail = buffer.flush()
                    if tail:
                        await stream.send(tail)
                    # one final re-read: the terminal event may have landed
                    # between our read and the state change
                    with open(job.trace_path, "rb") as handle:
                        handle.seek(position)
                        remainder = handle.read()
                    for line in TailBuffer().feed(remainder):
                        await stream.send(line)
                    break
                await asyncio.sleep(STREAM_POLL_INTERVAL)
            await stream.close()
        except (ConnectionResetError, BrokenPipeError):
            pass  # client disconnected mid-stream


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------


def run_service(
    data_dir: str,
    *,
    host: str = "127.0.0.1",
    port: int = DEFAULT_SERVICE_PORT,
    log=print,
    **kwargs,
) -> None:
    """Blocking CLI entry point: serve until SIGINT/SIGTERM, then drain.

    ``REPRO_FAULT_PLAN`` is installed once here, so the service's own
    fault knobs (``reject_job``, ``slow_admit``, ``drop_stream``) fire.
    """
    import signal

    fault_runtime.install_fault_plan(fault_runtime.FaultPlan.from_env())

    async def _main() -> None:
        service = Service(data_dir, host=host, port=port, log=log, **kwargs)
        await service.start()
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, ValueError):
                pass  # non-main thread or platform without signal support
        serve_task = asyncio.ensure_future(service.serve_forever())
        await stop.wait()
        log("stsyn serve: shutting down (draining jobs)")
        serve_task.cancel()
        try:
            await serve_task
        except asyncio.CancelledError:
            pass
        await service.close()
        log("stsyn serve: drained cleanly")

    asyncio.run(_main())


class ServiceHandle:
    """The service embedded in a background thread — the test harness.

    .. code-block:: python

        with ServiceHandle(tmp_path) as handle:
            status, payload = http_json("POST", handle.port, "/jobs", {...})

    ``__enter__`` blocks until the listening port is known; ``__exit__``
    drains the orchestrator and joins the thread.
    """

    def __init__(self, data_dir: str, *, port: int = 0, **kwargs):
        self._kwargs = dict(kwargs, port=port)
        self._data_dir = str(data_dir)
        self.service: Service | None = None
        self.port: int | None = None
        self.host: str | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._error: BaseException | None = None

    def __enter__(self) -> "ServiceHandle":
        self._thread = threading.Thread(
            target=self._run, name="stsyn-serve", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30.0):
            raise RuntimeError("service failed to start within 30s")
        if self._error is not None:
            raise RuntimeError(f"service failed to start: {self._error!r}")
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            self.service = Service(self._data_dir, **self._kwargs)
            loop.run_until_complete(self.service.start())
            self.host, self.port = self.service.host, self.service.port
        except BaseException as exc:
            self._error = exc
            self._ready.set()
            return
        self._ready.set()
        try:
            loop.run_forever()
        finally:
            loop.close()

    def __exit__(self, *exc) -> None:
        if self._loop is not None and self._error is None:
            future = asyncio.run_coroutine_threadsafe(
                self.service.close(), self._loop
            )
            try:
                future.result(timeout=60.0)
            finally:
                self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=10.0)

    # convenience passthroughs for assertions
    @property
    def metrics(self) -> ServiceMetrics:
        assert self.service is not None
        return self.service.metrics

    @property
    def orchestrator(self) -> Orchestrator:
        assert self.service is not None
        return self.service.orchestrator
