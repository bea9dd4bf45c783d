"""Pluggable worker transport for the portfolio race.

The paper's Figure 1 sketch — "one instance of our heuristic on a separate
machine" — finally spans actual machines.  The supervised race in
:mod:`repro.parallel.pool` no longer talks to ``Process``+``Pipe`` pairs
directly; it drives :class:`WorkerChannel` objects obtained from a
transport, and two transports implement the contract:

:class:`LocalProcessTransport`
    today's path, unchanged semantics: one dedicated worker process per
    slot, jobs over a duplex pipe, crash = pipe EOF / dead process,
    cancellation via the shared ``multiprocessing.Event``.

:class:`TcpTransport`
    one channel per remote ``host:port`` endpoint (a ``stsyn worker
    --listen`` server), length-prefixed JSON frames over a plain socket.
    Failure is no longer process death: a partitioned network delivers
    silence, not EOF, so every dispatched job carries a **lease** — the
    worker heartbeats while it computes, and the supervisor re-dispatches
    a config whose lease misses its heartbeats (see ``pool.py``).  A late
    result from the original worker is then a *duplicate*: accepted only
    if its convergence certificate independently re-checks, discarded
    otherwise.  When an endpoint is lost and cannot be replaced the
    transport degrades to local slots (``transport.degraded_to_local``),
    so the race still completes with zero live remotes.

Wire protocol (both directions): a 4-byte big-endian length prefix, then
that many bytes of UTF-8 JSON.  Coordinator→worker frames: ``job``,
``cancel``, ``shutdown``.  Worker→coordinator: ``hello`` (on accept),
``heartbeat``, ``result``, ``error``.  Everything on the wire is plain
JSON — configs via :func:`config_to_payload`, outcomes via
:func:`outcome_to_payload`, the protocol itself as an importable builder
reference (:func:`builder_ref`) re-resolved on the worker, and the active
:class:`~repro.faults.runtime.FaultPlan` so one ``REPRO_FAULT_PLAN`` on
the coordinator drives a whole-cluster chaos drill.

Network fault injection hooks live in :mod:`repro.faults.runtime`
(``drop_frame``, ``delay_frame``, ``duplicate_result``, ``partition``,
``stale_lease``) and fire on the worker's send path, so every recovery
path above is deterministically testable without a flaky network.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import os
import select
import socket
import struct
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..core import exceptions as core_exceptions
from ..core.exceptions import TransportError
from ..core.heuristic import HeuristicOptions
from ..core.synthesizer import SynthesisConfig
from ..faults import runtime as fault_runtime
from ..faults.runtime import FaultPlan
from ..trace.tracer import NULL_TRACER

#: length-prefix format: 4-byte unsigned big-endian
_LEN = struct.Struct(">I")

#: refuse frames beyond this (a corrupt prefix must not allocate 4 GiB)
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: default TCP port for ``stsyn worker --listen`` when none is given
DEFAULT_WORKER_PORT = 9178


# ----------------------------------------------------------------------
# frame protocol
# ----------------------------------------------------------------------


def encode_frame(obj: dict) -> bytes:
    """Length-prefixed JSON frame bytes for one message."""
    body = json.dumps(obj, separators=(",", ":")).encode()
    if len(body) > MAX_FRAME_BYTES:
        raise TransportError(f"frame of {len(body)} bytes exceeds limit")
    return _LEN.pack(len(body)) + body


def send_frame(sock: socket.socket, obj: dict) -> None:
    """Send one frame; any socket failure surfaces as TransportError."""
    try:
        sock.sendall(encode_frame(obj))
    except (OSError, ValueError) as exc:
        raise TransportError(f"frame send failed: {exc}") from exc


def recv_frame(sock: socket.socket, timeout: float | None = None) -> dict:
    """Blocking receive of one frame (for the worker-server side).

    Raises :class:`TransportError` on EOF, a torn frame, malformed JSON or
    an oversized length prefix; ``socket.timeout`` propagates so callers
    can poll.
    """
    sock.settimeout(timeout)
    header = _recv_exact(sock, _LEN.size)
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise TransportError(f"frame length {length} exceeds limit")
    body = _recv_exact(sock, length)
    try:
        obj = json.loads(body.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TransportError(f"malformed frame: {exc}") from exc
    if not isinstance(obj, dict):
        raise TransportError("frame payload is not a JSON object")
    return obj


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    while n:
        try:
            chunk = sock.recv(n)
        except socket.timeout:
            if chunks:
                # mid-frame timeout would tear the stream; keep waiting
                continue
            raise
        except OSError as exc:
            raise TransportError(f"frame receive failed: {exc}") from exc
        if not chunk:
            raise TransportError("connection closed mid-frame (EOF)")
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


class FrameBuffer:
    """Incremental frame parser for the coordinator's non-blocking sockets."""

    def __init__(self):
        self._buf = bytearray()

    def feed(self, data: bytes) -> list[dict]:
        """Append raw bytes; return every now-complete frame."""
        self._buf.extend(data)
        frames = []
        while True:
            if len(self._buf) < _LEN.size:
                return frames
            (length,) = _LEN.unpack(self._buf[: _LEN.size])
            if length > MAX_FRAME_BYTES:
                raise TransportError(f"frame length {length} exceeds limit")
            end = _LEN.size + length
            if len(self._buf) < end:
                return frames
            body = bytes(self._buf[_LEN.size:end])
            del self._buf[:end]
            try:
                obj = json.loads(body.decode())
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise TransportError(f"malformed frame: {exc}") from exc
            if not isinstance(obj, dict):
                raise TransportError("frame payload is not a JSON object")
            frames.append(obj)


# ----------------------------------------------------------------------
# payload codecs: everything on the wire is plain JSON
# ----------------------------------------------------------------------


def config_to_payload(config: SynthesisConfig) -> dict:
    return {
        "schedule": list(config.schedule),
        "options": dataclasses.asdict(config.options),
    }


def config_from_payload(payload: dict) -> SynthesisConfig:
    return SynthesisConfig(
        schedule=tuple(payload["schedule"]),
        options=HeuristicOptions(**payload["options"]),
    )


def outcome_to_payload(outcome) -> dict:
    """JSON record of a :class:`~repro.parallel.ParallelOutcome` (config is
    NOT included — the coordinator reattaches it from the lease)."""
    return {
        "success": outcome.success,
        "pss_groups": (
            [sorted(g) for g in outcome.pss_groups]
            if outcome.pss_groups is not None
            else None
        ),
        "remaining_deadlocks": outcome.remaining_deadlocks,
        "timers": dict(outcome.timers),
        "counters": dict(outcome.counters),
        "cancelled": outcome.cancelled,
        "cancel_reason": outcome.cancel_reason,
        "duration": outcome.duration,
        "retries": outcome.retries,
        "certificate": outcome.certificate,
    }


def outcome_from_payload(config: SynthesisConfig, payload: dict):
    from .pool import ParallelOutcome

    pss = payload.get("pss_groups")
    return ParallelOutcome(
        config=config,
        success=bool(payload.get("success", False)),
        pss_groups=(
            [set(map(tuple, g)) for g in pss] if pss is not None else None
        ),
        remaining_deadlocks=int(payload.get("remaining_deadlocks", -1)),
        timers=dict(payload.get("timers", {})),
        counters=dict(payload.get("counters", {})),
        cancelled=bool(payload.get("cancelled", False)),
        cancel_reason=payload.get("cancel_reason"),
        duration=float(payload.get("duration", 0.0)),
        retries=int(payload.get("retries", 0)),
        certificate=payload.get("certificate"),
    )


def builder_ref(builder: Callable, builder_args: tuple) -> dict:
    """Importable reference to a protocol builder, shippable as JSON.

    A remote worker cannot receive a pickled closure over a JSON wire; it
    re-imports ``module:qualname`` and calls it with the (JSON-checked)
    arguments — exactly what the spawn start method already requires of
    builders, so every builder that works locally today qualifies.
    """
    module = getattr(builder, "__module__", None)
    qualname = getattr(builder, "__qualname__", None)
    if not module or not qualname or "<locals>" in qualname:
        raise TransportError(
            f"builder {builder!r} is not importable (module-level callables "
            "only); remote workers re-import it by name"
        )
    try:
        json.dumps(list(builder_args))
    except (TypeError, ValueError) as exc:
        raise TransportError(
            f"builder args {builder_args!r} are not JSON-serialisable: {exc}"
        ) from exc
    ref = {"ref": f"{module}:{qualname}", "args": list(builder_args)}
    resolved, _ = resolve_builder(ref)  # fail fast on the coordinator
    if resolved is not builder:
        raise TransportError(
            f"builder {module}:{qualname} does not resolve back to itself"
        )
    return ref


def resolve_builder(ref: dict) -> tuple[Callable, tuple]:
    """Worker-side inverse of :func:`builder_ref`."""
    try:
        module_name, _, qualname = str(ref["ref"]).partition(":")
        obj = importlib.import_module(module_name)
        for part in qualname.split("."):
            obj = getattr(obj, part)
        return obj, tuple(ref.get("args", ()))
    except (KeyError, ImportError, AttributeError, ValueError) as exc:
        raise TransportError(f"cannot resolve builder {ref!r}: {exc}") from exc


def _exception_from_frame(frame: dict) -> BaseException:
    """Rebuild a worker-side exception from its wire record.

    Known synthesis exceptions (complete negative answers like
    ``NotClosedError``) reconstruct as their own type so the parent's
    "answers re-raise, never retry" rule keeps working across the network;
    anything else becomes a RuntimeError carrying the original type name.
    """
    exc_type = str(frame.get("exc_type", "RuntimeError"))
    message = str(frame.get("message", ""))
    cls = getattr(core_exceptions, exc_type, None)
    if isinstance(cls, type) and issubclass(cls, Exception):
        try:
            return cls(message)
        except TypeError:
            pass
    return RuntimeError(f"remote worker raised {exc_type}: {message}")


def parse_endpoint(spec: str) -> tuple[str, int]:
    """``"host:port"`` (or bare ``"host"`` with the default port) → tuple."""
    spec = spec.strip()
    host, sep, port = spec.rpartition(":")
    if not sep:
        return spec, DEFAULT_WORKER_PORT
    try:
        return host or "127.0.0.1", int(port)
    except ValueError as exc:
        raise TransportError(f"bad worker endpoint {spec!r}") from exc


# ----------------------------------------------------------------------
# channel + transport contracts
# ----------------------------------------------------------------------


@dataclass
class Message:
    """One normalised worker→supervisor message."""

    kind: str  # "heartbeat" | "result" | "error"
    lease_id: str
    #: decoded outcome (local channels deliver the object directly)
    outcome: object | None = None
    #: raw outcome payload (TCP channels; decoded once the config is known)
    payload: dict | None = None
    error: BaseException | None = None


class WorkerChannel:
    """One supervised worker slot, transport-agnostic."""

    remote = False
    supports_heartbeat = False
    worker_id = "?"

    def send_job(self, job: dict) -> None:
        raise NotImplementedError

    def send_cancel(self) -> None:
        """Best-effort 'a winner verified elsewhere' signal."""

    def send_shutdown(self) -> None:
        """Best-effort graceful shutdown signal."""

    def wait_handle(self):
        """Object accepted by ``multiprocessing.connection.wait``."""
        raise NotImplementedError

    def pump(self) -> list[Message]:
        """Drain every available message; TransportError on a dead peer."""
        raise NotImplementedError

    def alive(self) -> bool:
        raise NotImplementedError

    def kill(self) -> None:
        """Hard-stop the worker behind this channel (watchdog path)."""

    def close(self) -> None:
        raise NotImplementedError

    def exitcode(self):
        return None


class LocalProcessChannel(WorkerChannel):
    """Today's ``Process``+``Pipe`` slot behind the channel interface.

    No heartbeats: process liveness and pipe EOF already give the
    supervisor a crisp failure signal on one box, so the lease machinery
    stays out of the local fast path.
    """

    remote = False
    supports_heartbeat = False

    def __init__(self, proc, conn):
        self.proc = proc
        self.conn = conn
        self.worker_id = f"local-pid{proc.pid}"

    def send_job(self, job: dict) -> None:
        try:
            self.conn.send(job)
        except (BrokenPipeError, OSError) as exc:
            raise TransportError(f"local worker pipe closed: {exc}") from exc

    def send_shutdown(self) -> None:
        try:
            self.conn.send(None)  # the worker loop's shutdown sentinel
        except (BrokenPipeError, OSError):
            pass

    def wait_handle(self):
        return self.conn

    def pump(self) -> list[Message]:
        messages = []
        try:
            while self.conn.poll(0):
                lease_id, body = self.conn.recv()
                messages.append(self._wrap(lease_id, body))
        except (EOFError, OSError) as exc:
            raise TransportError(f"local worker died: {exc}") from exc
        return messages

    @staticmethod
    def _wrap(lease_id: str, body) -> Message:
        from .pool import _WorkerError

        if isinstance(body, _WorkerError):
            return Message(kind="error", lease_id=lease_id, error=body.exception)
        return Message(kind="result", lease_id=lease_id, outcome=body)

    def alive(self) -> bool:
        return self.proc.is_alive()

    def kill(self) -> None:
        self.proc.terminate()

    def close(self) -> None:
        self.proc.join(timeout=1.0)
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join(timeout=2.0)
        if self.proc.is_alive():
            self.proc.kill()
            self.proc.join(timeout=2.0)
        try:
            self.conn.close()
        except OSError:
            pass

    def exitcode(self):
        return self.proc.exitcode


class TcpWorkerChannel(WorkerChannel):
    """A remote ``stsyn worker`` endpoint speaking JSON frames."""

    remote = True
    supports_heartbeat = True

    def __init__(self, sock: socket.socket, endpoint: tuple[str, int], template: dict):
        self.sock = sock
        self.endpoint = endpoint
        self.template = template
        self.worker_id = f"{endpoint[0]}:{endpoint[1]}"
        self._buffer = FrameBuffer()
        self._closed = False
        sock.setblocking(False)

    # -- sending -------------------------------------------------------
    def _send(self, frame: dict) -> None:
        if self._closed:
            raise TransportError(f"channel to {self.worker_id} is closed")
        try:
            self.sock.setblocking(True)
            send_frame(self.sock, frame)
        finally:
            if not self._closed:
                self.sock.setblocking(False)

    def send_job(self, job: dict) -> None:
        frame = dict(self.template)
        frame.update(
            t="job",
            lease_id=job["lease_id"],
            index=job["index"],
            attempt=job["attempt"],
            config=config_to_payload(job["config"]),
            # worker-local tracing only: a remote worker cannot write into
            # the coordinator's trace directory
        )
        self._send(frame)

    def send_cancel(self) -> None:
        try:
            self._send({"t": "cancel"})
        except TransportError:
            pass

    def send_shutdown(self) -> None:
        try:
            self._send({"t": "shutdown"})
        except TransportError:
            pass

    # -- receiving -----------------------------------------------------
    def wait_handle(self):
        return self.sock

    def pump(self) -> list[Message]:
        frames = []
        eof = False
        try:
            while True:
                data = self.sock.recv(65536)
                if not data:
                    eof = True  # deliver already-buffered frames first
                    break
                frames.extend(self._buffer.feed(data))
        except (BlockingIOError, InterruptedError):
            pass
        except OSError:
            eof = True
        if eof:
            # a result that arrived just before the peer closed (e.g. a
            # worker exiting after --max-jobs) must not be lost: surface
            # the EOF only when there is nothing left to deliver
            self._closed = True
            if not frames:
                raise TransportError(
                    f"worker {self.worker_id} closed the connection"
                )
        messages = []
        for frame in frames:
            kind = frame.get("t")
            lease_id = str(frame.get("lease_id", ""))
            if kind == "heartbeat":
                messages.append(Message(kind="heartbeat", lease_id=lease_id))
            elif kind == "result":
                messages.append(
                    Message(
                        kind="result",
                        lease_id=lease_id,
                        payload=frame.get("outcome") or {},
                    )
                )
            elif kind == "error":
                messages.append(
                    Message(
                        kind="error",
                        lease_id=lease_id,
                        error=_exception_from_frame(frame),
                    )
                )
            # "hello" and unknown frames are connection chatter, not results
        return messages

    def alive(self) -> bool:
        return not self._closed

    def kill(self) -> None:
        # cannot kill a process on another machine; dropping the connection
        # makes the worker cancel its job and return to accept
        self.close()

    def close(self) -> None:
        # idempotent, and also reached after pump() observed EOF (where
        # _closed is already set but the descriptor is still open)
        self._closed = True
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass


# ----------------------------------------------------------------------
# transports
# ----------------------------------------------------------------------


class LocalProcessTransport:
    """Spawns supervised local worker processes (the PR-4 behaviour)."""

    name = "local"

    def __init__(self, ctx, worker_args: tuple, target: Callable):
        self.ctx = ctx
        self.worker_args = worker_args
        self.target = target

    def spawn(self) -> LocalProcessChannel:
        parent_conn, child_conn = self.ctx.Pipe(duplex=True)
        proc = self.ctx.Process(
            target=self.target, args=(child_conn, *self.worker_args), daemon=True
        )
        proc.start()
        # the parent must not hold the child's pipe end open, or a dead
        # worker would never surface as EOF
        child_conn.close()
        return LocalProcessChannel(proc, parent_conn)

    def open(self, n_slots: int) -> list[WorkerChannel]:
        return [self.spawn() for _ in range(n_slots)]

    def replace(self, channel: WorkerChannel, *, reason: str) -> WorkerChannel:
        return self.spawn()

    def close(self) -> None:
        pass


class TcpTransport:
    """Channels to remote ``stsyn worker`` endpoints, degrading to local.

    ``open`` connects to every endpoint (a dead endpoint is skipped with a
    counter, replaced by a local slot when a fallback transport is given).
    ``replace`` is the recovery policy:

    * ``reason="crash"`` (EOF / socket error): one reconnect attempt to the
      same endpoint (``transport.reconnects``), then local fallback;
    * ``reason="lease"`` (missed heartbeats): no reconnect — the endpoint
      is either partitioned away or still busy computing the now-stale
      lease; go straight to the fallback so the re-dispatched config makes
      progress (``transport.degraded_to_local``);
    * ``reason="watchdog"``: same as crash (the kill dropped the
      connection, the worker server survives and accepts again).
    """

    name = "tcp"

    def __init__(
        self,
        endpoints: Sequence[str],
        template: dict,
        *,
        tracer=NULL_TRACER,
        connect_timeout: float = 5.0,
        reconnect_timeout: float = 1.0,
        local_fallback: LocalProcessTransport | None = None,
    ):
        if not endpoints:
            raise TransportError("TcpTransport needs at least one endpoint")
        self.endpoints = [parse_endpoint(e) for e in endpoints]
        self.template = template
        self.tracer = tracer
        self.connect_timeout = connect_timeout
        self.reconnect_timeout = reconnect_timeout
        self.local_fallback = local_fallback

    # -- connection management ----------------------------------------
    def _connect(self, endpoint: tuple[str, int], timeout: float) -> TcpWorkerChannel:
        try:
            sock = socket.create_connection(endpoint, timeout=timeout)
        except OSError as exc:
            raise TransportError(
                f"cannot connect to worker {endpoint[0]}:{endpoint[1]}: {exc}"
            ) from exc
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            # a server mid-job leaves the connect in its backlog: demand the
            # hello frame before trusting the channel, so a busy or wedged
            # endpoint fails fast instead of silently eating a job frame
            hello = recv_frame(sock, timeout=timeout)
            if hello.get("t") != "hello":
                raise TransportError(
                    f"worker {endpoint[0]}:{endpoint[1]} sent "
                    f"{hello.get('t')!r} instead of hello"
                )
        except (socket.timeout, TransportError) as exc:
            sock.close()
            raise TransportError(
                f"no hello from worker {endpoint[0]}:{endpoint[1]}: {exc}"
            ) from exc
        return TcpWorkerChannel(sock, endpoint, self.template)

    def _fallback_slot(self) -> WorkerChannel | None:
        if self.local_fallback is None:
            return None
        self.tracer.count("transport.degraded_to_local")
        self.tracer.event("transport.degraded_to_local")
        return self.local_fallback.spawn()

    def open(self, n_slots: int) -> list[WorkerChannel]:
        channels: list[WorkerChannel] = []
        for endpoint in self.endpoints:
            try:
                channels.append(self._connect(endpoint, self.connect_timeout))
            except TransportError as exc:
                self.tracer.event(
                    "transport.connect_failed",
                    endpoint=f"{endpoint[0]}:{endpoint[1]}",
                    error=str(exc),
                )
                fallback = self._fallback_slot()
                if fallback is not None:
                    channels.append(fallback)
        if not channels:
            raise TransportError(
                "no worker endpoint reachable and no local fallback available"
            )
        return channels

    def replace(self, channel: WorkerChannel, *, reason: str) -> WorkerChannel | None:
        if isinstance(channel, TcpWorkerChannel) and reason != "lease":
            try:
                replacement = self._connect(
                    channel.endpoint, self.reconnect_timeout
                )
            except TransportError:
                pass
            else:
                self.tracer.count("transport.reconnects")
                self.tracer.event(
                    "transport.reconnect", endpoint=replacement.worker_id
                )
                return replacement
        if isinstance(channel, LocalProcessChannel):
            # a degraded local slot stays local
            if self.local_fallback is not None:
                return self.local_fallback.spawn()
            return None
        return self._fallback_slot()

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# the worker server (``stsyn worker --listen``)
# ----------------------------------------------------------------------


@dataclass
class _ActiveJob:
    lease_id: str
    config_desc: str
    thread: threading.Thread
    cancel: threading.Event
    outbox: list = field(default_factory=list)  # [(kind, body)] set by thread


class WorkerServer:
    """A single-tenant synthesis worker serving one coordinator at a time.

    Accepts a connection, answers ``job`` frames by running the full
    heuristic (rebuilding protocol + precompute from the shipped builder
    reference), heartbeats every ``heartbeat_interval`` while computing,
    honours ``cancel`` frames through the standard
    :class:`~repro.parallel.scheduler.CancelToken` path, and sends the
    outcome back as a ``result`` frame.  A dropped connection cancels the
    running job and the server returns to ``accept`` — a coordinator
    crash never wedges the fleet.

    All the network fault knobs of :class:`~repro.faults.runtime.FaultPlan`
    (frame drops/delays/duplication, partitions, stale leases) hook the
    send path here, and ``crash_worker_at`` still fires *inside* the job,
    taking the whole server down — the live-kill drill for a dead host.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_jobs: int | None = None,
        drain_timeout: float = 30.0,
        log: Callable[[str], None] | None = None,
    ):
        self.host = host
        self.port = port
        self.max_jobs = max_jobs
        self.drain_timeout = drain_timeout
        self.log = log or (lambda line: None)
        self.jobs_done = 0
        self._listener: socket.socket | None = None
        self._stop = threading.Event()
        self._drain = threading.Event()
        self._drain_deadline: float | None = None

    # -- lifecycle -----------------------------------------------------
    def start(self) -> tuple[str, int]:
        """Bind and listen; returns the bound (host, port)."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(4)
        listener.settimeout(0.2)
        self._listener = listener
        self.host, self.port = listener.getsockname()[:2]
        self.log(f"stsyn worker listening on {self.host}:{self.port}")
        return self.host, self.port

    def shutdown(self) -> None:
        self._stop.set()

    def request_drain(self) -> None:
        """Begin a graceful drain (SIGTERM path): stop accepting new
        coordinators, let the in-flight job finish — heartbeating all the
        while — up to ``drain_timeout`` seconds, deliver its result, then
        exit cleanly.  Today's alternative is a select loop dying mid-job
        and the coordinator paying a full lease timeout to notice."""
        if self._drain.is_set():
            return
        self._drain_deadline = time.monotonic() + max(0.0, self.drain_timeout)
        self._drain.set()
        self.log(
            f"drain requested: finishing in-flight work "
            f"(up to {self.drain_timeout:.0f}s), accepting no new jobs"
        )

    @property
    def draining(self) -> bool:
        return self._drain.is_set()

    def serve_forever(self) -> None:
        if self._listener is None:
            self.start()
        try:
            while not self._stop.is_set():
                if self._drain.is_set():
                    return  # no active coordinator: drained, exit now
                if self.max_jobs is not None and self.jobs_done >= self.max_jobs:
                    return
                try:
                    conn, addr = self._listener.accept()
                except socket.timeout:
                    continue
                except OSError:
                    return
                self.log(f"coordinator connected from {addr[0]}:{addr[1]}")
                try:
                    self._serve_connection(conn)
                finally:
                    try:
                        conn.close()
                    except OSError:
                        pass
                self.log("coordinator disconnected")
        finally:
            self._listener.close()
            self._listener = None

    # -- one connection ------------------------------------------------
    def _serve_connection(self, conn: socket.socket) -> None:
        send_lock = threading.Lock()

        def ship(frame: dict, frame_kind: str) -> None:
            """Fault-hooked send: drop/delay/partition per the active plan."""
            if fault_runtime.should_drop_frame(frame_kind):
                return
            delay = fault_runtime.frame_delay(frame_kind)
            if delay > 0:
                time.sleep(delay)
            with send_lock:
                send_frame(conn, frame)

        try:
            with send_lock:
                send_frame(
                    conn,
                    {"t": "hello", "worker": f"pid{os.getpid()}", "max_jobs": self.max_jobs},
                )
        except TransportError:
            return

        active: _ActiveJob | None = None
        heartbeat_interval = 1.0
        last_beat = 0.0
        buffer = FrameBuffer()
        conn.setblocking(False)
        try:
            while not self._stop.is_set():
                try:
                    readable, _, _ = select.select([conn], [], [], 0.05)
                except OSError:
                    return
                if readable:
                    try:
                        data = conn.recv(65536)
                    except (BlockingIOError, InterruptedError):
                        data = None
                    except OSError:
                        return
                    else:
                        if not data:
                            return  # coordinator gone
                    frames = buffer.feed(data) if data else []
                    for frame in frames:
                        kind = frame.get("t")
                        if kind == "job":
                            if self._drain.is_set():
                                # draining: refuse, so the coordinator
                                # re-dispatches elsewhere instead of paying
                                # a lease timeout on a doomed assignment
                                ship(
                                    {
                                        "t": "error",
                                        "lease_id": frame.get("lease_id", ""),
                                        "exc_type": "TransportError",
                                        "message": "worker is draining",
                                    },
                                    "error",
                                )
                                continue
                            if active is not None and active.thread.is_alive():
                                ship(
                                    {
                                        "t": "error",
                                        "lease_id": frame.get("lease_id", ""),
                                        "exc_type": "TransportError",
                                        "message": "worker is busy",
                                    },
                                    "error",
                                )
                                continue
                            active = self._start_job(frame)
                            heartbeat_interval = float(
                                frame.get("heartbeat_interval", 1.0)
                            )
                            last_beat = time.monotonic()
                        elif kind == "cancel":
                            if active is not None:
                                active.cancel.set()
                        elif kind == "shutdown":
                            return
                now = time.monotonic()
                if active is not None and active.thread.is_alive():
                    if now - last_beat >= heartbeat_interval:
                        # final heartbeats keep flowing during a drain, so
                        # the coordinator's lease stays fresh while the
                        # in-flight job wraps up
                        ship(
                            {"t": "heartbeat", "lease_id": active.lease_id},
                            "heartbeat",
                        )
                        last_beat = now
                    if (
                        self._drain.is_set()
                        and self._drain_deadline is not None
                        and now >= self._drain_deadline
                    ):
                        # drain budget exhausted: cancel cooperatively; the
                        # job returns a cancelled outcome at its next
                        # pass/rank boundary and is delivered below.  A job
                        # that ignores the token (hang drill) is abandoned
                        # another grace period later by the finally clause.
                        active.cancel.set()
                        if now >= self._drain_deadline + 5.0:
                            return
                elif active is not None:
                    # job finished: deliver its outcome (or error)
                    active.thread.join()
                    self._deliver(active, ship)
                    self.jobs_done += 1
                    active = None
                    if self._drain.is_set():
                        return  # drained: in-flight work delivered, exit
                    if (
                        self.max_jobs is not None
                        and self.jobs_done >= self.max_jobs
                    ):
                        return
                elif self._drain.is_set():
                    return  # idle and draining: nothing to wait for
        except TransportError:
            return
        finally:
            if active is not None:
                active.cancel.set()
                active.thread.join(timeout=30.0)

    def _start_job(self, frame: dict) -> _ActiveJob:
        cancel = threading.Event()
        lease_id = str(frame.get("lease_id", ""))
        config = config_from_payload(frame["config"])
        self.log(f"job {lease_id}: {config.describe()}")
        job = _ActiveJob(
            lease_id=lease_id,
            config_desc=config.describe(),
            thread=None,  # set below
            cancel=cancel,
        )

        def run() -> None:
            from .pool import _init_worker, _worker

            try:
                builder, builder_args = resolve_builder(frame["builder"])
                plan_payload = frame.get("fault_plan")
                plan = (
                    FaultPlan(**plan_payload)
                    if plan_payload is not None
                    else FaultPlan.from_env()
                )
                _init_worker(
                    cancel,
                    frame.get("soft_deadline"),
                    builder,
                    builder_args,
                    None,
                    plan,
                )
                outcome = _worker(
                    (config, int(frame.get("index", 0)), None,
                     int(frame.get("attempt", 0)))
                )
            except BaseException as exc:  # travels back as an error frame
                job.outbox.append(("error", exc))
            else:
                job.outbox.append(("result", outcome))

        thread = threading.Thread(target=run, daemon=True)
        job.thread = thread
        thread.start()
        return job

    def _deliver(self, job: _ActiveJob, ship) -> None:
        if not job.outbox:
            return
        kind, body = job.outbox[-1]
        if kind == "error":
            self.log(f"job {job.lease_id}: error {type(body).__name__}: {body}")
            ship(
                {
                    "t": "error",
                    "lease_id": job.lease_id,
                    "exc_type": type(body).__name__,
                    "message": str(body),
                },
                "error",
            )
            return
        # the stale-lease drill: sit on the finished result (no heartbeats
        # are flowing any more) until the coordinator's lease has expired
        delay = fault_runtime.stale_lease_delay()
        if delay > 0:
            time.sleep(delay)
        frame = {
            "t": "result",
            "lease_id": job.lease_id,
            "outcome": outcome_to_payload(body),
        }
        self.log(
            f"job {job.lease_id}: done success={body.success} "
            f"cancelled={body.cancelled}"
        )
        ship(frame, "result")
        if fault_runtime.should_duplicate_result():
            ship(frame, "result")


def run_worker_server(
    listen: str,
    *,
    max_jobs: int | None = None,
    drain_timeout: float = 30.0,
    log: Callable[[str], None] | None = None,
) -> int:
    """Entry point of ``stsyn worker --listen host:port``; returns jobs done.

    SIGTERM/SIGINT trigger a graceful drain: stop accepting, finish the
    in-flight job (heartbeats included) up to ``drain_timeout`` seconds,
    deliver its result, exit 0.  A second signal forces an immediate stop.
    The previous handlers are restored on return.
    """
    import signal

    host, port = parse_endpoint(listen)
    server = WorkerServer(
        host, port, max_jobs=max_jobs, drain_timeout=drain_timeout, log=log
    )

    def _on_signal(signum, frame):
        if server.draining:
            server.log("second signal: stopping immediately")
            server.shutdown()
        else:
            server.request_drain()

    previous = {}
    try:
        for signum in (signal.SIGTERM, signal.SIGINT):
            previous[signum] = signal.signal(signum, _on_signal)
    except ValueError:
        pass  # not the main thread (embedded in tests): no signal hooks
    try:
        server.start()
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
        if server.draining:
            server.log("drained cleanly")
        return server.jobs_done
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
